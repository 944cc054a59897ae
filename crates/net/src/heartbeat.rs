//! Coordinator-driven heartbeat failure detection.
//!
//! Every worker rank sends a small beat frame to the coordinator on a
//! dedicated control lane ([`CH_HEARTBEAT`]) every
//! `OPT_NET_HEARTBEAT_MS` milliseconds. The coordinator feeds arrival
//! times into a [`FailureDetector`]; a rank whose beats have been silent
//! for `interval * misses` (ten intervals: 1 s at the default cadence) is
//! declared dead. This is how a SIGKILLed rank is *detected* — instead of
//! a survivor discovering the death via a 30-second receive timeout deep
//! inside a collective.
//!
//! The detector itself is pure bookkeeping over caller-supplied
//! [`Instant`]s, so its semantics (including the slow-but-alive
//! false-positive boundary) are unit-testable without sockets or clocks.
//!
//! Heartbeat traffic lives in channel namespace 3 (control plane), which
//! [`crate::TrafficBreakdown::new`] filters out of the per-lane traffic
//! report — so the beat cadence can never perturb the bit-exact traffic
//! contract between backends.

use crate::transport::channel_id;
use std::time::{Duration, Instant};

/// Control lane carrying worker → coordinator heartbeats (namespace 3,
/// after the command/ack/shard/restore/metrics/trace lanes).
pub const CH_HEARTBEAT: u64 = channel_id(3, 6);

/// Default beat interval when `OPT_NET_HEARTBEAT_MS` is unset.
const DEFAULT_INTERVAL_MS: u64 = 100;

/// Missed-beat threshold of the runtime's detector. Detection latency is
/// `interval * misses`: 1 s at the default interval.
const DEFAULT_MISSES: u32 = 10;

/// Heartbeat cadence and the missed-beat threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatConfig {
    /// How often each worker sends a beat.
    pub interval: Duration,
    /// How many consecutive intervals of silence declare a rank dead.
    pub misses: u32,
}

impl Default for HeartbeatConfig {
    fn default() -> Self {
        HeartbeatConfig {
            interval: Duration::from_millis(DEFAULT_INTERVAL_MS),
            misses: DEFAULT_MISSES,
        }
    }
}

impl HeartbeatConfig {
    /// The default config with its beat interval read from
    /// `OPT_NET_HEARTBEAT_MS` (100 ms if unset or unparsable; at 10
    /// misses that is 1 s of detection latency).
    pub fn from_env() -> Self {
        let ms = std::env::var("OPT_NET_HEARTBEAT_MS")
            .ok()
            .and_then(|v| v.parse::<u64>().ok())
            .unwrap_or(DEFAULT_INTERVAL_MS)
            .max(1);
        HeartbeatConfig {
            interval: Duration::from_millis(ms),
            ..HeartbeatConfig::default()
        }
    }

    /// Silence longer than this declares a rank dead.
    pub fn silence_limit(&self) -> Duration {
        self.interval.saturating_mul(self.misses.max(1))
    }
}

/// Pure failure-detection bookkeeping: last-beat timestamps per rank,
/// judged against [`HeartbeatConfig::silence_limit`].
///
/// A rank is *suspected dead* once `now - last_beat(rank)` exceeds the
/// silence limit. A slow-but-alive rank whose beats keep arriving within
/// the limit — however late within it — is never flagged, which is the
/// false-positive boundary the failure-matrix tests pin down.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    config: HeartbeatConfig,
    /// Last observed beat per rank. Seeded with the construction instant:
    /// a freshly meshed world gets one full silence window before anyone
    /// can be suspected.
    last_beat: Vec<Instant>,
}

impl FailureDetector {
    /// Creates a detector over `world` ranks, treating `now` as the most
    /// recent beat of every rank.
    pub fn new(config: HeartbeatConfig, world: usize, now: Instant) -> Self {
        FailureDetector {
            config,
            last_beat: vec![now; world],
        }
    }

    /// The detector's configuration.
    pub fn config(&self) -> HeartbeatConfig {
        self.config
    }

    /// Records a beat from `rank` observed at `now`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is outside the world.
    pub fn record_beat(&mut self, rank: usize, now: Instant) {
        let slot = &mut self.last_beat[rank];
        // Beats can be drained out of order relative to the clock reads
        // around them; never move a rank's liveness backwards.
        if now > *slot {
            *slot = now;
        }
    }

    /// Re-arms `rank` after a replacement process took over its identity,
    /// granting it a fresh silence window starting at `now`.
    pub fn reset(&mut self, rank: usize, now: Instant) {
        self.last_beat[rank] = now;
    }

    /// How long `rank` has been silent as of `now`.
    pub fn silence(&self, rank: usize, now: Instant) -> Duration {
        now.saturating_duration_since(self.last_beat[rank])
    }

    /// Whether `rank` is suspected dead as of `now`.
    pub fn is_suspect(&self, rank: usize, now: Instant) -> bool {
        self.silence(rank, now) > self.config.silence_limit()
    }

    /// Every rank suspected dead as of `now`, in rank order.
    pub fn dead_ranks(&self, now: Instant) -> Vec<usize> {
        (0..self.last_beat.len())
            .filter(|&r| self.is_suspect(r, now))
            .collect()
    }

    /// The lowest-numbered suspected-dead rank, if any.
    pub fn first_dead(&self, now: Instant) -> Option<usize> {
        (0..self.last_beat.len()).find(|&r| self.is_suspect(r, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chanstats::ChannelClass;

    fn cfg(interval_ms: u64, misses: u32) -> HeartbeatConfig {
        HeartbeatConfig {
            interval: Duration::from_millis(interval_ms),
            misses,
        }
    }

    #[test]
    fn heartbeat_lane_is_control_class() {
        // The traffic report filters control-plane lanes, so the beat
        // cadence can never perturb the bit-exact traffic contract.
        assert_eq!(ChannelClass::of(CH_HEARTBEAT), ChannelClass::Control);
    }

    #[test]
    fn fresh_world_gets_a_full_silence_window() {
        let t0 = Instant::now();
        let d = FailureDetector::new(cfg(100, 10), 4, t0);
        assert_eq!(d.dead_ranks(t0), Vec::<usize>::new());
        assert_eq!(d.first_dead(t0 + Duration::from_millis(999)), None);
        assert_eq!(d.first_dead(t0 + Duration::from_millis(1001)), Some(0));
    }

    #[test]
    fn silent_rank_is_detected_others_are_not() {
        let t0 = Instant::now();
        let mut d = FailureDetector::new(cfg(10, 3), 3, t0);
        // Ranks 0 and 2 keep beating; rank 1 goes silent after t0.
        for step in 1..=20u64 {
            let now = t0 + Duration::from_millis(step * 10);
            d.record_beat(0, now);
            d.record_beat(2, now);
        }
        let now = t0 + Duration::from_millis(200);
        assert_eq!(d.dead_ranks(now), vec![1]);
        assert!(d.is_suspect(1, now));
        assert!(!d.is_suspect(0, now));
        assert!(d.silence(1, now) >= Duration::from_millis(200));
    }

    #[test]
    fn slow_but_alive_rank_is_never_flagged() {
        // A rank that beats only once per (silence_limit - epsilon) skirts
        // the threshold forever without a false positive.
        let t0 = Instant::now();
        let mut d = FailureDetector::new(cfg(10, 5), 1, t0);
        let limit = d.config().silence_limit();
        assert_eq!(limit, Duration::from_millis(50));
        let mut last = t0;
        for _ in 0..50 {
            let next = last + limit - Duration::from_millis(1);
            assert!(!d.is_suspect(0, next), "false positive on a live rank");
            d.record_beat(0, next);
            last = next;
        }
        // Exactly at the limit is still alive; only *exceeding* it kills.
        assert!(!d.is_suspect(0, last + limit));
        assert!(d.is_suspect(0, last + limit + Duration::from_millis(1)));
    }

    #[test]
    fn reset_rearms_a_replaced_rank() {
        let t0 = Instant::now();
        let mut d = FailureDetector::new(cfg(10, 2), 2, t0);
        let later = t0 + Duration::from_secs(10);
        assert!(d.is_suspect(0, later));
        d.reset(0, later);
        assert!(!d.is_suspect(0, later));
        assert_eq!(d.dead_ranks(later), vec![1]);
    }

    #[test]
    fn beats_never_move_liveness_backwards() {
        let t0 = Instant::now();
        let mut d = FailureDetector::new(cfg(10, 2), 1, t0);
        let t1 = t0 + Duration::from_millis(100);
        d.record_beat(0, t1);
        // A beat stamped before the latest one must not regress the rank.
        d.record_beat(0, t0);
        assert_eq!(d.silence(0, t1), Duration::ZERO);
    }

    #[test]
    fn env_defaults_apply() {
        // OPT_NET_HEARTBEAT_MS is unset in the test environment.
        let c = HeartbeatConfig::from_env();
        assert_eq!(c, HeartbeatConfig::default());
        assert_eq!(c.silence_limit(), Duration::from_millis(1000));
    }
}
