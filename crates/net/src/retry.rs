//! Deterministic capped-exponential retry/backoff.
//!
//! Every place the runtime waits for a peer to come up (TCP mesh dialing,
//! rendezvous-endpoint polling, [`crate::TcpShardStore`] connects) goes
//! through one [`RetryPolicy`]. The backoff schedule is *deterministic* —
//! no jitter — so two runs of the same scenario retry on the same cadence,
//! keeping wall-clock behavior reproducible enough to reason about in
//! tests.
//!
//! The runtime uses [`RetryPolicy::default`] everywhere: first sleep
//! 25 ms, doubling up to a 1000 ms ceiling, and 10 attempts where no
//! deadline bounds the retry.

use std::time::{Duration, Instant};

/// First backoff sleep of the default policy.
const DEFAULT_BASE_MS: u64 = 25;

/// Backoff ceiling of the default policy.
const DEFAULT_CAP_MS: u64 = 1000;

/// Attempt budget of the default policy when no deadline bounds the retry.
const DEFAULT_ATTEMPTS: u32 = 10;

/// A deterministic capped-exponential backoff schedule.
///
/// Attempt `i` (zero-based) is followed by a sleep of
/// `min(base * 2^i, cap)`; there is no jitter, so the schedule is a pure
/// function of the three fields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Sleep after the first failed attempt.
    pub base: Duration,
    /// Ceiling every backoff sleep saturates at.
    pub cap: Duration,
    /// Attempt budget for [`RetryPolicy::run`] (deadline-less retries).
    pub attempts: u32,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            base: Duration::from_millis(DEFAULT_BASE_MS),
            cap: Duration::from_millis(DEFAULT_CAP_MS),
            attempts: DEFAULT_ATTEMPTS,
        }
    }
}

impl RetryPolicy {
    /// The backoff sleep after failed attempt `attempt` (zero-based):
    /// `min(base * 2^attempt, cap)`.
    pub fn delay(&self, attempt: u32) -> Duration {
        let mult = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
        self.base.saturating_mul(mult).min(self.cap)
    }

    /// Runs `op` until it succeeds or the attempt budget is exhausted,
    /// sleeping the backoff schedule between attempts. Returns the last
    /// error when every attempt fails.
    pub fn run<T, E>(&self, mut op: impl FnMut() -> Result<T, E>) -> Result<T, E> {
        let attempts = self.attempts.max(1);
        let mut attempt = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if attempt + 1 >= attempts => return Err(e),
                Err(_) => {
                    std::thread::sleep(self.delay(attempt));
                    attempt += 1;
                }
            }
        }
    }

    /// Runs `op` until it succeeds or `deadline` passes, sleeping the
    /// backoff schedule (clipped to the remaining time) between attempts.
    /// The attempt budget does not apply — the deadline is the bound.
    /// Returns the last error once the deadline has passed.
    pub fn run_until<T, E>(
        &self,
        deadline: Instant,
        mut op: impl FnMut() -> Result<T, E>,
    ) -> Result<T, E> {
        let mut attempt = 0;
        loop {
            match op() {
                Ok(v) => return Ok(v),
                Err(e) if Instant::now() >= deadline => return Err(e),
                Err(_) => {
                    let sleep = self
                        .delay(attempt)
                        .min(deadline.saturating_duration_since(Instant::now()));
                    std::thread::sleep(sleep);
                    attempt += 1;
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential() {
        let p = RetryPolicy {
            base: Duration::from_millis(10),
            cap: Duration::from_millis(70),
            attempts: 5,
        };
        assert_eq!(p.delay(0), Duration::from_millis(10));
        assert_eq!(p.delay(1), Duration::from_millis(20));
        assert_eq!(p.delay(2), Duration::from_millis(40));
        assert_eq!(p.delay(3), Duration::from_millis(70));
        assert_eq!(p.delay(4), Duration::from_millis(70));
        // Huge attempt counts must not overflow the shift.
        assert_eq!(p.delay(63), Duration::from_millis(70));
    }

    #[test]
    fn run_stops_after_attempt_budget() {
        let p = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(1),
            attempts: 3,
        };
        let mut calls = 0;
        let r: Result<(), &str> = p.run(|| {
            calls += 1;
            Err("nope")
        });
        assert_eq!(r, Err("nope"));
        assert_eq!(calls, 3);
    }

    #[test]
    fn run_returns_first_success() {
        let p = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(1),
            attempts: 10,
        };
        let mut calls = 0;
        let r: Result<u32, &str> = p.run(|| {
            calls += 1;
            if calls < 4 {
                Err("not yet")
            } else {
                Ok(42)
            }
        });
        assert_eq!(r, Ok(42));
        assert_eq!(calls, 4);
    }

    #[test]
    fn run_until_respects_deadline() {
        let p = RetryPolicy {
            base: Duration::from_millis(5),
            cap: Duration::from_millis(5),
            attempts: 1, // ignored by run_until
        };
        let start = Instant::now();
        let deadline = start + Duration::from_millis(40);
        let r: Result<(), &str> = p.run_until(deadline, || Err("still down"));
        assert_eq!(r, Err("still down"));
        assert!(start.elapsed() >= Duration::from_millis(40));
        // And a success path that needs several attempts but fits.
        let mut calls = 0;
        let r: Result<u32, &str> = p.run_until(Instant::now() + Duration::from_secs(5), || {
            calls += 1;
            if calls < 3 {
                Err("not yet")
            } else {
                Ok(7)
            }
        });
        assert_eq!(r, Ok(7));
    }

    #[test]
    fn zero_attempts_still_runs_once() {
        let p = RetryPolicy {
            base: Duration::from_millis(1),
            cap: Duration::from_millis(1),
            attempts: 0,
        };
        let mut calls = 0;
        let r: Result<(), &str> = p.run(|| {
            calls += 1;
            Err("x")
        });
        assert_eq!(r, Err("x"));
        assert_eq!(calls, 1);
    }
}
