//! Deterministic capped-exponential retry/backoff.
//!
//! Every place the runtime waits for a peer to come up (TCP mesh dialing,
//! rendezvous-endpoint polling, [`crate::TcpShardStore`] connects) goes
//! through [`retry_until`]: first sleep 25 ms, doubling up to a 1000 ms
//! ceiling, until a deadline. The schedule has no jitter, so two runs of
//! the same scenario retry on the same cadence, keeping wall-clock
//! behavior reproducible enough to reason about in tests.

use std::time::{Duration, Instant};

/// First backoff sleep.
const BASE: Duration = Duration::from_millis(25);

/// Backoff ceiling every sleep saturates at.
const CAP: Duration = Duration::from_millis(1000);

/// The backoff sleep after failed attempt `attempt` (zero-based):
/// `min(25 ms * 2^attempt, 1000 ms)`.
fn delay(attempt: u32) -> Duration {
    let mult = 1u32.checked_shl(attempt).unwrap_or(u32::MAX);
    BASE.saturating_mul(mult).min(CAP)
}

/// Runs `op` until it succeeds or `deadline` passes, sleeping the backoff
/// schedule (clipped to the remaining time) between attempts. Returns the
/// last error once the deadline has passed.
pub(crate) fn retry_until<T, E>(
    deadline: Instant,
    mut op: impl FnMut() -> Result<T, E>,
) -> Result<T, E> {
    let mut attempt = 0;
    loop {
        match op() {
            Ok(v) => return Ok(v),
            Err(e) if Instant::now() >= deadline => return Err(e),
            Err(_) => {
                let sleep = delay(attempt).min(deadline.saturating_duration_since(Instant::now()));
                std::thread::sleep(sleep);
                attempt += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_is_capped_exponential() {
        let ms = Duration::from_millis;
        let schedule: Vec<Duration> = (0..8).map(delay).collect();
        assert_eq!(
            schedule,
            [25, 50, 100, 200, 400, 800, 1000, 1000].map(ms).to_vec()
        );
        // Huge attempt counts must not overflow the shift.
        assert_eq!(delay(63), CAP);
        assert_eq!(delay(u32::MAX), CAP);
    }

    #[test]
    fn run_returns_first_success() {
        let mut calls = 0;
        let r: Result<u32, &str> = retry_until(Instant::now() + Duration::from_secs(5), || {
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
        let start = Instant::now();
        let deadline = start + Duration::from_millis(40);
        let mut calls = 0;
        let r: Result<(), &str> = retry_until(deadline, || {
            calls += 1;
            Err("still down")
        });
        assert_eq!(r, Err("still down"));
        assert!(start.elapsed() >= Duration::from_millis(40));
        assert!(calls >= 2, "gave up without retrying");
    }

    #[test]
    fn expired_deadline_still_runs_once() {
        let mut calls = 0;
        let r: Result<(), &str> = retry_until(Instant::now(), || {
            calls += 1;
            Err("x")
        });
        assert_eq!(r, Err("x"));
        assert_eq!(calls, 1);
    }
}
