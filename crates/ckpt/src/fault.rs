//! Fault-injection plans for the numerical trainer.

/// A scripted failure: kill worker `kill_rank` once `kill_at_iter`
/// iterations have completed, then elastically restart from the newest
/// snapshot (or from scratch if none was taken yet).
///
/// `optimus-cc`'s `run_with_faults` replays it against real worker threads
/// or processes.
///
/// # Example
///
/// ```
/// use opt_ckpt::FaultPlan;
///
/// let plan = FaultPlan::new(2, 17, 5);
/// assert_eq!(plan.last_snapshot_before(17), Some(15));
/// assert_eq!(plan.lost_iters(17), 2); // iters 16..17 must be replayed
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultPlan {
    /// Global rank of the worker that dies. In the in-process trainer a
    /// single worker death tears down the whole job (an all-reduce world
    /// cannot make progress minus one member) — which is exactly what
    /// happens to a real 3D-parallel job when one GPU drops out.
    pub kill_rank: usize,
    /// Failure strikes after this many completed iterations.
    pub kill_at_iter: u64,
    /// Snapshot cadence in iterations (`0` = never snapshot).
    pub snapshot_every: u64,
}

impl FaultPlan {
    /// Creates a plan.
    pub fn new(kill_rank: usize, kill_at_iter: u64, snapshot_every: u64) -> Self {
        Self {
            kill_rank,
            kill_at_iter,
            snapshot_every,
        }
    }

    /// Whether a snapshot is due after `completed` iterations.
    pub fn snapshot_due(&self, completed: u64) -> bool {
        self.snapshot_every > 0 && completed > 0 && completed.is_multiple_of(self.snapshot_every)
    }

    /// The newest snapshot iteration at or before `iter`, if any.
    pub fn last_snapshot_before(&self, iter: u64) -> Option<u64> {
        if self.snapshot_every == 0 || iter < self.snapshot_every {
            return None;
        }
        Some(iter - iter % self.snapshot_every)
    }

    /// Iterations of work lost (to be replayed) when failing after `at`
    /// completed iterations: everything since the newest snapshot.
    pub fn lost_iters(&self, at: u64) -> u64 {
        at - self.last_snapshot_before(at).unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_cadence() {
        let plan = FaultPlan::new(0, 100, 10);
        assert!(!plan.snapshot_due(0));
        assert!(plan.snapshot_due(10));
        assert!(!plan.snapshot_due(11));
        assert!(plan.snapshot_due(20));
        let never = FaultPlan::new(0, 100, 0);
        assert!(!never.snapshot_due(10));
    }

    #[test]
    fn last_snapshot_and_lost_work() {
        let plan = FaultPlan::new(1, 23, 10);
        assert_eq!(plan.last_snapshot_before(23), Some(20));
        assert_eq!(plan.last_snapshot_before(20), Some(20));
        assert_eq!(plan.last_snapshot_before(9), None);
        assert_eq!(plan.lost_iters(23), 3);
        assert_eq!(plan.lost_iters(20), 0);
        assert_eq!(plan.lost_iters(9), 9);
        let never = FaultPlan::new(1, 23, 0);
        assert_eq!(never.last_snapshot_before(23), None);
        assert_eq!(never.lost_iters(23), 23);
    }
}
