//! Fault-injection harness: scripted worker failures with elastic
//! recovery from the newest checkpoint. One driver loop
//! ([`run_with_faults`]) runs every scenario, and one protocol recovers
//! it: the whole world is relaunched and self-restores. A [`Recovery`]
//! picks the world it runs on and where checkpoints live.

use crate::proc::{ProcOptions, ProcTrainer, WorldError};
use crate::{TrainReport, Trainer, TrainerConfig};
use opt_ckpt::{FaultPlan, ShardManifest};
use opt_net::{FsShardStore, MemShardStore, ShardStore, ShardStoreServer};
use opt_trace::TraceMode;
use std::path::PathBuf;
use std::sync::Arc;

/// What a faulted run went through, alongside its final metrics.
#[derive(Debug, Clone)]
pub struct FaultOutcome {
    /// Metrics of the run that reached the configured iteration count.
    /// Iterations executed only by a killed incarnation show up as `NaN`
    /// in `report.train_loss`; everything from the resume point onward is
    /// recorded (and, per the bit-exact-resume guarantee, identical to an
    /// uninterrupted run).
    pub report: TrainReport,
    /// Snapshots taken across all incarnations.
    pub snapshots_taken: u64,
    /// Elastic restarts performed.
    pub restarts: u64,
    /// Iterations that had to be re-executed after failures.
    pub lost_iters: u64,
    /// Iteration the final incarnation resumed from (`None` if the run
    /// never failed).
    pub resumed_from: Option<u64>,
}

/// Launch parameters for a faulted run on real worker processes.
#[derive(Debug, Clone)]
pub struct ProcFaultOptions {
    /// Path to the compiled `opt-worker` binary.
    pub worker_bin: PathBuf,
    /// Scratch directory for rendezvous state (fresh subdirectories are
    /// created per world incarnation).
    pub scratch_dir: PathBuf,
    /// Where the shard store's blobs live: a directory (so the manifest
    /// survives the run, e.g. for CI artifacts) or `None` for an
    /// in-memory store inside the coordinator — workers reach it over TCP
    /// either way.
    pub store_dir: Option<PathBuf>,
}

/// Which world a faulted run trains on, and where it checkpoints.
///
/// Both recover the same way. A single worker death tears down the whole
/// job — the collective world cannot make progress minus one member,
/// which mirrors a real 3D-parallel job losing a GPU — and a fresh world
/// self-restores from the newest checkpoint. [`Recovery::Sharded`] runs on
/// worker *threads*, where the "kill" quiesces and stops every thread
/// without any state being flushed. [`Recovery::ProcessRelaunch`] runs on
/// real `opt-worker` OS *processes* meshed over loopback TCP, checkpoints
/// through a TCP shard store served by the coordinator, and `SIGKILL`s an
/// actual process. For the same config and plan the two agree on the
/// whole [`FaultOutcome`]: its counters, and a report whose losses
/// (`NaN` pattern included) and traffic are bit-identical.
#[derive(Debug, Clone)]
pub enum Recovery {
    /// Per-rank shards published by the workers themselves into this
    /// store ([`Trainer::save_sharded`]); every relaunched worker
    /// rendezvouses on the manifest and fetches only its own shard
    /// ([`Trainer::restore_sharded`]) — exactly what a replacement worker
    /// on a different host would do. No coordinator-held state survives
    /// the failure.
    Sharded(Arc<dyn ShardStore>),
    /// Process world; the survivors of the `SIGKILL` are torn down too
    /// and a whole new world self-restores from the TCP store.
    ProcessRelaunch(ProcFaultOptions),
}

/// The world a faulted run drives: either launcher, behind the calls the
/// driver loop needs from both. A thread world is handed its store with
/// every checkpoint call; a process world was launched with one.
enum World {
    Threads(Box<Trainer>, Arc<dyn ShardStore>),
    Procs(Box<ProcTrainer>),
}

impl World {
    fn train_more(&mut self, extra: u64) -> Result<(), WorldError> {
        match self {
            World::Threads(t, _) => t.coord.train_more(extra),
            World::Procs(t) => t.coord.train_more(extra),
        }
    }

    fn save_sharded(&mut self) -> Result<ShardManifest, WorldError> {
        match self {
            World::Threads(t, store) => Ok(t.save_sharded(store)?),
            World::Procs(t) => t.save_sharded(),
        }
    }

    fn finish(self) -> Result<TrainReport, WorldError> {
        match self {
            World::Threads(mut t, _) => {
                let report = t.coord.report()?;
                t.shutdown();
                Ok(report)
            }
            World::Procs(mut t) => {
                let report = t.report()?;
                t.shutdown()?;
                Ok(report)
            }
        }
    }
}

/// Trains `cfg.iters` iterations under a scripted [`FaultPlan`]: take a
/// checkpoint every `plan.snapshot_every` iterations, kill worker
/// `plan.kill_rank` once `plan.kill_at_iter` iterations complete, and
/// recover from the newest checkpoint (or from scratch if none exists
/// yet) the way `recovery` says.
///
/// # Example
///
/// ```no_run
/// use opt_ckpt::FaultPlan;
/// use optimus_cc::{run_with_faults, QualityConfig, Recovery, TrainerConfig};
///
/// let cfg = TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), 12);
/// let store = std::sync::Arc::new(opt_net::MemShardStore::new());
/// let outcome = run_with_faults(&cfg, &FaultPlan::new(1, 10, 4), &Recovery::Sharded(store)).unwrap();
/// assert_eq!(outcome.restarts, 1);
/// assert_eq!(outcome.lost_iters, 2); // killed at 10, snapshot at 8
/// ```
///
/// # Panics
///
/// Panics if `plan.kill_rank` lies outside the world.
pub fn run_with_faults(
    cfg: &TrainerConfig,
    plan: &FaultPlan,
    recovery: &Recovery,
) -> Result<FaultOutcome, WorldError> {
    assert!(
        plan.kill_rank < cfg.pp * cfg.dp,
        "kill_rank {} outside the {}x{} world",
        plan.kill_rank,
        cfg.pp,
        cfg.dp
    );
    // A process world checkpoints through a shard store this run serves
    // over TCP for as long as it lasts.
    let launch: Box<dyn Fn() -> Result<World, WorldError> + '_> = match recovery {
        Recovery::Sharded(store) => Box::new(move || {
            let world = Trainer::launch(cfg.clone());
            Ok(World::Threads(Box::new(world), Arc::clone(store)))
        }),
        Recovery::ProcessRelaunch(opts) => {
            let inner: Arc<dyn ShardStore> = match &opts.store_dir {
                Some(dir) => Arc::new(FsShardStore::new(dir)),
                None => Arc::new(MemShardStore::new()),
            };
            let server = ShardStoreServer::spawn(inner, "127.0.0.1:0")
                .map_err(|e| WorldError::Protocol(format!("shard store server: {e}")))?;
            Box::new(move || {
                let popts = ProcOptions {
                    worker_bin: opts.worker_bin.clone(),
                    store_addr: server.addr(),
                    scratch_dir: opts.scratch_dir.clone(),
                };
                let world = ProcTrainer::launch(cfg.clone(), popts, TraceMode::from_env())?;
                Ok(World::Procs(Box::new(world)))
            })
        }
    };

    let total = cfg.iters;
    let mut world = launch()?;
    // The newest checkpoint's iteration; its state lives in the store.
    let mut newest: Option<u64> = None;
    let mut snapshots_taken = 0;
    let mut restarts = 0;
    let mut lost_iters = 0;
    let mut resumed_from = None;
    let mut failed = false;

    let mut completed: u64 = 0;
    while completed < total {
        world.train_more(1)?;
        completed += 1;
        if plan.snapshot_due(completed) && completed < total {
            newest = Some(world.save_sharded()?.meta.iter);
            snapshots_taken += 1;
        }
        if !failed && completed == plan.kill_at_iter {
            failed = true;
            restarts += 1;
            // A full relaunch: the collective world cannot progress minus
            // a member, so the rest of the incarnation goes too, and a
            // fresh world picks up the newest checkpoint — or starts from
            // scratch when there is none yet.
            let resumed;
            (world, resumed) = match world {
                World::Procs(mut t) => {
                    t.kill_rank(plan.kill_rank)?;
                    debug_assert!(t.dead_ranks().contains(&plan.kill_rank));
                    t.abort();
                    let mut fresh = launch()?;
                    if let (World::Procs(t), Some(_)) = (&mut fresh, newest) {
                        t.self_restore_all()?;
                    }
                    (fresh, newest.unwrap_or(0))
                }
                World::Threads(t, store) => {
                    t.kill();
                    let fresh = match newest {
                        Some(_) => Trainer::restore_sharded(cfg.clone(), &store)?,
                        None => Trainer::launch(cfg.clone()),
                    };
                    (World::Threads(Box::new(fresh), store), newest.unwrap_or(0))
                }
            };
            lost_iters += completed - resumed;
            resumed_from = Some(resumed);
            completed = resumed;
        }
    }
    Ok(FaultOutcome {
        report: world.finish()?,
        snapshots_taken,
        restarts,
        lost_iters,
        resumed_from,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QualityConfig;

    fn sharded() -> Recovery {
        Recovery::Sharded(Arc::new(MemShardStore::new()))
    }

    #[test]
    fn faulted_run_completes_and_accounts_for_lost_work() {
        let cfg = TrainerConfig::tiny_test(QualityConfig::cb(), 9);
        let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
        let recovery = Recovery::Sharded(Arc::clone(&store));
        let outcome =
            run_with_faults(&cfg, &FaultPlan::new(2, 7, 3), &recovery).expect("faulted run");
        assert_eq!(outcome.restarts, 1);
        assert_eq!(outcome.snapshots_taken, 2); // iters 3 and 6
        assert_eq!(outcome.lost_iters, 1); // killed at 7, resumed from 6
        assert_eq!(outcome.resumed_from, Some(6));
        assert_eq!(outcome.report.train_loss.len(), 9);
        // Post-resume iterations all have recorded losses.
        for (i, l) in outcome.report.train_loss[6..].iter().enumerate() {
            assert!(l.is_finite(), "iteration {} lost its loss", 6 + i);
        }
        // The store ends up holding the manifest plus one shard per rank:
        // the iter-3 shards went when the iter-6 manifest committed.
        let names = store.list().expect("list");
        assert_eq!(names.len(), 1 + cfg.pp * cfg.dp);
        assert!(names.iter().any(|n| n == "manifest.ckpt"));
    }

    #[test]
    fn failure_before_first_snapshot_restarts_from_scratch() {
        let cfg = TrainerConfig::tiny_test(QualityConfig::baseline(), 5);
        let outcome =
            run_with_faults(&cfg, &FaultPlan::new(0, 2, 4), &sharded()).expect("faulted run");
        assert_eq!(outcome.restarts, 1);
        assert_eq!(outcome.lost_iters, 2);
        assert_eq!(outcome.resumed_from, Some(0));
        // From-scratch restart re-executes everything: full loss curve.
        assert!(outcome.report.train_loss.iter().all(|l| l.is_finite()));
    }

    #[test]
    fn run_without_reaching_kill_iter_never_restarts() {
        let cfg = TrainerConfig::tiny_test(QualityConfig::baseline(), 3);
        let outcome = run_with_faults(&cfg, &FaultPlan::new(0, 100, 2), &sharded()).expect("run");
        assert_eq!(outcome.restarts, 0);
        assert_eq!(outcome.resumed_from, None);
        assert_eq!(outcome.snapshots_taken, 1); // iter 2
    }
}
