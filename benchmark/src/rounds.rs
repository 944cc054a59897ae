//! Rounds: one fresh launch each, driven as a closed loop — a single
//! coordinator issues `train_more(1)` and waits for the barrier.

use crate::workload::Workload;
use crate::world::{peak_rss_kb, watchdog, Fabric, Progress, World};
use optimus_cc::{Trace, TraceMode, TrainReport};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Iterations a traced round runs at least.
const MIN_TRACED_ITERS: u64 = 20;
/// Empty `train_more(0)` round trips timed for `core.barrier_us`.
const BARRIER_REPS: usize = 200;

/// What one round measures beyond its iterations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoundKind {
    /// Tracing off; validates after the fixed iteration count.
    Timed,
    /// As `Timed`, then the control-plane and checkpoint probes.
    TimedWithProbes,
    /// `TraceMode::Spans`; returns the spans of the timed iterations only.
    Traced,
}

#[derive(Debug)]
pub struct Probes {
    pub barrier_us: f64,
    /// `Trainer::snapshot()` time and encoded size; thread worlds only.
    pub snapshot: Option<(f64, u64)>,
    pub compress_state_bytes: Option<u64>,
}

#[derive(Debug)]
pub struct Round {
    /// Launch → end of the warm-up barrier.
    pub setup_s: f64,
    /// Wall-clock of each `train_more(1)` after warm-up.
    pub samples_ms: Vec<f64>,
    /// The report at exactly `warmup + fixed_iters` iterations.
    pub report: Option<TrainReport>,
    /// `VmHWM` of this process plus its worker processes when the fixed
    /// iteration count was reached, kB: the training footprint, read
    /// before validation stashes activations for its whole sample.
    pub training_rss_kb: u64,
    pub probes: Option<Probes>,
    pub trace: Option<Trace>,
}

fn drive(
    world: &mut World,
    w: &Workload,
    kind: RoundKind,
    time_box: Duration,
    launched: Instant,
    progress: &Progress,
) -> Result<Round, String> {
    progress.step(world, w.warmup)?;
    let setup_s = launched.elapsed().as_secs_f64();
    let traced = kind == RoundKind::Traced;
    if traced {
        // Drop the launch and warm-up spans: the next drain then holds
        // the timed iterations and nothing else.
        world.take_trace()?;
    }
    let min_iters = if traced {
        MIN_TRACED_ITERS
    } else {
        w.fixed_iters
    };
    let mut samples_ms = Vec::new();
    let mut timed = Duration::ZERO;
    let mut report = None;
    let mut training_rss_kb = 0;
    loop {
        let done = samples_ms.len() as u64;
        if !traced && done == w.fixed_iters {
            let pids = std::iter::once(std::process::id()).chain(world.worker_pids());
            training_rss_kb = pids.filter_map(peak_rss_kb).sum();
            report = Some(world.train()?);
        }
        if done >= min_iters && timed >= time_box {
            break;
        }
        let t = Instant::now();
        progress.step(world, 1)?;
        let dt = t.elapsed();
        timed += dt;
        samples_ms.push(dt.as_secs_f64() * 1e3);
    }
    let probes = if kind == RoundKind::TimedWithProbes {
        let mut trips = Vec::with_capacity(BARRIER_REPS);
        for _ in 0..BARRIER_REPS {
            let t = Instant::now();
            world.train_more(0)?;
            trips.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Some(Probes {
            barrier_us: crate::stats::median(&trips),
            snapshot: world.time_snapshot(),
            compress_state_bytes: world.compress_state_bytes(),
        })
    } else {
        None
    };
    let trace = if traced { world.take_trace()? } else { None };
    Ok(Round {
        setup_s,
        samples_ms,
        report,
        training_rss_kb,
        probes,
        trace,
    })
}

fn run_round(
    w: &Workload,
    seed: u64,
    kind: RoundKind,
    time_box: Duration,
    fabric: &Fabric,
    progress: &Progress,
) -> Result<Round, String> {
    let trace = if kind == RoundKind::Traced {
        TraceMode::Spans
    } else {
        TraceMode::Off
    };
    let launched = Instant::now();
    World::run(w.config(seed), fabric, trace, progress, |world| {
        drive(world, w, kind, time_box, launched, progress)
    })
}

/// The rounds that completed, and the iteration accounting over all of
/// them, warm-up included.
#[derive(Debug, Default)]
pub struct RoundsOutcome {
    pub rounds: Vec<Round>,
    pub attempted: u64,
    pub failed: u64,
    /// Why rounds failed.
    pub errors: Vec<String>,
}

/// Runs `kinds.len()` rounds, each under a watchdog of ten times its
/// expected length. A round that returns `Err`, panics or times out
/// counts every iteration it did not complete as failed — at least the
/// planned minimum — and so does each round skipped after it: a world
/// that hung once is not given the chance to hang the run again.
pub fn run_rounds(
    w: &Workload,
    seed: u64,
    kinds: &[RoundKind],
    time_box: Duration,
    fabric: &Fabric,
) -> RoundsOutcome {
    let planned = w.warmup + w.fixed_iters;
    let limit = (10 * (time_box + Duration::from_secs(4))).min(Duration::from_secs(100));
    let mut out = RoundsOutcome::default();
    for (i, &kind) in kinds.iter().enumerate() {
        let progress = Arc::new(Progress::default());
        let (w2, fabric2) = (w.clone(), fabric.clone());
        let result = watchdog(limit, &progress, move |p| {
            run_round(&w2, seed, kind, time_box, &fabric2, p)
        });
        let attempted = progress.attempted.load(Ordering::Relaxed);
        let completed = progress.completed.load(Ordering::Relaxed);
        match result {
            Ok(round) => {
                out.attempted += attempted;
                out.rounds.push(round);
            }
            Err(e) => {
                let skipped = (kinds.len() - i - 1) as u64;
                let attempted = attempted.max(planned);
                out.attempted += attempted + skipped * planned;
                out.failed += attempted - completed + skipped * planned;
                out.errors.push(format!("{} round {i}: {e}", w.name));
                break;
            }
        }
    }
    out
}

/// Trains the workload straight through on a fresh world and returns its
/// report: the reference a twin workload's losses are compared with.
pub fn reference_report(w: &Workload, seed: u64, fabric: &Fabric) -> Result<TrainReport, String> {
    let progress = Arc::new(Progress::default());
    let (w2, fabric2) = (w.clone(), fabric.clone());
    watchdog(Duration::from_secs(100), &progress, move |p| {
        World::run(w2.config(seed), &fabric2, TraceMode::Off, p, World::train)
    })
}
