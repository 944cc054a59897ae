//! Fault-tolerance experiment: bit-exact elastic restart on the numerical
//! trainer.
//!
//! Not a paper figure — this exercises the `opt-ckpt` subsystem the way an
//! operator would: snapshot on a cadence, lose a worker between two
//! snapshots, restore every rank's shard from a `MemShardStore`, replay the
//! lost iterations, and check the losses against an uninterrupted run bit
//! for bit.
//!
//! Knobs: `OPT_QUALITY_ITERS` (default 30, at least 1) sets the
//! small-model quality-proxy training iterations; CI smoke uses
//! `OPT_QUALITY_ITERS=5`.

use opt_bench::{banner, fmt, print_table};
use opt_ckpt::FaultPlan;
use opt_net::MemShardStore;
use optimus_cc::{run_with_faults, QualityConfig, Recovery, Trainer, TrainerConfig};
use std::sync::Arc;

fn main() {
    let iters: u64 = std::env::var("OPT_QUALITY_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30)
        .max(1);

    banner("Bit-exact elastic restart — numerical trainer, full Optimus-CC");
    // The kill falls after a snapshot and before the next one (before the
    // first, on runs too short for one), so there is always work to replay.
    let every = (iters / 3).max(2);
    let kill_at = (2 * every + 1).min(iters);
    let plan = FaultPlan::new(1, kill_at, every);
    let tcfg = TrainerConfig::small_test(QualityConfig::cb_fe_sc(), iters);
    println!(
        "{iters} iterations, snapshot every {every}, worker 1 dies after iteration {kill_at}\n"
    );

    let mut straight = Trainer::launch(tcfg.clone());
    let straight_report = straight.train();
    straight.shutdown();
    let recovery = Recovery::Sharded(Arc::new(MemShardStore::new()));
    let outcome = run_with_faults(&tcfg, &plan, &recovery).expect("faulted run completes");

    let resume_at = outcome.resumed_from.unwrap_or(0) as usize;
    let mut max_delta = 0.0f32;
    let mut rows = Vec::new();
    for iter in resume_at..iters as usize {
        let a = straight_report.train_loss[iter];
        let b = outcome.report.train_loss[iter];
        max_delta = max_delta.max((a - b).abs());
        if iter < resume_at + 3 || iter + 3 >= iters as usize {
            rows.push(vec![
                iter.to_string(),
                fmt(format!("{a:.9}")),
                fmt(format!("{b:.9}")),
                (a.to_bits() == b.to_bits()).to_string(),
            ]);
        }
    }
    print_table(
        &["Iter", "Straight loss", "Faulted loss", "Bit-exact"],
        &rows,
    );
    println!(
        "restarts: {}, snapshots: {}, lost iterations replayed: {}",
        outcome.restarts, outcome.snapshots_taken, outcome.lost_iters
    );
    println!("max |loss delta| after restore: {max_delta:e}");
    assert_eq!(max_delta, 0.0, "resume must be bit-exact");
    assert!(outcome.lost_iters >= 1, "the kill must cost replayed work");
}
