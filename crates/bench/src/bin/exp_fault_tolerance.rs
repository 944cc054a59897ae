//! Fault-tolerance experiment: checkpoint-cadence trade-off on the
//! paper-scale cluster (simulated) and bit-exact elastic restart on the
//! numerical trainer.
//!
//! Not a paper figure — this exercises the `opt-ckpt` subsystem the way an
//! operator would: pick a snapshot cadence, lose a worker mid-run, and pay
//! detection + relaunch + per-rank shard fetch + replay.
//!
//! Knobs: `OPT_QUALITY_ITERS` (default 30) sets the small-model
//! quality-proxy training iterations; CI smoke uses `OPT_QUALITY_ITERS=5`.

use opt_bench::{banner, fmt, print_table};
use opt_ckpt::FaultPlan;
use opt_net::MemShardStore;
use opt_sim::{
    simulate_with_faults, snapshot_bytes, CkptCostModel,
    Recovery::{FullRelaunch, Rejoin},
    SimConfig, StoreTransport,
};
use optimus_cc::{run_with_faults, QualityConfig, Recovery, Trainer, TrainerConfig};
use std::sync::Arc;

fn main() {
    let iters: u64 = std::env::var("OPT_QUALITY_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(30);

    banner("Checkpoint-cadence trade-off — GPT-2.5B, 1000 iters, failure at iter 777");
    let cfg = SimConfig::paper_gpt_2_5b();
    let costs = CkptCostModel::paper_cluster();
    println!(
        "snapshot size: {:.1} GB in per-rank shards over TCP ({:.0} GB/s per rank, manifest \
         rendezvous {:.0} s), detection {:.0} s, relaunch {:.0} s\n",
        snapshot_bytes(&cfg) / 1e9,
        costs.shard_fetch_bw / 1e9,
        costs.rendezvous_s,
        costs.detection_s,
        costs.relaunch_s
    );
    let mut rows = Vec::new();
    for every in [0u64, 250, 100, 50, 20, 5] {
        let r = simulate_with_faults(
            &cfg,
            1000,
            &FaultPlan::new(3, 777, every),
            &costs,
            StoreTransport::Tcp,
            FullRelaunch,
        );
        rows.push(vec![
            if every == 0 {
                "never".to_string()
            } else {
                every.to_string()
            },
            fmt(format!("{:.2}", r.snapshot_overhead_s)),
            fmt(format!("{:.0}", r.restart_overhead_s)),
            fmt(format!("{:.0}", r.replay_time_s)),
            fmt(format!("{:.2}", r.total_time_s / 3600.0)),
            fmt(format!("{:.2}%", 100.0 * r.overhead_fraction())),
        ]);
    }
    print_table(
        &[
            "Snapshot every",
            "Write (s)",
            "Restart (s)",
            "Replay (s)",
            "Total (h)",
            "Overhead",
        ],
        &rows,
    );
    println!("Frequent snapshots buy cheap recovery with steady-state write cost;");
    println!("'never' pays by replaying all 777 lost iterations.");

    let plan = FaultPlan::new(3, 777, 50);
    banner("Shard-store transport: in-process vs real TCP wire — same failure, cadence 50");
    println!(
        "local copies {:.0} GB/s; TCP {:.0} GB/s per rank + {:.1} ms connect per operation\n",
        costs.mem_bw / 1e9,
        costs.shard_fetch_bw / 1e9,
        costs.tcp_connect_s * 1e3
    );
    let local = simulate_with_faults(
        &cfg,
        1000,
        &plan,
        &costs,
        StoreTransport::Local,
        FullRelaunch,
    );
    let tcp = simulate_with_faults(&cfg, 1000, &plan, &costs, StoreTransport::Tcp, FullRelaunch);
    let rows: Vec<Vec<String>> = [
        ("local (MemShardStore)", &local),
        ("TCP (TcpShardStore)", &tcp),
    ]
    .iter()
    .map(|(name, r)| {
        // Per-rank shard I/O is milliseconds against a 90 s restart, so
        // print the wire's contribution at full resolution.
        vec![
            name.to_string(),
            fmt(format!("{:.1}", r.snapshot_overhead_s * 1e3)),
            fmt(format!("{:.4}", r.restart_overhead_s)),
            fmt(format!("{:.2}", r.total_time_s / 3600.0)),
            fmt(format!("{:.3}%", 100.0 * r.overhead_fraction())),
        ]
    })
    .collect();
    print_table(
        &[
            "Store transport",
            "Write (ms)",
            "Restart (s)",
            "Total (h)",
            "Overhead",
        ],
        &rows,
    );
    println!("The real wire costs bandwidth and per-operation setup, never correctness:");
    println!("the numerical runtime produces bit-identical losses on both transports.");

    banner("Elastic single-rank rejoin vs full relaunch — same failure, cadence 50");
    println!(
        "heartbeat verdict {:.0} s (vs {:.0} s NCCL timeout), quiesce {:.1} s, \
         single-rank relaunch {:.0} s (vs {:.0} s world relaunch)\n",
        costs.hb_detection_s,
        costs.detection_s,
        costs.quiesce_s,
        costs.rank_relaunch_s,
        costs.relaunch_s
    );
    let full = &tcp; // the same run: TCP store, whole-world relaunch
    let rejoin = simulate_with_faults(&cfg, 1000, &plan, &costs, StoreTransport::Tcp, Rejoin);
    let rows: Vec<Vec<String>> = [("full relaunch", full), ("single-rank rejoin", &rejoin)]
        .iter()
        .map(|(name, r)| {
            vec![
                name.to_string(),
                fmt(format!("{:.1}", r.restart_overhead_s)),
                fmt(format!("{:.0}", r.replay_time_s)),
                fmt(format!("{:.2}", r.total_time_s / 3600.0)),
                fmt(format!("{:.2}%", 100.0 * r.overhead_fraction())),
            ]
        })
        .collect();
    print_table(
        &[
            "Recovery",
            "Downtime (s)",
            "Replay (s)",
            "Total (h)",
            "Overhead",
        ],
        &rows,
    );
    println!(
        "Rejoin cuts downtime {:.1}x: survivors stay up (same PIDs, same sockets)",
        full.restart_overhead_s / rejoin.restart_overhead_s
    );
    println!("while the replacement self-restores its shard and splices into the mesh;");
    println!("replay is unchanged — both recoveries resume from the same snapshot.");

    banner("Bit-exact elastic restart — numerical trainer, full Optimus-CC");
    let kill_at = (2 * iters / 3).max(2);
    let every = (iters / 3).max(1);
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
}
