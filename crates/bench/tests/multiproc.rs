//! The acceptance gate of the transport refactor: a loopback TCP world of
//! **real `opt-worker` OS processes** must reproduce the single-process
//! in-process run bit for bit — through training, a `SIGKILL`ed worker
//! process, and a per-rank self-restore from a TCP shard store.
//!
//! `CARGO_BIN_EXE_opt_worker` points at the compiled worker binary; cargo
//! builds it before running this test.

use opt_ckpt::{shard_file_name, CkptError, FaultPlan, ShardManifest, MANIFEST_FILE};
use opt_net::{FsShardStore, MemShardStore, ShardStore, ShardStoreServer, TcpShardStore};
use opt_trace::Trace;
use optimus_cc::{
    run_with_faults, ProcFaultOptions, ProcOptions, QualityConfig, Recovery, TraceMode, Trainer,
    TrainerConfig, WorldError,
};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::Duration;

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_opt_worker"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("opt-multiproc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// Losses must agree bit-for-bit, NaN pattern included.
fn assert_bit_identical(a: &[f32], b: &[f32]) {
    assert_eq!(a.len(), b.len(), "loss curves have different lengths");
    for (i, (x, y)) in a.iter().zip(b).enumerate() {
        if x.is_nan() {
            assert!(y.is_nan(), "iteration {i}: {x} vs {y}");
        } else {
            assert_eq!(x.to_bits(), y.to_bits(), "iteration {i}: {x} vs {y}");
        }
    }
}

#[test]
fn tcp_process_world_matches_in_process_run_bit_for_bit() {
    let cfg = TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), 6);

    // Reference: the ordinary single-process, thread-based trainer.
    let mut reference = Trainer::launch(cfg.clone());
    let ref_report = reference.train();
    let ref_traffic = ref_report.traffic;
    reference.shutdown();

    // Same run, but every rank is a real OS process over loopback TCP.
    let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
    let server = ShardStoreServer::spawn(store, "127.0.0.1:0").expect("store server");
    let mut proc_world = Trainer::launch_processes(
        cfg,
        ProcOptions {
            worker_bin: worker_bin(),
            store_addr: server.addr(),
            scratch_dir: scratch("plain"),
        },
    )
    .expect("process world");
    let proc_report = proc_world.train().expect("proc train");
    proc_world.shutdown().expect("shutdown");

    assert_bit_identical(&ref_report.train_loss, &proc_report.train_loss);
    assert_eq!(ref_report.val_points.len(), proc_report.val_points.len());
    for (a, b) in ref_report.val_points.iter().zip(&proc_report.val_points) {
        assert_eq!(a.iter, b.iter);
        assert_eq!(a.loss.to_bits(), b.loss.to_bits(), "val loss at {}", a.iter);
    }
    assert_eq!(ref_traffic, proc_report.traffic, "wire accounting diverged");
}

#[test]
fn killed_process_self_restores_from_tcp_store_bit_for_bit() {
    // The headline scenario: train, publish shards over TCP, SIGKILL one
    // worker process, relaunch, self-restore every rank from the TCP
    // store, finish — and match the in-process sharded faulted run
    // exactly (losses AND ledger deltas).
    let cfg = TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), 8);
    let plan = FaultPlan::new(1, 6, 3); // kill rank 1 at iter 6, shards at 3 + 6

    let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
    let in_process =
        run_with_faults(&cfg, &plan, &Recovery::Sharded(store)).expect("in-process run");

    // Keep the shard directory around: CI archives the manifest from the
    // fixed workspace-root path below (tests run with the package dir as
    // CWD, so anchor on the manifest dir).
    let store_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join("multiproc-smoke");
    let _ = std::fs::remove_dir_all(&store_dir);
    let outcome = run_with_faults(
        &cfg,
        &plan,
        &Recovery::ProcessRelaunch(ProcFaultOptions {
            worker_bin: worker_bin(),
            scratch_dir: scratch("faulted"),
            store_dir: Some(store_dir.clone()),
        }),
    )
    .expect("multi-process faulted run");

    assert_eq!(outcome.restarts, in_process.restarts);
    assert_eq!(outcome.snapshots_taken, in_process.snapshots_taken);
    assert_eq!(outcome.lost_iters, in_process.lost_iters);
    assert_eq!(outcome.resumed_from, in_process.resumed_from);
    assert_bit_identical(&in_process.report.train_loss, &outcome.report.train_loss);
    assert_eq!(
        in_process.report.traffic, outcome.report.traffic,
        "post-restore ledger deltas diverged"
    );

    // The store the processes checkpointed through holds a valid
    // manifest naming one shard per rank.
    let on_disk = FsShardStore::new(&store_dir);
    let manifest = ShardManifest::decode(&on_disk.get(MANIFEST_FILE).expect("manifest on disk"))
        .expect("manifest decodes");
    assert_eq!(manifest.world_size(), cfg.pp * cfg.dp);
    for entry in &manifest.shards {
        let blob = on_disk.get(&entry.name).expect("shard on disk");
        entry.verify(&blob).expect("shard verifies");
    }

    // Third leg, the scripted single-rank rejoin: the heartbeat detector
    // flags the SIGKILL, only rank 1 is re-execed, the world rolls back to
    // the iter-3 manifest. Same counters; and from the resume point on,
    // the same losses. Nothing earlier is comparable: the survivors keep
    // their samples and ledgers, so iterations 0..3 average the surviving
    // dp rank alone and the traffic total includes the doomed work.
    let rejoined = run_with_faults(
        &cfg,
        &plan,
        &Recovery::Rejoin(ProcFaultOptions {
            worker_bin: worker_bin(),
            scratch_dir: scratch("faulted-rejoin"),
            store_dir: None,
        }),
    )
    .expect("multi-process rejoin run");
    assert_eq!(rejoined.restarts, in_process.restarts);
    assert_eq!(rejoined.snapshots_taken, in_process.snapshots_taken);
    assert_eq!(rejoined.lost_iters, in_process.lost_iters);
    assert_eq!(rejoined.resumed_from, in_process.resumed_from);
    let resumed = in_process.resumed_from.expect("the plan's kill fired") as usize;
    assert_bit_identical(
        &in_process.report.train_loss[resumed..],
        &rejoined.report.train_loss[resumed..],
    );
}

/// Spans-mode run of a real TCP process world: returns the merged trace.
fn traced_proc_run(cfg: &TrainerConfig, tag: &str, iters: u64) -> Trace {
    let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
    let server = ShardStoreServer::spawn(store, "127.0.0.1:0").expect("store server");
    let mut world = Trainer::launch_processes_traced(
        cfg.clone(),
        ProcOptions {
            worker_bin: worker_bin(),
            store_addr: server.addr(),
            scratch_dir: scratch(tag),
        },
        TraceMode::Spans,
    )
    .expect("traced process world");
    world.train_more(iters).expect("traced train");
    let trace = world
        .take_trace()
        .expect("fetching traces")
        .expect("spans mode is enabled");
    world.shutdown().expect("shutdown");
    trace
}

#[test]
fn traced_process_world_exports_deterministic_chrome_trace() {
    // The observability acceptance gate: a 2x2 pp×dp world of real OS
    // processes under OPT_TRACE=spans yields one merged trace whose
    // *structure* (span kinds, nesting, ordering, byte counts) and
    // bubble-replay numbers are identical across reruns AND identical to
    // the in-process LocalTransport world — only wall-clock timestamps
    // may differ.
    let cfg = TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), 4);
    let iters = 4;

    let mut in_proc = Trainer::launch_with_trace(cfg.clone(), TraceMode::Spans);
    in_proc.train_more(iters);
    let local_trace = in_proc.take_trace().expect("spans mode is enabled");
    in_proc.shutdown();

    let proc_trace = traced_proc_run(&cfg, "trace-a", iters);
    let rerun_trace = traced_proc_run(&cfg, "trace-b", iters);

    assert_eq!(local_trace.buffers.len(), cfg.pp * cfg.dp);
    assert!(local_trace.compute_span_count() > 0, "no compute spans");
    assert_eq!(
        proc_trace.structural_digest(),
        rerun_trace.structural_digest(),
        "process-world trace structure is not reproducible"
    );
    assert_eq!(
        local_trace.structural_digest(),
        proc_trace.structural_digest(),
        "LocalTransport and TCP worlds recorded different span trees"
    );

    // The bubble analysis is a pure function of the structure, so the
    // per-rank fractions are bit-equal across backends and reruns.
    let bubbles = |t: &Trace| -> Vec<f64> {
        opt_trace::analyze(t, 0)
            .ranks
            .iter()
            .map(|r| r.bubble_fraction)
            .collect()
    };
    assert_eq!(bubbles(&local_trace), bubbles(&proc_trace));
    assert_eq!(bubbles(&proc_trace), bubbles(&rerun_trace));

    // Export the merged trace where CI archives it and trace_report
    // asserts on it (a directory of its own: the fault-tolerance test
    // clears target/multiproc-smoke at will).
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join("multiproc-trace");
    std::fs::create_dir_all(&out_dir).expect("trace out dir");
    let json = proc_trace.to_chrome_json();
    assert!(json.contains("\"traceEvents\""));
    std::fs::write(out_dir.join("trace.json"), json).expect("writing trace.json");
}

#[test]
fn sigkilled_rank_rejoins_with_survivors_untouched_bit_for_bit() {
    // The elastic-rejoin acceptance gate (and the CI chaos smoke job,
    // which runs it under OPT_TRACE=spans): SIGKILL one rank of a 2x2 TCP
    // world mid-training, let the coordinator's heartbeat detector notice
    // (no survivor recv timeout), splice a replacement into the live
    // mesh, and finish — survivors keep their PIDs and the final losses
    // and post-rejoin wire traffic are bit-identical to an uninterrupted
    // run.
    let cfg = TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), 8);

    // Uninterrupted in-process reference, snapshotting the ledger at the
    // same segment boundary the faulted world rejoins at.
    let mut reference = Trainer::launch(cfg.clone());
    reference.train_more(4);
    let ref_mid = reference.traffic();
    reference.train_more(4);
    let ref_tail = reference.traffic().delta_since(&ref_mid);
    let ref_report = reference.report();
    reference.shutdown();

    let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
    let server = ShardStoreServer::spawn(store, "127.0.0.1:0").expect("store server");
    let mut world = Trainer::launch_processes_traced(
        cfg,
        ProcOptions {
            worker_bin: worker_bin(),
            store_addr: server.addr(),
            scratch_dir: scratch("rejoin"),
        },
        TraceMode::from_env(),
    )
    .expect("process world");

    world.train_more(4).expect("train to snapshot");
    // False-positive guard: every rank is alive (if slow), so even after
    // a long gap without polling, draining the queued beats flags nobody.
    assert_eq!(world.await_failure(Duration::from_millis(50)), None);

    world.save_sharded().expect("publish shards"); // iter 4
    let pids_before = world.worker_pids();
    world.train_more(2).expect("train past snapshot"); // iters 4, 5

    world.kill_rank(0).expect("SIGKILL rank 0");
    let dead = world
        .await_failure(Duration::from_secs(60))
        .expect("heartbeat detector flags the SIGKILLed rank");
    assert_eq!(dead, 0);
    assert_eq!(world.rejoin_rank(0).expect("rejoin"), 4);

    // Only the dead rank was re-execed; every survivor kept its PID.
    let pids_after = world.worker_pids();
    assert_ne!(pids_before[0], pids_after[0], "dead rank kept its process");
    assert_eq!(
        pids_before[1..],
        pids_after[1..],
        "a survivor was relaunched"
    );

    // Replay 4..6 and train on to 8: the post-rejoin traffic segment
    // matches the reference's iterations 4..8 lane for lane.
    let mid = world.traffic().expect("traffic");
    world.train_more(4).expect("replay and finish");
    let tail = world.traffic().expect("traffic").delta_since(&mid);
    assert_eq!(ref_tail, tail, "post-rejoin wire traffic diverged");

    let report = world.report().expect("report");
    assert!(
        report.train_loss.iter().all(|l| l.is_finite()),
        "rejoin left holes in the loss curve"
    );
    assert_bit_identical(&ref_report.train_loss, &report.train_loss);

    // Double-kill the same rank: a second detect/quiesce/rejoin cycle
    // against the same survivors.
    world.save_sharded().expect("publish shards again"); // iter 8
    world.kill_rank(0).expect("SIGKILL rank 0 again");
    assert_eq!(
        world.await_failure(Duration::from_secs(60)),
        Some(0),
        "second failure went undetected"
    );
    assert_eq!(world.rejoin_rank(0).expect("second rejoin"), 8);
    let pids_final = world.worker_pids();
    assert_eq!(
        pids_after[1..],
        pids_final[1..],
        "survivors must outlive the second rejoin"
    );
    let report = world.report().expect("report after second rejoin");
    assert_bit_identical(&ref_report.train_loss, &report.train_loss);

    // Under OPT_TRACE=spans (the CI chaos job) the coordinator recorded
    // the detect/rejoin/restore spans; export them for the artifact.
    if let Some(trace) = world.take_trace().expect("fetching traces") {
        let json = trace.to_chrome_json();
        assert!(json.contains("detect"), "recovery spans missing from trace");
        assert!(json.contains("rejoin"), "recovery spans missing from trace");
        let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
            .join("../../target")
            .join("chaos-trace");
        std::fs::create_dir_all(&out_dir).expect("trace out dir");
        std::fs::write(out_dir.join("trace.json"), json).expect("writing trace.json");
    }
    world.shutdown().expect("shutdown");
}

#[test]
fn rejoin_without_a_snapshot_is_typed_unrecoverable() {
    // Graceful degradation: a death before any checkpoint was committed
    // cannot be healed by rejoin — the caller gets a typed error, never a
    // hung recv timeout.
    let cfg = TrainerConfig::tiny_test(QualityConfig::cb(), 4);
    let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
    let server = ShardStoreServer::spawn(store, "127.0.0.1:0").expect("store server");
    let mut world = Trainer::launch_processes(
        cfg,
        ProcOptions {
            worker_bin: worker_bin(),
            store_addr: server.addr(),
            scratch_dir: scratch("unrecoverable"),
        },
    )
    .expect("process world");
    world.train_more(1).expect("train");
    world.kill_rank(1).expect("kill");
    let err = world.rejoin_rank(1).expect_err("nothing to restore from");
    assert!(
        matches!(err, WorldError::Unrecoverable { .. }),
        "wrong escalation: {err}"
    );
    assert!(err.to_string().contains("no committed checkpoint manifest"));
    world.abort();
}

#[test]
fn rejoin_survives_interrupted_publish_and_refuses_corrupt_shards() {
    let cfg = TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), 8);
    let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
    let server = ShardStoreServer::spawn(Arc::clone(&store), "127.0.0.1:0").expect("store server");
    let mut world = Trainer::launch_processes(
        cfg.clone(),
        ProcOptions {
            worker_bin: worker_bin(),
            store_addr: server.addr(),
            scratch_dir: scratch("matrix"),
        },
    )
    .expect("process world");
    world.train_more(2).expect("train");
    let manifest = world.save_sharded().expect("save"); // iter 2
    world.train_more(2).expect("train on"); // iters 2, 3

    // A save that died between shard upload and manifest commit leaves
    // orphan blobs in the store; the previous checkpoint must stay
    // restorable through a rejoin.
    for entry in &manifest.shards {
        let half_published = shard_file_name(entry.stage, entry.dp, 4);
        store
            .put(&half_published, b"torn mid-upload")
            .expect("orphan blob");
    }
    world.kill_rank(0).expect("kill during interrupted publish");
    assert_eq!(
        world.rejoin_rank(0).expect("previous manifest restorable"),
        2
    );
    world.train_more(1).expect("world is live after rejoin");

    // A corrupted shard is refused by the replacement (digest validation)
    // and the world escalates with a typed error instead of hanging. The
    // refusal crosses the control plane as its message, so over TCP it
    // arrives as a store-level checkpoint error naming the checksum.
    let name = shard_file_name(0, 0, 2); // rank 0 = (stage 0, dp 0)
    let mut blob = store.get(&name).expect("fetch shard");
    let mid = blob.len() / 2;
    blob[mid] ^= 0x40;
    store.put(&name, &blob).expect("corrupt the shard in place");
    world.kill_rank(0).expect("kill again");
    let err = world.rejoin_rank(0).expect_err("corrupt shard accepted");
    match &err {
        WorldError::Ckpt(CkptError::Store { what }) => {
            assert!(what.contains("checksum mismatch"), "wrong refusal: {what}")
        }
        other => panic!("wrong escalation: {other}"),
    }
    world.abort();
}

#[test]
fn process_world_save_and_monitoring_roundtrip() {
    // save_sharded over TCP produces a manifest any client can read back;
    // dead_ranks reports a SIGKILLed process; abort tears the world down.
    let cfg = TrainerConfig::tiny_test(QualityConfig::cb(), 4);
    let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
    let server = ShardStoreServer::spawn(Arc::clone(&store), "127.0.0.1:0").expect("store server");
    let mut world = Trainer::launch_processes(
        cfg.clone(),
        ProcOptions {
            worker_bin: worker_bin(),
            store_addr: server.addr(),
            scratch_dir: scratch("save"),
        },
    )
    .expect("process world");
    world.train_more(2).expect("train");
    let manifest = world.save_sharded().expect("save");
    assert_eq!(manifest.meta.iter, 2);
    assert_eq!(manifest.world_size(), cfg.pp * cfg.dp);

    // Every shard the manifest names is fetchable and verifies, through
    // a fresh TCP client.
    let client = TcpShardStore::connect(server.addr());
    for entry in &manifest.shards {
        let blob = client.get(&entry.name).expect("fetch shard");
        entry.verify(&blob).expect("shard verifies");
    }

    assert!(world.dead_ranks().is_empty());
    world.kill_rank(0).expect("kill");
    assert_eq!(world.dead_ranks(), vec![0]);
    world.abort();
}
