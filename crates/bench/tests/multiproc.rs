//! The acceptance gate of the transport refactor: a loopback TCP world of
//! **real `opt-worker` OS processes** must reproduce the single-process
//! in-process run bit for bit — through training, a `SIGKILL`ed worker
//! process, and a per-rank self-restore from a TCP shard store.
//!
//! `CARGO_BIN_EXE_opt_worker` points at the compiled worker binary; cargo
//! builds it before running this test.

use opt_ckpt::{shard_file_name, CkptError, FaultPlan, ShardManifest, MANIFEST_FILE};
use opt_net::{
    FsShardStore, MemShardStore, ShardStore, ShardStoreServer, TcpShardStore, TransportError,
};
use opt_trace::{Trace, TraceFile};
use optimus_cc::{
    run_with_faults, ProcFaultOptions, ProcOptions, QualityConfig, Recovery, TraceMode,
    TrainReport, Trainer, TrainerConfig, WorldError,
};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn worker_bin() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_opt_worker"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("opt-multiproc-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("scratch dir");
    dir
}

/// No worker process may outlive `after`, not even as a zombie: on Linux
/// `/proc/<pid>` exists until the parent reaps the child.
fn assert_reaped(pids: &[u32], after: &str) {
    if cfg!(target_os = "linux") {
        for pid in pids {
            let proc_dir = format!("/proc/{pid}");
            assert!(
                !Path::new(&proc_dir).exists(),
                "worker {pid} outlived {after}"
            );
        }
    }
}

/// Two reports must agree bit-for-bit: training losses (NaN pattern
/// included), validation points and traffic.
fn assert_reports_identical(a: &TrainReport, b: &TrainReport) {
    assert_eq!(
        a.train_loss.len(),
        b.train_loss.len(),
        "loss curves have different lengths"
    );
    for (i, (x, y)) in a.train_loss.iter().zip(&b.train_loss).enumerate() {
        if x.is_nan() {
            assert!(y.is_nan(), "iteration {i}: {x} vs {y}");
        } else {
            assert_eq!(x.to_bits(), y.to_bits(), "iteration {i}: {x} vs {y}");
        }
    }
    assert_eq!(a.val_points.len(), b.val_points.len());
    for (x, y) in a.val_points.iter().zip(&b.val_points) {
        assert_eq!(x.iter, y.iter);
        assert_eq!(x.loss.to_bits(), y.loss.to_bits(), "val loss at {}", x.iter);
    }
    assert_eq!(a.traffic, b.traffic, "wire accounting diverged");
}

#[test]
fn tcp_process_world_matches_in_process_run_bit_for_bit() {
    let cfg = TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), 6);

    // Reference: the ordinary single-process, thread-based trainer.
    let mut reference = Trainer::launch(cfg.clone());
    let ref_report = reference.train();
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

    assert_reports_identical(&ref_report, &proc_report);
}

#[test]
fn killed_process_self_restores_from_tcp_store_bit_for_bit() {
    // The headline scenario: train, publish shards over TCP, SIGKILL one
    // worker process, relaunch, self-restore every rank from the TCP
    // store, finish — and match the in-process sharded faulted run
    // exactly: counters and the whole report.
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
    assert_reports_identical(&in_process.report, &outcome.report);

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
    // clears target/multiproc-smoke at will): the trace file, which must
    // decode back to exactly this trace, and the Chrome JSON for viewing.
    let out_dir = PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("../../target")
        .join("multiproc-trace");
    std::fs::create_dir_all(&out_dir).expect("trace out dir");
    let bin_path = out_dir.join("trace.bin");
    std::fs::write(&bin_path, TraceFile::exported(proc_trace.clone()).encode())
        .expect("writing trace.bin");
    let decoded = TraceFile::decode(&std::fs::read(&bin_path).expect("reading trace.bin"))
        .expect("trace.bin decodes");
    assert_eq!(decoded.trace, proc_trace);
    let json = proc_trace.to_chrome_json();
    assert!(json.contains("\"traceEvents\""));
    std::fs::write(out_dir.join("trace.json"), json).expect("writing trace.json");
}

/// A store served over TCP and a launcher of fresh process worlds that
/// restore from it. Recovery is a whole relaunch whose workers
/// self-restore from the store: a killed rank rejoins only as part of a
/// new world.
fn relaunch_fixture(tag: &str) -> (Arc<dyn ShardStore>, ShardStoreServer, ProcOptions) {
    let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
    let server = ShardStoreServer::spawn(Arc::clone(&store), "127.0.0.1:0").expect("store server");
    let opts = ProcOptions {
        worker_bin: worker_bin(),
        store_addr: server.addr(),
        scratch_dir: scratch(tag),
    };
    (store, server, opts)
}

#[test]
fn rejoin_without_a_snapshot_is_typed_unrecoverable() {
    let cfg = TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), 8);
    let (_store, _server, opts) = relaunch_fixture("relaunch-empty");
    let launch = || Trainer::launch_processes(cfg.clone(), opts.clone()).expect("process world");

    // A death before the first commit: there is nothing to restore from,
    // and the relaunched world says so with a typed error. The doomed
    // world is dropped, not shut down; the drop reaps its workers.
    let mut world = launch();
    world.train_more(1).expect("train");
    world.kill_rank(1).expect("kill");
    let pids = world.worker_pids();
    drop(world);
    assert_reaped(&pids, "a drop");
    let mut world = launch();
    let err = world
        .self_restore_all()
        .expect_err("restored from an empty store");
    assert!(
        matches!(err, WorldError::Ckpt(CkptError::Store { .. })),
        "wrong refusal: {err}"
    );
    world.abort();
}

#[test]
fn rejoin_survives_interrupted_publish_and_refuses_corrupt_shards() {
    let cfg = TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), 8);
    let (store, _server, opts) = relaunch_fixture("relaunch-torn");
    let launch = || Trainer::launch_processes(cfg.clone(), opts.clone()).expect("process world");
    let mut world = launch();

    // A save that died between shard upload and manifest commit leaves
    // orphan blobs in the store; the previous checkpoint stays
    // restorable.
    world.train_more(2).expect("train");
    let manifest = world.save_sharded().expect("save"); // iter 2
    world.train_more(2).expect("train on"); // iters 2, 3
    for entry in &manifest.shards {
        let half_published = shard_file_name(entry.stage, entry.dp, 4);
        store
            .put(&half_published, b"torn mid-upload")
            .expect("orphan blob");
    }
    world.kill_rank(0).expect("kill during interrupted publish");
    let pids = world.worker_pids();
    assert!(world.abort().is_empty(), "abort failed to reap");
    assert_reaped(&pids, "an abort");
    let mut world = launch();
    assert_eq!(
        world
            .self_restore_all()
            .expect("previous manifest restorable"),
        2
    );
    world.train_more(1).expect("relaunched world is live");

    // A corrupted shard is refused by the worker it belongs to (checksum
    // validation). The refusal crosses the control plane as its message,
    // so over TCP it arrives as a store-level checkpoint error naming the
    // checksum.
    let name = shard_file_name(0, 0, 2); // rank 0 = (stage 0, dp 0)
    let mut blob = store.get(&name).expect("fetch shard");
    let mid = blob.len() / 2;
    blob[mid] ^= 0x40;
    store.put(&name, &blob).expect("corrupt the shard in place");
    world.kill_rank(0).expect("kill again");
    world.abort();
    let mut world = launch();
    match world.self_restore_all() {
        Err(WorldError::Ckpt(CkptError::Store { what })) => {
            assert!(what.contains("checksum mismatch"), "wrong refusal: {what}")
        }
        other => panic!("corrupt shard not refused as a store error: {other:?}"),
    }
    world.abort();
}

#[test]
fn process_world_save_and_monitoring_roundtrip() {
    // save_sharded over TCP produces a manifest any client can read back;
    // dead_ranks reports a SIGKILLed process, and the next command
    // surfaces it; shutdown reaps every worker even with one dead.
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
    let pids = world.worker_pids();
    world.kill_rank(0).expect("kill");
    assert_eq!(world.dead_ranks(), vec![0]);

    // The dead rank is detected, not discovered through a receive
    // timeout: its connection's reader saw EOF, so the next command fails
    // at once, naming it.
    let started = Instant::now();
    let err = world.train_more(1).expect_err("trained with a dead rank");
    let waited = started.elapsed();
    assert!(
        matches!(
            err,
            WorldError::Transport(TransportError::Disconnected { peer: 0 })
        ),
        "wrong error: {err}"
    );
    assert!(waited < Duration::from_secs(5), "detection took {waited:?}");

    // Stop cannot reach the dead rank; the survivors still get it and
    // every worker is reaped before the error comes back.
    world.shutdown().expect_err("Stop reached a dead rank");
    assert_reaped(&pids, "a shutdown with a dead rank");
}
