//! The checkpoint subsystem's headline guarantee, exercised end to end:
//! train N iterations straight versus train k, checkpoint, kill, restore,
//! train N−k — identical per-iteration losses and identical post-restore
//! traffic-ledger deltas, with every compression state object (PowerSGD
//! warm starts, LEP residuals, DP error feedback) round-tripping through
//! the shard format, in memory and on disk.

use optimus::ckpt::{CkptError, FaultPlan, Snapshot, MANIFEST_FILE};
use optimus::core::{
    run_with_faults, FaultOutcome, QualityConfig, Recovery, Trainer, TrainerConfig,
};
use optimus::net::{FsShardStore, MemShardStore, ShardStore, ShardStoreError, TrafficClass};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// A fresh checkpoint directory, and a store handle on it.
fn fs_store(tag: &str) -> (std::path::PathBuf, Arc<dyn ShardStore>) {
    let dir = std::env::temp_dir().join(format!("optimus-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    (dir.clone(), Arc::new(FsShardStore::new(dir)))
}

/// Full Optimus-CC stack: CB (PowerSGD + LEP), fused embedding, selective
/// stage compression — the configuration with the most state to lose.
fn full_stack_cfg(iters: u64) -> TrainerConfig {
    TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), iters)
}

#[test]
fn resume_is_bit_exact_including_compression_state() {
    const TOTAL: u64 = 12;
    const SNAP_AT: u64 = 6;

    // Straight run, with a mid-run traffic mark at the snapshot point.
    let mut straight = Trainer::launch(full_stack_cfg(TOTAL));
    straight.train_more(SNAP_AT);
    let traffic_mid = straight.traffic();
    straight.train_more(TOTAL - SNAP_AT);
    let straight_report = straight.report();
    let traffic_end = straight.traffic();
    straight.shutdown();

    // Faulted run: checkpoint at k into a directory, do some doomed extra
    // work, kill, restore from disk through a *second* handle on the same
    // path — all a relaunched process has — and finish.
    let (dir, store) = fs_store("resume");
    let mut victim = Trainer::launch(full_stack_cfg(TOTAL));
    victim.train_more(SNAP_AT);
    victim.save_sharded(&store).expect("checkpoint saved");
    victim.train_more(2); // work that the failure will destroy
    victim.kill();
    drop(store);

    let reopened: Arc<dyn ShardStore> = Arc::new(FsShardStore::new(&dir));
    let mut resumed =
        Trainer::restore_sharded(full_stack_cfg(TOTAL), &reopened).expect("checkpoint restores");
    assert_eq!(resumed.trained_iters(), SNAP_AT);
    resumed.train_more(TOTAL - SNAP_AT);
    let resumed_report = resumed.report();
    let resumed_traffic = resumed.traffic();
    resumed.shutdown();
    let _ = std::fs::remove_dir_all(&dir);

    // Losses after the restore point must match the straight run *bit for
    // bit* — any forgotten state (an RNG counter, a residual, a warm-start
    // factor, an Adam moment) shows up here.
    for iter in SNAP_AT as usize..TOTAL as usize {
        let a = straight_report.train_loss[iter];
        let b = resumed_report.train_loss[iter];
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "iteration {iter}: straight {a} != resumed {b}"
        );
    }
    // Pre-restore iterations belong to the killed incarnation.
    for iter in 0..SNAP_AT as usize {
        assert!(resumed_report.train_loss[iter].is_nan());
    }

    // Post-restore wire traffic must also be identical, class by class:
    // the resumed ledger (which starts at zero) equals the straight run's
    // delta over the same iterations.
    for class in TrafficClass::ALL {
        assert_eq!(
            traffic_end.bytes(class) - traffic_mid.bytes(class),
            resumed_traffic.bytes(class),
            "byte delta mismatch for {class}"
        );
        assert_eq!(
            traffic_end.messages(class) - traffic_mid.messages(class),
            resumed_traffic.messages(class),
            "message delta mismatch for {class}"
        );
    }
}

/// Trains `cfg` straight and under the scripted failure (snapshot at 3 &
/// 6, rank 1 dies at 5, in-memory store); from the resume point on the
/// faulted run must be the uninterrupted one, bit for bit.
fn faulted_run_matches_straight(name: &str, cfg: &TrainerConfig) -> FaultOutcome {
    let mut straight = Trainer::launch(cfg.clone());
    let straight_report = straight.train();
    straight.shutdown();

    let recovery = Recovery::Sharded(Arc::new(MemShardStore::new()));
    let outcome =
        run_with_faults(cfg, &FaultPlan::new(1, 5, 3), &recovery).expect("faulted run completes");
    assert_eq!(outcome.resumed_from, Some(3), "{name}");
    for iter in 3..cfg.iters as usize {
        assert_eq!(
            straight_report.train_loss[iter].to_bits(),
            outcome.report.train_loss[iter].to_bits(),
            "{name}: iteration {iter} diverged after elastic restart"
        );
    }
    outcome
}

#[test]
fn fault_harness_reproduces_the_straight_run() {
    // The scripted-failure driver must land on the same trajectory.
    let outcome = faulted_run_matches_straight("cb_fe_sc", &full_stack_cfg(9));
    assert_eq!(outcome.restarts, 1);
    assert_eq!(outcome.lost_iters, 2);
}

#[test]
fn resume_is_bit_exact_for_every_compression_preset() {
    // Every kind of state a checkpoint can carry, not just the full
    // stack's: no link at all, a non-LEP link, a top-k link, and naive DP
    // compression on every stage.
    let presets = [
        ("baseline", QualityConfig::baseline()),
        ("cb", QualityConfig::cb()),
        ("cb_non_lep", QualityConfig::cb_non_lep()),
        ("cb_fe", QualityConfig::cb_fe()),
        ("cb_fe_sc", QualityConfig::cb_fe_sc()),
        ("naive_dp(2)", QualityConfig::naive_dp(2)),
        ("naive_cb(4)", QualityConfig::naive_cb(4)),
        ("cb_topk(0.1)", QualityConfig::cb_topk(0.1)),
    ];
    for (name, quality) in presets {
        faulted_run_matches_straight(name, &TrainerConfig::tiny_test(quality, 9));
    }
}

#[test]
fn corrupted_and_truncated_snapshots_are_rejected() {
    let (dir, store) = fs_store("corrupt");
    let mut t = Trainer::launch(full_stack_cfg(4));
    t.train_more(2);
    let manifest = t.save_sharded(&store).expect("checkpoint saved");
    let clean = t.snapshot().encode();
    t.shutdown();
    let restore = || Trainer::restore_sharded(full_stack_cfg(4), &store);
    let flip_middle_bit = |bytes: &mut Vec<u8>| {
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x01;
    };

    // Sanity: the pristine directory restores (and the refusals below
    // return only after the world they launched has been joined — a
    // dropped `Trainer` stops its workers).
    restore().expect("clean checkpoint restores").shutdown();

    // A single flipped bit in a shard file is caught by the checksum.
    let shard_path = dir.join(&manifest.shards[1].name);
    let good = std::fs::read(&shard_path).expect("shard bytes");
    let mut flipped = good.clone();
    flip_middle_bit(&mut flipped);
    std::fs::write(&shard_path, &flipped).expect("write flipped shard");
    assert!(matches!(restore(), Err(CkptError::ChecksumMismatch { .. })));

    // A shard file cut short (a crash mid-write on a store without atomic
    // puts) is caught by the manifest's size.
    std::fs::write(&shard_path, &good[..good.len() - 7]).expect("write short shard");
    assert!(matches!(restore(), Err(CkptError::Truncated { .. })));
    std::fs::write(&shard_path, &good).expect("write good shard");

    // A manifest file that is not a manifest is rejected before any state
    // is parsed — and before anything is spawned.
    std::fs::write(
        dir.join(MANIFEST_FILE),
        b"definitely not a manifest, whatever it says",
    )
    .expect("write foreign manifest");
    assert!(matches!(restore(), Err(CkptError::BadMagic)));
    let _ = std::fs::remove_dir_all(&dir);

    // The in-memory snapshot's own codec refuses the same three damages.
    Snapshot::decode(&clean).expect("clean snapshot decodes");
    let mut flipped = clean.clone();
    flip_middle_bit(&mut flipped);
    assert!(matches!(
        Snapshot::decode(&flipped),
        Err(CkptError::ChecksumMismatch { .. })
    ));
    assert!(matches!(
        Snapshot::decode(&clean[..clean.len() / 2]),
        Err(CkptError::Truncated { .. })
    ));
    assert!(matches!(
        Snapshot::decode(b"definitely not a snapshot"),
        Err(CkptError::BadMagic)
    ));
}

#[test]
fn snapshot_refuses_to_restore_into_a_different_run() {
    let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
    let mut t = Trainer::launch(full_stack_cfg(4));
    t.train_more(1);
    t.save_sharded(&store).expect("checkpoint saved");
    t.shutdown();

    // Different seed => different training state semantics.
    let mut other = full_stack_cfg(4);
    other.seed ^= 0xBAD;
    assert!(matches!(
        Trainer::restore_sharded(other, &store),
        Err(CkptError::ConfigMismatch { .. })
    ));

    // Different compression plan.
    let baseline = TrainerConfig::tiny_test(QualityConfig::baseline(), 4);
    assert!(matches!(
        Trainer::restore_sharded(baseline, &store),
        Err(CkptError::ConfigMismatch { .. })
    ));

    // Different world shape fails on the world check (fingerprint would
    // catch it too, but the world error is the actionable one).
    let mut wide = full_stack_cfg(4);
    wide.dp = 1;
    assert!(matches!(
        Trainer::restore_sharded(wide, &store),
        Err(CkptError::WorldMismatch { .. })
    ));
}

/// Serializes tests that script the process-global kernel knobs
/// (`set_kernel_threads`, `set_parallel_flop_threshold`): without the
/// lock, two such tests running in parallel threads of one binary could
/// overwrite each other's thread-count mid-scenario — the tests would
/// still pass (determinism means the knobs only change speed) but their
/// multi-thread premise would be silently defeated. The guard also
/// restores the FLOP threshold on drop, panic included.
struct KnobGuard {
    old_threshold: usize,
    _lock: std::sync::MutexGuard<'static, ()>,
}

impl KnobGuard {
    fn acquire() -> Self {
        static LOCK: Mutex<()> = Mutex::new(());
        let lock = LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let old_threshold = optimus::tensor::parallel_flop_threshold();
        optimus::tensor::set_parallel_flop_threshold(0);
        Self {
            old_threshold,
            _lock: lock,
        }
    }
}

impl Drop for KnobGuard {
    fn drop(&mut self) {
        optimus::tensor::set_parallel_flop_threshold(self.old_threshold);
        optimus::tensor::set_kernel_threads(1);
    }
}

#[test]
fn resume_is_bit_exact_across_kernel_thread_counts() {
    // The kernel pool's determinism contract, end to end: training with a
    // 4-thread kernel pool and restoring the checkpoint under a 1-thread
    // pool must reproduce the straight run's losses bit for bit. The
    // parallel-FLOP threshold is forced to zero so even the tiny test
    // model's GEMMs actually fan out to the pool.
    use optimus::tensor::set_kernel_threads;
    const TOTAL: u64 = 8;
    const SNAP_AT: u64 = 4;
    let _knobs = KnobGuard::acquire();

    // Straight single-threaded run as the reference trajectory.
    set_kernel_threads(1);
    let mut straight = Trainer::launch(full_stack_cfg(TOTAL));
    let straight_report = straight.train();
    straight.shutdown();

    // Train the first half under a 4-thread kernel pool, checkpoint, kill.
    set_kernel_threads(4);
    let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
    let mut victim = Trainer::launch(full_stack_cfg(TOTAL));
    victim.train_more(SNAP_AT);
    victim.save_sharded(&store).expect("checkpoint saved");
    victim.kill();

    // Restore and finish under a single-threaded pool.
    set_kernel_threads(1);
    let mut resumed =
        Trainer::restore_sharded(full_stack_cfg(TOTAL), &store).expect("checkpoint restores");
    resumed.train_more(TOTAL - SNAP_AT);
    let resumed_report = resumed.report();
    resumed.shutdown();

    for iter in SNAP_AT as usize..TOTAL as usize {
        let a = straight_report.train_loss[iter];
        let b = resumed_report.train_loss[iter];
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "iteration {iter}: 1-thread straight {a} != 4->1-thread resumed {b}"
        );
    }
}

/// A [`ShardStore`] decorator that records every fetched name, so tests
/// can prove *who fetched what* during an elastic restore.
#[derive(Debug)]
struct CountingStore {
    inner: MemShardStore,
    gets: Mutex<HashMap<String, usize>>,
}

impl CountingStore {
    fn new() -> Self {
        Self {
            inner: MemShardStore::new(),
            gets: Mutex::new(HashMap::new()),
        }
    }

    fn get_count(&self, name: &str) -> usize {
        *self.gets.lock().unwrap().get(name).unwrap_or(&0)
    }

    fn reset_counts(&self) {
        self.gets.lock().unwrap().clear();
    }
}

impl ShardStore for CountingStore {
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), ShardStoreError> {
        self.inner.put(name, bytes)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, ShardStoreError> {
        *self
            .gets
            .lock()
            .unwrap()
            .entry(name.to_string())
            .or_insert(0) += 1;
        self.inner.get(name)
    }

    fn list(&self) -> Result<Vec<String>, ShardStoreError> {
        self.inner.list()
    }

    fn delete(&self, name: &str) -> Result<(), ShardStoreError> {
        self.inner.delete(name)
    }
}

/// A [`ShardStore`] decorator that refuses to publish the manifest —
/// simulating a coordinator crash after the workers' shard puts but
/// before the manifest commit.
#[derive(Debug)]
struct ManifestlessStore {
    inner: Arc<dyn ShardStore>,
}

impl ShardStore for ManifestlessStore {
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), ShardStoreError> {
        if name == MANIFEST_FILE {
            return Err(ShardStoreError::Backend {
                name: name.to_string(),
                detail: "simulated crash before the manifest commit".to_string(),
            });
        }
        self.inner.put(name, bytes)
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, ShardStoreError> {
        self.inner.get(name)
    }

    fn list(&self) -> Result<Vec<String>, ShardStoreError> {
        self.inner.list()
    }

    fn delete(&self, name: &str) -> Result<(), ShardStoreError> {
        self.inner.delete(name)
    }
}

#[test]
fn elastic_restore_from_shard_store_is_bit_exact_across_thread_counts() {
    // The headline cross-host guarantee, end to end: train under a
    // 4-thread kernel pool, publish per-rank shards, kill a rank (which
    // in this in-process world tears the whole job down, as losing a GPU
    // does to a 3D-parallel job), then relaunch every worker as a fresh
    // incarnation that self-restores from the shard store alone — under a
    // *1-thread* kernel pool — and finish the run. Losses and
    // traffic-ledger deltas must match the uninterrupted run bit for bit,
    // and the store's fetch counts must prove no rank fetched anything
    // but the manifest and its own shard.
    use optimus::tensor::set_kernel_threads;
    const TOTAL: u64 = 8;
    const SNAP_AT: u64 = 4;
    let _knobs = KnobGuard::acquire();

    // Reference trajectory with a traffic mark at the shard point.
    set_kernel_threads(1);
    let mut straight = Trainer::launch(full_stack_cfg(TOTAL));
    straight.train_more(SNAP_AT);
    let traffic_mid = straight.traffic();
    straight.train_more(TOTAL - SNAP_AT);
    let straight_report = straight.report();
    let traffic_end = straight.traffic();
    straight.shutdown();

    // Victim incarnation: 4-thread kernels, shards published at SNAP_AT,
    // then rank 1 (stage 1, dp 0) "dies" after doomed extra work.
    set_kernel_threads(4);
    let counting = Arc::new(CountingStore::new());
    let store: Arc<dyn ShardStore> = counting.clone();
    let cfg = full_stack_cfg(TOTAL);
    let world = cfg.pp * cfg.dp;
    let mut victim = Trainer::launch(cfg);
    victim.train_more(SNAP_AT);
    let manifest = victim.save_sharded(&store).expect("shards published");
    assert_eq!(manifest.shards.len(), world);
    victim.train_more(2); // progress the failure destroys
    victim.kill();
    counting.reset_counts();

    // Elastic restore at a different thread count: every worker is a
    // fresh incarnation holding nothing, self-restoring from the store.
    set_kernel_threads(1);
    let mut resumed =
        Trainer::restore_sharded(full_stack_cfg(TOTAL), &store).expect("elastic restore");
    assert_eq!(resumed.trained_iters(), SNAP_AT);

    // No coordinator-held state: each of the `world` shards was fetched
    // exactly once (by its own worker), and the manifest once per worker
    // plus once by the coordinator's validation pass.
    for entry in &manifest.shards {
        assert_eq!(
            counting.get_count(&entry.name),
            1,
            "{} fetched more than once — some rank pulled state that is not its own",
            entry.name
        );
    }
    assert_eq!(counting.get_count(MANIFEST_FILE), world + 1);

    resumed.train_more(TOTAL - SNAP_AT);
    let resumed_report = resumed.report();
    let resumed_traffic = resumed.traffic();
    resumed.shutdown();

    // Bit-exact losses after the restore point...
    for iter in SNAP_AT as usize..TOTAL as usize {
        let a = straight_report.train_loss[iter];
        let b = resumed_report.train_loss[iter];
        assert_eq!(
            a.to_bits(),
            b.to_bits(),
            "iteration {iter}: straight {a} != elastically restored {b}"
        );
    }
    // ...and bit-identical post-restore wire traffic, class by class.
    for class in TrafficClass::ALL {
        assert_eq!(
            traffic_end.bytes(class) - traffic_mid.bytes(class),
            resumed_traffic.bytes(class),
            "byte delta mismatch for {class}"
        );
        assert_eq!(
            traffic_end.messages(class) - traffic_mid.messages(class),
            resumed_traffic.messages(class),
            "message delta mismatch for {class}"
        );
    }
}

#[test]
fn interrupted_resave_leaves_previous_checkpoint_restorable() {
    // Crash-safety of repeated sharded saves: shards of the new
    // checkpoint land under fresh (iteration-qualified) names, so a save
    // that dies after the shard puts but before the manifest commit
    // leaves the *previous* manifest and every blob it names intact — the
    // run is still restorable from the old checkpoint.
    const TOTAL: u64 = 6;
    let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
    let mut t = Trainer::launch(full_stack_cfg(TOTAL));
    t.train_more(2);
    let manifest = t.save_sharded(&store).expect("first save");
    t.train_more(2);
    let crashing: Arc<dyn ShardStore> = Arc::new(ManifestlessStore {
        inner: Arc::clone(&store),
    });
    let err = t
        .save_sharded(&crashing)
        .expect_err("simulated crash surfaces");
    assert!(matches!(err, CkptError::Store { .. }));
    t.kill();

    // The store still resolves to the iter-2 checkpoint, bit-for-bit.
    let mut resumed = Trainer::restore_sharded(full_stack_cfg(TOTAL), &store)
        .expect("previous checkpoint still restorable");
    assert_eq!(resumed.trained_iters(), manifest.meta.iter);
    resumed.train();
    resumed.shutdown();
}

#[test]
fn sharded_restore_rejects_bad_stores() {
    let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
    // Empty store: the rendezvous itself fails.
    assert!(matches!(
        Trainer::restore_sharded(full_stack_cfg(4), &store),
        Err(CkptError::Store { .. })
    ));

    let mut t = Trainer::launch(full_stack_cfg(4));
    t.train_more(2);
    let manifest = t.save_sharded(&store).expect("shards published");
    t.shutdown();

    // Wrong config: refused at the manifest, before any worker spawns a
    // fetch.
    let mut other = full_stack_cfg(4);
    other.seed ^= 0xBAD;
    assert!(matches!(
        Trainer::restore_sharded(other, &store),
        Err(CkptError::ConfigMismatch { .. })
    ));

    // A missing shard is a store-level NotFound surfaced as a typed
    // error, not a hang or a panic.
    let victim_name = manifest.shards[1].name.clone();
    let good = store.get(&victim_name).expect("shard bytes");
    let inner = MemShardStore::new();
    for name in store.list().expect("list") {
        if name != victim_name {
            inner.put(&name, &store.get(&name).unwrap()).unwrap();
        }
    }
    let partial: Arc<dyn ShardStore> = Arc::new(inner);
    assert!(matches!(
        Trainer::restore_sharded(full_stack_cfg(4), &partial),
        Err(CkptError::Store { .. })
    ));

    // A truncated shard fails the manifest's size check.
    store
        .put(&victim_name, &good[..good.len() - 9])
        .expect("truncate shard");
    assert!(matches!(
        Trainer::restore_sharded(full_stack_cfg(4), &store),
        Err(CkptError::Truncated { .. })
    ));
    store.put(&victim_name, &good).expect("restore shard");
    Trainer::restore_sharded(full_stack_cfg(4), &store)
        .expect("pristine store restores")
        .shutdown();
}

#[test]
fn resume_extends_beyond_original_horizon() {
    // Restoring into a config with more iterations is legitimate: train 3,
    // checkpoint, and resume to 6 — Trainer::train picks up at the
    // checkpoint.
    let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
    let mut t = Trainer::launch(full_stack_cfg(3));
    t.train();
    t.save_sharded(&store).expect("checkpoint saved");
    t.shutdown();

    let longer = full_stack_cfg(6);
    let mut resumed = Trainer::restore_sharded(longer, &store).expect("longer horizon restores");
    let report = resumed.train();
    resumed.shutdown();
    assert_eq!(report.train_loss.len(), 6);
    for (iter, loss) in report.train_loss[3..].iter().enumerate() {
        assert!(loss.is_finite(), "iteration {} missing", iter + 3);
    }
}
