//! Cross-host elastic restore walkthrough: train under full Optimus-CC
//! compression, publish a **sharded** checkpoint (each worker writes its
//! own checksummed shard plus one small manifest), kill the job the way a
//! worker failure would, then relaunch a fresh world in which every
//! worker rendezvouses on the manifest and fetches *only its own shard* —
//! exactly what a replacement worker on a different host does. The
//! resumed run reproduces the uninterrupted run bit for bit.
//!
//! Run with: `cargo run --release --example elastic_restore`
//!
//! Shards are written to `target/elastic-restore-shards` — build scratch,
//! never the repository working tree (override with `OPT_SHARD_DIR`) —
//! and left on disk so CI can archive the manifest.

use optimus::ckpt::{CkptError, ShardManifest, MANIFEST_FILE};
use optimus::core::{QualityConfig, Trainer, TrainerConfig};
use optimus::net::{FsShardStore, ShardStore};
use std::sync::Arc;

fn main() {
    let total: u64 = 20;
    let snap_at: u64 = 10;
    let cfg = || TrainerConfig::small_test(QualityConfig::cb_fe_sc(), total);
    let dir =
        std::env::var("OPT_SHARD_DIR").unwrap_or_else(|_| "target/elastic-restore-shards".into());
    let store: Arc<dyn ShardStore> = Arc::new(FsShardStore::new(&dir));

    println!("reference: training {total} iterations straight through...");
    let mut straight = Trainer::launch(cfg());
    let straight_report = straight.train();
    straight.shutdown();

    println!("faulted:   training {snap_at} iterations, publishing per-rank shards, killing...");
    let mut victim = Trainer::launch(cfg());
    victim.train_more(snap_at);
    let manifest = victim.save_sharded(&store).expect("shards published");
    victim.train_more(3); // progress the failure will destroy
    victim.kill(); // no clean shutdown — channels just die

    println!("\nshard store at {dir}/ after the save:");
    println!("  {:<18} {:>8}  checksum", "object", "bytes");
    let manifest_bytes = store.get(MANIFEST_FILE).expect("manifest published").len();
    println!(
        "  {MANIFEST_FILE:<18} {manifest_bytes:>8}  (iter {})",
        manifest.meta.iter
    );
    for entry in &manifest.shards {
        println!(
            "  {:<18} {:>8}  {:#018x}",
            entry.name, entry.bytes, entry.checksum
        );
    }

    println!("\nrestore:   fresh workers, each fetching ONLY its own shard from the store...");
    let mut resumed = Trainer::restore_sharded(cfg(), &store).expect("elastic restore");
    assert_eq!(resumed.trained_iters(), snap_at);
    let resumed_report = resumed.train();
    resumed.shutdown();

    println!("\niter   straight-run loss   resumed-run loss    bit-exact?");
    let mut all_exact = true;
    for iter in snap_at as usize..total as usize {
        let a = straight_report.train_loss[iter];
        let b = resumed_report.train_loss[iter];
        let exact = a.to_bits() == b.to_bits();
        all_exact &= exact;
        println!(
            "{iter:<6} {a:<19.9} {b:<19.9} {}",
            if exact { "yes" } else { "NO" }
        );
    }
    assert!(all_exact, "elastic restore was not bit-exact");
    println!("\nevery post-restore loss is bit-identical to the uninterrupted run.");

    // A corrupted shard is caught by the manifest checksum before any
    // worker applies it — then we put the good bytes back so the
    // directory this example leaves behind is a valid checkpoint.
    let victim_name = &manifest.shards[0].name;
    let good = store.get(victim_name).expect("shard bytes");
    let mut bad = good.clone();
    let mid = bad.len() / 2;
    bad[mid] ^= 0x40;
    store.put(victim_name, &bad).expect("write corrupted shard");
    let err = Trainer::restore_sharded(cfg(), &store).expect_err("corruption must be caught");
    assert!(matches!(err, CkptError::ChecksumMismatch { .. }));
    println!("flipping one bit in {victim_name} -> restore fails with: {err}");
    store.put(victim_name, &good).expect("restore good shard");
    let on_disk = store.get(MANIFEST_FILE).expect("manifest on disk");
    let reloaded = ShardManifest::decode(&on_disk).expect("manifest reloads");
    assert_eq!(reloaded, manifest);
    println!("shard directory left at {dir}/ (manifest + one shard per rank).");
}
