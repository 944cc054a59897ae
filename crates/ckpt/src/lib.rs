//! `opt-ckpt` — deterministic checkpoint/restore and fault injection for
//! the Optimus-CC reproduction.
//!
//! A practical large-scale training run must survive preemption and worker
//! failure, and in this reproduction the *compression state itself* is
//! training state: PowerSGD warm-start factors, lazy-error-propagation
//! residuals, and data-parallel error-feedback buffers all influence every
//! subsequent gradient. Dropping them on restart silently degrades quality.
//! This crate therefore treats "resume" as a bit-exactness contract:
//!
//! > train `N` iterations straight, versus train `k`, snapshot, kill,
//! > restore, train `N - k` — the two runs must produce **identical**
//! > per-iteration losses and identical post-restore traffic-ledger deltas.
//!
//! Four pieces:
//!
//! * [`Shard`] + [`ShardManifest`] — the checkpoint format: each
//!   `(stage, dp)` worker's state ([`RankSection`]) in its own
//!   checksummed shard file, named by a small versioned manifest
//!   ([`SnapshotMeta`]: world shape, completed iterations, config
//!   fingerprint; name, size and checksum per shard), so a relaunched
//!   worker — or a replacement on a different host — can rendezvous on the
//!   manifest, fetch only its own shard, validate it
//!   ([`ShardManifest::validate_shard`]), and apply it. All encoded with
//!   the byte codec from `opt_tensor::{Persist, Writer, Reader}` and
//!   guarded by a length header and the word-wise frame checksum
//!   (`framing::checksum`): a truncated or
//!   bit-flipped file is rejected, never half-applied.
//! * [`Snapshot`] — the same state gathered into one in-memory value
//!   (what `Trainer::snapshot()` returns) for inspection; not an on-disk
//!   format, and nothing decodes or restores from it.
//! * [`CkptError`] — why a manifest or shard was rejected.
//! * [`FaultPlan`] — a scripted failure (kill rank *r* after iteration
//!   *k*, snapshot every *n*) that the numerical trainer replays
//!   (`optimus_cc::run_with_faults`).
//!
//! The save/restore drivers live in `optimus-cc` (`Trainer::save_sharded`,
//! `Trainer::restore_sharded`), which owns the worker protocol; the shard
//! store abstraction — `FsShardStore`, the one thing that writes a
//! checkpoint to disk, included — lives in `opt-net`; this crate owns the
//! formats and the failure vocabulary.
//!
//! # Example
//!
//! ```
//! use opt_ckpt::{Snapshot, SnapshotMeta, MAGIC};
//!
//! let snap = Snapshot {
//!     meta: SnapshotMeta { pp: 1, dp: 1, seed: 0, iter: 3, config_fingerprint: 1 },
//!     ranks: vec![opt_ckpt::RankSection {
//!         stage: 0, dp: 0, params: vec![], optimizer: vec![], cb_link: vec![], dp_state: vec![],
//!     }],
//! };
//! // Framed: magic, version, body length, body, checksum.
//! let bytes = snap.encode();
//! assert!(bytes.starts_with(MAGIC));
//! ```

mod error;
mod fault;
pub mod framing;
mod shard;
mod snapshot;

pub use error::CkptError;
pub use fault::FaultPlan;
pub use framing::{checksum, fnv1a64};
pub use shard::{
    shard_file_name, Shard, ShardEntry, ShardManifest, MANIFEST_FILE, MANIFEST_MAGIC,
    SHARD_FORMAT_VERSION, SHARD_MAGIC,
};
pub use snapshot::{RankSection, Snapshot, SnapshotMeta, FORMAT_VERSION, MAGIC};
