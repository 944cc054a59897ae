//! The whole world's training state in one value: the in-memory view
//! `Trainer::snapshot()` returns, and the vocabulary (header, per-rank
//! section) the sharded checkpoint is built from. Nothing writes a
//! [`Snapshot`] to disk — a checkpoint on disk is always a manifest plus
//! one shard per rank ([`crate::ShardManifest`]).

use crate::framing::frame;
use opt_tensor::{Matrix, Persist, PersistError, Reader, Writer};

/// Magic bytes opening an encoded snapshot.
pub const MAGIC: &[u8; 8] = b"OPTCKPT\0";

/// Current snapshot encoding version.
pub const FORMAT_VERSION: u32 = 2;

/// Snapshot header: who took it, when (in iterations), and under what
/// configuration.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SnapshotMeta {
    /// Pipeline stages of the run.
    pub pp: usize,
    /// Data-parallel ways of the run.
    pub dp: usize,
    /// Master seed of the run.
    pub seed: u64,
    /// Training iterations completed when the snapshot was taken.
    pub iter: u64,
    /// Fingerprint over every state-affecting configuration field
    /// (model shape, parallelism, batching, compression plan, seed, lr).
    pub config_fingerprint: u64,
}

impl Persist for SnapshotMeta {
    fn persist(&self, w: &mut Writer) {
        w.usize(self.pp);
        w.usize(self.dp);
        w.u64(self.seed);
        w.u64(self.iter);
        w.u64(self.config_fingerprint);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            pp: r.usize()?,
            dp: r.usize()?,
            seed: r.u64()?,
            iter: r.u64()?,
            config_fingerprint: r.u64()?,
        })
    }
}

/// One worker's slice of the training state.
///
/// Parameter tensors are stored structurally (the restoring trainer needs
/// their shapes); optimizer and compressor state are opaque [`Persist`]
/// blobs encoded and decoded by the crates that own those types — the
/// snapshot container does not need to know what a warm-start factor is.
#[derive(Debug, Clone, PartialEq)]
pub struct RankSection {
    /// Pipeline stage index.
    pub stage: usize,
    /// Data-parallel rank.
    pub dp: usize,
    /// Every parameter tensor of the stage, in `Stage::params` order.
    pub params: Vec<Matrix>,
    /// Optimizer state (Adam moments + step counter).
    pub optimizer: Vec<u8>,
    /// Inter-stage compressed-backpropagation link state (PowerSGD
    /// warm-start factors + RNG, lazy-error residual), if the worker has
    /// an upstream link.
    pub cb_link: Vec<u8>,
    /// Data-parallel distributed-PowerSGD state (per-slot warm starts +
    /// error-feedback residuals), if the stage's DP traffic is compressed.
    pub dp_state: Vec<u8>,
}

impl Persist for RankSection {
    fn persist(&self, w: &mut Writer) {
        w.usize(self.stage);
        w.usize(self.dp);
        self.params.persist(w);
        w.bytes(&self.optimizer);
        w.bytes(&self.cb_link);
        w.bytes(&self.dp_state);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            stage: r.usize()?,
            dp: r.usize()?,
            params: Vec::restore(r)?,
            optimizer: r.bytes()?,
            cb_link: r.bytes()?,
            dp_state: r.bytes()?,
        })
    }
}

/// A training snapshot: header plus one [`RankSection`] per `(stage, dp)`
/// worker, gathered in one process for inspection. Nothing decodes or
/// restores from it; a checkpoint that can be restored is a
/// [`crate::ShardManifest`] plus its shards. [`Snapshot::encode`] sizes it.
///
/// # Encoded layout
///
/// ```text
/// magic    8 bytes   "OPTCKPT\0"
/// version  u32 LE
/// body_len u64 LE
/// body     body_len  SnapshotMeta + Vec<RankSection> (Persist codec)
/// checksum u64 LE    framing::checksum over body
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Header.
    pub meta: SnapshotMeta,
    /// Per-worker sections, ordered by `dp * pp + stage`.
    pub ranks: Vec<RankSection>,
}

impl Snapshot {
    /// Serializes to the framed byte encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Writer::new();
        self.meta.persist(&mut body);
        self.ranks.persist(&mut body);
        frame(MAGIC, FORMAT_VERSION, &body.into_bytes())
    }
}
