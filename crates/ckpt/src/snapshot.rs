//! The whole world's training state in one value: the in-memory view
//! `Trainer::snapshot()` returns, and the vocabulary (header, per-rank
//! section) the sharded checkpoint is built from. Nothing writes a
//! [`Snapshot`] to disk — a checkpoint on disk is always a manifest plus
//! one shard per rank ([`crate::ShardManifest`]).

use crate::framing::{frame, unframe};
use crate::CkptError;
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

/// A complete, self-validating training snapshot: header plus one
/// [`RankSection`] per `(stage, dp)` worker, gathered in one process for
/// inspection. Nothing restores from it; a checkpoint that can be
/// restored is a [`crate::ShardManifest`] plus its shards.
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
///
/// [`Snapshot::decode`] rejects bad magic, unknown versions, truncation,
/// checksum mismatches, and structurally invalid bodies — a snapshot that
/// decodes is a snapshot that was encoded completely and has not rotted.
#[derive(Debug, Clone, PartialEq)]
pub struct Snapshot {
    /// Header.
    pub meta: SnapshotMeta,
    /// Per-worker sections, ordered by `dp * pp + stage`.
    pub ranks: Vec<RankSection>,
}

impl Snapshot {
    /// Number of worker sections this snapshot should contain.
    pub fn world_size(&self) -> usize {
        self.meta.pp * self.meta.dp
    }

    /// Verifies that exactly one section exists per `(stage, dp)` pair and
    /// nothing else.
    pub fn validate_complete(&self) -> Result<(), CkptError> {
        if self.ranks.len() != self.world_size() {
            return Err(CkptError::Decode(PersistError::Invalid {
                what: "snapshot section count does not match its world size",
            }));
        }
        for d in 0..self.meta.dp {
            for s in 0..self.meta.pp {
                let n = self
                    .ranks
                    .iter()
                    .filter(|sec| sec.stage == s && sec.dp == d)
                    .count();
                if n != 1 {
                    return Err(CkptError::MissingRank { stage: s, dp: d });
                }
            }
        }
        Ok(())
    }

    /// Serializes to the framed byte encoding.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Writer::new();
        self.meta.persist(&mut body);
        self.ranks.persist(&mut body);
        frame(MAGIC, FORMAT_VERSION, &body.into_bytes())
    }

    /// Parses and validates the framed byte encoding.
    pub fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut r = Reader::new(unframe(bytes, MAGIC, FORMAT_VERSION)?);
        let meta = SnapshotMeta::restore(&mut r)?;
        let ranks = Vec::<RankSection>::restore(&mut r)?;
        r.finish().map_err(CkptError::Decode)?;
        let snap = Snapshot { meta, ranks };
        snap.validate_complete()?;
        Ok(snap)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Snapshot {
        let section = |stage: usize, dp: usize| RankSection {
            stage,
            dp,
            params: vec![Matrix::full(2, 3, 1.5), Matrix::zeros(1, 4)],
            optimizer: vec![1, 2, 3],
            cb_link: vec![],
            dp_state: vec![9; 5],
        };
        Snapshot {
            meta: SnapshotMeta {
                pp: 2,
                dp: 1,
                seed: 7,
                iter: 42,
                config_fingerprint: 0xABCD,
            },
            ranks: vec![section(0, 0), section(1, 0)],
        }
    }

    #[test]
    fn encode_decode_roundtrip() {
        let snap = sample();
        let back = Snapshot::decode(&snap.encode()).expect("roundtrip");
        assert_eq!(back, snap);
        assert_eq!(back.world_size(), 2);
    }

    #[test]
    fn bad_magic_rejected() {
        let mut bytes = sample().encode();
        bytes[0] = b'X';
        assert!(matches!(Snapshot::decode(&bytes), Err(CkptError::BadMagic)));
    }

    #[test]
    fn unknown_version_rejected() {
        let mut bytes = sample().encode();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CkptError::UnsupportedVersion(99))
        ));
    }

    #[test]
    fn truncation_rejected_at_every_cut() {
        let bytes = sample().encode();
        for cut in [1, 10, 21, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                Snapshot::decode(&bytes[..cut]).is_err(),
                "cut at {cut} accepted"
            );
        }
    }

    #[test]
    fn corruption_rejected_everywhere_in_body() {
        let clean = sample().encode();
        let body_start = MAGIC.len() + 12;
        for pos in (body_start..clean.len() - 8).step_by(7) {
            let mut bytes = clean.clone();
            bytes[pos] ^= 0xFF;
            assert!(
                matches!(
                    Snapshot::decode(&bytes),
                    Err(CkptError::ChecksumMismatch { .. })
                ),
                "flip at {pos} not caught by checksum"
            );
        }
    }

    #[test]
    fn missing_rank_rejected() {
        let mut snap = sample();
        snap.ranks.pop();
        let err = Snapshot::decode(&snap.encode()).unwrap_err();
        assert!(matches!(
            err,
            CkptError::Decode(PersistError::Invalid { .. })
        ));
        // Right count but a duplicated section: caught per-pair.
        let mut dup = sample();
        dup.ranks[1] = dup.ranks[0].clone();
        let err = Snapshot::decode(&dup.encode()).unwrap_err();
        assert!(matches!(err, CkptError::MissingRank { .. }));
    }

    #[test]
    fn huge_length_field_is_truncation_not_panic() {
        let mut bytes = sample().encode();
        // Length field with the top bit set: must report Truncated, not
        // overflow or slice out of range.
        bytes[12..20].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(matches!(
            Snapshot::decode(&bytes),
            Err(CkptError::Truncated { .. })
        ));
        let mut bytes2 = sample().encode();
        bytes2[12..20].copy_from_slice(&(1u64 << 62).to_le_bytes());
        assert!(matches!(
            Snapshot::decode(&bytes2),
            Err(CkptError::Truncated { .. })
        ));
    }
}
