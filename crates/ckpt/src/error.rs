//! Checkpoint subsystem errors.

use opt_tensor::PersistError;
use std::fmt;

/// Everything that can go wrong saving, loading, or applying a snapshot.
#[derive(Debug, Clone)]
pub enum CkptError {
    /// The file does not start with the snapshot magic.
    BadMagic,
    /// The snapshot was written by an unknown format version.
    UnsupportedVersion(u32),
    /// The file is shorter than its header claims (e.g. a partially
    /// written snapshot after a crash mid-save).
    Truncated {
        /// Bytes the header claims the snapshot occupies.
        expected: usize,
        /// Bytes actually present.
        actual: usize,
    },
    /// The body checksum does not match — bit rot or tampering.
    ChecksumMismatch {
        /// Checksum recorded in the file.
        stored: u64,
        /// Checksum recomputed over the body.
        computed: u64,
    },
    /// The body failed structural decoding.
    Decode(PersistError),
    /// The snapshot's world shape does not match the restoring trainer.
    WorldMismatch {
        /// `(pp, dp)` recorded in the snapshot.
        snapshot: (usize, usize),
        /// `(pp, dp)` of the restoring configuration.
        config: (usize, usize),
    },
    /// The snapshot was taken under a different training configuration
    /// (fingerprint over every state-affecting config field).
    ConfigMismatch {
        /// Fingerprint recorded in the snapshot.
        snapshot: u64,
        /// Fingerprint of the restoring configuration.
        config: u64,
    },
    /// A `(stage, dp)` rank section is missing or duplicated.
    MissingRank {
        /// Pipeline stage of the missing section.
        stage: usize,
        /// Data-parallel rank of the missing section.
        dp: usize,
    },
    /// A shard-store operation (rendezvous or fetch) failed. Carries the
    /// backend's description; the store lives in `opt-net` and this crate
    /// cannot name its error type without inverting the dependency DAG.
    Store {
        /// What the store reported.
        what: String,
    },
    /// A fetched shard decodes cleanly but disagrees with the manifest
    /// entry that named it (wrong rank identity or wrong iteration).
    ShardMismatch {
        /// Pipeline stage of the offending shard.
        stage: usize,
        /// Data-parallel rank of the offending shard.
        dp: usize,
        /// Description of the disagreement.
        what: &'static str,
    },
}

impl fmt::Display for CkptError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CkptError::BadMagic => write!(f, "not a snapshot file (bad magic)"),
            CkptError::UnsupportedVersion(v) => {
                write!(f, "unsupported snapshot format version {v}")
            }
            CkptError::Truncated { expected, actual } => {
                write!(
                    f,
                    "truncated snapshot: expected {expected} bytes, found {actual}"
                )
            }
            CkptError::ChecksumMismatch { stored, computed } => write!(
                f,
                "snapshot checksum mismatch: stored {stored:#018x}, computed {computed:#018x}"
            ),
            CkptError::Decode(e) => write!(f, "snapshot decode error: {e}"),
            CkptError::WorldMismatch { snapshot, config } => write!(
                f,
                "snapshot world (pp={}, dp={}) does not match config (pp={}, dp={})",
                snapshot.0, snapshot.1, config.0, config.1
            ),
            CkptError::ConfigMismatch { snapshot, config } => write!(
                f,
                "snapshot config fingerprint {snapshot:#018x} does not match {config:#018x}"
            ),
            CkptError::MissingRank { stage, dp } => {
                write!(
                    f,
                    "snapshot is missing the section for stage {stage}, dp rank {dp}"
                )
            }
            CkptError::Store { what } => write!(f, "shard store error: {what}"),
            CkptError::ShardMismatch { stage, dp, what } => {
                write!(f, "shard for stage {stage}, dp rank {dp}: {what}")
            }
        }
    }
}

impl std::error::Error for CkptError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CkptError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<PersistError> for CkptError {
    fn from(e: PersistError) -> Self {
        CkptError::Decode(e)
    }
}
