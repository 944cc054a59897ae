//! Per-rank snapshot shards and the shard manifest.
//!
//! A checkpoint is each `(stage, dp)` worker's state in its **own**
//! checksummed file ([`Shard`]), plus a small versioned
//! [`ShardManifest`] naming every shard, so a relaunched or replacement
//! worker can rendezvous on the manifest, fetch *only its own shard*,
//! validate it ([`ShardManifest::validate_shard`]), and apply it — no
//! process ever has to hold all state.
//!
//! # On-disk layout of a sharded checkpoint directory
//!
//! ```text
//! manifest.ckpt          ShardManifest (magic "OPTMANI\0", versioned, checksummed)
//! rank-0-0-<iter>.shard  Shard for stage 0, dp 0 (magic "OPTSHRD\0")
//! rank-1-0-<iter>.shard  Shard for stage 1, dp 0
//! ...                    one shard per (stage, dp) pair
//! ```
//!
//! Shard names carry the checkpoint iteration so a *re*-save never
//! clobbers the previous checkpoint's blobs: new shards land under fresh
//! names, the manifest is replaced atomically last, and only then are
//! shards the new manifest no longer references garbage-collected. A
//! crash at any point leaves a store whose manifest names fully-written,
//! matching shards.
//!
//! Every file reuses the snapshot frame: magic, format version (u32 LE),
//! body length (u64 LE), `Persist`-encoded body, frame checksum. The
//! manifest additionally records each shard's byte size and checksum, so a
//! fetched blob is validated against the manifest *before* it is decoded.

use crate::framing::{checksum, frame, unframe};
use crate::{CkptError, RankSection, SnapshotMeta};
use opt_tensor::{Persist, PersistError, Reader, Writer};

/// Magic bytes opening every shard file.
pub const SHARD_MAGIC: &[u8; 8] = b"OPTSHRD\0";

/// Magic bytes opening every shard-manifest file.
pub const MANIFEST_MAGIC: &[u8; 8] = b"OPTMANI\0";

/// Current shard/manifest format version (versioned independently of the
/// in-memory snapshot encoding).
pub const SHARD_FORMAT_VERSION: u32 = 2;

/// Well-known object name of the manifest in a shard store or directory.
pub const MANIFEST_FILE: &str = "manifest.ckpt";

/// Object name of the shard holding `(stage, dp)`'s state at checkpoint
/// iteration `iter`.
///
/// The iteration is part of the name so that re-saving into the same
/// store or directory never overwrites the previous checkpoint's shards:
/// the old manifest and every blob it names stay intact until the new
/// manifest commits, and only then are stale shards garbage-collected.
pub fn shard_file_name(stage: usize, dp: usize, iter: u64) -> String {
    format!("rank-{stage}-{dp}-{iter}.shard")
}

/// One worker's slice of a sharded checkpoint: the [`RankSection`] plus
/// enough header context (iteration, config fingerprint) for the fetching
/// worker to validate the shard *standalone*, without trusting anything
/// the coordinator holds.
#[derive(Debug, Clone, PartialEq)]
pub struct Shard {
    /// Training iterations completed when the shard was taken.
    pub iter: u64,
    /// Fingerprint of the configuration the shard was taken under.
    pub config_fingerprint: u64,
    /// The worker's training state.
    pub section: RankSection,
}

impl Shard {
    /// Pipeline stage this shard belongs to.
    pub fn stage(&self) -> usize {
        self.section.stage
    }

    /// Data-parallel rank this shard belongs to.
    pub fn dp(&self) -> usize {
        self.section.dp
    }

    /// Serializes to the framed on-disk byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Writer::new();
        body.u64(self.iter);
        body.u64(self.config_fingerprint);
        self.section.persist(&mut body);
        frame(SHARD_MAGIC, SHARD_FORMAT_VERSION, &body.into_bytes())
    }

    /// Parses and validates the framed byte format (magic, version,
    /// length, checksum, structure).
    pub fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        let body = unframe(bytes, SHARD_MAGIC, SHARD_FORMAT_VERSION)?;
        let mut r = Reader::new(body);
        let iter = r.u64()?;
        let config_fingerprint = r.u64()?;
        let section = RankSection::restore(&mut r)?;
        r.finish().map_err(CkptError::Decode)?;
        Ok(Shard {
            iter,
            config_fingerprint,
            section,
        })
    }

    /// Checks that this shard belongs to the checkpoint described by
    /// `meta`: same iteration, same config fingerprint, rank inside the
    /// world. Returns typed errors so callers can report *why* a shard was
    /// refused.
    pub fn validate_against(&self, meta: &SnapshotMeta) -> Result<(), CkptError> {
        if self.config_fingerprint != meta.config_fingerprint {
            return Err(CkptError::ConfigMismatch {
                snapshot: self.config_fingerprint,
                config: meta.config_fingerprint,
            });
        }
        if self.iter != meta.iter {
            return Err(CkptError::ShardMismatch {
                stage: self.stage(),
                dp: self.dp(),
                what: "shard iteration does not match the manifest",
            });
        }
        if self.stage() >= meta.pp || self.dp() >= meta.dp {
            return Err(CkptError::ShardMismatch {
                stage: self.stage(),
                dp: self.dp(),
                what: "shard rank lies outside the manifest's world",
            });
        }
        Ok(())
    }
}

/// One line of the manifest: which shard holds `(stage, dp)`, under what
/// object name, and what its exact size and checksum must be.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardEntry {
    /// Pipeline stage of the shard.
    pub stage: usize,
    /// Data-parallel rank of the shard.
    pub dp: usize,
    /// Object name of the shard in the store (by convention
    /// [`shard_file_name`]).
    pub name: String,
    /// Exact encoded size of the shard file in bytes.
    pub bytes: u64,
    /// [`crate::checksum`] over the full encoded shard file.
    pub checksum: u64,
}

impl ShardEntry {
    /// Builds the entry describing `blob`, an encoded shard.
    pub fn for_blob(stage: usize, dp: usize, name: String, blob: &[u8]) -> Self {
        Self {
            stage,
            dp,
            name,
            bytes: blob.len() as u64,
            checksum: checksum(blob),
        }
    }

    /// Verifies a fetched blob against this entry: exact size, matching
    /// checksum. Run *before* decoding, so a truncated or bit-rotted fetch
    /// never reaches the structural decoder.
    pub fn verify(&self, blob: &[u8]) -> Result<(), CkptError> {
        if blob.len() as u64 != self.bytes {
            return Err(CkptError::Truncated {
                expected: usize::try_from(self.bytes).unwrap_or(usize::MAX),
                actual: blob.len(),
            });
        }
        let computed = checksum(blob);
        if computed != self.checksum {
            return Err(CkptError::ChecksumMismatch {
                stored: self.checksum,
                computed,
            });
        }
        Ok(())
    }
}

impl Persist for ShardEntry {
    fn persist(&self, w: &mut Writer) {
        w.usize(self.stage);
        w.usize(self.dp);
        w.bytes(self.name.as_bytes());
        w.u64(self.bytes);
        w.u64(self.checksum);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let stage = r.usize()?;
        let dp = r.usize()?;
        let name = String::from_utf8(r.bytes()?).map_err(|_| PersistError::Invalid {
            what: "shard name is not valid UTF-8",
        })?;
        Ok(Self {
            stage,
            dp,
            name,
            bytes: r.u64()?,
            checksum: r.u64()?,
        })
    }
}

/// The rendezvous document of a sharded checkpoint: the [`SnapshotMeta`]
/// header plus one [`ShardEntry`] per `(stage, dp)` worker.
///
/// A restarting worker needs only this (small) manifest and its own shard
/// to resume a run; [`ShardManifest::decode`] rejects bad magic, stale
/// versions, truncation, checksum mismatches, and incomplete worlds.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardManifest {
    /// Checkpoint header: world shape, iteration, config fingerprint.
    pub meta: SnapshotMeta,
    /// One entry per worker, ordered by `dp * pp + stage`.
    pub shards: Vec<ShardEntry>,
}

impl ShardManifest {
    /// Number of shards this manifest should name.
    pub fn world_size(&self) -> usize {
        self.meta.pp * self.meta.dp
    }

    /// The entry for `(stage, dp)`, if present.
    pub fn entry(&self, stage: usize, dp: usize) -> Option<&ShardEntry> {
        self.shards.iter().find(|e| e.stage == stage && e.dp == dp)
    }

    /// Verifies that exactly one entry exists per `(stage, dp)` pair and
    /// nothing else.
    pub fn validate_complete(&self) -> Result<(), CkptError> {
        if self.shards.len() != self.world_size() {
            return Err(CkptError::Decode(PersistError::Invalid {
                what: "manifest entry count does not match its world size",
            }));
        }
        for d in 0..self.meta.dp {
            for s in 0..self.meta.pp {
                let n = self
                    .shards
                    .iter()
                    .filter(|e| e.stage == s && e.dp == d)
                    .count();
                if n != 1 {
                    return Err(CkptError::MissingRank { stage: s, dp: d });
                }
            }
        }
        Ok(())
    }

    /// Serializes to the framed on-disk byte format.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = Writer::new();
        self.meta.persist(&mut body);
        self.shards.persist(&mut body);
        frame(MANIFEST_MAGIC, SHARD_FORMAT_VERSION, &body.into_bytes())
    }

    /// Parses and validates the framed byte format, including world
    /// completeness.
    pub fn decode(bytes: &[u8]) -> Result<Self, CkptError> {
        let mut r = Reader::new(unframe(bytes, MANIFEST_MAGIC, SHARD_FORMAT_VERSION)?);
        let meta = SnapshotMeta::restore(&mut r)?;
        let shards = Vec::<ShardEntry>::restore(&mut r)?;
        r.finish().map_err(CkptError::Decode)?;
        let manifest = ShardManifest { meta, shards };
        manifest.validate_complete()?;
        Ok(manifest)
    }

    /// The validation every fetched shard passes before a worker applies
    /// it. `blob` is what the store returned under `entry.name`; in
    /// order: exact size and checksum against the manifest entry (so a
    /// truncated or bit-rotted fetch never reaches the structural
    /// decoder), the shard codec, the rank identity inside the shard
    /// against the entry that named it, then iteration, config
    /// fingerprint and world against the manifest header.
    pub fn validate_shard(&self, entry: &ShardEntry, blob: &[u8]) -> Result<Shard, CkptError> {
        entry.verify(blob)?;
        let shard = Shard::decode(blob)?;
        if (shard.stage(), shard.dp()) != (entry.stage, entry.dp) {
            return Err(CkptError::ShardMismatch {
                stage: entry.stage,
                dp: entry.dp,
                what: "shard rank identity does not match its manifest entry",
            });
        }
        shard.validate_against(&self.meta)?;
        Ok(shard)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Snapshot;
    use opt_tensor::Matrix;
    use std::collections::HashMap;

    fn sample() -> Snapshot {
        let section = |stage: usize, dp: usize| RankSection {
            stage,
            dp,
            params: vec![Matrix::full(2, 3, 0.25), Matrix::zeros(1, 4)],
            optimizer: vec![1, 2, 3, stage as u8, dp as u8],
            cb_link: vec![7; stage],
            dp_state: vec![9; 5],
        };
        Snapshot {
            meta: SnapshotMeta {
                pp: 2,
                dp: 2,
                seed: 11,
                iter: 17,
                config_fingerprint: 0xFEED_BEEF,
            },
            ranks: vec![section(0, 0), section(1, 0), section(0, 1), section(1, 1)],
        }
    }

    /// `snap` as a sharded checkpoint, the way workers publish one: every
    /// section encoded as a [`Shard`] under [`shard_file_name`], and the
    /// manifest naming each blob by size and checksum.
    fn store(snap: &Snapshot) -> (ShardManifest, HashMap<String, Vec<u8>>) {
        let mut blobs = HashMap::new();
        let mut shards = Vec::new();
        for section in &snap.ranks {
            let (stage, dp) = (section.stage, section.dp);
            let blob = Shard {
                iter: snap.meta.iter,
                config_fingerprint: snap.meta.config_fingerprint,
                section: section.clone(),
            }
            .encode();
            let name = shard_file_name(stage, dp, snap.meta.iter);
            shards.push(ShardEntry::for_blob(stage, dp, name.clone(), &blob));
            blobs.insert(name, blob);
        }
        let manifest = ShardManifest {
            meta: snap.meta.clone(),
            shards,
        };
        (manifest, blobs)
    }

    #[test]
    fn shard_roundtrip_is_lossless() {
        let snap = sample();
        let (manifest, map) = store(&snap);
        assert_eq!(manifest.world_size(), 4);
        assert_eq!(map.len(), 4);
        manifest.validate_complete().expect("complete world");
        for (entry, section) in manifest.shards.iter().zip(&snap.ranks) {
            let shard = manifest
                .validate_shard(entry, &map[&entry.name])
                .expect("roundtrip");
            assert_eq!(&shard.section, section);
        }
    }

    #[test]
    fn single_shard_roundtrip_preserves_everything() {
        let snap = sample();
        let shard = Shard {
            iter: snap.meta.iter,
            config_fingerprint: snap.meta.config_fingerprint,
            section: snap.ranks[2].clone(),
        };
        let back = Shard::decode(&shard.encode()).expect("decode");
        assert_eq!(back, shard);
        assert_eq!(back.stage(), 0);
        assert_eq!(back.dp(), 1);
        back.validate_against(&snap.meta).expect("belongs");
    }

    #[test]
    fn truncated_shard_is_rejected() {
        let snap = sample();
        let (manifest, map) = store(&snap);
        let entry = &manifest.shards[0];
        let blob = &map[&entry.name];
        for cut in [0, 5, 19, blob.len() / 2, blob.len() - 1] {
            assert!(
                matches!(
                    manifest.validate_shard(entry, &blob[..cut]),
                    Err(CkptError::Truncated { .. })
                ),
                "cut at {cut} accepted by manifest verification"
            );
        }
        // The standalone decoder rejects truncation too (a worker with no
        // manifest copy still cannot apply half a shard).
        assert!(Shard::decode(&blob[..blob.len() - 1]).is_err());
    }

    #[test]
    fn shard_checksum_mismatch_is_rejected() {
        let snap = sample();
        let (manifest, mut map) = store(&snap);
        let entry = &manifest.shards[1];
        let blob = map.get_mut(&entry.name).unwrap();
        let mid = blob.len() / 2;
        blob[mid] ^= 0x10;
        assert!(matches!(
            manifest.validate_shard(entry, blob),
            Err(CkptError::ChecksumMismatch { .. })
        ));
    }

    #[test]
    fn missing_rank_in_manifest_is_rejected() {
        let snap = sample();
        let (mut manifest, _) = store(&snap);
        manifest.shards.remove(2);
        assert!(matches!(
            manifest.validate_complete(),
            Err(CkptError::Decode(PersistError::Invalid { .. }))
        ));
        // Right count but a duplicated rank: caught per-pair.
        let (mut dup, _) = store(&snap);
        dup.shards[3] = dup.shards[0].clone();
        assert!(matches!(
            dup.validate_complete(),
            Err(CkptError::MissingRank { .. })
        ));
        // And the encoded manifest refuses to decode at all.
        assert!(ShardManifest::decode(&dup.encode()).is_err());
    }

    #[test]
    fn wrong_config_fingerprint_is_rejected() {
        let snap = sample();
        let (mut manifest, map) = store(&snap);
        manifest.meta.config_fingerprint ^= 1;
        let entry = &manifest.shards[0];
        assert!(matches!(
            manifest.validate_shard(entry, &map[&entry.name]),
            Err(CkptError::ConfigMismatch { .. })
        ));
    }

    #[test]
    fn shard_from_a_different_iteration_is_rejected() {
        let snap = sample();
        let mut older = snap.clone();
        older.meta.iter -= 1;
        // Stale blobs fail the manifest checksum (contents differ) — but
        // even a re-indexed manifest pointing at them trips the iteration
        // check inside the shard header.
        let (mut crossed, stale) = store(&older);
        crossed.meta.iter = snap.meta.iter;
        let entry = &crossed.shards[0];
        assert!(matches!(
            crossed.validate_shard(entry, &stale[&entry.name]),
            Err(CkptError::ShardMismatch { .. })
        ));
    }

    #[test]
    fn stale_manifest_version_is_rejected() {
        let snap = sample();
        let (manifest, map) = store(&snap);
        let mut bytes = manifest.encode();
        bytes[8..12].copy_from_slice(&99u32.to_le_bytes());
        assert!(matches!(
            ShardManifest::decode(&bytes),
            Err(CkptError::UnsupportedVersion(99))
        ));
        // A stale shard version is equally fatal.
        let mut shard_bytes = map[&manifest.shards[0].name].clone();
        shard_bytes[8..12].copy_from_slice(&0u32.to_le_bytes());
        assert!(matches!(
            Shard::decode(&shard_bytes),
            Err(CkptError::UnsupportedVersion(0))
        ));
    }

    #[test]
    fn manifest_magic_and_corruption_are_rejected() {
        let manifest = store(&sample()).0;
        let clean = manifest.encode();
        let mut bad_magic = clean.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            ShardManifest::decode(&bad_magic),
            Err(CkptError::BadMagic)
        ));
        let mut flipped = clean.clone();
        let mid = clean.len() / 2;
        flipped[mid] ^= 0xFF;
        assert!(matches!(
            ShardManifest::decode(&flipped),
            Err(CkptError::ChecksumMismatch { .. })
        ));
        assert_eq!(
            ShardManifest::decode(&clean).expect("clean decodes"),
            manifest
        );
    }

    #[test]
    fn swapped_shard_blobs_are_rejected_by_identity_check() {
        // Two shards swapped behind the manifest's back: sizes may match,
        // but checksums differ, and even with a doctored manifest the
        // rank identity inside the shard gives the swap away.
        let snap = sample();
        let (mut manifest, map) = store(&snap);
        let e0 = manifest.shards[0].clone();
        let e1 = manifest.shards[1].clone();
        // Doctor the manifest so entry 0 points at shard 1's blob.
        manifest.shards[0] = ShardEntry {
            stage: e0.stage,
            dp: e0.dp,
            ..e1.clone()
        };
        manifest.shards[1] = ShardEntry {
            stage: e1.stage,
            dp: e1.dp,
            ..e0
        };
        for entry in &manifest.shards[..2] {
            assert!(matches!(
                manifest.validate_shard(entry, &map[&entry.name]),
                Err(CkptError::ShardMismatch { .. })
            ));
        }
    }

    #[test]
    fn shard_file_names_are_per_rank_and_per_iteration() {
        assert_eq!(shard_file_name(0, 0, 0), "rank-0-0-0.shard");
        assert_eq!(shard_file_name(3, 1, 42), "rank-3-1-42.shard");
        let snap = sample();
        let (manifest, map) = store(&snap);
        for entry in &manifest.shards {
            assert!(map.contains_key(&entry.name));
            assert_eq!(
                entry.name,
                shard_file_name(entry.stage, entry.dp, snap.meta.iter)
            );
        }
    }
}
