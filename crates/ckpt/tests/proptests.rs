//! Property-based tests of the shard codec: every structurally valid
//! shard/manifest round-trips bit-exactly, and random corruption of the
//! encoded bytes is always rejected with a typed error, never accepted or
//! panicked on.

use opt_ckpt::{
    shard_file_name, CkptError, RankSection, Shard, ShardEntry, ShardManifest, SnapshotMeta,
};
use opt_tensor::SeedStream;
use proptest::prelude::*;

/// Deterministically builds a rank section with shapes and blob lengths
/// drawn from `seed`.
fn section(stage: usize, dp: usize, seed: u64) -> RankSection {
    let mut rng = SeedStream::new(seed ^ ((stage as u64) << 32) ^ dp as u64);
    let params = (0..1 + (seed as usize % 3))
        .map(|i| rng.uniform_matrix(1 + (seed as usize + i) % 4, 1 + i, 2.0))
        .collect();
    let blob = |n: usize| (0..n).map(|i| (seed as u8).wrapping_add(i as u8)).collect();
    RankSection {
        stage,
        dp,
        params,
        optimizer: blob(seed as usize % 40),
        cb_link: blob((seed as usize / 7) % 25),
        dp_state: blob((seed as usize / 3) % 33),
    }
}

/// A `pp x dp` world's sections under one header, in manifest order.
fn world(pp: usize, dp: usize, iter: u64, seed: u64) -> (SnapshotMeta, Vec<RankSection>) {
    let meta = SnapshotMeta {
        pp,
        dp,
        seed,
        iter,
        config_fingerprint: seed.wrapping_mul(0x9E37_79B9_7F4A_7C15),
    };
    let ranks = (0..dp)
        .flat_map(|d| (0..pp).map(move |s| (s, d)))
        .map(|(s, d)| section(s, d, seed))
        .collect();
    (meta, ranks)
}

proptest! {
    #[test]
    fn shard_codec_roundtrips_bit_exactly(
        stage in 0usize..4,
        dp in 0usize..3,
        iter in 0u64..1000,
        seed in 0u64..500,
    ) {
        let shard = Shard {
            iter,
            config_fingerprint: seed ^ 0xC0FFEE,
            section: section(stage, dp, seed),
        };
        let blob = shard.encode();
        let back = Shard::decode(&blob).expect("valid shard decodes");
        prop_assert_eq!(&back, &shard);
        // Bit-exact float round-trip, not just PartialEq.
        for (a, b) in shard.section.params.iter().zip(&back.section.params) {
            for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
                prop_assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // Encoding is deterministic (manifest checksums rely on this).
        prop_assert_eq!(blob, back.encode());
    }

    #[test]
    fn sections_through_shards_and_back_are_lossless(
        pp in 1usize..4,
        dp in 1usize..3,
        iter in 0u64..100,
        seed in 0u64..200,
    ) {
        let (meta, ranks) = world(pp, dp, iter, seed);
        let blobs: Vec<Vec<u8>> = ranks
            .iter()
            .map(|section| {
                Shard { iter, config_fingerprint: meta.config_fingerprint, section: section.clone() }
                    .encode()
            })
            .collect();
        let shards = ranks
            .iter()
            .zip(&blobs)
            .map(|(s, blob)| {
                ShardEntry::for_blob(s.stage, s.dp, shard_file_name(s.stage, s.dp, iter), blob)
            })
            .collect();
        let manifest = ShardManifest { meta, shards };
        prop_assert_eq!(manifest.world_size(), pp * dp);
        manifest.validate_complete().expect("complete world");
        for ((entry, blob), section) in manifest.shards.iter().zip(&blobs).zip(&ranks) {
            let shard = manifest.validate_shard(entry, blob).expect("lossless");
            prop_assert_eq!(&shard.section, section);
        }
        // The manifest itself round-trips through its framed codec.
        let again = ShardManifest::decode(&manifest.encode()).expect("manifest decodes");
        prop_assert_eq!(again, manifest);
    }

    #[test]
    fn corrupted_shard_bytes_never_decode_silently(
        seed in 0u64..300,
        pos_mul in 0.0f64..1.0,
        flip in 1u8..255,
    ) {
        let shard = Shard {
            iter: seed,
            config_fingerprint: seed,
            section: section(seed as usize % 3, seed as usize % 2, seed),
        };
        let clean = shard.encode();
        let entry = ShardEntry::for_blob(
            shard.stage(),
            shard.dp(),
            shard_file_name(shard.stage(), shard.dp(), shard.iter),
            &clean,
        );
        let mut bytes = clean.clone();
        let pos = ((bytes.len() - 1) as f64 * pos_mul) as usize;
        bytes[pos] ^= flip;
        // The manifest-side check always notices (size or checksum).
        prop_assert!(entry.verify(&bytes).is_err(), "flip at {pos} accepted by verify");
        // The standalone decoder either rejects or — when the flip hits
        // the checksum bytes themselves it still lands in the frame's own
        // checksum check — never accepts silently.
        match Shard::decode(&bytes) {
            Err(_) => {}
            Ok(decoded) => prop_assert!(
                false,
                "flip at {pos} decoded into {:?}",
                decoded.section.stage
            ),
        }
        // Truncation at any cut is rejected by both layers.
        let cut = pos.min(clean.len() - 1);
        let truncated = matches!(entry.verify(&clean[..cut]), Err(CkptError::Truncated { .. }));
        prop_assert!(truncated, "cut at {cut} not reported as truncation");
        prop_assert!(Shard::decode(&clean[..cut]).is_err());
    }
}
