//! Property-based tests on compression invariants.

use opt_compress::{Compressed, Compressor, LazyErrorPropagator, PowerSgd, TopK};
use opt_tensor::{Matrix, Persist, SeedStream};
use proptest::prelude::*;

proptest! {
    #[test]
    fn powersgd_shape_preserved(rows in 1usize..24, cols in 1usize..24, rank in 1usize..8, seed in 0u64..200) {
        let mut rng = SeedStream::new(seed);
        let g = rng.uniform_matrix(rows, cols, 1.0);
        let mut c = PowerSgd::new(rank, seed);
        let out = c.round_trip(&g);
        prop_assert_eq!(out.shape(), g.shape());
        prop_assert!(out.as_slice().iter().all(|x| x.is_finite()));
    }

    #[test]
    fn powersgd_wire_bytes_formula(rows in 1usize..32, cols in 1usize..32, rank in 1usize..8, seed in 0u64..100) {
        let mut rng = SeedStream::new(seed);
        let g = rng.uniform_matrix(rows, cols, 1.0);
        let mut c = PowerSgd::new(rank, seed);
        let payload = c.compress(&g);
        let r = rank.min(rows).min(cols).max(1);
        prop_assert_eq!(payload.wire_bytes(), (rows * r + cols * r) * opt_compress::FP16_BYTES);
    }

    #[test]
    fn topk_never_increases_norm(rows in 1usize..16, cols in 1usize..16, density in 0.01f64..1.0, seed in 0u64..200) {
        let mut rng = SeedStream::new(seed);
        let g = rng.uniform_matrix(rows, cols, 5.0);
        let mut c = TopK::new(density);
        let out = c.round_trip(&g);
        prop_assert!(out.norm() <= g.norm() + 1e-4);
    }

    #[test]
    fn topk_kept_values_are_exact(seed in 0u64..200) {
        let mut rng = SeedStream::new(seed);
        let g = rng.uniform_matrix(8, 8, 3.0);
        let mut c = TopK::new(0.25);
        let out = c.round_trip(&g);
        for (o, r) in g.as_slice().iter().zip(out.as_slice()) {
            prop_assert!(*r == 0.0 || r == o);
        }
    }

    #[test]
    fn lazy_error_mass_conservation(seed in 0u64..100, n_micro in 1usize..12) {
        let mut rng = SeedStream::new(seed);
        let mut link = LazyErrorPropagator::new(PowerSgd::new(1, seed), true);
        let mut delivered = Matrix::zeros(6, 6);
        let mut truth = Matrix::zeros(6, 6);
        for _ in 0..n_micro {
            let g = rng.uniform_matrix(6, 6, 1.0);
            let (p, _) = link.process(&g, true);
            delivered.add_assign(&p.decompress());
            truth.add_assign(&g);
        }
        if let Some(resid) = link.error() {
            delivered.add_assign(resid);
        }
        prop_assert!(delivered.sub(&truth).max_abs() < 1e-3);
    }

    #[test]
    fn identity_is_lossless(rows in 1usize..10, cols in 1usize..10, seed in 0u64..200) {
        let mut rng = SeedStream::new(seed);
        let g = rng.uniform_matrix(rows, cols, 10.0);
        prop_assert_eq!(Compressed::Dense { matrix: g.clone() }.decompress(), g);
    }

    #[test]
    fn payload_codec_roundtrip_is_identity(rows in 1usize..16, cols in 1usize..16, seed in 0u64..200) {
        // The on-disk codec and the in-memory payloads share one invariant:
        // encode/decode is the identity on every payload family the
        // compressors can emit (dense, low-rank, top-k sparse). Equality
        // on `Compressed` is exact (bit-level floats).
        let mut rng = SeedStream::new(seed);
        let g = rng.uniform_matrix(rows, cols, 2.0);
        let payloads = vec![
            Compressed::Dense { matrix: g.clone() },
            PowerSgd::new(1 + (seed as usize % 4), seed).compress(&g),
            TopK::new(0.25).compress(&g),
        ];
        for p in payloads {
            let back = Compressed::from_bytes(&p.to_bytes());
            prop_assert_eq!(back.as_ref(), Ok(&p));
            // Decoded payloads reconstruct the same dense matrix.
            prop_assert_eq!(back.unwrap().decompress(), p.decompress());
        }
    }

    #[test]
    fn payload_codec_rejects_truncation(seed in 0u64..100, cut in 1usize..12) {
        let mut rng = SeedStream::new(seed);
        let g = rng.uniform_matrix(6, 5, 1.0);
        let bytes = TopK::new(0.4).compress(&g).to_bytes();
        let cut = cut.min(bytes.len() - 1);
        prop_assert!(Compressed::from_bytes(&bytes[..bytes.len() - cut]).is_err());
    }

    #[test]
    fn compressor_state_codec_roundtrip(seed in 0u64..100, rank in 1usize..5) {
        // Stateful compressor checkpointing: a restored PowerSGD (alone or
        // wrapped in LEP) continues bit-exactly.
        let mut rng = SeedStream::new(seed);
        let mut c = PowerSgd::new(rank, seed ^ 1);
        c.compress(&rng.uniform_matrix(9, 7, 1.0));
        let mut c2 = PowerSgd::from_bytes(&c.to_bytes()).unwrap();
        let g = rng.uniform_matrix(9, 7, 1.0);
        prop_assert_eq!(c.compress(&g), c2.compress(&g));

        let mut lep = LazyErrorPropagator::new(PowerSgd::new(rank, seed ^ 2), true);
        lep.process(&rng.uniform_matrix(9, 7, 1.0), true);
        let mut lep2: LazyErrorPropagator<PowerSgd> =
            LazyErrorPropagator::from_bytes(&lep.to_bytes()).unwrap();
        let g = rng.uniform_matrix(9, 7, 1.0);
        let (pa, _) = lep.process(&g, true);
        let (pb, _) = lep2.process(&g, true);
        prop_assert_eq!(pa, pb);
    }

    #[test]
    fn all_payloads_report_consistent_shape(seed in 0u64..100) {
        let mut rng = SeedStream::new(seed);
        let g = rng.uniform_matrix(7, 5, 1.0);
        let payloads = vec![
            Compressed::Dense { matrix: g.clone() },
            PowerSgd::new(2, seed).compress(&g),
            TopK::new(0.3).compress(&g),
        ];
        for p in payloads {
            prop_assert_eq!(p.dense_shape(), (7, 5));
            prop_assert_eq!(p.decompress().shape(), (7, 5));
            prop_assert!(p.wire_bytes() > 0);
        }
    }
}

/// Top-k densities from a deep top-k payload (0.1 %) up to fully dense.
const SPARSE_DENSITIES: [f64; 5] = [0.001, 0.01, 0.1, 0.5, 1.0];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sparse_subtract_is_bit_identical_to_dense_subtract(seed in 0u64..500) {
        // `apply_sub` scatters a top-k payload's values into the target;
        // subtracting the decompressed payload must give the same bits.
        // 41 × 50 keeps every density's k off a multiple of four, so each
        // payload also ends in a partial chunk.
        let (rows, cols) = (41, 50);
        let mut rng = SeedStream::new(seed ^ 0x1234);
        let base = rng.uniform_matrix(rows, cols, 1.0);
        for &density in &SPARSE_DENSITIES {
            let payload = TopK::new(density).compress(&rng.uniform_matrix(rows, cols, 1.0));
            let mut sparse_path = base.clone();
            payload.apply_sub(&mut sparse_path);
            let mut dense_path = base.clone();
            dense_path.sub_assign(&payload.decompress());
            for (i, (x, y)) in dense_path.as_slice().iter().zip(sparse_path.as_slice()).enumerate() {
                prop_assert_eq!(x.to_bits(), y.to_bits(), "density {}: element {}", density, i);
            }
        }
    }
}
