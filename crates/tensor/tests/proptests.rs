//! Property-based tests for the tensor crate's algebraic invariants and
//! the sparse-kernel equivalence contract.

use opt_tensor::{cosine_similarity, orthonormalize_columns, Matrix, SeedStream, SparseMatrix};
use proptest::prelude::*;

/// Strategy producing a matrix with the given shape and bounded entries.
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-100.0f32..100.0, rows * cols)
        .prop_map(move |v| Matrix::from_vec(rows, cols, v))
}

/// Strategy for a (rows, cols) shape in a small range.
fn shape() -> impl Strategy<Value = (usize, usize)> {
    (1usize..8, 1usize..8)
}

proptest! {
    #[test]
    fn add_is_commutative((r, c) in shape(), seed in 0u64..1000) {
        let mut rng = SeedStream::new(seed);
        let a = rng.uniform_matrix(r, c, 10.0);
        let b = rng.uniform_matrix(r, c, 10.0);
        prop_assert_eq!(a.add(&b), b.add(&a));
    }

    #[test]
    fn transpose_is_involutive((r, c) in shape(), seed in 0u64..1000) {
        let mut rng = SeedStream::new(seed);
        let a = rng.uniform_matrix(r, c, 10.0);
        prop_assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn matmul_distributes_over_add(seed in 0u64..500) {
        let mut rng = SeedStream::new(seed);
        let a = rng.uniform_matrix(3, 4, 2.0);
        let b = rng.uniform_matrix(4, 2, 2.0);
        let c = rng.uniform_matrix(4, 2, 2.0);
        let lhs = a.matmul(&b.add(&c));
        let rhs = a.matmul(&b).add(&a.matmul(&c));
        let err = lhs.sub(&rhs).max_abs();
        prop_assert!(err < 1e-3, "distributivity violated: {err}");
    }

    #[test]
    fn matmul_transpose_identity(seed in 0u64..500) {
        // (A B)^T == B^T A^T
        let mut rng = SeedStream::new(seed);
        let a = rng.uniform_matrix(3, 5, 2.0);
        let b = rng.uniform_matrix(5, 2, 2.0);
        let lhs = a.matmul(&b).transpose();
        let rhs = b.transpose().matmul(&a.transpose());
        prop_assert!(lhs.sub(&rhs).max_abs() < 1e-3);
    }

    #[test]
    fn t_matmul_and_matmul_t_agree_with_naive(seed in 0u64..500) {
        let mut rng = SeedStream::new(seed);
        let a = rng.uniform_matrix(4, 3, 2.0);
        let b = rng.uniform_matrix(4, 2, 2.0);
        prop_assert!(a.t_matmul(&b).sub(&a.transpose().matmul(&b)).max_abs() < 1e-4);
        let c = rng.uniform_matrix(5, 3, 2.0);
        let at = rng.uniform_matrix(2, 3, 2.0);
        prop_assert!(at.matmul_t(&c).sub(&at.matmul(&c.transpose())).max_abs() < 1e-4);
    }

    #[test]
    fn scale_is_linear_in_sum((r, c) in shape(), alpha in -10.0f32..10.0, seed in 0u64..500) {
        let mut rng = SeedStream::new(seed);
        let a = rng.uniform_matrix(r, c, 5.0);
        let scaled_sum = a.scale(alpha).sum();
        prop_assert!((scaled_sum - alpha * a.sum()).abs() < 1e-2 * (1.0 + a.sum().abs() * alpha.abs()));
    }

    #[test]
    fn orthonormalize_produces_orthonormal_columns(seed in 0u64..300) {
        let mut rng = SeedStream::new(seed);
        let mut m = rng.uniform_matrix(16, 4, 1.0);
        orthonormalize_columns(&mut m);
        let gram = m.t_matmul(&m);
        for i in 0..4 {
            for j in 0..4 {
                let expect = if i == j { 1.0 } else { 0.0 };
                prop_assert!((gram[(i, j)] - expect).abs() < 1e-3);
            }
        }
    }

    #[test]
    fn cosine_similarity_is_bounded(seed in 0u64..500) {
        let mut rng = SeedStream::new(seed);
        let a = rng.uniform_matrix(2, 6, 3.0);
        let b = rng.uniform_matrix(2, 6, 3.0);
        let cs = cosine_similarity(&a, &b);
        prop_assert!((-1.0 - 1e-5..=1.0 + 1e-5).contains(&cs));
    }

    #[test]
    fn add_has_zero_identity_and_sub_inverts(m in matrix(5, 3)) {
        let zero = Matrix::zeros(5, 3);
        prop_assert_eq!(m.add(&zero), m.clone());
        prop_assert!(m.sub(&m).max_abs() == 0.0);
    }
}

// ---------------------------------------------------------------------------
// Sparse fast-path equivalence (the densify-then-dense reference)
// ---------------------------------------------------------------------------

/// The densities the sparse crossover knob ranges over: from a deep top-k
/// payload (0.1 %) through the crossover region up to fully dense.
const SPARSE_DENSITIES: [f32; 5] = [0.001, 0.01, 0.1, 0.5, 1.0];

/// A seeded random sparse matrix at approximately the requested density
/// (at least one stored entry): a deterministic shuffle picks the flat
/// positions, ascending, matching the top-k wire invariants.
fn random_sparse(rows: usize, cols: usize, density: f32, seed: u64) -> SparseMatrix {
    let total = rows * cols;
    let k = ((density * total as f32).ceil() as usize).clamp(1, total);
    let mut rng = SeedStream::new(seed);
    let mut flats: Vec<u32> = (0..total as u32).collect();
    // Partial Fisher–Yates over the first k slots.
    for i in 0..k {
        let j = i + (rng.uniform(1.0).abs() * (total - i) as f32) as usize % (total - i);
        flats.swap(i, j);
    }
    let mut picked = flats[..k].to_vec();
    picked.sort_unstable();
    let values: Vec<f32> = picked.iter().map(|_| rng.uniform(1.0)).collect();
    SparseMatrix::from_flat_payload(rows, cols, &picked, &values)
}

fn assert_bits(label: &str, reference: &Matrix, got: &Matrix) -> Result<(), TestCaseError> {
    prop_assert_eq!(reference.shape(), got.shape(), "{}: shape", label);
    for (i, (x, y)) in reference.as_slice().iter().zip(got.as_slice()).enumerate() {
        prop_assert_eq!(x.to_bits(), y.to_bits(), "{}: element {}", label, i);
    }
    Ok(())
}

use proptest::test_runner::TestCaseError;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sparse_subtract_is_bit_identical_to_dense_subtract(seed in 0u64..500) {
        let (rows, cols) = (40, 50);
        let mut rng = SeedStream::new(seed ^ 0x1234);
        let base = rng.uniform_matrix(rows, cols, 1.0);
        for &density in &SPARSE_DENSITIES {
            let s = random_sparse(rows, cols, density, seed);
            let mut sparse_path = base.clone();
            s.sub_from(&mut sparse_path);
            let mut dense_path = base.clone();
            dense_path.sub_assign(&s.densify());
            assert_bits(&format!("sub @density {density}"), &dense_path, &sparse_path)?;
        }
    }
}
