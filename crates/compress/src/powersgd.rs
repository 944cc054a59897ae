//! PowerSGD low-rank gradient compression (Vogels et al., NeurIPS'19).
//!
//! This is the compressor Optimus-CC adopts (§8): a *single* power
//! iteration per gradient, warm-started from the previous step's right
//! factor, with Gram–Schmidt orthogonalization of the left factor.

use crate::{Compressed, Compressor};
use opt_tensor::{
    orthonormalize_columns, Matrix, Persist, PersistError, Reader, SeedStream, Writer,
};

/// PowerSGD compressor with warm-started single power iteration.
///
/// For a gradient `M` of shape `n x m` and rank `r`:
///
/// 1. `P = M * Q_prev` (`n x r`), where `Q_prev` is the previous call's
///    right factor (or a random Gaussian on the first call),
/// 2. orthonormalize the columns of `P` (the step that dominates
///    compression time per the paper's §9.6),
/// 3. `Q = M^T * P` (`m x r`),
/// 4. transmit `(P, Q)`; the receiver reconstructs `P * Q^T`.
///
/// The warm start is what lets a single power iteration track the dominant
/// gradient subspace across steps.
///
/// # Example
///
/// ```
/// use opt_compress::{Compressor, PowerSgd};
/// use opt_tensor::{relative_error, Matrix, SeedStream};
///
/// // A rank-1 matrix is reconstructed (almost) exactly at rank >= 1.
/// let mut rng = SeedStream::new(0);
/// let u = rng.uniform_matrix(32, 1, 1.0);
/// let v = rng.uniform_matrix(16, 1, 1.0);
/// let grad = u.matmul_t(&v);
/// let mut c = PowerSgd::new(2, 7);
/// let approx = c.round_trip(&grad);
/// assert!(relative_error(&grad, &approx) < 1e-3);
/// ```
#[derive(Debug)]
pub struct PowerSgd {
    rank: usize,
    rng: SeedStream,
    /// Warm-start right factor from the previous compression of the same
    /// link, keyed implicitly by shape (reset when the shape changes).
    q_prev: Option<Matrix>,
}

impl PowerSgd {
    /// Creates a PowerSGD compressor with the given rank and RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0`.
    pub fn new(rank: usize, seed: u64) -> Self {
        assert!(rank > 0, "PowerSGD rank must be positive");
        Self {
            rank,
            rng: SeedStream::new(seed),
            q_prev: None,
        }
    }

    /// The configured rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// Elements held in the warm-start factor (Fig. 12 memory accounting).
    pub fn warm_start_elems(&self) -> usize {
        self.q_prev.as_ref().map_or(0, Matrix::len)
    }

    fn effective_rank(&self, rows: usize, cols: usize) -> usize {
        self.rank.min(rows).min(cols).max(1)
    }
}

impl Persist for PowerSgd {
    fn persist(&self, w: &mut Writer) {
        w.usize(self.rank);
        self.rng.persist(w);
        self.q_prev.persist(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let rank = r.usize()?;
        if rank == 0 {
            return Err(PersistError::Invalid {
                what: "PowerSGD rank must be positive",
            });
        }
        Ok(Self {
            rank,
            rng: SeedStream::restore(r)?,
            q_prev: Option::restore(r)?,
        })
    }
}

impl Compressor for PowerSgd {
    fn compress(&mut self, grad: &Matrix) -> Compressed {
        let (n, m) = grad.shape();
        let r = self.effective_rank(n, m);
        // Warm start against the previous right factor by reference — no
        // clone of the `m x r` factor on the hot path.
        let cold_start;
        let q_start: &Matrix = match &self.q_prev {
            Some(q) if q.shape() == (m, r) => q,
            _ => {
                cold_start = self.rng.normal_matrix(m, r, 1.0);
                &cold_start
            }
        };
        // Single power iteration.
        let mut p = grad.matmul(q_start);
        orthonormalize_columns(&mut p);
        // Reuse the retired warm-start buffer for the new right factor.
        let mut q = self.q_prev.take().unwrap_or_default();
        grad.t_matmul_into(&p, &mut q);
        self.q_prev = Some(q.clone());
        Compressed::LowRank { p, q }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opt_tensor::relative_error;

    fn low_rank_matrix(rng: &mut SeedStream, n: usize, m: usize, true_rank: usize) -> Matrix {
        let a = rng.uniform_matrix(n, true_rank, 1.0);
        let b = rng.uniform_matrix(true_rank, m, 1.0);
        a.matmul(&b)
    }

    #[test]
    #[should_panic(expected = "rank must be positive")]
    fn zero_rank_panics() {
        let _ = PowerSgd::new(0, 0);
    }

    #[test]
    fn exact_recovery_of_low_rank_input() {
        let mut rng = SeedStream::new(1);
        let grad = low_rank_matrix(&mut rng, 40, 24, 3);
        let mut c = PowerSgd::new(4, 2);
        // Warm-started iterations converge on a fixed matrix.
        let mut approx = c.round_trip(&grad);
        for _ in 0..5 {
            approx = c.round_trip(&grad);
        }
        assert!(
            relative_error(&grad, &approx) < 1e-3,
            "err = {}",
            relative_error(&grad, &approx)
        );
    }

    #[test]
    fn warm_start_improves_over_cold_start() {
        let mut rng = SeedStream::new(3);
        let grad = low_rank_matrix(&mut rng, 64, 32, 6);
        let mut c = PowerSgd::new(4, 5);
        let cold = relative_error(&grad, &c.round_trip(&grad));
        // Repeated compression of the same matrix refines Q.
        for _ in 0..8 {
            c.round_trip(&grad);
        }
        let warm = relative_error(&grad, &c.round_trip(&grad));
        assert!(warm <= cold + 1e-6, "cold {cold} vs warm {warm}");
    }

    #[test]
    fn approximation_error_decreases_with_rank() {
        let mut rng = SeedStream::new(4);
        let grad = rng.uniform_matrix(48, 48, 1.0);
        let mut errs = Vec::new();
        for rank in [1usize, 4, 16, 48] {
            let mut c = PowerSgd::new(rank, 9);
            // A few warm-start refinements for a fair comparison.
            let mut approx = c.round_trip(&grad);
            for _ in 0..4 {
                approx = c.round_trip(&grad);
            }
            errs.push(relative_error(&grad, &approx));
        }
        for w in errs.windows(2) {
            assert!(w[1] <= w[0] + 1e-4, "errors not decreasing: {errs:?}");
        }
        // Full rank recovers (numerically) exactly.
        assert!(errs[3] < 1e-2, "full-rank error {}", errs[3]);
    }

    #[test]
    fn wire_bytes_shrink_with_compression() {
        let mut rng = SeedStream::new(5);
        let grad = rng.uniform_matrix(128, 128, 1.0);
        let mut c = PowerSgd::new(8, 1);
        let payload = c.compress(&grad);
        // rank-8 factors: 2 * 128 * 8 = 2048 elements vs 16384 dense.
        assert_eq!(payload.wire_bytes(), 2048 * crate::FP16_BYTES);
        assert!(payload.ratio() > 7.9);
    }

    #[test]
    fn rank_clamped_to_matrix_dims() {
        let mut c = PowerSgd::new(64, 0);
        let grad = Matrix::full(4, 3, 1.0);
        let payload = c.compress(&grad);
        let Compressed::LowRank { p, q } = &payload else {
            panic!("expected a low-rank payload, got {payload:?}");
        };
        assert_eq!(p.shape(), (4, 3));
        assert_eq!(q.shape(), (3, 3));
        // Full-rank clamp recovers the matrix.
        assert!(relative_error(&grad, &payload.decompress()) < 1e-3);
    }

    #[test]
    fn shape_change_resets_warm_start() {
        let mut rng = SeedStream::new(6);
        let mut c = PowerSgd::new(2, 3);
        let a = rng.uniform_matrix(10, 8, 1.0);
        let b = rng.uniform_matrix(6, 12, 1.0);
        c.compress(&a);
        // Must not panic on shape change; q_prev is discarded.
        let payload = c.compress(&b);
        assert_eq!(payload.dense_shape(), (6, 12));
    }

    #[test]
    fn persisted_state_continues_bit_exactly() {
        // A restored compressor must produce bit-identical payloads to the
        // original — warm-start factor *and* RNG position both matter.
        let mut rng = SeedStream::new(8);
        let mut c = PowerSgd::new(3, 11);
        c.compress(&rng.uniform_matrix(12, 10, 1.0));
        let mut restored = PowerSgd::from_bytes(&c.to_bytes()).expect("state roundtrip");
        for _ in 0..4 {
            let g = rng.uniform_matrix(12, 10, 1.0);
            assert_eq!(c.compress(&g), restored.compress(&g));
        }
        // Force both back onto the cold-start path: RNG streams must agree.
        let small = rng.uniform_matrix(2, 2, 1.0);
        assert_eq!(c.compress(&small), restored.compress(&small));
    }

    #[test]
    fn restore_rejects_zero_rank() {
        let mut bytes = PowerSgd::new(1, 0).to_bytes();
        bytes[..8].copy_from_slice(&0u64.to_le_bytes());
        assert!(PowerSgd::from_bytes(&bytes).is_err());
    }
}
