//! Top-k sparsification (Deep Gradient Compression style).

use crate::{Compressed, Compressor};
use opt_tensor::{Matrix, Persist, PersistError, Reader, Writer};

/// Keeps the `k` largest-magnitude elements of each gradient.
///
/// `k` is derived from a target density: `k = ceil(density * len)`, with at
/// least one element kept. The paper's Fig. 3 shows this family performs
/// poorly on point-to-point (inter-stage) traffic — reproduced by the
/// `fig03_motivation` experiment — because each micro-batch's activation
/// gradient has a different support, so the warm-start/error dynamics that
/// help all-reduce compression do not transfer.
///
/// # Example
///
/// ```
/// use opt_compress::{Compressor, TopK};
/// use opt_tensor::Matrix;
///
/// let g = Matrix::from_rows(&[&[0.1, -5.0], &[3.0, 0.2]]);
/// let mut c = TopK::new(0.5);
/// let approx = c.compress(&g).decompress();
/// assert_eq!(approx[(0, 1)], -5.0); // kept
/// assert_eq!(approx[(0, 0)], 0.0);  // dropped
/// ```
#[derive(Debug, Clone)]
pub struct TopK {
    density: f64,
}

impl TopK {
    /// Creates a top-k compressor keeping a `density` fraction of elements.
    ///
    /// # Panics
    ///
    /// Panics unless `0.0 < density <= 1.0`.
    pub fn new(density: f64) -> Self {
        assert!(density > 0.0 && density <= 1.0, "density must be in (0, 1]");
        Self { density }
    }

    /// The configured density.
    pub fn density(&self) -> f64 {
        self.density
    }

    /// Number of elements kept for a gradient with `len` elements.
    pub fn k_for_len(&self, len: usize) -> usize {
        ((self.density * len as f64).ceil() as usize).clamp(1, len.max(1))
    }
}

impl Persist for TopK {
    fn persist(&self, w: &mut Writer) {
        w.f64(self.density);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let density = r.f64()?;
        if !(density > 0.0 && density <= 1.0) {
            return Err(PersistError::Invalid {
                what: "top-k density must be in (0, 1]",
            });
        }
        Ok(Self { density })
    }
}

/// Moves the `k` largest-magnitude positions of `data` to the front of
/// `order` (a permutation of `0..data.len()`, `1 <= k <= len`) and returns
/// them in ascending index order.
///
/// Magnitudes compare under [`f32::total_cmp`] — a total order in which
/// NaN ranks above infinity — and ties break toward the lower index, so
/// the selected set is a function of `data` alone: not of `order`'s
/// initial arrangement, and not of how a partial order happens to treat
/// NaN.
fn select_top_k(data: &[f32], order: &mut [u32], k: usize) -> Vec<u32> {
    order.select_nth_unstable_by(k - 1, |&a, &b| {
        let (va, vb) = (data[a as usize].abs(), data[b as usize].abs());
        vb.total_cmp(&va).then(a.cmp(&b))
    });
    let mut indices = order[..k].to_vec();
    indices.sort_unstable();
    indices
}

impl Compressor for TopK {
    fn compress(&mut self, grad: &Matrix) -> Compressed {
        let len = grad.len();
        let data = grad.as_slice();
        let mut order: Vec<u32> = (0..len as u32).collect();
        let indices = select_top_k(data, &mut order, self.k_for_len(len));
        let values = indices.iter().map(|&i| data[i as usize]).collect();
        Compressed::Sparse {
            rows: grad.rows(),
            cols: grad.cols(),
            indices,
            values,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opt_tensor::SeedStream;

    #[test]
    #[should_panic(expected = "density must be in (0, 1]")]
    fn zero_density_panics() {
        let _ = TopK::new(0.0);
    }

    #[test]
    fn keeps_largest_magnitudes() {
        let g = Matrix::from_rows(&[&[1.0, -10.0, 0.5, 7.0]]);
        let mut c = TopK::new(0.5);
        let out = c.compress(&g).decompress();
        assert_eq!(out.as_slice(), &[0.0, -10.0, 0.0, 7.0]);
    }

    #[test]
    fn density_one_is_lossless() {
        let mut rng = SeedStream::new(2);
        let g = rng.uniform_matrix(6, 6, 3.0);
        let mut c = TopK::new(1.0);
        assert_eq!(c.round_trip(&g), g);
    }

    #[test]
    fn k_at_least_one() {
        let c = TopK::new(0.001);
        assert_eq!(c.k_for_len(10), 1);
    }

    #[test]
    fn wire_bytes_scale_with_density() {
        let mut rng = SeedStream::new(3);
        let g = rng.uniform_matrix(100, 10, 1.0);
        let mut small = TopK::new(0.01);
        let mut large = TopK::new(0.5);
        assert!(small.compress(&g).wire_bytes() < large.compress(&g).wire_bytes());
    }

    #[test]
    fn reconstruction_error_decreases_with_density() {
        let mut rng = SeedStream::new(4);
        let g = rng.uniform_matrix(32, 32, 1.0);
        let mut prev_err = f32::INFINITY;
        for density in [0.05, 0.25, 0.75, 1.0] {
            let mut c = TopK::new(density);
            let err = g.sub(&c.round_trip(&g)).norm();
            assert!(
                err <= prev_err + 1e-6,
                "density {density}: {err} > {prev_err}"
            );
            prev_err = err;
        }
        assert!(prev_err < 1e-6); // density 1.0 exact
    }

    #[test]
    fn indices_are_sorted_and_unique() {
        let mut rng = SeedStream::new(5);
        let g = rng.uniform_matrix(16, 16, 1.0);
        let mut c = TopK::new(0.3);
        let Compressed::Sparse { indices, .. } = c.compress(&g) else {
            panic!("expected a sparse payload");
        };
        for w in indices.windows(2) {
            assert!(w[0] < w[1], "indices not strictly increasing");
        }
    }

    #[test]
    fn selection_with_nan_is_a_function_of_the_data_alone() {
        let mut rng = SeedStream::new(6);
        let mut g = rng.uniform_matrix(8, 8, 1.0);
        g[(0, 3)] = f32::NAN;
        g[(5, 1)] = -f32::NAN;
        // Exact magnitude ties straddling the selection boundary.
        for idx in [7usize, 19, 33, 48, 62] {
            g.as_mut_slice()[idx] = if idx % 2 == 0 { 0.25 } else { -0.25 };
        }
        let mut c = TopK::new(0.25);
        let sparse_indices = |payload: Compressed| match payload {
            Compressed::Sparse { indices, .. } => indices,
            other => panic!("expected a sparse payload, got {other:?}"),
        };
        let indices = sparse_indices(c.compress(&g));
        assert_eq!(sparse_indices(c.compress(&g)), indices);
        assert!(
            indices.contains(&3) && indices.contains(&41),
            "NaN ranks largest"
        );

        // Any initial arrangement of select_nth's input picks the same set.
        let k = c.k_for_len(g.len());
        let mut order: Vec<u32> = (0..g.len() as u32).collect();
        for round in 0..20 {
            for i in (1..order.len()).rev() {
                order.swap(i, rng.below(i + 1));
            }
            assert_eq!(
                select_top_k(g.as_slice(), &mut order, k),
                indices,
                "shuffle {round}"
            );
        }
    }

    #[test]
    fn persist_roundtrip_preserves_density() {
        let c = TopK::new(0.37);
        let back = TopK::from_bytes(&c.to_bytes()).expect("roundtrip");
        assert_eq!(back.density(), 0.37);
        let mut bytes = c.to_bytes();
        bytes[..8].copy_from_slice(&2.0f64.to_bits().to_le_bytes());
        assert!(TopK::from_bytes(&bytes).is_err(), "density > 1 rejected");
    }
}
