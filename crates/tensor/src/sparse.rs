//! CSR sparse matrices and the sparse fast path for top-k payloads.
//!
//! Top-k compression produces payloads that are mostly zeros; decoding
//! them to a dense [`Matrix`] just to subtract pays `rows * cols` of
//! memory traffic for `nnz` of information. This module gives those
//! payloads a compressed-sparse-row representation with one kernel,
//! [`SparseMatrix::sub_from`]: the sparse subtract behind the lazy-error
//! residual update (`residual = corrected - decode(payload)` touches only
//! the `nnz` selected entries).
//!
//! # Bit-exactness
//!
//! `sub_from` is unconditionally bit-identical to the *densify-then-dense*
//! reference: the skipped entries subtract an exact `+0.0`, and IEEE-754
//! guarantees `x - (+0.0) == x` bitwise for every `x` (including `-0.0`
//! and NaN payload bits).
//!
//! # The crossover knob
//!
//! Sparse apply wins while the payload is sparse enough; near full density
//! the CSR indirection loses to straight dense loops. The crossover is a
//! process-wide density threshold, [`DEFAULT_DENSITY_MAX`] (profiled by
//! the `topk_apply` group of `cargo bench -p opt-bench --bench
//! compression`; that sweep and tests move it with
//! [`set_sparse_density_max`]). Payload apply sites in
//! `opt-compress` compare the observed `nnz / (rows * cols)` against it and
//! fall back to densify-then-dense above it.

use crate::dispatch;
use crate::Matrix;
use std::sync::atomic::{AtomicU32, Ordering};

/// Default sparse-apply crossover density (see module docs): payloads at
/// or below this density take the CSR kernels, denser payloads densify.
/// The `topk_apply` group of `cargo bench -p opt-bench --bench compression`
/// forces both paths at four densities and puts the apply crossover
/// between 1% and 10% payload density, so 5% is the conservative cut.
pub const DEFAULT_DENSITY_MAX: f32 = 0.05;

/// The crossover in effect, as `f32` bits.
static DENSITY_MAX: AtomicU32 = AtomicU32::new(DEFAULT_DENSITY_MAX.to_bits());

/// The sparse-apply crossover density: [`DEFAULT_DENSITY_MAX`] unless
/// [`set_sparse_density_max`] changed it. `0.0` disables the sparse path
/// entirely; `1.0` always takes it.
pub fn sparse_density_max() -> f32 {
    f32::from_bits(DENSITY_MAX.load(Ordering::Relaxed))
}

/// Overrides the sparse-apply crossover density at runtime (benchmark
/// sweeps, tests). Clamped to `[0.0, 1.0]`. Because the sparse and dense
/// apply paths are bit-identical on compressor payloads, this only ever
/// changes speed.
pub fn set_sparse_density_max(density: f32) {
    let v = if density.is_finite() {
        density.clamp(0.0, 1.0)
    } else {
        DEFAULT_DENSITY_MAX
    };
    DENSITY_MAX.store(v.to_bits(), Ordering::Relaxed);
}

/// A compressed-sparse-row `f32` matrix.
///
/// Row `r`'s stored entries are `col_idx[row_ptr[r]..row_ptr[r+1]]` (column
/// indices, strictly ascending within a row) paired with the same range of
/// `values`. Indices are `u32` — payload coordinates already ship as `u32`
/// on the wire, and 4-byte indices halve the index traffic of the kernels.
#[derive(Debug, Clone, PartialEq)]
pub struct SparseMatrix {
    rows: usize,
    cols: usize,
    row_ptr: Vec<u32>,
    col_idx: Vec<u32>,
    values: Vec<f32>,
}

impl SparseMatrix {
    /// Builds a CSR matrix from a top-k style flat payload: `indices[i]`
    /// is the row-major flat position (`r * cols + c`) of `values[i]`,
    /// strictly ascending.
    ///
    /// # Panics
    ///
    /// Panics if the slices' lengths differ, an index is out of range, or
    /// the indices are not strictly ascending (the top-k encoder's wire
    /// invariants).
    pub fn from_flat_payload(rows: usize, cols: usize, indices: &[u32], values: &[f32]) -> Self {
        assert_eq!(indices.len(), values.len(), "index/value length mismatch");
        let total = rows * cols;
        let mut row_ptr = vec![0u32; rows + 1];
        let mut col_idx = Vec::with_capacity(indices.len());
        let mut prev: Option<u32> = None;
        for &flat in indices {
            assert!((flat as usize) < total, "flat index {flat} out of range");
            assert!(
                prev.is_none_or(|p| flat > p),
                "flat indices must be strictly ascending"
            );
            prev = Some(flat);
            let r = flat as usize / cols.max(1);
            row_ptr[r + 1] += 1;
            col_idx.push(flat % cols.max(1) as u32);
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values: values.to_vec(),
        }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Number of stored entries.
    pub fn nnz(&self) -> usize {
        self.values.len()
    }

    /// Expands to a dense [`Matrix`] (the reference the sparse kernels are
    /// tested against; also the fallback when a payload is too dense).
    pub fn densify(&self) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols);
        let data = out.as_mut_slice();
        for r in 0..self.rows {
            let (s, e) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            for (&c, &v) in self.col_idx[s..e].iter().zip(&self.values[s..e]) {
                data[r * self.cols + c as usize] = v;
            }
        }
        out
    }

    /// Sparse AXPY-style subtract: `target[r, c] -= value` for every
    /// stored entry. Bit-identical to densifying and subtracting the dense
    /// matrix (`x - (+0.0) == x` bitwise), touching only `nnz` entries.
    ///
    /// # Panics
    ///
    /// Panics if `target`'s shape differs.
    pub fn sub_from(&self, target: &mut Matrix) {
        assert_eq!(target.shape(), (self.rows, self.cols), "shape mismatch");
        dispatch::note_sparse_kernel(dispatch::kernel_arch());
        let data = target.as_mut_slice();
        for r in 0..self.rows {
            let (s, e) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let base = r * self.cols;
            for (&c, &v) in self.col_idx[s..e].iter().zip(&self.values[s..e]) {
                data[base + c as usize] -= v;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::SeedStream;

    fn sample() -> SparseMatrix {
        // 3x4 with entries (0,1)=1.5, (0,3)=-2.0, (2,0)=0.25
        SparseMatrix::from_flat_payload(3, 4, &[1, 3, 8], &[1.5, -2.0, 0.25])
    }

    #[test]
    fn flat_payload_builds_expected_csr() {
        let s = sample();
        assert_eq!((s.rows(), s.cols(), s.nnz()), (3, 4, 3));
        assert_eq!(s.row_ptr, vec![0, 2, 2, 3]);
        assert_eq!(s.col_idx, vec![1, 3, 0]);
        let d = s.densify();
        assert_eq!(d[(0, 1)], 1.5);
        assert_eq!(d[(0, 3)], -2.0);
        assert_eq!(d[(2, 0)], 0.25);
        assert_eq!(d.as_slice().iter().filter(|&&x| x != 0.0).count(), 3);
    }

    #[test]
    fn sub_from_is_bit_identical_to_dense_subtract() {
        let s = sample();
        let mut rng = SeedStream::new(11);
        let base = rng.uniform_matrix(3, 4, 1.0);
        let mut sparse_path = base.clone();
        s.sub_from(&mut sparse_path);
        let dense = s.densify();
        let mut dense_path = base;
        for (x, &d) in dense_path.as_mut_slice().iter_mut().zip(dense.as_slice()) {
            *x -= d;
        }
        for (a, b) in sparse_path.as_slice().iter().zip(dense_path.as_slice()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn density_knob_round_trips() {
        let orig = sparse_density_max();
        set_sparse_density_max(0.125);
        assert_eq!(sparse_density_max(), 0.125);
        set_sparse_density_max(7.0); // clamped
        assert_eq!(sparse_density_max(), 1.0);
        set_sparse_density_max(orig);
    }
}
