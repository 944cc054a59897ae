//! CSR sparse matrices and the sparse fast path for compressor payloads.
//!
//! Top-k and ternary compression produce payloads that are mostly zeros;
//! decoding them to a dense [`Matrix`] just to subtract or multiply pays
//! `rows * cols` of memory traffic for `nnz` of information. This module
//! gives those payloads a compressed-sparse-row representation with two
//! kernels:
//!
//! * [`SparseMatrix::sub_from`] — sparse AXPY-style subtract, the
//!   error-feedback residual update (`residual = corrected - decode(payload)`
//!   touches only the `nnz` selected entries).
//! * [`SparseMatrix::spmm`] — sparse × dense product, accumulating
//!   `out[r, :] += a[r, c] * b[c, :]` per stored entry.
//!
//! # Bit-exactness
//!
//! Both kernels follow the crate's fused-multiply-add contract (see
//! `simd.rs`) and dispatch on [`crate::kernel_arch`], so every arch path
//! produces identical bits. Against the *densify-then-dense* reference the
//! story is:
//!
//! * `sub_from` is unconditionally bit-identical: the skipped entries
//!   subtract an exact `+0.0`, and IEEE-754 guarantees `x - (+0.0) == x`
//!   bitwise for every `x` (including `-0.0` and NaN payload bits).
//! * `spmm` skips `fma(0.0, b, acc)` terms the dense kernel performs.
//!   Those are bit-identity except for one theoretical corner: an
//!   accumulator holding `-0.0` (only reachable when a product of two
//!   nonzero values underflows to `-0.0`, i.e. magnitudes around 1e-23)
//!   would be canonicalized to `+0.0` by the dense zero term. Gradient
//!   values are many orders of magnitude above the underflow threshold,
//!   and the proptest suite pins bit-identity on realistic magnitudes.
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
use crate::persist::{Persist, PersistError, Reader, Writer};
use crate::simd;
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

    /// Builds a CSR matrix from a ternary payload: `trits[i] ∈ {-1, 0, 1}`
    /// in row-major order, each nonzero trit contributing
    /// `(trit as f32) * scale` — the exact value the dense decoder writes.
    ///
    /// # Panics
    ///
    /// Panics if `trits.len() != rows * cols`.
    pub fn from_ternary(rows: usize, cols: usize, trits: &[i8], scale: f32) -> Self {
        assert_eq!(trits.len(), rows * cols, "trit count must equal rows*cols");
        let mut row_ptr = vec![0u32; rows + 1];
        let mut col_idx = Vec::new();
        let mut values = Vec::new();
        for (flat, &t) in trits.iter().enumerate() {
            if t != 0 {
                row_ptr[flat / cols.max(1) + 1] += 1;
                col_idx.push((flat % cols.max(1)) as u32);
                values.push(f32::from(t) * scale);
            }
        }
        for r in 0..rows {
            row_ptr[r + 1] += row_ptr[r];
        }
        SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
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

    /// Stored entries as a fraction of the dense element count (`1.0` for
    /// an empty-shape matrix, which is as dense as it gets).
    pub fn density(&self) -> f32 {
        let total = self.rows * self.cols;
        if total == 0 {
            1.0
        } else {
            self.nnz() as f32 / total as f32
        }
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

    /// Sparse × dense product into a zeroed output:
    /// `out[r, :] += a[r, c] * b[c, :]` per stored entry, each row panel
    /// accumulated with the crate's FMA chains (the dispatch module's
    /// `fma_axpy`), ascending column order — the same per-element chains
    /// as the dense GEMM over the stored entries.
    ///
    /// # Panics
    ///
    /// Panics if `b.rows() != self.cols()` or `out`'s shape is not
    /// `(self.rows(), b.cols())`.
    pub fn spmm_into(&self, b: &Matrix, out: &mut Matrix) {
        assert_eq!(b.rows(), self.cols, "inner dimension mismatch");
        assert_eq!(out.shape(), (self.rows, b.cols()), "output shape mismatch");
        let arch = dispatch::kernel_arch();
        dispatch::note_sparse_kernel(arch);
        let n = b.cols();
        let bdata = b.as_slice();
        let odata = out.as_mut_slice();
        odata.fill(0.0);
        for r in 0..self.rows {
            let (s, e) = (self.row_ptr[r] as usize, self.row_ptr[r + 1] as usize);
            let orow = &mut odata[r * n..(r + 1) * n];
            for (&c, &v) in self.col_idx[s..e].iter().zip(&self.values[s..e]) {
                let brow = &bdata[c as usize * n..(c as usize + 1) * n];
                simd::fma_axpy(arch, orow, v, brow);
            }
        }
    }

    /// Allocating wrapper around [`SparseMatrix::spmm_into`].
    pub fn spmm(&self, b: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, b.cols());
        self.spmm_into(b, &mut out);
        out
    }
}

impl Persist for SparseMatrix {
    fn persist(&self, w: &mut Writer) {
        w.usize(self.rows);
        w.usize(self.cols);
        self.row_ptr.persist(w);
        self.col_idx.persist(w);
        self.values.persist(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let rows = r.usize()?;
        let cols = r.usize()?;
        let row_ptr = Vec::<u32>::restore(r)?;
        let col_idx = Vec::<u32>::restore(r)?;
        let values = Vec::<f32>::restore(r)?;
        if row_ptr.len() != rows + 1 || row_ptr.first() != Some(&0) {
            return Err(PersistError::Invalid {
                what: "sparse row_ptr length",
            });
        }
        if row_ptr.windows(2).any(|w| w[1] < w[0]) {
            return Err(PersistError::Invalid {
                what: "sparse row_ptr not monotone",
            });
        }
        if *row_ptr.last().unwrap() as usize != values.len() || col_idx.len() != values.len() {
            return Err(PersistError::Invalid {
                what: "sparse nnz mismatch",
            });
        }
        if col_idx.iter().any(|&c| c as usize >= cols) {
            return Err(PersistError::Invalid {
                what: "sparse column index out of range",
            });
        }
        Ok(SparseMatrix {
            rows,
            cols,
            row_ptr,
            col_idx,
            values,
        })
    }

    fn persist_len(&self) -> usize {
        8 + 8
            + (8 + 4 * self.row_ptr.len())
            + (8 + 4 * self.col_idx.len())
            + (8 + 4 * self.values.len())
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
    fn ternary_payload_matches_dense_decode() {
        let trits: Vec<i8> = vec![0, 1, -1, 0, 0, 1, 0, -1];
        let s = SparseMatrix::from_ternary(2, 4, &trits, 0.75);
        let d = s.densify();
        for (i, &t) in trits.iter().enumerate() {
            let expect = f32::from(t) * 0.75;
            assert_eq!(d.as_slice()[i].to_bits(), expect.to_bits());
        }
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
    fn spmm_matches_dense_matmul_on_every_arch() {
        let mut rng = SeedStream::new(12);
        let s = sample();
        let b = rng.uniform_matrix(4, 6, 1.0);
        let reference = s.densify().matmul(&b);
        for arch in dispatch::available_arches() {
            dispatch::set_kernel_arch(arch);
            let got = s.spmm(&b);
            for (a, r) in got.as_slice().iter().zip(reference.as_slice()) {
                assert_eq!(a.to_bits(), r.to_bits(), "arch {}", arch.name());
            }
        }
        dispatch::set_kernel_arch(dispatch::detected_arch());
    }

    #[test]
    fn persist_roundtrip_and_len() {
        let s = sample();
        let bytes = s.to_bytes();
        assert_eq!(bytes.len(), s.persist_len());
        assert_eq!(SparseMatrix::from_bytes(&bytes).unwrap(), s);
    }

    #[test]
    fn corrupt_csr_is_rejected() {
        let s = sample();
        // Break the last row_ptr entry (bytes 16+8.. hold row_ptr data).
        let mut w = Writer::new();
        w.usize(3);
        w.usize(4);
        vec![0u32, 2, 2, 9].persist(&mut w); // last != nnz
        vec![1u32, 3, 0].persist(&mut w);
        s.values.persist(&mut w);
        assert!(matches!(
            SparseMatrix::from_bytes(&w.into_bytes()),
            Err(PersistError::Invalid { .. })
        ));
        // Column index out of range.
        let mut w = Writer::new();
        w.usize(3);
        w.usize(4);
        vec![0u32, 2, 2, 3].persist(&mut w);
        vec![1u32, 7, 0].persist(&mut w);
        s.values.persist(&mut w);
        assert!(matches!(
            SparseMatrix::from_bytes(&w.into_bytes()),
            Err(PersistError::Invalid { .. })
        ));
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
