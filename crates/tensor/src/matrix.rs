//! The dense row-major `f32` matrix type.

use std::fmt;
use std::ops::{Index, IndexMut};

/// Error returned when two matrices have incompatible shapes for an
/// operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShapeError {
    /// Shape of the left-hand operand.
    pub lhs: (usize, usize),
    /// Shape of the right-hand operand.
    pub rhs: (usize, usize),
    /// Name of the operation that failed.
    pub op: &'static str,
}

impl fmt::Display for ShapeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "shape mismatch in {}: {}x{} vs {}x{}",
            self.op, self.lhs.0, self.lhs.1, self.rhs.0, self.rhs.1
        )
    }
}

impl std::error::Error for ShapeError {}

/// A dense, row-major matrix of `f32` values.
///
/// `Matrix` is the only tensor type in the reproduction; vectors are
/// represented as `n x 1` or `1 x n` matrices, and batched activations as
/// `(batch * seq) x hidden` matrices, mirroring how Megatron-LM folds batch
/// and sequence dimensions before its GEMMs.
///
/// # Example
///
/// ```
/// use opt_tensor::Matrix;
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.transpose()[(2, 1)], 5.0);
/// ```
#[derive(Clone, PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Matrix({}x{})", self.rows, self.cols)?;
        if self.rows * self.cols <= 16 {
            write!(f, " {:?}", self.data)?;
        }
        Ok(())
    }
}

impl Matrix {
    /// Creates a matrix of zeros.
    ///
    /// ```
    /// # use opt_tensor::Matrix;
    /// let z = Matrix::zeros(2, 3);
    /// assert_eq!(z.sum(), 0.0);
    /// ```
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        Self {
            rows,
            cols,
            data: vec![value; rows * cols],
        }
    }

    /// Creates the `n x n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Self::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Creates a matrix by evaluating `f(row, col)` for every element.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f32) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            for c in 0..cols {
                data.push(f(r, c));
            }
        }
        Self { rows, cols, data }
    }

    /// Creates a matrix from row slices.
    ///
    /// # Panics
    ///
    /// Panics if the rows have differing lengths.
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let nrows = rows.len();
        let ncols = rows.first().map_or(0, |r| r.len());
        let mut data = Vec::with_capacity(nrows * ncols);
        for row in rows {
            assert_eq!(row.len(), ncols, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Self {
            rows: nrows,
            cols: ncols,
            data,
        }
    }

    /// Creates a matrix from a flat row-major vector.
    ///
    /// # Panics
    ///
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "data length must equal rows*cols");
        Self { rows, cols, data }
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)` pair.
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// Total number of elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the matrix has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Immutable view of the underlying row-major storage.
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable view of the underlying row-major storage.
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row(&self, r: usize) -> &[f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Mutable borrow of row `r` as a slice.
    ///
    /// # Panics
    ///
    /// Panics if `r >= self.rows()`.
    pub fn row_mut(&mut self, r: usize) -> &mut [f32] {
        assert!(r < self.rows, "row {r} out of bounds ({} rows)", self.rows);
        &mut self.data[r * self.cols..(r + 1) * self.cols]
    }

    /// Copies the sub-block of rows `[r0, r1)` x columns `[c0, c1)` into
    /// `out` (reshaped as needed, buffer reused) — the no-allocation
    /// workhorse behind per-head attention slicing.
    ///
    /// # Panics
    ///
    /// Panics if either range is out of bounds or reversed.
    pub fn slice_block_into(&self, r0: usize, r1: usize, c0: usize, c1: usize, out: &mut Matrix) {
        assert!(r0 <= r1 && r1 <= self.rows, "row slice out of bounds");
        assert!(c0 <= c1 && c1 <= self.cols, "column slice out of bounds");
        out.reshape_for_write(r1 - r0, c1 - c0);
        for r in r0..r1 {
            let src = &self.data[r * self.cols + c0..r * self.cols + c1];
            out.row_mut(r - r0).copy_from_slice(src);
        }
    }

    /// Index of the maximum element in each row (the last one on ties),
    /// under [`f32::total_cmp`]: a NaN ranks above every number, so the
    /// answer is defined for every input.
    #[must_use]
    pub fn argmax_rows(&self) -> Vec<usize> {
        (0..self.rows)
            .map(|r| {
                let row = self.row(r);
                row.iter()
                    .enumerate()
                    .max_by(|a, b| a.1.total_cmp(b.1))
                    .map_or(0, |(i, _)| i)
            })
            .collect()
    }

    /// Returns the transpose (cache-blocked 32x32 tile walk).
    #[must_use]
    pub fn transpose(&self) -> Matrix {
        let mut out = Matrix::zeros(self.cols, self.rows);
        crate::gemm::transpose_into(&self.data, self.rows, self.cols, &mut out.data);
        out
    }

    /// Reshapes `self` to `rows x cols` for a full overwrite, reusing the
    /// existing allocation whenever it is large enough. Contents are
    /// unspecified afterwards; every `*_into` kernel overwrites all of
    /// them.
    pub(crate) fn reshape_for_write(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        self.data.resize(rows * cols, 0.0);
    }

    /// Matrix product `self * rhs`.
    ///
    /// Runs the cache-blocked, register-tiled kernel (the `gemm` module)
    /// on the dispatched micro-kernel arch ([`crate::kernel_arch`]); large
    /// products are fanned out over the deterministic worker pool. The
    /// fused-multiply-add chain contract makes results bit-identical
    /// across every arch path and thread count for finite inputs (an
    /// unfused `acc += a * b` loop agrees to rounding only).
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    #[must_use]
    pub fn matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.cols);
        self.matmul_into(rhs, &mut out);
        out
    }

    /// No-allocation variant of [`Matrix::matmul`]: reshapes `out` to
    /// `self.rows() x rhs.cols()` (reusing its buffer) and fully
    /// overwrites it.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.rows()`.
    pub fn matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.rows,
            "matmul shape mismatch: {}x{} * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reshape_for_write(self.rows, rhs.cols);
        crate::gemm::gemm_into(
            crate::gemm::Src::Normal(&self.data),
            crate::gemm::Src::Normal(&rhs.data),
            self.rows,
            rhs.cols,
            self.cols,
            &mut out.data,
        );
    }

    /// Matrix product `self^T * rhs` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    #[must_use]
    pub fn t_matmul(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.cols, rhs.cols);
        self.t_matmul_into(rhs, &mut out);
        out
    }

    /// No-allocation variant of [`Matrix::t_matmul`]: reshapes `out` to
    /// `self.cols() x rhs.cols()` (reusing its buffer) and fully
    /// overwrites it.
    ///
    /// # Panics
    ///
    /// Panics if `self.rows() != rhs.rows()`.
    pub fn t_matmul_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.rows, rhs.rows,
            "t_matmul shape mismatch: ({}x{})^T * {}x{}",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reshape_for_write(self.cols, rhs.cols);
        crate::gemm::gemm_into(
            crate::gemm::Src::Transposed(&self.data),
            crate::gemm::Src::Normal(&rhs.data),
            self.cols,
            rhs.cols,
            self.rows,
            &mut out.data,
        );
    }

    /// Matrix product `self * rhs^T` without materializing the transpose.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    #[must_use]
    pub fn matmul_t(&self, rhs: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, rhs.rows);
        self.matmul_t_into(rhs, &mut out);
        out
    }

    /// No-allocation variant of [`Matrix::matmul_t`]: reshapes `out` to
    /// `self.rows() x rhs.rows()` (reusing its buffer) and fully
    /// overwrites it.
    ///
    /// # Panics
    ///
    /// Panics if `self.cols() != rhs.cols()`.
    pub fn matmul_t_into(&self, rhs: &Matrix, out: &mut Matrix) {
        assert_eq!(
            self.cols, rhs.cols,
            "matmul_t shape mismatch: {}x{} * ({}x{})^T",
            self.rows, self.cols, rhs.rows, rhs.cols
        );
        out.reshape_for_write(self.rows, rhs.rows);
        crate::gemm::gemm_into(
            crate::gemm::Src::Normal(&self.data),
            crate::gemm::Src::Transposed(&rhs.data),
            self.rows,
            rhs.rows,
            self.cols,
            &mut out.data,
        );
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f32;

    fn index(&self, (r, c): (usize, usize)) -> &f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &self.data[r * self.cols + c]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    fn index_mut(&mut self, (r, c): (usize, usize)) -> &mut f32 {
        assert!(
            r < self.rows && c < self.cols,
            "index ({r},{c}) out of bounds"
        );
        &mut self.data[r * self.cols + c]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zeros_and_full() {
        let z = Matrix::zeros(3, 4);
        assert_eq!(z.shape(), (3, 4));
        assert!(z.as_slice().iter().all(|&x| x == 0.0));
        let f = Matrix::full(2, 2, 7.5);
        assert!(f.as_slice().iter().all(|&x| x == 7.5));
    }

    #[test]
    fn identity_matmul_is_noop() {
        let a = Matrix::from_fn(3, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(a.matmul(&Matrix::identity(3)), a);
        assert_eq!(Matrix::identity(3).matmul(&a), a);
    }

    #[test]
    fn matmul_known_values() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c, Matrix::from_rows(&[&[19.0, 22.0], &[43.0, 50.0]]));
    }

    #[test]
    fn matmul_rectangular() {
        let a = Matrix::from_fn(2, 3, |r, c| (r + c) as f32);
        let b = Matrix::from_fn(3, 4, |r, c| (r * c) as f32);
        let c = a.matmul(&b);
        assert_eq!(c.shape(), (2, 4));
        // c[0][1] = sum_k a[0][k] * b[k][1] = 0*0 + 1*1 + 2*2 = 5
        assert_eq!(c[(0, 1)], 5.0);
    }

    #[test]
    fn transpose_involution() {
        let a = Matrix::from_fn(3, 5, |r, c| (r * 31 + c * 7) as f32);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Matrix::from_fn(4, 3, |r, c| (r as f32 - c as f32) * 0.5);
        let b = Matrix::from_fn(4, 2, |r, c| (r + 2 * c) as f32);
        assert_eq!(a.t_matmul(&b), a.transpose().matmul(&b));
    }

    #[test]
    fn matmul_t_matches_explicit_transpose() {
        let a = Matrix::from_fn(2, 5, |r, c| (r * c) as f32 + 1.0);
        let b = Matrix::from_fn(3, 5, |r, c| (r + c) as f32);
        assert_eq!(a.matmul_t(&b), a.matmul(&b.transpose()));
    }

    #[test]
    fn row_access_and_slicing() {
        let a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(a.row(2), &[6.0, 7.0, 8.0]);
        // The block buffer is reshaped to fit, whatever it held before.
        let mut s = Matrix::zeros(5, 5);
        a.slice_block_into(1, 3, 1, 3, &mut s);
        assert_eq!(s.shape(), (2, 2));
        assert_eq!(s.row(0), &[4.0, 5.0]);
        assert_eq!(s.row(1), &[7.0, 8.0]);
    }

    #[test]
    fn argmax_rows_finds_peaks() {
        let a = Matrix::from_rows(&[&[0.1, 0.9, 0.5], &[2.0, -1.0, 0.0]]);
        assert_eq!(a.argmax_rows(), vec![1, 0]);
    }

    #[test]
    fn argmax_rows_is_total_under_nan() {
        // partial_cmp-with-Equal made the answer depend on where the NaN
        // sat relative to the peak; total_cmp ranks it above everything.
        let a = Matrix::from_rows(&[
            &[f32::NAN, 3.0, 1.0],
            &[3.0, f32::NAN, 1.0],
            &[3.0, 1.0, f32::NAN],
        ]);
        assert_eq!(a.argmax_rows(), vec![0, 1, 2]);
    }

    #[test]
    #[should_panic(expected = "matmul shape mismatch")]
    fn matmul_shape_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(2, 3);
        let _ = a.matmul(&b);
    }

    #[test]
    fn index_mut_roundtrip() {
        let mut m = Matrix::zeros(2, 2);
        m[(1, 0)] = 9.0;
        assert_eq!(m[(1, 0)], 9.0);
        assert_eq!(m.as_slice(), &[0.0, 0.0, 9.0, 0.0]);
    }
}
