//! Element-wise and reduction operations on [`Matrix`].

use crate::matrix::take_storage;
use crate::Matrix;

impl Matrix {
    /// Element-wise sum `self + rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[must_use]
    pub fn add(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, "add", |a, b| a + b)
    }

    /// Element-wise difference `self - rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    #[must_use]
    pub fn sub(&self, rhs: &Matrix) -> Matrix {
        self.zip_with(rhs, "sub", |a, b| a - b)
    }

    /// In-place element-wise `self += rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn add_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "add_assign shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += b;
        }
    }

    /// In-place element-wise `self -= rhs`.
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn sub_assign(&mut self, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "sub_assign shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a -= b;
        }
    }

    /// In-place `self += alpha * rhs` (AXPY).
    ///
    /// # Panics
    ///
    /// Panics if shapes differ.
    pub fn axpy(&mut self, alpha: f32, rhs: &Matrix) {
        assert_eq!(self.shape(), rhs.shape(), "axpy shape mismatch");
        for (a, &b) in self.as_mut_slice().iter_mut().zip(rhs.as_slice()) {
            *a += alpha * b;
        }
    }

    /// Returns `self` scaled by `alpha`.
    #[must_use]
    pub fn scale(&self, alpha: f32) -> Matrix {
        self.map(|x| x * alpha)
    }

    /// In-place scaling by `alpha`.
    pub fn scale_assign(&mut self, alpha: f32) {
        for a in self.as_mut_slice() {
            *a *= alpha;
        }
    }

    /// Applies `f` to every element, returning a new matrix.
    #[must_use]
    pub fn map(&self, f: impl Fn(f32) -> f32) -> Matrix {
        let mut data = take_storage(self.len());
        for (o, &x) in data.iter_mut().zip(self.as_slice()) {
            *o = f(x);
        }
        Matrix::from_vec(self.rows(), self.cols(), data)
    }

    /// Sets every element to zero, keeping the allocation.
    pub fn fill_zero(&mut self) {
        self.as_mut_slice().fill(0.0);
    }

    /// Sum of all elements.
    #[must_use]
    pub fn sum(&self) -> f32 {
        self.as_slice().iter().sum()
    }

    /// Mean of all elements; `0.0` for an empty matrix.
    #[must_use]
    pub fn mean_all(&self) -> f32 {
        if self.is_empty() {
            0.0
        } else {
            self.sum() / self.len() as f32
        }
    }

    /// Dot product treating both matrices as flat vectors.
    ///
    /// # Panics
    ///
    /// Panics if element counts differ.
    #[must_use]
    pub fn dot(&self, rhs: &Matrix) -> f32 {
        assert_eq!(self.len(), rhs.len(), "dot length mismatch");
        self.as_slice()
            .iter()
            .zip(rhs.as_slice())
            .map(|(&a, &b)| a * b)
            .sum()
    }

    /// Squared Frobenius norm.
    #[must_use]
    pub fn norm_sq(&self) -> f32 {
        self.as_slice().iter().map(|&x| x * x).sum()
    }

    /// Frobenius norm.
    #[must_use]
    pub fn norm(&self) -> f32 {
        self.norm_sq().sqrt()
    }

    /// Maximum absolute element value; `0.0` for an empty matrix.
    #[must_use]
    pub fn max_abs(&self) -> f32 {
        self.as_slice().iter().fold(0.0_f32, |m, &x| m.max(x.abs()))
    }

    /// Per-column sums as a `1 x cols` matrix.
    #[must_use]
    pub fn col_sums(&self) -> Matrix {
        let mut out = Matrix::zeros(1, self.cols());
        let sums = out.as_mut_slice();
        for r in 0..self.rows() {
            for (s, &v) in sums.iter_mut().zip(self.row(r)) {
                *s += v;
            }
        }
        out
    }

    /// Adds a `1 x cols` bias row to every row of `self` in place.
    ///
    /// # Panics
    ///
    /// Panics if `bias` is not `1 x self.cols()`.
    pub fn add_row_broadcast_assign(&mut self, bias: &Matrix) {
        assert_eq!(bias.shape(), (1, self.cols()), "bias must be 1 x cols");
        for r in 0..self.rows() {
            for (a, &b) in self.row_mut(r).iter_mut().zip(bias.row(0)) {
                *a += b;
            }
        }
    }

    fn zip_with(&self, rhs: &Matrix, op: &'static str, f: impl Fn(f32, f32) -> f32) -> Matrix {
        assert_eq!(self.shape(), rhs.shape(), "{op} shape mismatch");
        let mut data = take_storage(self.len());
        for ((o, &a), &b) in data.iter_mut().zip(self.as_slice()).zip(rhs.as_slice()) {
            *o = f(a, b);
        }
        Matrix::from_vec(self.rows(), self.cols(), data)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn m(rows: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| (r * cols + c) as f32)
    }

    #[test]
    fn add_sub_inverse() {
        let a = m(3, 3);
        let b = Matrix::full(3, 3, 2.5);
        assert_eq!(a.add(&b).sub(&b), a);
    }

    #[test]
    fn axpy_matches_manual() {
        let mut a = m(2, 2);
        let b = Matrix::full(2, 2, 1.0);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[0.5, 1.5, 2.5, 3.5]);
    }

    #[test]
    fn scale_and_sum() {
        let a = m(2, 3); // 0..5 sums to 15
        assert_eq!(a.sum(), 15.0);
        assert_eq!(a.scale(2.0).sum(), 30.0);
        assert_eq!(a.mean_all(), 2.5);
    }

    #[test]
    fn dot_and_norm() {
        let a = Matrix::from_rows(&[&[3.0, 4.0]]);
        assert_eq!(a.norm(), 5.0);
        assert_eq!(a.dot(&a), 25.0);
    }

    #[test]
    fn col_sums_add_down_each_column() {
        let a = m(2, 3);
        assert_eq!(a.col_sums().as_slice(), &[3.0, 5.0, 7.0]);
    }

    #[test]
    fn col_sums_is_bit_identical_to_the_index_loop() {
        // The `out[(0, c)] += v` loop this crate shipped before the
        // row-slice rewrite: the same top-to-bottom sum per column.
        let old = |a: &Matrix| {
            let mut out = Matrix::zeros(1, a.cols());
            for r in 0..a.rows() {
                for (c, &v) in a.row(r).iter().enumerate() {
                    out[(0, c)] += v;
                }
            }
            out
        };
        let mut rng = crate::SeedStream::new(9);
        for (rows, cols) in [(1, 1), (7, 3), (128, 33)] {
            let a = rng.uniform_matrix(rows, cols, 100.0);
            let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&a.col_sums()), bits(&old(&a)), "{rows}x{cols}");
        }
    }

    #[test]
    fn broadcast_bias() {
        let mut out = Matrix::zeros(3, 2);
        let b = Matrix::from_rows(&[&[1.0, -1.0]]);
        out.add_row_broadcast_assign(&b);
        for r in 0..3 {
            assert_eq!(out.row(r), &[1.0, -1.0]);
        }
    }

    #[test]
    fn max_abs_finds_extreme() {
        let a = Matrix::from_rows(&[&[1.0, -7.0], &[3.0, 2.0]]);
        assert_eq!(a.max_abs(), 7.0);
    }

    #[test]
    fn fill_zero_clears() {
        let mut a = m(2, 2);
        a.fill_zero();
        assert_eq!(a.sum(), 0.0);
    }

    #[test]
    #[should_panic(expected = "add shape mismatch")]
    fn add_shape_mismatch_panics() {
        let _ = Matrix::zeros(1, 2).add(&Matrix::zeros(2, 1));
    }
}
