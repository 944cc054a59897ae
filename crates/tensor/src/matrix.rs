//! The dense row-major `f32` matrix type.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::{Index, IndexMut};
use std::sync::{Mutex, MutexGuard, PoisonError};

/// Byte ceiling of the storage pool: a buffer that would push the pool
/// past it is freed instead.
const POOL_CEILING_BYTES: usize = 32 << 20;

/// Buffers under 64 KiB bypass the pool. The allocator serves them from
/// heap a steady-state step keeps resident, so there is no fault to save
/// (a GPT-mid step takes none with this bound, as with a one-page one),
/// while pooling them costs a shared lock per allocation: with a one-page
/// bound, GPT-small at pp = 2 — two stage threads trading 8–32 KiB
/// activations — ran ~5 % slower per iteration.
const POOL_MIN_LEN: usize = (64 << 10) / size_of::<f32>();

/// Freed `f32` buffers, keyed by exact length.
struct Pool {
    by_len: BTreeMap<usize, Vec<Vec<f32>>>,
    /// Sum of the held buffers' capacities, in bytes.
    bytes: usize,
}

impl Pool {
    const fn new() -> Self {
        Self {
            by_len: BTreeMap::new(),
            bytes: 0,
        }
    }

    /// A held buffer of exactly `len` elements, if there is one. An
    /// emptied length keeps its (empty) list: the lengths a run pools are
    /// its few tensor shapes.
    fn take(&mut self, len: usize) -> Option<Vec<f32>> {
        let buf = self.by_len.get_mut(&len)?.pop()?;
        self.bytes -= buf.capacity() * size_of::<f32>();
        Some(buf)
    }

    /// Keeps `buf`, or hands it back when it is under 64 KiB or would take
    /// the pool past its ceiling.
    fn put(&mut self, buf: Vec<f32>) -> Result<(), Vec<f32>> {
        let bytes = buf.capacity() * size_of::<f32>();
        if buf.len() < POOL_MIN_LEN || self.bytes + bytes > POOL_CEILING_BYTES {
            return Err(buf);
        }
        self.bytes += bytes;
        self.by_len.entry(buf.len()).or_default().push(buf);
        Ok(())
    }
}

/// The one process-wide pool: a buffer freed on one thread is drawn
/// again on another. A TCP reader thread decodes the payloads a compute
/// thread frees, so per-thread pools would each fill to the ceiling.
static POOL: Mutex<Pool> = Mutex::new(Pool::new());

/// Recovers the guard of a poisoned lock: every update is one push or
/// pop plus its byte count, neither of which can panic, so the pool is
/// valid whatever the thread that poisoned it was doing.
fn pool() -> MutexGuard<'static, Pool> {
    POOL.lock().unwrap_or_else(PoisonError::into_inner)
}

/// A freed buffer of exactly `len` elements from the pool, contents
/// unspecified, when there is one. Buffers under 64 KiB never take the
/// lock.
fn take_pooled(len: usize) -> Option<Vec<f32>> {
    if len >= POOL_MIN_LEN {
        pool().take(len)
    } else {
        None
    }
}

/// A buffer of exactly `len` elements with unspecified contents: a freed
/// one from the pool when there is one, else a fresh allocation.
pub(crate) fn take_storage(len: usize) -> Vec<f32> {
    take_pooled(len).unwrap_or_else(|| vec![0.0; len])
}

/// Hands `buf` to the pool; a refused buffer is freed after the lock is
/// released. Buffers under 64 KiB never take the lock.
fn recycle(buf: Vec<f32>) {
    if buf.len() >= POOL_MIN_LEN {
        let _refused = pool().put(buf);
    }
}

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
/// # Storage
///
/// Storage of 64 KiB or more is drawn from one process-wide pool of
/// freed buffers (exact length, 32 MiB ceiling) and goes back to it on
/// drop, so a training step reuses the pages the previous one freed.
/// Reuse never changes a bit: every constructor and kernel overwrites
/// the whole buffer, and [`Matrix::zeros`] / [`Matrix::full`] fill a
/// pooled one. The crate docs list what draws from the pool.
///
/// # Example
///
/// ```
/// use opt_tensor::Matrix;
/// let m = Matrix::from_fn(2, 3, |r, c| (r * 3 + c) as f32);
/// assert_eq!(m[(1, 2)], 5.0);
/// assert_eq!(m.transpose()[(2, 1)], 5.0);
/// ```
#[derive(PartialEq, Default)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

impl Clone for Matrix {
    fn clone(&self) -> Self {
        let mut data = take_storage(self.data.len());
        data.copy_from_slice(&self.data);
        Self {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }
}

impl Drop for Matrix {
    fn drop(&mut self) {
        recycle(std::mem::take(&mut self.data));
    }
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
        Self::full(rows, cols, 0.0)
    }

    /// Creates a matrix filled with `value`.
    pub fn full(rows: usize, cols: usize, value: f32) -> Self {
        // A fresh allocation is written once, by `vec!` (zeros come from
        // a zeroed allocation); only a pooled one needs a fill.
        let data = match take_pooled(rows * cols) {
            Some(mut buf) => {
                buf.fill(value);
                buf
            }
            None => vec![value; rows * cols],
        };
        Self { rows, cols, data }
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
        let mut data = take_storage(rows * cols);
        // `max(1)`: with no columns the buffer is empty and there are no rows to walk.
        for (r, row) in data.chunks_exact_mut(cols.max(1)).enumerate() {
            for (c, x) in row.iter_mut().enumerate() {
                *x = f(r, c);
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
    /// existing allocation whenever it is large enough and swapping in a
    /// pooled buffer (the old one goes back) when it is not. Contents are
    /// unspecified afterwards; every `*_into` kernel overwrites all of
    /// them.
    pub(crate) fn reshape_for_write(&mut self, rows: usize, cols: usize) {
        self.rows = rows;
        self.cols = cols;
        let len = rows * cols;
        if len > self.data.capacity() {
            recycle(std::mem::replace(&mut self.data, take_storage(len)));
        } else {
            self.data.resize(len, 0.0);
        }
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
        let mut out = Matrix::default();
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
        let mut out = Matrix::default();
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
        let mut out = Matrix::default();
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
        let mut a = Matrix::from_fn(4, 3, |r, c| (r * 3 + c) as f32);
        assert_eq!(a.row(2), &[6.0, 7.0, 8.0]);
        a.row_mut(1)[1..].copy_from_slice(&[-1.0, -2.0]);
        assert_eq!(a.as_slice()[3..6], [3.0, -1.0, -2.0]);
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

    /// Leaves a NaN-filled buffer of `len` elements on top of the pool,
    /// returning its address.
    fn poison(len: usize) -> *const f32 {
        Matrix::full(1, len, f32::NAN).as_slice().as_ptr()
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|x| x.to_bits()).collect()
    }

    /// Runs `make` on a freshly poisoned buffer of `want`'s length and
    /// checks it drew that buffer and still produced `want`'s bits.
    fn assert_reuse_exact(what: &str, want: &Matrix, make: impl FnOnce() -> Matrix) {
        let p = poison(want.len());
        let got = make();
        assert_eq!(
            got.as_slice().as_ptr(),
            p,
            "{what}: recycled buffer not drawn"
        );
        assert_eq!(got.shape(), want.shape(), "{what}: shape");
        assert_eq!(
            bits(&got),
            bits(want),
            "{what}: bits differ from fresh storage"
        );
    }

    #[test]
    fn recycled_storage_gives_the_bits_of_fresh_storage() {
        // Lengths 16637 and 16638 are this test's own: no other test in
        // the crate draws buffers of them, so the pool's top is ours.
        let (r, c, k) = (131, 127, 23);
        let n = r * c;
        let mut rng = crate::SeedStream::new(30);
        let a = rng.uniform_matrix(r, c, 1.0);
        let b = rng.uniform_matrix(r, c, 1.0);
        let fresh = |rows, cols, f: &dyn Fn(usize) -> f32| {
            Matrix::from_vec(rows, cols, (0..rows * cols).map(f).collect())
        };
        assert_reuse_exact("zeros", &fresh(r, c, &|_| 0.0), || Matrix::zeros(r, c));
        assert_reuse_exact("full", &fresh(r, c, &|_| -2.5), || Matrix::full(r, c, -2.5));
        assert_reuse_exact("clone", &a, || a.clone());
        let sum = fresh(r, c, &|i| a.as_slice()[i] + b.as_slice()[i]);
        assert_reuse_exact("add", &sum, || a.add(&b));
        let at = fresh(c, r, &|i| a[(i % r, i / r)]);
        assert_reuse_exact("transpose", &at, || a.transpose());
        let bytes = crate::Persist::to_bytes(&a);
        assert_reuse_exact("Reader::f32s", &a, || {
            crate::Persist::from_bytes(&bytes).unwrap()
        });
        assert_eq!(a.len(), n);

        // Every GEMM orientation and route, writing into an output that
        // must grow, so `reshape_for_write` draws the poisoned buffer.
        // The reference writes into fresh storage of the right size.
        type Into = fn(&Matrix, &Matrix, &mut Matrix);
        let cases: [(&str, Matrix, Matrix, Into); 5] = [
            (
                "matmul",
                rng.uniform_matrix(r, k, 1.0),
                rng.uniform_matrix(k, c, 1.0),
                Matrix::matmul_into,
            ),
            (
                "t_matmul",
                rng.uniform_matrix(k, r, 1.0),
                rng.uniform_matrix(k, c, 1.0),
                Matrix::t_matmul_into,
            ),
            (
                "matmul_t",
                rng.uniform_matrix(r, k, 1.0),
                rng.uniform_matrix(c, k, 1.0),
                Matrix::matmul_t_into,
            ),
            // Skinny output rows, and the swapped tall-skinny `A^T B`.
            (
                "matmul skinny",
                rng.uniform_matrix(2, k, 1.0),
                rng.uniform_matrix(k, 8319, 1.0),
                Matrix::matmul_into,
            ),
            (
                "t_matmul swap",
                rng.uniform_matrix(k, 8319, 1.0),
                rng.uniform_matrix(k, 2, 1.0),
                Matrix::t_matmul_into,
            ),
        ];
        for (what, lhs, rhs, into) in &cases {
            let mut want = Matrix::default();
            into(lhs, rhs, &mut want);
            let mut want_fresh = fresh(want.rows(), want.cols(), &|_| 0.0);
            into(lhs, rhs, &mut want_fresh);
            assert_eq!(bits(&want_fresh), bits(&want), "{what}: fresh storage");
            assert_reuse_exact(what, &want, || {
                let mut out = Matrix::zeros(1, 1);
                into(lhs, rhs, &mut out);
                out
            });
        }
    }

    #[test]
    fn pool_holds_no_more_than_its_ceiling() {
        let mut pool = Pool::new();
        let len = (1 << 20) / size_of::<f32>();
        let fits = POOL_CEILING_BYTES >> 20;
        for i in 0..fits + 8 {
            let kept = pool.put(vec![0.0; len]).is_ok();
            assert_eq!(kept, i < fits, "buffer {i}");
            assert!(pool.bytes <= POOL_CEILING_BYTES);
        }
        assert_eq!(pool.bytes, POOL_CEILING_BYTES);
        assert!(pool.take(len).is_some());
        assert_eq!(pool.bytes, POOL_CEILING_BYTES - (1 << 20));
        assert!(pool.put(vec![0.0; len]).is_ok(), "room again after a take");
    }

    #[test]
    fn buffers_under_64_kib_are_not_pooled() {
        let mut pool = Pool::new();
        assert!(pool.put(vec![0.0; 1024]).is_err(), "one page");
        assert!(pool.put(vec![0.0; POOL_MIN_LEN - 1]).is_err());
        assert!(pool.take(POOL_MIN_LEN - 1).is_none());
        assert!(pool.put(vec![0.0; POOL_MIN_LEN]).is_ok());
        assert_eq!(pool.take(POOL_MIN_LEN).map(|b| b.len()), Some(POOL_MIN_LEN));
        assert_eq!(pool.bytes, 0);
    }

    #[test]
    fn pool_matches_exact_length_only() {
        let mut pool = Pool::new();
        let len = POOL_MIN_LEN + 1;
        assert!(pool.put(vec![0.0; len]).is_ok());
        assert!(pool.take(len - 1).is_none());
        assert!(pool.take(len + 1).is_none());
        assert!(pool.take(len).is_some());
    }

    #[test]
    fn a_buffer_freed_on_one_thread_is_drawn_on_another() {
        // 16411 elements: a length no other test in the crate uses.
        let freed = std::thread::spawn(|| Matrix::zeros(1, 16411).as_slice().as_ptr() as usize)
            .join()
            .unwrap();
        let drawn = std::thread::spawn(|| Matrix::zeros(1, 16411).as_slice().as_ptr() as usize)
            .join()
            .unwrap();
        assert_eq!(drawn, freed);
    }

    #[test]
    fn a_poisoned_pool_still_serves() {
        let _ = std::thread::spawn(|| {
            let _held = POOL.lock();
            panic!("poisoning the storage pool on purpose");
        })
        .join();
        assert!(POOL.is_poisoned());
        // 16417 elements: a length no other test in the crate uses.
        let p = poison(16417);
        let z = Matrix::zeros(1, 16417);
        assert_eq!(z.as_slice().as_ptr(), p);
        assert!(z.as_slice().iter().all(|&x| x.to_bits() == 0));
    }
}
