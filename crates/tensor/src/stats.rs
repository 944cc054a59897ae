//! Statistics helpers used by the paper's Fig. 11 instrumentation
//! (error/activation independence analysis) and by compression metrics.

use crate::Matrix;

/// Cosine similarity between two matrices viewed as flat vectors.
///
/// Returns `0.0` if either vector has zero norm — the convention used by
/// the paper's Fig. 11 plots, where an all-zero error simply contributes a
/// zero similarity sample.
///
/// # Panics
///
/// Panics if element counts differ.
///
/// # Example
///
/// ```
/// use opt_tensor::{cosine_similarity, Matrix};
/// let a = Matrix::from_rows(&[&[1.0, 0.0]]);
/// let b = Matrix::from_rows(&[&[0.0, 1.0]]);
/// assert_eq!(cosine_similarity(&a, &b), 0.0);
/// assert_eq!(cosine_similarity(&a, &a), 1.0);
/// ```
pub fn cosine_similarity(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(a.len(), b.len(), "cosine_similarity length mismatch");
    let na = a.norm();
    let nb = b.norm();
    if na == 0.0 || nb == 0.0 {
        return 0.0;
    }
    a.dot(b) / (na * nb)
}

/// Relative reconstruction error `||a - b|| / ||a||`.
///
/// Returns `0.0` when `a` is exactly zero and `b` is too; returns
/// `f32::INFINITY` when `a` is zero but `b` is not.
///
/// # Panics
///
/// Panics if shapes differ.
pub fn relative_error(a: &Matrix, b: &Matrix) -> f32 {
    assert_eq!(a.shape(), b.shape(), "relative_error shape mismatch");
    let diff = a.sub(b).norm();
    let base = a.norm();
    if base == 0.0 {
        if diff == 0.0 {
            0.0
        } else {
            f32::INFINITY
        }
    } else {
        diff / base
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cosine_of_parallel_vectors_is_one() {
        let a = Matrix::from_rows(&[&[2.0, 4.0, 6.0]]);
        let b = a.scale(0.5);
        assert!((cosine_similarity(&a, &b) - 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_of_antiparallel_is_minus_one() {
        let a = Matrix::from_rows(&[&[1.0, -2.0]]);
        let b = a.scale(-3.0);
        assert!((cosine_similarity(&a, &b) + 1.0).abs() < 1e-6);
    }

    #[test]
    fn cosine_zero_norm_is_zero() {
        let a = Matrix::zeros(2, 2);
        let b = Matrix::full(2, 2, 1.0);
        assert_eq!(cosine_similarity(&a, &b), 0.0);
    }

    #[test]
    fn relative_error_identical_is_zero() {
        let a = Matrix::from_fn(3, 3, |r, c| (r + c) as f32);
        assert_eq!(relative_error(&a, &a), 0.0);
    }

    #[test]
    fn relative_error_scales() {
        let a = Matrix::full(1, 4, 2.0);
        let b = Matrix::full(1, 4, 1.0);
        assert!((relative_error(&a, &b) - 0.5).abs() < 1e-6);
    }

    #[test]
    fn relative_error_zero_base() {
        let z = Matrix::zeros(1, 2);
        assert_eq!(relative_error(&z, &z), 0.0);
        assert_eq!(relative_error(&z, &Matrix::full(1, 2, 1.0)), f32::INFINITY);
    }
}
