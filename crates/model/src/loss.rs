//! Softmax cross-entropy loss for language modelling.

use opt_tensor::Matrix;

/// `probs = softmax(scores)` with max-subtraction for numerical stability;
/// the one softmax both the loss and causal attention run. The exponential
/// is `opt-tensor`'s dispatched kernel; the max, the left-to-right sum and
/// the divisions are IEEE-exact, so the result is the same bits on every
/// host.
pub(crate) fn softmax_into(scores: &[f32], probs: &mut [f32]) {
    let max = scores.iter().fold(f32::NEG_INFINITY, |m, &v| m.max(v));
    for (p, &s) in probs.iter_mut().zip(scores) {
        *p = s - max;
    }
    opt_tensor::exp(probs);
    let mut denom = 0.0;
    for &e in probs.iter() {
        denom += e;
    }
    for p in probs {
        *p /= denom;
    }
}

/// Row-wise softmax with max-subtraction for numerical stability.
///
/// # Example
///
/// ```
/// use opt_model::softmax_rows;
/// use opt_tensor::Matrix;
/// let p = softmax_rows(&Matrix::from_rows(&[&[0.0, 0.0]]));
/// assert!((p[(0, 0)] - 0.5).abs() < 1e-6);
/// ```
pub fn softmax_rows(logits: &Matrix) -> Matrix {
    let (rows, cols) = logits.shape();
    let mut out = Matrix::zeros(rows, cols);
    for r in 0..rows {
        softmax_into(logits.row(r), out.row_mut(r));
    }
    out
}

/// Result of a cross-entropy evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct LossOutput {
    /// Mean negative log-likelihood over all rows.
    pub loss: f32,
    /// Gradient of the mean loss with respect to the logits.
    pub grad_logits: Matrix,
    /// Number of rows whose argmax equals the target (top-1 hits).
    pub correct: usize,
}

impl LossOutput {
    /// Perplexity `exp(loss)` — the paper's validation metric.
    // A reported scalar, once per evaluation: never fed back into training.
    #[allow(clippy::disallowed_methods)]
    pub fn perplexity(&self) -> f32 {
        self.loss.exp()
    }
}

/// Softmax cross-entropy between `logits` (`n x vocab`) and integer
/// `targets` (`n`), averaged over rows.
///
/// # Panics
///
/// Panics if `targets.len() != logits.rows()` or a target is out of range.
///
/// # Example
///
/// ```
/// use opt_model::cross_entropy;
/// use opt_tensor::Matrix;
/// let logits = Matrix::from_rows(&[&[10.0, -10.0]]);
/// let out = cross_entropy(&logits, &[0]);
/// assert!(out.loss < 1e-3);
/// assert_eq!(out.correct, 1);
/// ```
pub fn cross_entropy(logits: &Matrix, targets: &[usize]) -> LossOutput {
    assert_eq!(targets.len(), logits.rows(), "targets/logits row mismatch");
    let probs = softmax_rows(logits);
    let n = targets.len();
    let mut loss = 0.0;
    let mut correct = 0;
    let mut grad = probs.clone();
    let preds = probs.argmax_rows();
    for (r, &t) in targets.iter().enumerate() {
        assert!(t < logits.cols(), "target {t} out of vocab range");
        loss -= probs[(r, t)].max(1e-12).ln();
        grad[(r, t)] -= 1.0;
        if preds[r] == t {
            correct += 1;
        }
    }
    grad.scale_assign(1.0 / n as f32);
    LossOutput {
        loss: loss / n as f32,
        grad_logits: grad,
        correct,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opt_tensor::SeedStream;

    #[test]
    fn softmax_rows_sum_to_one() {
        let mut rng = SeedStream::new(1);
        let logits = rng.uniform_matrix(5, 7, 3.0);
        let p = softmax_rows(&logits);
        for r in 0..5 {
            let s: f32 = p.row(r).iter().sum();
            assert!((s - 1.0).abs() < 1e-5);
        }
    }

    #[test]
    fn softmax_is_shift_invariant() {
        let a = Matrix::from_rows(&[&[1.0, 2.0, 3.0]]);
        let b = a.map(|x| x + 100.0);
        assert!(softmax_rows(&a).sub(&softmax_rows(&b)).max_abs() < 1e-6);
    }

    #[test]
    fn uniform_logits_give_log_vocab_loss() {
        let logits = Matrix::zeros(4, 8);
        let out = cross_entropy(&logits, &[0, 1, 2, 3]);
        assert!((out.loss - (8.0f32).ln()).abs() < 1e-5);
        assert!((out.perplexity() - 8.0).abs() < 1e-3);
    }

    #[test]
    fn gradient_matches_finite_difference() {
        let mut rng = SeedStream::new(2);
        let logits = rng.uniform_matrix(3, 5, 1.0);
        let targets = [2usize, 0, 4];
        let out = cross_entropy(&logits, &targets);
        let eps = 1e-3;
        for idx in [0usize, 7, 14] {
            let mut lp = logits.clone();
            lp.as_mut_slice()[idx] += eps;
            let mut lm = logits.clone();
            lm.as_mut_slice()[idx] -= eps;
            let numeric = (cross_entropy(&lp, &targets).loss - cross_entropy(&lm, &targets).loss)
                / (2.0 * eps);
            let got = out.grad_logits.as_slice()[idx];
            assert!((numeric - got).abs() < 1e-3, "{idx}: {numeric} vs {got}");
        }
    }

    #[test]
    fn gradient_rows_sum_to_zero() {
        let mut rng = SeedStream::new(3);
        let logits = rng.uniform_matrix(4, 6, 2.0);
        let out = cross_entropy(&logits, &[1, 2, 3, 4]);
        for r in 0..4 {
            let s: f32 = out.grad_logits.row(r).iter().sum();
            assert!(s.abs() < 1e-6);
        }
    }

    #[test]
    fn correct_counts_argmax_hits() {
        let logits = Matrix::from_rows(&[&[5.0, 0.0], &[0.0, 5.0], &[5.0, 0.0]]);
        let out = cross_entropy(&logits, &[0, 1, 1]);
        assert_eq!(out.correct, 2);
    }

    #[test]
    #[should_panic(expected = "out of vocab range")]
    fn bad_target_panics() {
        cross_entropy(&Matrix::zeros(1, 3), &[3]);
    }
}
