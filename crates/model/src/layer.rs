//! The [`Layer`] trait and parameter references.

use opt_tensor::Matrix;

/// A named reference to one parameter tensor and its gradient accumulator.
///
/// The optimizer steps through these; the data-parallel runtime all-reduces
/// the `grad` side; compression operates on `grad` matrices one layer at a
/// time (as PowerSGD does).
#[derive(Debug)]
pub struct ParamRef<'a> {
    /// Stable name for debugging and tests (e.g. `"linear.w"`).
    pub name: &'static str,
    /// The parameter tensor.
    pub value: &'a mut Matrix,
    /// The gradient accumulated over the current mini-batch.
    pub grad: &'a mut Matrix,
}

/// A differentiable layer that keeps no activations.
///
/// `forward` hands back, beside its output, whatever its `backward` will
/// need ([`Layer::Saved`]); the caller keeps it and passes it back. Under
/// 1F1B scheduling a stage runs several forwards before the first backward
/// arrives, and [`crate::Stage`] owns the one queue that holds their saved
/// states in forward order.
///
/// # Gradient accumulation
///
/// `backward` *accumulates* into parameter gradients (`+=`) rather than
/// overwriting, because a mini-batch consists of several micro-batches
/// whose gradients sum (paper Eq. 7). Callers reset with
/// [`Layer::zero_grad`] after the optimizer step.
pub trait Layer: Send {
    /// What one forward leaves for its backward.
    type Saved;

    /// Computes the layer output and the state its backward needs.
    fn forward(&self, x: &Matrix) -> (Matrix, Self::Saved);

    /// Consumes one forward's saved state, accumulates parameter
    /// gradients, and returns the gradient with respect to the input.
    fn backward(&mut self, saved: Self::Saved, grad_out: &Matrix) -> Matrix;

    /// Mutable references to every (parameter, gradient) pair.
    /// Stateless layers return an empty vector.
    fn params(&mut self) -> Vec<ParamRef<'_>>;

    /// Number of scalar parameters.
    fn param_count(&mut self) -> usize {
        self.params().iter().map(|p| p.value.len()).sum()
    }

    /// Zeroes all parameter gradients.
    fn zero_grad(&mut self) {
        for p in self.params() {
            p.grad.fill_zero();
        }
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    //! Finite-difference gradient checking shared by layer tests.

    use super::*;
    use opt_tensor::SeedStream;

    /// Checks `d loss / d input` of `layer` against central finite
    /// differences of the scalar loss `sum(forward(x) * probe)`.
    pub fn check_input_gradient<L: Layer>(
        layer_factory: impl Fn() -> L,
        rows: usize,
        cols: usize,
        tol: f32,
    ) {
        let mut rng = SeedStream::new(1234);
        let x = rng.uniform_matrix(rows, cols, 0.5);
        let mut probe_layer = layer_factory();
        let (out, saved) = probe_layer.forward(&x);
        let probe = SeedStream::new(99).uniform_matrix(out.rows(), out.cols(), 1.0);
        let analytic = probe_layer.backward(saved, &probe);

        let eps = 1e-3;
        for idx in [0usize, (rows * cols) / 2, rows * cols - 1] {
            let mut xp = x.clone();
            xp.as_mut_slice()[idx] += eps;
            let mut xm = x.clone();
            xm.as_mut_slice()[idx] -= eps;
            let layer = layer_factory();
            let fp = layer.forward(&xp).0.dot(&probe);
            let fm = layer.forward(&xm).0.dot(&probe);
            let numeric = (fp - fm) / (2.0 * eps);
            let got = analytic.as_slice()[idx];
            assert!(
                (numeric - got).abs() <= tol * (1.0 + numeric.abs()),
                "grad mismatch at {idx}: numeric {numeric} vs analytic {got}"
            );
        }
    }
}
