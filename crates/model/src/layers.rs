//! Primitive layers: Linear, LayerNorm, GeLU.

use crate::{Layer, ParamRef};
use opt_tensor::{xavier_uniform, Matrix, SeedStream};

/// Fully-connected layer `y = x W + b`.
///
/// `W` is `in_dim x out_dim`; inputs are `(batch*seq) x in_dim`.
#[derive(Debug)]
pub struct Linear {
    w: Matrix,
    b: Matrix,
    grad_w: Matrix,
    grad_b: Matrix,
    /// Weight-gradient GEMM scratch (fully overwritten each backward).
    scratch_gw: Matrix,
}

impl Linear {
    /// Creates a Xavier-initialized linear layer.
    pub fn new(in_dim: usize, out_dim: usize, rng: &mut SeedStream) -> Self {
        Self {
            w: xavier_uniform(rng, in_dim, out_dim),
            b: Matrix::zeros(1, out_dim),
            grad_w: Matrix::zeros(in_dim, out_dim),
            grad_b: Matrix::zeros(1, out_dim),
            scratch_gw: Matrix::default(),
        }
    }

    /// Input dimensionality.
    pub fn in_dim(&self) -> usize {
        self.w.rows()
    }

    /// Output dimensionality.
    pub fn out_dim(&self) -> usize {
        self.w.cols()
    }

    /// Immutable access to the weight matrix (tests, probes).
    pub fn weight(&self) -> &Matrix {
        &self.w
    }
}

impl Layer for Linear {
    /// The input.
    type Saved = Matrix;

    fn forward(&self, x: &Matrix) -> (Matrix, Matrix) {
        let mut y = x.matmul(&self.w);
        y.add_row_broadcast_assign(&self.b);
        (y, x.clone())
    }

    fn backward(&mut self, x: Matrix, grad_out: &Matrix) -> Matrix {
        x.t_matmul_into(grad_out, &mut self.scratch_gw);
        self.grad_w.add_assign(&self.scratch_gw);
        self.grad_b.add_assign(&grad_out.col_sums());
        grad_out.matmul_t(&self.w)
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        vec![
            ParamRef {
                name: "linear.w",
                value: &mut self.w,
                grad: &mut self.grad_w,
            },
            ParamRef {
                name: "linear.b",
                value: &mut self.b,
                grad: &mut self.grad_b,
            },
        ]
    }
}

/// Layer normalization over the feature (column) dimension with learned
/// gain/bias, as used before attention and MLP in Megatron's block (Fig. 2).
#[derive(Debug)]
pub struct LayerNorm {
    gamma: Matrix,
    beta: Matrix,
    grad_gamma: Matrix,
    grad_beta: Matrix,
    eps: f32,
}

impl LayerNorm {
    /// Creates a layer norm over `dim` features (gamma=1, beta=0).
    pub fn new(dim: usize) -> Self {
        Self {
            gamma: Matrix::full(1, dim, 1.0),
            beta: Matrix::zeros(1, dim),
            grad_gamma: Matrix::zeros(1, dim),
            grad_beta: Matrix::zeros(1, dim),
            eps: 1e-5,
        }
    }
}

impl Layer for LayerNorm {
    /// The normalized input and 1/std per row.
    type Saved = (Matrix, Vec<f32>);

    fn forward(&self, x: &Matrix) -> (Matrix, Self::Saved) {
        let (rows, cols) = x.shape();
        let mut xhat = Matrix::zeros(rows, cols);
        let mut y = Matrix::zeros(rows, cols);
        let mut inv_stds = Vec::with_capacity(rows);
        let (gamma, beta) = (self.gamma.row(0), self.beta.row(0));
        for r in 0..rows {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let inv_std = 1.0 / (var + self.eps).sqrt();
            let lanes = xhat.row_mut(r).iter_mut().zip(y.row_mut(r)).zip(row);
            for (((h, o), &v), (&g, &b)) in lanes.zip(gamma.iter().zip(beta)) {
                *h = (v - mean) * inv_std;
                *o = *h * g + b;
            }
            inv_stds.push(inv_std);
        }
        (y, (xhat, inv_stds))
    }

    fn backward(&mut self, (xhat, inv_stds): Self::Saved, grad_out: &Matrix) -> Matrix {
        let (rows, cols) = grad_out.shape();
        let n = cols as f32;
        let mut dx = Matrix::zeros(rows, cols);
        let gamma = self.gamma.row(0);
        let (grad_gamma, grad_beta) = (self.grad_gamma.row_mut(0), self.grad_beta.row_mut(0));
        for (r, &inv_std) in inv_stds.iter().enumerate() {
            let (g_row, h_row, d_row) = (grad_out.row(r), xhat.row(r), dx.row_mut(r));
            // dxhat = grad_out * gamma, staged in the output row.
            let params = gamma
                .iter()
                .zip(grad_gamma.iter_mut().zip(grad_beta.iter_mut()));
            for (((d, &g), &h), (&gm, (gg, gb))) in
                d_row.iter_mut().zip(g_row).zip(h_row).zip(params)
            {
                *d = g * gm;
                *gg += g * h;
                *gb += g;
            }
            let sum_dxhat: f32 = d_row.iter().sum();
            let sum_dxhat_xhat: f32 = d_row.iter().zip(h_row).map(|(&d, &h)| d * h).sum();
            let scale = inv_std / n;
            for (d, &h) in d_row.iter_mut().zip(h_row) {
                *d = scale * (n * *d - sum_dxhat - h * sum_dxhat_xhat);
            }
        }
        dx
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        vec![
            ParamRef {
                name: "ln.gamma",
                value: &mut self.gamma,
                grad: &mut self.grad_gamma,
            },
            ParamRef {
                name: "ln.beta",
                value: &mut self.beta,
                grad: &mut self.grad_beta,
            },
        ]
    }
}

/// GeLU activation (tanh approximation, as in GPT-2/Megatron), computed
/// by `opt-tensor`'s dispatched element-wise kernels.
#[derive(Debug)]
pub struct Gelu;

impl Layer for Gelu {
    /// The input.
    type Saved = Matrix;

    fn forward(&self, x: &Matrix) -> (Matrix, Matrix) {
        let mut y = Matrix::zeros(x.rows(), x.cols());
        opt_tensor::gelu(x.as_slice(), y.as_mut_slice());
        (y, x.clone())
    }

    fn backward(&mut self, x: Matrix, grad_out: &Matrix) -> Matrix {
        assert_eq!(x.shape(), grad_out.shape(), "Gelu::backward shape mismatch");
        let mut dx = Matrix::zeros(x.rows(), x.cols());
        opt_tensor::gelu_backward(x.as_slice(), grad_out.as_slice(), dx.as_mut_slice());
        dx
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::check_input_gradient;

    #[test]
    fn linear_forward_known_values() {
        let mut rng = SeedStream::new(0);
        let mut l = Linear::new(2, 2, &mut rng);
        // Overwrite with known weights.
        *l.params()[0].value = Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]);
        *l.params()[1].value = Matrix::from_rows(&[&[0.5, -0.5]]);
        let (y, _) = l.forward(&Matrix::from_rows(&[&[3.0, 4.0]]));
        assert_eq!(y.as_slice(), &[3.5, 7.5]);
    }

    #[test]
    fn linear_input_gradient_matches_finite_difference() {
        check_input_gradient(|| Linear::new(4, 3, &mut SeedStream::new(5)), 2, 4, 1e-2);
    }

    #[test]
    fn linear_fifo_cache_handles_two_in_flight() {
        let mut rng = SeedStream::new(1);
        let mut l = Linear::new(3, 3, &mut rng);
        let x1 = rng.uniform_matrix(2, 3, 1.0);
        let x2 = rng.uniform_matrix(2, 3, 1.0);
        let (_, saved1) = l.forward(&x1);
        let (_, saved2) = l.forward(&x2);
        let g = Matrix::full(2, 3, 1.0);
        // Each backward uses the input its own forward saved: grad_w
        // grows by x1^T g, then by x2^T g.
        let before = l.params()[0].grad.clone();
        l.backward(saved1, &g);
        let mid = l.params()[0].grad.clone();
        assert!(mid.sub(&before).sub(&x1.t_matmul(&g)).max_abs() < 1e-6);
        l.backward(saved2, &g);
        let after = l.params()[0].grad.clone();
        assert!(after.sub(&mid).sub(&x2.t_matmul(&g)).max_abs() < 1e-6);
    }

    #[test]
    fn linear_weight_gradient_matches_finite_difference() {
        let mut rng = SeedStream::new(7);
        let x = rng.uniform_matrix(3, 4, 0.5);
        let probe = rng.uniform_matrix(3, 2, 1.0);
        let make = || Linear::new(4, 2, &mut SeedStream::new(21));
        let mut layer = make();
        let (_, saved) = layer.forward(&x);
        layer.backward(saved, &probe);
        let analytic = layer.params()[0].grad.clone();

        let eps = 1e-3;
        for idx in [0usize, 3, 7] {
            let perturb = |delta: f32| {
                let mut l = make();
                l.params()[0].value.as_mut_slice()[idx] += delta;
                l.forward(&x).0.dot(&probe)
            };
            let numeric = (perturb(eps) - perturb(-eps)) / (2.0 * eps);
            let got = analytic.as_slice()[idx];
            assert!(
                (numeric - got).abs() < 1e-2,
                "w grad {idx}: {numeric} vs {got}"
            );
        }
    }

    #[test]
    fn layernorm_output_is_normalized() {
        let ln = LayerNorm::new(8);
        let mut rng = SeedStream::new(2);
        let x = rng.uniform_matrix(4, 8, 5.0);
        let (y, _) = ln.forward(&x);
        for r in 0..4 {
            let row = y.row(r);
            let mean: f32 = row.iter().sum::<f32>() / 8.0;
            let var: f32 = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / 8.0;
            assert!(mean.abs() < 1e-5, "row {r} mean {mean}");
            assert!((var - 1.0).abs() < 1e-3, "row {r} var {var}");
        }
    }

    /// The index-loop `LayerNorm` this crate shipped before the row-slice
    /// rewrite, kept verbatim as the bit-exactness oracle.
    fn old_layernorm_forward(
        x: &Matrix,
        gamma: &Matrix,
        beta: &Matrix,
        eps: f32,
    ) -> (Matrix, Matrix, Vec<f32>) {
        let (rows, cols) = x.shape();
        let mut xhat = Matrix::zeros(rows, cols);
        let mut inv_stds = Vec::with_capacity(rows);
        for r in 0..rows {
            let row = x.row(r);
            let mean = row.iter().sum::<f32>() / cols as f32;
            let var = row.iter().map(|&v| (v - mean) * (v - mean)).sum::<f32>() / cols as f32;
            let inv_std = 1.0 / (var + eps).sqrt();
            for (c, &v) in row.iter().enumerate() {
                xhat[(r, c)] = (v - mean) * inv_std;
            }
            inv_stds.push(inv_std);
        }
        let mut y = Matrix::zeros(rows, cols);
        for r in 0..rows {
            for c in 0..cols {
                y[(r, c)] = xhat[(r, c)] * gamma[(0, c)] + beta[(0, c)];
            }
        }
        (y, xhat, inv_stds)
    }

    fn old_layernorm_backward(
        grad_out: &Matrix,
        xhat: &Matrix,
        inv_stds: &[f32],
        gamma: &Matrix,
        grad_gamma: &mut Matrix,
        grad_beta: &mut Matrix,
    ) -> Matrix {
        let (rows, cols) = grad_out.shape();
        let n = cols as f32;
        let mut dx = Matrix::zeros(rows, cols);
        for r in 0..rows {
            let mut dxhat = vec![0.0f32; cols];
            for c in 0..cols {
                let g = grad_out[(r, c)];
                dxhat[c] = g * gamma[(0, c)];
                grad_gamma[(0, c)] += g * xhat[(r, c)];
                grad_beta[(0, c)] += g;
            }
            let sum_dxhat: f32 = dxhat.iter().sum();
            let sum_dxhat_xhat: f32 = dxhat.iter().zip(xhat.row(r)).map(|(&d, &h)| d * h).sum();
            let inv_std = inv_stds[r];
            for c in 0..cols {
                dx[(r, c)] =
                    inv_std / n * (n * dxhat[c] - sum_dxhat - xhat[(r, c)] * sum_dxhat_xhat);
            }
        }
        dx
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn layernorm_is_bit_identical_to_the_index_loop_implementation() {
        let mut rng = SeedStream::new(17);
        for &(rows, cols) in &[(1usize, 1usize), (3, 7), (8, 32), (5, 129)] {
            let mut ln = LayerNorm::new(cols);
            *ln.params()[0].value = rng.uniform_matrix(1, cols, 2.0);
            *ln.params()[1].value = rng.uniform_matrix(1, cols, 0.5);
            let (gamma, beta) = (ln.gamma.clone(), ln.beta.clone());
            // Two in-flight micro-batches: gradients accumulate across both.
            let xs = [
                rng.uniform_matrix(rows, cols, 4.0),
                rng.uniform_matrix(rows, cols, 0.1),
            ];
            let gs = [
                rng.uniform_matrix(rows, cols, 1.0),
                rng.uniform_matrix(rows, cols, 3.0),
            ];
            let mut want_gg = Matrix::zeros(1, cols);
            let mut want_gb = Matrix::zeros(1, cols);
            let outs: Vec<_> = xs.iter().map(|x| ln.forward(x)).collect();
            for ((x, g), (y, saved)) in xs.iter().zip(&gs).zip(outs) {
                let (want_y, xhat, inv_stds) = old_layernorm_forward(x, &gamma, &beta, ln.eps);
                assert_eq!(bits(&y), bits(&want_y), "forward {rows}x{cols}");
                let want_dx =
                    old_layernorm_backward(g, &xhat, &inv_stds, &gamma, &mut want_gg, &mut want_gb);
                assert_eq!(
                    bits(&ln.backward(saved, g)),
                    bits(&want_dx),
                    "backward {rows}x{cols}"
                );
            }
            assert_eq!(
                bits(&ln.grad_gamma),
                bits(&want_gg),
                "grad_gamma {rows}x{cols}"
            );
            assert_eq!(
                bits(&ln.grad_beta),
                bits(&want_gb),
                "grad_beta {rows}x{cols}"
            );
        }
    }

    #[test]
    fn layernorm_input_gradient_matches_finite_difference() {
        check_input_gradient(|| LayerNorm::new(6), 3, 6, 2e-2);
    }

    #[test]
    fn gelu_matches_reference_points() {
        // gelu(0) = 0, gelu(large) ~ large, gelu(-large) ~ 0, and the
        // known value gelu(1.0) ~ 0.8412.
        let (y, _) = Gelu.forward(&Matrix::from_rows(&[&[0.0, 5.0, -5.0, 1.0]]));
        let y = y.as_slice();
        assert_eq!(y[0], 0.0);
        assert!((y[1] - 5.0).abs() < 1e-3);
        assert!(y[2].abs() < 1e-3);
        assert!((y[3] - 0.8412).abs() < 1e-3);
    }

    #[test]
    fn gelu_input_gradient_matches_finite_difference() {
        check_input_gradient(|| Gelu, 2, 5, 1e-2);
    }
}
