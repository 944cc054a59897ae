//! Causal multi-head self-attention with hand-written backward pass.
//!
//! The per-head products run batched: each of the six (`Q·Kᵀ` and `A·V`
//! forward; `dCtx·Vᵀ`, `Aᵀ·dCtx`, `dS·K` and `dSᵀ·Q` backward) is one
//! [`gemm_strided_batched`] call over every (sequence, head) pair of the
//! micro-batch. The kernel reads each head's `L x d` block where it sits
//! in `q` / `k` / `v` / `dCtx` and stores each result straight into the
//! head's columns of `context` / `dq` / `dk` / `dv`. The `L x L` score,
//! probability and gradient tiles of all pairs live in one
//! `(sequences · heads · L) x L` stack, so the score scale, the causal
//! softmax and its backward are single passes over rows. Every element
//! keeps the operation sequence of a per-head loop — the ascending-`k`
//! FMA chain of each product, masked upper triangle included, and each
//! softmax lane's steps — so the results are the same bits.

use crate::loss::softmax_into;
use crate::{Layer, ParamRef};
use opt_tensor::{
    gemm_strided_batched, xavier_uniform, BatchShape, BlockLayout, Blocks, Matrix, SeedStream,
};
use std::collections::VecDeque;

/// Reused scratch buffers; every matrix is fully overwritten before use,
/// so nothing here is model state (checkpoints ignore it).
#[derive(Default)]
struct AttnScratch {
    d_context: Matrix,
    /// `hidden x hidden` accumulation scratch for weight-gradient and
    /// input-gradient GEMMs.
    acc: Matrix,
}

/// Per-forward cached tensors needed by the backward pass.
struct AttnCache {
    x: Matrix,
    q: Matrix,
    k: Matrix,
    v: Matrix,
    /// Softmax outputs, one `L x L` tile per (sequence, head) stacked
    /// sequence-major ([`HeadGrid::tiles`]).
    attn: Matrix,
    /// Concatenated per-head context (pre output-projection).
    context: Matrix,
}

/// The (sequence, head) grid of one micro-batch, and where each pair's
/// blocks sit in the matrices the batched products read and write.
#[derive(Clone, Copy)]
struct HeadGrid {
    n_seq: usize,
    heads: usize,
    l: usize,
    dk: usize,
    hidden: usize,
}

impl HeadGrid {
    /// The `L x dk` block of (sequence `s`, head `h`) in a
    /// `(n_seq · L) x hidden` activation: rows `s·L..`, columns `h·dk..`.
    fn head_blocks(self) -> BlockLayout {
        BlockLayout {
            ld: self.hidden,
            outer_stride: self.l * self.hidden,
            inner_stride: self.dk,
        }
    }

    /// The `L x L` tile of (sequence `s`, head `h`) in the
    /// `(n_seq · heads · L) x L` stack: rows `(s·heads + h)·L..`.
    fn tiles(self) -> BlockLayout {
        BlockLayout {
            ld: self.l,
            outer_stride: self.heads * self.l * self.l,
            inner_stride: self.l * self.l,
        }
    }

    fn stack_rows(self) -> usize {
        self.n_seq * self.heads * self.l
    }

    /// `out(s, h) = A(s, h) · B(s, h)` for every pair in one batched GEMM;
    /// A's blocks are `m x k`, B's `k x n`.
    fn product(
        self,
        [m, n, k]: [usize; 3],
        a: Blocks<'_>,
        b: Blocks<'_>,
        out: &mut Matrix,
        out_layout: BlockLayout,
    ) {
        let shape = BatchShape {
            outer: self.n_seq,
            inner: self.heads,
            m,
            n,
            k,
        };
        gemm_strided_batched(shape, a, b, out.as_mut_slice(), out_layout);
    }
}

/// The blocks of `m` at `layout`, read through their transpose if
/// `transposed`.
fn blocks(m: &Matrix, layout: BlockLayout, transposed: bool) -> Blocks<'_> {
    Blocks {
        data: m.as_slice(),
        layout,
        transposed,
    }
}

/// Causal multi-head self-attention: `y = softmax(QK^T / sqrt(dk)) V W_o`.
///
/// Input is `(batch * seq_len) x hidden`, rows grouped by sequence: rows
/// `[s*L, (s+1)*L)` form sequence `s` — the same folding Megatron-LM uses
/// before its attention GEMMs. A causal mask forbids attending to future
/// positions.
pub struct MultiHeadAttention {
    hidden: usize,
    heads: usize,
    seq_len: usize,
    wq: Matrix,
    wk: Matrix,
    wv: Matrix,
    wo: Matrix,
    grad_wq: Matrix,
    grad_wk: Matrix,
    grad_wv: Matrix,
    grad_wo: Matrix,
    cache: VecDeque<AttnCache>,
    scratch: AttnScratch,
}

impl std::fmt::Debug for MultiHeadAttention {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "MultiHeadAttention(hidden={}, heads={}, seq_len={})",
            self.hidden, self.heads, self.seq_len
        )
    }
}

impl MultiHeadAttention {
    /// Creates an attention layer.
    ///
    /// # Panics
    ///
    /// Panics if `hidden` is not divisible by `heads`.
    pub fn new(hidden: usize, heads: usize, seq_len: usize, rng: &mut SeedStream) -> Self {
        assert!(
            hidden.is_multiple_of(heads),
            "hidden must be divisible by heads"
        );
        Self {
            hidden,
            heads,
            seq_len,
            wq: xavier_uniform(rng, hidden, hidden),
            wk: xavier_uniform(rng, hidden, hidden),
            wv: xavier_uniform(rng, hidden, hidden),
            wo: xavier_uniform(rng, hidden, hidden),
            grad_wq: Matrix::zeros(hidden, hidden),
            grad_wk: Matrix::zeros(hidden, hidden),
            grad_wv: Matrix::zeros(hidden, hidden),
            grad_wo: Matrix::zeros(hidden, hidden),
            cache: VecDeque::new(),
            scratch: AttnScratch::default(),
        }
    }

    /// Head dimensionality `hidden / heads`.
    pub fn head_dim(&self) -> usize {
        self.hidden / self.heads
    }

    fn grid(&self, rows: usize) -> HeadGrid {
        assert!(
            rows.is_multiple_of(self.seq_len),
            "input rows {rows} not a multiple of seq_len {}",
            self.seq_len
        );
        HeadGrid {
            n_seq: rows / self.seq_len,
            heads: self.heads,
            l: self.seq_len,
            dk: self.head_dim(),
            hidden: self.hidden,
        }
    }

    /// Row-wise softmax with causal masking over a stack of `L x L` score
    /// tiles: row `r` is query position `i = r % L`, which attends to
    /// positions `0..=i`. Masked entries are zero.
    fn causal_softmax(scores: &Matrix, l: usize) -> Matrix {
        let mut out = Matrix::zeros(scores.rows(), l);
        for r in 0..scores.rows() {
            let i = r % l;
            softmax_into(&scores.row(r)[..=i], &mut out.row_mut(r)[..=i]);
        }
        out
    }

    /// Softmax backward over a stack of `L x L` tiles, in place: `d`
    /// holds `dA` and leaves holding `dS = A ⊙ (dA - rowsum(dA ⊙ A))` on
    /// each row's unmasked prefix `0..=i` (`i = r % L`), the row sum an
    /// unfused left-to-right `dot += dA * A`. Masked entries become zero.
    fn causal_softmax_backward(a: &Matrix, d: &mut Matrix, l: usize) {
        for r in 0..a.rows() {
            let i = r % l;
            let ai = &a.row(r)[..=i];
            let (head, masked) = d.row_mut(r).split_at_mut(i + 1);
            let mut dot = 0.0;
            for (&g, &p) in head.iter().zip(ai) {
                dot += g * p;
            }
            for (g, &p) in head.iter_mut().zip(ai) {
                *g = p * (*g - dot);
            }
            masked.fill(0.0);
        }
    }
}

impl Layer for MultiHeadAttention {
    fn forward(&mut self, x: &Matrix) -> Matrix {
        let g = self.grid(x.rows());
        let (l, dk, hb) = (g.l, g.dk, g.head_blocks());
        let scale = 1.0 / (dk as f32).sqrt();

        let q = x.matmul(&self.wq);
        let k = x.matmul(&self.wk);
        let v = x.matmul(&self.wv);

        // S = Q·Kᵀ / sqrt(dk) per head; its causal softmax is cached.
        let mut scores = Matrix::zeros(g.stack_rows(), l);
        g.product(
            [l, l, dk],
            blocks(&q, hb, false),
            blocks(&k, hb, true),
            &mut scores,
            g.tiles(),
        );
        scores.scale_assign(scale);
        let attn = Self::causal_softmax(&scores, l);
        // Back to the storage pool before the next buffer is drawn.
        drop(scores);
        // context = A·V per head, into the head's columns.
        let mut context = Matrix::zeros(x.rows(), self.hidden);
        g.product(
            [l, dk, l],
            blocks(&attn, g.tiles(), false),
            blocks(&v, hb, false),
            &mut context,
            hb,
        );
        let y = context.matmul(&self.wo);
        self.cache.push_back(AttnCache {
            x: x.clone(),
            q,
            k,
            v,
            attn,
            context,
        });
        y
    }

    fn backward(&mut self, grad_out: &Matrix) -> Matrix {
        let c = self
            .cache
            .pop_front()
            .expect("Attention::backward without forward");
        let g = self.grid(grad_out.rows());
        let (l, dk, hb, tiles) = (g.l, g.dk, g.head_blocks(), g.tiles());
        let (rows, hidden) = (grad_out.rows(), self.hidden);
        let scale = 1.0 / (dk as f32).sqrt();

        // y = context * Wo
        let sc = &mut self.scratch;
        c.context.t_matmul_into(grad_out, &mut sc.acc);
        self.grad_wo.add_assign(&sc.acc);
        grad_out.matmul_t_into(&self.wo, &mut sc.d_context);

        // context = A·V per head: dA = dCtx·Vᵀ, dV = Aᵀ·dCtx.
        let d_ctx = blocks(&sc.d_context, hb, false);
        let mut d_s = Matrix::zeros(g.stack_rows(), l);
        g.product([l, l, dk], d_ctx, blocks(&c.v, hb, true), &mut d_s, tiles);
        let mut dv = Matrix::zeros(rows, hidden);
        g.product([l, dk, l], blocks(&c.attn, tiles, true), d_ctx, &mut dv, hb);

        // dA becomes dS in place.
        Self::causal_softmax_backward(&c.attn, &mut d_s, l);
        // S = Q·Kᵀ · scale per head: dQ = dS·K · scale, dK = dSᵀ·Q · scale.
        let mut dq = Matrix::zeros(rows, hidden);
        g.product(
            [l, dk, l],
            blocks(&d_s, tiles, false),
            blocks(&c.k, hb, false),
            &mut dq,
            hb,
        );
        dq.scale_assign(scale);
        let mut dk_mat = Matrix::zeros(rows, hidden);
        g.product(
            [l, dk, l],
            blocks(&d_s, tiles, true),
            blocks(&c.q, hb, false),
            &mut dk_mat,
            hb,
        );
        dk_mat.scale_assign(scale);
        // Back to the storage pool before the next buffer is drawn.
        drop(d_s);

        // q = x Wq etc.
        c.x.t_matmul_into(&dq, &mut sc.acc);
        self.grad_wq.add_assign(&sc.acc);
        c.x.t_matmul_into(&dk_mat, &mut sc.acc);
        self.grad_wk.add_assign(&sc.acc);
        c.x.t_matmul_into(&dv, &mut sc.acc);
        self.grad_wv.add_assign(&sc.acc);
        let mut dx = dq.matmul_t(&self.wq);
        dk_mat.matmul_t_into(&self.wk, &mut sc.acc);
        dx.add_assign(&sc.acc);
        dv.matmul_t_into(&self.wv, &mut sc.acc);
        dx.add_assign(&sc.acc);
        dx
    }

    fn params(&mut self) -> Vec<ParamRef<'_>> {
        vec![
            ParamRef {
                name: "attn.wq",
                value: &mut self.wq,
                grad: &mut self.grad_wq,
            },
            ParamRef {
                name: "attn.wk",
                value: &mut self.wk,
                grad: &mut self.grad_wk,
            },
            ParamRef {
                name: "attn.wv",
                value: &mut self.wv,
                grad: &mut self.grad_wv,
            },
            ParamRef {
                name: "attn.wo",
                value: &mut self.wo,
                grad: &mut self.grad_wo,
            },
        ]
    }

    fn pending_activations(&self) -> usize {
        self.cache.len()
    }

    fn clear_caches(&mut self) {
        self.cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layer::testutil::check_input_gradient;

    #[test]
    #[should_panic(expected = "divisible by heads")]
    fn indivisible_heads_panics() {
        let _ = MultiHeadAttention::new(6, 4, 4, &mut SeedStream::new(0));
    }

    #[test]
    fn causal_softmax_rows_sum_to_one_and_mask_future() {
        // Two stacked 4 x 4 tiles: row r is query position r % 4.
        let scores = Matrix::from_fn(8, 4, |r, c| (r + c) as f32 * 0.1);
        let a = MultiHeadAttention::causal_softmax(&scores, 4);
        for r in 0..8 {
            let row_sum: f32 = a.row(r).iter().sum();
            assert!((row_sum - 1.0).abs() < 1e-5);
            for j in (r % 4 + 1)..4 {
                assert_eq!(a[(r, j)], 0.0, "future position ({r},{j}) not masked");
            }
        }
    }

    /// Rows `r0..r0 + rows` x columns `c0..c0 + cols` of `m`, copied.
    fn block(m: &Matrix, r0: usize, rows: usize, c0: usize, cols: usize) -> Matrix {
        Matrix::from_fn(rows, cols, |r, c| m[(r0 + r, c0 + c)])
    }

    /// The index-loop softmax backward this crate shipped before the
    /// row-slice rewrite, kept verbatim as the bit-exactness oracle.
    fn old_causal_softmax_backward(a: &Matrix, d_a: &Matrix) -> Matrix {
        let l = a.rows();
        let mut d_s = Matrix::zeros(l, l);
        for i in 0..l {
            let mut dot = 0.0;
            for j in 0..=i {
                dot += d_a[(i, j)] * a[(i, j)];
            }
            for j in 0..=i {
                d_s[(i, j)] = a[(i, j)] * (d_a[(i, j)] - dot);
            }
        }
        d_s
    }

    #[test]
    fn softmax_backward_is_bit_identical_to_the_index_loop_implementation() {
        let mut rng = SeedStream::new(23);
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for l in [1usize, 3, 16, 32] {
            // A stack of three tiles, each checked against the oracle.
            let scores = rng.uniform_matrix(3 * l, l, 3.0);
            let a = MultiHeadAttention::causal_softmax(&scores, l);
            // The full dA, masked upper triangle included, as the
            // `dCtx · Vᵀ` product produces it.
            let d_a = rng.uniform_matrix(3 * l, l, 2.0);
            let mut d_s = d_a.clone();
            MultiHeadAttention::causal_softmax_backward(&a, &mut d_s, l);
            for t in 0..3 {
                assert_eq!(
                    bits(&block(&d_s, t * l, l, 0, l)),
                    bits(&old_causal_softmax_backward(
                        &block(&a, t * l, l, 0, l),
                        &block(&d_a, t * l, l, 0, l)
                    )),
                    "L = {l}, tile {t}"
                );
            }
        }
    }

    /// The per-(sequence, head) loop this layer ran before its products
    /// were batched, kept as the bit-exactness oracle: each head's blocks
    /// copied out, one GEMM per block and orientation, an `L x L` softmax
    /// allocated per head, and the results scattered back.
    struct PerHeadOracle {
        heads: usize,
        seq_len: usize,
        /// `[wq, wk, wv, wo]` and their gradients.
        w: [Matrix; 4],
        grad: [Matrix; 4],
        /// `(x, q, k, v, per-head softmax, context)` per micro-batch.
        cache: VecDeque<(Matrix, Matrix, Matrix, Matrix, Vec<Matrix>, Matrix)>,
    }

    impl PerHeadOracle {
        fn of(layer: &mut MultiHeadAttention) -> Self {
            let (heads, seq_len) = (layer.heads, layer.seq_len);
            let params = layer.params();
            let w = std::array::from_fn(|i| params[i].value.clone());
            let grad = std::array::from_fn(|i| params[i].grad.clone());
            Self {
                heads,
                seq_len,
                w,
                grad,
                cache: VecDeque::new(),
            }
        }

        fn forward(&mut self, x: &Matrix) -> Matrix {
            let (l, hidden) = (self.seq_len, x.cols());
            let dk = hidden / self.heads;
            let scale = 1.0 / (dk as f32).sqrt();
            let [q, k, v] = std::array::from_fn(|i| x.matmul(&self.w[i]));
            let mut context = Matrix::zeros(x.rows(), hidden);
            let mut attn = Vec::new();
            for s in 0..x.rows() / l {
                for h in 0..self.heads {
                    let [qh, kh, vh] = [&q, &k, &v].map(|m| block(m, s * l, l, h * dk, dk));
                    let mut scores = qh.matmul_t(&kh);
                    scores.scale_assign(scale);
                    let mut a = Matrix::zeros(l, l);
                    for i in 0..l {
                        softmax_into(&scores.row(i)[..=i], &mut a.row_mut(i)[..=i]);
                    }
                    let ctx_h = a.matmul(&vh);
                    for i in 0..l {
                        context.row_mut(s * l + i)[h * dk..(h + 1) * dk]
                            .copy_from_slice(ctx_h.row(i));
                    }
                    attn.push(a);
                }
            }
            let y = context.matmul(&self.w[3]);
            self.cache.push_back((x.clone(), q, k, v, attn, context));
            y
        }

        fn backward(&mut self, grad_out: &Matrix) -> Matrix {
            let (x, q, k, v, attn, context) = self.cache.pop_front().expect("forward first");
            let (l, hidden) = (self.seq_len, x.cols());
            let dk = hidden / self.heads;
            let scale = 1.0 / (dk as f32).sqrt();
            self.grad[3].add_assign(&context.t_matmul(grad_out));
            let d_context = grad_out.matmul_t(&self.w[3]);
            let mut d = [0; 3].map(|_| Matrix::zeros(x.rows(), hidden));
            for s in 0..x.rows() / l {
                for h in 0..self.heads {
                    let a = &attn[s * self.heads + h];
                    let [qh, kh, vh, d_ctx_h] =
                        [&q, &k, &v, &d_context].map(|m| block(m, s * l, l, h * dk, dk));
                    let d_a = d_ctx_h.matmul_t(&vh);
                    let d_vh = a.t_matmul(&d_ctx_h);
                    let d_s = old_causal_softmax_backward(a, &d_a);
                    let mut d_qh = d_s.matmul(&kh);
                    d_qh.scale_assign(scale);
                    let mut d_kh = d_s.t_matmul(&qh);
                    d_kh.scale_assign(scale);
                    for (dst, src) in d.iter_mut().zip([&d_qh, &d_kh, &d_vh]) {
                        for i in 0..l {
                            dst.row_mut(s * l + i)[h * dk..(h + 1) * dk]
                                .copy_from_slice(src.row(i));
                        }
                    }
                }
            }
            for (grad, d) in self.grad.iter_mut().zip(&d) {
                grad.add_assign(&x.t_matmul(d));
            }
            let mut dx = d[0].matmul_t(&self.w[0]);
            dx.add_assign(&d[1].matmul_t(&self.w[1]));
            dx.add_assign(&d[2].matmul_t(&self.w[2]));
            dx
        }
    }

    #[test]
    fn batched_heads_are_bit_identical_to_the_per_head_loop() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        // (rows, hidden, heads, L): GPT-small, GPT-mid, then ragged
        // sequence lengths 3 and 1 at head dimension 1.
        for (rows, hidden, heads, l) in [
            (64, 32, 4, 16),
            (128, 128, 4, 32),
            (6, 3, 3, 3),
            (3, 2, 2, 1),
        ] {
            let label = format!("{rows}x{hidden}, {heads} heads, L {l}");
            let mut rng = SeedStream::new((rows * 1000 + l) as u64);
            let mut layer = MultiHeadAttention::new(hidden, heads, l, &mut rng);
            let mut oracle = PerHeadOracle::of(&mut layer);
            let xs = [0, 1].map(|_| rng.uniform_matrix(rows, hidden, 1.0));
            let gs = [0, 1].map(|_| rng.uniform_matrix(rows, hidden, 1.0));
            // Two micro-batches in flight, backward in FIFO order.
            for x in &xs {
                assert_eq!(
                    bits(&layer.forward(x)),
                    bits(&oracle.forward(x)),
                    "{label}: y"
                );
            }
            for g in &gs {
                assert_eq!(
                    bits(&layer.backward(g)),
                    bits(&oracle.backward(g)),
                    "{label}: dx"
                );
            }
            for (p, want) in layer.params().iter().zip(&oracle.grad) {
                assert_eq!(bits(p.grad), bits(want), "{label}: {}", p.name);
            }
        }
    }

    #[test]
    fn forward_shape_preserved() {
        let mut rng = SeedStream::new(1);
        let mut attn = MultiHeadAttention::new(8, 2, 4, &mut rng);
        let x = rng.uniform_matrix(8, 8, 0.5); // 2 sequences of length 4
        let y = attn.forward(&x);
        assert_eq!(y.shape(), (8, 8));
    }

    #[test]
    fn first_position_attends_only_to_itself() {
        // With causal masking, output at position 0 is v[0] * Wo regardless
        // of other positions.
        let mut rng = SeedStream::new(2);
        let mut attn = MultiHeadAttention::new(4, 1, 3, &mut rng);
        let x1 = rng.uniform_matrix(3, 4, 0.5);
        let mut x2 = x1.clone();
        // Perturb positions 1, 2: output row 0 must not change.
        for c in 0..4 {
            x2[(1, c)] += 1.0;
            x2[(2, c)] -= 1.0;
        }
        let y1 = attn.forward(&x1);
        let y2 = attn.forward(&x2);
        for c in 0..4 {
            assert!((y1[(0, c)] - y2[(0, c)]).abs() < 1e-6);
        }
    }

    #[test]
    fn input_gradient_matches_finite_difference() {
        check_input_gradient(
            || MultiHeadAttention::new(4, 2, 3, &mut SeedStream::new(33)),
            3,
            4,
            3e-2,
        );
    }

    #[test]
    fn weight_gradients_match_finite_difference() {
        let mut rng = SeedStream::new(8);
        let x = rng.uniform_matrix(4, 4, 0.5); // one sequence of length 4
        let probe = rng.uniform_matrix(4, 4, 1.0);
        let make = || MultiHeadAttention::new(4, 2, 4, &mut SeedStream::new(55));
        let mut layer = make();
        layer.forward(&x);
        layer.backward(&probe);
        // Check a few entries of each weight gradient.
        for (pi, name) in ["attn.wq", "attn.wk", "attn.wv", "attn.wo"]
            .iter()
            .enumerate()
        {
            let analytic = layer.params()[pi].grad.clone();
            for idx in [0usize, 7, 15] {
                let perturb = |delta: f32| {
                    let mut l = make();
                    l.params()[pi].value.as_mut_slice()[idx] += delta;
                    l.forward(&x).dot(&probe)
                };
                let eps = 1e-3;
                let numeric = (perturb(eps) - perturb(-eps)) / (2.0 * eps);
                let got = analytic.as_slice()[idx];
                assert!(
                    (numeric - got).abs() < 3e-2 * (1.0 + numeric.abs()),
                    "{name}[{idx}]: numeric {numeric} vs analytic {got}"
                );
            }
        }
    }

    #[test]
    fn fifo_cache_supports_pipelined_microbatches() {
        let mut rng = SeedStream::new(3);
        let mut attn = MultiHeadAttention::new(4, 1, 2, &mut rng);
        let x1 = rng.uniform_matrix(2, 4, 0.5);
        let x2 = rng.uniform_matrix(2, 4, 0.5);
        let y1 = attn.forward(&x1);
        let _y2 = attn.forward(&x2);
        assert_eq!(attn.pending_activations(), 2);
        // Backward for x1 first: compare against a fresh layer doing only x1.
        let mut fresh = MultiHeadAttention::new(4, 1, 2, &mut SeedStream::new(3));
        // Copy weights so both layers are identical.
        for (dst, src) in fresh.params().into_iter().zip(attn.params()) {
            *dst.value = src.value.clone();
        }
        let y1_fresh = fresh.forward(&x1);
        assert!(y1.sub(&y1_fresh).max_abs() < 1e-6);
        let g = Matrix::full(2, 4, 1.0);
        let dx = attn.backward(&g);
        let dx_fresh = fresh.backward(&g);
        assert!(dx.sub(&dx_fresh).max_abs() < 1e-6);
    }
}
