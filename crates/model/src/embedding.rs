//! Token + positional embedding with tied output projection.
//!
//! In GPT pretraining the same embedding table converts tokens to vectors
//! at the input *and* converts the final hidden states back to vocabulary
//! logits at the output. Under pipeline parallelism the first and last
//! stages each hold a replica of the table, and their gradients must be
//! synchronized every iteration — the "EMB Sync" all-reduce whose fusion
//! is the paper's §6 contribution.

use opt_tensor::{Matrix, SeedStream};
use std::collections::VecDeque;

/// A replica of the shared embedding: token table (`vocab x hidden`) plus a
/// learned positional table (`seq_len x hidden`).
///
/// The first pipeline stage calls [`Embedding::lookup`]/[`Embedding::backward_lookup`];
/// the last stage calls [`Embedding::project`]/[`Embedding::backward_project`]
/// on its own replica. Both accumulate into [`Embedding::grad`], which the
/// runtime all-reduces (separately or fused, §6).
#[derive(Debug)]
pub struct Embedding {
    table: Matrix,
    pos: Matrix,
    grad_table: Matrix,
    grad_pos: Matrix,
    seq_len: usize,
    lookup_cache: VecDeque<Vec<usize>>,
    project_cache: VecDeque<Matrix>,
}

impl Embedding {
    /// Creates an embedding for `vocab` tokens, `hidden` features and
    /// sequences of length `seq_len`, initialized N(0, 0.02) as in GPT-2.
    pub fn new(vocab: usize, hidden: usize, seq_len: usize, rng: &mut SeedStream) -> Self {
        Self {
            table: rng.normal_matrix(vocab, hidden, 0.02),
            pos: rng.normal_matrix(seq_len, hidden, 0.02),
            grad_table: Matrix::zeros(vocab, hidden),
            grad_pos: Matrix::zeros(seq_len, hidden),
            seq_len,
            lookup_cache: VecDeque::new(),
            project_cache: VecDeque::new(),
        }
    }

    /// Vocabulary size.
    pub fn vocab(&self) -> usize {
        self.table.rows()
    }

    /// Hidden dimensionality.
    pub fn hidden(&self) -> usize {
        self.table.cols()
    }

    /// The token-table parameter (read access for replication/tests).
    pub fn table(&self) -> &Matrix {
        &self.table
    }

    /// Mutable token-table access (used to replicate the table across the
    /// first/last stage at initialization, as Megatron does).
    pub fn table_mut(&mut self) -> &mut Matrix {
        &mut self.table
    }

    /// Accumulated token-table gradient (the tensor EMB sync all-reduces).
    pub fn grad(&self) -> &Matrix {
        &self.grad_table
    }

    /// Replaces the token-table gradient (after synchronization).
    ///
    /// # Panics
    ///
    /// Panics if the shape differs from the table.
    pub fn set_grad(&mut self, grad: Matrix) {
        assert_eq!(
            grad.shape(),
            self.table.shape(),
            "embedding grad shape mismatch"
        );
        self.grad_table = grad;
    }

    /// Mutable (table, grad) pair for the optimizer step.
    pub fn table_param(&mut self) -> (&mut Matrix, &mut Matrix) {
        (&mut self.table, &mut self.grad_table)
    }

    /// Both parameter pairs at once: `[(table, grad_table), (pos, grad_pos)]`.
    /// Needed when a caller must hold mutable references to both
    /// simultaneously (disjoint-field split).
    #[allow(clippy::type_complexity)]
    pub fn both_params(&mut self) -> [(&mut Matrix, &mut Matrix); 2] {
        [
            (&mut self.table, &mut self.grad_table),
            (&mut self.pos, &mut self.grad_pos),
        ]
    }

    /// Total scalar parameters (token + positional tables).
    pub fn param_count(&self) -> usize {
        self.table.len() + self.pos.len()
    }

    /// Zeroes accumulated gradients.
    pub fn zero_grad(&mut self) {
        self.grad_table.fill_zero();
        self.grad_pos.fill_zero();
    }

    /// Input-side forward: maps tokens (grouped in sequences of `seq_len`)
    /// to `(tokens.len() x hidden)` vectors, adding positional embeddings.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len()` is not a multiple of `seq_len` or a token
    /// id is out of range.
    pub fn lookup(&mut self, tokens: &[usize]) -> Matrix {
        assert!(
            tokens.len().is_multiple_of(self.seq_len),
            "token count {} not a multiple of seq_len {}",
            tokens.len(),
            self.seq_len
        );
        let mut out = Matrix::zeros(tokens.len(), self.hidden());
        for (i, &t) in tokens.iter().enumerate() {
            assert!(t < self.vocab(), "token id {t} out of range");
            let (row, pos) = (self.table.row(t), self.pos.row(i % self.seq_len));
            for ((o, &e), &p) in out.row_mut(i).iter_mut().zip(row).zip(pos) {
                *o = e + p;
            }
        }
        self.lookup_cache.push_back(tokens.to_vec());
        out
    }

    /// Input-side backward: scatter-adds `grad` into the token and
    /// positional gradients.
    ///
    /// # Panics
    ///
    /// Panics if no lookup is cached.
    pub fn backward_lookup(&mut self, grad: &Matrix) {
        let tokens = self
            .lookup_cache
            .pop_front()
            .expect("backward_lookup without lookup");
        assert_eq!(grad.rows(), tokens.len(), "lookup grad row mismatch");
        // Each element still gets its additions in token order; the two
        // tables are separate buffers, so walking them one after the
        // other changes no sum.
        for (i, &t) in tokens.iter().enumerate() {
            let g = grad.row(i);
            for (acc, &v) in self.grad_table.row_mut(t).iter_mut().zip(g) {
                *acc += v;
            }
            for (acc, &v) in self.grad_pos.row_mut(i % self.seq_len).iter_mut().zip(g) {
                *acc += v;
            }
        }
    }

    /// Output-side forward (tied weights): logits = `hidden_states * table^T`.
    pub fn project(&mut self, hidden_states: &Matrix) -> Matrix {
        let logits = hidden_states.matmul_t(&self.table);
        self.project_cache.push_back(hidden_states.clone());
        logits
    }

    /// Output-side backward: accumulates the table gradient from the
    /// logits gradient and returns the gradient w.r.t. the hidden states.
    ///
    /// # Panics
    ///
    /// Panics if no projection is cached.
    pub fn backward_project(&mut self, grad_logits: &Matrix) -> Matrix {
        let h = self
            .project_cache
            .pop_front()
            .expect("backward_project without project");
        // logits = h * T^T  =>  dT = dLogits^T * h, dh = dLogits * T.
        self.grad_table.add_assign(&grad_logits.t_matmul(&h));
        grad_logits.matmul(&self.table)
    }

    /// Outstanding cached activations (both sides).
    pub fn pending_activations(&self) -> usize {
        self.lookup_cache.len() + self.project_cache.len()
    }

    /// Drops all cached activations (after evaluation-only forwards).
    pub fn clear_caches(&mut self) {
        self.lookup_cache.clear();
        self.project_cache.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn emb() -> Embedding {
        Embedding::new(10, 4, 2, &mut SeedStream::new(1))
    }

    #[test]
    fn lookup_returns_table_plus_pos_rows() {
        let mut e = emb();
        let out = e.lookup(&[3, 7]);
        for c in 0..4 {
            assert_eq!(out[(0, c)], e.table[(3, c)] + e.pos[(0, c)]);
            assert_eq!(out[(1, c)], e.table[(7, c)] + e.pos[(1, c)]);
        }
    }

    #[test]
    fn backward_lookup_scatter_adds() {
        let mut e = emb();
        e.lookup(&[2, 2]); // same token twice
        let g = Matrix::full(2, 4, 1.0);
        e.backward_lookup(&g);
        for c in 0..4 {
            assert_eq!(e.grad()[(2, c)], 2.0); // both rows accumulate
            assert_eq!(e.grad()[(0, c)], 0.0);
        }
    }

    /// The index loops `lookup` / `backward_lookup` ran before the
    /// row-slice rewrite, kept verbatim as the bit-exactness oracle.
    fn old_lookup(e: &Embedding, tokens: &[usize]) -> Matrix {
        let mut out = Matrix::zeros(tokens.len(), e.hidden());
        for (i, &t) in tokens.iter().enumerate() {
            let p = i % e.seq_len;
            for c in 0..e.hidden() {
                out[(i, c)] = e.table[(t, c)] + e.pos[(p, c)];
            }
        }
        out
    }

    fn old_backward_lookup(e: &mut Embedding, tokens: &[usize], grad: &Matrix) {
        for (i, &t) in tokens.iter().enumerate() {
            let p = i % e.seq_len;
            for c in 0..grad.cols() {
                e.grad_table[(t, c)] += grad[(i, c)];
                e.grad_pos[(p, c)] += grad[(i, c)];
            }
        }
    }

    #[test]
    fn lookup_and_its_backward_are_bit_identical_to_the_index_loops() {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let mut rng = SeedStream::new(12);
        let (vocab, hidden, seq_len) = (11, 7, 4);
        let mut e = Embedding::new(vocab, hidden, seq_len, &mut rng);
        let mut old = Embedding::new(vocab, hidden, seq_len, &mut SeedStream::new(0));
        old.table = e.table.clone();
        old.pos = e.pos.clone();
        // Repeated tokens and repeated positions: several additions land
        // on one gradient element, whose order must not change.
        let tokens: Vec<usize> = (0..12).map(|i| (i * 7) % 5).collect();
        for _ in 0..2 {
            let y = e.lookup(&tokens);
            assert_eq!(bits(&y), bits(&old_lookup(&old, &tokens)));
            let g = rng.uniform_matrix(tokens.len(), hidden, 1.0);
            e.backward_lookup(&g);
            old_backward_lookup(&mut old, &tokens, &g);
            assert_eq!(bits(&e.grad_table), bits(&old.grad_table));
            assert_eq!(bits(&e.grad_pos), bits(&old.grad_pos));
        }
    }

    #[test]
    fn project_is_table_transpose_matmul() {
        let mut e = emb();
        let h = Matrix::full(2, 4, 1.0);
        let logits = e.project(&h);
        assert_eq!(logits.shape(), (2, 10));
        let expect: f32 = (0..4).map(|c| e.table[(5, c)]).sum();
        assert!((logits[(0, 5)] - expect).abs() < 1e-6);
    }

    #[test]
    fn backward_project_gradients_match_finite_difference() {
        let mut rng = SeedStream::new(4);
        let h = rng.uniform_matrix(2, 4, 0.5);
        let probe = rng.uniform_matrix(2, 10, 1.0);
        let mut e = emb();
        e.project(&h);
        let dh = e.backward_project(&probe);
        let eps = 1e-3;
        // d loss / d h[0,1]
        let fd = |delta: f32| {
            let mut e2 = emb();
            let mut hp = h.clone();
            hp[(0, 1)] += delta;
            e2.project(&hp).dot(&probe)
        };
        let numeric = (fd(eps) - fd(-eps)) / (2.0 * eps);
        assert!((numeric - dh[(0, 1)]).abs() < 1e-2);
        // d loss / d table[3,2]
        let fd_t = |delta: f32| {
            let mut e2 = emb();
            e2.table_mut()[(3, 2)] += delta;
            e2.project(&h).dot(&probe)
        };
        let numeric_t = (fd_t(eps) - fd_t(-eps)) / (2.0 * eps);
        assert!((numeric_t - e.grad()[(3, 2)]).abs() < 1e-2);
    }

    #[test]
    fn tied_gradients_accumulate_from_both_sides() {
        // A single replica used for both lookup and projection (1-stage
        // pipeline) accumulates gradient from both paths.
        let mut e = emb();
        let x = e.lookup(&[1, 2]);
        let logits = e.project(&x);
        let g = Matrix::full(logits.rows(), logits.cols(), 0.1);
        let _dh = e.backward_project(&g);
        let before = e.grad().clone();
        e.backward_lookup(&Matrix::full(2, 4, 0.1));
        // Lookup backward must add on top of projection backward.
        assert!(e.grad().sub(&before).norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_token_panics() {
        emb().lookup(&[10, 0]);
    }

    #[test]
    fn zero_grad_clears_both_tables() {
        let mut e = emb();
        e.lookup(&[0, 1]);
        e.backward_lookup(&Matrix::full(2, 4, 1.0));
        e.zero_grad();
        assert_eq!(e.grad().norm(), 0.0);
    }
}
