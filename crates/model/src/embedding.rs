//! Token + positional embedding with tied output projection.
//!
//! In GPT pretraining the same embedding table converts tokens to vectors
//! at the input *and* converts the final hidden states back to vocabulary
//! logits at the output. Under pipeline parallelism the first and last
//! stages each hold a replica of the table, and their gradients must be
//! synchronized every iteration — the "EMB Sync" all-reduce whose fusion
//! is the paper's §6 contribution.

use crate::ParamRef;
use opt_tensor::{Matrix, SeedStream};

/// A replica of the shared embedding: token table (`vocab x hidden`) plus a
/// learned positional table (`seq_len x hidden`).
///
/// The first pipeline stage calls [`Embedding::lookup`]/[`Embedding::backward_lookup`];
/// the last stage calls [`Embedding::project`]/[`Embedding::backward_project`]
/// on its own replica. Both accumulate into [`Embedding::grad`], which the
/// runtime all-reduces (separately or fused, §6). The embedding keeps no
/// activations: each backward is handed the tokens or hidden states of
/// its forward.
#[derive(Debug)]
pub struct Embedding {
    table: Matrix,
    pos: Matrix,
    grad_table: Matrix,
    grad_pos: Matrix,
    seq_len: usize,
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

    /// The token table and the positional table with their gradients,
    /// named `"embedding.table"` and `"embedding.pos"`.
    pub fn params(&mut self) -> [ParamRef<'_>; 2] {
        [
            ParamRef {
                name: "embedding.table",
                value: &mut self.table,
                grad: &mut self.grad_table,
            },
            ParamRef {
                name: "embedding.pos",
                value: &mut self.pos,
                grad: &mut self.grad_pos,
            },
        ]
    }

    /// Input-side forward: maps tokens (grouped in sequences of `seq_len`)
    /// to `(tokens.len() x hidden)` vectors, adding positional embeddings.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len()` is not a multiple of `seq_len` or a token
    /// id is out of range.
    pub fn lookup(&self, tokens: &[usize]) -> Matrix {
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
        out
    }

    /// Input-side backward for the `tokens` of one lookup: scatter-adds
    /// `grad` into the token and positional gradients.
    ///
    /// # Panics
    ///
    /// Panics if `grad` does not have one row per token.
    pub fn backward_lookup(&mut self, tokens: &[usize], grad: &Matrix) {
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
    pub fn project(&self, hidden_states: &Matrix) -> Matrix {
        hidden_states.matmul_t(&self.table)
    }

    /// Output-side backward for the `hidden_states` of one projection:
    /// accumulates the table gradient from the logits gradient and returns
    /// the gradient w.r.t. the hidden states.
    pub fn backward_project(&mut self, hidden_states: &Matrix, grad_logits: &Matrix) -> Matrix {
        // logits = h * T^T  =>  dT = dLogits^T * h, dh = dLogits * T.
        self.grad_table
            .add_assign(&grad_logits.t_matmul(hidden_states));
        grad_logits.matmul(&self.table)
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
        let e = emb();
        let out = e.lookup(&[3, 7]);
        for c in 0..4 {
            assert_eq!(out[(0, c)], e.table[(3, c)] + e.pos[(0, c)]);
            assert_eq!(out[(1, c)], e.table[(7, c)] + e.pos[(1, c)]);
        }
    }

    #[test]
    fn backward_lookup_scatter_adds() {
        let mut e = emb();
        let g = Matrix::full(2, 4, 1.0);
        e.backward_lookup(&[2, 2], &g); // same token twice
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
            e.backward_lookup(&tokens, &g);
            old_backward_lookup(&mut old, &tokens, &g);
            assert_eq!(bits(&e.grad_table), bits(&old.grad_table));
            assert_eq!(bits(&e.grad_pos), bits(&old.grad_pos));
        }
    }

    #[test]
    fn project_is_table_transpose_matmul() {
        let e = emb();
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
        let dh = e.backward_project(&h, &probe);
        let eps = 1e-3;
        // d loss / d h[0,1]
        let fd = |delta: f32| {
            let mut hp = h.clone();
            hp[(0, 1)] += delta;
            emb().project(&hp).dot(&probe)
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
        let _dh = e.backward_project(&x, &g);
        let before = e.grad().clone();
        e.backward_lookup(&[1, 2], &Matrix::full(2, 4, 0.1));
        // Lookup backward must add on top of projection backward.
        assert!(e.grad().sub(&before).norm() > 0.0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_token_panics() {
        emb().lookup(&[10, 0]);
    }

    /// `Stage::zero_grad` zeroes through `params()`, so both tables'
    /// gradients must be reachable there.
    #[test]
    fn zero_grad_clears_both_tables() {
        let mut e = emb();
        e.backward_lookup(&[0, 1], &Matrix::full(2, 4, 1.0));
        assert!(e.grad_pos.norm() > 0.0);
        for p in e.params() {
            p.grad.fill_zero();
        }
        assert_eq!(e.grad().norm(), 0.0);
        assert_eq!(e.grad_pos.norm(), 0.0);
    }
}
