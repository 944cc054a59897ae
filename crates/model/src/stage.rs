//! Pipeline stages: consecutive slices of a GPT model.

use crate::block::BlockSaved;
use crate::{Embedding, GptConfig, Layer, LayerNorm, ParamRef, TransformerBlock};
use opt_tensor::{Matrix, SeedStream};
use std::collections::VecDeque;

/// One pipeline stage of a GPT model.
///
/// * The **first** stage owns the input [`Embedding`] (token + position).
/// * The **last** stage owns the final [`LayerNorm`] and a *replica* of the
///   embedding table used for the tied output projection. The two replicas
///   start identical and their gradients must be synchronized every
///   iteration — the traffic the paper's fused embedding synchronization
///   (§6) optimizes.
/// * A single-stage pipeline uses one table for both roles (no sync
///   needed), exactly like single-GPU training.
///
/// # Pipelining contract
///
/// Under 1F1B scheduling a stage runs several forward passes before the
/// first backward arrives. Its layers keep no activations; each forward
/// pushes what its backward needs onto the stage's one queue, and each
/// [`Stage::backward`] pops the *oldest* entry. The 1F1B schedule
/// guarantees backward order equals forward order, so a queue (not a
/// stack) is correct.
///
/// # Example
///
/// ```
/// use opt_model::{GptConfig, Stage};
/// let mut stages = Stage::build_pipeline(&GptConfig::tiny(), 2, 0);
/// let tokens = vec![1usize, 2, 3, 4, 5, 6, 7, 8];
/// let h0 = stages[0].forward_tokens(&tokens);
/// let logits = stages[1].forward_hidden(&h0);
/// assert_eq!(logits.cols(), 32); // vocab
/// ```
pub struct Stage {
    index: usize,
    n_stages: usize,
    embedding: Option<Embedding>,
    blocks: Vec<TransformerBlock>,
    final_ln: Option<LayerNorm>,
    head: Option<Embedding>,
    /// One entry per forward not yet backpropagated, oldest first.
    in_flight: VecDeque<Saved>,
}

/// What one stage forward leaves for its backward.
struct Saved {
    /// The first stage's input tokens.
    tokens: Option<Vec<usize>>,
    /// Each block's state, in block order.
    blocks: Vec<BlockSaved>,
    /// On the last stage: the final norm's state and the normed hidden
    /// states the tied projection read.
    head: Option<(<LayerNorm as Layer>::Saved, Matrix)>,
}

impl std::fmt::Debug for Stage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Stage({}/{}, blocks={}, embedding={}, head={})",
            self.index,
            self.n_stages,
            self.blocks.len(),
            self.embedding.is_some(),
            self.has_head()
        )
    }
}

impl Stage {
    /// Builds all `pp` stages of a pipeline for `cfg`, deterministically
    /// seeded. The first and last stages' embedding tables start identical
    /// (replicated initialization, as Megatron broadcasts them).
    ///
    /// # Panics
    ///
    /// Panics if `pp == 0` or `pp > cfg.n_layers`.
    pub fn build_pipeline(cfg: &GptConfig, pp: usize, seed: u64) -> Vec<Stage> {
        assert!(pp > 0, "pipeline must have at least one stage");
        assert!(pp <= cfg.n_layers, "more stages than layers");
        let mut rng = SeedStream::new(seed);
        let mut emb_rng = rng.fork(0xE0B);
        let input_embedding = Embedding::new(cfg.vocab, cfg.hidden, cfg.seq_len, &mut emb_rng);

        let mut stages = Vec::with_capacity(pp);
        let mut global_layer = 0usize;
        for s in 0..pp {
            let n_blocks = cfg.layers_on_stage(s, pp);
            let mut blocks = Vec::with_capacity(n_blocks);
            for _ in 0..n_blocks {
                // Seed by *global* layer index so any pipeline split of the
                // same seed yields bit-identical weights.
                let mut brng = rng.fork(global_layer as u64);
                global_layer += 1;
                blocks.push(TransformerBlock::new(
                    cfg.hidden,
                    cfg.heads,
                    cfg.seq_len,
                    &mut brng,
                ));
            }
            let is_last = s == pp - 1;
            let head = if is_last && pp > 1 {
                // Replica with identical table (synchronized init).
                let mut replica =
                    Embedding::new(cfg.vocab, cfg.hidden, cfg.seq_len, &mut emb_rng.fork(1));
                *replica.table_mut() = input_embedding.table().clone();
                Some(replica)
            } else {
                None
            };
            stages.push(Stage {
                index: s,
                n_stages: pp,
                // The input embedding is moved into the first stage below.
                embedding: None,
                blocks,
                final_ln: is_last.then(|| LayerNorm::new(cfg.hidden)),
                head,
                in_flight: VecDeque::new(),
            });
        }
        stages[0].embedding = Some(input_embedding);
        stages
    }

    /// Stage index within the pipeline.
    pub fn index(&self) -> usize {
        self.index
    }

    /// Total number of stages in the pipeline this stage belongs to.
    pub fn n_stages(&self) -> usize {
        self.n_stages
    }

    /// Whether this stage holds the input embedding (first stage).
    pub fn has_embedding(&self) -> bool {
        self.embedding.is_some()
    }

    /// Whether this stage computes logits (last stage).
    pub fn has_head(&self) -> bool {
        self.final_ln.is_some()
    }

    /// Number of transformer blocks on this stage.
    pub fn n_blocks(&self) -> usize {
        self.blocks.len()
    }

    /// The last stage's final norm and the table its tied projection
    /// uses: the head replica, or in a single-stage pipeline the input
    /// embedding itself.
    fn head_mut(&mut self) -> Option<(&mut LayerNorm, &mut Embedding)> {
        let table = self.head.as_mut().or(self.embedding.as_mut())?;
        Some((self.final_ln.as_mut()?, table))
    }

    /// Forward pass for the **first** stage: embeds tokens and runs the
    /// stage's blocks. For a single-stage pipeline this also applies the
    /// final norm and tied projection, returning logits.
    ///
    /// # Panics
    ///
    /// Panics if this is not the first stage.
    pub fn forward_tokens(&mut self, tokens: &[usize]) -> Matrix {
        let Some(embedding) = &self.embedding else {
            panic!("forward_tokens on non-first stage");
        };
        let x = embedding.lookup(tokens);
        self.forward(&x, Some(tokens.to_vec()))
    }

    /// Forward pass for middle/last stages on a received hidden matrix.
    /// The last stage returns vocabulary logits.
    ///
    /// # Panics
    ///
    /// Panics if called on the first stage (use
    /// [`Stage::forward_tokens`]).
    pub fn forward_hidden(&mut self, x: &Matrix) -> Matrix {
        assert!(self.index > 0, "use forward_tokens on the first stage");
        self.forward(x, None)
    }

    /// Folds `x` through the blocks, then on the last stage through the
    /// final norm and the tied projection, and queues what the backward
    /// needs. The first block reads `x` by reference, so a received
    /// activation is never copied.
    fn forward(&mut self, x: &Matrix, tokens: Option<Vec<usize>>) -> Matrix {
        let mut blocks = Vec::with_capacity(self.blocks.len());
        let mut h = None;
        for b in &self.blocks {
            let (y, saved) = b.forward(h.as_ref().unwrap_or(x));
            blocks.push(saved);
            h = Some(y);
        }
        let h = h.unwrap_or_else(|| x.clone());
        let (out, head) = match self.head_mut() {
            Some((ln, table)) => {
                let (normed, ln_saved) = ln.forward(&h);
                (table.project(&normed), Some((ln_saved, normed)))
            }
            None => (h, None),
        };
        self.in_flight.push_back(Saved {
            tokens,
            blocks,
            head,
        });
        out
    }

    /// Backward pass for the oldest queued forward. For the last stage
    /// `grad` is the logits gradient; for others it is the incoming
    /// activation gradient from the next stage. Returns the gradient to
    /// send to the previous stage, or `None` on the first stage.
    ///
    /// # Panics
    ///
    /// Panics if no forward is queued.
    pub fn backward(&mut self, grad: &Matrix) -> Option<Matrix> {
        let saved = self
            .in_flight
            .pop_front()
            .expect("Stage::backward without forward");
        // `grad` goes by reference to its first consumer instead of being
        // cloned up front.
        let mut g = None;
        if let (Some((ln_saved, normed)), Some((ln, table))) = (saved.head, self.head_mut()) {
            let dh = table.backward_project(&normed, grad);
            g = Some(ln.backward(ln_saved, &dh));
        }
        for (b, s) in self.blocks.iter_mut().zip(saved.blocks).rev() {
            g = Some(b.backward(s, g.as_ref().unwrap_or(grad)));
        }
        match (saved.tokens, &mut self.embedding) {
            (Some(tokens), Some(embedding)) => {
                embedding.backward_lookup(&tokens, g.as_ref().unwrap_or(grad));
                None
            }
            _ => Some(g.unwrap_or_else(|| grad.clone())),
        }
    }

    /// All trainable parameters of this stage (for the optimizer),
    /// including the embedding replica if present.
    pub fn params(&mut self) -> Vec<ParamRef<'_>> {
        let mut out = Vec::new();
        if let Some(emb) = &mut self.embedding {
            out.extend(emb.params());
        }
        for b in &mut self.blocks {
            out.extend(b.params());
        }
        if let Some(ln) = &mut self.final_ln {
            out.extend(ln.params());
        }
        if let Some(h) = &mut self.head {
            let [table, _pos] = h.params();
            out.push(ParamRef {
                name: "head.table",
                ..table
            });
        }
        out
    }

    /// Parameters excluding the embedding/head tables — the tensors whose
    /// gradients go through the *per-stage* data-parallel all-reduce (the
    /// tables follow the embedding-synchronization path instead).
    pub fn non_embedding_params(&mut self) -> Vec<ParamRef<'_>> {
        self.params()
            .into_iter()
            .filter(|p| p.name != "embedding.table" && p.name != "head.table")
            .collect()
    }

    /// The embedding-table gradient replica on this stage, if any: the
    /// input table on the first stage, the tied head table on the last.
    pub fn embedding_grad(&self) -> Option<&Matrix> {
        if let Some(e) = &self.embedding {
            Some(e.grad())
        } else {
            self.head.as_ref().map(|h| h.grad())
        }
    }

    /// Replaces the embedding-table gradient after synchronization.
    ///
    /// # Panics
    ///
    /// Panics if this stage holds no embedding replica or shapes mismatch.
    pub fn set_embedding_grad(&mut self, grad: Matrix) {
        if let Some(e) = &mut self.embedding {
            e.set_grad(grad);
        } else if let Some(h) = &mut self.head {
            h.set_grad(grad);
        } else {
            panic!("stage {} holds no embedding replica", self.index);
        }
    }

    /// Zeroes every gradient accumulator on the stage.
    pub fn zero_grad(&mut self) {
        for p in self.params() {
            p.grad.fill_zero();
        }
    }

    /// Total scalar parameter count of this stage.
    pub fn param_count(&mut self) -> usize {
        self.params().iter().map(|p| p.value.len()).sum()
    }

    /// Clones every parameter tensor in [`Stage::params`] order — the
    /// stage's contribution to a training checkpoint. Gradients are not
    /// exported: snapshots are taken at iteration boundaries, where every
    /// gradient accumulator is zero.
    pub fn export_state(&mut self) -> Vec<Matrix> {
        self.params().iter().map(|p| p.value.clone()).collect()
    }

    /// Overwrites every parameter tensor from a [`Stage::export_state`]
    /// vector and zeroes the gradient accumulators, restoring the stage to
    /// an iteration boundary.
    ///
    /// # Panics
    ///
    /// Panics if `values` does not match this stage's parameter list in
    /// length or shapes (checkpoint/config mismatch — callers validate
    /// snapshot integrity and config fingerprints before getting here).
    pub fn import_state(&mut self, values: &[Matrix]) {
        let mut params = self.params();
        assert_eq!(
            params.len(),
            values.len(),
            "checkpoint has {} parameter tensors, stage expects {}",
            values.len(),
            params.len()
        );
        for (p, v) in params.iter_mut().zip(values) {
            assert_eq!(
                p.value.shape(),
                v.shape(),
                "checkpoint shape mismatch on {}",
                p.name
            );
            *p.value = v.clone();
        }
        drop(params);
        self.zero_grad();
    }

    /// Drops every queued forward without backpropagating it. Call after
    /// an evaluation-only forward pass (validation / zero-shot probes) so
    /// the queue stays aligned for training.
    pub fn clear_caches(&mut self) {
        self.in_flight.clear();
    }

    /// Forwards queued but not yet backpropagated (0 at iteration
    /// boundaries in a correct schedule).
    pub fn pending_activations(&self) -> usize {
        self.in_flight.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cross_entropy;

    fn tokens_for(cfg: &GptConfig, n_seq: usize) -> Vec<usize> {
        (0..n_seq * cfg.seq_len).map(|i| i % cfg.vocab).collect()
    }

    #[test]
    fn pipeline_structure_first_and_last() {
        let stages = Stage::build_pipeline(&GptConfig::tiny(), 4, 0);
        assert_eq!(stages.len(), 4);
        assert!(stages[0].has_embedding() && !stages[0].has_head());
        assert!(!stages[1].has_embedding() && !stages[1].has_head());
        assert!(stages[3].has_head() && !stages[3].has_embedding());
        let total_blocks: usize = stages.iter().map(Stage::n_blocks).sum();
        assert_eq!(total_blocks, 4);
    }

    #[test]
    fn single_stage_pipeline_ties_embedding() {
        let cfg = GptConfig::tiny();
        let mut stages = Stage::build_pipeline(&cfg, 1, 0);
        let tokens = tokens_for(&cfg, 1);
        let logits = stages[0].forward_tokens(&tokens);
        assert_eq!(logits.shape(), (cfg.seq_len, cfg.vocab));
        // Backward empties the queue.
        let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
        let out = cross_entropy(&logits, &targets);
        assert!(stages[0].backward(&out.grad_logits).is_none());
        assert_eq!(stages[0].pending_activations(), 0);
    }

    #[test]
    fn replicated_tables_start_identical() {
        let cfg = GptConfig::tiny();
        let stages = Stage::build_pipeline(&cfg, 4, 7);
        let first = stages[0].embedding.as_ref().unwrap().table().clone();
        let last = stages[3].head.as_ref().unwrap().table().clone();
        assert_eq!(first, last);
    }

    #[test]
    fn multi_stage_forward_backward_roundtrip() {
        let cfg = GptConfig::tiny();
        let mut stages = Stage::build_pipeline(&cfg, 2, 1);
        let tokens = tokens_for(&cfg, 2);
        let h0 = stages[0].forward_tokens(&tokens);
        let logits = {
            let (_, rest) = stages.split_at_mut(1);
            rest[0].forward_hidden(&h0)
        };
        let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
        let out = cross_entropy(&logits, &targets);
        let g1 = stages[1]
            .backward(&out.grad_logits)
            .expect("grad to stage 0");
        assert_eq!(g1.shape(), h0.shape());
        assert!(stages[0].backward(&g1).is_none());
        for s in &stages {
            assert_eq!(s.pending_activations(), 0);
        }
    }

    fn bits(m: &Matrix) -> Vec<u32> {
        m.as_slice().iter().map(|v| v.to_bits()).collect()
    }

    /// Stage `stage` of a `pp`-stage GPT-tiny pipeline, run two ways on
    /// identical copies: two forwards then two backwards through the
    /// queue, and forward/backward pairs one at a time. Outputs, upstream
    /// gradients and every parameter gradient must match bit for bit, and
    /// `zero_grad` must then leave every gradient zero.
    fn check_two_in_flight(pp: usize, stage: usize) {
        let cfg = GptConfig::tiny();
        let build = || Stage::build_pipeline(&cfg, pp, 5).swap_remove(stage);
        let (mut queued, mut paired) = (build(), build());
        let mut rng = SeedStream::new(9);
        let rows = 2 * cfg.seq_len;
        let tokens: [Vec<usize>; 2] =
            std::array::from_fn(|m| (0..rows).map(|i| (i * 7 + m * 3) % cfg.vocab).collect());
        let xs = [0, 1].map(|_| rng.uniform_matrix(rows, cfg.hidden, 1.0));
        let out_cols = if queued.has_head() {
            cfg.vocab
        } else {
            cfg.hidden
        };
        let grads = [0, 1].map(|_| rng.uniform_matrix(rows, out_cols, 1.0));
        let forward = |s: &mut Stage, m: usize| {
            if s.has_embedding() {
                s.forward_tokens(&tokens[m])
            } else {
                s.forward_hidden(&xs[m])
            }
        };
        let label = format!("pp {pp}, stage {stage}");

        let ys: Vec<Matrix> = (0..2).map(|m| forward(&mut queued, m)).collect();
        assert_eq!(queued.pending_activations(), 2, "{label}");
        let ups: Vec<_> = grads.iter().map(|g| queued.backward(g)).collect();
        assert_eq!(queued.pending_activations(), 0, "{label}");
        for (m, g) in grads.iter().enumerate() {
            let y = forward(&mut paired, m);
            assert_eq!(bits(&ys[m]), bits(&y), "{label}: output {m}");
            let up = paired.backward(g);
            assert_eq!(up.is_some(), stage > 0, "{label}");
            assert_eq!(
                ups[m].as_ref().map(bits),
                up.as_ref().map(bits),
                "{label}: upstream gradient {m}"
            );
        }
        for (q, p) in queued.params().iter().zip(paired.params()) {
            assert!(q.grad.norm() > 0.0, "{label}: {} got no gradient", q.name);
            assert_eq!(bits(q.grad), bits(p.grad), "{label}: {}", q.name);
        }
        queued.zero_grad();
        for p in queued.params() {
            assert!(p.grad.as_slice().iter().all(|&v| v == 0.0), "{label}");
        }
    }

    #[test]
    fn two_in_flight_micro_batches_match_one_at_a_time() {
        check_two_in_flight(1, 0);
        check_two_in_flight(2, 0);
        check_two_in_flight(2, 1);
    }

    #[test]
    #[should_panic(expected = "Stage::backward without forward")]
    fn backward_without_forward_panics() {
        let cfg = GptConfig::tiny();
        let mut stages = Stage::build_pipeline(&cfg, 2, 0);
        stages[1].backward(&Matrix::zeros(cfg.seq_len, cfg.vocab));
    }

    #[test]
    fn pipeline_split_matches_monolithic_model() {
        // A 2-stage pipeline must compute exactly the same function as the
        // 1-stage model with identical seeds.
        let cfg = GptConfig::tiny();
        let mut mono = Stage::build_pipeline(&cfg, 1, 42);
        let mut split = Stage::build_pipeline(&cfg, 2, 42);
        let tokens = tokens_for(&cfg, 1);
        let logits_mono = mono[0].forward_tokens(&tokens);
        let h = split[0].forward_tokens(&tokens);
        let logits_split = split[1].forward_hidden(&h);
        assert!(
            logits_mono.sub(&logits_split).max_abs() < 1e-5,
            "split pipeline diverges from monolithic model"
        );
    }

    #[test]
    fn embedding_grads_appear_on_both_end_stages() {
        let cfg = GptConfig::tiny();
        let mut stages = Stage::build_pipeline(&cfg, 2, 3);
        let tokens = tokens_for(&cfg, 1);
        let h0 = stages[0].forward_tokens(&tokens);
        let logits = stages[1].forward_hidden(&h0);
        let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
        let out = cross_entropy(&logits, &targets);
        let g = stages[1].backward(&out.grad_logits).unwrap();
        stages[0].backward(&g);
        let g_first = stages[0].embedding_grad().unwrap();
        let g_last = stages[1].embedding_grad().unwrap();
        assert!(g_first.norm() > 0.0, "input-side embedding grad empty");
        assert!(g_last.norm() > 0.0, "head-side embedding grad empty");
        // The two replicas see *different* gradients — that is why the
        // paper needs embedding synchronization at all.
        assert!(g_first.sub(g_last).norm() > 1e-6);
    }

    /// `Stage::params()` order as `(name, shape)`: optimizer moments, DP
    /// compression slots and checkpoint shards are all keyed by position
    /// in this list, so it must not move.
    #[test]
    fn params_order_is_pinned() {
        let block: [(&str, (usize, usize)); 12] = [
            ("ln.gamma", (1, 16)),
            ("ln.beta", (1, 16)),
            ("attn.wq", (16, 16)),
            ("attn.wk", (16, 16)),
            ("attn.wv", (16, 16)),
            ("attn.wo", (16, 16)),
            ("ln.gamma", (1, 16)),
            ("ln.beta", (1, 16)),
            ("linear.w", (16, 64)),
            ("linear.b", (1, 64)),
            ("linear.w", (64, 16)),
            ("linear.b", (1, 16)),
        ];
        let input = [("embedding.table", (32, 16)), ("embedding.pos", (8, 16))];
        let final_ln = [("ln.gamma", (1, 16)), ("ln.beta", (1, 16))];
        let layout = |blocks: usize, first: bool, last: bool, head: bool| {
            let mut want = Vec::new();
            if first {
                want.extend(input);
            }
            for _ in 0..blocks {
                want.extend(block);
            }
            if last {
                want.extend(final_ln);
            }
            if head {
                want.push(("head.table", (32, 16)));
            }
            want
        };
        let got = |pp: usize| -> Vec<Vec<(&'static str, (usize, usize))>> {
            Stage::build_pipeline(&GptConfig::tiny(), pp, 0)
                .iter_mut()
                .map(|s| {
                    s.params()
                        .iter()
                        .map(|p| (p.name, p.value.shape()))
                        .collect()
                })
                .collect()
        };
        assert_eq!(got(1), vec![layout(4, true, true, false)]);
        assert_eq!(
            got(2),
            vec![layout(2, true, false, false), layout(2, false, true, true)]
        );
    }

    #[test]
    fn non_embedding_params_exclude_tables() {
        let cfg = GptConfig::tiny();
        let mut stages = Stage::build_pipeline(&cfg, 2, 0);
        for s in &mut stages {
            for p in s.non_embedding_params() {
                assert!(p.name != "embedding.table" && p.name != "head.table");
            }
        }
    }

    #[test]
    fn param_counts_are_consistent_across_splits() {
        let cfg = GptConfig::tiny();
        let count = |pp: usize| -> usize {
            Stage::build_pipeline(&cfg, pp, 0)
                .iter_mut()
                .map(Stage::param_count)
                .sum()
        };
        // pp=2..4 hold one extra vocab*hidden table (the head replica)
        // compared to pp=1 where the table is shared.
        let single = count(1);
        let replica = cfg.vocab * cfg.hidden;
        for pp in [2usize, 4] {
            assert_eq!(count(pp), single + replica, "pp={pp}");
        }
    }

    #[test]
    fn set_embedding_grad_roundtrip() {
        let cfg = GptConfig::tiny();
        let mut stages = Stage::build_pipeline(&cfg, 2, 0);
        let g = Matrix::full(cfg.vocab, cfg.hidden, 0.5);
        stages[0].set_embedding_grad(g.clone());
        assert_eq!(stages[0].embedding_grad().unwrap(), &g);
    }

    #[test]
    fn export_import_state_roundtrip() {
        let cfg = GptConfig::tiny();
        let mut a = Stage::build_pipeline(&cfg, 2, 0);
        let mut b = Stage::build_pipeline(&cfg, 2, 99); // different weights
        let tokens = tokens_for(&cfg, 1);
        let la = {
            let h = a[0].forward_tokens(&tokens);
            let l = a[1].forward_hidden(&h);
            a.iter_mut().for_each(Stage::clear_caches);
            l
        };
        for (src, dst) in a.iter_mut().zip(b.iter_mut()) {
            dst.import_state(&src.export_state());
        }
        let lb = {
            let h = b[0].forward_tokens(&tokens);
            let l = b[1].forward_hidden(&h);
            b.iter_mut().for_each(Stage::clear_caches);
            l
        };
        assert_eq!(la, lb, "imported stage computes a different function");
    }

    #[test]
    #[should_panic(expected = "checkpoint shape mismatch")]
    fn import_state_rejects_wrong_shapes() {
        let cfg = GptConfig::tiny();
        let mut stages = Stage::build_pipeline(&cfg, 1, 0);
        let mut state = stages[0].export_state();
        state[0] = Matrix::zeros(1, 1);
        stages[0].import_state(&state);
    }

    #[test]
    #[should_panic(expected = "more stages than layers")]
    fn too_many_stages_panics() {
        let _ = Stage::build_pipeline(&GptConfig::tiny(), 5, 0);
    }
}
