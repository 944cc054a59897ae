//! End-to-end single-process training sanity tests: the tiny GPT must be
//! able to learn simple sequence distributions, otherwise no compression
//! quality experiment downstream is meaningful.

use opt_model::{cross_entropy, Adam, GptConfig, Optimizer, Stage};
use opt_tensor::SeedStream;

/// Deterministic cyclic corpus: token (i+1) always follows token i.
fn cyclic_batch(cfg: &GptConfig, n_seq: usize, rng: &mut SeedStream) -> (Vec<usize>, Vec<usize>) {
    let mut tokens = Vec::with_capacity(n_seq * cfg.seq_len);
    for _ in 0..n_seq {
        let start = rng.below(cfg.vocab);
        for p in 0..cfg.seq_len {
            tokens.push((start + p) % cfg.vocab);
        }
    }
    let targets = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
    (tokens, targets)
}

fn train_single_stage(opt: &mut dyn Optimizer, iters: usize) -> (f32, f32) {
    let cfg = GptConfig::tiny();
    let mut stages = Stage::build_pipeline(&cfg, 1, 12);
    let mut rng = SeedStream::new(7);
    let mut first_loss = None;
    let mut last_loss = 0.0;
    for _ in 0..iters {
        let (tokens, targets) = cyclic_batch(&cfg, 4, &mut rng);
        let logits = stages[0].forward_tokens(&tokens);
        let out = cross_entropy(&logits, &targets);
        stages[0].backward(&out.grad_logits);
        let mut params = stages[0].params();
        opt.step(&mut params);
        stages[0].zero_grad();
        first_loss.get_or_insert(out.loss);
        last_loss = out.loss;
    }
    (first_loss.unwrap(), last_loss)
}

/// Plain SGD, `w -= lr g`: unlike Adam, its step scales with the gradient,
/// so a constant factor on any gradient changes the trajectory.
fn sgd_step(stage: &mut Stage, lr: f32) {
    for p in stage.params() {
        p.value.axpy(-lr, p.grad);
    }
}

#[test]
fn tiny_gpt_learns_cyclic_language_with_adam() {
    let (first, last) = train_single_stage(&mut Adam::new(3e-3), 120);
    assert!(
        last < first * 0.5,
        "loss did not halve: first {first}, last {last}"
    );
    // Cyclic successor task is learnable to low loss.
    assert!(last < 1.5, "final loss too high: {last}");
}

#[test]
fn pipelined_training_matches_single_stage_exactly() {
    // One optimizer step on a 2-stage pipeline must produce the same loss
    // trajectory as the monolithic model (same seeds, plain SGD).
    let cfg = GptConfig::tiny();
    let mut mono = Stage::build_pipeline(&cfg, 1, 5);
    let mut pipe = Stage::build_pipeline(&cfg, 2, 5);
    let mut rng_a = SeedStream::new(3);
    let mut rng_b = SeedStream::new(3);
    let mut losses = (Vec::new(), Vec::new());
    for _ in 0..5 {
        let (tokens, targets) = cyclic_batch(&cfg, 2, &mut rng_a);
        let logits = mono[0].forward_tokens(&tokens);
        let out = cross_entropy(&logits, &targets);
        mono[0].backward(&out.grad_logits);
        sgd_step(&mut mono[0], 0.1);
        mono[0].zero_grad();
        losses.0.push(out.loss);

        let (tokens, targets) = cyclic_batch(&cfg, 2, &mut rng_b);
        let h = pipe[0].forward_tokens(&tokens);
        let logits = pipe[1].forward_hidden(&h);
        let out = cross_entropy(&logits, &targets);
        let g = pipe[1].backward(&out.grad_logits).unwrap();
        pipe[0].backward(&g);
        // Single data-parallel rank: embedding sync = average the two
        // replica grads (mathematically what EMB sync does).
        let g0 = pipe[0].embedding_grad().unwrap().clone();
        let g1 = pipe[1].embedding_grad().unwrap().clone();
        let sum = g0.add(&g1);
        pipe[0].set_embedding_grad(sum.clone());
        pipe[1].set_embedding_grad(sum);
        sgd_step(&mut pipe[0], 0.1);
        sgd_step(&mut pipe[1], 0.1);
        pipe[0].zero_grad();
        pipe[1].zero_grad();
        losses.1.push(out.loss);
    }
    for (a, b) in losses.0.iter().zip(&losses.1) {
        assert!(
            (a - b).abs() < 1e-4,
            "pipeline diverged from monolithic: {:?} vs {:?}",
            losses.0,
            losses.1
        );
    }
}

#[test]
fn perplexity_starts_near_vocab_size() {
    // An untrained model on uniform data has PPL ~ vocab.
    let cfg = GptConfig::tiny();
    let mut stages = Stage::build_pipeline(&cfg, 1, 9);
    let mut rng = SeedStream::new(11);
    let (tokens, targets) = cyclic_batch(&cfg, 8, &mut rng);
    let logits = stages[0].forward_tokens(&tokens);
    let out = cross_entropy(&logits, &targets);
    let ppl = out.perplexity();
    assert!(
        ppl > cfg.vocab as f32 * 0.4 && ppl < cfg.vocab as f32 * 2.5,
        "untrained PPL {ppl} implausible for vocab {}",
        cfg.vocab
    );
}
