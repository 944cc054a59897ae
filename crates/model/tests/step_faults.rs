//! Steady-state page-fault regression for the model step.
//!
//! A training step frees its activation caches in backward and builds
//! them again in the next forward. With `Matrix` storage drawn from the
//! `opt-tensor` pool those are the pages the previous step freed; without
//! it the allocator returns them to the kernel and every step faults them
//! in again (≈ 670 minor faults per step on a GPT-mid stage).
//!
//! This file holds one test on purpose: the pool is process-wide, and a
//! test binary of its own keeps other test threads from sharing it.
//! The count comes from `/proc/thread-self/stat`, so it is Linux-only.
#![cfg(target_os = "linux")]

use opt_model::{cross_entropy, GptConfig, Stage};

/// Most minor faults one steady-state step may take on the test thread.
const MAX_FAULTS_PER_STEP: u64 = 32;

/// Minor faults taken so far by the calling thread: field 10 of
/// `/proc/thread-self/stat`, the seventh after the parenthesised name.
fn thread_minor_faults() -> u64 {
    let stat = std::fs::read_to_string("/proc/thread-self/stat").expect("read thread stat");
    let after_name = &stat[stat.rfind(')').expect("stat has a name field") + 1..];
    after_name
        .split_whitespace()
        .nth(7)
        .and_then(|f| f.parse().ok())
        .expect("minflt field")
}

#[test]
fn steady_state_model_step_reuses_its_pages() {
    // The benchmark's GPT-mid at pp = 1: one stage, 4 micro-batch
    // sequences of 32 tokens = 128 rows.
    let cfg = GptConfig {
        name: "GPT-mid".into(),
        n_layers: 4,
        hidden: 128,
        heads: 4,
        vocab: 256,
        seq_len: 32,
    };
    let mut stage = Stage::build_pipeline(&cfg, 1, 5).remove(0);
    let tokens: Vec<usize> = (0..4 * cfg.seq_len).map(|i| i * 7 % cfg.vocab).collect();
    let targets: Vec<usize> = tokens.iter().map(|&t| (t + 1) % cfg.vocab).collect();
    let mut step = || {
        let logits = stage.forward_tokens(&tokens);
        let out = cross_entropy(&logits, &targets);
        stage.backward(&out.grad_logits);
        stage.zero_grad();
    };
    for _ in 0..3 {
        step();
    }
    let steps = 5;
    let before = thread_minor_faults();
    for _ in 0..steps {
        step();
    }
    let per_step = (thread_minor_faults() - before) / steps;
    assert!(
        per_step <= MAX_FAULTS_PER_STEP,
        "{per_step} minor faults per steady-state step (limit {MAX_FAULTS_PER_STEP})"
    );
}
