//! Criterion benchmarks of the numerical 3D-parallel trainer: one full
//! training iteration (all micro-batches, DP exchange, embedding sync)
//! for baseline vs full Optimus-CC, which demonstrates that compression
//! also reduces *our* in-process wall-clock (less data through channels);
//! the GPT-mid model step that dominates the benchmark's dp2-mid
//! iterations; one attention layer's forward + backward, where the
//! per-head products run batched; and the linear-layer GEMMs that
//! dominate that step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use opt_model::{cross_entropy, GptConfig, Layer, MultiHeadAttention, Stage};
use opt_tensor::SeedStream;
use optimus_cc::{QualityConfig, Trainer, TrainerConfig};

fn bench_train_iter(c: &mut Criterion) {
    let mut group = c.benchmark_group("trainer_iteration");
    group.sample_size(10);
    for (name, q) in [
        ("baseline", QualityConfig::baseline()),
        ("cb_fe_sc", QualityConfig::cb_fe_sc()),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &q, |b, q| {
            let mut trainer = Trainer::launch(TrainerConfig::tiny_test(*q, 1));
            b.iter(|| trainer.train_more(1));
            // Leak-free teardown happens on drop of the bench input.
            // (Trainer::shutdown consumes; run it once at the end.)
        });
    }
    group.finish();
}

/// The three GEMM orientations — `matmul`, `t_matmul` (the weight
/// gradient's `Aᵀ·B`) and `matmul_t` (against a transposed-stored B) —
/// at `m x k x n` = 128x128x512, the mid model's MLP up-projection, and
/// at the GPT-small stage's 64-row linears: 64x32x32 (a QKV or output
/// projection, a single `k`-chunk and two column panels) and 64x32x128
/// (the MLP up-projection). Throughput is in FLOPs, so `Melem/s` reads as
/// MFLOP/s.
fn bench_gemm(c: &mut Criterion) {
    let mut group = c.benchmark_group("gemm");
    let mut rng = SeedStream::new(4);
    for (m, k, n) in [(128usize, 128usize, 512usize), (64, 32, 32), (64, 32, 128)] {
        group.throughput(Throughput::Elements((2 * m * n * k) as u64));
        let a = rng.uniform_matrix(m, k, 1.0);
        let at = a.transpose();
        let b = rng.uniform_matrix(k, n, 1.0);
        let bt = b.transpose();
        group.bench_function(format!("matmul_{m}x{k}x{n}"), |bench| {
            bench.iter(|| std::hint::black_box(&a).matmul(&b));
        });
        group.bench_function(format!("t_matmul_{m}x{k}x{n}"), |bench| {
            bench.iter(|| std::hint::black_box(&at).t_matmul(&b));
        });
        group.bench_function(format!("matmul_t_{m}x{k}x{n}"), |bench| {
            bench.iter(|| std::hint::black_box(&a).matmul_t(&bt));
        });
    }
    group.finish();
}

/// One GPT-mid stage step at 128 rows (4 sequences of 32 tokens):
/// forward, loss and backward, the step a dp2-mid iteration spends
/// ~85 % of its time in. Throughput is in tokens.
fn bench_model_step(c: &mut Criterion) {
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
    let mut group = c.benchmark_group("model_step");
    group.sample_size(10);
    group.throughput(Throughput::Elements(tokens.len() as u64));
    group.bench_function("gpt_mid_128_rows", |bench| {
        bench.iter(|| {
            let logits = stage.forward_tokens(std::hint::black_box(&tokens));
            let out = cross_entropy(&logits, &targets);
            stage.backward(&out.grad_logits);
            stage.zero_grad();
            out.loss
        });
    });
    group.finish();
}

/// One `MultiHeadAttention` forward + backward at the GPT-small stage
/// shape (64 rows x hidden 32, 4 heads, sequence 16) and the GPT-mid one
/// (128 x 128, 4 heads, sequence 32): the layer whose six per-head
/// products per micro-batch each run as one batched GEMM. Throughput is
/// in tokens.
fn bench_attention(c: &mut Criterion) {
    let mut group = c.benchmark_group("attention");
    for (name, rows, hidden, seq_len) in [
        ("gpt_small_64_rows", 64usize, 32usize, 16usize),
        ("gpt_mid_128_rows", 128, 128, 32),
    ] {
        let mut rng = SeedStream::new(6);
        let mut attn = MultiHeadAttention::new(hidden, 4, seq_len, &mut rng);
        let x = rng.uniform_matrix(rows, hidden, 1.0);
        let grad = rng.uniform_matrix(rows, hidden, 1.0);
        group.throughput(Throughput::Elements(rows as u64));
        group.bench_function(name, |bench| {
            bench.iter(|| {
                let (y, saved) = attn.forward(std::hint::black_box(&x));
                let dx = attn.backward(saved, &grad);
                attn.zero_grad();
                (y, dx)
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_train_iter,
    bench_model_step,
    bench_attention,
    bench_gemm
);
criterion_main!(benches);
