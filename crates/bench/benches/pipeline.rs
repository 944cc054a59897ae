//! Criterion benchmarks of the numerical 3D-parallel trainer: one full
//! training iteration (all micro-batches, DP exchange, embedding sync)
//! for baseline vs full Optimus-CC, which demonstrates that compression
//! also reduces *our* in-process wall-clock (less data through channels);
//! and the linear-layer GEMMs that dominate that iteration's compute.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
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

/// The three GEMM orientations at 128x128 · 128x512, the mid model's MLP
/// up-projection (`matmul`), its weight gradient (`t_matmul`) and the
/// same product against a transposed-stored B (`matmul_t`). Throughput is
/// in FLOPs, so `Melem/s` reads as MFLOP/s.
fn bench_gemm(c: &mut Criterion) {
    let (m, k, n) = (128usize, 128usize, 512usize);
    let mut group = c.benchmark_group("gemm");
    group.throughput(Throughput::Elements((2 * m * n * k) as u64));
    let mut rng = SeedStream::new(4);
    let a = rng.uniform_matrix(m, k, 1.0);
    let at = a.transpose();
    let b = rng.uniform_matrix(k, n, 1.0);
    let bt = b.transpose();
    group.bench_function("matmul_128x128x512", |bench| {
        bench.iter(|| std::hint::black_box(&a).matmul(&b));
    });
    group.bench_function("t_matmul_128x128x512", |bench| {
        bench.iter(|| std::hint::black_box(&at).t_matmul(&b));
    });
    group.bench_function("matmul_t_128x128x512", |bench| {
        bench.iter(|| std::hint::black_box(&a).matmul_t(&bt));
    });
    group.finish();
}

criterion_group!(benches, bench_train_iter, bench_gemm);
criterion_main!(benches);
