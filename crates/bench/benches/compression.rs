//! Criterion benchmarks of the compression kernels (Fig. 15's real-code
//! counterpart): PowerSGD compress/decompress across ranks and shapes,
//! plus the top-k baseline, and the sparse-vs-densify apply sweep behind
//! `opt_tensor::DEFAULT_DENSITY_MAX`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use opt_compress::{Compressor, PowerSgd, TopK};
use opt_tensor::{set_sparse_density_max, sparse_density_max, SeedStream};

fn bench_powersgd(c: &mut Criterion) {
    let mut group = c.benchmark_group("powersgd_compress");
    for &rank in &[2usize, 4, 8, 16] {
        let mut rng = SeedStream::new(1);
        let grad = rng.uniform_matrix(512, 192, 1.0);
        group.throughput(Throughput::Bytes((grad.len() * 2) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(rank), &rank, |b, &rank| {
            let mut comp = PowerSgd::new(rank, 7);
            b.iter(|| comp.compress(std::hint::black_box(&grad)));
        });
    }
    group.finish();

    let mut group = c.benchmark_group("powersgd_decompress");
    for &rank in &[2usize, 4, 8, 16] {
        let mut rng = SeedStream::new(1);
        let grad = rng.uniform_matrix(512, 192, 1.0);
        let payload = PowerSgd::new(rank, 7).compress(&grad);
        group.throughput(Throughput::Bytes((grad.len() * 2) as u64));
        group.bench_with_input(BenchmarkId::from_parameter(rank), &rank, |b, _| {
            b.iter(|| std::hint::black_box(&payload).decompress());
        });
    }
    group.finish();
}

fn bench_baselines(c: &mut Criterion) {
    let mut rng = SeedStream::new(2);
    let grad = rng.uniform_matrix(512, 192, 1.0);
    let bytes = (grad.len() * 2) as u64;

    let mut group = c.benchmark_group("compressor_baselines");
    group.throughput(Throughput::Bytes(bytes));
    group.bench_function("topk_10pct", |b| {
        let mut comp = TopK::new(0.1);
        b.iter(|| comp.compress(std::hint::black_box(&grad)));
    });
    group.finish();
}

/// The evidence for `DEFAULT_DENSITY_MAX`: the same top-k payload applied
/// through the CSR kernels (`sparse`, threshold forced to 1.0) and through
/// decompress + dense subtract (`densify`, threshold 0.0). The two are
/// bit-identical, so the crossover density is purely a speed question.
fn bench_topk_apply(c: &mut Criterion) {
    let mut rng = SeedStream::new(3);
    let grad = rng.uniform_matrix(256, 256, 1.0);
    let orig = sparse_density_max();

    let mut group = c.benchmark_group("topk_apply");
    for density in [0.001, 0.01, 0.1, 0.5] {
        let payload = TopK::new(density).compress(&grad);
        for (path, threshold) in [("sparse", 1.0), ("densify", 0.0)] {
            group.bench_function(BenchmarkId::new(path, density), |b| {
                set_sparse_density_max(threshold);
                // Reused across iterations: repeated subtraction only
                // shifts the values, the work per call stays the same.
                let mut target = grad.clone();
                b.iter(|| std::hint::black_box(&payload).apply_sub(&mut target));
            });
        }
    }
    group.finish();
    set_sparse_density_max(orig);
}

criterion_group!(benches, bench_powersgd, bench_baselines, bench_topk_apply);
criterion_main!(benches);
