//! Criterion benchmarks of the discrete-event cluster simulator — one
//! benchmark per paper-scale experiment family, so regenerating every
//! timing figure stays cheap.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use opt_model::GptConfig;
use opt_schedule::QualityConfig;
use opt_sim::{breakdown, simulate, SimConfig};

fn bench_simulate(c: &mut Criterion) {
    let mut group = c.benchmark_group("simulate_iteration");
    for (name, cfg) in [
        ("gpt2.5b", SimConfig::paper_gpt_2_5b()),
        ("gpt8.3b", SimConfig::paper_gpt_8_3b()),
        ("gpt175b", {
            let mut c = SimConfig::paper_defaults(GptConfig::gpt_175b());
            c.pp = 16;
            c
        }),
    ] {
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| simulate(std::hint::black_box(cfg)));
        });
    }
    group.finish();
}

fn bench_breakdown(c: &mut Criterion) {
    let mut group = c.benchmark_group("breakdown_ablation");
    for (name, plan) in [
        ("baseline", QualityConfig::baseline()),
        ("cb_fe_sc", QualityConfig::cb_fe_sc().at_paper_ranks()),
    ] {
        let cfg = SimConfig::paper_gpt_2_5b().with_plan(plan);
        group.bench_with_input(BenchmarkId::from_parameter(name), &cfg, |b, cfg| {
            b.iter(|| breakdown(std::hint::black_box(cfg)));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_simulate, bench_breakdown);
criterion_main!(benches);
