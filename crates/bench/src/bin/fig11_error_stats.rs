//! Fig. 11: empirical validation of Eq. 14 — the preserved compression
//! error is near-zero-mean and independent of the activation differences.
//!
//! Knobs: `OPT_QUALITY_ITERS` (default 150) sets the small-model
//! quality-proxy training iterations; CI smoke uses `OPT_QUALITY_ITERS=5`.

use opt_bench::{banner, print_table, quality_iters};
use optimus_cc::{QualityConfig, Trainer, TrainerConfig};

fn main() {
    let iters = quality_iters(150);
    banner("Fig. 11 — Avg(eps), Avg(Y(i)-Y(i+n)), cos(eps, Ydiff) during training");
    let mut cfg = TrainerConfig::small_test(QualityConfig::cb(), iters);
    cfg.collect_error_stats = true;
    let mut t = Trainer::launch(cfg);
    let report = t.train();
    t.shutdown();

    // Aggregate per training phase (eighths of the run).
    let phases = 8;
    let mut rows = Vec::new();
    for ph in 0..phases {
        let lo = iters * ph / phases;
        let hi = iters * (ph + 1) / phases;
        let samples: Vec<_> = report
            .error_stats
            .iter()
            .filter(|p| p.iter >= lo && p.iter < hi)
            .collect();
        if samples.is_empty() {
            continue;
        }
        let n = samples.len() as f32;
        let avg = |f: &dyn Fn(&optimus_cc::ErrorStatPoint) -> f32| {
            samples.iter().map(|p| f(p)).sum::<f32>() / n
        };
        rows.push(vec![
            format!("{lo}-{hi}"),
            format!("{:+.5}", avg(&|p| p.error_mean)),
            format!("{:+.5}", avg(&|p| p.act_diff_mean)),
            format!("{:+.4}", avg(&|p| p.cosine)),
            format!("{:.4}", avg(&|p| p.cosine.abs())),
        ]);
    }
    print_table(
        &[
            "iters",
            "Avg(eps)",
            "Avg(Y(i)-Y(i+n))",
            "mean cos",
            "mean |cos|",
        ],
        &rows,
    );
    println!("\nPaper: all three stay ~0, so Eq. 14 holds and G* approximates G (Eq. 10).");
    println!("Samples collected: {}", report.error_stats.len());
}
