//! Fig. 9: validation perplexity curves over training for the four
//! Table-2 configurations (small-model numerical proxy).
//!
//! Knobs: `OPT_QUALITY_ITERS` (default 300) sets the small-model
//! quality-proxy training iterations; CI smoke uses `OPT_QUALITY_ITERS=5`.

use opt_bench::{banner, print_table, quality_iters};
use optimus_cc::{QualityConfig, Trainer, TrainerConfig};

fn main() {
    let iters = quality_iters(300);
    banner("Fig. 9 — validation PPL over training (small-model proxy)");
    let mut curves = Vec::new();
    for (label, q) in QualityConfig::table2_columns() {
        let mut cfg = TrainerConfig::small_test(q, iters);
        cfg.validate_every = (iters / 12).max(1);
        let mut t = Trainer::launch(cfg);
        let report = t.train();
        t.shutdown();
        curves.push((label, report.val_points));
    }
    // Print as an aligned series table: one row per validation point.
    let n = curves.iter().map(|(_, v)| v.len()).min().unwrap_or(0);
    let mut rows = Vec::new();
    for i in 0..n {
        let mut row = vec![curves[0].1[i].iter.to_string()];
        for (_, pts) in &curves {
            row.push(format!("{:.3}", pts[i].perplexity()));
        }
        rows.push(row);
    }
    let headers: Vec<&str> = std::iter::once("iter")
        .chain(curves.iter().map(|(l, _)| *l))
        .collect();
    print_table(&headers, &rows);
    println!("\nPaper shape: CB and CB+FE track the baseline curve; CB+FE+SC converges");
    println!("slightly above it (the DP error-feedback staleness trade-off).");
}
