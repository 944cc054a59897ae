//! Table 4: effect of lazy error propagation on zero-shot accuracy —
//! Baseline vs CB without LEP vs CB with LEP.
//!
//! Knobs: `OPT_QUALITY_ITERS` (default 400) sets the small-model
//! quality-proxy training iterations; CI smoke uses `OPT_QUALITY_ITERS=5`.

use opt_bench::{banner, print_table, quality_iters};
use opt_data::ZeroShotTask;
use optimus_cc::{QualityConfig, Trainer, TrainerConfig};

fn main() {
    let iters = quality_iters(400);
    let n_examples = 200;

    banner("Table 4 — lazy error propagation ablation (small-model proxy)");
    let configs: Vec<(&str, QualityConfig)> = vec![
        ("Baseline", QualityConfig::baseline()),
        ("CB (Non-LEP)", QualityConfig::cb_non_lep()),
        ("CB (LEP)", QualityConfig::cb()),
    ];
    let mut scores: Vec<(String, Vec<f64>, f32)> = Vec::new();
    for (label, q) in configs {
        let mut t = Trainer::launch(TrainerConfig::small_test(q, iters));
        let report = t.train();
        let suite = t.zero_shot_suite(n_examples, 7);
        t.shutdown();
        scores.push((
            label.to_string(),
            suite.iter().map(|(_, s)| s.accuracy()).collect(),
            report.final_val_ppl(),
        ));
    }
    let mut rows = Vec::new();
    for (ti, task) in ZeroShotTask::ALL.iter().enumerate() {
        let mut row = vec![format!("{:?} ({})", task, task.paper_benchmark())];
        for (_, accs, _) in &scores {
            row.push(format!("{:.2}%", accs[ti] * 100.0));
        }
        rows.push(row);
    }
    let mut ppl_row = vec!["Val. PPL".to_string()];
    for (_, _, ppl) in &scores {
        ppl_row.push(format!("{ppl:.3}"));
    }
    rows.push(ppl_row);
    let headers: Vec<String> = std::iter::once("Task".to_string())
        .chain(scores.iter().map(|(l, _, _)| l.clone()))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&headers_ref, &rows);
    println!("\nPaper shape: Non-LEP has the lowest accuracies; LEP restores them to baseline.");
}
