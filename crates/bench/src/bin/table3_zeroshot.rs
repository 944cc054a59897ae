//! Table 3: zero-shot task accuracy of pretrained models under the four
//! configurations, on the five synthetic probes (LAMBADA/PIQA/MathQA/
//! WinoGrande/RACE substitutes).
//!
//! Knobs: `OPT_QUALITY_ITERS` (default 400) sets the small-model
//! quality-proxy training iterations; CI smoke uses `OPT_QUALITY_ITERS=5`.

use opt_bench::{banner, print_table, quality_iters};
use opt_data::ZeroShotTask;
use optimus_cc::{QualityConfig, Trainer, TrainerConfig};

fn main() {
    let iters = quality_iters(400);
    let n_examples = 200;

    banner("Table 3 — zero-shot accuracy (small-model proxy, no fine-tuning)");
    let mut scores: Vec<(String, Vec<f64>)> = Vec::new();
    for (label, q) in QualityConfig::table2_columns() {
        let mut t = Trainer::launch(TrainerConfig::small_test(q, iters));
        t.train();
        let suite = t.zero_shot_suite(n_examples, 99);
        t.shutdown();
        scores.push((
            label.to_string(),
            suite.iter().map(|(_, s)| s.accuracy()).collect(),
        ));
    }
    let mut rows = Vec::new();
    for (ti, task) in ZeroShotTask::ALL.iter().enumerate() {
        let mut row = vec![format!("{:?} ({})", task, task.paper_benchmark())];
        for (_, accs) in &scores {
            row.push(format!("{:.2}%", accs[ti] * 100.0));
        }
        rows.push(row);
    }
    let headers: Vec<String> = std::iter::once("Task".to_string())
        .chain(scores.iter().map(|(l, _)| l.clone()))
        .collect();
    let headers_ref: Vec<&str> = headers.iter().map(String::as_str).collect();
    print_table(&headers_ref, &rows);
    println!("\nPaper shape: CB and CB+FE comparable to baseline; CB+FE+SC marginally lower.");
}
