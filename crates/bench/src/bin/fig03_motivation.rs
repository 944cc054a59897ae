//! Fig. 3: motivational breakdown on GPT-2.5B (125K iterations) and the
//! model-quality damage of naive compression versus Optimus-CC.
//!
//! Knobs: `OPT_QUALITY_ITERS` (default 300) sets the small-model
//! quality-proxy training iterations; CI smoke uses `OPT_QUALITY_ITERS=5`.

use opt_bench::{banner, days, print_table, quality_iters};
use opt_sim::{breakdown, SimConfig};
use optimus_cc::{QualityConfig, Trainer, TrainerConfig};

fn main() {
    let iters = quality_iters(300);

    banner("Fig. 3 (left) — execution-time breakdown, GPT-2.5B, 125K iters");
    let cfg = SimConfig::paper_gpt_2_5b();
    let plans: Vec<(&str, QualityConfig)> = vec![
        ("Baseline", QualityConfig::baseline()),
        (
            "naive DP",
            QualityConfig::naive_dp(QualityConfig::PAPER_DP_RANK),
        ),
        (
            "naive CB",
            QualityConfig::naive_cb(QualityConfig::PAPER_CB_RANK),
        ),
        ("Opt-CC", QualityConfig::cb_fe_sc().at_paper_ranks()),
    ];
    let mut rows = Vec::new();
    for (label, plan) in &plans {
        let b = breakdown(&cfg.clone().with_plan(*plan));
        rows.push(vec![
            label.to_string(),
            days(b.total, 125_000),
            format!("{:.3}", b.fwd_bwd),
            format!("{:.3}", b.dp_exposed),
            format!("{:.3}", b.interstage_exposed),
            format!("{:.3}", b.emb_exposed),
        ]);
    }
    print_table(
        &[
            "Config",
            "Days/125K",
            "FWD+BWD (s)",
            "DP (s)",
            "Inter-stage (s)",
            "EMB (s)",
        ],
        &rows,
    );
    println!("Paper: baseline 8.00 days -> Opt-CC 6.97 days on GPT-2.5B.");

    banner("Fig. 3 (right) — validation PPL of naive compression (small-model proxy)");
    let quality: Vec<(&str, QualityConfig)> = vec![
        ("Baseline", QualityConfig::baseline()),
        (
            "naive DP",
            QualityConfig::naive_dp(QualityConfig::SMALL_DP_RANK),
        ),
        (
            "naive CB",
            QualityConfig::naive_cb(QualityConfig::SMALL_CB_RANK),
        ),
        ("Opt-CC", QualityConfig::cb_fe_sc()),
        ("Opt-CC (TopK)", QualityConfig::cb_topk(0.05)),
    ];
    let mut rows = Vec::new();
    for (label, q) in quality {
        let mut t = Trainer::launch(TrainerConfig::small_test(q, iters));
        let report = t.train();
        t.shutdown();
        rows.push(vec![
            label.to_string(),
            format!("{:.3}", report.final_val_ppl()),
        ]);
    }
    print_table(&["Config", "Val. PPL (proxy)"], &rows);
    println!("Paper shape: naive DP/CB noticeably raise PPL; Opt-CC matches baseline;");
    println!("Opt-CC (TopK) is worse than the low-rank Opt-CC.");
}
