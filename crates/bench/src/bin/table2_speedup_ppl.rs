//! Table 2: pretraining time speedup and validation perplexity for
//! GPT-8.3B and GPT-2.5B under Baseline / CB / CB+FE / CB+FE+SC.
//!
//! Training time comes from the cluster simulator at paper scale (230K
//! iterations); validation perplexity comes from real training of the
//! small numerical model under the corresponding quality config.
//!
//! Knobs: `OPT_QUALITY_ITERS` (default 300) sets the small-model
//! quality-proxy training iterations; CI smoke uses `OPT_QUALITY_ITERS=5`.

use opt_bench::{banner, days, print_table, quality_iters, speedup_pct};
use opt_sim::{simulate, SimConfig};
use optimus_cc::{QualityConfig, Trainer, TrainerConfig};

fn main() {
    let iters = quality_iters(300);

    for sim_cfg in [SimConfig::paper_gpt_8_3b(), SimConfig::paper_gpt_2_5b()] {
        banner(&format!(
            "Table 2 — {} (sim: days for 230K iters; PPL: small-model proxy)",
            sim_cfg.model.name
        ));
        let base_t = simulate(&sim_cfg).iteration_time_s;
        let mut rows = Vec::new();
        // One plan per column: the simulator prices it at the paper's
        // ranks, the small model trains it at its own.
        for (label, quality) in QualityConfig::table2_columns() {
            let t = simulate(&sim_cfg.clone().with_plan(quality.at_paper_ranks())).iteration_time_s;
            let mut trainer = Trainer::launch(TrainerConfig::small_test(quality, iters));
            let report = trainer.train();
            trainer.shutdown();
            rows.push(vec![
                label.to_string(),
                days(t, 230_000),
                speedup_pct(base_t, t),
                format!("{:.3}", report.final_val_ppl()),
            ]);
        }
        print_table(
            &[
                "Config",
                "Training Time (days)",
                "Speedup",
                "Val. PPL (proxy)",
            ],
            &rows,
        );
    }
    println!("\nPaper reference — GPT-8.3B: 37.27d / +7.01% / +13.49% / +44.91%, PPL 8.10→8.20;");
    println!("GPT-2.5B: 14.72d / +8.00% / +15.09% / +17.29%, PPL 9.31→9.55.");
}
