//! Fig. 10: execution-time breakdown under ablation of the proposed
//! techniques, measured CPI-stack style (turn each class off, re-run).

use opt_bench::{banner, print_table};
use opt_schedule::QualityConfig;
use opt_sim::{breakdown, SimConfig};

fn main() {
    for cfg in [SimConfig::paper_gpt_8_3b(), SimConfig::paper_gpt_2_5b()] {
        banner(&format!("Fig. 10 — breakdown ablation, {}", cfg.model.name));
        let mut rows = Vec::new();
        let base = breakdown(&cfg);
        for (label, plan) in QualityConfig::table2_columns() {
            let b = breakdown(&cfg.clone().with_plan(plan.at_paper_ranks()));
            rows.push(vec![
                label.to_string(),
                format!("{:.3}", b.total),
                format!("{:.3}", b.fwd_bwd),
                format!("{:.3}", b.dp_exposed),
                format!("{:.4}", b.interstage_exposed),
                format!("{:.3}", b.emb_exposed),
                format!(
                    "{:.1}%",
                    (1.0 - b.comm_exposed() / base.comm_exposed()) * 100.0
                ),
            ]);
        }
        print_table(
            &[
                "Config",
                "Total (s)",
                "FWD+BWD",
                "DP",
                "Inter-stage",
                "EMB",
                "comm cut",
            ],
            &rows,
        );
    }
    println!("\nPaper: CB cuts exposed backward inter-stage comm by 78.57%; FE cuts the");
    println!("EMB bar ~40% (analytic 42.9%); all techniques cut total comm 63.29% (8.3B).");
}
