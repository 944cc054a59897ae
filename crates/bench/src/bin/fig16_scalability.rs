//! Fig. 16: scalability of the proposed mechanisms from GPT-2.5B up to
//! GPT-175B, with TP fixed at 8 and the GPU count growing with the model.

use opt_bench::{banner, print_table, speedup_pct};
use opt_model::GptConfig;
use opt_schedule::QualityConfig;
use opt_sim::{simulate, SimConfig};

fn main() {
    banner("Fig. 16 — scalability sweep (TP8 fixed, GPUs grow with model)");
    // (model, pp, dp): mirrors "we increased the number of GPUs in larger
    // models for a fair comparison" (TP8 x DP4 x PP = 128..512 GPUs).
    let jobs: Vec<(GptConfig, usize, usize)> = vec![
        (GptConfig::gpt_2_5b(), 4, 4),
        (GptConfig::gpt_8_3b(), 4, 4),
        (GptConfig::gpt_39b(), 8, 4),
        (GptConfig::gpt_175b(), 16, 4),
    ];
    let mut rows = Vec::new();
    for (model, pp, dp) in jobs {
        let name = model.name.clone();
        let mut cfg = SimConfig::paper_defaults(model);
        cfg.pp = pp;
        cfg.dp = dp;
        let base = simulate(&cfg).iteration_time_s;
        let gpus = cfg.tp * cfg.dp * cfg.pp;
        let mut row = vec![name, gpus.to_string(), format!("{base:.2}")];
        for (_, plan) in QualityConfig::table2_columns().into_iter().skip(1) {
            let t = simulate(&cfg.clone().with_plan(plan.at_paper_ranks())).iteration_time_s;
            row.push(speedup_pct(base, t));
        }
        rows.push(row);
    }
    print_table(
        &[
            "model",
            "GPUs",
            "baseline iter (s)",
            "CB",
            "CB+FE",
            "CB+FE+SC",
        ],
        &rows,
    );
    println!("\nPaper shape: the full-stack speedup is sustained (and compression");
    println!("overhead shrinks) as the model grows to 175B.");
}
