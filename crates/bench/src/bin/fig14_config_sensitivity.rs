//! Fig. 14: tensor/pipeline-parallel configuration sensitivity on
//! GPT-9.2B with DP fixed at 4 (TP8/PP4, TP4/PP8, TP2/PP16).

use opt_bench::{banner, print_table, speedup_pct};
use opt_model::GptConfig;
use opt_schedule::QualityConfig;
use opt_sim::{simulate, SimConfig};

fn main() {
    banner("Fig. 14 — TP/PP sensitivity, GPT-9.2B (80 layers), DP=4, 128 GPUs");
    let mut rows = Vec::new();
    for (tp, pp) in [(8usize, 4usize), (4, 8), (2, 16)] {
        let cfg = SimConfig::paper_defaults(GptConfig::gpt_9_2b()).with_tp_pp(tp, pp);
        let base = simulate(&cfg).iteration_time_s;
        let mut row = vec![format!("TP{tp}/PP{pp}"), format!("{base:.3}")];
        for (_, plan) in QualityConfig::table2_columns().into_iter().skip(1) {
            let t = simulate(&cfg.clone().with_plan(plan.at_paper_ranks())).iteration_time_s;
            row.push(speedup_pct(base, t));
        }
        rows.push(row);
    }
    print_table(
        &[
            "config",
            "baseline iter (s)",
            "CB speedup",
            "CB+FE speedup",
            "CB+FE+SC speedup",
        ],
        &rows,
    );
    println!("\nPaper shape: CB gains grow with more pipeline ways (more inter-stage");
    println!("communication); SC gains grow with fewer pipeline ways (more parameters");
    println!("per stage -> more DP traffic). Paper: >=19.2% total for all configs.");
}
