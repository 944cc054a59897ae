//! Fig. 8: selective stage compression — compressing stages from the
//! front moves the DP bottleneck stage by stage.

use opt_bench::{banner, print_table, speedup_pct};
use opt_schedule::{QualityConfig, ScQuality};
use opt_sim::{simulate, SimConfig};

fn main() {
    banner("Fig. 8 — DP bottleneck vs fraction of stages compressed (GPT-8.3B sim)");
    let base = SimConfig::paper_gpt_8_3b();
    let t0 = simulate(&base).iteration_time_s;
    let mut rows = Vec::new();
    for pct in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let plan = QualityConfig {
            sc: (pct > 0.0).then_some(ScQuality {
                fraction: pct,
                rank: QualityConfig::PAPER_DP_RANK,
            }),
            ..QualityConfig::baseline()
        };
        let r = simulate(&base.clone().with_plan(plan));
        rows.push(vec![
            format!("{:.0}%", pct * 100.0),
            format!("{:.3}", r.iteration_time_s),
            speedup_pct(t0, r.iteration_time_s),
            format!("{:.3e}", r.dp_bytes),
        ]);
    }
    print_table(
        &[
            "stages compressed",
            "iteration (s)",
            "speedup",
            "DP wire bytes/rank",
        ],
        &rows,
    );
    println!("Each added stage removes the current bottleneck (paper Fig. 8's staircase).");
}
