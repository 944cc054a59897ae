//! Fig. 6: epilogue-only compression — which backward sends sit on the
//! critical path, and what compressing only them buys.

use opt_bench::{banner, print_table, speedup_pct};
use opt_schedule::{epilogue_sends, QualityConfig};
use opt_sim::{breakdown, SimConfig};

fn main() {
    banner("Fig. 6 — epilogue sends under 1F1B (S=4, M=16)");
    let sends = epilogue_sends(4, 16);
    let rows: Vec<Vec<String>> = (1..4)
        .map(|s| {
            let micros: Vec<String> = sends
                .iter()
                .filter(|(st, _)| *st == s)
                .map(|(_, m)| m.to_string())
                .collect();
            vec![format!("stage {s} -> {}", s - 1), micros.join(", ")]
        })
        .collect();
    print_table(&["link", "epilogue micro-batches (compressed)"], &rows);
    println!(
        "{} of {} backward sends are on the epilogue ({:.1}%).",
        sends.len(),
        3 * 16,
        100.0 * sends.len() as f64 / 48.0
    );

    banner("Epilogue-only vs compress-all (GPT-2.5B sim)");
    let cfg = SimConfig::paper_gpt_2_5b();
    let base = breakdown(&cfg);
    let epi = breakdown(&cfg.clone().with_plan(QualityConfig::cb().at_paper_ranks()));
    let all = breakdown(
        &cfg.clone()
            .with_plan(QualityConfig::naive_cb(QualityConfig::PAPER_CB_RANK)),
    );
    let rows = vec![
        vec![
            "baseline".into(),
            format!("{:.4}", base.interstage_exposed),
            format!("{:.3}", base.total),
        ],
        vec![
            "CB epilogue-only".into(),
            format!("{:.4}", epi.interstage_exposed),
            format!("{:.3}", epi.total),
        ],
        vec![
            "CB all sends".into(),
            format!("{:.4}", all.interstage_exposed),
            format!("{:.3}", all.total),
        ],
    ];
    print_table(
        &["config", "exposed inter-stage (s)", "iteration (s)"],
        &rows,
    );
    println!(
        "epilogue-only achieves {} of the compress-all speedup while touching only {:.1}% of sends",
        speedup_pct(base.total, epi.total),
        100.0 * epilogue_sends(4, 16).len() as f64 / 48.0
    );
    println!("(paper §5.2: the rest of the sends are hidden behind computation anyway)");
}
