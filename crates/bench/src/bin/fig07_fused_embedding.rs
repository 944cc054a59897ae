//! Fig. 7 / Eqs. 15-16: fused embedding synchronization cost model and
//! measured wire bytes in the numerical runtime.

use opt_bench::{banner, print_table};
use opt_net::TrafficClass;
use opt_sim::{
    embedding_fusion_speedup, embedding_sync_baseline_bytes, embedding_sync_fused_bytes,
};
use optimus_cc::{QualityConfig, Trainer, TrainerConfig};

fn main() {
    banner("Eq. 15/16 — analytic per-rank cost (V = 1)");
    let mut rows = Vec::new();
    for d in [2usize, 4, 8, 16, 64] {
        rows.push(vec![
            d.to_string(),
            format!("{:.4}", embedding_sync_baseline_bytes(1.0, d)),
            format!("{:.4}", embedding_sync_fused_bytes(1.0, d)),
            format!("{:.2}%", embedding_fusion_speedup(d) * 100.0),
        ]);
    }
    print_table(
        &[
            "D (dp ways)",
            "C_emb = V(3D-2)/D",
            "C_fused = V(2D-1)/D",
            "speedup (D-1)/(2D-1)",
        ],
        &rows,
    );
    println!("Paper: 42.9% at D=4, approaching 50% as D grows.");

    banner("Measured wire bytes in the numerical runtime (4 iterations)");
    let run = |fused: bool| {
        let mut q = QualityConfig::baseline();
        q.fused_embedding = fused;
        let mut t = Trainer::launch(TrainerConfig::tiny_test(q, 4));
        let r = t.train();
        t.shutdown();
        r.traffic.bytes(TrafficClass::Embedding)
    };
    let base = run(false);
    let fused = run(true);
    let rows = vec![
        vec!["separate (EMB DP + 2-way sync)".into(), base.to_string()],
        vec!["fused (single 2D-way)".into(), fused.to_string()],
        vec![
            "reduction".into(),
            format!("{:.2}%", (1.0 - fused as f64 / base as f64) * 100.0),
        ],
    ];
    print_table(&["embedding path", "wire bytes"], &rows);
}
