//! §10.1 discussion: Optimus-CC's benefit on accelerators with a higher
//! compute-to-interconnect ratio (TPU-like, IPU-POD128-like clusters).

use opt_bench::{banner, print_table, speedup_pct};
use opt_schedule::{QualityConfig, ScQuality};
use opt_sim::{breakdown, simulate, SimConfig};

fn main() {
    banner("§10.1 — Optimus-CC benefit vs compute/interconnect ratio (GPT-8.3B)");
    // (name, inter-node latency, effective per-chip FLOPs, effective
    // inter-node bw). IPU-POD128 per the paper: 8 PFLOPS/node vs our 5,
    // but 100 Gb/s links; a TPU pod: 400 Gb/s links.
    let machines: [(&str, f64, f64, f64); 3] = [
        ("A100 + IB HDR (paper)", 5e-6, 31e12, 8e9),
        ("TPU-like (400 Gb/s)", 4e-6, 40e12, 16e9),
        ("IPU-like (100 Gb/s)", 6e-6, 50e12, 4e9),
    ];
    let mut rows = Vec::new();
    for (name, latency, flops, bw) in machines {
        let mut cfg = SimConfig::paper_gpt_8_3b();
        cfg.inter_node_latency = latency;
        cfg.gpu_eff_flops = flops;
        cfg.inter_node_eff_bw = bw;
        let base = simulate(&cfg).iteration_time_s;
        let b = breakdown(&cfg);
        // Full-throttle plan: SC over every stage (the potential §10.1
        // speaks about; quality budget permitting).
        let full = QualityConfig {
            sc: Some(ScQuality {
                fraction: 1.0,
                rank: QualityConfig::PAPER_DP_RANK,
            }),
            ..QualityConfig::cb_fe().at_paper_ranks()
        };
        let opt = simulate(&cfg.clone().with_plan(full)).iteration_time_s;
        rows.push(vec![
            name.to_string(),
            format!("{:.1}", flops / bw / 1e3), // kFLOP per byte
            format!("{base:.2}"),
            format!("{:.1}%", b.comm_exposed() / b.total * 100.0),
            speedup_pct(base, opt),
        ]);
    }
    print_table(
        &[
            "machine",
            "compute/bw (kFLOP/B)",
            "baseline iter (s)",
            "exposed comm share",
            "Opt-CC (SC=100%) speedup",
        ],
        &rows,
    );
    println!("\nPaper §10.1: the higher the compute-to-interconnect ratio, the more");
    println!("communication dominates and the more Optimus-CC helps (IPU > A100 > TPU).");
}
