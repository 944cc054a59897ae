//! Fig. 4: 1F1B timing diagrams (baseline vs Optimus-CC) as ASCII
//! timelines from the simulator's event trace.

use opt_bench::banner;
use opt_schedule::QualityConfig;
use opt_sim::{simulate, SimConfig, TraceKind};

fn render(cfg: &SimConfig, title: &str) {
    banner(title);
    let r = simulate(cfg);
    let end = r.iteration_time_s;
    let width = 100usize;
    let scale = width as f64 / end;
    for s in 0..cfg.pp {
        let mut line = vec![' '; width + 1];
        for e in r.trace.iter().filter(|e| e.stage == s) {
            let a = (e.start * scale) as usize;
            let b = ((e.end * scale) as usize).min(width);
            let ch = match e.kind {
                TraceKind::Forward => 'F',
                TraceKind::Backward => 'B',
                TraceKind::DpComm => 'D',
                TraceKind::EmbDp => 'E',
                TraceKind::EmbSync => 'S',
            };
            for c in line.iter_mut().take(b + 1).skip(a) {
                *c = ch;
            }
        }
        println!("dev{}: {}", s + 1, line.iter().collect::<String>());
    }
    println!(
        "iteration = {:.3} s  (F fwd, B bwd, D DP all-reduce, E EMB DP, S EMB sync)",
        end
    );
}

fn main() {
    // A small pipeline (4 stages x 8 micro-batches) renders readably.
    let mut cfg = SimConfig::paper_gpt_2_5b();
    cfg.n_micro = 8;
    render(&cfg, "Fig. 4a — baseline 1F1B");
    let opt = cfg
        .clone()
        .with_plan(QualityConfig::cb_fe_sc().at_paper_ranks());
    render(&opt, "Fig. 4b — Optimus-CC (CB + fused EMB sync + SC)");
    let base = simulate(&cfg).iteration_time_s;
    let fast = simulate(&opt).iteration_time_s;
    println!(
        "\nExecution time reduction: {:.2}%",
        (1.0 - fast / base) * 100.0
    );
}
