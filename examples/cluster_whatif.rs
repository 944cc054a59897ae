//! What-if cluster planning: use the discrete-event simulator to project
//! training time for a paper-scale job under each compression plan, on a
//! cluster you describe.
//!
//! Run with: `cargo run --release --example cluster_whatif -- [model]`
//! where `model` is one of `2.5b`, `8.3b`, `9.2b`, `39b`, `175b`.

use optimus::model::GptConfig;
use optimus::schedule::QualityConfig;
use optimus::sim::{breakdown, simulate, SimConfig};

fn main() {
    let arg = std::env::args()
        .nth(1)
        .unwrap_or_else(|| "8.3b".to_string());
    let model = match arg.as_str() {
        "2.5b" => GptConfig::gpt_2_5b(),
        "8.3b" => GptConfig::gpt_8_3b(),
        "9.2b" => GptConfig::gpt_9_2b(),
        "39b" => GptConfig::gpt_39b(),
        "175b" => GptConfig::gpt_175b(),
        other => {
            eprintln!("unknown model '{other}', expected 2.5b|8.3b|9.2b|39b|175b");
            std::process::exit(1);
        }
    };
    let mut cfg = SimConfig::paper_defaults(model);
    if !cfg.model.n_layers.is_multiple_of(cfg.pp) {
        cfg.pp = 4;
    }
    if arg == "175b" {
        cfg.pp = 16; // 96 layers / 16 stages; needs 512 GPUs at TP8/DP4.
    }

    println!(
        "planning {} on {} GPUs (TP{}/DP{}/PP{}), {} micro-batches of {}:",
        cfg.model.name,
        cfg.tp * cfg.dp * cfg.pp,
        cfg.tp,
        cfg.dp,
        cfg.pp,
        cfg.n_micro,
        cfg.micro_batch
    );
    let base = simulate(&cfg).iteration_time_s;
    for (label, plan) in QualityConfig::table2_columns() {
        let c = cfg.clone().with_plan(plan.at_paper_ranks());
        let r = simulate(&c);
        let b = breakdown(&c);
        println!(
            "  {label:<10} iter {:>7.3} s  ({:>7.2} days / 230K iters, {:+.2}% vs baseline) — \
             compute {:.2}s, exposed comm {:.2}s",
            r.iteration_time_s,
            r.training_days(230_000),
            (base / r.iteration_time_s - 1.0) * 100.0,
            b.fwd_bwd,
            b.comm_exposed(),
        );
    }
}
