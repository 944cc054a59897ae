//! Trace profile: train a tiny 2-stage, 2-way-DP pipeline under
//! spans-mode tracing, write the merged trace as a trace file
//! (`trace.bin`, what `trace_report` reads) and as Chrome-trace JSON
//! (loadable at <https://ui.perfetto.dev>), and print the per-rank
//! pipeline-bubble / comm-overlap report.
//!
//! Run with: `cargo run --release --example trace_profile`

use optimus::core::{QualityConfig, TraceMode, Trainer, TrainerConfig};
use optimus::trace::{analyze, render, TraceFile};

fn main() {
    let cfg = TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), 8);
    let (pp, dp, n_micro) = (cfg.pp, cfg.dp, cfg.n_micro);

    println!("training {pp}x{dp} (pp x dp) with spans-mode tracing...");
    let mut trainer = Trainer::launch_with_trace(cfg, TraceMode::Spans);
    let report = trainer.train();
    let trace = trainer.take_trace().expect("spans mode is enabled");
    trainer.shutdown();

    let out_dir = std::path::Path::new("target/trace-profile");
    std::fs::create_dir_all(out_dir).expect("creating output dir");
    let path = out_dir.join("trace.json");
    std::fs::write(&path, trace.to_chrome_json()).expect("writing trace");
    let bin_path = out_dir.join("trace.bin");
    std::fs::write(&bin_path, TraceFile::exported(trace.clone()).encode())
        .expect("writing trace file");

    println!(
        "final validation PPL {:.3}; {} spans ({} compute) from {} ranks",
        report.final_val_ppl(),
        trace.span_count(),
        trace.compute_span_count(),
        trace.buffers.len()
    );
    println!(
        "wrote {} — load it at https://ui.perfetto.dev to browse the timeline",
        path.display()
    );
    println!(
        "wrote {} — `trace_report {}` analyzes it offline\n",
        bin_path.display(),
        bin_path.display()
    );

    print!("{}", render(&analyze(&trace, 5)));
    println!(
        "\nideal 1F1B bubble fraction at pp={pp}, m={n_micro}: {:.4}",
        optimus::schedule::bubble_fraction(pp, n_micro)
    );
    println!("(the measured bubble column above is the structural replay of the recorded slots)");
}
