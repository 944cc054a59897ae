//! `trace_report` — analyzes a trace file (`trace.bin`, a
//! [`TraceFile`] written by the traced `multiproc` test or
//! `examples/trace_profile.rs`) without needing the run that produced it.
//!
//! The file holds the merged per-rank buffers exactly as the run recorded
//! them, so this tool runs the same [`opt_trace::analyze`] pass the
//! trainer-side consumers use: per-rank pipeline-bubble fraction,
//! comm/compute overlap, and the top-k slowest spans. The `trace.json`
//! written beside it is for <https://ui.perfetto.dev>.
//!
//! ```text
//! trace_report <trace.bin> [--top K] [--require-compute]
//! ```
//!
//! * `--top K` — how many slowest spans to list (default 5);
//! * `--require-compute` — exit non-zero unless the trace holds at least
//!   one compute span (the CI assertion that tracing actually recorded
//!   the run, not an empty shell).

use opt_trace::{analyze, render, TraceFile};
use std::process::ExitCode;

fn fail(msg: &str) -> ExitCode {
    eprintln!("trace_report: {msg}");
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let require_compute = args.iter().any(|a| a == "--require-compute");
    let top_k: usize = args
        .iter()
        .position(|a| a == "--top")
        .and_then(|i| args.get(i + 1))
        .and_then(|v| v.parse().ok())
        .unwrap_or(5);
    // The first positional argument is the input path; the value of
    // `--top` is not positional.
    let mut path = None;
    let mut skip_next = false;
    for a in &args {
        if std::mem::take(&mut skip_next) {
            continue;
        }
        if a == "--top" {
            skip_next = true;
        } else if !a.starts_with("--") {
            path = Some(a);
            break;
        }
    }
    let Some(path) = path else {
        eprintln!("usage: trace_report <trace.bin> [--top K] [--require-compute]");
        return ExitCode::from(2);
    };

    let bytes = match std::fs::read(path) {
        Ok(b) => b,
        Err(e) => return fail(&format!("reading {path}: {e}")),
    };
    let TraceFile {
        trace,
        kernel_paths,
    } = match TraceFile::decode(&bytes) {
        Ok(f) => f,
        Err(e) => return fail(&format!("decoding {path}: {e}")),
    };

    println!(
        "{path}: {} ranks, {} spans ({} compute), structural digest {:016x}",
        trace.buffers.len(),
        trace.span_count(),
        trace.compute_span_count(),
        trace.structural_digest()
    );
    if !kernel_paths.is_empty() {
        let rendered: Vec<String> = kernel_paths
            .iter()
            .map(|(p, n)| format!("{p} x{n}"))
            .collect();
        println!(
            "kernel paths exercised (exporting process): {}",
            rendered.join(", ")
        );
    }
    print!("{}", render(&analyze(&trace, top_k)));

    if require_compute && trace.compute_span_count() == 0 {
        return fail("--require-compute: the trace holds no compute spans");
    }
    ExitCode::SUCCESS
}
