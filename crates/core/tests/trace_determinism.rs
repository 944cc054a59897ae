//! The `opt-trace` determinism contract, on the real trainer:
//!
//! * `OPT_TRACE=spans` records a span tree whose *structure* is a pure
//!   function of the training configuration — rerunning the same config
//!   yields the same structural digest, at any kernel-pool width;
//! * the recorded slot structure is the real 1F1B schedule: the bubble
//!   replay reduces exactly to `opt_schedule::bubble_fraction`;
//! * tracing never perturbs the numerics: losses are bit-identical
//!   between an untraced run and a spans-mode run.

use opt_tensor::{set_kernel_threads, set_parallel_flop_threshold};
use opt_trace::{SpanKind, Trace};
use optimus_cc::{QualityConfig, TraceMode, Trainer, TrainerConfig};
use proptest::prelude::*;

fn config(pp: usize, dp: usize, n_micro: usize, iters: u64) -> TrainerConfig {
    let mut cfg = TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), iters);
    cfg.pp = pp;
    cfg.dp = dp;
    cfg.n_micro = n_micro;
    cfg
}

/// Trains the config under spans-mode tracing and returns the merged
/// trace.
fn spans_run(cfg: &TrainerConfig) -> Trace {
    let mut t = Trainer::launch_with_trace(cfg.clone(), TraceMode::Spans);
    t.train();
    let trace = t.take_trace().expect("spans mode is enabled");
    t.shutdown();
    trace
}

fn forward_span_count(trace: &Trace) -> usize {
    trace
        .buffers
        .iter()
        .flat_map(|b| &b.spans)
        .filter(|s| s.kind == SpanKind::Forward)
        .count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(3))]
    #[test]
    fn spans_structure_is_reproducible_and_matches_the_schedule(
        pp in 1usize..3,
        dp in 1usize..3,
        extra_micro in 0usize..3,
        iters in 1u64..3,
    ) {
        let n_micro = pp.max(2) + extra_micro;
        let cfg = config(pp, dp, n_micro, iters);
        let a = spans_run(&cfg);
        let b = spans_run(&cfg);

        // Same config ⇒ same structural digest (timestamps excluded).
        prop_assert_eq!(a.structural_digest(), b.structural_digest());
        prop_assert_eq!(a.buffers.len(), pp * dp);

        // Every rank records exactly one forward slot per microbatch per
        // iteration — the 1F1B schedule, nothing dropped, nothing extra.
        prop_assert_eq!(
            forward_span_count(&a),
            pp * dp * n_micro * iters as usize
        );

        // The structural bubble replay of the *recorded* trace lands on
        // the closed-form 1F1B bubble fraction for every rank.
        let expect = opt_schedule::bubble_fraction(pp, n_micro);
        for r in &opt_trace::analyze(&a, 0).ranks {
            prop_assert!(
                (r.bubble_fraction - expect).abs() < 1e-12,
                "rank {}: bubble {} vs closed form {}",
                r.rank,
                r.bubble_fraction,
                expect
            );
        }
    }
}

#[test]
fn tracing_does_not_perturb_the_numerics() {
    let cfg = config(2, 2, 4, 4);

    let mut off = Trainer::launch_with_trace(cfg.clone(), TraceMode::Off);
    let off_report = off.train();
    assert!(off.take_trace().is_none(), "off mode must yield no trace");
    off.shutdown();

    let mut spans = Trainer::launch_with_trace(cfg, TraceMode::Spans);
    let spans_report = spans.train();
    let trace = spans.take_trace().expect("spans mode is enabled");
    spans.shutdown();

    assert!(trace.compute_span_count() > 0);
    assert_eq!(off_report.train_loss.len(), spans_report.train_loss.len());
    for (i, (a, b)) in off_report
        .train_loss
        .iter()
        .zip(&spans_report.train_loss)
        .enumerate()
    {
        assert_eq!(a.to_bits(), b.to_bits(), "iteration {i}: {a} vs {b}");
    }
    assert_eq!(off_report.traffic, spans_report.traffic);
}

#[test]
fn spans_structure_is_invariant_across_kernel_thread_counts() {
    let cfg = config(2, 1, 4, 2);
    set_parallel_flop_threshold(0);
    set_kernel_threads(1);
    let t1 = spans_run(&cfg);
    set_kernel_threads(4);
    let t4 = spans_run(&cfg);
    // Kernel-pool threads have no tracer: the worker-thread span tree is
    // identical whatever width the pool fans out to.
    assert_eq!(t1.structural_digest(), t4.structural_digest());
    set_kernel_threads(1);
    set_parallel_flop_threshold(usize::MAX - 1);
}

#[test]
fn every_backward_send_encodes_and_sends_on_the_worker_thread() {
    // The last backward micro-batch is an epilogue send like the others:
    // its encode and its send are recorded inside its own backward slot,
    // on the worker thread, exactly once each.
    let (n_micro, iters) = (3, 2);
    let trace = spans_run(&config(2, 1, n_micro, iters));
    for buf in trace.buffers.iter().filter(|b| b.stage > 0) {
        let backward: Vec<_> = buf
            .spans
            .iter()
            .filter(|s| s.kind == SpanKind::Backward)
            .collect();
        assert_eq!(backward.len(), n_micro * iters as usize);
        for slot in backward {
            let children = |kind| {
                buf.spans
                    .iter()
                    .filter(|s| s.parent == slot.seq && s.kind == kind)
                    .count()
            };
            let at = format!("rank {} iter {} micro {}", buf.rank, slot.iter, slot.micro);
            assert_eq!(children(SpanKind::Encode), 1, "{at}: encode spans");
            assert_eq!(children(SpanKind::Send), 1, "{at}: send spans");
        }
    }
}
