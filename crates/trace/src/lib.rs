//! `opt-trace` — deterministic span tracing for the Optimus-CC
//! reproduction.
//!
//! The trainer, schedule, compressors, and transports are instrumented
//! with spans whose **structure** (kinds, nesting, byte counts, ordering)
//! is a pure function of the training configuration — the same contract
//! the numerics already obey. Wall-clock timestamps ride along but are
//! excluded from every determinism claim and digest.
//!
//! The pieces:
//!
//! * [`TraceMode`] — the `OPT_TRACE=off|spans` knob (any other value means
//!   `off`). `off` (default) records nothing and costs one thread-local
//!   read per instrumentation point; `spans` records the deterministic
//!   tree.
//! * [`install`] / [`begin`] / [`take_buffer`] — the lock-free
//!   thread-local recorder each worker thread owns.
//! * [`TraceBuffer`] — one rank's spans, `Persist`-coded so multi-process
//!   workers can ship them to the coordinator over the transport.
//! * [`Trace`] — the merged run trace: [`Trace::merge`] is deterministic
//!   by (rank, seq), [`Trace::to_chrome_json`] exports write-only
//!   Chrome-trace JSON that <https://ui.perfetto.dev> loads directly.
//! * [`TraceFile`] — the trace file (`trace.bin`) offline analysis reads:
//!   the merged buffers in the same `Persist` encoding plus the exporting
//!   process's kernel-path counts, decoded back exactly.
//! * [`analyze`] / [`render`] — per-rank pipeline-bubble fraction (a
//!   structural replay that reduces to `opt_schedule::bubble_fraction`
//!   on ideal 1F1B traces), comm/compute overlap ratio, and the top-k
//!   slowest spans.

mod analyze;
mod chrome;
mod file;
mod mode;
mod record;
mod tracer;

pub use analyze::{analyze, render, RankSummary, SlowSpan, TraceReport};
pub use chrome::Trace;
pub use file::TraceFile;
pub use mode::{TraceMode, ENV_TRACE};
pub use record::{SpanKind, SpanRecord, TraceBuffer, FLAG_EPILOGUE, NO_MICRO, NO_PARENT};
pub use tracer::{begin, install, take_buffer, SpanGuard};

#[cfg(test)]
mod proptests {
    use super::*;
    use opt_tensor::Persist;
    use proptest::prelude::*;

    fn arb_span() -> impl Strategy<Value = SpanRecord> {
        (
            (0u64..u64::MAX, 0u64..u64::MAX, 0u8..11, 0u64..u64::MAX),
            (0u32..u32::MAX, 0u64..u64::MAX, 0u8..2),
            (0u64..u64::MAX, 0u64..u64::MAX),
        )
            .prop_map(
                |((seq, parent, kind, iter), (micro, bytes, flags), (start_ns, dur_ns))| {
                    SpanRecord {
                        seq,
                        parent,
                        kind: SpanKind::from_code(kind).unwrap(),
                        iter,
                        micro,
                        bytes,
                        flags,
                        start_ns,
                        dur_ns,
                    }
                },
            )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn trace_buffer_persist_roundtrips(
            rank in 0u32..u32::MAX,
            stage in 0u32..64,
            dp in 0u32..64,
            spans in proptest::collection::vec(arb_span(), 24),
        ) {
            let buf = TraceBuffer { rank, stage, dp, spans };
            let bytes = buf.to_bytes();
            prop_assert_eq!(TraceBuffer::from_bytes(&bytes).unwrap(), buf);
        }
    }
}
