//! The merged multi-rank trace and its Chrome-trace (Perfetto) export.

use crate::record::{fnv1a64, SpanRecord, TraceBuffer, FNV_OFFSET, NO_MICRO};
use std::fmt::Write as _;

/// A whole run's trace: one [`TraceBuffer`] per rank, merged
/// deterministically (buffers by rank, spans by seq).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Trace {
    /// Per-rank buffers, sorted by rank.
    pub buffers: Vec<TraceBuffer>,
}

impl Trace {
    /// Merges per-rank buffers into one trace. Buffers are ordered by
    /// rank and each buffer's spans by `seq`, so the merge is a pure
    /// function of its inputs regardless of arrival order.
    pub fn merge(mut buffers: Vec<TraceBuffer>) -> Self {
        buffers.sort_by_key(|b| b.rank);
        for b in &mut buffers {
            b.spans.sort_by_key(|s| s.seq);
        }
        Trace { buffers }
    }

    /// Total spans across all ranks.
    pub fn span_count(&self) -> usize {
        self.buffers.iter().map(|b| b.spans.len()).sum()
    }

    /// Spans whose kind satisfies [`crate::SpanKind::is_compute`].
    pub fn compute_span_count(&self) -> usize {
        self.buffers
            .iter()
            .flat_map(|b| &b.spans)
            .filter(|s| s.kind.is_compute())
            .count()
    }

    /// A digest over every buffer's structural digest, in rank order.
    /// Identical structure (timestamps excluded) ⇒ identical digest.
    pub fn structural_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        for b in &self.buffers {
            fnv1a64(&mut h, &b.structural_digest().to_le_bytes());
        }
        h
    }

    /// Renders the trace as Chrome-trace JSON (the format
    /// `chrome://tracing` and <https://ui.perfetto.dev> load directly):
    /// one process per rank, complete (`"X"`) events with microsecond
    /// timestamps relative to the earliest span in the trace, and the
    /// structural fields repeated under `args` so the viewer shows them
    /// on each event. The export is write-only: analysis reads the
    /// [`crate::TraceFile`] written beside it.
    ///
    /// One extra `"M"` metadata event named `kernel_paths` (pid 0)
    /// records the *exporting* process's nonzero
    /// [`opt_tensor::kernel_path_counts`] — which `{arch}/dense` GEMM
    /// paths the run actually exercised. In a multi-process run
    /// the counters are per-process, so the event describes the process
    /// that merged and exported the trace.
    pub fn to_chrome_json(&self) -> String {
        let t0 = self
            .buffers
            .iter()
            .flat_map(|b| &b.spans)
            .map(|s| s.start_ns)
            .min()
            .unwrap_or(0);
        let mut out = String::new();
        out.push_str("{\n  \"displayTimeUnit\": \"ms\",\n  \"traceEvents\": [");
        let mut first = true;
        let push = |ev: String, out: &mut String, first: &mut bool| {
            if !*first {
                out.push(',');
            }
            *first = false;
            out.push_str("\n    ");
            out.push_str(&ev);
        };
        let mut path_args = String::new();
        for (path, count) in exercised_kernel_paths() {
            if !path_args.is_empty() {
                path_args.push_str(", ");
            }
            let _ = write!(path_args, "\"{path}\": {count}");
        }
        push(
            format!(
                "{{\"ph\": \"M\", \"name\": \"kernel_paths\", \"pid\": 0, \"tid\": 0, \
                 \"args\": {{{path_args}}}}}"
            ),
            &mut out,
            &mut first,
        );
        for b in &self.buffers {
            push(
                format!(
                    "{{\"ph\": \"M\", \"name\": \"process_name\", \"pid\": {}, \"tid\": 0, \
                     \"args\": {{\"name\": \"rank {} (stage {}, dp {})\"}}}}",
                    b.rank, b.rank, b.stage, b.dp
                ),
                &mut out,
                &mut first,
            );
            for s in &b.spans {
                push(span_event(b, s, t0), &mut out, &mut first);
            }
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

/// The calling process's nonzero GEMM kernel-path counters, as
/// `("{arch}/{kind}", invocations)` in counter order.
pub(crate) fn exercised_kernel_paths() -> Vec<(String, u64)> {
    opt_tensor::kernel_path_counts()
        .into_iter()
        .filter(|&(_, _, count)| count > 0)
        .map(|(arch, kind, count)| (format!("{arch}/{kind}"), count))
        .collect()
}

fn span_event(b: &TraceBuffer, s: &SpanRecord, t0: u64) -> String {
    let ts = s.start_ns.saturating_sub(t0) as f64 / 1_000.0;
    let dur = s.dur_ns as f64 / 1_000.0;
    let mut ev = String::new();
    write!(
        ev,
        "{{\"ph\": \"X\", \"name\": \"{}\", \"cat\": \"{}\", \"ts\": {ts:.3}, \
         \"dur\": {dur:.3}, \"pid\": {}, \"tid\": 0, \"args\": {{\
         \"rank\": {}, \"stage\": {}, \"dp\": {}, \"seq\": {}, \"parent\": {}, \
         \"iter\": {}, \"micro\": {}, \"bytes\": {}, \"flags\": {}}}}}",
        s.kind.name(),
        s.kind.category(),
        b.rank,
        b.rank,
        b.stage,
        b.dp,
        s.seq,
        s.parent,
        s.iter,
        if s.micro == NO_MICRO {
            -1i64
        } else {
            i64::from(s.micro)
        },
        s.bytes,
        s.flags,
    )
    .expect("writing to a String cannot fail");
    ev
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{SpanKind, NO_PARENT};

    fn buffer(rank: u32, seqs: &[u64]) -> TraceBuffer {
        TraceBuffer {
            rank,
            stage: rank % 2,
            dp: rank / 2,
            spans: seqs
                .iter()
                .map(|&seq| SpanRecord {
                    seq,
                    parent: NO_PARENT,
                    kind: SpanKind::Forward,
                    iter: 0,
                    micro: seq as u32,
                    bytes: 64,
                    flags: 0,
                    start_ns: 1_000_000 + seq * 10,
                    dur_ns: 5,
                })
                .collect(),
        }
    }

    #[test]
    fn merge_is_order_independent() {
        let a = Trace::merge(vec![buffer(0, &[0, 1]), buffer(1, &[0])]);
        let b = Trace::merge(vec![buffer(1, &[0]), buffer(0, &[1, 0])]);
        assert_eq!(a, b);
        assert_eq!(a.structural_digest(), b.structural_digest());
        assert_eq!(a.span_count(), 3);
        assert_eq!(a.compute_span_count(), 3);
    }

    #[test]
    fn chrome_json_has_metadata_and_events() {
        let trace = Trace::merge(vec![buffer(0, &[0]), buffer(1, &[0])]);
        let json = trace.to_chrome_json();
        assert!(json.contains("\"traceEvents\""));
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("rank 1 (stage 1, dp 0)"));
        assert!(json.contains("\"ph\": \"X\""));
        assert!(json.contains("\"name\": \"forward\""));
        // Earliest span sits at ts 0.
        assert!(json.contains("\"ts\": 0.000"));
    }

    #[test]
    fn chrome_json_reports_exercised_kernel_paths() {
        // Drive at least one dense kernel through the dispatcher so the
        // exporting process has a nonzero counter to report.
        let a = opt_tensor::Matrix::full(3, 3, 1.0);
        let _ = a.matmul(&a);
        let json = Trace::merge(vec![buffer(0, &[0])]).to_chrome_json();
        assert!(json.contains("\"name\": \"kernel_paths\""));
        let arch = opt_tensor::kernel_arch().name();
        assert!(
            json.contains(&format!("\"{arch}/dense\":")),
            "kernel_paths event missing {arch}/dense in {json}"
        );
    }
}
