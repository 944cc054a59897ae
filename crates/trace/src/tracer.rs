//! The thread-local span recorder.
//!
//! Each worker thread [`install`]s a tracer once at startup; the
//! instrumentation points across the workspace call [`begin`] and get
//! back a [`SpanGuard`] that closes the span on drop. A thread with no tracer installed (the default, and every
//! kernel-pool or transport-bridge helper thread) records nothing —
//! which is precisely what keeps the span tree independent of
//! `OPT_KERNEL_THREADS` and of the transport backend.
//!
//! There are no locks anywhere on this path: the recorder is a plain
//! thread-local `Vec` push, and spans only leave the thread when
//! [`take_buffer`] drains them at run end.

use crate::mode::TraceMode;
use crate::record::{SpanKind, SpanRecord, TraceBuffer, NO_PARENT};
use std::cell::RefCell;
use std::time::{Instant, SystemTime, UNIX_EPOCH};

struct ThreadTracer {
    next_seq: u64,
    /// Indices (into `spans`) of the currently open spans, innermost last.
    open: Vec<usize>,
    spans: Vec<SpanRecord>,
    epoch: Instant,
    /// UNIX nanos at `epoch`, so spans from different processes land on a
    /// roughly shared wall-clock axis in the merged trace.
    base_ns: u64,
}

impl ThreadTracer {
    fn new() -> Self {
        let base_ns = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_nanos() as u64)
            .unwrap_or(0);
        ThreadTracer {
            next_seq: 0,
            open: Vec::new(),
            spans: Vec::new(),
            epoch: Instant::now(),
            base_ns,
        }
    }

    fn now_ns(&self) -> u64 {
        self.base_ns + self.epoch.elapsed().as_nanos() as u64
    }

    fn open_span(&mut self, kind: SpanKind, iter: u64, micro: u32, bytes: u64, flags: u8) {
        let parent = self
            .open
            .last()
            .map_or(NO_PARENT, |&idx| self.spans[idx].seq);
        let seq = self.next_seq;
        self.next_seq += 1;
        let start_ns = self.now_ns();
        self.spans.push(SpanRecord {
            seq,
            parent,
            kind,
            iter,
            micro,
            bytes,
            flags,
            start_ns,
            dur_ns: 0,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn close_span(&mut self) {
        let idx = self.open.pop().expect("span close without open span");
        let now = self.now_ns();
        let span = &mut self.spans[idx];
        span.dur_ns = now.saturating_sub(span.start_ns);
    }
}

thread_local! {
    static TRACER: RefCell<Option<ThreadTracer>> = const { RefCell::new(None) };
}

/// Installs (or, with [`TraceMode::Off`], removes) the calling thread's
/// tracer. Worker threads call this once at startup; everything recorded
/// afterwards stays on this thread until [`take_buffer`].
pub fn install(mode: TraceMode) {
    TRACER.with(|t| {
        *t.borrow_mut() = if mode.enabled() {
            Some(ThreadTracer::new())
        } else {
            None
        };
    });
}

/// Drains the calling thread's recorded spans into a [`TraceBuffer`]
/// stamped with the given rank coordinates. Returns an empty buffer when
/// no tracer is installed. The tracer stays installed (sequence numbers
/// keep increasing), so repeated takes never reuse span ids.
pub fn take_buffer(rank: u32, stage: u32, dp: u32) -> TraceBuffer {
    let spans = TRACER.with(|t| {
        t.borrow_mut().as_mut().map_or_else(Vec::new, |tr| {
            debug_assert!(tr.open.is_empty(), "taking a trace with open spans");
            tr.open.clear();
            std::mem::take(&mut tr.spans)
        })
    });
    TraceBuffer {
        rank,
        stage,
        dp,
        spans,
    }
}

/// Closes its span when dropped. Obtained from [`begin`];
/// inert (and free) when the thread records nothing.
#[must_use = "dropping the guard immediately closes the span"]
#[derive(Debug)]
pub struct SpanGuard {
    active: bool,
}

impl SpanGuard {
    /// A guard that records nothing.
    fn inactive() -> Self {
        SpanGuard { active: false }
    }

    /// Whether this guard actually opened a span.
    pub fn is_active(&self) -> bool {
        self.active
    }

    /// Updates the byte count of the span this guard opened (for spans
    /// whose payload size is only known mid-flight, e.g. an encode whose
    /// wire size depends on the chosen compressor).
    pub fn set_bytes(&self, bytes: u64) {
        if !self.active {
            return;
        }
        TRACER.with(|t| {
            if let Some(tr) = t.borrow_mut().as_mut() {
                if let Some(&idx) = tr.open.last() {
                    tr.spans[idx].bytes = bytes;
                }
            }
        });
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.active {
            TRACER.with(|t| {
                if let Some(tr) = t.borrow_mut().as_mut() {
                    tr.close_span();
                }
            });
        }
    }
}

/// Opens a span on the calling thread's tracer. Returns an inert guard
/// when tracing is off.
pub fn begin(kind: SpanKind, iter: u64, micro: u32, bytes: u64, flags: u8) -> SpanGuard {
    TRACER.with(|t| match t.borrow_mut().as_mut() {
        Some(tr) => {
            tr.open_span(kind, iter, micro, bytes, flags);
            SpanGuard { active: true }
        }
        None => SpanGuard::inactive(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::NO_MICRO;

    #[test]
    fn no_tracer_records_nothing() {
        install(TraceMode::Off);
        let g = begin(SpanKind::Forward, 0, 0, 0, 0);
        assert!(!g.is_active());
        drop(g);
        let buf = take_buffer(0, 0, 0);
        assert!(buf.spans.is_empty());
    }

    #[test]
    fn spans_nest_and_parent_correctly() {
        install(TraceMode::Spans);
        {
            let _it = begin(SpanKind::Iteration, 7, NO_MICRO, 0, 0);
            {
                let _f = begin(SpanKind::Forward, 7, 0, 0, 0);
                let _r = begin(SpanKind::Recv, 7, 0, 128, 0);
            }
            let _b = begin(SpanKind::Backward, 7, 0, 0, 0);
        }
        let buf = take_buffer(2, 0, 1);
        install(TraceMode::Off);
        assert_eq!(buf.rank, 2);
        let kinds: Vec<_> = buf.spans.iter().map(|s| s.kind).collect();
        assert_eq!(
            kinds,
            vec![
                SpanKind::Iteration,
                SpanKind::Forward,
                SpanKind::Recv,
                SpanKind::Backward
            ]
        );
        assert_eq!(buf.spans[0].parent, NO_PARENT);
        assert_eq!(buf.spans[1].parent, buf.spans[0].seq);
        assert_eq!(buf.spans[2].parent, buf.spans[1].seq);
        assert_eq!(buf.spans[3].parent, buf.spans[0].seq);
        assert_eq!(buf.spans[2].bytes, 128);
    }

    #[test]
    fn set_bytes_updates_innermost_open_span() {
        install(TraceMode::Spans);
        {
            let g = begin(SpanKind::Encode, 1, 3, 0, 0);
            g.set_bytes(4096);
        }
        let buf = take_buffer(0, 0, 0);
        install(TraceMode::Off);
        assert_eq!(buf.spans[0].bytes, 4096);
    }

    #[test]
    fn repeated_takes_never_reuse_seq() {
        install(TraceMode::Spans);
        drop(begin(SpanKind::Forward, 0, 0, 0, 0));
        let first = take_buffer(0, 0, 0);
        drop(begin(SpanKind::Backward, 0, 0, 0, 0));
        let second = take_buffer(0, 0, 0);
        install(TraceMode::Off);
        assert_eq!(first.spans[0].seq, 0);
        assert_eq!(second.spans[0].seq, 1);
    }
}
