//! The benchmark's own span recorder, used by the layer replay: a span
//! around every call into a crate, kept in memory and written out once
//! when the run ends.
//!
//! A layer's figure is its spans' *self time* — duration minus the part
//! covered by child spans — so nested calls are never counted twice.

use crate::json::Json;
use opt_trace::{SpanRecord, NO_PARENT};
use std::collections::{BTreeMap, HashMap};
use std::time::Instant;

#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    /// Nanoseconds since the recorder was created.
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span.
    pub parent: Option<usize>,
    /// Replay iteration the span belongs to.
    pub iter: u64,
}

#[derive(Debug)]
pub struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Self {
        Recorder {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span; spans opened by `f` become its children.
    pub fn span<R>(&mut self, name: &'static str, iter: u64, f: impl FnOnce(&mut Self) -> R) -> R {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: self.open.last().copied(),
            iter,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        self.spans[id].end_ns = self.now_ns();
        out
    }

    /// Times a call that opens no spans of its own.
    pub fn leaf<R>(&mut self, name: &'static str, iter: u64, f: impl FnOnce() -> R) -> R {
        self.span(name, iter, |_| f())
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Self time in nanoseconds, per span.
    pub fn self_times(&self) -> Vec<u64> {
        let durs: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        let parents: Vec<Option<usize>> = self.spans.iter().map(|s| s.parent).collect();
        self_times(&durs, &parents)
    }

    /// Per span name, the median over iterations `>= first_iter` of the
    /// name's summed self time in one iteration, in nanoseconds.
    pub fn median_self_ns_per_iter(&self, first_iter: u64) -> BTreeMap<&'static str, f64> {
        let mut per_iter: BTreeMap<&'static str, BTreeMap<u64, f64>> = BTreeMap::new();
        for (span, self_ns) in self.spans.iter().zip(self.self_times()) {
            if span.iter >= first_iter {
                *per_iter
                    .entry(span.name)
                    .or_default()
                    .entry(span.iter)
                    .or_default() += self_ns as f64;
            }
        }
        per_iter
            .into_iter()
            .map(|(name, iters)| {
                let sums: Vec<f64> = iters.into_values().collect();
                (name, crate::stats::median(&sums))
            })
            .collect()
    }

    /// Checks the invariants a reader of the span file relies on: a
    /// parent precedes its children and encloses them in time.
    pub fn check_nesting(&self) -> Result<(), String> {
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_ns < s.start_ns {
                return Err(format!("span {i} ({}) ends before it starts", s.name));
            }
            if let Some(p) = s.parent {
                let Some(parent) = self.spans.get(p).filter(|_| p < i) else {
                    return Err(format!("span {i} ({}) has a dangling parent {p}", s.name));
                };
                if s.start_ns < parent.start_ns || s.end_ns > parent.end_ns {
                    return Err(format!(
                        "span {i} ({}) is not enclosed by its parent {p} ({})",
                        s.name, parent.name
                    ));
                }
            }
        }
        Ok(())
    }

    pub fn to_json(&self) -> Json {
        Json::Arr(
            self.spans
                .iter()
                .enumerate()
                .map(|(id, s)| {
                    Json::obj([
                        ("id", Json::Num(id as f64)),
                        ("name", Json::str(s.name)),
                        ("start_ns", Json::Num(s.start_ns as f64)),
                        ("end_ns", Json::Num(s.end_ns as f64)),
                        (
                            "parent",
                            s.parent.map_or(Json::Null, |p| Json::Num(p as f64)),
                        ),
                        ("iter", Json::Num(s.iter as f64)),
                    ])
                })
                .collect(),
        )
    }
}

/// Self time of each span given every span's duration and parent index:
/// duration minus its direct children's durations. A child that overran
/// its parent (clock granularity) cannot drive the result below zero.
pub fn self_times(durs: &[u64], parents: &[Option<usize>]) -> Vec<u64> {
    let mut out = durs.to_vec();
    for (child, parent) in parents.iter().enumerate() {
        if let Some(p) = *parent {
            out[p] = out[p].saturating_sub(durs[child]);
        }
    }
    out
}

/// [`self_times`] over one rank's `opt-trace` records, whose parent links
/// are per-thread sequence numbers rather than indices. A parent that is
/// not in `records` (drained earlier) is treated as absent.
pub fn record_self_times(records: &[SpanRecord]) -> Vec<u64> {
    let index: HashMap<u64, usize> = records
        .iter()
        .enumerate()
        .map(|(i, r)| (r.seq, i))
        .collect();
    let durs: Vec<u64> = records.iter().map(|r| r.dur_ns).collect();
    let parents: Vec<Option<usize>> = records
        .iter()
        .map(|r| {
            (r.parent != NO_PARENT)
                .then(|| index.get(&r.parent).copied())
                .flatten()
        })
        .collect();
    self_times(&durs, &parents)
}

#[cfg(test)]
mod tests {
    use super::*;
    use opt_trace::SpanKind;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // 0 ─┬─ 1 ─── 3
        //    └─ 2
        let durs = [100, 40, 30, 25];
        let parents = [None, Some(0), Some(0), Some(1)];
        assert_eq!(self_times(&durs, &parents), [30, 15, 30, 25]);
        // An overrunning child saturates instead of wrapping.
        assert_eq!(self_times(&[10, 12], &[None, Some(0)]), [0, 12]);
    }

    #[test]
    fn recorder_nests_and_accounts_per_iteration() {
        let mut rec = Recorder::new();
        for iter in 0..3 {
            rec.span("outer", iter, |rec| {
                rec.leaf("inner", iter, || std::hint::black_box(1 + 1));
                rec.leaf("inner", iter, || std::hint::black_box(2 + 2));
            });
        }
        rec.check_nesting().unwrap();
        assert_eq!(rec.spans().len(), 9);
        assert_eq!(rec.spans()[1].parent, Some(0));
        assert_eq!(rec.spans()[3].parent, None);
        let total: u64 = rec.self_times().iter().sum();
        let roots: u64 = rec
            .spans()
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        assert_eq!(total, roots, "self times partition the root spans");
        let medians = rec.median_self_ns_per_iter(1);
        assert_eq!(
            medians.keys().copied().collect::<Vec<_>>(),
            ["inner", "outer"]
        );
    }

    #[test]
    fn nesting_check_rejects_a_child_outside_its_parent() {
        let mut rec = Recorder::new();
        rec.span("outer", 0, |rec| rec.leaf("inner", 0, || ()));
        rec.spans[1].end_ns = rec.spans[0].end_ns + 1;
        assert!(rec.check_nesting().is_err());
    }

    #[test]
    fn record_self_times_follow_seq_parent_links() {
        let rec = |seq, parent, dur_ns| SpanRecord {
            seq,
            parent,
            kind: SpanKind::Forward,
            iter: 0,
            micro: 0,
            bytes: 0,
            flags: 0,
            start_ns: 0,
            dur_ns,
        };
        // Sequence numbers start mid-stream, as after an earlier drain,
        // and span 12's parent (seq 3) is no longer in the buffer.
        let records = [
            rec(10, NO_PARENT, 1000),
            rec(11, 10, 300),
            rec(12, 3, 50),
            rec(13, 11, 100),
        ];
        assert_eq!(record_self_times(&records), [700, 200, 50, 100]);
    }
}
