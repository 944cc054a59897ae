//! Per-class traffic accounting shared across rank threads.

use parking_lot::Mutex;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::sync::Arc;

/// Communication class, matching the paper's Fig. 3 / Fig. 10 breakdown
/// categories.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum TrafficClass {
    /// Data-parallel gradient all-reduce ("DP Comm.").
    DataParallel,
    /// Pipeline inter-stage activation/gradient p2p ("Inter-stage Comm.").
    InterStage,
    /// Embedding synchronization ("EMB Comm.").
    Embedding,
    /// Tensor-parallel all-reduce (intra-node; negligible in the paper).
    TensorParallel,
}

impl TrafficClass {
    /// All classes, in breakdown display order.
    pub const ALL: [TrafficClass; 4] = [
        TrafficClass::DataParallel,
        TrafficClass::InterStage,
        TrafficClass::Embedding,
        TrafficClass::TensorParallel,
    ];

    fn index(self) -> usize {
        match self {
            TrafficClass::DataParallel => 0,
            TrafficClass::InterStage => 1,
            TrafficClass::Embedding => 2,
            TrafficClass::TensorParallel => 3,
        }
    }
}

impl fmt::Display for TrafficClass {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            TrafficClass::DataParallel => "DP Comm.",
            TrafficClass::InterStage => "Inter-stage Comm.",
            TrafficClass::Embedding => "EMB Comm.",
            TrafficClass::TensorParallel => "TP Comm.",
        };
        f.write_str(s)
    }
}

#[derive(Default)]
struct Counters {
    bytes: [u64; 4],
    messages: [u64; 4],
}

/// Immutable snapshot of a [`TrafficLedger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct TrafficSnapshot {
    bytes: [u64; 4],
    messages: [u64; 4],
}

impl TrafficSnapshot {
    /// Bytes recorded for `class`.
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.bytes[class.index()]
    }

    /// Message count recorded for `class`.
    pub fn messages(&self, class: TrafficClass) -> u64 {
        self.messages[class.index()]
    }

    /// Total bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.bytes.iter().sum()
    }

    /// Folds another snapshot into this one (exact integer sums, so
    /// merging per-process ledgers in any order reproduces the single
    /// shared ledger a one-process world would have recorded).
    pub fn absorb(&mut self, other: &TrafficSnapshot) {
        for i in 0..4 {
            self.bytes[i] += other.bytes[i];
            self.messages[i] += other.messages[i];
        }
    }
}

impl opt_tensor::Persist for TrafficSnapshot {
    fn persist(&self, w: &mut opt_tensor::Writer) {
        for &b in &self.bytes {
            w.u64(b);
        }
        for &m in &self.messages {
            w.u64(m);
        }
    }

    fn restore(r: &mut opt_tensor::Reader<'_>) -> Result<Self, opt_tensor::PersistError> {
        let mut snap = TrafficSnapshot::default();
        for b in &mut snap.bytes {
            *b = r.u64()?;
        }
        for m in &mut snap.messages {
            *m = r.u64()?;
        }
        Ok(snap)
    }
}

/// Thread-safe byte/message counter, cloned into every rank thread.
///
/// # Example
///
/// ```
/// use opt_net::{TrafficClass, TrafficLedger};
/// let ledger = TrafficLedger::new();
/// ledger.record(TrafficClass::InterStage, 1024);
/// let snap = ledger.snapshot();
/// assert_eq!(snap.bytes(TrafficClass::InterStage), 1024);
/// assert_eq!(snap.messages(TrafficClass::InterStage), 1);
/// ```
#[derive(Clone, Default)]
pub struct TrafficLedger {
    inner: Arc<Mutex<Counters>>,
}

impl fmt::Debug for TrafficLedger {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let snap = self.snapshot();
        write!(f, "TrafficLedger(total_bytes={})", snap.total_bytes())
    }
}

impl TrafficLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one message of `bytes` bytes in `class`.
    pub fn record(&self, class: TrafficClass, bytes: u64) {
        let mut c = self.inner.lock();
        c.bytes[class.index()] += bytes;
        c.messages[class.index()] += 1;
    }

    /// Takes a consistent snapshot of all counters.
    pub fn snapshot(&self) -> TrafficSnapshot {
        let c = self.inner.lock();
        TrafficSnapshot {
            bytes: c.bytes,
            messages: c.messages,
        }
    }

    /// Resets all counters to zero.
    pub fn reset(&self) {
        let mut c = self.inner.lock();
        *c = Counters::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn records_per_class() {
        let ledger = TrafficLedger::new();
        ledger.record(TrafficClass::DataParallel, 100);
        ledger.record(TrafficClass::DataParallel, 50);
        ledger.record(TrafficClass::Embedding, 10);
        let s = ledger.snapshot();
        assert_eq!(s.bytes(TrafficClass::DataParallel), 150);
        assert_eq!(s.messages(TrafficClass::DataParallel), 2);
        assert_eq!(s.bytes(TrafficClass::Embedding), 10);
        assert_eq!(s.bytes(TrafficClass::InterStage), 0);
        assert_eq!(s.total_bytes(), 160);
    }

    #[test]
    fn concurrent_recording_is_lossless() {
        let ledger = TrafficLedger::new();
        let mut handles = Vec::new();
        for _ in 0..8 {
            let l = ledger.clone();
            handles.push(thread::spawn(move || {
                for _ in 0..1000 {
                    l.record(TrafficClass::InterStage, 1);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(ledger.snapshot().bytes(TrafficClass::InterStage), 8000);
    }

    #[test]
    fn reset_clears() {
        let ledger = TrafficLedger::new();
        ledger.record(TrafficClass::TensorParallel, 7);
        ledger.reset();
        assert_eq!(ledger.snapshot().total_bytes(), 0);
    }

    #[test]
    fn display_names_match_paper() {
        assert_eq!(TrafficClass::DataParallel.to_string(), "DP Comm.");
        assert_eq!(TrafficClass::InterStage.to_string(), "Inter-stage Comm.");
        assert_eq!(TrafficClass::Embedding.to_string(), "EMB Comm.");
    }
}
