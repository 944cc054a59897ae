//! Per-(src, dst, channel) transport accounting.
//!
//! The [`crate::TrafficLedger`] records the *modeled* fp16 wire volume the
//! experiments reason about (the paper's Fig. 3 classes). This module
//! records what the transport actually moved: every [`crate::Transport`]
//! backend counts each send and each delivered receive per lane, and
//! [`TrafficBreakdown`] pairs those lane counters with the modeled totals
//! in one report-friendly value. Lane payload bytes are counted without
//! frame overhead, so `LocalTransport` and `TcpTransport` report identical
//! numbers for identical runs — the breakdown is covered by the same
//! Local ≡ TCP determinism contract as the training numerics.

use crate::traffic::{TrafficClass, TrafficSnapshot};
use crate::transport::channel_id;
use opt_tensor::{Persist, PersistError, Reader, Writer};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::Arc;

/// What a transport channel carries, derived from the channel-id
/// namespace ([`channel_id`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ChannelClass {
    /// Forward pipeline activations (namespace 1, index 0).
    PipeForward,
    /// Backward pipeline gradients (namespace 1, index 1).
    PipeBackward,
    /// Collective group lanes (namespace 2).
    Collective,
    /// Control plane: commands, acks, checkpoint shards, metrics, traces
    /// (namespace 3).
    Control,
    /// Anything else (tests, ad-hoc lanes).
    Other,
}

impl ChannelClass {
    /// Classifies a transport channel id.
    pub fn of(channel: u64) -> Self {
        match channel >> 56 {
            1 if channel == channel_id(1, 0) => ChannelClass::PipeForward,
            1 if channel == channel_id(1, 1) => ChannelClass::PipeBackward,
            2 => ChannelClass::Collective,
            3 => ChannelClass::Control,
            _ => ChannelClass::Other,
        }
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            ChannelClass::PipeForward => "pipe_fwd",
            ChannelClass::PipeBackward => "pipe_bwd",
            ChannelClass::Collective => "collective",
            ChannelClass::Control => "control",
            ChannelClass::Other => "other",
        }
    }
}

/// Counters of one transport lane, as observed by one transport endpoint.
///
/// In an in-process world one shared `LocalTransport` sees both ends of
/// every lane; in a multi-process world the sender's transport records the
/// `sends`/`send_bytes` half and the receiver's the `recvs`/`recv_bytes`
/// half, and [`TrafficBreakdown::absorb`] reassembles the whole lane.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct ChannelStat {
    /// Sending rank of the lane.
    pub src: u32,
    /// Receiving rank of the lane.
    pub dst: u32,
    /// Transport channel id of the lane.
    pub channel: u64,
    /// Messages sent on the lane.
    pub sends: u64,
    /// Payload bytes sent (frame overhead excluded).
    pub send_bytes: u64,
    /// Messages delivered to a receiver.
    pub recvs: u64,
    /// Payload bytes delivered.
    pub recv_bytes: u64,
}

impl ChannelStat {
    /// The lane's channel class.
    pub fn class(&self) -> ChannelClass {
        ChannelClass::of(self.channel)
    }
}

impl Persist for ChannelStat {
    fn persist(&self, w: &mut Writer) {
        w.u32(self.src);
        w.u32(self.dst);
        w.u64(self.channel);
        w.u64(self.sends);
        w.u64(self.send_bytes);
        w.u64(self.recvs);
        w.u64(self.recv_bytes);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(ChannelStat {
            src: r.u32()?,
            dst: r.u32()?,
            channel: r.u64()?,
            sends: r.u64()?,
            send_bytes: r.u64()?,
            recvs: r.u64()?,
            recv_bytes: r.u64()?,
        })
    }
}

/// [sends, send_bytes, recvs, recv_bytes] per lane.
type LaneCounters = BTreeMap<(u64, u32, u32), [u64; 4]>;

/// Thread-safe per-lane counter shared by all handles of one transport.
#[derive(Debug, Clone, Default)]
pub struct ChannelLedger {
    inner: Arc<Mutex<LaneCounters>>,
}

impl ChannelLedger {
    /// Creates an empty ledger.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one sent message of `bytes` payload bytes.
    pub fn record_send(&self, src: usize, dst: usize, channel: u64, bytes: usize) {
        let mut map = self.inner.lock();
        let c = map.entry((channel, src as u32, dst as u32)).or_default();
        c[0] += 1;
        c[1] += bytes as u64;
    }

    /// Records one delivered message of `bytes` payload bytes.
    pub fn record_recv(&self, src: usize, dst: usize, channel: u64, bytes: usize) {
        let mut map = self.inner.lock();
        let c = map.entry((channel, src as u32, dst as u32)).or_default();
        c[2] += 1;
        c[3] += bytes as u64;
    }

    /// Snapshots every lane, sorted by (channel, src, dst).
    pub fn snapshot(&self) -> Vec<ChannelStat> {
        self.inner
            .lock()
            .iter()
            .map(
                |(&(channel, src, dst), &[sends, send_bytes, recvs, recv_bytes])| ChannelStat {
                    src,
                    dst,
                    channel,
                    sends,
                    send_bytes,
                    recvs,
                    recv_bytes,
                },
            )
            .collect()
    }
}

/// Per-class wire traffic of a run: the modeled fp16 totals the
/// experiments have always reported (`totals`, identical bytes to the old
/// flat [`TrafficSnapshot`]) plus the per-lane breakdown the transports
/// measured (`channels`, control-plane lanes excluded).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct TrafficBreakdown {
    /// The modeled per-class totals (the pre-breakdown report fields).
    pub totals: TrafficSnapshot,
    /// Measured per-lane counters, sorted by (channel, src, dst).
    pub channels: Vec<ChannelStat>,
}

impl TrafficBreakdown {
    /// Builds a breakdown from modeled totals and raw transport lanes,
    /// dropping control-plane lanes (their volume depends on how the run
    /// was driven, not on the training schedule).
    pub fn new(totals: TrafficSnapshot, mut channels: Vec<ChannelStat>) -> Self {
        channels.retain(|c| c.class() != ChannelClass::Control);
        channels.sort_by_key(|c| (c.channel, c.src, c.dst));
        TrafficBreakdown { totals, channels }
    }

    /// Modeled bytes recorded for `class` (delegates to `totals`, so the
    /// pre-breakdown aggregate numbers are unchanged).
    pub fn bytes(&self, class: TrafficClass) -> u64 {
        self.totals.bytes(class)
    }

    /// Modeled message count recorded for `class`.
    pub fn messages(&self, class: TrafficClass) -> u64 {
        self.totals.messages(class)
    }

    /// Total modeled bytes across all classes.
    pub fn total_bytes(&self) -> u64 {
        self.totals.total_bytes()
    }

    /// Measured payload bytes sent on lanes of `class`.
    pub fn sent_bytes(&self, class: ChannelClass) -> u64 {
        self.channels
            .iter()
            .filter(|c| c.class() == class)
            .map(|c| c.send_bytes)
            .sum()
    }

    /// Folds another breakdown into this one: totals add exactly, lanes
    /// merge by (channel, src, dst) — so per-process halves of a lane
    /// reassemble into the numbers one shared in-process transport would
    /// have recorded.
    pub fn absorb(&mut self, other: &TrafficBreakdown) {
        self.totals.absorb(&other.totals);
        let mut merged: BTreeMap<(u64, u32, u32), ChannelStat> = self
            .channels
            .drain(..)
            .map(|c| ((c.channel, c.src, c.dst), c))
            .collect();
        for c in &other.channels {
            let e = merged
                .entry((c.channel, c.src, c.dst))
                .or_insert(ChannelStat {
                    src: c.src,
                    dst: c.dst,
                    channel: c.channel,
                    ..ChannelStat::default()
                });
            e.sends += c.sends;
            e.send_bytes += c.send_bytes;
            e.recvs += c.recvs;
            e.recv_bytes += c.recv_bytes;
        }
        self.channels = merged.into_values().collect();
    }
}

impl Persist for TrafficBreakdown {
    fn persist(&self, w: &mut Writer) {
        self.totals.persist(w);
        w.usize(self.channels.len());
        for c in &self.channels {
            c.persist(w);
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let totals = TrafficSnapshot::restore(r)?;
        // 4 + 4 + 8 + 8*4 bytes per lane record.
        let n = r.checked_len(48)?;
        let mut channels = Vec::with_capacity(n);
        for _ in 0..n {
            channels.push(ChannelStat::restore(r)?);
        }
        Ok(TrafficBreakdown { totals, channels })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traffic::TrafficLedger;

    #[test]
    fn channel_classes_follow_namespaces() {
        assert_eq!(
            ChannelClass::of(channel_id(1, 0)),
            ChannelClass::PipeForward
        );
        assert_eq!(
            ChannelClass::of(channel_id(1, 1)),
            ChannelClass::PipeBackward
        );
        assert_eq!(ChannelClass::of(channel_id(2, 5)), ChannelClass::Collective);
        assert_eq!(ChannelClass::of(channel_id(3, 0)), ChannelClass::Control);
        assert_eq!(ChannelClass::of(0), ChannelClass::Other);
        assert_eq!(ChannelClass::of(channel_id(1, 9)), ChannelClass::Other);
    }

    #[test]
    fn ledger_counts_both_halves() {
        let l = ChannelLedger::new();
        l.record_send(0, 1, channel_id(1, 0), 100);
        l.record_send(0, 1, channel_id(1, 0), 50);
        l.record_recv(0, 1, channel_id(1, 0), 100);
        let snap = l.snapshot();
        assert_eq!(snap.len(), 1);
        assert_eq!(snap[0].sends, 2);
        assert_eq!(snap[0].send_bytes, 150);
        assert_eq!(snap[0].recvs, 1);
        assert_eq!(snap[0].recv_bytes, 100);
        assert_eq!(snap[0].class(), ChannelClass::PipeForward);
    }

    #[test]
    fn breakdown_filters_control_and_sorts() {
        let l = ChannelLedger::new();
        l.record_send(1, 0, channel_id(2, 0), 8);
        l.record_send(0, 1, channel_id(1, 0), 4);
        l.record_send(0, 1, channel_id(3, 0), 999);
        let bd = TrafficBreakdown::new(TrafficSnapshot::default(), l.snapshot());
        assert_eq!(bd.channels.len(), 2);
        assert_eq!(bd.channels[0].class(), ChannelClass::PipeForward);
        assert_eq!(bd.channels[1].class(), ChannelClass::Collective);
        assert_eq!(bd.sent_bytes(ChannelClass::PipeForward), 4);
    }

    #[test]
    fn absorb_reassembles_lane_halves_and_totals() {
        let modeled = TrafficLedger::new();
        modeled.record(TrafficClass::InterStage, 64);
        let sender = ChannelLedger::new();
        sender.record_send(0, 1, channel_id(1, 0), 64);
        let receiver = ChannelLedger::new();
        receiver.record_recv(0, 1, channel_id(1, 0), 64);

        let mut merged = TrafficBreakdown::new(modeled.snapshot(), sender.snapshot());
        merged.absorb(&TrafficBreakdown::new(
            TrafficSnapshot::default(),
            receiver.snapshot(),
        ));

        let shared = ChannelLedger::new();
        shared.record_send(0, 1, channel_id(1, 0), 64);
        shared.record_recv(0, 1, channel_id(1, 0), 64);
        let reference = TrafficBreakdown::new(modeled.snapshot(), shared.snapshot());
        assert_eq!(merged, reference);
        assert_eq!(merged.bytes(TrafficClass::InterStage), 64);
        assert_eq!(merged.total_bytes(), 64);
    }

    #[test]
    fn breakdown_persist_roundtrips() {
        let modeled = TrafficLedger::new();
        modeled.record(TrafficClass::DataParallel, 10);
        let l = ChannelLedger::new();
        l.record_send(0, 1, channel_id(1, 0), 4);
        l.record_recv(0, 1, channel_id(1, 0), 4);
        l.record_send(1, 0, channel_id(2, 3), 16);
        let bd = TrafficBreakdown::new(modeled.snapshot(), l.snapshot());
        let bytes = opt_tensor::Persist::to_bytes(&bd);
        assert_eq!(TrafficBreakdown::from_bytes(&bytes).unwrap(), bd);
    }
}
