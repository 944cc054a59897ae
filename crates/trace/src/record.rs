//! The on-wire trace records: spans, per-thread buffers, and the
//! structural digest that backs the determinism contract.

use opt_tensor::{Persist, PersistError, Reader, Writer};

/// `micro` value for spans not tied to a microbatch.
pub const NO_MICRO: u32 = u32::MAX;

/// `parent` value for root spans (no enclosing span).
pub const NO_PARENT: u64 = u64::MAX;

/// Span flag bit: this backward slot carries a compression epilogue send.
pub const FLAG_EPILOGUE: u8 = 1;

/// Span flag bit: this decode applied a payload through the sparse fast
/// path (CSR kernels) instead of densify-then-dense math.
pub const FLAG_SPARSE: u8 = 2;

/// What a span measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum SpanKind {
    /// One whole training iteration on one rank.
    Iteration,
    /// A forward pipeline slot (one microbatch through one stage).
    Forward,
    /// A backward pipeline slot (one microbatch through one stage).
    Backward,
    /// The optimizer step at the end of an iteration.
    Optimizer,
    /// The data-parallel gradient exchange phase.
    DpExchange,
    /// The embedding-synchronization phase.
    EmbeddingSync,
    /// A compressor encode (gradient -> wire payload).
    Encode,
    /// A compressor decode (wire payload -> gradient).
    Decode,
    /// A message send (worker-level in `spans`, per-lane in `full`).
    Send,
    /// A message receive (worker-level in `spans`, per-lane in `full`).
    Recv,
    /// One validation pass over a held-out chunk.
    Validate,
    /// A compression epilogue handed off to a background thread so its
    /// encode + send overlap the data-parallel exchange (instant marker;
    /// `micro` carries the overlapped microbatch).
    OverlapLaunch,
    /// The barrier-side wait for an overlapped epilogue to finish
    /// (`bytes` carries the wire bytes the overlapped send moved).
    OverlapJoin,
}

impl SpanKind {
    /// Every kind, in tag order; a kind's code is its position here.
    /// Codes only travel in binary [`crate::TraceBuffer`]s between the
    /// processes of one build, and the Chrome JSON — the only persisted
    /// form — carries names, so codes may be renumbered freely.
    pub const ALL: [SpanKind; 13] = [
        SpanKind::Iteration,
        SpanKind::Forward,
        SpanKind::Backward,
        SpanKind::Optimizer,
        SpanKind::DpExchange,
        SpanKind::EmbeddingSync,
        SpanKind::Encode,
        SpanKind::Decode,
        SpanKind::Send,
        SpanKind::Recv,
        SpanKind::Validate,
        SpanKind::OverlapLaunch,
        SpanKind::OverlapJoin,
    ];

    /// The wire tag of this kind.
    pub fn code(self) -> u8 {
        Self::ALL.iter().position(|k| *k == self).unwrap() as u8
    }

    /// Decodes a wire tag.
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }

    /// The stable human-readable name (also the Chrome-trace event name).
    pub fn name(self) -> &'static str {
        match self {
            SpanKind::Iteration => "iteration",
            SpanKind::Forward => "forward",
            SpanKind::Backward => "backward",
            SpanKind::Optimizer => "optimizer",
            SpanKind::DpExchange => "dp_exchange",
            SpanKind::EmbeddingSync => "embedding_sync",
            SpanKind::Encode => "encode",
            SpanKind::Decode => "decode",
            SpanKind::Send => "send",
            SpanKind::Recv => "recv",
            SpanKind::Validate => "validate",
            SpanKind::OverlapLaunch => "overlap_launch",
            SpanKind::OverlapJoin => "overlap_join",
        }
    }

    /// Inverse of [`SpanKind::name`].
    pub fn from_name(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Whether this span is pipeline compute (forward/backward slots and
    /// the optimizer step).
    pub fn is_compute(self) -> bool {
        matches!(
            self,
            SpanKind::Forward | SpanKind::Backward | SpanKind::Optimizer
        )
    }

    /// Whether this span is communication. [`SpanKind::OverlapJoin`]
    /// counts: it is the residual wait for an overlapped epilogue send,
    /// i.e. the part of that send the overlap failed to hide.
    pub fn is_comm(self) -> bool {
        matches!(
            self,
            SpanKind::Send
                | SpanKind::Recv
                | SpanKind::DpExchange
                | SpanKind::EmbeddingSync
                | SpanKind::OverlapJoin
        )
    }

    /// The Chrome-trace category string.
    pub fn category(self) -> &'static str {
        if self.is_compute() {
            "compute"
        } else if self.is_comm() {
            "comm"
        } else if matches!(self, SpanKind::Encode | SpanKind::Decode) {
            "codec"
        } else {
            "other"
        }
    }
}

/// One closed span on one rank's worker thread.
///
/// The *structural* fields — everything except `start_ns` and `dur_ns` —
/// are covered by the determinism contract: a `spans`-mode run records the
/// same structure regardless of kernel-thread count or transport backend.
/// The two timestamp fields are wall-clock and vary run to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SpanRecord {
    /// Per-thread sequence number (also the span's id within its buffer).
    pub seq: u64,
    /// `seq` of the enclosing open span, or [`NO_PARENT`].
    pub parent: u64,
    /// What the span measures.
    pub kind: SpanKind,
    /// Training iteration the span belongs to.
    pub iter: u64,
    /// Microbatch index, or [`NO_MICRO`].
    pub micro: u32,
    /// Bytes moved or encoded by the span (0 for pure compute).
    pub bytes: u64,
    /// Flag bits ([`FLAG_EPILOGUE`], ...).
    pub flags: u8,
    /// Wall-clock start, nanoseconds since the UNIX epoch. Excluded from
    /// structural digests.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds. Excluded from structural
    /// digests.
    pub dur_ns: u64,
}

/// Encoded size of one span (fixed-width fields only).
const SPAN_WIRE_BYTES: usize = 8 + 8 + 1 + 8 + 4 + 8 + 1 + 8 + 8;

impl Persist for SpanRecord {
    fn persist(&self, w: &mut Writer) {
        w.u64(self.seq);
        w.u64(self.parent);
        w.u8(self.kind.code());
        w.u64(self.iter);
        w.u32(self.micro);
        w.u64(self.bytes);
        w.u8(self.flags);
        w.u64(self.start_ns);
        w.u64(self.dur_ns);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let seq = r.u64()?;
        let parent = r.u64()?;
        let tag = r.u8()?;
        let kind = SpanKind::from_code(tag).ok_or(PersistError::BadTag {
            what: "SpanKind",
            tag,
        })?;
        Ok(SpanRecord {
            seq,
            parent,
            kind,
            iter: r.u64()?,
            micro: r.u32()?,
            bytes: r.u64()?,
            flags: r.u8()?,
            start_ns: r.u64()?,
            dur_ns: r.u64()?,
        })
    }
}

/// One rank's recorded spans, shipped to the coordinator at run end.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct TraceBuffer {
    /// Global rank (`dp * pp + stage`).
    pub rank: u32,
    /// Pipeline stage index of the rank.
    pub stage: u32,
    /// Data-parallel index of the rank.
    pub dp: u32,
    /// The rank's spans, ordered by `seq`.
    pub spans: Vec<SpanRecord>,
}

impl Persist for TraceBuffer {
    fn persist(&self, w: &mut Writer) {
        w.u32(self.rank);
        w.u32(self.stage);
        w.u32(self.dp);
        w.usize(self.spans.len());
        for s in &self.spans {
            s.persist(w);
        }
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let rank = r.u32()?;
        let stage = r.u32()?;
        let dp = r.u32()?;
        let n = r.checked_len(SPAN_WIRE_BYTES)?;
        let mut spans = Vec::with_capacity(n);
        for _ in 0..n {
            spans.push(SpanRecord::restore(r)?);
        }
        Ok(TraceBuffer {
            rank,
            stage,
            dp,
            spans,
        })
    }
}

/// FNV-1a, the repo's standard cheap stable hash.
pub(crate) fn fnv1a64(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash ^= u64::from(b);
        *hash = hash.wrapping_mul(0x100_0000_01b3);
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

impl TraceBuffer {
    /// A digest over the buffer's *structural* fields only — span
    /// timestamps and durations are excluded, so two runs with identical
    /// structure (the determinism contract) produce identical digests.
    pub fn structural_digest(&self) -> u64 {
        let mut h = FNV_OFFSET;
        fnv1a64(&mut h, &self.rank.to_le_bytes());
        fnv1a64(&mut h, &self.stage.to_le_bytes());
        fnv1a64(&mut h, &self.dp.to_le_bytes());
        for s in &self.spans {
            fnv1a64(&mut h, &s.seq.to_le_bytes());
            fnv1a64(&mut h, &s.parent.to_le_bytes());
            fnv1a64(&mut h, &[s.kind.code(), s.flags]);
            fnv1a64(&mut h, &s.iter.to_le_bytes());
            fnv1a64(&mut h, &s.micro.to_le_bytes());
            fnv1a64(&mut h, &s.bytes.to_le_bytes());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_span(seq: u64) -> SpanRecord {
        SpanRecord {
            seq,
            parent: if seq == 0 { NO_PARENT } else { seq - 1 },
            kind: SpanKind::from_code((seq % SpanKind::ALL.len() as u64) as u8).unwrap(),
            iter: seq / 3,
            micro: if seq.is_multiple_of(2) {
                NO_MICRO
            } else {
                seq as u32
            },
            bytes: seq * 17,
            flags: (seq % 2) as u8,
            start_ns: 1_000 + seq,
            dur_ns: 10 * seq,
        }
    }

    #[test]
    fn kind_codes_roundtrip() {
        for kind in SpanKind::ALL {
            assert_eq!(SpanKind::from_code(kind.code()), Some(kind));
            assert_eq!(SpanKind::from_name(kind.name()), Some(kind));
        }
        assert_eq!(SpanKind::from_code(200), None);
        assert_eq!(SpanKind::from_name("nope"), None);
    }

    #[test]
    fn buffer_persist_roundtrips() {
        let buf = TraceBuffer {
            rank: 3,
            stage: 1,
            dp: 1,
            spans: (0..20).map(sample_span).collect(),
        };
        let bytes = buf.to_bytes();
        assert_eq!(TraceBuffer::from_bytes(&bytes).unwrap(), buf);
    }

    #[test]
    fn bad_kind_tag_is_rejected() {
        let mut buf = TraceBuffer {
            rank: 0,
            stage: 0,
            dp: 0,
            spans: vec![sample_span(0)],
        };
        buf.spans[0].kind = SpanKind::Iteration;
        let mut bytes = buf.to_bytes();
        // The kind tag sits after rank/stage/dp (12), len (8), seq+parent (16).
        bytes[12 + 8 + 16] = 99;
        assert!(matches!(
            TraceBuffer::from_bytes(&bytes),
            Err(PersistError::BadTag {
                what: "SpanKind",
                ..
            })
        ));
    }

    #[test]
    fn digest_ignores_timestamps_but_not_structure() {
        let buf = TraceBuffer {
            rank: 1,
            stage: 0,
            dp: 1,
            spans: (0..5).map(sample_span).collect(),
        };
        let mut shifted = buf.clone();
        for s in &mut shifted.spans {
            s.start_ns += 999;
            s.dur_ns *= 2;
        }
        assert_eq!(buf.structural_digest(), shifted.structural_digest());

        let mut mutated = buf.clone();
        mutated.spans[2].bytes += 1;
        assert_ne!(buf.structural_digest(), mutated.structural_digest());
    }
}
