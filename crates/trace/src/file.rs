//! The trace file (`trace.bin`): a merged [`Trace`] in the `Persist`
//! encoding the control plane already ships [`TraceBuffer`]s in, plus the
//! exporting process's GEMM kernel-path counts. `trace_report` reads it
//! back exactly — every timestamp to the nanosecond, every rank even with
//! no spans; the Chrome JSON written beside it is for the viewer.

use crate::chrome::{exercised_kernel_paths, Trace};
use crate::record::TraceBuffer;
use opt_tensor::{Persist, PersistError, Reader, Writer};

/// Opens every trace file (`"OPTTRACE"` read as a little-endian `u64`), so
/// a document in another format — a Chrome JSON export, say — is refused
/// before any length field is read.
const MAGIC: u64 = u64::from_le_bytes(*b"OPTTRACE");

/// Version of the trace file layout; bumped whenever the layout or a
/// [`crate::SpanKind`] code changes.
const TRACE_FILE_VERSION: u32 = 1;

/// A run's trace as written to disk.
///
/// # Layout
///
/// ```text
/// magic    u64 LE              "OPTTRACE"
/// version  u32 LE              TRACE_FILE_VERSION
/// buffers  Vec<TraceBuffer>    Persist codec, in rank order
/// paths    Vec<(String, u64)>  ("{arch}/dense", invocations)
/// ```
#[derive(Debug, PartialEq)]
pub struct TraceFile {
    /// The merged run trace.
    pub trace: Trace,
    /// `("{arch}/dense", count)` for every GEMM path the exporting process
    /// ran, sorted by path: what the Chrome JSON's `kernel_paths` event
    /// carries. The counters are per process, so in a multi-process run
    /// they describe the process that merged and exported the trace.
    pub kernel_paths: Vec<(String, u64)>,
}

impl TraceFile {
    /// The trace together with the calling process's kernel-path counts.
    pub fn exported(trace: Trace) -> Self {
        let mut kernel_paths = exercised_kernel_paths();
        kernel_paths.sort();
        TraceFile {
            trace,
            kernel_paths,
        }
    }

    /// Encodes the file.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.u64(MAGIC);
        w.u32(TRACE_FILE_VERSION);
        self.trace.buffers.persist(&mut w);
        self.kernel_paths.persist(&mut w);
        w.into_bytes()
    }

    /// Decodes a file written by [`TraceFile::encode`]. Another format, a
    /// different version, a truncated file and trailing bytes are errors.
    pub fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        let mut r = Reader::new(bytes);
        if r.u64()? != MAGIC {
            return Err(PersistError::Invalid {
                what: "not a trace file (bad magic)",
            });
        }
        if r.u32()? != TRACE_FILE_VERSION {
            return Err(PersistError::Invalid {
                what: "unsupported trace file version",
            });
        }
        let buffers = Vec::<TraceBuffer>::restore(&mut r)?;
        let kernel_paths = Vec::restore(&mut r)?;
        r.finish()?;
        Ok(TraceFile {
            trace: Trace { buffers },
            kernel_paths,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{SpanKind, SpanRecord, NO_MICRO, NO_PARENT};

    /// Two ranks with wall-clock timestamps, plus a rank with no spans.
    fn sample() -> TraceFile {
        let t0 = 1_760_000_000_123_456_789u64;
        let span = |seq: u64, kind, micro| SpanRecord {
            seq,
            parent: if seq == 0 { NO_PARENT } else { 0 },
            kind,
            iter: 3,
            micro,
            bytes: 4096 * seq,
            flags: 0,
            start_ns: t0 + 1_000 * seq + 7,
            dur_ns: 333_333 + seq,
        };
        let buffer = |rank: u32, spans| TraceBuffer {
            rank,
            stage: rank % 2,
            dp: rank / 2,
            spans,
        };
        TraceFile {
            trace: Trace::merge(vec![
                buffer(
                    0,
                    vec![
                        span(0, SpanKind::Iteration, NO_MICRO),
                        span(1, SpanKind::Forward, 0),
                        span(2, SpanKind::Send, 0),
                    ],
                ),
                buffer(1, vec![span(0, SpanKind::Backward, 1)]),
                buffer(2, Vec::new()),
            ]),
            kernel_paths: vec![("avx2/dense".to_string(), 7864)],
        }
    }

    #[test]
    fn roundtrips_exactly() {
        let file = sample();
        let bytes = file.encode();
        assert_eq!(TraceFile::decode(&bytes), Ok(file));
    }

    #[test]
    fn refuses_truncation_trailing_bytes_and_chrome_json() {
        let file = sample();
        let bytes = file.encode();
        for cut in 0..bytes.len() {
            assert!(
                TraceFile::decode(&bytes[..cut]).is_err(),
                "a file cut at {cut} of {} bytes decoded",
                bytes.len()
            );
        }
        let mut long = bytes.clone();
        long.push(0);
        assert_eq!(
            TraceFile::decode(&long),
            Err(PersistError::TrailingBytes { remaining: 1 })
        );
        let json = file.trace.to_chrome_json();
        assert!(matches!(
            TraceFile::decode(json.as_bytes()),
            Err(PersistError::Invalid { .. })
        ));
    }
}
