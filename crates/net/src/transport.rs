//! The pluggable message transport behind every communication primitive.
//!
//! The collectives ([`crate::CollectiveGroup`]), the point-to-point mesh
//! ([`crate::P2pMesh`]) and the control plane of the trainer are all
//! written against one small abstraction: a [`Transport`] moves typed
//! messages between the ranks of a fixed-size world, FIFO per
//! `(src, dst, channel)` lane.
//!
//! There is **one message form**: a value that implements
//! [`Persist`], sent with [`Transport::send_value`] (or, for a
//! broadcast, wrapped once in a [`SharedPayload`] and sent with
//! [`Transport::send_shared`]) and received with
//! [`Transport::recv_value`]. What a backend does with it is its own
//! business:
//!
//! * [`LocalTransport`] (this file) — one crossbeam channel per lane,
//!   shared by every worker *thread* of a single-process world. A value
//!   crosses as the `Arc` it was wrapped in: zero serialization.
//! * [`crate::TcpTransport`] (`tcp.rs`) — one process per rank, a full
//!   mesh of loopback/LAN TCP connections. A value is encoded once at the
//!   socket, wrapped in the shared `opt-ckpt` frame (magic, version,
//!   length, word-wise checksum) and decoded on delivery, so a truncated or
//!   bit-flipped frame is rejected before any decoder sees it.
//!
//! A backend implements the two `*_payload` methods over [`Payload`],
//! the envelope a message travels in; the typed methods are derived.
//! [`Payload::Bytes`] exists because bytes are what a socket delivers —
//! nothing but a byte-boundary backend's reader constructs one.
//!
//! There is **one error type**: every failure of a send or a receive is a
//! [`TransportError`], and the variants a receive can produce name the
//! lane (or the peer) they happened on.
//!
//! Because both backends preserve per-lane FIFO order and the collectives
//! reduce strictly in member order, a training step produces **the same
//! bits** whether its world is threads over [`LocalTransport`] or OS
//! processes over [`crate::TcpTransport`].
//!
//! The receive timeout of every lane defaults to 30 s and is tunable via
//! the `OPT_NET_TIMEOUT_MS` environment variable (handy when stepping
//! through real-transport runs in a debugger).

use crate::chanstats::{ChannelClass, ChannelLedger, ChannelStat};
use opt_tensor::Persist;
use opt_trace::{SpanGuard, SpanKind, NO_MICRO};
use parking_lot::Mutex;
use std::any::Any;
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError, Sender};

/// Default receive timeout when `OPT_NET_TIMEOUT_MS` is unset.
const DEFAULT_TIMEOUT_MS: u64 = 30_000;

/// The receive timeout in effect: `OPT_NET_TIMEOUT_MS` milliseconds, or
/// 30 s if unset or unparsable.
pub fn net_timeout() -> Duration {
    std::env::var("OPT_NET_TIMEOUT_MS")
        .ok()
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(
            Duration::from_millis(DEFAULT_TIMEOUT_MS),
            Duration::from_millis,
        )
}

/// Builds a transport channel id from a namespace and an index, so
/// independent subsystems (meshes, collectives, control plane) can carve
/// non-colliding lanes out of one transport.
pub const fn channel_id(namespace: u8, index: u64) -> u64 {
    ((namespace as u64) << 56) | (index & ((1 << 56) - 1))
}

/// Why a transport operation failed.
///
/// The variants a receive can return on an established lane —
/// [`Timeout`](TransportError::Timeout),
/// [`Corrupt`](TransportError::Corrupt),
/// [`Decode`](TransportError::Decode) — carry the `(src, dst, channel)`
/// lane, so a failure in a many-rank run says *which* edge stalled or
/// broke; [`Disconnected`](TransportError::Disconnected) names the peer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TransportError {
    /// No message arrived on the lane within the timeout. In a correct
    /// schedule this means a deadlock — a bug.
    Timeout {
        /// Sending rank of the lane.
        src: usize,
        /// Receiving rank of the lane.
        dst: usize,
        /// Channel id of the lane.
        channel: u64,
        /// How long the receive waited.
        waited_ms: u128,
    },
    /// The peer's process or connection is gone and its lane is drained.
    Disconnected {
        /// The peer rank that disappeared.
        peer: usize,
    },
    /// A frame from the lane's sender failed integrity validation (bad
    /// magic, stale version, length/checksum mismatch). The connection it
    /// arrived on is dead — a transport that cannot trust its framing
    /// cannot resynchronize.
    Corrupt {
        /// Sending rank of the lane.
        src: usize,
        /// Receiving rank of the lane.
        dst: usize,
        /// Channel id of the lane.
        channel: u64,
        /// What the validator rejected.
        detail: String,
    },
    /// The OS networking layer failed (bind, connect, write, ...).
    Io {
        /// Stringified I/O error.
        detail: String,
    },
    /// Rendezvous failed (peers never published, unparsable endpoint, a
    /// connection whose hello frame does not validate).
    Rendezvous {
        /// What went wrong.
        detail: String,
    },
    /// A typed receive could not turn the delivered payload into the
    /// requested type: the byte decode failed after the transport's
    /// integrity checks passed, or a zero-copy handoff carried a
    /// different type than the receiver asked for. Either way the lane
    /// is being used inconsistently — a code bug, not a wire fault.
    Decode {
        /// Sending rank of the lane.
        src: usize,
        /// Receiving rank of the lane.
        dst: usize,
        /// Channel id of the lane.
        channel: u64,
        /// What the decoder rejected.
        detail: String,
    },
}

impl fmt::Display for TransportError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let lane = |src, dst, channel| format!("src {src} -> dst {dst}, channel {channel:#x}");
        match self {
            TransportError::Timeout {
                src,
                dst,
                channel,
                waited_ms,
            } => write!(
                f,
                "transport receive on lane ({}) timed out after {waited_ms} ms \
                 (schedule deadlock? timeout is tunable via OPT_NET_TIMEOUT_MS)",
                lane(src, dst, channel)
            ),
            TransportError::Disconnected { peer } => {
                write!(f, "transport peer rank {peer} disconnected")
            }
            TransportError::Corrupt {
                src,
                dst,
                channel,
                detail,
            } => write!(
                f,
                "transport frame on lane ({}) failed integrity validation: {detail}",
                lane(src, dst, channel)
            ),
            TransportError::Io { detail } => write!(f, "transport I/O error: {detail}"),
            TransportError::Rendezvous { detail } => {
                write!(f, "transport rendezvous failed: {detail}")
            }
            TransportError::Decode {
                src,
                dst,
                channel,
                detail,
            } => write!(
                f,
                "transport payload on lane ({}) failed to decode: {detail}",
                lane(src, dst, channel)
            ),
        }
    }
}

impl std::error::Error for TransportError {}

impl From<std::io::Error> for TransportError {
    fn from(e: std::io::Error) -> Self {
        TransportError::Io {
            detail: e.to_string(),
        }
    }
}

/// A value that can travel through a [`Payload::Shared`] handoff: it
/// knows its exact wire encoding (for the moment a real wire needs it)
/// and its encoded length (so byte accounting never serializes), and it
/// can be downcast back to its concrete type on the receiving side.
/// Implemented for every `Persist + Send + Sync + 'static` type.
trait WireValue: Any + Send + Sync {
    /// Produces the exact bytes [`Persist::to_bytes`] would — what a
    /// byte-boundary backend puts on the wire.
    fn encode_wire(&self) -> Vec<u8>;

    /// Exact length of [`WireValue::encode_wire`]'s output, computed
    /// without encoding where the type allows it.
    fn wire_len(&self) -> usize;

    /// Upcasts to [`Any`] for the receiver-side downcast.
    fn as_any(self: Arc<Self>) -> Arc<dyn Any + Send + Sync>;
}

impl<T: Persist + Send + Sync + 'static> WireValue for T {
    fn encode_wire(&self) -> Vec<u8> {
        self.to_bytes()
    }

    fn wire_len(&self) -> usize {
        self.persist_len()
    }

    fn as_any(self: Arc<Self>) -> Arc<dyn Any + Send + Sync> {
        self
    }
}

/// An `Arc`-shared typed message plus a lazily-populated encode cache.
///
/// On [`LocalTransport`] the value crosses lanes as the `Arc` itself —
/// zero serialization. On [`crate::TcpTransport`] the first send forces
/// the encode and caches it, so broadcasting one payload to N peers
/// encodes once, not N times. Clones share both the value and the cache.
#[derive(Clone)]
pub struct SharedPayload {
    value: Arc<dyn WireValue>,
    encoded: Arc<OnceLock<Vec<u8>>>,
}

impl fmt::Debug for SharedPayload {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "SharedPayload({} wire bytes{})",
            self.value.wire_len(),
            if self.encoded.get().is_some() {
                ", encoded"
            } else {
                ""
            }
        )
    }
}

impl SharedPayload {
    /// Wraps `value` for zero-copy transport.
    pub fn new<T: Persist + Send + Sync + 'static>(value: T) -> Self {
        Self::from_arc(Arc::new(value))
    }

    /// Wraps a value the caller keeps a handle on: once every clone of
    /// the payload is gone, the caller's `Arc` is the only one again.
    pub fn from_arc<T: Persist + Send + Sync + 'static>(value: Arc<T>) -> Self {
        Self {
            value,
            encoded: Arc::new(OnceLock::new()),
        }
    }

    /// Exact number of bytes this payload occupies on a byte-boundary
    /// backend, computed without encoding.
    pub fn wire_len(&self) -> usize {
        self.value.wire_len()
    }

    /// The wire encoding, produced on first use and cached — clones made
    /// before or after share the same cache, so a broadcast encodes once.
    pub fn encoded(&self) -> &[u8] {
        self.encoded.get_or_init(|| self.value.encode_wire())
    }

    /// Recovers the concrete value, or returns `self` unchanged if the
    /// payload holds a different type.
    pub fn downcast<T: Any + Send + Sync>(self) -> Result<Arc<T>, SharedPayload> {
        Arc::clone(&self.value)
            .as_any()
            .downcast::<T>()
            .map_err(|_| self)
    }
}

/// The envelope a message travels in between a [`Transport`] backend's
/// send and receive halves: an `Arc`-shared typed value on its way in
/// (and, through an in-process backend, on its way out), or the encoded
/// bytes a byte-boundary backend's socket reader delivered.
#[derive(Clone, Debug)]
pub enum Payload {
    /// An encoded message body, as read off a wire. Only a byte-boundary
    /// backend's reader constructs this form.
    Bytes(Vec<u8>),
    /// A typed in-memory value; a byte-boundary backend encodes it at
    /// the socket (once, cached), an in-process backend never does.
    Shared(SharedPayload),
}

impl Payload {
    /// Wraps `value` as a [`Payload::Shared`].
    pub fn shared<T: Persist + Send + Sync + 'static>(value: T) -> Self {
        Payload::Shared(SharedPayload::new(value))
    }

    /// Exact number of bytes this payload occupies on a byte-boundary
    /// backend — the length every backend's channel stats record, so the
    /// per-lane counters of a zero-copy run match a socket run exactly.
    pub fn wire_len(&self) -> usize {
        match self {
            Payload::Bytes(b) => b.len(),
            Payload::Shared(s) => s.wire_len(),
        }
    }
}

/// Turns the [`Payload`] delivered on lane `(src, dst, channel)` into the
/// typed value the receiver asked for: bytes decode through [`Persist`],
/// a shared handoff downcasts (and unwraps the `Arc`, cloning only if
/// other references remain).
fn payload_value<T>(
    payload: Payload,
    src: usize,
    dst: usize,
    channel: u64,
) -> Result<T, TransportError>
where
    T: Persist + Clone + Send + Sync + 'static,
{
    let decode_error = |detail| TransportError::Decode {
        src,
        dst,
        channel,
        detail,
    };
    match payload {
        Payload::Bytes(bytes) => T::from_bytes(&bytes).map_err(|e| decode_error(e.to_string())),
        Payload::Shared(shared) => match shared.downcast::<T>() {
            Ok(arc) => Ok(Arc::try_unwrap(arc).unwrap_or_else(|a| (*a).clone())),
            Err(_) => Err(decode_error(format!(
                "shared payload does not hold a {}",
                std::any::type_name::<T>()
            ))),
        },
    }
}

/// Moves typed messages between the ranks of a fixed-size world.
///
/// Guarantees every backend must provide:
///
/// * **FIFO per lane** — messages on one `(src, dst, channel)` lane
///   arrive in send order; distinct lanes are unordered relative to each
///   other.
/// * **Integrity** — a delivered value is identical to the sent one, and
///   its encoding byte-identical; a backend that cannot guarantee this
///   (a real wire) must detect and reject the damage instead of
///   delivering it.
/// * **No tapping** — a receive on `(src, dst, ..)` only ever yields
///   messages sent by `src` to `dst`.
/// * **Stats parity** — a backend with channel stats records
///   [`Payload::wire_len`] per message, so zero-copy and socket runs of
///   the same traffic produce identical per-lane counters.
///
/// Implementers provide the two `*_payload` methods (plus `world` and
/// optionally `channel_stats`); callers use the derived typed
/// `send_value`/`send_shared`/`recv_value`. A backend
/// without a shared address space simply never yields
/// [`Payload::Shared`] from its receive methods.
pub trait Transport: Send + Sync + fmt::Debug + 'static {
    /// Number of ranks in the world.
    fn world(&self) -> usize;

    /// Sends `payload` on the `(src, dst, channel)` lane. Non-blocking.
    fn send_payload(
        &self,
        src: usize,
        dst: usize,
        channel: u64,
        payload: Payload,
    ) -> Result<(), TransportError>;

    /// Receives the next message on the `(src, dst, channel)` lane,
    /// blocking up to `timeout`.
    fn recv_payload(
        &self,
        src: usize,
        dst: usize,
        channel: u64,
        timeout: Duration,
    ) -> Result<Payload, TransportError>;

    /// Per-lane send/recv counters this transport endpoint has observed
    /// ([`Payload::wire_len`] per message, frame overhead excluded).
    /// Backends without accounting return an empty list.
    fn channel_stats(&self) -> Vec<ChannelStat> {
        Vec::new()
    }

    /// Sends a typed value on the `(src, dst, channel)` lane. An
    /// in-process backend hands the value across as an `Arc` with zero
    /// serialization; a byte-boundary backend encodes at the socket.
    fn send_value<T>(
        &self,
        src: usize,
        dst: usize,
        channel: u64,
        value: T,
    ) -> Result<(), TransportError>
    where
        T: Persist + Send + Sync + 'static,
        Self: Sized,
    {
        self.send_payload(src, dst, channel, Payload::shared(value))
    }

    /// Sends an already-wrapped [`SharedPayload`] — the broadcast form of
    /// [`Transport::send_value`]: every destination shares one value and
    /// one encode cache, so a byte-boundary backend encodes once total.
    fn send_shared(
        &self,
        src: usize,
        dst: usize,
        channel: u64,
        payload: &SharedPayload,
    ) -> Result<(), TransportError>
    where
        Self: Sized,
    {
        self.send_payload(src, dst, channel, Payload::Shared(payload.clone()))
    }

    /// Receives the next message on the lane as a typed value, blocking
    /// up to `timeout`. A zero-copy handoff downcasts (no decode); bytes
    /// off a wire decode through [`Persist`].
    ///
    /// # Errors
    ///
    /// [`TransportError::Decode`] if the payload cannot become a `T`; any
    /// error the backend's `recv_payload` returns.
    fn recv_value<T>(
        &self,
        src: usize,
        dst: usize,
        channel: u64,
        timeout: Duration,
    ) -> Result<T, TransportError>
    where
        T: Persist + Clone + Send + Sync + 'static,
        Self: Sized,
    {
        let payload = self.recv_payload(src, dst, channel, timeout)?;
        payload_value(payload, src, dst, channel)
    }
}

pub(crate) type Lane = (Sender<Payload>, Receiver<Payload>);

/// Shared map of lanes, keyed by lane identity.
pub(crate) type LaneMap<K> = Arc<Mutex<HashMap<K, Lane>>>;

/// The in-process backend: every lane is a crossbeam channel in shared
/// memory, so one clone per worker *thread* wires up a whole
/// single-process world.
#[derive(Clone, Default)]
pub struct LocalTransport {
    world: usize,
    lanes: LaneMap<(usize, usize, u64)>,
    stats: ChannelLedger,
}

impl fmt::Debug for LocalTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "LocalTransport(world={})", self.world)
    }
}

impl LocalTransport {
    /// Creates an in-process transport over `world` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub fn new(world: usize) -> Self {
        assert!(world > 0, "world size must be positive");
        Self {
            world,
            lanes: Arc::new(Mutex::new(HashMap::new())),
            stats: ChannelLedger::new(),
        }
    }

    /// The one lane check of this backend: both ends must be ranks of
    /// the world. Returns the lane's channel ends.
    fn lane(&self, src: usize, dst: usize, channel: u64) -> Lane {
        assert!(
            src < self.world && dst < self.world,
            "rank out of range (src {src}, dst {dst}, world {})",
            self.world
        );
        let mut lanes = self.lanes.lock();
        let (s, r) = lanes.entry((src, dst, channel)).or_insert_with(unbounded);
        (s.clone(), r.clone())
    }
}

/// Opens the `full`-mode Send/Recv span of one hop on `channel` — except
/// on a control lane, where a worker's receive is its idle wait for the
/// next command and would show up as one long Recv span.
pub(crate) fn hop_span(kind: SpanKind, channel: u64, bytes: usize) -> SpanGuard {
    if ChannelClass::of(channel) == ChannelClass::Control {
        return SpanGuard::inactive();
    }
    opt_trace::begin_full(kind, 0, NO_MICRO, bytes as u64, 0)
}

impl Transport for LocalTransport {
    fn world(&self) -> usize {
        self.world
    }

    fn send_payload(
        &self,
        src: usize,
        dst: usize,
        channel: u64,
        payload: Payload,
    ) -> Result<(), TransportError> {
        let (tx, _rx) = self.lane(src, dst, channel);
        let wire_len = payload.wire_len();
        let _span = hop_span(SpanKind::Send, channel, wire_len);
        self.stats.record_send(src, dst, channel, wire_len);
        // The transport holds both lane ends, so the send cannot fail. A
        // shared payload crosses as-is: the zero-copy fast path.
        tx.send(payload).expect("local lane receiver dropped");
        Ok(())
    }

    fn recv_payload(
        &self,
        src: usize,
        dst: usize,
        channel: u64,
        timeout: Duration,
    ) -> Result<Payload, TransportError> {
        let (_tx, rx) = self.lane(src, dst, channel);
        let span = hop_span(SpanKind::Recv, channel, 0);
        match rx.recv_timeout(timeout) {
            Ok(payload) => {
                let wire_len = payload.wire_len();
                span.set_bytes(wire_len as u64);
                self.stats.record_recv(src, dst, channel, wire_len);
                Ok(payload)
            }
            Err(RecvTimeoutError::Timeout) => Err(TransportError::Timeout {
                src,
                dst,
                channel,
                waited_ms: timeout.as_millis(),
            }),
            Err(RecvTimeoutError::Disconnected) => Err(TransportError::Disconnected { peer: src }),
        }
    }

    fn channel_stats(&self) -> Vec<ChannelStat> {
        self.stats.snapshot()
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Test double for failure paths: a [`LocalTransport`] on which a
    /// receive from an *empty* lane fails at once with a fixed error.
    /// Messages already on a lane are still delivered first — the same
    /// "drain wins over death" order the TCP backend keeps.
    #[derive(Debug)]
    pub(crate) struct FailingTransport {
        pub(crate) inner: LocalTransport,
        pub(crate) error: TransportError,
    }

    impl Transport for FailingTransport {
        fn world(&self) -> usize {
            self.inner.world()
        }

        fn send_payload(
            &self,
            src: usize,
            dst: usize,
            channel: u64,
            payload: Payload,
        ) -> Result<(), TransportError> {
            self.inner.send_payload(src, dst, channel, payload)
        }

        fn recv_payload(
            &self,
            src: usize,
            dst: usize,
            channel: u64,
            _: Duration,
        ) -> Result<Payload, TransportError> {
            self.inner
                .recv_payload(src, dst, channel, Duration::ZERO)
                .map_err(|_| self.error.clone())
        }
    }

    #[test]
    fn local_lanes_are_fifo_and_independent() {
        let t = LocalTransport::new(2);
        for i in 0..5u8 {
            t.send_value(0, 1, 7, vec![i]).unwrap();
        }
        t.send_value(1, 0, 7, vec![99u8]).unwrap();
        t.send_value(0, 1, 8, vec![42u8]).unwrap();
        let recv = |src, dst, channel| t.recv_value::<Vec<u8>>(src, dst, channel, net_timeout());
        for i in 0..5u8 {
            assert_eq!(recv(0, 1, 7).unwrap(), vec![i]);
        }
        assert_eq!(recv(1, 0, 7).unwrap(), vec![99]);
        assert_eq!(recv(0, 1, 8).unwrap(), vec![42]);
    }

    #[test]
    fn local_timeout_reports_lane() {
        let t = LocalTransport::new(2);
        let err = t
            .recv_value::<u8>(0, 1, 3, Duration::from_millis(10))
            .unwrap_err();
        match err {
            TransportError::Timeout {
                src, dst, channel, ..
            } => {
                assert_eq!((src, dst, channel), (0, 1, 3));
            }
            other => panic!("unexpected error {other:?}"),
        }
        let msg = err.to_string();
        assert!(msg.contains("src 0 -> dst 1"), "uninformative: {msg}");
        assert!(msg.contains("OPT_NET_TIMEOUT_MS"), "no tuning hint: {msg}");
    }

    #[test]
    fn mistyped_receive_is_a_decode_error_naming_the_lane() {
        let t = LocalTransport::new(2);
        t.send_value(0, 1, 0x42, 5u8).unwrap();
        let err = t
            .recv_value::<String>(0, 1, 0x42, net_timeout())
            .unwrap_err();
        assert!(matches!(
            err,
            TransportError::Decode {
                src: 0,
                dst: 1,
                channel: 0x42,
                ..
            }
        ));
        assert!(err.to_string().contains("src 0 -> dst 1, channel 0x42"));
    }

    #[test]
    fn timeout_env_knob_is_read() {
        // Not set in the test environment: default applies.
        assert_eq!(net_timeout(), Duration::from_millis(DEFAULT_TIMEOUT_MS));
    }

    #[test]
    fn full_mode_spans_skip_control_lanes() {
        // The tracer is thread-local and this test owns its thread.
        opt_trace::install(opt_trace::TraceMode::Full);
        let t = LocalTransport::new(2);
        let hop = |channel| {
            t.send_value(0, 1, channel, 5u8).unwrap();
            t.recv_value::<u8>(0, 1, channel, net_timeout()).unwrap();
            opt_trace::take_buffer(0, 0, 0).spans.len()
        };
        assert_eq!(hop(channel_id(3, 0)), 0, "control lane recorded a span");
        assert_eq!(hop(channel_id(1, 0)), 2, "one Send and one Recv span");
        opt_trace::install(opt_trace::TraceMode::Off);
    }

    #[test]
    fn channel_ids_partition_by_namespace() {
        assert_ne!(channel_id(1, 0), channel_id(2, 0));
        assert_ne!(channel_id(1, 0), channel_id(1, 1));
        assert_eq!(channel_id(3, 7), channel_id(3, 7));
    }
}
