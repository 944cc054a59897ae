//! Point-to-point message mesh for pipeline inter-stage communication,
//! generic over the [`Transport`] carrying its messages.

use crate::transport::{net_timeout, LocalTransport, Transport, TransportError};
use opt_tensor::Persist;
use std::fmt;
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::Duration;

/// A full mesh of FIFO lanes between `world` ranks, carrying messages of
/// type `T` (anything that round-trips the [`Persist`] byte codec —
/// bit-exactly, so a mesh hop never perturbs training state).
///
/// This models the point-to-point sends of pipeline parallelism: each
/// (src, dst) ordered pair has an independent FIFO, exactly like a
/// connection-oriented transport. Message order between a fixed pair is
/// preserved; messages between different pairs are unordered, matching the
/// guarantees the 1F1B schedule relies on.
///
/// Cloning the mesh is cheap (the transport is reference-counted), so one
/// clone is handed to each rank's thread; on a distributed backend each
/// process builds the mesh over its own rank's transport.
///
/// # Example
///
/// ```
/// use opt_net::P2pMesh;
/// let mesh: P2pMesh<String> = P2pMesh::new(2);
/// mesh.send(0, 1, "hello".to_string());
/// assert_eq!(mesh.recv(0, 1).unwrap(), "hello");
/// ```
pub struct P2pMesh<T, Tr: Transport = LocalTransport> {
    transport: Arc<Tr>,
    channel: u64,
    timeout: Duration,
    _payload: PhantomData<fn(T) -> T>,
}

impl<T, Tr: Transport> Clone for P2pMesh<T, Tr> {
    fn clone(&self) -> Self {
        Self {
            transport: Arc::clone(&self.transport),
            channel: self.channel,
            timeout: self.timeout,
            _payload: PhantomData,
        }
    }
}

impl<T, Tr: Transport> fmt::Debug for P2pMesh<T, Tr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P2pMesh(world={})", self.transport.world())
    }
}

impl<T: Persist + Clone + Send + Sync + 'static> P2pMesh<T, LocalTransport> {
    /// Creates an in-process mesh over `world` ranks. The receive timeout
    /// is 30 s, tunable via `OPT_NET_TIMEOUT_MS`.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub fn new(world: usize) -> Self {
        Self::with_timeout(world, net_timeout())
    }

    /// Creates an in-process mesh with an explicit receive timeout.
    /// Receives that exceed the timeout return
    /// [`TransportError::Timeout`]; in a correct schedule this only fires
    /// on deadlock bugs.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub fn with_timeout(world: usize, timeout: Duration) -> Self {
        let mut mesh = Self::over(Arc::new(LocalTransport::new(world)), 0);
        mesh.timeout = timeout;
        mesh
    }
}

impl<T: Persist + Clone + Send + Sync + 'static, Tr: Transport> P2pMesh<T, Tr> {
    /// Builds a mesh over an existing (possibly shared) transport, using
    /// `channel` as its lane id — two meshes over one transport must use
    /// distinct channels. The receive timeout comes from
    /// `OPT_NET_TIMEOUT_MS` (default 30 s).
    pub fn over(transport: Arc<Tr>, channel: u64) -> Self {
        Self {
            transport,
            channel,
            timeout: net_timeout(),
            _payload: PhantomData,
        }
    }

    /// Number of ranks in the mesh.
    pub fn world(&self) -> usize {
        self.transport.world()
    }

    /// Sends `msg` on the (src, dst) FIFO. Non-blocking.
    ///
    /// The message travels typed: an in-process transport hands it across
    /// as an `Arc` with zero serialization, a byte-boundary transport
    /// encodes it at the socket.
    ///
    /// # Panics
    ///
    /// Panics if the transport's lane check rejects `src` or `dst` (out
    /// of range), or if it rejects the send (the peer process died).
    pub fn send(&self, src: usize, dst: usize, msg: T) {
        self.transport
            .send_value(src, dst, self.channel, msg)
            .unwrap_or_else(|e| panic!("mesh send {src} -> {dst} failed: {e}"));
    }

    /// Receives the next message on the (src, dst) FIFO, blocking up to
    /// the configured timeout.
    ///
    /// # Errors
    ///
    /// Whatever the transport's typed receive returns, unchanged:
    /// [`TransportError::Timeout`] if nothing arrives in time,
    /// [`TransportError::Disconnected`] if the sender disappeared,
    /// [`TransportError::Corrupt`] if a frame on the lane failed integrity
    /// validation, [`TransportError::Decode`] if a delivered payload could
    /// not become a `T` — the lane-bound variants name the
    /// (src, dst, channel) lane, so a many-rank run says *which* edge
    /// failed.
    ///
    /// # Panics
    ///
    /// Panics if the transport's lane check rejects `src` or `dst`.
    pub fn recv(&self, src: usize, dst: usize) -> Result<T, TransportError> {
        self.transport
            .recv_value(src, dst, self.channel, self.timeout)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::FailingTransport;
    use std::thread;

    #[test]
    fn fifo_order_preserved_per_pair() {
        let mesh: P2pMesh<u32> = P2pMesh::new(3);
        for i in 0..10 {
            mesh.send(1, 2, i);
        }
        for i in 0..10 {
            assert_eq!(mesh.recv(1, 2).unwrap(), i);
        }
    }

    #[test]
    fn pairs_are_independent() {
        let mesh: P2pMesh<String> = P2pMesh::new(2);
        mesh.send(0, 1, "a".to_string());
        mesh.send(1, 0, "b".to_string());
        assert_eq!(mesh.recv(1, 0).unwrap(), "b");
        assert_eq!(mesh.recv(0, 1).unwrap(), "a");
    }

    #[test]
    fn cross_thread_transfer() {
        let mesh: P2pMesh<Vec<f32>> = P2pMesh::new(2);
        let m2 = mesh.clone();
        let h = thread::spawn(move || {
            m2.send(0, 1, vec![1.0, 2.0, 3.0]);
        });
        let got = mesh.recv(0, 1).unwrap();
        assert_eq!(got, vec![1.0, 2.0, 3.0]);
        h.join().unwrap();
    }

    #[test]
    fn timeout_fires_on_empty_channel_with_lane_context() {
        let mesh: P2pMesh<u8> = P2pMesh::with_timeout(2, Duration::from_millis(10));
        let err = mesh.recv(0, 1).unwrap_err();
        assert!(matches!(
            err,
            TransportError::Timeout {
                src: 0,
                dst: 1,
                channel: 0,
                waited_ms: 10,
            }
        ));
        let msg = err.to_string();
        assert!(msg.contains("src 0 -> dst 1"), "uninformative: {msg}");
        assert!(msg.contains("OPT_NET_TIMEOUT_MS"), "no tuning hint: {msg}");
    }

    #[test]
    #[should_panic(expected = "rank out of range")]
    fn out_of_range_rank_panics() {
        let mesh: P2pMesh<u8> = P2pMesh::new(2);
        mesh.send(0, 2, 1);
    }

    /// A mesh over a transport whose receives fail with `error`.
    fn failing_mesh(error: TransportError, channel: u64) -> P2pMesh<u8, FailingTransport> {
        let inner = LocalTransport::new(2);
        P2pMesh::over(Arc::new(FailingTransport { inner, error }), channel)
    }

    #[test]
    fn corrupt_frames_surface_as_typed_errors_with_lane_context() {
        let corrupt = TransportError::Corrupt {
            src: 0,
            dst: 1,
            channel: 0x42,
            detail: "checksum mismatch".into(),
        };
        let err = failing_mesh(corrupt.clone(), 0x42).recv(0, 1).unwrap_err();
        assert_eq!(err, corrupt);
        let msg = err.to_string();
        assert!(msg.contains("src 0 -> dst 1"), "uninformative: {msg}");
        assert!(msg.contains("0x42"), "uninformative: {msg}");
        assert!(msg.contains("checksum mismatch"), "uninformative: {msg}");
    }

    #[test]
    fn other_transport_failures_surface_unchanged() {
        let io = TransportError::Io {
            detail: "connection reset".into(),
        };
        assert_eq!(failing_mesh(io.clone(), 7).recv(1, 0).unwrap_err(), io);
    }

    #[test]
    fn a_mistyped_message_is_a_decode_error_not_a_panic() {
        let transport = Arc::new(LocalTransport::new(2));
        let strings: P2pMesh<String, _> = P2pMesh::over(Arc::clone(&transport), 3);
        let numbers: P2pMesh<u32, _> = P2pMesh::over(transport, 3);
        strings.send(0, 1, "not a number".to_string());
        assert!(matches!(
            numbers.recv(0, 1).unwrap_err(),
            TransportError::Decode {
                src: 0,
                dst: 1,
                channel: 3,
                ..
            }
        ));
    }

    #[test]
    fn meshes_share_a_transport_without_cross_talk() {
        let transport = Arc::new(LocalTransport::new(2));
        let a: P2pMesh<u32, _> = P2pMesh::over(Arc::clone(&transport), 1);
        let b: P2pMesh<u32, _> = P2pMesh::over(transport, 2);
        a.send(0, 1, 11);
        b.send(0, 1, 22);
        assert_eq!(b.recv(0, 1).unwrap(), 22);
        assert_eq!(a.recv(0, 1).unwrap(), 11);
    }
}
