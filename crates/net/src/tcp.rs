//! The real-wire [`Transport`] backend: one OS process per rank, a full
//! mesh of TCP connections, every message in a checksummed frame.
//!
//! A value handed to [`Transport::send_value`] is encoded once at the
//! socket (the encode is cached in its [`crate::SharedPayload`], so a
//! broadcast encodes a single time), framed in the shared `opt-ckpt`
//! frame with a 16-byte lane header ([`wire_frame`] is the layout), and
//! written to the destination's connection. A reader thread per
//! connection validates each frame and demultiplexes the payloads into
//! per-`(src, channel)` inbox lanes as [`Payload::Bytes`]; the typed
//! receive decodes them.
//!
//! A payload's bytes are copied exactly this often between the value on
//! the sender and the value on the receiver:
//!
//! 1. the encode into the payload's cache (`Persist`, one bulk pass for a
//!    [`opt_tensor::Matrix`]);
//! 2. the kernel's copy out of that cache — header, payload, lane header
//!    and checksum go out in one vectored write, with no frame assembled
//!    in memory;
//! 3. the kernel's copy into the receive buffer — the frame body is read
//!    once into the buffer that becomes [`Payload::Bytes`], checksummed
//!    in place, and the lane header (which trails the payload) is
//!    stripped by truncation;
//! 4. the decode out of that buffer (`Persist`, one bulk pass).
//!
//! Each side also makes one checksum pass over the body.
//!
//! There is one way into the mesh: the caller `dial`s and introduces
//! itself with a [`wire_hello`] frame, and the callee `admit`s the hello.
//! [`TcpBound::establish`] dials every lower rank and admits every higher
//! one; once it returns, the mesh is fixed. A peer that dies is never
//! replaced: its reader thread sees EOF, and every later send to it, or
//! receive from its drained lanes, fails with
//! [`TransportError::Disconnected`]. A world that loses a rank is
//! relaunched whole.

use crate::chanstats::{ChannelLedger, ChannelStat};
use crate::retry::RetryPolicy;
use crate::transport::{hop_span, LaneMap, Payload, Transport, TransportError};
use crossbeam::channel::{unbounded, Receiver, RecvTimeoutError};
use opt_ckpt::framing::{self, FRAME_OVERHEAD, HEADER_LEN};
use opt_trace::SpanKind;
use parking_lot::Mutex;
use std::collections::HashMap;
use std::fmt;
use std::io::{self, IoSlice, Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Magic bytes opening every transport wire frame.
pub const WIRE_MAGIC: &[u8; 8] = b"OPTWIRE\0";

/// Current transport wire format version. Version 2: the word-wise frame
/// checksum, and the lane header after the payload.
pub const WIRE_FORMAT_VERSION: u32 = 2;

/// Bytes the wire adds around a payload: the shared frame (magic,
/// version, length, checksum) plus the 16-byte lane header (channel +
/// destination rank).
pub const WIRE_OVERHEAD_BYTES: usize = FRAME_OVERHEAD + LANE_LEN;

/// Length of the lane header (channel, destination rank) that trails the
/// payload inside a message frame's body.
const LANE_LEN: usize = 16;

/// Upper bound on a single wire frame body. A corrupt length field must
/// not make a reader allocate terabytes before the checksum has a chance
/// to reject the frame.
const MAX_WIRE_BODY: u64 = 1 << 30;

/// Polling slice for receive loops that must notice peer death while
/// waiting on an empty lane.
const POLL_SLICE: Duration = Duration::from_millis(25);

/// One message frame around a payload it borrows, as the three slices
/// the send path writes — the one definition of the wire layout:
///
/// ```text
/// header   20 bytes  shared opt-ckpt frame header (magic, version, body length)
/// payload  n bytes   the message's Persist encoding
/// lane     16 bytes  channel (u64 LE), destination rank (u64 LE)
/// checksum 8 bytes   framing::checksum over payload and lane header
/// ```
///
/// The lane header trails the payload so a reader can take the whole
/// body into one buffer, check it there, and strip the lane header by
/// truncation, keeping the payload where the socket wrote it.
struct WireFrame<'a> {
    header: [u8; HEADER_LEN],
    payload: &'a [u8],
    /// The lane header, then the checksum.
    trailer: [u8; LANE_LEN + 8],
}

impl<'a> WireFrame<'a> {
    fn new(channel: u64, dst: usize, payload: &'a [u8]) -> Self {
        let mut trailer = [0u8; LANE_LEN + 8];
        trailer[..8].copy_from_slice(&channel.to_le_bytes());
        trailer[8..LANE_LEN].copy_from_slice(&(dst as u64).to_le_bytes());
        let (header, sum) = framing::frame_parts(
            WIRE_MAGIC,
            WIRE_FORMAT_VERSION,
            &[payload, &trailer[..LANE_LEN]],
        );
        trailer[LANE_LEN..].copy_from_slice(&sum);
        Self {
            header,
            payload,
            trailer,
        }
    }

    fn slices(&self) -> [&[u8]; 3] {
        [&self.header, self.payload, &self.trailer]
    }
}

/// Encodes one wire frame carrying `bytes` on `channel` for rank `dst` —
/// the bytes the send path writes, in one buffer.
///
/// Public so tests can hand-craft (and tamper with) frames.
pub fn wire_frame(channel: u64, dst: usize, bytes: &[u8]) -> Vec<u8> {
    WireFrame::new(channel, dst, bytes).slices().concat()
}

/// Writes every byte of `parts`, in order, in as few vectored writes as
/// the socket accepts.
fn write_all_parts(w: &mut impl Write, parts: [&[u8]; 3]) -> io::Result<()> {
    let mut slices = parts.map(IoSlice::new);
    let mut rest = &mut slices[..];
    while !rest.is_empty() {
        match w.write_vectored(rest) {
            Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
            Ok(n) => IoSlice::advance_slices(&mut rest, n),
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    Ok(())
}

/// Decodes a little-endian `u64` from exactly eight bytes.
fn le_u64(bytes: &[u8]) -> u64 {
    let mut word = [0u8; 8];
    word.copy_from_slice(bytes);
    u64::from_le_bytes(word)
}

/// The hello frame a connecting rank sends first on a new connection,
/// identifying itself. Public so tests can impersonate a peer.
pub fn wire_hello(rank: usize) -> Vec<u8> {
    framing::frame(
        WIRE_MAGIC,
        WIRE_FORMAT_VERSION,
        &(rank as u64).to_le_bytes(),
    )
}

/// State shared between a peer's writer handle and its reader thread.
struct Peer {
    writer: Mutex<TcpStream>,
    /// Cleared by the reader thread on EOF or I/O error.
    alive: Arc<AtomicBool>,
    /// Set by the reader thread when a frame fails validation.
    corrupt: Arc<AtomicBool>,
}

/// The real-wire backend: one OS process per rank, a full mesh of TCP
/// connections, every message in a checksummed frame.
///
/// Construction is two-phase so the caller controls rendezvous:
/// [`TcpTransport::bind`] grabs a listener (so the endpoint can be
/// published), then [`TcpBound::establish`] connects the full mesh once
/// every peer endpoint is known. [`crate::tcp_rendezvous`] wraps both
/// phases behind a shared-directory rendezvous for same-host worlds.
///
/// A `TcpTransport` *is* one rank: a send requires `src` to be this rank
/// and a receive requires `dst` to be this rank — a process can neither
/// forge another rank's traffic nor read it.
///
/// The mesh is fixed once established: the listener closes when
/// [`TcpBound::establish`] returns, and the only threads a transport runs
/// are its per-peer readers.
pub struct TcpTransport {
    world: usize,
    rank: usize,
    /// One connection per peer, filled once by [`TcpBound::establish`];
    /// `None` only at this rank's own index.
    peers: Vec<Option<Peer>>,
    inbox: LaneMap<(usize, u64)>,
    stats: ChannelLedger,
}

impl fmt::Debug for TcpTransport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "TcpTransport(rank={}/{})", self.rank, self.world)
    }
}

/// A bound-but-unconnected TCP rank: holds the listener whose address
/// peers must learn before [`TcpBound::establish`] can mesh the world.
pub struct TcpBound {
    world: usize,
    rank: usize,
    listener: TcpListener,
    addr: SocketAddr,
}

impl TcpBound {
    /// The address peers should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connects the full mesh: dials every lower rank, accepts every
    /// higher rank, exchanging hello frames to identify peers. Blocks up
    /// to `timeout`. A second hello from one rank fails the mesh.
    ///
    /// `endpoints[r]` must hold rank `r`'s listener address for `r` below
    /// this rank (higher entries are ignored — those peers dial us).
    pub fn establish(
        self,
        endpoints: &[SocketAddr],
        timeout: Duration,
    ) -> Result<TcpTransport, TransportError> {
        let deadline = Instant::now() + timeout;
        let (world, rank, listener) = (self.world, self.rank, self.listener);
        assert!(
            endpoints.len() >= rank,
            "need an endpoint for every rank below {rank}"
        );
        let inbox: LaneMap<(usize, u64)> = Arc::new(Mutex::new(HashMap::new()));
        let mut peers: Vec<Option<Peer>> = (0..world).map(|_| None).collect();

        for (peer, slot) in peers.iter_mut().enumerate().take(rank) {
            let stream = dial(rank, peer, endpoints[peer], deadline)?;
            *slot = Some(spawn_peer(peer, stream, &inbox)?);
        }

        listener.set_nonblocking(true)?;
        // Every higher rank dials us; the hello says who called.
        let mut expected = world - rank - 1;
        while expected > 0 {
            match listener.accept() {
                Ok((stream, _)) => {
                    let remaining = deadline.saturating_duration_since(Instant::now());
                    let peer = admit(&stream, world, rank, remaining.max(POLL_SLICE))?;
                    if peers[peer].is_some() {
                        return Err(TransportError::Rendezvous {
                            detail: format!("second hello from rank {peer}"),
                        });
                    }
                    peers[peer] = Some(spawn_peer(peer, stream, &inbox)?);
                    expected -= 1;
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    if Instant::now() >= deadline {
                        return Err(TransportError::Rendezvous {
                            detail: format!("{expected} peer(s) never connected"),
                        });
                    }
                    std::thread::sleep(POLL_SLICE);
                }
                Err(e) => return Err(e.into()),
            }
        }

        Ok(TcpTransport {
            world,
            rank,
            peers,
            inbox,
            stats: ChannelLedger::new(),
        })
    }
}

/// The caller's half of the handshake: connects to `peer`'s listener
/// and introduces `rank` with a hello frame. A peer's listener is up
/// before its endpoint is visible, so the connect may only transiently
/// fail; it is retried on the capped-exponential backoff until `deadline`.
fn dial(
    rank: usize,
    peer: usize,
    endpoint: SocketAddr,
    deadline: Instant,
) -> Result<TcpStream, TransportError> {
    let mut stream = RetryPolicy::default()
        .run_until(deadline, || TcpStream::connect(endpoint))
        .map_err(|e| TransportError::Rendezvous {
            detail: format!("connecting to rank {peer} at {endpoint}: {e}"),
        })?;
    stream.set_nodelay(true)?;
    stream.write_all(&wire_hello(rank))?;
    Ok(stream)
}

/// The callee's half of the handshake: prepares an accepted connection
/// and validates its hello frame, returning the rank that called.
fn admit(
    stream: &TcpStream,
    world: usize,
    rank: usize,
    hello_timeout: Duration,
) -> Result<usize, TransportError> {
    stream.set_nonblocking(false)?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(hello_timeout))?;
    let mut reader = stream.try_clone()?;
    let hello = read_frame(&mut reader).map_err(|e| TransportError::Rendezvous {
        detail: format!("reading hello frame: {e}"),
    })?;
    let Ok(hello) = <[u8; 8]>::try_from(hello.as_slice()) else {
        return Err(TransportError::Rendezvous {
            detail: "hello frame has wrong length".to_string(),
        });
    };
    let peer = u64::from_le_bytes(hello) as usize;
    if peer >= world || peer == rank {
        return Err(TransportError::Rendezvous {
            detail: format!("unexpected hello from rank {peer}"),
        });
    }
    stream.set_read_timeout(None)?;
    Ok(peer)
}

fn invalid_data(detail: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, detail)
}

/// Reads one frame (header + body + checksum) off `stream`, validating
/// magic, version, length, and checksum. Returns the body, read straight
/// into the returned buffer and checked there; a frame that fails
/// validation is an [`io::ErrorKind::InvalidData`] error.
fn read_frame(stream: &mut impl Read) -> io::Result<Vec<u8>> {
    let mut header = [0u8; HEADER_LEN];
    stream.read_exact(&mut header)?;
    let body_len = framing::parse_header(&header, WIRE_MAGIC, WIRE_FORMAT_VERSION)
        .map_err(|e| invalid_data(e.to_string()))?;
    if body_len > MAX_WIRE_BODY {
        return Err(invalid_data(format!(
            "frame body claims {body_len} bytes (cap {MAX_WIRE_BODY})"
        )));
    }
    let body_len = body_len as usize;
    let mut body = vec![0u8; body_len + 8];
    stream.read_exact(&mut body)?;
    let stored = le_u64(&body[body_len..]);
    body.truncate(body_len);
    framing::check_body(&body, stored).map_err(|e| invalid_data(e.to_string()))?;
    Ok(body)
}

/// Reads one message frame off `stream`: its channel and its payload,
/// left in the buffer [`read_frame`] read the body into.
fn read_message(stream: &mut impl Read) -> io::Result<(u64, Vec<u8>)> {
    let mut body = read_frame(stream)?;
    let Some(at) = body.len().checked_sub(LANE_LEN) else {
        return Err(invalid_data(format!(
            "{}-byte frame body has no lane header",
            body.len()
        )));
    };
    let channel = le_u64(&body[at..at + 8]);
    body.truncate(at);
    Ok((channel, body))
}

/// Registers a peer connection and spawns its reader thread, which
/// demultiplexes incoming frames into per-`(src, channel)` inbox lanes.
fn spawn_peer(
    peer_rank: usize,
    stream: TcpStream,
    inbox: &LaneMap<(usize, u64)>,
) -> Result<Peer, TransportError> {
    let alive = Arc::new(AtomicBool::new(true));
    let corrupt = Arc::new(AtomicBool::new(false));
    let mut reader = stream.try_clone()?;
    let inbox = Arc::clone(inbox);
    let t_alive = Arc::clone(&alive);
    let t_corrupt = Arc::clone(&corrupt);
    std::thread::Builder::new()
        .name(format!("net-rx-{peer_rank}"))
        .spawn(move || {
            let fault = loop {
                match read_message(&mut reader) {
                    Ok((channel, bytes)) => {
                        let payload = Payload::Bytes(bytes);
                        let tx = {
                            let mut map = inbox.lock();
                            map.entry((peer_rank, channel))
                                .or_insert_with(unbounded)
                                .0
                                .clone()
                        };
                        // The inbox map owns the receiver; send cannot fail.
                        let _ = tx.send(payload);
                    }
                    // EOF or I/O error (the peer is gone), or a frame
                    // that failed validation.
                    Err(e) => break e.kind(),
                }
            };
            if fault == io::ErrorKind::InvalidData {
                t_corrupt.store(true, Ordering::SeqCst);
            }
            t_alive.store(false, Ordering::SeqCst);
        })?;
    Ok(Peer {
        writer: Mutex::new(stream),
        alive,
        corrupt,
    })
}

impl TcpTransport {
    /// Binds rank `rank` of a `world`-rank TCP world on `bind_addr`
    /// (typically `127.0.0.1:0`), returning the bound-but-unconnected
    /// endpoint whose address peers must learn.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0` or `rank >= world`.
    pub fn bind(world: usize, rank: usize, bind_addr: &str) -> Result<TcpBound, TransportError> {
        assert!(world > 0, "world size must be positive");
        assert!(rank < world, "rank {rank} outside world {world}");
        let listener = TcpListener::bind(bind_addr)?;
        let addr = listener.local_addr()?;
        Ok(TcpBound {
            world,
            rank,
            listener,
            addr,
        })
    }

    /// This process's rank.
    pub fn rank(&self) -> usize {
        self.rank
    }

    /// The one lane check of this backend: this endpoint is the `local`
    /// end of the lane, and `remote` is another rank of the world.
    fn check_lane(&self, local: usize, remote: usize) {
        assert!(
            local == self.rank,
            "TcpTransport rank {} cannot act as rank {local}",
            self.rank
        );
        assert!(
            remote < self.world && remote != self.rank,
            "rank {remote} is not a peer of rank {} (world {})",
            self.rank,
            self.world
        );
    }

    /// The receiving end of inbox lane `(src, channel)`, created on first
    /// use by whichever of the reader thread and a receive gets there
    /// first.
    fn inbox_lane(&self, src: usize, channel: u64) -> Receiver<Payload> {
        let mut map = self.inbox.lock();
        map.entry((src, channel))
            .or_insert_with(unbounded)
            .1
            .clone()
    }
}

impl Drop for TcpTransport {
    fn drop(&mut self) {
        // Shut the sockets down explicitly: reader threads hold clones of
        // every stream, so merely dropping the writer halves would leave
        // the connections open and peers would never observe our death.
        for peer in self.peers.iter().flatten() {
            let _ = peer.writer.lock().shutdown(std::net::Shutdown::Both);
        }
    }
}

impl Transport for TcpTransport {
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
        self.check_lane(src, dst);
        // The socket boundary: a shared payload is encoded here — once,
        // cached, so a broadcast of one payload encodes a single time no
        // matter how many peers it goes to.
        let bytes: &[u8] = match &payload {
            Payload::Bytes(b) => b,
            Payload::Shared(s) => s.encoded(),
        };
        let _span = hop_span(SpanKind::Send, channel, bytes.len());
        let frame = WireFrame::new(channel, dst, bytes);
        let Some(peer) = self.peers[dst]
            .as_ref()
            .filter(|p| p.alive.load(Ordering::SeqCst))
        else {
            return Err(TransportError::Disconnected { peer: dst });
        };
        let mut w = peer.writer.lock();
        write_all_parts(&mut *w, frame.slices())
            .map_err(|_| TransportError::Disconnected { peer: dst })?;
        w.flush()
            .map_err(|_| TransportError::Disconnected { peer: dst })?;
        drop(w);
        self.stats.record_send(src, dst, channel, bytes.len());
        Ok(())
    }

    fn recv_payload(
        &self,
        src: usize,
        dst: usize,
        channel: u64,
        timeout: Duration,
    ) -> Result<Payload, TransportError> {
        self.check_lane(dst, src);
        let rx = self.inbox_lane(src, channel);
        let span = hop_span(SpanKind::Recv, channel, 0);
        let start = Instant::now();
        let deadline = start + timeout;
        loop {
            let slice = deadline
                .saturating_duration_since(Instant::now())
                .min(POLL_SLICE);
            match rx.recv_timeout(slice) {
                Ok(payload) => {
                    let wire_len = payload.wire_len();
                    span.set_bytes(wire_len as u64);
                    self.stats.record_recv(src, dst, channel, wire_len);
                    return Ok(payload);
                }
                Err(RecvTimeoutError::Disconnected) => {
                    return Err(TransportError::Disconnected { peer: src })
                }
                Err(RecvTimeoutError::Timeout) => {
                    // Drain wins over death: only report a dead peer once
                    // its lane is empty.
                    if rx.is_empty() {
                        match &self.peers[src] {
                            Some(peer) if peer.corrupt.load(Ordering::SeqCst) => {
                                return Err(TransportError::Corrupt {
                                    src,
                                    dst,
                                    channel,
                                    detail: format!(
                                        "connection from rank {src} failed frame validation"
                                    ),
                                });
                            }
                            Some(peer) if peer.alive.load(Ordering::SeqCst) => {}
                            _ => return Err(TransportError::Disconnected { peer: src }),
                        }
                    }
                    if Instant::now() >= deadline {
                        return Err(TransportError::Timeout {
                            src,
                            dst,
                            channel,
                            waited_ms: start.elapsed().as_millis(),
                        });
                    }
                }
            }
        }
    }

    fn channel_stats(&self) -> Vec<ChannelStat> {
        self.stats.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rendezvous::tcp_rendezvous;
    use crate::transport::{channel_id, net_timeout, LocalTransport};
    use std::thread;

    /// Establishes an n-rank loopback TCP world inside one test process.
    fn tcp_world(n: usize) -> Vec<TcpTransport> {
        let dir = std::env::temp_dir().join(format!(
            "opt-tcp-test-{}-{:?}",
            std::process::id(),
            thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let handles: Vec<_> = (0..n)
            .map(|r| {
                let dir = dir.clone();
                thread::spawn(move || {
                    tcp_rendezvous(dir, n, r, Duration::from_secs(20)).expect("rendezvous")
                })
            })
            .collect();
        let out = handles.into_iter().map(|h| h.join().unwrap()).collect();
        let _ = std::fs::remove_dir_all(&dir);
        out
    }

    /// A world of one rank: nobody to mesh with, every lane invalid.
    fn solo_world() -> TcpTransport {
        TcpTransport::bind(1, 0, "127.0.0.1:0")
            .and_then(|b| b.establish(&[], Duration::from_secs(10)))
            .expect("single-rank world")
    }

    /// A typed receive of the byte vectors these tests exchange.
    fn recv_bytes(
        t: &TcpTransport,
        src: usize,
        channel: u64,
        secs: u64,
    ) -> Result<Vec<u8>, TransportError> {
        t.recv_value(src, t.rank(), channel, Duration::from_secs(secs))
    }

    #[test]
    fn tcp_world_exchanges_fifo_messages() {
        let world = tcp_world(3);
        // Every ordered pair exchanges a couple of messages, in order.
        thread::scope(|s| {
            for t in &world {
                s.spawn(move || {
                    let me = t.rank();
                    for dst in 0..t.world() {
                        if dst == me {
                            continue;
                        }
                        for k in 0..3u8 {
                            t.send_value(me, dst, 1, vec![me as u8, k]).unwrap();
                        }
                    }
                    for src in 0..t.world() {
                        if src == me {
                            continue;
                        }
                        for k in 0..3u8 {
                            let got = recv_bytes(t, src, 1, 10).unwrap();
                            assert_eq!(got, vec![src as u8, k]);
                        }
                    }
                });
            }
        });
    }

    #[test]
    fn tcp_large_payload_roundtrips_exactly() {
        let world = tcp_world(2);
        let payload: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        let expect = payload.clone();
        thread::scope(|s| {
            let t0 = &world[0];
            let t1 = &world[1];
            s.spawn(move || t0.send_value(0, 1, 9, payload).unwrap());
            let got = recv_bytes(t1, 0, 9, 20).unwrap();
            assert_eq!(got, expect);
        });
    }

    #[test]
    fn tcp_detects_dead_peer() {
        let mut world = tcp_world(2);
        let t1 = world.pop().unwrap();
        let t0 = world.pop().unwrap();
        drop(t1); // rank 1's connections close
        let err = recv_bytes(&t0, 1, 0, 5).unwrap_err();
        assert_eq!(err, TransportError::Disconnected { peer: 1 });
        // Sending to the dead peer fails too (possibly after the OS
        // notices the close).
        let mut saw_disconnect = false;
        for _ in 0..50 {
            if t0.send_value(0, 1, 0, vec![1u8]).is_err() {
                saw_disconnect = true;
                break;
            }
            thread::sleep(Duration::from_millis(10));
        }
        assert!(saw_disconnect, "send to dead peer never failed");
    }

    #[test]
    fn tcp_rejects_tampered_frame() {
        // Rank 0 is a real transport endpoint; the "peer" is a raw socket
        // that completes the hello handshake and then sends a frame with
        // one flipped payload bit. The transport must refuse to deliver
        // it and surface Corrupt — naming the lane — instead.
        let bound = TcpTransport::bind(2, 0, "127.0.0.1:0").expect("bind");
        let addr = bound.addr();
        let attacker = thread::spawn(move || {
            let mut s = TcpStream::connect(addr).expect("connect");
            s.write_all(&wire_hello(1)).expect("hello");
            let mut frame = wire_frame(4, 0, b"legitimate payload");
            frame[HEADER_LEN + 3] ^= 0x01; // flip one payload bit
            s.write_all(&frame).expect("tampered frame");
            s.flush().expect("flush");
            // Keep the socket open so EOF cannot mask the corruption.
            thread::sleep(Duration::from_secs(2));
        });
        let t0 = bound.establish(&[], Duration::from_secs(10)).expect("mesh");
        let err = recv_bytes(&t0, 1, 4, 5).unwrap_err();
        assert!(
            matches!(
                err,
                TransportError::Corrupt {
                    src: 1,
                    dst: 0,
                    channel: 4,
                    ..
                }
            ),
            "tampered frame yielded {err:?}"
        );
        attacker.join().unwrap();
    }

    #[test]
    fn wire_frames_reject_every_bit_flip_and_every_cut() {
        // Bodies of 0..=70 bytes: the ones too short to hold a lane
        // header, then payloads whose byte tail and lane header land on
        // every offset of a checksum word.
        for len in 0..LANE_LEN {
            let frame = framing::frame(WIRE_MAGIC, WIRE_FORMAT_VERSION, &vec![7u8; len]);
            let err = read_message(&mut &frame[..]).unwrap_err();
            assert_eq!(err.kind(), io::ErrorKind::InvalidData, "body {len}");
        }
        for len in 0..=70 - LANE_LEN {
            let payload: Vec<u8> = (0..len as u8).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
            let frame = wire_frame(0xABCD, 1, &payload);
            assert_eq!(frame.len(), payload.len() + WIRE_OVERHEAD_BYTES);
            assert_eq!(
                read_message(&mut &frame[..]).unwrap(),
                (0xABCD, payload.clone())
            );
            for bit in 0..frame.len() * 8 {
                let mut bad = frame.clone();
                bad[bit / 8] ^= 1 << (bit % 8);
                assert!(
                    read_message(&mut &bad[..]).is_err(),
                    "payload {len}: flip of bit {bit} accepted"
                );
            }
            for cut in 0..frame.len() {
                assert!(read_message(&mut &frame[..cut]).is_err(), "cut at {cut}");
            }
        }
    }

    #[test]
    fn vectored_writes_survive_short_writes() {
        // A writer that takes at most 5 bytes per call, so every slice
        // boundary is crossed mid-write.
        struct Trickle(Vec<u8>);
        impl Write for Trickle {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                let n = buf.len().min(5);
                self.0.extend_from_slice(&buf[..n]);
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        for payload in [&b""[..], b"x", b"a payload of some length"] {
            let frame = WireFrame::new(9, 1, payload);
            let mut out = Trickle(Vec::new());
            write_all_parts(&mut out, frame.slices()).unwrap();
            assert_eq!(out.0, wire_frame(9, 1, payload));
        }
    }

    #[test]
    fn a_second_hello_from_one_rank_fails_the_initial_mesh() {
        let bound = TcpTransport::bind(3, 0, "127.0.0.1:0").expect("bind");
        let addr = bound.addr();
        let twins = thread::spawn(move || {
            let dial = || {
                let mut s = TcpStream::connect(addr).expect("connect");
                s.write_all(&wire_hello(1)).expect("hello");
                s
            };
            let _keep = (dial(), dial());
            thread::sleep(Duration::from_secs(1));
        });
        let err = bound
            .establish(&[], Duration::from_secs(10))
            .expect_err("duplicate rank must not mesh");
        assert!(matches!(err, TransportError::Rendezvous { .. }), "{err:?}");
        twins.join().unwrap();
    }

    #[test]
    #[should_panic(expected = "rank 5 is not a peer of rank 0")]
    fn try_recv_checks_the_source_rank() {
        // A source outside the world used to create an inbox lane for a
        // rank that cannot exist and report it empty.
        let _ = solo_world().recv_value::<u8>(5, 0, 0, Duration::ZERO);
    }

    #[test]
    #[should_panic(expected = "rank 0 is not a peer of rank 0")]
    fn try_recv_refuses_a_lane_to_itself() {
        let _ = solo_world().recv_value::<u8>(0, 0, 0, Duration::ZERO);
    }

    #[test]
    fn channel_stats_agree_between_local_and_tcp() {
        // Same message pattern over both backends: the per-lane counters
        // must be identical once the TCP halves are merged, because lane
        // accounting counts payload bytes only (no frame overhead).
        let lane = channel_id(1, 0);
        let local = LocalTransport::new(2);
        local.send_value(0, 1, lane, vec![0u8; 100]).unwrap();
        local.send_value(0, 1, lane, vec![0u8; 20]).unwrap();
        for _ in 0..2 {
            local
                .recv_value::<Vec<u8>>(0, 1, lane, net_timeout())
                .unwrap();
        }

        let world = tcp_world(2);
        world[0].send_value(0, 1, lane, vec![0u8; 100]).unwrap();
        world[0].send_value(0, 1, lane, vec![0u8; 20]).unwrap();
        for _ in 0..2 {
            recv_bytes(&world[1], 0, lane, 10).unwrap();
        }

        let mut merged = crate::TrafficBreakdown::new(
            crate::TrafficSnapshot::default(),
            world[0].channel_stats(),
        );
        merged.absorb(&crate::TrafficBreakdown::new(
            crate::TrafficSnapshot::default(),
            world[1].channel_stats(),
        ));
        let reference =
            crate::TrafficBreakdown::new(crate::TrafficSnapshot::default(), local.channel_stats());
        assert_eq!(merged, reference);
        // A byte vector encodes as an 8-byte length plus its elements.
        assert_eq!(merged.channels[0].send_bytes, 108 + 28);
        assert_eq!(merged.channels[0].recv_bytes, 108 + 28);
    }
}
