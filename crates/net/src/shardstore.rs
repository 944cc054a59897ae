//! Rendezvous + fetch: the blob-store abstraction behind cross-host
//! elastic restore.
//!
//! A sharded checkpoint is a set of named blobs — a small manifest plus
//! one shard per rank. A restarting worker *rendezvouses* on the manifest
//! (a single well-known name) and *fetches* only its own shard. This
//! module abstracts where those blobs live:
//!
//! * [`MemShardStore`] — in-process: blobs in shared memory, reachable
//!   from every worker thread of the mesh, the same way the in-process
//!   [`crate::P2pMesh`] channels stand in for NCCL transports. Used by
//!   tests and the fault-injection harness to simulate a replacement
//!   worker that holds none of the coordinator's state.
//! * [`FsShardStore`] — a directory of files, standing in for remote blob
//!   storage (a parallel filesystem, S3, a burst buffer). Puts are atomic
//!   (a temp file per call + rename) and durable (synced before the
//!   rename), so a reader never observes a half-written shard and a crash
//!   never leaves a manifest naming one.
//!
//! * [`TcpShardStore`] — an **actually remote** backend: a thin client
//!   speaking a framed request/response protocol to a
//!   [`ShardStoreServer`] on another process (or host), which serves any
//!   inner [`ShardStore`]. Every request and response wears the shared
//!   `opt-ckpt` frame (magic, version, length, word-wise checksum), so a
//!   damaged exchange is rejected at the protocol layer.
//!
//! The store is deliberately dumb: `put`/`get`/`list` over opaque bytes.
//! All integrity checking (checksums, versions, config fingerprints)
//! happens in `opt-ckpt`'s shard codec, so every backend gets the same
//! validation for free.

use crate::retry::retry_until;
use opt_ckpt::framing;
use opt_tensor::{Persist, Reader, Writer};
use std::collections::HashMap;
use std::fmt;
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// Why a shard-store operation failed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardStoreError {
    /// No blob exists under the requested name.
    NotFound {
        /// The name that was requested.
        name: String,
    },
    /// The backend failed (I/O error, invalid name, ...).
    Backend {
        /// The name involved, if any.
        name: String,
        /// Backend-specific description.
        detail: String,
    },
}

impl fmt::Display for ShardStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardStoreError::NotFound { name } => write!(f, "no blob named {name:?} in the store"),
            ShardStoreError::Backend { name, detail } => {
                write!(f, "shard store backend failed on {name:?}: {detail}")
            }
        }
    }
}

impl std::error::Error for ShardStoreError {}

/// A named-blob store that checkpoint shards rendezvous through.
///
/// Implementations must be safe to call from many worker threads at once;
/// a `put` is atomic (a concurrent `get` sees the old blob or the new
/// blob, never a mixture).
pub trait ShardStore: Send + Sync + fmt::Debug {
    /// Stores `bytes` under `name`, replacing any previous blob.
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), ShardStoreError>;

    /// Retrieves the blob stored under `name`.
    fn get(&self, name: &str) -> Result<Vec<u8>, ShardStoreError>;

    /// Lists all blob names, sorted.
    fn list(&self) -> Result<Vec<String>, ShardStoreError>;

    /// Removes the blob stored under `name`. Idempotent: deleting a name
    /// that does not exist succeeds (checkpoint garbage collection must
    /// tolerate racing cleaners and earlier partial deletes).
    fn delete(&self, name: &str) -> Result<(), ShardStoreError>;
}

/// Rejects names that could escape a directory-backed store (path
/// separators, `..`, empty). Applied by every backend so behavior does
/// not depend on where the blobs happen to live.
fn validate_name(name: &str) -> Result<(), ShardStoreError> {
    let bad = name.is_empty()
        || name == "."
        || name == ".."
        || name.contains('/')
        || name.contains('\\')
        || name.contains('\0');
    if bad {
        return Err(ShardStoreError::Backend {
            name: name.to_string(),
            detail: "invalid blob name (empty or contains path separators)".to_string(),
        });
    }
    Ok(())
}

/// In-process shard store: blobs in shared memory.
///
/// Clones share the same underlying map (like the mesh's channels), so
/// one clone per worker thread gives the whole world a common rendezvous
/// point without any thread holding another's state.
#[derive(Debug, Clone, Default)]
pub struct MemShardStore {
    blobs: Arc<Mutex<HashMap<String, Vec<u8>>>>,
}

impl MemShardStore {
    /// Creates an empty store.
    pub fn new() -> Self {
        Self::default()
    }

    /// The blob map. A thread that panicked while holding the lock cannot
    /// have left it torn — every update is a single `insert` / `remove`
    /// of a whole blob — so a poisoned guard is recovered, not propagated
    /// as a second panic into every later checkpoint call.
    fn blobs(&self) -> MutexGuard<'_, HashMap<String, Vec<u8>>> {
        self.blobs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Number of blobs currently stored.
    pub fn len(&self) -> usize {
        self.blobs().len()
    }

    /// Whether the store holds no blobs.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl ShardStore for MemShardStore {
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), ShardStoreError> {
        validate_name(name)?;
        self.blobs().insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, ShardStoreError> {
        validate_name(name)?;
        self.blobs()
            .get(name)
            .cloned()
            .ok_or_else(|| ShardStoreError::NotFound {
                name: name.to_string(),
            })
    }

    fn list(&self) -> Result<Vec<String>, ShardStoreError> {
        let mut names: Vec<String> = self.blobs().keys().cloned().collect();
        names.sort();
        Ok(names)
    }

    fn delete(&self, name: &str) -> Result<(), ShardStoreError> {
        validate_name(name)?;
        self.blobs().remove(name);
        Ok(())
    }
}

/// Filesystem shard store: one file per blob under a directory, standing
/// in for remote blob storage — and the only thing in the workspace that
/// writes checkpoint bytes to a filesystem. A put is atomic under any
/// concurrency (a temp file of its own, then a rename) and durable (synced
/// before the rename publishes it), so "manifest last" is crash-ordered.
#[derive(Debug, Clone)]
pub struct FsShardStore {
    dir: PathBuf,
}

/// Distinguishes the temp files of concurrent puts within one process
/// (the pid distinguishes processes sharing a directory).
static PUT_SEQ: AtomicU64 = AtomicU64::new(0);

impl FsShardStore {
    /// Creates a store rooted at `dir` (created lazily on first put).
    pub fn new(dir: impl Into<PathBuf>) -> Self {
        Self { dir: dir.into() }
    }

    fn backend_err(&self, name: &str, e: std::io::Error) -> ShardStoreError {
        ShardStoreError::Backend {
            name: name.to_string(),
            detail: e.to_string(),
        }
    }

    /// Writes and syncs `bytes` at `tmp`, renames it over `name`, then
    /// syncs the directory so the rename itself survives a crash (best
    /// effort: not every filesystem lets a directory be opened or synced).
    fn publish(&self, tmp: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
        let mut file = std::fs::File::create(tmp)?;
        file.write_all(bytes)?;
        file.sync_all()?;
        std::fs::rename(tmp, self.dir.join(name))?;
        let _ = std::fs::File::open(&self.dir).and_then(|dir| dir.sync_all());
        Ok(())
    }
}

impl ShardStore for FsShardStore {
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), ShardStoreError> {
        validate_name(name)?;
        std::fs::create_dir_all(&self.dir).map_err(|e| self.backend_err(name, e))?;
        // A temp name no other put shares — two writers of one name must
        // not interleave in one file — still ending in `.partial`, which
        // `list` hides.
        let seq = PUT_SEQ.fetch_add(1, Ordering::Relaxed);
        let tmp = self
            .dir
            .join(format!("{name}.{}-{seq}.partial", std::process::id()));
        self.publish(&tmp, name, bytes).map_err(|e| {
            let _ = std::fs::remove_file(&tmp);
            self.backend_err(name, e)
        })
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, ShardStoreError> {
        validate_name(name)?;
        match std::fs::read(self.dir.join(name)) {
            Ok(bytes) => Ok(bytes),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Err(ShardStoreError::NotFound {
                name: name.to_string(),
            }),
            Err(e) => Err(self.backend_err(name, e)),
        }
    }

    fn list(&self) -> Result<Vec<String>, ShardStoreError> {
        let entries = match std::fs::read_dir(&self.dir) {
            Ok(entries) => entries,
            // A store nobody has put to yet is empty, not broken.
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
            Err(e) => return Err(self.backend_err("", e)),
        };
        let mut names = Vec::new();
        for entry in entries {
            let entry = entry.map_err(|e| self.backend_err("", e))?;
            if !entry
                .file_type()
                .map_err(|e| self.backend_err("", e))?
                .is_file()
            {
                continue;
            }
            if let Ok(name) = entry.file_name().into_string() {
                // In-flight temp files are not yet published blobs.
                if !name.ends_with(".partial") {
                    names.push(name);
                }
            }
        }
        names.sort();
        Ok(names)
    }

    fn delete(&self, name: &str) -> Result<(), ShardStoreError> {
        validate_name(name)?;
        match std::fs::remove_file(self.dir.join(name)) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(self.backend_err(name, e)),
        }
    }
}

/// Magic bytes opening every shard-store protocol frame.
pub const STORE_MAGIC: &[u8; 8] = b"OPTSTOR\0";

/// Current shard-store wire protocol version (2: the word-wise frame
/// checksum).
pub const STORE_PROTOCOL_VERSION: u32 = 2;

/// How long a [`TcpShardStore`] client waits on one request round-trip.
const STORE_IO_TIMEOUT: Duration = Duration::from_secs(60);

/// How long a [`TcpShardStore`] client keeps retrying a refused connect:
/// covers ten attempts of the backoff schedule (4.575 s of sleeps).
const STORE_CONNECT_WINDOW: Duration = Duration::from_secs(5);

const OP_PUT: u8 = 0;
const OP_GET: u8 = 1;
const OP_LIST: u8 = 2;
const OP_DELETE: u8 = 3;

const STATUS_OK: u8 = 0;
const STATUS_NOT_FOUND: u8 = 1;
const STATUS_BACKEND: u8 = 2;

fn store_proto_err(name: &str, detail: impl Into<String>) -> ShardStoreError {
    ShardStoreError::Backend {
        name: name.to_string(),
        detail: detail.into(),
    }
}

/// Serves an inner [`ShardStore`] to remote [`TcpShardStore`] clients:
/// one framed request per connection, executed against the inner store,
/// one framed response back.
///
/// The server holds the blobs (or the directory) on *its* host — worker
/// processes elsewhere rendezvous and fetch through the wire, which is
/// exactly the topology of a real checkpoint object store. Dropping the
/// handle stops the accept loop.
pub struct ShardStoreServer {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept_thread: Option<std::thread::JoinHandle<()>>,
}

impl fmt::Debug for ShardStoreServer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ShardStoreServer({})", self.addr)
    }
}

impl ShardStoreServer {
    /// Binds `bind_addr` (typically `127.0.0.1:0`) and starts serving
    /// `inner` in a background thread.
    pub fn spawn(
        inner: Arc<dyn ShardStore>,
        bind_addr: &str,
    ) -> Result<ShardStoreServer, ShardStoreError> {
        let listener = TcpListener::bind(bind_addr)
            .map_err(|e| store_proto_err("", format!("bind {bind_addr}: {e}")))?;
        let addr = listener
            .local_addr()
            .map_err(|e| store_proto_err("", e.to_string()))?;
        listener
            .set_nonblocking(true)
            .map_err(|e| store_proto_err("", e.to_string()))?;
        let stop = Arc::new(AtomicBool::new(false));
        let t_stop = Arc::clone(&stop);
        let accept_thread = std::thread::Builder::new()
            .name("shard-store-server".to_string())
            .spawn(move || {
                while !t_stop.load(Ordering::SeqCst) {
                    match listener.accept() {
                        Ok((stream, _)) => {
                            let inner = Arc::clone(&inner);
                            // One handler thread per request keeps slow
                            // clients from serializing the world's fetches.
                            let _ = std::thread::Builder::new()
                                .name("shard-store-conn".to_string())
                                .spawn(move || serve_one(inner.as_ref(), stream));
                        }
                        Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                            std::thread::sleep(Duration::from_millis(20));
                        }
                        Err(_) => break,
                    }
                }
            })
            .map_err(|e| store_proto_err("", e.to_string()))?;
        Ok(ShardStoreServer {
            addr,
            stop,
            accept_thread: Some(accept_thread),
        })
    }

    /// The address clients should connect to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }
}

impl Drop for ShardStoreServer {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.accept_thread.take() {
            let _ = h.join();
        }
    }
}

/// Handles one client connection: read the framed request, execute it,
/// write the framed response. A request that fails integrity validation
/// gets a backend-error response (the framing caught the damage).
fn serve_one(inner: &dyn ShardStore, mut stream: TcpStream) {
    let _ = stream.set_read_timeout(Some(STORE_IO_TIMEOUT));
    let _ = stream.set_write_timeout(Some(STORE_IO_TIMEOUT));
    let mut raw = Vec::new();
    if stream.read_to_end(&mut raw).is_err() {
        return;
    }
    let response = match framing::unframe(&raw, STORE_MAGIC, STORE_PROTOCOL_VERSION) {
        Ok(body) => execute_request(inner, body),
        Err(e) => encode_response(&Err(ShardStoreError::Backend {
            name: String::new(),
            detail: format!("request frame rejected: {e}"),
        })),
    };
    let _ = stream.write_all(&framing::frame(
        STORE_MAGIC,
        STORE_PROTOCOL_VERSION,
        &response,
    ));
    let _ = stream.shutdown(Shutdown::Write);
}

/// Decodes and runs one request body, returning the response body.
fn execute_request(inner: &dyn ShardStore, body: &[u8]) -> Vec<u8> {
    let mut r = Reader::new(body);
    let parsed: Result<(u8, String, Vec<u8>), _> = (|| {
        let op = r.u8()?;
        let name = String::restore(&mut r)?;
        let payload = r.bytes()?;
        r.finish()?;
        Ok::<_, opt_tensor::PersistError>((op, name, payload))
    })();
    let (op, name, payload) = match parsed {
        Ok(t) => t,
        Err(e) => {
            return encode_response(&Err(ShardStoreError::Backend {
                name: String::new(),
                detail: format!("malformed request: {e}"),
            }))
        }
    };
    let result = match op {
        OP_PUT => inner.put(&name, &payload).map(|()| Vec::new()),
        OP_GET => inner.get(&name),
        OP_LIST => inner.list().map(|names| names.to_bytes()),
        OP_DELETE => inner.delete(&name).map(|()| Vec::new()),
        other => Err(ShardStoreError::Backend {
            name,
            detail: format!("unknown op {other}"),
        }),
    };
    encode_response(&result)
}

/// Encodes an operation outcome as a response body.
fn encode_response(result: &Result<Vec<u8>, ShardStoreError>) -> Vec<u8> {
    let mut w = Writer::new();
    match result {
        Ok(payload) => {
            w.u8(STATUS_OK);
            w.bytes(payload);
        }
        Err(ShardStoreError::NotFound { name }) => {
            w.u8(STATUS_NOT_FOUND);
            name.persist(&mut w);
        }
        Err(ShardStoreError::Backend { name, detail }) => {
            w.u8(STATUS_BACKEND);
            name.persist(&mut w);
            detail.persist(&mut w);
        }
    }
    w.into_bytes()
}

/// A [`ShardStore`] living on the far side of a TCP connection — the
/// "actually remote" backend: worker processes rendezvous on the manifest
/// and fetch their shard across a real wire, through a
/// [`ShardStoreServer`] hosted by the coordinator (or any blob host).
///
/// Each operation is one connection: framed request out, framed response
/// back, both checksummed with the shared `opt-ckpt` framing. The client
/// is stateless, so it can be cheaply cloned into every worker.
#[derive(Debug, Clone)]
pub struct TcpShardStore {
    addr: SocketAddr,
}

impl TcpShardStore {
    /// A client for the server at `addr`.
    pub fn connect(addr: SocketAddr) -> Self {
        Self { addr }
    }

    /// The server address this client talks to.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// One request/response round-trip.
    fn call(&self, op: u8, name: &str, payload: &[u8]) -> Result<Vec<u8>, ShardStoreError> {
        let mut body = Writer::new();
        body.u8(op);
        name.to_string().persist(&mut body);
        body.bytes(payload);
        let request = framing::frame(STORE_MAGIC, STORE_PROTOCOL_VERSION, &body.into_bytes());

        let io_err = |what: &str, e: std::io::Error| {
            store_proto_err(name, format!("{what} {}: {e}", self.addr))
        };
        // A single refused connect must not fail a relaunched world's
        // self-restore: retry the connect (not the round-trip — requests
        // are only sent once) on the shared capped-exponential backoff
        // schedule.
        let deadline = Instant::now() + STORE_CONNECT_WINDOW;
        let mut stream = retry_until(deadline, || {
            TcpStream::connect_timeout(&self.addr, STORE_IO_TIMEOUT)
        })
        .map_err(|e| io_err("connecting to", e))?;
        stream
            .set_read_timeout(Some(STORE_IO_TIMEOUT))
            .map_err(|e| io_err("configuring", e))?;
        stream
            .set_write_timeout(Some(STORE_IO_TIMEOUT))
            .map_err(|e| io_err("configuring", e))?;
        stream
            .write_all(&request)
            .map_err(|e| io_err("writing to", e))?;
        stream
            .shutdown(Shutdown::Write)
            .map_err(|e| io_err("finishing write to", e))?;
        let mut raw = Vec::new();
        stream
            .read_to_end(&mut raw)
            .map_err(|e| io_err("reading from", e))?;

        let body = framing::unframe(&raw, STORE_MAGIC, STORE_PROTOCOL_VERSION)
            .map_err(|e| store_proto_err(name, format!("response frame rejected: {e}")))?;
        let mut r = Reader::new(body);
        let status = r
            .u8()
            .map_err(|e| store_proto_err(name, format!("malformed response: {e}")))?;
        match status {
            STATUS_OK => r
                .bytes()
                .map_err(|e| store_proto_err(name, format!("malformed response: {e}"))),
            STATUS_NOT_FOUND => {
                let name = String::restore(&mut r)
                    .map_err(|e| store_proto_err(name, format!("malformed response: {e}")))?;
                Err(ShardStoreError::NotFound { name })
            }
            STATUS_BACKEND => {
                let name = String::restore(&mut r)
                    .map_err(|e| store_proto_err(name, format!("malformed response: {e}")))?;
                let detail = String::restore(&mut r)
                    .map_err(|e| store_proto_err(&name, format!("malformed response: {e}")))?;
                Err(ShardStoreError::Backend { name, detail })
            }
            other => Err(store_proto_err(
                name,
                format!("unknown response status {other}"),
            )),
        }
    }
}

impl ShardStore for TcpShardStore {
    fn put(&self, name: &str, bytes: &[u8]) -> Result<(), ShardStoreError> {
        validate_name(name)?;
        self.call(OP_PUT, name, bytes).map(|_| ())
    }

    fn get(&self, name: &str) -> Result<Vec<u8>, ShardStoreError> {
        validate_name(name)?;
        self.call(OP_GET, name, &[])
    }

    fn list(&self) -> Result<Vec<String>, ShardStoreError> {
        let payload = self.call(OP_LIST, "", &[])?;
        Vec::<String>::from_bytes(&payload)
            .map_err(|e| store_proto_err("", format!("malformed list payload: {e}")))
    }

    fn delete(&self, name: &str) -> Result<(), ShardStoreError> {
        validate_name(name)?;
        self.call(OP_DELETE, name, &[]).map(|_| ())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    fn roundtrip(store: &dyn ShardStore) {
        assert!(matches!(
            store.get("absent"),
            Err(ShardStoreError::NotFound { .. })
        ));
        store.put("manifest.ckpt", b"meta").expect("put manifest");
        store.put("rank-0-0.shard", b"state-a").expect("put shard");
        store.put("rank-1-0.shard", b"state-b").expect("put shard");
        assert_eq!(store.get("rank-0-0.shard").unwrap(), b"state-a");
        // Overwrite replaces.
        store.put("rank-0-0.shard", b"state-a2").expect("overwrite");
        assert_eq!(store.get("rank-0-0.shard").unwrap(), b"state-a2");
        assert_eq!(
            store.list().unwrap(),
            vec!["manifest.ckpt", "rank-0-0.shard", "rank-1-0.shard"]
        );
        // Delete removes, and is idempotent.
        store.delete("rank-1-0.shard").expect("delete");
        store.delete("rank-1-0.shard").expect("idempotent delete");
        assert!(matches!(
            store.get("rank-1-0.shard"),
            Err(ShardStoreError::NotFound { .. })
        ));
        assert_eq!(
            store.list().unwrap(),
            vec!["manifest.ckpt", "rank-0-0.shard"]
        );
    }

    #[test]
    fn mem_store_roundtrip() {
        roundtrip(&MemShardStore::new());
    }

    #[test]
    fn fs_store_roundtrip_and_atomicity() {
        let dir = std::env::temp_dir().join(format!("opt-shardstore-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FsShardStore::new(&dir);
        assert_eq!(store.list().unwrap(), Vec::<String>::new());
        roundtrip(&store);
        // No temp files left behind, and .partial never shows up in list.
        for name in std::fs::read_dir(&dir).unwrap() {
            let name = name.unwrap().file_name().into_string().unwrap();
            assert!(!name.ends_with(".partial"), "temp file {name} left behind");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn fs_store_concurrent_puts_of_one_name_never_tear() {
        // The `ShardStore` contract under same-name concurrency: every
        // `get` sees one writer's whole blob, no `put` fails, no temp
        // file outlives its put.
        const WRITERS: u8 = 4;
        const PUTS: usize = 40;
        const LEN: usize = 256 * 1024;
        let dir = std::env::temp_dir().join(format!("opt-shardstore-race-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = FsShardStore::new(&dir);
        store.put("contended.shard", &vec![0; LEN]).expect("seed");
        let start = std::sync::Barrier::new(WRITERS as usize + 1);
        let writing = AtomicBool::new(true);
        // Nothing inside the scope may panic before `writing` is cleared,
        // or the reader would spin forever: failures are counted instead.
        let (failed_puts, reads) = thread::scope(|scope| {
            let writers: Vec<_> = (1..=WRITERS)
                .map(|fill| {
                    let (store, start) = (&store, &start);
                    scope.spawn(move || {
                        let blob = vec![fill; LEN];
                        start.wait();
                        (0..PUTS)
                            .filter(|_| store.put("contended.shard", &blob).is_err())
                            .count()
                    })
                })
                .collect();
            let reader = scope.spawn(|| {
                start.wait();
                let mut reads = 0;
                while writing.load(Ordering::SeqCst) {
                    let blob = store.get("contended.shard").expect("get");
                    assert_eq!(blob.len(), LEN, "read {reads} saw a short blob");
                    assert!(
                        blob.iter().all(|&b| b == blob[0]),
                        "read {reads} saw a mixture of two puts"
                    );
                    reads += 1;
                }
                reads
            });
            let failed: usize = writers.into_iter().map(|w| w.join().unwrap_or(PUTS)).sum();
            writing.store(false, Ordering::SeqCst);
            (failed, reader.join().expect("reader"))
        });
        assert_eq!(failed_puts, 0, "puts failed under same-name concurrency");
        assert!(reads > 0);
        assert_eq!(store.list().unwrap(), vec!["contended.shard"]);
        let left: Vec<_> = std::fs::read_dir(&dir).unwrap().collect();
        assert_eq!(left.len(), 1, "temp files left behind: {left:?}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn mem_store_outlives_a_panic_under_its_lock() {
        let store = MemShardStore::new();
        store.put("manifest.ckpt", b"meta").unwrap();
        let clone = store.clone();
        let poisoner = thread::spawn(move || {
            let _guard = clone.blobs.lock().unwrap();
            panic!("worker died holding the store lock");
        });
        assert!(poisoner.join().is_err());
        assert!(store.blobs.is_poisoned());
        // Every operation still answers, on whole blobs.
        assert_eq!(store.len(), 1);
        assert_eq!(store.get("manifest.ckpt").unwrap(), b"meta");
        store.put("rank-0-0-1.shard", b"state").unwrap();
        assert_eq!(
            store.list().unwrap(),
            vec!["manifest.ckpt", "rank-0-0-1.shard"]
        );
        store.delete("manifest.ckpt").unwrap();
        assert_eq!(store.len(), 1);
    }

    #[test]
    fn names_with_path_separators_are_rejected() {
        let store = MemShardStore::new();
        for bad in ["", ".", "..", "a/b", "a\\b", "x\0y"] {
            assert!(
                matches!(store.put(bad, b"x"), Err(ShardStoreError::Backend { .. })),
                "name {bad:?} accepted"
            );
            assert!(store.get(bad).is_err());
        }
        let fs = FsShardStore::new(std::env::temp_dir().join("opt-shardstore-never"));
        assert!(fs.put("../escape", b"x").is_err());
    }

    #[test]
    fn mem_store_is_shared_across_clones_and_threads() {
        let store = MemShardStore::new();
        let clone = store.clone();
        let h = thread::spawn(move || {
            clone.put("rank-0-0.shard", b"from-worker").unwrap();
        });
        h.join().unwrap();
        assert_eq!(store.get("rank-0-0.shard").unwrap(), b"from-worker");
        assert_eq!(store.len(), 1);
        assert!(!store.is_empty());
    }

    #[test]
    fn trait_object_usable_behind_arc() {
        let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
        store.put("manifest.ckpt", &[1, 2, 3]).unwrap();
        let clone = Arc::clone(&store);
        let h = thread::spawn(move || clone.get("manifest.ckpt").unwrap());
        assert_eq!(h.join().unwrap(), vec![1, 2, 3]);
    }

    #[test]
    fn tcp_store_roundtrips_through_a_real_server() {
        let inner: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
        let server = ShardStoreServer::spawn(Arc::clone(&inner), "127.0.0.1:0").expect("server");
        let client = TcpShardStore::connect(server.addr());
        // The full contract suite, across the wire.
        roundtrip(&client);
        // Writes made through the wire land in the server's inner store.
        assert_eq!(inner.get("manifest.ckpt").unwrap(), b"meta");
        // And a second client sees them (statelessness).
        let other = TcpShardStore::connect(server.addr());
        assert_eq!(other.get("rank-0-0.shard").unwrap(), b"state-a2");
    }

    #[test]
    fn tcp_store_concurrent_clients_do_not_corrupt() {
        let inner: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
        let server = ShardStoreServer::spawn(inner, "127.0.0.1:0").expect("server");
        let addr = server.addr();
        let mut handles = Vec::new();
        for i in 0..6u8 {
            handles.push(thread::spawn(move || {
                let client = TcpShardStore::connect(addr);
                let name = format!("rank-{i}-0.shard");
                let blob = vec![i; 10_000];
                client.put(&name, &blob).expect("put");
                assert_eq!(client.get(&name).expect("get"), blob);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let client = TcpShardStore::connect(addr);
        assert_eq!(client.list().expect("list").len(), 6);
    }

    #[test]
    fn tcp_store_propagates_not_found_and_rejects_tampered_requests() {
        let inner: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
        let server = ShardStoreServer::spawn(inner, "127.0.0.1:0").expect("server");
        let client = TcpShardStore::connect(server.addr());
        assert!(matches!(
            client.get("absent"),
            Err(ShardStoreError::NotFound { .. })
        ));
        // A raw client sending a bit-flipped frame gets a backend error,
        // never a silent execution of the damaged request.
        let mut body = Writer::new();
        body.u8(OP_PUT);
        "victim.shard".to_string().persist(&mut body);
        body.bytes(b"payload");
        let mut frame = framing::frame(STORE_MAGIC, STORE_PROTOCOL_VERSION, &body.into_bytes());
        let n = frame.len();
        frame[n - 10] ^= 0x04;
        let mut stream = TcpStream::connect(server.addr()).expect("connect");
        stream.write_all(&frame).expect("write");
        stream.shutdown(Shutdown::Write).expect("shutdown");
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw).expect("read");
        let resp = framing::unframe(&raw, STORE_MAGIC, STORE_PROTOCOL_VERSION).expect("frame");
        assert_eq!(resp[0], STATUS_BACKEND, "tampered request not refused");
        // The damaged put must not have landed.
        assert!(matches!(
            client.get("victim.shard"),
            Err(ShardStoreError::NotFound { .. })
        ));
    }

    #[test]
    fn errors_display_usefully() {
        let e = ShardStoreError::NotFound {
            name: "rank-9-9.shard".into(),
        };
        assert!(e.to_string().contains("rank-9-9.shard"));
        let e = ShardStoreError::Backend {
            name: "m".into(),
            detail: "disk on fire".into(),
        };
        assert!(e.to_string().contains("disk on fire"));
    }
}
