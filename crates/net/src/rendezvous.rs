//! Shared-directory rendezvous for same-host TCP worlds: how the ranks of
//! a [`TcpTransport`] mesh learn each other's listener addresses.
//!
//! Every rank binds an ephemeral loopback listener and publishes its
//! address as `ep-<rank>` in a directory all ranks can see, then polls
//! until every peer has done the same and meshes. A relaunched world
//! rendezvouses in a fresh directory.

use crate::retry::retry_until;
use crate::tcp::TcpTransport;
use crate::transport::TransportError;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Meshes a TCP world through a shared rendezvous directory: every rank
/// binds an ephemeral loopback listener, publishes `ep-<rank>` (atomic
/// write, so a reader never sees a half-written address), waits for all
/// peers to publish, then [`crate::TcpBound::establish`]es the full mesh.
///
/// The directory must be fresh per world incarnation — stale endpoint
/// files from a previous run would be read as live peers.
pub fn tcp_rendezvous(
    dir: impl Into<PathBuf>,
    world: usize,
    rank: usize,
    timeout: Duration,
) -> Result<TcpTransport, TransportError> {
    let dir = dir.into();
    std::fs::create_dir_all(&dir)?;
    let bound = TcpTransport::bind(world, rank, "127.0.0.1:0")?;
    publish_endpoint(&dir, rank, bound.addr())?;
    let deadline = Instant::now() + timeout;
    let endpoints = poll_endpoints(&dir, world, deadline)?;
    bound.establish(
        &endpoints,
        deadline.saturating_duration_since(Instant::now()),
    )
}

/// Polls the rendezvous directory until every rank's endpoint is
/// published (capped-exponential backoff), or the deadline passes.
fn poll_endpoints(
    dir: &Path,
    world: usize,
    deadline: Instant,
) -> Result<Vec<SocketAddr>, TransportError> {
    let mut endpoints = Vec::with_capacity(world);
    for peer in 0..world {
        let addr = retry_until(deadline, || read_endpoint(dir, peer).ok_or(())).map_err(|()| {
            TransportError::Rendezvous {
                detail: format!("rank {peer} never published an endpoint in {dir:?}"),
            }
        })?;
        endpoints.push(addr);
    }
    Ok(endpoints)
}

/// Publishes this rank's listener address into the rendezvous directory.
fn publish_endpoint(dir: &Path, rank: usize, addr: SocketAddr) -> Result<(), TransportError> {
    publish_atomically(dir, &format!("ep-{rank}"), addr.to_string().as_bytes()).map_err(|e| {
        TransportError::Rendezvous {
            detail: format!("publishing endpoint for rank {rank}: {e}"),
        }
    })
}

/// Writes `bytes` to `<name>.partial` and renames it to `name`, so a
/// polling peer sees the whole file or none of it. One writer per name
/// (each rank publishes only its own endpoint); nothing is synced — the
/// file matters only while its writer is alive.
fn publish_atomically(dir: &Path, name: &str, bytes: &[u8]) -> std::io::Result<()> {
    let tmp = dir.join(format!("{name}.partial"));
    std::fs::write(&tmp, bytes)?;
    std::fs::rename(&tmp, dir.join(name)).inspect_err(|_| {
        let _ = std::fs::remove_file(&tmp);
    })
}

/// Reads a peer's published listener address, if present yet.
fn read_endpoint(dir: &Path, rank: usize) -> Option<SocketAddr> {
    let bytes = std::fs::read(dir.join(format!("ep-{rank}"))).ok()?;
    String::from_utf8(bytes).ok()?.parse().ok()
}
