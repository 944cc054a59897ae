//! The process launcher: one `opt-worker` OS process per `(stage, dp)`
//! rank, meshed over TCP.
//!
//! A world is a set of workers running the shared worker loop
//! (`run_worker`) plus one coordinator (`crate::coordinator`) driving
//! them with the typed messages of `crate::control` over a
//! [`opt_net::Transport`]. That part exists once. Two launchers put a
//! world on hardware and own only what genuinely differs between them:
//!
//! ```text
//!                  Coordinator (rank W = pp*dp of the world's transport)
//!                    | WireCmd ->                  <- typed replies
//!        +-----------+---------------------------------+
//!        |  Trainer: worker threads, LocalTransport    |  spawn / join
//!        |  ProcTrainer: opt-worker processes,         |  spawn / kill / reap
//!        |               TcpTransport                  |
//!        +-----------+---------------------------------+
//!                    v
//!   worker rank 0  <—— collectives + p2p over the same transport ——>  rank W-1
//!     |                                                                 |
//!     +—— put/get shards: the caller's store (threads) or a ———————————+
//!         TcpShardStore client -> ShardStoreServer (processes)
//! ```
//!
//! This module is the second launcher. Rendezvous: every process (workers
//! and coordinator) binds an ephemeral loopback listener and publishes it
//! in a shared scratch directory ([`opt_net::tcp_rendezvous`]);
//! checkpoint shards move through a [`TcpShardStore`] client talking to a
//! [`opt_net::ShardStoreServer`] — a real remote blob store as far as any
//! worker can tell. On top of the shared protocol it adds only what
//! processes need: spawning, `SIGKILL`ing and reaping them.
//!
//! Recovery is the thread world's: a world that loses a rank is torn down
//! and relaunched whole, and every new worker self-restores its own shard
//! from the store ([`ProcTrainer::self_restore_all`]). A dead worker is
//! noticed by what every wait already does: a send to it fails with
//! `Disconnected` once its connection's reader sees EOF, and between the
//! slices of every reply wait the coordinator asks whether the awaited
//! process has exited.
//!
//! Because both worlds run the same coordinator and the same worker loop,
//! and because collectives reduce in member order, batch keys are pure
//! functions of the config, and loss aggregation sorts before reducing, a
//! multi-process run — including one that loses a worker process mid-run
//! and relaunches a world that self-restores from the shard store — produces
//! **bit-identical** losses and traffic-ledger deltas to the in-process
//! run (enforced by `opt-bench`'s `multiproc` integration test and the CI
//! smoke job).

use crate::config::TrainerConfig;
use crate::control::{StoreSlot, WireCmd, CH_CMD};
use crate::coordinator::{resolve_manifest, Coordinator, WorkerHandle};
use crate::stats::TrainReport;
use crate::worker::{run_worker, WorkerCtx};
use opt_ckpt::{CkptError, ShardManifest};
use opt_net::{
    tcp_rendezvous, ShardStore, TcpShardStore, TcpTransport, TrafficBreakdown, Transport,
    TransportError,
};
use opt_tensor::{Persist, PersistError};
use opt_trace::{Trace, TraceMode, ENV_TRACE};
use std::fmt;
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::Child;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// How long processes wait for the world to rendezvous and mesh.
const RDV_TIMEOUT: Duration = Duration::from_secs(120);

/// Environment protocol between the coordinator and `opt-worker`.
pub const ENV_RANK: &str = "OPT_WORKER_RANK";
pub const ENV_CFG: &str = "OPT_WORKER_CFG";
pub const ENV_RDV: &str = "OPT_WORKER_RDV";
pub const ENV_STORE: &str = "OPT_WORKER_STORE";

/// Why an operation on a world failed — either launcher, any layer.
#[derive(Debug)]
pub enum WorldError {
    /// Spawning or signalling a worker process failed.
    Io(std::io::Error),
    /// The fabric failed (rendezvous, send, recv, a dead peer).
    Transport(TransportError),
    /// A checkpoint operation failed.
    Ckpt(CkptError),
    /// A control-plane message violated the protocol.
    Protocol(String),
    /// Killing or reaping a worker process failed; the rank is attached
    /// so a failed kill is attributable instead of silently dropped.
    Reap {
        /// Global rank of the worker being reaped.
        rank: usize,
        /// What the kill/wait syscall reported.
        detail: String,
    },
}

impl fmt::Display for WorldError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldError::Io(e) => write!(f, "worker process I/O failed: {e}"),
            WorldError::Transport(e) => write!(f, "worker fabric failed: {e}"),
            WorldError::Ckpt(e) => write!(f, "checkpoint operation failed: {e}"),
            WorldError::Protocol(d) => write!(f, "control protocol violation: {d}"),
            WorldError::Reap { rank, detail } => {
                write!(f, "reaping worker rank {rank} failed: {detail}")
            }
        }
    }
}

impl std::error::Error for WorldError {}

impl From<std::io::Error> for WorldError {
    fn from(e: std::io::Error) -> Self {
        WorldError::Io(e)
    }
}

impl From<TransportError> for WorldError {
    fn from(e: TransportError) -> Self {
        WorldError::Transport(e)
    }
}

impl From<CkptError> for WorldError {
    fn from(e: CkptError) -> Self {
        WorldError::Ckpt(e)
    }
}

impl From<PersistError> for WorldError {
    fn from(e: PersistError) -> Self {
        WorldError::Protocol(format!("malformed control message: {e}"))
    }
}

fn to_hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn from_hex(s: &str) -> Option<Vec<u8>> {
    if !s.len().is_multiple_of(2) {
        return None;
    }
    (0..s.len() / 2)
        .map(|i| u8::from_str_radix(&s[2 * i..2 * i + 2], 16).ok())
        .collect()
}

/// Launch parameters for a multi-process world.
#[derive(Debug, Clone)]
pub struct ProcOptions {
    /// Path to the compiled `opt-worker` binary.
    pub worker_bin: PathBuf,
    /// Address of the [`opt_net::ShardStoreServer`] workers fetch shards
    /// from.
    pub store_addr: SocketAddr,
    /// Directory rendezvous scratch lives under (a fresh subdirectory is
    /// created per world incarnation).
    pub scratch_dir: PathBuf,
}

/// Monotonic incarnation counter, so successive worlds under one scratch
/// directory never share a rendezvous namespace.
static INCARNATION: AtomicU64 = AtomicU64::new(0);

/// One spawned worker process plus whether it has been reaped.
/// `Child::kill` on an already-reaped child fails with `InvalidInput`;
/// the flag keeps kills idempotent and makes reap failures attributable
/// to a rank instead of silently swallowed.
pub(crate) struct WorkerSlot {
    child: Child,
    reaped: bool,
}

impl WorkerSlot {
    /// Reaps the process if it has not been reaped yet, `SIGKILL`ing it
    /// first unless it was told to stop.
    fn reap(&mut self, rank: usize, kill: bool) -> Result<(), WorldError> {
        if self.reaped {
            return Ok(());
        }
        let wrap = |what: &str, e: std::io::Error| WorldError::Reap {
            rank,
            detail: format!("{what}: {e}"),
        };
        if kill {
            self.child.kill().map_err(|e| wrap("kill", e))?;
        }
        self.child.wait().map_err(|e| wrap("wait", e))?;
        self.reaped = true;
        Ok(())
    }
}

impl WorkerHandle for WorkerSlot {
    fn exited(&mut self) -> bool {
        // A `try_wait` that sees the exit also reaps the child.
        self.reaped = self.reaped || matches!(self.child.try_wait(), Ok(Some(_)));
        self.reaped
    }
}

/// Kills and reaps every not-yet-reaped worker, collecting (rank, error)
/// pairs instead of aborting on the first failure — teardown must visit
/// every child even when one refuses to die.
fn reap_all(children: &mut [WorkerSlot]) -> Vec<(usize, WorldError)> {
    let mut failures = Vec::new();
    for (rank, slot) in children.iter_mut().enumerate() {
        if let Err(e) = slot.reap(rank, true) {
            failures.push((rank, e));
        }
    }
    failures
}

/// Spawns one `opt-worker` process with the launch environment.
fn spawn_worker(
    cfg: &TrainerConfig,
    opts: &ProcOptions,
    rdv_dir: &Path,
    trace: TraceMode,
    rank: usize,
) -> Result<WorkerSlot, WorldError> {
    let child = std::process::Command::new(&opts.worker_bin)
        .env(ENV_RANK, rank.to_string())
        .env(ENV_CFG, to_hex(&cfg.to_bytes()))
        .env(ENV_RDV, rdv_dir)
        .env(ENV_STORE, opts.store_addr.to_string())
        .env(ENV_TRACE, trace.as_str())
        .spawn()?;
    Ok(WorkerSlot {
        child,
        reaped: false,
    })
}

/// A multi-process training world: one `opt-worker` OS process per
/// `(stage, dp)` rank, meshed over TCP with the coordinator as the extra
/// rank `pp * dp`. Training, reports, traces and checkpoints go through
/// the same coordinator the in-process [`crate::Trainer`] uses; this type
/// adds the process lifecycle: spawn, kill, reap. Every worker process is
/// reaped by [`ProcTrainer::shutdown`], [`ProcTrainer::abort`] or, failing
/// both, the drop.
///
/// Created via [`crate::Trainer::launch_processes`].
pub struct ProcTrainer {
    pub(crate) coord: Coordinator<TcpTransport, WorkerSlot>,
    /// The coordinator's own client view of the shard store.
    store: TcpShardStore,
}

impl fmt::Debug for ProcTrainer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "ProcTrainer(pp={}, dp={}, workers={})",
            self.coord.cfg.pp,
            self.coord.cfg.dp,
            self.coord.workers.len()
        )
    }
}

impl ProcTrainer {
    /// Spawns the worker processes and meshes the world, with the trace
    /// mode propagated to every worker process through the [`ENV_TRACE`]
    /// variable. The coordinator participates in the TCP world as rank
    /// `pp * dp`.
    pub(crate) fn launch(
        cfg: TrainerConfig,
        opts: ProcOptions,
        trace: TraceMode,
    ) -> Result<ProcTrainer, WorldError> {
        assert!(cfg.pp > 0 && cfg.dp > 0, "pp and dp must be positive");
        let world = cfg.pp * cfg.dp;
        let incarnation = INCARNATION.fetch_add(1, Ordering::SeqCst);
        let rdv_dir = opts
            .scratch_dir
            .join(format!("rdv-{}-{incarnation}", std::process::id()));
        std::fs::create_dir_all(&rdv_dir)?;
        let mut children: Vec<WorkerSlot> = Vec::with_capacity(world);
        // Anything already spawned is reaped before a failed launch is
        // reported; a reap failure on top of it is logged rather than
        // masking the original error.
        let cleanup = |children: &mut [WorkerSlot], during: &str| {
            for (r, re) in reap_all(children) {
                eprintln!("coordinator: cleanup after failed {during}, rank {r}: {re}");
            }
        };
        for rank in 0..world {
            match spawn_worker(&cfg, &opts, &rdv_dir, trace, rank) {
                Ok(slot) => children.push(slot),
                Err(e) => {
                    cleanup(&mut children, "launch");
                    return Err(e);
                }
            }
        }
        let transport = match tcp_rendezvous(&rdv_dir, world + 1, world, RDV_TIMEOUT) {
            Ok(t) => Arc::new(t),
            Err(e) => {
                cleanup(&mut children, "rendezvous");
                return Err(WorldError::Transport(e));
            }
        };
        Ok(ProcTrainer {
            coord: Coordinator::new(cfg, transport, children, trace),
            store: TcpShardStore::connect(opts.store_addr),
        })
    }

    /// The configuration of this run.
    pub fn config(&self) -> &TrainerConfig {
        &self.coord.cfg
    }

    /// Iterations completed so far (includes iterations inherited from a
    /// restored checkpoint).
    pub fn trained_iters(&self) -> u64 {
        self.coord.trained_iters
    }

    /// OS process ids of the worker processes, indexed by rank.
    pub fn worker_pids(&self) -> Vec<u32> {
        self.coord.workers.iter().map(|s| s.child.id()).collect()
    }

    /// Runs extra training iterations, leaving the world quiesced.
    pub fn train_more(&mut self, extra: u64) -> Result<(), WorldError> {
        self.coord.train_more(extra)
    }

    /// Runs training up to the configured iteration count with periodic
    /// validation — same command schedule, same aggregation and therefore
    /// the same report, bit for bit, as [`crate::Trainer::train`].
    pub fn train(&mut self) -> Result<TrainReport, WorldError> {
        self.coord.train()
    }

    /// Quiesces the workers, gathers every process's raw samples and
    /// ledger, and aggregates them into a report.
    pub fn report(&mut self) -> Result<TrainReport, WorldError> {
        self.coord.report()
    }

    /// Quiesces the workers and returns the merged traffic counters:
    /// per-class totals plus the per-(src, dst, channel) breakdown.
    pub fn traffic(&mut self) -> Result<TrafficBreakdown, WorldError> {
        self.coord.traffic()
    }

    /// Drains every worker process's trace buffer over the control plane
    /// into one merged [`Trace`]. Returns `None` when the world was
    /// launched with tracing off.
    pub fn take_trace(&mut self) -> Result<Option<Trace>, WorldError> {
        Ok(self.coord.take_trace()?.map(Trace::merge))
    }

    /// Captures a sharded checkpoint: every worker process publishes its
    /// own shard to the store **over TCP**, the coordinator assembles and
    /// publishes the manifest last, so a crash mid-save leaves the
    /// previous checkpoint fully restorable.
    pub fn save_sharded(&mut self) -> Result<ShardManifest, WorldError> {
        self.coord.save_sharded(&self.store)
    }

    /// Has every worker process rendezvous on the store's manifest, fetch
    /// only its own shard over TCP, validate, and apply it. Returns the
    /// checkpoint iteration the world resumed at.
    pub fn self_restore_all(&mut self) -> Result<u64, WorldError> {
        let iter = resolve_manifest(&self.coord.cfg, &self.store)?.meta.iter;
        self.coord.self_restore(iter)?;
        Ok(iter)
    }

    /// Kills the worker process for global rank `rank` the way a real
    /// failure does: `SIGKILL`, no handshake, no flushing.
    ///
    /// # Panics
    ///
    /// Panics if `rank` lies outside the world.
    pub fn kill_rank(&mut self, rank: usize) -> Result<(), WorldError> {
        assert!(rank < self.coord.world(), "rank {rank} outside the world");
        self.coord.workers[rank].reap(rank, true)
    }

    /// Ranks whose worker process has exited (monitoring; an unexpected
    /// entry here means the world has lost a member and cannot progress).
    pub fn dead_ranks(&mut self) -> Vec<usize> {
        let workers = self.coord.workers.iter_mut().enumerate();
        workers
            .filter_map(|(rank, slot)| slot.exited().then_some(rank))
            .collect()
    }

    /// Tears the whole world down the way a fatal failure does: every
    /// worker process is killed and reaped, no handshake. The shard store
    /// (which lives with the caller) survives — exactly the state a
    /// cluster is in after a job-level abort.
    ///
    /// Reap failures are returned (and logged to stderr) rather than
    /// silently swallowed — an unkillable worker means a leaked process.
    pub fn abort(mut self) -> Vec<(usize, WorldError)> {
        let failures = reap_all(&mut self.coord.workers);
        for (rank, e) in &failures {
            eprintln!("coordinator: reaping worker rank {rank} during abort failed: {e}");
        }
        // Dropping the transport shuts the control sockets down.
        failures
    }

    /// Clean shutdown: sends `Stop` to every worker it can reach and waits
    /// for each to exit; a worker it cannot reach is killed instead. Every
    /// worker process is reaped before the first failure, if any, is
    /// returned.
    pub fn shutdown(mut self) -> Result<(), WorldError> {
        let coord = self.coord.world();
        let mut first_err = None;
        let mut reached = Vec::with_capacity(coord);
        for rank in 0..coord {
            let sent = self
                .coord
                .transport
                .send_value(coord, rank, CH_CMD, WireCmd::Stop);
            reached.push(sent.is_ok());
            if let Err(e) = sent {
                first_err.get_or_insert(e.into());
            }
        }
        for (rank, (slot, stopped)) in self.coord.workers.iter_mut().zip(reached).enumerate() {
            if let Err(e) = slot.reap(rank, !stopped) {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }
}

/// Dropping a process world without [`ProcTrainer::shutdown`] or
/// [`ProcTrainer::abort`] — an early `?`, a panic — still kills and reaps
/// every worker process, so none is left behind as a zombie.
impl Drop for ProcTrainer {
    fn drop(&mut self) {
        for (rank, e) in reap_all(&mut self.coord.workers) {
            eprintln!("coordinator: reaping worker rank {rank} on drop failed: {e}");
        }
    }
}

/// The body of the `opt-worker` binary: runs **one** `(stage, dp)` rank
/// as a real OS process. Reads the environment protocol
/// ([`ENV_RANK`], [`ENV_CFG`], [`ENV_RDV`], [`ENV_STORE`]), rendezvouses
/// with the rest of the world over TCP, builds the same `WorkerCtx` a
/// worker thread gets, and runs the shared `run_worker` loop on it:
/// commands arrive on, and replies leave through, the TCP transport's
/// control lanes directly.
pub fn worker_main() -> Result<(), WorldError> {
    let env = |key: &str| {
        std::env::var(key).map_err(|_| WorldError::Protocol(format!("{key} is not set")))
    };
    let rank: usize = env(ENV_RANK)?
        .parse()
        .map_err(|_| WorldError::Protocol(format!("{ENV_RANK} is not a rank")))?;
    let cfg_bytes = from_hex(&env(ENV_CFG)?)
        .ok_or_else(|| WorldError::Protocol(format!("{ENV_CFG} is not hex")))?;
    let cfg = TrainerConfig::from_bytes(&cfg_bytes)?;
    let rdv_dir = PathBuf::from(env(ENV_RDV)?);
    let store_addr: SocketAddr = env(ENV_STORE)?
        .parse()
        .map_err(|_| WorldError::Protocol(format!("{ENV_STORE} is not an address")))?;
    // Trace mode travels in the environment like the rest of the launch
    // protocol; the coordinator sets it explicitly on every spawn.
    let trace = TraceMode::from_env();

    let pp = cfg.pp;
    let world = pp * cfg.dp;
    if rank >= world {
        return Err(WorldError::Protocol(format!(
            "rank {rank} outside the {pp}x{} world",
            cfg.dp
        )));
    }

    // Mesh the world: workers + the coordinator as rank `world`.
    let transport = Arc::new(tcp_rendezvous(&rdv_dir, world + 1, rank, RDV_TIMEOUT)?);
    let store: Arc<dyn ShardStore> = Arc::new(TcpShardStore::connect(store_addr));
    let store: StoreSlot = Arc::new(parking_lot::Mutex::new(Some(store)));

    let stage = opt_model::Stage::build_pipeline(&cfg.model, pp, cfg.seed)
        .into_iter()
        .nth(rank % pp)
        .expect("stage exists");
    run_worker(WorkerCtx::new(&cfg, rank, stage, transport, store, trace));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hex_roundtrips() {
        let bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(from_hex(&to_hex(&bytes)).unwrap(), bytes);
        assert!(from_hex("abc").is_none());
        assert!(from_hex("zz").is_none());
    }
}
