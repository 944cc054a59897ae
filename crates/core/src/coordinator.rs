//! The coordinator: drives a world of workers over the control plane.
//!
//! One implementation serves both launchers. [`crate::Trainer`] spawns
//! worker *threads* over a `LocalTransport`, [`crate::ProcTrainer`]
//! spawns `opt-worker` *processes* over a `TcpTransport`; either way the
//! coordinator is the extra rank `pp * dp` of that transport and speaks
//! the typed messages of [`crate::control`]. What the two worlds do —
//! command schedule, aggregation, checkpoint commit order — is therefore
//! the same code, and Local ≡ TCP holds by construction.
//!
//! Every wait is bounded and every failure is a typed [`WorldError`]: a
//! reply is awaited in slices, and between slices the launcher's handle
//! on the awaited worker ([`WorkerHandle`]) is asked whether it is still
//! alive, so a dead worker surfaces by rank within a moment instead of
//! hanging the world.

use crate::config::TrainerConfig;
use crate::control::{
    store_err, MetricsMsg, Outcome, WireCmd, WorkerAck, CH_ACK, CH_CMD, CH_METRICS, CH_PREDICT,
    CH_RESTORE, CH_SECTION, CH_SHARD, CH_TRACE, CTRL_SLICE, CTRL_TIMEOUT,
};
use crate::proc::WorldError;
use crate::stats::{RawSamples, TrainReport};
use crate::MemoryReport;
use opt_ckpt::{CkptError, ShardEntry, ShardManifest, Snapshot, SnapshotMeta, MANIFEST_FILE};
use opt_net::{ShardStore, SharedPayload, TrafficBreakdown, Transport, TransportError};
use opt_tensor::Persist;
use opt_trace::{TraceBuffer, TraceMode};
use std::collections::HashSet;
use std::sync::Arc;
use std::time::Instant;

/// What the coordinator needs from a launched worker, thread or process.
pub(crate) trait WorkerHandle {
    /// Whether the worker has terminated. It can then never answer.
    fn exited(&mut self) -> bool;
}

impl WorkerHandle for std::thread::JoinHandle<()> {
    fn exited(&mut self) -> bool {
        self.is_finished()
    }
}

/// Resolves the store's manifest and validates it against `cfg` — the
/// only checkpoint state a coordinator ever reads, and the rendezvous
/// step of a worker's self-restore.
pub(crate) fn resolve_manifest(
    cfg: &TrainerConfig,
    store: &dyn ShardStore,
) -> Result<ShardManifest, CkptError> {
    let manifest = ShardManifest::decode(&store.get(MANIFEST_FILE).map_err(store_err)?)?;
    check_meta(cfg, &manifest.meta)?;
    // World completeness was already enforced by ShardManifest::decode.
    Ok(manifest)
}

/// Refuses a checkpoint taken under a different world shape or config.
fn check_meta(cfg: &TrainerConfig, meta: &SnapshotMeta) -> Result<(), CkptError> {
    if (meta.pp, meta.dp) != (cfg.pp, cfg.dp) {
        return Err(CkptError::WorldMismatch {
            snapshot: (meta.pp, meta.dp),
            config: (cfg.pp, cfg.dp),
        });
    }
    let fingerprint = cfg.fingerprint();
    if meta.config_fingerprint != fingerprint {
        return Err(CkptError::ConfigMismatch {
            snapshot: meta.config_fingerprint,
            config: fingerprint,
        });
    }
    Ok(())
}

/// The driver of a `pp x dp` world: `workers[d * pp + s]` runs stage `s`
/// of dp rank `d`, reachable as that rank on `transport`.
pub(crate) struct Coordinator<Tr: Transport, W: WorkerHandle> {
    pub cfg: TrainerConfig,
    pub transport: Arc<Tr>,
    pub workers: Vec<W>,
    pub trace: TraceMode,
    /// Iterations completed so far (includes iterations inherited from a
    /// restored checkpoint).
    pub trained_iters: u64,
    next_id: u64,
}

impl<Tr: Transport, W: WorkerHandle> Coordinator<Tr, W> {
    pub fn new(cfg: TrainerConfig, transport: Arc<Tr>, workers: Vec<W>, trace: TraceMode) -> Self {
        Coordinator {
            cfg,
            transport,
            workers,
            trace,
            trained_iters: 0,
            next_id: 0,
        }
    }

    /// Number of workers — and the coordinator's own rank.
    pub fn world(&self) -> usize {
        self.cfg.pp * self.cfg.dp
    }

    fn meta(&self) -> SnapshotMeta {
        SnapshotMeta {
            pp: self.cfg.pp,
            dp: self.cfg.dp,
            seed: self.cfg.seed,
            iter: self.trained_iters,
            config_fingerprint: self.cfg.fingerprint(),
        }
    }

    /// A request id no earlier request has used; replies echo it.
    fn fresh_id(&mut self) -> u64 {
        self.next_id += 1;
        self.next_id
    }

    /// Sends `cmd` to every worker.
    pub fn broadcast(&self, cmd: WireCmd) -> Result<(), WorldError> {
        // One shared payload for the whole fan-out: a byte-boundary
        // transport encodes the command once, not once per rank.
        let payload = SharedPayload::new(cmd);
        for rank in 0..self.world() {
            self.transport
                .send_shared(self.world(), rank, CH_CMD, &payload)?;
        }
        Ok(())
    }

    /// Receives `rank`'s reply to request `id` on `channel`, skipping
    /// stale replies to abandoned requests (FIFO per lane makes this
    /// loss-free).
    fn recv_matching<T>(&mut self, rank: usize, channel: u64, id: u64) -> Result<T, WorldError>
    where
        T: Persist + Clone + Send + Sync + 'static,
    {
        let coord = self.world();
        let deadline = Instant::now() + CTRL_TIMEOUT;
        loop {
            match self
                .transport
                .recv_value::<(u64, T)>(rank, coord, channel, CTRL_SLICE)
            {
                Ok((got, body)) if got == id => return Ok(body),
                Ok((got, _)) if got < id => {}
                Ok((got, _)) => {
                    return Err(WorldError::Protocol(format!(
                        "rank {rank} answered request {got} while {id} was pending"
                    )))
                }
                Err(TransportError::Timeout { .. }) if Instant::now() < deadline => {
                    if self.workers[rank].exited() {
                        return Err(TransportError::Disconnected { peer: rank }.into());
                    }
                }
                Err(TransportError::Decode { detail, .. }) => {
                    return Err(WorldError::Protocol(format!(
                        "malformed control message from rank {rank}: {detail}"
                    )))
                }
                Err(e) => return Err(e.into()),
            }
        }
    }

    /// One request/reply round under a fresh request id: sends
    /// `cmd(id)` to every worker, then collects each one's reply on
    /// `channel`, in rank order.
    fn request<T>(
        &mut self,
        cmd: impl FnOnce(u64) -> WireCmd,
        channel: u64,
    ) -> Result<Vec<T>, WorldError>
    where
        T: Persist + Clone + Send + Sync + 'static,
    {
        let id = self.fresh_id();
        self.broadcast(cmd(id))?;
        (0..self.world())
            .map(|rank| self.recv_matching(rank, channel, id))
            .collect()
    }

    /// Waits until every worker has retired everything sent so far.
    pub fn barrier(&mut self) -> Result<Vec<WorkerAck>, WorldError> {
        self.request(|id| WireCmd::Barrier { id }, CH_ACK)
    }

    /// Runs training up to the configured iteration count with periodic
    /// validation, returning the aggregated report.
    pub fn train(&mut self) -> Result<TrainReport, WorldError> {
        let iters = self.cfg.iters;
        let validate = |iter, index| WireCmd::Validate {
            iter,
            index,
            n_seq: self.cfg.val_sequences,
        };
        for iter in self.trained_iters..iters {
            self.broadcast(WireCmd::TrainIter { iter })?;
            if self.cfg.validate_every > 0 && (iter + 1) % self.cfg.validate_every == 0 {
                self.broadcast(validate(iter, iter))?;
            }
        }
        // Final validation at the last iteration tag.
        self.broadcast(validate(iters.saturating_sub(1), iters))?;
        self.trained_iters = iters.max(self.trained_iters);
        self.report()
    }

    /// Runs `extra` more training iterations, leaving the world quiesced.
    pub fn train_more(&mut self, extra: u64) -> Result<(), WorldError> {
        for iter in self.trained_iters..self.trained_iters + extra {
            self.broadcast(WireCmd::TrainIter { iter })?;
        }
        self.trained_iters += extra;
        self.barrier().map(drop)
    }

    /// Quiesces the workers and merges what each one recorded: samples
    /// into one set (sorted per iteration before the floating-point mean
    /// is taken), ledgers by exact integer sums, and each rank's half of
    /// every lane back into whole lanes — so the result does not depend
    /// on how the ranks were deployed.
    fn gather_metrics(&mut self) -> Result<(RawSamples, TrafficBreakdown), WorldError> {
        let replies: Vec<MetricsMsg> =
            self.request(|id| WireCmd::FetchMetrics { id }, CH_METRICS)?;
        let mut samples = RawSamples::default();
        let mut traffic = TrafficBreakdown::default();
        for msg in replies {
            samples.absorb(msg.raw);
            traffic.absorb(&TrafficBreakdown::new(msg.traffic, msg.channels));
        }
        Ok((samples, traffic))
    }

    /// Quiesces the workers and aggregates the metrics recorded so far.
    pub fn report(&mut self) -> Result<TrainReport, WorldError> {
        let (samples, traffic) = self.gather_metrics()?;
        Ok(samples.into_report(self.trained_iters, traffic))
    }

    /// Quiesces the workers and returns the traffic counters so far.
    pub fn traffic(&mut self) -> Result<TrafficBreakdown, WorldError> {
        Ok(self.gather_metrics()?.1)
    }

    /// Drains every worker's trace buffer, ordered by rank; `None` when
    /// the world was launched with tracing off.
    pub fn take_trace(&mut self) -> Result<Option<Vec<TraceBuffer>>, WorldError> {
        if !self.trace.enabled() {
            return Ok(None);
        }
        self.request(|id| WireCmd::FetchTrace { id }, CH_TRACE)
            .map(Some)
    }

    /// Memory accounting across workers (Fig. 12).
    pub fn memory_report(&mut self) -> Result<MemoryReport, WorldError> {
        let acks = self.barrier()?;
        Ok(crate::memory::memory_report(&self.cfg, &acks))
    }

    /// Captures a complete training snapshot: every worker serializes its
    /// state once everything sent before has retired.
    pub fn snapshot(&mut self) -> Result<Snapshot, WorldError> {
        Ok(Snapshot {
            ranks: self.request(|id| WireCmd::Snapshot { id }, CH_SECTION)?,
            meta: self.meta(),
        })
    }

    /// The one restore: has every worker rendezvous on its shard store's
    /// manifest, fetch only its own shard, validate, and apply it. The
    /// coordinator has read nothing but the manifest, whose iteration is
    /// `want_iter`, and requires every rank to have landed on it.
    pub fn self_restore(&mut self, want_iter: u64) -> Result<(), WorldError> {
        let outcomes: Vec<Outcome<u64>> =
            self.request(|id| WireCmd::SelfRestore { id }, CH_RESTORE)?;
        let mut first_err = None;
        for (rank, outcome) in outcomes.into_iter().enumerate() {
            match outcome.into_result() {
                Ok(iter) if iter == want_iter => {}
                // The store changed between the coordinator's manifest
                // read and the worker's — a racing writer.
                Ok(_) => {
                    first_err = first_err.or(Some(CkptError::ShardMismatch {
                        stage: rank % self.cfg.pp,
                        dp: rank / self.cfg.pp,
                        what: "restored shard is from a different checkpoint than the manifest",
                    }))
                }
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        match first_err {
            Some(e) => Err(e.into()),
            None => {
                self.trained_iters = want_iter;
                Ok(())
            }
        }
    }

    /// Captures a sharded checkpoint: every worker publishes its own
    /// shard to its store, then the coordinator writes the manifest to
    /// `store` **last** — so a manifest always names shards that are
    /// fully published, and a crash mid-save leaves the previous
    /// checkpoint restorable. Shards the new manifest no longer
    /// references are garbage-collected after the commit.
    pub fn save_sharded(&mut self, store: &dyn ShardStore) -> Result<ShardManifest, WorldError> {
        let iter = self.trained_iters;
        let replies: Vec<Outcome<ShardEntry>> =
            self.request(|id| WireCmd::PublishShard { id, iter }, CH_SHARD)?;
        // Replies come in rank order, which is the manifest's shard order;
        // the first failure, if any, is the one reported.
        let shards: Result<Vec<ShardEntry>, CkptError> =
            replies.into_iter().map(Outcome::into_result).collect();
        let manifest = ShardManifest {
            meta: self.meta(),
            shards: shards?,
        };
        store
            .put(MANIFEST_FILE, &manifest.encode())
            .map_err(store_err)?;
        // The new manifest is committed; stale shards from earlier
        // checkpoints can go. Best effort only — failures here cannot
        // invalidate the checkpoint that was just published.
        let live: HashSet<&str> = manifest.shards.iter().map(|e| e.name.as_str()).collect();
        for name in store.list().unwrap_or_default() {
            if name.ends_with(".shard") && !live.contains(name.as_str()) {
                let _ = store.delete(&name);
            }
        }
        Ok(manifest)
    }

    /// Last-position argmax per `seq_len` chunk of `tokens`, computed by
    /// dp rank 0's pipeline (its last stage answers).
    pub fn predict(&mut self, tokens: &[usize]) -> Result<Vec<usize>, WorldError> {
        let id = self.fresh_id();
        let tokens = tokens.to_vec();
        self.broadcast(WireCmd::Predict { id, tokens })?;
        self.recv_matching(self.cfg.pp - 1, CH_PREDICT, id)
    }
}
