//! The thread launcher: spawns one worker thread per `(stage, dp)` rank
//! over a `LocalTransport` and drives them through the shared
//! coordinator.

use crate::config::TrainerConfig;
use crate::control::{StoreSlot, WireCmd};
use crate::coordinator::{resolve_manifest, Coordinator};
use crate::proc::WorldError;
use crate::stats::TrainReport;
use crate::worker::{run_worker, WorkerCtx};
use crate::MemoryReport;
use opt_ckpt::{CkptError, ShardManifest, Snapshot};
use opt_data::{TaskScore, ZeroShotTask};
use opt_model::Stage;
use opt_net::{LocalTransport, ShardStore, TrafficBreakdown};
use opt_trace::{Trace, TraceMode};
use std::sync::Arc;
use std::thread::JoinHandle;

/// The in-process API is infallible: once the coordinator reports that
/// the world is broken (a worker thread died, a reply never came), there
/// is nothing left to drive, and the typed error becomes the panic
/// message.
fn live<T>(result: Result<T, WorldError>) -> T {
    result.unwrap_or_else(|e| panic!("in-process world failed: {e}"))
}

/// Checkpoint failures are the caller's to handle; anything else means
/// the world is broken ([`live`]).
fn ckpt<T>(result: Result<T, WorldError>) -> Result<T, CkptError> {
    match result {
        Err(WorldError::Ckpt(e)) => Err(e),
        other => Ok(live(other)),
    }
}

/// A running 3D-parallel training job: `pp x dp` worker threads, each
/// owning one model slice.
///
/// Workers are driven by typed commands over the world's transport;
/// [`Trainer::train`] runs the configured number of iterations with
/// periodic validation, [`Trainer::predict`] and [`Trainer::zero_shot`]
/// evaluate the frozen model, and [`Trainer::shutdown`] joins all
/// threads (dropping the trainer stops them too).
///
/// # Panics
///
/// A worker thread that dies takes the job with it: the next call that
/// waits on it panics, naming the rank, instead of blocking.
pub struct Trainer {
    pub(crate) coord: Coordinator<LocalTransport, JoinHandle<()>>,
    /// The shard store of the sharded save/restore call in flight, shared
    /// with every worker.
    store: StoreSlot,
}

impl std::fmt::Debug for Trainer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Trainer(pp={}, dp={}, workers={})",
            self.coord.cfg.pp,
            self.coord.cfg.dp,
            self.coord.workers.len()
        )
    }
}

impl Trainer {
    /// Builds all model slices and spawns the worker threads.
    ///
    /// # Panics
    ///
    /// Panics if `pp` or `dp` is zero, or `pp > model.n_layers`.
    pub fn launch(cfg: TrainerConfig) -> Trainer {
        Self::launch_with_trace(cfg, TraceMode::from_env())
    }

    /// [`Trainer::launch`] with an explicit trace mode instead of the
    /// `OPT_TRACE` environment variable. With [`TraceMode::Spans`] every
    /// worker thread records a span tree that
    /// [`Trainer::take_trace`] later drains; with [`TraceMode::Off`] the
    /// run is byte-identical to an uninstrumented one.
    pub fn launch_with_trace(cfg: TrainerConfig, trace: TraceMode) -> Trainer {
        assert!(cfg.pp > 0 && cfg.dp > 0, "pp and dp must be positive");
        let pp = cfg.pp;
        let world = pp * cfg.dp;
        // One transport for meshes, collectives and the control plane, on
        // the same channel ids the multi-process world uses; like there,
        // the coordinator is the extra rank `world`.
        let transport = Arc::new(LocalTransport::new(world + 1));
        let store = StoreSlot::default();
        let mut workers = Vec::with_capacity(world);
        for d in 0..cfg.dp {
            // Every dp rank builds the identical pipeline (same seed).
            let stages = Stage::build_pipeline(&cfg.model, pp, cfg.seed);
            for (s, stage) in stages.into_iter().enumerate() {
                let (transport, store) = (Arc::clone(&transport), Arc::clone(&store));
                let ctx = WorkerCtx::new(&cfg, d * pp + s, stage, transport, store, trace);
                workers.push(
                    std::thread::Builder::new()
                        .name(format!("worker-s{s}-d{d}"))
                        .spawn(move || run_worker(ctx))
                        .expect("spawn worker"),
                );
            }
        }
        Trainer {
            coord: Coordinator::new(cfg, transport, workers, trace),
            store,
        }
    }

    /// The configuration of this run.
    pub fn config(&self) -> &TrainerConfig {
        &self.coord.cfg
    }

    /// The multi-process launch mode: instead of worker *threads* over
    /// the in-process transport, spawns one real `opt-worker` OS process
    /// per `(stage, dp)` rank, meshed over loopback TCP, with checkpoint
    /// shards served through a TCP shard store. The returned
    /// [`crate::ProcTrainer`] drives its world through the same
    /// coordinator and the same typed messages as this trainer — and
    /// produces bit-identical losses and traffic, by the member-order
    /// determinism contract of the transport layer.
    ///
    /// It also recovers the way this trainer does: a world that loses a
    /// rank is relaunched whole, and every new worker self-restores its
    /// shard ([`crate::ProcTrainer::self_restore_all`]).
    pub fn launch_processes(
        cfg: TrainerConfig,
        opts: crate::ProcOptions,
    ) -> Result<crate::ProcTrainer, WorldError> {
        Self::launch_processes_traced(cfg, opts, TraceMode::from_env())
    }

    /// [`Trainer::launch_processes`] with an explicit trace mode: the
    /// coordinator propagates it to every worker process, whose span
    /// buffers [`crate::ProcTrainer::take_trace`] later ships back over
    /// the control plane.
    pub fn launch_processes_traced(
        cfg: TrainerConfig,
        opts: crate::ProcOptions,
        trace: TraceMode,
    ) -> Result<crate::ProcTrainer, WorldError> {
        crate::ProcTrainer::launch(cfg, opts, trace)
    }

    /// Runs training up to the configured iteration count with periodic
    /// validation, returning the aggregated report. A freshly launched
    /// trainer starts at iteration 0; a [`Trainer::restore_sharded`] one
    /// resumes where its checkpoint left off.
    pub fn train(&mut self) -> TrainReport {
        live(self.coord.train())
    }

    /// Runs extra training iterations beyond `cfg.iters` (used by
    /// long-horizon experiments that checkpoint metrics between phases).
    pub fn train_more(&mut self, extra: u64) {
        live(self.coord.train_more(extra))
    }

    /// Iterations completed so far (includes iterations inherited from a
    /// restored checkpoint).
    pub fn trained_iters(&self) -> u64 {
        self.coord.trained_iters
    }

    /// Quiesces the workers and returns the traffic counters so far:
    /// per-class totals plus the per-(src, dst, channel) breakdown the
    /// transport measured.
    pub fn traffic(&mut self) -> TrafficBreakdown {
        live(self.coord.traffic())
    }

    /// Quiesces the workers and aggregates the metrics recorded so far
    /// into a report (iterations executed before a restore belong to the
    /// killed trainer and appear as `NaN` entries here).
    pub fn report(&mut self) -> TrainReport {
        live(self.coord.report())
    }

    /// Drains every worker's trace buffer into one merged [`Trace`]
    /// (buffers ordered by rank, spans by sequence number). Returns `None`
    /// when the trainer was launched with tracing off. Repeated calls
    /// return disjoint traces: each drain covers the spans recorded since
    /// the previous one.
    pub fn take_trace(&mut self) -> Option<Trace> {
        live(self.coord.take_trace()).map(Trace::merge)
    }

    /// Gathers every worker's parameters, optimizer moments, and
    /// compression state into one in-memory [`Snapshot`], behind barrier
    /// semantics (commands are ordered per worker, and the collection
    /// blocks until all `pp * dp` sections arrive). A snapshot is a value
    /// to inspect or compare; a checkpoint that can be restored is
    /// [`Trainer::save_sharded`].
    pub fn snapshot(&mut self) -> Snapshot {
        live(self.coord.snapshot())
    }

    /// Captures a sharded checkpoint directly into a [`ShardStore`]: every
    /// worker serializes its own state into a per-rank shard and publishes
    /// it under its well-known name (behind the same barrier semantics as
    /// [`Trainer::snapshot`]), then the trainer writes the manifest last —
    /// so a manifest in the store always names shards that are fully
    /// published.
    ///
    /// Shard names carry the checkpoint iteration, so repeated saves into
    /// the same store never overwrite the previous checkpoint's blobs: a
    /// crash or failed publish mid-save leaves the old manifest and every
    /// shard it names intact and restorable. Once the new manifest
    /// commits, shards it no longer references are garbage-collected
    /// (best effort — a leftover blob is harmless, the manifest is
    /// authoritative).
    ///
    /// The coordinator never holds the world's state: it only collects the
    /// per-rank digests (name, size, checksum) it needs to assemble the
    /// manifest.
    pub fn save_sharded(
        &mut self,
        store: &Arc<dyn ShardStore>,
    ) -> Result<ShardManifest, CkptError> {
        *self.store.lock() = Some(Arc::clone(store));
        ckpt(self.coord.save_sharded(store.as_ref()))
    }

    /// Relaunches a training job from a sharded checkpoint — the
    /// cross-host elastic-restore path. Fresh workers are spawned under
    /// `cfg`, then **every worker independently** rendezvouses on the
    /// store's manifest, fetches only its own shard, validates it
    /// (checksum, config fingerprint, rank identity, iteration), and
    /// applies it. The coordinator reads only the manifest; at no point
    /// does any single process hold the whole world's state.
    ///
    /// By the bit-exact-resume guarantee the resumed run reproduces
    /// exactly the losses and wire traffic the uninterrupted run would
    /// have produced — even if the restored incarnation runs with a
    /// different kernel thread count.
    ///
    /// Fails without spawning anything if the manifest is missing or its
    /// world shape or config fingerprint does not match `cfg`; a shard
    /// that fails validation or has the wrong parameter shapes is refused
    /// by the worker it was meant for, and the half-restored world is
    /// stopped.
    pub fn restore_sharded(
        cfg: TrainerConfig,
        store: &Arc<dyn ShardStore>,
    ) -> Result<Trainer, CkptError> {
        // A missing or foreign manifest is refused before anything spawns.
        let iter = resolve_manifest(&cfg, store.as_ref())?.meta.iter;
        let mut trainer = Trainer::launch(cfg);
        *trainer.store.lock() = Some(Arc::clone(store));
        ckpt(trainer.coord.self_restore(iter))?;
        Ok(trainer)
    }

    /// Sends `Stop` and joins every worker thread; `false` if any of them
    /// had panicked.
    fn stop(&mut self) -> bool {
        // Over `LocalTransport` a send cannot fail.
        let _ = self.coord.broadcast(WireCmd::Stop);
        let mut all_ok = true;
        for worker in self.coord.workers.drain(..) {
            all_ok &= worker.join().is_ok();
        }
        all_ok
    }

    /// Tears the job down the way a worker failure does: no handshake in
    /// which state could be flushed — the workers are quiesced (so that
    /// none is left waiting on a peer), stopped and joined. Call at an
    /// iteration boundary (all `train*` methods leave the job quiesced).
    pub fn kill(mut self) {
        live(self.coord.barrier());
        assert!(self.stop(), "worker panicked");
    }

    /// Predicts the next token at the final position of each sequence in
    /// `tokens` (grouped in `seq_len` chunks), using dp rank 0's pipeline.
    ///
    /// # Panics
    ///
    /// Panics if `tokens.len()` is not a multiple of the sequence length,
    /// or if any token id lies outside the model's vocabulary.
    pub fn predict(&mut self, tokens: &[usize]) -> Vec<usize> {
        let model = &self.coord.cfg.model;
        assert!(
            tokens.len().is_multiple_of(model.seq_len),
            "token count must be a multiple of seq_len"
        );
        assert!(
            tokens.iter().all(|&t| t < model.vocab),
            "token id outside the vocabulary of {}",
            model.vocab
        );
        live(self.coord.predict(tokens))
    }

    /// Evaluates a zero-shot probe on the frozen model (Table 3 protocol):
    /// `n` generated examples, accuracy of last-position argmax.
    pub fn zero_shot(&mut self, task: ZeroShotTask, n: usize, seed: u64) -> TaskScore {
        let corpus = self.coord.cfg.corpus();
        let examples = task.generate(&corpus, n, seed);
        let mut correct = 0;
        // Batch examples to amortize pipeline latency.
        let batch = 16usize;
        for chunk in examples.chunks(batch) {
            let mut tokens = Vec::with_capacity(chunk.len() * self.coord.cfg.model.seq_len);
            for ex in chunk {
                tokens.extend_from_slice(&ex.context);
            }
            let preds = self.predict(&tokens);
            for (p, ex) in preds.iter().zip(chunk) {
                if *p == ex.answer {
                    correct += 1;
                }
            }
        }
        TaskScore { correct, total: n }
    }

    /// Evaluates all five zero-shot probes (Table 3 row order).
    pub fn zero_shot_suite(&mut self, n: usize, seed: u64) -> Vec<(ZeroShotTask, TaskScore)> {
        ZeroShotTask::ALL
            .into_iter()
            .map(|t| (t, self.zero_shot(t, n, seed)))
            .collect()
    }

    /// Memory accounting across workers (Fig. 12).
    pub fn memory_report(&mut self) -> MemoryReport {
        live(self.coord.memory_report())
    }

    /// Stops and joins every worker thread.
    pub fn shutdown(mut self) {
        assert!(self.stop(), "worker panicked");
    }
}

/// Dropping a trainer without [`Trainer::shutdown`] still stops its
/// workers: the command lanes of a `LocalTransport` never close on their
/// own, so nothing else would end the worker loops.
impl Drop for Trainer {
    fn drop(&mut self) {
        if !self.coord.workers.is_empty() {
            self.stop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::control::CH_CMD;
    use crate::QualityConfig;
    use opt_ckpt::{Shard, ShardEntry, MANIFEST_FILE};
    use opt_net::{MemShardStore, Transport, TransportError};

    #[test]
    fn rejected_section_is_a_typed_error_and_a_dead_worker_is_named() {
        let mut t = Trainer::launch(TrainerConfig::tiny_test(QualityConfig::cb(), 2));
        t.train_more(1);
        // A shard whose manifest, checksum and header are all in order but
        // whose tensors are not this stage's: only the worker it is meant
        // for can tell, and it refuses the section before touching state.
        let store: Arc<dyn ShardStore> = Arc::new(MemShardStore::new());
        let mut manifest = t.save_sharded(&store).unwrap();
        let entry = manifest
            .shards
            .iter_mut()
            .find(|e| (e.stage, e.dp) == (1, 0))
            .unwrap();
        let mut shard = Shard::decode(&store.get(&entry.name).unwrap()).unwrap();
        shard.section.params[0] = opt_tensor::Matrix::zeros(1, 1);
        let blob = shard.encode();
        store.put(&entry.name, &blob).unwrap();
        *entry = ShardEntry::for_blob(1, 0, entry.name.clone(), &blob);
        store.put(MANIFEST_FILE, &manifest.encode()).unwrap();
        let Err(err) = Trainer::restore_sharded(t.coord.cfg.clone(), &store) else {
            panic!("wrong shapes applied");
        };
        assert!(matches!(err, CkptError::Decode(_)), "{err}");
        t.coord.barrier().expect("the world outlives a refusal");

        // Something that is not a command ends the worker that reads it;
        // the next wait on that rank fails by name instead of blocking.
        let world = t.coord.world();
        t.coord
            .transport
            .send_value(world, 2, CH_CMD, 0u64)
            .unwrap();
        let err = t.coord.barrier().expect_err("barrier over a dead worker");
        assert!(
            matches!(
                err,
                WorldError::Transport(TransportError::Disconnected { peer: 2 })
            ),
            "{err}"
        );
        assert!(err.to_string().contains("rank 2"), "{err}");
    }

    #[test]
    fn dropping_a_trainer_stops_its_workers() {
        let t = Trainer::launch(TrainerConfig::tiny_test(QualityConfig::baseline(), 1));
        let transport = Arc::downgrade(&t.coord.transport);
        drop(t);
        // Every worker held the transport; each let go when its loop ended.
        assert_eq!(transport.strong_count(), 0);
    }
}
