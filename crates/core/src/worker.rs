//! The per-(stage, dp-rank) worker: one loop, run by a thread of an
//! in-process world or by an `opt-worker` OS process.

use crate::config::TrainerConfig;
use crate::control::{
    store_err, MetricsMsg, Outcome, StoreSlot, WireCmd, WorkerAck, CH_ACK, CH_BWD, CH_CMD, CH_FWD,
    CH_METRICS, CH_PREDICT, CH_RESTORE, CH_SECTION, CH_SHARD, CH_TRACE, CTRL_TIMEOUT,
};
use crate::coordinator::resolve_manifest;
use crate::dp_compress::{all_reduce_recorded, DistPowerSgd};
use crate::stats::{ErrorStatPoint, RawSamples};
use opt_ckpt::{shard_file_name, CkptError, RankSection, Shard, ShardEntry};
use opt_compress::{Compressed, LazyErrorPropagator, PowerSgd, TopK, FP16_BYTES};
use opt_data::SyntheticCorpus;
use opt_model::{cross_entropy, Adam, Optimizer, Stage};
use opt_net::{
    ChannelStat, CollectiveGroup, CollectiveWorld, P2pMesh, ShardStore, TrafficClass,
    TrafficLedger, Transport, TransportError,
};
use opt_schedule::{is_epilogue_send, one_f_one_b, CbMethod, Op};
use opt_tensor::{cosine_similarity, Matrix, Persist, PersistError, Reader, Writer};
use opt_trace::{SpanKind, TraceMode, NO_MICRO};
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

/// Everything a worker needs, bundled at spawn time. Generic over the
/// [`Transport`] carrying its communication: a thread of a single-process
/// world runs over `LocalTransport`, an `opt-worker` OS process over
/// `TcpTransport` — the worker logic is identical, which is what makes
/// the two worlds bit-identical.
pub(crate) struct WorkerCtx<Tr: Transport> {
    pub cfg: TrainerConfig,
    pub stage_idx: usize,
    pub dp_idx: usize,
    pub stage: Stage,
    pub corpus: SyntheticCorpus,
    pub fwd_mesh: P2pMesh<Matrix, Tr>,
    pub bwd_mesh: P2pMesh<Compressed, Tr>,
    /// DP group over all dp ranks of this stage.
    pub stage_group: CollectiveGroup<Tr>,
    /// 2-way first<->last group of this dp rank (baseline EMB sync).
    pub emb_pair_group: Option<CollectiveGroup<Tr>>,
    /// Fused 2D-way group over all end-stage ranks.
    pub fused_group: Option<CollectiveGroup<Tr>>,
    /// The world's transport: commands arrive and replies leave on its
    /// control lanes, with the coordinator as rank `pp * dp`.
    pub transport: Arc<Tr>,
    /// Where `PublishShard` / `SelfRestore` find the shard store.
    pub store: StoreSlot,
    /// What this worker has recorded so far.
    pub samples: RawSamples,
    pub ledger: TrafficLedger,
    /// Trace mode this worker installs on its own thread at startup.
    pub trace: TraceMode,
}

impl<Tr: Transport> WorkerCtx<Tr> {
    /// Builds global rank `rank`'s context over `transport`. Both
    /// launchers construct their workers here, so every member of a world
    /// — thread or process — carves its collective groups the same way.
    pub(crate) fn new(
        cfg: &TrainerConfig,
        rank: usize,
        stage: Stage,
        transport: Arc<Tr>,
        store: StoreSlot,
        trace: TraceMode,
    ) -> Self {
        let pp = cfg.pp;
        let (stage_idx, dp_idx) = (rank % pp, rank / pp);
        // Every group of the world is created, **in a fixed order** —
        // one DP group per stage, then per dp rank the 2-way first<->last
        // embedding pair, then the fused 2D-way group over all end-stage
        // ranks (the last two on `pp > 1` only) — and this rank keeps the
        // ones it is a member of. Creation order determines collective
        // channel ids, so it must be the same on every member of a world.
        let dp = cfg.dp;
        let world = CollectiveWorld::over(Arc::clone(&transport));
        let mut stage_groups: Vec<_> = (0..pp)
            .map(|s| world.group(&(0..dp).map(|d| d * pp + s).collect::<Vec<_>>()))
            .collect();
        let mut end_groups = None;
        if pp > 1 {
            let mut pairs: Vec<_> = (0..dp)
                .map(|d| world.group(&[d * pp, d * pp + pp - 1]))
                .collect();
            let mut ends: Vec<usize> = (0..dp).map(|d| d * pp).collect();
            ends.extend((0..dp).map(|d| d * pp + pp - 1));
            ends.sort_unstable();
            let fused = world.group(&ends);
            if stage_idx == 0 || stage_idx == pp - 1 {
                end_groups = Some((pairs.swap_remove(dp_idx), fused));
            }
        }
        let (emb_pair_group, fused_group) = end_groups.unzip();
        WorkerCtx {
            cfg: cfg.clone(),
            stage_idx,
            dp_idx,
            stage,
            corpus: cfg.corpus(),
            fwd_mesh: P2pMesh::over(Arc::clone(&transport), CH_FWD),
            bwd_mesh: P2pMesh::over(Arc::clone(&transport), CH_BWD),
            stage_group: stage_groups.swap_remove(stage_idx),
            emb_pair_group,
            fused_group,
            transport,
            store,
            samples: RawSamples::default(),
            ledger: TrafficLedger::new(),
            trace,
        }
    }

    /// This worker's global rank.
    fn rank(&self) -> usize {
        self.dp_idx * self.cfg.pp + self.stage_idx
    }

    /// The coordinator's rank: the one past the workers'.
    fn coord(&self) -> usize {
        self.cfg.pp * self.cfg.dp
    }

    /// Answers request `id` on `channel`. A coordinator that has gone away
    /// is noticed by the next command receive, not here.
    fn reply<T: Persist + Send + Sync + 'static>(&self, channel: u64, id: u64, body: T) {
        let _ = self
            .transport
            .send_value(self.rank(), self.coord(), channel, (id, body));
    }
}

/// The inter-stage compressor variant for compressed backpropagation.
enum CbLink {
    LowRank(LazyErrorPropagator<PowerSgd>),
    TopK(LazyErrorPropagator<TopK>),
}

impl CbLink {
    fn process(&mut self, grad: &Matrix, compress: bool) -> Compressed {
        match self {
            CbLink::LowRank(l) => l.process(grad, compress).0,
            CbLink::TopK(l) => l.process(grad, compress).0,
        }
    }

    fn error(&self) -> Option<&Matrix> {
        match self {
            CbLink::LowRank(l) => l.error(),
            CbLink::TopK(l) => l.error(),
        }
    }

    fn error_elems(&self) -> usize {
        match self {
            CbLink::LowRank(l) => l.error_elems(),
            CbLink::TopK(l) => l.error_elems(),
        }
    }

    fn warm_start_elems(&self) -> usize {
        match self {
            CbLink::LowRank(l) => l.inner().warm_start_elems(),
            CbLink::TopK(_) => 0,
        }
    }
}

/// Encodes the optional inter-stage link state for a snapshot section.
fn encode_cb_link(link: &Option<CbLink>) -> Vec<u8> {
    let mut w = Writer::new();
    match link {
        None => w.u8(0),
        Some(CbLink::LowRank(l)) => {
            w.u8(1);
            l.persist(&mut w);
        }
        Some(CbLink::TopK(l)) => {
            w.u8(2);
            l.persist(&mut w);
        }
    }
    w.into_bytes()
}

/// Decodes an [`encode_cb_link`] blob.
fn decode_cb_link(bytes: &[u8]) -> Result<Option<CbLink>, PersistError> {
    let mut r = Reader::new(bytes);
    let link = match r.u8()? {
        0 => None,
        1 => Some(CbLink::LowRank(LazyErrorPropagator::restore(&mut r)?)),
        2 => Some(CbLink::TopK(LazyErrorPropagator::restore(&mut r)?)),
        tag => {
            return Err(PersistError::BadTag {
                what: "CbLink",
                tag,
            })
        }
    };
    r.finish()?;
    Ok(link)
}

/// Runs the worker loop until [`WireCmd::Stop`] — or until the command
/// lane fails: a coordinator that is gone, or one that sent something
/// which is not a command, ends the worker the same way.
pub(crate) fn run_worker<Tr: Transport + Send + Sync + 'static>(mut ctx: WorkerCtx<Tr>) {
    opt_trace::install(ctx.trace);
    let pp = ctx.cfg.pp;
    let s = ctx.stage_idx;
    let d = ctx.dp_idx;
    let my_rank = ctx.rank();
    let coord = ctx.coord();
    let schedule = one_f_one_b(pp, ctx.cfg.n_micro);

    // Inter-stage compression state for the upstream (s -> s-1) link.
    let cb_link: Option<CbLink> = if s > 0 {
        ctx.cfg.quality.cb.map(|cb| match cb.method {
            CbMethod::LowRank(rank) => CbLink::LowRank(LazyErrorPropagator::new(
                PowerSgd::new(rank, ctx.cfg.seed ^ 0xCB ^ my_rank as u64),
                cb.lazy_error,
            )),
            CbMethod::TopK(density) => {
                CbLink::TopK(LazyErrorPropagator::new(TopK::new(density), cb.lazy_error))
            }
        })
    } else {
        None
    };

    // DP compression state (selective stage / naive DP).
    let dp_compressed = s < ctx.cfg.sc_stage_count();
    let dp_state: Option<DistPowerSgd> = match (dp_compressed, ctx.cfg.dp_rank()) {
        (true, Some(rank)) => {
            let n_slots = ctx.stage.non_embedding_params().len();
            // Seed must agree across dp ranks of the same stage.
            Some(DistPowerSgd::new(
                rank,
                n_slots,
                ctx.cfg.seed ^ 0xD9 ^ s as u64,
            ))
        }
        _ => None,
    };

    let mut state = TrainState {
        optimizer: Adam::new(ctx.cfg.lr),
        cb_link,
        dp_state,
    };
    let act_dense_bytes = |m: &Matrix| -> u64 { (m.len() * FP16_BYTES) as u64 };

    loop {
        let cmd = match ctx
            .transport
            .recv_value::<WireCmd>(coord, my_rank, CH_CMD, CTRL_TIMEOUT)
        {
            Ok(cmd) => cmd,
            Err(TransportError::Timeout { .. }) => continue, // idle world
            Err(_) => return,
        };
        match cmd {
            WireCmd::TrainIter { iter } => {
                train_iter(&mut ctx, &schedule, &mut state, iter, act_dense_bytes);
            }
            WireCmd::Validate { iter, index, n_seq } => {
                if d == 0 {
                    validate(&mut ctx, iter, index, n_seq);
                }
            }
            WireCmd::Predict { id, tokens } => {
                if d == 0 {
                    predict(&mut ctx, id, &tokens);
                }
            }
            WireCmd::Barrier { id } => {
                let TrainState {
                    cb_link, dp_state, ..
                } = &state;
                let ack = WorkerAck {
                    param_elems: ctx.stage.param_count(),
                    lazy_error_elems: cb_link.as_ref().map_or(0, CbLink::error_elems),
                    compressor_elems: cb_link.as_ref().map_or(0, CbLink::warm_start_elems)
                        + dp_state.as_ref().map_or(0, DistPowerSgd::buffer_elems),
                };
                ctx.reply(CH_ACK, id, ack);
            }
            WireCmd::Snapshot { id } => {
                let section = state.capture(&mut ctx);
                ctx.reply(CH_SECTION, id, section);
            }
            WireCmd::PublishShard { id, iter } => {
                let shard = Shard {
                    iter,
                    config_fingerprint: ctx.cfg.fingerprint(),
                    section: state.capture(&mut ctx),
                };
                let name = shard_file_name(s, d, iter);
                let blob = shard.encode();
                let result = attached_store(&ctx)
                    .and_then(|store| store.put(&name, &blob).map_err(store_err))
                    .map(|()| ShardEntry::for_blob(s, d, name, &blob));
                ctx.reply(CH_SHARD, id, Outcome::from(result));
            }
            WireCmd::SelfRestore { id } => {
                let result = fetch_shard(&ctx).and_then(|shard| {
                    let iter = shard.iter;
                    state.apply(&mut ctx, shard.section).map(|()| iter)
                });
                reply_restored(&mut ctx, id, result);
            }
            WireCmd::FetchMetrics { id } => {
                let msg = MetricsMsg {
                    raw: ctx.samples.clone(),
                    traffic: ctx.ledger.snapshot(),
                    channels: own_lanes(ctx.transport.channel_stats(), my_rank as u32),
                };
                ctx.reply(CH_METRICS, id, msg);
            }
            WireCmd::FetchTrace { id } => {
                let buf = opt_trace::take_buffer(my_rank as u32, s as u32, d as u32);
                ctx.reply(CH_TRACE, id, buf);
            }
            WireCmd::Stop => return,
        }
    }
}

/// Rank `rank`'s half of every lane it touched: its sends and its
/// receives. A `TcpTransport` endpoint records exactly that already; one
/// `LocalTransport` counts for the whole world, so its peers' halves are
/// masked out here and no lane is counted twice when the coordinator adds
/// the per-rank replies back up.
fn own_lanes(stats: Vec<ChannelStat>, rank: u32) -> Vec<ChannelStat> {
    stats
        .into_iter()
        .filter(|lane| lane.src == rank || lane.dst == rank)
        .map(|mut lane| {
            if lane.src != rank {
                (lane.sends, lane.send_bytes) = (0, 0);
            }
            if lane.dst != rank {
                (lane.recvs, lane.recv_bytes) = (0, 0);
            }
            lane
        })
        .collect()
}

/// The shard store this worker checkpoints through.
fn attached_store<Tr: Transport>(ctx: &WorkerCtx<Tr>) -> Result<Arc<dyn ShardStore>, CkptError> {
    ctx.store.lock().clone().ok_or_else(|| CkptError::Store {
        what: "no shard store is attached to this world".to_string(),
    })
}

/// Reports a restore outcome. Rolled back to `iter`: iterations from
/// there on will be replayed, so their samples are dropped first to keep
/// the report identical to an uninterrupted run.
fn reply_restored<Tr: Transport>(ctx: &mut WorkerCtx<Tr>, id: u64, result: Result<u64, CkptError>) {
    if let Ok(iter) = result {
        ctx.samples.truncate_from(iter);
    }
    ctx.reply(CH_RESTORE, id, Outcome::from(result));
}

/// Everything a worker trains besides the model slice itself: exactly
/// the state a checkpoint has to carry next to the parameters.
struct TrainState {
    optimizer: Adam,
    /// Inter-stage compression state for the upstream (s -> s-1) link.
    cb_link: Option<CbLink>,
    /// DP compression state (selective stage / naive DP).
    dp_state: Option<DistPowerSgd>,
}

impl TrainState {
    /// Serializes the worker's complete training state into a snapshot
    /// section (shared by the in-memory `Snapshot` gather and the
    /// `PublishShard` checkpoint path).
    fn capture<Tr: Transport>(&self, ctx: &mut WorkerCtx<Tr>) -> RankSection {
        RankSection {
            stage: ctx.stage_idx,
            dp: ctx.dp_idx,
            params: ctx.stage.export_state(),
            optimizer: self.optimizer.to_bytes(),
            cb_link: encode_cb_link(&self.cb_link),
            dp_state: self.dp_state.to_bytes(),
        }
    }

    /// Validate-then-apply, for every way a section reaches a worker:
    /// decodes each opaque blob and checks the parameter shapes before
    /// touching live state, so a rejected section leaves the worker
    /// exactly as it was.
    fn apply<Tr: Transport>(
        &mut self,
        ctx: &mut WorkerCtx<Tr>,
        section: RankSection,
    ) -> Result<(), CkptError> {
        let restored = TrainState {
            optimizer: Adam::from_bytes(&section.optimizer)?,
            cb_link: decode_cb_link(&section.cb_link)?,
            dp_state: Option::from_bytes(&section.dp_state)?,
        };
        let expected: Vec<(usize, usize)> =
            ctx.stage.params().iter().map(|p| p.value.shape()).collect();
        let shapes_match = section.params.len() == expected.len()
            && section
                .params
                .iter()
                .zip(&expected)
                .all(|(m, &shape)| m.shape() == shape);
        if !shapes_match {
            return Err(CkptError::Decode(PersistError::Invalid {
                what: "section parameter shapes do not match the stage",
            }));
        }
        ctx.stage.import_state(&section.params);
        *self = restored;
        Ok(())
    }
}

/// The worker half of cross-host elastic restore: rendezvous on the
/// store's manifest, fetch only this rank's shard, and validate it
/// (store-level checksum + size, shard codec, config fingerprint, rank
/// identity, iteration) before [`TrainState::apply`] sees it.
fn fetch_shard<Tr: Transport>(ctx: &WorkerCtx<Tr>) -> Result<Shard, CkptError> {
    let s = ctx.stage_idx;
    let d = ctx.dp_idx;
    let store = attached_store(ctx)?;

    // Rendezvous: resolve the (small) manifest and find our entry.
    let manifest = resolve_manifest(&ctx.cfg, store.as_ref())?;
    let entry = manifest
        .entry(s, d)
        .ok_or(CkptError::MissingRank { stage: s, dp: d })?;

    // Fetch: only our own shard, validated against the manifest entry
    // before the structural decoder ever sees it.
    let blob = store.get(&entry.name).map_err(store_err)?;
    manifest.validate_shard(entry, &blob)
}

/// Deterministic batch key shared by the first and last stages.
fn batch_key(iter: u64, d: usize, micro: usize) -> u64 {
    iter * 1_000_003 + (d as u64) * 1009 + micro as u64
}

fn train_iter<Tr: Transport>(
    ctx: &mut WorkerCtx<Tr>,
    schedule: &opt_schedule::PipelineSchedule,
    state: &mut TrainState,
    iter: u64,
    act_dense_bytes: impl Fn(&Matrix) -> u64,
) {
    let TrainState {
        optimizer,
        cb_link,
        dp_state,
    } = state;
    let my_rank = ctx.rank();
    let pp = ctx.cfg.pp;
    let s = ctx.stage_idx;
    let d = ctx.dp_idx;
    let n_micro = ctx.cfg.n_micro;
    let is_first = s == 0;
    let is_last = s == pp - 1;

    // Per-micro-batch logits gradients waiting for their backward op.
    let mut grad_queue: VecDeque<Matrix> = VecDeque::new();
    // Fig. 11 instrumentation: received activations per micro and the
    // consecutive differences Y(i) - Y(i+1).
    let collect_stats = ctx.cfg.collect_error_stats && d == 0 && s > 0;
    let mut recv_acts: HashMap<usize, Matrix> = HashMap::new();
    let mut act_diffs: HashMap<usize, Matrix> = HashMap::new();

    // Root span of the iteration; every slot below nests under it. The
    // guard is declared first so it closes last.
    let _iter_span = opt_trace::begin(SpanKind::Iteration, iter, NO_MICRO, 0, 0);

    for op in schedule.device_ops(s) {
        let _slot = opt_schedule::slot_guard(op, iter, s, pp, n_micro);
        match *op {
            Op::Forward { micro } => {
                let hidden = if is_first {
                    let batch = ctx
                        .corpus
                        .train_batch(ctx.cfg.micro_batch, batch_key(iter, d, micro));
                    ctx.stage.forward_tokens(&batch.tokens)
                } else {
                    let act = {
                        let span = opt_trace::begin(SpanKind::Recv, iter, micro as u32, 0, 0);
                        let act = ctx
                            .fwd_mesh
                            .recv(my_rank - 1, my_rank)
                            .expect("forward activation lost");
                        span.set_bytes(act_dense_bytes(&act));
                        act
                    };
                    if collect_stats {
                        if let Some(prev) = recv_acts.get(&(micro.wrapping_sub(1))) {
                            act_diffs.insert(micro.wrapping_sub(1), prev.sub(&act));
                        }
                        recv_acts.insert(micro, act.clone());
                    }
                    ctx.stage.forward_hidden(&act)
                };
                if is_last {
                    // Compute the loss now; backward pops it later.
                    let batch = ctx
                        .corpus
                        .train_batch(ctx.cfg.micro_batch, batch_key(iter, d, micro));
                    let out = cross_entropy(&hidden, &batch.targets);
                    ctx.samples.train.push((iter, out.loss));
                    grad_queue.push_back(out.grad_logits);
                } else {
                    let bytes = act_dense_bytes(&hidden);
                    ctx.ledger.record(TrafficClass::InterStage, bytes);
                    let _send = opt_trace::begin(SpanKind::Send, iter, micro as u32, bytes, 0);
                    ctx.fwd_mesh.send(my_rank, my_rank + 1, hidden);
                }
            }
            Op::Backward { micro } => {
                let grad_in = if is_last {
                    grad_queue.pop_front().expect("logits gradient queued")
                } else {
                    let span = opt_trace::begin(SpanKind::Recv, iter, micro as u32, 0, 0);
                    let payload = ctx
                        .bwd_mesh
                        .recv(my_rank + 1, my_rank)
                        .expect("backward gradient lost");
                    span.set_bytes(payload.wire_bytes() as u64);
                    drop(span);
                    payload.decompress()
                };
                let upstream = ctx.stage.backward(&grad_in);
                if let Some(up) = upstream {
                    let payload = match cb_link {
                        Some(link) => {
                            let cb = ctx.cfg.quality.cb.expect("cb config present");
                            let compress_now =
                                !cb.epilogue_only || is_epilogue_send(s, micro, pp, n_micro);
                            let payload = link.process(&up, compress_now);
                            if collect_stats {
                                if let (Some(eps), Some(diff)) =
                                    (link.error(), act_diffs.get(&micro))
                                {
                                    ctx.samples.error_stats.push(ErrorStatPoint {
                                        iter,
                                        stage: s,
                                        error_mean: eps.mean_all(),
                                        act_diff_mean: diff.mean_all(),
                                        cosine: cosine_similarity(eps, diff),
                                    });
                                }
                            }
                            payload
                        }
                        None => Compressed::Dense { matrix: up },
                    };
                    let bytes = payload.wire_bytes() as u64;
                    ctx.ledger.record(TrafficClass::InterStage, bytes);
                    let _send = opt_trace::begin(SpanKind::Send, iter, micro as u32, bytes, 0);
                    ctx.bwd_mesh.send(my_rank, my_rank - 1, payload);
                }
            }
        }
    }
    debug_assert_eq!(
        ctx.stage.pending_activations(),
        0,
        "schedule left dangling caches"
    );

    // Every uncompressed all-reduce of the iteration: ledger entry, then
    // the reduction.
    let reduce = |class, group: &CollectiveGroup<Tr>, m, mean| {
        all_reduce_recorded(&ctx.ledger, class, group, my_rank, vec![m], mean).swap_remove(0)
    };

    // ----- Data-parallel gradient exchange ------------------------------
    // One grouped round per stage (two under DP compression), gradients
    // moved in and the results moved back.
    {
        let _dp_span = opt_trace::begin(SpanKind::DpExchange, iter, NO_MICRO, 0, 0);
        let mut params = ctx.stage.non_embedding_params();
        let grads = params.iter_mut().map(|p| &mut *p.grad);
        match dp_state {
            Some(state) => {
                state.all_reduce_grouped(&ctx.stage_group, my_rank, grads.enumerate(), &ctx.ledger);
            }
            None => {
                let taken: Vec<Matrix> = grads.map(std::mem::take).collect();
                let reduced = all_reduce_recorded(
                    &ctx.ledger,
                    TrafficClass::DataParallel,
                    &ctx.stage_group,
                    my_rank,
                    taken,
                    true,
                );
                for (p, g) in params.iter_mut().zip(reduced) {
                    *p.grad = g;
                }
            }
        }
    }

    // ----- Embedding synchronization (§6) -------------------------------
    let emb_span = opt_trace::begin(SpanKind::EmbeddingSync, iter, NO_MICRO, 0, 0);
    if pp == 1 {
        // Single replica: the table gradient rides the plain DP path.
        if let Some(g) = ctx.stage.embedding_grad().cloned() {
            let synced = reduce(TrafficClass::Embedding, &ctx.stage_group, g, true);
            ctx.stage.set_embedding_grad(synced);
        }
    } else if let Some(g) = ctx.stage.embedding_grad().cloned() {
        let dp_ways = ctx.stage_group.size();
        if ctx.cfg.quality.fused_embedding {
            // One (2D)-way all-reduce: sum over both replicas' groups,
            // divided by D = mean over data ranks of (first + last).
            let fused = ctx.fused_group.as_ref().expect("end stage has fused group");
            let mut summed = reduce(TrafficClass::Embedding, fused, g, false);
            summed.scale_assign(1.0 / dp_ways as f32);
            ctx.stage.set_embedding_grad(summed);
        } else {
            // Baseline: EMB DP (D-way mean) then 2-way sum (paper Fig. 7a).
            let meaned = reduce(TrafficClass::Embedding, &ctx.stage_group, g, true);
            let pair = ctx
                .emb_pair_group
                .as_ref()
                .expect("end stage has pair group");
            let synced = reduce(TrafficClass::Embedding, pair, meaned, false);
            ctx.stage.set_embedding_grad(synced);
        }
    }

    drop(emb_span);

    // ----- Optimizer step ------------------------------------------------
    let _opt_span = opt_trace::begin(SpanKind::Optimizer, iter, NO_MICRO, 0, 0);
    let mut params = ctx.stage.params();
    optimizer.step(&mut params);
    ctx.stage.zero_grad();
}

/// One evaluation forward on dp rank 0, where the global rank is the
/// stage index: the first stage embeds `tokens`, every other stage takes
/// its predecessor's activation, and all but the last send theirs on.
/// Returns the logits on the last stage. The forward queues its backward
/// state like a training forward; `clear_caches` then clears the whole
/// queue, which holds nothing else between iterations.
fn eval_forward<Tr: Transport>(ctx: &mut WorkerCtx<Tr>, tokens: &[usize]) -> Option<Matrix> {
    let s = ctx.stage_idx;
    let h = if s == 0 {
        ctx.stage.forward_tokens(tokens)
    } else {
        let act = ctx
            .fwd_mesh
            .recv(s - 1, s)
            .expect("evaluation activation lost");
        ctx.stage.forward_hidden(&act)
    };
    ctx.stage.clear_caches();
    if s + 1 < ctx.cfg.pp {
        ctx.fwd_mesh.send(s, s + 1, h);
        None
    } else {
        Some(h)
    }
}

/// Validation forward pass over `n_seq` held-out sequences (dp rank 0).
fn validate<Tr: Transport>(ctx: &mut WorkerCtx<Tr>, iter: u64, index: u64, n_seq: usize) {
    let _span = opt_trace::begin(SpanKind::Validate, iter, NO_MICRO, 0, 0);
    // Only the first stage (tokens) and the last (targets) read the batch.
    let reads_batch = ctx.stage_idx == 0 || ctx.stage_idx + 1 == ctx.cfg.pp;
    for c in 0..n_seq.div_ceil(ctx.cfg.micro_batch) {
        let key = index * 10_007 + c as u64;
        let batch = reads_batch.then(|| ctx.corpus.validation_batch(ctx.cfg.micro_batch, key));
        let tokens = batch.as_ref().map_or(&[][..], |b| &b.tokens[..]);
        if let (Some(logits), Some(batch)) = (eval_forward(ctx, tokens), &batch) {
            let out = cross_entropy(&logits, &batch.targets);
            ctx.samples.val.push((iter, out.loss));
        }
    }
}

/// Inference pass: last-position argmax per sequence (dp rank 0).
fn predict<Tr: Transport>(ctx: &mut WorkerCtx<Tr>, id: u64, tokens: &[usize]) {
    let Some(logits) = eval_forward(ctx, tokens) else {
        return;
    };
    // Last stage: argmax at each sequence's final position.
    let seq_len = ctx.cfg.model.seq_len;
    let n_seq = logits.rows() / seq_len;
    let preds = logits.argmax_rows();
    let answers: Vec<usize> = (0..n_seq)
        .map(|q| preds[q * seq_len + seq_len - 1])
        .collect();
    ctx.reply(CH_PREDICT, id, answers);
}
