//! The layer replay: every public call one iteration makes, executed from
//! outside the program with a span around each, so that each crate's
//! share of an iteration is measured without adding a span inside any of
//! them.
//!
//! Three parts. The *iteration replay* rebuilds the workload's stages,
//! corpus and compressors from the same seed and runs one dp rank's
//! iteration single-threaded (all stages, all micro-batches). The *kernel
//! probes* time the model's characteristic GEMM shapes on their own. The
//! *pair probes* time hops, collectives and the distributed PowerSGD
//! exchange between two threads over the workload's own transport.
//!
//! Every replay figure is a per-iteration total: the median over replay
//! iterations of the layer's summed self time in one iteration.

use crate::spans::Recorder;
use crate::stats::median;
use crate::workload::Workload;
use crate::world::Fabric;
use opt_compress::{Compressor, LazyErrorPropagator, PowerSgd, FP16_BYTES};
use opt_model::{cross_entropy, Adam, Optimizer, Stage};
use opt_net::{
    channel_id, tcp_rendezvous, CollectiveWorld, LocalTransport, P2pMesh, TrafficLedger, Transport,
};
use opt_schedule::is_epilogue_send;
use opt_tensor::{kernel_path_counts, orthonormalize_columns, relative_error, Matrix, SeedStream};
use optimus_cc::{CbMethod, DistPowerSgd, TrainerConfig};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

const WARMUP_ITERS: u64 = 3;
const TIMED_ITERS: u64 = 30;

pub struct ReplayOutcome {
    pub metrics: BTreeMap<&'static str, f64>,
    pub recorder: Recorder,
}

pub fn replay(w: &Workload, seed: u64, fabric: &Fabric) -> Result<ReplayOutcome, String> {
    let cfg = w.config(seed);
    let mut metrics = BTreeMap::new();
    let recorder = replay_iterations(&cfg, &mut metrics)?;
    kernel_probes(&cfg, &mut metrics);
    match fabric {
        Fabric::Local => {
            let t = Arc::new(LocalTransport::new(2));
            pair_probes(&cfg, [Arc::clone(&t), t], &mut metrics);
        }
        Fabric::Tcp(env) => {
            let dir = env.rendezvous_dir("replay-pair");
            let ends = std::thread::scope(|scope| {
                let dial = |rank| {
                    let dir = dir.clone();
                    scope.spawn(move || tcp_rendezvous(dir, 2, rank, Duration::from_secs(30)))
                };
                let (a, b) = (dial(0), dial(1));
                [a, b].map(|h| h.join().expect("rendezvous thread panicked"))
            });
            let [a, b] = ends.map(|t| t.map(Arc::new).map_err(|e| format!("tcp pair: {e}")));
            pair_probes(&cfg, [a?, b?], &mut metrics);
        }
    }
    Ok(ReplayOutcome { metrics, recorder })
}

fn total_kernel_calls() -> u64 {
    kernel_path_counts().iter().map(|(_, _, n)| n).sum()
}

/// One dp rank's iterations, serially: all stages, all micro-batches.
fn replay_iterations(
    cfg: &TrainerConfig,
    metrics: &mut BTreeMap<&'static str, f64>,
) -> Result<Recorder, String> {
    let (pp, n_micro, mb) = (cfg.pp, cfg.n_micro, cfg.micro_batch);
    let mut stages = Stage::build_pipeline(&cfg.model, pp, cfg.seed);
    let corpus = cfg.corpus();
    let mut adams: Vec<Adam> = (0..pp).map(|_| Adam::new(cfg.lr)).collect();
    // The upstream link of stage s > 0, seeded as its worker seeds it.
    let mut links: Vec<Option<LazyErrorPropagator<PowerSgd>>> = Vec::new();
    for s in 0..pp {
        links.push(match cfg.quality.cb.filter(|_| s > 0) {
            None => None,
            Some(cb) => {
                let CbMethod::LowRank(rank) = cb.method else {
                    return Err("the replay covers low-rank compressed backpropagation only".into());
                };
                let inner = PowerSgd::new(rank, cfg.seed ^ 0xCB ^ s as u64);
                Some(LazyErrorPropagator::new(inner, cb.lazy_error))
            }
        });
    }
    // One PowerSGD per DP-compressed gradient, so warm starts carry over.
    let mut dp_compressors: Vec<Vec<PowerSgd>> = (0..cfg.sc_stage_count())
        .map(|s| {
            let slots = stages[s].non_embedding_params().len();
            let rank = cfg.dp_rank().expect("a compressed stage implies a DP rank");
            (0..slots)
                .map(|slot| PowerSgd::new(rank, cfg.seed ^ 0xD9 ^ ((s * 1000 + slot) as u64)))
                .collect()
        })
        .collect();

    let mut rec = Recorder::new();
    let (mut dense_bytes, mut wire_bytes) = (0u64, 0u64);
    let mut rel_errors: Vec<f64> = Vec::new();
    let mut calls_at_start = 0;
    for it in 0..WARMUP_ITERS + TIMED_ITERS {
        if it == WARMUP_ITERS {
            calls_at_start = total_kernel_calls();
        }
        let timed = it >= WARMUP_ITERS;
        rec.span("iteration", it, |rec| {
            for micro in 0..n_micro {
                let key = it * 1_000_003 + micro as u64;
                let batch = rec.leaf("data.batch", it, || corpus.train_batch(mb, key));
                let mut h = rec.leaf("model.forward", it, || {
                    stages[0].forward_tokens(&batch.tokens)
                });
                for stage in &mut stages[1..] {
                    h = rec.leaf("model.forward", it, || stage.forward_hidden(&h));
                }
                // The last stage's worker generates the batch again for
                // its targets; so does the replay.
                let targets = rec
                    .leaf("data.batch", it, || corpus.train_batch(mb, key))
                    .targets;
                let mut grad = rec
                    .leaf("model.loss", it, || cross_entropy(&h, &targets))
                    .grad_logits;
                for s in (0..pp).rev() {
                    let upstream = rec.leaf("model.backward", it, || stages[s].backward(&grad));
                    let Some(up) = upstream else { continue };
                    grad = match (&mut links[s], cfg.quality.cb) {
                        (Some(link), Some(cb)) => {
                            if !cb.epilogue_only || is_epilogue_send(s, micro, pp, n_micro) {
                                let (payload, _) =
                                    rec.leaf("compress.cb_encode", it, || link.process(&up, true));
                                rec.leaf("compress.cb_decode", it, || payload.decompress())
                            } else {
                                rec.leaf("compress.cb_passthrough", it, || {
                                    link.process(&up, false).0.decompress()
                                })
                            }
                        }
                        _ => up,
                    };
                }
            }
            for (stage, compressors) in stages.iter_mut().zip(&mut dp_compressors) {
                for (p, compressor) in stage.non_embedding_params().into_iter().zip(compressors) {
                    if p.grad.rows() == 1 || p.grad.cols() == 1 {
                        continue; // vectors are exchanged dense
                    }
                    let payload =
                        rec.leaf("compress.dp_encode", it, || compressor.compress(p.grad));
                    let approx = rec.leaf("compress.dp_decode", it, || payload.decompress());
                    if timed {
                        dense_bytes += (p.grad.len() * FP16_BYTES) as u64;
                        wire_bytes += payload.wire_bytes() as u64;
                        rel_errors.push(f64::from(relative_error(p.grad, &approx)));
                    }
                    *p.grad = approx;
                }
            }
            for (stage, adam) in stages.iter_mut().zip(&mut adams) {
                rec.leaf("model.optimizer", it, || adam.step(&mut stage.params()));
                stage.zero_grad();
            }
        });
    }
    let kernel_calls = total_kernel_calls() - calls_at_start;

    let self_ns = rec.median_self_ns_per_iter(WARMUP_ITERS);
    let figure = |name: &str, per: f64| self_ns.get(name).map_or(0.0, |ns| ns / per);
    for (metric, span, per) in [
        ("model.forward_ms", "model.forward", 1e6),
        ("model.backward_ms", "model.backward", 1e6),
        ("model.loss_ms", "model.loss", 1e6),
        ("model.optimizer_ms", "model.optimizer", 1e6),
        ("data.batch_us", "data.batch", 1e3),
        ("compress.cb_encode_us", "compress.cb_encode", 1e3),
        ("compress.cb_passthrough_us", "compress.cb_passthrough", 1e3),
        ("compress.cb_decode_us", "compress.cb_decode", 1e3),
        ("compress.dp_encode_ms", "compress.dp_encode", 1e6),
        ("compress.dp_decode_ms", "compress.dp_decode", 1e6),
    ] {
        metrics.insert(metric, figure(span, per));
    }
    let serial_ms: Vec<f64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "iteration" && s.iter >= WARMUP_ITERS)
        .map(|s| (s.end_ns - s.start_ns) as f64 / 1e6)
        .collect();
    metrics.insert("core.replay_serial_ms", median(&serial_ms));
    metrics.insert(
        "tensor.kernel_calls_per_iter",
        kernel_calls as f64 / TIMED_ITERS as f64,
    );
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    metrics.insert(
        "compress.dp_ratio",
        ratio(dense_bytes as f64, wire_bytes as f64),
    );
    metrics.insert(
        "compress.dp_rel_error",
        ratio(rel_errors.iter().sum(), rel_errors.len() as f64),
    );
    let residual = links
        .iter()
        .flatten()
        .fold(0.0, |sum, l| sum + l.error_norm());
    metrics.insert("compress.lep_residual_norm", f64::from(residual));
    Ok(rec)
}

/// Median seconds of one call of `f`, over batches sized to last at
/// least 200 µs so the clock's resolution stays below 1 %.
fn time_call(mut f: impl FnMut()) -> f64 {
    f(); // warm caches and lazy allocation
    let t = Instant::now();
    f();
    let once = t.elapsed().as_secs_f64().max(1e-9);
    let batch = ((200e-6 / once).ceil() as usize).clamp(1, 256);
    let samples: Vec<f64> = (0..40)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..batch {
                f();
            }
            t.elapsed().as_secs_f64() / batch as f64
        })
        .collect();
    median(&samples)
}

/// The model's characteristic GEMM shapes, timed in isolation.
fn kernel_probes(cfg: &TrainerConfig, metrics: &mut BTreeMap<&'static str, f64>) {
    let m = &cfg.model;
    let (tokens, h, ff) = (cfg.micro_batch * m.seq_len, m.hidden, 4 * m.hidden);
    let head_dim = h / m.heads;
    let rank = cfg
        .dp_rank()
        .unwrap_or(optimus_cc::QualityConfig::SMALL_DP_RANK);
    let mut rng = SeedStream::new(cfg.seed ^ 0xBE7C);
    let x = rng.normal_matrix(tokens, h, 1.0);
    let w_up = rng.normal_matrix(h, ff, 0.1);
    let dy = rng.normal_matrix(tokens, ff, 1.0);
    let qh = rng.normal_matrix(m.seq_len, head_dim, 1.0);
    let kh = rng.normal_matrix(m.seq_len, head_dim, 1.0);
    let q = rng.normal_matrix(ff, rank, 1.0);
    let p = rng.normal_matrix(h, rank, 1.0);
    let tall = rng.normal_matrix(ff, rank, 1.0);

    // MLP up-projection: (tokens x h) · (h x 4h).
    let fwd = time_call(|| {
        black_box(black_box(&x).matmul(&w_up));
    });
    // Per-head attention scores: (seq x dk) · (seq x dk)ᵀ.
    let attn = time_call(|| {
        black_box(black_box(&qh).matmul_t(&kh));
    });
    // Weight gradient: (tokens x h)ᵀ · (tokens x 4h).
    let wgrad = time_call(|| {
        black_box(black_box(&x).t_matmul(&dy));
    });
    // PowerSGD's two skinny GEMMs on the largest gradient (h x 4h).
    let psgd = time_call(|| {
        black_box(black_box(&w_up).matmul(&q));
        black_box(black_box(&w_up).t_matmul(&p));
    });
    // Gram–Schmidt on the tallest factor (4h x rank).
    let ortho = time_call(|| {
        let mut f = tall.clone();
        orthonormalize_columns(&mut f);
        black_box(f);
    });
    metrics.insert("tensor.gemm_fwd_us", fwd * 1e6);
    metrics.insert("tensor.gemm_attn_us", attn * 1e6);
    metrics.insert("tensor.gemm_wgrad_us", wgrad * 1e6);
    metrics.insert("tensor.gemm_psgd_us", psgd * 1e6);
    metrics.insert("tensor.ortho_us", ortho * 1e6);
    metrics.insert(
        "tensor.gemm_gflops",
        2.0 * (tokens * h * ff) as f64 / fwd / 1e9,
    );
}

/// Repetitions of each pair probe; both ranks must agree on them.
const HOP_REPS: usize = 200;
const LARGE_HOP_REPS: usize = 60;
const ALLREDUCE_REPS: usize = 12;
const FACTOR_REPS: usize = 30;
const EXCHANGE_REPS: usize = 12;

/// Hops, collectives and the distributed PowerSGD exchange between two
/// ranks, one thread each, over `ends` (the two ranks' endpoints: one
/// shared `LocalTransport`, or a loopback TCP pair). Rank 0 times; rank 1
/// mirrors every call.
fn pair_probes<Tr: Transport>(
    cfg: &TrainerConfig,
    ends: [Arc<Tr>; 2],
    metrics: &mut BTreeMap<&'static str, f64>,
) {
    let m = &cfg.model;
    // Every gradient one dp rank holds, and the DP-compressed subset.
    let mut stages = Stage::build_pipeline(m, cfg.pp, cfg.seed);
    let all_shapes: Vec<(usize, usize)> = stages
        .iter_mut()
        .flat_map(|s| {
            s.params()
                .into_iter()
                .map(|p| p.grad.shape())
                .collect::<Vec<_>>()
        })
        .collect();
    let slot_shapes: Vec<(usize, usize)> = stages[..cfg.sc_stage_count()]
        .iter_mut()
        .flat_map(|s| {
            let shapes: Vec<_> = s
                .non_embedding_params()
                .iter()
                .map(|p| p.grad.shape())
                .collect();
            shapes
        })
        .collect();
    let act_shape = (cfg.micro_batch * m.seq_len, m.hidden);
    let large_shape = (m.hidden, 4 * m.hidden);
    let rank_r = cfg
        .dp_rank()
        .unwrap_or(optimus_cc::QualityConfig::SMALL_DP_RANK);

    let run_rank = |me: usize, end: Arc<Tr>| -> [f64; 5] {
        let mut rng = SeedStream::new(cfg.seed ^ 0x9A17 ^ me as u64);
        let mesh: P2pMesh<Matrix, Tr> = P2pMesh::over(Arc::clone(&end), channel_id(1, 0));
        let group = CollectiveWorld::over(end).group(&[0, 1]);
        // A ping-pong; half the round trip is one hop.
        let mut hop = |shape: (usize, usize), reps: usize| -> f64 {
            let msg = rng.normal_matrix(shape.0, shape.1, 1.0);
            let trips: Vec<f64> = (0..reps)
                .map(|_| {
                    let t = Instant::now();
                    if me == 0 {
                        mesh.send(0, 1, msg.clone());
                        black_box(mesh.recv(1, 0).expect("pong lost"));
                    } else {
                        let ping = mesh.recv(0, 1).expect("ping lost");
                        mesh.send(1, 0, ping);
                    }
                    t.elapsed().as_secs_f64() / 2.0
                })
                .collect();
            median(&trips)
        };
        let p2p_hop = hop(act_shape, HOP_REPS);
        let hop_large = hop(large_shape, LARGE_HOP_REPS);

        let all_reduce_over = |mats: &[Matrix], reps: usize| -> f64 {
            let rounds: Vec<f64> = (0..reps)
                .map(|_| {
                    let t = Instant::now();
                    for g in mats {
                        black_box(group.all_reduce_mean(me, g.clone()).expect("all-reduce"));
                    }
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&rounds)
        };
        let grads: Vec<Matrix> = all_shapes
            .iter()
            .map(|&(r, c)| rng.normal_matrix(r, c, 1.0))
            .collect();
        let dense = all_reduce_over(&grads, ALLREDUCE_REPS);
        let factors: Vec<Matrix> = all_shapes
            .iter()
            .filter(|&&(r, c)| r > 1 && c > 1)
            .flat_map(|&(r, c)| [(r, rank_r), (c, rank_r)])
            .map(|(r, c)| rng.normal_matrix(r, c, 1.0))
            .collect();
        let factor = all_reduce_over(&factors, FACTOR_REPS);

        // The exchange a DP-compressed stage performs per iteration; cold
        // start and the first warm starts are left out of the median.
        let exchange = if slot_shapes.is_empty() {
            0.0
        } else {
            let ledger = TrafficLedger::new();
            let mut state = DistPowerSgd::new(rank_r, slot_shapes.len(), cfg.seed ^ 0xD9);
            let slot_grads: Vec<Matrix> = slot_shapes
                .iter()
                .map(|&(r, c)| rng.normal_matrix(r, c, 1.0))
                .collect();
            let rounds: Vec<f64> = (0..EXCHANGE_REPS + 3)
                .map(|_| {
                    let mut work = slot_grads.clone();
                    let t = Instant::now();
                    for (slot, g) in work.iter_mut().enumerate() {
                        state.all_reduce(&group, me, slot, g, &ledger);
                    }
                    black_box(&work);
                    t.elapsed().as_secs_f64()
                })
                .collect();
            median(&rounds[3..])
        };
        [p2p_hop, hop_large, dense, factor, exchange]
    };

    let [end0, end1] = ends;
    let timed = std::thread::scope(|scope| {
        let mirror = scope.spawn(|| run_rank(1, end1));
        let timed = run_rank(0, end0);
        mirror.join().expect("pair probe rank 1 panicked");
        timed
    });
    let [p2p_hop, hop_large, dense, factor, exchange] = timed;
    metrics.insert("net.p2p_hop_us", p2p_hop * 1e6);
    metrics.insert("net.hop_large_us", hop_large * 1e6);
    metrics.insert("net.allreduce_dense_ms", dense * 1e3);
    metrics.insert("net.allreduce_factor_ms", factor * 1e3);
    metrics.insert("core.dp_exchange_ms", exchange * 1e3);
}
