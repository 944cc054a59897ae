//! The discrete-event iteration simulator.

use crate::cost::{all_reduce_time_s, p2p_time_s, ring_all_reduce_wire_bytes};
use crate::{KernelModel, SimConfig};
use opt_schedule::{is_epilogue_send, one_f_one_b, CbMethod, Op};

/// What a trace event represents.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Forward compute of a micro-batch.
    Forward,
    /// Backward compute of a micro-batch.
    Backward,
    /// Per-stage data-parallel all-reduce.
    DpComm,
    /// Embedding DP all-reduce (baseline path, first/last stage only).
    EmbDp,
    /// Embedding synchronization (2-way baseline or fused 2D-way).
    EmbSync,
}

/// One timed event in the simulated iteration (for Fig. 4-style timelines).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceEvent {
    /// Pipeline stage (device) the event runs on.
    pub stage: usize,
    /// Event kind.
    pub kind: TraceKind,
    /// Micro-batch index for compute events (0 for collectives).
    pub micro: usize,
    /// Start time, seconds from iteration start.
    pub start: f64,
    /// End time, seconds.
    pub end: f64,
}

/// Result of simulating one training iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct SimResult {
    /// End-to-end iteration time (all stages through DP + EMB sync).
    pub iteration_time_s: f64,
    /// Time at which each stage finished its last backward.
    pub backward_done_s: Vec<f64>,
    /// Full event trace.
    pub trace: Vec<TraceEvent>,
    /// Total bytes sent on inter-stage links (both directions).
    pub interstage_bytes: f64,
    /// Total DP all-reduce wire bytes (per-rank, summed over stages).
    pub dp_bytes: f64,
    /// Embedding synchronization wire bytes (per-rank).
    pub emb_bytes: f64,
}

impl SimResult {
    /// Projects a full training run: `iters` iterations in days.
    pub fn training_days(&self, iters: u64) -> f64 {
        self.iteration_time_s * iters as f64 / 86_400.0
    }
}

/// Internal per-message record: when the payload is fully available at the
/// receiver (including compression/decompression kernel time).
#[derive(Clone, Copy)]
struct Arrival {
    ready_at: f64,
}

/// Effective iteration end accounting for next-iteration warmup slack:
/// stage `s` is not needed by the next iteration until `s` forward chains
/// have passed through the earlier stages, so its post-backward
/// communication may spill into that window without delaying training.
/// Stage 0 has zero slack — the paper's §4 observation that the first
/// stage's finish time is what matters.
fn effective_end(cfg: &SimConfig, backward_done: &[f64], dp_done: &[f64]) -> f64 {
    let mut end: f64 = 0.0;
    for (s, (&bd, &dd)) in backward_done.iter().zip(dp_done).enumerate() {
        let slack = s as f64 * cfg.fwd_time(s);
        end = end.max(bd).max(dd - slack);
    }
    end
}

/// Simulates one 1F1B training iteration under `cfg`.
///
/// Fidelity notes:
///
/// * Compute ops run back-to-back per device; forward = `t`, backward =
///   `2t` (paper Fig. 4).
/// * A forward/backward op on stage `s` blocks until the corresponding
///   activation (gradient) message from stage `s-1` (`s+1`) has arrived.
/// * Sends are non-blocking for the sender, except that the sender pays
///   the compression kernel time; the receiver pays decompression.
/// * DP all-reduce of a stage starts when its last backward retires
///   (gradient accumulation finishes); its duration uses the ring model
///   over `dp` ranks at the derated inter-node bandwidth.
/// * Baseline embedding path: first/last stages run an extra `dp`-way
///   all-reduce (EMB DP) after stage DP, then a 2-way sync between them.
///   Fused path (§6): a single `2*dp`-way all-reduce after stage DP.
/// * Lazy error propagation is a quality technique and costs no time.
///
/// # Panics
///
/// Panics if the plan compresses backpropagation with top-k: the kernel
/// model prices PowerSGD only, and no figure asks for a top-k CB link.
pub fn simulate(cfg: &SimConfig) -> SimResult {
    // (rank, epilogue only) of the compressed-backpropagation link.
    let cb = cfg.plan.cb.map(|cb| match cb.method {
        CbMethod::LowRank(rank) => (rank, cb.epilogue_only),
        CbMethod::TopK(density) => panic!(
            "opt-sim has no kernel model for top-k compressed backpropagation \
             (density {density}); price a low-rank CB plan"
        ),
    });
    let kernel = KernelModel::a100();
    let s_count = cfg.pp;
    let m_count = cfg.n_micro;
    let sched = one_f_one_b(s_count, m_count);
    let latency = cfg.inter_node_latency;
    let bw = cfg.inter_node_eff_bw;

    // Message arrival tables: fwd_arrival[s][m] = activation from s-1 to s;
    // bwd_arrival[s][m] = gradient from s+1 to s.
    let mut fwd_arrival = vec![vec![None::<Arrival>; m_count]; s_count];
    let mut bwd_arrival = vec![vec![None::<Arrival>; m_count]; s_count];

    let mut device_time = vec![0.0f64; s_count];
    let mut next_op = vec![0usize; s_count];
    let mut backward_done = vec![0.0f64; s_count];
    let mut trace = Vec::new();
    let mut interstage_bytes = 0.0;

    let act_dense = cfg.act_volume_bytes();
    let n_rows = cfg.tokens_per_micro() as usize;
    let hid = cfg.model.hidden;

    // --- DP all-reduce plan (needed eagerly: drained stages start their
    // DP while earlier stages are still sending epilogue gradients, and
    // those p2p transfers contend with the DP flows on the NICs) --------
    let sc_stages = cfg.plan.dp_compressed_stages(s_count);
    let dp_rank = cfg.plan.dp_rank().unwrap_or(0);
    let dp_cost = |s: usize| -> (f64, f64) {
        // (duration, wire bytes) of stage s's DP all-reduce.
        let compressed = s < sc_stages && dp_rank > 0;
        let (volume, overhead) = if compressed {
            let layers = cfg.model.layers_on_stage(s, cfg.pp);
            let t_kernel = kernel.dp_compress_time(layers, hid, dp_rank)
                + kernel.dp_decompress_time(layers, hid, dp_rank);
            (cfg.dp_volume_compressed_bytes(s, dp_rank), t_kernel)
        } else {
            (cfg.dp_volume_bytes(s), 0.0)
        };
        let dur = overhead + all_reduce_time_s(volume, cfg.dp, bw, latency);
        (dur, ring_all_reduce_wire_bytes(volume, cfg.dp))
    };
    // dp_window[s] = Some((start, end)) once stage s's DP is scheduled.
    let mut dp_window = vec![None::<(f64, f64)>; s_count];

    // Execute ops with a worklist until every device drains. Dependencies
    // are acyclic, so each pass retires at least one op.
    let total_ops: usize = (0..s_count).map(|s| sched.device_ops(s).len()).sum();
    let mut retired = 0;
    while retired < total_ops {
        let mut progressed = false;
        for s in 0..s_count {
            while next_op[s] < sched.device_ops(s).len() {
                let op = sched.device_ops(s)[next_op[s]];
                // Check dependency.
                let dep_ready = match op {
                    Op::Forward { micro } => {
                        if s == 0 {
                            Some(0.0)
                        } else {
                            fwd_arrival[s][micro].map(|a| a.ready_at)
                        }
                    }
                    Op::Backward { micro } => {
                        if s == s_count - 1 {
                            Some(0.0)
                        } else {
                            bwd_arrival[s][micro].map(|a| a.ready_at)
                        }
                    }
                };
                let Some(ready) = dep_ready else { break };
                let start = device_time[s].max(ready);
                let (dur, kind, micro) = match op {
                    Op::Forward { micro } => (cfg.fwd_time(s), TraceKind::Forward, micro),
                    Op::Backward { micro } => (cfg.bwd_time(s), TraceKind::Backward, micro),
                };
                let end = start + dur;
                device_time[s] = end;
                trace.push(TraceEvent {
                    stage: s,
                    kind,
                    micro,
                    start,
                    end,
                });
                match op {
                    Op::Forward { micro } => {
                        if s + 1 < s_count {
                            // Forward sends are never compressed (§5: it
                            // would break convergence).
                            let arr = end + p2p_time_s(act_dense, bw, latency);
                            fwd_arrival[s + 1][micro] = Some(Arrival { ready_at: arr });
                            interstage_bytes += act_dense;
                        }
                    }
                    Op::Backward { micro } => {
                        backward_done[s] = end;
                        if micro == m_count - 1 {
                            // Last backward: DP all-reduce starts now.
                            let (dur_dp, _) = dp_cost(s);
                            dp_window[s] = Some((end, end + dur_dp));
                        }
                        if s > 0 {
                            // Megatron splits backward into dgrad (input
                            // gradient, first half) and wgrad (weight
                            // gradient, second half); the inter-stage send
                            // starts after dgrad and overlaps wgrad. This
                            // is what hides steady-state backward sends
                            // and leaves only the epilogue exposed (§5.2).
                            let data_ready = end - dur / 2.0;
                            let compress = cb.and_then(|(rank, epilogue_only)| {
                                let on_epilogue = is_epilogue_send(s, micro, s_count, m_count);
                                (!epilogue_only || on_epilogue).then_some(rank)
                            });
                            let (send_start, volume, decomp) = match compress {
                                Some(rank) => (
                                    data_ready + kernel.compress_time(n_rows, hid, rank),
                                    cfg.act_volume_compressed_bytes(rank),
                                    kernel.decompress_time(n_rows, hid, rank),
                                ),
                                None => (data_ready, act_dense, 0.0),
                            };
                            // NIC contention: DP all-reduces of already
                            // drained stages share the inter-node links
                            // with this transfer; fair-share the
                            // bandwidth among concurrent flows.
                            let active_dp = dp_window
                                .iter()
                                .flatten()
                                .filter(|&&(a, b)| send_start >= a && send_start < b)
                                .count();
                            let eff_bw = bw / (1.0 + active_dp as f64);
                            let arr = send_start + p2p_time_s(volume, eff_bw, latency) + decomp;
                            bwd_arrival[s - 1][micro] = Some(Arrival { ready_at: arr });
                            interstage_bytes += volume;
                        }
                    }
                }
                next_op[s] += 1;
                retired += 1;
                progressed = true;
            }
        }
        assert!(progressed, "simulation deadlocked (schedule bug)");
    }

    // --- Data-parallel all-reduce per stage (windows already scheduled
    // eagerly during the op loop) ---------------------------------------
    let mut dp_done = vec![0.0f64; s_count];
    let mut dp_bytes_total = 0.0;
    for s in 0..s_count {
        let (start, end) = dp_window[s].expect("DP window scheduled for every stage");
        dp_done[s] = end;
        dp_bytes_total += dp_cost(s).1;
        trace.push(TraceEvent {
            stage: s,
            kind: TraceKind::DpComm,
            micro: 0,
            start,
            end,
        });
    }

    // --- Embedding synchronization ------------------------------------
    let emb_v = cfg.emb_volume_bytes();
    let mut emb_bytes = 0.0;
    let first = 0;
    let last = s_count - 1;
    let iteration_end;
    if s_count == 1 {
        // Single stage: the table is shared; its gradient rides the normal
        // DP all-reduce (already counted in stage params approximation).
        let start = dp_done[0];
        let end = start + all_reduce_time_s(emb_v, cfg.dp, bw, latency);
        emb_bytes += ring_all_reduce_wire_bytes(emb_v, cfg.dp);
        trace.push(TraceEvent {
            stage: 0,
            kind: TraceKind::EmbDp,
            micro: 0,
            start,
            end,
        });
        iteration_end = end;
    } else if cfg.plan.fused_embedding {
        // One (2*dp)-way all-reduce across both replicas' DP groups,
        // issued after the per-stage DP all-reduce as in the paper's
        // Fig. 4b ("Fused EMB Sync" follows "DP").
        let start = dp_done[first].max(dp_done[last]);
        let end = start + all_reduce_time_s(emb_v, 2 * cfg.dp, bw, latency);
        emb_bytes += ring_all_reduce_wire_bytes(emb_v, 2 * cfg.dp);
        for &s in &[first, last] {
            trace.push(TraceEvent {
                stage: s,
                kind: TraceKind::EmbSync,
                micro: 0,
                start,
                end,
            });
            dp_done[s] = dp_done[s].max(end);
        }
        iteration_end = effective_end(cfg, &backward_done, &dp_done);
    } else {
        // Baseline: EMB DP (dp-way) on each replica stage, then 2-way sync.
        // Byte accounting is per participating rank (the paper's Eq. 15
        // metric): one EMB DP plus one sync per rank.
        let dur_dp = all_reduce_time_s(emb_v, cfg.dp, bw, latency);
        emb_bytes += ring_all_reduce_wire_bytes(emb_v, cfg.dp);
        for &s in &[first, last] {
            let start = dp_done[s];
            let end = start + dur_dp;
            trace.push(TraceEvent {
                stage: s,
                kind: TraceKind::EmbDp,
                micro: 0,
                start,
                end,
            });
            dp_done[s] = end;
        }
        let start = dp_done[first].max(dp_done[last]);
        let end = start + all_reduce_time_s(emb_v, 2, bw, latency);
        emb_bytes += ring_all_reduce_wire_bytes(emb_v, 2);
        for &s in &[first, last] {
            trace.push(TraceEvent {
                stage: s,
                kind: TraceKind::EmbSync,
                micro: 0,
                start,
                end,
            });
            dp_done[s] = end;
        }
        iteration_end = effective_end(cfg, &backward_done, &dp_done);
    }

    SimResult {
        iteration_time_s: iteration_end,
        backward_done_s: backward_done,
        trace,
        interstage_bytes,
        dp_bytes: dp_bytes_total,
        emb_bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opt_schedule::QualityConfig;

    #[test]
    fn baseline_iteration_time_near_paper_table2() {
        // Paper Table 2: GPT-2.5B baseline = 14.72 days / 230K iters
        // = 5.53 s/iter; GPT-8.3B = 37.27 days = 14.0 s/iter. We accept a
        // generous band — the shape, not the absolute, is the target.
        let t25 = simulate(&SimConfig::paper_gpt_2_5b()).iteration_time_s;
        let t83 = simulate(&SimConfig::paper_gpt_8_3b()).iteration_time_s;
        assert!(t25 > 1.0 && t25 < 12.0, "GPT-2.5B iter {t25}");
        assert!(t83 > 4.0 && t83 < 30.0, "GPT-8.3B iter {t83}");
        assert!(t83 > 2.0 * t25, "8.3B should be ~2.5-3x slower");
    }

    #[test]
    fn cb_speeds_up_iteration() {
        let base = SimConfig::paper_gpt_2_5b();
        let cb = base.clone().with_plan(QualityConfig::cb().at_paper_ranks());
        let t0 = simulate(&base).iteration_time_s;
        let t1 = simulate(&cb).iteration_time_s;
        assert!(t1 < t0, "CB must speed up: {t1} vs {t0}");
    }

    #[test]
    fn full_stack_ordering_matches_table2() {
        for cfg in [SimConfig::paper_gpt_2_5b(), SimConfig::paper_gpt_8_3b()] {
            let t: Vec<f64> = QualityConfig::table2_columns()
                .into_iter()
                .map(|(_, p)| simulate(&cfg.clone().with_plan(p.at_paper_ranks())).iteration_time_s)
                .collect();
            assert!(t[1] < t[0], "CB < baseline");
            assert!(t[2] < t[1], "CB+FE < CB");
            assert!(t[3] < t[2], "CB+FE+SC < CB+FE");
        }
    }

    #[test]
    fn sc_gain_larger_on_bigger_model() {
        // Table 2: SC adds much more on GPT-8.3B than on GPT-2.5B.
        let gain = |cfg: SimConfig| {
            let fe = simulate(
                &cfg.clone()
                    .with_plan(QualityConfig::cb_fe().at_paper_ranks()),
            )
            .iteration_time_s;
            let sc = simulate(&cfg.with_plan(QualityConfig::cb_fe_sc().at_paper_ranks()))
                .iteration_time_s;
            fe / sc - 1.0
        };
        let g25 = gain(SimConfig::paper_gpt_2_5b());
        let g83 = gain(SimConfig::paper_gpt_8_3b());
        assert!(g83 > g25, "SC gain 8.3B {g83} should exceed 2.5B {g25}");
    }

    #[test]
    fn stage_zero_finishes_backward_last() {
        // 1F1B drain: earlier stages retire their final backward later.
        let r = simulate(&SimConfig::paper_gpt_2_5b());
        for w in r.backward_done_s.windows(2) {
            assert!(
                w[0] > w[1],
                "backward finish not decreasing: {:?}",
                r.backward_done_s
            );
        }
    }

    #[test]
    fn fused_embedding_reduces_emb_bytes_and_time() {
        let base = SimConfig::paper_gpt_2_5b().with_plan(QualityConfig::cb().at_paper_ranks());
        let fe = SimConfig::paper_gpt_2_5b().with_plan(QualityConfig::cb_fe().at_paper_ranks());
        let r0 = simulate(&base);
        let r1 = simulate(&fe);
        assert!(r1.emb_bytes < r0.emb_bytes);
        assert!(r1.iteration_time_s < r0.iteration_time_s);
        // Eq. 15/16: bytes ratio (2D-1)/(3D-2) at D=4 -> 7/10.
        let ratio = r1.emb_bytes / r0.emb_bytes;
        assert!(
            (ratio - 0.7).abs() < 0.05,
            "fused/baseline emb bytes {ratio}"
        );
    }

    #[test]
    fn cb_cuts_interstage_bytes_on_epilogue_only() {
        let base = simulate(&SimConfig::paper_gpt_2_5b());
        let cb =
            simulate(&SimConfig::paper_gpt_2_5b().with_plan(QualityConfig::cb().at_paper_ranks()));
        // Epilogue-only: backward volume drops by the epilogue fraction.
        assert!(cb.interstage_bytes < base.interstage_bytes);
        let naive = simulate(
            &SimConfig::paper_gpt_2_5b()
                .with_plan(QualityConfig::naive_cb(QualityConfig::PAPER_CB_RANK)),
        );
        // Naive CB compresses every backward send -> even fewer bytes.
        assert!(naive.interstage_bytes < cb.interstage_bytes);
    }

    #[test]
    fn trace_is_consistent() {
        let r = simulate(&SimConfig::paper_gpt_2_5b());
        let cfg = SimConfig::paper_gpt_2_5b();
        // Every stage runs n_micro forwards and backwards.
        for s in 0..cfg.pp {
            let f = r
                .trace
                .iter()
                .filter(|e| e.stage == s && e.kind == TraceKind::Forward)
                .count();
            let b = r
                .trace
                .iter()
                .filter(|e| e.stage == s && e.kind == TraceKind::Backward)
                .count();
            assert_eq!(f, cfg.n_micro);
            assert_eq!(b, cfg.n_micro);
        }
        // Events are well-formed.
        for e in &r.trace {
            assert!(e.end >= e.start, "negative duration {e:?}");
        }
        // Compute events on one device never overlap.
        for s in 0..cfg.pp {
            let mut evs: Vec<_> = r
                .trace
                .iter()
                .filter(|e| {
                    e.stage == s && matches!(e.kind, TraceKind::Forward | TraceKind::Backward)
                })
                .collect();
            evs.sort_by(|a, b| a.start.partial_cmp(&b.start).unwrap());
            for w in evs.windows(2) {
                assert!(w[1].start >= w[0].end - 1e-12, "overlap on stage {s}");
            }
        }
    }

    #[test]
    fn single_stage_pipeline_works() {
        let mut cfg = SimConfig::paper_gpt_2_5b();
        cfg.pp = 1;
        cfg.tp = 8;
        let r = simulate(&cfg);
        assert!(r.iteration_time_s > 0.0);
        assert_eq!(r.interstage_bytes, 0.0);
    }

    #[test]
    fn training_days_projection() {
        let r = simulate(&SimConfig::paper_gpt_2_5b());
        let days = r.training_days(230_000);
        assert!((days - r.iteration_time_s * 230_000.0 / 86_400.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "no kernel model for top-k")]
    fn simulate_refuses_a_top_k_cb_plan() {
        simulate(&SimConfig::paper_gpt_2_5b().with_plan(QualityConfig::cb_topk(0.1)));
    }
}
