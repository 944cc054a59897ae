//! One benchmark run of one workload: the end-to-end run (tracing off)
//! or the per-layer run (short untraced rounds for reference, a traced
//! round, the layer replay), with the correctness checks of each.

use crate::replay::replay;
use crate::rounds::{reference_report, run_rounds, Round, RoundKind, RoundsOutcome};
use crate::spans::record_self_times;
use crate::stats::{median, tail};
use crate::workload::{Workload, END_TO_END, PER_LAYER, TOKENS_PER_ITER};
use crate::world::{watchdog, Fabric, Progress};
use opt_net::TrafficClass;
use opt_trace::{analyze, SpanKind, Trace};
use optimus_cc::TrainReport;
use std::collections::BTreeMap;
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Rounds of an end-to-end run; samples are pooled over them.
const E2E_ROUNDS: usize = 5;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Sample counts and the like, for the human-readable line.
    pub note: String,
}

#[derive(Debug)]
pub struct RunOutcome {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Failed correctness checks and round errors; empty means correct.
    pub problems: Vec<String>,
}

impl RunOutcome {
    pub fn correct(&self) -> bool {
        self.problems.is_empty() && self.failed == 0
    }
}

/// Orders `values` as the metric table does, and insists on one finite
/// value per table entry.
fn in_table_order(
    table: &'static [crate::workload::MetricDef],
    mut values: BTreeMap<&'static str, (f64, String)>,
) -> Result<Vec<Metric>, String> {
    let metrics = table
        .iter()
        .map(|def| {
            let (value, note) = values
                .remove(def.name)
                .ok_or_else(|| format!("metric {} was not measured", def.name))?;
            if !value.is_finite() {
                return Err(format!("metric {} is not finite", def.name));
            }
            Ok(Metric {
                name: def.name.to_string(),
                value,
                unit: def.unit.to_string(),
                note,
            })
        })
        .collect::<Result<Vec<_>, String>>()?;
    match values.keys().next() {
        Some(extra) => Err(format!("metric {extra} is not in the table")),
        None => Ok(metrics),
    }
}

fn mean(v: &[f32]) -> f32 {
    v.iter().sum::<f32>() / v.len() as f32
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn same_outputs(a: &TrainReport, b: &TrainReport) -> bool {
    bits(&a.train_loss) == bits(&b.train_loss)
        && a.final_val_loss().to_bits() == b.final_val_loss().to_bits()
}

/// Checks on what the program computed, not how fast: finite losses, a
/// model that learns, and rounds that reproduce one another bit for bit.
fn check_reports(w: &Workload, reports: &[&TrainReport], problems: &mut Vec<String>) {
    let Some(first) = reports.first() else { return };
    let expected = (w.warmup + w.fixed_iters) as usize;
    if first.train_loss.len() != expected {
        problems.push(format!(
            "report holds {} losses, expected {expected}",
            first.train_loss.len()
        ));
    }
    if !(first.train_loss.iter().all(|l| l.is_finite()) && first.final_val_loss().is_finite()) {
        problems.push("a loss is not finite".into());
    }
    if first.train_loss.len() >= 20 {
        let n = first.train_loss.len();
        let (head, tail) = (
            mean(&first.train_loss[..10]),
            mean(&first.train_loss[n - 10..]),
        );
        if tail.partial_cmp(&head) != Some(std::cmp::Ordering::Less) {
            problems.push(format!(
                "no learning: mean of the last 10 losses {tail} is not below the first 10 {head}"
            ));
        }
    }
    for (i, r) in reports.iter().enumerate().skip(1) {
        if !same_outputs(first, r) {
            problems.push(format!("round {i} did not reproduce round 0's losses"));
        }
        if r.traffic.totals != first.traffic.totals {
            problems.push(format!("round {i} did not reproduce round 0's byte counts"));
        }
    }
}

/// Figures every run takes from its untraced rounds.
struct Timing {
    pooled_ms: Vec<f64>,
    p50_ms: f64,
    round_p50_ms: Vec<f64>,
}

fn timing<'a>(untraced: impl Iterator<Item = &'a Round> + Clone) -> Timing {
    let pooled_ms: Vec<f64> = untraced
        .clone()
        .flat_map(|r| r.samples_ms.iter().copied())
        .collect();
    Timing {
        p50_ms: median(&pooled_ms),
        round_p50_ms: untraced.map(|r| median(&r.samples_ms)).collect(),
        pooled_ms,
    }
}

fn reports(outcome: &RoundsOutcome) -> Vec<&TrainReport> {
    outcome
        .rounds
        .iter()
        .filter_map(|r| r.report.as_ref())
        .collect()
}

pub fn end_to_end(
    w: &Workload,
    seed: u64,
    seconds: f64,
    fabric: &Fabric,
    out_dir: &Path,
) -> Result<RunOutcome, String> {
    let time_box = Duration::from_secs_f64(seconds / E2E_ROUNDS as f64);
    let outcome = run_rounds(w, seed, &[RoundKind::Timed; E2E_ROUNDS], time_box, fabric);
    let mut problems = outcome.errors.clone();
    let reports = reports(&outcome);
    let Some(first) = reports.first() else {
        return Err(format!("no round completed: {}", problems.join("; ")));
    };
    check_reports(w, &reports, &mut problems);
    if let Some(twin) = w.twin {
        let twin = Workload::by_name(twin).expect("twin is a workload");
        let twin_fabric = Fabric::new(twin.launch, out_dir)?;
        match reference_report(&twin, seed, &twin_fabric) {
            Ok(reference) if same_outputs(first, &reference) => {}
            Ok(_) => problems.push(format!("losses differ from {}'s", twin.name)),
            Err(e) => problems.push(format!("{} reference: {e}", twin.name)),
        }
    }

    let t = timing(outcome.rounds.iter());
    let setups: Vec<f64> = outcome.rounds.iter().map(|r| r.setup_s).collect();
    let iters = first.train_loss.len().max(1) as f64;
    let timed_s = t.pooled_ms.iter().sum::<f64>() / 1e3;
    let n = t.pooled_ms.len();
    let values = BTreeMap::from([
        (
            "setup_s",
            (
                median(&setups),
                format!("median of {} rounds", setups.len()),
            ),
        ),
        (
            "iter_ms_p50",
            (t.p50_ms, format!("n={n}; per round {:.2?}", t.round_p50_ms)),
        ),
        (
            "tokens_per_s",
            (
                (TOKENS_PER_ITER as usize * n) as f64 / timed_s,
                format!("n={n}"),
            ),
        ),
        (
            "wire_bytes_per_iter",
            (first.traffic.total_bytes() as f64 / iters, String::new()),
        ),
        (
            "emb_bytes_per_iter",
            (
                first.traffic.bytes(TrafficClass::Embedding) as f64 / iters,
                String::new(),
            ),
        ),
        (
            "final_val_loss",
            (
                f64::from(first.final_val_loss()),
                format!("after {iters} iterations"),
            ),
        ),
        (
            "peak_rss_mb",
            (
                outcome.rounds[0].training_rss_kb as f64 / 1024.0,
                "first round, before validation".to_string(),
            ),
        ),
    ]);
    Ok(RunOutcome {
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: in_table_order(END_TO_END, values)?,
        problems,
    })
}

/// The `trace.*` group and the measured schedule figures, from the spans
/// of `n_iters` traced iterations. Times are means over ranks, per
/// iteration, of self time (a span's duration minus its children's).
fn trace_figures(trace: &Trace, n_iters: usize, wall_ms: f64) -> BTreeMap<&'static str, f64> {
    let mut sums: BTreeMap<SpanKind, f64> = BTreeMap::new();
    let (mut iteration_ns, mut ranks, mut spans) = (0.0, 0usize, 0usize);
    for buffer in &trace.buffers {
        if !buffer.spans.iter().any(|s| s.kind == SpanKind::Iteration) {
            continue; // the coordinator's buffer holds recovery spans only
        }
        ranks += 1;
        spans += buffer.spans.len();
        for (span, self_ns) in buffer.spans.iter().zip(record_self_times(&buffer.spans)) {
            *sums.entry(span.kind).or_default() += self_ns as f64;
            if span.kind == SpanKind::Iteration {
                iteration_ns += span.dur_ns as f64;
            }
        }
    }
    let per_rank_iter = (ranks * n_iters).max(1) as f64;
    let ms = |kind| sums.get(&kind).copied().unwrap_or(0.0) / per_rank_iter / 1e6;
    let report = analyze(trace, 0);
    let over_ranks = |f: fn(&opt_trace::RankSummary) -> f64| {
        report.ranks.iter().map(f).sum::<f64>() / report.ranks.len().max(1) as f64
    };
    BTreeMap::from([
        ("trace.spans_per_iter", spans as f64 / n_iters.max(1) as f64),
        (
            "trace.idle_ms",
            wall_ms - iteration_ns / per_rank_iter / 1e6,
        ),
        ("trace.recv_wait_ms", ms(SpanKind::Recv)),
        ("trace.dp_exchange_ms", ms(SpanKind::DpExchange)),
        ("trace.embedding_sync_ms", ms(SpanKind::EmbeddingSync)),
        (
            "trace.unattributed_frac",
            sums.get(&SpanKind::Iteration).copied().unwrap_or(0.0) / iteration_ns.max(1.0),
        ),
        (
            "schedule.bubble_frac_measured",
            over_ranks(|r| r.bubble_fraction),
        ),
        ("schedule.comm_overlap", over_ranks(|r| r.overlap_ratio)),
    ])
}

pub fn per_layer(
    w: &Workload,
    seed: u64,
    seconds: f64,
    fabric: &Fabric,
    spans_path: &Path,
) -> Result<RunOutcome, String> {
    // A quarter of the run each for two reference rounds and the traced
    // round; the replay's length is fixed by its iteration counts.
    let time_box = Duration::from_secs_f64(seconds / 4.0);
    let kinds = [
        RoundKind::Timed,
        RoundKind::TimedWithProbes,
        RoundKind::Traced,
    ];
    let outcome = run_rounds(w, seed, &kinds, time_box, fabric);
    let mut problems = outcome.errors.clone();
    let (Some(probes), Some(traced), Some(first)) = (
        outcome.rounds.iter().find_map(|r| r.probes.as_ref()),
        outcome.rounds.iter().find(|r| r.trace.is_some()),
        reports(&outcome).first().copied(),
    ) else {
        return Err(format!("a round did not complete: {}", problems.join("; ")));
    };
    check_reports(w, &reports(&outcome), &mut problems);
    let t = timing(outcome.rounds.iter().filter(|r| r.trace.is_none()));

    let progress = Arc::new(Progress::default());
    let (w2, fabric2) = (w.clone(), fabric.clone());
    let replayed = watchdog(Duration::from_secs(100), &progress, move |_| {
        replay(&w2, seed, &fabric2)
    })?;
    if let Err(e) = replayed.recorder.check_nesting() {
        problems.push(format!("replay spans: {e}"));
    }
    std::fs::write(spans_path, replayed.recorder.to_json().compact())
        .map_err(|e| format!("{}: {e}", spans_path.display()))?;

    let cfg = w.config(seed);
    let iters = first.train_loss.len().max(1) as f64;
    let traced_n = traced.samples_ms.len();
    let traced_mean = traced.samples_ms.iter().sum::<f64>() / traced_n as f64;
    let mut values: BTreeMap<&'static str, f64> = replayed.metrics;
    values.extend(trace_figures(
        traced.trace.as_ref().expect("traced round holds a trace"),
        traced_n,
        traced_mean,
    ));
    let (tail_pct, tail_ms) = tail(&t.pooled_ms).unwrap_or((50.0, t.p50_ms));
    let spread = |v: &[f64]| {
        v.iter().copied().fold(f64::MIN, f64::max) - v.iter().copied().fold(f64::MAX, f64::min)
    };
    // All ranks' serial compute (the replayed dp rank's, times dp) over the
    // time the world's pp * dp cores were held.
    let efficiency = values["core.replay_serial_ms"] / (cfg.pp as f64 * t.p50_ms);
    if !(efficiency > 0.25 && efficiency <= 1.1) {
        problems.push(format!(
            "schedule.parallel_efficiency {efficiency:.3} is outside (0.25, 1.1]: the replay does not account for the iteration"
        ));
    }
    let (snapshot_ms, snapshot_bytes) = probes.snapshot.unwrap_or((0.0, 0));
    values.extend([
        ("net.msgs_per_iter", {
            let msgs: u64 = TrafficClass::ALL
                .iter()
                .map(|&c| first.traffic.messages(c))
                .sum();
            msgs as f64 / iters
        }),
        (
            "net.dp_bytes_per_iter",
            first.traffic.bytes(TrafficClass::DataParallel) as f64 / iters,
        ),
        (
            "net.interstage_bytes_per_iter",
            first.traffic.bytes(TrafficClass::InterStage) as f64 / iters,
        ),
        ("core.barrier_us", probes.barrier_us),
        ("core.iter_ms_tail", tail_ms),
        ("core.iter_tail_pctile", tail_pct),
        (
            "core.iter_ms_max",
            t.pooled_ms.iter().copied().fold(f64::MIN, f64::max),
        ),
        ("core.round_spread_frac", spread(&t.round_p50_ms) / t.p50_ms),
        (
            "core.compress_state_bytes",
            probes.compress_state_bytes.unwrap_or(0) as f64,
        ),
        (
            "schedule.bubble_frac_ideal",
            opt_schedule::bubble_fraction(cfg.pp, cfg.n_micro),
        ),
        ("schedule.parallel_efficiency", efficiency),
        ("ckpt.snapshot_ms", snapshot_ms),
        ("ckpt.snapshot_bytes", snapshot_bytes as f64),
        (
            "trace.overhead_frac",
            (median(&traced.samples_ms) - t.p50_ms) / t.p50_ms,
        ),
    ]);
    let n = t.pooled_ms.len();
    let noted = values
        .into_iter()
        .map(|(name, value)| {
            let note = match name {
                "core.iter_ms_tail" | "core.iter_ms_max" | "core.round_spread_frac" => {
                    format!("n={n}")
                }
                n if n.starts_with("trace.") => format!("{traced_n} traced iterations"),
                _ => String::new(),
            };
            (name, (value, note))
        })
        .collect();
    Ok(RunOutcome {
        attempted: outcome.attempted,
        failed: outcome.failed,
        metrics: in_table_order(PER_LAYER, noted)?,
        problems,
    })
}
