//! The four training workloads and the metric tables.
//!
//! Names here are the contract: `BENCHMARK.json` lists the same ones (a
//! unit test keeps the two in step) and later issues refer to them.

use opt_model::GptConfig;
use optimus_cc::{QualityConfig, TrainerConfig};

/// Tokens one iteration processes, on both models:
/// `micro_batch * seq_len * n_micro * dp`.
pub const TOKENS_PER_ITER: u64 = 512;

/// How a workload's world is launched.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Launch {
    /// `Trainer::launch`: worker threads over the zero-copy `LocalTransport`.
    Local,
    /// `Trainer::launch_processes`: one `bench_worker` OS process per rank
    /// over loopback TCP.
    Tcp,
}

#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub launch: Launch,
    /// Cold-start iterations, part of set-up.
    pub warmup: u64,
    /// Timed iterations every round runs before its validation pass; the
    /// quality metrics are taken at exactly `warmup + fixed_iters`.
    pub fixed_iters: u64,
    /// Its losses must equal this workload's bit for bit (Local ≡ TCP).
    pub twin: Option<&'static str>,
    /// Everything but the seed.
    template: TrainerConfig,
}

impl Workload {
    /// The generated input: the program sees only this config.
    pub fn config(&self, seed: u64) -> TrainerConfig {
        TrainerConfig {
            seed,
            ..self.template.clone()
        }
    }

    pub fn by_name(name: &str) -> Option<Workload> {
        Self::all().into_iter().find(|w| w.name == name)
    }

    /// Every workload has world size `pp * dp = 2`: the reference box has
    /// two cores, and four compute threads on two cores made the median
    /// iteration time wander ±17 % between identical runs.
    ///
    /// `val_sequences` puts 8192 held-out tokens behind `final_val_loss`
    /// on GPT-small and 4096 on GPT-mid, so that the figure's spread over
    /// seeds is the training run's and not the validation sample's.
    pub fn all() -> Vec<Workload> {
        let mid = GptConfig {
            name: "GPT-mid".into(),
            n_layers: 4,
            hidden: 128,
            heads: 4,
            vocab: 256,
            seq_len: 32,
        };
        let small = |name, launch, quality| Workload {
            name,
            launch,
            warmup: 10,
            fixed_iters: 150,
            twin: None,
            template: template(GptConfig::small(), 2, 1, 8, 160, 512, quality),
        };
        let dp2_mid = |name, launch, quality, twin| Workload {
            name,
            launch,
            warmup: 5,
            fixed_iters: 40,
            twin,
            template: template(mid.clone(), 1, 2, 2, 45, 128, quality),
        };
        let optcc = QualityConfig::cb_fe_sc();
        vec![
            small("pp2-small-local", Launch::Local, QualityConfig::cb_fe()),
            dp2_mid("dp2-mid-optcc-local", Launch::Local, optcc, None),
            dp2_mid(
                "dp2-mid-dense-tcp",
                Launch::Tcp,
                QualityConfig::baseline(),
                None,
            ),
            dp2_mid(
                "dp2-mid-optcc-tcp",
                Launch::Tcp,
                optcc,
                Some("dp2-mid-optcc-local"),
            ),
        ]
    }
}

/// A config with everything but the seed; `iters` is warm-up plus the
/// fixed count, so `train()` after those steps only validates.
fn template(
    model: GptConfig,
    pp: usize,
    dp: usize,
    n_micro: usize,
    iters: u64,
    val_sequences: usize,
    quality: QualityConfig,
) -> TrainerConfig {
    let cfg = TrainerConfig {
        model,
        pp,
        dp,
        micro_batch: 4,
        n_micro,
        iters,
        lr: 2e-3,
        seed: 0,
        quality,
        validate_every: 0,
        val_sequences,
        collect_error_stats: false,
        repeat_fraction: 0.5,
    };
    let tokens = cfg.micro_batch * cfg.model.seq_len * cfg.n_micro * cfg.dp;
    assert_eq!(tokens as u64, TOKENS_PER_ITER);
    cfg
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

#[derive(Debug, Clone, Copy)]
pub struct MetricDef {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Repeats exactly between two runs of the same code and seed.
    pub exact: bool,
    /// Smallest regression bound calibration may write (end-to-end only).
    pub floor: f64,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: Better,
    exact: bool,
    floor: f64,
) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact,
        floor,
    }
}

const fn layer(name: &'static str, unit: &'static str, better: Better, exact: bool) -> MetricDef {
    MetricDef {
        name,
        unit,
        better,
        exact,
        floor: 0.0,
    }
}

use Better::{Higher, Lower};

/// What a user of the system sees. None of these is ever 0 on any
/// workload, which is why per-class byte counts other than the embedding
/// one live in [`PER_LAYER`] (`net.dp_bytes_per_iter` is 0 at dp = 1,
/// `net.interstage_bytes_per_iter` at pp = 1) and failures are reported
/// through the result's `attempted` / `failed` counts.
pub const END_TO_END: &[MetricDef] = &[
    e2e("setup_s", "s", Lower, false, 0.25),
    e2e("iter_ms_p50", "ms", Lower, false, 0.05),
    e2e("tokens_per_s", "tokens/s", Higher, false, 0.05),
    e2e("wire_bytes_per_iter", "B", Lower, true, 0.001),
    e2e("emb_bytes_per_iter", "B", Lower, true, 0.001),
    e2e("final_val_loss", "nats", Lower, false, 0.02),
    e2e("peak_rss_mb", "MB", Lower, false, 0.10),
];

/// Single-layer figures, one group per crate. A metric a workload's
/// iteration never touches (PowerSGD on the dense baseline, the pipeline
/// link at pp = 1, in-process introspection on a TCP world) reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    // opt-tensor
    layer("tensor.gemm_fwd_us", "us", Lower, false),
    layer("tensor.gemm_attn_us", "us", Lower, false),
    layer("tensor.gemm_wgrad_us", "us", Lower, false),
    layer("tensor.gemm_psgd_us", "us", Lower, false),
    layer("tensor.ortho_us", "us", Lower, false),
    layer("tensor.gemm_gflops", "GFLOP/s", Higher, false),
    layer("tensor.kernel_calls_per_iter", "count", Lower, true),
    // opt-model
    layer("model.forward_ms", "ms", Lower, false),
    layer("model.backward_ms", "ms", Lower, false),
    layer("model.loss_ms", "ms", Lower, false),
    layer("model.optimizer_ms", "ms", Lower, false),
    // opt-data
    layer("data.batch_us", "us", Lower, false),
    // opt-compress
    layer("compress.cb_encode_us", "us", Lower, false),
    layer("compress.cb_passthrough_us", "us", Lower, false),
    layer("compress.cb_decode_us", "us", Lower, false),
    layer("compress.dp_encode_ms", "ms", Lower, false),
    layer("compress.dp_decode_ms", "ms", Lower, false),
    layer("compress.dp_ratio", "ratio", Higher, true),
    layer("compress.dp_rel_error", "ratio", Lower, true),
    layer("compress.lep_residual_norm", "norm", Lower, true),
    // opt-net
    layer("net.p2p_hop_us", "us", Lower, false),
    layer("net.allreduce_dense_ms", "ms", Lower, false),
    layer("net.allreduce_factor_ms", "ms", Lower, false),
    layer("net.hop_large_us", "us", Lower, false),
    layer("net.msgs_per_iter", "count", Lower, true),
    layer("net.dp_bytes_per_iter", "B", Lower, true),
    layer("net.interstage_bytes_per_iter", "B", Lower, true),
    // optimus-cc
    layer("core.dp_exchange_ms", "ms", Lower, false),
    layer("core.barrier_us", "us", Lower, false),
    layer("core.iter_ms_tail", "ms", Lower, false),
    layer("core.iter_tail_pctile", "%", Higher, false),
    layer("core.iter_ms_max", "ms", Lower, false),
    layer("core.round_spread_frac", "ratio", Lower, false),
    layer("core.replay_serial_ms", "ms", Lower, false),
    layer("core.compress_state_bytes", "B", Lower, true),
    // opt-schedule
    layer("schedule.bubble_frac_ideal", "ratio", Lower, true),
    layer("schedule.bubble_frac_measured", "ratio", Lower, true),
    layer("schedule.comm_overlap", "ratio", Higher, false),
    layer("schedule.parallel_efficiency", "ratio", Higher, false),
    // opt-ckpt
    layer("ckpt.snapshot_ms", "ms", Lower, false),
    layer("ckpt.snapshot_bytes", "B", Lower, true),
    // opt-trace
    layer("trace.overhead_frac", "ratio", Lower, false),
    layer("trace.spans_per_iter", "count", Lower, true),
    layer("trace.idle_ms", "ms", Lower, false),
    layer("trace.recv_wait_ms", "ms", Lower, false),
    layer("trace.dp_exchange_ms", "ms", Lower, false),
    layer("trace.embedding_sync_ms", "ms", Lower, false),
    layer("trace.unattributed_frac", "ratio", Lower, false),
];

/// Metric and workload names: a letter or digit, then at most 63 more of
/// `[A-Za-z0-9_.-]`.
pub fn valid_name(name: &str) -> bool {
    let mut chars = name.chars();
    chars.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && name.len() <= 64
        && chars.all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn name_validation() {
        for good in [
            "iter_ms_p50",
            "tensor.gemm_fwd_us",
            "dp2-mid-optcc-tcp",
            "9lives",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "a".repeat(65);
        for bad in ["", ".hidden", "-x", "a b", "a/b", "naïve", long.as_str()] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn tables_hold_valid_unique_names() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        names.extend(Workload::all().iter().map(|w| w.name));
        assert!(names.iter().all(|n| valid_name(n)));
        let unique: std::collections::BTreeSet<_> = names.iter().collect();
        assert_eq!(unique.len(), names.len());
        assert!(END_TO_END
            .iter()
            .any(|m| m.name == "setup_s" && m.unit == "s"));
    }

    #[test]
    fn every_workload_generates_a_two_rank_512_token_config() {
        for w in Workload::all() {
            let cfg = w.config(7);
            assert_eq!(cfg.pp * cfg.dp, 2, "{}", w.name);
            assert_eq!(cfg.seed, 7);
            assert_eq!(cfg.iters, w.warmup + w.fixed_iters, "{}", w.name);
            if let Some(twin) = w.twin {
                let twin = Workload::by_name(twin).expect("twin exists");
                assert_eq!(twin.config(7).fingerprint(), cfg.fingerprint());
            }
        }
    }

    /// `BENCHMARK.json` is what the driver reads; the tables above are
    /// what the harness prints. They must name the same things.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).unwrap();
        let names = |key: &str| -> Vec<(String, String, String)> {
            spec.get(key)
                .and_then(Json::as_arr)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_string();
                    (field("name"), field("unit"), field("better"))
                })
                .collect()
        };
        let table = |defs: &[MetricDef]| -> Vec<(String, String, String)> {
            defs.iter()
                .map(|m| (m.name.into(), m.unit.into(), m.better.as_str().into()))
                .collect()
        };
        assert_eq!(names("end_to_end"), table(END_TO_END));
        assert_eq!(names("per_layer"), table(PER_LAYER));
        let workloads: Vec<String> = names("workloads").into_iter().map(|w| w.0).collect();
        let ours: Vec<String> = Workload::all().iter().map(|w| w.name.to_string()).collect();
        assert_eq!(workloads, ours);
        for m in spec.get("end_to_end").and_then(Json::as_arr).unwrap() {
            let bound = m.get("bound").and_then(Json::as_f64).unwrap();
            assert!(bound > 0.0 && bound <= 0.25, "{m:?}");
        }
        assert_eq!(
            spec.get("run_seconds").and_then(Json::as_f64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
