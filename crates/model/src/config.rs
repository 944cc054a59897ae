//! GPT model configurations, including the paper's evaluation zoo.

use serde::{Deserialize, Serialize};

/// Configuration of a GPT-style model.
///
/// Two roles:
///
/// * **Numerical role** — small configs ([`GptConfig::tiny`],
///   [`GptConfig::small`]) instantiate real trainable models via
///   [`crate::Stage::build_pipeline`].
/// * **Analytic role** — paper-scale configs ([`GptConfig::gpt_2_5b`] etc.)
///   are used by the performance simulator to size communication volumes
///   via [`GptConfig::param_count`] and
///   [`GptConfig::activation_elems_per_microbatch`]; they are never
///   instantiated as real tensors.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct GptConfig {
    /// Human-readable name (e.g. `"GPT-8.3B"`).
    pub name: String,
    /// Number of transformer layers.
    pub n_layers: usize,
    /// Hidden dimensionality.
    pub hidden: usize,
    /// Attention heads.
    pub heads: usize,
    /// Vocabulary size.
    pub vocab: usize,
    /// Sequence length.
    pub seq_len: usize,
}

impl GptConfig {
    /// A tiny trainable config for unit tests (vocab 32, hidden 16,
    /// 4 layers — one per pipeline stage at PP=4).
    pub fn tiny() -> Self {
        Self {
            name: "GPT-tiny".into(),
            n_layers: 4,
            hidden: 16,
            heads: 2,
            vocab: 32,
            seq_len: 8,
        }
    }

    /// A small trainable config for quality experiments (the "GPT" of the
    /// numerical substrate: big enough to show compression error effects,
    /// small enough to pretrain in seconds on CPU).
    pub fn small() -> Self {
        Self {
            name: "GPT-small".into(),
            n_layers: 4,
            hidden: 32,
            heads: 4,
            vocab: 64,
            seq_len: 16,
        }
    }

    /// The paper's GPT-2.5B (Table 1): 52 layers, hidden 1920.
    pub fn gpt_2_5b() -> Self {
        Self {
            name: "GPT-2.5B".into(),
            n_layers: 52,
            hidden: 1920,
            heads: 24,
            vocab: 51_200,
            seq_len: 1024,
        }
    }

    /// The paper's GPT-8.3B (Table 1): 72 layers, hidden 3072.
    pub fn gpt_8_3b() -> Self {
        Self {
            name: "GPT-8.3B".into(),
            n_layers: 72,
            hidden: 3072,
            heads: 24,
            vocab: 51_200,
            seq_len: 1024,
        }
    }

    /// The paper's GPT-9.2B (Fig. 14): 80 layers, hidden 3072, chosen so
    /// layers divide evenly into up to 16 pipeline stages.
    pub fn gpt_9_2b() -> Self {
        Self {
            name: "GPT-9.2B".into(),
            n_layers: 80,
            hidden: 3072,
            heads: 24,
            vocab: 51_200,
            seq_len: 1024,
        }
    }

    /// A ~39B intermediate model for the Fig. 16 scalability sweep
    /// (48 layers, hidden 8192 — Megatron-style scaling).
    pub fn gpt_39b() -> Self {
        Self {
            name: "GPT-39B".into(),
            n_layers: 48,
            hidden: 8192,
            heads: 64,
            vocab: 51_200,
            seq_len: 1024,
        }
    }

    /// GPT-3 175B (Fig. 16 endpoint): 96 layers, hidden 12288.
    pub fn gpt_175b() -> Self {
        Self {
            name: "GPT-175B".into(),
            n_layers: 96,
            hidden: 12_288,
            heads: 96,
            vocab: 51_200,
            seq_len: 2048,
        }
    }

    /// Analytic parameter count using the standard Megatron accounting:
    /// `12 l h^2 + 13 l h + (V + L) h`.
    pub fn param_count(&self) -> u64 {
        let h = self.hidden as u64;
        let l = self.n_layers as u64;
        let v = self.vocab as u64;
        let s = self.seq_len as u64;
        12 * l * h * h + 13 * l * h + (v + s) * h
    }

    /// Parameters of the shared embedding table (the EMB-sync volume).
    pub fn embedding_params(&self) -> u64 {
        (self.vocab * self.hidden) as u64
    }

    /// Activation elements crossing an inter-stage boundary for one
    /// micro-batch: `micro_batch x seq_len x hidden`.
    pub fn activation_elems_per_microbatch(&self, micro_batch: usize) -> u64 {
        (micro_batch * self.seq_len * self.hidden) as u64
    }

    /// Number of layers assigned to stage `stage` of `pp` total (front
    /// stages take the remainder, matching Megatron's default split).
    pub fn layers_on_stage(&self, stage: usize, pp: usize) -> usize {
        assert!(stage < pp, "stage index out of range");
        let base = self.n_layers / pp;
        let extra = self.n_layers % pp;
        base + usize::from(stage < extra)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_param_counts_are_in_band() {
        // The paper names its models by rounded parameter counts; our
        // analytic counts must land within 10 % of the nameplate.
        let cases = [
            (GptConfig::gpt_2_5b(), 2.5e9),
            (GptConfig::gpt_8_3b(), 8.3e9),
            (GptConfig::gpt_9_2b(), 9.2e9),
            (GptConfig::gpt_175b(), 175e9),
        ];
        for (cfg, nameplate) in cases {
            let count = cfg.param_count() as f64;
            let rel = (count - nameplate).abs() / nameplate;
            assert!(
                rel < 0.10,
                "{}: {count:.3e} vs {nameplate:.3e} ({rel:.2})",
                cfg.name
            );
        }
    }

    #[test]
    fn layers_on_stage_partitions_all_layers() {
        let cfg = GptConfig::gpt_2_5b(); // 52 layers
        for pp in [1usize, 2, 4, 8] {
            let total: usize = (0..pp).map(|s| cfg.layers_on_stage(s, pp)).sum();
            assert_eq!(total, 52, "pp={pp}");
        }
    }

    #[test]
    fn uneven_split_puts_extra_layers_up_front() {
        let cfg = GptConfig {
            n_layers: 10,
            ..GptConfig::tiny()
        };
        let per: Vec<_> = (0..4).map(|s| cfg.layers_on_stage(s, 4)).collect();
        assert_eq!(per, vec![3, 3, 2, 2]);
    }

    #[test]
    fn activation_volume_formula() {
        let cfg = GptConfig::gpt_2_5b();
        // micro-batch 8 (paper Table 1): 8 * 1024 * 1920 elements
        assert_eq!(cfg.activation_elems_per_microbatch(8), 8 * 1024 * 1920);
    }

    #[test]
    fn bigger_models_have_more_params() {
        // The Fig. 16 scalability sweep, smallest to largest.
        let zoo = [
            GptConfig::gpt_2_5b(),
            GptConfig::gpt_8_3b(),
            GptConfig::gpt_39b(),
            GptConfig::gpt_175b(),
        ];
        for w in zoo.windows(2) {
            assert!(w[0].param_count() < w[1].param_count());
        }
    }

    #[test]
    fn embedding_params_match_vocab_times_hidden() {
        let cfg = GptConfig::gpt_8_3b();
        assert_eq!(cfg.embedding_params(), 51_200 * 3072);
    }
}
