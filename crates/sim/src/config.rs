//! Simulation configuration.

use opt_model::GptConfig;
use opt_schedule::QualityConfig;

/// Full configuration of one simulated training job.
#[derive(Debug, Clone, PartialEq)]
pub struct SimConfig {
    /// Model being trained (paper-scale config; sizes volumes & flops).
    pub model: GptConfig,
    /// Per-message latency on the inter-node link, seconds (paper
    /// cluster, Infiniband HDR: 5 µs).
    pub inter_node_latency: f64,
    /// Tensor-parallel ways (paper: 8, intra-node).
    pub tp: usize,
    /// Data-parallel ways (paper: 4).
    pub dp: usize,
    /// Pipeline stages (paper: 4).
    pub pp: usize,
    /// Sequences per micro-batch (paper: 8).
    pub micro_batch: usize,
    /// Micro-batches per iteration per pipeline
    /// (= mini-batch / (micro-batch × dp); paper: 512/(8×4) = 16).
    pub n_micro: usize,
    /// Effective per-GPU compute throughput in FLOP/s (calibrated so that
    /// baseline iteration times land near the paper's Table 2).
    pub gpu_eff_flops: f64,
    /// Effective inter-node bandwidth per pipeline/DP flow in bytes/s
    /// (line rate derated for NCCL efficiency and NIC sharing).
    pub inter_node_eff_bw: f64,
    /// Bytes per gradient element in DP all-reduce (fp32 master grads).
    pub dp_grad_bytes: u32,
    /// Bytes per activation element on the wire (fp16).
    pub act_bytes: u32,
    /// Compression plan under test (the trainer's own plan type; price it
    /// at [`QualityConfig::at_paper_ranks`] for the paper's setting).
    pub plan: QualityConfig,
}

impl SimConfig {
    /// Builds a config for `model` with the paper's cluster & parallelism
    /// defaults (TP8 / DP4 / PP4, 128 GPUs, micro-batch 8, mini-batch 512).
    pub fn paper_defaults(model: GptConfig) -> Self {
        Self {
            model,
            inter_node_latency: 5e-6,
            tp: 8,
            dp: 4,
            pp: 4,
            micro_batch: 8,
            n_micro: 16,
            gpu_eff_flops: 31e12,
            inter_node_eff_bw: 8e9,
            dp_grad_bytes: 4,
            act_bytes: 2,
            plan: QualityConfig::baseline(),
        }
    }

    /// The paper's GPT-2.5B job.
    pub fn paper_gpt_2_5b() -> Self {
        Self::paper_defaults(GptConfig::gpt_2_5b())
    }

    /// The paper's GPT-8.3B job.
    pub fn paper_gpt_8_3b() -> Self {
        Self::paper_defaults(GptConfig::gpt_8_3b())
    }

    /// Returns a copy with a different compression plan.
    pub fn with_plan(mut self, plan: QualityConfig) -> Self {
        self.plan = plan;
        self
    }

    /// Returns a copy with a different TP/PP split (Fig. 14). Keeps DP
    /// fixed and recomputes nothing else; callers choose models whose
    /// layers divide `pp`.
    pub fn with_tp_pp(mut self, tp: usize, pp: usize) -> Self {
        self.tp = tp;
        self.pp = pp;
        self
    }

    /// Tokens processed per micro-batch.
    pub fn tokens_per_micro(&self) -> u64 {
        (self.micro_batch * self.model.seq_len) as u64
    }

    /// Transformer-layer parameters resident on one pipeline stage.
    pub fn stage_params(&self, stage: usize) -> u64 {
        let h = self.model.hidden as u64;
        self.model.layers_on_stage(stage, self.pp) as u64 * (12 * h * h + 13 * h)
    }

    /// Forward compute time of one micro-batch on `stage`, seconds:
    /// `2 * P_stage * tokens / (tp * gpu_eff_flops)`.
    pub fn fwd_time(&self, stage: usize) -> f64 {
        let flops = 2.0 * self.stage_params(stage) as f64 * self.tokens_per_micro() as f64;
        flops / (self.tp as f64 * self.gpu_eff_flops)
    }

    /// Backward compute time (2× forward, as in the paper's Fig. 4).
    pub fn bwd_time(&self, stage: usize) -> f64 {
        2.0 * self.fwd_time(stage)
    }

    /// Dense activation bytes crossing a stage boundary per micro-batch.
    pub fn act_volume_bytes(&self) -> f64 {
        (self.model.activation_elems_per_microbatch(self.micro_batch) * self.act_bytes as u64)
            as f64
    }

    /// Dense DP gradient bytes of one stage (fp32 master gradients).
    pub fn dp_volume_bytes(&self, stage: usize) -> f64 {
        (self.stage_params(stage) * self.dp_grad_bytes as u64) as f64
    }

    /// Embedding-table gradient bytes (the EMB sync volume).
    pub fn emb_volume_bytes(&self) -> f64 {
        (self.model.embedding_params() * self.dp_grad_bytes as u64) as f64
    }

    /// PowerSGD-compressed DP volume of one stage at the given rank:
    /// per layer, factors for the (h,3h), (h,h), (h,4h), (4h,h) weight
    /// matrices total `16 h r` elements vs `12 h^2 + 13 h` dense.
    pub fn dp_volume_compressed_bytes(&self, stage: usize, rank: usize) -> f64 {
        let h = self.model.hidden as f64;
        let layers = self.model.layers_on_stage(stage, self.pp) as f64;
        layers * 16.0 * h * rank as f64 * self.dp_grad_bytes as f64
    }

    /// PowerSGD-compressed activation volume at the given rank:
    /// `(n + m) * r` elements for the `(micro*seq) x hidden` matrix.
    pub fn act_volume_compressed_bytes(&self, rank: usize) -> f64 {
        let n = self.tokens_per_micro() as f64;
        let m = self.model.hidden as f64;
        (n + m) * rank as f64 * self.act_bytes as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_defaults_match_table1() {
        let c = SimConfig::paper_gpt_2_5b();
        assert_eq!((c.tp, c.dp, c.pp), (8, 4, 4));
        assert_eq!(c.micro_batch, 8);
        assert_eq!(c.n_micro, 16); // 512 / (8 * 4)
        assert_eq!(c.tp * c.dp * c.pp, 128); // 16 nodes x 8 A100s
    }

    #[test]
    fn fwd_time_scales_with_model_size() {
        let small = SimConfig::paper_gpt_2_5b();
        let large = SimConfig::paper_gpt_8_3b();
        assert!(large.fwd_time(0) > small.fwd_time(0));
        assert!((small.bwd_time(0) - 2.0 * small.fwd_time(0)).abs() < 1e-12);
    }

    #[test]
    fn compressed_volumes_are_much_smaller() {
        let c = SimConfig::paper_gpt_8_3b();
        // CB rank 16: >50x reduction for the 8192x3072 activation.
        let ratio = c.act_volume_bytes() / c.act_volume_compressed_bytes(16);
        assert!(ratio > 50.0, "CB ratio {ratio}");
        // DP rank 128 on h=3072: around 10x, the paper's quoted factor.
        let dpr = c.dp_volume_bytes(0) / c.dp_volume_compressed_bytes(0, 128);
        assert!(dpr > 5.0 && dpr < 20.0, "DP ratio {dpr}");
    }
}
