//! Memory-overhead accounting (paper Fig. 12).

use crate::config::TrainerConfig;
use crate::control::WorkerAck;

/// Per-GPU (per-worker) peak memory estimate, in f32 elements, split the
/// way the paper's Fig. 12 splits it: the training baseline (weights,
/// gradients, optimizer state, activation caches) plus the additional
/// buffers compression introduces (low-rank factors / EF residuals) and
/// the lazy-error buffers of LEP.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MemoryReport {
    /// Parameters (max over workers).
    pub param_elems: usize,
    /// Gradient accumulators (== params).
    pub grad_elems: usize,
    /// Adam moments (2x params).
    pub optimizer_elems: usize,
    /// Peak pipeline activation stash (1F1B: stage 0 holds `pp` in-flight
    /// micro-batches x layer activations).
    pub activation_elems: usize,
    /// Compression working buffers: PowerSGD warm-start factors and DP
    /// error-feedback residuals (max over workers).
    pub compressor_elems: usize,
    /// Lazy-error-propagation buffers (max over workers).
    pub lazy_error_elems: usize,
}

impl MemoryReport {
    /// Baseline footprint (no compression), elements.
    pub fn baseline_total(&self) -> usize {
        self.param_elems + self.grad_elems + self.optimizer_elems + self.activation_elems
    }

    /// Total footprint including compression buffers, elements.
    pub fn total(&self) -> usize {
        self.baseline_total() + self.compressor_elems + self.lazy_error_elems
    }

    /// Fractional overhead of compression buffers over the baseline
    /// (paper: 5-10 % for the low-rank buffers).
    pub fn compression_overhead(&self) -> f64 {
        self.compressor_elems as f64 / self.baseline_total() as f64
    }

    /// Fractional overhead of the LEP buffers (paper: ~1 %).
    pub fn lep_overhead(&self) -> f64 {
        self.lazy_error_elems as f64 / self.baseline_total() as f64
    }
}

/// Builds the report from worker acks plus the analytic activation model.
pub(crate) fn memory_report(cfg: &TrainerConfig, acks: &[WorkerAck]) -> MemoryReport {
    let param_elems = acks.iter().map(|a| a.param_elems).max().unwrap_or(0);
    let compressor_elems = acks.iter().map(|a| a.compressor_elems).max().unwrap_or(0);
    let lazy_error_elems = acks.iter().map(|a| a.lazy_error_elems).max().unwrap_or(0);
    // 1F1B peak in-flight micro-batches on stage 0 is `pp`; each stashes
    // roughly (layers_on_stage x ~12 intermediate tensors + boundary) of
    // (micro_batch*seq) x hidden activations. A coarse but config-driven
    // model: in_flight * layers * 12 * micro_tokens * hidden.
    let micro_tokens = cfg.micro_batch * cfg.model.seq_len;
    let layers0 = cfg.model.layers_on_stage(0, cfg.pp);
    let activation_elems = cfg.pp * layers0 * 12 * micro_tokens * cfg.model.hidden;
    MemoryReport {
        param_elems,
        grad_elems: param_elems,
        optimizer_elems: 2 * param_elems,
        activation_elems,
        compressor_elems,
        lazy_error_elems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::QualityConfig;

    fn ack(param: usize, lazy: usize, comp: usize) -> WorkerAck {
        WorkerAck {
            param_elems: param,
            lazy_error_elems: lazy,
            compressor_elems: comp,
        }
    }

    #[test]
    fn report_takes_max_over_workers() {
        let cfg = TrainerConfig::small_test(QualityConfig::cb(), 1);
        let r = memory_report(&cfg, &[ack(100, 5, 20), ack(80, 9, 10)]);
        assert_eq!(r.param_elems, 100);
        assert_eq!(r.lazy_error_elems, 9);
        assert_eq!(r.compressor_elems, 20);
        assert_eq!(r.optimizer_elems, 200);
        assert!(r.total() > r.baseline_total());
    }

    #[test]
    fn overheads_are_fractions_of_baseline() {
        let cfg = TrainerConfig::small_test(QualityConfig::cb(), 1);
        let r = memory_report(&cfg, &[ack(1000, 10, 50)]);
        let base = r.baseline_total() as f64;
        assert!((r.compression_overhead() - 50.0 / base).abs() < 1e-12);
        assert!((r.lep_overhead() - 10.0 / base).abs() < 1e-12);
    }
}
