//! CPI-stack-style execution-time breakdown (paper §3, Fig. 3 / Fig. 10).

use crate::{simulate, SimConfig};

/// Execution-time breakdown of one iteration, measured the way the paper
/// measures it (§3): "we turn off each communication/computation and
/// observe the execution time difference".
///
/// `fwd_bwd` is the iteration time with *all* communication free (pure
/// compute + pipeline bubble); each `*_exposed` field is the extra time
/// attributable to that communication class. Like a CPI stack, the parts
/// need not sum exactly to the total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Breakdown {
    /// Full iteration time with everything enabled.
    pub total: f64,
    /// Compute + bubble (all communication volumes zeroed).
    pub fwd_bwd: f64,
    /// Exposed data-parallel communication time.
    pub dp_exposed: f64,
    /// Exposed inter-stage (pipeline p2p) communication time.
    pub interstage_exposed: f64,
    /// Exposed embedding synchronization time.
    pub emb_exposed: f64,
}

impl Breakdown {
    /// Total exposed communication time.
    pub fn comm_exposed(&self) -> f64 {
        self.dp_exposed + self.interstage_exposed + self.emb_exposed
    }
}

/// A config variant with the data-parallel class made free: volumes are
/// zeroed and the DP-side compression (which would otherwise still charge
/// kernel time) is stripped, matching the paper's "turn this communication
/// off" methodology.
fn with_free_dp(cfg: &SimConfig) -> SimConfig {
    let mut c = cfg.clone();
    c.dp_grad_bytes = 0;
    c.plan.sc = None;
    c.plan.naive_dp_rank = None;
    c
}

/// A config variant with inter-stage traffic made free (volumes zeroed and
/// compressed backpropagation stripped).
fn with_free_interstage(cfg: &SimConfig) -> SimConfig {
    let mut c = cfg.clone();
    c.act_bytes = 0;
    c.plan.cb = None;
    c
}

/// Computes the breakdown by ablation re-simulation.
pub fn breakdown(cfg: &SimConfig) -> Breakdown {
    let full = simulate(cfg).iteration_time_s;

    // Free DP + EMB (they share dp_grad_bytes); isolate EMB by comparing
    // against a run where only EMB volume is zeroed.
    let no_dp_emb = simulate(&with_free_dp(cfg)).iteration_time_s;

    // EMB-only ablation: simulate with embedding volume zeroed. The
    // embedding volume comes from the model config; emulate by setting
    // vocab to 0 in a copy.
    let mut no_emb_cfg = cfg.clone();
    no_emb_cfg.model.vocab = 0;
    let no_emb = simulate(&no_emb_cfg).iteration_time_s;

    let no_interstage = simulate(&with_free_interstage(cfg)).iteration_time_s;

    // Pure compute: everything free.
    let mut free = with_free_interstage(&with_free_dp(cfg));
    free.model.vocab = 0;
    let fwd_bwd = simulate(&free).iteration_time_s;

    let emb_exposed = (full - no_emb).max(0.0);
    let dp_exposed = ((full - no_dp_emb) - emb_exposed).max(0.0);
    let interstage_exposed = (full - no_interstage).max(0.0);
    Breakdown {
        total: full,
        fwd_bwd,
        dp_exposed,
        interstage_exposed,
        emb_exposed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opt_schedule::QualityConfig;

    #[test]
    fn breakdown_components_are_nonnegative_and_bounded() {
        let b = breakdown(&SimConfig::paper_gpt_2_5b());
        assert!(b.fwd_bwd > 0.0);
        assert!(b.dp_exposed >= 0.0);
        assert!(b.interstage_exposed >= 0.0);
        assert!(b.emb_exposed >= 0.0);
        assert!(b.fwd_bwd < b.total);
        assert!(b.comm_exposed() < b.total);
    }

    #[test]
    fn fig3_shape_communication_is_significant() {
        // Fig. 3's point: even on a fast interconnect, a significant
        // fraction of time goes to inter-node communication. Expect the
        // exposed comm to be 10-50 % of the iteration.
        let b = breakdown(&SimConfig::paper_gpt_2_5b());
        let frac = b.comm_exposed() / b.total;
        assert!(frac > 0.10 && frac < 0.50, "comm fraction {frac}");
    }

    #[test]
    fn fig10_cb_cuts_exposed_interstage_time() {
        // Fig. 10: CB reduces exposed backward inter-stage communication
        // by ~78 % (8.3B). Accept > 40 % on either model.
        for cfg in [SimConfig::paper_gpt_2_5b(), SimConfig::paper_gpt_8_3b()] {
            let base = breakdown(&cfg);
            let cb = breakdown(&cfg.clone().with_plan(QualityConfig::cb().at_paper_ranks()));
            let cut = 1.0 - cb.interstage_exposed / base.interstage_exposed.max(1e-9);
            assert!(cut > 0.4, "{}: interstage cut only {cut}", cfg.model.name);
        }
    }

    #[test]
    fn fig10_fe_cuts_exposed_emb_time() {
        // Fig. 10: FE reduces the embedding bar by ~40 %.
        let cfg = SimConfig::paper_gpt_8_3b();
        let base = breakdown(&cfg.clone().with_plan(QualityConfig::cb().at_paper_ranks()));
        let fe = breakdown(&cfg.with_plan(QualityConfig::cb_fe().at_paper_ranks()));
        let cut = 1.0 - fe.emb_exposed / base.emb_exposed.max(1e-9);
        assert!(cut > 0.2 && cut < 0.7, "emb cut {cut}");
    }

    #[test]
    fn fig10_full_stack_cuts_total_comm() {
        // Fig. 10: the paper reports a 63.29 % cut of total exposed
        // communication on GPT-8.3B. Our simulator reproduces the
        // direction but a smaller factor (~0.29): with SC at the paper's
        // 75 % stage fraction, the *last* stage's uncompressed DP
        // all-reduce remains on the modelled critical path, while in the
        // paper's measured system it overlapped better. EXPERIMENTS.md
        // discusses the divergence.
        let cfg = SimConfig::paper_gpt_8_3b();
        let base = breakdown(&cfg);
        let full = breakdown(&cfg.with_plan(QualityConfig::cb_fe_sc().at_paper_ranks()));
        let cut = 1.0 - full.comm_exposed() / base.comm_exposed();
        assert!(cut > 0.25, "total comm cut only {cut}");
    }

    #[test]
    fn compute_time_is_plan_invariant() {
        // Compression must not change the compute+bubble floor.
        let cfg = SimConfig::paper_gpt_2_5b();
        let b0 = breakdown(&cfg);
        let b1 = breakdown(&cfg.with_plan(QualityConfig::cb_fe_sc().at_paper_ranks()));
        assert!((b0.fwd_bwd - b1.fwd_bwd).abs() < 1e-4);
    }
}
