//! The compression plan (paper §5–§7): which communications are
//! compressed and how. The numerical trainer runs it and the simulator
//! prices it; both read the same value.

use crate::sc_stage_count;

/// Which compressor compressed backpropagation uses on the inter-stage
/// link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CbMethod {
    /// PowerSGD low-rank factorization at the given rank (the paper's
    /// choice, §8).
    LowRank(usize),
    /// Top-k sparsification at the given density (the "Opt-CC (TopK)"
    /// bar of Fig. 3, shown by the paper to be unsuitable for p2p).
    TopK(f64),
}

/// Compressed-backpropagation knobs (§5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CbQuality {
    /// Compression method for the backward inter-stage traffic.
    pub method: CbMethod,
    /// Compress only epilogue sends (§5.2). `false` = compress every
    /// backward send (the "naive CB" of Fig. 3).
    pub epilogue_only: bool,
    /// Lazy error propagation on/off (§5.1; Table 4's LEP ablation). A
    /// quality technique only: it has no timing effect.
    pub lazy_error: bool,
}

impl CbQuality {
    /// The paper's setting at the given rank: low-rank with LEP and
    /// epilogue-only compression.
    pub fn paper(rank: usize) -> Self {
        Self {
            method: CbMethod::LowRank(rank),
            epilogue_only: true,
            lazy_error: true,
        }
    }
}

/// Selective-stage-compression knobs (§7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScQuality {
    /// Fraction of stages (earliest first) whose DP traffic is compressed.
    pub fraction: f64,
    /// PowerSGD rank for DP gradients.
    pub rank: usize,
}

/// The full compression plan of a run: the knob space of the paper's
/// evaluation. The presets carry the ranks sized for the small numerical
/// model; [`QualityConfig::at_paper_ranks`] moves them to the paper's.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QualityConfig {
    /// Compressed backpropagation.
    pub cb: Option<CbQuality>,
    /// Fused embedding synchronization (§6).
    pub fused_embedding: bool,
    /// Selective stage compression.
    pub sc: Option<ScQuality>,
    /// Naive DP compression of *all* stages at the given rank (Fig. 3
    /// "naive DP", Fig. 13 rank sweep).
    pub naive_dp_rank: Option<usize>,
}

impl QualityConfig {
    /// Default CB rank for the small numerical model (hidden 32): rank 4
    /// keeps roughly the paper's ~10x compression ratio on the
    /// `(micro*seq) x hidden` activation matrix.
    pub const SMALL_CB_RANK: usize = 4;
    /// Default DP rank for the small numerical model.
    pub const SMALL_DP_RANK: usize = 4;
    /// The paper's CB rank for inter-stage activation gradients (§8).
    pub const PAPER_CB_RANK: usize = 16;
    /// The paper's PowerSGD rank for data-parallel gradients (§8).
    pub const PAPER_DP_RANK: usize = 128;

    /// Megatron-LM baseline: no compression.
    pub fn baseline() -> Self {
        Self::default()
    }

    /// Compressed backpropagation only.
    pub fn cb() -> Self {
        Self {
            cb: Some(CbQuality::paper(Self::SMALL_CB_RANK)),
            ..Self::default()
        }
    }

    /// CB without lazy error propagation (Table 4 "CB (Non-LEP)").
    pub fn cb_non_lep() -> Self {
        Self {
            cb: Some(CbQuality {
                lazy_error: false,
                ..CbQuality::paper(Self::SMALL_CB_RANK)
            }),
            ..Self::default()
        }
    }

    /// CB + fused embedding synchronization.
    pub fn cb_fe() -> Self {
        Self {
            fused_embedding: true,
            ..Self::cb()
        }
    }

    /// Full Optimus-CC: CB + FE + selective stage compression at the
    /// paper's 75 % fraction.
    pub fn cb_fe_sc() -> Self {
        Self {
            sc: Some(ScQuality {
                fraction: 0.75,
                rank: Self::SMALL_DP_RANK,
            }),
            ..Self::cb_fe()
        }
    }

    /// Naive full-DP compression (Fig. 3 "naive DP").
    pub fn naive_dp(rank: usize) -> Self {
        Self {
            naive_dp_rank: Some(rank),
            ..Self::default()
        }
    }

    /// Naive CB: compress every backward send, no LEP (Fig. 3 "naive CB").
    pub fn naive_cb(rank: usize) -> Self {
        Self {
            cb: Some(CbQuality {
                method: CbMethod::LowRank(rank),
                epilogue_only: false,
                lazy_error: false,
            }),
            ..Self::default()
        }
    }

    /// Full Optimus-CC but with top-k inter-stage compression (Fig. 3
    /// "Opt-CC (TopK)") — the paper's evidence that top-k is unsuitable
    /// for point-to-point traffic.
    pub fn cb_topk(density: f64) -> Self {
        Self {
            cb: Some(CbQuality {
                method: CbMethod::TopK(density),
                epilogue_only: true,
                lazy_error: true,
            }),
            ..Self::cb_fe_sc()
        }
    }

    /// Table 2 column order: (label, plan).
    pub fn table2_columns() -> Vec<(&'static str, QualityConfig)> {
        vec![
            ("Baseline", Self::baseline()),
            ("CB", Self::cb()),
            ("CB+FE", Self::cb_fe()),
            ("CB+FE+SC", Self::cb_fe_sc()),
        ]
    }

    /// The same plan at the paper's ranks: a low-rank CB link moves to
    /// [`Self::PAPER_CB_RANK`] and selective stage compression to
    /// [`Self::PAPER_DP_RANK`]. Top-k densities and the naive-DP rank are
    /// left alone; callers pass those explicitly.
    pub fn at_paper_ranks(mut self) -> Self {
        if let Some(CbQuality {
            method: CbMethod::LowRank(rank),
            ..
        }) = &mut self.cb
        {
            *rank = Self::PAPER_CB_RANK;
        }
        if let Some(sc) = &mut self.sc {
            sc.rank = Self::PAPER_DP_RANK;
        }
        self
    }

    /// Number of earliest of `pp` stages whose DP traffic is compressed:
    /// selective stage compression covers [`sc_stage_count`] of them,
    /// naive DP compression covers all.
    pub fn dp_compressed_stages(&self, pp: usize) -> usize {
        match (self.sc, self.naive_dp_rank) {
            (Some(sc), _) => sc_stage_count(sc.fraction, pp),
            (None, Some(_)) => pp,
            (None, None) => 0,
        }
    }

    /// The DP compression rank in effect (SC or naive), if any.
    pub fn dp_rank(&self) -> Option<usize> {
        self.sc.map(|s| s.rank).or(self.naive_dp_rank)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_compose() {
        assert!(QualityConfig::baseline().cb.is_none());
        assert!(QualityConfig::cb().cb.unwrap().lazy_error);
        assert!(!QualityConfig::cb_non_lep().cb.unwrap().lazy_error);
        assert!(QualityConfig::cb_fe().fused_embedding);
        assert!(QualityConfig::cb_fe_sc().sc.is_some());
        assert!(matches!(
            QualityConfig::cb_topk(0.1).cb.unwrap().method,
            CbMethod::TopK(_)
        ));
        assert!(!QualityConfig::naive_cb(4).cb.unwrap().epilogue_only);
    }

    #[test]
    fn plan_presets_compose() {
        let full = QualityConfig::cb_fe_sc();
        assert!(full.cb.is_some());
        assert!(full.fused_embedding);
        assert!(full.sc.is_some());
        assert!(full.naive_dp_rank.is_none());
        let cb = QualityConfig::cb();
        assert!(!cb.fused_embedding && cb.sc.is_none());
        assert!(QualityConfig::naive_cb(16)
            .cb
            .is_some_and(|p| !p.epilogue_only));
    }

    #[test]
    fn table2_columns_are_ordered() {
        let cols = QualityConfig::table2_columns();
        assert_eq!(cols.len(), 4);
        assert_eq!(cols[0].0, "Baseline");
        assert_eq!(cols[3].0, "CB+FE+SC");
    }

    #[test]
    fn sc_stage_count_rounds_075() {
        let sc = QualityConfig::cb_fe_sc();
        assert_eq!(sc.dp_compressed_stages(4), 3);
        let at = |fraction| QualityConfig {
            sc: Some(ScQuality { fraction, rank: 1 }),
            ..QualityConfig::baseline()
        };
        assert_eq!(at(1.0).dp_compressed_stages(4), 4);
        assert_eq!(at(0.0).dp_compressed_stages(4), 0);
        // opt-schedule's rule: at pp <= 2 the paper's 0.75 covers every
        // stage, in the simulator as in the trainer.
        for pp in [1, 2] {
            assert_eq!(sc.dp_compressed_stages(pp), pp);
        }
    }

    #[test]
    fn every_preset_derives_its_dp_stages_ranks_and_paper_ranks() {
        use QualityConfig as Q;
        let low = |r| Some(CbMethod::LowRank(r));
        // (preset, DP stages at pp 4, DP rank, CB method, the same three
        // at the paper's ranks).
        let table = [
            (Q::baseline(), 0, None, None, None, None),
            (Q::cb(), 0, None, low(4), None, low(16)),
            (Q::cb_non_lep(), 0, None, low(4), None, low(16)),
            (Q::cb_fe(), 0, None, low(4), None, low(16)),
            (Q::cb_fe_sc(), 3, Some(4), low(4), Some(128), low(16)),
            (Q::naive_dp(8), 4, Some(8), None, Some(8), None),
            (Q::naive_cb(2), 0, None, low(2), None, low(16)),
            (
                Q::cb_topk(0.1),
                3,
                Some(4),
                Some(CbMethod::TopK(0.1)),
                Some(128),
                Some(CbMethod::TopK(0.1)),
            ),
        ];
        for (q, stages, rank, cb, paper_rank, paper_cb) in table {
            let method = |q: Q| q.cb.map(|cb| cb.method);
            assert_eq!(q.dp_compressed_stages(4), stages, "{q:?}");
            assert_eq!(q.dp_rank(), rank, "{q:?}");
            assert_eq!(method(q), cb, "{q:?}");
            let p = q.at_paper_ranks();
            assert_eq!(p.dp_compressed_stages(4), stages, "{q:?}");
            assert_eq!(p.dp_rank(), paper_rank, "{q:?}");
            assert_eq!(method(p), paper_cb, "{q:?}");
            // Only ranks move: every switch of the plan is kept.
            assert_eq!(p.fused_embedding, q.fused_embedding);
            assert_eq!(p.sc.map(|s| s.fraction), q.sc.map(|s| s.fraction));
            assert_eq!(
                p.cb.map(|c| (c.epilogue_only, c.lazy_error)),
                q.cb.map(|c| (c.epilogue_only, c.lazy_error))
            );
            assert_eq!(p.naive_dp_rank, q.naive_dp_rank);
        }
    }
}
