//! Quality-experiment configuration (the numerical twin of `opt-sim`'s
//! `CompressionPlan`).

use opt_data::SyntheticCorpus;
use opt_model::GptConfig;

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

/// Compressed-backpropagation quality knobs (§5).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CbQuality {
    /// Compression method for the backward inter-stage traffic.
    pub method: CbMethod,
    /// Compress only epilogue sends (§5.2).
    pub epilogue_only: bool,
    /// Lazy error propagation on/off (§5.1; Table 4's LEP ablation).
    pub lazy_error: bool,
}

impl CbQuality {
    /// The paper's setting for the small numerical model: low-rank with
    /// LEP and epilogue-only compression.
    pub fn paper(rank: usize) -> Self {
        Self {
            method: CbMethod::LowRank(rank),
            epilogue_only: true,
            lazy_error: true,
        }
    }
}

/// Selective-stage-compression quality knobs (§7).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScQuality {
    /// Fraction of stages (earliest first) whose DP traffic is compressed.
    pub fraction: f64,
    /// PowerSGD rank for DP gradients.
    pub rank: usize,
}

/// The full compression configuration of a quality experiment.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct QualityConfig {
    /// Compressed backpropagation.
    pub cb: Option<CbQuality>,
    /// Fused embedding synchronization.
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

    /// Table 2 column order for quality experiments.
    pub fn table2_columns() -> Vec<(&'static str, QualityConfig)> {
        vec![
            ("Baseline", Self::baseline()),
            ("CB", Self::cb()),
            ("CB+FE", Self::cb_fe()),
            ("CB+FE+SC", Self::cb_fe_sc()),
        ]
    }
}

/// Full configuration of a numerical training run.
#[derive(Debug, Clone)]
pub struct TrainerConfig {
    /// Model architecture (small, trainable configs).
    pub model: GptConfig,
    /// Pipeline stages.
    pub pp: usize,
    /// Data-parallel ways.
    pub dp: usize,
    /// Sequences per micro-batch.
    pub micro_batch: usize,
    /// Micro-batches per iteration.
    pub n_micro: usize,
    /// Training iterations.
    pub iters: u64,
    /// Adam learning rate.
    pub lr: f32,
    /// Master seed (weights, data, compressors).
    pub seed: u64,
    /// Compression configuration under test.
    pub quality: QualityConfig,
    /// Run validation every this many iterations (0 = only at the end).
    pub validate_every: u64,
    /// Sequences per validation batch.
    pub val_sequences: usize,
    /// Collect Fig. 11 error statistics (costs memory/time).
    pub collect_error_stats: bool,
    /// Fraction of repetition-structured sequences in the corpus.
    pub repeat_fraction: f64,
}

impl TrainerConfig {
    /// A small 4-stage, 2-way-DP configuration used by most quality
    /// experiments: GPT-small (4 layers, hidden 32, vocab 64).
    pub fn small_test(quality: QualityConfig, iters: u64) -> Self {
        Self {
            model: GptConfig::small(),
            pp: 4,
            dp: 2,
            micro_batch: 4,
            n_micro: 8,
            iters,
            lr: 2e-3,
            seed: 1234,
            quality,
            validate_every: 10,
            val_sequences: 32,
            collect_error_stats: false,
            repeat_fraction: 0.5,
        }
    }

    /// A tiny 2-stage configuration for fast unit tests.
    pub fn tiny_test(quality: QualityConfig, iters: u64) -> Self {
        Self {
            model: GptConfig::tiny(),
            pp: 2,
            dp: 2,
            micro_batch: 2,
            n_micro: 4,
            iters,
            lr: 3e-3,
            seed: 7,
            quality,
            validate_every: 0,
            val_sequences: 16,
            collect_error_stats: false,
            repeat_fraction: 0.5,
        }
    }

    /// The corpus this run trains on (a pure function of the config).
    pub fn corpus(&self) -> SyntheticCorpus {
        SyntheticCorpus::new(
            self.model.vocab,
            self.model.seq_len,
            self.repeat_fraction,
            self.seed ^ 0xDA7A,
        )
    }

    /// Number of earliest stages covered by selective stage compression
    /// ([`opt_schedule::sc_stage_count`]); naive DP compression covers all.
    pub fn sc_stage_count(&self) -> usize {
        match (self.quality.sc, self.quality.naive_dp_rank) {
            (Some(sc), _) => opt_schedule::sc_stage_count(sc.fraction, self.pp),
            (None, Some(_)) => self.pp,
            (None, None) => 0,
        }
    }

    /// The DP compression rank in effect (SC or naive), if any.
    pub fn dp_rank(&self) -> Option<usize> {
        self.quality
            .sc
            .map(|s| s.rank)
            .or(self.quality.naive_dp_rank)
    }

    /// Fingerprint over every *state-affecting* configuration field, used
    /// to refuse restoring a snapshot into an incompatible run.
    ///
    /// Fields that change what training state means (model shape,
    /// parallelism, batching, seed, learning rate, compression plan, data
    /// mix) are hashed; fields that only change observation (`iters`,
    /// `validate_every`, `val_sequences`, `collect_error_stats`) are not —
    /// resuming a snapshot to train *longer* or validate *more often* is
    /// legitimate.
    pub fn fingerprint(&self) -> u64 {
        use opt_tensor::Writer;
        let mut w = Writer::new();
        w.usize(self.model.n_layers);
        w.usize(self.model.hidden);
        w.usize(self.model.heads);
        w.usize(self.model.vocab);
        w.usize(self.model.seq_len);
        w.usize(self.pp);
        w.usize(self.dp);
        w.usize(self.micro_batch);
        w.usize(self.n_micro);
        w.f32(self.lr);
        w.u64(self.seed);
        w.f64(self.repeat_fraction);
        match self.quality.cb {
            None => w.u8(0),
            Some(cb) => {
                w.u8(1);
                match cb.method {
                    CbMethod::LowRank(rank) => {
                        w.u8(0);
                        w.usize(rank);
                    }
                    CbMethod::TopK(density) => {
                        w.u8(1);
                        w.f64(density);
                    }
                }
                w.u8(cb.epilogue_only as u8);
                w.u8(cb.lazy_error as u8);
            }
        }
        w.u8(self.quality.fused_embedding as u8);
        match self.quality.sc {
            None => w.u8(0),
            Some(sc) => {
                w.u8(1);
                w.f64(sc.fraction);
                w.usize(sc.rank);
            }
        }
        match self.quality.naive_dp_rank {
            None => w.u8(0),
            Some(rank) => {
                w.u8(1);
                w.usize(rank);
            }
        }
        opt_ckpt::fnv1a64(&w.into_bytes())
    }
}

impl opt_tensor::Persist for TrainerConfig {
    fn persist(&self, w: &mut opt_tensor::Writer) {
        self.model.name.persist(w);
        w.usize(self.model.n_layers);
        w.usize(self.model.hidden);
        w.usize(self.model.heads);
        w.usize(self.model.vocab);
        w.usize(self.model.seq_len);
        w.usize(self.pp);
        w.usize(self.dp);
        w.usize(self.micro_batch);
        w.usize(self.n_micro);
        w.u64(self.iters);
        w.f32(self.lr);
        w.u64(self.seed);
        match self.quality.cb {
            None => w.u8(0),
            Some(cb) => {
                w.u8(1);
                match cb.method {
                    CbMethod::LowRank(rank) => {
                        w.u8(0);
                        w.usize(rank);
                    }
                    CbMethod::TopK(density) => {
                        w.u8(1);
                        w.f64(density);
                    }
                }
                w.u8(cb.epilogue_only as u8);
                w.u8(cb.lazy_error as u8);
            }
        }
        w.u8(self.quality.fused_embedding as u8);
        match self.quality.sc {
            None => w.u8(0),
            Some(sc) => {
                w.u8(1);
                w.f64(sc.fraction);
                w.usize(sc.rank);
            }
        }
        match self.quality.naive_dp_rank {
            None => w.u8(0),
            Some(rank) => {
                w.u8(1);
                w.usize(rank);
            }
        }
        w.u64(self.validate_every);
        w.usize(self.val_sequences);
        w.u8(self.collect_error_stats as u8);
        w.f64(self.repeat_fraction);
    }

    fn restore(r: &mut opt_tensor::Reader<'_>) -> Result<Self, opt_tensor::PersistError> {
        use opt_tensor::PersistError;
        let flag = |r: &mut opt_tensor::Reader<'_>, what| match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            tag => Err(PersistError::BadTag { what, tag }),
        };
        let model = GptConfig {
            name: String::restore(r)?,
            n_layers: r.usize()?,
            hidden: r.usize()?,
            heads: r.usize()?,
            vocab: r.usize()?,
            seq_len: r.usize()?,
        };
        let pp = r.usize()?;
        let dp = r.usize()?;
        let micro_batch = r.usize()?;
        let n_micro = r.usize()?;
        let iters = r.u64()?;
        let lr = r.f32()?;
        let seed = r.u64()?;
        let cb = match r.u8()? {
            0 => None,
            1 => {
                let method = match r.u8()? {
                    0 => CbMethod::LowRank(r.usize()?),
                    1 => CbMethod::TopK(r.f64()?),
                    tag => {
                        return Err(PersistError::BadTag {
                            what: "CbMethod",
                            tag,
                        })
                    }
                };
                Some(CbQuality {
                    method,
                    epilogue_only: flag(r, "CbQuality.epilogue_only")?,
                    lazy_error: flag(r, "CbQuality.lazy_error")?,
                })
            }
            tag => {
                return Err(PersistError::BadTag {
                    what: "CbQuality",
                    tag,
                })
            }
        };
        let fused_embedding = flag(r, "QualityConfig.fused_embedding")?;
        let sc = match r.u8()? {
            0 => None,
            1 => Some(ScQuality {
                fraction: r.f64()?,
                rank: r.usize()?,
            }),
            tag => {
                return Err(PersistError::BadTag {
                    what: "ScQuality",
                    tag,
                })
            }
        };
        let naive_dp_rank = match r.u8()? {
            0 => None,
            1 => Some(r.usize()?),
            tag => {
                return Err(PersistError::BadTag {
                    what: "naive_dp_rank",
                    tag,
                })
            }
        };
        Ok(TrainerConfig {
            model,
            pp,
            dp,
            micro_batch,
            n_micro,
            iters,
            lr,
            seed,
            quality: QualityConfig {
                cb,
                fused_embedding,
                sc,
                naive_dp_rank,
            },
            validate_every: r.u64()?,
            val_sequences: r.usize()?,
            collect_error_stats: flag(r, "collect_error_stats")?,
            repeat_fraction: r.f64()?,
        })
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
    fn sc_stage_count_follows_fraction() {
        let mut cfg = TrainerConfig::small_test(QualityConfig::cb_fe_sc(), 1);
        assert_eq!(cfg.sc_stage_count(), 3); // 0.75 * 4
        cfg.quality = QualityConfig::naive_dp(4);
        assert_eq!(cfg.sc_stage_count(), 4);
        cfg.quality = QualityConfig::baseline();
        assert_eq!(cfg.sc_stage_count(), 0);
        // At pp <= 2 the paper's 0.75 covers every stage: a single-stage
        // SC run compresses its DP traffic exactly as naive DP would.
        cfg.quality = QualityConfig::cb_fe_sc();
        for pp in [1, 2] {
            cfg.pp = pp;
            assert_eq!(cfg.sc_stage_count(), pp);
        }
    }

    #[test]
    fn fingerprint_tracks_state_affecting_fields_only() {
        let base = TrainerConfig::small_test(QualityConfig::cb_fe_sc(), 10);
        let fp = base.fingerprint();
        assert_eq!(fp, base.clone().fingerprint(), "fingerprint is stable");

        // Observation-only fields do not change the fingerprint.
        let mut obs = base.clone();
        obs.iters = 999;
        obs.validate_every = 1;
        obs.val_sequences = 4;
        obs.collect_error_stats = true;
        assert_eq!(obs.fingerprint(), fp);

        // State-affecting fields do.
        let mut seed = base.clone();
        seed.seed ^= 1;
        assert_ne!(seed.fingerprint(), fp);
        let mut quality = base.clone();
        quality.quality = QualityConfig::baseline();
        assert_ne!(quality.fingerprint(), fp);
        let mut shape = base;
        shape.n_micro += 1;
        assert_ne!(shape.fingerprint(), fp);
    }

    #[test]
    fn config_wire_codec_roundtrips() {
        use opt_tensor::Persist;
        for cfg in [
            TrainerConfig::small_test(QualityConfig::cb_fe_sc(), 10),
            TrainerConfig::tiny_test(QualityConfig::baseline(), 3),
            TrainerConfig::tiny_test(QualityConfig::cb_topk(0.1), 5),
            TrainerConfig::tiny_test(QualityConfig::naive_dp(2), 5),
            TrainerConfig::tiny_test(QualityConfig::cb_non_lep(), 4),
        ] {
            let back = TrainerConfig::from_bytes(&cfg.to_bytes()).expect("roundtrip");
            // The fingerprint covers every state-affecting field; check
            // the observation-only fields separately.
            assert_eq!(back.fingerprint(), cfg.fingerprint());
            assert_eq!(back.model.name, cfg.model.name);
            assert_eq!(back.iters, cfg.iters);
            assert_eq!(back.validate_every, cfg.validate_every);
            assert_eq!(back.val_sequences, cfg.val_sequences);
            assert_eq!(back.collect_error_stats, cfg.collect_error_stats);
        }
    }

    #[test]
    fn corpus_is_deterministic() {
        let cfg = TrainerConfig::small_test(QualityConfig::baseline(), 1);
        assert_eq!(
            cfg.corpus().train_batch(2, 0),
            cfg.corpus().train_batch(2, 0)
        );
    }
}
