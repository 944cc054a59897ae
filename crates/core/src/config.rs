//! Training-run configuration. Its compression plan is
//! [`opt_schedule::QualityConfig`], the same value the simulator prices.

use opt_data::SyntheticCorpus;
use opt_model::GptConfig;
use opt_schedule::{CbMethod, CbQuality, QualityConfig, ScQuality};

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

    /// Number of earliest stages whose DP traffic is compressed
    /// ([`QualityConfig::dp_compressed_stages`] at this run's `pp`).
    pub fn sc_stage_count(&self) -> usize {
        self.quality.dp_compressed_stages(self.pp)
    }

    /// The DP compression rank in effect (SC or naive), if any.
    pub fn dp_rank(&self) -> Option<usize> {
        self.quality.dp_rank()
    }

    /// Fingerprint over every *state-affecting* configuration field, used
    /// to refuse restoring a snapshot into an incompatible run.
    ///
    /// It hashes the [`opt_tensor::Persist`] encoding of a copy whose
    /// observation-only fields (`model.name`, `iters`, `validate_every`,
    /// `val_sequences`, `collect_error_stats`) are cleared — resuming a
    /// snapshot to train *longer* or validate *more often* is legitimate —
    /// so every other field, including one added later, is covered.
    pub fn fingerprint(&self) -> u64 {
        use opt_tensor::Persist;
        let mut state = self.clone();
        state.model.name = String::new();
        state.iters = 0;
        state.validate_every = 0;
        state.val_sequences = 0;
        state.collect_error_stats = false;
        // Into a plain `Writer`, not `to_bytes()`, so the codec-cycle
        // counters only count wire traffic.
        let mut w = opt_tensor::Writer::new();
        state.persist(&mut w);
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
        self.quality.sc.map(|sc| (sc.fraction, sc.rank)).persist(w);
        self.quality.naive_dp_rank.persist(w);
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
        let sc = Option::<(f64, usize)>::restore(r)?
            .map(|(fraction, rank)| ScQuality { fraction, rank });
        let naive_dp_rank = Option::<usize>::restore(r)?;
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
        type Edit = fn(&mut TrainerConfig);
        let base = TrainerConfig::small_test(QualityConfig::cb_fe_sc(), 10);
        let fp = base.fingerprint();
        assert_eq!(fp, base.clone().fingerprint(), "fingerprint is stable");
        let moved = |edit: Edit| {
            let mut cfg = base.clone();
            edit(&mut cfg);
            cfg.fingerprint() != fp
        };
        fn cb(cfg: &mut TrainerConfig) -> &mut CbQuality {
            cfg.quality.cb.as_mut().unwrap()
        }
        fn sc(cfg: &mut TrainerConfig) -> &mut ScQuality {
            cfg.quality.sc.as_mut().unwrap()
        }

        // Observation-only fields do not move it, one at a time.
        let observation: [(&str, Edit); 5] = [
            ("model.name", |c| c.model.name = "renamed".into()),
            ("iters", |c| c.iters = 999),
            ("validate_every", |c| c.validate_every = 1),
            ("val_sequences", |c| c.val_sequences = 4),
            ("collect_error_stats", |c| c.collect_error_stats = true),
        ];
        for (field, edit) in observation {
            assert!(!moved(edit), "{field} moved the fingerprint");
        }

        // Every state-affecting field does, one at a time.
        let state: [(&str, Edit); 20] = [
            ("model.n_layers", |c| c.model.n_layers += 1),
            ("model.hidden", |c| c.model.hidden += 1),
            ("model.heads", |c| c.model.heads += 1),
            ("model.vocab", |c| c.model.vocab += 1),
            ("model.seq_len", |c| c.model.seq_len += 1),
            ("pp", |c| c.pp += 1),
            ("dp", |c| c.dp += 1),
            ("micro_batch", |c| c.micro_batch += 1),
            ("n_micro", |c| c.n_micro += 1),
            ("lr", |c| c.lr *= 2.0),
            ("seed", |c| c.seed ^= 1),
            ("repeat_fraction", |c| c.repeat_fraction += 0.1),
            ("cb method", |c| cb(c).method = CbMethod::TopK(0.1)),
            ("cb rank", |c| cb(c).method = CbMethod::LowRank(5)),
            ("cb epilogue_only", |c| cb(c).epilogue_only ^= true),
            ("cb lazy_error", |c| cb(c).lazy_error ^= true),
            ("fused_embedding", |c| c.quality.fused_embedding ^= true),
            ("sc fraction", |c| sc(c).fraction = 0.5),
            ("sc rank", |c| sc(c).rank += 1),
            ("naive rank", |c| c.quality.naive_dp_rank = Some(4)),
        ];
        for (field, edit) in state {
            assert!(moved(edit), "{field} left the fingerprint unchanged");
        }
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
