//! Metrics collected during a training run.

use opt_net::TrafficBreakdown;

/// One validation measurement.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValPoint {
    /// Iteration at which validation ran.
    pub iter: u64,
    /// Mean validation loss (nats/token).
    pub loss: f32,
}

impl ValPoint {
    /// Validation perplexity `exp(loss)` — the paper's metric.
    // A reported scalar, once per evaluation: never fed back into training.
    #[allow(clippy::disallowed_methods)]
    pub fn perplexity(&self) -> f32 {
        self.loss.exp()
    }
}

/// One Fig. 11 sample from an inter-stage link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ErrorStatPoint {
    /// Iteration the sample was taken in.
    pub iter: u64,
    /// Pipeline stage holding the lazy-error buffer (the sender).
    pub stage: usize,
    /// Mean of the preserved error elements (`Avg(eps)`, ~0 per Eq. 14).
    pub error_mean: f32,
    /// Mean of the activation difference `Y(i) - Y(i+n)` (~0 per Eq. 14).
    pub act_diff_mean: f32,
    /// Cosine similarity between error and activation difference (~0:
    /// independence, the paper's empirical validation of Eq. 14).
    pub cosine: f32,
}

impl opt_tensor::Persist for ErrorStatPoint {
    fn persist(&self, w: &mut opt_tensor::Writer) {
        w.u64(self.iter);
        w.usize(self.stage);
        w.f32(self.error_mean);
        w.f32(self.act_diff_mean);
        w.f32(self.cosine);
    }

    fn restore(r: &mut opt_tensor::Reader<'_>) -> Result<Self, opt_tensor::PersistError> {
        Ok(Self {
            iter: r.u64()?,
            stage: r.usize()?,
            error_mean: r.f32()?,
            act_diff_mean: r.f32()?,
            cosine: r.f32()?,
        })
    }
}

/// Final report of a training run.
#[derive(Debug, Clone, Default)]
pub struct TrainReport {
    /// Mean training loss per iteration (averaged over micro-batches and
    /// data-parallel ranks).
    pub train_loss: Vec<f32>,
    /// Validation curve.
    pub val_points: Vec<ValPoint>,
    /// Fig. 11 error statistics (empty unless enabled).
    pub error_stats: Vec<ErrorStatPoint>,
    /// Wire traffic of the whole run: per-class totals plus the
    /// per-(src, dst, channel) breakdown behind them.
    pub traffic: TrafficBreakdown,
}

impl TrainReport {
    /// The last validation perplexity (NaN if validation never ran).
    pub fn final_val_ppl(&self) -> f32 {
        self.val_points
            .last()
            .map_or(f32::NAN, ValPoint::perplexity)
    }

    /// The last validation loss (NaN if validation never ran).
    pub fn final_val_loss(&self) -> f32 {
        self.val_points.last().map_or(f32::NAN, |p| p.loss)
    }
}

/// The raw samples of a run: what one worker records while it trains,
/// what it ships to the coordinator at report time, and — absorbed across
/// all workers — what a report is aggregated from. Merge order across
/// workers does not matter: [`RawSamples::into_report`] sorts each
/// iteration's samples before the floating-point reduction, so the report
/// is bit-identical however the ranks were deployed.
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct RawSamples {
    /// (iter, loss) training samples from last-stage workers, one per
    /// micro-batch.
    pub train: Vec<(u64, f32)>,
    /// (iter, loss) validation samples (dp rank 0's pipeline).
    pub val: Vec<(u64, f32)>,
    /// Fig. 11 samples.
    pub error_stats: Vec<ErrorStatPoint>,
}

impl opt_tensor::Persist for RawSamples {
    fn persist(&self, w: &mut opt_tensor::Writer) {
        self.train.persist(w);
        self.val.persist(w);
        self.error_stats.persist(w);
    }

    fn restore(r: &mut opt_tensor::Reader<'_>) -> Result<Self, opt_tensor::PersistError> {
        Ok(RawSamples {
            train: Vec::restore(r)?,
            val: Vec::restore(r)?,
            error_stats: Vec::restore(r)?,
        })
    }
}

impl RawSamples {
    /// Folds another worker's samples into this one.
    pub fn absorb(&mut self, other: RawSamples) {
        self.train.extend(other.train);
        self.val.extend(other.val);
        self.error_stats.extend(other.error_stats);
    }

    /// Discards every sample recorded at or after `iter`. A worker rolled
    /// back to a checkpoint calls this so the iterations it is about to
    /// replay are not recorded twice — the report after an in-place
    /// restore stays bit-identical to an uninterrupted run. Idempotent.
    pub fn truncate_from(&mut self, iter: u64) {
        self.train.retain(|&(i, _)| i < iter);
        self.val.retain(|&(i, _)| i < iter);
        self.error_stats.retain(|p| p.iter < iter);
    }

    /// Aggregates the samples into a [`TrainReport`].
    pub fn into_report(self, iters: u64, traffic: TrafficBreakdown) -> TrainReport {
        // Samples arrive in rank-merge order; sort before summing so the
        // floating-point reduction is identical across runs. This is what
        // lets the checkpoint tests assert *bit-equal* losses between a
        // straight run and a kill/restore run.
        let mean_sorted = |mut ls: Vec<f32>| -> f32 {
            ls.sort_unstable_by(f32::total_cmp);
            ls.iter().sum::<f32>() / ls.len() as f32
        };
        let at = |samples: &[(u64, f32)], it: u64| -> Vec<f32> {
            let at_iter = samples.iter().filter(|(i, _)| *i == it);
            at_iter.map(|(_, l)| *l).collect()
        };
        let train_loss = (0..iters)
            .map(|it| match at(&self.train, it) {
                samples if samples.is_empty() => f32::NAN,
                samples => mean_sorted(samples),
            })
            .collect();
        // Each (iter, stage) subsequence of the error stats comes from a
        // single worker in micro order, so a stable key sort makes the
        // final vector identical however the ranks were merged.
        let mut error_stats = self.error_stats;
        error_stats.sort_by_key(|p| (p.iter, p.stage));
        let mut val_iters: Vec<u64> = self.val.iter().map(|(i, _)| *i).collect();
        val_iters.sort_unstable();
        val_iters.dedup();
        let val_points = val_iters
            .into_iter()
            .map(|iter| ValPoint {
                iter,
                loss: mean_sorted(at(&self.val, iter)),
            })
            .collect();
        TrainReport {
            train_loss,
            val_points,
            error_stats,
            traffic,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn samples_aggregate_per_iteration() {
        let mut c = RawSamples::default();
        c.train.extend([(0, 2.0), (0, 4.0), (1, 1.0)]);
        c.val.push((1, 0.5));
        let report = c.into_report(2, TrafficBreakdown::default());
        assert_eq!(report.train_loss, vec![3.0, 1.0]);
        assert_eq!(report.val_points.len(), 1);
        // Test oracle for the reported perplexity.
        #[allow(clippy::disallowed_methods)]
        let want = 0.5f32.exp();
        assert!((report.final_val_ppl() - want).abs() < 1e-6);
    }

    #[test]
    fn empty_report_is_nan() {
        let report = RawSamples::default().into_report(1, TrafficBreakdown::default());
        assert!(report.train_loss[0].is_nan());
        assert!(report.final_val_ppl().is_nan());
    }

    #[test]
    fn truncate_from_drops_replayed_iterations() {
        let mut c = RawSamples::default();
        c.train.extend([(0, 2.0), (1, 4.0), (2, 8.0)]);
        c.val.push((2, 0.5));
        // Rolled back to the iteration-2 checkpoint: iterations >= 2 will
        // be replayed and re-recorded.
        c.truncate_from(2);
        c.truncate_from(2); // idempotent
        assert_eq!(c.train, vec![(0, 2.0), (1, 4.0)]);
        assert!(c.val.is_empty());
        c.train.push((2, 8.0));
        c.val.push((2, 0.5));
        let report = c.into_report(3, TrafficBreakdown::default());
        assert_eq!(report.train_loss, vec![2.0, 4.0, 8.0]);
        assert_eq!(report.val_points.len(), 1);
    }
}
