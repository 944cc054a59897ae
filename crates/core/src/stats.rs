//! Metrics collected during a training run.

use opt_net::TrafficBreakdown;
use parking_lot::Mutex;
use std::sync::Arc;

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

/// Shared collector the worker threads append into.
#[derive(Debug, Clone, Default)]
pub(crate) struct Collector {
    inner: Arc<Mutex<CollectorInner>>,
}

#[derive(Debug, Default)]
struct CollectorInner {
    /// (iter, loss) samples from last-stage workers, one per micro-batch.
    train_samples: Vec<(u64, f32)>,
    /// (iter, loss) validation samples (dp rank 0's pipeline).
    val_samples: Vec<(u64, f32)>,
    error_stats: Vec<ErrorStatPoint>,
}

/// The raw samples of one worker's collector, in wire-friendly form —
/// what a remote worker ships to the coordinator at report time. Merge
/// order across workers does not matter: [`Collector::into_report`] sorts
/// each iteration's samples before the floating-point reduction, so a
/// merged multi-process report is bit-identical to the single shared
/// collector of an in-process run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RawSamples {
    /// (iter, loss) training samples, one per micro-batch.
    pub train: Vec<(u64, f32)>,
    /// (iter, loss) validation samples.
    pub val: Vec<(u64, f32)>,
    /// Fig. 11 samples.
    pub error_stats: Vec<ErrorStatPoint>,
}

impl Collector {
    pub fn record_train(&self, iter: u64, loss: f32) {
        self.inner.lock().train_samples.push((iter, loss));
    }

    /// Snapshots the raw samples recorded so far (quiesce first: callers
    /// barrier the workers before reading).
    pub fn raw_samples(&self) -> RawSamples {
        let inner = self.inner.lock();
        RawSamples {
            train: inner.train_samples.clone(),
            val: inner.val_samples.clone(),
            error_stats: inner.error_stats.clone(),
        }
    }

    /// Folds another worker's raw samples into this collector.
    pub fn absorb(&self, raw: &RawSamples) {
        let mut inner = self.inner.lock();
        inner.train_samples.extend_from_slice(&raw.train);
        inner.val_samples.extend_from_slice(&raw.val);
        inner.error_stats.extend_from_slice(&raw.error_stats);
    }

    pub fn record_val(&self, iter: u64, loss: f32) {
        self.inner.lock().val_samples.push((iter, loss));
    }

    /// Discards every sample recorded at or after `iter`. A survivor
    /// rolled back to a checkpoint calls this so the iterations it is
    /// about to replay are not recorded twice — the report after a
    /// rejoin stays bit-identical to an uninterrupted run. Idempotent.
    pub fn truncate_from(&self, iter: u64) {
        let mut inner = self.inner.lock();
        inner.train_samples.retain(|&(i, _)| i < iter);
        inner.val_samples.retain(|&(i, _)| i < iter);
        inner.error_stats.retain(|p| p.iter < iter);
    }

    pub fn record_error_stat(&self, p: ErrorStatPoint) {
        self.inner.lock().error_stats.push(p);
    }

    /// Aggregates the raw samples into a [`TrainReport`].
    pub fn into_report(self, iters: u64, traffic: TrafficBreakdown) -> TrainReport {
        let inner = Arc::try_unwrap(self.inner)
            .map(Mutex::into_inner)
            .unwrap_or_else(|arc| {
                let guard = arc.lock();
                CollectorInner {
                    train_samples: guard.train_samples.clone(),
                    val_samples: guard.val_samples.clone(),
                    error_stats: guard.error_stats.clone(),
                }
            });
        // Samples arrive in thread-scheduling order; sort before summing
        // so the floating-point reduction is identical across runs. This
        // is what lets the checkpoint tests assert *bit-equal* losses
        // between a straight run and a kill/restore run.
        let mean_sorted = |mut ls: Vec<f32>| -> f32 {
            ls.sort_unstable_by(f32::total_cmp);
            ls.iter().sum::<f32>() / ls.len() as f32
        };
        let mut train_loss = Vec::with_capacity(iters as usize);
        for it in 0..iters {
            let samples: Vec<f32> = inner
                .train_samples
                .iter()
                .filter(|(i, _)| *i == it)
                .map(|(_, l)| *l)
                .collect();
            if samples.is_empty() {
                train_loss.push(f32::NAN);
            } else {
                train_loss.push(mean_sorted(samples));
            }
        }
        // Error stats arrive in thread-scheduling (or, multi-process,
        // rank-merge) order; each (iter, stage) subsequence comes from a
        // single worker in micro order, so a stable key sort makes the
        // final vector identical however the worlds interleaved.
        let mut error_stats = inner.error_stats;
        error_stats.sort_by_key(|p| (p.iter, p.stage));
        let mut val_iters: Vec<u64> = inner.val_samples.iter().map(|(i, _)| *i).collect();
        val_iters.sort_unstable();
        val_iters.dedup();
        let val_points = val_iters
            .into_iter()
            .map(|it| {
                let ls: Vec<f32> = inner
                    .val_samples
                    .iter()
                    .filter(|(i, _)| *i == it)
                    .map(|(_, l)| *l)
                    .collect();
                ValPoint {
                    iter: it,
                    loss: mean_sorted(ls),
                }
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
    fn collector_aggregates_per_iteration() {
        let c = Collector::default();
        c.record_train(0, 2.0);
        c.record_train(0, 4.0);
        c.record_train(1, 1.0);
        c.record_val(1, 0.5);
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
        let c = Collector::default();
        let report = c.into_report(1, TrafficBreakdown::default());
        assert!(report.train_loss[0].is_nan());
        assert!(report.final_val_ppl().is_nan());
    }

    #[test]
    fn truncate_from_drops_replayed_iterations() {
        let c = Collector::default();
        c.record_train(0, 2.0);
        c.record_train(1, 4.0);
        c.record_train(2, 8.0);
        c.record_val(2, 0.5);
        // Rolled back to the iteration-2 checkpoint: iterations >= 2 will
        // be replayed and re-recorded.
        c.truncate_from(2);
        c.truncate_from(2); // idempotent
        let raw = c.raw_samples();
        assert_eq!(raw.train, vec![(0, 2.0), (1, 4.0)]);
        assert!(raw.val.is_empty());
        c.record_train(2, 8.0);
        c.record_val(2, 0.5);
        let report = c.into_report(3, TrafficBreakdown::default());
        assert_eq!(report.train_loss, vec![2.0, 4.0, 8.0]);
        assert_eq!(report.val_points.len(), 1);
    }
}
