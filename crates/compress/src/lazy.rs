//! Lazy error propagation (Optimus-CC §5.1) for inter-stage backpropagation.

use crate::{Compressed, Compressor};
use opt_tensor::{Matrix, Persist, PersistError, Reader, Writer};

/// Per-call statistics of the lazy-error state, used by the Fig. 11
/// reproduction (error/activation-difference independence analysis).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LinkErrorStats {
    /// Mean of the preserved error elements (paper: `Avg(eps) ~ 0`).
    pub error_mean: f32,
    /// Frobenius norm of the preserved error.
    pub error_norm: f32,
    /// Wire bytes of the payload that was produced.
    pub wire_bytes: usize,
    /// Whether this call actually compressed (epilogue sends) or passed
    /// the tensor through dense (hidden, overlapped sends).
    pub compressed: bool,
}

/// Lazy error propagation for an inter-stage (point-to-point) link.
///
/// The paper's key enabler for compressed backpropagation (§5.1): when the
/// activation gradient of micro-batch *i* is compressed, the residual
/// `eps_i = corrected - decompress(compress(corrected))` is *preserved in
/// device memory* and added to the gradient of micro-batch *i+n* of the
/// **same iteration**. Because all micro-batches execute on the same weight
/// version, the delayed error does not suffer from weight staleness — in
/// contrast to the classic across-iteration residual of data-parallel
/// compression (`optimus_cc::DistPowerSgd`), which is applied only after
/// the weight update.
/// The residual of the last micro-batch carries into the first micro-batch
/// of the next iteration, as the paper notes at the end of §5.1.
///
/// [`LazyErrorPropagator::process`] also supports *epilogue-only
/// compression* (§5.2): sends not on the critical path pass through dense.
/// A pending residual is folded into the next send either way — delivering
/// it exactly when that send is dense.
///
/// # Example
///
/// ```
/// use opt_compress::{LazyErrorPropagator, PowerSgd};
/// use opt_tensor::SeedStream;
///
/// let mut rng = SeedStream::new(0);
/// let mut link = LazyErrorPropagator::new(PowerSgd::new(2, 1), true);
/// let g1 = rng.uniform_matrix(16, 8, 1.0);
/// let (_payload, stats) = link.process(&g1, true);
/// assert!(stats.compressed);
/// assert!(link.error_norm() > 0.0); // residual preserved for next micro-batch
/// ```
#[derive(Debug)]
pub struct LazyErrorPropagator<C> {
    inner: C,
    error: Option<Matrix>,
    lep_enabled: bool,
}

impl<C: Compressor> LazyErrorPropagator<C> {
    /// Wraps `inner`. With `lep_enabled = false` the residual is simply
    /// discarded after each compression — the "CB (Non-LEP)" ablation of
    /// the paper's Table 4.
    pub fn new(inner: C, lep_enabled: bool) -> Self {
        Self {
            inner,
            error: None,
            lep_enabled,
        }
    }

    /// Whether lazy error propagation is active.
    pub fn lep_enabled(&self) -> bool {
        self.lep_enabled
    }

    /// Processes one micro-batch's activation gradient.
    ///
    /// * `compress = true` — the send is on the pipeline epilogue (critical
    ///   path): compress it, preserving the new residual.
    /// * `compress = false` — the send is hidden by computation: transmit
    ///   dense. Any pending residual is folded in (and thereby delivered
    ///   exactly), so the buffer empties.
    ///
    /// Returns the wire payload and the post-call error statistics.
    pub fn process(&mut self, grad: &Matrix, compress: bool) -> (Compressed, LinkErrorStats) {
        let span = opt_trace::begin(opt_trace::SpanKind::Encode, 0, opt_trace::NO_MICRO, 0, 0);
        // Fold the gradient into the retired error buffer in place (IEEE
        // addition commutes, so `e + g` is bit-identical to the seed
        // code's `g + e`) instead of allocating a corrected copy.
        let corrected = match (self.error.take(), self.lep_enabled) {
            (Some(mut e), true) if e.shape() == grad.shape() => {
                e.add_assign(grad);
                e
            }
            _ => grad.clone(),
        };
        let (payload, new_error) = if compress {
            let payload = self.inner.compress(&corrected);
            // Residual = corrected - decode(payload), through the sparse
            // fast path when the payload qualifies (bit-identical either
            // way).
            let mut residual = corrected;
            payload.apply_sub(&mut residual);
            (payload, Some(residual))
        } else {
            (Compressed::Dense { matrix: corrected }, None)
        };
        self.error = if self.lep_enabled { new_error } else { None };
        let stats = LinkErrorStats {
            error_mean: self.error.as_ref().map_or(0.0, Matrix::mean_all),
            error_norm: self.error_norm(),
            wire_bytes: payload.wire_bytes(),
            compressed: compress,
        };
        span.set_bytes(stats.wire_bytes as u64);
        (payload, stats)
    }

    /// Frobenius norm of the preserved error (0 when the buffer is empty).
    pub fn error_norm(&self) -> f32 {
        self.error.as_ref().map_or(0.0, Matrix::norm)
    }

    /// Borrow of the preserved error, if any (Fig. 11 instrumentation).
    pub fn error(&self) -> Option<&Matrix> {
        self.error.as_ref()
    }

    /// Extra memory held by the error buffer, in elements (Fig. 12).
    pub fn error_elems(&self) -> usize {
        self.error.as_ref().map_or(0, Matrix::len)
    }

    /// Access to the wrapped compressor.
    pub fn inner(&self) -> &C {
        &self.inner
    }
}

impl<C: Compressor + Persist> Persist for LazyErrorPropagator<C> {
    fn persist(&self, w: &mut Writer) {
        self.inner.persist(w);
        self.error.persist(w);
        w.u8(self.lep_enabled as u8);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        Ok(Self {
            inner: C::restore(r)?,
            error: Option::restore(r)?,
            lep_enabled: r.u8()? != 0,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{PowerSgd, TopK};
    use opt_tensor::SeedStream;

    #[test]
    fn uncompressed_send_delivers_pending_error_exactly() {
        let mut rng = SeedStream::new(1);
        let mut link = LazyErrorPropagator::new(PowerSgd::new(1, 2), true);
        let g1 = rng.uniform_matrix(8, 8, 1.0);
        let (p1, _) = link.process(&g1, true);
        let eps = g1.sub(&p1.decompress());
        assert!(eps.norm() > 0.0);
        // Next micro-batch goes dense: wire tensor must equal g2 + eps.
        let g2 = rng.uniform_matrix(8, 8, 1.0);
        let (p2, stats) = link.process(&g2, false);
        assert!(!stats.compressed);
        let expected = g2.add(&eps);
        assert!(p2.decompress().sub(&expected).max_abs() < 1e-5);
        assert_eq!(link.error_norm(), 0.0); // buffer emptied
    }

    #[test]
    fn total_delivered_mass_is_preserved_within_iteration() {
        // Over a full iteration (all micro-batches through the same link),
        // sum(delivered) + final residual == sum(true gradients): nothing
        // is lost, only delayed — the invariant behind the paper's Eq. 10.
        let mut rng = SeedStream::new(2);
        let mut link = LazyErrorPropagator::new(TopK::new(0.1), true);
        let micro_batches: Vec<_> = (0..8).map(|_| rng.uniform_matrix(10, 10, 1.0)).collect();
        let mut delivered = opt_tensor::Matrix::zeros(10, 10);
        let mut true_sum = opt_tensor::Matrix::zeros(10, 10);
        for g in &micro_batches {
            let (p, _) = link.process(g, true);
            delivered.add_assign(&p.decompress());
            true_sum.add_assign(g);
        }
        let residual = link.error().expect("residual present").clone();
        let reconstructed = delivered.add(&residual);
        assert!(
            reconstructed.sub(&true_sum).max_abs() < 1e-4,
            "mass not conserved: {}",
            reconstructed.sub(&true_sum).max_abs()
        );
    }

    #[test]
    fn non_lep_discards_error() {
        let mut rng = SeedStream::new(3);
        let mut link = LazyErrorPropagator::new(PowerSgd::new(1, 4), false);
        let g = rng.uniform_matrix(8, 8, 1.0);
        let (_, stats) = link.process(&g, true);
        assert_eq!(stats.error_norm, 0.0);
        assert!(link.error().is_none());
    }

    #[test]
    fn lep_reduces_accumulated_error_vs_non_lep() {
        // Compress a stream of correlated gradients; the accumulated
        // delivered sum should be closer to the true sum with LEP.
        let mut rng = SeedStream::new(4);
        let base = rng.uniform_matrix(16, 16, 1.0);
        let make_stream = |rng: &mut SeedStream| {
            (0..16)
                .map(|_| base.add(&rng.uniform_matrix(16, 16, 0.3)))
                .collect::<Vec<_>>()
        };
        let mut rng_a = SeedStream::new(99);
        let mut rng_b = SeedStream::new(99);
        let stream_a = make_stream(&mut rng_a);
        let stream_b = make_stream(&mut rng_b);
        assert_eq!(stream_a.len(), stream_b.len());

        let run = |lep: bool, stream: &[opt_tensor::Matrix]| {
            let mut link = LazyErrorPropagator::new(PowerSgd::new(2, 5), lep);
            let mut delivered = opt_tensor::Matrix::zeros(16, 16);
            let mut truth = opt_tensor::Matrix::zeros(16, 16);
            for g in stream {
                let (p, _) = link.process(g, true);
                delivered.add_assign(&p.decompress());
                truth.add_assign(g);
            }
            delivered.sub(&truth).norm() / truth.norm()
        };
        let err_lep = run(true, &stream_a);
        let err_nolep = run(false, &stream_b);
        assert!(
            err_lep < err_nolep,
            "LEP ({err_lep}) should beat non-LEP ({err_nolep})"
        );
    }

    #[test]
    fn shape_change_is_tolerated() {
        let mut rng = SeedStream::new(5);
        let mut link = LazyErrorPropagator::new(PowerSgd::new(2, 6), true);
        link.process(&rng.uniform_matrix(8, 4, 1.0), true);
        let (p, _) = link.process(&rng.uniform_matrix(4, 8, 1.0), true);
        assert_eq!(p.dense_shape(), (4, 8));
    }

    #[test]
    fn persisted_link_resumes_bit_exactly() {
        // Snapshot a link mid-stream; the restored link must deliver the
        // same payloads and residuals for the remaining micro-batches.
        let mut rng = SeedStream::new(10);
        let mut link = LazyErrorPropagator::new(PowerSgd::new(2, 3), true);
        link.process(&rng.uniform_matrix(8, 8, 1.0), true);
        let mut restored: LazyErrorPropagator<PowerSgd> =
            LazyErrorPropagator::from_bytes(&link.to_bytes()).expect("roundtrip");
        assert_eq!(restored.lep_enabled(), link.lep_enabled());
        for compress in [true, false, true] {
            let g = rng.uniform_matrix(8, 8, 1.0);
            let (pa, sa) = link.process(&g, compress);
            let (pb, sb) = restored.process(&g, compress);
            assert_eq!(pa, pb);
            assert_eq!(sa, sb);
        }
    }

    #[test]
    fn error_elems_report_buffer_size() {
        let mut rng = SeedStream::new(6);
        let mut link = LazyErrorPropagator::new(PowerSgd::new(1, 7), true);
        assert_eq!(link.error_elems(), 0);
        link.process(&rng.uniform_matrix(6, 7, 1.0), true);
        assert_eq!(link.error_elems(), 42);
    }
}
