//! Distributed PowerSGD all-reduce for data-parallel gradients.

use opt_net::{CollectiveGroup, TrafficClass, TrafficLedger, Transport};
use opt_tensor::{
    orthonormalize_columns, Matrix, Persist, PersistError, Reader, SeedStream, Writer,
};

/// The distributed form of PowerSGD (Vogels et al. §3) used for
/// data-parallel gradient exchange under selective stage compression:
///
/// 1. every rank computes `P_d = (G_d + e_d) * Q_prev` with its local
///    gradient and error-feedback residual,
/// 2. `P = mean_d(P_d)` by all-reduce — valid because the map is linear,
/// 3. every rank orthonormalizes `P` (deterministic, identical result),
/// 4. `Q_d = (G_d + e_d)^T * P`, `Q = mean_d(Q_d)` by all-reduce,
/// 5. the reconstruction `P Q^T` approximates `mean_d(G_d + e_d)`; each
///    rank updates its residual `e_d += G_d - P Q^T` *after* the weight
///    update — the staleness the paper's §7 calls out.
///
/// Only the `P` and `Q` factors cross the wire: `(n + m) r` elements per
/// matrix versus `n m` dense.
#[derive(Debug)]
pub struct DistPowerSgd {
    rank: usize,
    /// Warm-start Q and error-feedback residual per parameter slot.
    q_prev: Vec<Option<Matrix>>,
    residual: Vec<Option<Matrix>>,
    seed: u64,
}

impl DistPowerSgd {
    /// Creates state for `n_slots` parameter tensors at the given rank.
    /// `seed` must be identical across data-parallel ranks so cold-start
    /// `Q` matrices agree.
    ///
    /// # Panics
    ///
    /// Panics if `rank == 0`.
    pub fn new(rank: usize, n_slots: usize, seed: u64) -> Self {
        assert!(rank > 0, "PowerSGD rank must be positive");
        Self {
            rank,
            q_prev: (0..n_slots).map(|_| None).collect(),
            residual: (0..n_slots).map(|_| None).collect(),
            seed,
        }
    }

    /// Total elements held in residual + warm-start buffers (Fig. 12).
    pub fn buffer_elems(&self) -> usize {
        self.q_prev.iter().flatten().map(Matrix::len).sum::<usize>()
            + self
                .residual
                .iter()
                .flatten()
                .map(Matrix::len)
                .sum::<usize>()
    }

    fn effective_rank(&self, n: usize, m: usize) -> usize {
        self.rank.min(n).min(m).max(1)
    }

    /// All-reduces `grad` (slot `slot`) over `group`, replacing it with
    /// the compressed mean across ranks. Vector parameters (single row or
    /// column) are too small to factorize and are all-reduced densely, as
    /// PowerSGD's reference implementation does.
    ///
    /// Records wire bytes in `ledger` (fp16 accounting, per rank).
    pub fn all_reduce<Tr: Transport>(
        &mut self,
        group: &CollectiveGroup<Tr>,
        my_rank: usize,
        slot: usize,
        grad: &mut Matrix,
        ledger: &TrafficLedger,
    ) {
        let (n, m) = grad.shape();
        if n == 1 || m == 1 {
            // Dense fallback for vectors (biases, LN params).
            *grad = all_reduce_recorded(
                ledger,
                TrafficClass::DataParallel,
                group,
                my_rank,
                grad.clone(),
                true,
            );
            return;
        }
        let r = self.effective_rank(n, m);
        // Error-feedback correction.
        let corrected = match &self.residual[slot] {
            Some(e) if e.shape() == grad.shape() => grad.add(e),
            _ => grad.clone(),
        };
        // Identical cold-start Q on every rank (shared seed per slot).
        let q_start = match &self.q_prev[slot] {
            Some(q) if q.shape() == (m, r) => q.clone(),
            _ => SeedStream::new(self.seed ^ (slot as u64) << 4).normal_matrix(m, r, 1.0),
        };
        let p_local = corrected.matmul(&q_start);
        let mut p = group
            .all_reduce_mean(my_rank, p_local)
            .expect("P factor all-reduce");
        orthonormalize_columns(&mut p);
        let q_local = corrected.t_matmul(&p);
        let q = group
            .all_reduce_mean(my_rank, q_local)
            .expect("Q factor all-reduce");
        let approx = p.matmul_t(&q);
        // Residual holds the *local* information the factorization lost.
        self.residual[slot] = Some(corrected.sub(&approx));
        self.q_prev[slot] = Some(q.clone());
        let wire = ring_wire_bytes(p.len(), group.size()) + ring_wire_bytes(q.len(), group.size());
        ledger.record(TrafficClass::DataParallel, wire);
        *grad = approx;
    }
}

impl Persist for DistPowerSgd {
    fn persist(&self, w: &mut Writer) {
        w.usize(self.rank);
        w.u64(self.seed);
        self.q_prev.persist(w);
        self.residual.persist(w);
    }

    fn restore(r: &mut Reader<'_>) -> Result<Self, PersistError> {
        let rank = r.usize()?;
        if rank == 0 {
            return Err(PersistError::Invalid {
                what: "PowerSGD rank must be positive",
            });
        }
        let seed = r.u64()?;
        let q_prev = Vec::restore(r)?;
        let residual: Vec<Option<Matrix>> = Vec::restore(r)?;
        if residual.len() != q_prev.len() {
            return Err(PersistError::Invalid {
                what: "DistPowerSgd slot count mismatch",
            });
        }
        Ok(Self {
            rank,
            q_prev,
            residual,
            seed,
        })
    }
}

/// Per-rank ring all-reduce wire bytes for `elems` fp16 elements — the
/// trainer's one modeled-bytes formula. Integer arithmetic on purpose: the
/// ledger totals are exact and their digest is pinned.
fn ring_wire_bytes(elems: usize, ranks: usize) -> u64 {
    if ranks <= 1 {
        return 0;
    }
    (2 * elems * opt_compress::FP16_BYTES) as u64 * (ranks as u64 - 1) / ranks as u64
}

/// One uncompressed all-reduce of `m` over `group` as the trainer does
/// it: records the modeled ring bytes under `class`, then reduces to the
/// mean (`mean`) or the sum.
///
/// # Panics
///
/// Panics if the transport fails mid-round; a worker cannot continue an
/// iteration whose collective broke.
pub(crate) fn all_reduce_recorded<Tr: Transport>(
    ledger: &TrafficLedger,
    class: TrafficClass,
    group: &CollectiveGroup<Tr>,
    my_rank: usize,
    m: Matrix,
    mean: bool,
) -> Matrix {
    ledger.record(class, ring_wire_bytes(m.len(), group.size()));
    let reduced = if mean {
        group.all_reduce_mean(my_rank, m)
    } else {
        group.all_reduce_sum(my_rank, m)
    };
    reduced.unwrap_or_else(|e| panic!("{class} all-reduce failed at rank {my_rank}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use opt_net::CollectiveWorld;
    use opt_tensor::relative_error;
    use std::thread;

    /// Runs one distributed PowerSGD round over `grads` (one per rank) and
    /// returns each rank's resulting gradient.
    fn round(rank: usize, grads: Vec<Matrix>, states: &mut [DistPowerSgd]) -> Vec<Matrix> {
        let world = CollectiveWorld::new(grads.len());
        let group = world.group(&(0..grads.len()).collect::<Vec<_>>());
        let ledger = TrafficLedger::new();
        let _ = rank;
        thread::scope(|scope| {
            let mut handles = Vec::new();
            for (d, (mut g, st)) in grads.into_iter().zip(states.iter_mut()).enumerate() {
                let group = group.clone();
                let ledger = ledger.clone();
                handles.push(scope.spawn(move || {
                    st.all_reduce(&group, d, 0, &mut g, &ledger);
                    g
                }));
            }
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        })
    }

    #[test]
    fn all_ranks_agree_on_result() {
        let mut rng = SeedStream::new(1);
        let grads: Vec<Matrix> = (0..4).map(|_| rng.uniform_matrix(16, 12, 1.0)).collect();
        let mut states: Vec<_> = (0..4).map(|_| DistPowerSgd::new(4, 1, 9)).collect();
        let outs = round(4, grads, &mut states);
        for o in &outs[1..] {
            assert_eq!(o, &outs[0], "ranks disagree after compressed all-reduce");
        }
    }

    #[test]
    fn approximates_the_mean_gradient() {
        // With warm start over repeated rounds on a fixed low-rank mean,
        // the compressed all-reduce converges to the true mean.
        let mut rng = SeedStream::new(2);
        let base_u = rng.uniform_matrix(20, 3, 1.0);
        let base_v = rng.uniform_matrix(3, 14, 1.0);
        let mean = base_u.matmul(&base_v); // true rank-3 mean
        let mut states: Vec<_> = (0..2).map(|_| DistPowerSgd::new(4, 1, 5)).collect();
        let mut out = Vec::new();
        for _ in 0..6 {
            // Rank d sees mean + opposite noise; the mean over ranks is exact.
            let noise = rng.uniform_matrix(20, 14, 0.2);
            let grads = vec![mean.add(&noise), mean.sub(&noise)];
            out = round(2, grads, &mut states);
        }
        let err = relative_error(&mean, &out[0]);
        assert!(err < 0.05, "compressed mean error {err}");
    }

    #[test]
    fn vectors_are_all_reduced_exactly() {
        let grads = vec![
            Matrix::from_rows(&[&[2.0, 4.0, 6.0]]),
            Matrix::from_rows(&[&[0.0, 0.0, 0.0]]),
        ];
        let mut states: Vec<_> = (0..2).map(|_| DistPowerSgd::new(4, 1, 5)).collect();
        let outs = round(2, grads, &mut states);
        assert_eq!(outs[0].as_slice(), &[1.0, 2.0, 3.0]);
        assert_eq!(outs[1].as_slice(), &[1.0, 2.0, 3.0]);
    }

    #[test]
    fn error_feedback_accumulates_lost_mass() {
        // A rank-1 compressor on a full-rank gradient loses mass each
        // round; EF must deliver it over time: the *sum* of transmitted
        // gradients approaches the sum of true means.
        let mut rng = SeedStream::new(3);
        let g = rng.uniform_matrix(10, 10, 1.0);
        let mut states: Vec<_> = (0..2).map(|_| DistPowerSgd::new(1, 1, 5)).collect();
        let mut delivered = Matrix::zeros(10, 10);
        let rounds = 60;
        for _ in 0..rounds {
            let outs = round(2, vec![g.clone(), g.clone()], &mut states);
            delivered.add_assign(&outs[0]);
        }
        let want = g.scale(rounds as f32);
        let rel = delivered.sub(&want).norm() / want.norm();
        assert!(rel < 0.15, "EF failed: accumulated rel error {rel}");
    }

    #[test]
    fn persisted_state_continues_bit_exactly() {
        // Restore one of two dp ranks mid-run; both pairs must keep
        // producing identical all-reduce results (warm start + residual
        // both matter).
        let mut rng = SeedStream::new(7);
        let mut states: Vec<_> = (0..2).map(|_| DistPowerSgd::new(2, 1, 3)).collect();
        let g0 = rng.uniform_matrix(10, 8, 1.0);
        let g1 = rng.uniform_matrix(10, 8, 1.0);
        let first = round(2, vec![g0.clone(), g1.clone()], &mut states);
        let mut restored: Vec<DistPowerSgd> = states
            .iter()
            .map(|s| DistPowerSgd::from_bytes(&s.to_bytes()).expect("roundtrip"))
            .collect();
        let g2 = rng.uniform_matrix(10, 8, 1.0);
        let a = round(2, vec![g2.clone(), g2.clone()], &mut states);
        let b = round(2, vec![g2.clone(), g2.clone()], &mut restored);
        assert_eq!(a, b, "restored DP state diverged");
        assert_ne!(first[0], a[0], "sanity: state actually evolved");
    }

    #[test]
    fn traffic_is_recorded() {
        let world = CollectiveWorld::new(1);
        let group = world.group(&[0]);
        let ledger = TrafficLedger::new();
        let mut st = DistPowerSgd::new(2, 1, 0);
        let mut g = SeedStream::new(4).uniform_matrix(8, 8, 1.0);
        st.all_reduce(&group, 0, 0, &mut g, &ledger);
        // Single-rank group: ring wire bytes are zero but the call works.
        assert_eq!(ledger.snapshot().bytes(TrafficClass::DataParallel), 0);
        assert!(st.buffer_elems() > 0);
    }
}
