//! Distributed PowerSGD all-reduce for data-parallel gradients, and the
//! trainer's one uncompressed all-reduce ([`all_reduce_recorded`]).
//!
//! Both run as grouped rounds of [`CollectiveGroup`]: a stage's whole
//! dense exchange is one round, and a PowerSGD step over every slot is
//! two — every `P` factor (with the vector slots' dense gradients), then
//! every `Q` factor — instead of one or two rounds per parameter. The
//! messages, their bytes, the ledger records and every result bit are
//! those of the per-parameter loop.

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
/// 5. the reconstruction `P Q^T` approximates `mean_d(G_d + e_d)` and
///    replaces the gradient; inside the same exchange, *before* the
///    optimizer step, each rank sets its residual
///    `e_d <- (G_d + e_d) - P Q^T`, which is added to the *next*
///    iteration's gradient — the staleness the paper's §7 calls out.
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
    /// the compressed mean across ranks: the one-slot case of
    /// [`DistPowerSgd::all_reduce_grouped`].
    ///
    /// # Panics
    ///
    /// Panics if the transport fails mid-round.
    pub fn all_reduce<Tr: Transport>(
        &mut self,
        group: &CollectiveGroup<Tr>,
        my_rank: usize,
        slot: usize,
        grad: &mut Matrix,
        ledger: &TrafficLedger,
    ) {
        self.all_reduce_grouped(group, my_rank, [(slot, grad)], ledger);
    }

    /// All-reduces every `(slot, gradient)` of `grads` over `group`,
    /// replacing each gradient with the compressed mean across ranks, in
    /// two grouped rounds: every matrix slot's `P` factor together with
    /// every vector slot's gradient, then every `Q` factor. Vector
    /// parameters (single row or column) are too small to factorize and
    /// are all-reduced densely, as PowerSGD's reference implementation
    /// does. Each slot's result is bit-identical to a
    /// [`DistPowerSgd::all_reduce`] of that slot alone.
    ///
    /// Records one ledger entry of wire bytes per slot (fp16 accounting,
    /// per rank).
    ///
    /// # Panics
    ///
    /// Panics if the transport fails mid-round; a worker cannot continue
    /// an iteration whose collective broke.
    pub fn all_reduce_grouped<'g, Tr: Transport>(
        &mut self,
        group: &CollectiveGroup<Tr>,
        my_rank: usize,
        grads: impl IntoIterator<Item = (usize, &'g mut Matrix)>,
        ledger: &TrafficLedger,
    ) {
        let ranks = group.size();
        // Round 1: a vector slot's gradient itself, or a matrix slot's
        // local P factor. A matrix slot's gradient becomes its
        // error-corrected form in place.
        let mut slots = Vec::new();
        let mut round1 = Vec::new();
        for (slot, grad) in grads {
            let (n, m) = grad.shape();
            let factored = n > 1 && m > 1;
            if factored {
                let r = self.effective_rank(n, m);
                ledger.record(
                    TrafficClass::DataParallel,
                    ring_wire_bytes(n * r, ranks) + ring_wire_bytes(m * r, ranks),
                );
                // Error-feedback correction.
                if let Some(e) = self.residual[slot].as_ref().filter(|e| e.shape() == (n, m)) {
                    grad.add_assign(e);
                }
                // Identical cold-start Q on every rank (shared seed per slot).
                let q_start = match &self.q_prev[slot] {
                    Some(q) if q.shape() == (m, r) => q.clone(),
                    _ => SeedStream::new(self.seed ^ ((slot as u64) << 4)).normal_matrix(m, r, 1.0),
                };
                round1.push(grad.matmul(&q_start));
            } else {
                ledger.record(
                    TrafficClass::DataParallel,
                    ring_wire_bytes(grad.len(), ranks),
                );
                round1.push(std::mem::take(grad));
            }
            slots.push((slot, grad, factored));
        }
        let round1 = reduce_or_panic(TrafficClass::DataParallel, group, my_rank, round1, true);

        // Round 2: every Q factor against its orthonormalized P.
        let mut ps = Vec::new();
        let mut round2 = Vec::new();
        for ((_, grad, factored), mut reduced) in slots.iter_mut().zip(round1) {
            if *factored {
                orthonormalize_columns(&mut reduced);
                round2.push(grad.t_matmul(&reduced));
                ps.push(reduced);
            } else {
                **grad = reduced;
            }
        }
        let qs = reduce_or_panic(TrafficClass::DataParallel, group, my_rank, round2, true);

        let factored = slots.into_iter().filter(|(_, _, factored)| *factored);
        for ((slot, grad, _), (p, q)) in factored.zip(ps.into_iter().zip(qs)) {
            let approx = p.matmul_t(&q);
            // Residual holds the *local* information the factorization
            // lost: the corrected gradient minus what was sent.
            grad.sub_assign(&approx);
            self.residual[slot] = Some(std::mem::replace(grad, approx));
            self.q_prev[slot] = Some(q);
        }
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

    fn persist_len(&self) -> usize {
        8 + 8 + self.q_prev.persist_len() + self.residual.persist_len()
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

/// One grouped all-reduce of `ms` over `group`, to the means (`mean`) or
/// the sums.
///
/// # Panics
///
/// Panics if the transport fails mid-round; a worker cannot continue an
/// iteration whose collective broke.
fn reduce_or_panic<Tr: Transport>(
    class: TrafficClass,
    group: &CollectiveGroup<Tr>,
    my_rank: usize,
    ms: Vec<Matrix>,
    mean: bool,
) -> Vec<Matrix> {
    let reduced = if mean {
        group.all_reduce_mean_grouped(my_rank, ms)
    } else {
        group.all_reduce_sum_grouped(my_rank, ms)
    };
    reduced.unwrap_or_else(|e| panic!("{class} all-reduce failed at rank {my_rank}: {e}"))
}

/// One uncompressed grouped all-reduce of `ms` over `group` as the
/// trainer does it: records the modeled ring bytes of each matrix under
/// `class`, then reduces to the means (`mean`) or the sums. A one-member
/// group records its zero-byte entries and hands `ms` back untouched.
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
    ms: Vec<Matrix>,
    mean: bool,
) -> Vec<Matrix> {
    for m in &ms {
        ledger.record(class, ring_wire_bytes(m.len(), group.size()));
    }
    reduce_or_panic(class, group, my_rank, ms, mean)
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

    /// The per-slot exchange as it ran before grouped rounds — one or two
    /// all-reduces of its own per slot, the dense vectors through the
    /// collective directly: the reference the grouped rounds are pinned
    /// to, ledger records included.
    fn reference_all_reduce(
        st: &mut DistPowerSgd,
        group: &CollectiveGroup<opt_net::LocalTransport>,
        my_rank: usize,
        slot: usize,
        grad: &mut Matrix,
        ledger: &TrafficLedger,
    ) {
        let ranks = group.size();
        let (n, m) = grad.shape();
        if n == 1 || m == 1 {
            ledger.record(
                TrafficClass::DataParallel,
                ring_wire_bytes(grad.len(), ranks),
            );
            *grad = group.all_reduce_mean(my_rank, grad.clone()).unwrap();
            return;
        }
        let r = st.effective_rank(n, m);
        let corrected = match &st.residual[slot] {
            Some(e) if e.shape() == grad.shape() => grad.add(e),
            _ => grad.clone(),
        };
        let q_start = match &st.q_prev[slot] {
            Some(q) if q.shape() == (m, r) => q.clone(),
            _ => SeedStream::new(st.seed ^ ((slot as u64) << 4)).normal_matrix(m, r, 1.0),
        };
        let mut p = group
            .all_reduce_mean(my_rank, corrected.matmul(&q_start))
            .unwrap();
        orthonormalize_columns(&mut p);
        let q = group
            .all_reduce_mean(my_rank, corrected.t_matmul(&p))
            .unwrap();
        let approx = p.matmul_t(&q);
        st.residual[slot] = Some(corrected.sub(&approx));
        st.q_prev[slot] = Some(q.clone());
        ledger.record(
            TrafficClass::DataParallel,
            ring_wire_bytes(p.len(), ranks) + ring_wire_bytes(q.len(), ranks),
        );
        *grad = approx;
    }

    /// How one rank exchanges all its slots in [`exchange`].
    type Exchange = fn(
        &mut DistPowerSgd,
        &CollectiveGroup<opt_net::LocalTransport>,
        usize,
        &mut [Matrix],
        &TrafficLedger,
    );

    const REFERENCE: Exchange = |st, group, d, gs, ledger| {
        for (slot, g) in gs.iter_mut().enumerate() {
            reference_all_reduce(st, group, d, slot, g, ledger);
        }
    };

    const PER_SLOT: Exchange = |st, group, d, gs, ledger| {
        for (slot, g) in gs.iter_mut().enumerate() {
            st.all_reduce(group, d, slot, g, ledger);
        }
    };

    const GROUPED: Exchange = |st, group, d, gs, ledger| {
        st.all_reduce_grouped(group, d, gs.iter_mut().enumerate(), ledger);
    };

    /// One exchange of every slot on every rank of a fresh world.
    /// Returns each rank's gradients and the shared ledger's totals.
    fn exchange(
        grads: &[Vec<Matrix>],
        states: &mut [DistPowerSgd],
        run: Exchange,
    ) -> (Vec<Vec<u32>>, opt_net::TrafficSnapshot) {
        let world = CollectiveWorld::new(grads.len());
        let group = world.group(&(0..grads.len()).collect::<Vec<_>>());
        let ledger = TrafficLedger::new();
        let outs: Vec<Vec<Matrix>> = thread::scope(|scope| {
            let handles: Vec<_> = grads
                .iter()
                .zip(states.iter_mut())
                .enumerate()
                .map(|(d, (gs, st))| {
                    let (group, ledger) = (group.clone(), ledger.clone());
                    let mut gs = gs.clone();
                    scope.spawn(move || {
                        run(st, &group, d, &mut gs, &ledger);
                        gs
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        let bits = outs
            .iter()
            .map(|gs| {
                gs.iter()
                    .flat_map(|g| g.as_slice().iter().map(|x| x.to_bits()))
                    .collect()
            })
            .collect();
        (bits, ledger.snapshot())
    }

    #[test]
    fn grouped_rounds_match_one_round_per_slot() {
        // Matrix and vector slots interleaved, over five warm-started
        // rounds of fresh gradients, then through a Persist round trip
        // of the grouped side's state: results, ledger and state all
        // equal the reference's, for the grouped call and the one-slot
        // call alike.
        let shapes = [(6, 5), (1, 7), (8, 3), (4, 1), (5, 5), (2, 9)];
        let mut rng = SeedStream::new(11);
        let mut draw = |ranks: usize| -> Vec<Vec<Matrix>> {
            (0..ranks)
                .map(|_| {
                    shapes
                        .iter()
                        .map(|&(n, m)| rng.uniform_matrix(n, m, 1.0))
                        .collect()
                })
                .collect()
        };
        for ranks in [1, 2, 3] {
            let fresh = || -> Vec<DistPowerSgd> {
                (0..ranks)
                    .map(|_| DistPowerSgd::new(2, shapes.len(), 17))
                    .collect()
            };
            let (mut reference, mut per_slot, mut grouped) = (fresh(), fresh(), fresh());
            for round in 0..7 {
                if round == 5 {
                    grouped = grouped
                        .iter()
                        .map(|s| DistPowerSgd::from_bytes(&s.to_bytes()).expect("roundtrip"))
                        .collect();
                }
                let grads = draw(ranks);
                let want = exchange(&grads, &mut reference, REFERENCE);
                let what = format!("{ranks} ranks, round {round}");
                assert_eq!(exchange(&grads, &mut per_slot, PER_SLOT), want, "{what}");
                assert_eq!(exchange(&grads, &mut grouped, GROUPED), want, "{what}");
                for ((r, a), b) in reference.iter().zip(&per_slot).zip(&grouped) {
                    assert_eq!(a.to_bytes(), r.to_bytes(), "per-slot state, {what}");
                    assert_eq!(b.to_bytes(), r.to_bytes(), "grouped state, {what}");
                    assert_eq!(b.persist_len(), b.to_bytes().len());
                }
            }
        }
    }

    #[test]
    fn one_member_dense_exchange_records_and_hands_the_gradients_back() {
        // dp = 1: every message is still counted (zero bytes each), and
        // the very buffers that went in come back — no copy, no scaling.
        let group = CollectiveWorld::new(1).group(&[0]);
        let ledger = TrafficLedger::new();
        let grads = vec![Matrix::full(3, 4, 0.1), Matrix::full(1, 4, -2.0)];
        let ptrs: Vec<_> = grads.iter().map(|g| g.as_slice().as_ptr()).collect();
        let want = grads.clone();
        let out = all_reduce_recorded(&ledger, TrafficClass::DataParallel, &group, 0, grads, true);
        assert_eq!(out, want);
        let back: Vec<_> = out.iter().map(|g| g.as_slice().as_ptr()).collect();
        assert_eq!(back, ptrs, "gradients were copied");
        let snap = ledger.snapshot();
        assert_eq!(snap.messages(TrafficClass::DataParallel), 2);
        assert_eq!(snap.bytes(TrafficClass::DataParallel), 0);
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
