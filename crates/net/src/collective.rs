//! Deterministic all-reduce groups over any [`Transport`].
//!
//! The reduction runs gather-to-root + broadcast: the group's **first
//! member** collects every contribution, reduces **in member order**, and
//! sends the result back. Because the accumulation order is fixed by the
//! member list — never by thread or packet arrival order — the result is
//! bit-deterministic on every backend, and identical between the
//! in-process [`LocalTransport`] world and a multi-process
//! [`crate::TcpTransport`] world (the wire codec round-trips `f32` bits
//! exactly).
//!
//! A round is **grouped**: it reduces a list of matrices — a stage's
//! gradients, or every PowerSGD factor of one step — as one streamed
//! exchange. A non-root member sends its contributions back to back,
//! keeping up to four in flight ahead of the results it has taken back;
//! the root takes the matrices one at a time, gathering in member order,
//! reducing and broadcasting each while later ones are still arriving.
//! Each matrix is still its own message and its own member-order fold, so
//! a grouped round moves the same messages and produces the same bits as
//! one round per matrix, without a round trip per matrix. (The bound on
//! what is in flight keeps a byte-boundary transport's inboxes from
//! holding a whole stage's gradients at once: unbounded, the process
//! world's peak resident set grew by a few percent.) The single-matrix
//! calls are grouped rounds of one.

use crate::transport::{
    channel_id, net_timeout, LocalTransport, SharedPayload, Transport, TransportError,
};
use opt_tensor::Matrix;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Channel-id namespace reserved for collective groups.
const COLLECTIVE_NAMESPACE: u8 = 2;

/// How many contributions a non-root member keeps in flight ahead of the
/// results it has taken.
const AHEAD: usize = 4;

/// An all-reduce group over a fixed set of global ranks, communicating
/// through a shared [`Transport`].
///
/// Semantics match NCCL's `allReduce(sum)`: every member contributes a
/// same-shaped matrix and receives the element-wise sum. The reduction is
/// performed in member order, so results are bit-deterministic regardless
/// of thread or message arrival order — important for the reproduction's
/// "fused embedding synchronization is mathematically identical" test.
///
/// The group is reusable across rounds (one round per training iteration):
/// per-lane FIFO ordering keeps successive rounds from mixing.
///
/// # Example
///
/// ```
/// use opt_net::CollectiveWorld;
/// use opt_tensor::Matrix;
/// use std::thread;
///
/// let world = CollectiveWorld::new(2);
/// let g0 = world.group(&[0, 1]);
/// let g1 = g0.clone();
/// let h = thread::spawn(move || g1.all_reduce_sum(1, Matrix::full(1, 2, 2.0)).unwrap());
/// let sum = g0.all_reduce_sum(0, Matrix::full(1, 2, 1.0)).unwrap();
/// assert_eq!(sum.as_slice(), &[3.0, 3.0]);
/// h.join().unwrap();
/// ```
pub struct CollectiveGroup<Tr: Transport = LocalTransport> {
    members: Arc<Vec<usize>>,
    transport: Arc<Tr>,
    channel: u64,
    /// Cached receive timeout (reading the env per round would serialize
    /// worker threads on the process-global environment lock).
    timeout: std::time::Duration,
    /// Which member positions are currently inside a round — shared by
    /// every in-process clone, so two threads contributing as the same
    /// rank concurrently panic deterministically instead of
    /// desynchronizing the lane FIFOs.
    in_flight: Arc<parking_lot::Mutex<Vec<bool>>>,
}

impl<Tr: Transport> Clone for CollectiveGroup<Tr> {
    fn clone(&self) -> Self {
        Self {
            members: Arc::clone(&self.members),
            transport: Arc::clone(&self.transport),
            channel: self.channel,
            timeout: self.timeout,
            in_flight: Arc::clone(&self.in_flight),
        }
    }
}

impl<Tr: Transport> fmt::Debug for CollectiveGroup<Tr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CollectiveGroup({:?})", self.members)
    }
}

impl<Tr: Transport> CollectiveGroup<Tr> {
    fn new(members: Vec<usize>, transport: Arc<Tr>, channel: u64) -> Self {
        let n = members.len();
        Self {
            members: Arc::new(members),
            transport,
            channel,
            timeout: net_timeout(),
            in_flight: Arc::new(parking_lot::Mutex::new(vec![false; n])),
        }
    }

    /// The global ranks participating in this group, in reduction order.
    pub fn members(&self) -> &[usize] {
        &self.members
    }

    /// Number of participating ranks.
    pub fn size(&self) -> usize {
        self.members.len()
    }

    /// Contributes `ms` on behalf of global rank `rank` and returns the
    /// element-wise sum over all members of each matrix, in order: one
    /// grouped round (module docs). Every member must contribute the same
    /// number of matrices, with matching shapes position by position.
    /// Blocks until every member has contributed.
    ///
    /// A one-member group returns `ms` as it is, untouched. Otherwise the
    /// gather and the broadcast both travel typed: over an in-process
    /// transport the matrices cross as `Arc`s with zero serialization, and
    /// each broadcast shares one value (and one encode cache) across all
    /// peers, so a byte-boundary transport encodes each result exactly
    /// once.
    ///
    /// # Errors
    ///
    /// Returns the [`TransportError`] of the first send or receive of the
    /// round that failed — a dead peer, a corrupt frame, a payload that
    /// is not a [`Matrix`], or a timeout (in a correct schedule, a
    /// deadlock bug) — or, at the root, [`TransportError::Decode`] naming
    /// the lane whose contribution has the wrong shape. The round is over
    /// for this member either way, so the group can be used again once
    /// the world has recovered.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not a member, or if `rank` is already inside a
    /// round on another thread.
    pub fn all_reduce_sum_grouped(
        &self,
        rank: usize,
        ms: Vec<Matrix>,
    ) -> Result<Vec<Matrix>, TransportError> {
        let pos = self
            .members
            .iter()
            .position(|&r| r == rank)
            .unwrap_or_else(|| panic!("rank {rank} is not a member of {:?}", self.members));
        if self.members.len() == 1 {
            return Ok(ms);
        }
        {
            let mut in_flight = self.in_flight.lock();
            assert!(!in_flight[pos], "rank {rank} deposited twice in one round");
            in_flight[pos] = true;
        }
        let result = if pos == 0 {
            self.reduce_at_root(ms)
        } else {
            self.contribute(rank, ms)
        };
        self.in_flight.lock()[pos] = false;
        result
    }

    /// A non-root member's half of a round: contributions back to back,
    /// at most [`AHEAD`] of them ahead of the results taken so far.
    fn contribute(&self, rank: usize, ms: Vec<Matrix>) -> Result<Vec<Matrix>, TransportError> {
        let root = self.members[0];
        let n = ms.len();
        let mut unsent = ms.into_iter();
        for m in unsent.by_ref().take(AHEAD) {
            self.transport.send_value(rank, root, self.channel, m)?;
        }
        let mut out = Vec::with_capacity(n);
        while out.len() < n {
            out.push(
                self.transport
                    .recv_value(root, rank, self.channel, self.timeout)?,
            );
            if let Some(m) = unsent.next() {
                self.transport.send_value(rank, root, self.channel, m)?;
            }
        }
        Ok(out)
    }

    /// The root's half of a round, matrix by matrix: gather in member
    /// order — the accumulation order (and therefore every f32 rounding
    /// step) is fixed by the member list, not by arrival order — then
    /// broadcast before taking the next matrix.
    fn reduce_at_root(&self, ms: Vec<Matrix>) -> Result<Vec<Matrix>, TransportError> {
        let root = self.members[0];
        let peers = &self.members[1..];
        let mut out = Vec::with_capacity(ms.len());
        for (i, mut acc) in ms.into_iter().enumerate() {
            for &peer in peers {
                let part: Matrix =
                    self.transport
                        .recv_value(peer, root, self.channel, self.timeout)?;
                if part.shape() != acc.shape() {
                    return Err(TransportError::Decode {
                        src: peer,
                        dst: root,
                        channel: self.channel,
                        detail: format!(
                            "all-reduce matrix {i}: contribution is {:?}, the root's is {:?}",
                            part.shape(),
                            acc.shape()
                        ),
                    });
                }
                acc.add_assign(&part);
            }
            // One shared payload for the whole broadcast: every peer's
            // send clones the Arc, and a byte-boundary transport encodes
            // the matrix once into the shared cache. Once the sends are
            // done the root takes its result back out, copying it only if
            // a peer has not picked its share up yet.
            let acc = Arc::new(acc);
            let payload = SharedPayload::from_arc(Arc::clone(&acc));
            for &peer in peers {
                self.transport
                    .send_shared(root, peer, self.channel, &payload)?;
            }
            drop(payload);
            out.push(Arc::unwrap_or_clone(acc));
        }
        Ok(out)
    }

    /// [`CollectiveGroup::all_reduce_sum_grouped`] returning the means: a
    /// one-member group returns `ms` untouched, otherwise every sum is
    /// scaled by `1 / size`.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CollectiveGroup::all_reduce_sum_grouped`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`CollectiveGroup::all_reduce_sum_grouped`].
    pub fn all_reduce_mean_grouped(
        &self,
        rank: usize,
        ms: Vec<Matrix>,
    ) -> Result<Vec<Matrix>, TransportError> {
        let mut sums = self.all_reduce_sum_grouped(rank, ms)?;
        if self.size() > 1 {
            let scale = 1.0 / self.size() as f32;
            for sum in &mut sums {
                sum.scale_assign(scale);
            }
        }
        Ok(sums)
    }

    /// Contributes `m` on behalf of global rank `rank` and returns the
    /// element-wise sum over all members: a grouped round of one matrix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CollectiveGroup::all_reduce_sum_grouped`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`CollectiveGroup::all_reduce_sum_grouped`].
    pub fn all_reduce_sum(&self, rank: usize, m: Matrix) -> Result<Matrix, TransportError> {
        Ok(self.all_reduce_sum_grouped(rank, vec![m])?.swap_remove(0))
    }

    /// All-reduce returning the mean instead of the sum: a grouped round
    /// of one matrix.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CollectiveGroup::all_reduce_sum_grouped`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`CollectiveGroup::all_reduce_sum_grouped`].
    pub fn all_reduce_mean(&self, rank: usize, m: Matrix) -> Result<Matrix, TransportError> {
        Ok(self.all_reduce_mean_grouped(rank, vec![m])?.swap_remove(0))
    }
}

/// Factory for [`CollectiveGroup`]s over a world of ranks.
///
/// Mirrors the process-group bootstrap of `torch.distributed`: the trainer
/// creates one world, then carves out data-parallel groups (one per
/// pipeline stage), the embedding-synchronization pair, or the paper's
/// fused embedding group spanning both.
///
/// Each [`CollectiveWorld::group`] call claims the next collective channel
/// id, so **every member of a world must create its groups in the same
/// order** — the same rule `torch.distributed.new_group` imposes. (The
/// trainer's workers, threads and processes alike, each carve theirs out
/// of a world of their own over the shared transport; a single-process
/// caller may also create a group once and clone it to its members.)
pub struct CollectiveWorld<Tr: Transport = LocalTransport> {
    transport: Arc<Tr>,
    next_group: AtomicU64,
}

impl<Tr: Transport> fmt::Debug for CollectiveWorld<Tr> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "CollectiveWorld(world={})", self.transport.world())
    }
}

impl CollectiveWorld<LocalTransport> {
    /// Creates an in-process world of `world` ranks.
    ///
    /// # Panics
    ///
    /// Panics if `world == 0`.
    pub fn new(world: usize) -> Self {
        Self::over(Arc::new(LocalTransport::new(world)))
    }
}

impl<Tr: Transport> CollectiveWorld<Tr> {
    /// Creates a world over an existing transport (shared with meshes and
    /// control lanes — collective traffic lives in its own channel
    /// namespace).
    pub fn over(transport: Arc<Tr>) -> Self {
        assert!(transport.world() > 0, "world size must be positive");
        Self {
            transport,
            next_group: AtomicU64::new(0),
        }
    }

    /// Number of ranks in the world.
    pub fn world(&self) -> usize {
        self.transport.world()
    }

    /// Creates a reusable all-reduce group over `ranks`.
    ///
    /// # Panics
    ///
    /// Panics if `ranks` is empty, contains duplicates, or references a
    /// rank outside the world.
    pub fn group(&self, ranks: &[usize]) -> CollectiveGroup<Tr> {
        assert!(!ranks.is_empty(), "group must have at least one member");
        let mut sorted = ranks.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), ranks.len(), "group has duplicate ranks");
        assert!(
            ranks.iter().all(|&r| r < self.world()),
            "group rank out of range (world {})",
            self.world()
        );
        let index = self.next_group.fetch_add(1, Ordering::SeqCst);
        CollectiveGroup::new(
            ranks.to_vec(),
            Arc::clone(&self.transport),
            channel_id(COLLECTIVE_NAMESPACE, index),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::transport::tests::FailingTransport;
    use std::thread;

    fn run_group(members: Vec<usize>, inputs: Vec<Matrix>) -> Vec<Matrix> {
        let world = CollectiveWorld::new(members.iter().max().unwrap() + 1);
        let group = world.group(&members);
        let mut handles = Vec::new();
        for (rank, m) in members.iter().copied().zip(inputs) {
            let g = group.clone();
            handles.push(thread::spawn(move || g.all_reduce_sum(rank, m).unwrap()));
        }
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    }

    #[test]
    fn two_rank_sum() {
        let outs = run_group(
            vec![0, 1],
            vec![Matrix::full(2, 2, 1.0), Matrix::full(2, 2, 2.0)],
        );
        for o in outs {
            assert_eq!(o, Matrix::full(2, 2, 3.0));
        }
    }

    #[test]
    fn four_rank_sum_all_equal_results() {
        let inputs: Vec<_> = (0..4).map(|i| Matrix::full(3, 3, i as f32)).collect();
        let outs = run_group(vec![0, 1, 2, 3], inputs);
        for o in &outs {
            assert_eq!(*o, Matrix::full(3, 3, 6.0));
        }
    }

    #[test]
    fn mean_divides_by_group_size() {
        let world = CollectiveWorld::new(2);
        let group = world.group(&[0, 1]);
        let g1 = group.clone();
        let h = thread::spawn(move || g1.all_reduce_mean(1, Matrix::full(1, 1, 4.0)).unwrap());
        let m0 = group.all_reduce_mean(0, Matrix::full(1, 1, 2.0)).unwrap();
        assert_eq!(m0[(0, 0)], 3.0);
        assert_eq!(h.join().unwrap()[(0, 0)], 3.0);
    }

    #[test]
    fn group_is_reusable_across_rounds() {
        let world = CollectiveWorld::new(2);
        let group = world.group(&[0, 1]);
        for round in 0..5 {
            let g1 = group.clone();
            let h = thread::spawn(move || g1.all_reduce_sum(1, Matrix::full(1, 1, round as f32)));
            let got = group.all_reduce_sum(0, Matrix::full(1, 1, 1.0)).unwrap();
            assert_eq!(got[(0, 0)], 1.0 + round as f32);
            h.join().unwrap().unwrap();
        }
    }

    #[test]
    fn reduction_is_deterministic_in_member_order() {
        // Floating-point order sensitivity: x + y + z evaluated in member
        // order must be identical across repetitions, regardless of thread
        // scheduling.
        let inputs = vec![
            Matrix::full(1, 1, 0.1),
            Matrix::full(1, 1, 1e8),
            Matrix::full(1, 1, -1e8),
        ];
        let first = run_group(vec![0, 1, 2], inputs.clone())[0].clone();
        for _ in 0..10 {
            let again = run_group(vec![0, 1, 2], inputs.clone())[0].clone();
            assert_eq!(first, again);
        }
    }

    #[test]
    fn subgroups_of_noncontiguous_ranks() {
        let outs = run_group(
            vec![1, 3],
            vec![Matrix::full(1, 2, 5.0), Matrix::full(1, 2, -2.0)],
        );
        for o in outs {
            assert_eq!(o.as_slice(), &[3.0, 3.0]);
        }
    }

    #[test]
    #[should_panic(expected = "not a member")]
    fn non_member_rank_panics() {
        let world = CollectiveWorld::new(4);
        let group = world.group(&[0, 1]);
        let _ = group.all_reduce_sum(3, Matrix::zeros(1, 1));
    }

    #[test]
    #[should_panic(expected = "deposited twice")]
    fn double_deposit_by_same_rank_panics() {
        let world = CollectiveWorld::new(2);
        let group = world.group(&[0, 1]);
        let g2 = group.clone();
        // Rank 0 enters a round and blocks waiting on rank 1; a second
        // thread contributing as rank 0 again must panic, not
        // desynchronize the lanes.
        let _blocked = thread::spawn(move || g2.all_reduce_sum(0, Matrix::zeros(1, 1)));
        thread::sleep(std::time::Duration::from_millis(200));
        let _ = group.all_reduce_sum(0, Matrix::zeros(1, 1));
    }

    #[test]
    fn peer_lost_mid_gather_is_an_error_and_ends_the_round() {
        // Rank 1 contributes, rank 2 is dead: its lane is empty and stays
        // so. The root gathers rank 1's part, then fails on rank 2.
        let dead = TransportError::Disconnected { peer: 2 };
        let transport = Arc::new(FailingTransport {
            inner: LocalTransport::new(3),
            error: dead.clone(),
        });
        let group = CollectiveWorld::over(Arc::clone(&transport)).group(&[0, 1, 2]);
        transport
            .send_value(1, 0, group.channel, Matrix::full(1, 1, 1.0))
            .unwrap();
        let err = group
            .all_reduce_sum(0, Matrix::full(1, 1, 1.0))
            .unwrap_err();
        assert_eq!(err, dead);
        assert_eq!(*group.in_flight.lock(), vec![false; 3], "round left open");
        // The member can enter the next round instead of tripping the
        // double-deposit guard.
        assert_eq!(group.all_reduce_sum(0, Matrix::zeros(1, 1)), Err(dead));
    }

    #[test]
    fn shape_mismatch_mid_round_is_a_decode_error_naming_the_lane() {
        let transport = Arc::new(LocalTransport::new(2));
        let group = CollectiveWorld::over(Arc::clone(&transport)).group(&[0, 1]);
        // Rank 1's half of a three-matrix round, the middle one misshapen.
        for m in [
            Matrix::full(2, 2, 1.0),
            Matrix::full(3, 1, 1.0),
            Matrix::full(2, 2, 1.0),
        ] {
            transport.send_value(1, 0, group.channel, m).unwrap();
        }
        let err = group
            .all_reduce_sum_grouped(0, vec![Matrix::zeros(2, 2); 3])
            .unwrap_err();
        assert!(
            matches!(err, TransportError::Decode { src: 1, dst: 0, channel, .. } if channel == group.channel),
            "{err:?}"
        );
        assert!(err.to_string().contains("matrix 1"), "{err}");
        assert_eq!(*group.in_flight.lock(), vec![false; 2], "round left open");
        // The root can enter the next round (here it takes the
        // contribution rank 1 still has queued).
        let next = group
            .all_reduce_sum_grouped(0, vec![Matrix::full(2, 2, 2.0)])
            .unwrap();
        assert_eq!(next, vec![Matrix::full(2, 2, 3.0)]);
    }

    #[test]
    fn grouped_round_streams_mixed_shapes() {
        let world = CollectiveWorld::new(3);
        let group = world.group(&[0, 1, 2]);
        let shapes = [(1, 4), (3, 2), (5, 1), (2, 2)];
        let inputs = |r: usize| -> Vec<Matrix> {
            shapes
                .iter()
                .map(|&(n, m)| Matrix::full(n, m, (r + 1) as f32))
                .collect()
        };
        let outs: Vec<Vec<Matrix>> = thread::scope(|s| {
            let handles: Vec<_> = (0..3)
                .map(|r| {
                    let g = group.clone();
                    s.spawn(move || g.all_reduce_mean_grouped(r, inputs(r)).unwrap())
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for out in outs {
            let want: Vec<Matrix> = shapes
                .iter()
                .map(|&(n, m)| Matrix::full(n, m, 2.0))
                .collect();
            assert_eq!(out, want);
        }
    }

    #[test]
    fn one_member_grouped_round_returns_its_input() {
        let world = CollectiveWorld::new(1);
        let group = world.group(&[0]);
        let ms = vec![Matrix::full(2, 3, 0.1), Matrix::full(1, 2, -3.5)];
        assert_eq!(group.all_reduce_mean_grouped(0, ms.clone()).unwrap(), ms);
        assert_eq!(group.all_reduce_sum_grouped(0, Vec::new()).unwrap(), vec![]);
    }

    #[test]
    #[should_panic(expected = "duplicate ranks")]
    fn duplicate_ranks_panic() {
        let world = CollectiveWorld::new(4);
        let _ = world.group(&[0, 0]);
    }

    #[test]
    fn single_rank_group_is_identity() {
        let world = CollectiveWorld::new(1);
        let group = world.group(&[0]);
        let m = Matrix::full(2, 2, 7.0);
        assert_eq!(group.all_reduce_sum(0, m.clone()).unwrap(), m);
    }

    #[test]
    fn concurrent_groups_do_not_cross_talk() {
        // Two groups over the same world run rounds concurrently; channel
        // separation must keep their traffic apart.
        let world = CollectiveWorld::new(4);
        let ga = world.group(&[0, 1]);
        let gb = world.group(&[2, 3]);
        thread::scope(|s| {
            let mut handles = Vec::new();
            for round in 0..10u32 {
                let ga0 = ga.clone();
                let ga1 = ga.clone();
                let gb0 = gb.clone();
                let gb1 = gb.clone();
                handles.push(s.spawn(move || {
                    assert_eq!(
                        ga0.all_reduce_sum(0, Matrix::full(1, 1, round as f32))
                            .unwrap()[(0, 0)],
                        round as f32 + 100.0
                    );
                }));
                handles.push(s.spawn(move || {
                    ga1.all_reduce_sum(1, Matrix::full(1, 1, 100.0)).unwrap();
                }));
                handles.push(s.spawn(move || {
                    assert_eq!(
                        gb0.all_reduce_sum(2, Matrix::full(1, 1, round as f32))
                            .unwrap()[(0, 0)],
                        round as f32 + 1000.0
                    );
                }));
                handles.push(s.spawn(move || {
                    gb1.all_reduce_sum(3, Matrix::full(1, 1, 1000.0)).unwrap();
                }));
                for h in handles.drain(..) {
                    h.join().unwrap();
                }
            }
        });
    }
}
