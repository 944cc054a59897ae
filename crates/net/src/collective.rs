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

use crate::transport::{
    channel_id, net_timeout, LocalTransport, SharedPayload, Transport, TransportError,
};
use opt_tensor::Matrix;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Channel-id namespace reserved for collective groups.
const COLLECTIVE_NAMESPACE: u8 = 2;

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

    /// Contributes `m` on behalf of global rank `rank` and returns the
    /// element-wise sum over all members. Blocks until every member has
    /// contributed.
    ///
    /// The gather and the broadcast both travel typed: over an in-process
    /// transport the matrices cross as `Arc`s with zero serialization, and
    /// the broadcast shares one value (and one encode cache) across all
    /// peers, so a byte-boundary transport encodes the result exactly
    /// once.
    ///
    /// # Errors
    ///
    /// Returns the [`TransportError`] of the first send or receive of the
    /// round that failed — a dead peer, a corrupt frame, a payload that
    /// is not a [`Matrix`], or a timeout (in a correct schedule, a
    /// deadlock bug). The round is over for this member either way, so
    /// the group can be used again once the world has recovered.
    ///
    /// # Panics
    ///
    /// Panics if `rank` is not a member, if shapes mismatch across
    /// members, or if `rank` is already inside a round on another thread.
    pub fn all_reduce_sum(&self, rank: usize, m: Matrix) -> Result<Matrix, TransportError> {
        let pos = self
            .members
            .iter()
            .position(|&r| r == rank)
            .unwrap_or_else(|| panic!("rank {rank} is not a member of {:?}", self.members));
        if self.members.len() == 1 {
            return Ok(m);
        }
        {
            let mut in_flight = self.in_flight.lock();
            assert!(!in_flight[pos], "rank {rank} deposited twice in one round");
            in_flight[pos] = true;
        }
        let result = self.all_reduce_sum_inner(pos, rank, m);
        self.in_flight.lock()[pos] = false;
        result
    }

    fn all_reduce_sum_inner(
        &self,
        pos: usize,
        rank: usize,
        m: Matrix,
    ) -> Result<Matrix, TransportError> {
        let root = self.members[0];
        let recv = |src, dst| {
            self.transport
                .recv_value::<Matrix>(src, dst, self.channel, self.timeout)
        };
        if pos == 0 {
            // Root: gather in member order — the accumulation order (and
            // therefore every f32 rounding step) is fixed by the member
            // list, not by arrival order.
            let mut acc = m;
            for &peer in &self.members[1..] {
                let part = recv(peer, root)?;
                assert_eq!(acc.shape(), part.shape(), "all-reduce shape mismatch");
                acc.add_assign(&part);
            }
            // One shared payload for the whole broadcast: every peer's
            // send clones the Arc, and a byte-boundary transport encodes
            // the matrix once into the shared cache.
            let payload = SharedPayload::new(acc.clone());
            for &peer in &self.members[1..] {
                self.transport
                    .send_shared(root, peer, self.channel, &payload)?;
            }
            Ok(acc)
        } else {
            self.transport.send_value(rank, root, self.channel, m)?;
            recv(root, rank)
        }
    }

    /// All-reduce returning the mean instead of the sum.
    ///
    /// # Errors
    ///
    /// Same conditions as [`CollectiveGroup::all_reduce_sum`].
    ///
    /// # Panics
    ///
    /// Same conditions as [`CollectiveGroup::all_reduce_sum`].
    pub fn all_reduce_mean(&self, rank: usize, m: Matrix) -> Result<Matrix, TransportError> {
        let mut sum = self.all_reduce_sum(rank, m)?;
        sum.scale_assign(1.0 / self.size() as f32);
        Ok(sum)
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
