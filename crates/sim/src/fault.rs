//! Failure events and restart-cost accounting for simulated training runs.
//!
//! The event engine (`simulate`) prices one iteration; this module prices
//! a *run*: `iters` iterations with a snapshot cadence, one scripted
//! failure ([`opt_ckpt::FaultPlan`], the same plan the numerical trainer
//! replays), and an elastic restart — detection, relaunch, snapshot read,
//! and replay of every iteration since the newest snapshot. The output is
//! the checkpoint-cadence trade-off the `exp_fault_tolerance` experiment
//! sweeps: frequent snapshots cost steady-state write time, rare snapshots
//! cost replay time after a failure.

use crate::{simulate, SimConfig};
use opt_ckpt::FaultPlan;
use serde::{Deserialize, Serialize};

/// Which wire a shard moves over — the transport dimension of the cost
/// model, matching `opt-net`'s two `ShardStore` deployments.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum StoreTransport {
    /// In-process store (`MemShardStore` reached through shared memory):
    /// a memory copy, no connection setup, no framing on a wire.
    Local,
    /// Remote store over TCP (`TcpShardStore` -> `ShardStoreServer`): one
    /// connection round-trip per operation plus the NIC-bound transfer of
    /// the framed request/response.
    Tcp,
}

/// Cost model for checkpoint I/O and failure handling.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct CkptCostModel {
    /// Seconds from the failure to the job being torn down (NCCL timeout +
    /// watchdog detection).
    pub detection_s: f64,
    /// Seconds for the scheduler to relaunch and rendezvous the world.
    pub relaunch_s: f64,
    /// Per-rank fetch/publish bandwidth to the shard store in bytes/s —
    /// the sharded path, where every rank moves only its own `1/world`
    /// slice in parallel over its own NIC.
    pub shard_fetch_bw: f64,
    /// Seconds to resolve the shard manifest (the rendezvous round-trip a
    /// restarting worker pays before its fetch starts).
    pub rendezvous_s: f64,
    /// In-process copy bandwidth in bytes/s — what a shard operation
    /// costs when the store is local memory rather than a wire
    /// ([`StoreTransport::Local`]).
    pub mem_bw: f64,
    /// Per-operation TCP setup cost in seconds (connect + request
    /// round-trip framing) on [`StoreTransport::Tcp`] — the real
    /// `TcpShardStore` opens one connection per put/get.
    pub tcp_connect_s: f64,
    /// Seconds for the coordinator's heartbeat failure detector to flag a
    /// dead rank (ten silent `OPT_NET_HEARTBEAT_MS` intervals plus a
    /// poll) — the elastic-rejoin replacement for the NCCL-timeout
    /// `detection_s`.
    pub hb_detection_s: f64,
    /// Seconds for the survivors to drain in-flight work and park at the
    /// quiesce barrier before a replacement splices in.
    pub quiesce_s: f64,
    /// Seconds to relaunch and re-mesh **one** replacement rank into the
    /// surviving world — the single-rank counterpart of the whole-world
    /// `relaunch_s`.
    pub rank_relaunch_s: f64,
}

impl CkptCostModel {
    /// Defaults in the spirit of the paper's 128×A100 cluster: a 30 s
    /// NCCL-timeout detection, 60 s relaunch, 25 GB/s per-rank shard
    /// fetches (200 Gb/s Infiniband HDR), a 1 s manifest rendezvous,
    /// 100 GB/s in-process memory copies, and a 0.5 ms per-operation TCP
    /// setup.
    /// Rejoin-path constants: a ~3 s heartbeat verdict (conservative
    /// interval × misses at cluster scale), a 0.5 s survivor quiesce, and
    /// a 5 s single-rank relaunch (one container restart + mesh splice,
    /// no scheduler round-trip for the whole gang).
    pub fn paper_cluster() -> Self {
        Self {
            detection_s: 30.0,
            relaunch_s: 60.0,
            shard_fetch_bw: 25e9,
            rendezvous_s: 1.0,
            mem_bw: 100e9,
            tcp_connect_s: 0.5e-3,
            hb_detection_s: 3.0,
            quiesce_s: 0.5,
            rank_relaunch_s: 5.0,
        }
    }

    /// Bandwidth one rank sees to the store over `transport`.
    pub fn store_bw(&self, transport: StoreTransport) -> f64 {
        match transport {
            StoreTransport::Local => self.mem_bw,
            StoreTransport::Tcp => self.shard_fetch_bw,
        }
    }

    /// Per-operation fixed cost of the store over `transport`: zero for a
    /// shared-memory store, a connection setup for the TCP store.
    pub fn store_op_s(&self, transport: StoreTransport) -> f64 {
        match transport {
            StoreTransport::Local => 0.0,
            StoreTransport::Tcp => self.tcp_connect_s,
        }
    }

    /// Wall-clock seconds for a checkpoint *write*: every rank publishes
    /// its own shard under a name it already knows, in parallel, so no
    /// rendezvous lookup is paid (the trailing manifest put is a few
    /// hundred bytes — negligible). Each rank pays one store operation
    /// plus its `bytes / world` slice at the transport's bandwidth (the
    /// ~28-byte frame around each request is noise against megabyte
    /// shards and is folded into the per-op constant).
    pub fn sharded_publish_s(&self, bytes: f64, world: usize, transport: StoreTransport) -> f64 {
        self.store_op_s(transport) + bytes / world.max(1) as f64 / self.store_bw(transport)
    }

    /// Wall-clock seconds for a restore: one manifest rendezvous (itself
    /// one more store operation on the wire), then all `world` ranks
    /// fetch their own shard in parallel — the slowest rank (any rank,
    /// they are symmetric) gates completion.
    pub fn sharded_io_s(&self, bytes: f64, world: usize, transport: StoreTransport) -> f64 {
        self.rendezvous_s
            + self.store_op_s(transport)
            + self.sharded_publish_s(bytes, world, transport)
    }

    /// Downtime of an elastic single-rank rejoin: heartbeat detection,
    /// survivor quiesce, relaunching one rank, then the sharded restore
    /// (every rank re-fetches its own shard in parallel while the world
    /// rolls back to the manifest). Compare with the full-relaunch
    /// downtime `detection_s + relaunch_s + sharded_io_s(..)`.
    pub fn rejoin_downtime_s(&self, bytes: f64, world: usize, transport: StoreTransport) -> f64 {
        self.hb_detection_s
            + self.quiesce_s
            + self.rank_relaunch_s
            + self.sharded_io_s(bytes, world, transport)
    }
}

/// One timestamped event in a simulated faulted run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum FaultEvent {
    /// A snapshot finished writing after `iter` completed iterations.
    SnapshotWrite {
        /// Completed iterations at snapshot time.
        iter: u64,
        /// Time the write completed, seconds from run start.
        at_s: f64,
    },
    /// Worker `rank` died after `iter` completed iterations.
    Failure {
        /// The rank that died.
        rank: usize,
        /// Completed iterations when the failure struck.
        iter: u64,
        /// Failure instant, seconds from run start.
        at_s: f64,
    },
    /// The job restarted from the snapshot taken at `from_iter`
    /// (`None` = cold restart from scratch).
    Restore {
        /// Snapshot iteration resumed from.
        from_iter: Option<u64>,
        /// Time the restore (detection + relaunch + read) completed.
        at_s: f64,
    },
}

/// Wall-clock accounting of a simulated faulted run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultSimResult {
    /// Failure-free, snapshot-free run time: `iters * t_iter`.
    pub ideal_time_s: f64,
    /// Actual end-to-end run time.
    pub total_time_s: f64,
    /// Time spent writing snapshots.
    pub snapshot_overhead_s: f64,
    /// Detection + relaunch + snapshot-read time.
    pub restart_overhead_s: f64,
    /// Time spent re-executing iterations lost to the failure.
    pub replay_time_s: f64,
    /// Bytes of one snapshot (all ranks).
    pub snapshot_bytes: f64,
    /// Timeline of snapshot/failure/restore events.
    pub events: Vec<FaultEvent>,
}

impl FaultSimResult {
    /// Fractional slowdown over the ideal run (`0.0` = free fault
    /// tolerance).
    pub fn overhead_fraction(&self) -> f64 {
        self.total_time_s / self.ideal_time_s - 1.0
    }
}

/// Bytes a full training snapshot occupies: fp32 weights plus the two
/// fp32 Adam moments for every parameter (transformer stages + both
/// embedding replicas), the dominant state. Compression state (warm-start
/// factors, residuals) adds a few percent and is folded into the same
/// per-parameter constant.
pub fn snapshot_bytes(cfg: &SimConfig) -> f64 {
    let stage_params: u64 = (0..cfg.pp).map(|s| cfg.stage_params(s)).sum();
    let emb_params = 2 * cfg.model.embedding_params();
    ((stage_params + emb_params) * 12) as f64
}

/// How a simulated run gets back to training after its failure.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Recovery {
    /// Tear the whole world down and relaunch every rank (NCCL-timeout
    /// detection, scheduler round-trip).
    FullRelaunch,
    /// Elastic single-rank rejoin — the cost twin of
    /// `optimus_cc::Recovery::Rejoin`: the failure is flagged by the
    /// heartbeat detector ([`CkptCostModel::hb_detection_s`], not the
    /// NCCL-timeout `detection_s`), survivors pay one quiesce barrier,
    /// only the dead rank is relaunched, and the world rolls back with a
    /// parallel sharded re-fetch. A failure before the first committed
    /// snapshot cannot be healed by rejoin (the real runtime escalates
    /// `WorldError::Unrecoverable`) and is priced as a from-scratch full
    /// relaunch after the heartbeat verdict.
    Rejoin,
}

/// Simulates `iters` training iterations under `plan`, pricing snapshot
/// writes (over `transport`) and the restart (through `recovery`) with
/// `costs`.
///
/// Mirrors `optimus_cc::run_with_faults` event for event: snapshot after
/// every `snapshot_every`-th iteration (except the last), one failure once
/// `kill_at_iter` iterations complete, restart from the newest snapshot
/// (or from scratch), replay the lost iterations, finish the run. Only
/// checkpoint I/O and downtime depend on `transport` and `recovery`; the
/// failure story and the replayed work do not.
///
/// # Example
///
/// ```
/// use opt_ckpt::FaultPlan;
/// use opt_sim::{simulate_with_faults, CkptCostModel, Recovery, SimConfig, StoreTransport};
///
/// let cfg = SimConfig::paper_gpt_2_5b();
/// let costs = CkptCostModel::paper_cluster();
/// let plan = FaultPlan::new(3, 55, 10);
/// let run = |via, recovery| simulate_with_faults(&cfg, 100, &plan, &costs, via, recovery);
/// let tcp = run(StoreTransport::Tcp, Recovery::FullRelaunch);
/// assert!(tcp.total_time_s > tcp.ideal_time_s);
/// assert!(tcp.replay_time_s > 0.0);
/// // The real wire costs more than shared memory; rejoin only shrinks
/// // the downtime.
/// let local = run(StoreTransport::Local, Recovery::FullRelaunch);
/// let rejoin = run(StoreTransport::Tcp, Recovery::Rejoin);
/// assert!(local.snapshot_overhead_s < tcp.snapshot_overhead_s);
/// assert!(rejoin.restart_overhead_s < tcp.restart_overhead_s);
/// assert_eq!(tcp.replay_time_s, rejoin.replay_time_s);
/// ```
pub fn simulate_with_faults(
    cfg: &SimConfig,
    iters: u64,
    plan: &FaultPlan,
    costs: &CkptCostModel,
    transport: StoreTransport,
    recovery: Recovery,
) -> FaultSimResult {
    let t_iter = simulate(cfg).iteration_time_s;
    let bytes = snapshot_bytes(cfg);
    let world = cfg.tp * cfg.dp * cfg.pp;
    // Writes publish in parallel with no rendezvous; restores pay the
    // manifest round-trip before their fetch.
    let t_snap = costs.sharded_publish_s(bytes, world, transport);
    let t_read = costs.sharded_io_s(bytes, world, transport);
    let ideal_time_s = t_iter * iters as f64;

    let mut now = 0.0;
    let mut snapshot_overhead_s = 0.0;
    let mut restart_overhead_s = 0.0;
    let mut replay_time_s = 0.0;
    let mut events = Vec::new();
    let mut completed: u64 = 0;
    let mut failed = false;

    while completed < iters {
        now += t_iter;
        completed += 1;
        if plan.snapshot_due(completed) && completed < iters {
            now += t_snap;
            snapshot_overhead_s += t_snap;
            events.push(FaultEvent::SnapshotWrite {
                iter: completed,
                at_s: now,
            });
        }
        if !failed && completed == plan.kill_at_iter {
            failed = true;
            events.push(FaultEvent::Failure {
                rank: plan.kill_rank,
                iter: completed,
                at_s: now,
            });
            let from_iter = plan.last_snapshot_before(completed);
            let restart = match (recovery, from_iter) {
                // Detection + relaunch always; snapshot read only if one
                // exists.
                (Recovery::FullRelaunch, Some(_)) => costs.detection_s + costs.relaunch_s + t_read,
                (Recovery::FullRelaunch, None) => costs.detection_s + costs.relaunch_s,
                // Heartbeat verdict, quiesce, one rank relaunched, world
                // rolls back with a parallel shard re-fetch.
                (Recovery::Rejoin, Some(_)) => costs.rejoin_downtime_s(bytes, world, transport),
                // Nothing committed to splice a replacement against:
                // rejoin escalates (`WorldError::Unrecoverable`) and the
                // job falls back to a from-scratch full relaunch — only
                // the detection was cheaper.
                (Recovery::Rejoin, None) => costs.hb_detection_s + costs.relaunch_s,
            };
            now += restart;
            restart_overhead_s += restart;
            events.push(FaultEvent::Restore {
                from_iter,
                at_s: now,
            });
            let resume_at = from_iter.unwrap_or(0);
            replay_time_s += (completed - resume_at) as f64 * t_iter;
            completed = resume_at;
        }
    }

    FaultSimResult {
        ideal_time_s,
        total_time_s: now,
        snapshot_overhead_s,
        restart_overhead_s,
        replay_time_s,
        snapshot_bytes: bytes,
        events,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> (SimConfig, CkptCostModel) {
        (SimConfig::paper_gpt_2_5b(), CkptCostModel::paper_cluster())
    }

    #[test]
    fn accounting_adds_up() {
        let (cfg, costs) = base();
        let r = simulate_with_faults(
            &cfg,
            60,
            &FaultPlan::new(2, 45, 10),
            &costs,
            StoreTransport::Tcp,
            Recovery::FullRelaunch,
        );
        let sum = r.ideal_time_s + r.snapshot_overhead_s + r.restart_overhead_s + r.replay_time_s;
        assert!(
            (r.total_time_s - sum).abs() < 1e-6 * r.total_time_s,
            "total {} != parts {}",
            r.total_time_s,
            sum
        );
        assert!(r.overhead_fraction() > 0.0);
    }

    #[test]
    fn no_failure_means_only_snapshot_overhead() {
        let (cfg, costs) = base();
        let r = simulate_with_faults(
            &cfg,
            20,
            &FaultPlan::new(0, 1000, 5),
            &costs,
            StoreTransport::Tcp,
            Recovery::FullRelaunch,
        );
        assert_eq!(r.restart_overhead_s, 0.0);
        assert_eq!(r.replay_time_s, 0.0);
        // Snapshots after iters 5, 10, 15 (20 is the final iteration).
        assert!(r.snapshot_overhead_s > 0.0);
        assert_eq!(
            r.events
                .iter()
                .filter(|e| matches!(e, FaultEvent::SnapshotWrite { .. }))
                .count(),
            3
        );
    }

    #[test]
    fn rarer_snapshots_trade_write_time_for_replay_time() {
        let (cfg, costs) = base();
        let frequent = simulate_with_faults(
            &cfg,
            100,
            &FaultPlan::new(1, 99, 5),
            &costs,
            StoreTransport::Tcp,
            Recovery::FullRelaunch,
        );
        let rare = simulate_with_faults(
            &cfg,
            100,
            &FaultPlan::new(1, 99, 50),
            &costs,
            StoreTransport::Tcp,
            Recovery::FullRelaunch,
        );
        assert!(frequent.snapshot_overhead_s > rare.snapshot_overhead_s);
        assert!(frequent.replay_time_s < rare.replay_time_s);
    }

    #[test]
    fn failure_without_snapshot_replays_everything() {
        let (cfg, costs) = base();
        let r = simulate_with_faults(
            &cfg,
            10,
            &FaultPlan::new(0, 4, 0),
            &costs,
            StoreTransport::Tcp,
            Recovery::FullRelaunch,
        );
        assert!((r.replay_time_s - 4.0 * r.ideal_time_s / 10.0).abs() < 1e-9);
        assert!(r.events.iter().any(|e| matches!(
            e,
            FaultEvent::Restore {
                from_iter: None,
                ..
            }
        )));
    }

    #[test]
    fn events_are_time_ordered() {
        let (cfg, costs) = base();
        let r = simulate_with_faults(
            &cfg,
            40,
            &FaultPlan::new(0, 33, 8),
            &costs,
            StoreTransport::Tcp,
            Recovery::FullRelaunch,
        );
        let times: Vec<f64> = r
            .events
            .iter()
            .map(|e| match e {
                FaultEvent::SnapshotWrite { at_s, .. }
                | FaultEvent::Failure { at_s, .. }
                | FaultEvent::Restore { at_s, .. } => *at_s,
            })
            .collect();
        for w in times.windows(2) {
            assert!(w[1] >= w[0], "events out of order: {times:?}");
        }
    }

    #[test]
    fn transport_dimension_prices_the_real_wire() {
        let (cfg, costs) = base();
        let bytes = snapshot_bytes(&cfg);
        let world = cfg.tp * cfg.dp * cfg.pp;
        // Local shard ops are a memory copy: no per-op cost, faster pipe.
        assert_eq!(costs.store_op_s(StoreTransport::Local), 0.0);
        assert!(costs.store_bw(StoreTransport::Local) > costs.store_bw(StoreTransport::Tcp));
        let local = costs.sharded_publish_s(bytes, world, StoreTransport::Local);
        let tcp = costs.sharded_publish_s(bytes, world, StoreTransport::Tcp);
        assert!(local < tcp, "local {local} !< tcp {tcp}");
        // The TCP publish is one rank's slice at NIC bandwidth plus one
        // connection setup.
        let slice = bytes / world as f64 / costs.shard_fetch_bw;
        assert!((tcp - slice - costs.tcp_connect_s).abs() < 1e-12);
        // A restore pays the rendezvous plus one extra store op (the
        // manifest fetch) on top of the shard fetch — writes skip both.
        let io_tcp = costs.sharded_io_s(bytes, world, StoreTransport::Tcp);
        assert!((io_tcp - (costs.rendezvous_s + costs.tcp_connect_s + tcp)).abs() < 1e-12);
        // A degenerate world still pays the rendezvous.
        assert!(costs.sharded_io_s(bytes, 1, StoreTransport::Local) >= costs.rendezvous_s);
        assert!(costs.sharded_io_s(0.0, 0, StoreTransport::Local) == costs.rendezvous_s);
    }

    #[test]
    fn sharded_fault_sim_transport_dimension_only_moves_io_time() {
        let (cfg, costs) = base();
        let plan = FaultPlan::new(2, 45, 10);
        let local = simulate_with_faults(
            &cfg,
            60,
            &plan,
            &costs,
            StoreTransport::Local,
            Recovery::FullRelaunch,
        );
        let tcp = simulate_with_faults(
            &cfg,
            60,
            &plan,
            &costs,
            StoreTransport::Tcp,
            Recovery::FullRelaunch,
        );
        // The failure story is transport-independent.
        assert_eq!(local.events.len(), tcp.events.len());
        assert_eq!(local.replay_time_s, tcp.replay_time_s);
        assert_eq!(local.ideal_time_s, tcp.ideal_time_s);
        // Only checkpoint I/O differs, in the local store's favor.
        assert!(local.snapshot_overhead_s < tcp.snapshot_overhead_s);
        assert!(local.restart_overhead_s < tcp.restart_overhead_s);
        assert!(local.total_time_s < tcp.total_time_s);
        // And both still account exactly.
        for r in [&local, &tcp] {
            let sum =
                r.ideal_time_s + r.snapshot_overhead_s + r.restart_overhead_s + r.replay_time_s;
            assert!((r.total_time_s - sum).abs() < 1e-6 * r.total_time_s);
        }
    }

    #[test]
    fn rejoin_recovery_shrinks_downtime_but_not_replay() {
        let (cfg, costs) = base();
        let plan = FaultPlan::new(2, 45, 10);
        let full = simulate_with_faults(
            &cfg,
            60,
            &plan,
            &costs,
            StoreTransport::Tcp,
            Recovery::FullRelaunch,
        );
        let rejoin = simulate_with_faults(
            &cfg,
            60,
            &plan,
            &costs,
            StoreTransport::Tcp,
            Recovery::Rejoin,
        );
        // Identical failure story and replayed work — rejoin is purely a
        // downtime optimization.
        assert_eq!(full.events.len(), rejoin.events.len());
        assert_eq!(full.replay_time_s, rejoin.replay_time_s);
        assert_eq!(full.snapshot_overhead_s, rejoin.snapshot_overhead_s);
        assert!(rejoin.restart_overhead_s < full.restart_overhead_s);
        // The gap is exactly the detection + relaunch savings.
        let saved = (costs.detection_s - costs.hb_detection_s)
            + (costs.relaunch_s - costs.quiesce_s - costs.rank_relaunch_s);
        assert!(
            (full.restart_overhead_s - rejoin.restart_overhead_s - saved).abs() < 1e-9,
            "saved {saved}"
        );
        // Accounting still closes.
        let sum = rejoin.ideal_time_s
            + rejoin.snapshot_overhead_s
            + rejoin.restart_overhead_s
            + rejoin.replay_time_s;
        assert!((rejoin.total_time_s - sum).abs() < 1e-6 * rejoin.total_time_s);
        // The closed-form downtime matches the simulated restart.
        let bytes = snapshot_bytes(&cfg);
        let world = cfg.tp * cfg.dp * cfg.pp;
        assert!(
            (rejoin.restart_overhead_s
                - costs.rejoin_downtime_s(bytes, world, StoreTransport::Tcp))
            .abs()
                < 1e-9
        );
    }

    #[test]
    fn rejoin_before_first_snapshot_degrades_to_full_relaunch() {
        let (cfg, costs) = base();
        // Killed at iteration 4 with the first snapshot due at 10: there
        // is nothing to splice a replacement against.
        let plan = FaultPlan::new(0, 4, 10);
        let r = simulate_with_faults(
            &cfg,
            20,
            &plan,
            &costs,
            StoreTransport::Tcp,
            Recovery::Rejoin,
        );
        assert!((r.restart_overhead_s - (costs.hb_detection_s + costs.relaunch_s)).abs() < 1e-9);
        assert!(r.events.iter().any(|e| matches!(
            e,
            FaultEvent::Restore {
                from_iter: None,
                ..
            }
        )));
    }

    #[test]
    fn snapshot_bytes_scale_with_model() {
        let small = snapshot_bytes(&SimConfig::paper_gpt_2_5b());
        let large = snapshot_bytes(&SimConfig::paper_gpt_8_3b());
        assert!(large > 2.0 * small);
        // GPT-2.5B at 12 bytes/param is in the tens of GB.
        assert!(small > 1e10 && small < 1e11, "snapshot {small:.3e} B");
    }
}
