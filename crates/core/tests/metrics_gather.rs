//! A thread world's `report()` / `traffic()` are gathered the way a
//! process world's are: every worker answers `FetchMetrics` with its own
//! samples, ledger and lane counters, and the coordinator adds them up.
//!
//! The pins below are what the shared collector, shared ledger and
//! world-wide `LocalTransport` counters of the pre-merge trainer reported
//! for the same run. A `LocalTransport`'s `channel_stats()` cover the
//! whole world while a `TcpTransport`'s cover one endpoint's half of each
//! lane, so a merge that took every thread's reply at face value would
//! count each lane `world` times.

use opt_ckpt::framing::fnv1a64;
use opt_net::{ChannelClass, TrafficClass};
use opt_tensor::Persist;
use optimus_cc::{QualityConfig, Trainer, TrainerConfig};

#[test]
fn gathered_metrics_match_the_shared_collector_result() {
    let mut cfg = TrainerConfig::tiny_test(QualityConfig::cb_fe_sc(), 4);
    cfg.validate_every = 2;
    let mut t = Trainer::launch(cfg);
    let report = t.train();
    let traffic = t.traffic();
    let again = t.report();
    t.shutdown();

    // Gathering is idempotent: control-plane lanes never enter the
    // breakdown, so asking twice changes nothing, bit for bit.
    assert_eq!(report.traffic, traffic);
    assert_eq!(again.traffic, traffic);
    let bits = |ls: &[f32]| ls.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
    assert_eq!(bits(&report.train_loss), bits(&again.train_loss));
    assert_eq!(report.val_points, again.val_points);
    assert_eq!(report.train_loss.len(), 4);
    assert!(report.train_loss.iter().all(|l| l.is_finite()));
    assert_eq!(report.val_points.len(), 2); // iter 1, and iter 3 (twice)

    // Whole lanes, each counted once: what was sent was received.
    assert!(!traffic.channels.is_empty());
    for lane in &traffic.channels {
        assert_ne!(lane.class(), ChannelClass::Control, "{lane:?}");
        assert_eq!((lane.sends, lane.send_bytes), (lane.recvs, lane.recv_bytes));
    }

    // Pinned at the parent commit (one shared collector / ledger /
    // transport): modeled totals, measured lanes, and their encoding.
    assert_eq!(traffic.bytes(TrafficClass::DataParallel), PIN_DP_BYTES);
    assert_eq!(
        traffic.bytes(TrafficClass::InterStage),
        PIN_INTERSTAGE_BYTES
    );
    assert_eq!(traffic.bytes(TrafficClass::Embedding), PIN_EMB_BYTES);
    assert_eq!(traffic.channels.len(), PIN_LANES);
    assert_eq!(
        traffic.sent_bytes(ChannelClass::Collective),
        PIN_COLLECTIVE_SENT
    );
    assert_eq!(fnv1a64(&traffic.to_bytes()), PIN_TRAFFIC_DIGEST);
}

const PIN_DP_BYTES: u64 = 84_992;
const PIN_INTERSTAGE_BYTES: u64 = 30_720;
const PIN_EMB_BYTES: u64 = 24_576;
const PIN_LANES: usize = 14;
const PIN_COLLECTIVE_SENT: u64 = 229_248;
const PIN_TRAFFIC_DIGEST: u64 = 0x775a_efdd_7600_30a5;
