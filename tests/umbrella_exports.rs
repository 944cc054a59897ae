//! Guards the umbrella crate's re-export wiring: if a workspace manifest or
//! a `pub use` in `src/lib.rs` regresses, these paths stop resolving and
//! `cargo test` fails at compile time, before any behavioral test runs.

use optimus::compress::{Compressor, PowerSgd};
use optimus::core::{QualityConfig, Trainer, TrainerConfig};
use optimus::tensor::Matrix;

#[test]
fn tensor_reexport_resolves() {
    let m = Matrix::zeros(3, 2);
    assert_eq!(m.rows(), 3);
}

#[test]
fn compress_reexport_resolves() {
    let mut comp = PowerSgd::new(2, 7);
    let grad = Matrix::zeros(8, 4);
    let payload = comp.compress(&grad);
    let restored = payload.decompress();
    assert_eq!(restored.rows(), 8);
}

#[test]
fn core_reexport_resolves() {
    let mut trainer = Trainer::launch(TrainerConfig::tiny_test(QualityConfig::baseline(), 1));
    trainer.train_more(0);
    trainer.shutdown();
}

#[test]
fn remaining_subsystem_reexports_resolve() {
    // One symbol per remaining re-exported crate, so a dropped `pub use`
    // or manifest edge is caught no matter which subsystem it touches.
    let _ = optimus::ckpt::FaultPlan::new(0, 1, 1);
    let _ = optimus::data::ZeroShotTask::ALL;
    let _ = optimus::model::GptConfig::gpt_2_5b();
    let _ = optimus::net::CollectiveWorld::new(1);
    let _ = optimus::schedule::one_f_one_b;
    let _ = optimus::sim::SimConfig::paper_gpt_2_5b();
}

#[test]
fn transport_reexports_resolve() {
    use optimus::net::{LocalTransport, Transport};
    // The pluggable transport surface: both backends, the wire framing
    // constants, the tunable timeout, and the remote shard store.
    let local = LocalTransport::new(2);
    local
        .send_value(0, 1, optimus::net::channel_id(7, 0), vec![1u8, 2])
        .expect("send");
    assert_eq!(local.world(), 2);
    let _ = optimus::net::net_timeout();
    assert_eq!(optimus::net::WIRE_MAGIC, b"OPTWIRE\0");
    let _ = optimus::net::WIRE_OVERHEAD_BYTES;
    let _ = optimus::net::TcpShardStore::connect("127.0.0.1:9".parse().unwrap());
    let _ = optimus::ckpt::framing::fnv1a64(b"shared framing");
    // The multi-process runtime surface.
    let _ = optimus::core::ProcOptions {
        worker_bin: "opt-worker".into(),
        store_addr: "127.0.0.1:9".parse().unwrap(),
        scratch_dir: std::env::temp_dir(),
    };
    let _ = optimus::core::ProcFaultOptions {
        worker_bin: "opt-worker".into(),
        scratch_dir: std::env::temp_dir(),
        store_dir: None,
    };
}

#[test]
fn trace_reexports_resolve() {
    use optimus::trace::{SpanKind, Trace, TraceMode};
    // The observability surface: the env-gated mode, the merged trace
    // with its structural digest, the analyzer, and the core aliases.
    assert_eq!(TraceMode::parse("spans"), Some(TraceMode::Spans));
    assert_eq!(TraceMode::default(), TraceMode::Off);
    let trace = Trace::merge(Vec::new());
    assert_eq!(trace.span_count(), 0);
    assert_eq!(SpanKind::Forward.name(), "forward");
    let report = optimus::trace::analyze(&trace, 1);
    assert!(report.ranks.is_empty());
    let _ = optimus::trace::render(&report);
    // The trainer-facing aliases re-exported through optimus::core.
    let _: optimus::core::TraceMode = optimus::trace::TraceMode::Spans;
}

#[test]
fn elastic_restore_reexports_resolve() {
    // The sharded-checkpoint surface: formats in ckpt, the store in net.
    let _ = optimus::ckpt::shard_file_name(0, 0, 0);
    let _ = optimus::ckpt::MANIFEST_FILE;
    let _ = optimus::ckpt::SHARD_FORMAT_VERSION;
    let store: &dyn optimus::net::ShardStore = &optimus::net::MemShardStore::new();
    store.put("manifest.ckpt", b"x").expect("put");
    let _ = optimus::net::FsShardStore::new("never-created");
}
