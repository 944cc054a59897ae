//! `optimus-cc` — the paper's contribution: 3D-parallelism-aware
//! communication compression, implemented as a real (CPU, multi-threaded)
//! pipeline+data-parallel training runtime.
//!
//! Every (pipeline stage, data-parallel rank) pair runs as a worker
//! owning its slice of the model (`opt-model::Stage`). Workers execute the
//! 1F1B schedule from `opt-schedule`, exchanging *actual tensors* through
//! `opt-net` channels and collectives. The paper's three techniques hook
//! into this runtime exactly where the paper hooks into Megatron-LM:
//!
//! * **Compressed backpropagation** (§5) — inter-stage activation
//!   gradients pass through an [`opt_compress::LazyErrorPropagator`];
//!   epilogue-only selection comes from `opt_schedule::is_epilogue_send`.
//! * **Fused embedding synchronization** (§6) — the first/last stage
//!   embedding-gradient replicas are reduced in a single `2D`-way
//!   all-reduce instead of per-stage EMB DP plus a 2-way sync. The two
//!   paths are mathematically identical, which integration tests assert.
//! * **Selective stage compression** (§7) — data-parallel gradients of
//!   the earliest stages go through a distributed PowerSGD all-reduce
//!   ([`DistPowerSgd`]) with error feedback; later stages stay dense.
//!
//! The runtime measures what the paper measures: validation perplexity
//! over training (Fig. 9, Table 2), zero-shot task accuracy (Tables 3-4),
//! lazy-error statistics (Fig. 11), memory overhead (Fig. 12), and
//! per-class wire traffic.
//!
//! **One coordinator, two launchers.** A world is `pp x dp` workers
//! running one worker loop, driven by one coordinator that speaks one
//! vocabulary of typed control messages over an `opt_net::Transport`, as
//! the extra rank `pp * dp`. [`Trainer`] launches the workers as threads
//! over a `LocalTransport` (messages cross as `Arc`s, nothing is encoded);
//! [`ProcTrainer`] launches them as `opt-worker` OS processes over a
//! `TcpTransport` and adds what only processes need — spawning, killing
//! and reaping them. Training schedule, metric aggregation, checkpoint
//! commit order and recovery exist once, so the two worlds agree bit for
//! bit by construction; every coordinator wait is bounded and a dead
//! worker — thread or process — surfaces as a typed [`WorldError`] naming
//! its rank (which [`Trainer`]'s infallible methods turn into a panic).
//!
//! It is also **fault tolerant**, and a checkpoint is one thing: a
//! manifest plus one shard per rank in an `opt_net::ShardStore`.
//! [`Trainer::save_sharded`] has every worker serialize its own
//! parameters, optimizer moments, and compression state (PowerSGD warm
//! starts, lazy-error residuals, DP error feedback) into a checksummed
//! shard and publish it, with barrier semantics, and commits the manifest
//! last; [`Trainer::restore_sharded`] relaunches workers that rendezvous
//! on the manifest and fetch *only their own shard* — no process ever
//! holds the whole world's state, and a replacement worker on a different
//! host does exactly the same. The
//! guarantee is bit-exact resume — train `N` straight vs. train `k`,
//! checkpoint, [`Trainer::kill`], restore, train `N - k` produce identical
//! losses and identical wire traffic — and [`run_with_faults`] scripts
//! whole kill/recover scenarios from an `opt_ckpt::FaultPlan` under a
//! [`Recovery`]. [`Trainer::snapshot`] gathers the same state into one
//! in-memory value for inspection; nothing restores from it.
//!
//! # Example
//!
//! ```no_run
//! use optimus_cc::{QualityConfig, Trainer, TrainerConfig};
//!
//! let cfg = TrainerConfig::small_test(QualityConfig::cb_fe(), 50);
//! let mut trainer = Trainer::launch(cfg);
//! let report = trainer.train();
//! println!("final validation PPL: {:.2}", report.final_val_ppl());
//! trainer.shutdown();
//! ```

mod config;
mod control;
mod coordinator;
mod dp_compress;
mod fault;
mod memory;
mod proc;
mod stats;
mod trainer;
mod worker;

pub use config::TrainerConfig;
pub use dp_compress::DistPowerSgd;
pub use fault::{run_with_faults, FaultOutcome, ProcFaultOptions, Recovery};
pub use memory::MemoryReport;
pub use proc::{
    worker_main, ProcOptions, ProcTrainer, WorldError, ENV_CFG, ENV_RANK, ENV_RDV, ENV_STORE,
};
pub use stats::{ErrorStatPoint, TrainReport, ValPoint};
pub use trainer::Trainer;

// The compression plan lives in opt-schedule, where the simulator reads it
// too.
pub use opt_schedule::{CbMethod, CbQuality, QualityConfig, ScQuality};

// Tracing types surface in the trainer API (`Trainer::launch_with_trace`,
// `Trainer::take_trace`), so re-export them for callers that do not
// depend on `opt-trace` directly.
pub use opt_trace::{Trace, TraceMode};
