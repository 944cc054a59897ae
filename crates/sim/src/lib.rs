//! `opt-sim` — discrete-event performance simulator of 3D-parallel training.
//!
//! This crate replaces the paper's 128×A100 cluster. It simulates one
//! training iteration of a Megatron-style 3D-parallel job at event
//! granularity:
//!
//! * per-device compute ops following the 1F1B schedule from
//!   `opt-schedule` (forward `t`, backward `2t`, as in the paper's Fig. 4),
//! * one alpha–beta link model for every transfer (`cost.rs`:
//!   [`p2p_time_s`], [`all_reduce_time_s`] with the ring volume factor
//!   [`ring_all_reduce_wire_bytes`], and the Eq. 15/16 embedding-sync
//!   costs),
//! * point-to-point inter-stage transfers over the inter-node fabric,
//!   optionally compressed (with compression/decompression kernel time
//!   from the calibrated [`KernelModel`]),
//! * per-stage data-parallel ring all-reduces that start as soon as the
//!   stage's last backward finishes (the structural fact selective stage
//!   compression exploits, §7),
//! * embedding synchronization — separate (EMB DP + 2-way sync) or fused
//!   (single 2D-way all-reduce, §6).
//!
//! Communication volumes are derived from the *paper-scale* model configs
//! (`opt-model::GptConfig`) and the paper's cluster parameters (effective
//! inter-node bandwidth and latency on [`SimConfig`]), so "who wins by
//! what factor" is governed by the same volume/bandwidth ratios as on the
//! real cluster.
//!
//! The CPI-stack-style breakdown of §3/Fig. 10 is reproduced by the same
//! method the paper uses: re-running the simulation with one communication
//! class disabled and reporting the difference ([`breakdown`]).
//!
//! # Example
//!
//! ```
//! use opt_schedule::QualityConfig;
//! use opt_sim::{simulate, SimConfig};
//!
//! // The trainer's own plan, priced at the paper's ranks.
//! let base = SimConfig::paper_gpt_2_5b();
//! let opt = base.clone().with_plan(QualityConfig::cb_fe_sc().at_paper_ranks());
//! let t_base = simulate(&base).iteration_time_s;
//! let t_opt = simulate(&opt).iteration_time_s;
//! assert!(t_opt < t_base);
//! ```

mod breakdown;
mod config;
mod cost;
mod engine;
mod kernel;

pub use breakdown::{breakdown, Breakdown};
pub use config::SimConfig;
pub use cost::{
    all_reduce_time_s, embedding_fusion_speedup, embedding_sync_baseline_bytes,
    embedding_sync_fused_bytes, p2p_time_s, ring_all_reduce_wire_bytes,
};
pub use engine::{simulate, SimResult, TraceEvent, TraceKind};
pub use kernel::KernelModel;
