//! `opt-schedule` — pipeline-parallel execution schedules.
//!
//! Reproduces Megatron-LM's `schedules.py`: the 1F1B
//! (one-forward-one-backward) schedule over `S` stages and `M`
//! micro-batches, plus the *epilogue* analysis that Optimus-CC's
//! epilogue-only compression (§5.2) relies on: identifying which backward
//! inter-stage sends lie on the critical path because the receiving stage
//! has drained its other work.
//!
//! It also holds the one compression plan, [`QualityConfig`] (CB, FE, SC
//! and the naive strawmen of the paper's Fig. 3), with the one rule for
//! which stages' DP traffic it compresses and at what rank.
//!
//! The same schedule and plan drive both the real multi-threaded trainer
//! (each device thread executes its op list in order) and the
//! discrete-event performance simulator (which assigns durations to ops
//! and transfers).
//!
//! # Example
//!
//! ```
//! use opt_schedule::{one_f_one_b, Op};
//!
//! let sched = one_f_one_b(4, 8);
//! // The last stage alternates F and B from the start (Fig. 4a).
//! assert_eq!(sched.device_ops(3)[0], Op::Forward { micro: 0 });
//! assert_eq!(sched.device_ops(3)[1], Op::Backward { micro: 0 });
//! // The first stage warms up with S-1 forwards.
//! assert_eq!(sched.device_ops(0)[2], Op::Forward { micro: 2 });
//! ```

mod epilogue;
mod overlap;
mod plan;
mod schedule;
mod selective;
mod slot;

pub use epilogue::{epilogue_sends, is_epilogue_send};
pub use overlap::{overlap_launch, overlap_micro, OverlapTask};
pub use plan::{CbMethod, CbQuality, QualityConfig, ScQuality};
pub use schedule::{bubble_fraction, one_f_one_b, Op, PipelineSchedule};
pub use selective::sc_stage_count;
pub use slot::slot_guard;
