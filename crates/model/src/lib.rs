//! `opt-model` — a GPT-style transformer with hand-written backprop.
//!
//! This crate replaces Megatron-LM's model zoo + PyTorch autograd in the
//! Optimus-CC reproduction. Writing the backward passes by hand gives the
//! trainer full control over *where* compression hooks into the gradient
//! stream — exactly what the paper did by patching Megatron-LM's
//! `p2p_communication.py` and `schedules.py`.
//!
//! Key pieces:
//!
//! * [`Linear`], [`LayerNorm`], [`Gelu`] — primitive layers
//!   implementing the [`Layer`] trait. A layer keeps no activations: its
//!   forward hands back what its backward needs, and the caller passes
//!   that back.
//! * [`MultiHeadAttention`] and [`TransformerBlock`] — the Megatron-LM
//!   layer structure of the paper's Fig. 2 (LN → attention → residual →
//!   LN → MLP(4h) → residual).
//! * [`Embedding`] — the *shared* input/output embedding whose gradient
//!   synchronization the paper's §6 fuses. The first pipeline stage uses
//!   [`Embedding::lookup`]; the last stage holds its own replica used via
//!   [`Embedding::project`] (tied softmax weights), creating the
//!   first↔last stage gradient dependency.
//! * [`Stage`] — a pipeline stage (a consecutive slice of the model)
//!   exposing forward/backward on hidden-state matrices, the unit the
//!   pipeline runtime schedules. It owns the stage's one 1F1B queue, so
//!   several in-flight micro-batches backpropagate in forward order.
//! * [`GptConfig`] — configuration zoo with Megatron-consistent parameter
//!   counting (GPT-2.5B / 8.3B / 9.2B / 39B / 175B presets) used by the
//!   performance simulator to size communication volumes.
//! * [`Adam`] — the optimizer, operating on [`ParamRef`]s.
//!
//! # Example
//!
//! ```
//! use opt_model::{GptConfig, Stage};
//!
//! let cfg = GptConfig::tiny();
//! let stages = Stage::build_pipeline(&cfg, 2, 0);
//! assert_eq!(stages.len(), 2);
//! assert!(stages[0].has_embedding());
//! assert!(stages[1].has_head());
//! ```

mod attention;
mod block;
mod config;
mod embedding;
mod layer;
mod layers;
mod loss;
mod optimizer;
mod stage;

pub use attention::MultiHeadAttention;
pub use block::TransformerBlock;
pub use config::GptConfig;
pub use embedding::Embedding;
pub use layer::{Layer, ParamRef};
pub use layers::{Gelu, LayerNorm, Linear};
pub use loss::{cross_entropy, softmax_rows, LossOutput};
pub use optimizer::{Adam, Optimizer};
pub use stage::Stage;
