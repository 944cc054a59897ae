//! `opt-tensor` — a small dense `f32` matrix library.
//!
//! This crate is the numerical substrate of the Optimus-CC reproduction.
//! It provides the [`Matrix`] type with the operations needed by a
//! hand-written transformer (matmul, transpose, element-wise maps,
//! row/column reductions), the linear-algebra kernels needed by PowerSGD
//! gradient compression (Gram–Schmidt orthogonalization, products against
//! tall/skinny factors), and deterministic random initialization.
//!
//! The matrix products run on a cache-blocked, register-tiled GEMM layer
//! (see `gemm.rs`) with vectorized micro-kernels (AVX2+FMA on x86_64,
//! scalar `mul_add` fallback) selected once at startup
//! by a runtime dispatch module ([`kernel_arch`], overridable via
//! `OPT_KERNEL_ARCH`). Large outputs fan across a small deterministic
//! worker pool (`OPT_KERNEL_THREADS`, see [`kernel_threads`]). The kernel
//! contract — a fused-multiply-add accumulation chain per output element,
//! plus a fixed 8-lane split for dot reductions — makes results
//! **bit-identical** across every arch path and any thread count, so
//! training determinism (including checkpoint/restore bit-exactness)
//! survives both the SIMD and the parallelism. The model's
//! transcendentals ([`exp`] for softmax, [`gelu`] / [`gelu_backward`]) are
//! element-wise kernels built from IEEE-exact operations only — no libm
//! call whose result could differ between kernel paths.
//! Allocation-free `*_into` variants ([`Matrix::matmul_into`] and
//! friends) back the model and compressor hot paths, and
//! [`gemm_strided_batched`] runs a grid of small products — attention's
//! per-(sequence, head) blocks — as one kernel entry that reads and
//! writes every block where it sits.
//!
//! # Storage
//!
//! [`Matrix`] storage of 64 KiB or more is drawn from one
//! process-wide pool of freed buffers, matched by exact length, and a
//! dropped `Matrix` gives its buffer back, so each training step reuses
//! the pages the previous one freed instead of faulting fresh ones in.
//! What draws from the pool: [`Matrix::zeros`], [`Matrix::full`],
//! [`Matrix::from_fn`], `clone`, the element-wise ops, `transpose`, the
//! products and the growth of an `*_into` output, and [`Reader::f32s`]
//! (every decoded payload and checkpoint). What does not: buffers under
//! 64 KiB, which the allocator serves without faulting, and the vectors
//! handed to [`Matrix::from_vec`] / [`Matrix::from_rows`], which keep
//! their own storage until they are dropped. Reuse never changes a bit —
//! every constructor and kernel overwrites the whole buffer, and
//! `zeros` / `full` fill a pooled one — and the pool never holds more
//! than 32 MiB; a buffer past that ceiling is freed.
//!
//! # Example
//!
//! ```
//! use opt_tensor::Matrix;
//!
//! let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
//! let b = Matrix::identity(2);
//! let c = a.matmul(&b);
//! assert_eq!(c, a);
//! ```

mod dispatch;
mod gemm;
mod init;
mod linalg;
mod matrix;
mod ops;
mod persist;
mod pool;
mod simd;
mod stats;

pub use dispatch::{
    arch_available, available_arches, detected_arch, kernel_arch, kernel_path_counts,
    reset_kernel_path_counts, set_kernel_arch, KernelArch,
};
pub use gemm::{gemm_strided_batched, BatchShape, BlockLayout, Blocks};
pub use init::{xavier_uniform, SeedStream};
pub use linalg::orthonormalize_columns;
pub use matrix::{Matrix, ShapeError};
pub use persist::{codec_cycle_counts, Persist, PersistError, Reader, Writer};
pub use pool::{
    host_parallelism, kernel_threads, parallel_flop_threshold, set_kernel_threads,
    set_parallel_flop_threshold, MAX_KERNEL_THREADS,
};
pub use simd::{exp, gelu, gelu_backward};
pub use stats::{cosine_similarity, relative_error};
