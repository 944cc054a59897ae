//! `opt-compress` — gradient compression algorithms for the Optimus-CC
//! reproduction.
//!
//! The paper (§2.3, §8) trains with one lossy compressor family and
//! contrasts it with another, and corrects compression error in two
//! places:
//!
//! * **Low-rank approximation** — [`PowerSgd`] (Vogels et al., NeurIPS'19),
//!   the compressor Optimus-CC adopts for both inter-stage backpropagation
//!   traffic and data-parallel gradients.
//! * **Top-k sparsification** — [`TopK`], the baseline shown in the paper's
//!   Fig. 3 to be unsuitable for point-to-point compression.
//! * **Lazy error propagation** — [`LazyErrorPropagator`] (§5.1), the
//!   paper's contribution: the compression residual of micro-batch *i* is
//!   added to micro-batch *i+n* **within the same iteration**, before the
//!   weight update, so no staleness is introduced.
//! * The classic across-iteration residual of data-parallel compression
//!   lives with the DP exchange itself (`optimus_cc::DistPowerSgd`); the
//!   paper (§7) points out it is applied *after* the weight update and
//!   thus suffers from staleness.
//!
//! Both compressors produce a self-describing [`Compressed`] payload that
//! knows how to [`Compressed::decompress`] itself and how many bytes it
//! would occupy on the wire ([`Compressed::wire_bytes`], fp16 accounting as
//! in the paper).
//!
//! # Example
//!
//! ```
//! use opt_compress::{Compressor, PowerSgd};
//! use opt_tensor::{Matrix, SeedStream};
//!
//! let mut rng = SeedStream::new(0);
//! let grad = rng.uniform_matrix(64, 32, 1.0);
//! let mut comp = PowerSgd::new(4, 42);
//! let payload = comp.compress(&grad);
//! let approx = payload.decompress();
//! assert_eq!(approx.shape(), grad.shape());
//! assert!(payload.wire_bytes() < grad.len() * 2);
//! ```

mod lazy;
mod payload;
mod powersgd;
mod topk;

pub use lazy::{LazyErrorPropagator, LinkErrorStats};
pub use payload::{Compressed, FP16_BYTES};
pub use powersgd::PowerSgd;
pub use topk::TopK;

use opt_tensor::Matrix;

/// A lossy gradient compressor.
///
/// Compressors may be stateful: PowerSGD keeps its warm-start factor
/// between calls. Decompression is stateless and lives on [`Compressed`].
pub trait Compressor: Send {
    /// Compresses a gradient matrix into a wire payload.
    fn compress(&mut self, grad: &Matrix) -> Compressed;

    /// Compress, then immediately decompress — the round trip every lossy
    /// link performs. Provided for convenience and tests.
    fn round_trip(&mut self, grad: &Matrix) -> Matrix {
        self.compress(grad).decompress()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use opt_tensor::SeedStream;

    #[test]
    fn identity_round_trip_is_exact() {
        // A dense payload — what a send that skips compression carries —
        // reconstructs its matrix bit for bit.
        let mut rng = SeedStream::new(1);
        let g = rng.uniform_matrix(5, 7, 3.0);
        assert_eq!(Compressed::Dense { matrix: g.clone() }.decompress(), g);
    }

    #[test]
    fn identity_wire_bytes_match_dense_fp16() {
        let dense = Compressed::Dense {
            matrix: Matrix::zeros(10, 10),
        };
        assert_eq!(dense.wire_bytes(), 100 * FP16_BYTES);
    }
}
