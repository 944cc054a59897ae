//! Compression/decompression kernel cost model, calibrated to Fig. 15.

/// Cost model for PowerSGD compression kernels on an A100-class GPU.
///
/// Compression of an `n x m` gradient at rank `r` performs two `n x m x r`
/// GEMMs (`P = M Q`, `Q = M^T P`) plus Gram–Schmidt orthogonalization of
/// the `n x r` factor. The paper's §9.6 reports that orthogonalization
/// dominates (~80 % of compression time) and that throughput *decreases*
/// with rank while *increasing* with model size — both fall out of this
/// two-term model.
///
/// Constants are calibrated to the paper's Fig. 15 anchor: GPT-8.3B,
/// CB rank 16 → compression ≈ 98 GB/s (787 Gb/s), decompression
/// ≈ 8.3 TB/s (68.2 Tb/s) of dense-equivalent bytes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct KernelModel {
    /// Effective GEMM throughput during compression, FLOP/s.
    pub gemm_flops: f64,
    /// Per-column cost of Gram–Schmidt (the loop is kernel-launch bound:
    /// one projection + normalization round per column), seconds.
    pub orth_per_column_s: f64,
    /// Memory-bound FLOP rate of the orthogonalization arithmetic, FLOP/s.
    pub orth_flops: f64,
    /// Effective GEMM throughput during decompression (`P Q^T`), FLOP/s.
    pub decomp_flops: f64,
    /// Fixed kernel-launch overhead per compression call, seconds.
    pub launch_overhead_s: f64,
}

impl KernelModel {
    /// The Fig. 15-calibrated A100 model.
    pub fn a100() -> Self {
        Self {
            gemm_flops: 1.6e13,
            orth_per_column_s: 10e-6,
            orth_flops: 2e11,
            decomp_flops: 1.3e14,
            launch_overhead_s: 10e-6,
        }
    }

    /// Time of the Gram–Schmidt orthogonalization of the `n x r` left
    /// factor: a launch-bound per-column loop plus memory-bound FLOPs.
    pub fn orth_time(&self, n: usize, r: usize) -> f64 {
        r as f64 * self.orth_per_column_s + 2.0 * n as f64 * (r * r) as f64 / self.orth_flops
    }

    /// Time to compress an `n x m` matrix at rank `r`, seconds.
    pub fn compress_time(&self, n: usize, m: usize, r: usize) -> f64 {
        let gemm = 4.0 * (n as f64) * (m as f64) * (r as f64) / self.gemm_flops;
        self.launch_overhead_s + gemm + self.orth_time(n, r)
    }

    /// Time to decompress (`P Q^T`) an `n x m` matrix at rank `r`, seconds.
    pub fn decompress_time(&self, n: usize, m: usize, r: usize) -> f64 {
        let (n, m, r) = (n as f64, m as f64, r as f64);
        self.launch_overhead_s + 2.0 * n * m * r / self.decomp_flops
    }

    /// Dense-equivalent compression throughput in bytes/s for an `n x m`
    /// fp16 matrix at rank `r` — the metric of Fig. 15.
    pub fn compress_throughput(&self, n: usize, m: usize, r: usize) -> f64 {
        (n * m * 2) as f64 / self.compress_time(n, m, r)
    }

    /// Dense-equivalent decompression throughput in bytes/s.
    pub fn decompress_throughput(&self, n: usize, m: usize, r: usize) -> f64 {
        (n * m * 2) as f64 / self.decompress_time(n, m, r)
    }

    /// Compression time for one pipeline stage's DP gradients: `layers`
    /// transformer layers, each with weight matrices `(h,3h)`, `(h,h)`,
    /// `(h,4h)`, `(4h,h)`, compressed independently at rank `r`.
    pub fn dp_compress_time(&self, layers: usize, hidden: usize, r: usize) -> f64 {
        let shapes = [
            (hidden, 3 * hidden),
            (hidden, hidden),
            (hidden, 4 * hidden),
            (4 * hidden, hidden),
        ];
        let per_layer: f64 = shapes
            .iter()
            .map(|&(n, m)| self.compress_time(n, m, r))
            .sum();
        layers as f64 * per_layer
    }

    /// Decompression time counterpart of [`KernelModel::dp_compress_time`].
    pub fn dp_decompress_time(&self, layers: usize, hidden: usize, r: usize) -> f64 {
        let shapes = [
            (hidden, 3 * hidden),
            (hidden, hidden),
            (hidden, 4 * hidden),
            (4 * hidden, hidden),
        ];
        let per_layer: f64 = shapes
            .iter()
            .map(|&(n, m)| self.decompress_time(n, m, r))
            .sum();
        layers as f64 * per_layer
    }
}

impl Default for KernelModel {
    fn default() -> Self {
        Self::a100()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// GPT-8.3B activation matrix under the paper's setting: micro-batch 8
    /// x seq 1024 rows, hidden 3072 columns.
    const N: usize = 8 * 1024;
    const M: usize = 3072;

    #[test]
    fn fig15_compression_anchor() {
        // Paper: 786.96 Gb/s = 98.37 GB/s at rank 16 on GPT-8.3B.
        let k = KernelModel::a100();
        let tput = k.compress_throughput(N, M, 16);
        assert!(
            tput > 50e9 && tput < 200e9,
            "compression throughput {tput:.3e} out of anchor band"
        );
    }

    #[test]
    fn fig15_decompression_anchor() {
        // Paper: 68.2 Tb/s = 8.52 TB/s at rank 16 on GPT-8.3B.
        let k = KernelModel::a100();
        let tput = k.decompress_throughput(N, M, 16);
        assert!(
            tput > 2e12 && tput < 20e12,
            "decompression throughput {tput:.3e} out of anchor band"
        );
    }

    #[test]
    fn throughput_decreases_with_rank() {
        // Paper §9.6: "the throughput decreases with higher CB ranks".
        let k = KernelModel::a100();
        let mut prev = f64::INFINITY;
        for r in [4usize, 16, 64, 256] {
            let t = k.compress_throughput(N, M, r);
            assert!(t < prev, "rank {r}: {t} !< {prev}");
            prev = t;
        }
    }

    #[test]
    fn throughput_increases_with_model_size() {
        // Paper §9.6: larger models amortize setup -> higher throughput.
        let k = KernelModel::a100();
        let small = k.compress_throughput(N, 1920, 16); // GPT-2.5B hidden
        let large = k.compress_throughput(N, 12_288, 16); // GPT-175B hidden
        assert!(large > small);
    }

    #[test]
    fn compression_beats_interconnect() {
        // The premise of the whole paper: compressing is far faster than
        // sending the saved bytes (200 Gb/s = 25 GB/s line rate).
        let k = KernelModel::a100();
        assert!(k.compress_throughput(N, M, 16) > 25e9);
        assert!(k.decompress_throughput(N, M, 16) > 25e9);
    }

    #[test]
    fn orthogonalization_dominates_at_paper_rank() {
        // §9.6: orthogonalization is ~80 % of compression time. Accept a
        // broad band around it.
        let k = KernelModel::a100();
        let total = k.compress_time(N, M, 16) - k.launch_overhead_s;
        let frac = k.orth_time(N, 16) / total;
        assert!(frac > 0.5 && frac < 0.95, "orth fraction {frac}");
    }

    #[test]
    fn rank512_dp_compression_is_slow() {
        // Fig. 13: rank 512 makes DP compression itself a bottleneck.
        let k = KernelModel::a100();
        let layers = 13; // GPT-2.5B stage at PP=4
        let t128 = k.dp_compress_time(layers, 1920, 128);
        let t512 = k.dp_compress_time(layers, 1920, 512);
        assert!(t512 > 5.0 * t128, "t512 {t512} vs t128 {t128}");
    }
}
