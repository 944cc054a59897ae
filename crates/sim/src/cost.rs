//! The simulator's link model: alpha–beta costs on one inter-node fabric.
//!
//! The paper's Eq. 15 uses the classic ring all-reduce volume result from
//! Thakur et al.: for `R` ranks reducing `V` bytes, the bytes crossing any
//! rank's link total `2 V (R-1) / R`. The engine times every transfer with
//! these functions, and the Eq. 15/16 embedding-synchronization costs are
//! expressed in the same per-rank wire bytes.

/// Bytes crossing each rank's link for a ring all-reduce of `volume` bytes
/// over `ranks` participants: `2 V (R-1) / R`.
///
/// For `ranks <= 1` no communication is needed and the result is 0.
///
/// # Example
///
/// ```
/// use opt_sim::ring_all_reduce_wire_bytes;
/// // Two ranks: each sends/receives exactly V bytes (reduce + broadcast halves).
/// assert_eq!(ring_all_reduce_wire_bytes(1000.0, 2), 1000.0);
/// // Large R approaches 2V.
/// assert!(ring_all_reduce_wire_bytes(1000.0, 128) > 1980.0);
/// ```
pub fn ring_all_reduce_wire_bytes(volume: f64, ranks: usize) -> f64 {
    if ranks <= 1 {
        return 0.0;
    }
    2.0 * volume * (ranks as f64 - 1.0) / ranks as f64
}

/// Time in seconds for a ring all-reduce of `volume` bytes over `ranks`
/// participants on a link with `bandwidth` bytes/s and per-step `latency`
/// seconds. The ring performs `2 (R-1)` latency-bound steps.
pub fn all_reduce_time_s(volume: f64, ranks: usize, bandwidth: f64, latency: f64) -> f64 {
    if ranks <= 1 {
        return 0.0;
    }
    let steps = 2.0 * (ranks as f64 - 1.0);
    steps * latency + ring_all_reduce_wire_bytes(volume, ranks) / bandwidth
}

/// Time in seconds for a point-to-point transfer of `volume` bytes.
pub fn p2p_time_s(volume: f64, bandwidth: f64, latency: f64) -> f64 {
    latency + volume / bandwidth
}

/// The paper's Eq. 15: baseline embedding-layer communication cost (one
/// D-way all-reduce from data parallelism plus one 2-way all-reduce for
/// embedding synchronization), expressed in *bytes on the wire per rank*:
/// `V (3D - 2) / D`.
pub fn embedding_sync_baseline_bytes(volume: f64, dp_ways: usize) -> f64 {
    ring_all_reduce_wire_bytes(volume, dp_ways) + ring_all_reduce_wire_bytes(volume, 2)
}

/// The paper's Eq. 16: fused embedding synchronization cost — a single
/// `2D`-way all-reduce: `V (2 * 2D - 2) / 2D = V (2D - 1) / D` bytes.
pub fn embedding_sync_fused_bytes(volume: f64, dp_ways: usize) -> f64 {
    ring_all_reduce_wire_bytes(volume, 2 * dp_ways)
}

/// The paper's §6 "improvement" metric: speedup of the embedding
/// synchronization phase, `C_emb / C_fused - 1 = (D-1)/(2D-1)` — 42.9 %
/// at D = 4, approaching 50 % as D grows.
pub fn embedding_fusion_speedup(dp_ways: usize) -> f64 {
    let base = embedding_sync_baseline_bytes(1.0, dp_ways);
    let fused = embedding_sync_fused_bytes(1.0, dp_ways);
    if fused == 0.0 {
        0.0
    } else {
        base / fused - 1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ring_volume_matches_closed_form() {
        // 2 V (R-1)/R for a few Rs.
        assert_eq!(ring_all_reduce_wire_bytes(100.0, 4), 150.0);
        assert_eq!(ring_all_reduce_wire_bytes(100.0, 1), 0.0);
    }

    #[test]
    fn eq15_matches_paper_formula() {
        // C_emb = V (3D-2)/D
        for d in [2usize, 4, 8, 16] {
            let got = embedding_sync_baseline_bytes(1.0, d);
            let expect = (3.0 * d as f64 - 2.0) / d as f64;
            assert!((got - expect).abs() < 1e-12, "D={d}: {got} vs {expect}");
        }
    }

    #[test]
    fn eq16_matches_paper_formula() {
        // C_fused = V (2D-1)/D
        for d in [2usize, 4, 8, 16] {
            let got = embedding_sync_fused_bytes(1.0, d);
            let expect = (2.0 * d as f64 - 1.0) / d as f64;
            assert!((got - expect).abs() < 1e-12, "D={d}: {got} vs {expect}");
        }
    }

    #[test]
    fn fusion_speedup_is_42_9_percent_at_d4() {
        // Paper §6: "For D = 4 used in our settings, the theoretical
        // benefit already reaches 42.9%" — the speedup (D-1)/(2D-1) = 3/7.
        let speedup = embedding_fusion_speedup(4);
        assert!((speedup - 3.0 / 7.0).abs() < 1e-9, "speedup {speedup}");
    }

    #[test]
    fn fusion_speedup_approaches_50_percent() {
        let s4 = embedding_fusion_speedup(4);
        let s16 = embedding_fusion_speedup(16);
        let s1024 = embedding_fusion_speedup(1024);
        assert!(s4 < s16 && s16 < s1024);
        assert!(s1024 < 0.5 && s1024 > 0.499);
    }

    #[test]
    fn fusion_reduction_is_30_percent_at_d4() {
        // Wire bytes saved by fusion: 1 - C_fused / C_emb = (D-1)/(3D-2).
        let reduction =
            1.0 - embedding_sync_fused_bytes(1.0, 4) / embedding_sync_baseline_bytes(1.0, 4);
        assert!((reduction - 0.3).abs() < 1e-9, "reduction {reduction}");
    }

    #[test]
    fn all_reduce_time_zero_for_single_rank() {
        assert_eq!(all_reduce_time_s(1e9, 1, 25e9, 5e-6), 0.0);
    }

    #[test]
    fn all_reduce_time_increases_with_volume() {
        let t1 = all_reduce_time_s(1e6, 4, 25e9, 5e-6);
        let t2 = all_reduce_time_s(1e8, 4, 25e9, 5e-6);
        assert!(t2 > t1);
    }

    #[test]
    fn p2p_time_latency_floor() {
        assert!((p2p_time_s(0.0, 25e9, 5e-6) - 5e-6).abs() < 1e-12);
    }
}
