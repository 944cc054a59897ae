//! Stage selection for selective stage compression (paper §7).

/// Number of earliest pipeline stages whose data-parallel traffic
/// selective stage compression covers: `round(fraction * pp)`, capped at
/// `pp`, with halves rounded up.
///
/// Earlier stages retire their last backward later under 1F1B, so their
/// DP all-reduce is the one left exposed; the rule compresses those first.
/// Rounding (rather than truncating) is a decision with a visible edge: at
/// `pp <= 2` the paper's fraction 0.75 covers *every* stage, so a
/// single-stage run with SC compresses its DP traffic exactly as naive DP
/// compression would.
///
/// [`crate::QualityConfig::dp_compressed_stages`] calls this rule, and
/// the simulator and the trainer both read the stage count from there.
///
/// # Example
///
/// ```
/// use opt_schedule::sc_stage_count;
///
/// // Stages covered, per pipeline depth, at fractions 0, 0.5, 0.75 and 1.
/// let table = [
///     (1, [0, 1, 1, 1]),
///     (2, [0, 1, 2, 2]),
///     (3, [0, 2, 2, 3]),
///     (4, [0, 2, 3, 4]),
///     (8, [0, 4, 6, 8]),
///     (16, [0, 8, 12, 16]),
/// ];
/// for (pp, counts) in table {
///     for (fraction, count) in [0.0, 0.5, 0.75, 1.0].into_iter().zip(counts) {
///         assert_eq!(sc_stage_count(fraction, pp), count, "pp {pp}, fraction {fraction}");
///     }
/// }
/// ```
pub fn sc_stage_count(fraction: f64, pp: usize) -> usize {
    ((fraction * pp as f64).round() as usize).min(pp)
}
