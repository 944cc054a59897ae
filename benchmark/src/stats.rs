//! Order statistics for timing samples.

/// Samples that must lie beyond a percentile before it is reported: with
/// fewer, the figure is a handful of outliers rather than a tail.
pub const MIN_SAMPLES_BEYOND: usize = 10;

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    v
}

/// Linear-interpolated percentile (`p` in 0..=100) of already sorted data.
fn percentile_sorted(sorted: &[f64], p: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let pos = p / 100.0 * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of `samples`.
///
/// # Panics
///
/// Panics if `samples` is empty.
pub fn median(samples: &[f64]) -> f64 {
    percentile_sorted(&sorted(samples), 50.0)
}

/// The highest of p99 / p95 / p90 / p75 that has at least
/// [`MIN_SAMPLES_BEYOND`] samples beyond it, as `(percentile, value)`;
/// `None` when even p75 has too few (fewer than 40 samples).
pub fn tail(samples: &[f64]) -> Option<(f64, f64)> {
    let v = sorted(samples);
    [99.0, 95.0, 90.0, 75.0]
        .into_iter()
        .find(|p| v.len() as f64 * (100.0 - p) / 100.0 >= MIN_SAMPLES_BEYOND as f64)
        .map(|p| (p, percentile_sorted(&v, p)))
}

/// Interquartile range over the median — the spread the acceptance rule
/// is stated in. Quartiles follow Python's
/// `statistics.quantiles(values, n=4)` (the exclusive method), so a
/// calibration here reads the same as the driver's.
///
/// # Panics
///
/// Panics with fewer than two samples.
pub fn iqr_over_median(samples: &[f64]) -> f64 {
    let v = sorted(samples);
    assert!(v.len() >= 2, "quartiles need two samples");
    let n = v.len();
    let quartile = |k: usize| {
        // Exclusive method: position k(n+1)/4 in 1-based ranks, clamped.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    let med = percentile_sorted(&v, 50.0);
    if med == 0.0 {
        return 0.0;
    }
    (quartile(3) - quartile(1)) / med.abs()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_counts() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn tail_picks_highest_percentile_with_ten_samples_beyond() {
        let ramp = |n: usize| (0..n).map(|i| i as f64).collect::<Vec<_>>();
        assert_eq!(tail(&ramp(39)), None);
        assert_eq!(tail(&ramp(40)).unwrap().0, 75.0);
        assert_eq!(tail(&ramp(100)).unwrap().0, 90.0);
        assert_eq!(tail(&ramp(200)).unwrap().0, 95.0);
        let (p, v) = tail(&ramp(1001)).unwrap();
        assert_eq!((p, v), (99.0, 990.0));
    }

    #[test]
    fn quartile_spread_matches_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert!((iqr_over_median(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        assert!((iqr_over_median(&[16.0, 1.0, 8.0, 2.0, 4.0]) - 10.5 / 4.0).abs() < 1e-12);
        assert_eq!(iqr_over_median(&[5.0, 5.0, 5.0]), 0.0);
    }
}
