//! The benchmark's own arithmetic: percentiles, the tail rule and
//! probe normalisation.

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_MIN_BEYOND: usize = 10;

/// Candidate tail percentiles, highest first. The ladder is coarse on
/// purpose: a run's request count moves with machine speed, and a tail
/// that hopped between neighbouring percentiles from run to run would
/// swamp the latency it reports.
pub const TAIL_LADDER: [f64; 4] = [0.99, 0.9, 0.75, 0.5];

/// Nearest-rank percentile of an ascending slice: the smallest sample
/// with at least a `q` share of the samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    sorted[rank(sorted.len(), q) - 1]
}

/// One-based nearest rank of percentile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// The highest ladder percentile with at least [`TAIL_MIN_BEYOND`]
/// samples beyond its rank, or `None` when even the median has fewer.
pub fn tail_percentile(n: usize) -> Option<f64> {
    TAIL_LADDER.into_iter().find(|&q| n > 0 && n - rank(n, q) >= TAIL_MIN_BEYOND)
}

/// Median of unsorted samples (mean of the middle pair for even counts).
///
/// # Panics
///
/// Panics on an empty slice.
pub fn median(samples: &[f64]) -> f64 {
    assert!(!samples.is_empty(), "median of no samples");
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Interquartile range over median, the within-run spread the probe
/// reports (nearest-rank quartiles; 0 for fewer than two samples).
pub fn relative_iqr(samples: &[f64]) -> f64 {
    if samples.len() < 2 {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    (percentile(&v, 0.75) - percentile(&v, 0.25)) / median(&v)
}

/// The up to `2 * half` samples around position `at`: `half` before
/// it and `half` from it on, shifted inwards at either end so the
/// window keeps its width whenever the slice is long enough.
pub fn window(samples: &[f64], at: usize, half: usize) -> &[f64] {
    let width = (2 * half).min(samples.len());
    let start = at.saturating_sub(half).min(samples.len() - width);
    &samples[start..start + width]
}

/// Converts raw wall-clock into reference units: the time the same work
/// would take on a machine whose calibration probe runs in exactly the
/// reference time. `factor` is the run's probe time over the reference.
pub fn to_reference(raw_seconds: f64, factor: f64) -> f64 {
    assert!(factor > 0.0 && factor.is_finite(), "probe factor must be positive");
    raw_seconds / factor
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(tail_percentile(0), None);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(0.5));
        assert_eq!(tail_percentile(39), Some(0.5));
        assert_eq!(tail_percentile(40), Some(0.75));
        assert_eq!(tail_percentile(99), Some(0.75));
        assert_eq!(tail_percentile(100), Some(0.9));
        assert_eq!(tail_percentile(999), Some(0.9));
        assert_eq!(tail_percentile(1000), Some(0.99));
        assert_eq!(tail_percentile(1_000_000), Some(0.99));
        for n in 20..3000 {
            let q = tail_percentile(n).unwrap();
            assert!(n - rank(n, q) >= TAIL_MIN_BEYOND, "n={n} q={q}");
        }
    }

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn median_and_spread() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(relative_iqr(&[5.0]), 0.0);
        assert_eq!(relative_iqr(&[2.0, 2.0, 2.0, 2.0]), 0.0);
        let v: Vec<f64> = (1..=8).map(f64::from).collect();
        assert_eq!(relative_iqr(&v), (6.0 - 2.0) / 4.5);
    }

    #[test]
    fn normalisation_divides_by_the_probe_factor() {
        assert_eq!(to_reference(2.0, 1.0), 2.0);
        // A machine whose probe runs 25% slow reports 1.6 s of work as
        // the reference machine's 1.28 s.
        assert_eq!(to_reference(1.6, 1.25), 1.28);
        // Same work on a slower and a faster machine normalises alike.
        let work = 0.8;
        assert!((to_reference(work * 1.3, 1.3) - to_reference(work * 0.7, 0.7)).abs() < 1e-12);
    }

    #[test]
    fn local_windows_keep_their_width_at_the_edges() {
        let v: Vec<f64> = (0..10).map(f64::from).collect();
        assert_eq!(window(&v, 5, 2), &[3.0, 4.0, 5.0, 6.0]);
        assert_eq!(window(&v, 0, 2), &[0.0, 1.0, 2.0, 3.0]);
        assert_eq!(window(&v, 10, 2), &[6.0, 7.0, 8.0, 9.0]);
        assert_eq!(window(&v, 50, 2), &[6.0, 7.0, 8.0, 9.0]);
        assert_eq!(window(&v, 4, 20), &v[..]);
        assert_eq!(window(&v[..1], 1, 3), &[0.0]);
    }

    #[test]
    #[should_panic(expected = "probe factor")]
    fn a_zero_factor_is_refused() {
        to_reference(1.0, 0.0);
    }
}
