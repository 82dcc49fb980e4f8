//! Descriptive statistics and histogram helpers for the experiment harness.

/// Arithmetic mean. Returns 0 for an empty slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Linearly interpolated quantile, `q ∈ [0, 1]`.
///
/// # Panics
///
/// Panics if `xs` is empty or `q` is outside `[0, 1]`.
pub fn quantile(xs: &[f64], q: f64) -> f64 {
    assert!(!xs.is_empty(), "quantile of empty data");
    assert!((0.0..=1.0).contains(&q), "quantile level must be in [0,1]");
    let mut s = xs.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let pos = q * (s.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        s[lo]
    } else {
        let w = pos - lo as f64;
        s[lo] * (1.0 - w) + s[hi] * w
    }
}

/// Median (0.5 quantile).
///
/// # Panics
///
/// Panics if `xs` is empty.
pub fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// Minimum of a slice. Returns `f64::INFINITY` for empty input.
pub fn min(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::INFINITY, f64::min)
}

/// Maximum of a slice. Returns `f64::NEG_INFINITY` for empty input.
pub fn max(xs: &[f64]) -> f64 {
    xs.iter().copied().fold(f64::NEG_INFINITY, f64::max)
}

/// A fixed-width histogram over `[lo, hi]`.
#[derive(Clone, Debug)]
pub struct Histogram {
    lo: f64,
    hi: f64,
    counts: Vec<usize>,
    total: usize,
    underflow: usize,
    overflow: usize,
}

impl Histogram {
    /// Creates a histogram with `bins` equal-width bins spanning `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `bins == 0` or `lo >= hi`.
    pub fn new(lo: f64, hi: f64, bins: usize) -> Self {
        assert!(bins > 0, "histogram needs at least one bin");
        assert!(lo < hi, "histogram range must be non-empty");
        Histogram { lo, hi, counts: vec![0; bins], total: 0, underflow: 0, overflow: 0 }
    }

    /// Adds one observation.
    pub fn add(&mut self, x: f64) {
        self.total += 1;
        if x < self.lo {
            self.underflow += 1;
            return;
        }
        if x > self.hi {
            self.overflow += 1;
            return;
        }
        let bins = self.counts.len();
        let idx = (((x - self.lo) / (self.hi - self.lo)) * bins as f64) as usize;
        self.counts[idx.min(bins - 1)] += 1;
    }

    /// Adds many observations.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, xs: I) {
        for x in xs {
            self.add(x);
        }
    }

    /// Raw bin counts.
    pub fn counts(&self) -> &[usize] {
        &self.counts
    }

    /// Total number of observations (including under/overflow).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Centre of bin `k`.
    pub fn bin_center(&self, k: usize) -> f64 {
        let w = (self.hi - self.lo) / self.counts.len() as f64;
        self.lo + (k as f64 + 0.5) * w
    }

    /// Renders a one-line-per-bin ASCII bar chart (used by harness binaries).
    pub fn render(&self, width: usize) -> String {
        let maxc = self.counts.iter().copied().max().unwrap_or(0).max(1);
        let mut out = String::new();
        for (k, &c) in self.counts.iter().enumerate() {
            let bar = "#".repeat(c * width / maxc);
            out.push_str(&format!("{:8.3} | {:6} {}\n", self.bin_center(k), c, bar));
        }
        out
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// Unbiased sample variance. Returns 0 for slices shorter than 2.
    pub(crate) fn variance(xs: &[f64]) -> f64 {
        if xs.len() < 2 {
            return 0.0;
        }
        let m = mean(xs);
        xs.iter().map(|x| (x - m) * (x - m)).sum::<f64>() / (xs.len() - 1) as f64
    }

    #[test]
    fn mean_and_variance() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(mean(&xs), 2.5);
        assert!((variance(&xs) - 5.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn quantiles() {
        let xs = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(quantile(&xs, 0.0), 1.0);
        assert_eq!(quantile(&xs, 1.0), 4.0);
        assert_eq!(median(&xs), 2.5);
    }

    #[test]
    fn histogram_binning() {
        let mut h = Histogram::new(0.0, 1.0, 4);
        h.extend([0.1, 0.3, 0.6, 0.9, 1.0, -0.5, 2.0]);
        assert_eq!(h.counts(), &[1, 1, 1, 2]); // 1.0 lands in the top bin
        assert_eq!(h.total(), 7);
    }

    #[test]
    fn histogram_bin_centers() {
        let h = Histogram::new(0.0, 1.0, 2);
        assert!((h.bin_center(0) - 0.25).abs() < 1e-12);
        assert!((h.bin_center(1) - 0.75).abs() < 1e-12);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(mean(&[]), 0.0);
        assert_eq!(variance(&[1.0]), 0.0);
        assert_eq!(min(&[]), f64::INFINITY);
    }
}
