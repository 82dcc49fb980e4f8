//! Shot-noise utilities.
//!
//! Hardware experiments observe probabilities only through finite shot
//! counts (the paper uses 300–1000 shots per circuit). [`binomial`]
//! turns an exact simulator probability into the count a real run would
//! report.

use rand::Rng;

/// Draws a binomial variate `B(shots, p)` by direct Bernoulli summation.
///
/// Exact and fast for the shot counts this workspace uses (≤ ~10⁵).
///
/// # Panics
///
/// Panics if `p` is outside `[0, 1]`.
pub fn binomial<R: Rng + ?Sized>(rng: &mut R, shots: usize, p: f64) -> usize {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    if p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return shots;
    }
    (0..shots).filter(|_| rng.gen::<f64>() < p).count()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn binomial_edge_cases() {
        let mut rng = SmallRng::seed_from_u64(1);
        assert_eq!(binomial(&mut rng, 100, 0.0), 0);
        assert_eq!(binomial(&mut rng, 100, 1.0), 100);
        assert_eq!(binomial(&mut rng, 0, 0.5), 0);
    }

    #[test]
    fn binomial_mean_and_spread() {
        let mut rng = SmallRng::seed_from_u64(2);
        let trials = 2000;
        let shots = 300;
        let p = 0.45;
        let mean: f64 =
            (0..trials).map(|_| binomial(&mut rng, shots, p) as f64).sum::<f64>() / trials as f64;
        assert!((mean - shots as f64 * p).abs() < 2.0, "mean {mean}");
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn bad_probability_panics() {
        let mut rng = SmallRng::seed_from_u64(4);
        let _ = binomial(&mut rng, 10, 1.5);
    }
}
