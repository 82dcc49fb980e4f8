//! Random-variate samplers for the paper's noise laws.
//!
//! Implemented locally (Box–Muller and inverse-CDF mixtures) so the
//! workspace does not depend on `rand_distr` (see `DESIGN.md` §5).

use rand::Rng;
use std::f64::consts::PI;

/// A distribution over `f64` that can be sampled with any [`Rng`].
pub trait Distribution {
    /// Draws one variate.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;

    /// Draws `count` variates into a vector.
    fn sample_vec<R: Rng + ?Sized>(&self, rng: &mut R, count: usize) -> Vec<f64> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

/// Standard normal variate via Box–Muller.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    // Avoid u = 0 exactly; `gen` yields [0, 1).
    let u: f64 = 1.0 - rng.gen::<f64>();
    let v: f64 = rng.gen();
    (-2.0 * u.ln()).sqrt() * (2.0 * PI * v).cos()
}

/// The paper's composite under-rotation law (§VII, Fig. 9):
/// density is flat at height `a` on `[0, c]` (c = 6% calibration threshold)
/// and falls off as a right-tail Gaussian `a·exp(−(u−c)²/(2σ²))` beyond,
/// with `a(σ) = 1/(c + σ·√(π/2))` normalising the total mass to one.
///
/// # Example
///
/// ```
/// use itqc_math::rng::{CompositeUnderRotation, Distribution};
/// use rand::SeedableRng;
/// let law = CompositeUnderRotation::paper(0.05);
/// let mut rng = rand::rngs::SmallRng::seed_from_u64(1);
/// let u = law.sample(&mut rng);
/// assert!(u >= 0.0);
/// ```
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CompositeUnderRotation {
    cutoff: f64,
    sigma: f64,
}

impl CompositeUnderRotation {
    /// Paper default: cutoff `c = 0.06` with Gaussian tail spread `sigma`.
    pub fn paper(sigma: f64) -> Self {
        Self::new(0.06, sigma)
    }

    /// Creates the composite law with explicit cutoff.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is negative or non-finite.
    pub fn new(cutoff: f64, sigma: f64) -> Self {
        assert!(
            cutoff >= 0.0 && sigma >= 0.0 && cutoff.is_finite() && sigma.is_finite(),
            "bad composite-law parameters"
        );
        CompositeUnderRotation { cutoff, sigma }
    }

    /// The normalisation constant `a(σ) = 1/(c + σ√(π/2))` (paper footnote 10).
    pub fn peak_density(&self) -> f64 {
        1.0 / (self.cutoff + self.sigma * (PI / 2.0).sqrt())
    }

    /// Probability mass of the uniform body `[0, c]`.
    pub fn body_mass(&self) -> f64 {
        self.peak_density() * self.cutoff
    }

    /// The Gaussian tail spread σ.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// The calibration cutoff `c`.
    pub fn cutoff(&self) -> f64 {
        self.cutoff
    }
}

impl Distribution for CompositeUnderRotation {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        let p_body = self.body_mass();
        if rng.gen::<f64>() < p_body {
            // Uniform body.
            if self.cutoff == 0.0 {
                0.0
            } else {
                rng.gen_range(0.0..self.cutoff)
            }
        } else {
            // Right half-Gaussian tail anchored at the cutoff.
            self.cutoff + (self.sigma * standard_normal(rng)).abs()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    const N: usize = 200_000;

    #[test]
    fn normal_moments() {
        let mut rng = SmallRng::seed_from_u64(42);
        let xs: Vec<f64> = (0..N).map(|_| 1.5 + 0.5 * standard_normal(&mut rng)).collect();
        let m = stats::mean(&xs);
        let s = stats::tests::variance(&xs).sqrt();
        assert!((m - 1.5).abs() < 0.01, "mean {m}");
        assert!((s - 0.5).abs() < 0.01, "std {s}");
    }

    #[test]
    fn half_normal_mean_matches_construction() {
        // The "10% average amplitude error" convention: |σ·N(0,1)| with
        // σ = 0.10·√(π/2) averages 0.10.
        let mut rng = SmallRng::seed_from_u64(43);
        let sigma = 0.10 * (PI / 2.0).sqrt();
        let xs: Vec<f64> = (0..N).map(|_| (sigma * standard_normal(&mut rng)).abs()).collect();
        let m = stats::mean(&xs);
        assert!((m - 0.10).abs() < 0.002, "mean {m}");
    }

    #[test]
    fn composite_normalisation_constant() {
        // a(σ) = 1/(0.06 + σ√(π/2)) — footnote 10.
        let law = CompositeUnderRotation::paper(0.15);
        let expect = 1.0 / (0.06 + 0.15 * (PI / 2.0).sqrt());
        assert!((law.peak_density() - expect).abs() < 1e-15);
    }

    #[test]
    fn composite_body_fraction_matches_analytic() {
        let mut rng = SmallRng::seed_from_u64(45);
        let law = CompositeUnderRotation::paper(0.05);
        let xs = law.sample_vec(&mut rng, N);
        let below = xs.iter().filter(|&&x| x <= 0.06).count() as f64 / N as f64;
        assert!((below - law.body_mass()).abs() < 0.01, "body mass {below}");
        assert!(xs.iter().all(|&x| x >= 0.0));
    }

    #[test]
    fn composite_zero_sigma_degenerates_to_uniform() {
        let mut rng = SmallRng::seed_from_u64(46);
        let law = CompositeUnderRotation::paper(0.0);
        let xs = law.sample_vec(&mut rng, 10_000);
        assert!(xs.iter().all(|&x| (0.0..=0.06).contains(&x)));
    }

    #[test]
    fn composite_wider_sigma_has_heavier_tail() {
        let mut rng = SmallRng::seed_from_u64(47);
        let narrow = CompositeUnderRotation::paper(0.05).sample_vec(&mut rng, N);
        let wide = CompositeUnderRotation::paper(0.15).sample_vec(&mut rng, N);
        let tail = |xs: &[f64]| xs.iter().filter(|&&x| x > 0.15).count() as f64 / N as f64;
        assert!(tail(&wide) > tail(&narrow) + 0.02);
    }
}
