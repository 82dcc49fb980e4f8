//! Calibration drift processes.
//!
//! Between recalibrations, each coupling's amplitude error evolves under
//! slow physical drifts (stray-field charging, thermal/optomechanical
//! drifts — §II-B). Two standard models are provided: an unbounded random
//! walk and a mean-reverting Ornstein–Uhlenbeck process, plus a
//! jump-outlier overlay reproducing the paper's observation (Fig. 7C) that
//! a handful of couplings drift far outside the calibration band while the
//! rest stay within ~6%.

use itqc_math::rng::standard_normal;
use rand::Rng;

/// A stochastic process advancing a scalar calibration error in time.
pub trait DriftProcess {
    /// Advances `value` by `dt` minutes and returns the new value.
    fn advance<R: Rng + ?Sized>(&self, value: f64, dt_minutes: f64, rng: &mut R) -> f64;
}

/// Brownian drift: `dx = σ·√dt·ξ` per step (σ in error-units per √minute).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RandomWalkDrift {
    /// Diffusion amplitude per √minute.
    pub sigma_per_sqrt_min: f64,
}

impl DriftProcess for RandomWalkDrift {
    fn advance<R: Rng + ?Sized>(&self, value: f64, dt_minutes: f64, rng: &mut R) -> f64 {
        value + self.sigma_per_sqrt_min * dt_minutes.max(0.0).sqrt() * standard_normal(rng)
    }
}

/// Mean-reverting drift toward 0 with relaxation time `tau` minutes and
/// stationary deviation `sigma`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct OrnsteinUhlenbeckDrift {
    /// Relaxation time in minutes.
    pub tau_minutes: f64,
    /// Stationary standard deviation.
    pub sigma: f64,
}

impl DriftProcess for OrnsteinUhlenbeckDrift {
    fn advance<R: Rng + ?Sized>(&self, value: f64, dt_minutes: f64, rng: &mut R) -> f64 {
        let decay = (-dt_minutes.max(0.0) / self.tau_minutes).exp();
        let kick = self.sigma * (1.0 - decay * decay).sqrt();
        value * decay + kick * standard_normal(rng)
    }
}

/// Drift with occasional large jumps: base OU drift plus a Poisson-rate
/// chance per minute of jumping to a large miscalibration. Reproduces the
/// Fig. 7C phenomenology (most couplings within the 6% band, a few large
/// outliers after 15 minutes of idling).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct JumpDrift {
    /// The smooth component.
    pub base: OrnsteinUhlenbeckDrift,
    /// Expected jumps per minute (per coupling).
    pub jumps_per_minute: f64,
    /// Mean magnitude of a jump (sign random).
    pub jump_scale: f64,
}

impl DriftProcess for JumpDrift {
    fn advance<R: Rng + ?Sized>(&self, value: f64, dt_minutes: f64, rng: &mut R) -> f64 {
        let mut v = self.base.advance(value, dt_minutes, rng);
        let p_jump = 1.0 - (-self.jumps_per_minute * dt_minutes.max(0.0)).exp();
        if rng.gen::<f64>() < p_jump {
            let sign = if rng.gen::<bool>() { 1.0 } else { -1.0 };
            v += sign * self.jump_scale * (1.0 + 0.5 * standard_normal(rng).abs());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn random_walk_variance_grows_linearly() {
        let d = RandomWalkDrift { sigma_per_sqrt_min: 0.01 };
        let mut rng = SmallRng::seed_from_u64(4);
        let trials = 20_000;
        let t = 9.0;
        let var: f64 = (0..trials)
            .map(|_| {
                let v = d.advance(0.0, t, &mut rng);
                v * v
            })
            .sum::<f64>()
            / trials as f64;
        let expect = 0.01f64.powi(2) * t;
        assert!((var - expect).abs() < 0.2 * expect, "var {var} vs {expect}");
    }

    #[test]
    fn ou_is_stationary_at_sigma() {
        let d = OrnsteinUhlenbeckDrift { tau_minutes: 10.0, sigma: 0.05 };
        let mut rng = SmallRng::seed_from_u64(5);
        let mut v = 0.0;
        let mut acc = 0.0;
        let n = 50_000;
        for _ in 0..n {
            v = d.advance(v, 1.0, &mut rng);
            acc += v * v;
        }
        let std = (acc / n as f64).sqrt();
        assert!((std - 0.05).abs() < 0.005, "std {std}");
    }

    #[test]
    fn ou_reverts_to_zero() {
        let d = OrnsteinUhlenbeckDrift { tau_minutes: 1.0, sigma: 0.0 };
        let mut rng = SmallRng::seed_from_u64(6);
        let v = d.advance(1.0, 10.0, &mut rng);
        assert!(v.abs() < 1e-4);
    }

    #[test]
    fn jump_drift_produces_outliers() {
        let d = JumpDrift {
            base: OrnsteinUhlenbeckDrift { tau_minutes: 60.0, sigma: 0.02 },
            jumps_per_minute: 0.01,
            jump_scale: 0.20,
        };
        let mut rng = SmallRng::seed_from_u64(7);
        // Simulate 28 couplings idling 15 minutes (Fig. 7 setting).
        let mut outliers = 0;
        let mut within_band = 0;
        for _ in 0..28 * 50 {
            let mut v: f64 = 0.0;
            for _ in 0..15 {
                v = d.advance(v, 1.0, &mut rng);
            }
            if v.abs() > 0.10 {
                outliers += 1;
            }
            if v.abs() < 0.06 {
                within_band += 1;
            }
        }
        // Most couplings stay in the 6% band; a visible minority jump out.
        assert!(within_band > 28 * 50 * 7 / 10, "within {within_band}");
        assert!(outliers > 10, "outliers {outliers}");
    }
}
