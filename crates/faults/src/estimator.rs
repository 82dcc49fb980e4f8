//! Gate-fidelity estimation (paper §III, Eqs. 1–2) and the XX-angle
//! monitor used in Fig. 7C.

use itqc_math::lstsq::fit_sin2phi_amplitude;
use std::f64::consts::FRAC_PI_2;

/// Eq. (1): average MS-gate fidelity from Lamb–Dicke couplings and mode
/// decoupling residuals,
/// `F = 1 − (4/5)·Σ_p (η²_{p,i} + η²_{p,j})·|α_p|²`.
///
/// `eta_i[p]`/`eta_j[p]` are the Lamb–Dicke parameters of the two ions for
/// mode `p`, `alpha_sqr[p]` is `|α_p|²`, the residual displacement left in
/// mode `p` at the end of the pulse.
///
/// # Panics
///
/// Panics if the slices have different lengths.
pub fn eq1_ms_fidelity(eta_i: &[f64], eta_j: &[f64], alpha_sqr: &[f64]) -> f64 {
    assert!(
        eta_i.len() == eta_j.len() && eta_j.len() == alpha_sqr.len(),
        "mode arrays must have the same length"
    );
    let loss: f64 =
        eta_i.iter().zip(eta_j).zip(alpha_sqr).map(|((ei, ej), a2)| (ei * ei + ej * ej) * a2).sum();
    1.0 - 0.8 * loss
}

/// Result of the two-circuit fidelity estimate of Eq. (2).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct MsFidelityEstimate {
    /// Measured even population `P*₀₀` from the bare-XX circuit.
    pub p00: f64,
    /// Measured even population `P*₁₁` from the bare-XX circuit.
    pub p11: f64,
    /// Fitted parity contrast `Π_contrast`.
    pub contrast: f64,
    /// The Eq. (2) fidelity `(P*₀₀ + P*₁₁ + Π_contrast)/2`.
    pub fidelity: f64,
}

/// Eq. (2) from pre-measured data: even populations of the first circuit
/// plus a parity scan `parity(φ) ≈ Π_contrast·sin(2φ)` from the second
/// (analysis-pulse) circuit.
///
/// # Panics
///
/// Panics if `phis` and `parities` lengths differ.
pub fn eq2_fidelity_from_data(
    p00: f64,
    p11: f64,
    phis: &[f64],
    parities: &[f64],
) -> MsFidelityEstimate {
    assert_eq!(phis.len(), parities.len(), "scan length mismatch");
    let contrast = fit_sin2phi_amplitude(phis, parities).abs();
    MsFidelityEstimate { p00, p11, contrast, fidelity: (p00 + p11 + contrast) / 2.0 }
}

/// Estimates the implemented `XX(θ)` angle from the even populations of a
/// single application on `|00⟩`: `P₀₀ = cos²(θ/2)`, `P₁₁ = sin²(θ/2)`,
/// hence `θ̂ = 2·atan2(√P₁₁, √P₀₀)`.
///
/// This is the direct MS-gate-quality monitor behind the paper's Fig. 7C
/// angle snapshot.
pub fn estimate_xx_angle(p00: f64, p11: f64) -> f64 {
    2.0 * p11.max(0.0).sqrt().atan2(p00.max(0.0).sqrt())
}

/// Convenience: the under-rotation fraction implied by a measured angle
/// relative to the fully entangling π/2.
pub fn under_rotation_from_angle(theta_measured: f64) -> f64 {
    1.0 - theta_measured / FRAC_PI_2
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_circuit::Circuit;
    use itqc_sim::run;

    /// Runs the two Eq.-(2) fidelity-determining circuits on the dense
    /// simulator for an MS gate implemented as `XX(θ_actual)` and returns the
    /// estimate. `scan_points` analysis phases are used (the paper scans φ and
    /// fits the parity fringe).
    ///
    /// The two circuits are `XX(θ)` and `(R_φ(π/2)⊗R_φ(π/2))·XX(θ)` on `|00⟩`.
    fn simulated_eq2(theta_actual: f64, scan_points: usize) -> MsFidelityEstimate {
        assert!(scan_points >= 4, "need at least 4 scan points for a fringe fit");
        // Circuit 1: populations.
        let mut c1 = Circuit::new(2);
        c1.xx(0, 1, theta_actual);
        let s1 = run(&c1);
        let p00 = s1.probability(0b00);
        let p11 = s1.probability(0b11);

        // Circuit 2: parity scan.
        let mut phis = Vec::with_capacity(scan_points);
        let mut parities = Vec::with_capacity(scan_points);
        for k in 0..scan_points {
            let phi = std::f64::consts::PI * k as f64 / scan_points as f64;
            let mut c2 = Circuit::new(2);
            c2.xx(0, 1, theta_actual).r(0, FRAC_PI_2, phi).r(1, FRAC_PI_2, phi);
            let s2 = run(&c2);
            let parity = s2.probability(0b00) + s2.probability(0b11)
                - s2.probability(0b01)
                - s2.probability(0b10);
            phis.push(phi);
            parities.push(parity);
        }
        eq2_fidelity_from_data(p00, p11, &phis, &parities)
    }

    #[test]
    fn eq1_perfect_decoupling_gives_unit_fidelity() {
        let eta = [0.1, 0.08, 0.05];
        assert_eq!(eq1_ms_fidelity(&eta, &eta, &[0.0, 0.0, 0.0]), 1.0);
    }

    #[test]
    fn eq1_loss_scales_with_eta_and_alpha() {
        let f = eq1_ms_fidelity(&[0.1], &[0.2], &[0.5]);
        let expect = 1.0 - 0.8 * (0.01 + 0.04) * 0.5;
        assert!((f - expect).abs() < 1e-15);
    }

    #[test]
    fn eq2_perfect_gate_estimates_one() {
        let est = simulated_eq2(FRAC_PI_2, 16);
        assert!((est.fidelity - 1.0).abs() < 1e-9, "F = {}", est.fidelity);
        assert!((est.p00 - 0.5).abs() < 1e-9);
        assert!((est.p11 - 0.5).abs() < 1e-9);
        assert!((est.contrast - 1.0).abs() < 1e-9);
    }

    #[test]
    fn eq2_underrotated_gate_loses_fidelity_quadratically() {
        // XX(π/2 + ε): populations unbalance as cos²/sin² and the paper
        // predicts contrast cos(ε).
        let eps = 0.2;
        let est = simulated_eq2(FRAC_PI_2 + eps, 32);
        assert!(est.fidelity < 1.0 - eps * eps / 8.0);
        assert!(est.fidelity > 0.9);
        assert!((est.contrast - eps.cos()).abs() < 0.02, "contrast {}", est.contrast);
    }

    #[test]
    fn eq2_monotone_in_error() {
        let mut last = 1.1;
        for &eps in &[0.0, 0.1, 0.2, 0.3, 0.4] {
            let f = simulated_eq2(FRAC_PI_2 + eps, 16).fidelity;
            assert!(f < last, "fidelity must decrease with ε");
            last = f;
        }
    }

    #[test]
    fn angle_monitor_round_trip() {
        for &u in &[0.0, 0.05, 0.15, 0.47] {
            let theta = FRAC_PI_2 * (1.0 - u);
            let p00 = (theta / 2.0).cos().powi(2);
            let p11 = (theta / 2.0).sin().powi(2);
            let est = estimate_xx_angle(p00, p11);
            assert!((est - theta).abs() < 1e-12);
            assert!((under_rotation_from_angle(est) - u).abs() < 1e-12);
        }
    }
}
