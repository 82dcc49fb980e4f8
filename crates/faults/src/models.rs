//! Concrete unitary fault models (paper Fig. 4).
//!
//! The paper models dominant faults as small parameter deviations of the
//! native gates: a single-qubit gate becomes `R(θ+δθ, φ+δφ)` and an MS gate
//! becomes `M(θ+δθ, φ₁+δφ₁, φ₂+δφ₂)`; the MS phase deviations enter the
//! simulator through [`crate::noise_model::IonTrapNoise`]'s phase-noise
//! channel. The headline fault studied throughout
//! the evaluation is the *amplitude miscalibration* (under-/over-rotation)
//! of a qubit coupling: `XX(θ) → XX(θ·(1−u))`.

use itqc_circuit::Coupling;

/// An under-/over-rotation of one qubit coupling: every MS gate on the
/// coupling rotates by `θ·(1−under_rotation)` instead of `θ`.
///
/// Positive values are under-rotations (the paper's convention, e.g. the
/// artificial "47% and 22% under-rotations" of Fig. 6); negative values are
/// over-rotations.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CouplingFault {
    /// The affected coupling.
    pub coupling: Coupling,
    /// Relative amplitude error `u`; the implemented angle is `θ(1−u)`.
    pub under_rotation: f64,
}

impl CouplingFault {
    /// Creates a coupling fault.
    pub fn new(coupling: Coupling, under_rotation: f64) -> Self {
        CouplingFault { coupling, under_rotation }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_circuit::{Circuit, Gate};
    use itqc_sim::run;
    use std::f64::consts::FRAC_PI_2;

    /// The faulty angle a coupling fault implements when `theta` is
    /// requested.
    fn apply_to_angle(fault: &CouplingFault, theta: f64) -> f64 {
        theta * (1.0 - fault.under_rotation)
    }

    /// Small-parameter deviation of a single-qubit gate: the paper's
    /// `R(θ+δθ, φ+δφ)` model.
    #[derive(Clone, Copy, Debug, Default, PartialEq)]
    struct OneQubitError {
        /// Additive angle error δθ.
        dtheta: f64,
        /// Additive axis-phase error δφ.
        dphi: f64,
    }

    impl OneQubitError {
        /// Perturbs a single-qubit rotation gate; non-rotation gates are
        /// returned unchanged (they are not directly driven by a pulse
        /// whose amplitude/phase could err — they lower to rotations
        /// first).
        fn perturb(&self, gate: Gate) -> Gate {
            match gate {
                Gate::R { theta, phi } => {
                    Gate::R { theta: theta + self.dtheta, phi: phi + self.dphi }
                }
                Gate::Rx(t) => Gate::R { theta: t + self.dtheta, phi: self.dphi },
                Gate::Ry(t) => Gate::R { theta: t + self.dtheta, phi: FRAC_PI_2 + self.dphi },
                other => other,
            }
        }
    }

    #[test]
    fn coupling_fault_scales_angle() {
        let f = CouplingFault::new(Coupling::new(0, 4), 0.47);
        assert!((apply_to_angle(&f, FRAC_PI_2) - FRAC_PI_2 * 0.53).abs() < 1e-15);
    }

    #[test]
    fn one_qubit_error_perturbs_rotations_only() {
        let e = OneQubitError { dtheta: 0.01, dphi: 0.02 };
        assert_eq!(e.perturb(Gate::Rx(1.0)), Gate::R { theta: 1.01, phi: 0.02 });
        assert_eq!(e.perturb(Gate::H), Gate::H);
    }

    #[test]
    fn faulty_test_circuit_leaks_fidelity() {
        // End-to-end: the four-MS single-output test detects a 22%
        // under-rotation exactly as the analytic formula predicts.
        let fault = CouplingFault::new(Coupling::new(0, 1), 0.22);
        let mut c = Circuit::new(2);
        for _ in 0..4 {
            c.xx(0, 1, FRAC_PI_2);
        }
        let mut noisy = Circuit::new(2);
        for op in c.ops() {
            let (a, b) = (op.qubits()[0], op.qubits()[1]);
            let Gate::Xx(theta) = op.gate else { unreachable!("an XX-only circuit") };
            noisy.xx(a, b, apply_to_angle(&fault, theta));
        }
        let f = run(&noisy).probability(0);
        let expect = (std::f64::consts::PI * 0.22).cos().powi(2);
        assert!((f - expect).abs() < 1e-12);
    }
}
