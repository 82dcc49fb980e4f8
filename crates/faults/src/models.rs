//! Concrete unitary fault models (paper Fig. 4).
//!
//! The paper models dominant faults as small parameter deviations of the
//! native gates: a single-qubit gate becomes `R(θ+δθ, φ+δφ)` and an MS gate
//! becomes `M(θ+δθ, φ₁+δφ₁, φ₂+δφ₂)`. The headline fault studied throughout
//! the evaluation is the *amplitude miscalibration* (under-/over-rotation)
//! of a qubit coupling: `XX(θ) → XX(θ·(1−u))`.

use itqc_circuit::{Coupling, Gate, Op};

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

    /// The faulty angle implemented when `theta` is requested.
    pub fn apply_to_angle(&self, theta: f64) -> f64 {
        theta * (1.0 - self.under_rotation)
    }

    /// `true` when the fault magnitude exceeds the calibration threshold
    /// (the paper uses 6% as the in-calibration band and ~10% as the
    /// recalibration trigger in Fig. 7C).
    pub fn exceeds(&self, threshold: f64) -> bool {
        self.under_rotation.abs() > threshold
    }
}

/// Small-parameter deviation of a single-qubit gate: the paper's
/// `R(θ+δθ, φ+δφ)` model.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct OneQubitError {
    /// Additive angle error δθ.
    pub dtheta: f64,
    /// Additive axis-phase error δφ.
    pub dphi: f64,
}

impl OneQubitError {
    /// Perturbs a single-qubit rotation gate; non-rotation gates are
    /// returned unchanged (they are not directly driven by a pulse whose
    /// amplitude/phase could err — they lower to rotations first).
    pub fn perturb(&self, gate: Gate) -> Gate {
        match gate {
            Gate::R { theta, phi } => Gate::R { theta: theta + self.dtheta, phi: phi + self.dphi },
            Gate::Rx(t) => Gate::R { theta: t + self.dtheta, phi: self.dphi },
            Gate::Ry(t) => {
                Gate::R { theta: t + self.dtheta, phi: std::f64::consts::FRAC_PI_2 + self.dphi }
            }
            other => other,
        }
    }
}

/// Small-parameter deviation of an MS gate: the paper's `M(θ+δθ, φ₁+δφ₁,
/// φ₂+δφ₂)` model (Fig. 4).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct MsError {
    /// Additive entangling-angle error δθ.
    pub dtheta: f64,
    /// Beam-phase error at the first ion.
    pub dphi1: f64,
    /// Beam-phase error at the second ion.
    pub dphi2: f64,
}

impl MsError {
    /// A pure amplitude error with relative under-rotation `u` at the
    /// fully-entangling angle π/2: δθ = −u·π/2.
    pub fn from_under_rotation(u: f64) -> Self {
        MsError { dtheta: -u * std::f64::consts::FRAC_PI_2, dphi1: 0.0, dphi2: 0.0 }
    }

    /// Perturbs an MS-family gate; other gates pass through unchanged.
    pub fn perturb(&self, gate: Gate) -> Gate {
        match gate {
            Gate::Xx(t) => Gate::Ms { theta: t + self.dtheta, phi1: self.dphi1, phi2: self.dphi2 },
            Gate::Ms { theta, phi1, phi2 } => Gate::Ms {
                theta: theta + self.dtheta,
                phi1: phi1 + self.dphi1,
                phi2: phi2 + self.dphi2,
            },
            other => other,
        }
    }
}

/// Rewrites one op according to a set of coupling faults (deterministic
/// part of the machine model). Ops on healthy couplings pass through.
pub fn apply_coupling_faults(op: &Op, faults: &[CouplingFault]) -> Op {
    let Some(coupling) = op.coupling() else {
        return *op;
    };
    let Some(fault) = faults.iter().find(|f| f.coupling == coupling) else {
        return *op;
    };
    match op.gate {
        Gate::Xx(t) => Op::two(Gate::Xx(fault.apply_to_angle(t)), op.qubits()[0], op.qubits()[1]),
        Gate::Ms { theta, phi1, phi2 } => Op::two(
            Gate::Ms { theta: fault.apply_to_angle(theta), phi1, phi2 },
            op.qubits()[0],
            op.qubits()[1],
        ),
        // Non-MS two-qubit gates don't exist on the native machine; leave
        // them untouched so pre-transpile circuits stay valid.
        _ => *op,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_circuit::Circuit;
    use itqc_sim::run;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn coupling_fault_scales_angle() {
        let f = CouplingFault::new(Coupling::new(0, 4), 0.47);
        assert!((f.apply_to_angle(FRAC_PI_2) - FRAC_PI_2 * 0.53).abs() < 1e-15);
        assert!(f.exceeds(0.10));
        assert!(!f.exceeds(0.50));
    }

    #[test]
    fn apply_faults_only_touches_matching_coupling() {
        let faults = [CouplingFault::new(Coupling::new(0, 4), 0.5)];
        let hit = Op::two(Gate::Xx(FRAC_PI_2), 4, 0);
        let miss = Op::two(Gate::Xx(FRAC_PI_2), 0, 3);
        let hit_out = apply_coupling_faults(&hit, &faults);
        let miss_out = apply_coupling_faults(&miss, &faults);
        assert_eq!(hit_out.gate, Gate::Xx(FRAC_PI_2 * 0.5));
        assert_eq!(miss_out.gate, Gate::Xx(FRAC_PI_2));
    }

    #[test]
    fn ms_error_from_under_rotation_matches_scaling() {
        // At θ = π/2, the additive model must equal the multiplicative one.
        let u = 0.22;
        let e = MsError::from_under_rotation(u);
        let g = e.perturb(Gate::Xx(FRAC_PI_2));
        match g {
            Gate::Ms { theta, .. } => {
                assert!((theta - FRAC_PI_2 * (1.0 - u)).abs() < 1e-15);
            }
            _ => panic!("expected MS gate"),
        }
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
            noisy.push(apply_coupling_faults(op, &[fault]));
        }
        let f = run(&noisy).probability(0);
        let expect = (std::f64::consts::PI * 0.22).cos().powi(2);
        assert!((f - expect).abs() < 1e-12);
    }
}
