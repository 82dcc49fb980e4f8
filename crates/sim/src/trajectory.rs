//! Stochastic-trajectory execution.
//!
//! Non-deterministic noise (1/f phase drift, random amplitude fluctuations,
//! residual bus kicks) is simulated by Monte-Carlo unravelling: each
//! trajectory draws one realisation of every stochastic parameter, runs the
//! resulting *unitary* circuit on the dense backend, and observables are
//! averaged over trajectories. This matches the paper's unitary-error
//! simulator (§VI), which models exactly these error classes.

use crate::statevector::StateVector;
use itqc_circuit::{Circuit, Op};
use rand::Rng;

/// Rewrites one ideal operation into its noisy realisation for the current
/// trajectory. Implementations live in `itqc-faults`/`itqc-trap`; the
/// simulator only fixes the calling convention.
pub trait NoiseModel {
    /// Emits the noisy ops replacing ideal `op` (commonly the perturbed op
    /// itself, possibly with extra error kicks around it).
    fn rewrite<R: Rng + ?Sized>(&mut self, op: &Op, rng: &mut R, out: &mut Vec<Op>);

    /// Called once at the start of each trajectory so the model can draw
    /// per-run realisations (e.g. a fresh 1/f noise trace).
    fn begin_trajectory<R: Rng + ?Sized>(&mut self, _rng: &mut R) {}
}

/// A no-noise model: ops pass through unchanged.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Noiseless;

impl NoiseModel for Noiseless {
    fn rewrite<R: Rng + ?Sized>(&mut self, op: &Op, _rng: &mut R, out: &mut Vec<Op>) {
        out.push(*op);
    }
}

/// Runs one noisy trajectory of `circuit` and returns the final state.
pub fn run_trajectory<M, R>(circuit: &Circuit, model: &mut M, rng: &mut R) -> StateVector
where
    M: NoiseModel,
    R: Rng + ?Sized,
{
    model.begin_trajectory(rng);
    let mut state = StateVector::zero_state(circuit.n_qubits());
    let mut buf = Vec::with_capacity(4);
    for op in circuit.ops() {
        buf.clear();
        model.rewrite(op, rng, &mut buf);
        for noisy in &buf {
            state.apply_op(noisy);
        }
    }
    state
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_circuit::{Gate, Op};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_PI_2;

    /// A test model that under-rotates every XX gate by a fixed fraction.
    struct FixedUnderRotation(f64);

    impl NoiseModel for FixedUnderRotation {
        fn rewrite<R: Rng + ?Sized>(&mut self, op: &Op, _rng: &mut R, out: &mut Vec<Op>) {
            match op.gate {
                Gate::Xx(t) => {
                    out.push(Op::two(Gate::Xx(t * (1.0 - self.0)), op.qubits()[0], op.qubits()[1]))
                }
                _ => out.push(*op),
            }
        }
    }

    #[test]
    fn noiseless_matches_direct_run() {
        let mut rng = SmallRng::seed_from_u64(1);
        let mut c = Circuit::new(2);
        c.h(0).cnot(0, 1);
        let s = run_trajectory(&c, &mut Noiseless, &mut rng);
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(3) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn deterministic_underrotation_matches_analytic() {
        let mut rng = SmallRng::seed_from_u64(2);
        let u = 0.22;
        let mut c = Circuit::new(2);
        for _ in 0..4 {
            c.xx(0, 1, FRAC_PI_2);
        }
        let f = run_trajectory(&c, &mut FixedUnderRotation(u), &mut rng).probability(0);
        let expect = (std::f64::consts::PI * u).cos().powi(2);
        assert!((f - expect).abs() < 1e-10, "{f} vs {expect}");
    }

    #[test]
    fn shots_follow_the_mean() {
        let mut rng = SmallRng::seed_from_u64(3);
        let u = 0.3;
        let mut c = Circuit::new(2);
        for _ in 0..4 {
            c.xx(0, 1, FRAC_PI_2);
        }
        let shots = 2000;
        let mut model = FixedUnderRotation(u);
        let hits = (0..shots)
            .filter(|_| run_trajectory(&c, &mut model, &mut rng).sample(&mut rng) == 0)
            .count();
        let expect = (std::f64::consts::PI * u).cos().powi(2);
        let p_hat = hits as f64 / shots as f64;
        assert!((p_hat - expect).abs() < 0.04, "{p_hat} vs {expect}");
    }
}
