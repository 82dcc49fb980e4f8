//! Randomized benchmarking (paper §II-B).
//!
//! "RB essentially applies a random sequence of gates drawn from a
//! restricted set of gates" and, assuming non-systematic Markovian errors,
//! extracts the per-gate error from the exponential decay of the survival
//! probability. This module implements standard single-qubit RB against
//! the virtual machine: random Clifford words, a computed inversion
//! element, native transpilation (so laser-driven `R` gates pick up the
//! machine's rotation noise while virtual `Rz` stays exact), shot-sampled
//! survival, and the `F(m) = A·p^m + 1/2` fit.

use crate::machine::VirtualTrap;
use crate::Activity;
use itqc_circuit::transpile::to_native;
use itqc_circuit::{library, Circuit, Op};
use itqc_math::lstsq::least_squares;
use itqc_math::Mat2;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Result of a single-qubit RB run.
#[derive(Clone, Debug)]
pub struct RbResult {
    /// Sequence lengths (number of random Cliffords, excluding inversion).
    pub lengths: Vec<usize>,
    /// Mean survival probability per length.
    pub survival: Vec<f64>,
    /// Fitted depolarising parameter `p` of `F(m) = A·p^m + 1/2`.
    pub decay_p: f64,
    /// Error per Clifford `r = (1 − p)/2`.
    pub error_per_clifford: f64,
}

/// Configuration of an RB run.
#[derive(Clone, Debug)]
pub struct RbConfig {
    /// The benchmarked qubit.
    pub qubit: usize,
    /// Sequence lengths to sample.
    pub lengths: Vec<usize>,
    /// Random sequences per length.
    pub sequences_per_length: usize,
    /// Shots per sequence.
    pub shots: usize,
    /// RNG seed for sequence sampling.
    pub seed: u64,
}

/// Runs single-qubit randomized benchmarking on the machine.
///
/// # Panics
///
/// Panics if the qubit is out of range, lengths are empty, or the fit is
/// degenerate (e.g. survival at 0.5 everywhere — noise too strong for the
/// chosen lengths).
pub fn single_qubit_rb(trap: &mut VirtualTrap, config: &RbConfig) -> RbResult {
    assert!(config.qubit < trap.n_qubits(), "qubit out of range");
    assert!(!config.lengths.is_empty(), "need at least one sequence length");
    let cliffords = library::single_qubit_cliffords();
    let matrices: Vec<Mat2> = cliffords.iter().map(|w| library::clifford_matrix(w)).collect();
    let mut rng = SmallRng::seed_from_u64(config.seed);

    let mut survival = Vec::with_capacity(config.lengths.len());
    for &m in &config.lengths {
        let mut acc = 0.0;
        for _ in 0..config.sequences_per_length {
            // Random word of m Cliffords.
            let mut composed = Mat2::identity();
            let mut circuit = Circuit::new(trap.n_qubits());
            for _ in 0..m {
                let k = rng.gen_range(0..cliffords.len());
                for &g in &cliffords[k] {
                    circuit.push(Op::one(g, config.qubit));
                }
                composed = matrices[k].mul(&composed);
            }
            // Inversion element: the group member undoing the word.
            let inverse = composed.adjoint();
            let inv_idx = matrices
                .iter()
                .position(|k| k.approx_eq_up_to_phase(&inverse, 1e-9))
                .expect("Clifford group is closed under inversion");
            for &g in &cliffords[inv_idx] {
                circuit.push(Op::one(g, config.qubit));
            }
            // Native gates: H/S lower to R(θ,φ) + virtual Rz; only the R
            // pulses see rotation noise. Deliberately *not* fused: RB
            // benchmarks the physical per-Clifford pulses, and whole-word
            // fusion would collapse the sequence to a single rotation.
            let native = to_native(&circuit);
            let counts = trap.run_circuit(&native, config.shots, Activity::Testing);
            let zeros: usize = counts
                .iter()
                .filter(|(&basis, _)| (basis >> config.qubit) & 1 == 0)
                .map(|(_, &c)| c)
                .sum();
            acc += zeros as f64 / config.shots as f64;
        }
        survival.push(acc / config.sequences_per_length as f64);
    }

    // Fit log(F − 1/2) = log A + m·log p on points above the floor.
    let mut xs = Vec::new();
    let mut ys = Vec::new();
    for (&m, &f) in config.lengths.iter().zip(&survival) {
        if f > 0.52 {
            xs.extend_from_slice(&[1.0, m as f64]);
            ys.push((f - 0.5).ln());
        }
    }
    assert!(ys.len() >= 2, "not enough decaying points to fit (noise too strong?)");
    let beta = least_squares(&xs, &ys, 2).expect("RB fit design is nonsingular");
    let decay_p = beta[1].exp().clamp(0.0, 1.0);
    RbResult {
        lengths: config.lengths.clone(),
        survival,
        decay_p,
        error_per_clifford: (1.0 - decay_p) / 2.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::TrapConfig;

    #[test]
    fn noiseless_machine_has_unit_survival() {
        let mut trap = VirtualTrap::new(TrapConfig::ideal(2, 3));
        let config = RbConfig {
            qubit: 0,
            lengths: vec![1, 4, 8],
            sequences_per_length: 4,
            shots: 200,
            seed: 5,
        };
        let result = single_qubit_rb(&mut trap, &config);
        for &f in &result.survival {
            assert!(f > 0.995, "noiseless survival {f}");
        }
        assert!(result.error_per_clifford < 5e-3);
    }

    #[test]
    fn rotation_noise_produces_decay() {
        let mut cfg = TrapConfig::ideal(2, 7);
        cfg.one_qubit_jitter_std = 0.10;
        let mut trap = VirtualTrap::new(cfg);
        let config = RbConfig {
            qubit: 0,
            lengths: vec![1, 4, 8, 16, 32],
            sequences_per_length: 8,
            shots: 300,
            seed: 11,
        };
        let result = single_qubit_rb(&mut trap, &config);
        // Survival decays with length…
        assert!(result.survival.first().unwrap() > result.survival.last().unwrap());
        // …and the fitted error is positive and plausible for σ = 0.1
        // (a σ-jittered rotation depolarises by ~σ²/4 per pulse; ~1
        // laser pulse per Clifford element on average).
        assert!(result.decay_p < 1.0);
        assert!(
            result.error_per_clifford > 5e-4 && result.error_per_clifford < 0.05,
            "error per Clifford {}",
            result.error_per_clifford
        );
    }

    #[test]
    fn stronger_noise_means_faster_decay() {
        let run = |sigma: f64, seed: u64| -> f64 {
            let mut cfg = TrapConfig::ideal(2, seed);
            cfg.one_qubit_jitter_std = sigma;
            let mut trap = VirtualTrap::new(cfg);
            let config = RbConfig {
                qubit: 0,
                lengths: vec![1, 4, 8, 16],
                sequences_per_length: 8,
                shots: 300,
                seed,
            };
            single_qubit_rb(&mut trap, &config).error_per_clifford
        };
        let weak = run(0.05, 21);
        let strong = run(0.20, 22);
        assert!(strong > weak, "strong {strong} vs weak {weak}");
    }
}
