//! The Fig. 7 naturally-occurring-miscalibration study, shared between
//! the `fig7` binary and the tier-2 statistical regression suite.
//!
//! Replays the paper's observed machine state after 15 minutes of
//! idling: most couplings drift within the ±6% calibration band while
//! {3,4}, {2,5} and {5,7} develop large under-rotations; the sequential
//! multi-fault pipeline (with the evidence-fusion ranked decoder) must
//! recover all three — including the two bit-complementary pairs {3,4}
//! and {2,5}, invisible to the first round (footnote 9's "no positive
//! test results" case).

use crate::{par_trials, split_seed};
use itqc_circuit::Coupling;
use itqc_core::testplan::ScoreMode;
use itqc_core::{diagnose_all, DecoderPolicy, MultiFaultConfig, MultiFaultReport};
use itqc_trap::{TrapConfig, VirtualTrap};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeSet;

/// The paper's machine size.
pub const FIG7_QUBITS: usize = 8;

/// The paper's observed post-drift state (Fig. 7C): three outliers, the
/// rest inside the ±6% band.
pub const FIG7_OUTLIERS: [(usize, usize, f64); 3] = [(3, 4, 0.25), (2, 5, 0.16), (5, 7, 0.15)];

/// Half-width of the ambient calibration band the healthy couplings
/// drift within.
pub const FIG7_AMBIENT_BAND: f64 = 0.06;

/// The expected fault set, sorted.
pub fn fig7_expected() -> Vec<Coupling> {
    let mut out: Vec<Coupling> =
        FIG7_OUTLIERS.iter().map(|&(a, b, _)| Coupling::new(a, b)).collect();
    out.sort();
    out
}

/// Builds the drifted machine: every coupling drawn uniformly from the
/// ±6% band, then the three outliers overwritten.
pub fn fig7_trap(trap_seed: u64, ambient_seed: u64) -> VirtualTrap {
    let mut trap = VirtualTrap::new(TrapConfig::ideal(FIG7_QUBITS, trap_seed));
    let mut rng = SmallRng::seed_from_u64(ambient_seed);
    for c in trap.couplings() {
        trap.inject_fault(c, rng.gen_range(-FIG7_AMBIENT_BAND..FIG7_AMBIENT_BAND));
    }
    for (a, b, u) in FIG7_OUTLIERS {
        trap.inject_fault(Coupling::new(a, b), u);
    }
    trap
}

/// The Fig. 7 diagnosis configuration: 8-MS amplification (the ~15%
/// faults need the deep rung), 300 shots, the evidence-fusion ranked
/// decoder.
pub fn fig7_config() -> MultiFaultConfig {
    MultiFaultConfig {
        reps_ladder: vec![8],
        threshold: 0.5,
        canary_threshold: 0.12,
        shots: 300,
        canary_shots: 300,
        max_faults: 5,
        decoder: DecoderPolicy::Ranked,
        ranked_sigma: itqc_core::threshold::observation_sigma(300, 0.02, 8),
        score: ScoreMode::ExactTarget,
        canary_score: ScoreMode::ExactTarget,
        max_threshold_retunes: 4,
        fusion_rounds: 2,
        canary_rotations: 0,
        canary_seed: 0,
    }
}

/// Runs the sequential diagnosis on a drifted machine.
pub fn fig7_diagnose(trap: &mut VirtualTrap) -> MultiFaultReport {
    diagnose_all(trap, FIG7_QUBITS, &fig7_config())
}

/// Monte-Carlo probability that the pipeline recovers *exactly* the
/// three planted outliers (no ambient coupling falsely accused, none of
/// the three missed) over independently drawn ambient drifts and shot
/// streams. Runs on [`mod@crate::par_trials`]: bit-identical at any thread
/// count.
pub fn fig7_recovery_rate(trials: usize, threads: usize, seed: u64) -> f64 {
    let expected: BTreeSet<Coupling> = fig7_expected().into_iter().collect();
    let outcomes = par_trials(
        threads,
        trials,
        |t| split_seed(seed, t),
        |_, rng| {
            let trap_seed = rng.gen();
            let ambient_seed = rng.gen();
            let mut trap = fig7_trap(trap_seed, ambient_seed);
            let report = fig7_diagnose(&mut trap);
            let found: BTreeSet<Coupling> = report.couplings().into_iter().collect();
            found == expected
        },
    );
    outcomes.iter().filter(|&&ok| ok).count() as f64 / trials.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovery_rate_is_thread_invariant() {
        let a = fig7_recovery_rate(4, 1, 5);
        let b = fig7_recovery_rate(4, 8, 5);
        assert_eq!(a.to_bits(), b.to_bits());
    }

    #[test]
    fn two_outliers_are_bit_complementary() {
        // {3,4} = 011/100 and {2,5} = 010/101 share no index bits: the
        // first round cannot see them (the footnote-9 setting the
        // adaptive rounds must handle).
        let n_bits = 3u32;
        for (a, b) in [(3usize, 4usize), (2, 5)] {
            assert!(
                (0..n_bits).all(|i| (a >> i) & 1 != (b >> i) & 1),
                "{{{a},{b}}} must be bit-complementary"
            );
        }
    }
}
