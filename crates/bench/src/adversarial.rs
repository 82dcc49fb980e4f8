//! The adversarial fault-coverage scorecard (`fig_adv`): identification
//! probability vs *configuration class* — uniform draws (the Table II
//! baseline), even-degree cycle unions (invisible to the fixed
//! worst-qubit canary), and tied disjoint perfect-fit covers (the
//! evidence-fusion decoder's honest abstention) — with the
//! countermeasures (rotating canary subsets + disputed-member
//! interrogation) off and on.
//!
//! Same discipline as the Table II estimators: every trial plants and
//! diagnoses its own scenario from a private seeded stream on
//! [`mod@crate::par_trials`], so every number is bit-identical at any
//! `--threads` value. The oracle executor (exact scores, one shot)
//! isolates the *structural* blind spots from shot noise: a 0 % cell is
//! a property of the pipeline, not of a sample.

use crate::{par_trials, split_seed};
use itqc_core::testplan::ScoreMode;
use itqc_core::{diagnose_all, DecoderPolicy, ExactExecutor, MultiFaultConfig};
use itqc_faults::adversarial::{sample_scenario, ConfigClass};

/// Planted under-rotation of every adversarial fault — the Table II
/// magnitude, at which a faulty degree-2 qubit still agrees with the
/// worst-qubit canary target with probability (1 + cos²(2u·π))/2 ≈ 0.55.
pub const ADV_FAULT_U: f64 = 0.30;

/// Rotations per passed canary under countermeasures: a random subset
/// breaks a triangle's parity with probability 3/4, so four rotations
/// leave ~0.4 % residual invisibility per round.
pub const ADV_CANARY_ROTATIONS: usize = 4;

/// The adversarial pipeline configuration: the Table II oracle setup,
/// with the countermeasure pair — [`ADV_CANARY_ROTATIONS`] rotating
/// canary subsets and [`DecoderPolicy::Interrogate`] — switched
/// together. `countermeasures = false` is the paper-faithful pipeline
/// ([`DecoderPolicy::Ranked`], fixed canary only).
pub fn adversarial_config(
    max_faults: usize,
    countermeasures: bool,
    canary_seed: u64,
) -> MultiFaultConfig {
    MultiFaultConfig {
        reps_ladder: vec![2, 4],
        threshold: 0.5,
        canary_threshold: 0.5,
        shots: 1, // oracle executor: exact scores, no shot noise
        canary_shots: 1,
        max_faults,
        decoder: if countermeasures { DecoderPolicy::Interrogate } else { DecoderPolicy::Ranked },
        ranked_sigma: itqc_core::threshold::observation_sigma(0, 0.0, 4),
        score: ScoreMode::ExactTarget,
        canary_score: ScoreMode::WorstQubit,
        max_threshold_retunes: 4,
        fusion_rounds: 2,
        canary_rotations: if countermeasures { ADV_CANARY_ROTATIONS } else { 0 },
        canary_seed,
    }
}

/// One scorecard cell: a configuration class at one machine size under
/// one countermeasure setting.
#[derive(Clone, Copy, Debug)]
pub struct AdversarialScore {
    /// The configuration class swept.
    pub class: ConfigClass,
    /// Probability the diagnosed set equals the planted set exactly.
    pub identification: f64,
    /// Mean planted fault count per trial.
    pub mean_faults: f64,
    /// Total healthy couplings accused across all trials (must be 0:
    /// every accusation is magnitude-verified, blind spots may only
    /// cause *misses*).
    pub false_accusations: usize,
    /// Trial count behind the estimates.
    pub trials: usize,
}

/// Measures one scorecard cell: `trials` seeded scenario draws of
/// `class`, each planted on an oracle executor and run through the full
/// Fig. 5 loop under [`adversarial_config`]. Thread-invariant.
pub fn adversarial_score(
    n_qubits: usize,
    class: ConfigClass,
    trials: usize,
    threads: usize,
    countermeasures: bool,
    seed: u64,
) -> AdversarialScore {
    use rand::Rng;
    let outcomes = par_trials(
        threads,
        trials,
        |t| split_seed(seed, t),
        |_, rng| {
            let scenario = sample_scenario(class, n_qubits, rng);
            let truth = scenario.faults.clone();
            let cfg = adversarial_config(truth.len() + 2, countermeasures, rng.gen());
            let mut exec =
                ExactExecutor::new(n_qubits).with_faults(truth.iter().map(|&c| (c, ADV_FAULT_U)));
            let got = diagnose_all(&mut exec, n_qubits, &cfg).couplings();
            let false_acc = got.iter().filter(|c| !truth.contains(c)).count();
            (got == truth, truth.len(), false_acc)
        },
    );
    let hits = outcomes.iter().filter(|&&(ok, _, _)| ok).count();
    let planted: usize = outcomes.iter().map(|&(_, k, _)| k).sum();
    let false_accusations = outcomes.iter().map(|&(_, _, f)| f).sum();
    AdversarialScore {
        class,
        identification: hits as f64 / trials.max(1) as f64,
        mean_faults: planted as f64 / trials.max(1) as f64,
        false_accusations,
        trials,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn score_is_thread_invariant() {
        for class in ConfigClass::ALL {
            let serial = adversarial_score(8, class, 16, 1, true, 7);
            let parallel = adversarial_score(8, class, 16, 8, true, 7);
            assert_eq!(serial.identification.to_bits(), parallel.identification.to_bits());
            assert_eq!(serial.mean_faults.to_bits(), parallel.mean_faults.to_bits());
            assert_eq!(serial.false_accusations, parallel.false_accusations);
        }
    }

    #[test]
    fn even_degree_baseline_is_exactly_zero() {
        // Not "low": structurally zero. Every even-degree configuration
        // passes the fixed canary at any magnitude, so the paper loop
        // never opens a diagnosis round.
        let s = adversarial_score(8, ConfigClass::EvenDegree, 24, 0, false, 11);
        assert_eq!(s.identification, 0.0);
        assert_eq!(s.false_accusations, 0);
    }

    #[test]
    fn countermeasures_lift_even_degree_to_near_certainty() {
        let s = adversarial_score(8, ConfigClass::EvenDegree, 24, 0, true, 13);
        assert!(s.identification >= 0.75, "got {}", s.identification);
        assert_eq!(s.false_accusations, 0);
    }
}
