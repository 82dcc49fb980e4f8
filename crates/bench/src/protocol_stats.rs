//! Reusable Monte-Carlo estimators behind the paper's headline numbers.
//!
//! The `table2` binary and the tier-2 statistical regression suite
//! (`tests/paper_regression.rs`) must measure *exactly* the same
//! quantity, so the trial loops live here rather than in the binary.
//! Every estimator runs on [`mod@crate::par_trials`] with per-trial seed
//! streams: results are bit-identical at any thread count.

use crate::ambient::random_couplings;
use crate::{par_trials, split_seed};
use itqc_core::testplan::ScoreMode;
use itqc_core::{diagnose_all, DecoderPolicy, ExactExecutor, MultiFaultConfig};

/// The planted under-rotation of every Table II fault (§VII: faults of
/// one common magnitude, so the repetition ladder cannot separate them).
pub const TABLE2_FAULT_U: f64 = 0.30;

/// The Table II pipeline configuration for a `k`-fault cell under the
/// given decoder policy (oracle executor: exact scores, no shot noise).
pub fn table2_config(k: usize, decoder: DecoderPolicy) -> MultiFaultConfig {
    MultiFaultConfig {
        reps_ladder: vec![2, 4],
        threshold: 0.5,
        canary_threshold: 0.5,
        shots: 1, // oracle executor: exact scores, no shot noise
        canary_shots: 1,
        max_faults: k + 2,
        decoder,
        // Exact oracle scores: only the forward-model truncation floor.
        ranked_sigma: itqc_core::threshold::observation_sigma(0, 0.0, 4),
        score: ScoreMode::ExactTarget,
        canary_score: ScoreMode::WorstQubit,
        max_threshold_retunes: 4,
        fusion_rounds: 2,
        fault_magnitude: 0.10,
        canary_rotations: 0,
        canary_seed: 0,
    }
}

/// Monte-Carlo probability that the full sequential pipeline identifies
/// `k` planted same-magnitude faults on an `n`-qubit machine *exactly*
/// (diagnosed set equals planted set) — one Table II cell.
///
/// Each trial plants and diagnoses its own fault set from a private
/// seeded stream, so the success count is `--threads`-invariant. Exact
/// scores come from the oracle's one scalar path at every size: at
/// `n = 64` (the `table2 --xl` row) the chain sampler's tables answer
/// the 32-qubit class components.
pub fn table2_identification_rate(
    n: usize,
    k: usize,
    trials: usize,
    threads: usize,
    decoder: DecoderPolicy,
    seed: u64,
) -> f64 {
    identification_rate_with(n, k, trials, threads, &table2_config(k, decoder), false, seed)
}

/// [`table2_identification_rate`] with an explicit pipeline
/// configuration and optional 300-shot binomial sampling on every test
/// score — the knobs the evidence-fusion regression and property tests
/// turn (fusion on/off at fixed seeds, exact vs shot-noisy
/// observations). Thread-invariant like every `par_trials` estimator.
pub fn identification_rate_with(
    n: usize,
    k: usize,
    trials: usize,
    threads: usize,
    config: &MultiFaultConfig,
    shot_sampled: bool,
    seed: u64,
) -> f64 {
    use rand::Rng;
    let outcomes = par_trials(
        threads,
        trials,
        |t| split_seed(seed, t),
        |_, rng| {
            let faults = random_couplings(n, k, rng);
            let mut exec =
                ExactExecutor::new(n).with_faults(faults.iter().map(|&c| (c, TABLE2_FAULT_U)));
            let mut truth = faults.clone();
            truth.sort();
            if shot_sampled {
                let mut cfg = config.clone();
                cfg.shots = 300;
                cfg.canary_shots = 300;
                let mut shot_exec = crate::ShotSampled::new(exec, rng.gen());
                diagnose_all(&mut shot_exec, n, &cfg).couplings() == truth
            } else {
                diagnose_all(&mut exec, n, config).couplings() == truth
            }
        },
    );
    outcomes.iter().filter(|&&ok| ok).count() as f64 / trials.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_fault_cell_is_exact_at_8_qubits() {
        for decoder in DecoderPolicy::ALL {
            let p = table2_identification_rate(8, 1, 40, 1, decoder, 20220402);
            assert_eq!(p, 1.0, "{decoder}");
        }
    }

    #[test]
    fn rate_is_thread_invariant() {
        let serial = table2_identification_rate(8, 2, 24, 1, DecoderPolicy::Ranked, 7);
        let parallel = table2_identification_rate(8, 2, 24, 8, DecoderPolicy::Ranked, 7);
        assert_eq!(serial, parallel);
    }
}
