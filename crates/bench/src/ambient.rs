//! Ambient-calibration machinery shared by the scaling experiments.

use itqc_backend::BackendChoice;
use itqc_circuit::Coupling;
use itqc_core::testplan::ScoreMode;
use itqc_core::{first_round_classes, ExactExecutor, LabelSpace, TestSpec};
use itqc_math::stats;
use rand::Rng;
use std::collections::BTreeSet;

/// Machine size above which the uniform ambient model switches from
/// per-coupling i.i.d. draws to one *common-mode* draw shared by every
/// coupling. Beyond the paper's 32-qubit ceiling a first-round class is
/// a complete component larger than twice [`itqc_backend::MAX_COMPONENT`]
/// qubits, sampleable only by the conditional-marginal chain engine —
/// which needs the component's couplings to share one base angle up to
/// a small deviant set. Per-coupling i.i.d. errors would make *every*
/// pair deviant; a common-mode miscalibration (all couplings driven by
/// one drifted master amplitude, with the planted faults overlaid on
/// top) keeps the beyond-paper sweeps honest while staying physically
/// meaningful. At or below this size nothing changes: the per-coupling
/// model and its RNG stream are byte-identical to previous releases.
pub const COMMON_MODE_MIN_QUBITS: usize = 2 * itqc_backend::MAX_COMPONENT;

/// Builds an exact executor with *uniform* ambient calibration error —
/// per-coupling `u ~ U(−bound, bound)` draws up to
/// [`COMMON_MODE_MIN_QUBITS`] qubits (the reading of the paper's "10%
/// random amplitude errors" used by the Fig. 8/9 scaling studies, see
/// DESIGN.md §3.3), one common-mode draw shared by all couplings above
/// it — then overlays the planted faults.
pub fn ambient_executor_uniform<R: Rng + ?Sized>(
    n_qubits: usize,
    bound: f64,
    planted: &[(Coupling, f64)],
    rng: &mut R,
) -> ExactExecutor {
    let space = LabelSpace::new(n_qubits);
    let mut exec = if n_qubits > COMMON_MODE_MIN_QUBITS {
        let u = rng.gen_range(-bound..bound);
        ExactExecutor::new(n_qubits).with_faults(space.all_couplings().into_iter().map(|c| (c, u)))
    } else {
        ExactExecutor::new(n_qubits).with_faults(
            space.all_couplings().into_iter().map(|c| (c, rng.gen_range(-bound..bound))),
        )
    };
    exec = exec.with_faults(planted.iter().copied());
    exec
}

/// [`ambient_executor_uniform`] routed through a simulation backend
/// (same RNG consumption, so the ambient profile is identical) — the
/// entry point of the backend-selected Fig. 8 detectability study.
pub fn ambient_executor_uniform_with<R: Rng + ?Sized>(
    n_qubits: usize,
    bound: f64,
    planted: &[(Coupling, f64)],
    backend: BackendChoice,
    rng: &mut R,
) -> ExactExecutor {
    ambient_executor_uniform(n_qubits, bound, planted, rng).with_backend(backend)
}

/// Calibrates a pass/fail threshold for the scaling experiments: the
/// `quantile` of fault-free first-round test scores under uniform ambient
/// error, for the given depth and score mode. With `shots > 0` the scores
/// include binomial shot noise — essential, since the protocol compares
/// *sampled* scores against this threshold (a threshold calibrated on
/// exact scores sits inside the shot-noise band and healthy tests would
/// false-fail). The returned cut is floored onto the `k/shots` score
/// grid ([`itqc_core::threshold::snap_to_shot_grid`]) so an interpolated
/// quantile cannot fail the very score levels the calibration observed;
/// the string-sampled and parallel calibrators below snap identically.
#[allow(clippy::too_many_arguments)]
pub fn calibrate_threshold_uniform<R: Rng + ?Sized>(
    n_qubits: usize,
    reps: usize,
    ambient_bound: f64,
    score: ScoreMode,
    shots: usize,
    quantile: f64,
    trials: usize,
    rng: &mut R,
) -> f64 {
    let mut scores = Vec::new();
    for _ in 0..trials {
        fault_free_trial_scores(n_qubits, reps, ambient_bound, score, shots, rng, &mut scores);
    }
    itqc_core::threshold::snap_to_shot_grid(stats::quantile(&scores, quantile), shots)
}

/// The fault-free first-round class battery every threshold calibrator
/// scores: one spec per non-empty class (consumes no RNG).
fn calibration_battery(n_qubits: usize, reps: usize, score: ScoreMode) -> Vec<TestSpec> {
    let space = LabelSpace::new(n_qubits);
    let none = BTreeSet::new();
    first_round_classes(&space)
        .into_iter()
        .filter_map(|class| {
            let couplings = class.couplings(&space, &none);
            if couplings.is_empty() {
                return None;
            }
            Some(TestSpec::for_couplings("amb", &couplings, reps).with_score(score))
        })
        .collect()
}

/// One calibration trial shared by the serial and parallel threshold
/// calibrators: draws a fault-free ambient machine and appends the
/// (optionally shot-sampled) score of every non-empty first-round
/// class to `scores`.
fn fault_free_trial_scores<R: Rng + ?Sized>(
    n_qubits: usize,
    reps: usize,
    ambient_bound: f64,
    score: ScoreMode,
    shots: usize,
    rng: &mut R,
    scores: &mut Vec<f64>,
) {
    let exec = ambient_executor_uniform(n_qubits, ambient_bound, &[], rng);
    for spec in calibration_battery(n_qubits, reps, score) {
        let exact = exec.exact_score(&spec);
        let observed = if shots == 0 {
            exact
        } else {
            itqc_sim::shots::binomial(rng, shots, exact.clamp(0.0, 1.0)) as f64 / shots as f64
        };
        scores.push(observed);
    }
}

/// String-statistic threshold calibration for the backend-routed
/// detectability study: like [`calibrate_threshold_uniform_par`], but
/// every score is computed from `shots` *sampled output strings* via
/// [`crate::StringSampled`] — the same statistic the protocol under
/// test thresholds, which matters because the minimum over correlated
/// per-qubit counts sits systematically below a binomial draw of the
/// exact minimum marginal. Thread-invariant via per-trial seed streams.
#[allow(clippy::too_many_arguments)]
pub fn calibrate_threshold_strings_par(
    threads: usize,
    n_qubits: usize,
    reps: usize,
    ambient_bound: f64,
    score: ScoreMode,
    shots: usize,
    quantile: f64,
    trials: usize,
    backend: BackendChoice,
    master_seed: u64,
) -> f64 {
    let per_trial = crate::par_trials::par_trials(
        threads,
        trials,
        |t| crate::par_trials::split_seed(master_seed, t),
        |_, rng| {
            use itqc_core::TestExecutor;
            let exec = ambient_executor_uniform_with(n_qubits, ambient_bound, &[], backend, rng);
            let mut sampler = crate::StringSampled::new(exec, rng.gen());
            calibration_battery(n_qubits, reps, score)
                .iter()
                .map(|spec| sampler.run_test(spec, shots))
                .collect::<Vec<f64>>()
        },
    );
    let scores: Vec<f64> = per_trial.into_iter().flatten().collect();
    itqc_core::threshold::snap_to_shot_grid(stats::quantile(&scores, quantile), shots)
}

/// Parallel version of [`calibrate_threshold_uniform`]: trials run on
/// the [`mod@crate::par_trials`] engine with one seeded RNG stream per
/// trial derived from `master_seed`, so the returned threshold is
/// identical at any thread count (it does **not** reproduce the serial
/// function's value, which threads a single stream through all trials).
#[allow(clippy::too_many_arguments)]
pub fn calibrate_threshold_uniform_par(
    threads: usize,
    n_qubits: usize,
    reps: usize,
    ambient_bound: f64,
    score: ScoreMode,
    shots: usize,
    quantile: f64,
    trials: usize,
    master_seed: u64,
) -> f64 {
    let per_trial = crate::par_trials::par_trials(
        threads,
        trials,
        |t| crate::par_trials::split_seed(master_seed, t),
        |_, rng| {
            let mut scores = Vec::new();
            fault_free_trial_scores(n_qubits, reps, ambient_bound, score, shots, rng, &mut scores);
            scores
        },
    );
    let scores: Vec<f64> = per_trial.into_iter().flatten().collect();
    itqc_core::threshold::snap_to_shot_grid(stats::quantile(&scores, quantile), shots)
}

/// Draws `k` distinct random couplings on an `n_qubits` machine.
pub fn random_couplings<R: Rng + ?Sized>(n_qubits: usize, k: usize, rng: &mut R) -> Vec<Coupling> {
    let all = LabelSpace::new(n_qubits).all_couplings();
    assert!(k <= all.len(), "cannot pick {k} of {} couplings", all.len());
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < k {
        picked.insert(rng.gen_range(0..all.len()));
    }
    picked.into_iter().map(|i| all[i]).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn planted_faults_override_ambient() {
        let mut rng = SmallRng::seed_from_u64(1);
        let c = Coupling::new(0, 3);
        let exec = ambient_executor_uniform(8, 0.05, &[(c, 0.4)], &mut rng);
        let spec = itqc_core::TestSpec::for_couplings("t", &[c], 4);
        let f = exec.exact_score(&spec);
        let expect = (std::f64::consts::PI * 0.4).cos().powi(2);
        assert!((f - expect).abs() < 1e-9);
    }

    #[test]
    fn par_threshold_invariant_under_thread_count() {
        let t1 = calibrate_threshold_uniform_par(
            1,
            8,
            2,
            0.10,
            ScoreMode::ExactTarget,
            300,
            0.01,
            6,
            77,
        );
        let t8 = calibrate_threshold_uniform_par(
            8,
            8,
            2,
            0.10,
            ScoreMode::ExactTarget,
            300,
            0.01,
            6,
            77,
        );
        assert_eq!(t1, t8);
        assert!((0.0..=1.0).contains(&t1), "threshold {t1}");
    }

    #[test]
    fn random_couplings_are_distinct() {
        let mut rng = SmallRng::seed_from_u64(2);
        let cs = random_couplings(8, 5, &mut rng);
        assert_eq!(cs.len(), 5);
        let set: std::collections::BTreeSet<_> = cs.iter().collect();
        assert_eq!(set.len(), 5);
    }
}
