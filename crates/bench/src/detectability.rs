//! Fig. 8 — test contrast and detectability at scale (the paper's
//! 8/16/32-qubit sweep), as reusable estimators on [`mod@crate::par_trials`].
//!
//! For each machine size and test depth, one coupling receives a swept
//! under-rotation `u` while every other coupling carries a random ±10 %
//! ambient calibration error. Per sweep point the estimators report the
//! mean worst-qubit score of first-round tests containing the planted
//! coupling vs those not containing it (the paper's contrast curves),
//! and the probability that the full single-fault protocol identifies
//! the planted coupling — whose 95 % level defines the figure's
//! "minimum detectable under-rotation".
//!
//! Every shot is a genuine output string drawn from the exact circuit
//! distribution through the pluggable simulation-backend subsystem
//! ([`itqc_backend`]): the analytic engine factorizes each test over
//! its coupling-graph components (`2^c` work for a `c`-qubit component,
//! never `2^N`), which is what makes the 32-qubit sweep a minutes-scale
//! computation. The pass/fail threshold is calibrated on the *same*
//! string statistic ([`crate::ambient::calibrate_threshold_strings_par`]),
//! since the minimum over correlated per-qubit counts sits measurably
//! below a binomial draw of the exact worst marginal.
//!
//! One trial re-uses a single ambient draw across the whole `u`-sweep
//! (common random numbers — the curve within a trial varies only the
//! planted fault) and a private seed stream per `(trial, u)` for shots,
//! so results are bit-identical at any `--threads` value.

use crate::ambient::{
    ambient_executor_uniform_with, calibrate_threshold_strings_par, random_couplings,
};
use crate::{par_trials, split_seed, StringSampled};
use itqc_backend::BackendChoice;
use itqc_core::testplan::ScoreMode;
use itqc_core::{first_round_classes, Diagnosis, LabelSpace, SingleFaultProtocol, TestSpec};
use std::collections::BTreeSet;

/// The ambient calibration-error bound of the scaling studies (the
/// paper's "10% random amplitude errors").
pub const FIG8_AMBIENT: f64 = 0.10;

/// The ambient bound actually applied at machine size `n`: the paper's
/// [`FIG8_AMBIENT`] up to 32 qubits, scaled by `1/√(n/2 − 1)`-normalised
/// degree above [`crate::ambient::COMMON_MODE_MIN_QUBITS`]. Beyond the
/// paper's sizes the ambient model is *common-mode* (one master-
/// amplitude drift shared by all couplings — see
/// [`crate::ambient::ambient_executor_uniform`]): per-coupling scatter
/// random-walks across a qubit's `d = n/2 − 1` partners (phase error
/// `∝ σ·√d`), while a common-mode drift compounds linearly (`∝ u·d`),
/// so an equal-bound common-mode model at degree 31–63 saturates every
/// healthy score and the sweep measures nothing. Scaling the bound to
/// `FIG8_AMBIENT·√(d₃₂)/d` matches the per-qubit phase-noise magnitude
/// of the paper's 32-qubit operating point, keeping the knees
/// comparable across the whole 8→128 sweep.
pub fn fig8_ambient_bound(n_qubits: usize) -> f64 {
    if n_qubits <= crate::ambient::COMMON_MODE_MIN_QUBITS {
        return FIG8_AMBIENT;
    }
    let degree = (n_qubits / 2 - 1) as f64;
    let paper_degree = 15.0f64; // 32-qubit panel: 16-qubit components
    FIG8_AMBIENT * paper_degree.sqrt() / degree
}

/// Shots per test circuit (the paper's hardware budget).
pub const FIG8_SHOTS: usize = 300;

/// Pass/fail statistic of the scaling studies.
pub const FIG8_SCORE: ScoreMode = ScoreMode::WorstQubit;

/// Healthy-score quantile the threshold is calibrated at. Two forces
/// pull on it: every one of the up-to-`3n − 1` healthy tests of a
/// diagnosis must pass (pushing the quantile down), while the
/// verification point test on the accused coupling — the *highest*
/// scoring faulty test, with no ambient co-factors — must still fail
/// (pushing the threshold, hence the quantile, up). 0.001 keeps the
/// all-healthy-pass probability ≥ 98.5 % even at the 32-qubit
/// battery's ~15 tests; the verification side no longer constrains it,
/// because the protocol runs with contrast verification
/// ([`SingleFaultProtocol::with_contrast_verification`]): the
/// verification cut is re-placed per run at the fault-vs-healthy
/// midpoint of the fitted magnitude, which restored the ~1.7σ of
/// noise margin that used to park the 32-qubit knees one sweep step
/// above the paper's (see EXPERIMENTS.md).
pub const FIG8_QUANTILE: f64 = 0.001;

/// The swept under-rotations: 0 %, 5 %, …, 50 %.
pub fn fig8_sweep() -> Vec<f64> {
    (0..=10).map(|k| 0.05 * k as f64).collect()
}

/// One sweep point of a detectability curve.
#[derive(Clone, Copy, Debug)]
pub struct DetectabilityPoint {
    /// Planted under-rotation.
    pub under_rotation: f64,
    /// Mean worst-qubit score of first-round tests containing the
    /// planted coupling (exact, no shot noise — the paper's solid
    /// contrast curve).
    pub faulty_mean: f64,
    /// Mean score of tests not containing it (the dashed ambient
    /// baseline).
    pub healthy_mean: f64,
    /// Probability the single-fault protocol identifies the planted
    /// coupling from 300-shot string statistics.
    pub p_identify: f64,
}

/// A full Fig. 8 curve for one (machine size, test depth) panel.
#[derive(Clone, Debug)]
pub struct DetectabilityCurve {
    /// Register size.
    pub n_qubits: usize,
    /// MS gates per coupling.
    pub reps: usize,
    /// The calibrated pass/fail threshold used by every trial.
    pub threshold: f64,
    /// One entry per sweep under-rotation, ascending.
    pub points: Vec<DetectabilityPoint>,
}

impl DetectabilityCurve {
    /// The smallest swept under-rotation whose identification
    /// probability reaches `level`, or `None` if the sweep never does.
    pub fn min_u_at(&self, level: f64) -> Option<f64> {
        self.points.iter().find(|p| p.p_identify >= level).map(|p| p.under_rotation)
    }
}

/// Calibrates the Fig. 8 pass/fail threshold for one panel on the
/// string statistic (thread-invariant; `trials` ambient machines).
pub fn fig8_threshold(
    n_qubits: usize,
    reps: usize,
    trials: usize,
    threads: usize,
    backend: BackendChoice,
    seed: u64,
) -> f64 {
    calibrate_threshold_strings_par(
        threads,
        n_qubits,
        reps,
        fig8_ambient_bound(n_qubits),
        FIG8_SCORE,
        FIG8_SHOTS,
        FIG8_QUANTILE,
        trials,
        backend,
        seed,
    )
}

/// Measures one Fig. 8 panel: `trials` planted-fault machines per sweep
/// point, on up to `threads` workers, every protocol shot drawn as a
/// genuine output string through `backend`. Bit-identical at any thread
/// count.
pub fn fig8_curve(
    n_qubits: usize,
    reps: usize,
    threshold: f64,
    trials: usize,
    threads: usize,
    backend: BackendChoice,
    seed: u64,
) -> DetectabilityCurve {
    let sweep = fig8_sweep();
    // The class battery is trial- and u-independent: enumerate each
    // class's couplings and build its spec once per panel, not once per
    // (trial, u) (the specs consume no RNG, so hoisting cannot move the
    // seed streams).
    let space = LabelSpace::new(n_qubits);
    let none = BTreeSet::new();
    let battery: Vec<(Vec<itqc_circuit::Coupling>, TestSpec)> = first_round_classes(&space)
        .into_iter()
        .filter_map(|class| {
            let couplings = class.couplings(&space, &none);
            if couplings.is_empty() {
                return None;
            }
            let spec = TestSpec::for_couplings("t", &couplings, reps).with_score(FIG8_SCORE);
            Some((couplings, spec))
        })
        .collect();
    let per_trial = par_trials(
        threads,
        trials,
        |t| split_seed(seed, t),
        |_, rng| {
            use rand::Rng;
            let target = random_couplings(n_qubits, 1, rng)[0];
            // One ambient draw per trial, shared by the whole sweep; the
            // planted magnitude overlays it below (common random numbers).
            let ambient = ambient_executor_uniform_with(
                n_qubits,
                fig8_ambient_bound(n_qubits),
                &[],
                backend,
                rng,
            );
            let shot_master: u64 = rng.gen();
            sweep
                .iter()
                .enumerate()
                .map(|(ui, &u)| {
                    let exec = ambient.clone().with_faults([(target, u)]);
                    let (mut f_sum, mut f_n, mut h_sum, mut h_n) = (0.0, 0usize, 0.0, 0usize);
                    for (couplings, spec) in &battery {
                        let s = exec.exact_score(spec);
                        if couplings.contains(&target) {
                            f_sum += s;
                            f_n += 1;
                        } else {
                            h_sum += s;
                            h_n += 1;
                        }
                    }
                    let mut sampler = StringSampled::new(exec, split_seed(shot_master, ui));
                    let protocol = SingleFaultProtocol::new(n_qubits, reps, threshold, FIG8_SHOTS)
                        .with_score(FIG8_SCORE)
                        .with_contrast_verification();
                    let report = protocol.diagnose(&mut sampler);
                    let identified = report.diagnosis == Diagnosis::Fault(target);
                    (f_sum, f_n, h_sum, h_n, identified)
                })
                .collect::<Vec<_>>()
        },
    );
    let points = sweep
        .iter()
        .enumerate()
        .map(|(ui, &u)| {
            let (mut f_sum, mut f_n, mut h_sum, mut h_n, mut hits) =
                (0.0f64, 0usize, 0.0f64, 0usize, 0usize);
            for trial in &per_trial {
                let (fs, fc, hs, hc, id) = trial[ui];
                f_sum += fs;
                f_n += fc;
                h_sum += hs;
                h_n += hc;
                hits += id as usize;
            }
            DetectabilityPoint {
                under_rotation: u,
                faulty_mean: f_sum / f_n.max(1) as f64,
                healthy_mean: h_sum / h_n.max(1) as f64,
                p_identify: hits as f64 / trials.max(1) as f64,
            }
        })
        .collect();
    DetectabilityCurve { n_qubits, reps, threshold, points }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curve_is_thread_invariant() {
        let t = fig8_threshold(8, 4, 8, 1, BackendChoice::Analytic, 31);
        let a = fig8_curve(8, 4, t, 6, 1, BackendChoice::Analytic, 77);
        let b = fig8_curve(8, 4, t, 6, 8, BackendChoice::Analytic, 77);
        for (x, y) in a.points.iter().zip(&b.points) {
            assert_eq!(x.p_identify, y.p_identify);
            assert_eq!(x.faulty_mean.to_bits(), y.faulty_mean.to_bits());
            assert_eq!(x.healthy_mean.to_bits(), y.healthy_mean.to_bits());
        }
    }

    #[test]
    fn big_faults_are_found_and_tiny_ones_are_not() {
        let t = fig8_threshold(8, 4, 20, 0, BackendChoice::Auto, 5);
        let curve = fig8_curve(8, 4, t, 20, 0, BackendChoice::Auto, 6);
        let p0 = curve.points.first().unwrap();
        let p_big = &curve.points[8]; // u = 40%
        assert!(p0.p_identify <= 0.1, "u=0 identified {}", p0.p_identify);
        assert!(p_big.p_identify >= 0.8, "u=40% identified only {}", p_big.p_identify);
        assert!(p_big.faulty_mean < p0.faulty_mean - 0.1, "contrast must open with u");
        let healthy_drift = (p_big.healthy_mean - p0.healthy_mean).abs();
        assert!(healthy_drift < 0.05, "healthy baseline must stay flat ({healthy_drift})");
        if let Some(min_u) = curve.min_u_at(0.95) {
            assert!(min_u > 0.05, "a noise-floor fault cannot be 95%-identifiable");
        }
    }
}
