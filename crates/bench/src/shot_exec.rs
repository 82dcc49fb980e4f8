//! Shot-sampling wrappers around exact executors.
//!
//! Two fidelity-to-statistics converters:
//!
//! * [`ShotSampled`] — binomial sampling of the exact *score* (the
//!   historical wrapper; treats the worst-qubit statistic as if it were
//!   a single Bernoulli rate, which neglects cross-qubit correlations);
//! * [`StringSampled`] — samples genuine per-shot output *strings*
//!   through a simulation backend and recomputes the score exactly the
//!   way hardware post-processing would (exact-string hit fraction, or
//!   per-qubit agreement counts minimized over the support). The Fig. 8
//!   detectability study runs on this wrapper.

use itqc_backend::worst_qubit_count;
use itqc_core::executor::{TestExecutor, RUN_TEST_SPAN};
use itqc_core::testplan::ScoreMode;
use itqc_core::{ExactExecutor, TestSpec};
use itqc_sim::shots::binomial;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// Wraps an exact executor and converts its fidelities into `shots`-shot
/// binomial estimates — the statistics a hardware run would report.
#[derive(Clone, Debug)]
pub struct ShotSampled<E> {
    inner: E,
    rng: SmallRng,
}

impl<E: TestExecutor> ShotSampled<E> {
    /// Wraps `inner` with a deterministic shot-noise stream.
    pub fn new(inner: E, seed: u64) -> Self {
        ShotSampled { inner, rng: SmallRng::seed_from_u64(seed) }
    }

    /// Wraps `inner` with a shot-noise stream derived from a master
    /// seed and a trial index, so that trial `i` sees the same stream
    /// whether the trials run serially or across threads.
    pub fn for_trial(inner: E, master_seed: u64, trial: usize) -> Self {
        Self::new(inner, crate::par_trials::split_seed(master_seed, trial))
    }

    /// The wrapped executor.
    pub fn inner(&self) -> &E {
        &self.inner
    }
}

impl<E: TestExecutor> TestExecutor for ShotSampled<E> {
    fn n_qubits(&self) -> usize {
        self.inner.n_qubits()
    }

    fn run_test(&mut self, spec: &TestSpec, shots: usize) -> f64 {
        let p = self.inner.run_test(spec, shots).clamp(0.0, 1.0);
        if shots == 0 {
            return p;
        }
        // The draw is test execution too; its span opens after the inner
        // executor's has closed, so the two never nest.
        let _span = itqc_obs::span::timed(RUN_TEST_SPAN);
        binomial(&mut self.rng, shots, p) as f64 / shots as f64
    }

    fn note_adaptation(&mut self, couplings_compiled: usize) {
        self.inner.note_adaptation(couplings_compiled);
    }
}

/// Wraps an [`ExactExecutor`] and reports the statistic a
/// hardware run computes from its measured strings: sample `shots`
/// output strings from the prepared circuit's exact distribution, then
/// score them under the spec's own [`ScoreMode`].
///
/// Unlike [`ShotSampled`], the worst-qubit statistic here is the
/// minimum over *correlated* per-qubit agreement counts from one shared
/// set of shots — the honest population statistic of the paper's
/// scaling experiments.
///
/// `run_test` panics with the backend's refusal if the wrapped
/// executor's backend cannot prepare the test circuit.
#[derive(Clone, Debug)]
pub struct StringSampled {
    exec: ExactExecutor,
    rng: SmallRng,
}

impl StringSampled {
    /// Wraps `exec` with a deterministic shot stream.
    pub fn new(exec: ExactExecutor, seed: u64) -> Self {
        StringSampled { exec, rng: SmallRng::seed_from_u64(seed) }
    }

    /// Wraps `exec` with a stream derived from a master seed and trial
    /// index (same contract as [`ShotSampled::for_trial`]).
    pub fn for_trial(exec: ExactExecutor, master_seed: u64, trial: usize) -> Self {
        Self::new(exec, crate::par_trials::split_seed(master_seed, trial))
    }

    /// The wrapped executor.
    pub fn inner(&self) -> &ExactExecutor {
        &self.exec
    }
}

impl TestExecutor for StringSampled {
    fn n_qubits(&self) -> usize {
        self.exec.n_qubits()
    }

    fn run_test(&mut self, spec: &TestSpec, shots: usize) -> f64 {
        if shots == 0 {
            return self.exec.exact_score(spec);
        }
        let _span = itqc_obs::span::timed(RUN_TEST_SPAN);
        let prepared = self.exec.prepare(spec).unwrap_or_else(|e| {
            panic!("backend '{}' refused test '{}': {e}", self.exec.backend().choice(), spec.label)
        });
        // Blocked sampling: bit-identical to the per-shot path (the
        // equivalence suite pins it), but resolves each component's
        // draws in one pass over its flat cumulative table.
        let strings = prepared.sample(&mut self.rng, shots);
        match spec.score {
            ScoreMode::ExactTarget => {
                strings.iter().filter(|&&s| s == spec.target).count() as f64 / shots as f64
            }
            ScoreMode::WorstQubit => {
                worst_qubit_count(&strings, prepared.support(), spec.target) as f64 / shots as f64
            }
        }
    }

    fn note_adaptation(&mut self, couplings_compiled: usize) {
        self.exec.note_adaptation(couplings_compiled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_backend::BackendChoice;
    use itqc_circuit::Coupling;

    #[test]
    fn for_trial_is_deterministic_and_decorrelated() {
        let exact = ExactExecutor::new(4);
        let a = ShotSampled::for_trial(exact.clone(), 99, 0);
        let b = ShotSampled::for_trial(exact.clone(), 99, 0);
        let c = ShotSampled::for_trial(exact, 99, 1);
        assert_eq!(a.rng, b.rng, "same (seed, trial) must give the same stream");
        assert_ne!(a.rng, c.rng, "different trials must give different streams");
    }

    #[test]
    fn shot_noise_stays_near_truth() {
        let exact = ExactExecutor::new(4).with_fault(Coupling::new(0, 1), 0.22);
        let mut wrapped = ShotSampled::new(exact, 7);
        let spec = TestSpec::for_couplings("t", &[Coupling::new(0, 1)], 4);
        let truth = (std::f64::consts::PI * 0.22).cos().powi(2);
        for _ in 0..20 {
            let f = wrapped.run_test(&spec, 300);
            assert!((f - truth).abs() < 0.12, "{f} vs {truth}");
        }
    }

    #[test]
    fn string_sampling_converges_to_exact_scores() {
        let exec = ExactExecutor::new(6)
            .with_fault(Coupling::new(0, 1), 0.25)
            .with_fault(Coupling::new(2, 4), 0.10)
            .with_backend(BackendChoice::Analytic);
        let couplings = [Coupling::new(0, 1), Coupling::new(2, 4), Coupling::new(3, 5)];
        for score in [ScoreMode::ExactTarget, ScoreMode::WorstQubit] {
            let spec = TestSpec::for_couplings("t", &couplings, 4).with_score(score);
            let truth = exec.exact_score(&spec);
            let mut wrapped = StringSampled::new(exec.clone(), 11);
            let sampled = wrapped.run_test(&spec, 40_000);
            // The worst-qubit statistic is biased slightly *below* the
            // exact min marginal (min of noisy counts), so allow a loose
            // one-sided-ish band.
            assert!((sampled - truth).abs() < 0.02, "{score:?}: {sampled} vs {truth}");
            assert_eq!(wrapped.run_test(&spec, 0), truth, "0 shots must mean exact");
        }
    }

    #[test]
    fn string_sampling_is_deterministic_per_seed_and_backend_agnostic() {
        let build = |choice| {
            ExactExecutor::new(5).with_fault(Coupling::new(1, 3), 0.3).with_backend(choice)
        };
        let spec = TestSpec::for_couplings("t", &[Coupling::new(1, 3), Coupling::new(0, 4)], 2);
        let run = |choice| {
            let mut w = StringSampled::new(build(choice), 99);
            (0..5).map(|_| w.run_test(&spec, 300)).collect::<Vec<_>>()
        };
        assert_eq!(run(BackendChoice::Analytic), run(BackendChoice::Analytic));
        // Shared seed + canonical sampler: dense and analytic agree
        // bit-for-bit on the sampled scores.
        assert_eq!(run(BackendChoice::Analytic), run(BackendChoice::Dense));
    }
}
