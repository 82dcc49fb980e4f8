//! The single-fault diagnosis protocol (§V-B, Theorem V.10).
//!
//! Round 1 runs the `2n` subcube-class tests non-adaptively and reads off
//! the syndrome. One adaptation later, round 2 runs the `n − L − 1`
//! equal-bits tests over the syndrome's free positions and decodes the
//! unique faulty coupling. A final verification test on the accused
//! coupling rules out the zero-fault case (paper footnote 9).

use crate::classes::{decode_pair, first_round_classes, second_round_classes, LabelSpace};
use crate::executor::TestExecutor;
use crate::syndrome::Syndrome;
use crate::testplan::{ScoreMode, TestSpec, PLAN_SPAN};
use itqc_circuit::Coupling;
use std::collections::BTreeSet;

/// What a diagnosis run concluded.
#[derive(Clone, Debug, PartialEq)]
pub enum Diagnosis {
    /// Every test passed (and verification of the decoded complementary
    /// candidate, if any, passed too).
    NoFault,
    /// Exactly this coupling is faulty (verified).
    Fault(Coupling),
    /// Conflicting first-round results — both `(i,0)` and `(i,1)` failed
    /// for some `i`: more than one fault is present at this magnitude.
    MultipleFaultsSuspected,
    /// Results were internally inconsistent (decode hit a padding label,
    /// or verification contradicted the syndrome): noise or an out-of-
    /// model fault.
    Inconclusive,
}

/// One executed test, for reporting.
#[derive(Clone, Debug, PartialEq)]
pub struct TestRecord {
    /// The spec label.
    pub label: String,
    /// Observed target-state fidelity.
    pub fidelity: f64,
    /// Whether the test failed (fidelity below threshold).
    pub failed: bool,
}

/// Full record of a single-fault diagnosis run.
#[derive(Clone, Debug)]
pub struct DiagnosisReport {
    /// The conclusion.
    pub diagnosis: Diagnosis,
    /// The observed first-round syndrome.
    pub syndrome: Syndrome,
    /// Every test executed, in order.
    pub tests: Vec<TestRecord>,
    /// Number of adaptive rounds used (0, 1, or 2 incl. verification).
    pub adaptations: usize,
    /// The coupling the syndrome decoded to, even when its verification
    /// did not confirm a fault (callers with their own verification
    /// criterion — e.g. the Fig. 5 magnitude check — can re-examine it).
    pub candidate: Option<Coupling>,
}

impl DiagnosisReport {
    /// Number of tests executed.
    pub fn tests_run(&self) -> usize {
        self.tests.len()
    }
}

/// The protocol configuration.
#[derive(Clone, Debug)]
pub struct SingleFaultProtocol {
    space: LabelSpace,
    reps: usize,
    threshold: f64,
    shots: usize,
    score: ScoreMode,
    excluded: BTreeSet<Coupling>,
    verify_contrast: bool,
}

impl SingleFaultProtocol {
    /// Creates a protocol instance for an `n_qubits` machine testing with
    /// `reps` MS gates per coupling, failing tests below `threshold`, and
    /// `shots` shots per test circuit.
    ///
    /// # Panics
    ///
    /// Panics if `reps` is odd or zero, `threshold` is outside `(0, 1]`,
    /// or `shots` is zero.
    pub fn new(n_qubits: usize, reps: usize, threshold: f64, shots: usize) -> Self {
        assert!(reps >= 2 && reps.is_multiple_of(2), "repetitions must be even");
        assert!(threshold > 0.0 && threshold <= 1.0, "threshold must be in (0,1]");
        assert!(shots > 0, "need at least one shot");
        SingleFaultProtocol {
            space: LabelSpace::new(n_qubits),
            reps,
            threshold,
            shots,
            score: ScoreMode::ExactTarget,
            excluded: BTreeSet::new(),
            verify_contrast: false,
        }
    }

    /// Sets the pass/fail statistic for every test the protocol runs
    /// (builder style). Scaling studies use [`ScoreMode::WorstQubit`].
    pub fn with_score(mut self, score: ScoreMode) -> Self {
        self.score = score;
        self
    }

    /// Excludes couplings from all tests (already-diagnosed or unused
    /// couplings — Corollary V.12).
    pub fn exclude<I: IntoIterator<Item = Coupling>>(mut self, couplings: I) -> Self {
        self.excluded.extend(couplings);
        self
    }

    /// Recalibrates the final verification test's pass/fail cut to the
    /// fault-vs-healthy contrast midpoint (builder style).
    ///
    /// The class tests share one calibrated threshold, but the
    /// verification is a *point* test: near the detection knee the
    /// fault's point score sits only ~1–2σ below a threshold calibrated
    /// for class-sized circuits, so verification sometimes clears a
    /// correctly decoded fault — the effect that left the 32-qubit
    /// Fig. 8 knees one 5%-grid step high. With contrast verification
    /// the magnitude û is inverted from the deepest failing score seen
    /// so far and the cut moves to
    /// [`crate::threshold::contrast_threshold`]`(û, reps)`, clamped to
    /// never fall below the shared threshold (so it can only get
    /// stricter about *passing*, never laxer about failing a healthy
    /// coupling).
    pub fn with_contrast_verification(mut self) -> Self {
        self.verify_contrast = true;
        self
    }

    /// The label space in use.
    pub fn space(&self) -> &LabelSpace {
        &self.space
    }

    /// The repetition count per coupling.
    pub fn reps(&self) -> usize {
        self.reps
    }

    fn run_spec<E: TestExecutor>(
        &self,
        exec: &mut E,
        spec: &TestSpec,
        tests: &mut Vec<TestRecord>,
    ) -> bool {
        self.run_spec_at(exec, spec, self.threshold, tests)
    }

    fn run_spec_at<E: TestExecutor>(
        &self,
        exec: &mut E,
        spec: &TestSpec,
        threshold: f64,
        tests: &mut Vec<TestRecord>,
    ) -> bool {
        if spec.couplings.is_empty() {
            // Nothing to run: trivially passing.
            tests.push(TestRecord { label: spec.label.clone(), fidelity: 1.0, failed: false });
            return false;
        }
        let fidelity = exec.run_test(spec, self.shots);
        let failed = fidelity < threshold;
        tests.push(TestRecord { label: spec.label.clone(), fidelity, failed });
        failed
    }

    /// The verification cut under [`Self::with_contrast_verification`]:
    /// invert the magnitude û from the deepest failing score of the run
    /// so far (a point or class score at `reps` repetitions deviates by
    /// `cos(reps·û·π/2)` for the dominant fault) and place the cut at
    /// the fault-vs-healthy midpoint for a point test of that magnitude.
    /// With no failing score to fit (the complementary-pair decode path
    /// can reach verification all-passed), the shared threshold stands.
    fn contrast_verify_threshold(&self, tests: &[TestRecord]) -> f64 {
        let s_min =
            tests.iter().filter(|t| t.failed).map(|t| t.fidelity).fold(f64::INFINITY, f64::min);
        if !s_min.is_finite() {
            return self.threshold;
        }
        let dev = (2.0 * s_min.clamp(0.0, 1.0) - 1.0).clamp(-1.0, 1.0).acos();
        let u_hat = dev / (self.reps as f64 * std::f64::consts::FRAC_PI_2);
        crate::threshold::contrast_threshold(u_hat, self.reps).max(self.threshold)
    }

    /// Runs only the non-adaptive first round and returns the syndrome,
    /// or `None` on conflicting results (multi-fault signature).
    pub fn first_round<E: TestExecutor>(
        &self,
        exec: &mut E,
        tests: &mut Vec<TestRecord>,
    ) -> Option<Syndrome> {
        let mut syndrome = Syndrome::empty();
        let mut conflict = false;
        for class in first_round_classes(&self.space) {
            let spec = {
                let _plan = itqc_obs::span::timed(PLAN_SPAN);
                let couplings = class.couplings(&self.space, &self.excluded);
                TestSpec::for_couplings(
                    format!("round1 {class} x{}MS", self.reps),
                    &couplings,
                    self.reps,
                )
                .with_score(self.score)
            };
            let failed = self.run_spec(exec, &spec, tests);
            if failed && !syndrome.insert(class.bit, class.value) {
                conflict = true;
            }
        }
        if conflict {
            None
        } else {
            Some(syndrome)
        }
    }

    /// Runs the full protocol against an executor.
    pub fn diagnose<E: TestExecutor>(&self, exec: &mut E) -> DiagnosisReport {
        assert_eq!(
            exec.n_qubits(),
            self.space.n_qubits(),
            "executor register does not match protocol"
        );
        let mut tests = Vec::new();
        let mut adaptations = 0usize;

        // Round 1: 2n non-adaptive tests.
        let Some(syndrome) = self.first_round(exec, &mut tests) else {
            return DiagnosisReport {
                diagnosis: Diagnosis::MultipleFaultsSuspected,
                syndrome: Syndrome::empty(),
                tests,
                adaptations,
                candidate: None,
            };
        };

        // Round 2 (one adaptation): the n−L−1 equal-bits tests.
        let second = second_round_classes(&syndrome, &self.space);
        let mut equal_flags = Vec::with_capacity(second.len());
        if !second.is_empty() {
            adaptations += 1;
            let compiled: usize = {
                let _plan = itqc_obs::span::timed(PLAN_SPAN);
                second.iter().map(|c| c.couplings(&self.space, &self.excluded).len()).sum()
            };
            exec.note_adaptation(compiled);
            for class in &second {
                let spec = {
                    let _plan = itqc_obs::span::timed(PLAN_SPAN);
                    let couplings = class.couplings(&self.space, &self.excluded);
                    TestSpec::for_couplings(
                        format!("round2 {class} x{}MS", self.reps),
                        &couplings,
                        self.reps,
                    )
                    .with_score(self.score)
                };
                let failed = self.run_spec(exec, &spec, &mut tests);
                // A failing [j,=] test means the pair's bits there are equal.
                equal_flags.push(failed);
            }
        }

        // Decode and verify.
        let decoded = decode_pair(&syndrome, &equal_flags, &self.space);
        match decoded {
            Some(coupling) if !self.excluded.contains(&coupling) => {
                adaptations += 1;
                exec.note_adaptation(1);
                let spec = {
                    let _plan = itqc_obs::span::timed(PLAN_SPAN);
                    TestSpec::for_couplings(
                        format!("verify {coupling} x{}MS", self.reps),
                        &[coupling],
                        self.reps,
                    )
                    .with_score(self.score)
                };
                let verify_cut = if self.verify_contrast {
                    self.contrast_verify_threshold(&tests)
                } else {
                    self.threshold
                };
                let failed = self.run_spec_at(exec, &spec, verify_cut, &mut tests);
                let diagnosis = if failed {
                    Diagnosis::Fault(coupling)
                } else if syndrome.is_empty() && equal_flags.iter().all(|f| !f) {
                    // Nothing ever failed: clean machine.
                    Diagnosis::NoFault
                } else if syndrome.is_empty() {
                    // Second round fingered a complementary pair but the
                    // verification cleared it: zero-fault case of
                    // footnote 9 (the all-pass signature aliases to one
                    // specific complementary pair).
                    Diagnosis::NoFault
                } else {
                    Diagnosis::Inconclusive
                };
                DiagnosisReport {
                    diagnosis,
                    syndrome,
                    tests,
                    adaptations,
                    candidate: Some(coupling),
                }
            }
            Some(_excluded) => {
                // Decoded onto an already-excluded coupling: not
                // re-accusable (Corollary V.12 removed it from play).
                let all_passed = tests.iter().all(|t| !t.failed);
                let diagnosis =
                    if all_passed { Diagnosis::NoFault } else { Diagnosis::Inconclusive };
                DiagnosisReport { diagnosis, syndrome, tests, adaptations, candidate: None }
            }
            None => {
                let all_passed = tests.iter().all(|t| !t.failed);
                let diagnosis =
                    if all_passed { Diagnosis::NoFault } else { Diagnosis::Inconclusive };
                DiagnosisReport { diagnosis, syndrome, tests, adaptations, candidate: None }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExactExecutor;

    fn protocol(n: usize, reps: usize) -> SingleFaultProtocol {
        SingleFaultProtocol::new(n, reps, 0.5, 1)
    }

    #[test]
    fn theorem_v10_identifies_every_coupling_at_8_qubits() {
        // Round-trip every possible fault location on a clean machine.
        let n = 8;
        for a in 0..n {
            for b in (a + 1)..n {
                let truth = Coupling::new(a, b);
                let mut exec = ExactExecutor::new(n).with_fault(truth, 0.40);
                let report = protocol(n, 4).diagnose(&mut exec);
                assert_eq!(
                    report.diagnosis,
                    Diagnosis::Fault(truth),
                    "failed to identify {truth}: syndrome {}",
                    report.syndrome
                );
                // Theorem V.10 test budget: 3n−1 plus one verification.
                let n_bits = 3;
                assert!(report.tests_run() <= 3 * n_bits, "{truth}: {} tests", report.tests_run());
                assert!(report.adaptations <= 2);
            }
        }
    }

    #[test]
    fn identifies_faults_on_padded_register() {
        // 11 qubits on 4 bits (padding labels 11..16) — Corollary V.12's
        // setting combined with the paper's actual machine size.
        let n = 11;
        for a in 0..n {
            for b in (a + 1)..n {
                let truth = Coupling::new(a, b);
                let mut exec = ExactExecutor::new(n).with_fault(truth, 0.40);
                let report = protocol(n, 4).diagnose(&mut exec);
                assert_eq!(report.diagnosis, Diagnosis::Fault(truth), "failed on {truth}");
            }
        }
    }

    #[test]
    fn clean_machine_reports_no_fault() {
        let mut exec = ExactExecutor::new(8);
        let report = protocol(8, 4).diagnose(&mut exec);
        assert_eq!(report.diagnosis, Diagnosis::NoFault);
        assert!(report.syndrome.is_empty());
    }

    #[test]
    fn paper_footnote9_case_3_4() {
        // The complementary pair {3,4} on 8 qubits: empty first-round
        // syndrome, second round plus verification find it.
        let truth = Coupling::new(3, 4);
        let mut exec = ExactExecutor::new(8).with_fault(truth, 0.30);
        let report = protocol(8, 4).diagnose(&mut exec);
        assert_eq!(report.diagnosis, Diagnosis::Fault(truth));
        assert!(report.syndrome.is_empty(), "first round must see nothing");
    }

    #[test]
    fn two_conflicting_faults_are_flagged() {
        // Faults on {0,2} and {1,3}: classes (0,0) and (0,1) both fail.
        let mut exec = ExactExecutor::new(8)
            .with_fault(Coupling::new(0, 2), 0.4)
            .with_fault(Coupling::new(1, 3), 0.4);
        let report = protocol(8, 4).diagnose(&mut exec);
        assert_eq!(report.diagnosis, Diagnosis::MultipleFaultsSuspected);
    }

    #[test]
    fn corollary_v12_excluded_couplings() {
        // Exclude a batch of couplings; faults on the rest are still found.
        let excluded = vec![Coupling::new(0, 1), Coupling::new(2, 3), Coupling::new(4, 6)];
        let truth = Coupling::new(2, 6);
        let mut exec = ExactExecutor::new(8).with_fault(truth, 0.40);
        let report = protocol(8, 4).exclude(excluded).diagnose(&mut exec);
        assert_eq!(report.diagnosis, Diagnosis::Fault(truth));
    }

    #[test]
    fn small_fault_below_amplification_is_missed_at_low_reps() {
        // A 4% fault under 2-MS tests stays above threshold 0.5 — the
        // protocol correctly reports a clean machine at this gain.
        let mut exec = ExactExecutor::new(8).with_fault(Coupling::new(1, 5), 0.04);
        let report = protocol(8, 2).diagnose(&mut exec);
        assert_eq!(report.diagnosis, Diagnosis::NoFault);
    }

    #[test]
    fn test_budget_matches_syndrome_length() {
        // L = 2 at n = 3 bits → no second round needed beyond 2n tests
        // plus verification.
        let truth = Coupling::new(2, 6); // shares bits 0 and 1 → L = 2
        let mut exec = ExactExecutor::new(8).with_fault(truth, 0.4);
        let report = protocol(8, 4).diagnose(&mut exec);
        assert_eq!(report.diagnosis, Diagnosis::Fault(truth));
        assert_eq!(report.syndrome.len(), 2);
        // 2n = 6 round-1 tests, no round 2 (L = n−1), one verification.
        assert_eq!(report.tests_run(), 7);
    }

    #[test]
    fn contrast_verification_cut_tracks_the_fitted_magnitude() {
        let p = protocol(8, 2).with_contrast_verification();
        // No failing record to fit: the shared threshold stands.
        let clean = vec![TestRecord { label: "t".into(), fidelity: 0.9, failed: false }];
        assert_eq!(p.contrast_verify_threshold(&clean), 0.5);
        // A failing score s inverts to û and the cut moves to the point
        // fault-vs-healthy midpoint (1 + s)/2 — above the shared cut, so
        // near-knee verification keeps noise headroom on the fail side.
        let s = 0.727;
        let failing = vec![TestRecord { label: "t".into(), fidelity: s, failed: true }];
        let cut = p.contrast_verify_threshold(&failing);
        assert!((cut - (1.0 + s) / 2.0).abs() < 1e-9, "cut {cut}");
        assert!(cut > 0.5);
    }

    #[test]
    fn contrast_verification_is_inert_on_the_oracle_path() {
        // On an exact executor a point test reproduces the class score
        // exactly, so the recalibrated cut changes no diagnosis — the
        // fix only buys noise margin. Spot-check fault, clean, and the
        // complementary-pair decode.
        for fault in [None, Some((Coupling::new(2, 6), 0.40)), Some((Coupling::new(3, 4), 0.30))] {
            let build = || match fault {
                Some((c, u)) => ExactExecutor::new(8).with_fault(c, u),
                None => ExactExecutor::new(8),
            };
            let plain = protocol(8, 4).diagnose(&mut build());
            let contrast = protocol(8, 4).with_contrast_verification().diagnose(&mut build());
            assert_eq!(plain.diagnosis, contrast.diagnosis, "fault {fault:?}");
        }
    }

    #[test]
    fn sixteen_and_thirtytwo_qubit_round_trips() {
        for n in [16usize, 32] {
            // Spot-check a spread of fault locations.
            let picks = [(0usize, n - 1), (1, 2), (n / 2, n / 2 + 1), (3, n - 2)];
            for &(a, b) in &picks {
                let truth = Coupling::new(a, b);
                let mut exec = ExactExecutor::new(n).with_fault(truth, 0.40);
                let report = protocol(n, 4).diagnose(&mut exec);
                assert_eq!(report.diagnosis, Diagnosis::Fault(truth), "n={n} {truth}");
            }
        }
    }
}
