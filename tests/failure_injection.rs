//! Failure-injection tests: conditions under which the protocols are
//! *expected* to struggle, asserting graceful degradation (no panics, no
//! false certainty) rather than success.

use itqc::core::testplan::ScoreMode;
use itqc::prelude::*;
use std::collections::BTreeSet;

/// A trap with every coupling far out of calibration (35% under-rotation).
fn catastrophic_trap(seed: u64) -> VirtualTrap {
    let mut trap = VirtualTrap::new(TrapConfig::ideal(8, seed));
    for c in trap.couplings() {
        trap.inject_fault(c, 0.35);
    }
    trap
}

/// The greedy pipeline with a 50-shot `WorstQubit` canary at 0.5, run
/// on [`catastrophic_trap`].
fn catastrophic_config() -> MultiFaultConfig {
    MultiFaultConfig {
        reps_ladder: vec![2, 4],
        threshold: 0.5,
        canary_threshold: 0.5,
        shots: 100,
        canary_shots: 50,
        max_faults: 5,
        decoder: DecoderPolicy::Greedy,
        ranked_sigma: itqc::core::threshold::observation_sigma(100, 0.0, 4),
        score: ScoreMode::ExactTarget,
        canary_score: ScoreMode::WorstQubit,
        max_threshold_retunes: 2,
        fusion_rounds: 0,
        canary_rotations: 0,
        canary_seed: 0,
    }
}

#[test]
fn catastrophic_drift_fails_gracefully() {
    // Every coupling far out of calibration ("catastrophic effects with
    // numerous faults" — §V-C says test-driven calibration makes little
    // sense here). The pipeline must terminate without panicking and
    // without converging to a clean verdict.
    let mut trap = catastrophic_trap(1);
    let config = catastrophic_config();
    let report = diagnose_all(&mut trap, 8, &config);
    assert!(!report.converged, "a machine this broken cannot be certified clean");
    // Anything it did accuse must actually be faulty (all are).
    assert!(report.diagnosed.len() <= config.max_faults + 1);
}

#[test]
fn catastrophic_drift_false_clean_rate_is_bounded() {
    // The seed-1 test above asserts one draw. Over trap seeds 0–399 the
    // 50-shot string canary certifies the broken machine clean on 64 of
    // 400 (p = 0.16). The bound adds a one-sided 99% binomial margin,
    // ⌊2.326·√(400·0.16·0.84)⌋ = 17, so a protocol change that raises
    // the rate fails here.
    let config = catastrophic_config();
    let clean = (0..400u64)
        .filter(|&seed| diagnose_all(&mut catastrophic_trap(seed), 8, &config).converged)
        .count();
    assert!(clean <= 64 + 17, "{clean} of 400 broken machines certified clean");
}

#[test]
fn starved_shot_budget_never_accuses_healthy_couplings() {
    // With 10 shots per test the scores are extremely coarse; the
    // verification round must still protect healthy couplings.
    for seed in 0..5u64 {
        let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 100 + seed));
        let protocol = SingleFaultProtocol::new(8, 4, 0.5, 10);
        if let Diagnosis::Fault(c) = protocol.diagnose(&mut trap).diagnosis {
            panic!("accused healthy {c} at 10 shots")
        }
    }
}

#[test]
fn heavy_spam_degrades_but_does_not_misaccuse() {
    // 10% readout flips are far beyond the paper's sub-1% regime: exact-
    // string fidelities collapse, so the protocol may report anything
    // except a *wrong* coupling.
    let mut cfg = TrapConfig::ideal(8, 9);
    cfg.spam = SpamModel::new(0.10, 0.10);
    let mut trap = VirtualTrap::new(cfg);
    let truth = Coupling::new(1, 4);
    trap.inject_fault(truth, 0.40);
    let protocol = SingleFaultProtocol::new(8, 4, 0.35, 300);
    // Failing to conclude is acceptable at this noise level; a wrong
    // accusation is not.
    if let Diagnosis::Fault(c) = protocol.diagnose(&mut trap).diagnosis {
        assert_eq!(c, truth, "wrong accusation under heavy SPAM");
    }
}

#[test]
fn out_of_model_phase_fault_is_caught_by_the_cancellation_breaker() {
    // A π beam-phase fault is invisible to repetition tests (footnote 8);
    // the swap-insertion circuit exposes it on the dense path.
    use itqc::circuit::Gate;
    use itqc::core::testplan::cancellation_breaker;
    let faulty = Coupling::new(2, 6);
    let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 77));
    // Build the breaker circuit with the fault injected manually (the
    // trap's calibration map models amplitude errors; a phase fault is an
    // out-of-model unitary error, applied here at the circuit level).
    let (breaker, target) = cancellation_breaker(8, faulty, 5);
    let mut noisy = Circuit::new(8);
    for op in breaker.ops() {
        match (op.gate, op.coupling()) {
            (Gate::Xx(t), Some(c)) if c == faulty => {
                noisy.push(Op::two(
                    Gate::Ms { theta: t, phi1: std::f64::consts::PI, phi2: 0.0 },
                    op.qubits()[0],
                    op.qubits()[1],
                ));
            }
            _ => {
                noisy.push(*op);
            }
        }
    }
    let counts = trap.run_circuit(&noisy, 300, Activity::Testing);
    let hits = *counts.get(&(target as usize)).unwrap_or(&0);
    assert!((hits as f64 / 300.0) < 0.1, "breaker must expose the phase fault, got {hits}/300");
}

#[test]
fn excluding_every_coupling_is_a_clean_no_op() {
    let mut trap = VirtualTrap::new(TrapConfig::ideal(4, 3));
    trap.inject_fault(Coupling::new(0, 1), 0.4);
    let all: BTreeSet<Coupling> = trap.couplings().into_iter().collect();
    let config = MultiFaultConfig {
        reps_ladder: vec![2, 4],
        threshold: 0.5,
        canary_threshold: 0.5,
        shots: 50,
        canary_shots: 50,
        max_faults: 3,
        decoder: DecoderPolicy::Greedy,
        ranked_sigma: itqc::core::threshold::observation_sigma(100, 0.0, 4),
        score: ScoreMode::ExactTarget,
        canary_score: ScoreMode::ExactTarget,
        max_threshold_retunes: 0,
        fusion_rounds: 0,
        canary_rotations: 0,
        canary_seed: 0,
    };
    let report = itqc::core::multi_fault::diagnose_all_excluding(&mut trap, 4, &config, &all);
    assert!(report.converged, "nothing left to test");
    assert!(report.diagnosed.is_empty());
    assert_eq!(report.tests_run, 0);
}

#[test]
fn over_rotations_are_detected_like_under_rotations() {
    // The fault model is signed; the protocol must catch u < 0 too.
    let truth = Coupling::new(3, 5);
    let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 13));
    trap.inject_fault(truth, -0.40);
    let protocol = SingleFaultProtocol::new(8, 4, 0.5, 300);
    assert_eq!(protocol.diagnose(&mut trap).diagnosis, Diagnosis::Fault(truth));
}

#[test]
fn half_turn_alias_is_invisible_at_matching_reps() {
    // Footnote 8's aliasing, quantified: u = 0.5 at 8 repetitions walks a
    // full 2π of missing angle — the point test passes despite the huge
    // fault — while 2 repetitions see it at full contrast.
    use itqc::core::executor::point_test_fidelity;
    assert!((point_test_fidelity(0.5, 8) - 1.0).abs() < 1e-12);
    assert!(point_test_fidelity(0.5, 2) < 0.51);
}
