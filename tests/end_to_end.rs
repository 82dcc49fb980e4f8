//! Integration tests across the full stack: virtual machine → protocols →
//! recalibration → verification, under realistic noise.

use itqc::core::multi_fault::diagnose_all_excluding;
use itqc::core::testplan::ScoreMode;
use itqc::prelude::*;
use std::collections::BTreeSet;

fn multi_config(ladder: Vec<usize>, threshold: f64, canary_threshold: f64) -> MultiFaultConfig {
    MultiFaultConfig {
        reps_ladder: ladder,
        threshold,
        canary_threshold,
        shots: 300,
        canary_shots: 100,
        max_faults: 6,
        decoder: DecoderPolicy::Greedy,
        ranked_sigma: itqc::core::threshold::observation_sigma(300, 0.0, 4),
        score: ScoreMode::ExactTarget,
        canary_score: ScoreMode::ExactTarget,
        max_threshold_retunes: 4,
        fusion_rounds: 0,
        canary_rotations: 0,
        canary_seed: 0,
    }
}

#[test]
fn single_fault_on_noisy_machine_with_shots() {
    // SPAM + shot noise + small recalibration residuals: the protocol
    // still pins the planted fault.
    let mut cfg = TrapConfig::ideal(8, 31);
    cfg.spam = SpamModel::new(0.004, 0.006);
    let mut trap = VirtualTrap::new(cfg);
    let truth = Coupling::new(1, 6);
    trap.inject_fault(truth, 0.35);
    let protocol = SingleFaultProtocol::new(8, 4, 0.5, 300);
    let report = protocol.diagnose(&mut trap);
    assert_eq!(report.diagnosis, Diagnosis::Fault(truth));
}

#[test]
fn eleven_qubit_machine_paper_size() {
    // The paper's actual machine size (non-power-of-two → padding).
    let mut trap = VirtualTrap::new(TrapConfig::ideal(11, 5));
    let truth = Coupling::new(3, 10);
    trap.inject_fault(truth, 0.40);
    let protocol = SingleFaultProtocol::new(11, 4, 0.5, 300);
    let report = protocol.diagnose(&mut trap);
    assert_eq!(report.diagnosis, Diagnosis::Fault(truth));
    // n = ⌈log₂ 11⌉ = 4 → at most 12 tests + verification.
    assert!(report.tests_run() <= 13);
}

#[test]
fn multi_fault_pipeline_with_magnitude_spread() {
    let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 77));
    let faults = [(Coupling::new(0, 5), 0.45), (Coupling::new(3, 4), 0.18)];
    for (c, u) in faults {
        trap.inject_fault(c, u);
    }
    let report = diagnose_all(&mut trap, 8, &multi_config(vec![2, 4, 8], 0.5, 0.5));
    assert!(report.converged, "{report:?}");
    let found: BTreeSet<Coupling> = report.couplings().into_iter().collect();
    let expect: BTreeSet<Coupling> = faults.iter().map(|&(c, _)| c).collect();
    assert_eq!(found, expect);
    // Recalibrate and confirm a clean canary.
    for c in report.couplings() {
        trap.recalibrate(c);
    }
    let again = diagnose_all(&mut trap, 8, &multi_config(vec![2, 4, 8], 0.5, 0.5));
    assert!(again.converged);
    assert!(again.diagnosed.is_empty(), "machine should be clean: {again:?}");
}

#[test]
fn exclusion_quarantine_workflow() {
    // A known-faulty coupling is quarantined (mapped around); diagnosis of
    // a *new* fault proceeds with the quarantine in force.
    let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 13));
    let quarantined = Coupling::new(2, 7);
    let fresh = Coupling::new(0, 3);
    trap.inject_fault(quarantined, 0.5);
    trap.inject_fault(fresh, 0.35);
    let excl: BTreeSet<Coupling> = [quarantined].into();
    let report = diagnose_all_excluding(&mut trap, 8, &multi_config(vec![2, 4], 0.5, 0.5), &excl);
    assert!(report.converged);
    assert_eq!(report.couplings(), vec![fresh]);
}

#[test]
fn shot_noise_does_not_create_false_positives() {
    // A clean machine diagnosed repeatedly with finite shots must never
    // accuse a coupling (verification gates every accusation).
    let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 999));
    for _ in 0..5 {
        let protocol = SingleFaultProtocol::new(8, 4, 0.5, 100);
        let report = protocol.diagnose(&mut trap);
        assert_eq!(report.diagnosis, Diagnosis::NoFault);
    }
}

#[test]
fn ambient_jitter_degrades_gracefully() {
    // With heavy per-gate amplitude jitter the protocol may fail to
    // conclude, but it must not mis-accuse a healthy coupling when a
    // large fault is present.
    let mut cfg = TrapConfig::ideal(8, 55);
    cfg.amplitude_jitter_std = 0.125; // "10% average" per-gate jitter
    let mut trap = VirtualTrap::new(cfg);
    let truth = Coupling::new(2, 4);
    trap.inject_fault(truth, 0.45);
    let mut hits = 0;
    let mut false_accusations = 0;
    for _ in 0..10 {
        let protocol = SingleFaultProtocol::new(8, 4, 0.35, 300);
        match protocol.diagnose(&mut trap).diagnosis {
            Diagnosis::Fault(c) if c == truth => hits += 1,
            Diagnosis::Fault(_) => false_accusations += 1,
            _ => {}
        }
    }
    assert!(hits >= 5, "should usually identify the fault, got {hits}/10");
    assert_eq!(false_accusations, 0, "never accuse a healthy coupling");
}

#[test]
fn dense_noise_channels_run_through_trap_circuits() {
    // The dense path with sub-1% SPAM (the paper's §VI readout): a GHZ
    // circuit keeps a recognisable distribution, and readout flips
    // move some shots off its two ends.
    let mut cfg = TrapConfig::ideal(4, 17);
    cfg.spam = SpamModel::new(0.004, 0.006);
    let mut trap = VirtualTrap::new(cfg);
    let ghz = itqc::circuit::library::ghz(4);
    let native = itqc::circuit::transpile::to_native_optimized(&ghz);
    let counts = trap.run_circuit(&native, 600, Activity::Jobs);
    let p_ends = (counts.get(&0).copied().unwrap_or(0) + counts.get(&0b1111).copied().unwrap_or(0))
        as f64
        / 600.0;
    assert!(p_ends > 0.7, "GHZ structure should survive realistic noise, got {p_ends}");
    assert!(p_ends < 1.0, "SPAM must corrupt some readouts, got {p_ends}");
}

#[test]
fn duty_ledger_accounts_every_activity() {
    let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 21));
    trap.inject_fault(Coupling::new(0, 1), 0.4);
    trap.bill_job_time(10.0);
    let _ = diagnose_all(&mut trap, 8, &multi_config(vec![2, 4], 0.5, 0.5));
    trap.recalibrate(Coupling::new(0, 1));
    let d = trap.duty();
    assert!(d.seconds(Activity::Jobs) > 0.0);
    assert!(d.seconds(Activity::Testing) > 0.0);
    assert!(d.seconds(Activity::Calibration) > 0.0);
    assert!(d.seconds(Activity::Adaptation) > 0.0);
    let total: f64 = [
        Activity::Jobs,
        Activity::Testing,
        Activity::Calibration,
        Activity::Adaptation,
        Activity::Idle,
    ]
    .iter()
    .map(|&a| d.seconds(a))
    .sum();
    assert!((total - d.total()).abs() < 1e-9);
}
