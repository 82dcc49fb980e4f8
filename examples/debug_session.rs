//! A §VI-style debugging session: artificial faults, single-output tests,
//! thresholds, sequential diagnosis.
//!
//! Recreates the paper's hardware validation narrative end to end:
//! 1. inject the Fig. 6 artificial errors (47% on {0,4}, 22% on {0,7});
//! 2. run the 2-MS and 4-MS first-round batteries and read them against
//!    the paper's 0.45 / 0.25 thresholds;
//! 3. walk the full Fig. 5 multi-fault pipeline, which first isolates the
//!    {0,4} fault from its syndrome and then catches the bit-complementary
//!    {0,7} — invisible to round 1 — through the adaptive round
//!    (footnote 9's case);
//! 4. verify the machine is clean after recalibration.
//!
//! Run with: `cargo run --release --example debug_session`

use itqc::core::first_round_classes;
use itqc::core::testplan::ScoreMode;
use itqc::prelude::*;
use std::collections::BTreeSet;

fn main() {
    let n = 8;
    let mut trap = VirtualTrap::new(TrapConfig::ideal(n, 2022));
    trap.inject_fault(Coupling::new(0, 4), 0.47);
    trap.inject_fault(Coupling::new(0, 7), 0.22);
    println!("injected: {{0,4}} at 47%, {{0,7}} at 22% (the paper's Fig. 6 setup)\n");

    // --- step 1: the test battery ---------------------------------------
    let space = LabelSpace::new(n);
    let none = BTreeSet::new();
    println!("first-round battery (300 shots per test):");
    println!("{:<8} {:>10} {:>8} {:>10} {:>8}", "test", "2MS fid", "0.45?", "4MS fid", "0.25?");
    for class in first_round_classes(&space) {
        let couplings = class.couplings(&space, &none);
        let mut row = format!("{class:<8}");
        for (reps, thr) in [(2usize, 0.45), (4usize, 0.25)] {
            let spec = TestSpec::for_couplings(format!("{class}"), &couplings, reps);
            let f = trap.run_test(&spec, 300);
            row.push_str(&format!(" {f:>10.3} {:>8}", if f < thr { "FAIL" } else { "pass" }));
        }
        println!("{row}");
    }
    println!(
        "\nreading: {{0,4}} shares bits 0,1 -> (0,0) and (1,0) fail; {{0,7}} is\n\
         bit-complementary and trips nothing in round 1.\n"
    );

    // --- step 2: full sequential diagnosis ------------------------------
    // The 47% fault is caught at 4MS (it nearly cancels at 8MS — the
    // footnote-8 aliasing); the 22% fault needs 8MS amplification to fall
    // below the 0.5 threshold. The ladder covers both.
    let config = MultiFaultConfig {
        reps_ladder: vec![2, 4, 8],
        threshold: 0.5,
        canary_threshold: 0.5,
        shots: 300,
        canary_shots: 100,
        max_faults: 4,
        decoder: itqc::core::decoder::DecoderPolicy::Ranked,
        ranked_sigma: itqc::core::threshold::observation_sigma(300, 0.0, 4),
        score: ScoreMode::ExactTarget,
        canary_score: ScoreMode::ExactTarget,
        max_threshold_retunes: 4,
        fusion_rounds: 2,
        canary_rotations: 0,
        canary_seed: 0,
    };
    let report = diagnose_all(&mut trap, n, &config);
    println!("sequential diagnosis (Fig. 5 pipeline):");
    for (k, d) in report.diagnosed.iter().enumerate() {
        println!(
            "  {}. {} isolated at {}MS amplification (true error {:+.0}%)",
            k + 1,
            d.coupling,
            d.reps,
            100.0 * trap.true_under_rotation(d.coupling)
        );
    }
    println!(
        "  converged: {} | {} tests | {} adaptive rounds (paper budget 4k+1 = {})",
        report.converged,
        report.tests_run,
        report.adaptations,
        4 * report.diagnosed.len() + 1
    );
    let found: BTreeSet<Coupling> = report.couplings().into_iter().collect();
    let expect: BTreeSet<Coupling> = [Coupling::new(0, 4), Coupling::new(0, 7)].into();
    assert_eq!(found, expect, "both injected faults must be diagnosed");

    // --- step 3: fix and confirm -----------------------------------------
    for c in report.couplings() {
        trap.recalibrate(c);
    }
    let all = trap.couplings();
    let spec = TestSpec::for_couplings("post-recal canary", &all, 4);
    let f = trap.run_test(&spec, 300);
    println!("\npost-recalibration canary fidelity: {f:.3} (machine is clean)");
    println!("\nduty ledger:\n{}", trap.duty());
}
