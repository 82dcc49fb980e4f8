//! Duty-cycle economics: what log-many-test diagnosis buys a machine
//! operator.
//!
//! Simulates eight hours of a drifting 11-qubit trap under three
//! maintenance policies and compares the fraction of wall clock spent on
//! customer jobs (the paper's Fig. 2 pie / §IX uptime argument):
//!
//! * `periodic`  — recalibrate every coupling on a fixed cadence
//!   (contemporary practice: ~half the clock goes to maintenance);
//! * `diagnose`  — minute canary + Fig. 5 diagnosis, recalibrate only
//!   diagnosed couplings;
//! * `map-around` — same, but tolerate up to 3 known-faulty couplings by
//!   routing circuits around them (§VIII), recalibrating only when the
//!   budget is exceeded.
//!
//! Run with: `cargo run --release --example duty_cycle`

use itqc::core::cost::CostModel;
use itqc::core::multi_fault::diagnose_all_excluding;
use itqc::core::testplan::ScoreMode;
use itqc::prelude::*;
use itqc_faults::drift::{JumpDrift, OrnsteinUhlenbeckDrift};
use std::collections::BTreeSet;

const N: usize = 11;
const HOURS: f64 = 8.0;

fn drift() -> JumpDrift {
    JumpDrift {
        base: OrnsteinUhlenbeckDrift { tau_minutes: 240.0, sigma: 0.03 },
        jumps_per_minute: 0.001,
        jump_scale: 0.30,
    }
}

fn config() -> MultiFaultConfig {
    MultiFaultConfig {
        reps_ladder: vec![2, 4],
        threshold: 0.5,
        canary_threshold: 0.4,
        shots: 300,
        canary_shots: 30,
        max_faults: 6,
        decoder: itqc::core::decoder::DecoderPolicy::SetCoverFallback,
        ranked_sigma: itqc::core::threshold::observation_sigma(300, 0.0, 4),
        score: ScoreMode::ExactTarget,
        canary_score: ScoreMode::ExactTarget,
        max_threshold_retunes: 4,
        fusion_rounds: 0,
        canary_rotations: 0,
        canary_seed: 0,
    }
}

fn periodic(seed: u64) -> VirtualTrap {
    let mut trap = VirtualTrap::new(TrapConfig::ideal(N, seed));
    let model = CostModel::paper_defaults();
    let d = drift();
    let mut minutes = 0.0;
    while minutes < HOURS * 60.0 {
        for _ in 0..10 {
            trap.bill_job_time(30.0);
            trap.apply_drift(0.5, &d);
            minutes += 0.5;
        }
        trap.bill_test_time(model.point_check_time(N));
        for c in trap.couplings() {
            trap.recalibrate(c);
        }
        minutes += model.point_check_time(N) / 60.0;
    }
    trap
}

fn diagnose_policy(seed: u64, tolerate: usize) -> (VirtualTrap, usize) {
    let mut trap = VirtualTrap::new(TrapConfig::ideal(N, seed));
    let d = drift();
    let cfg = config();
    let mut known_faulty: BTreeSet<Coupling> = BTreeSet::new();
    let mut recals = 0usize;
    let mut minutes = 0.0;
    while minutes < HOURS * 60.0 {
        trap.bill_job_time(60.0);
        trap.apply_drift(1.0, &d);
        minutes += 1.0;
        // Quarantined couplings are excluded from the canary and all
        // tests (Corollary V.12) — they are known-bad and mapped around.
        let report = diagnose_all_excluding(&mut trap, N, &cfg, &known_faulty);
        for df in &report.diagnosed {
            known_faulty.insert(df.coupling);
        }
        // Map-around budget: only recalibrate once too many couplings are
        // out of action for circuits to route around (§VIII / Fig. 11:
        // typical workloads use ~1/3 of couplings, leaving slack).
        if known_faulty.len() > tolerate {
            for c in std::mem::take(&mut known_faulty) {
                trap.recalibrate(c);
                recals += 1;
            }
        }
    }
    // Settle the books at shift end.
    for c in std::mem::take(&mut known_faulty) {
        trap.recalibrate(c);
        recals += 1;
    }
    (trap, recals)
}

fn main() {
    println!("8-hour shift on a drifting {N}-qubit trap\n");
    let p = periodic(11);
    let (d0, r0) = diagnose_policy(12, 0);
    let (d3, r3) = diagnose_policy(13, 3);

    println!("{:<34}{:>10}{:>14}{:>10}", "policy", "jobs", "maintenance", "recals");
    println!("{}", "-".repeat(68));
    for (name, trap, recals) in [
        ("periodic full recalibration", &p, p.couplings().len() * 16),
        ("canary + diagnosis", &d0, r0),
        ("canary + diagnosis + map-around", &d3, r3),
    ] {
        let jobs = trap.duty().uptime_fraction();
        let maint = trap.duty().overhead_fraction();
        println!("{name:<34}{:>9.1}%{:>13.1}%{recals:>10}", 100.0 * jobs, 100.0 * maint);
    }

    println!(
        "\ntakeaway: selective, test-driven recalibration converts most maintenance\n\
         time back into job time; tolerating a few mapped-around faults postpones\n\
         recalibration further (the paper's §VIII discussion)."
    );
}
