//! The Fig. 2 machine-day scheduling model: 24 hours of an 11-qubit
//! machine under two maintenance policies.
//!
//! This is the single source of truth for the simulated machine-day —
//! the `fig2` binary, the tier-2 statistical regression suite, *and*
//! the fleet scheduler all render through it.

use itqc_core::cost::CostModel;
use itqc_core::{diagnose_all, DecoderPolicy, MultiFaultConfig};
use itqc_faults::drift::{JumpDrift, OrnsteinUhlenbeckDrift};
use itqc_trap::{Activity, TrapConfig, VirtualTrap};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The paper's machine size.
pub const FIG2_QUBITS: usize = 11;
/// Simulated wall-clock per trial (one machine-day).
pub const FIG2_HOURS: f64 = 24.0;
/// One customer batch between maintenance slots.
pub const FIG2_JOB_SECONDS: f64 = 30.0;

/// The calibration drift process of the simulated day: slow OU wander
/// plus ~2 large faults per machine-day across 55 couplings.
pub fn fig2_drift() -> JumpDrift {
    JumpDrift {
        base: OrnsteinUhlenbeckDrift { tau_minutes: 240.0, sigma: 0.03 },
        jumps_per_minute: 0.0006,
        jump_scale: 0.30,
    }
}

/// The Fig. 2 test-driven policy's diagnosis configuration: a 2-rung
/// ladder with a 30-shot canary tripwire and the set-cover decoder.
/// Shared by [`test_driven_policy`] and the fleet scheduler's per-trap
/// diagnostic cadence, so both react to a tripped canary with the same
/// protocol.
pub fn fig2_diagnosis_config() -> MultiFaultConfig {
    MultiFaultConfig {
        reps_ladder: vec![2, 4],
        threshold: 0.5,
        canary_threshold: 0.4,
        shots: 300,
        canary_shots: 30,
        max_faults: 6,
        decoder: DecoderPolicy::SetCoverFallback,
        ranked_sigma: itqc_core::threshold::observation_sigma(300, 0.0, 4),
        score: itqc_core::testplan::ScoreMode::ExactTarget,
        canary_score: itqc_core::testplan::ScoreMode::ExactTarget,
        max_threshold_retunes: 4,
        fusion_rounds: 0, // set-cover policy: the fused ranked path is not taken
        fault_magnitude: 0.10,
        canary_rotations: 0,
        canary_seed: 0,
    }
}

/// Policy A: full point-check characterisation + recalibration of every
/// coupling every `cadence_min` minutes.
pub fn periodic_policy(seed: u64, cadence_min: f64) -> VirtualTrap {
    let mut trap = VirtualTrap::new(TrapConfig::ideal(FIG2_QUBITS, seed));
    let model = CostModel::paper_defaults();
    let d = fig2_drift();
    let mut t = 0.0;
    while t < FIG2_HOURS * 60.0 {
        // Jobs until the next maintenance slot (drift accrues while the
        // machine works; the time is billed to jobs, not idle).
        let mut job_t = 0.0;
        while job_t < cadence_min {
            trap.bill_job_time(FIG2_JOB_SECONDS);
            trap.apply_drift(FIG2_JOB_SECONDS / 60.0, &d);
            job_t += FIG2_JOB_SECONDS / 60.0;
        }
        // Full characterisation of all couplings (billed as testing) plus
        // recalibration of each.
        let check = model.point_check_time(FIG2_QUBITS);
        trap.bill_test_time(check);
        for c in trap.couplings() {
            trap.recalibrate(c);
        }
        t += cadence_min + check / 60.0;
    }
    trap
}

/// Policy B: canary every minute; full diagnosis + targeted
/// recalibration when it trips.
pub fn test_driven_policy(seed: u64) -> VirtualTrap {
    let mut trap = VirtualTrap::new(TrapConfig::ideal(FIG2_QUBITS, seed));
    let d = fig2_drift();
    let mut rng = SmallRng::seed_from_u64(seed ^ 0xABCD);
    let config = fig2_diagnosis_config();
    let mut minutes = 0.0;
    while minutes < FIG2_HOURS * 60.0 {
        // One minute of jobs (drift accrues during them)…
        for _ in 0..2 {
            trap.bill_job_time(FIG2_JOB_SECONDS);
        }
        trap.apply_drift(1.0, &d);
        minutes += 1.0;
        // …then the canary (rolled into diagnose_all's first test).
        let report = diagnose_all(&mut trap, FIG2_QUBITS, &config);
        for dfault in &report.diagnosed {
            trap.recalibrate(dfault.coupling);
        }
        // Occasional deliberate spot audit keeps the comparison fair.
        if rng.gen::<f64>() < 0.001 {
            let _ = trap.snapshot_under_rotations(100);
        }
    }
    trap
}

/// The jobs share of the non-idle wall clock — the Fig. 2 headline
/// number (the paper measures ~53% jobs / ~47% maintenance for the
/// periodic policy).
pub fn jobs_share_excluding_idle(secs: &[f64; Activity::ALL.len()]) -> f64 {
    let pos = |a: Activity| Activity::ALL.iter().position(|&x| x == a).unwrap();
    let jobs = secs[pos(Activity::Jobs)];
    let nonidle: f64 = secs.iter().sum::<f64>() - secs[pos(Activity::Idle)];
    if nonidle > 0.0 {
        jobs / nonidle
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn policies_fill_the_day_and_stay_deterministic() {
        let a = periodic_policy(11, 120.0);
        assert!(a.clock_seconds() >= FIG2_HOURS * 3600.0);
        let b = periodic_policy(11, 120.0);
        assert_eq!(a.clock_seconds().to_bits(), b.clock_seconds().to_bits());
        for act in Activity::ALL {
            assert_eq!(a.duty().seconds(act).to_bits(), b.duty().seconds(act).to_bits());
        }
    }

    #[test]
    fn jobs_share_ignores_idle() {
        let mut secs = [0.0f64; Activity::ALL.len()];
        let pos = |a: Activity| Activity::ALL.iter().position(|&x| x == a).unwrap();
        secs[pos(Activity::Jobs)] = 60.0;
        secs[pos(Activity::Testing)] = 30.0;
        secs[pos(Activity::Calibration)] = 10.0;
        secs[pos(Activity::Idle)] = 1000.0;
        assert!((jobs_share_excluding_idle(&secs) - 0.6).abs() < 1e-12);
    }
}
