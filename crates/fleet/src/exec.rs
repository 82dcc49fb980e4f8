//! The test executor for fleet traps.
//!
//! [`CachedTrapExecutor`] implements `itqc_core::TestExecutor` over a
//! [`VirtualTrap`]. It computes each test circuit's exact statistics on
//! the analytic engine's scalar path — an `ExactTarget` test through the
//! memoised [`XxAnalyticBackend::score`], whose per-thread memo turns a
//! quasi-static canary's repeats into hits, and a `WorstQubit` test from
//! the closed-form per-qubit agreements — exactly as `ExactExecutor`
//! scores its oracle queries.
//!
//! Shots are read out by the trap itself
//! ([`VirtualTrap::read_out_xx_test`], on the trap's own RNG) from the
//! same statistics `VirtualTrap::run_test` computes, so a machine
//! behaves bit-identically whichever of the two runs its tests, and
//! whichever shard thread's memo answered. This is the property that
//! makes the fleet summary independent of worker count.
//!
//! Requires a trap with zero amplitude jitter (the fleet runs the
//! quasi-static drift model, where noise moves only at drift epochs):
//! per-shot jitter draws on the trap's RNG, which this executor does
//! not replay.

use itqc_backend::memo::ScoreKind;
use itqc_backend::XxAnalyticBackend;
use itqc_core::testplan::ScoreMode;
use itqc_core::{TestExecutor, TestSpec};
use itqc_trap::{Activity, VirtualTrap, XxStats};

/// A per-trap executor on the memoised exact path. Borrows the trap for
/// the duration of one queue item.
pub struct CachedTrapExecutor<'a> {
    trap: &'a mut VirtualTrap,
}

impl<'a> CachedTrapExecutor<'a> {
    /// Wires an executor over one trap.
    pub fn new(trap: &'a mut VirtualTrap) -> Self {
        debug_assert!(
            trap.config().amplitude_jitter_std == 0.0,
            "fleet execution needs quasi-static noise (no per-shot jitter)"
        );
        CachedTrapExecutor { trap }
    }
}

impl TestExecutor for CachedTrapExecutor<'_> {
    fn n_qubits(&self) -> usize {
        self.trap.n_qubits()
    }

    fn run_test(&mut self, spec: &TestSpec, shots: usize) -> f64 {
        if shots == 0 {
            return 0.0;
        }
        let xx = spec.noisy_xx(self.trap.n_qubits(), |c| self.trap.true_under_rotation(c));
        let stats = match spec.score {
            ScoreMode::ExactTarget => XxStats::Target(
                XxAnalyticBackend::score(&xx, spec.target, ScoreKind::ExactTarget)
                    .expect("fleet registers fit the analytic engine"),
            ),
            ScoreMode::WorstQubit => XxStats::Agreements(
                xx.support().into_iter().map(|q| xx.qubit_agreement(q, spec.target)).collect(),
            ),
        };
        let hits = self.trap.read_out_xx_test(
            stats,
            spec.target,
            spec.gate_count(),
            shots,
            Activity::Testing,
        );
        hits as f64 / shots as f64
    }

    fn note_adaptation(&mut self, couplings_compiled: usize) {
        self.trap.bill_adaptation(couplings_compiled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_circuit::Coupling;
    use itqc_core::testplan::canary_for;
    use itqc_trap::TrapConfig;

    /// Runs `specs` in order on a fresh seeded trap through `VirtualTrap`'s
    /// own executor and through [`CachedTrapExecutor`], and requires the
    /// scores and the billed test time to agree bit for bit.
    fn assert_matches_direct(
        n_qubits: usize,
        seed: u64,
        faults: &[(Coupling, f64)],
        specs: &[(TestSpec, usize)],
    ) {
        let machine = || {
            let mut trap = VirtualTrap::new(TrapConfig::ideal(n_qubits, seed));
            for &(coupling, u) in faults {
                trap.inject_fault(coupling, u);
            }
            trap
        };
        let mut direct = machine();
        let mut trap = machine();
        for (spec, shots) in specs {
            let d = direct.run_test(spec, *shots);
            let c = CachedTrapExecutor::new(&mut trap).run_test(spec, *shots);
            assert_eq!(d.to_bits(), c.to_bits(), "{spec}");
        }
        assert_eq!(
            direct.duty().seconds(Activity::Testing).to_bits(),
            trap.duty().seconds(Activity::Testing).to_bits(),
            "billing must match the shot-engine path"
        );
    }

    #[test]
    fn cached_executor_matches_direct_trap_execution() {
        // Same seed → the fleet path must reproduce the trap's own
        // shot-engine path bit for bit, for both score modes.
        let spec_exact = TestSpec::for_couplings("t", &[Coupling::new(0, 3)], 4);
        let spec_worst = TestSpec::for_couplings("t", &[Coupling::new(1, 2)], 2)
            .with_score(ScoreMode::WorstQubit);
        assert_matches_direct(
            6,
            4242,
            &[(Coupling::new(0, 3), 0.21)],
            &[(spec_exact, 400), (spec_worst, 250)],
        );

        // The fleet canary: all 55 couplings of an 11-qubit trap, with
        // several drifted couplings, run twice so the repeat is a memo
        // hit.
        let n = 11;
        let couplings: Vec<Coupling> =
            (0..n).flat_map(|a| (a + 1..n).map(move |b| Coupling::new(a, b))).collect();
        let canary = canary_for(&couplings, 4, ScoreMode::ExactTarget);
        let drifted = [
            (Coupling::new(0, 1), 0.013),
            (Coupling::new(2, 9), -0.021),
            (Coupling::new(4, 7), 0.34),
            (Coupling::new(5, 10), 0.008),
        ];
        assert_matches_direct(n, 77, &drifted, &[(canary.clone(), 100), (canary, 100)]);
    }
}
