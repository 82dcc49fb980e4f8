//! The Fig. 6 single-output test battery with artificially introduced
//! errors, shared between the `fig6` binary and the tier-2 statistical
//! regression suite.
//!
//! On an 8-qubit machine, 47% and 22% under-rotations are planted on
//! couplings {0,4} and {0,7} (the paper's §VI experiment) over the
//! simulator's 10% random amplitude jitter. The full first-round battery
//! runs at 2-MS and 4-MS depth; the paper's fidelity thresholds 0.45 /
//! 0.25 separate faulty from healthy tests.
//!
//! Every (class, depth) cell runs on [`crate::par_trials`] with its own
//! seeded trap, so the battery is bit-identical at any `--threads`.

use crate::{par_map, split_seed};
use itqc_circuit::Coupling;
use itqc_core::{first_round_classes, LabelSpace, SubcubeClass, TestExecutor, TestSpec};
use itqc_trap::{TrapConfig, VirtualTrap};
use std::collections::BTreeSet;

/// The paper's machine size.
pub const FIG6_QUBITS: usize = 8;

/// The planted under-rotations: 47% on {0,4}, 22% on {0,7}.
pub const FIG6_FAULTS: [(usize, usize, f64); 2] = [(0, 4, 0.47), (0, 7, 0.22)];

/// The paper's 2-MS pass/fail fidelity threshold (Fig. 6).
pub const FIG6_THRESH_2MS: f64 = 0.45;

/// The paper's 4-MS pass/fail fidelity threshold (Fig. 6).
pub const FIG6_THRESH_4MS: f64 = 0.25;

/// The simulator's ambient amplitude jitter: "10% random amplitude
/// errors" on all two-qubit gates, as a half-normal scale.
pub fn fig6_jitter() -> f64 {
    0.10 * (std::f64::consts::PI / 2.0).sqrt()
}

/// One measured battery cell.
#[derive(Clone, Debug)]
pub struct Fig6Row {
    /// The subcube class under test.
    pub class: SubcubeClass,
    /// Couplings in the class test circuit.
    pub couplings: usize,
    /// Observed fidelity at 2-MS depth.
    pub fid2: f64,
    /// Observed fidelity at 4-MS depth.
    pub fid4: f64,
}

impl Fig6Row {
    /// Pass/fail verdicts under the paper's thresholds, as
    /// `(fail_2ms, fail_4ms)`.
    pub fn verdicts(&self) -> (bool, bool) {
        (self.fid2 < FIG6_THRESH_2MS, self.fid4 < FIG6_THRESH_4MS)
    }
}

/// Builds one faulted trap instance (both planted errors over the
/// ambient jitter) for a given seed.
pub fn fig6_trap(seed: u64, jitter: f64) -> VirtualTrap {
    let mut cfg = TrapConfig::ideal(FIG6_QUBITS, seed);
    cfg.amplitude_jitter_std = jitter;
    let mut trap = VirtualTrap::new(cfg);
    for (a, b, u) in FIG6_FAULTS {
        trap.inject_fault(Coupling::new(a, b), u);
    }
    trap
}

/// Runs the full first-round battery at 2-MS and 4-MS depth with
/// `shots` shots per test. Each (class, depth) cell samples on its own
/// trap seeded from `seed` and the cell index, so the returned rows are
/// identical at any thread count.
pub fn fig6_battery(seed: u64, shots: usize, jitter: f64, threads: usize) -> Vec<Fig6Row> {
    let space = LabelSpace::new(FIG6_QUBITS);
    let classes = first_round_classes(&space);
    let none = BTreeSet::new();
    let cells: Vec<(SubcubeClass, usize)> = classes
        .iter()
        .flat_map(|&class| [2usize, 4].into_iter().map(move |reps| (class, reps)))
        .collect();
    let fids = par_map(threads, cells.len(), |i| {
        let (class, reps) = cells[i];
        let couplings = class.couplings(&space, &none);
        let spec = TestSpec::for_couplings(format!("{class}"), &couplings, reps);
        let mut trap = fig6_trap(split_seed(seed, i), jitter);
        trap.run_test(&spec, shots)
    });
    classes
        .iter()
        .enumerate()
        .map(|(k, &class)| Fig6Row {
            class,
            couplings: class.couplings(&space, &none).len(),
            fid2: fids[2 * k],
            fid4: fids[2 * k + 1],
        })
        .collect()
}

/// The classes a planted fault set must trip: every class containing at
/// least one planted coupling. For the Fig. 6 plant this is `(0,0)` and
/// `(1,0)` — {0,4} shares bits 0 and 1 — while the bit-complementary
/// {0,7} is invisible to round 1.
pub fn fig6_expected_failing() -> BTreeSet<SubcubeClass> {
    let space = LabelSpace::new(FIG6_QUBITS);
    first_round_classes(&space)
        .into_iter()
        .filter(|class| {
            FIG6_FAULTS.iter().any(|&(a, b, _)| class.contains_coupling(Coupling::new(a, b)))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn battery_is_thread_invariant() {
        let a = fig6_battery(11, 64, fig6_jitter(), 1);
        let b = fig6_battery(11, 64, fig6_jitter(), 8);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.fid2.to_bits(), y.fid2.to_bits());
            assert_eq!(x.fid4.to_bits(), y.fid4.to_bits());
        }
    }

    #[test]
    fn expected_failing_matches_paper_reading() {
        let expected = fig6_expected_failing();
        assert_eq!(expected.len(), 2, "{{0,4}} trips two classes, {{0,7}} none: {expected:?}");
    }
}
