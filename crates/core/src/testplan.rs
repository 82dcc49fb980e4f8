//! Single-output test circuits (§VI).
//!
//! A test over a coupling set applies `r` consecutive fully-entangling MS
//! gates to every coupling in the set. `XX(π/2)^r = XX(r·π/2)`, so with
//! even `r` the ideal circuit maps `|0…0⟩` to a *classical* basis string:
//! for `r ≡ 0 (mod 4)` each coupling contributes identity, for
//! `r ≡ 2 (mod 4)` it contributes `X⊗X`; a qubit of degree `d` in the
//! coupling multigraph therefore ends at `(r/2)·d mod 2`. The test passes
//! when the measured string matches. Gate repetition is the paper's fault
//! *amplifier*: an under-rotation `u` accumulates to `r·u·π/2` of missing
//! angle before measurement.

use itqc_circuit::{Circuit, Coupling};
use itqc_sim::BitString;

pub use itqc_backend::ScoreMode;
use std::collections::BTreeMap;
use std::f64::consts::FRAC_PI_2;
use std::fmt;

/// Wall-clock span around a protocol planning one test: enumerating the
/// class's couplings, labelling it and laying out its gate list. A leaf
/// beside [`crate::executor::RUN_TEST_SPAN`]: planning finishes before
/// the test runs.
pub const PLAN_SPAN: &str = "core.protocol.plan";

/// A fully specified single-output test circuit.
#[derive(Clone, Debug, PartialEq)]
pub struct TestSpec {
    /// Human-readable provenance, e.g. `"round1 (2,1) x4MS"`.
    pub label: String,
    /// The distinct couplings exercised.
    pub couplings: Vec<Coupling>,
    /// MS gates in program order: `(coupling, θ)`.
    pub gates: Vec<(Coupling, f64)>,
    /// The expected output basis string for a fault-free machine.
    pub target: BitString,
    /// Gate repetitions per coupling.
    pub reps: usize,
    /// Pass/fail statistic.
    pub score: ScoreMode,
}

impl TestSpec {
    /// Builds the test for a coupling set with `reps` MS gates per
    /// coupling (must be even so the ideal output is classical).
    ///
    /// # Panics
    ///
    /// Panics if `reps` is zero or odd.
    pub fn for_couplings(label: impl Into<String>, couplings: &[Coupling], reps: usize) -> Self {
        assert!(
            reps >= 2 && reps.is_multiple_of(2),
            "single-output tests need an even repetition count"
        );
        let mut gates = Vec::with_capacity(couplings.len() * reps);
        for &c in couplings {
            for _ in 0..reps {
                gates.push((c, FRAC_PI_2));
            }
        }
        let target = expected_output(couplings, reps);
        TestSpec {
            label: label.into(),
            couplings: couplings.to_vec(),
            gates,
            target,
            reps,
            score: ScoreMode::ExactTarget,
        }
    }

    /// Sets the pass/fail statistic (builder style).
    pub fn with_score(mut self, score: ScoreMode) -> Self {
        self.score = score;
        self
    }
}

/// The full-coupling canary test over a coupling set: every relevant
/// coupling at `reps` amplification, scored with `score`. One shared
/// constructor so the Fig. 5 loop ([`crate::diagnose_all`]) and external
/// schedulers (the fleet's per-trap diagnostic cadence) provably run the
/// *same* tripwire circuit.
pub fn canary_for(couplings: &[Coupling], reps: usize, score: ScoreMode) -> TestSpec {
    TestSpec::for_couplings("canary", couplings, reps).with_score(score)
}

impl fmt::Display for TestSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{} couplings x {}MS, target {:b}]",
            self.label,
            self.couplings.len(),
            self.reps,
            self.target
        )
    }
}

/// Footnote 8's cancellation breaker: a point test whose gate repetitions
/// are re-routed through a SWAP so that a fault which *cancels itself*
/// under plain repetition (e.g. a π beam-phase error, which flips the MS
/// rotation sign and makes pairs of gates compose to identity) still shows.
///
/// The circuit is the paper's example: (i) one MS gate on the suspect
/// coupling `{a, b}`, (ii) a SWAP between `b` and `partner`, (iii) one MS
/// gate on the healthy coupling `{a, partner}` — so consecutive "faulty"
/// gates never act back-to-back on the same coupling. Returned alongside
/// the circuit is its ideal output string (qubits `a` and `partner` end in
/// `|1⟩`).
///
/// This variant contains a SWAP, so it is not a commuting-XX circuit: it
/// runs on the state-vector simulator and the trap's trajectories, never
/// through the backend seam.
///
/// # Panics
///
/// Panics if the three qubits are not distinct or out of range.
pub fn cancellation_breaker(
    n_qubits: usize,
    suspect: Coupling,
    partner: usize,
) -> (Circuit, BitString) {
    let (a, b) = suspect.endpoints();
    assert!(partner < n_qubits && a < n_qubits && b < n_qubits, "qubit out of range");
    assert!(partner != a && partner != b, "partner must be a third qubit");
    let mut c = Circuit::new(n_qubits);
    c.xx(a, b, FRAC_PI_2);
    c.swap(b, partner);
    c.xx(a, partner, FRAC_PI_2);
    // Ideal evolution: XX(π/2) entangles (a,b); the SWAP moves b's half of
    // the pair onto `partner`; the second XX(π/2) completes XX(π) on the
    // moved pair → both flip. Qubit b ends holding partner's |0⟩.
    let target = ((1 as BitString) << a) | ((1 as BitString) << partner);
    (c, target)
}

/// The ideal output string of a repetition test: qubit `q` reads
/// `(r/2)·deg(q) mod 2`.
pub fn expected_output(couplings: &[Coupling], reps: usize) -> BitString {
    assert!(reps.is_multiple_of(2), "odd repetition counts leave entangled outputs");
    let mut degree: BTreeMap<usize, usize> = BTreeMap::new();
    for c in couplings {
        *degree.entry(c.lo()).or_insert(0) += 1;
        *degree.entry(c.hi()).or_insert(0) += 1;
    }
    let half = reps / 2;
    let mut target: BitString = 0;
    for (&q, &d) in &degree {
        if (half * d) % 2 == 1 {
            target |= (1 as BitString) << q;
        }
    }
    target
}

/// One SplitMix64 step — the same generator `par_trials` uses for seed
/// splitting, reused here so rotation subsets are deterministic in the
/// configuration seed alone (never in executor or thread state).
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Deterministic seed for canary rotation `rotation` of outer diagnosis
/// round `round`: a SplitMix64 mix of the configured base seed and both
/// counters, so every (round, rotation) pair draws an independent subset
/// and re-running any round reproduces its rotations exactly.
pub fn rotation_seed(base: u64, round: u64, rotation: u64) -> u64 {
    let mut s = base ^ round.wrapping_mul(0xA076_1D64_78BD_642F);
    let mixed = splitmix64(&mut s);
    let mut s2 = mixed ^ rotation.wrapping_mul(0xE703_7ED1_A0B4_28DB);
    splitmix64(&mut s2)
}

/// A rotating-canary spec: a seeded pseudo-random subset of the machine's
/// couplings, each included with probability 1/2, tested like the fixed
/// canary. A fault configuration in which every qubit has *even* faulty
/// degree (a cycle union in the coupling graph) passes the fixed canary at
/// any magnitude, but a random subset intersects it in an odd-degree
/// subgraph with high probability (for a triangle, 6 of the 8 subsets),
/// so no fixed parity class survives every rotation.
///
/// Returns the spec together with the drawn subset, or `None` when the
/// draw is trivial (empty, or the full set — which carries no parity
/// information beyond the fixed canary).
pub fn canary_rotation(
    label: impl Into<String>,
    couplings: &[Coupling],
    reps: usize,
    score: ScoreMode,
    seed: u64,
) -> Option<(TestSpec, Vec<Coupling>)> {
    let mut state = seed;
    let mut word = 0u64;
    let mut subset = Vec::new();
    for (i, &c) in couplings.iter().enumerate() {
        let bit = i % 64;
        if bit == 0 {
            word = splitmix64(&mut state);
        }
        if (word >> bit) & 1 == 1 {
            subset.push(c);
        }
    }
    if subset.is_empty() || subset.len() == couplings.len() {
        return None;
    }
    let spec = TestSpec::for_couplings(label, &subset, reps).with_score(score);
    Some((spec, subset))
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_sim::{run, XxCircuit};

    /// The spec's ideal circuit on an `n_qubits` register.
    fn ideal_circuit(spec: &TestSpec, n_qubits: usize) -> Circuit {
        let mut c = Circuit::new(n_qubits);
        for &(coupling, theta) in &spec.gates {
            let (a, b) = coupling.endpoints();
            c.xx(a, b, theta);
        }
        c
    }

    #[test]
    fn four_ms_target_is_all_zero() {
        let cs = [Coupling::new(0, 1), Coupling::new(1, 2)];
        let spec = TestSpec::for_couplings("t", &cs, 4);
        assert_eq!(spec.target, 0);
        assert_eq!(spec.gates.len(), 8);
    }

    #[test]
    fn two_ms_target_flips_odd_degree_qubits() {
        // Path 0-1-2: degrees 1,2,1 → qubits 0 and 2 flip.
        let cs = [Coupling::new(0, 1), Coupling::new(1, 2)];
        let spec = TestSpec::for_couplings("t", &cs, 2);
        assert_eq!(spec.target, 0b101);
    }

    #[test]
    fn ideal_machine_reaches_target_exactly() {
        // Verify the target prediction against the dense simulator for an
        // assortment of coupling sets and repetition counts.
        let sets: Vec<Vec<Coupling>> = vec![
            vec![Coupling::new(0, 1)],
            vec![Coupling::new(0, 1), Coupling::new(2, 3)],
            vec![Coupling::new(0, 1), Coupling::new(1, 2), Coupling::new(0, 2)],
            vec![
                Coupling::new(0, 2),
                Coupling::new(2, 4),
                Coupling::new(0, 4),
                Coupling::new(1, 3),
            ],
        ];
        for reps in [2usize, 4] {
            for cs in &sets {
                let spec = TestSpec::for_couplings("t", cs, reps);
                let state = run(&ideal_circuit(&spec, 5));
                let p = state.probability(spec.target as usize);
                assert!((p - 1.0).abs() < 1e-9, "set {cs:?} reps {reps}: P(target) = {p}");
            }
        }
    }

    #[test]
    fn complete_class_test_target() {
        // A first-round class of size 4 under 2-MS: degree 3 each → all
        // four qubits flip.
        let members = [0usize, 2, 4, 6];
        let mut cs = Vec::new();
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                cs.push(Coupling::new(a, b));
            }
        }
        let spec = TestSpec::for_couplings("class(0,0)", &cs, 2);
        assert_eq!(spec.target, 0b1010101 & 0b1010101);
        assert_eq!(spec.target, (1 << 0) | (1 << 2) | (1 << 4) | (1 << 6));
    }

    #[test]
    fn compiled_spec_applies_under_rotations_and_canary_for_matches_inline() {
        let cs = [Coupling::new(0, 1), Coupling::new(1, 2)];
        let spec = TestSpec::for_couplings("t", &cs, 2);
        let faulty = Coupling::new(0, 1);
        let xx = XxCircuit::compile(4, &spec.gates, |c| 1.0 - if c == faulty { 0.25 } else { 0.0 });
        let mut want = XxCircuit::new(4);
        want.add_xx(0, 1, FRAC_PI_2 * 0.75)
            .add_xx(0, 1, FRAC_PI_2 * 0.75)
            .add_xx(1, 2, FRAC_PI_2)
            .add_xx(1, 2, FRAC_PI_2);
        let key =
            |x: &XxCircuit| x.terms().map(|((a, b), t)| (a, b, t.to_bits())).collect::<Vec<_>>();
        assert_eq!(key(&xx), key(&want));
        // canary_for is byte-identical to the inline construction the
        // Fig. 5 loop historically used.
        let canary = canary_for(&cs, 4, ScoreMode::WorstQubit);
        let inline = TestSpec::for_couplings("canary", &cs, 4).with_score(ScoreMode::WorstQubit);
        assert_eq!(canary, inline);
    }

    #[test]
    #[should_panic(expected = "even repetition")]
    fn odd_reps_panics() {
        let _ = TestSpec::for_couplings("t", &[Coupling::new(0, 1)], 3);
    }

    #[test]
    fn cancellation_breaker_ideal_target() {
        let (circuit, target) = cancellation_breaker(8, Coupling::new(2, 6), 5);
        assert_eq!(target, (1 << 2) | (1 << 5));
        let p = run(&circuit).probability(target as usize);
        assert!((p - 1.0).abs() < 1e-10, "ideal circuit must hit its target, p={p}");
    }

    #[test]
    fn rotation_seeds_are_distinct_and_reproducible() {
        let mut seen = std::collections::BTreeSet::new();
        for round in 0..4u64 {
            for rot in 0..4u64 {
                let s = rotation_seed(99, round, rot);
                assert_eq!(s, rotation_seed(99, round, rot));
                assert!(seen.insert(s), "round {round} rotation {rot} repeats a seed");
            }
        }
    }

    #[test]
    fn canary_rotation_is_a_proper_seeded_subset() {
        let couplings: Vec<Coupling> =
            (0..8).flat_map(|a| ((a + 1)..8).map(move |b| Coupling::new(a, b))).collect();
        let (spec, subset) =
            canary_rotation("rot", &couplings, 4, ScoreMode::WorstQubit, 7).expect("non-trivial");
        assert_eq!(spec.couplings, subset);
        assert_eq!(spec.score, ScoreMode::WorstQubit);
        assert!(!subset.is_empty() && subset.len() < couplings.len());
        // Same seed, same subset; different seed, (almost surely) different.
        let again = canary_rotation("rot", &couplings, 4, ScoreMode::WorstQubit, 7).unwrap().1;
        assert_eq!(subset, again);
        let other = canary_rotation("rot", &couplings, 4, ScoreMode::WorstQubit, 8).unwrap().1;
        assert_ne!(subset, other);
    }

    #[test]
    fn some_rotation_breaks_every_even_degree_triangle() {
        // The blind spot: a triangle passes the fixed canary at any
        // magnitude. Across a handful of rotations, some drawn subset
        // must intersect it in an odd-degree subgraph.
        let couplings: Vec<Coupling> =
            (0..8).flat_map(|a| ((a + 1)..8).map(move |b| Coupling::new(a, b))).collect();
        let triangle = [Coupling::new(0, 2), Coupling::new(2, 4), Coupling::new(0, 4)];
        let odd_intersection = |subset: &[Coupling]| {
            let hit: Vec<Coupling> =
                triangle.iter().copied().filter(|c| subset.contains(c)).collect();
            let spec_target = expected_output(&hit, 2);
            spec_target != 0 // some qubit has odd degree in the intersection
        };
        let broken = (0..4u64).any(|rot| {
            canary_rotation("rot", &couplings, 4, ScoreMode::WorstQubit, rotation_seed(5, 0, rot))
                .is_some_and(|(_, subset)| odd_intersection(&subset))
        });
        assert!(broken, "four rotations must expose the triangle");
    }

    #[test]
    fn footnote8_sign_fault_invisible_to_repetition_but_caught_by_swap() {
        use itqc_circuit::Gate;
        // The fault: every MS gate on {2,6} carries a π beam-phase error,
        // i.e. implements XX(−π/2) instead of XX(π/2). Two consecutive
        // applications compose to XX(−π) ≡ XX(π)·(global phase): the plain
        // 2-MS repetition test cannot see it.
        let faulty = Coupling::new(2, 6);
        let inject = |c: &Circuit| -> Circuit {
            let mut noisy = Circuit::new(c.n_qubits());
            for op in c.ops() {
                match (op.gate, op.coupling()) {
                    (Gate::Xx(t), Some(cc)) if cc == faulty => {
                        noisy.push(itqc_circuit::Op::two(
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
            noisy
        };
        // Plain repetition test: passes despite the fault.
        let spec = TestSpec::for_couplings("rep", &[faulty], 2);
        let plain = inject(&ideal_circuit(&spec, 8));
        let p_plain = run(&plain).probability(spec.target as usize);
        assert!((p_plain - 1.0).abs() < 1e-10, "sign fault self-cancels: p={p_plain}");
        // Swap-insertion test: fails loudly.
        let (breaker, target) = cancellation_breaker(8, faulty, 5);
        let noisy = inject(&breaker);
        let p_breaker = run(&noisy).probability(target as usize);
        assert!(p_breaker < 0.1, "swap insertion must expose the fault: p={p_breaker}");
    }
}
