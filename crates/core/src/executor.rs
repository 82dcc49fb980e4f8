//! The executor boundary between protocol logic and hardware.
//!
//! Protocols only ever ask "run this test, give me the observed fidelity".
//! Everything machine-specific (noise, shots, wall-clock billing) hides
//! behind [`TestExecutor`], keeping `single_fault`/`multi_fault` free of
//! hardware detail and directly checkable against oracles.

use crate::testplan::{ScoreMode, TestSpec};
use itqc_backend::{Backend, BackendChoice, BackendError, PreparedCircuit, XxAnalyticBackend};
use itqc_circuit::Coupling;
use itqc_sim::XxCircuit;
use itqc_trap::{Activity, VirtualTrap};
use std::collections::BTreeMap;
use std::f64::consts::FRAC_PI_2;
use std::rc::Rc;

/// Wall-clock span around one test execution — compile, prepare,
/// sample and score. Executors open it at their leaf (the exact score,
/// or a string sampler's prepare-and-draw); a wrapper that delegates
/// opens it only around its own work after the delegate returns (a
/// binomial shot draw), so instances do not nest.
pub const RUN_TEST_SPAN: &str = "core.executor.run_test";

/// Runs test circuits and reports observed target-state fidelity.
pub trait TestExecutor {
    /// Register size of the machine under test.
    fn n_qubits(&self) -> usize;

    /// Runs `spec` for `shots` repetitions and returns the observed
    /// fraction of shots on the expected output.
    fn run_test(&mut self, spec: &TestSpec, shots: usize) -> f64;

    /// Bills one classical adaptation round that compiles pulses for
    /// `couplings_compiled` couplings. Default: no-op (oracles have no
    /// clock).
    fn note_adaptation(&mut self, _couplings_compiled: usize) {}
}

/// A noiseless, shot-free oracle executor driven by a known fault map —
/// used by property tests and the Table II decoder study. Fidelities are
/// computed exactly on a [`Backend`] ([`BackendChoice::Auto`] unless
/// [`ExactExecutor::with_backend`] selects another), which also prepares
/// circuits for the output-string samplers of the scaling studies.
///
/// Every query compiles its spec once, into the [`XxCircuit`] the
/// machine executes: each gate's angle scaled by `1 − u` for its
/// coupling's under-rotation `u`. Exact scores take the analytic
/// engine's scalar path ([`itqc_backend::XxAnalyticBackend::score`]):
/// closed-form marginals or per-component Gray walks, memoised across
/// trials. The dense engine is the reference: a dense-routed executor
/// prepares the same compiled circuit on it, unmemoised.
#[derive(Clone, Debug)]
pub struct ExactExecutor {
    n_qubits: usize,
    /// Under-rotation of coupling `{a, b}`, `a < b`, at `a·n + b`.
    faults: Vec<f64>,
    backend: Backend,
}

impl ExactExecutor {
    /// Creates a fault-free oracle.
    pub fn new(n_qubits: usize) -> Self {
        ExactExecutor {
            n_qubits,
            faults: vec![0.0; n_qubits * n_qubits],
            backend: Backend::new(BackendChoice::Auto),
        }
    }

    /// Selects the simulation backend (`dense`/`analytic`/`auto`).
    /// Clones of this executor share the backend's preparation cache.
    pub fn with_backend(mut self, choice: BackendChoice) -> Self {
        self.backend = Backend::new(choice);
        self
    }

    /// The simulation backend.
    pub fn backend(&self) -> &Backend {
        &self.backend
    }

    /// Sets the under-rotation of one coupling.
    ///
    /// # Panics
    ///
    /// Panics if the coupling lies off the register.
    pub fn with_fault(mut self, coupling: Coupling, under_rotation: f64) -> Self {
        let (a, b) = coupling.endpoints();
        assert!(b < self.n_qubits, "coupling not on this machine");
        self.faults[a * self.n_qubits + b] = under_rotation;
        self
    }

    /// Sets many faults at once.
    ///
    /// # Panics
    ///
    /// Panics if a coupling lies off the register.
    pub fn with_faults<I: IntoIterator<Item = (Coupling, f64)>>(self, faults: I) -> Self {
        faults.into_iter().fold(self, |exec, (coupling, u)| exec.with_fault(coupling, u))
    }

    fn under_rotation(&self, coupling: Coupling) -> f64 {
        let (a, b) = coupling.endpoints();
        self.faults[a * self.n_qubits + b]
    }

    /// The circuit a spec compiles to on this machine: every gate's
    /// angle scaled by `1 − u` for its coupling's under-rotation `u`.
    fn compile(&self, spec: &TestSpec) -> XxCircuit {
        XxCircuit::compile(self.n_qubits, &spec.gates, |c| 1.0 - self.under_rotation(c))
    }

    /// Prepares a spec's compiled circuit on the backend (shot samplers
    /// use this to draw genuine output strings), or reports why the
    /// backend refused it: forced `dense` beyond the register wall, or
    /// forced `analytic` on an unstructured oversize component.
    pub fn prepare(&self, spec: &TestSpec) -> Result<Rc<dyn PreparedCircuit>, BackendError> {
        self.backend.prepare(&self.compile(spec))
    }

    /// The exact score of a spec under its own [`ScoreMode`].
    pub fn exact_score(&self, spec: &TestSpec) -> f64 {
        self.score(spec, spec.score)
    }

    /// Every exact query: the analytic scalar path, or the backend's
    /// preparation of the same compiled circuit on a dense-routed
    /// executor and for circuits the scalar path refuses (`auto` then
    /// falls back to dense).
    ///
    /// # Panics
    ///
    /// Panics with the backend's refusal if the fallback cannot prepare
    /// the circuit either; `auto` never refuses a protocol test circuit.
    fn score(&self, spec: &TestSpec, kind: ScoreMode) -> f64 {
        let _span = itqc_obs::span::timed(RUN_TEST_SPAN);
        itqc_obs::event::add("core.exact.queries", 1);
        let xx = self.compile(spec);
        if self.backend.choice() != BackendChoice::Dense {
            if let Ok(score) = XxAnalyticBackend::score(&xx, spec.target, kind) {
                return score;
            }
        }
        let prepared = self.backend.prepare(&xx).unwrap_or_else(|e| {
            panic!("backend '{}' refused test '{}': {e}", self.backend.choice(), spec.label)
        });
        match kind {
            ScoreMode::ExactTarget => prepared.probability(spec.target),
            ScoreMode::WorstQubit => prepared.min_qubit_agreement(spec.target),
        }
    }
}

impl TestExecutor for ExactExecutor {
    fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    fn run_test(&mut self, spec: &TestSpec, _shots: usize) -> f64 {
        self.exact_score(spec)
    }
}

/// [`TestExecutor`] for the virtual machine: tests run on the trap's
/// exact commuting-XX path, read out under the spec's score mode
/// ([`VirtualTrap::run_xx_test`]); adaptations are billed to the duty
/// ledger.
impl TestExecutor for VirtualTrap {
    fn n_qubits(&self) -> usize {
        VirtualTrap::n_qubits(self)
    }

    fn run_test(&mut self, spec: &TestSpec, shots: usize) -> f64 {
        if shots == 0 {
            return 0.0;
        }
        let hits = self.run_xx_test(&spec.gates, spec.target, spec.score, shots, Activity::Testing);
        hits as f64 / shots as f64
    }

    fn note_adaptation(&mut self, couplings_compiled: usize) {
        self.bill_adaptation(couplings_compiled);
    }
}

/// Convenience oracle: the exact fidelity a single faulty coupling of
/// under-rotation `u` produces on an isolated `reps`-MS point test —
/// `cos²(reps·u·π/4)` — used for threshold reasoning.
pub fn point_test_fidelity(u: f64, reps: usize) -> f64 {
    // Total missing angle: reps·u·(π/2); P(target) = cos²(missing/2).
    let missing = reps as f64 * u * FRAC_PI_2;
    (missing / 2.0).cos().powi(2)
}

/// Largest faulty-set size for which [`predicted_class_score`] runs the
/// exact even-subgraph interference sum (`2^m` subsets); beyond it the
/// product truncation is used. Candidate covers are bounded by the fault
/// budget, so realistic calls stay far below this.
pub const INTERFERENCE_SUM_LIMIT: usize = 16;

/// Forward model of the ranked aliasing decoder: the score a class test
/// is predicted to produce when exactly the couplings in `faulty` (all
/// members of the class) carry under-rotation `u`.
///
/// * [`ScoreMode::ExactTarget`] — for even `reps` every healthy coupling
///   contributes an exact bit-flip, so only the faulty couplings'
///   residual rotations `exp(∓i·δ_f·X_aX_b)` with `δ_f = reps·u·π/4`
///   remain. Expanding each residual into `cos δ·𝟙 − i·sin δ·X_aX_b`
///   terms, a product term survives on the target string exactly when
///   its chosen flips cancel — when the chosen couplings form an
///   even-degree subgraph (a cycle union). The amplitude is therefore
///
///   `A = Σ_{S ⊆ faulty, S even} (−i·sin δ)^{|S|}·(cos δ)^{m−|S|}`
///
///   and the score is `|A|²`. Only `S = ∅` survives for `m ≤ 2`
///   (reproducing the plain product `cos²(δ)^m`), while cycle-closing
///   covers from three faults up pick up interference terms the product
///   truncation misses — e.g. a fault triangle inside one class scores
///   `cos⁶δ + sin⁶δ`, not `cos⁶δ`. The sum is exact for any cover the
///   decoder scores (sets larger than [`INTERFERENCE_SUM_LIMIT`] fall
///   back to the product).
/// * [`ScoreMode::WorstQubit`] — exact for any fault multiset: the
///   qubit marginal `⟨Z_q⟩` multiplies `cos(reps·u·π/2)` per incident
///   fault, so the worst agreement is `(1 + c^{d_q})/2` minimised over
///   the per-qubit incident-fault counts `d_q`.
pub fn predicted_class_score(faulty: &[Coupling], u: f64, reps: usize, score: ScoreMode) -> f64 {
    ClassScorePredictor::new(faulty, reps, score).at(u)
}

/// The exact even-subgraph interference sum behind
/// [`predicted_class_score`]'s `ExactTarget` branch (see its docs for
/// the derivation), over endpoint masks (one per fault). `2^m` subsets;
/// callers bound `m`.
fn interference_sum(masks: &[u128], u: f64, reps: usize) -> f64 {
    let m = masks.len();
    let delta = reps as f64 * u * FRAC_PI_2 / 2.0;
    let (sin_d, cos_d) = delta.sin_cos();
    let (mut re, mut im) = (0.0f64, 0.0f64);
    for subset in 0u32..(1u32 << m) {
        let mut flips = 0u128;
        for (i, &mask) in masks.iter().enumerate() {
            if subset >> i & 1 == 1 {
                flips ^= mask;
            }
        }
        if flips != 0 {
            continue; // odd-degree subgraph: flips land off the target
        }
        let k = subset.count_ones() as i32;
        let w = cos_d.powi(m as i32 - k) * sin_d.powi(k);
        // (−i)^k walks the quadrants 1, −i, −1, i.
        match k % 4 {
            0 => re += w,
            1 => im -= w,
            2 => re -= w,
            _ => im += w,
        }
    }
    re * re + im * im
}

/// The forward model of [`predicted_class_score`] for one class's
/// members: branch selection, worst-qubit degree counting, and
/// interference mask construction happen at build time, so the
/// magnitude-profiling grid pays only the per-`u` trigonometry. Two
/// predictors that compare equal predict the same score at every `u`, so
/// the ranked decoder keys its tabulated forward model on them; member
/// lists that match up to a relabelling of qubits build equal
/// predictors.
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct ClassScorePredictor {
    reps: usize,
    kind: PredictorKind,
}

#[derive(Clone, Debug, PartialEq, Eq, Hash)]
enum PredictorKind {
    /// No faulty members in the class: the test scores exactly 1.
    Clean,
    /// `ExactTarget` product truncation: `cos²(δ)^m`.
    Product { m: i32 },
    /// `ExactTarget` even-subgraph interference sum over pre-built
    /// endpoint masks, with qubits relabelled in order of first
    /// appearance.
    Interference { masks: Vec<u128> },
    /// `WorstQubit`: the multiset of per-qubit incident-fault degrees,
    /// sorted (the minimum over them does not depend on which qubit
    /// carries which degree).
    WorstQubit { degrees: Vec<i32> },
}

impl ClassScorePredictor {
    /// Builds the evaluator for one class's cover members.
    pub fn new(faulty: &[Coupling], reps: usize, score: ScoreMode) -> Self {
        let kind = if faulty.is_empty() {
            PredictorKind::Clean
        } else {
            match score {
                ScoreMode::ExactTarget => {
                    let m = faulty.len();
                    // The interference sum indexes qubits as u128 bits;
                    // labels beyond the mask width (or oversized sets)
                    // fall back to the product truncation rather than
                    // aliasing bits.
                    let maskable = faulty.iter().all(|f| {
                        let (a, b) = f.endpoints();
                        a < 128 && b < 128
                    });
                    if m <= 2 || m > INTERFERENCE_SUM_LIMIT || !maskable {
                        PredictorKind::Product { m: m as i32 }
                    } else {
                        // Qubits are relabelled in order of first
                        // appearance (at most 2·m ≤ 32 of them): the sum
                        // only asks which subsets of masks XOR to zero,
                        // and relabelling keeps those subsets in the same
                        // order, so isomorphic member lists share one
                        // predictor with bit-identical scores.
                        let mut labels: Vec<usize> = Vec::with_capacity(2 * m);
                        let mut bit = |q: usize| {
                            let i = labels.iter().position(|&l| l == q).unwrap_or_else(|| {
                                labels.push(q);
                                labels.len() - 1
                            });
                            1u128 << i
                        };
                        PredictorKind::Interference {
                            masks: faulty
                                .iter()
                                .map(|f| {
                                    let (a, b) = f.endpoints();
                                    bit(a) | bit(b)
                                })
                                .collect(),
                        }
                    }
                }
                ScoreMode::WorstQubit => {
                    let mut degree: BTreeMap<usize, i32> = BTreeMap::new();
                    for f in faulty {
                        let (a, b) = f.endpoints();
                        *degree.entry(a).or_insert(0) += 1;
                        *degree.entry(b).or_insert(0) += 1;
                    }
                    let mut degrees: Vec<i32> = degree.into_values().collect();
                    degrees.sort_unstable();
                    PredictorKind::WorstQubit { degrees }
                }
            }
        };
        ClassScorePredictor { reps, kind }
    }

    /// The predicted class score at magnitude `u`.
    pub fn at(&self, u: f64) -> f64 {
        match &self.kind {
            PredictorKind::Clean => 1.0,
            PredictorKind::Product { m } => point_test_fidelity(u, self.reps).powi(*m),
            PredictorKind::Interference { masks } => interference_sum(masks, u, self.reps),
            PredictorKind::WorstQubit { degrees } => {
                let c = (self.reps as f64 * u * FRAC_PI_2).cos();
                degrees.iter().map(|&d| (1.0 + c.powi(d)) / 2.0).fold(1.0, f64::min)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testplan::TestSpec;
    use itqc_trap::TrapConfig;
    use std::sync::{Mutex, MutexGuard};

    /// Serialises the tests that switch the process-wide obs layer on to
    /// read the exact-score memo's traffic.
    static MEMO_TRAFFIC: Mutex<()> = Mutex::new(());

    /// Locks [`MEMO_TRAFFIC`] and switches the obs layer on; it stays on
    /// until the guard's holder switches it off.
    fn observe_memo() -> MutexGuard<'static, ()> {
        let guard = MEMO_TRAFFIC.lock().unwrap_or_else(|poisoned| poisoned.into_inner());
        itqc_obs::set_enabled(true);
        guard
    }

    /// The exact-score memo's `(hits, misses)` so far, read from the obs
    /// layer's nondeterministic counters after folding in this thread's
    /// shard. No other test in this crate flushes, so between two reads
    /// the totals move only with the reading tests' own lookups.
    fn memo_traffic() -> (u64, u64) {
        itqc_obs::event::flush();
        let nd = itqc_obs::global().nondeterministic_snapshot();
        let count = |name: &str| nd.counters.get(name).copied().unwrap_or(0);
        (count("backend.memo.hits"), count("backend.memo.misses"))
    }

    #[test]
    fn exact_executor_perfect_machine() {
        let mut exec = ExactExecutor::new(8);
        let spec = TestSpec::for_couplings("t", &[Coupling::new(0, 1)], 4);
        assert!((exec.run_test(&spec, 1) - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "coupling not on this machine")]
    fn a_fault_off_the_register_panics() {
        let _ = ExactExecutor::new(4).with_fault(Coupling::new(1, 4), 0.2);
    }

    #[test]
    fn exact_executor_matches_point_formula() {
        for &u in &[0.1, 0.22, 0.47] {
            for reps in [2usize, 4] {
                let mut exec = ExactExecutor::new(4).with_fault(Coupling::new(1, 2), u);
                let spec = TestSpec::for_couplings("t", &[Coupling::new(1, 2)], reps);
                let f = exec.run_test(&spec, 1);
                let expect = point_test_fidelity(u, reps);
                assert!((f - expect).abs() < 1e-12, "u={u} reps={reps}: {f} vs {expect}");
            }
        }
    }

    #[test]
    fn paper_figure6_operating_points() {
        // Repetition amplifies faults (§V-C): at fixed u, deeper tests sit
        // lower; at fixed depth, bigger faults sit lower. The isolated
        // point fidelities for Fig. 6's faults are 0.55 (47% @ 2MS) and
        // 0.59 (22% @ 4MS) — the class tests of Fig. 6 drop further below
        // the 0.45/0.25 thresholds because ambient noise multiplies in.
        assert!((point_test_fidelity(0.47, 2) - 0.547).abs() < 0.01);
        assert!((point_test_fidelity(0.22, 4) - 0.595).abs() < 0.01);
        assert!(point_test_fidelity(0.22, 4) < point_test_fidelity(0.22, 2));
        assert!(point_test_fidelity(0.47, 2) < point_test_fidelity(0.22, 2));
        // A 47% fault under 4-MS amplification is unmistakable.
        assert!(point_test_fidelity(0.47, 4) < 0.05);
        // Healthy couplings pass with margin.
        assert!(point_test_fidelity(0.02, 2) > 0.99);
        assert!(point_test_fidelity(0.02, 4) > 0.97);
    }

    #[test]
    fn forward_model_matches_exact_engine_on_cycle_covers() {
        // Cycle-closing fault sets pick up interference the product
        // truncation misses; the even-subgraph sum must agree with the
        // exact commuting-XX engine to machine precision, with healthy
        // couplings in the same test contributing nothing but flips.
        use crate::testplan::ScoreMode;
        let c = Coupling::new;
        let cases: [&[Coupling]; 4] = [
            &[c(0, 1), c(1, 2), c(0, 2)],          // triangle
            &[c(0, 1), c(1, 2), c(2, 3), c(0, 3)], // 4-cycle
            &[c(0, 1), c(1, 2), c(0, 2), c(4, 5)], // triangle + isolated edge
            &[c(0, 1), c(2, 3), c(4, 5)],          // acyclic: must equal the product
        ];
        for faults in cases {
            for &u in &[0.12, 0.30, 0.45] {
                for reps in [2usize, 4] {
                    let exec = ExactExecutor::new(8).with_faults(faults.iter().map(|&f| (f, u)));
                    let mut tested = faults.to_vec();
                    tested.push(c(6, 7)); // healthy coupling in the same test
                    let spec = TestSpec::for_couplings("t", &tested, reps);
                    let expect = exec.exact_score(&spec);
                    let got = predicted_class_score(faults, u, reps, ScoreMode::ExactTarget);
                    assert!(
                        (got - expect).abs() < 1e-12,
                        "{faults:?} u={u} reps={reps}: {got} vs {expect}"
                    );
                }
            }
        }
        // The triangle's closed form: |cos³δ + i·sin³δ|² = cos⁶δ + sin⁶δ.
        let d = 4.0 * 0.30 * FRAC_PI_2 / 2.0;
        let tri =
            predicted_class_score(&[c(0, 1), c(1, 2), c(0, 2)], 0.30, 4, ScoreMode::ExactTarget);
        assert!((tri - (d.cos().powi(6) + d.sin().powi(6))).abs() < 1e-12);
    }

    #[test]
    fn isomorphic_member_lists_share_one_predictor() {
        // Member lists that match up to a relabelling of qubits, coupling
        // by coupling in the same order, predict the same class score:
        // the interference sum only asks which subsets of endpoint masks
        // XOR to zero. They must build one predictor whose every grid
        // value is bit-identical to the sum over the original labels.
        let c = Coupling::new;
        let families: [[&[Coupling]; 3]; 3] = [
            // Triangles.
            [
                &[c(0, 1), c(1, 2), c(0, 2)],
                &[c(5, 9), c(9, 12), c(5, 12)],
                &[c(30, 31), c(7, 31), c(7, 30)],
            ],
            // 4-cycles.
            [
                &[c(0, 1), c(1, 2), c(2, 3), c(0, 3)],
                &[c(4, 8), c(8, 10), c(10, 13), c(4, 13)],
                &[c(20, 90), c(90, 100), c(100, 127), c(20, 127)],
            ],
            // 5 members: a triangle with a pendant edge and a disjoint edge.
            [
                &[c(0, 1), c(1, 2), c(0, 2), c(2, 3), c(4, 5)],
                &[c(6, 11), c(11, 14), c(6, 14), c(14, 15), c(2, 3)],
                &[c(40, 41), c(41, 60), c(40, 60), c(60, 99), c(101, 126)],
            ],
        ];
        let (u_lo, u_hi, steps) = crate::decoder::COVER_U_GRID;
        let masks_of = |members: &[Coupling]| -> Vec<u128> {
            members
                .iter()
                .map(|f| {
                    let (a, b) = f.endpoints();
                    (1u128 << a) | (1u128 << b)
                })
                .collect()
        };
        for family in families {
            for reps in [2usize, 4] {
                let base = ClassScorePredictor::new(family[0], reps, ScoreMode::ExactTarget);
                assert!(matches!(base.kind, PredictorKind::Interference { .. }));
                for members in family {
                    let predictor = ClassScorePredictor::new(members, reps, ScoreMode::ExactTarget);
                    assert_eq!(predictor, base, "{members:?}");
                    for s in 0..steps {
                        let u = u_lo + (u_hi - u_lo) * s as f64 / (steps - 1) as f64;
                        let want = interference_sum(&masks_of(members), u, reps);
                        assert_eq!(predictor.at(u).to_bits(), want.to_bits(), "{members:?} u={u}");
                    }
                }
            }
        }
        // A label past the mask width keeps the product truncation, even
        // though the relabelled masks would fit.
        let wide = [c(0, 1), c(1, 130), c(0, 130)];
        let predictor = ClassScorePredictor::new(&wide, 4, ScoreMode::ExactTarget);
        assert!(matches!(predictor.kind, PredictorKind::Product { m: 3 }));
        // Non-isomorphic lists stay apart: a triangle is not a 3-path.
        let path =
            ClassScorePredictor::new(&[c(0, 1), c(1, 2), c(2, 3)], 4, ScoreMode::ExactTarget);
        let tri = ClassScorePredictor::new(&[c(0, 1), c(1, 2), c(0, 2)], 4, ScoreMode::ExactTarget);
        assert_ne!(path, tri);
    }

    #[test]
    fn backend_routed_scores_match_inline_fast_path() {
        // The default engine (analytic scalar path) against the dense
        // reference, on a multi-component circuit under both statistics.
        use itqc_backend::BackendChoice;
        let faults =
            [(Coupling::new(0, 3), 0.22), (Coupling::new(1, 2), -0.07), (Coupling::new(4, 5), 0.4)];
        let default = ExactExecutor::new(8).with_faults(faults);
        let spec2 = TestSpec::for_couplings(
            "t",
            &[Coupling::new(0, 3), Coupling::new(1, 2), Coupling::new(4, 5), Coupling::new(6, 7)],
            2,
        );
        let spec4 = spec2.clone().with_score(crate::testplan::ScoreMode::WorstQubit);
        for choice in [BackendChoice::Dense, BackendChoice::Analytic] {
            let routed = default.clone().with_backend(choice);
            for spec in [&spec2, &spec4] {
                assert!(
                    (default.exact_score(spec) - routed.exact_score(spec)).abs() < 1e-9,
                    "{choice:?} disagrees on {}",
                    spec.label
                );
            }
        }
        // Preparation reuses one analytic build per distinct circuit.
        let _ = default.prepare(&spec2).unwrap();
        let _ = default.prepare(&spec2).unwrap();
        let (hits, _) = default.backend().analytic().cache_stats();
        assert!(hits >= 1, "repeated spec must hit the preparation cache");
    }

    #[test]
    fn scalar_path_scores_the_32_qubit_all_coupling_canary() {
        // Fig. 9's N = 32 canary under a ±0.10 uniform ambient is one
        // unstructured 32-qubit component: neither the chain sampler nor
        // the dense engine takes it, but the closed-form worst-qubit
        // marginals do, without any preparation.
        use crate::testplan::{canary_for, ScoreMode};
        use rand::{Rng, SeedableRng};
        let n = 32;
        let mut rng = rand::rngs::SmallRng::seed_from_u64(9);
        let couplings: Vec<Coupling> =
            (0..n).flat_map(|a| (a + 1..n).map(move |b| Coupling::new(a, b))).collect();
        let exec = ExactExecutor::new(n)
            .with_faults(couplings.iter().map(|&c| (c, rng.gen_range(-0.10..0.10))));
        let canary = canary_for(&couplings, 2, ScoreMode::WorstQubit);
        let score = exec.exact_score(&canary);
        assert!(score > 0.5 && score <= 1.0, "canary score {score}");
        assert_eq!(exec.backend().analytic().cache_stats(), (0, 0), "no preparation");
    }

    #[test]
    fn prepare_refuses_typed_beyond_the_dense_limit() {
        use itqc_backend::{BackendChoice, BackendError};
        let n = itqc_sim::statevector::MAX_QUBITS + 2;
        let chain: Vec<Coupling> = (1..n).map(|q| Coupling::new(q - 1, q)).collect();
        let spec = TestSpec::for_couplings("wide", &chain, 2);
        let exec = ExactExecutor::new(n).with_backend(BackendChoice::Dense);
        match exec.prepare(&spec) {
            Err(BackendError::SupportTooLarge { support, limit }) => {
                assert_eq!((support, limit), (n, itqc_sim::statevector::MAX_QUBITS));
            }
            other => panic!("expected SupportTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn dense_routed_scores_bypass_the_memo() {
        use itqc_backend::BackendChoice;
        let exec = ExactExecutor::new(6)
            .with_fault(Coupling::new(0, 1), 0.2)
            .with_backend(BackendChoice::Dense);
        let spec = TestSpec::for_couplings("t", &[Coupling::new(0, 1), Coupling::new(2, 3)], 4);
        let _observing = observe_memo();
        let before = memo_traffic();
        let _ = exec.exact_score(&spec);
        let _ = exec.exact_score(&spec.clone().with_score(crate::testplan::ScoreMode::WorstQubit));
        assert_eq!(memo_traffic(), before, "the dense reference engine is unmemoised");
        itqc_obs::set_enabled(false);
    }

    #[test]
    fn trap_canary_scores_identically_on_memo_hit_and_miss() {
        // The fleet canary: all 55 couplings of an 11-qubit trap, with
        // drifted couplings. The exact-score memo is thread-local, so a
        // fresh thread's first run is a miss; this thread runs it twice,
        // the second a hit. Score, clock and Testing seconds must agree
        // bit for bit.
        use crate::testplan::canary_for;
        fn run(canary: &TestSpec) -> [u64; 3] {
            let mut trap = VirtualTrap::new(TrapConfig::ideal(11, 77));
            for (c, u) in [
                (Coupling::new(0, 1), 0.013),
                (Coupling::new(2, 9), -0.021),
                (Coupling::new(4, 7), 0.34),
                (Coupling::new(5, 10), 0.008),
            ] {
                trap.inject_fault(c, u);
            }
            let score = trap.run_test(canary, 100);
            [
                score.to_bits(),
                trap.clock_seconds().to_bits(),
                trap.duty().seconds(Activity::Testing).to_bits(),
            ]
        }
        let couplings: Vec<Coupling> =
            (0..11).flat_map(|a| (a + 1..11).map(move |b| Coupling::new(a, b))).collect();
        let canary = canary_for(&couplings, 4, ScoreMode::ExactTarget);
        let on_fresh_thread = canary.clone();
        let _observing = observe_memo();
        let miss = std::thread::spawn(move || {
            let before = memo_traffic();
            let bits = run(&on_fresh_thread);
            assert_eq!(memo_traffic(), (before.0, before.1 + 1), "a fresh thread misses");
            bits
        })
        .join()
        .expect("miss thread");
        let _ = run(&canary);
        let before = memo_traffic();
        let hit = run(&canary);
        assert_eq!(memo_traffic(), (before.0 + 1, before.1), "the repeat hits");
        assert_eq!(hit, miss);
        itqc_obs::set_enabled(false);
    }

    #[test]
    fn trap_executor_agrees_with_exact_executor() {
        let coupling = Coupling::new(2, 5);
        let u = 0.30;
        let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 42));
        trap.inject_fault(coupling, u);
        let mut oracle = ExactExecutor::new(8).with_fault(coupling, u);
        let spec = TestSpec::for_couplings("t", &[coupling, Coupling::new(0, 1)], 4);
        let f_trap = trap.run_test(&spec, 5000);
        let f_oracle = oracle.run_test(&spec, 1);
        assert!((f_trap - f_oracle).abs() < 0.03, "{f_trap} vs {f_oracle}");
    }
}
