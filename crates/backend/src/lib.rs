//! Pluggable simulation backends for the `itqc` workspace.
//!
//! Everything above the simulators — executors, protocols, the
//! experiment harness — talks to simulation through one seam: *prepare
//! a compiled [`XxCircuit`], then ask the [`PreparedCircuit`] for
//! per-qubit marginals, exact output probabilities, or seeded shot
//! strings*. Every diagnostic test is a product of commuting `XX(θ)`
//! gates, compiled once per query into an `XxCircuit` (one
//! accumulated angle per coupling) that the engines, the score memo
//! and the preparation cache all take. Two engines ship:
//!
//! * [`DenseBackend`] — the state-vector reference, one `XX(Θ)` gate
//!   per coupling, compressed onto the circuit's support (memory
//!   `2^support`);
//! * [`XxAnalyticBackend`] — the scalable engine: closed-form
//!   marginals, per-*component* Gray-code / Walsh–Hadamard output
//!   distributions (`2^c` for a `c`-qubit component, never `2^N`), and
//!   a prepared-circuit cache keyed by the compiled circuit so repeated
//!   shot batteries at one repetition rung reuse a single preparation.
//!
//! [`Backend`] routes between them: `dense` and `analytic` force one
//! engine, [`BackendChoice::Auto`] tries the analytic engine and falls
//! back to dense when a component outgrows the analytic sampling table
//! without the structure the chain sampler needs.
//!
//! Both backends sample output strings through the *same* canonical
//! component-ordered inverse-CDF scheme ([`dist`]), so given one RNG
//! stream they agree bit-for-bit wherever both apply — the property the
//! cross-backend equivalence suite pins at `N ≤ 12`.

#![warn(missing_docs)]

pub mod analytic;
pub mod cache;
pub mod chain;
pub mod dense;
pub mod dist;
pub mod memo;

pub use analytic::{ComponentSampler, XxAnalyticBackend, XxPrepared, MAX_COMPONENT};
pub use chain::{ChainDist, CHAIN_MAX_SPECIAL};
pub use dense::DenseBackend;
pub use dist::{sample_strings_blocked, SampleComponent, SAMPLE_BLOCK_SHOTS};
pub use itqc_sim::BitString;

use itqc_sim::XxCircuit;
use rand::rngs::SmallRng;
use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

/// Why a backend refused a circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// A connected component (analytic) or the whole support (dense)
    /// exceeds the backend's table limit.
    SupportTooLarge {
        /// Offending component/support size in qubits.
        support: usize,
        /// The backend's limit.
        limit: usize,
    },
    /// A component is too large for the joint table *and* lacks the
    /// near-complete structure the chain sampler needs: too many qubits
    /// touch pairs deviating from the component's modal coupling angle.
    ChainUnsupported {
        /// Offending component size in qubits.
        support: usize,
        /// Special (deviant-pair) qubits the component would need.
        special: usize,
        /// The chain sampler's special-set limit.
        limit: usize,
    },
}

impl fmt::Display for BackendError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BackendError::SupportTooLarge { support, limit } => {
                write!(f, "{support}-qubit support exceeds the backend limit of {limit}")
            }
            BackendError::ChainUnsupported { support, special, limit } => {
                write!(
                    f,
                    "{support}-qubit component needs {special} special qubits for chain \
                     sampling (limit {limit}); no joint table above {MAX_COMPONENT} qubits"
                )
            }
        }
    }
}

/// A circuit prepared for repeated evaluation.
///
/// Preparations are cheap handles behind `Rc`; the analytic backend
/// returns the *same* preparation for byte-identical circuits, so the
/// expensive sampling tables are shared between an executor and its
/// shot-sampling wrapper.
pub trait PreparedCircuit: fmt::Debug {
    /// Register size of the original circuit.
    fn n_qubits(&self) -> usize;

    /// The sorted qubits touched by at least one gate.
    fn support(&self) -> &[usize];

    /// The exact outcome probability `|⟨target|U|0…0⟩|²`.
    fn probability(&self, target: BitString) -> f64;

    /// The exact probability that qubit `q` measures `|1⟩`.
    fn marginal_one(&self, q: usize) -> f64;

    /// The probability that qubit `q` reads the corresponding bit of
    /// `target`.
    fn qubit_agreement(&self, q: usize, target: BitString) -> f64 {
        let p1 = self.marginal_one(q);
        if (target >> q) & 1 == 1 {
            p1
        } else {
            1.0 - p1
        }
    }

    /// The worst per-qubit agreement with `target` over the support —
    /// the population statistic of the scaling experiments. 1 for an
    /// empty circuit.
    fn min_qubit_agreement(&self, target: BitString) -> f64 {
        self.support().iter().map(|&q| self.qubit_agreement(q, target)).fold(1.0, f64::min)
    }

    /// Draws `shots` full output strings via the canonical
    /// component-ordered scheme (one uniform variate per component per
    /// shot, consumed shot-major; untouched qubits read 0), resolved in
    /// blocks by [`sample_strings_blocked`]. **Bit-identical** to the
    /// per-shot reference [`dist::sample_strings`] from the same RNG
    /// state.
    fn sample(&self, rng: &mut SmallRng, shots: usize) -> Vec<BitString>;
}

/// How a test's pass/fail statistic is computed from measurements.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq, Hash)]
pub enum ScoreMode {
    /// Fraction of shots landing exactly on the expected output string —
    /// the paper's literal "the test passes if the resulting state matches
    /// the initial state" (§VI). Sharp at hardware scale, but collapses
    /// exponentially with class size under ambient miscalibration.
    #[default]
    ExactTarget,
    /// The worst per-qubit agreement with the expected string ("deviation
    /// of the output population"). Scales to 32-qubit class tests where
    /// the exact-string probability vanishes (DESIGN.md §3); used by the
    /// Fig. 8/9 and Table II scaling reproductions.
    WorstQubit,
}

/// The measured worst-qubit count: for each `support` qubit, how many
/// of `strings` read its bit of `target`, minimised over the support
/// (`strings.len()` for an empty support). Every count comes from the
/// same strings, so the per-qubit counts are correlated exactly as a
/// hardware run's are. The one [`ScoreMode::WorstQubit`] readout of
/// sampled strings, shared by the string samplers and the virtual trap.
pub fn worst_qubit_count(strings: &[BitString], support: &[usize], target: BitString) -> usize {
    support
        .iter()
        .map(|&q| {
            let want = (target >> q) & 1;
            strings.iter().filter(|&&s| (s >> q) & 1 == want).count()
        })
        .min()
        .unwrap_or(strings.len())
}

/// CLI-level backend selection (`--backend=dense|analytic|auto`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Always the dense state-vector path.
    Dense,
    /// Always the analytic commuting-XX engine (refuses an oversize
    /// component the chain sampler cannot take).
    Analytic,
    /// Analytic, falling back to dense on a component it refuses.
    #[default]
    Auto,
}

impl FromStr for BackendChoice {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "dense" => Ok(BackendChoice::Dense),
            "analytic" => Ok(BackendChoice::Analytic),
            "auto" => Ok(BackendChoice::Auto),
            other => Err(format!("unknown backend '{other}' (dense|analytic|auto)")),
        }
    }
}

impl fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            BackendChoice::Dense => "dense",
            BackendChoice::Analytic => "analytic",
            BackendChoice::Auto => "auto",
        })
    }
}

/// The backend router: owns the engines a [`BackendChoice`] selects
/// between. Cloning shares the analytic engine's preparation cache.
#[derive(Clone, Debug)]
pub struct Backend {
    choice: BackendChoice,
    analytic: XxAnalyticBackend,
    dense: DenseBackend,
}

impl Backend {
    /// A router for the given selection policy.
    pub fn new(choice: BackendChoice) -> Self {
        Backend { choice, analytic: XxAnalyticBackend::new(), dense: DenseBackend::new() }
    }

    /// The selection policy.
    pub fn choice(&self) -> BackendChoice {
        self.choice
    }

    /// The analytic engine: its scalar score path and cache statistics.
    pub fn analytic(&self) -> &XxAnalyticBackend {
        &self.analytic
    }

    /// Prepares a compiled circuit under the selection policy.
    pub fn prepare(&self, xx: &XxCircuit) -> Result<Rc<dyn PreparedCircuit>, BackendError> {
        match self.choice {
            BackendChoice::Dense => self.dense.prepare(xx),
            BackendChoice::Analytic => self.analytic.prepare(xx),
            BackendChoice::Auto => match self.analytic.prepare(xx) {
                Ok(prepared) => Ok(prepared),
                Err(_) => self.dense.prepare(xx),
            },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn choice_parses_and_displays() {
        for (s, c) in [
            ("dense", BackendChoice::Dense),
            ("analytic", BackendChoice::Analytic),
            ("auto", BackendChoice::Auto),
        ] {
            assert_eq!(s.parse::<BackendChoice>(), Ok(c));
            assert_eq!(c.to_string(), s);
        }
        assert!("fast".parse::<BackendChoice>().is_err());
    }

    #[test]
    fn worst_qubit_count_matches_a_naive_per_qubit_count() {
        use rand::Rng;
        let mut rng = SmallRng::seed_from_u64(5);
        for _ in 0..50 {
            let strings: Vec<BitString> = (0..rng.gen_range(0..40))
                .map(|_| rng.gen_range(0u64..1 << 10) as BitString)
                .collect();
            let support: Vec<usize> = (0..10).filter(|_| rng.gen_bool(0.5)).collect();
            let target = rng.gen_range(0u64..1 << 10) as BitString;
            // Naive: tally every qubit of every string, then take the
            // minimum over the support.
            let mut agree = [0usize; 10];
            for &s in &strings {
                for (q, n) in agree.iter_mut().enumerate() {
                    if (s >> q) & 1 == (target >> q) & 1 {
                        *n += 1;
                    }
                }
            }
            let naive = support.iter().map(|&q| agree[q]).min().unwrap_or(strings.len());
            assert_eq!(worst_qubit_count(&strings, &support, target), naive);
        }
    }

    #[test]
    fn auto_routes_xx_to_analytic_and_oversize_components_to_dense() {
        let backend = Backend::new(BackendChoice::Auto);
        let mut xx = XxCircuit::new(4);
        xx.add_xx(0, 1, FRAC_PI_2);
        backend.prepare(&xx).expect("XX circuit prepares");
        let (_, misses) = backend.analytic().cache_stats();
        assert_eq!(misses, 1, "the analytic engine must have taken the XX circuit");

        // A star one qubit past the joint tables has no chain structure:
        // the analytic engine refuses it, so auto must fall back.
        let n = MAX_COMPONENT + 1;
        let mut star = XxCircuit::new(n);
        for q in 1..n {
            star.add_xx(0, q, 0.3);
        }
        let forced = Backend::new(BackendChoice::Analytic);
        assert!(matches!(forced.prepare(&star), Err(BackendError::ChainUnsupported { .. })));
        let prep = backend.prepare(&star).expect("dense fallback");
        assert_eq!(prep.support(), (0..n).collect::<Vec<_>>());
        assert!((prep.marginal_one(0) - star.marginal_one(0)).abs() < 1e-9);
    }

    #[test]
    fn dense_and_analytic_agree_through_the_router() {
        let mut c = XxCircuit::new(5);
        c.add_xx(0, 3, 1.1).add_xx(3, 4, -0.4).add_xx(0, 4, 0.9).add_xx(1, 2, 2.2);
        let dense = Backend::new(BackendChoice::Dense).prepare(&c).unwrap();
        let analytic = Backend::new(BackendChoice::Analytic).prepare(&c).unwrap();
        assert_eq!(dense.support(), analytic.support());
        for target in 0..(1 << 5) as BitString {
            assert!(
                (dense.probability(target) - analytic.probability(target)).abs() < 1e-9,
                "target {target:05b}"
            );
        }
        for q in 0..5 {
            assert!((dense.marginal_one(q) - analytic.marginal_one(q)).abs() < 1e-9);
            assert!(
                (dense.qubit_agreement(q, 0b10110) - analytic.qubit_agreement(q, 0b10110)).abs()
                    < 1e-9
            );
        }
        assert!(
            (dense.min_qubit_agreement(0b11) - analytic.min_qubit_agreement(0b11)).abs() < 1e-9
        );
        // Bit-for-bit sampling under a shared seed.
        let mut r1 = SmallRng::seed_from_u64(1234);
        let mut r2 = SmallRng::seed_from_u64(1234);
        assert_eq!(dense.sample(&mut r1, 256), analytic.sample(&mut r2, 256));
    }
}
