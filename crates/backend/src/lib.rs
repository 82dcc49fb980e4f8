//! Pluggable simulation backends for the `itqc` workspace.
//!
//! Everything above the simulators — executors, protocols, the
//! experiment harness — talks to simulation through one seam, the
//! [`SimBackend`] trait: *prepare a circuit, then ask the preparation
//! for per-qubit marginals, exact output probabilities, or seeded shot
//! strings*. Two implementations ship:
//!
//! * [`DenseBackend`] — the general state-vector path, compressed onto
//!   the circuit's support (exact for any gate set, memory `2^support`);
//! * [`XxAnalyticBackend`] — the scalable engine for commuting-XX test
//!   circuits: closed-form marginals, per-*component* Gray-code /
//!   Walsh–Hadamard output distributions (`2^c` for a `c`-qubit
//!   component, never `2^N`), and a prepared-circuit cache keyed by the
//!   noisy coupling angles so repeated shot batteries at one repetition
//!   rung reuse a single preparation.
//!
//! [`Backend`] routes between them: `dense` and `analytic` force one
//! engine, [`BackendChoice::Auto`] tries the analytic engine and falls
//! back to dense whenever the circuit leaves the commuting-XX family
//! (e.g. the footnote-8 SWAP-insertion test) or a component outgrows
//! the analytic sampling table.
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

use itqc_circuit::Circuit;
use rand::rngs::SmallRng;
use std::fmt;
use std::rc::Rc;
use std::str::FromStr;

/// Why a backend refused a circuit.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BackendError {
    /// The analytic engine only evaluates products of `XX(θ)` gates.
    NotCommutingXx,
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
            BackendError::NotCommutingXx => {
                write!(f, "circuit contains non-XX gates; only the dense backend applies")
            }
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
    /// component-ordered sampler (one uniform variate per component per
    /// shot; untouched qubits read 0).
    fn sample(&self, rng: &mut SmallRng, shots: usize) -> Vec<BitString>;

    /// Blocked variant of [`sample`](PreparedCircuit::sample): draws
    /// whole shot blocks against flat cumulative tables where the
    /// backend supports it. **Bit-identical** to `sample` from the same
    /// RNG state — implementations must consume the uniform stream in
    /// the canonical shot-major order, so callers may switch freely.
    /// The default delegates to the per-shot path.
    fn sample_block(&self, rng: &mut SmallRng, shots: usize) -> Vec<BitString> {
        self.sample(rng, shots)
    }
}

/// A simulation engine: turns circuits into [`PreparedCircuit`]s.
pub trait SimBackend {
    /// Short name for CLI flags and reports (`"dense"`, `"analytic"`).
    fn name(&self) -> &'static str;

    /// Prepares `circuit` for evaluation, or explains why this engine
    /// cannot run it.
    fn prepare(&self, circuit: &Circuit) -> Result<Rc<dyn PreparedCircuit>, BackendError>;
}

/// CLI-level backend selection (`--backend=dense|analytic|auto`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Always the dense state-vector path.
    Dense,
    /// Always the analytic commuting-XX engine (errors on other gates).
    Analytic,
    /// Analytic when the circuit qualifies, dense otherwise.
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

    /// Prepares a circuit under the selection policy.
    pub fn prepare(&self, circuit: &Circuit) -> Result<Rc<dyn PreparedCircuit>, BackendError> {
        match self.choice {
            BackendChoice::Dense => self.dense.prepare(circuit),
            BackendChoice::Analytic => self.analytic.prepare(circuit),
            BackendChoice::Auto => match self.analytic.prepare(circuit) {
                Ok(prepared) => Ok(prepared),
                Err(_) => self.dense.prepare(circuit),
            },
        }
    }
}

impl SimBackend for Backend {
    fn name(&self) -> &'static str {
        match self.choice {
            BackendChoice::Dense => "dense",
            BackendChoice::Analytic => "analytic",
            BackendChoice::Auto => "auto",
        }
    }

    fn prepare(&self, circuit: &Circuit) -> Result<Rc<dyn PreparedCircuit>, BackendError> {
        Backend::prepare(self, circuit)
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
    fn auto_routes_xx_to_analytic_and_swap_to_dense() {
        let backend = Backend::new(BackendChoice::Auto);
        let mut xx = Circuit::new(4);
        xx.xx(0, 1, FRAC_PI_2);
        backend.prepare(&xx).expect("XX circuit prepares");
        let (_, misses) = backend.analytic().cache_stats();
        assert_eq!(misses, 1, "the analytic engine must have taken the XX circuit");

        // A SWAP leaves the commuting family; auto must fall back.
        let mut swap = Circuit::new(4);
        swap.xx(0, 1, FRAC_PI_2).swap(1, 2);
        let prep = backend.prepare(&swap).expect("dense fallback");
        assert_eq!(prep.support(), &[0, 1, 2]);
        // Forcing analytic on it must refuse instead.
        let forced = Backend::new(BackendChoice::Analytic);
        assert_eq!(forced.prepare(&swap).unwrap_err(), BackendError::NotCommutingXx);
    }

    #[test]
    fn dense_and_analytic_agree_through_the_router() {
        let mut c = Circuit::new(5);
        c.xx(0, 3, 1.1).xx(3, 4, -0.4).xx(0, 4, 0.9).xx(1, 2, 2.2);
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
