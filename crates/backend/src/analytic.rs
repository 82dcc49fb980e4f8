//! The scalable analytic backend for commuting-XX test circuits.
//!
//! Every gate of a test circuit is an `XX(θ)`; they all commute, so the
//! output state factorizes over the connected components of the coupling
//! graph and each component's amplitudes are an Ising character sum over
//! its own qubits only (see `itqc_sim::xx`). This backend exploits that
//! structure three ways:
//!
//! * **per-qubit marginals** — closed form `⟨Z_q⟩ = Π cos(Θ_qb)`,
//!   `O(degree)` per qubit at any register size;
//! * **exact output probabilities** — one Gray-code sum of `2^c` terms
//!   per *component* (`c` = component size), never `2^N`;
//! * **shot sampling** — the full `2^c` outcome distribution per
//!   component via a Gray-code phase walk plus a Walsh–Hadamard
//!   transform, then one inverse-CDF draw per component per shot
//!   through the canonical sampler of [`crate::dist`].
//!
//! XX gates flip ions in pairs, so output parity is conserved: the
//! phase of a spin configuration equals that of its global flip, every
//! odd-parity outcome has amplitude exactly 0, and the table build walks
//! only the `2^{c−1}` configurations with the top spin up and transforms
//! `2^{c−1}` points (`O(c·2^{c−1})`). The cumulative table is read
//! straight off the transform and keeps only the `2^{c−1}` even-parity
//! states; odd-parity states read an exact 0, and the sampler draws the
//! same strings as from a full-length table. A first-round class test on
//! `N = 32` qubits is a single 16-qubit component: `2^15` table entries
//! from a `2^15`-point walk, milliseconds — where the dense path would
//! need `2^32` amplitudes.
//!
//! Prepared circuits (including their distributions) are memoized in a
//! per-backend cache keyed by the noisy coupling angles, so repeated
//! shot batteries at the same repetition rung reuse one preparation.
//! Single exact scores skip both the tables and the cache: they take the
//! scalar path [`XxAnalyticBackend::score`], memoised across trials.

use crate::cache::PrepCache;
use crate::chain::{self, ChainDist, CHAIN_MAX_SPECIAL};
use crate::dist::{sample_strings_blocked, walsh_hadamard, ComponentDist, SampleComponent};
use crate::memo::{cached_score, SCORE_MEMO_MIN_TERMS};
use crate::{BackendError, PreparedCircuit, ScoreMode};
use itqc_sim::xx::gray_phase_walk;
use itqc_sim::{BitString, XxCircuit};
use rand::rngs::SmallRng;
use std::cell::RefCell;
use std::rc::Rc;
use std::sync::OnceLock;

/// Largest connected component the analytic backend will prepare: the
/// sampling table is `2^{c−1}` entries, so 20 caps it at ~4 MiB of f64
/// CDF.
/// Protocol class tests need `c = N/2` (16 at the paper's 32-qubit
/// ceiling); anything larger returns [`BackendError::SupportTooLarge`].
pub const MAX_COMPONENT: usize = 20;

/// Wall-clock span around one prepared circuit's table build (every
/// component's joint `2^c` table or chain sampler), opened on the first
/// sampling request and so nested under `core.executor.run_test`.
const TABLE_BUILD_SPAN: &str = "backend.table.build";

/// The three stages of one joint table build, nested under
/// [`TABLE_BUILD_SPAN`]: the half phase walk, the transform, and the
/// cumulative table.
const TABLE_WALK_SPAN: &str = "backend.table.walk";
const TABLE_TRANSFORM_SPAN: &str = "backend.table.transform";
const TABLE_CDF_SPAN: &str = "backend.table.cdf";

/// One component's string sampler, selected by size: the joint `2^c`
/// table at or below [`MAX_COMPONENT`] qubits, the conditional-marginal
/// chain sampler ([`crate::chain`]) above it. Both run under the
/// canonical component-ordered sampling scheme of [`crate::dist`] (one
/// pre-scaled uniform per component per shot, joint tie semantics), so
/// the dispatch is invisible to seeded shot streams wherever both
/// engines apply.
#[derive(Clone, Debug)]
pub enum ComponentSampler {
    /// Joint outcome table over the `2^{c−1}` even-parity states
    /// (components of ≤ [`MAX_COMPONENT`] qubits).
    Joint(ComponentDist),
    /// Conditional-marginal chain sampler for oversize near-complete
    /// components.
    Chain(ChainDist),
}

impl ComponentSampler {
    /// The exact probability of the full-register basis string `global`
    /// on this component (bits outside the component are ignored).
    pub fn probability_global(&self, global: BitString) -> f64 {
        match self {
            ComponentSampler::Joint(d) => d.probability(d.local_state(global)),
            ComponentSampler::Chain(d) => d.probability_global(global),
        }
    }
}

impl SampleComponent for ComponentSampler {
    fn qubits(&self) -> &[usize] {
        match self {
            ComponentSampler::Joint(d) => d.qubits(),
            ComponentSampler::Chain(d) => d.qubits(),
        }
    }

    fn mass(&self) -> f64 {
        match self {
            ComponentSampler::Joint(d) => d.mass(),
            ComponentSampler::Chain(d) => d.mass(),
        }
    }

    fn place(&self, x: f64, string: &mut BitString) {
        match self {
            ComponentSampler::Joint(d) => d.place(x, string),
            ComponentSampler::Chain(d) => d.place(x, string),
        }
    }
}

/// The analytic commuting-XX backend with its prepared-circuit cache.
#[derive(Clone, Debug, Default)]
pub struct XxAnalyticBackend {
    cache: Rc<RefCell<PrepCache>>,
}

impl XxAnalyticBackend {
    /// A backend with a fresh cache.
    pub fn new() -> Self {
        Self::default()
    }

    /// (hits, misses) of the prepared-circuit cache — clones of this
    /// backend share one cache, so an executor and its shot-sampling
    /// wrapper reuse each other's preparations.
    pub fn cache_stats(&self) -> (u64, u64) {
        self.cache.borrow().stats()
    }

    /// Prepares a compiled circuit through the cache, or refuses an
    /// oversize component the chain sampler cannot take.
    pub fn prepare(&self, xx: &XxCircuit) -> Result<Rc<dyn PreparedCircuit>, BackendError> {
        if let Some(hit) = self.cache.borrow_mut().get(xx) {
            return Ok(hit);
        }
        let prepared = Rc::new(XxPrepared::prepare(xx.clone())?);
        self.cache.borrow_mut().insert(Rc::clone(&prepared));
        Ok(prepared)
    }

    /// The scalar exact-score path: one statistic of one circuit, with
    /// no sampling tables for components of at most [`MAX_COMPONENT`]
    /// qubits and no preparation-cache traffic.
    ///
    /// * [`ScoreMode::WorstQubit`] — the closed-form marginals.
    /// * [`ScoreMode::ExactTarget`] — [`XxCircuit::fidelity`]'s
    ///   per-component Gray walks while every component fits
    ///   [`MAX_COMPONENT`]; above that, [`XxPrepared::probability`]'s
    ///   chain tables.
    ///
    /// Circuits of at least [`SCORE_MEMO_MIN_TERMS`] couplings are
    /// memoised across trials ([`crate::memo`]), which returns the first
    /// evaluation's float verbatim. Reads no backend state, so it takes
    /// no backend value. Refuses, typed, an oversize component the chain
    /// sampler cannot take.
    pub fn score(xx: &XxCircuit, target: BitString, kind: ScoreMode) -> Result<f64, BackendError> {
        if xx.terms().nth(SCORE_MEMO_MIN_TERMS - 1).is_none() {
            return evaluate(xx, target, kind);
        }
        cached_score(xx, target, kind, || evaluate(xx, target, kind))
    }
}

/// One unmemoised evaluation of [`XxAnalyticBackend::score`]. Component
/// walks and closed-form evaluations are recorded by size as `--metrics`
/// histograms; which evaluations the per-thread memo absorbs depends on
/// the sharding, so both are nondeterministic telemetry.
fn evaluate(xx: &XxCircuit, target: BitString, kind: ScoreMode) -> Result<f64, BackendError> {
    match kind {
        ScoreMode::WorstQubit => {
            if itqc_obs::enabled() {
                let support = xx.support().len() as u64;
                itqc_obs::event::observe_nd("backend.agreement.support_qubits", support, 1);
            }
            Ok(xx.min_qubit_agreement(target))
        }
        ScoreMode::ExactTarget => {
            let masks = xx.component_masks();
            if masks.iter().any(|m| m.count_ones() as usize > MAX_COMPONENT) {
                return Ok(XxPrepared::prepare(xx.clone())?.probability(target));
            }
            if itqc_obs::enabled() {
                for mask in masks {
                    let c = mask.count_ones() as u64;
                    itqc_obs::event::observe_nd("backend.walk.component_qubits", c, 1);
                }
            }
            Ok(xx.fidelity(target))
        }
    }
}

/// A prepared commuting-XX circuit: component split done, distributions
/// materialized lazily on the first sampling request.
///
/// `Send + Sync` (distributions materialize through a [`OnceLock`]), so
/// preparations can be shared across threads behind an `Arc`.
#[derive(Debug)]
pub struct XxPrepared {
    xx: XxCircuit,
    support: Vec<usize>,
    /// One accumulated sub-circuit per connected component (qubits kept
    /// in global numbering), ascending by first qubit, with each
    /// component's qubit bit-mask alongside.
    comp_circuits: Vec<(XxCircuit, BitString)>,
    dists: OnceLock<Vec<ComponentSampler>>,
}

impl XxPrepared {
    /// Prepares an accumulated commuting-XX circuit outside any backend
    /// (no preparation cache).
    pub fn prepare(xx: XxCircuit) -> Result<Self, BackendError> {
        let support = xx.support();
        let comp_circuits = xx.components();
        // Oversize components must carry chain-sampleable structure;
        // the cheap O(c²) plan runs here so an unstructured giant
        // surfaces as a typed refusal at prepare time, never as a 2^c
        // table attempt (or a panic) at first sampling request.
        for (sub, mask) in &comp_circuits {
            if mask.count_ones() as usize > MAX_COMPONENT {
                if let Err(refusal) = chain::plan(sub) {
                    return Err(BackendError::ChainUnsupported {
                        support: refusal.support,
                        special: refusal.special,
                        limit: CHAIN_MAX_SPECIAL,
                    });
                }
            }
        }
        Ok(XxPrepared { xx, support, comp_circuits, dists: OnceLock::new() })
    }

    /// The underlying accumulated circuit.
    pub fn xx(&self) -> &XxCircuit {
        &self.xx
    }

    /// The component samplers, materialized on first use: components of
    /// ≤ [`MAX_COMPONENT`] qubits get the joint `2^c` table, larger ones
    /// the chain sampler (structure validated at prepare time). Every
    /// table is a pure function of its component's exact angle bits.
    pub fn distributions(&self) -> &[ComponentSampler] {
        self.dists.get_or_init(|| {
            let _span = itqc_obs::span::timed(TABLE_BUILD_SPAN);
            self.comp_circuits
                .iter()
                .map(|(sub, mask)| {
                    // Component tables built, by size (`--metrics`
                    // telemetry).
                    let c = mask.count_ones() as usize;
                    itqc_obs::event::observe_nd("backend.prep.component_qubits", c as u64, 1);
                    if c <= MAX_COMPONENT {
                        ComponentSampler::Joint(component_distribution(sub))
                    } else {
                        let dist = ChainDist::build(sub)
                            .expect("oversize component structure validated at prepare time");
                        ComponentSampler::Chain(dist)
                    }
                })
                .collect()
        })
    }
}

/// The outcome distribution of one connected commuting-XX component,
/// built from half the configurations. The X-basis phase
/// `φ(s)` is a quadratic form in the spins, so `φ(s) = φ(−s)`: the phase
/// table `v[y] = e^{−iφ(y)}` satisfies `v[y] = v[ȳ]`, and the amplitude
/// `A(z) = 2^{−c}·Σ_y (−1)^{y·z} v[y]` folds to
/// `A(z′ | t·2^{c−1}) = (1 + (−1)^{t + |z′|})·2^{−c}·B(z′)`, where
/// `B` is the `2^{c−1}`-point transform of the top-spin-up half of `v`.
/// Odd-parity outcomes therefore have amplitude exactly 0 (XX gates flip
/// ions in pairs), and every even-parity one is read off the half table:
/// `P(z′ | parity(z′)·2^{c−1}) = |2^{1−c}·B(z′)|²`. The table keeps the
/// cumulative sum over the even-parity states only, accumulated in one
/// pass over the transform.
fn component_distribution(sub: &XxCircuit) -> ComponentDist {
    let (qubits, re, im) = {
        let _span = itqc_obs::span::timed(TABLE_WALK_SPAN);
        half_phase_table(sub)
    };
    outcome_table(qubits, re, im)
}

/// The outcome table of [`component_distribution`] from the half phase
/// table `v[y]`, `y < 2^{c−1}`, of a `c`-qubit component on `qubits`.
fn outcome_table(qubits: Vec<usize>, mut re: Vec<f64>, mut im: Vec<f64>) -> ComponentDist {
    let c = qubits.len();
    let half = re.len();
    // One WHT stage per lower qubit, half the half-table per stage.
    itqc_obs::event::add_nd("backend.wht.butterflies", ((c as u64 - 1) * half as u64) / 2);
    {
        let _span = itqc_obs::span::timed(TABLE_TRANSFORM_SPAN);
        walsh_hadamard(&mut re, &mut im);
    }
    let _span = itqc_obs::span::timed(TABLE_CDF_SPAN);
    let norm = 1.0 / (half * half) as f64; // |2^{1−c}·WHT|²
                                           // Even-parity state `k` of the table is `z = 2k | parity(k)`; its
                                           // transform index is `z′ = z mod 2^{c−1}`.
    let mut acc = 0.0f64;
    let cdf = (0..half)
        .map(|k| {
            let z = (k << 1 | (k.count_ones() as usize & 1)) & (half - 1);
            let (a, b) = (re[z], im[z]);
            acc += ((a * a + b * b) * norm).max(0.0);
            acc
        })
        .collect();
    ComponentDist::even_parity(qubits, cdf)
}

/// The X-basis phase table `v[y] = e^{−iφ(y)}` over the `2^{c−1}` spin
/// configurations with the top spin up, as split (re, im) parts: the
/// first half of [`gray_phase_walk`] over all `2^c` configurations,
/// storing every phase instead of accumulating one target's sum.
fn half_phase_table(sub: &XxCircuit) -> (Vec<usize>, Vec<f64>, Vec<f64>) {
    let (qubits, w) = sub.coupling_matrix(sub.support_mask());
    let c = qubits.len();
    debug_assert!(c >= 1);
    let half = 1usize << (c - 1);
    let mut re = vec![0.0f64; half];
    let mut im = vec![0.0f64; half];
    gray_phase_walk(&w, c, half, |y, phi| {
        re[y] = phi.cos(); // cis(−φ) = (cos φ, −sin φ)
        im[y] = -phi.sin();
    });
    (qubits, re, im)
}

/// Counts the Joint-vs-Chain sampler dispatch of one sampling call.
/// Counted at *sample* time (not table-build time, which per-thread
/// preparation caches make partition-dependent): the number of
/// sampling calls routed to each engine is logical work, so it belongs
/// to the deterministic snapshot.
fn record_sampler_dispatch(dists: &[ComponentSampler]) {
    if !itqc_obs::enabled() {
        return;
    }
    let joint = dists.iter().filter(|d| matches!(d, ComponentSampler::Joint(_))).count() as u64;
    let chain = dists.len() as u64 - joint;
    if joint > 0 {
        itqc_obs::event::add("backend.sampler.joint_components", joint);
    }
    if chain > 0 {
        itqc_obs::event::add("backend.sampler.chain_components", chain);
    }
}

impl PreparedCircuit for XxPrepared {
    fn n_qubits(&self) -> usize {
        self.xx.n_qubits()
    }

    fn support(&self) -> &[usize] {
        &self.support
    }

    /// [`XxCircuit::fidelity`]'s per-component Gray sums while every
    /// component fits [`MAX_COMPONENT`], whether or not sampling has
    /// materialized the tables; otherwise the product of per-component
    /// table lookups, since an oversize component makes the Gray sum
    /// intractable and the chain sampler's `(z_T, k)` table answers any
    /// target in `O(c)`.
    fn probability(&self, target: BitString) -> f64 {
        if self.comp_circuits.iter().all(|(_, m)| m.count_ones() as usize <= MAX_COMPONENT) {
            return self.xx.fidelity(target);
        }
        // Off-support bits must stay |0⟩.
        let mask = self.comp_circuits.iter().fold(0 as BitString, |m, (_, c)| m | c);
        if target & !mask != 0 {
            return 0.0;
        }
        self.distributions().iter().map(|d| d.probability_global(target)).product()
    }

    fn marginal_one(&self, q: usize) -> f64 {
        self.xx.marginal_one(q)
    }

    fn sample(&self, rng: &mut SmallRng, shots: usize) -> Vec<BitString> {
        let dists = self.distributions();
        record_sampler_dispatch(dists);
        sample_strings_blocked(dists, rng, shots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::FRAC_PI_2;

    fn random_xx(rng: &mut SmallRng, n: usize, gates: usize) -> XxCircuit {
        let mut xx = XxCircuit::new(n);
        for _ in 0..gates {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            xx.add_xx(a, b, rng.gen_range(-3.0..3.0));
        }
        xx
    }

    fn joint(d: &ComponentSampler) -> &ComponentDist {
        match d {
            ComponentSampler::Joint(j) => j,
            ComponentSampler::Chain(_) => panic!("expected a joint table"),
        }
    }

    /// The reference table build: the Gray walk over all `2^c`
    /// configurations and the `2^c`-point transform, with no use of the
    /// parity symmetry. Returns the full phase table and the
    /// probabilities.
    fn full_walk(sub: &XxCircuit) -> (Vec<f64>, Vec<f64>, Vec<f64>) {
        let (qubits, w) = sub.coupling_matrix(sub.support_mask());
        let c = qubits.len();
        let size = 1usize << c;
        let mut re = vec![0.0f64; size];
        let mut im = vec![0.0f64; size];
        let mut s = vec![1.0f64; c];
        let mut r: Vec<f64> = (0..c).map(|q| (0..c).map(|b| w[q * c + b]).sum()).collect();
        let mut phi: f64 = 0.25 * r.iter().sum::<f64>();
        let mut y = 0usize;
        re[0] = phi.cos();
        im[0] = -phi.sin();
        for k in 1..size {
            let q = k.trailing_zeros() as usize;
            phi -= s[q] * r[q];
            let delta = -2.0 * s[q];
            for b in 0..c {
                if b != q {
                    r[b] += w[q * c + b] * delta;
                }
            }
            s[q] = -s[q];
            y ^= 1 << q;
            re[y] = phi.cos();
            im[y] = -phi.sin();
        }
        let phases = (re.clone(), im.clone());
        walsh_hadamard(&mut re, &mut im);
        let norm = 1.0 / (size * size) as f64;
        let probs = re.iter().zip(&im).map(|(&a, &b)| (a * a + b * b) * norm).collect();
        (phases.0, phases.1, probs)
    }

    /// One connected `c`-qubit component on qubits `0..c` of an
    /// `n`-qubit register: a random-angle path plus random chords.
    fn random_component(rng: &mut SmallRng, c: usize, n: usize) -> XxCircuit {
        let mut xx = XxCircuit::new(n);
        for q in 1..c {
            xx.add_xx(q - 1, q, rng.gen_range(-3.0..3.0));
        }
        for _ in 0..2 * c {
            let a = rng.gen_range(0..c);
            let b = rng.gen_range(0..c);
            if a != b {
                xx.add_xx(a, b, rng.gen_range(-3.0..3.0));
            }
        }
        xx
    }

    /// A `c`-qubit complete class on qubits `0..c` with every coupling
    /// under-rotated by a random 0–10 %: the concentrated distributions
    /// of the Fig. 8 class tests, where rounding differences are largest.
    fn random_class(rng: &mut SmallRng, c: usize, n: usize) -> XxCircuit {
        let mut xx = XxCircuit::new(n);
        for a in 0..c {
            for b in a + 1..c {
                xx.add_xx(a, b, 2.0 * FRAC_PI_2 * (1.0 - rng.gen_range(0.0..0.1)));
            }
        }
        xx
    }

    #[test]
    fn parity_halved_table_matches_the_full_walk() {
        let mut rng = SmallRng::seed_from_u64(19);
        for c in 2..=16usize {
            let shapes = [random_component(&mut rng, c, c + 1), random_class(&mut rng, c, c + 1)];
            for xx in shapes {
                check_against_full_walk(&xx, c);
            }
        }
    }

    /// The parity-halved build of the one `c`-qubit component of `xx`
    /// against [`full_walk`]: the half walk is the full walk's first
    /// half bit for bit, odd-parity outcomes read exactly 0, and every
    /// probability agrees to 1e-12.
    fn check_against_full_walk(xx: &XxCircuit, c: usize) {
        assert_eq!(xx.component_masks().len(), 1);
        let (full_re, full_im, full_probs) = full_walk(xx);
        let (qubits, half_re, half_im) = half_phase_table(xx);
        assert_eq!(qubits.len(), c);
        let half = 1usize << (c - 1);
        assert_eq!(half_re.len(), half);
        for y in 0..half {
            assert_eq!(half_re[y].to_bits(), full_re[y].to_bits(), "c={c} re[{y}]");
            assert_eq!(half_im[y].to_bits(), full_im[y].to_bits(), "c={c} im[{y}]");
        }
        let table = component_distribution(xx);
        assert_eq!(table.qubits(), &qubits[..]);
        for (z, &f) in full_probs.iter().enumerate() {
            let p = table.probability(z);
            if z.count_ones() % 2 == 1 {
                assert_eq!(p.to_bits(), 0.0f64.to_bits(), "c={c} odd z={z:b} reads {p}");
            }
            assert!((p - f).abs() < 1e-12, "c={c} z={z:b}: {p} vs full walk {f}");
        }
    }

    /// The reference outcome table from a half phase table: the radix-2
    /// transform, a full `2^c` probability vector with exact zeros on
    /// odd parity, and the full-layout [`ComponentDist::new`].
    fn reference_table(qubits: Vec<usize>, mut re: Vec<f64>, mut im: Vec<f64>) -> ComponentDist {
        crate::dist::tests::radix2_walsh_hadamard(&mut re, &mut im);
        let c = qubits.len();
        let half = re.len();
        let norm = 1.0 / (half * half) as f64;
        let top = c - 1;
        let mut probs = vec![0.0f64; half << 1];
        for (z, (&a, &b)) in re.iter().zip(&im).enumerate() {
            probs[z | (z.count_ones() as usize & 1) << top] = (a * a + b * b) * norm;
        }
        ComponentDist::new(qubits, &probs)
    }

    /// `table` against `reference` on a `c`-qubit component: every
    /// probability bit-equal, and 4,100 strings (past one 4,096-shot
    /// block) drawn from one seed bit-equal.
    fn check_against_reference(table: &ComponentDist, reference: &ComponentDist, c: usize) {
        assert_eq!(table.qubits(), reference.qubits());
        for z in 0..1usize << c {
            let (p, r) = (table.probability(z), reference.probability(z));
            assert_eq!(p.to_bits(), r.to_bits(), "c={c} z={z:b}: {p} vs reference {r}");
        }
        assert_eq!(table.mass().to_bits(), reference.mass().to_bits(), "c={c} mass");
        let shots = crate::SAMPLE_BLOCK_SHOTS + 4;
        let mut rng = SmallRng::seed_from_u64(c as u64);
        let drawn = sample_strings_blocked(std::slice::from_ref(table), &mut rng, shots);
        let mut rng = SmallRng::seed_from_u64(c as u64);
        let expected = sample_strings_blocked(std::slice::from_ref(reference), &mut rng, shots);
        assert_eq!(drawn, expected, "c={c} sampled strings");
    }

    #[test]
    fn outcome_table_matches_the_reference_build_bit_for_bit() {
        // No XX circuit has a one-qubit component, so c = 1 goes in as a
        // one-entry phase table.
        let (re, im) = (vec![0.3f64.cos()], vec![-0.3f64.sin()]);
        let table = outcome_table(vec![4], re.clone(), im.clone());
        check_against_reference(&table, &reference_table(vec![4], re, im), 1);
        let mut rng = SmallRng::seed_from_u64(26);
        for c in 2..=16usize {
            let shapes = [random_component(&mut rng, c, c + 1), random_class(&mut rng, c, c + 1)];
            for xx in shapes {
                let (qubits, re, im) = half_phase_table(&xx);
                let reference = reference_table(qubits, re, im);
                check_against_reference(&component_distribution(&xx), &reference, c);
            }
        }
    }

    #[test]
    fn a_draw_at_the_full_mass_clamps_to_the_last_even_parity_state() {
        // x = mass (a top uniform whose product with the mass rounds up
        // to it) runs past every entry and clamps to the last one. The
        // full-length reference clamps to state 2^c − 1, which has odd
        // parity and probability 0 when c is odd; the even-parity table
        // clamps to 2^c − 2 there, and to the same 2^c − 1 when c is even.
        let mut rng = SmallRng::seed_from_u64(27);
        for c in 2..=9usize {
            let xx = random_component(&mut rng, c, c);
            let (qubits, re, im) = half_phase_table(&xx);
            let reference = reference_table(qubits, re, im);
            let table = component_distribution(&xx);
            let (mut s, mut r) = (0 as BitString, 0 as BitString);
            table.place(table.mass(), &mut s);
            reference.place(reference.mass(), &mut r);
            let top = (1 as BitString) << c;
            assert_eq!(r, top - 1, "c={c} reference");
            assert_eq!(s, if c % 2 == 1 { top - 2 } else { top - 1 }, "c={c}");
        }
    }

    #[test]
    fn sampled_strings_have_even_parity_on_every_component() {
        let mut rng = SmallRng::seed_from_u64(23);
        for case in 0..20 {
            let n = rng.gen_range(2..=10);
            let gates = rng.gen_range(1..=12);
            let xx = random_xx(&mut rng, n, gates);
            let masks = xx.component_masks();
            let prep = XxPrepared::prepare(xx).unwrap();
            for s in PreparedCircuit::sample(&prep, &mut rng, 300) {
                for &m in &masks {
                    assert_eq!((s & m).count_ones() % 2, 0, "case {case}: {s:b} on {m:b}");
                }
            }
        }
    }

    #[test]
    fn probability_does_not_depend_on_whether_tables_exist() {
        let mut rng = SmallRng::seed_from_u64(29);
        for _ in 0..10 {
            let xx = random_xx(&mut rng, 7, 9);
            let prep = XxPrepared::prepare(xx.clone()).unwrap();
            let targets: Vec<BitString> =
                (0..12).map(|_| rng.gen_range(0..(1usize << 7)) as BitString).collect();
            let before: Vec<u64> = targets.iter().map(|&t| prep.probability(t).to_bits()).collect();
            let _ = prep.distributions();
            let after: Vec<u64> = targets.iter().map(|&t| prep.probability(t).to_bits()).collect();
            assert_eq!(before, after);
            for &t in &targets {
                assert_eq!(prep.probability(t).to_bits(), xx.fidelity(t).to_bits());
            }
        }
    }

    #[test]
    fn component_distribution_matches_gray_sum_fidelities() {
        let mut rng = SmallRng::seed_from_u64(11);
        for _ in 0..10 {
            let xx = random_xx(&mut rng, 7, 9);
            let prep = XxPrepared::prepare(xx.clone()).unwrap();
            let dists = prep.distributions();
            for _ in 0..12 {
                let target = rng.gen_range(0..(1usize << 7)) as BitString;
                let tables: f64 = dists.iter().map(|d| d.probability_global(target)).product();
                let support = xx.support().iter().fold(0 as BitString, |m, &q| m | 1 << q);
                let tables = if target & !support == 0 { tables } else { 0.0 };
                assert!((xx.fidelity(target) - tables).abs() < 1e-10, "target {target:07b}");
            }
        }
    }

    #[test]
    fn distribution_normalizes_and_respects_components() {
        // Two disjoint pairs → two 2-qubit components, each P(00)=P(11)=½.
        let mut xx = XxCircuit::new(6);
        xx.add_xx(0, 2, FRAC_PI_2).add_xx(3, 5, FRAC_PI_2);
        let prep = XxPrepared::prepare(xx).unwrap();
        let dists = prep.distributions();
        assert_eq!(dists.len(), 2);
        assert_eq!(dists[0].qubits(), &[0, 2]);
        assert_eq!(dists[1].qubits(), &[3, 5]);
        for d in dists {
            let d = joint(d);
            assert!((d.probability(0) - 0.5).abs() < 1e-12);
            assert!((d.probability(0b11) - 0.5).abs() < 1e-12);
            assert!(d.probability(0b01) < 1e-12);
        }
        // Sampled strings only ever flip pairs together.
        let mut rng = SmallRng::seed_from_u64(3);
        for s in PreparedCircuit::sample(&prep, &mut rng, 200) {
            let pair1 = (s & 1, (s >> 2) & 1);
            let pair2 = ((s >> 3) & 1, (s >> 5) & 1);
            assert_eq!(pair1.0, pair1.1);
            assert_eq!(pair2.0, pair2.1);
        }
    }

    #[test]
    fn cache_returns_shared_preparations() {
        let backend = XxAnalyticBackend::new();
        let mut xx = XxCircuit::new(4);
        xx.add_xx(0, 1, 0.7).add_xx(2, 3, -0.2);
        let a = backend.prepare(&xx).unwrap();
        let b = backend.prepare(&xx.clone()).unwrap();
        assert!(Rc::ptr_eq(&a, &b), "identical circuits must share one preparation");
        let (hits, misses) = backend.cache_stats();
        assert_eq!((hits, misses), (1, 1));
    }

    #[test]
    fn prepared_circuits_are_send_sync_with_size_accounting() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<XxPrepared>();
        // Two disjoint pairs → components of 2 qubits each.
        let mut xx = XxCircuit::new(6);
        xx.add_xx(0, 2, 0.3).add_xx(3, 5, 0.4);
        let prep = XxPrepared::prepare(xx).unwrap();
        let sizes: Vec<usize> = prep.distributions().iter().map(|d| d.qubits().len()).collect();
        assert_eq!(sizes, vec![2, 2]);
    }

    #[test]
    fn oversized_component_without_structure_is_rejected_typed() {
        // A star has no complete-graph bulk: every present edge deviates
        // from the modal (absent-pair) angle, so all qubits are special
        // and the chain sampler must refuse — with a typed error at
        // prepare time, not a 2^22 table attempt downstream.
        let mut xx = XxCircuit::new(MAX_COMPONENT + 2);
        for q in 1..MAX_COMPONENT + 2 {
            xx.add_xx(0, q, 0.1); // a star: one (MAX_COMPONENT+2)-qubit component
        }
        match XxPrepared::prepare(xx) {
            Err(BackendError::ChainUnsupported { support, special, limit }) => {
                assert_eq!(support, MAX_COMPONENT + 2);
                assert_eq!(special, MAX_COMPONENT + 2);
                assert_eq!(limit, CHAIN_MAX_SPECIAL);
            }
            other => panic!("expected ChainUnsupported, got {other:?}"),
        }
    }

    #[test]
    fn oversized_complete_component_now_prepares_and_samples() {
        // The old hard cap: a 24-qubit complete class was
        // SupportTooLarge. The chain path accepts it (t = 0) and
        // samples full strings; its marginals must track closed form.
        let mut xx = XxCircuit::new(24);
        for a in 0..24usize {
            for b in (a + 1)..24 {
                xx.add_xx(a, b, 2.0 * FRAC_PI_2 * 0.96);
            }
        }
        let prep = XxPrepared::prepare(xx).unwrap();
        let dists = prep.distributions();
        assert_eq!(dists.len(), 1);
        assert!(matches!(dists[0], ComponentSampler::Chain(_)));
        let p_one = prep.marginal_one(0);
        let mut rng = SmallRng::seed_from_u64(17);
        let shots = 4000usize;
        let strings = PreparedCircuit::sample(&prep, &mut rng, shots);
        let sampled = strings.iter().filter(|&&s| s & 1 == 1).count() as f64 / shots as f64;
        let sigma = (p_one * (1.0 - p_one) / shots as f64).sqrt().max(1e-4);
        assert!((sampled - p_one).abs() < 5.0 * sigma, "sampled {sampled} vs closed-form {p_one}");
    }

    #[test]
    fn thirty_two_qubit_class_component_prepares_fast() {
        // The Fig. 8 workload: a 16-qubit complete class on 32 qubits.
        let mut xx = XxCircuit::new(32);
        let class: Vec<usize> = (0..32).filter(|q| q % 2 == 0).collect();
        for (i, &a) in class.iter().enumerate() {
            for &b in &class[i + 1..] {
                xx.add_xx(a, b, 2.0 * FRAC_PI_2 * 0.97);
            }
        }
        let prep = XxPrepared::prepare(xx).unwrap();
        let dists = prep.distributions();
        assert_eq!(dists.len(), 1);
        assert_eq!(dists[0].qubits().len(), 16);
        let mut rng = SmallRng::seed_from_u64(9);
        let strings = PreparedCircuit::sample(&prep, &mut rng, 50);
        assert_eq!(strings.len(), 50);
        // Odd (untouched) qubits always read 0.
        for s in strings {
            assert_eq!(s & 0xAAAA_AAAA, 0);
        }
    }
}
