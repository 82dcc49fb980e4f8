//! Exact analytic engine for commuting-XX circuits.
//!
//! Every test circuit in the paper's protocols is a product of `XX(θ)`
//! gates (§V): these all commute and are jointly diagonal in the X basis,
//! so output amplitudes reduce to an Ising-type character sum over the
//! qubits the circuit actually touches:
//!
//! `⟨z|U|0⟩ = 2^{−m} Σ_{y∈{0,1}^m} (−1)^{y·z} · exp(−(i/2)·Σ_{a<b} Θ_ab s_a s_b)`
//!
//! with `s_q = (−1)^{y_q}` and `m` the support size. We evaluate the sum by
//! Gray-code enumeration with O(m) incremental updates, which is *exact*
//! (no sampling, no truncation) and turns the paper's 32-qubit simulations
//! — far beyond the `2^32`-amplitude state-vector memory wall — into
//! millisecond computations, because a first-round test class on `N = 2^n`
//! qubits touches only `m = N/2` qubits. Qubits in different connected
//! components of the coupling graph never entangle, so
//! [`XxCircuit::fidelity`] runs one such walk per component and
//! multiplies the results.
//!
//! Amplitude miscalibrations (the fault model the paper sweeps in its
//! Figs. 8/9 and Table II, which deliberately "suppress phase noise and
//! residual couplings … leaving only 10% random amplitude errors") keep
//! gates inside the commuting family, so this engine simulates those
//! experiments with zero model error. Cross-validated against the dense
//! state vector in tests.

use crate::BitString;
use itqc_circuit::{Circuit, Gate};
use itqc_math::Complex64;
use std::collections::BTreeMap;

/// Largest support (touched-qubit count) the exact sum will attempt:
/// `2^24` Gray steps ≈ seconds. Protocol tests need at most `N/2`.
pub const MAX_SUPPORT: usize = 24;

/// A product of `XX(θ)` gates with accumulated per-coupling angles.
///
/// # Example
///
/// ```
/// use itqc_sim::XxCircuit;
/// use std::f64::consts::FRAC_PI_2;
///
/// // Four perfect MS gates on one coupling: identity up to phase.
/// let mut xx = XxCircuit::new(4);
/// for _ in 0..4 {
///     xx.add_xx(1, 3, FRAC_PI_2);
/// }
/// assert!((xx.fidelity(0b0000) - 1.0).abs() < 1e-12);
/// ```
#[derive(Clone, Debug, Default)]
pub struct XxCircuit {
    n_qubits: usize,
    terms: BTreeMap<(usize, usize), f64>,
}

impl XxCircuit {
    /// An empty (identity) XX circuit on `n_qubits`.
    pub fn new(n_qubits: usize) -> Self {
        XxCircuit { n_qubits, terms: BTreeMap::new() }
    }

    /// Number of qubits in the register.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// Accumulates `XX(theta)` on the coupling `{a, b}`.
    ///
    /// # Panics
    ///
    /// Panics if `a == b` or a qubit is out of range.
    pub fn add_xx(&mut self, a: usize, b: usize, theta: f64) -> &mut Self {
        assert!(a < self.n_qubits && b < self.n_qubits, "qubit out of range");
        assert_ne!(a, b, "coupling joins two distinct qubits");
        let key = (a.min(b), a.max(b));
        *self.terms.entry(key).or_insert(0.0) += theta;
        self
    }

    /// Extracts an `XxCircuit` from a [`Circuit`] made exclusively of
    /// [`Gate::Xx`] operations; `None` if any other gate is present.
    pub fn from_circuit(circuit: &Circuit) -> Option<Self> {
        let mut xx = XxCircuit::new(circuit.n_qubits());
        for op in circuit.ops() {
            match op.gate {
                Gate::Xx(theta) => {
                    let q = op.qubits();
                    xx.add_xx(q[0], q[1], theta);
                }
                _ => return None,
            }
        }
        Some(xx)
    }

    /// The accumulated couplings and their total angles.
    pub fn terms(&self) -> impl Iterator<Item = ((usize, usize), f64)> + '_ {
        self.terms.iter().map(|(&k, &v)| (k, v))
    }

    /// The sorted set of qubits touched by at least one gate.
    pub fn support(&self) -> Vec<usize> {
        let mut s: Vec<usize> = self.terms.keys().flat_map(|&(a, b)| [a, b]).collect();
        s.sort_unstable();
        s.dedup();
        s
    }

    /// The qubits touched by at least one gate, as a bit mask.
    pub fn support_mask(&self) -> BitString {
        self.terms.keys().fold(0, |m, &(a, b)| m | 1 << a | 1 << b)
    }

    /// The exact amplitude `⟨target|U|0…0⟩`: one Gray-code walk over the
    /// whole support.
    ///
    /// # Panics
    ///
    /// Panics if `target` addresses bits beyond the register, or if the
    /// support exceeds [`MAX_SUPPORT`].
    pub fn amplitude(&self, target: BitString) -> Complex64 {
        self.assert_in_register(target);
        let support = self.support_mask();
        // Untouched qubits stay |0⟩: amplitude vanishes unless their target
        // bits are 0.
        if target & !support != 0 {
            return Complex64::ZERO;
        }
        self.walk(support, target)
    }

    /// The exact outcome probability `|⟨target|U|0…0⟩|²` — the paper's
    /// single-output-test fidelity when `target` is the expected string:
    /// the product of one Gray-code walk per connected component, on that
    /// component's bits of `target`.
    ///
    /// # Panics
    ///
    /// Panics if `target` addresses bits beyond the register, or if a
    /// component exceeds [`MAX_SUPPORT`] qubits.
    pub fn fidelity(&self, target: BitString) -> f64 {
        self.assert_in_register(target);
        let masks = self.component_masks();
        if target & !masks.iter().fold(0, |all, m| all | m) != 0 {
            return 0.0;
        }
        masks.into_iter().map(|mask| self.walk(mask, target & mask).norm_sqr()).product()
    }

    /// The qubit masks of the coupling graph's connected components,
    /// ascending by lowest qubit.
    pub fn component_masks(&self) -> Vec<BitString> {
        let mut masks: Vec<BitString> = Vec::new();
        for &(a, b) in self.terms.keys() {
            // A coupling joins every component it touches.
            let pair = (1 as BitString) << a | (1 as BitString) << b;
            let mut joined = pair;
            masks.retain(|&m| {
                let touches = m & pair != 0;
                if touches {
                    joined |= m;
                }
                !touches
            });
            masks.push(joined);
        }
        masks.sort_unstable_by_key(|m| m.trailing_zeros());
        masks
    }

    /// The connected components as accumulated sub-circuits (global
    /// qubit numbering, same register size), each with its qubit mask,
    /// in [`Self::component_masks`] order.
    pub fn components(&self) -> Vec<(XxCircuit, BitString)> {
        self.component_masks()
            .into_iter()
            .map(|mask| {
                let mut sub = XxCircuit::new(self.n_qubits);
                sub.terms.extend(self.terms.iter().filter(|&(&(a, _), _)| (mask >> a) & 1 == 1));
                (sub, mask)
            })
            .collect()
    }

    fn assert_in_register(&self, target: BitString) {
        assert!(
            self.n_qubits >= BitString::BITS as usize || target < (1 as BitString) << self.n_qubits,
            "target bitstring out of range"
        );
    }

    /// The qubits of `mask` (ascending) and the dense symmetric matrix of
    /// the accumulated angles between them, row-major and zero on the
    /// diagonal: row `k` belongs to `qubits[k]`. `mask` must be a union
    /// of connected components (see [`Self::component_masks`]), so every
    /// coupling with one end in it has both.
    pub fn coupling_matrix(&self, mask: BitString) -> (Vec<usize>, Vec<f64>) {
        let mut qubits = Vec::with_capacity(mask.count_ones() as usize);
        let mut rest = mask;
        while rest != 0 {
            qubits.push(rest.trailing_zeros() as usize);
            rest &= rest - 1;
        }
        let m = qubits.len();
        // A qubit's position is its rank among the mask's qubits.
        let pos = |q: usize| (mask & (((1 as BitString) << q) - 1)).count_ones() as usize;
        let mut w = vec![0.0f64; m * m];
        for (&(a, b), &theta) in &self.terms {
            if (mask >> a) & 1 == 1 {
                let (ia, ib) = (pos(a), pos(b));
                w[ia * m + ib] += theta;
                w[ib * m + ia] += theta;
            }
        }
        (qubits, w)
    }

    /// The Gray-code character sum over the qubits of `mask`, from the
    /// couplings inside it (`mask` must be a union of components).
    fn walk(&self, mask: BitString, target: BitString) -> Complex64 {
        let m = mask.count_ones() as usize;
        assert!(m <= MAX_SUPPORT, "support of {m} qubits exceeds MAX_SUPPORT");
        if m == 0 {
            return Complex64::ONE;
        }
        let (qubits, w) = self.coupling_matrix(mask);
        // Target bits by position: configuration `y` carries (−1)^{y·z}.
        let z =
            qubits.iter().enumerate().fold(0, |z, (k, &q)| z | (((target >> q) & 1) as usize) << k);
        // −0.0 is the exact additive identity, so the sum starts at the
        // first term bit for bit.
        let mut sum = Complex64::new(-0.0, -0.0);
        gray_phase_walk(&w, m, 1 << m, |y, phi| {
            let sign = if (y & z).count_ones() & 1 == 1 { -1.0 } else { 1.0 };
            sum += Complex64::cis(-phi) * sign;
        });
        sum / (1usize << m) as f64
    }

    /// The exact probability that qubit `q` measures `|1⟩`.
    ///
    /// For commuting-XX circuits the marginal has a closed form: gates not
    /// touching `q` cancel in the Heisenberg picture, and the ones that do
    /// commute pairwise, giving `⟨Z_q⟩ = Π_b cos(Θ_qb)` over the incident
    /// couplings — O(degree) instead of a `2^m` sum.
    pub fn marginal_one(&self, q: usize) -> f64 {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let mut z = 1.0;
        for (&(a, b), &theta) in &self.terms {
            if a == q || b == q {
                z *= theta.cos();
            }
        }
        (1.0 - z) / 2.0
    }

    /// The probability that qubit `q` reads the corresponding bit of
    /// `target`.
    pub fn qubit_agreement(&self, q: usize, target: BitString) -> f64 {
        agreement(self.marginal_one(q), q, target)
    }

    /// The worst per-qubit agreement with `target` over the circuit's
    /// support — the population-based test score used by the scaling
    /// experiments (see DESIGN.md §3: exact-string fidelity collapses
    /// exponentially with class size under ambient miscalibration, so
    /// hardware-style tests threshold qubit populations instead).
    ///
    /// One pass over the terms multiplies each qubit's incident cosines
    /// in term order (as [`Self::marginal_one`] does), then the minimum
    /// is folded in ascending qubit order, so the result equals the
    /// per-qubit [`Self::qubit_agreement`] fold bit for bit.
    ///
    /// Returns 1 for an empty circuit.
    ///
    /// # Panics
    ///
    /// Panics if a touched qubit lies beyond the [`BitString`] width.
    pub fn min_qubit_agreement(&self, target: BitString) -> f64 {
        let mut z = [1.0f64; BitString::BITS as usize];
        let mut support: BitString = 0;
        for (&(a, b), &theta) in &self.terms {
            let c = theta.cos();
            z[a] *= c;
            z[b] *= c;
            support |= 1 << a | 1 << b;
        }
        let mut worst = 1.0;
        while support != 0 {
            let q = support.trailing_zeros() as usize;
            support &= support - 1;
            worst = f64::min(worst, agreement((1.0 - z[q]) / 2.0, q, target));
        }
        worst
    }
}

/// The Gray-code walk over the X-basis spin configurations of an
/// `m`-qubit coupling matrix `w` (from [`XxCircuit::coupling_matrix`],
/// `m ≥ 1`): visits `(y, φ(y))` for the first `count` configurations
/// in Gray order, where bit `k` of `y` is set when spin `k` is down and
/// `φ(y) = ½·Σ_{a<b} Θ_ab·s_a·s_b`. The first `2^{m−1}` configurations
/// are those with the top spin up.
///
/// With row sums `r_q = Σ_b Θ_qb·s_b`, `φ = ¼·Σ_q s_q·r_q`, and flipping
/// spin `q` moves `φ` by `−s_q·r_q` and every `r_b` by `−2·s_q·Θ_qb`:
/// O(m) per step.
///
/// Always inlined: the outcome-table build measured about 7% slower
/// when the walk stayed a separate call and its visitor wrote through
/// captured references.
#[inline(always)]
pub fn gray_phase_walk(w: &[f64], m: usize, count: usize, mut visit: impl FnMut(usize, f64)) {
    debug_assert_eq!(w.len(), m * m);
    debug_assert!(count <= 1 << m);
    let mut s = vec![1.0f64; m]; // spins ±1
    let mut r: Vec<f64> = w.chunks_exact(m).map(|row| row.iter().sum()).collect();
    // φ(all +1) = Σ_{a<b} Θ_ab/2 · 1 = (1/4)·Σ_q r_q.
    let mut phi: f64 = 0.25 * r.iter().sum::<f64>();
    let mut y = 0usize;
    visit(y, phi);
    for k in 1..count {
        // Gray step k flips bit trailing_zeros(k).
        let q = k.trailing_zeros() as usize;
        phi -= s[q] * r[q];
        let delta = -2.0 * s[q];
        // w[q][q] = 0, so r[q] gains ±0 and no branch is needed.
        for (rb, &wb) in r.iter_mut().zip(&w[q * m..(q + 1) * m]) {
            *rb += wb * delta;
        }
        s[q] = -s[q];
        y ^= 1 << q;
        visit(y, phi);
    }
}

/// The probability that a qubit measuring `|1⟩` with probability `p1`
/// reads bit `q` of `target`.
fn agreement(p1: f64, q: usize, target: BitString) -> f64 {
    if (target >> q) & 1 == 1 {
        p1
    } else {
        1.0 - p1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::statevector::run;
    use itqc_circuit::Circuit;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::FRAC_PI_2;

    /// Reference fidelity from the dense backend.
    fn dense_fidelity(c: &Circuit, target: usize) -> f64 {
        run(c).probability(target)
    }

    #[test]
    fn empty_circuit_is_identity() {
        let xx = XxCircuit::new(4);
        assert!((xx.fidelity(0) - 1.0).abs() < 1e-15);
        assert_eq!(xx.fidelity(0b0010), 0.0);
    }

    #[test]
    fn single_perfect_ms_pair() {
        // XX(π/2)|00⟩: P(00) = 1/2, P(11) = 1/2, odd = 0.
        let mut xx = XxCircuit::new(2);
        xx.add_xx(0, 1, FRAC_PI_2);
        assert!((xx.fidelity(0b00) - 0.5).abs() < 1e-12);
        assert!((xx.fidelity(0b11) - 0.5).abs() < 1e-12);
        assert!(xx.fidelity(0b01) < 1e-12);
        assert!(xx.fidelity(0b10) < 1e-12);
    }

    #[test]
    fn two_ms_all_ones() {
        let mut xx = XxCircuit::new(2);
        xx.add_xx(0, 1, FRAC_PI_2).add_xx(0, 1, FRAC_PI_2);
        assert!((xx.fidelity(0b11) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn underrotated_four_ms_analytic() {
        // 4×XX(π/2(1−u)): P(00) = cos²(π·u).
        let u = 0.47;
        let mut xx = XxCircuit::new(2);
        for _ in 0..4 {
            xx.add_xx(0, 1, FRAC_PI_2 * (1.0 - u));
        }
        let expect = (std::f64::consts::PI * u).cos().powi(2);
        assert!((xx.fidelity(0) - expect).abs() < 1e-12);
    }

    #[test]
    fn matches_dense_backend_on_random_xx_circuits() {
        let mut rng = SmallRng::seed_from_u64(21);
        for trial in 0..20 {
            let n = rng.gen_range(2..=9);
            let mut c = Circuit::new(n);
            let gates = rng.gen_range(1..=12);
            for _ in 0..gates {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                c.xx(a, b, rng.gen_range(-3.0..3.0));
            }
            let xx = XxCircuit::from_circuit(&c).expect("pure XX circuit");
            for _ in 0..4 {
                let target = rng.gen_range(0..(1usize << n));
                let exact = xx.fidelity(target as u128);
                let reference = dense_fidelity(&c, target);
                assert!(
                    (exact - reference).abs() < 1e-9,
                    "trial {trial}: target {target:b}: {exact} vs {reference}"
                );
            }
        }
    }

    #[test]
    fn amplitude_matches_dense_backend_in_phase() {
        let mut rng = SmallRng::seed_from_u64(33);
        let n = 5;
        let mut c = Circuit::new(n);
        for _ in 0..8 {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            c.xx(a, b, rng.gen_range(-2.0..2.0));
        }
        let xx = XxCircuit::from_circuit(&c).unwrap();
        let dense = run(&c);
        for target in 0..(1usize << n) {
            assert!(
                xx.amplitude(target as u128).approx_eq(dense.amplitude(target), 1e-9),
                "target {target:05b}"
            );
        }
    }

    #[test]
    fn factored_fidelity_matches_the_whole_support_walk() {
        // The per-component product against one Gray walk over the whole
        // support: ≤ 1e-12 on multi-component circuits, bit for bit when
        // the support is a single component.
        let mut rng = SmallRng::seed_from_u64(71);
        let mut multi = 0;
        for trial in 0..200 {
            let n = rng.gen_range(2..=14);
            let mut xx = XxCircuit::new(n);
            for _ in 0..rng.gen_range(1..=12) {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                xx.add_xx(a, b, rng.gen_range(-3.0..3.0));
            }
            let components = xx.components();
            multi += usize::from(components.len() > 1);
            let support = components.iter().fold(0, |m, &(_, mask)| m | mask);
            for _ in 0..4 {
                let target = rng.gen_range(0..(1usize << n)) as BitString & support;
                let factored = xx.fidelity(target);
                let whole = xx.amplitude(target).norm_sqr();
                if components.len() == 1 {
                    assert_eq!(factored.to_bits(), whole.to_bits(), "trial {trial}");
                } else {
                    assert!(
                        (factored - whole).abs() <= 1e-12,
                        "trial {trial}: {factored} vs {whole}"
                    );
                }
            }
        }
        assert!(multi > 50, "only {multi} multi-component circuits drawn");
    }

    /// The character sum as it was computed before the shared
    /// [`gray_phase_walk`]: its own matrix build, a branch that skips the
    /// flipped spin's own row sum, and a sign toggled per flip. Kept as
    /// the reference `fidelity` and `amplitude` are pinned to.
    fn reference_walk(xx: &XxCircuit, mask: BitString, target: BitString) -> Complex64 {
        let m = mask.count_ones() as usize;
        if m == 0 {
            return Complex64::ONE;
        }
        let pos = |q: usize| (mask & (((1 as BitString) << q) - 1)).count_ones() as usize;
        let mut w = vec![0.0f64; m * m];
        for ((a, b), theta) in xx.terms() {
            if (mask >> a) & 1 == 1 {
                let (ia, ib) = (pos(a), pos(b));
                w[ia * m + ib] += theta;
                w[ib * m + ia] += theta;
            }
        }
        let mut zbits = Vec::with_capacity(m);
        let mut rest = mask;
        while rest != 0 {
            zbits.push((target >> rest.trailing_zeros()) & 1 == 1);
            rest &= rest - 1;
        }
        let mut s = vec![1.0f64; m];
        let mut r: Vec<f64> = (0..m).map(|q| (0..m).map(|b| w[q * m + b]).sum()).collect();
        let mut phi: f64 = 0.25 * r.iter().sum::<f64>();
        let mut sign = 1.0f64;
        let mut sum = Complex64::cis(-phi) * sign;
        for k in 1..1usize << m {
            let q = k.trailing_zeros() as usize;
            phi -= s[q] * r[q];
            let delta = -2.0 * s[q];
            for b in 0..m {
                if b != q {
                    r[b] += w[q * m + b] * delta;
                }
            }
            s[q] = -s[q];
            if zbits[q] {
                sign = -sign;
            }
            sum += Complex64::cis(-phi) * sign;
        }
        sum / (1usize << m) as f64
    }

    #[test]
    fn fidelity_matches_the_reference_walk_bit_for_bit() {
        // Random circuits and near-π complete classes (the Fig. 8 and
        // Table II shape: every coupling 2·π/2 under-rotated by 0–10 %)
        // plus a random bystander pair, up to 16 qubits, at targets of
        // both parities on every component.
        let mut rng = SmallRng::seed_from_u64(0x6A7);
        let (mut multi, mut odd) = (0, 0);
        for trial in 0..120 {
            let n = rng.gen_range(2..=16usize);
            let mut xx = XxCircuit::new(n);
            if trial % 2 == 0 {
                for _ in 0..rng.gen_range(1..=2 * n) {
                    let a = rng.gen_range(0..n);
                    let mut b = rng.gen_range(0..n);
                    while b == a {
                        b = rng.gen_range(0..n);
                    }
                    xx.add_xx(a, b, rng.gen_range(-3.2..3.2));
                }
            } else {
                let c = rng.gen_range(2..=n.min(14));
                for a in 0..c {
                    for b in a + 1..c {
                        xx.add_xx(a, b, 2.0 * FRAC_PI_2 * (1.0 - rng.gen_range(0.0..0.1)));
                    }
                }
                if n - c >= 2 {
                    xx.add_xx(n - 2, n - 1, 2.0 * FRAC_PI_2 * (1.0 - rng.gen_range(0.0..0.1)));
                }
            }
            let masks = xx.component_masks();
            multi += usize::from(masks.len() > 1);
            let support = xx.support_mask();
            for _ in 0..4 {
                let target = rng.gen_range(0..(1usize << n)) as BitString & support;
                odd += usize::from(masks.iter().any(|m| (target & m).count_ones() % 2 == 1));
                let reference: f64 =
                    masks.iter().map(|&m| reference_walk(&xx, m, target & m).norm_sqr()).product();
                let fidelity = xx.fidelity(target);
                assert_eq!(fidelity.to_bits(), reference.to_bits(), "trial {trial}: {target:b}");
                if support.count_ones() <= 12 {
                    let (a, b) = (xx.amplitude(target), reference_walk(&xx, support, target));
                    assert_eq!((a.re.to_bits(), a.im.to_bits()), (b.re.to_bits(), b.im.to_bits()));
                }
            }
        }
        assert!(multi > 30 && odd > 100, "{multi} multi-component circuits, {odd} odd targets");
    }

    #[test]
    fn components_split_by_lowest_qubit() {
        let mut xx = XxCircuit::new(8);
        xx.add_xx(5, 1, 0.25).add_xx(2, 6, -0.1).add_xx(6, 7, 0.2).add_xx(1, 5, 0.25);
        let components = xx.components();
        let masks: Vec<BitString> = components.iter().map(|&(_, m)| m).collect();
        assert_eq!(masks, vec![0b0010_0010, 0b1100_0100]);
        assert_eq!(components[0].0.terms().collect::<Vec<_>>(), vec![((1, 5), 0.5)]);
        assert_eq!(components[1].0.support(), vec![2, 6, 7]);
        assert!(XxCircuit::new(3).components().is_empty());
    }

    #[test]
    fn support_and_terms_accumulate() {
        let mut xx = XxCircuit::new(8);
        xx.add_xx(1, 5, 0.3).add_xx(5, 1, 0.2).add_xx(2, 6, -0.1);
        assert_eq!(xx.support(), vec![1, 2, 5, 6]);
        let terms: Vec<_> = xx.terms().collect();
        assert_eq!(terms.len(), 2);
        assert!((terms[0].1 - 0.5).abs() < 1e-15); // {1,5} accumulated
    }

    #[test]
    fn untouched_qubits_must_stay_zero() {
        let mut xx = XxCircuit::new(4);
        xx.add_xx(0, 1, FRAC_PI_2);
        // Any target with bit 2 or 3 set has zero amplitude.
        assert_eq!(xx.fidelity(0b0100), 0.0);
        assert_eq!(xx.fidelity(0b1011), 0.0);
    }

    #[test]
    fn from_circuit_rejects_non_xx() {
        let mut c = Circuit::new(2);
        c.xx(0, 1, 0.3).h(0);
        assert!(XxCircuit::from_circuit(&c).is_none());
    }

    #[test]
    fn marginals_match_dense_backend() {
        let mut rng = SmallRng::seed_from_u64(57);
        for _ in 0..10 {
            let n = rng.gen_range(2..=8);
            let mut c = Circuit::new(n);
            for _ in 0..rng.gen_range(1..=10) {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                c.xx(a, b, rng.gen_range(-3.0..3.0));
            }
            let xx = XxCircuit::from_circuit(&c).unwrap();
            let dense = run(&c);
            for q in 0..n {
                let exact = xx.marginal_one(q);
                let reference = dense.marginal_one(q);
                assert!((exact - reference).abs() < 1e-10, "qubit {q}");
            }
        }
    }

    #[test]
    fn min_qubit_agreement_bounds_exact_fidelity() {
        // P(exact string) <= min-qubit agreement always.
        let mut rng = SmallRng::seed_from_u64(58);
        let n = 6;
        let mut c = Circuit::new(n);
        for _ in 0..8 {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            c.xx(a, b, rng.gen_range(-1.0..1.0));
        }
        let xx = XxCircuit::from_circuit(&c).unwrap();
        for target in [0u128, 0b101010, 0b111111] {
            assert!(xx.fidelity(target) <= xx.min_qubit_agreement(target) + 1e-12);
        }
    }

    #[test]
    fn one_pass_min_agreement_matches_the_per_qubit_fold() {
        // Bit for bit against the per-qubit definition, on random
        // circuits with repeated couplings and sparse supports.
        let mut rng = SmallRng::seed_from_u64(0xA9E);
        for _ in 0..200 {
            let n = rng.gen_range(2..=40usize);
            let mut xx = XxCircuit::new(n);
            for _ in 0..rng.gen_range(0..3 * n) {
                let a = rng.gen_range(0..n);
                let mut b = rng.gen_range(0..n);
                while b == a {
                    b = rng.gen_range(0..n);
                }
                xx.add_xx(a, b, rng.gen_range(-3.2..3.2));
            }
            let target: BitString = rng.gen::<u64>() as BitString & ((1 << n) - 1);
            let reference =
                xx.support().into_iter().map(|q| xx.qubit_agreement(q, target)).fold(1.0, f64::min);
            assert_eq!(xx.min_qubit_agreement(target).to_bits(), reference.to_bits());
        }
    }

    #[test]
    fn large_register_class_test_runs_fast() {
        // A protocol-sized workload: 32-qubit register, complete graph over
        // a 16-qubit class, 2 MS gates per coupling.
        let mut xx = XxCircuit::new(32);
        let class: Vec<usize> = (0..32).filter(|q| q % 2 == 0).collect();
        for (i, &a) in class.iter().enumerate() {
            for &b in &class[i + 1..] {
                xx.add_xx(a, b, 2.0 * FRAC_PI_2);
            }
        }
        // Perfect calibration: each coupling contributes XX(π) = −i·X⊗X per
        // pair; with 15 partners per qubit the net flip is X^15 = X, so the
        // expected output sets every class qubit to 1.
        let mut expected: u128 = 0;
        for &q in &class {
            expected |= 1 << q;
        }
        let f = xx.fidelity(expected);
        assert!((f - 1.0).abs() < 1e-9, "fidelity {f}");
    }
}
