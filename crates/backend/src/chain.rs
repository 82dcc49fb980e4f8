//! Conditional-marginal chain sampler for near-complete XX components.
//!
//! The joint-table sampler ([`crate::dist::ComponentDist`]) materializes
//! all `2^c` outcome probabilities of a component, capping honest string
//! sampling at [`crate::MAX_COMPONENT`] qubits. The protocol's class
//! tests beyond that cap are *structured*: a first-round class on `N`
//! qubits is a complete graph on `c = N/2` qubits whose accumulated
//! per-pair angle is one shared base value `θ̄` everywhere except a
//! small set of pairs touched by planted faults. This module exploits
//! that structure to sample exact output strings in `O(c²)` per shot
//! with an `O(2^t·(n+1)² + n³)` build, where `t` is the number of
//! *special* qubits (endpoints of pairs deviating from `θ̄`,
//! `t ≤ `[`CHAIN_MAX_SPECIAL`]) and `n = c − t` is the exchangeable
//! bulk.
//!
//! # Derivation
//!
//! Writing spins `σ = (−1)^y`, the X-basis phase of a commuting-XX
//! component is `φ(y) = ½·Σ_{a<b} Θ_ab·σ_a σ_b` and the amplitude of
//! output `z` is `A(z) = 2^{−c}·Σ_y (−1)^{y·z}·cis(−φ(y))` (see
//! `itqc_sim::xx`). Splitting the qubits into the special set `T` and
//! the bulk `B` (all `B–B` and `B–T` pairs carry exactly `θ̄`):
//!
//! `φ(y_T, m) = φ_T(y_T) + ½·θ̄·[(M_B² − n)/2 + M_T(y_T)·M_B]`,
//!
//! where `m = |y_B|`, `M_B = n − 2m`, `M_T = Σ_{T} σ`, and `φ_T` uses
//! the actual accumulated `T–T` angles. The bulk sum collapses through
//! the Krawtchouk identity `Σ_{|y_B|=m} (−1)^{y_B·z_B} = K_m(k; n)`
//! (`k = |z_B|`, `Σ_m K_m(k)·x^m = (1−x)^k(1+x)^{n−k}`), so amplitudes
//! depend on `z` only through `(z_T, k)`:
//!
//! `A(z_T, k) = 2^{−c}·Σ_{y_T} (−1)^{y_T·z_T}·Σ_m K_m(k)·cis(−φ(y_T, m))`
//!
//! — `(n+1)` Walsh–Hadamard transforms of size `2^t` instead of one of
//! size `2^c`. The single-string probability table `p1[z_T][k] =
//! |A(z_T, k)|²` plus layered prefix sums over the `T` bits then drive
//! a most-significant-bit-first nested-interval descent: one uniform
//! per component per shot (the canonical draw-order contract), each bit
//! resolved against a closed-form conditional boundary
//! `P(prefix·0·…)` in `O(n)` — never a `2^c` table.
//!
//! Beyond `n ≈ 57` the binomial weights exceed `2^53`, so boundaries
//! carry ~1e-5-grade relative rounding — invisible under 300-shot
//! noise, and exactly zero for `n ≤ 20` where the bit-identity suite
//! pins chain-vs-joint equality.

use crate::dist::{walsh_hadamard, SampleComponent};
use itqc_sim::{BitString, XxCircuit};
use std::collections::BTreeMap;

/// Largest special set the chain sampler accepts: the amplitude table
/// is `2^t·(n+1)` entries, so 12 caps a 64-qubit faulty component near
/// the memory of one joint 20-qubit table. Protocol components carry
/// `t ≤ 2·faults`; anything larger (an unstructured component) is
/// refused with [`crate::BackendError::ChainUnsupported`].
pub const CHAIN_MAX_SPECIAL: usize = 12;

/// Why a component cannot be chain-sampled: its deviant structure
/// (pairs off the modal base angle) touches too many qubits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ChainRefusal {
    /// Component size in qubits.
    pub support: usize,
    /// Number of special qubits the component would need.
    pub special: usize,
}

/// The cheap structural analysis of a component: its modal base angle
/// and the special qubits deviating from it. `O(c²)`, no tables — run
/// at prepare time so oversize-without-structure surfaces as a typed
/// error before any sampling request.
#[derive(Clone, Debug)]
pub struct ChainPlan {
    /// The modal accumulated per-pair angle (absent pairs count as 0).
    pub base_angle: f64,
    /// Local positions (0-based, ascending) of the special qubits.
    pub special: Vec<usize>,
}

/// Analyzes a component sub-circuit for chain-sampling structure.
///
/// The accumulated angle of every pair (including absent pairs, at 0)
/// is bucketed by exact bit pattern; the most common value is the base
/// angle `θ̄` (ties break toward the smaller bit pattern, so the choice
/// is deterministic), and every endpoint of a deviating pair becomes
/// special. Errs when the special set exceeds [`CHAIN_MAX_SPECIAL`].
pub fn plan(sub: &XxCircuit) -> Result<ChainPlan, ChainRefusal> {
    let (qubits, w) = sub.coupling_matrix(sub.support_mask());
    let c = qubits.len();
    // Canonical bits: fold −0.0 into +0.0 so absent pairs and explicit
    // zero-angle pairs bucket together.
    let canon = |x: f64| if x == 0.0 { 0.0f64.to_bits() } else { x.to_bits() };
    let mut counts: BTreeMap<u64, usize> = BTreeMap::new();
    for a in 0..c {
        for b in (a + 1)..c {
            *counts.entry(canon(w[a * c + b])).or_insert(0) += 1;
        }
    }
    let base_bits = counts
        .iter()
        .max_by_key(|&(&bits, &count)| (count, std::cmp::Reverse(bits)))
        .map(|(&bits, _)| bits)
        .unwrap_or(0.0f64.to_bits());
    let base_angle = f64::from_bits(base_bits);
    let mut special = vec![false; c];
    for a in 0..c {
        for b in (a + 1)..c {
            if canon(w[a * c + b]) != base_bits {
                special[a] = true;
                special[b] = true;
            }
        }
    }
    let special: Vec<usize> = (0..c).filter(|&a| special[a]).collect();
    if special.len() > CHAIN_MAX_SPECIAL {
        return Err(ChainRefusal { support: c, special: special.len() });
    }
    Ok(ChainPlan { base_angle, special })
}

/// A built chain sampler for one component: the `(z_T, k)` amplitude
/// table, its layered prefix sums over the special bits, and the
/// binomial weights that price bulk completions during the descent.
#[derive(Clone, Debug)]
pub struct ChainDist {
    /// The component's qubits, ascending (global numbering); local bit
    /// `k` of an outcome is the measured bit of `qubits[k]` — the same
    /// convention as the joint sampler.
    qubits: Vec<usize>,
    /// Local positions of the special qubits, ascending; `z_T` bit `i`
    /// is the outcome bit of `qubits[special_pos[i]]`.
    special_pos: Vec<usize>,
    is_special: Vec<bool>,
    n_bulk: usize,
    /// `layers[τ]` holds `2^(t−τ)` rows of `n+1` entries: row `h` (the
    /// fixed MSB-first prefix of `t−τ` special bits) at column `k` is
    /// the single-string probability `p1` summed over the `τ` free
    /// (lower) special bits. `layers[0]` is `p1` itself; `layers[t]`
    /// is a single row.
    layers: Vec<Vec<f64>>,
    /// `binom[m][j] = C(m, j)` as f64, `m ≤ n_bulk`.
    binom: Vec<Vec<f64>>,
    mass: f64,
}

impl ChainDist {
    /// Builds the chain sampler for a component sub-circuit.
    ///
    /// Fully general when the special set is the whole component
    /// (`t = c`, empty bulk): the table degenerates to the joint `2^c`
    /// distribution, which is what lets the equivalence suite pin
    /// chain-vs-joint bit-identity on arbitrary circuits up to
    /// [`CHAIN_MAX_SPECIAL`] qubits.
    pub fn build(sub: &XxCircuit) -> Result<ChainDist, ChainRefusal> {
        let p = plan(sub)?;
        Ok(Self::from_plan(sub, &p))
    }

    /// Builds the tables for an already-analyzed component.
    pub fn from_plan(sub: &XxCircuit, plan: &ChainPlan) -> ChainDist {
        let (qubits, w) = sub.coupling_matrix(sub.support_mask());
        let c = qubits.len();
        debug_assert!(c >= 1);
        let special_pos = plan.special.clone();
        let t = special_pos.len();
        let mut is_special = vec![false; c];
        for &p in &special_pos {
            is_special[p] = true;
        }
        let n = c - t;
        let np1 = n + 1;
        let tsize = 1usize << t;
        let theta = plan.base_angle;

        // Binomials C(m, j) for m ≤ n (f64; exact up to n = 57).
        let mut binom: Vec<Vec<f64>> = Vec::with_capacity(np1);
        for m in 0..=n {
            let mut row = vec![0.0f64; m + 1];
            row[0] = 1.0;
            for j in 1..=m {
                row[j] = binom[m - 1][j - 1] + if j < m { binom[m - 1][j] } else { 0.0 };
            }
            binom.push(row);
        }

        // Krawtchouk table K[k][m]: coefficients of (1−x)^k·(1+x)^{n−k}.
        let mut kraw = vec![0.0f64; np1 * np1];
        for k in 0..=n {
            for m in 0..=n {
                let mut s = 0.0f64;
                let j_lo = m.saturating_sub(n - k);
                let j_hi = k.min(m);
                let mut sign = if j_lo % 2 == 0 { 1.0 } else { -1.0 };
                for j in j_lo..=j_hi {
                    s += sign * binom[k][j] * binom[n - k][m - j];
                    sign = -sign;
                }
                kraw[k * np1 + m] = s;
            }
        }

        // φ_T and M_T per special configuration.
        let mut phi_t = vec![0.0f64; tsize];
        let mut m_t = vec![0.0f64; tsize];
        for y in 0..tsize {
            let sigma: Vec<f64> =
                (0..t).map(|i| if (y >> i) & 1 == 1 { -1.0 } else { 1.0 }).collect();
            let mut phi = 0.0f64;
            for i in 0..t {
                for j in (i + 1)..t {
                    phi += 0.5 * w[special_pos[i] * c + special_pos[j]] * sigma[i] * sigma[j];
                }
            }
            phi_t[y] = phi;
            m_t[y] = sigma.iter().sum();
        }

        // F(y_T, k) = 2^{−c}·Σ_m K[k][m]·cis(−φ(y_T, m)), then (n+1)
        // Walsh–Hadamard passes over y_T give A(z_T, k).
        let scale = (0.5f64).powi(c as i32);
        let mut fr = vec![0.0f64; tsize * np1];
        let mut fi = vec![0.0f64; tsize * np1];
        let mut cr = vec![0.0f64; np1];
        let mut ci = vec![0.0f64; np1];
        for y in 0..tsize {
            for m in 0..=n {
                let mb = (n as f64) - 2.0 * m as f64;
                let phi = phi_t[y] + 0.5 * theta * ((mb * mb - n as f64) / 2.0 + m_t[y] * mb);
                cr[m] = scale * phi.cos(); // cis(−φ) = (cos φ, −sin φ)
                ci[m] = scale * -phi.sin();
            }
            for k in 0..=n {
                let (mut sr, mut si) = (0.0f64, 0.0f64);
                let row = &kraw[k * np1..(k + 1) * np1];
                for m in 0..=n {
                    sr += row[m] * cr[m];
                    si += row[m] * ci[m];
                }
                fr[y * np1 + k] = sr;
                fi[y * np1 + k] = si;
            }
        }
        let mut p1 = vec![0.0f64; tsize * np1];
        let mut re = vec![0.0f64; tsize];
        let mut im = vec![0.0f64; tsize];
        for k in 0..=n {
            for y in 0..tsize {
                re[y] = fr[y * np1 + k];
                im[y] = fi[y * np1 + k];
            }
            walsh_hadamard(&mut re, &mut im);
            for z in 0..tsize {
                p1[z * np1 + k] = (re[z] * re[z] + im[z] * im[z]).max(0.0);
            }
        }

        // Layered prefix sums over the special bits, MSB-first.
        let mut layers = Vec::with_capacity(t + 1);
        layers.push(p1);
        for tau in 1..=t {
            let prev = &layers[tau - 1];
            let rows = 1usize << (t - tau);
            let mut next = vec![0.0f64; rows * np1];
            for h in 0..rows {
                for k in 0..np1 {
                    next[h * np1 + k] = prev[(h << 1) * np1 + k] + prev[((h << 1) | 1) * np1 + k];
                }
            }
            layers.push(next);
        }
        let mass: f64 = (0..=n).map(|k| binom[n][k] * layers[t][k]).sum();
        debug_assert!(
            (mass - 1.0).abs() < 1e-4,
            "chain distribution mass {mass} drifted from 1 (c={c}, t={t})"
        );
        ChainDist { qubits, special_pos, is_special, n_bulk: n, layers, binom, mass }
    }

    /// Number of special qubits.
    pub fn special_count(&self) -> usize {
        self.special_pos.len()
    }

    /// The exact probability of the full-register basis string `global`
    /// on this component (bits of other components are ignored, exactly
    /// like the joint sampler's `local_state` extraction).
    pub fn probability_global(&self, global: BitString) -> f64 {
        let np1 = self.n_bulk + 1;
        let mut z_t = 0usize;
        let mut k = 0usize;
        let mut si = 0usize;
        for (local, &q) in self.qubits.iter().enumerate() {
            let bit = (global >> q) & 1 == 1;
            if self.is_special[local] {
                if bit {
                    z_t |= 1 << si;
                }
                si += 1;
            } else if bit {
                k += 1;
            }
        }
        self.layers[0][z_t * np1 + k]
    }
}

impl SampleComponent for ChainDist {
    fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    fn mass(&self) -> f64 {
        self.mass
    }

    fn place(&self, x: f64, string: &mut BitString) {
        // MSB-first nested-interval descent: local bits are resolved
        // from the highest component qubit down, so the visited
        // intervals are ordered exactly like the joint sampler's CDF
        // (local index ascending) and the tie rule `x ≥ boundary → 1`
        // reproduces `partition_point(|&c| c <= x)`.
        let c = self.qubits.len();
        let np1 = self.n_bulk + 1;
        let mut lo = 0.0f64;
        let mut h = 0usize; // fixed special prefix, MSB-first
        let mut tau = self.special_pos.len(); // free special bits
        let mut w_f = 0usize; // fixed bulk ones
        let mut n_f = self.n_bulk; // free bulk positions
        for j in (0..c).rev() {
            if self.is_special[j] {
                tau -= 1;
                let row = &self.layers[tau][(h << 1) * np1..((h << 1) + 1) * np1];
                let weights = &self.binom[n_f];
                let mut boundary = lo;
                for (w, &cw) in weights.iter().enumerate() {
                    boundary += cw * row[w_f + w];
                }
                if x >= boundary {
                    h = (h << 1) | 1;
                    lo = boundary;
                    *string |= (1 as BitString) << self.qubits[j];
                } else {
                    h <<= 1;
                }
            } else {
                let row = &self.layers[tau][h * np1..(h + 1) * np1];
                let weights = &self.binom[n_f - 1];
                let mut boundary = lo;
                for (w, &cw) in weights.iter().enumerate() {
                    boundary += cw * row[w_f + w];
                }
                if x >= boundary {
                    w_f += 1;
                    lo = boundary;
                    *string |= (1 as BitString) << self.qubits[j];
                }
                n_f -= 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dist::{sample_strings, ComponentDist};
    use crate::PreparedCircuit;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::FRAC_PI_2;

    /// A complete graph on `members` at `base`, with `deviant` pairs
    /// overridden.
    fn complete_xx(
        n: usize,
        members: &[usize],
        base: f64,
        deviant: &[(usize, usize, f64)],
    ) -> XxCircuit {
        let mut xx = XxCircuit::new(n);
        for (i, &a) in members.iter().enumerate() {
            for &b in &members[i + 1..] {
                let theta = deviant
                    .iter()
                    .find(|&&(x, y, _)| (x, y) == (a, b) || (x, y) == (b, a))
                    .map(|&(_, _, t)| t)
                    .unwrap_or(base);
                xx.add_xx(a, b, theta);
            }
        }
        xx
    }

    #[test]
    fn plan_finds_base_angle_and_specials() {
        let members: Vec<usize> = (0..10).collect();
        let xx = complete_xx(10, &members, 0.9, &[(2, 5, 0.7), (2, 8, 0.7)]);
        let p = plan(&xx).unwrap();
        assert_eq!(p.base_angle, 0.9);
        assert_eq!(p.special, vec![2, 5, 8]);
        // A star is not near-complete: absent pairs dominate, so every
        // present edge is deviant and the whole component is special.
        let mut star = XxCircuit::new(CHAIN_MAX_SPECIAL + 3);
        for q in 1..CHAIN_MAX_SPECIAL + 3 {
            star.add_xx(0, q, 0.4);
        }
        let refusal = plan(&star).unwrap_err();
        assert_eq!(refusal.support, CHAIN_MAX_SPECIAL + 3);
        assert_eq!(refusal.special, CHAIN_MAX_SPECIAL + 3);
    }

    #[test]
    fn chain_probabilities_match_joint_table_exactly_structured() {
        // 10-qubit complete component, 2 deviant pairs → t = 3, n = 7:
        // every branch of the split derivation is exercised.
        let members: Vec<usize> = (0..10).collect();
        let xx = complete_xx(10, &members, 2.0 * FRAC_PI_2 * 0.97, &[(1, 4, 1.1), (4, 7, -0.3)]);
        let chain = ChainDist::build(&xx).unwrap();
        assert_eq!(chain.special_count(), 3);
        let joint = crate::analytic::XxPrepared::prepare(xx).unwrap();
        let mut worst = 0.0f64;
        for local in 0..(1u32 << 10) {
            let target = local as BitString;
            let d = (chain.probability_global(target) - joint.probability(target)).abs();
            worst = worst.max(d);
        }
        assert!(worst < 1e-12, "worst probability deviation {worst}");
    }

    #[test]
    fn chain_degenerates_to_joint_on_arbitrary_small_circuits() {
        // Random circuits: every pair angle is distinct, so t = c and
        // the chain table IS the joint distribution.
        let mut rng = SmallRng::seed_from_u64(31);
        for case in 0..6 {
            let n = rng.gen_range(2usize..=8);
            let mut xx = XxCircuit::new(n);
            for _ in 0..rng.gen_range(1..12) {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b {
                    xx.add_xx(a, b, rng.gen_range(-3.0..3.0));
                }
            }
            let support = xx.support();
            if support.is_empty() {
                continue;
            }
            let chain = ChainDist::build(&xx).unwrap();
            let prep = crate::analytic::XxPrepared::prepare(xx).unwrap();
            // Spread local states onto the support: component samplers
            // ignore off-support bits, prep.probability zeroes them.
            for local in 0..(1u32 << support.len()) {
                let target = support
                    .iter()
                    .enumerate()
                    .filter(|&(k, _)| (local >> k) & 1 == 1)
                    .fold(0 as BitString, |t, (_, &q)| t | ((1 as BitString) << q));
                let d = (chain.probability_global(target) - prep.probability(target)).abs();
                assert!(d < 1e-12, "case {case} target {target:b}: off by {d}");
            }
        }
    }

    #[test]
    fn chain_sampling_is_bit_identical_to_joint_under_shared_seed() {
        let members: Vec<usize> = (0..12).collect();
        let xx = complete_xx(12, &members, 2.0 * FRAC_PI_2 * 0.95, &[(0, 3, 1.3)]);
        let chain = ChainDist::build(&xx).unwrap();
        let prep = crate::analytic::XxPrepared::prepare(xx).unwrap();
        let joint: Vec<ComponentDist> = prep.distributions().iter().map(joint_of).collect();
        let mut r1 = SmallRng::seed_from_u64(77);
        let mut r2 = SmallRng::seed_from_u64(77);
        let a = sample_strings(std::slice::from_ref(&chain), &mut r1, 2000);
        let b = sample_strings(&joint, &mut r2, 2000);
        assert_eq!(a, b);
    }

    fn joint_of(s: &crate::analytic::ComponentSampler) -> ComponentDist {
        match s {
            crate::analytic::ComponentSampler::Joint(d) => d.clone(),
            crate::analytic::ComponentSampler::Chain(_) => panic!("expected joint table"),
        }
    }

    #[test]
    fn healthy_xl_component_needs_no_specials_and_hits_its_target() {
        // A healthy 24-qubit first-round class at exactly reps·π/2:
        // t = 0, and the ideal output is deterministic.
        let members: Vec<usize> = (0..24).collect();
        let xx = complete_xx(24, &members, 2.0 * FRAC_PI_2, &[]);
        let chain = ChainDist::build(&xx).unwrap();
        assert_eq!(chain.special_count(), 0);
        // 2-MS, degree 23 (odd) → every qubit flips.
        let target: BitString = (1 << 24) - 1;
        assert!((chain.probability_global(target) - 1.0).abs() < 1e-9);
        let mut rng = SmallRng::seed_from_u64(5);
        let strings = sample_strings(std::slice::from_ref(&chain), &mut rng, 50);
        assert!(strings.iter().all(|&s| s == target));
    }

    #[test]
    fn chain_marginals_match_closed_form_at_24_qubits() {
        // One under-rotated coupling in a 24-qubit class: the chain
        // sampler's per-qubit marginals must track the closed form.
        let members: Vec<usize> = (0..24).collect();
        let theta = 2.0 * FRAC_PI_2;
        let xx = complete_xx(24, &members, theta, &[(3, 11, theta * 0.7)]);
        let chain = ChainDist::build(&xx).unwrap();
        assert_eq!(chain.special_count(), 2);
        let mut rng = SmallRng::seed_from_u64(1234);
        let shots = 6000usize;
        let strings = sample_strings(std::slice::from_ref(&chain), &mut rng, shots);
        for q in [3usize, 11, 0, 23] {
            let p_closed = xx.marginal_one(q);
            let p_sampled =
                strings.iter().filter(|&&s| (s >> q) & 1 == 1).count() as f64 / shots as f64;
            let sigma = (p_closed * (1.0 - p_closed) / shots as f64).sqrt().max(1e-4);
            assert!(
                (p_sampled - p_closed).abs() < 5.0 * sigma,
                "qubit {q}: sampled {p_sampled} vs closed-form {p_closed}"
            );
        }
    }
}
