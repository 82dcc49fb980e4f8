//! Support-factorized output distributions and the canonical string
//! sampler shared by every backend.
//!
//! For any circuit started in `|0…0⟩`, qubits in different connected
//! components of the qubit-interaction graph are never entangled, so the
//! output distribution factorizes over components. A backend therefore
//! only needs one [`ComponentDist`] per component — `2^c` probabilities
//! for a `c`-qubit component instead of `2^N` for the register — and
//! sampling a full output string is one inverse-CDF draw per component.
//!
//! The sampling scheme is *canonical*: components are visited in
//! ascending order of their smallest qubit and each consumes exactly one
//! uniform draw per shot, with component-local states enumerated with
//! bit `k` standing for the `k`-th (ascending) qubit of the component.
//! Two backends that produce the same component probabilities therefore
//! produce bit-for-bit identical shot strings from a shared RNG stream —
//! the property the dense-vs-analytic equivalence suite pins. (The two
//! engines compute those probabilities by different routes and do not
//! agree to the last ulp. Measured on complete class components with
//! 0–10 % under-rotations, the largest absolute difference was 8e-16 at
//! `c = 8`, 1.2e-14 at `c = 12` and 4.4e-14 at `c = 16`; random-angle
//! components, whose mass is spread thinner, stay below 4e-16. A uniform
//! draw landing inside that sliver of a CDF boundary could in principle
//! split the backends; at the equivalence suite's fixed seeds this is
//! deterministic-safe, and for the CI `fig8 --sizes=8` dense/analytic
//! stdout diff (components of at most 4 qubits) the per-run odds are
//! ~1e-8.)

use itqc_sim::BitString;
use rand::rngs::SmallRng;
use rand::Rng;

/// A per-component string sampler the canonical samplers can drive: the
/// joint-table [`ComponentDist`] below [`crate::MAX_COMPONENT`], the
/// conditional-marginal chain sampler above it. The contract that keeps
/// every implementation bit-compatible with the canonical scheme: one
/// pre-scaled uniform `x ∈ [0, mass)` resolves one whole component
/// outcome, and `place` must replicate the joint sampler's tie semantics
/// (`cdf.partition_point(|&c| c <= x)` — boundaries themselves round
/// *up* to the next state).
pub trait SampleComponent {
    /// The component's qubits, ascending.
    fn qubits(&self) -> &[usize];

    /// Total probability mass (~1 up to rounding noise); uniforms are
    /// scaled by this before [`place`](SampleComponent::place) so ±1e-15
    /// normalization noise cannot push the top of the CDF below a drawn
    /// `u ≈ 1`.
    fn mass(&self) -> f64;

    /// Resolves a pre-scaled uniform into one component outcome and ORs
    /// its bits into `string`.
    fn place(&self, x: f64, string: &mut BitString);
}

/// The outcome distribution of one connected component of a circuit's
/// qubit-interaction graph, stored as a cumulative sum for sampling.
///
/// A general distribution ([`ComponentDist::new`], the dense backend)
/// keeps one entry per local state. A parity-conserving one (the
/// analytic backend's commuting-XX components) keeps only the `2^{c−1}`
/// even-parity states: every odd-parity state has probability exactly
/// 0, so its entry in a full table would repeat the one before it, and
/// the inverse-CDF search never stops on it.
#[derive(Clone, Debug)]
pub struct ComponentDist {
    /// The component's qubits, ascending; local bit `k` of a state index
    /// is the measured bit of `qubits[k]`.
    qubits: Vec<usize>,
    /// Cumulative probabilities over the local states in ascending
    /// order: all `2^c` of them, or only the even-parity ones.
    cdf: Vec<f64>,
    /// Whether `cdf` holds only the even-parity states, entry `k` being
    /// local state `2k | parity(k)`.
    even_parity: bool,
}

impl ComponentDist {
    /// Builds the distribution from per-local-state probabilities.
    ///
    /// # Panics
    ///
    /// Panics if `probs.len() != 2^qubits.len()`, the qubit list is not
    /// strictly ascending, or the probabilities do not sum to ~1.
    pub fn new(qubits: Vec<usize>, probs: &[f64]) -> Self {
        assert_eq!(probs.len(), 1usize << qubits.len(), "distribution size mismatch");
        let mut acc = 0.0f64;
        let cdf = probs
            .iter()
            .map(|&p| {
                acc += p.max(0.0); // clamp −1e-17-grade rounding noise
                acc
            })
            .collect();
        Self::checked(qubits, cdf, false)
    }

    /// A parity-conserving distribution from the cumulative sum over its
    /// even-parity local states in ascending order (entry `k` is state
    /// `2k | parity(k)`); every odd-parity state has probability 0.
    ///
    /// # Panics
    ///
    /// Panics if `cdf.len() != 2^(qubits.len() − 1)`, the qubit list is
    /// empty or not strictly ascending, or the total is not ~1.
    pub(crate) fn even_parity(qubits: Vec<usize>, cdf: Vec<f64>) -> Self {
        assert!(!qubits.is_empty(), "a parity table needs at least one qubit");
        assert_eq!(cdf.len(), 1usize << (qubits.len() - 1), "distribution size mismatch");
        Self::checked(qubits, cdf, true)
    }

    fn checked(qubits: Vec<usize>, cdf: Vec<f64>, even_parity: bool) -> Self {
        assert!(qubits.windows(2).all(|w| w[0] < w[1]), "qubits must be strictly ascending");
        let total = *cdf.last().expect("non-empty distribution");
        assert!((total - 1.0).abs() < 1e-6, "probabilities sum to {total}, not 1");
        ComponentDist { qubits, cdf, even_parity }
    }

    /// The component's qubits (ascending).
    pub fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    /// The probability of the component-local state `local`.
    pub fn probability(&self, local: usize) -> f64 {
        let entry = if !self.even_parity {
            local
        } else if local.count_ones() % 2 == 1 {
            return 0.0;
        } else {
            local >> 1
        };
        let prev = if entry == 0 { 0.0 } else { self.cdf[entry - 1] };
        self.cdf[entry] - prev
    }

    /// Extracts this component's local state index from a full-register
    /// basis string.
    pub fn local_state(&self, global: BitString) -> usize {
        let mut local = 0usize;
        for (k, &q) in self.qubits.iter().enumerate() {
            if (global >> q) & 1 == 1 {
                local |= 1 << k;
            }
        }
        local
    }
}

impl SampleComponent for ComponentDist {
    fn qubits(&self) -> &[usize] {
        &self.qubits
    }

    fn mass(&self) -> f64 {
        *self.cdf.last().expect("non-empty distribution")
    }

    fn place(&self, x: f64, string: &mut BitString) {
        let entry = self.cdf.partition_point(|&c| c <= x).min(self.cdf.len() - 1);
        let idx =
            if self.even_parity { entry << 1 | (entry.count_ones() as usize & 1) } else { entry };
        for (k, &q) in self.qubits.iter().enumerate() {
            if (idx >> k) & 1 == 1 {
                *string |= (1 as BitString) << q;
            }
        }
    }
}

/// Records the deterministic sampling events of one sampler call.
/// Shots drawn and components touched are *logical work* — the same at
/// any thread count — so they belong to the deterministic snapshot,
/// with a histogram of draws by component size. One call per public
/// sampler entry point (the blocked delegator does not double-count).
fn record_sample_events<S: SampleComponent>(dists: &[S], shots: usize) {
    if !itqc_obs::enabled() {
        return;
    }
    use itqc_obs::event;
    event::add("backend.sample.calls", 1);
    event::add("backend.sample.components", dists.len() as u64);
    event::add("backend.shots.drawn", shots as u64);
    if shots > 0 {
        for d in dists {
            event::observe(
                "backend.sample.component_qubits_draws",
                d.qubits().len() as u64,
                shots as u64,
            );
        }
    }
}

/// Samples `shots` full-register output strings from the canonical
/// component-ordered scheme, one shot at a time. `dists` must be sorted
/// ascending by first qubit (prepare methods guarantee this); untouched
/// qubits read 0. This is the reference the blocked sampler every
/// [`PreparedCircuit::sample`](crate::PreparedCircuit::sample) runs,
/// [`sample_strings_blocked`], is pinned against.
pub fn sample_strings<S: SampleComponent>(
    dists: &[S],
    rng: &mut SmallRng,
    shots: usize,
) -> Vec<BitString> {
    record_sample_events(dists, shots);
    let mut out = Vec::with_capacity(shots);
    for _ in 0..shots {
        let mut s: BitString = 0;
        for d in dists {
            let x = rng.gen::<f64>() * d.mass();
            d.place(x, &mut s);
        }
        out.push(s);
    }
    out
}

/// Shots per block of the blocked sampler: large enough that a column
/// pass streams a component's whole CDF through cache once per ~4k
/// draws, small enough that the uniform buffer stays a few hundred KiB.
pub const SAMPLE_BLOCK_SHOTS: usize = 4096;

/// Blocked variant of [`sample_strings`]: draws whole shot blocks,
/// resolving each component's draws in one column pass over its flat
/// cumulative table instead of interleaving binary searches across
/// components shot by shot.
///
/// Bit-identical to [`sample_strings`] from the same RNG state: the
/// uniforms are drawn in exactly the canonical shot-major order (shot 0
/// component 0, shot 0 component 1, …) into a buffer, and each draw is
/// scaled and resolved against the same CDF entries — only the *memory
/// access order* of the resolution changes. The equivalence suite pins
/// this, including across block boundaries.
pub fn sample_strings_blocked<S: SampleComponent>(
    dists: &[S],
    rng: &mut SmallRng,
    shots: usize,
) -> Vec<BitString> {
    sample_strings_blocked_with(dists, rng, shots, SAMPLE_BLOCK_SHOTS)
}

/// [`sample_strings_blocked`] with an explicit block size (exposed so
/// the equivalence suite can pin block-boundary invariance; `block = 1`
/// degenerates to the per-shot path's access pattern).
pub fn sample_strings_blocked_with<S: SampleComponent>(
    dists: &[S],
    rng: &mut SmallRng,
    shots: usize,
    block: usize,
) -> Vec<BitString> {
    assert!(block >= 1, "block size must be positive");
    record_sample_events(dists, shots);
    let ncomp = dists.len();
    let mut out = vec![0 as BitString; shots];
    if ncomp == 0 {
        return out;
    }
    let mut uniforms = Vec::with_capacity(block.min(shots) * ncomp);
    let mut start = 0usize;
    while start < shots {
        let chunk = (shots - start).min(block);
        // Consume the RNG stream in the canonical shot-major order so
        // the stream position after any prefix matches the per-shot
        // sampler exactly.
        uniforms.clear();
        for _ in 0..chunk {
            for d in dists {
                uniforms.push(rng.gen::<f64>() * d.mass());
            }
        }
        // Resolve component by component: each pass walks one flat CDF
        // (or one chain descent structure) for the whole block.
        for (ci, d) in dists.iter().enumerate() {
            for s in 0..chunk {
                let x = uniforms[s * ncomp + ci];
                d.place(x, &mut out[start + s]);
            }
        }
        start += chunk;
    }
    out
}

/// In-place Walsh–Hadamard transform of split (re, im) parts — the
/// `2^m`-point character sum `Σ_y (−1)^{y·z} v[y]` for all `z` at once
/// in `O(m·2^m)`.
///
/// The `m` butterfly stages run two at a time (radix 4), after one
/// single stage when `m` is odd, so the data is swept `⌈m/2⌉` times
/// instead of `m`. Every element still goes through the same adds in
/// the same stage order as the one-stage-per-pass transform, so the
/// output is bit-identical to it.
pub fn walsh_hadamard(re: &mut [f64], im: &mut [f64]) {
    debug_assert_eq!(re.len(), im.len());
    debug_assert!(re.len().is_power_of_two());
    let n = re.len();
    let mut len = 1;
    if n.trailing_zeros() % 2 == 1 {
        for (r, i) in re.chunks_exact_mut(2).zip(im.chunks_exact_mut(2)) {
            (r[0], r[1]) = (r[0] + r[1], r[0] - r[1]);
            (i[0], i[1]) = (i[0] + i[1], i[0] - i[1]);
        }
        len = 2;
    }
    while len < n {
        radix4_stages(re, len);
        radix4_stages(im, len);
        len <<= 2;
    }
}

/// The butterfly stages of strides `len` and `2·len` in one sweep: each
/// group of four `x0..x3`, `len` apart, takes stage `len` on the pairs
/// `(x0, x1)` and `(x2, x3)`, then stage `2·len` on the results.
fn radix4_stages(v: &mut [f64], len: usize) {
    for group in v.chunks_exact_mut(len << 2) {
        let (x0, rest) = group.split_at_mut(len);
        let (x1, rest) = rest.split_at_mut(len);
        let (x2, x3) = rest.split_at_mut(len);
        for j in 0..len {
            let (s01, d01) = (x0[j] + x1[j], x0[j] - x1[j]);
            let (s23, d23) = (x2[j] + x3[j], x2[j] - x3[j]);
            x0[j] = s01 + s23;
            x1[j] = d01 + d23;
            x2[j] = s01 - s23;
            x3[j] = d01 - d23;
        }
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The reference transform: one radix-2 butterfly pass per stage,
    /// stages in ascending stride.
    pub(crate) fn radix2_walsh_hadamard(re: &mut [f64], im: &mut [f64]) {
        let n = re.len();
        let mut len = 1;
        while len < n {
            let stride = len << 1;
            let mut base = 0;
            while base < n {
                for i in base..base + len {
                    let (ar, ai) = (re[i], im[i]);
                    let (br, bi) = (re[i + len], im[i + len]);
                    re[i] = ar + br;
                    im[i] = ai + bi;
                    re[i + len] = ar - br;
                    im[i + len] = ai - bi;
                }
                base += stride;
            }
            len = stride;
        }
    }

    #[test]
    fn walsh_hadamard_matches_the_radix2_reference_bit_for_bit() {
        // Every length from 2^0 to 2^16, odd and even stage counts, on
        // random data of mixed magnitude.
        let mut rng = SmallRng::seed_from_u64(26);
        for m in 0..=16usize {
            let n = 1usize << m;
            let re0: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0) * 1e3).collect();
            let im0: Vec<f64> = (0..n).map(|_| rng.gen_range(-1.0..1.0) * 1e-3).collect();
            let (mut re, mut im) = (re0.clone(), im0.clone());
            let (mut rr, mut ri) = (re0, im0);
            walsh_hadamard(&mut re, &mut im);
            radix2_walsh_hadamard(&mut rr, &mut ri);
            for z in 0..n {
                assert_eq!(re[z].to_bits(), rr[z].to_bits(), "n=2^{m} re[{z}]");
                assert_eq!(im[z].to_bits(), ri[z].to_bits(), "n=2^{m} im[{z}]");
            }
        }
    }

    #[test]
    fn walsh_hadamard_matches_direct_sum() {
        // 8-point WHT of a ramp against the O(4^m) definition.
        let m = 3usize;
        let n = 1usize << m;
        let mut re: Vec<f64> = (0..n).map(|y| y as f64).collect();
        let mut im: Vec<f64> = (0..n).map(|y| -(y as f64) * 0.5).collect();
        let (r0, i0) = (re.clone(), im.clone());
        walsh_hadamard(&mut re, &mut im);
        for z in 0..n {
            let (mut sr, mut si) = (0.0, 0.0);
            for y in 0..n {
                let sign = if (y & z).count_ones() % 2 == 1 { -1.0 } else { 1.0 };
                sr += sign * r0[y];
                si += sign * i0[y];
            }
            assert!((re[z] - sr).abs() < 1e-12 && (im[z] - si).abs() < 1e-12, "z={z}");
        }
    }

    #[test]
    fn component_dist_sampling_tracks_probabilities() {
        // Qubits {1,3}: P(00)=0.5, P(01)=0.25, P(10)=0.125, P(11)=0.125.
        let d = ComponentDist::new(vec![1, 3], &[0.5, 0.25, 0.125, 0.125]);
        assert!((d.probability(1) - 0.25).abs() < 1e-15);
        assert_eq!(d.local_state(0b1010), 0b11);
        let mut rng = SmallRng::seed_from_u64(5);
        let strings = sample_strings(std::slice::from_ref(&d), &mut rng, 4000);
        let ones = strings.iter().filter(|&&s| s == 0b10).count() as f64 / 4000.0;
        assert!((ones - 0.25).abs() < 0.03, "P(local 01) sampled {ones}");
        // Bits outside the component never light up.
        assert!(strings.iter().all(|&s| s & !0b1010 == 0));
    }

    #[test]
    fn blocked_sampler_is_bit_identical_at_every_block_size() {
        // Three components of mixed sizes; shot counts straddling the
        // block boundary on both sides.
        let dists = vec![
            ComponentDist::new(vec![0, 2], &[0.5, 0.25, 0.125, 0.125]),
            ComponentDist::new(vec![3], &[0.75, 0.25]),
            ComponentDist::new(vec![4, 5, 6], &[0.3, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1, 0.1]),
        ];
        for shots in [0usize, 1, 7, SAMPLE_BLOCK_SHOTS - 1, SAMPLE_BLOCK_SHOTS + 3] {
            let mut r_ref = SmallRng::seed_from_u64(42);
            let reference = sample_strings(&dists, &mut r_ref, shots);
            for block in [1usize, 2, 5, SAMPLE_BLOCK_SHOTS] {
                let mut r = SmallRng::seed_from_u64(42);
                let blocked = sample_strings_blocked_with(&dists, &mut r, shots, block);
                assert_eq!(blocked, reference, "shots={shots} block={block}");
                // The RNG stream position must also agree, so callers
                // drawing more from the same stream stay deterministic.
                assert_eq!(
                    rand::Rng::gen::<u64>(&mut r),
                    rand::Rng::gen::<u64>(&mut r_ref.clone()),
                    "RNG stream diverged at shots={shots} block={block}"
                );
            }
        }
    }
}
