//! Chain-sampler equivalence battery: the conditional-marginal chain
//! sampler (`itqc_backend::chain`) must be indistinguishable from the
//! joint-table sampler wherever both apply, and statistically correct
//! where only it applies.
//!
//! Three regimes:
//!
//! 1. **Bit-identity, `c ≤ 20`** — wherever a joint table exists, the
//!    chain sampler must produce *the same strings from the same RNG
//!    stream*: both scale one uniform per component per shot by their
//!    own total mass and descend to the same quantile, so equality is
//!    exact, not approximate. Pinned for arbitrary circuits up to
//!    `CHAIN_MAX_SPECIAL` qubits (where the chain degenerates to the
//!    joint distribution) and structured near-complete components up
//!    to `MAX_COMPONENT`. The blocked sampler must agree across block
//!    boundaries too.
//! 2. **Statistics, `c > 20`** — no joint reference exists, so the
//!    chain-sampled per-qubit marginals (including the worst qubit's)
//!    are pinned against the closed-form analytic marginals by a
//!    seeded chi-square goodness-of-fit at `c = 24` and `c = 32`, and
//!    relabelling the component's qubits must permute the empirical
//!    marginals with it (exchangeability of the bulk).
//! 3. **Refusal** — an oversize component *without* near-complete
//!    structure must surface the typed
//!    [`BackendError::ChainUnsupported`] at prepare time; the old
//!    blanket `SupportTooLarge` cap for `> MAX_COMPONENT` XX
//!    components is gone in both directions (structured components
//!    prepare, unstructured ones get the chain-specific error).

use itqc_backend::chain::ChainDist;
use itqc_backend::dist::{sample_strings, sample_strings_blocked_with, SAMPLE_BLOCK_SHOTS};
use itqc_backend::{
    Backend, BackendChoice, BackendError, BitString, XxPrepared, CHAIN_MAX_SPECIAL, MAX_COMPONENT,
};
use itqc_sim::XxCircuit;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// A connected `c`-qubit component: the complete graph at a modal
/// `base` angle, plus extra angle on a few deviant pairs (the chain
/// sampler's special set is the endpoints of those pairs).
fn structured_component(c: usize, base: f64, deviants: &[((usize, usize), f64)]) -> XxCircuit {
    let mut xx = XxCircuit::new(c);
    for a in 0..c {
        for b in (a + 1)..c {
            xx.add_xx(a, b, base);
        }
    }
    for &((a, b), extra) in deviants {
        xx.add_xx(a, b, extra);
    }
    xx
}

/// An arbitrary connected random circuit on `c` qubits: a random-angle
/// spanning path plus extra random pairs. Every pair angle is distinct,
/// so the chain plan marks all `c` qubits special — legal only up to
/// `CHAIN_MAX_SPECIAL`, where the chain *is* the joint distribution.
fn arbitrary_component(c: usize, rng: &mut SmallRng) -> XxCircuit {
    let mut xx = XxCircuit::new(c);
    for q in 1..c {
        xx.add_xx(q - 1, q, rng.gen_range(-2.5f64..2.5));
    }
    for _ in 0..c {
        let a = rng.gen_range(0..c);
        let b = rng.gen_range(0..c);
        if a != b {
            xx.add_xx(a, b, rng.gen_range(-2.5f64..2.5));
        }
    }
    xx
}

/// Deviant pairs `(0,1), (2,3), …` — `pairs` of them, touching
/// `2·pairs ≤ CHAIN_MAX_SPECIAL` special qubits.
fn disjoint_deviants(pairs: usize) -> Vec<((usize, usize), f64)> {
    (0..pairs).map(|i| ((2 * i, 2 * i + 1), 0.41 + 0.13 * i as f64)).collect()
}

/// Chain-vs-joint shared-seed comparison on one single-component
/// circuit: strings must be equal element-wise and both samplers must
/// leave their RNG at the same stream position.
fn assert_bit_identical(xx: &XxCircuit, shots: usize, seed: u64, label: &str) {
    let chain = ChainDist::build(xx).unwrap_or_else(|r| {
        panic!("{label}: chain refused a chainable component ({r:?})");
    });
    let prepared = XxPrepared::prepare(xx.clone()).unwrap();
    let joint = prepared.distributions();
    assert_eq!(joint.len(), 1, "{label}: expected a single component");
    let mut r_chain = SmallRng::seed_from_u64(seed);
    let mut r_joint = SmallRng::seed_from_u64(seed);
    let via_chain = sample_strings(&[chain], &mut r_chain, shots);
    let via_joint = sample_strings(joint, &mut r_joint, shots);
    assert_eq!(via_chain, via_joint, "{label}: strings diverged");
    assert_eq!(
        r_chain.gen::<u64>(),
        r_joint.gen::<u64>(),
        "{label}: RNG stream desynced (draws per shot differ)"
    );
}

#[test]
fn chain_matches_joint_bit_for_bit_on_arbitrary_components_up_to_12() {
    // c ≤ CHAIN_MAX_SPECIAL: every qubit may be special, so *any*
    // single-component circuit is chainable and the chain collapses to
    // the joint distribution — pin bit-identity on random circuits.
    for c in 2..=CHAIN_MAX_SPECIAL {
        let mut rng = SmallRng::seed_from_u64(0xC4A1_0000 + c as u64);
        for case in 0..4 {
            let xx = arbitrary_component(c, &mut rng);
            assert_bit_identical(&xx, 1500, rng.gen(), &format!("c={c} case={case}"));
        }
    }
}

#[test]
fn chain_matches_joint_bit_for_bit_on_structured_components_13_to_20() {
    // CHAIN_MAX_SPECIAL < c ≤ MAX_COMPONENT: both samplers exist for
    // near-complete components; the Krawtchouk-collapsed chain tables
    // must reproduce the 2^c joint table's draws exactly.
    for c in (CHAIN_MAX_SPECIAL + 1)..=MAX_COMPONENT {
        for pairs in [0usize, 2, 4] {
            let xx = structured_component(c, 0.9, &disjoint_deviants(pairs));
            let seed = 0x51DE_0000 + (c * 8 + pairs) as u64;
            assert_bit_identical(&xx, 2000, seed, &format!("c={c} deviant-pairs={pairs}"));
        }
    }
}

#[test]
fn blocked_sampling_is_invariant_for_chain_components() {
    // The blocked column-pass sampler must equal the per-shot sampler
    // for chain components too, including across block boundaries and
    // at degenerate block sizes.
    let xx = structured_component(18, 1.1, &disjoint_deviants(3));
    let chain = [ChainDist::build(&xx).unwrap()];
    let shots = 2 * SAMPLE_BLOCK_SHOTS + 777;
    let seed = 0xB10C_0001;
    let reference = sample_strings(&chain, &mut SmallRng::seed_from_u64(seed), shots);
    for block in [1usize, 257, SAMPLE_BLOCK_SHOTS] {
        let mut rng = SmallRng::seed_from_u64(seed);
        let blocked = sample_strings_blocked_with(&chain, &mut rng, shots, block);
        assert_eq!(reference, blocked, "block={block}");
        let mut r_ref = SmallRng::seed_from_u64(seed);
        let _ = sample_strings(&chain, &mut r_ref, shots);
        assert_eq!(rng.gen::<u64>(), r_ref.gen::<u64>(), "block={block}: stream desynced");
    }
}

#[test]
fn chain_marginals_pass_chi_square_against_closed_form_at_24_and_32_qubits() {
    // Beyond the joint cap there is no table to compare against; the
    // closed-form per-qubit marginals (an O(c) cosine product, computed
    // without any sampler) are the ground truth. Seeded chi-square over
    // special + bulk qubits — 0.999-quantile of χ²(6) is 22.5, and the
    // fixed seed makes this a deterministic regression pin.
    type Deviants = Vec<((usize, usize), f64)>;
    let cases: [(usize, Deviants, u64); 2] = [
        (24, vec![((0, 1), 0.37)], 0x6C0F_0018),
        (32, vec![((0, 1), 0.37), ((2, 3), -0.53)], 0x6C0F_0020),
    ];
    for (c, deviants, seed) in cases {
        let xx = structured_component(c, 0.9, &deviants);
        let chain = [ChainDist::build(&xx).unwrap()];
        let shots = sample_strings(&chain, &mut SmallRng::seed_from_u64(seed), 8000);
        let n = shots.len() as f64;
        let probe = [0usize, 1, 2, 3, c / 2, c - 1];
        let mut chi2 = 0.0;
        for &q in &probe {
            let p = xx.marginal_one(q).clamp(1e-9, 1.0 - 1e-9);
            let n1 = shots.iter().filter(|s| (**s >> q) & 1 == 1).count() as f64;
            chi2 += (n1 - n * p).powi(2) / (n * p)
                + ((n - n1) - n * (1.0 - p)).powi(2) / (n * (1.0 - p));
        }
        assert!(chi2.is_finite() && chi2 > 0.0, "c={c}: degenerate statistic {chi2}");
        assert!(chi2 < 22.5, "c={c}: chi-square {chi2} rejects the chain marginals");
    }
}

#[test]
fn relabelling_qubits_permutes_chain_marginals_with_them() {
    // Prefix-exchangeability: the chain draws special qubits first and
    // bulk qubits through a shared weight ladder, but the *labels* must
    // not matter — permuting the component's qubits must permute the
    // empirical per-qubit marginals within binomial noise.
    let c = 24usize;
    let xx = structured_component(c, 0.9, &[((0, 1), 0.37), ((4, 9), -0.61)]);
    let perm: Vec<usize> = (0..c).map(|q| (q + 7) % c).collect();
    let mut permuted = XxCircuit::new(c);
    for ((a, b), theta) in xx.terms() {
        permuted.add_xx(perm[a], perm[b], theta);
    }
    let shots = 6000usize;
    let freq = |xx: &XxCircuit, seed: u64| -> Vec<f64> {
        let chain = [ChainDist::build(xx).unwrap()];
        let strings = sample_strings(&chain, &mut SmallRng::seed_from_u64(seed), shots);
        (0..c)
            .map(|q| strings.iter().filter(|s| (**s >> q) & 1 == 1).count() as f64 / shots as f64)
            .collect()
    };
    let original = freq(&xx, 0xE8C4_0001);
    let relabeled = freq(&permuted, 0xE8C4_0002);
    for q in 0..c {
        let (a, b) = (original[q], relabeled[perm[q]]);
        let pooled = 0.5 * (a + b);
        let sigma = (2.0 * pooled * (1.0 - pooled) / shots as f64).sqrt().max(1e-3);
        assert!(
            (a - b).abs() < 5.0 * sigma,
            "qubit {q}→{}: marginal {a:.4} vs {b:.4} (5σ = {:.4})",
            perm[q],
            5.0 * sigma
        );
    }
}

#[test]
fn unstructured_oversize_component_yields_the_typed_chain_error() {
    // A 24-qubit star has every present pair deviating from the modal
    // (absent ⇒ 0) angle: all 24 qubits special, far past the limit.
    let mut star = XxCircuit::new(24);
    for q in 1..24 {
        star.add_xx(0, q, 1.3);
    }
    match XxPrepared::prepare(star.clone()) {
        Err(BackendError::ChainUnsupported { support, special, limit }) => {
            assert_eq!((support, special, limit), (24, 24, CHAIN_MAX_SPECIAL));
        }
        other => panic!("expected ChainUnsupported, got {other:?}"),
    }
    // The same typed error must surface through the public backend
    // seam, not a panic or a silent cap.
    match Backend::new(BackendChoice::Analytic).prepare(&star) {
        Err(BackendError::ChainUnsupported { support: 24, special: 24, .. }) => {}
        other => panic!("expected ChainUnsupported through Backend::prepare, got {other:?}"),
    }
}

#[test]
fn the_old_blanket_cap_above_20_qubits_is_gone_in_both_directions() {
    // Before the chain sampler, *every* XX component above MAX_COMPONENT
    // was rejected with SupportTooLarge. Now: structured components
    // prepare and sample; unstructured ones get the chain-specific
    // refusal. Neither path may return the old blanket error or panic.
    let oversize: Vec<(XxCircuit, bool, &str)> = vec![
        (structured_component(24, 0.9, &[]), true, "24q complete"),
        (structured_component(32, 0.9, &disjoint_deviants(2)), true, "32q complete + deviants"),
        (
            {
                let mut path = XxCircuit::new(24);
                for q in 1..24 {
                    path.add_xx(q - 1, q, 0.8);
                }
                path
            },
            false,
            "24q path",
        ),
    ];
    for (xx, chainable, label) in oversize {
        match XxPrepared::prepare(xx) {
            Ok(prepared) if chainable => {
                // The prepared circuit must actually produce strings.
                let mut rng = SmallRng::seed_from_u64(0x0D1D_0001);
                let strings = sample_strings(prepared.distributions(), &mut rng, 64);
                assert_eq!(strings.len(), 64, "{label}");
                assert!(strings.iter().any(|&s| s != 0 as BitString), "{label}: all-zero draws");
            }
            Err(BackendError::ChainUnsupported { .. }) if !chainable => {}
            Err(BackendError::SupportTooLarge { .. }) => {
                panic!("{label}: the blanket >{MAX_COMPONENT}-qubit cap is back")
            }
            other => panic!("{label}: unexpected outcome {other:?}"),
        }
    }
}
