//! Backend-equivalence property suite: the pluggable simulation
//! backends must be interchangeable wherever both apply.
//!
//! On seeded random commuting-XX circuits at `N ≤ 12`, the
//! `XxAnalyticBackend` (component-factorized Gray-code/Walsh–Hadamard
//! engine) and the `DenseBackend` (support-compressed state vector)
//! must agree on per-qubit marginals and exact output probabilities to
//! `1e-9` — and, because both draw through the canonical
//! component-ordered inverse-CDF sampler, their shot strings must match
//! **bit for bit** under a shared RNG seed. The same holds one level
//! up, through the backend-routed executor and the string-sampling shot
//! wrapper the Fig. 8 study runs on.

use itqc::prelude::*;
use itqc_bench::StringSampled;
use itqc_core::testplan::ScoreMode;
use itqc_core::TestSpec;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

const CASES: u64 = 40;

/// A random commuting-XX circuit on 2–12 qubits with 1–17 gates.
fn random_xx_circuit(rng: &mut SmallRng) -> XxCircuit {
    let n = rng.gen_range(2usize..=12);
    let count = rng.gen_range(1usize..18);
    let mut c = XxCircuit::new(n);
    for _ in 0..count {
        let a = rng.gen_range(0..n);
        let b = rng.gen_range(0..n);
        if a != b {
            c.add_xx(a, b, rng.gen_range(-3.0f64..3.0));
        }
    }
    c
}

#[test]
fn marginals_and_probabilities_agree_to_1e9() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xBAC0 + case);
        let circuit = random_xx_circuit(&mut rng);
        let n = circuit.n_qubits();
        let dense = Backend::new(BackendChoice::Dense).prepare(&circuit).unwrap();
        let analytic = Backend::new(BackendChoice::Analytic).prepare(&circuit).unwrap();
        assert_eq!(dense.support(), analytic.support(), "case {case}");
        for q in 0..n {
            assert!(
                (dense.marginal_one(q) - analytic.marginal_one(q)).abs() < 1e-9,
                "case {case}, qubit {q}"
            );
        }
        for _ in 0..8 {
            let target = (rng.gen::<usize>() & ((1 << n) - 1)) as u128;
            assert!(
                (dense.probability(target) - analytic.probability(target)).abs() < 1e-9,
                "case {case}, target {target:b}"
            );
            assert!(
                (dense.min_qubit_agreement(target) - analytic.min_qubit_agreement(target)).abs()
                    < 1e-9,
                "case {case}, worst-qubit at {target:b}"
            );
        }
    }
}

#[test]
fn shot_sampling_matches_bit_for_bit_under_a_shared_seed() {
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0x5A3D + case);
        let circuit = random_xx_circuit(&mut rng);
        let dense = Backend::new(BackendChoice::Dense).prepare(&circuit).unwrap();
        let analytic = Backend::new(BackendChoice::Analytic).prepare(&circuit).unwrap();
        let shot_seed = rng.gen::<u64>();
        let mut r1 = SmallRng::seed_from_u64(shot_seed);
        let mut r2 = SmallRng::seed_from_u64(shot_seed);
        let s1 = dense.sample(&mut r1, 128);
        let s2 = analytic.sample(&mut r2, 128);
        assert_eq!(s1, s2, "case {case}: shot strings diverged");
        // Both RNG streams must have consumed identically (one draw per
        // component per shot), so the next draw agrees too.
        assert_eq!(r1.gen::<u64>(), r2.gen::<u64>(), "case {case}: RNG stream desynced");
    }
}

#[test]
fn routed_executors_and_string_sampler_agree_across_backends() {
    // The full Fig. 8 stack: faulty executor → backend → sampled score.
    for case in 0..12 {
        let mut rng = SmallRng::seed_from_u64(0xE8EC + case);
        let n = rng.gen_range(4usize..=10);
        let fault = Coupling::new(rng.gen_range(0..n / 2), rng.gen_range(n / 2..n));
        let u = rng.gen_range(0.05..0.45);
        let couplings: Vec<Coupling> = {
            let mut cs = vec![fault];
            while cs.len() < 3 {
                let a = rng.gen_range(0..n);
                let b = rng.gen_range(0..n);
                if a != b && !cs.contains(&Coupling::new(a, b)) {
                    cs.push(Coupling::new(a, b));
                }
            }
            cs
        };
        let shot_seed = rng.gen::<u64>();
        let score_with = |choice: BackendChoice, score: ScoreMode| {
            let exec = ExactExecutor::new(n).with_fault(fault, u).with_backend(choice);
            let spec = TestSpec::for_couplings("eq", &couplings, 4).with_score(score);
            let exact = exec.exact_score(&spec);
            let mut sampler = StringSampled::new(exec, shot_seed);
            (exact, sampler.run_test(&spec, 300))
        };
        for score in [ScoreMode::ExactTarget, ScoreMode::WorstQubit] {
            let (exact_d, shot_d) = score_with(BackendChoice::Dense, score);
            let (exact_a, shot_a) = score_with(BackendChoice::Analytic, score);
            assert!((exact_d - exact_a).abs() < 1e-9, "case {case} {score:?} exact");
            assert_eq!(
                shot_d.to_bits(),
                shot_a.to_bits(),
                "case {case} {score:?}: sampled scores must be identical"
            );
        }
    }
}

#[test]
fn adversarial_scenarios_agree_across_backends() {
    // The adversarial harness's configurations stack several faulty
    // couplings on shared qubits, so their scores hinge on multi-fault
    // interference — the even-degree parity cancellation (Π cos over a
    // qubit's faults) that no single-fault case exercises. Both
    // backends must agree on the exact scores to 1e-9 and bit-for-bit
    // through the shot sampler, on the full-machine canary spec (where
    // the cancellation happens) and on each planted point test.
    use itqc_faults::adversarial::{sample_scenario, ConfigClass};
    let mut rng = SmallRng::seed_from_u64(0xAD5E);
    for case in 0..6 {
        let class = if case % 2 == 0 { ConfigClass::EvenDegree } else { ConfigClass::TiedCover };
        let n = 8;
        let scenario = sample_scenario(class, n, &mut rng);
        let all: Vec<Coupling> =
            (0..n).flat_map(|a| (a + 1..n).map(move |b| Coupling::new(a, b))).collect();
        let mut specs =
            vec![TestSpec::for_couplings("canary", &all, 2).with_score(ScoreMode::WorstQubit)];
        for (i, &c) in scenario.faults.iter().enumerate() {
            specs.push(
                TestSpec::for_couplings(format!("point{i}"), &[c], 4)
                    .with_score(ScoreMode::ExactTarget),
            );
        }
        let shot_seed = rng.gen::<u64>();
        for spec in &specs {
            let score_with = |choice: BackendChoice| {
                let exec = ExactExecutor::new(n)
                    .with_faults(scenario.faults.iter().map(|&c| (c, 0.30)))
                    .with_backend(choice);
                let exact = exec.exact_score(spec);
                let mut sampler = StringSampled::new(exec, shot_seed);
                (exact, sampler.run_test(spec, 300))
            };
            let (exact_d, shot_d) = score_with(BackendChoice::Dense);
            let (exact_a, shot_a) = score_with(BackendChoice::Analytic);
            assert!(
                (exact_d - exact_a).abs() < 1e-9,
                "case {case} ({class}) spec {}: exact scores diverged",
                spec.label
            );
            assert_eq!(
                shot_d.to_bits(),
                shot_a.to_bits(),
                "case {case} ({class}) spec {}: sampled scores diverged",
                spec.label
            );
        }
    }
}

#[test]
fn batched_prepare_and_blocked_sampling_match_the_unbatched_path_bit_for_bit() {
    // The blocked sampler behind every `PreparedCircuit::sample` — the
    // path fig8/fig9/table2 and the fleet ride — must be bit-identical to
    // the per-shot reference `dist::sample_strings` from the same RNG
    // state on every backend's preparations, at shot counts straddling
    // the 4096-shot block boundary. The reference runs on the analytic
    // component tables, which the dense ones match shot for shot
    // (`shot_sampling_matches_bit_for_bit_under_a_shared_seed`).
    use itqc_backend::dist::sample_strings;
    use itqc_backend::XxPrepared;
    for case in 0..CASES {
        let mut rng = SmallRng::seed_from_u64(0xBA7C + case);
        let circuits: Vec<XxCircuit> = (0..3).map(|_| random_xx_circuit(&mut rng)).collect();
        for choice in [BackendChoice::Dense, BackendChoice::Analytic, BackendChoice::Auto] {
            let backend = Backend::new(choice);
            for circuit in &circuits {
                let prep =
                    backend.prepare(circuit).expect("small circuits prepare on every backend");
                let reference =
                    XxPrepared::prepare(circuit.clone()).expect("small components prepare");
                let seed = rng.gen::<u64>();
                for shots in [0usize, 1, 300, 4095, 4099] {
                    let mut r1 = SmallRng::seed_from_u64(seed);
                    let mut r2 = SmallRng::seed_from_u64(seed);
                    let a = sample_strings(reference.distributions(), &mut r1, shots);
                    let b = prep.sample(&mut r2, shots);
                    assert_eq!(a, b, "case {case} {choice:?} shots {shots}");
                    assert_eq!(
                        r1.gen::<u64>(),
                        r2.gen::<u64>(),
                        "case {case} {choice:?} shots {shots}: RNG stream desynced"
                    );
                }
            }
        }
    }
}

#[test]
fn blocked_sampler_is_block_size_invariant_on_prepared_distributions() {
    // Block 1 (the per-shot access pattern) and block 4096 (the
    // production block) must produce identical strings from a real
    // prepared circuit's component tables, across the block boundary.
    use itqc_backend::dist::{sample_strings, sample_strings_blocked_with};
    use itqc_backend::XxPrepared;
    let mut xx = itqc_sim::XxCircuit::new(9);
    xx.add_xx(0, 1, 0.31);
    xx.add_xx(1, 2, -0.62);
    xx.add_xx(3, 4, 1.17);
    xx.add_xx(6, 7, 0.05);
    xx.add_xx(7, 8, 2.41);
    let prep = XxPrepared::prepare(xx).unwrap();
    let dists = prep.distributions();
    for shots in [1usize, 4095, 4096, 4097, 8200] {
        let mut r_ref = SmallRng::seed_from_u64(0xB10C);
        let reference = sample_strings(dists, &mut r_ref, shots);
        for block in [1usize, 7, 4096] {
            let mut r = SmallRng::seed_from_u64(0xB10C);
            let got = sample_strings_blocked_with(dists, &mut r, shots, block);
            assert_eq!(got, reference, "shots {shots} block {block}");
            assert_eq!(
                r.gen::<u64>(),
                r_ref.clone().gen::<u64>(),
                "shots {shots} block {block}: RNG stream desynced"
            );
        }
    }
}

#[test]
fn auto_choice_matches_forced_analytic_on_xx_circuits() {
    for case in 0..8 {
        let mut rng = SmallRng::seed_from_u64(0xA070 + case);
        let circuit = random_xx_circuit(&mut rng);
        let auto = Backend::new(BackendChoice::Auto).prepare(&circuit).unwrap();
        let analytic = Backend::new(BackendChoice::Analytic).prepare(&circuit).unwrap();
        let seed = rng.gen::<u64>();
        let mut r1 = SmallRng::seed_from_u64(seed);
        let mut r2 = SmallRng::seed_from_u64(seed);
        assert_eq!(auto.sample(&mut r1, 32), analytic.sample(&mut r2, 32), "case {case}");
    }
}
