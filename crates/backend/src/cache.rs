//! Memoization of prepared circuits.
//!
//! The protocols re-run identical test circuits many times within one
//! diagnosis — threshold re-tunes replay a rung's class battery, the
//! contrast sweep scores the same healthy-class circuits the shot
//! executor then samples — and the expensive part of the analytic
//! backend (the `2^c` component distributions) depends only on the
//! accumulated noisy coupling angles. The cache therefore keys on the
//! compiled [`XxCircuit`] itself, whose equality is the exact
//! `(register size, couplings, angle bits)` of the accumulated circuit:
//! two circuits share a preparation iff they are the same commuting-XX
//! unitary *including* the trial's noise profile, so a cache hit can
//! never alias two different machines.

use crate::analytic::XxPrepared;
use itqc_sim::XxCircuit;
use std::collections::HashMap;
use std::rc::Rc;

/// Number of prepared circuits held before the cache is flushed. A
/// diagnosis run touches well under a hundred distinct circuits; the
/// bound only guards pathological callers (a 16-qubit component's CDF
/// is ~½ MiB, so 256 entries cap the cache at ~128 MiB worst-case).
pub const CACHE_CAPACITY: usize = 256;

/// A bounded map from compiled circuits to shared preparations, with
/// hit/miss counters for observability.
#[derive(Debug, Default)]
pub struct PrepCache {
    map: HashMap<XxCircuit, Rc<XxPrepared>>,
    hits: u64,
    misses: u64,
}

impl PrepCache {
    /// Looks up a preparation, counting the outcome.
    pub fn get(&mut self, xx: &XxCircuit) -> Option<Rc<XxPrepared>> {
        match self.map.get(xx) {
            Some(hit) => {
                self.hits += 1;
                // Per-backend caches live on one thread each, so the
                // hit/miss split varies with the sharding — nd class.
                itqc_obs::event::add_nd("backend.prep_cache.hits", 1);
                Some(Rc::clone(hit))
            }
            None => {
                self.misses += 1;
                itqc_obs::event::add_nd("backend.prep_cache.misses", 1);
                None
            }
        }
    }

    /// Stores a preparation under its circuit, flushing the whole cache
    /// first when full (epoch eviction: simpler than LRU and the working
    /// set of one diagnosis fits comfortably under the capacity).
    pub fn insert(&mut self, prepared: Rc<XxPrepared>) {
        if self.map.len() >= CACHE_CAPACITY {
            itqc_obs::event::add_nd("backend.prep_cache.evictions", self.map.len() as u64);
            self.map.clear();
        }
        self.map.insert(prepared.xx().clone(), prepared);
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.hits, self.misses)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_circuit::Coupling;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};
    use std::collections::hash_map::DefaultHasher;
    use std::collections::BTreeMap;
    use std::f64::consts::FRAC_PI_2;
    use std::hash::{Hash, Hasher};

    #[test]
    fn key_separates_noise_profiles() {
        let mut a = XxCircuit::new(4);
        a.add_xx(0, 1, 0.5);
        let mut b = XxCircuit::new(4);
        b.add_xx(0, 1, 0.5 + 1e-15);
        assert_ne!(a, b, "angle bits must separate noise profiles");
        let mut c = XxCircuit::new(5);
        c.add_xx(0, 1, 0.5);
        assert_ne!(a, c, "register size is part of the key");
    }

    #[test]
    fn negative_zero_angles_share_a_key() {
        // A noisy compilation scales angles by `(1 - u)`: a negative
        // base angle at u = 1 lands on IEEE -0.0, whose raw bits differ
        // from +0.0 even though the rotation is the same.
        let minus_zero = -0.5f64 * (1.0 - 1.0);
        assert_ne!(minus_zero.to_bits(), 0.0f64.to_bits(), "distinct raw bits (the bug)");
        let gate = [(Coupling::new(0, 1), 0.5)];
        let neg = XxCircuit::compile(4, &gate, |_| -0.0);
        let pos = XxCircuit::compile(4, &gate, |_| 0.0);
        assert_eq!(neg, pos, "-0.0 and 0.0 are the same rotation");
        assert_eq!(hash_of(&neg), hash_of(&pos));
        // The canonicalisation must not merge genuinely distinct angles,
        // however small.
        let tiny = |theta: f64| XxCircuit::compile(4, &[(Coupling::new(0, 1), theta)], |_| 1.0);
        assert_ne!(tiny(1e-300), pos);
        assert_ne!(tiny(-1e-300), pos);
        assert_ne!(tiny(1e-300), tiny(-1e-300));
    }

    fn hash_of(xx: &XxCircuit) -> u64 {
        let mut hasher = DefaultHasher::new();
        xx.hash(&mut hasher);
        hasher.finish()
    }

    /// The route every test circuit took to its key before the compile
    /// route: one `BTreeMap` entry per coupling, each gate's angle
    /// `θ·scale` folded in program order from `0.0`, then a `Vec<u64>`
    /// of `(n, a, b, angle bits)` with `-0.0` keyed as `+0.0`.
    fn reference_fold(
        n_qubits: usize,
        gates: &[(Coupling, f64)],
        scales: &[f64],
    ) -> (BTreeMap<(usize, usize), f64>, Vec<u64>) {
        let mut terms = BTreeMap::new();
        for (&(coupling, theta), &scale) in gates.iter().zip(scales) {
            *terms.entry(coupling.endpoints()).or_insert(0.0) += theta * scale;
        }
        let mut key = vec![n_qubits as u64];
        for (&(a, b), &theta) in &terms {
            let bits = if theta == 0.0 { 0.0f64.to_bits() } else { theta.to_bits() };
            key.extend([a as u64, b as u64, bits]);
        }
        (terms, key)
    }

    /// The compile route under test: `gates` scaled per gate in program
    /// order.
    fn compile(n_qubits: usize, gates: &[(Coupling, f64)], scales: &[f64]) -> XxCircuit {
        let mut scales = scales.iter();
        XxCircuit::compile(n_qubits, gates, |_| *scales.next().expect("one scale per gate"))
    }

    /// Whether two compiled circuits share a cache key: they compare
    /// equal, and then they must hash equal too.
    fn same_key(a: &XxCircuit, b: &XxCircuit) -> bool {
        let equal = a == b;
        if equal {
            assert_eq!(hash_of(a), hash_of(b), "equal circuits must hash equal");
        }
        equal
    }

    /// A random gate list on `n` qubits: a few couplings, some written
    /// with reversed endpoints, repeated out of order, at angles that
    /// include both zeros and 1-ulp neighbours; and one scale per gate,
    /// including `0.0` (a negative angle then compiles to `-0.0`).
    fn random_gates(rng: &mut SmallRng, n: usize) -> (Vec<(Coupling, f64)>, Vec<f64>) {
        let pool: Vec<Coupling> = (0..rng.gen_range(1..=6))
            .map(|_| {
                let a = rng.gen_range(0..n);
                let b = (a + rng.gen_range(1..n)) % n;
                Coupling::new(a, b)
            })
            .collect();
        let mut gates: Vec<(Coupling, f64)> = Vec::new();
        for _ in 0..rng.gen_range(1..=3 * n) {
            let coupling = pool[rng.gen_range(0..pool.len())];
            let theta = match rng.gen_range(0..6) {
                0 => 0.0,
                1 => -0.0,
                2 => FRAC_PI_2 * if rng.gen_bool(0.5) { 1.0 } else { -1.0 },
                3 if !gates.is_empty() => {
                    let prev = gates[rng.gen_range(0..gates.len())].1;
                    f64::from_bits(prev.to_bits() + 1)
                }
                _ => rng.gen_range(-3.2..3.2),
            };
            gates.push((coupling, theta));
        }
        let scales = gates
            .iter()
            .map(|_| match rng.gen_range(0..4) {
                0 => 0.0,
                1 => 1.0,
                _ => 1.0 - rng.gen_range(-0.1..0.1),
            })
            .collect();
        (gates, scales)
    }

    #[test]
    fn compiled_circuits_key_like_the_map_fold() {
        let mut rng = SmallRng::seed_from_u64(0x27);
        let (mut equal, mut apart, mut zeros) = (0, 0, 0);
        for trial in 0..400 {
            let n = rng.gen_range(2..=40usize);
            let (gates, scales) = random_gates(&mut rng, n);
            let (terms, key) = reference_fold(n, &gates, &scales);
            let xx = compile(n, &gates, &scales);
            let compiled: Vec<(usize, usize, u64)> =
                xx.terms().map(|((a, b), theta)| (a, b, theta.to_bits())).collect();
            let reference: Vec<(usize, usize, u64)> =
                terms.iter().map(|(&(a, b), &theta)| (a, b, theta.to_bits())).collect();
            assert_eq!(compiled, reference, "trial {trial}: terms");
            zeros += terms.values().filter(|&&t| t == 0.0).count();

            // Variants: the same list, two neighbouring gates of distinct
            // couplings swapped, one angle 1 ulp away, one zero angle
            // with its sign flipped, and a larger register.
            let mut variants = vec![(n, gates.clone(), scales.clone())];
            if let Some(k) = (1..gates.len()).find(|&k| gates[k - 1].0 != gates[k].0) {
                let mut swapped = (gates.clone(), scales.clone());
                swapped.0.swap(k - 1, k);
                swapped.1.swap(k - 1, k);
                variants.push((n, swapped.0, swapped.1));
            }
            let k = rng.gen_range(0..gates.len());
            let mut nudged = gates.clone();
            nudged[k].1 = f64::from_bits(nudged[k].1.to_bits() ^ 1);
            variants.push((n, nudged, scales.clone()));
            if let Some(k) = gates.iter().position(|&(_, t)| t == 0.0) {
                let mut flipped = gates.clone();
                flipped[k].1 = -flipped[k].1;
                variants.push((n, flipped, scales.clone()));
            }
            variants.push((n + 1, gates.clone(), scales.clone()));
            for (m, other_gates, other_scales) in variants {
                let other = compile(m, &other_gates, &other_scales);
                let keys_equal = key == reference_fold(m, &other_gates, &other_scales).1;
                assert_eq!(same_key(&xx, &other), keys_equal, "trial {trial}");
                if keys_equal {
                    equal += 1;
                } else {
                    apart += 1;
                }
            }
        }
        assert!(equal > 400 && apart > 400 && zeros > 50, "{equal} equal, {apart} apart, {zeros}");
    }

    #[test]
    fn capacity_flush_keeps_map_bounded() {
        let mut cache = PrepCache::default();
        for i in 0..(CACHE_CAPACITY + 10) {
            let mut xx = XxCircuit::new(4);
            xx.add_xx(0, 1, i as f64 * 1e-3);
            cache.insert(Rc::new(XxPrepared::prepare(xx).unwrap()));
            assert!(cache.map.len() <= CACHE_CAPACITY);
        }
        // One flush emptied the full map: only the overflow remains.
        assert_eq!(cache.map.len(), 10);
    }
}
