//! Memoization of prepared circuits.
//!
//! The protocols re-run identical test circuits many times within one
//! diagnosis — threshold re-tunes replay a rung's class battery, the
//! contrast sweep scores the same healthy-class circuits the shot
//! executor then samples — and the expensive part of the analytic
//! backend (the `2^c` component distributions) depends only on the
//! accumulated noisy coupling angles. The cache key is therefore the
//! exact `(register size, couplings, angle bits)` of the accumulated
//! circuit: two circuits share a preparation iff they are the same
//! commuting-XX unitary *including* the trial's noise profile, so a
//! cache hit can never alias two different machines.

use crate::analytic::XxPrepared;
use itqc_sim::XxCircuit;
use std::collections::HashMap;
use std::ops::{Add, AddAssign};
use std::rc::Rc;

/// Number of prepared circuits held before the cache is flushed. A
/// diagnosis run touches well under a hundred distinct circuits; the
/// bound only guards pathological callers (a 16-qubit component's CDF
/// is ~½ MiB, so 256 entries cap the cache at ~128 MiB worst-case).
pub const CACHE_CAPACITY: usize = 256;

/// The bit pattern a coupling angle keys under: `-0.0` canonicalises to
/// `+0.0` (they are the same rotation, but their IEEE-754 bit patterns
/// differ — keying raw bits made e.g. a `-θ·(1-u)` gate cancelled to
/// negative zero miss the cache entry its positive-zero twin built).
/// Every other angle, including the 1-ulp noise perturbations the cache
/// must keep apart, keys on its exact bits.
pub fn angle_key_bits(theta: f64) -> u64 {
    if theta == 0.0 {
        0.0f64.to_bits()
    } else {
        theta.to_bits()
    }
}

/// Exact cache key of an accumulated commuting-XX circuit.
pub fn xx_key(xx: &XxCircuit) -> Vec<u64> {
    let mut key = Vec::with_capacity(1 + 3 * xx.terms().count());
    key.push(xx.n_qubits() as u64);
    for ((a, b), theta) in xx.terms() {
        key.push(a as u64);
        key.push(b as u64);
        key.push(angle_key_bits(theta));
    }
    key
}

/// Hit/miss/eviction totals of a prepared-circuit cache — the common
/// observability currency of every cache layer in the workspace (this
/// per-backend cache, and the fleet's shared cross-trap cache which
/// layers over it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that had to build a preparation.
    pub misses: u64,
    /// Entries dropped to enforce a capacity or size budget.
    pub evictions: u64,
}

impl CacheCounters {
    /// Hits as a fraction of all lookups (0 when nothing was looked up).
    pub fn hit_rate(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.hits as f64 / total as f64
        }
    }

    /// Total lookups observed.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }
}

impl Add for CacheCounters {
    type Output = CacheCounters;

    fn add(self, rhs: CacheCounters) -> CacheCounters {
        CacheCounters {
            hits: self.hits + rhs.hits,
            misses: self.misses + rhs.misses,
            evictions: self.evictions + rhs.evictions,
        }
    }
}

impl AddAssign for CacheCounters {
    fn add_assign(&mut self, rhs: CacheCounters) {
        *self = *self + rhs;
    }
}

/// A bounded map from [`xx_key`] to shared preparations, with hit/miss
/// counters for observability.
#[derive(Debug, Default)]
pub struct PrepCache {
    map: HashMap<Vec<u64>, Rc<XxPrepared>>,
    counters: CacheCounters,
}

impl PrepCache {
    /// Looks up a preparation, counting the outcome.
    pub fn get(&mut self, key: &[u64]) -> Option<Rc<XxPrepared>> {
        match self.map.get(key) {
            Some(hit) => {
                self.counters.hits += 1;
                // Per-backend caches live on one thread each, so the
                // hit/miss split varies with the sharding — nd class.
                itqc_obs::event::add_nd("backend.prep_cache.hits", 1);
                Some(Rc::clone(hit))
            }
            None => {
                self.counters.misses += 1;
                itqc_obs::event::add_nd("backend.prep_cache.misses", 1);
                None
            }
        }
    }

    /// Stores a preparation, flushing the whole cache first when full
    /// (epoch eviction: simpler than LRU and the working set of one
    /// diagnosis fits comfortably under the capacity; the fleet's shared
    /// cross-trap layer does true LRU with a byte budget instead).
    pub fn insert(&mut self, key: Vec<u64>, prepared: Rc<XxPrepared>) {
        if self.map.len() >= CACHE_CAPACITY {
            self.counters.evictions += self.map.len() as u64;
            itqc_obs::event::add_nd("backend.prep_cache.evictions", self.map.len() as u64);
            self.map.clear();
        }
        self.map.insert(key, prepared);
    }

    /// (hits, misses) since construction.
    pub fn stats(&self) -> (u64, u64) {
        (self.counters.hits, self.counters.misses)
    }

    /// Full hit/miss/eviction counters since construction.
    pub fn counters(&self) -> CacheCounters {
        self.counters
    }

    /// Number of cached preparations.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn key_separates_noise_profiles() {
        let mut a = XxCircuit::new(4);
        a.add_xx(0, 1, 0.5);
        let mut b = XxCircuit::new(4);
        b.add_xx(0, 1, 0.5 + 1e-15);
        assert_ne!(xx_key(&a), xx_key(&b), "angle bits must separate noise profiles");
        let mut c = XxCircuit::new(5);
        c.add_xx(0, 1, 0.5);
        assert_ne!(xx_key(&a), xx_key(&c), "register size is part of the key");
    }

    #[test]
    fn negative_zero_angles_share_a_key() {
        // A noisy compilation scales angles by `(1 - u)`: a negative
        // base angle at u = 1 lands on IEEE -0.0, whose raw bits differ
        // from +0.0 even though the rotation is the same.
        let minus_zero = -0.5f64 * (1.0 - 1.0);
        assert_ne!(minus_zero.to_bits(), 0.0f64.to_bits(), "distinct raw bits (the bug)");
        let mut neg = XxCircuit::new(4);
        neg.add_xx(0, 1, minus_zero);
        let mut pos = XxCircuit::new(4);
        pos.add_xx(0, 1, 0.0);
        assert_eq!(xx_key(&neg), xx_key(&pos), "-0.0 and 0.0 are the same rotation");
        // The canonicalisation must not merge genuinely distinct angles,
        // however small.
        assert_eq!(angle_key_bits(1e-300), 1e-300f64.to_bits());
        assert_eq!(angle_key_bits(-1e-300), (-1e-300f64).to_bits());
    }

    #[test]
    fn capacity_flush_keeps_map_bounded() {
        let mut cache = PrepCache::default();
        for i in 0..(CACHE_CAPACITY + 10) {
            let mut xx = XxCircuit::new(4);
            xx.add_xx(0, 1, i as f64 * 1e-3);
            let prep = Rc::new(XxPrepared::prepare(xx).unwrap());
            cache.insert(xx_key(prep.xx()), prep);
            assert!(cache.len() <= CACHE_CAPACITY);
        }
        assert!(!cache.is_empty());
        // The flush was recorded as CACHE_CAPACITY evictions.
        assert_eq!(cache.counters().evictions, CACHE_CAPACITY as u64);
    }

    #[test]
    fn counters_accumulate_and_merge() {
        let a = CacheCounters { hits: 3, misses: 1, evictions: 0 };
        let b = CacheCounters { hits: 1, misses: 1, evictions: 2 };
        let sum = a + b;
        assert_eq!(sum, CacheCounters { hits: 4, misses: 2, evictions: 2 });
        assert!((sum.hit_rate() - 4.0 / 6.0).abs() < 1e-12);
        assert_eq!(sum.lookups(), 6);
        assert_eq!(CacheCounters::default().hit_rate(), 0.0);
    }
}
