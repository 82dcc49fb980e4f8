//! The fleet's shared prepared-circuit cache.
//!
//! Layered over `itqc_backend`'s per-backend cache idea, but shared
//! across every trap in the fleet: [`SharedPrepCache`] (one per fleet)
//! owns the canonical `xx_key → Arc<XxPrepared>` map under a byte budget
//! with true LRU eviction, and publishes an immutable [`CacheSnapshot`]
//! that worker threads read lock-free during a tick. All mutation
//! happens on the scheduler thread at tick barriers, in trap-id order,
//! which is what makes the hit/miss/eviction counters — and therefore
//! the end-of-run summary — bit-identical at any worker count. Within a
//! tick, a trap replays circuits it built itself from its own build log
//! (see [`crate::exec::CachedTrapExecutor`]).
//!
//! Keys are [`itqc_backend::cache::xx_key`] — register size, couplings,
//! and the exact noisy angle bits — so a hit can never alias two
//! different calibration profiles.

use itqc_backend::{CacheCounters, XxPrepared};
use itqc_obs::Counter;
use std::collections::HashMap;
use std::sync::Arc;

/// A prepared-circuit cache key (see `itqc_backend::cache::xx_key`).
pub type PrepKey = Vec<u64>;

/// An immutable, lock-free view of the shared cache taken at a tick
/// barrier. Cloning is one `Arc` bump; worker threads read it without
/// synchronisation for the duration of a tick.
#[derive(Clone, Debug, Default)]
pub struct CacheSnapshot {
    map: Arc<HashMap<PrepKey, Arc<XxPrepared>>>,
}

impl CacheSnapshot {
    /// Looks up a preparation without touching any counters (the
    /// scheduler folds worker-observed outcomes in at the tick barrier).
    pub fn get(&self, key: &[u64]) -> Option<Arc<XxPrepared>> {
        self.map.get(key).cloned()
    }

    /// Number of visible entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the snapshot is empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }
}

#[derive(Debug)]
struct Entry {
    prep: Arc<XxPrepared>,
    bytes: usize,
    last_used_tick: u64,
    /// Insertion sequence — a deterministic LRU tie-break within a tick.
    seq: u64,
}

/// The shared, eviction-aware L2 cache. Mutated only on the scheduler
/// thread; published to workers as [`CacheSnapshot`]s.
#[derive(Debug)]
pub struct SharedPrepCache {
    entries: HashMap<PrepKey, Entry>,
    snapshot: CacheSnapshot,
    dirty: bool,
    budget_bytes: usize,
    bytes: usize,
    next_seq: u64,
    hits: Counter,
    misses: Counter,
    evictions: Counter,
}

impl SharedPrepCache {
    /// An empty cache holding at most `budget_bytes` of materialized
    /// preparation tables (estimated via [`XxPrepared::table_bytes`]),
    /// counting into private detached handles.
    pub fn new(budget_bytes: usize) -> Self {
        SharedPrepCache::with_counters(
            budget_bytes,
            Counter::detached(),
            Counter::detached(),
            Counter::detached(),
        )
    }

    /// Like [`Self::new`], but counting into caller-supplied handles —
    /// the fleet registers them as `fleet.cache.l2.*` in its
    /// [`itqc_obs::Registry`], so the same totals drive the `stats`
    /// line, the summary, and the metrics document.
    pub fn with_counters(
        budget_bytes: usize,
        hits: Counter,
        misses: Counter,
        evictions: Counter,
    ) -> Self {
        SharedPrepCache {
            entries: HashMap::new(),
            snapshot: CacheSnapshot::default(),
            dirty: false,
            budget_bytes,
            bytes: 0,
            next_seq: 0,
            hits,
            misses,
            evictions,
        }
    }

    /// The current published snapshot (rebuilt at [`Self::end_tick`]
    /// and after [`Self::admit`] batches).
    pub fn snapshot(&self) -> CacheSnapshot {
        self.snapshot.clone()
    }

    /// Whether `key` is resident.
    pub fn contains(&self, key: &[u64]) -> bool {
        self.entries.contains_key(key)
    }

    /// Counted lookup on the scheduler thread: a hit refreshes the LRU
    /// stamp, a miss only increments the miss counter (the caller is
    /// expected to build and [`Self::admit`]).
    pub fn lookup(&mut self, key: &[u64], tick: u64) -> Option<Arc<XxPrepared>> {
        match self.entries.get_mut(key) {
            Some(e) => {
                self.hits.incr();
                e.last_used_tick = tick;
                Some(Arc::clone(&e.prep))
            }
            None => {
                self.misses.incr();
                None
            }
        }
    }

    /// Records a hit served by a snapshot or by a just-built batch entry
    /// without re-reading the map (the worker already has the value).
    /// Refreshes the LRU stamp when the key is resident.
    pub fn note_hit(&mut self, key: &[u64], tick: u64) {
        self.hits.incr();
        if let Some(e) = self.entries.get_mut(key) {
            e.last_used_tick = tick;
        }
    }

    /// Records misses observed by workers against a tick snapshot.
    pub fn note_misses(&mut self, n: u64) {
        self.misses.add(n);
    }

    /// Refreshes the LRU stamp of a key a worker hit in its snapshot.
    pub fn touch(&mut self, key: &[u64], tick: u64) {
        if let Some(e) = self.entries.get_mut(key) {
            e.last_used_tick = tick;
        }
    }

    /// Admits a freshly built preparation (no counter change — the miss
    /// was counted at lookup time). If the key is already resident (two
    /// shards built it independently within one tick) the first copy
    /// wins and the stamp is refreshed.
    pub fn admit(&mut self, key: PrepKey, prep: Arc<XxPrepared>, tick: u64) {
        if let Some(e) = self.entries.get_mut(&key) {
            e.last_used_tick = tick;
            return;
        }
        let bytes = prep.table_bytes();
        self.bytes += bytes;
        let seq = self.next_seq;
        self.next_seq += 1;
        self.entries.insert(key, Entry { prep, bytes, last_used_tick: tick, seq });
        self.dirty = true;
    }

    /// Tick barrier: evicts least-recently-used entries until the byte
    /// budget holds (never evicting entries touched during `tick` — the
    /// working set of an in-flight tick must survive it), then republishes
    /// the snapshot. Returns the number of evictions performed.
    pub fn end_tick(&mut self, tick: u64) -> u64 {
        let mut evicted = 0u64;
        while self.bytes > self.budget_bytes {
            // Deterministic victim: minimal (last_used_tick, seq). `seq`
            // is unique, so the minimum — and therefore the whole
            // eviction sequence — is independent of map iteration order.
            let victim = self
                .entries
                .iter()
                .filter(|(_, e)| e.last_used_tick < tick)
                .min_by_key(|(_, e)| (e.last_used_tick, e.seq))
                .map(|(k, _)| k.clone());
            let Some(key) = victim else {
                break; // only the live working set remains: allow overflow
            };
            let entry = self.entries.remove(&key).expect("victim is resident");
            self.bytes -= entry.bytes;
            evicted += 1;
            self.dirty = true;
        }
        self.evictions.add(evicted);
        self.publish();
        evicted
    }

    /// Republishes the snapshot if the resident set changed since the
    /// last publication — the mid-tick barrier between batch admission
    /// and phase B (no eviction; that waits for [`Self::end_tick`]).
    pub fn publish(&mut self) {
        if self.dirty {
            self.snapshot = CacheSnapshot { map: Arc::new(self.clone_map()) };
            self.dirty = false;
        }
    }

    fn clone_map(&self) -> HashMap<PrepKey, Arc<XxPrepared>> {
        self.entries.iter().map(|(k, e)| (k.clone(), Arc::clone(&e.prep))).collect()
    }

    /// Hit/miss/eviction totals recorded through this cache's handles
    /// since construction.
    pub fn counters(&self) -> CacheCounters {
        CacheCounters {
            hits: self.hits.get(),
            misses: self.misses.get(),
            evictions: self.evictions.get(),
        }
    }

    /// Number of resident preparations.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Estimated resident bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The configured byte budget.
    pub fn budget_bytes(&self) -> usize {
        self.budget_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_backend::cache::xx_key;
    use itqc_sim::XxCircuit;

    fn prep(theta: f64) -> (PrepKey, Arc<XxPrepared>) {
        let mut xx = XxCircuit::new(4);
        xx.add_xx(0, 1, theta);
        let p = Arc::new(XxPrepared::prepare(xx).unwrap());
        p.distributions();
        (xx_key(p.xx()), p)
    }

    #[test]
    fn lru_evicts_oldest_first_and_respects_live_ticks() {
        let (k0, p0) = prep(0.1);
        let one = p0.table_bytes();
        let mut cache = SharedPrepCache::new(2 * one);
        cache.admit(k0.clone(), p0, 0);
        let (k1, p1) = prep(0.2);
        cache.admit(k1.clone(), p1, 1);
        assert_eq!(cache.end_tick(1), 0);
        // Touch k0 at tick 2 so k1 becomes the LRU victim.
        assert!(cache.lookup(&k0, 2).is_some());
        let (k2, p2) = prep(0.3);
        cache.admit(k2.clone(), p2, 2);
        let evicted = cache.end_tick(2);
        assert_eq!(evicted, 1);
        assert!(cache.contains(&k0), "recently used survives");
        assert!(!cache.contains(&k1), "LRU entry is evicted");
        assert!(cache.contains(&k2), "entry admitted this tick is protected");
        assert_eq!(cache.counters().evictions, 1);
        assert!(cache.bytes() <= cache.budget_bytes());
    }

    #[test]
    fn live_working_set_may_overflow_but_is_trimmed_next_tick() {
        let (k0, p0) = prep(0.4);
        let one = p0.table_bytes();
        let mut cache = SharedPrepCache::new(one);
        cache.admit(k0, p0, 5);
        let (k1, p1) = prep(0.5);
        cache.admit(k1.clone(), p1, 5);
        // Both entries were touched in tick 5: nothing is evictable.
        assert_eq!(cache.end_tick(5), 0);
        assert!(cache.bytes() > cache.budget_bytes());
        // One tick later the overflow is reclaimed deterministically.
        assert_eq!(cache.end_tick(6), 1);
        assert!(cache.contains(&k1), "higher seq at equal stamp survives");
    }

    #[test]
    fn snapshot_is_immutable_and_counters_split_by_layer() {
        let (k0, p0) = prep(0.6);
        let mut cache = SharedPrepCache::new(usize::MAX);
        assert!(cache.lookup(&k0, 0).is_none());
        cache.admit(k0.clone(), p0, 0);
        cache.end_tick(0);
        let snap = cache.snapshot();
        assert_eq!(snap.len(), 1);
        // Snapshot reads do not move the shared counters…
        let before = cache.counters();
        assert!(snap.get(&k0).is_some());
        assert_eq!(cache.counters(), before);
        // …worker-observed outcomes are folded in explicitly.
        cache.note_hit(&k0, 1);
        cache.note_misses(2);
        let c = cache.counters();
        assert_eq!((c.hits, c.misses), (1, 3));
    }

    #[test]
    fn negative_zero_angles_share_one_l2_entry() {
        // A noisy-angle pipeline can compute `theta * -u` with `u == 0`
        // and produce `-0.0`, whose raw f64 bits differ from `+0.0`.
        // The key path (`itqc_backend::cache::xx_key`) canonicalises
        // the sign of zero, so both spellings must land on one PrepKey
        // and therefore one L2 entry — distinct keys would silently
        // double the fleet's cached bytes for identical tables.
        let (k_pos, p_pos) = prep(0.0);
        let (k_neg, p_neg) = prep(-0.0);
        assert_eq!(k_pos, k_neg, "-0.0 and +0.0 must canonicalise to the same PrepKey");
        let mut cache = SharedPrepCache::new(usize::MAX);
        cache.admit(k_pos.clone(), p_pos, 0);
        cache.admit(k_neg, p_neg, 0);
        assert_eq!(cache.len(), 1, "one entry for both zero spellings");
        assert!(cache.lookup(&k_pos, 1).is_some());
    }

    #[test]
    fn admit_is_idempotent_across_shards() {
        let (k0, p0) = prep(0.7);
        let mut cache = SharedPrepCache::new(usize::MAX);
        cache.admit(k0.clone(), p0.clone(), 3);
        let bytes = cache.bytes();
        // A second shard built the same key in the same tick: first wins.
        cache.admit(k0, p0, 3);
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.bytes(), bytes);
    }
}
