//! The cache-routed test executor for fleet traps.
//!
//! [`CachedTrapExecutor`] implements `itqc_core::TestExecutor` over a
//! [`VirtualTrap`], but instead of re-deriving every test circuit's
//! output statistics shot-engine-style (`VirtualTrap::run_xx_test`), it
//! resolves the accumulated noisy circuit through the trap's own
//! per-tick build log, then the shared cache's snapshot, and only builds
//! an [`XxPrepared`] when both miss, logging the build so the scheduler
//! can admit it into the shared cache at the tick barrier.
//!
//! Shots are still read out by the trap itself
//! ([`VirtualTrap::read_out_xx_test`], on the trap's own RNG), so a
//! machine behaves bit-identically whether its tests run through this
//! executor, another trap warmed the cache first, or no cache exists at
//! all. This is the property that makes the fleet summary independent
//! of worker count.
//!
//! Requires a trap with zero amplitude jitter (the fleet runs the
//! quasi-static drift model, where noise moves only at drift epochs):
//! per-shot jitter would make the circuit — and hence the cache key —
//! change under the executor's feet.

use crate::cache::{CacheSnapshot, PrepKey};
use itqc_backend::cache::xx_key;
use itqc_backend::{PreparedCircuit, XxPrepared};
use itqc_core::testplan::ScoreMode;
use itqc_core::{TestExecutor, TestSpec};
use itqc_trap::{Activity, VirtualTrap, XxStats};
use std::sync::Arc;

/// Samples and bills one test against an already-prepared circuit
/// through the trap's own readout step, so the outcome matches
/// `VirtualTrap::run_xx_test` / `run_xx_test_population` on the same
/// circuit. Returns the observed score in `[0, 1]`.
pub fn score_prepared(
    trap: &mut VirtualTrap,
    prep: &XxPrepared,
    spec: &TestSpec,
    shots: usize,
) -> f64 {
    if shots == 0 {
        return 0.0;
    }
    let stats = match spec.score {
        ScoreMode::ExactTarget => XxStats::Target(prep.probability(spec.target)),
        ScoreMode::WorstQubit => XxStats::Agreements(
            prep.support().iter().map(|&q| prep.qubit_agreement(q, spec.target)).collect(),
        ),
    };
    let hits =
        trap.read_out_xx_test(stats, spec.target, spec.gate_count(), shots, Activity::Testing);
    hits as f64 / shots as f64
}

/// A per-trap executor routing circuit preparation through the fleet's
/// shared cache. Borrows the trap and its tick-scoped state for the
/// duration of one queue item.
pub struct CachedTrapExecutor<'a> {
    trap: &'a mut VirtualTrap,
    snapshot: &'a CacheSnapshot,
    /// Preparations built this tick on a snapshot miss, logged for
    /// barrier admission; replays within the tick are served from here.
    built: &'a mut Vec<(PrepKey, Arc<XxPrepared>)>,
    /// Keys hit in the snapshot: each one is a shared-cache hit, and
    /// refreshes the entry's LRU stamp at the barrier.
    touched: &'a mut Vec<PrepKey>,
}

impl<'a> CachedTrapExecutor<'a> {
    /// Wires an executor over one trap's tick state.
    pub fn new(
        trap: &'a mut VirtualTrap,
        snapshot: &'a CacheSnapshot,
        built: &'a mut Vec<(PrepKey, Arc<XxPrepared>)>,
        touched: &'a mut Vec<PrepKey>,
    ) -> Self {
        debug_assert!(
            trap.config().amplitude_jitter_std == 0.0,
            "cached execution needs quasi-static noise (no per-shot jitter)"
        );
        CachedTrapExecutor { trap, snapshot, built, touched }
    }

    /// Resolves the prepared circuit for `spec` under the trap's current
    /// calibration: this tick's build log, then the shared snapshot,
    /// then build-and-log. A circuit is built at most once per trap per
    /// tick, and every build is one shared-cache miss.
    pub fn prepared_for(&mut self, spec: &TestSpec) -> Arc<XxPrepared> {
        let xx = spec.noisy_xx(self.trap.n_qubits(), |c| self.trap.true_under_rotation(c));
        let key = xx_key(&xx);
        if let Some((_, p)) = self.built.iter().find(|(k, _)| *k == key) {
            return Arc::clone(p);
        }
        if let Some(p) = self.snapshot.get(&key) {
            self.touched.push(key);
            return p;
        }
        let prep = Arc::new(XxPrepared::prepare(xx).expect("fleet test circuits are commuting-XX"));
        prep.distributions(); // materialize before sharing
        self.built.push((key, Arc::clone(&prep)));
        prep
    }
}

impl TestExecutor for CachedTrapExecutor<'_> {
    fn n_qubits(&self) -> usize {
        self.trap.n_qubits()
    }

    fn run_test(&mut self, spec: &TestSpec, shots: usize) -> f64 {
        if shots == 0 {
            return 0.0;
        }
        let prep = self.prepared_for(spec);
        score_prepared(self.trap, &prep, spec, shots)
    }

    fn note_adaptation(&mut self, couplings_compiled: usize) {
        self.trap.bill_adaptation(couplings_compiled);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_circuit::Coupling;
    use itqc_trap::TrapConfig;

    #[test]
    fn cached_executor_matches_direct_trap_execution() {
        // Same seed → the cached path must reproduce the trap's own
        // shot-engine path bit for bit, for both score modes.
        let spec_exact = TestSpec::for_couplings("t", &[Coupling::new(0, 3)], 4);
        let spec_worst = TestSpec::for_couplings("t", &[Coupling::new(1, 2)], 2)
            .with_score(ScoreMode::WorstQubit);
        let mut direct = VirtualTrap::new(TrapConfig::ideal(6, 4242));
        direct.inject_fault(Coupling::new(0, 3), 0.21);
        let d1 = direct.run_test(&spec_exact, 400);
        let d2 = direct.run_test(&spec_worst, 250);

        let mut trap = VirtualTrap::new(TrapConfig::ideal(6, 4242));
        let (snap, mut built, mut touched) = (CacheSnapshot::default(), Vec::new(), Vec::new());
        trap.inject_fault(Coupling::new(0, 3), 0.21);
        let mut exec = CachedTrapExecutor::new(&mut trap, &snap, &mut built, &mut touched);
        let c1 = exec.run_test(&spec_exact, 400);
        let c2 = exec.run_test(&spec_worst, 250);
        assert_eq!(d1.to_bits(), c1.to_bits());
        assert_eq!(d2.to_bits(), c2.to_bits());
        assert_eq!(
            direct.duty().seconds(Activity::Testing).to_bits(),
            trap.duty().seconds(Activity::Testing).to_bits(),
            "billing must match the shot-engine path"
        );
        // Both circuits were cold: two logged builds, no snapshot hits.
        assert_eq!(built.len(), 2);
        assert!(touched.is_empty());
    }

    #[test]
    fn replay_reuses_the_tick_build_and_warm_snapshots_hit_l2() {
        let spec = TestSpec::for_couplings("t", &[Coupling::new(0, 1)], 2);
        let mut trap = VirtualTrap::new(TrapConfig::ideal(6, 7));
        let (empty, mut built, mut touched) = (CacheSnapshot::default(), Vec::new(), Vec::new());
        {
            let mut exec = CachedTrapExecutor::new(&mut trap, &empty, &mut built, &mut touched);
            let first = exec.prepared_for(&spec);
            let replay = exec.prepared_for(&spec); // same tick: the trap's own build
            assert!(Arc::ptr_eq(&first, &replay), "the replay must reuse the build");
        }
        assert_eq!(built.len(), 1, "one build, so one shared-cache miss");
        assert!(touched.is_empty(), "a replay of a build is no snapshot hit");

        // Promote the build into a shared cache and re-run on a fresh tick.
        let mut shared = crate::cache::SharedPrepCache::new(usize::MAX);
        shared.note_misses(built.len() as u64);
        for (k, p) in built.drain(..) {
            shared.admit(k, p, 0);
        }
        shared.end_tick(0);
        let snap = shared.snapshot();
        let mut exec = CachedTrapExecutor::new(&mut trap, &snap, &mut built, &mut touched);
        let _ = exec.run_test(&spec, 10);
        let _ = exec.run_test(&spec, 10);
        assert!(built.is_empty(), "next tick is served by the snapshot");
        assert_eq!(touched.len(), 2, "each snapshot hit is logged for the barrier");
        for key in &touched {
            shared.note_hit(key, 1);
        }
        let c = shared.counters();
        assert_eq!((c.hits, c.misses), (2, 1));
    }
}
