//! Cross-trial memoisation of exact circuit scores — the scalar end of
//! the batch-first seam.
//!
//! The Monte-Carlo sweeps (Table II, Fig. 9) evaluate the *same* noisy
//! circuit's exact score thousands of times: threshold re-tunes replay
//! a rung's class battery within a trial, and every class test whose
//! couplings escaped the trial's planted faults compiles to a circuit
//! byte-identical across trials. A virtual trap's exact-target tests
//! go through it too: a fleet trap's canary is byte-identical between
//! drift epochs. The score is a pure function of the accumulated
//! `(circuit, target, statistic)` triple, so a thread-local
//! memo keyed on [`crate::cache::xx_key`] returns the exact float the
//! first evaluation produced — outputs are bit-identical with the memo
//! on or off, at any thread count (each worker thread owns its own
//! table; values never cross threads, so scheduling cannot matter).
//!
//! The memo complements the [`crate::cache::PrepCache`] one level up:
//! the prep cache amortises *table construction* for sampling, this memo
//! amortises *single-target exact evaluation* on the analytic engine's
//! scalar path ([`crate::XxAnalyticBackend::score`]), which never
//! touches the prep cache.

use crate::ScoreMode;
use std::cell::RefCell;
use std::collections::HashMap;

/// Entries held per thread before an epoch flush. A key is ~3 words per
/// gate plus the boxed f64; at Table II's 32-qubit class tests (~120
/// gates) the table tops out around 100 MiB worst-case.
pub const SCORE_MEMO_CAPACITY: usize = 1 << 15;

/// Coupling count below which memoisation is skipped: a single-coupling
/// point test evaluates faster than its key hashes.
pub const SCORE_MEMO_MIN_TERMS: usize = 2;

/// Memo key: the exact circuit key, the target string, the statistic
/// (one circuit serves both).
type ScoreMemoKey = (Vec<u64>, itqc_sim::BitString, ScoreMode);

thread_local! {
    static SCORE_MEMO: RefCell<HashMap<ScoreMemoKey, f64>> = RefCell::new(HashMap::new());
}

/// Returns the memoised score for `(circuit_key, target, kind)`,
/// computing and storing it on first sight (a refusal is returned, not
/// stored). `circuit_key` must come from [`crate::cache::xx_key`] (or be
/// equally exact): the memo is only sound because the key determines
/// the score bit-for-bit.
pub(crate) fn cached_score<E>(
    circuit_key: Vec<u64>,
    target: itqc_sim::BitString,
    kind: ScoreMode,
    compute: impl FnOnce() -> Result<f64, E>,
) -> Result<f64, E> {
    let key = (circuit_key, target, kind);
    // Lookups are logical work (one per memo-eligible score request,
    // whatever the sharding) — deterministic. The hit/miss split
    // depends on which thread's table a request lands in, so it is
    // nondeterministic telemetry.
    itqc_obs::event::add("backend.memo.lookups", 1);
    if let Some(hit) = SCORE_MEMO.with(|m| m.borrow().get(&key).copied()) {
        itqc_obs::event::add_nd("backend.memo.hits", 1);
        return Ok(hit);
    }
    itqc_obs::event::add_nd("backend.memo.misses", 1);
    let value = compute()?;
    SCORE_MEMO.with(|m| {
        let mut m = m.borrow_mut();
        if m.len() >= SCORE_MEMO_CAPACITY {
            m.clear(); // epoch flush, same policy as PrepCache
        }
        m.insert(key, value);
    });
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn memo_returns_the_first_computation_bit_for_bit() {
        let score = |key: &[u64], target, kind, v: f64| {
            cached_score(key.to_vec(), target, kind, || Ok::<_, ()>(v)).unwrap()
        };
        let key = [4u64, 0, 1, 0.5f64.to_bits()];
        let first = score(&key, 3, ScoreMode::ExactTarget, 0.123456789);
        // A conflicting recompute must be ignored: the memo serves the
        // original value.
        let second = score(&key, 3, ScoreMode::ExactTarget, 0.987654321);
        assert_eq!(first.to_bits(), second.to_bits());
        // Different target or statistic is a different entry.
        assert_eq!(score(&key, 4, ScoreMode::ExactTarget, 0.5), 0.5);
        assert_eq!(score(&key, 3, ScoreMode::WorstQubit, 0.25), 0.25);
        // A refusal is returned and not stored.
        assert_eq!(cached_score(vec![9], 0, ScoreMode::ExactTarget, || Err("no")), Err("no"));
        assert_eq!(score(&[9], 0, ScoreMode::ExactTarget, 0.75), 0.75);
    }

    #[test]
    fn capacity_flush_keeps_the_table_bounded() {
        // Overfill the thread's memo; the epoch flush must keep it
        // usable (and the flushed entry recomputes to the same value —
        // pure functions make eviction invisible).
        let score =
            |i: u64| cached_score(vec![i], 0, ScoreMode::ExactTarget, || Ok::<_, ()>(i as f64));
        for i in 0..(SCORE_MEMO_CAPACITY as u64 + 16) {
            assert_eq!(score(i), Ok(i as f64));
        }
        assert_eq!(score(7), Ok(7.0));
    }
}
