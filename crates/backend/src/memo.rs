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
//! `(circuit, target, statistic)` triple, so a thread-local memo keyed
//! on the compiled [`XxCircuit`] (whose equality is exact down to the
//! angle bits) returns the exact float the first evaluation produced —
//! outputs are bit-identical with the memo on or off, at any thread
//! count (each worker thread owns its own table; values never cross
//! threads, so scheduling cannot matter).
//!
//! The memo complements the [`crate::cache::PrepCache`] one level up:
//! the prep cache amortises *table construction* for sampling, this memo
//! amortises *single-target exact evaluation* on the analytic engine's
//! scalar path ([`crate::XxAnalyticBackend::score`]), which never
//! touches the prep cache.

use crate::ScoreMode;
use itqc_sim::{BitString, XxCircuit};
use std::cell::RefCell;
use std::collections::HashMap;

/// Scores held per thread before an epoch flush. A circuit is ~3 words
/// per coupling; at Table II's 32-qubit class tests (~120 couplings) the
/// table tops out around 100 MiB worst-case.
pub const SCORE_MEMO_CAPACITY: usize = 1 << 15;

/// Coupling count below which memoisation is skipped: a single-coupling
/// point test evaluates faster than its key hashes.
pub const SCORE_MEMO_MIN_TERMS: usize = 2;

/// One thread's memo: each circuit's scores by `(target, statistic)` —
/// one circuit serves both statistics and any target — and the number
/// of scores held.
#[derive(Default)]
struct ScoreMemo {
    scores: HashMap<XxCircuit, Vec<(BitString, ScoreMode, f64)>>,
    len: usize,
}

thread_local! {
    static SCORE_MEMO: RefCell<ScoreMemo> = RefCell::new(ScoreMemo::default());
}

/// Returns the memoised score for `(xx, target, kind)`, computing and
/// storing it on first sight (a refusal is returned, not stored). The
/// memo is only sound because `compute` is a pure function of the
/// triple, bit for bit.
pub(crate) fn cached_score<E>(
    xx: &XxCircuit,
    target: BitString,
    kind: ScoreMode,
    compute: impl FnOnce() -> Result<f64, E>,
) -> Result<f64, E> {
    // Lookups are logical work (one per memo-eligible score request,
    // whatever the sharding) — deterministic. The hit/miss split
    // depends on which thread's table a request lands in, so it is
    // nondeterministic telemetry.
    itqc_obs::event::add("backend.memo.lookups", 1);
    let hit = SCORE_MEMO.with(|m| {
        let m = m.borrow();
        let scores = m.scores.get(xx)?;
        scores.iter().find(|&&(t, k, _)| t == target && k == kind).map(|&(_, _, v)| v)
    });
    if let Some(hit) = hit {
        itqc_obs::event::add_nd("backend.memo.hits", 1);
        return Ok(hit);
    }
    itqc_obs::event::add_nd("backend.memo.misses", 1);
    let value = compute()?;
    SCORE_MEMO.with(|m| {
        let mut m = m.borrow_mut();
        if m.len >= SCORE_MEMO_CAPACITY {
            *m = ScoreMemo::default(); // epoch flush, same policy as PrepCache
        }
        m.len += 1;
        let entry = (target, kind, value);
        match m.scores.get_mut(xx) {
            Some(scores) => scores.push(entry),
            None => {
                m.scores.insert(xx.clone(), vec![entry]);
            }
        }
    });
    Ok(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A two-coupling circuit whose first angle is `theta`.
    fn circuit(theta: f64) -> XxCircuit {
        let mut xx = XxCircuit::new(4);
        xx.add_xx(0, 1, theta).add_xx(2, 3, 0.5);
        xx
    }

    #[test]
    fn memo_returns_the_first_computation_bit_for_bit() {
        let score = |xx: &XxCircuit, target, kind, v: f64| {
            cached_score(xx, target, kind, || Ok::<_, ()>(v)).unwrap()
        };
        let xx = circuit(0.5);
        let first = score(&xx, 3, ScoreMode::ExactTarget, 0.123456789);
        // A conflicting recompute must be ignored: the memo serves the
        // original value.
        let second = score(&xx, 3, ScoreMode::ExactTarget, 0.987654321);
        assert_eq!(first.to_bits(), second.to_bits());
        // Different target or statistic is a different entry.
        assert_eq!(score(&xx, 4, ScoreMode::ExactTarget, 0.5), 0.5);
        assert_eq!(score(&xx, 3, ScoreMode::WorstQubit, 0.25), 0.25);
        // A refusal is returned and not stored.
        let other = circuit(0.9);
        assert_eq!(cached_score(&other, 0, ScoreMode::ExactTarget, || Err("no")), Err("no"));
        assert_eq!(score(&other, 0, ScoreMode::ExactTarget, 0.75), 0.75);
    }

    #[test]
    fn capacity_flush_keeps_the_table_bounded() {
        // Overfill the thread's memo; the epoch flush must keep it
        // usable (and the flushed entry recomputes to the same value —
        // pure functions make eviction invisible).
        let score = |i: u64| {
            cached_score(&circuit(i as f64), 0, ScoreMode::ExactTarget, || Ok::<_, ()>(i as f64))
        };
        for i in 0..(SCORE_MEMO_CAPACITY as u64 + 16) {
            assert_eq!(score(i), Ok(i as f64));
        }
        assert!(SCORE_MEMO.with(|m| m.borrow().len) <= SCORE_MEMO_CAPACITY);
        assert_eq!(score(7), Ok(7.0));
    }
}
