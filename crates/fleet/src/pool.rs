//! The worker pool: long-lived `std::thread` workers driven over
//! channels.
//!
//! Traps never interact, so the scheduler thread starts one *run* per
//! [`crate::Fleet::run_minutes`] call: it sends every worker one run
//! message and waits for one reply per worker (the run barrier). Each
//! worker claims traps one at a time — first from its home shard, a
//! contiguous trap-id range, then from the other shards' leftovers —
//! and runs each claimed trap through every tick of the run under that
//! trap's lock. A worker that the OS preempts therefore leaves its
//! remaining traps to the others instead of stalling the run, and home
//! shards keep a trap on the same thread (and its score memo) whenever
//! no worker falls behind.
//!
//! That is also the whole determinism argument: each trap is run by
//! exactly one thread per run, a trap's tick reads only its own state
//! and RNG streams, the memo returns the same bits on any thread, and
//! the scheduler merges the per-trap outputs in trap-id order after the
//! barrier. Which thread ran which trap never reaches a result.

use crate::api::FleetConfig;
use crate::trap_state::{TrapState, TrapTickOut};
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;

/// One trap and what it produced in the current run.
struct Slot {
    state: TrapState,
    out: TrapTickOut,
}

/// The traps, shared by the scheduler and the workers.
struct Traps {
    slots: Vec<Mutex<Slot>>,
    /// Home shards, `shard_bounds` order.
    shards: Vec<Range<usize>>,
    /// Per shard, the next trap id to claim in the current run.
    cursors: Vec<AtomicUsize>,
}

impl Traps {
    /// Builds `config.traps` traps, home-sharded by
    /// [`shard_bounds`]`(config.traps, workers)`.
    fn new(workers: usize, config: &Arc<FleetConfig>) -> Self {
        let shards: Vec<Range<usize>> =
            shard_bounds(config.traps, workers).into_iter().map(|(lo, hi)| lo..hi).collect();
        Traps {
            slots: (0..config.traps)
                .map(|id| {
                    let state = TrapState::new(id, Arc::clone(config));
                    Mutex::new(Slot { state, out: TrapTickOut::default() })
                })
                .collect(),
            cursors: shards.iter().map(|s| AtomicUsize::new(s.start)).collect(),
            shards,
        }
    }

    /// Makes every trap claimable again, for the next run.
    fn rewind(&self) {
        for (cursor, shard) in self.cursors.iter().zip(&self.shards) {
            cursor.store(shard.start, Ordering::Relaxed);
        }
    }

    fn lock(&self, trap: usize) -> MutexGuard<'_, Slot> {
        self.slots[trap].lock().expect("a fleet worker panicked")
    }

    /// Runs claimed traps through `ticks`, home shard first, until every
    /// shard is claimed out.
    fn run(&self, home: usize, ticks: &Range<u64>) {
        let n = self.shards.len();
        for shard in (0..n).map(|k| (home + k) % n) {
            loop {
                // Relaxed: the cursor publishes no data. Each trap's mutex
                // orders its state between threads, and the run message
                // orders `rewind` before this claim.
                let trap = self.cursors[shard].fetch_add(1, Ordering::Relaxed);
                if trap >= self.shards[shard].end {
                    break;
                }
                let mut slot = self.lock(trap);
                let Slot { state, out } = &mut *slot;
                for tick in ticks.clone() {
                    out.absorb(state.tick(tick));
                }
            }
        }
    }
}

/// One worker thread: its run channel, its reply channel, its handle.
struct Worker {
    run: Sender<Range<u64>>,
    done: Receiver<()>,
    handle: JoinHandle<()>,
}

/// The workers and the traps they run.
pub struct Pool {
    traps: Arc<Traps>,
    workers: Vec<Worker>,
}

impl Pool {
    /// Builds `config.traps` traps and spawns one worker per home shard
    /// of [`shard_bounds`]`(config.traps, workers)`.
    pub fn new(workers: usize, config: &Arc<FleetConfig>) -> Self {
        let traps = Arc::new(Traps::new(workers, config));
        let workers = (0..traps.shards.len())
            .map(|home| {
                let (run, worker_rx) = channel::<Range<u64>>();
                let (worker_tx, done) = channel::<()>();
                let shared = Arc::clone(&traps);
                let handle = std::thread::Builder::new()
                    .name(format!("fleet-worker-{home}"))
                    .spawn(move || {
                        while let Ok(ticks) = worker_rx.recv() {
                            shared.run(home, &ticks);
                            // Fold this worker's ambient event shard into
                            // the global registry *before* the reply: the
                            // reply is the run barrier, so once the
                            // scheduler has collected every worker's, a
                            // metrics query sees each completed tick's
                            // events (commutative merge — worker-invariant
                            // for the deterministic class).
                            itqc_obs::event::flush();
                            if worker_tx.send(()).is_err() {
                                break;
                            }
                        }
                    })
                    .expect("spawn fleet worker");
                Worker { run, done, handle }
            })
            .collect();
        Pool { traps, workers }
    }

    /// Runs every trap through `ticks` and returns the per-trap outputs
    /// in trap-id order.
    pub fn run(&mut self, ticks: Range<u64>) -> impl Iterator<Item = TrapTickOut> + '_ {
        self.traps.rewind();
        for w in &self.workers {
            w.run.send(ticks.clone()).expect("fleet worker alive");
        }
        for w in &self.workers {
            w.done.recv().expect("fleet worker alive");
        }
        (0..self.traps.slots.len()).map(|trap| std::mem::take(&mut self.traps.lock(trap).out))
    }

    /// Calls `f` on trap `trap` (between runs, from the scheduler).
    pub fn with<R>(&mut self, trap: usize, f: impl FnOnce(&mut TrapState) -> R) -> R {
        f(&mut self.traps.lock(trap).state)
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        // Closing the run channels ends the worker loops.
        for Worker { run, done, handle } in std::mem::take(&mut self.workers) {
            drop((run, done));
            let _ = handle.join();
        }
    }
}

/// Contiguous shard bounds for `traps` traps over `workers` workers:
/// `ceil(traps/workers)`-sized chunks (the last may be short). Returns
/// at least one shard, never an empty one.
pub fn shard_bounds(traps: usize, workers: usize) -> Vec<(usize, usize)> {
    let workers = workers.clamp(1, traps.max(1));
    let chunk = traps.div_ceil(workers);
    let mut bounds = Vec::new();
    let mut lo = 0;
    while lo < traps {
        let hi = (lo + chunk).min(traps);
        bounds.push((lo, hi));
        lo = hi;
    }
    if bounds.is_empty() {
        bounds.push((0, 0));
    }
    bounds
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine_day::fig2_diagnosis_config;
    use itqc_faults::drift::{JumpDrift, OrnsteinUhlenbeckDrift};

    #[test]
    fn one_worker_claims_every_shard_and_matches_direct_ticks() {
        // A worker whose peers never show up (preempted, say) must run
        // every trap, each through every tick, bit-identically to the
        // trap ticked on its own.
        let config = Arc::new(FleetConfig {
            traps: 7,
            seed: 41,
            n_qubits: 5,
            canary_cadence_min: 2,
            drift_epoch_min: 3,
            arrival_rate_per_min: 3.0,
            service_secs_mean: 4.0,
            drift: JumpDrift {
                base: OrnsteinUhlenbeckDrift { tau_minutes: 240.0, sigma: 0.02 },
                jumps_per_minute: 0.0,
                jump_scale: 0.3,
            },
            diag: fig2_diagnosis_config(),
            ..FleetConfig::default()
        });
        let traps = Traps::new(3, &config);
        for run in [0..4, 4..5] {
            traps.rewind();
            traps.run(1, &run);
        }
        for id in 0..7 {
            let mut direct = TrapState::new(id, Arc::clone(&config));
            let mut want = TrapTickOut::default();
            (0..5).for_each(|tick| want.absorb(direct.tick(tick)));
            let slot = traps.lock(id);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&slot.out.latencies), bits(&want.latencies), "trap {id}");
            assert_eq!(
                (slot.out.submitted, slot.out.completed, slot.out.canaries),
                (want.submitted, want.completed, want.canaries),
                "trap {id}"
            );
            assert_eq!(
                slot.state.status().clock_seconds.to_bits(),
                direct.status().clock_seconds.to_bits(),
                "trap {id}"
            );
        }
    }

    #[test]
    fn shard_bounds_cover_exactly_once() {
        for traps in [1usize, 2, 7, 16, 100] {
            for workers in [1usize, 2, 3, 8, 200] {
                let bounds = shard_bounds(traps, workers);
                let mut covered = 0;
                let mut expect_lo = 0;
                for (lo, hi) in &bounds {
                    assert_eq!(*lo, expect_lo, "contiguous");
                    assert!(hi > lo, "non-empty shard");
                    covered += hi - lo;
                    expect_lo = *hi;
                }
                assert_eq!(covered, traps, "traps {traps} workers {workers}");
                assert!(bounds.len() <= workers.max(1));
            }
        }
    }
}
