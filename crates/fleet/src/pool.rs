//! The shard worker pool: long-lived `std::thread` workers driven over
//! channels.
//!
//! Traps are partitioned into contiguous shards, one per worker. The
//! scheduler thread broadcasts a phase message to every shard, the
//! workers run the phase over their traps *in trap-id order*, and the
//! scheduler collects one reply per shard *in shard order* — so every
//! merged stream (prep requests, latencies, built preparations, cache
//! counters) is ordered by trap id regardless of how many workers the
//! partition used. That, plus per-trap RNG/queue ownership, is the
//! whole determinism argument: a worker never touches state outside its
//! shard, and the scheduler never observes replies in racy order.

use crate::cache::{CacheSnapshot, PrepKey};
use crate::trap_state::{FleetParams, PrepRequest, TrapDrain, TrapState, TrapStatus, TrapTickOut};
use itqc_backend::XxPrepared;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Scheduler → shard messages.
pub enum ToShard {
    /// External job submissions `(trap id, service seconds, now)`.
    Submit(Vec<(usize, f64, f64)>),
    /// Run phase A of `tick` on every owned trap.
    PhaseA(u64),
    /// Run phase B of `tick` against the given snapshot.
    PhaseB(u64, CacheSnapshot),
    /// Report one trap's status.
    Status(usize),
    /// Report end-of-run accounting for every owned trap.
    Drain,
    /// Exit the worker loop.
    Shutdown,
}

/// Shard → scheduler replies.
pub enum FromShard {
    /// Phase A prep requests, in trap-id order within the shard.
    Requests(Vec<PrepRequest>),
    /// Phase B results merged over the shard's traps (trap-id order).
    Ticked(Box<ShardTickOut>),
    /// One trap's status.
    Status(Box<TrapStatus>),
    /// Per-trap accounting, in trap-id order.
    Drained(Vec<TrapDrain>),
}

/// A shard's merged phase-B output (field-by-field concatenation of its
/// traps' [`TrapTickOut`]s, trap-id order).
#[derive(Debug, Default)]
pub struct ShardTickOut {
    /// Jobs arrived.
    pub submitted: u64,
    /// Jobs completed.
    pub completed: u64,
    /// Completion latencies, trap-id then completion order.
    pub latencies: Vec<f64>,
    /// Double-miss builds.
    pub built: Vec<(PrepKey, Arc<XxPrepared>)>,
    /// Snapshot hits (for LRU refresh).
    pub touched: Vec<PrepKey>,
    /// Canaries run.
    pub canaries: u64,
    /// Canary trips.
    pub trips: u64,
    /// Diagnoses run.
    pub diagnoses: u64,
    /// Diagnosis test circuits executed.
    pub tests_run: u64,
    /// Faults diagnosed and recalibrated.
    pub faults_fixed: u64,
}

impl ShardTickOut {
    fn absorb(&mut self, out: TrapTickOut) {
        self.submitted += out.submitted;
        self.completed += out.completed;
        self.latencies.extend(out.latencies);
        self.built.extend(out.built);
        self.touched.extend(out.touched);
        self.canaries += out.canaries;
        self.trips += out.trips;
        self.diagnoses += out.diagnoses;
        self.tests_run += out.tests_run;
        self.faults_fixed += out.faults_fixed;
    }
}

/// One worker thread owning traps `ids` (a contiguous id range).
pub struct Shard {
    /// First trap id owned (inclusive).
    pub lo: usize,
    /// One past the last trap id owned.
    pub hi: usize,
    tx: Sender<ToShard>,
    rx: Receiver<FromShard>,
    handle: Option<JoinHandle<()>>,
}

impl Shard {
    /// Spawns the worker for traps `lo..hi`.
    pub fn spawn(lo: usize, hi: usize, master_seed: u64, params: Arc<FleetParams>) -> Self {
        let (tx, worker_rx) = channel::<ToShard>();
        let (worker_tx, rx) = channel::<FromShard>();
        let handle = std::thread::Builder::new()
            .name(format!("fleet-shard-{lo}"))
            .spawn(move || {
                let mut traps: Vec<TrapState> = (lo..hi)
                    .map(|id| TrapState::new(id, master_seed, Arc::clone(&params)))
                    .collect();
                while let Ok(msg) = worker_rx.recv() {
                    match msg {
                        ToShard::Submit(jobs) => {
                            for (trap, service, now) in jobs {
                                traps[trap - lo].submit_job(service, now);
                            }
                        }
                        ToShard::PhaseA(tick) => {
                            let requests: Vec<PrepRequest> =
                                traps.iter_mut().filter_map(|t| t.phase_a(tick)).collect();
                            if worker_tx.send(FromShard::Requests(requests)).is_err() {
                                break;
                            }
                        }
                        ToShard::PhaseB(tick, snap) => {
                            let mut merged = ShardTickOut::default();
                            for t in traps.iter_mut() {
                                merged.absorb(t.phase_b(tick, &snap));
                            }
                            // Fold this worker's ambient event shard into
                            // the global registry *before* the reply: the
                            // channel send is the tick barrier, so once the
                            // scheduler has collected every shard's reply,
                            // a metrics query sees each completed tick's
                            // events (commutative merge — worker-invariant
                            // for the deterministic class).
                            itqc_obs::event::flush();
                            if worker_tx.send(FromShard::Ticked(Box::new(merged))).is_err() {
                                break;
                            }
                        }
                        ToShard::Status(trap) => {
                            let status = Box::new(traps[trap - lo].status());
                            if worker_tx.send(FromShard::Status(status)).is_err() {
                                break;
                            }
                        }
                        ToShard::Drain => {
                            let drains: Vec<TrapDrain> = traps.iter().map(|t| t.drain()).collect();
                            itqc_obs::event::flush();
                            if worker_tx.send(FromShard::Drained(drains)).is_err() {
                                break;
                            }
                        }
                        ToShard::Shutdown => break,
                    }
                }
            })
            .expect("spawn fleet shard worker");
        Shard { lo, hi, tx, rx, handle: Some(handle) }
    }

    /// Whether this shard owns `trap`.
    pub fn owns(&self, trap: usize) -> bool {
        (self.lo..self.hi).contains(&trap)
    }

    /// Sends a message to the worker.
    pub fn send(&self, msg: ToShard) {
        self.tx.send(msg).expect("fleet shard worker alive");
    }

    /// Blocks for the worker's next reply.
    pub fn recv(&self) -> FromShard {
        self.rx.recv().expect("fleet shard worker alive")
    }
}

impl Drop for Shard {
    fn drop(&mut self) {
        let _ = self.tx.send(ToShard::Shutdown);
        if let Some(handle) = self.handle.take() {
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
