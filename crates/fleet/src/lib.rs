//! Fleet-scale trap operations: a deterministic multi-trap scheduling
//! service over the `itqc` stack.
//!
//! The paper studies one machine's maintenance economics (Fig. 2); an
//! operator runs *fleets*. This crate scales the machine-day model to N
//! virtual traps under one long-running service — `fleetd` — built from
//! five pieces:
//!
//! * [`machine_day`] — the Fig. 2 scheduling model itself, extracted
//!   here so the `fig2` figure and the fleet run the *same* policies
//!   (`itqc_bench::duty_cycle` re-exports it);
//! * [`cache`] — the shared, eviction-aware prepared-circuit cache:
//!   byte-budgeted LRU over `Arc<XxPrepared>`, mutated only at tick
//!   barriers, read lock-free by workers through snapshots;
//! * [`queue`]/[`trap_state`] — per-trap priority/deadline work queues
//!   and the two-phase tick state machine (arrivals → batched canary
//!   prep → queue drain);
//! * [`pool`]/[`api`] — the shard worker pool (std threads + channels,
//!   contiguous trap ownership) and the in-process [`Fleet`] handle
//!   with its [`FleetSummary`];
//! * [`service`] — `fleetd`'s line protocol, answered in-process.
//!
//! **Determinism is the contract**: given a seed, the end-of-run
//! summary is bit-identical at any worker count, because every RNG
//! stream is owned by exactly one trap, every cross-trap merge happens
//! in trap-id order at a barrier, and workers only ever read immutable
//! cache snapshots. `loadgen` (in `itqc-bench`) drives millions of
//! simulated jobs per machine-day through this service and CI diffs
//! the summaries at `--workers=1/2/8`.

#![warn(missing_docs)]

pub mod api;
pub mod cache;
pub mod exec;
pub mod machine_day;
pub mod pool;
pub mod queue;
pub mod service;
pub mod trap_state;

pub use api::{Fleet, FleetConfig, FleetSummary, SubmitError, MAX_SUBMIT_COUNT, MINUTES_PER_DAY};
pub use cache::{CacheSnapshot, SharedPrepCache};
pub use exec::CachedTrapExecutor;
pub use queue::{WorkItem, WorkKind, WorkQueue};
pub use trap_state::{FleetParams, TrapState, TrapStatus};
