//! Fleet-scale trap operations: a deterministic multi-trap scheduling
//! service over the `itqc` stack.
//!
//! The paper studies one machine's maintenance economics (Fig. 2); an
//! operator runs *fleets*. This crate scales the machine-day model to N
//! virtual traps under one long-running service — `fleetd` — built from
//! four pieces:
//!
//! * [`machine_day`] — the Fig. 2 scheduling model itself, extracted
//!   here so the `fig2` figure and the fleet run the *same* policies
//!   (`fig2` imports it from here); both run their tests on
//!   `&mut VirtualTrap`, whose executor takes exact scores from the
//!   analytic engine's memoised scalar path and reads shots out on the
//!   trap's own RNG;
//! * [`queue`]/[`trap_state`] — per-trap priority/deadline work queues
//!   and the one-pass tick (arrivals → drift → canary → queue drain);
//! * [`pool`]/[`api`] — the worker pool (std threads + channels; each
//!   worker claims traps from its home shard, then from the others'
//!   leftovers) and the in-process [`Fleet`] handle with its
//!   [`FleetSummary`];
//! * [`service`] — `fleetd`'s line protocol, answered in-process.
//!
//! **Determinism is the contract**: given a seed, the end-of-run
//! summary is bit-identical at any worker count, because every RNG
//! stream is owned by exactly one trap, traps never read each other's
//! state, and every cross-trap merge happens in trap-id order after the
//! run barrier. `loadgen` (in `itqc-bench`) drives millions of
//! simulated jobs per machine-day through this service and CI diffs
//! the summaries at `--workers=1/2/8`.

#![warn(missing_docs)]

pub mod api;
pub mod machine_day;
pub mod pool;
pub mod queue;
pub mod service;
pub mod trap_state;

pub use api::{
    Fleet, FleetConfig, FleetSummary, SubmitError, MAX_SUBMIT_COUNT, MAX_WORKERS, MINUTES_PER_DAY,
};
pub use queue::{WorkItem, WorkKind, WorkQueue};
pub use trap_state::{FleetParams, TrapState, TrapStatus};
