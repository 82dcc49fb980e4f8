//! Virtual ion-trap machine for the `itqc` workspace.
//!
//! Substitutes for the paper's commercial 11-qubit device (§VI): a
//! machine model with hidden per-coupling miscalibration, drift, gate
//! jitter and SPAM, finite-shot execution, and duty-cycle/timing
//! accounting ([`machine`], [`timing`], [`duty`]); plus the underlying
//! ion-chain physics — equilibrium, normal modes, Lamb–Dicke couplings,
//! pulse decoupling residuals — feeding the paper's Eq. (1) ([`chain`]).

#![warn(missing_docs)]

pub mod chain;
pub mod duty;
pub mod machine;
pub mod rb;
pub mod timing;

pub use duty::{Activity, DutyLedger};
pub use machine::{TrapConfig, VirtualTrap};
pub use timing::TimingModel;
