//! # itqc — detecting qubit-coupling faults in ion-trap quantum computers
//!
//! A Rust reproduction of *"Detecting Qubit-coupling Faults in Ion-trap
//! Quantum Computers"* (Maksymov, Nguyen, Chaplin, Nam, Markov — HPCA
//! 2022, arXiv:2108.03708), built as a full stack: quantum circuit layer,
//! two simulator backends, the paper's fault/noise models, a virtual
//! ion-trap machine, and the combinatorial fault-testing protocols that
//! locate miscalibrated couplings among `C(N,2)` candidates with
//! `O(log N)` test circuits.
//!
//! This crate is a facade re-exporting the workspace members:
//!
//! | crate | contents |
//! |---|---|
//! | [`math`] | complex arithmetic, small linear algebra, eigensolver, FFT, samplers |
//! | [`circuit`] | gate set (incl. Mølmer–Sørensen), circuit IR, algorithm library, native transpiler |
//! | [`sim`] | dense state-vector backend + exact commuting-XX engine |
//! | [`backend`] | pluggable simulation-backend subsystem: dense + scalable analytic engines behind `PreparedCircuit`, prepared-circuit cache, `ScoreMode` and the worst-qubit string count |
//! | [`faults`] | Table-I taxonomy, Fig.-4 fault models, 1/f noise, SPAM, drift, Eq. 1–2 estimators |
//! | [`trap`] | virtual machine with hidden calibration state, ion-chain physics, timing/duty model |
//! | [`core`] | THE PAPER'S CONTRIBUTION: classes, syndromes, single-/multi-fault protocols, cost model |
//! | [`fleet`] | `fleetd` fleet service: sharded tick scheduler, canary → diagnose → recalibrate per trap |
//! | [`obs`] | observability: deterministic counters/histograms, wall-clock spans, JSON metrics documents |
//!
//! # Quickstart
//!
//! ```
//! use itqc::prelude::*;
//!
//! // An 8-qubit machine with one hidden miscalibration.
//! let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 7));
//! trap.inject_fault(Coupling::new(2, 6), 0.40);
//!
//! // Diagnose with the 3n−1-test protocol (4 MS gates per coupling,
//! // 300 shots per test).
//! let protocol = SingleFaultProtocol::new(8, 4, 0.5, 300);
//! let report = protocol.diagnose(&mut trap);
//! assert_eq!(report.diagnosis, Diagnosis::Fault(Coupling::new(2, 6)));
//! ```

#![warn(missing_docs)]

pub use itqc_backend as backend;
pub use itqc_circuit as circuit;
pub use itqc_core as core;
pub use itqc_faults as faults;
pub use itqc_fleet as fleet;
pub use itqc_math as math;
pub use itqc_obs as obs;
pub use itqc_sim as sim;
pub use itqc_trap as trap;

/// The commonly used types in one import.
pub mod prelude {
    pub use itqc_backend::{Backend, BackendChoice, PreparedCircuit};
    pub use itqc_circuit::{Circuit, Coupling, Gate, Op};
    pub use itqc_core::{
        diagnose_all, DecoderPolicy, Diagnosis, ExactExecutor, LabelSpace, MultiFaultConfig,
        SingleFaultProtocol, Syndrome, TestExecutor, TestSpec,
    };
    pub use itqc_faults::{CouplingFault, FaultKind, IonTrapNoise, SpamModel};
    pub use itqc_fleet::{Fleet, FleetConfig, FleetSummary};
    pub use itqc_math::Complex64;
    pub use itqc_sim::{run, StateVector, XxCircuit};
    pub use itqc_trap::{Activity, TrapConfig, VirtualTrap};
}
