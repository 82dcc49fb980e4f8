//! The paper's primary contribution: qubit-coupling fault-testing
//! protocols for ion-trap quantum computers (HPCA 2022).
//!
//! An `N`-qubit trap exposes `C(N,2)` individually calibrated couplings;
//! this crate locates the miscalibrated ones with `O(log N)` test
//! circuits instead of `O(N²)` point checks:
//!
//! * [`classes`] / [`syndrome`] — the §V-A combinatorics: subcube classes
//!   `(i,b)`, equal-bits classes `[j,=]`, syndromes and their candidate
//!   sets (Lemmas V.1–V.9 are enforced as tests).
//! * [`testplan`] — single-output test circuits with gate-repetition
//!   fault amplification (§VI).
//! * [`single_fault`] — the `3n−1`-test, one-adaptation protocol of
//!   Theorem V.10, including the footnote-9 verification round.
//! * [`multi_fault`] — the Fig. 5 diagnosis loop: canary, magnitude
//!   separation via repetition ladder, sequential isolation by exclusion
//!   (Corollary V.12). Equal-magnitude collisions are disambiguated per
//!   [`decoder::DecoderPolicy`]: the greedy threshold peel, the
//!   cross-round evidence-fusion decoder (default — candidate covers
//!   ranked by a posterior accumulated over every adaptive round's
//!   class scores, [`decoder::CoverPosterior`]), the disputed-member
//!   interrogation extension, or the set-cover + point-verification
//!   fallback extension.
//! * [`decoder`] — multi-fault syndrome aliasing analysis (Table II):
//!   exact cover enumeration plus the fused posterior behind the
//!   ranked policy ([`decoder::CoverPosterior`]).
//! * [`cost`] — the Fig. 10 wall-clock model, which also prices the
//!   §IV baselines (point checks and adaptive binary search);
//!   [`threshold`] — empirical pass/fail threshold calibration,
//!   per-round gap re-calibration, and the observation-noise model
//!   feeding the ranked posterior.
//!
//! Reproducing Table II: `cargo run --release -p itqc-bench --bin table2`
//! runs the full pipeline with the ranked decoder (pass
//! `--decoder=greedy|ranked|interrogate|set-cover` to ablate the policies).
//!
//! Protocols talk to hardware through the [`executor::TestExecutor`]
//! trait, implemented both by the [`itqc_trap::VirtualTrap`] machine and
//! by an exact noiseless oracle for property tests.
//!
//! # Example
//!
//! ```
//! use itqc_circuit::Coupling;
//! use itqc_core::executor::ExactExecutor;
//! use itqc_core::single_fault::{Diagnosis, SingleFaultProtocol};
//!
//! // Plant a 40% under-rotation on coupling {2,6} of an 8-qubit machine.
//! let mut machine = ExactExecutor::new(8).with_fault(Coupling::new(2, 6), 0.40);
//! let protocol = SingleFaultProtocol::new(8, 4, 0.5, 1);
//! let report = protocol.diagnose(&mut machine);
//! assert_eq!(report.diagnosis, Diagnosis::Fault(Coupling::new(2, 6)));
//! assert!(report.tests_run() <= 9); // 3n − 1 = 8, plus verification
//! ```

#![warn(missing_docs)]

pub mod classes;
pub mod cost;
pub mod decoder;
pub mod executor;
pub mod multi_fault;
pub mod single_fault;
pub mod syndrome;
pub mod testplan;
pub mod threshold;

pub use classes::{first_round_classes, second_round_classes, LabelSpace, SubcubeClass};
pub use decoder::DecoderPolicy;
pub use executor::{ExactExecutor, TestExecutor};
pub use multi_fault::{diagnose_all, MultiFaultConfig, MultiFaultReport};
pub use single_fault::{Diagnosis, DiagnosisReport, SingleFaultProtocol};
pub use syndrome::Syndrome;
pub use testplan::TestSpec;
