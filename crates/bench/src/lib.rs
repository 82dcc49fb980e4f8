//! Experiment harness regenerating every table and figure of the paper.
//!
//! Each `src/bin/{fig*,table*}.rs` binary reproduces one evaluation
//! artefact and prints the same rows/series the paper reports. This
//! library holds the shared pieces: aligned table rendering, a
//! shot-sampling executor wrapper, ambient-calibration machinery, and tiny
//! CLI-argument parsing.
//!
//! Run everything with:
//!
//! ```text
//! for b in table1 fig2 fig3 fig6 fig7 fig8 fig9 fig10 fig11 table2; do
//!     cargo run --release -p itqc-bench --bin $b
//! done
//! ```
//!
//! Every binary accepts `--trials=N` (Monte-Carlo budget), `--seed=S`
//! and `--threads=N` (parallel trial workers; `0` = all cores, and the
//! output is bit-identical at any thread count — see [`mod@par_trials`]);
//! defaults are sized to finish in tens of seconds to a few minutes in
//! release mode. `EXPERIMENTS.md` records paper-vs-measured values.

#![warn(missing_docs)]

pub mod adversarial;
pub mod ambient;
pub mod args;
pub mod coupling_census;
pub mod detectability;
pub mod duty_cycle;
pub mod echo;
pub mod fig9;
pub mod metrics;
pub mod natural_faults;
pub mod output;
pub mod par_trials;
pub mod protocol_stats;
pub mod rb_stats;
pub mod shot_exec;
pub mod single_output;
pub mod speedup;

pub use adversarial::{adversarial_score, AdversarialScore};
pub use args::Args;
pub use detectability::{fig8_curve, fig8_threshold, DetectabilityCurve};
pub use fig9::{fig9_panel, Fig9Panel};
pub use output::Table;
pub use par_trials::{par_map, par_trials, split_seed};
pub use protocol_stats::table2_identification_rate;
pub use shot_exec::{ShotSampled, StringSampled};
