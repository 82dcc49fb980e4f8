//! Table I — the fault taxonomy of ion-trap quantum computers.
//!
//! Prints the four (determinism × unitarity) quadrants with their member
//! fault mechanisms and each mechanism's time scale, plus which quadrant
//! the paper's protocols target.

use itqc_bench::output::section;
use itqc_bench::Args;
use itqc_faults::taxonomy::{table_one, Determinism, FaultKind, Unitarity};

fn main() {
    let started = std::time::Instant::now();
    // Table I is a static taxonomy (no Monte-Carlo loop); parsing the
    // shared Args keeps its CLI (`--threads`, `--seed`, …) uniform with
    // the other binaries.
    let args = Args::parse(1);
    itqc_bench::metrics::init(&args);
    section("Table I: types of quantum faults (determinism x unitarity)");
    for cell in table_one() {
        let det = match cell.determinism {
            Determinism::Deterministic => "DETERMINISTIC",
            Determinism::Stochastic => "STOCHASTIC",
        };
        let uni = match cell.unitarity {
            Unitarity::Unitary => "UNITARY",
            Unitarity::NonUnitary => "NON-UNITARY",
        };
        println!("[{det} x {uni}]");
        for kind in &cell.kinds {
            println!("    - {} (time scale: {:?})", kind.description(), kind.time_scale());
        }
        println!();
    }

    section("Protocol targets (dominant faults, paper SIII)");
    for kind in FaultKind::ALL {
        if kind.is_recalibration_target() {
            println!("    * {}", kind.description());
        }
    }
    println!(
        "\nThe testing protocols target the deterministic-unitary quadrant:\n\
         these faults accumulate coherently under gate repetition and are\n\
         removable by recalibrating the affected coupling."
    );
    itqc_bench::metrics::emit_if_requested("table1", &args, started.elapsed());
}
