//! Fig. 11 — how many couplings real circuits actually use.
//!
//! Generates a representative algorithm suite ("real-life quantum
//! circuits", standing in for the workload set of the paper's ref.\ \[27\]),
//! lowers each circuit to the native ion gate set, and censuses the
//! distinct couplings exercised. Panel A: utilised couplings vs qubit
//! count; panel B: utilised fraction of all `C(N,2)` couplings. The paper
//! observes the average utilisation scaling like ~1/3 of all couplings —
//! the headroom that lets circuits be mapped *around* diagnosed faulty
//! couplings instead of recalibrating immediately (§VIII).
//!
//! The suite and census live in [`itqc_bench::coupling_census`], shared
//! with the tier-2 regression suite; each circuit transpiles on its own
//! parallel-engine worker, so stdout is byte-identical at any
//! `--threads` value.

use itqc_bench::coupling_census::{fig11_rows, fraction_by_size, suite_average_fraction};
use itqc_bench::output::{pct, section, Table};
use itqc_bench::Args;

fn main() {
    let started = std::time::Instant::now();
    let args = Args::parse(1);
    itqc_bench::metrics::init(&args);
    section("Fig. 11: utilised couplings in real-life circuits (native gate set)");
    eprintln!("[fig11] running on {} thread(s)", args.threads());

    let rows = fig11_rows(args.seed_for("fig11"), args.threads);
    let mut t = Table::new(["circuit", "qubits", "used", "of total", "fraction"]);
    for row in &rows {
        t.row([
            row.name.clone(),
            row.qubits.to_string(),
            row.used.to_string(),
            row.total.to_string(),
            pct(row.fraction),
        ]);
    }
    println!("{}", t.render());

    // Panel-style aggregation by qubit count.
    section("aggregated by circuit size (panels A and B)");
    let mut agg = Table::new(["qubits", "avg used", "total", "avg fraction"]);
    for (n, avg_used, avg_frac) in fraction_by_size(&rows) {
        agg.row([
            n.to_string(),
            format!("{avg_used:.1}"),
            (n * (n - 1) / 2).to_string(),
            pct(avg_frac),
        ]);
    }
    println!("{}", agg.render());
    println!(
        "suite-average utilised fraction: {} (paper's blue line: ~1/3 of all couplings;\n\
         the exact level depends on the workload mix — chain-structured algorithms pull\n\
         it down, QFT-like all-to-all algorithms pull it up)",
        pct(suite_average_fraction(&rows))
    );
    if args.csv {
        println!("\n{}", t.to_csv());
    }
    itqc_bench::metrics::emit_if_requested("fig11", &args, started.elapsed());
}
