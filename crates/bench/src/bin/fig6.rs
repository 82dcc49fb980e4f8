//! Fig. 6 — single-output tests with artificially introduced errors.
//!
//! On an 8-qubit machine, 47% and 22% under-rotations are injected on
//! couplings {0,4} and {0,7} (the paper's §VI experiment). The full
//! first-round battery runs at 2-MS and 4-MS depth; fidelity thresholds of
//! 0.45 / 0.25 separate faulty from healthy tests. Panel A is the
//! high-statistics simulation, panel B the 300-shot "experiment" on the
//! virtual machine (10% random amplitude errors on all two-qubit gates, as
//! in the paper's simulator).
//!
//! The battery itself lives in [`itqc_bench::single_output`], shared with
//! the tier-2 statistical regression suite; every (class, depth) cell runs
//! on the parallel trial engine, so stdout is byte-identical at any
//! `--threads` value.

use itqc_bench::output::{f3, section, Table};
use itqc_bench::single_output::{fig6_battery, fig6_jitter, FIG6_THRESH_2MS, FIG6_THRESH_4MS};
use itqc_bench::Args;
use itqc_math::stats::Histogram;

fn main() {
    let started = std::time::Instant::now();
    let args = Args::parse(1);
    itqc_bench::metrics::init(&args);
    section("Fig. 6: tests with artificial 47% ({0,4}) and 22% ({0,7}) under-rotations");
    eprintln!("[fig6] running on {} thread(s)", args.threads());

    let jitter = fig6_jitter();
    for (panel, shots, label) in [
        ("A (simulation, exact)", 200_000usize, "exact fidelity"),
        ("B (experiment, 300 shots)", 300usize, "300-shot estimate"),
    ] {
        section(&format!("panel {panel}: {label}"));
        let rows = fig6_battery(args.seed_for(panel), shots, jitter, args.threads);
        let mut table = Table::new(["test", "couplings", "2MS fid", "2MS", "4MS fid", "4MS"]);
        let mut hist2 = Histogram::new(0.0, 1.0, 10);
        let mut hist4 = Histogram::new(0.0, 1.0, 10);
        for row in &rows {
            let (fail2, fail4) = row.verdicts();
            hist2.add(row.fid2);
            hist4.add(row.fid4);
            table.row([
                format!("{}", row.class),
                row.couplings.to_string(),
                f3(row.fid2),
                if fail2 { "FAIL" } else { "pass" }.to_string(),
                f3(row.fid4),
                if fail4 { "FAIL" } else { "pass" }.to_string(),
            ]);
        }
        println!("{}", table.render());
        println!("2-MS fidelity histogram (threshold {FIG6_THRESH_2MS}):");
        println!("{}", hist2.render(30));
        println!("4-MS fidelity histogram (threshold {FIG6_THRESH_4MS}):");
        println!("{}", hist4.render(30));
        if args.csv {
            println!("{}", table.to_csv());
        }
    }

    println!(
        "reading the syndromes: {{0,4}} shares bits 0 and 1 -> classes (0,0) and\n\
         (1,0) fail; {{0,7}} is bit-complementary -> invisible to round 1 (the\n\
         single-fault protocol's adaptive round finds it — see the quickstart\n\
         example). Paper thresholds 0.45 / 0.25 separate faulty from healthy\n\
         tests in both panels."
    );
    itqc_bench::metrics::emit_if_requested("fig6", &args, started.elapsed());
}
