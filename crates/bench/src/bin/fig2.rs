//! Fig. 2 — the duty cycle of a commercial ion-trap QC.
//!
//! Simulates 24 hours of operation under two maintenance policies and
//! reports the duty-cycle split:
//!
//! * **Periodic full recalibration** (the contemporary practice of Fig. 2):
//!   every coupling is re-characterised and recalibrated on a fixed cadence
//!   → roughly half the wall clock goes to test + calibration (the paper
//!   measures 53% jobs / 47% maintenance).
//! * **Test-driven recalibration** (this paper): a cheap canary runs every
//!   minute; on failure the log-many-test diagnosis runs and only the
//!   diagnosed couplings are recalibrated.
//!
//! The policy implementations live in [`itqc_fleet::machine_day`],
//! shared with the fleet scheduler and the tier-2 statistical regression
//! suite.

use itqc_bench::duty_cycle::mean_duty;
use itqc_bench::output::{pct, section, Table};
use itqc_bench::Args;
use itqc_fleet::machine_day::{jobs_share_excluding_idle, periodic_policy, test_driven_policy};

fn main() {
    let started = std::time::Instant::now();
    let args = Args::parse(8);
    itqc_bench::metrics::init(&args);
    section("Fig. 2: duty cycle of an 11-qubit ion-trap QC over 24 h");
    // The thread count goes to stderr so stdout is byte-identical at
    // any `--threads` value.
    println!("(mean over {} simulated machine-days per policy)\n", args.trials);
    eprintln!("[fig2] running on {} thread(s)", args.threads());

    let periodic = mean_duty(
        args.threads,
        args.trials,
        |t| args.seed_for(&format!("fig2/periodic/trial{t}")),
        |seed| periodic_policy(seed, 5.0),
    );
    let driven = mean_duty(
        args.threads,
        args.trials,
        |t| args.seed_for(&format!("fig2/driven/trial{t}")),
        test_driven_policy,
    );

    let mut t = Table::new(["policy", "jobs", "testing", "calibration", "adaptation", "idle"]);
    for (name, secs) in [("periodic full recal", &periodic), ("test-driven (ours)", &driven)] {
        let total: f64 = secs.iter().sum();
        let mut cells = vec![name.to_string()];
        cells.extend(secs.iter().map(|&s| pct(s / total)));
        t.row(cells);
    }
    println!("{}", t.render());
    println!(
        "paper reference (Fig. 2): ~53% jobs / ~47% test+calibration for the\n\
         contemporary periodic-recalibration policy; the paper's strategy\n\
         shrinks the maintenance share by testing first and recalibrating\n\
         only diagnosed couplings."
    );
    for (name, secs) in [("periodic", &periodic), ("test-driven", &driven)] {
        // The helper returns 0 for an all-idle day (nothing to report).
        let jobs = jobs_share_excluding_idle(secs);
        if jobs > 0.0 {
            println!(
                "{name} policy, excluding idle: jobs {} / maintenance {}",
                pct(jobs),
                pct(1.0 - jobs),
            );
        }
    }
    if args.csv {
        println!("\n{}", t.to_csv());
    }
    itqc_bench::metrics::emit_if_requested("fig2", &args, started.elapsed());
}
