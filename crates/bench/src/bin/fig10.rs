//! Fig. 10 — speed-up of adaptive and non-adaptive testing over
//! all-couplings point checks, as a function of machine size.
//!
//! Under the paper's assumptions (gate time scaling `(8/N)²` from 0.2 ms,
//! shallow-circuit runtime dominated by preparation + readout, adaptive
//! programs compiled on the fly vs a precompiled non-adaptive family):
//! the adaptive (binary-search) speed-up plateaus around 10³ — the ratio
//! of per-point-check processing to per-coupling compile time — while the
//! non-adaptive protocol's speed-up keeps growing as `N²/log N`.
//!
//! The cost-model sweep lives in [`itqc_bench::speedup`], shared with the
//! tier-2 regression suite and run on the parallel trial engine; stdout
//! is byte-identical at any `--threads` value.

use itqc_bench::output::{section, Table};
use itqc_bench::speedup::fig10_rows;
use itqc_bench::Args;
use itqc_core::cost::CostModel;

fn main() {
    let started = std::time::Instant::now();
    let args = Args::parse(1);
    itqc_bench::metrics::init(&args);
    section("Fig. 10: testing strategy speed-up vs point checks");
    eprintln!("[fig10] running on {} thread(s)", args.threads());

    let rows = fig10_rows(args.threads);
    let mut t = Table::new([
        "qubits",
        "point-check (s)",
        "adaptive (s)",
        "non-adaptive (s)",
        "speedup adaptive",
        "speedup non-adaptive",
    ]);
    for row in &rows {
        t.row([
            row.qubits.to_string(),
            format!("{:.1}", row.point_check_s),
            format!("{:.1}", row.adaptive_s),
            format!("{:.1}", row.non_adaptive_s),
            format!("{:.1}", row.speedup_adaptive),
            format!("{:.1}", row.speedup_non_adaptive),
        ]);
    }
    println!("{}", t.render());

    let m = CostModel::paper_defaults();
    println!("paper reference points:");
    println!(
        "  - 11-qubit machine: full characterisation over a minute ({:.0} s here),\n\
         \u{20}   diagnosis in ~10 s ({:.1} s here)",
        m.point_check_time(11),
        m.non_adaptive_time(11)
    );
    println!(
        "  - adaptive speed-up plateaus near 10^3 (compile-bound): {:.0} at N = 4096",
        m.speedup_adaptive(4096)
    );
    println!(
        "  - non-adaptive speed-up grows ~ N^2/log N: x{:.1} from N = 256 to N = 1024\n\
         \u{20}   (N^2/log N predicts x{:.1})",
        m.speedup_non_adaptive(1024) / m.speedup_non_adaptive(256),
        (1024.0f64 * 1024.0 / 10.0) / (256.0 * 256.0 / 8.0)
    );
    if args.csv {
        println!("\n{}", t.to_csv());
    }
    itqc_bench::metrics::emit_if_requested("fig10", &args, started.elapsed());
}
