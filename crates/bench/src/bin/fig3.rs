//! Fig. 3 — infidelity of concatenated MS sequences, echoed vs
//! non-echoed, for the {3,8} and {0,10} qubit pairs of an 11-ion chain.
//!
//! In a non-echoed sequence every MS gate has the same beam phases, so a
//! deterministic calibration error accumulates coherently (infidelity
//! grows ~quadratically in gate count). In an echoed sequence the phase of
//! one ion's drive shifts by π on every successive gate, reversing the XX
//! rotation and cancelling deterministic amplitude errors pairwise —
//! leaving only stochastic noise (slow, ~linear growth). Pair-dependent
//! noise levels are derived from the 11-ion chain's mode structure via the
//! paper's Eq. (1).

//! The sequence builder, noise model, and chain-derived residuals live
//! in [`itqc_bench::echo`], shared with the tier-2 statistical
//! regression suite.

use itqc_bench::echo::{chain_residuals, infidelity, FIG3_CALIB, FIG3_PAIRS, FIG3_PHASE_RMS};
use itqc_bench::output::{f3, section, Table};
use itqc_bench::{par_trials, Args};

fn main() {
    let started = std::time::Instant::now();
    let args = Args::parse(200);
    itqc_bench::metrics::init(&args);
    section("Fig. 3: concatenated MS sequences, echoed vs non-echoed (11-ion chain)");

    // Pair-dependent noise magnitudes from the chain physics: the residual
    // bus coupling of each pair follows Eq. (1) with a pulse tuned to the
    // transverse COM mode.
    let residuals = chain_residuals();
    println!("chain-derived Eq.(1) per-pair residual infidelity:");
    for (&(i, j), &odd) in FIG3_PAIRS.iter().zip(residuals.iter()) {
        println!("    pair {{{i},{j}}}: Eq.(1) odd-population {odd:.4}");
    }
    let calib = FIG3_CALIB;
    let phase_rms = FIG3_PHASE_RMS;

    let mut table =
        Table::new(["gates", "{3,8} no-echo", "{3,8} echo", "{0,10} no-echo", "{0,10} echo"]);
    let ks: Vec<usize> = (1..=10).map(|x| 2 * x).collect();
    // One work item per (gate count, pair, echo) cell, each with its own
    // seed, dispatched over the parallel trial engine — the table is
    // identical at any `--threads` count.
    let cells: Vec<(usize, usize, bool)> = ks
        .iter()
        .flat_map(|&k| (0..2).flat_map(move |p| [false, true].map(|e| (k, p, e))))
        .collect();
    let infidelities = par_trials(
        args.threads,
        cells.len(),
        |i| {
            let (k, p, echoed) = cells[i];
            args.seed_for(&format!("fig3/k={k}/pair={p}/echo={echoed}"))
        },
        |i, rng| {
            let (k, p, echoed) = cells[i];
            infidelity(k, echoed, calib[p], phase_rms, residuals[p], args.trials, rng)
        },
    );
    for (ki, &k) in ks.iter().enumerate() {
        let mut row = vec![k.to_string()];
        // Cell order per k: pair0 no-echo, pair0 echo, pair1 no-echo, pair1 echo.
        row.extend(infidelities[ki * 4..ki * 4 + 4].iter().map(|&inf| f3(inf)));
        table.row(row);
    }
    println!("\n{}", table.render());
    println!(
        "expected shape (paper): non-echoed infidelity grows coherently\n\
         (~quadratic in gate count); echoed sequences cancel the deterministic\n\
         error and grow slowly; pair {{0,10}} sits above pair {{3,8}}."
    );
    if args.csv {
        println!("\n{}", table.to_csv());
    }
    itqc_bench::metrics::emit_if_requested("fig3", &args, started.elapsed());
}
