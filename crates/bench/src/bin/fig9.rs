//! Fig. 9 — identification probability vs spread of the fault
//! distribution.
//!
//! Every coupling's under-rotation is drawn from the paper's composite law
//! (uniform within the 6% calibration band + right-Gaussian tail of spread
//! σ, normalised by `a(σ) = 1/(0.06 + σ√(π/2))`, footnote 10). The
//! machine's "faults" are the k largest draws; the sequential multi-fault
//! pipeline must identify them. Panels A–F: success probability vs σ for
//! k = 1, 2, 3 and 2-MS / 4-MS ladders at N = 8, 16, 32. Panel G: sorted
//! samples of the composite law at σ = 0.05 and 0.15.
//!
//! Measurement lives in [`itqc_bench::fig9`] on the `par_trials` harness:
//! every `(σ, k)` point derives a private per-trial seed stream, so stdout
//! is byte-identical at any `--threads` value (the CI determinism job
//! diffs it) and the panels parallelize across cores.
//!
//! Expected shape (paper): wider spreads separate the faults in magnitude,
//! so identification improves with σ — and faster for the deeper 4-MS
//! tests.

use itqc_bench::args::{own_value, usage_error};
use itqc_bench::fig9::{fig9_panel, FIG9_BAND, FIG9_SCORE, FIG9_SHOTS};
use itqc_bench::output::{f3, pct, section, Table};
use itqc_bench::Args;
use itqc_core::DecoderPolicy;
use itqc_math::rng::{CompositeUnderRotation, Distribution};
use rand::rngs::SmallRng;
use rand::SeedableRng;

fn main() {
    let started = std::time::Instant::now();
    let (args, own) = Args::parse_with(60, &["--decoder="]);
    itqc_bench::metrics::init(&args);
    let decoder: DecoderPolicy =
        own_value(&own, "--decoder=").unwrap_or_else(|e| usage_error(&e)).unwrap_or_default();
    section(&format!(
        "Fig. 9: P(identify k largest faults) vs composite-law spread sigma ({decoder} decoder)"
    ));

    // Panel G first: the sampled distributions.
    section("panel G: sorted under-rotation samples (28 couplings, N = 8)");
    let mut rng = SmallRng::seed_from_u64(args.seed_for("fig9/panelG"));
    let mut g = Table::new(["rank", "sigma=0.05", "sigma=0.15"]);
    let mut cols = Vec::new();
    for sigma in [0.05, 0.15] {
        let law = CompositeUnderRotation::paper(sigma);
        let mut xs = law.sample_vec(&mut rng, 28);
        xs.sort_by(|a, b| b.partial_cmp(a).unwrap());
        cols.push(xs);
    }
    for (r, (lo, hi)) in cols[0].iter().zip(&cols[1]).enumerate() {
        g.row([(r + 1).to_string(), pct(*lo), pct(*hi)]);
    }
    println!("{}", g.render());
    println!("(uniform body below the 6% calibration line + Gaussian tail outliers)\n");

    // Panels A–F.
    for reps in [2usize, 4] {
        for n in [8usize, 16, 32] {
            let tag = format!("fig9/n={n}/r={reps}");
            // Thresholds calibrated on the composite law's ambient body
            // (uniform ±6% within the band).
            let threshold = itqc_bench::ambient::calibrate_threshold_uniform_par(
                args.threads,
                n,
                reps,
                FIG9_BAND,
                FIG9_SCORE,
                FIG9_SHOTS,
                0.005,
                60,
                args.seed_for(&format!("{tag}/threshold")),
            );
            let panel = fig9_panel(
                n,
                reps,
                threshold,
                args.trials,
                args.threads,
                decoder,
                args.seed_for(&tag),
            );
            section(&format!("{n} qubits, {reps}-MS ladder (threshold {})", f3(threshold)));
            let mut table = Table::new(["sigma", "k=1", "k=2", "k=3"]);
            for row in &panel.rows {
                let mut cells = vec![format!("{:.2}", row.sigma)];
                cells.extend(row.p_identify.iter().map(|&p| f3(p)));
                table.row(cells);
            }
            println!("{}", table.render());
            if args.csv {
                println!("{}", table.to_csv());
            }
        }
    }
    println!(
        "expected shape: identification improves with sigma (larger spread separates\n\
         fault magnitudes); multi-fault identification is harder at larger N; the\n\
         4-MS ladder improves faster than 2-MS (higher contrast)."
    );
    itqc_bench::metrics::emit_if_requested("fig9", &args, started.elapsed());
}
