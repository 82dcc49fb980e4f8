//! Tier-2 adversarial fault-coverage suite.
//!
//! The `fig_adv` scorecard's claims, pinned: the paper-faithful
//! pipeline (fixed worst-qubit canary, ranked evidence-fusion decoder)
//! has two *structural* blind spots — even-degree fault configurations
//! and tied disjoint perfect-fit covers — and the countermeasure pair
//! (rotating seeded canary subsets + disputed-member interrogation)
//! closes both, lifting the blind-spot classes to the uniform-draw
//! identification level. Blind spots may only ever cause *misses*:
//! every accusation is magnitude-verified, so the false-accusation
//! count must be exactly zero in every cell, countermeasures on or off.
//!
//! Methodology matches `paper_regression.rs`: seeds are derived exactly
//! as the `fig_adv` binary derives them (`Args::seed_for` with the
//! master seed 20220402), statistical bounds quote the binomial 95 %
//! half-width `1.96·√(p(1−p)/n)` at the trial count they run, and the
//! structural claims (`== 0.0`) are exact — a 0 % cell is a property of
//! the pipeline on the oracle executor, not a sampling accident.

use itqc_bench::adversarial::adversarial_score;
use itqc_bench::Args;
use itqc_faults::adversarial::ConfigClass;

/// The master seed the `EXPERIMENTS.md` scorecard was captured at.
const PAPER_SEED: u64 = 20220402;

/// Seeds derived exactly as the `fig_adv` binary derives them.
fn seed_for(tag: &str) -> u64 {
    Args {
        trials: 0,
        seed: PAPER_SEED,
        threads: 0,
        decoder: None,
        backend: itqc_backend::BackendChoice::Auto,
        csv: false,
        fast: false,
        metrics: None,
    }
    .seed_for(tag)
}

/// One scorecard cell at the binary's own per-cell seed.
fn cell(n: usize, class: ConfigClass, trials: usize, countermeasures: bool) -> (f64, usize) {
    let arm = if countermeasures { "rotating" } else { "fixed" };
    let s = adversarial_score(
        n,
        class,
        trials,
        0,
        countermeasures,
        seed_for(&format!("fig_adv/n={n}/{class}/{arm}")),
    );
    (s.identification, s.false_accusations)
}

#[test]
fn even_degree_configurations_are_invisible_to_the_fixed_canary() {
    // Exactly zero, not "low": every qubit of an even-degree
    // configuration touches an even number of faults, so the product of
    // per-fault cosines is positive and the worst-qubit canary
    // agreement (1 + Π cos)/2 stays ≥ 1/2 at ANY fault magnitude. The
    // paper loop sees the canary pass and converges with an empty
    // diagnosis — at both machine sizes, on every draw.
    for n in [8usize, 16] {
        let (p, false_acc) = cell(n, ConfigClass::EvenDegree, 100, false);
        assert_eq!(p, 0.0, "n={n}: even-degree must be structurally invisible");
        assert_eq!(false_acc, 0, "n={n}: misses must not become accusations");
    }
}

#[test]
fn tied_covers_stall_the_ranked_decoder_without_false_accusations() {
    // Two conflicting same-syndrome families predict identical scores
    // at every rung, so the evidence-fusion consensus honestly abstains
    // forever — zero identification, and zero false accusations, which
    // is the designed failure mode (abstention, never fabrication).
    let (p, false_acc) = cell(8, ConfigClass::TiedCover, 60, false);
    assert_eq!(p, 0.0, "tied covers must stall the ranked decoder");
    assert_eq!(false_acc, 0);
}

#[test]
fn countermeasures_lift_even_degree_to_the_uniform_draw_level() {
    // The acceptance bar of the harness: with rotating canary subsets
    // and disputed-member interrogation on, even-degree configurations
    // must identify at the uniform-draw rate. Captured at 300 trials:
    // 0.980 (even-degree) vs 0.950 (uniform) at 8 qubits. At 160 trials
    // the 95 % half-width of the *difference* is
    // 1.96·√(0.95·0.05/160 + 0.98·0.02/160) ≈ 0.040; the bound below
    // widens it to 0.06 against seed-to-seed drift.
    let trials = 160;
    let (uniform, fa_u) = cell(8, ConfigClass::Uniform, trials, true);
    let (even, fa_e) = cell(8, ConfigClass::EvenDegree, trials, true);
    assert!(
        even >= uniform - 0.06,
        "even-degree under countermeasures ({even:.3}) must reach the \
         uniform-draw level ({uniform:.3}) within the binomial CI"
    );
    assert!(even >= 0.90, "even-degree under countermeasures sank to {even:.3}");
    assert_eq!(fa_u + fa_e, 0, "countermeasures must not buy coverage with fabrications");
}

#[test]
fn interrogation_resolves_tied_covers_at_both_machine_sizes() {
    // Disputed-member interrogation point-tests members that appear in
    // some but not all tied covers; each veto collapses the tie family
    // until consensus fires. Captured at 300 trials: 1.000 at both
    // sizes; 0.95 leaves the binomial-CI floor at 60 trials
    // (1.96·√(1.0·0.0/60) = 0, so any miss at all is the signal).
    for n in [8usize, 16] {
        let (p, false_acc) = cell(n, ConfigClass::TiedCover, 60, true);
        assert!(p >= 0.95, "n={n}: tied-cover under interrogation only {p:.3}");
        assert_eq!(false_acc, 0, "n={n}");
    }
}
