//! Tier-2 statistical paper-regression suite.
//!
//! Every filled row of `EXPERIMENTS.md` is pinned here to the paper's
//! value (Maksymov et al., HPCA 2022, arXiv:2108.03708) within a stated
//! tolerance, so a decoder or noise-model change that silently moves a
//! reproduced number fails the build (the `tier2-stats` CI job runs
//! exactly this file: `cargo test --release --test paper_regression`).
//!
//! Methodology: each Monte-Carlo assertion quotes the binomial 95 %
//! confidence half-width `1.96·√(p(1−p)/n)` at the trial count it runs,
//! and the accepted window is the paper value (or the pinned measured
//! value where the paper's own number is qualitative) widened by that
//! half-width. Seeds are derived exactly as the bench binaries derive
//! them (`Args::seed_for` with the master seed 20220402), so a bound
//! here is a bound on the published `EXPERIMENTS.md` row itself, not on
//! a lookalike workload. Trial counts are capped so the whole suite
//! stays within the CI job's ~5-minute budget on one vCPU.

use itqc_backend::BackendChoice;
use itqc_bench::coupling_census::{fig11_rows, suite_average_fraction};
use itqc_bench::detectability::{fig8_curve, fig8_threshold};
use itqc_bench::duty_cycle::{
    jobs_share_excluding_idle, mean_duty, periodic_policy, test_driven_policy,
};
use itqc_bench::echo::{chain_residuals, infidelity, FIG3_CALIB, FIG3_PHASE_RMS};
use itqc_bench::natural_faults::{fig7_diagnose, fig7_expected, fig7_recovery_rate, fig7_trap};
use itqc_bench::protocol_stats::{identification_rate_with, table2_config};
use itqc_bench::rb_stats::rb_summary;
use itqc_bench::single_output::{fig6_battery, fig6_expected_failing, fig6_jitter};
use itqc_bench::speedup::fig10_rows;
use itqc_bench::{adversarial_score, table2_identification_rate, Args};
use itqc_core::DecoderPolicy;
use itqc_faults::adversarial::ConfigClass;
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// The master seed every `EXPERIMENTS.md` row was captured at.
const PAPER_SEED: u64 = 20220402;

/// Seeds derived exactly as the bench binaries derive them.
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

/// One Table II cell at the binary's own per-cell seed.
fn table2_cell(n: usize, k: usize, trials: usize) -> f64 {
    table2_identification_rate(
        n,
        k,
        trials,
        0,
        DecoderPolicy::Ranked,
        seed_for(&format!("t2/{n}/{k}")),
    )
}

// ---------------------------------------------------------------------
// Table II — multi-fault identification probability (ranked decoder).
// ---------------------------------------------------------------------

#[test]
fn table2_one_fault_row_is_exact() {
    // Paper: 100 % / 100 % / 100 %. A lone fault has a unique maximal
    // syndrome once amplified, so identification is deterministic — the
    // tolerance is zero at any trial count. Trial counts shrink with
    // machine size only to bound runtime (the per-trial cost grows with
    // the coupling count, not the success variance).
    for (n, trials) in [(8usize, 120usize), (16, 60), (32, 24)] {
        let p = table2_cell(n, 1, trials);
        assert_eq!(p, 1.0, "1-fault identification must be exact at {n} qubits, got {p}");
    }
}

#[test]
fn table2_two_fault_8q_tracks_fused_decoder_value() {
    // Paper: 47 %; PR 3's ranked decoder measured 49.7 %; the
    // evidence-fusion decoder measures 57.0 % — the ~7-point jump is
    // the over-long (non-conflicting) union syndromes the earlier
    // pipeline abandoned as Inconclusive and the fused posterior now
    // resolves (same upgrade already visible on the 16/32-qubit cells,
    // 30.7 vs 23 and 17.0 vs 12; see EXPERIMENTS.md). The floor is
    // PR 3's measured value (the fused decoder must never cost
    // identifications); the ceiling is the measured value plus the
    // binomial 95 % half-width at n = 300 (≈ 5.6 points).
    let p = table2_cell(8, 2, 300);
    assert!(p >= 0.497, "2-fault 8-qubit cell {p:.3} regressed below PR 3's 49.7 %");
    assert!(p <= 0.63, "2-fault 8-qubit cell {p:.3} above the pinned 57.0 % + CI half-width");
}

#[test]
fn table2_three_fault_8q_meets_acceptance_floor() {
    // Paper: 22 %; the fused decoder measures 24.7 % (up from PR 3's
    // 18.7 %, which sat one binomial half-width *below* the paper).
    // Binomial 95 % half-width at p ≈ 0.23, n = 300 is ≈ 4.8 points.
    // The floor is this PR's acceptance bound (≥ 19 %); the ceiling is
    // the measured value plus one half-width plus slack — the
    // consensus-gated decoder must stay in the paper's regime (the
    // interrogation *extension* measures 95 % here and is deliberately
    // not the default).
    let p = table2_cell(8, 3, 300);
    assert!(p >= 0.19, "3-fault 8-qubit cell {p:.3} under the 19 % acceptance floor");
    assert!(p <= 0.31, "3-fault 8-qubit cell {p:.3} implausibly above the paper's 22 %");
}

#[test]
fn table2_fused_evidence_never_costs_accuracy_and_pays_under_noise() {
    // The evidence-fusion property sweep, pinned at the suite seed over
    // per-trial seed streams ("across seeds"): with 300-shot binomial
    // noise on every test score, fusing each extra adaptive round's
    // class battery into the cover posterior must identify at least as
    // many planted 3-fault sets as the round-1-only ranking
    // (fusion_rounds = 0, PR 3's behaviour) on the *same* trial seeds —
    // and strictly more here (measured 46 % vs 43 %), because fresh
    // rungs carry independent shot noise the joint-magnitude profile
    // averages down.
    let seed = seed_for("fusion/shots");
    let fused_cfg = table2_config(3, DecoderPolicy::Ranked);
    let mut unfused_cfg = fused_cfg.clone();
    unfused_cfg.fusion_rounds = 0;
    let fused = identification_rate_with(8, 3, 150, 0, &fused_cfg, true, seed);
    let unfused = identification_rate_with(8, 3, 150, 0, &unfused_cfg, true, seed);
    assert!(
        fused >= unfused,
        "fused isolation accuracy {fused:.3} must not fall below round-1-only {unfused:.3}"
    );
}

#[test]
fn table2_aliasing_decays_with_machine_size() {
    // Paper rows: 2 faults 47/23/12 %, 3 faults 22/5/1 %. The bigger
    // label space dilutes syndrome coverage, so identification must
    // decay monotonically in machine size. Reduced trial counts keep
    // the 16/32-qubit cells affordable; the monotonicity claim needs no
    // tight absolute tolerance, and the absolute windows below are the
    // paper value ± the 95 % half-width at the trial count used
    // (n = 100: ±8.3 points at p = 0.23, ±6.4 at p = 0.12; 3-fault
    // cells at small p get a pure ceiling).
    let p2_8 = table2_cell(8, 2, 100);
    let p2_16 = table2_cell(16, 2, 100);
    let p2_32 = table2_cell(32, 2, 100);
    assert!(
        p2_8 > p2_16 && p2_16 >= p2_32,
        "2-fault identification must decay with size: {p2_8:.2} / {p2_16:.2} / {p2_32:.2}"
    );
    assert!(
        (0.15..=0.40).contains(&p2_16),
        "2-fault 16-qubit cell {p2_16:.3} far from the paper's 0.23"
    );
    assert!(
        (0.03..=0.25).contains(&p2_32),
        "2-fault 32-qubit cell {p2_32:.3} far from the paper's 0.12"
    );
    let p3_16 = table2_cell(16, 3, 100);
    assert!(p3_16 <= 0.20, "3-fault 16-qubit cell {p3_16:.3} implausibly above the paper's 0.05");
}

// ---------------------------------------------------------------------
// Fig. 8 — contrast & detectability at scale (string-sampled shots via
// the simulation-backend subsystem).
// ---------------------------------------------------------------------

/// One Fig. 8 panel at the binary's own seeds and reduced trials.
fn fig8_min_u95(n: usize, reps: usize, trials: usize) -> Option<f64> {
    let tag = format!("fig8/n={n}/r={reps}");
    let threshold =
        fig8_threshold(n, reps, 60, 0, BackendChoice::Auto, seed_for(&format!("{tag}/threshold")));
    fig8_curve(n, reps, threshold, trials, 0, BackendChoice::Auto, seed_for(&tag)).min_u_at(0.95)
}

#[test]
fn fig8_8q_and_16q_knees_match_paper_exactly() {
    // Paper: minimum under-rotation at 95 % identification is 25/30 %
    // (2-MS) and 20/25 % (4-MS) for 8/16 qubits. All four knees measure
    // exactly on the paper values at the binary's seeds — pinned to the
    // exact 5 %-grid point (the knee is a plateau crossing: the plateau
    // sits at ≈ 0.98–1.00, comfortably above the 95 % bar even at the
    // 60-trial binomial half-width, so the crossing point is stable).
    for (n, reps, paper) in [(8, 2, 0.25), (16, 2, 0.30), (8, 4, 0.20), (16, 4, 0.25)] {
        let min_u = fig8_min_u95(n, reps, 60).expect("knee must exist below 50%");
        assert!(
            (min_u - paper).abs() < 1e-9,
            "{n}q {reps}MS: min-u {min_u:.2} vs paper {paper:.2}"
        );
    }
}

#[test]
fn fig8_32q_knees_match_paper_exactly() {
    // Paper: 35 % at 2-MS and 30 % at 4-MS on 32 qubits. Both knees
    // used to sit one 5 %-grid step high (40/35 %) because the
    // verification point test — the highest-scoring faulty test, with
    // no ambient co-factors — sat ~1.7σ from the class-calibrated
    // threshold; per-run contrast verification
    // (`SingleFaultProtocol::with_contrast_verification`) fixed the
    // 2-MS knee. The 4-MS knee then still measured one miss in 120
    // short of the 95 % bar at the paper's 30 % point: the interpolated
    // calibration quantile sat strictly *inside* the 1/300-shot score
    // band above its own lowest healthy level, so healthy first-round
    // tests at that level false-failed at ~5× the calibrated rate and
    // one corrupted syndrome per ~20 trials sent the decoder to the
    // wrong coupling. Snapping the threshold onto the shot grid
    // (`itqc_core::threshold::snap_to_shot_grid`) removes those false
    // fails and lands both knees exactly on the paper values, measured
    // P(identify) = 0.975 at 4-MS u = 30 % over 120 trials. Reduced to
    // 30 trials to keep the 32-qubit cells inside the CI budget (the
    // knee is a plateau crossing, far less trial-sensitive than the
    // plateau height).
    for (reps, paper) in [(2, 0.35), (4, 0.30)] {
        let min_u = fig8_min_u95(32, reps, 30).expect("32q knee must exist below 50%");
        assert!((min_u - paper).abs() < 1e-9, "32q {reps}MS knee {min_u:.2} vs paper {paper:.2}");
    }
}

// ---------------------------------------------------------------------
// Beyond-paper scale (fig8_xl / table2_xl): chain-sampled 32-qubit
// components, common-mode ambient — see EXPERIMENTS.md.
// ---------------------------------------------------------------------

#[test]
fn fig8_xl_64q_knees_are_pinned() {
    // EXPERIMENTS.md fig8_xl row (120 trials, seed 20220402): 20 % at
    // 2-MS and 15 % at 4-MS on 64 qubits — every first-round class is a
    // 32-qubit complete component, answered by the chain sampler (no
    // joint table exists above 20 qubits). The knees are plateau
    // crossings (P(identify) ≈ 0.77 one grid step below the 2-MS knee,
    // ≈ 1.00 on it), so the reduced 30-trial count crosses at the same
    // grid points.
    for (reps, pinned) in [(2, 0.20), (4, 0.15)] {
        let min_u = fig8_min_u95(64, reps, 30).expect("64q knee must exist below 50%");
        assert!(
            (min_u - pinned).abs() < 1e-9,
            "64q {reps}MS knee {min_u:.2} vs pinned {pinned:.2}"
        );
    }
}

#[test]
fn fig8_xl_chain_path_is_thread_invariant() {
    // The chain descent consumes exactly one uniform per component per
    // shot, so the 64-qubit panel must stay bit-identical across worker
    // counts like every paper-size panel.
    let tag = "fig8/n=64/r=2";
    let threshold =
        fig8_threshold(64, 2, 30, 0, BackendChoice::Auto, seed_for(&format!("{tag}/threshold")));
    let a = fig8_curve(64, 2, threshold, 6, 1, BackendChoice::Auto, seed_for(tag));
    let b = fig8_curve(64, 2, threshold, 6, 8, BackendChoice::Auto, seed_for(tag));
    for (x, y) in a.points.iter().zip(&b.points) {
        assert_eq!(x.p_identify, y.p_identify);
        assert_eq!(x.faulty_mean.to_bits(), y.faulty_mean.to_bits());
        assert_eq!(x.healthy_mean.to_bits(), y.healthy_mean.to_bits());
    }
}

#[test]
fn table2_xl_64q_row_tracks_recorded_values() {
    // EXPERIMENTS.md table2_xl row (seed 20220402): 100 / 12.7 / 1.3 %
    // for 1/2/3 faults at N = 64 — the exact oracle answers every
    // 32-qubit-component ExactTarget score from the chain sampler's
    // (z_T, k) tables. Windows are the recorded value ± the 95 %
    // half-width at the reduced trial counts (n = 60: ±8.4 points at
    // p = 0.127; the 3-fault cell at p ≈ 0.01 gets a pure ceiling).
    let cell = |k: usize, trials: usize| {
        table2_identification_rate(
            64,
            k,
            trials,
            0,
            DecoderPolicy::Ranked,
            seed_for(&format!("t2xl/64/{k}")),
        )
    };
    assert_eq!(cell(1, 25), 1.0, "single faults must always be identified at N = 64");
    let p2 = cell(2, 60);
    assert!((0.03..=0.25).contains(&p2), "2-fault 64q cell {p2:.3} far from the recorded 0.127");
    let p3 = cell(3, 40);
    assert!(p3 <= 0.15, "3-fault 64q cell {p3:.3} implausibly above the recorded 0.013");
}

#[test]
fn fig8_contrast_shape_matches_paper_reading() {
    // The qualitative claims of the figure, at the binary's seeds: the
    // healthy baseline stays flat across the sweep while the faulty
    // curve opens monotonically; deeper tests amplify (4-MS faulty
    // scores sit below 2-MS at the same u); and a noise-floor fault is
    // never 95 %-identifiable.
    let tag = "fig8/n=8/r=2";
    let t2 =
        fig8_threshold(8, 2, 60, 0, BackendChoice::Auto, seed_for(&format!("{tag}/threshold")));
    let c2 = fig8_curve(8, 2, t2, 60, 0, BackendChoice::Auto, seed_for(tag));
    let tag4 = "fig8/n=8/r=4";
    let t4 =
        fig8_threshold(8, 4, 60, 0, BackendChoice::Auto, seed_for(&format!("{tag4}/threshold")));
    let c4 = fig8_curve(8, 4, t4, 60, 0, BackendChoice::Auto, seed_for(tag4));
    for c in [&c2, &c4] {
        let healthy_drift =
            (c.points.last().unwrap().healthy_mean - c.points.first().unwrap().healthy_mean).abs();
        assert!(healthy_drift < 0.03, "healthy baseline drifted {healthy_drift:.3}");
        assert!(c.points.first().unwrap().p_identify < 0.1, "u=0 must not be 'identified'");
    }
    for (p2, p4) in c2.points.iter().zip(&c4.points).skip(2) {
        assert!(
            p4.faulty_mean < p2.faulty_mean + 1e-9,
            "4-MS must amplify at u={:.2}: {:.3} vs {:.3}",
            p2.under_rotation,
            p4.faulty_mean,
            p2.faulty_mean
        );
    }
}

// ---------------------------------------------------------------------
// Fig. 2 — duty-cycle split of the two maintenance policies.
// ---------------------------------------------------------------------

#[test]
fn fig2_duty_cycle_split_matches_paper() {
    // Paper: ~53 % jobs / ~47 % test+calibration for the periodic
    // policy (excluding idle). The split is a ratio of accumulated
    // wall-clock, not a Bernoulli rate, so the tolerance is the ±4-point
    // day-to-day spread observed across seeds, wide enough for the
    // 4-day mean used here (EXPERIMENTS.md pins 52.2 % over 8 days).
    let days = 4;
    let periodic = mean_duty(
        0,
        days,
        |t| seed_for(&format!("fig2/periodic/trial{t}")),
        |seed| periodic_policy(seed, 5.0),
    );
    let jobs = jobs_share_excluding_idle(&periodic);
    assert!(
        (0.49..=0.57).contains(&jobs),
        "periodic-policy jobs share {jobs:.3} outside the paper's ~0.53 window"
    );

    // The paper's qualitative claim for its test-driven policy: the
    // maintenance share shrinks decisively. EXPERIMENTS.md pins 91.5 %
    // jobs; assert a ≥ 20-point improvement so the claim survives any
    // re-tuning of the drift model.
    let driven =
        mean_duty(0, days, |t| seed_for(&format!("fig2/driven/trial{t}")), test_driven_policy);
    let driven_jobs = jobs_share_excluding_idle(&driven);
    assert!(
        driven_jobs >= jobs + 0.20,
        "test-driven jobs share {driven_jobs:.3} must beat periodic {jobs:.3} by ≥ 20 points"
    );
}

// ---------------------------------------------------------------------
// Fig. 3 — echoed vs non-echoed MS sequences.
// ---------------------------------------------------------------------

#[test]
fn fig3_echo_ordering_matches_paper() {
    // Paper orderings at 20 gates: non-echoed infidelity sits well above
    // echoed for both pairs (coherent ~quadratic accumulation vs pairwise
    // cancellation), and the edge pair {0,10} sits above {3,8} without
    // echo. EXPERIMENTS.md pins no-echo 0.040/0.098 vs echo 0.005/0.002;
    // at 200 trajectories the trajectory-noise spread on each mean is
    // under a point, so a 2× separation factor is conservative.
    let residuals = chain_residuals();
    let k = 20;
    let cell = |pair: usize, echoed: bool| {
        let mut rng =
            SmallRng::seed_from_u64(seed_for(&format!("fig3/k={k}/pair={pair}/echo={echoed}")));
        infidelity(k, echoed, FIG3_CALIB[pair], FIG3_PHASE_RMS, residuals[pair], 200, &mut rng)
    };
    let no_echo = [cell(0, false), cell(1, false)];
    let echo = [cell(0, true), cell(1, true)];
    for p in 0..2 {
        assert!(
            no_echo[p] > 2.0 * echo[p],
            "pair {p}: no-echo {:.4} must exceed echo {:.4} decisively",
            no_echo[p],
            echo[p]
        );
    }
    assert!(
        no_echo[1] > no_echo[0],
        "edge pair {{0,10}} ({:.4}) must sit above {{3,8}} ({:.4}) without echo",
        no_echo[1],
        no_echo[0]
    );
}

// ---------------------------------------------------------------------
// Fig. 6 — single-output tests with planted 47 % / 22 % errors.
// ---------------------------------------------------------------------

#[test]
fn fig6_battery_verdicts_match_paper_reading() {
    // Paper: {0,4} (47 %) trips exactly the two classes containing it —
    // (0,0) and (1,0) — while the bit-complementary {0,7} (22 %) is
    // invisible to round 1; thresholds 0.45 / 0.25 separate faulty from
    // healthy tests. Pinned at the binary's own panel seeds: at 4-MS
    // depth the verdict split must be exact in both panels (at 2-MS the
    // 47 % fault sits near the threshold, so only the ordering is
    // asserted: every faulty-class score below every healthy one).
    for (panel, shots) in
        [("A (simulation, exact)", 200_000usize), ("B (experiment, 300 shots)", 300usize)]
    {
        let rows = fig6_battery(seed_for(panel), shots, fig6_jitter(), 0);
        let expected = fig6_expected_failing();
        for row in &rows {
            let (_, fail4) = row.verdicts();
            assert_eq!(
                fail4,
                expected.contains(&row.class),
                "panel {panel}: 4-MS verdict of {} (fid {:.3}) wrong",
                row.class,
                row.fid4
            );
        }
        let worst_healthy_2ms = rows
            .iter()
            .filter(|r| !expected.contains(&r.class))
            .map(|r| r.fid2)
            .fold(f64::INFINITY, f64::min);
        for row in rows.iter().filter(|r| expected.contains(&r.class)) {
            assert!(
                row.fid2 < worst_healthy_2ms,
                "panel {panel}: faulty {} at 2-MS ({:.3}) must undercut every healthy test \
                 ({worst_healthy_2ms:.3})",
                row.class,
                row.fid2
            );
        }
    }
}

// ---------------------------------------------------------------------
// Fig. 7 — natural miscalibrations after idling.
// ---------------------------------------------------------------------

#[test]
fn fig7_single_day_recovers_all_three_outliers() {
    // The paper's observed day: {3,4}, {2,5}, {5,7} drift out of the
    // ±6 % band and all three are recovered — including the two
    // bit-complementary pairs the first round cannot see. Deterministic
    // at the binary's seeds (300-shot streams included).
    let mut trap = fig7_trap(seed_for("fig7"), seed_for("fig7/ambient"));
    let report = fig7_diagnose(&mut trap);
    assert!(report.converged, "{report:?}");
    assert_eq!(report.couplings(), fig7_expected());
}

#[test]
fn fig7_recovery_rate_over_redrawn_drifts() {
    // EXPERIMENTS.md pins 79.2 % over the binary's 24 re-drawn ambient
    // drifts. The binomial 95 % half-width at p ≈ 0.79, n = 24 is
    // ≈ 16 points; the floor sits one half-width under the pinned
    // value. (The paper reports its single day qualitatively.)
    let rate = fig7_recovery_rate(24, 0, seed_for("fig7/mc"));
    assert!(rate >= 0.62, "fig7 recovery rate {rate:.3} under the pinned 79.2 % − CI half-width");
}

// ---------------------------------------------------------------------
// Fig. 10 — speed-up over point checks (deterministic cost model).
// ---------------------------------------------------------------------

#[test]
fn fig10_speedup_reference_points_match_paper() {
    let rows = fig10_rows(0);
    let at = |n: usize| rows.iter().find(|r| r.qubits == n).expect("size in sweep");
    // Paper: an 11-qubit machine takes "over a minute" to characterise
    // by point checks and ~10 s to diagnose non-adaptively.
    assert!(
        (60.0..600.0).contains(&at(11).point_check_s),
        "11-qubit point check {:.1} s must be minutes-scale",
        at(11).point_check_s
    );
    assert!(
        (5.0..20.0).contains(&at(11).non_adaptive_s),
        "11-qubit non-adaptive diagnosis {:.1} s must be ~10 s",
        at(11).non_adaptive_s
    );
    // Paper: the adaptive speed-up plateaus near 10³ (compile-bound)…
    assert!(
        (500.0..2000.0).contains(&at(4096).speedup_adaptive),
        "adaptive speed-up {:.0} must plateau near 10^3",
        at(4096).speedup_adaptive
    );
    assert!(
        at(4096).speedup_adaptive / at(1024).speedup_adaptive < 1.1,
        "the adaptive curve must be flat between N = 1024 and N = 4096"
    );
    // …while the non-adaptive speed-up keeps growing like N²/log N.
    let measured = at(1024).speedup_non_adaptive / at(256).speedup_non_adaptive;
    let predicted = (1024.0f64 * 1024.0 / 10.0) / (256.0 * 256.0 / 8.0);
    assert!(
        (measured / predicted - 1.0).abs() < 0.15,
        "non-adaptive growth x{measured:.1} must track N²/log N (x{predicted:.1})"
    );
}

// ---------------------------------------------------------------------
// Fig. 11 — coupling utilisation of real circuits.
// ---------------------------------------------------------------------

#[test]
fn fig11_suite_average_utilisation_near_one_third() {
    // Paper: real workloads exercise ~1/3 of all C(N,2) couplings on
    // average (the map-around headroom of §VIII). EXPERIMENTS.md pins
    // 35.0 % at the binary's seed; the window spans the paper's
    // qualitative "about a third".
    let rows = fig11_rows(seed_for("fig11"), 0);
    let avg = suite_average_fraction(&rows);
    assert!(
        (0.28..=0.42).contains(&avg),
        "suite-average utilised fraction {avg:.3} far from the paper's ~1/3"
    );
    // Chain-structured circuits bound the low end exactly.
    for row in rows.iter().filter(|r| r.name.starts_with("ghz-")) {
        assert_eq!(row.used, row.qubits - 1, "{} must lower to a CX chain", row.name);
    }
}

// ---------------------------------------------------------------------
// §II-B — randomized benchmarking (extension).
// ---------------------------------------------------------------------

#[test]
fn rb_error_brackets_paper_fidelity_and_grows_with_noise() {
    // Paper: ~99.5 % single-qubit fidelity (error per Clifford 0.005).
    // At the binary's seed the σ = 0.02 row implies ≥ 99.9 % fidelity,
    // and the paper's quoted error sits inside the σ = 0.1 … 0.2 band
    // (EXPERIMENTS.md pins 0.0021 / 0.0086); coherent angle jitter must
    // grow the error monotonically across the three levels.
    let rows = rb_summary(seed_for("rb"), 8, 300, 0);
    assert_eq!(rows.len(), 3);
    assert!(
        rows[0].result.error_per_clifford < 0.002,
        "low-noise error {:.4} must beat the paper's 0.005",
        rows[0].result.error_per_clifford
    );
    assert!(
        rows[1].result.error_per_clifford < 0.005 && 0.005 < rows[2].result.error_per_clifford,
        "the paper's 0.5 % error must sit inside the σ = 0.1 … 0.2 band ({:.4} … {:.4})",
        rows[1].result.error_per_clifford,
        rows[2].result.error_per_clifford
    );
    assert!(
        rows[0].result.error_per_clifford < rows[1].result.error_per_clifford
            && rows[1].result.error_per_clifford < rows[2].result.error_per_clifford,
        "RB error must grow with rotation noise"
    );
}

// ---------------------------------------------------------------------
// Determinism — the parallel trial engine behind every row above.
// ---------------------------------------------------------------------

#[test]
fn par_trials_aggregate_is_byte_identical_across_threads() {
    // The CI shell check diffs full binary stdout at two thread counts;
    // this is the same guarantee as an in-repo test, on the estimators
    // the binaries aggregate — including the extracted library modules
    // (fig6, fig7, fig8/detectability, fig10, fig11, rb). Per-trial
    // seed streams make each trial's RNG independent of the worker that
    // runs it, so every aggregate must be bit-identical — not merely
    // close — at any thread count.
    let runs: Vec<String> = [1usize, 2, 8]
        .into_iter()
        .map(|threads| {
            let mut s = String::new();
            let mut push = |tag: &str, v: f64| s.push_str(&format!("{tag}={};", v.to_bits()));
            let rate = table2_identification_rate(
                8,
                2,
                24,
                threads,
                DecoderPolicy::Ranked,
                seed_for("t2/8/2"),
            );
            push("t2", rate);
            let duty = mean_duty(
                threads,
                2,
                |t| seed_for(&format!("fig2/periodic/trial{t}")),
                |seed| periodic_policy(seed, 5.0),
            );
            for d in duty {
                push("fig2", d);
            }
            for row in fig6_battery(seed_for("A (simulation, exact)"), 64, fig6_jitter(), threads) {
                push("fig6.2", row.fid2);
                push("fig6.4", row.fid4);
            }
            push("fig7", fig7_recovery_rate(2, threads, seed_for("fig7/mc")));
            let t8 = fig8_threshold(
                8,
                2,
                4,
                threads,
                BackendChoice::Auto,
                seed_for("fig8/n=8/r=2/threshold"),
            );
            push("fig8.t", t8);
            for p in fig8_curve(8, 2, t8, 3, threads, BackendChoice::Auto, seed_for("fig8/n=8/r=2"))
                .points
            {
                push("fig8.f", p.faulty_mean);
                push("fig8.h", p.healthy_mean);
                push("fig8.p", p.p_identify);
            }
            for row in fig10_rows(threads) {
                push("fig10", row.speedup_non_adaptive);
            }
            for row in fig11_rows(seed_for("fig11"), threads) {
                push("fig11", row.used as f64);
            }
            for row in rb_summary(seed_for("rb"), 4, 100, threads) {
                push("rb", row.result.decay_p);
            }
            for class in ConfigClass::ALL {
                let adv = adversarial_score(
                    8,
                    class,
                    8,
                    threads,
                    true,
                    seed_for(&format!("fig_adv/n=8/{class}/rotating")),
                );
                push("adv.p", adv.identification);
                push("adv.k", adv.mean_faults);
                push("adv.f", adv.false_accusations as f64);
            }
            s
        })
        .collect();
    for (i, run) in runs.iter().enumerate().skip(1) {
        assert_eq!(
            run,
            &runs[0],
            "aggregated output at threads={} differs from threads=1",
            [1, 2, 8][i]
        );
    }
}
