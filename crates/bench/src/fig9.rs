//! Fig. 9 — identification probability vs spread of the composite fault
//! law, as reusable estimators on [`mod@crate::par_trials`].
//!
//! Every coupling's under-rotation is drawn from the paper's composite
//! law (uniform within the 6% calibration band + right-Gaussian tail of
//! spread σ, footnote 10); the k largest draws are the machine's faults
//! and the sequential multi-fault pipeline must identify all of them.
//!
//! Each `(σ, k)` sweep point owns a private master seed and every trial
//! within it a [`split_seed`] derivation, so a panel is bit-identical at
//! any `--threads` value — the property the CI determinism job diffs.
//! (The historical `fig9` binary threaded one RNG through a whole panel
//! sequentially, which pinned it to a single core for its 797-second
//! baseline; the re-seeding changes the sampled values once, and the
//! refreshed baseline records the new stream.)

use crate::{par_trials, split_seed, ShotSampled};
use itqc_core::testplan::ScoreMode;
use itqc_core::{diagnose_all, DecoderPolicy, ExactExecutor, LabelSpace, MultiFaultConfig};
use rand::Rng;

/// Shots per test circuit (the paper's hardware budget).
pub const FIG9_SHOTS: usize = 300;

/// Pass/fail statistic of the spread study.
pub const FIG9_SCORE: ScoreMode = ScoreMode::WorstQubit;

/// The calibration band of the composite law: the uniform body lives in
/// `[0, 6%)` and the Gaussian tail starts at the 6% line.
pub const FIG9_BAND: f64 = 0.06;

/// The swept tail spreads of the figure's panels.
pub fn fig9_sigmas() -> Vec<f64> {
    vec![0.02, 0.05, 0.08, 0.11, 0.15, 0.20]
}

/// One trial, following the Fig. 9 caption: k faulty gates draw their
/// under-rotations from the right-Gaussian tail at the 6% line with
/// spread σ, "in the presence of uniformly spread under-rotation up to
/// 6%" on every other coupling. Larger σ separates the faults from the
/// body (and from each other), which is exactly why identification
/// improves with spread. The pipeline must find all k tail faults.
pub fn fig9_trial<R: Rng + ?Sized>(
    n: usize,
    k: usize,
    sigma: f64,
    base_reps: usize,
    threshold: f64,
    decoder: DecoderPolicy,
    rng: &mut R,
) -> bool {
    let space = LabelSpace::new(n);
    let all = space.all_couplings();
    // Body: uniform within the calibration band.
    let mut draws: Vec<f64> = all.iter().map(|_| rng.gen_range(0.0..FIG9_BAND)).collect();
    // Tail: k faults at 0.06 + |N(0, σ)| on distinct random couplings.
    let mut chosen = std::collections::BTreeSet::new();
    while chosen.len() < k {
        chosen.insert(rng.gen_range(0..all.len()));
    }
    for &i in &chosen {
        draws[i] = FIG9_BAND + (sigma * itqc_math::rng::standard_normal(rng)).abs();
    }
    let truth: std::collections::BTreeSet<_> = chosen.iter().map(|&i| all[i]).collect();

    let exec = ExactExecutor::new(n).with_faults(all.iter().copied().zip(draws.iter().copied()));
    let mut shot_exec = ShotSampled::new(exec, rng.gen());
    let config = MultiFaultConfig {
        reps_ladder: vec![base_reps, base_reps * 2, base_reps * 4],
        threshold,
        canary_threshold: threshold,
        shots: FIG9_SHOTS,
        canary_shots: FIG9_SHOTS,
        max_faults: k + 2,
        decoder,
        // Shot-sampled scores over a ±6% uniform ambient body.
        ranked_sigma: itqc_core::threshold::observation_sigma(FIG9_SHOTS, 0.03, base_reps),
        score: FIG9_SCORE,
        canary_score: FIG9_SCORE,
        max_threshold_retunes: 4,
        fusion_rounds: 2,
        canary_rotations: 0,
        canary_seed: 0,
    };
    let report = diagnose_all(&mut shot_exec, n, &config);
    let found: std::collections::BTreeSet<_> = report.couplings().into_iter().collect();
    truth.is_subset(&found)
}

/// One sweep row of a Fig. 9 panel.
#[derive(Clone, Debug)]
pub struct Fig9Row {
    /// Tail spread σ of the composite law.
    pub sigma: f64,
    /// `P(identify all k faults)` for k = 1, 2, 3 (index k − 1).
    pub p_identify: Vec<f64>,
}

/// A full Fig. 9 panel for one (machine size, base depth).
#[derive(Clone, Debug)]
pub struct Fig9Panel {
    /// Register size.
    pub n_qubits: usize,
    /// MS gates per coupling on the first rung.
    pub reps: usize,
    /// The calibrated pass/fail threshold used by every trial.
    pub threshold: f64,
    /// One row per swept σ, ascending.
    pub rows: Vec<Fig9Row>,
}

/// Measures one Fig. 9 panel: `trials` composite-law machines per
/// `(σ, k)` sweep point on up to `threads` workers. Bit-identical at
/// any thread count (each point derives a private seed per trial).
pub fn fig9_panel(
    n_qubits: usize,
    reps: usize,
    threshold: f64,
    trials: usize,
    threads: usize,
    decoder: DecoderPolicy,
    seed: u64,
) -> Fig9Panel {
    let rows = fig9_sigmas()
        .into_iter()
        .enumerate()
        .map(|(si, sigma)| {
            let p_identify = (1..=3usize)
                .map(|k| {
                    let master = split_seed(seed, si * 4 + k);
                    let ok = par_trials(
                        threads,
                        trials,
                        |t| split_seed(master, t),
                        |_, rng| fig9_trial(n_qubits, k, sigma, reps, threshold, decoder, rng),
                    );
                    ok.iter().filter(|&&hit| hit).count() as f64 / trials.max(1) as f64
                })
                .collect();
            Fig9Row { sigma, p_identify }
        })
        .collect();
    Fig9Panel { n_qubits, reps, threshold, rows }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn panel_is_thread_invariant() {
        let run = |threads| fig9_panel(8, 2, 0.62, 4, threads, DecoderPolicy::Ranked, 2025);
        let (a, b) = (run(1), run(8));
        assert_eq!(a.rows.len(), fig9_sigmas().len());
        for (x, y) in a.rows.iter().zip(&b.rows) {
            assert_eq!(x.sigma, y.sigma);
            assert_eq!(x.p_identify, y.p_identify, "sigma {}", x.sigma);
        }
    }

    #[test]
    fn wide_spreads_identify_single_faults_narrow_ones_hide() {
        // The figure's defining shape: at σ = 0.20 a single tail fault
        // sits far above the 6% body (the panel's measured rate is
        // ~0.80), while at σ = 0.02 it hides inside the calibration
        // band (~0.07).
        let threshold = crate::ambient::calibrate_threshold_uniform_par(
            0, 8, 2, FIG9_BAND, FIG9_SCORE, FIG9_SHOTS, 0.005, 30, 11,
        );
        let hits_at = |sigma: f64, master: u64| {
            par_trials(
                0,
                12,
                |t| split_seed(master, t),
                |_, rng| fig9_trial(8, 1, sigma, 2, threshold, DecoderPolicy::Ranked, rng),
            )
            .iter()
            .filter(|&&h| h)
            .count()
        };
        let wide = hits_at(0.20, 909);
        let narrow = hits_at(0.02, 909);
        assert!(wide >= 7, "only {wide}/12 wide-spread single faults identified");
        assert!(narrow <= 4, "{narrow}/12 in-band faults identified — band faults must hide");
        assert!(wide > narrow, "identification must improve with spread ({narrow} → {wide})");
    }
}
