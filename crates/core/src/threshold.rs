//! Pass/fail threshold calibration helpers.
//!
//! The paper sets test thresholds empirically (0.45/0.25 in Fig. 6,
//! 0.38/0.46 in Fig. 7) and notes the threshold "is adjusted … to maximise
//! the fault vs no-fault contrast" (Fig. 5). The Monte-Carlo calibrators
//! (a low quantile of fault-free class-test scores under the ambient
//! calibration spread) live in `itqc_bench::ambient`; this module holds
//! the pieces the protocols share: shot-grid snapping, the decoder's
//! observation noise, and the per-round contrast re-calibration.

/// Snaps a calibrated threshold down onto the `shots`-shot score grid.
///
/// Sampled scores are counts over `shots`, so they only take values
/// `k/shots` — but a quantile interpolated from calibration samples
/// lands *between* grid levels. A threshold strictly inside the band
/// above level `k/shots` fails every future healthy test that scores
/// exactly `k/shots`, even though the calibration itself observed
/// healthy scores at that level: the false-fail rate quietly multiplies
/// (measured ~5× the calibrated quantile on the 32-qubit Fig. 8 panel,
/// where one corrupted syndrome per ~20 trials held the 4-MS knee one
/// miss in 120 short of the paper's 30 % point). Flooring the cut onto
/// the grid makes "score < threshold" pass the boundary level, so the
/// cut separates exactly the levels the calibration distinguished.
/// `shots == 0` (exact scores, no grid) passes through unchanged.
pub fn snap_to_shot_grid(threshold: f64, shots: usize) -> f64 {
    if shots == 0 {
        return threshold;
    }
    (threshold * shots as f64).floor() / shots as f64
}

/// Floor of the ranked decoder's observation noise: the product forward
/// model ([`crate::executor::predicted_class_score`]) truncates the
/// interference of fault *cycles* within one class, so even exact
/// (shot-free, ambient-free) scores deviate from the prediction by up
/// to a few points when three or more faults land in one test.
pub const MODEL_ERROR_FLOOR: f64 = 0.04;

/// The per-test score noise scale the ranked decoder should tolerate:
/// binomial shot noise (worst case `0.5/√shots`; `shots == 0` means an
/// exact oracle), the ambient calibration spread's first-order score
/// shift (`reps·(π/4)·E|u|` per test), and the forward-model truncation
/// floor, combined in quadrature. This is Fig. 5's "threshold is
/// adjusted … to maximise the fault vs no-fault contrast" turned into a
/// calibrated width for the posterior instead of a hand-tuned constant.
pub fn observation_sigma(shots: usize, ambient_mean_abs: f64, reps: usize) -> f64 {
    let shot = if shots == 0 { 0.0 } else { 0.5 / (shots as f64).sqrt() };
    let ambient = reps as f64 * std::f64::consts::FRAC_PI_4 * ambient_mean_abs;
    (shot * shot + ambient * ambient).sqrt().max(MODEL_ERROR_FLOOR)
}

/// Per-round threshold re-calibration for a fused evidence round at
/// `reps` repetitions: the pass/fail cut sits at the midpoint of the
/// fault-vs-healthy contrast interval — between the score a fault of
/// the posterior's fitted magnitude `u_hat` predicts on an isolated
/// point test and the healthy band at 1. This is Fig. 5's "the
/// threshold is adjusted … to maximise the fault vs no-fault contrast"
/// applied per adaptive round, with the contrast centre supplied by the
/// evidence accumulated so far instead of a hand-tuned constant.
pub fn contrast_threshold(u_hat: f64, reps: usize) -> f64 {
    (1.0 + crate::executor::point_test_fidelity(u_hat, reps)) / 2.0
}

/// Per-round observation-noise re-calibration: rescales the round-1
/// noise width `sigma_round1` (calibrated at `from_reps`) to a fused
/// evidence round at `to_reps`. The ambient-calibration component of
/// [`observation_sigma`] grows linearly with amplification while shot
/// noise and the model floor do not, so a linear rescale clamped to the
/// floor is the conservative choice for both directions.
pub fn rescale_sigma(sigma_round1: f64, from_reps: usize, to_reps: usize) -> f64 {
    (sigma_round1 * to_reps as f64 / from_reps.max(1) as f64).max(MODEL_ERROR_FLOOR)
}

/// Candidate re-calibrated thresholds for a disambiguation round:
/// midpoints of the gaps between the distinct observed scores, ascending,
/// keeping only values below `below` and at most `max` of them. This is
/// the per-round threshold adjustment both the greedy peel and the
/// ranked decoder use — each gap separates one more magnitude band of
/// the conflicted score distribution.
pub fn gap_thresholds(scores: &[f64], below: f64, max: usize) -> Vec<f64> {
    let mut s: Vec<f64> = scores.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    s.dedup_by(|a, b| (*a - *b).abs() < 1e-6);
    s.windows(2).map(|w| (w[0] + w[1]) / 2.0).filter(|&t| t < below).take(max).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn contrast_threshold_separates_fault_from_healthy() {
        // The re-calibrated cut must sit strictly between the fault's
        // predicted point score and the healthy band, at every rung.
        for &u in &[0.10, 0.22, 0.30, 0.47] {
            for reps in [2usize, 4, 8] {
                let t = contrast_threshold(u, reps);
                let fault = crate::executor::point_test_fidelity(u, reps);
                assert!(fault < t && t < 1.0, "u={u} reps={reps}: {fault} !< {t} !< 1");
            }
        }
        // Deeper rounds amplify the fault further, so their cut drops.
        assert!(contrast_threshold(0.22, 4) < contrast_threshold(0.22, 2));
    }

    #[test]
    fn snap_to_shot_grid_passes_the_boundary_level() {
        // A cut interpolated strictly inside the band above 157/300
        // must floor onto the level itself, so a sampled score of
        // exactly 157/300 passes the strict `score < threshold` test.
        let interpolated = 0.52599;
        let snapped = snap_to_shot_grid(interpolated, 300);
        assert_eq!(snapped.to_bits(), (157.0f64 / 300.0).to_bits());
        let boundary_score = 157.0f64 / 300.0;
        assert!(boundary_score < interpolated, "the unsnapped cut fails the boundary level");
        assert!(boundary_score >= snapped, "the snapped cut must pass it");
        // A score one shot lower still fails.
        assert!(156.0 / 300.0 < snapped);
        // Already-on-grid thresholds are fixed points; exact scoring
        // (shots == 0) has no grid.
        assert_eq!(snap_to_shot_grid(snapped, 300).to_bits(), snapped.to_bits());
        assert_eq!(snap_to_shot_grid(0.5259, 0), 0.5259);
    }

    #[test]
    fn rescale_sigma_tracks_amplification_with_floor() {
        // Up-amplified rounds widen linearly; down-amplified rounds
        // narrow but never below the forward-model floor.
        assert!((rescale_sigma(0.08, 4, 8) - 0.16).abs() < 1e-12);
        assert_eq!(rescale_sigma(0.04, 4, 2), MODEL_ERROR_FLOOR);
        assert!(rescale_sigma(0.10, 4, 2) >= MODEL_ERROR_FLOOR);
    }
}
