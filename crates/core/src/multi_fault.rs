//! Multi-fault diagnosis: the Fig. 5 state machine (§V-C).
//!
//! The key principle: *separate faults in time and magnitude before
//! diagnosing them; diagnosed faults are separated by exclusion.* The
//! loop is: canary → pick the gate-repetition count that just trips the
//! full-coupling test (magnitude separation; larger faults trip at lower
//! amplification) → run the single-fault protocol at that amplification →
//! verify → exclude the diagnosed coupling → repeat until the canary
//! passes. Costs: `4k + 1` adaptive rounds for `k` faults (paper §V-C).
//!
//! When faults of equal magnitude collide (conflicting syndromes), the
//! paper's pipeline cannot separate them by magnitude — that residual
//! failure probability is exactly what Table II quantifies. How the loop
//! spends its disambiguation budget on such collisions is governed by
//! [`MultiFaultConfig::decoder`]:
//!
//! * [`DecoderPolicy::Greedy`] — Fig. 5's bare threshold peel
//!   (`retune_and_isolate`-style): retry the single-fault protocol at
//!   thresholds placed in the observed score gaps and take the first
//!   verified isolate.
//! * [`DecoderPolicy::Ranked`] — the cross-round evidence-fusion
//!   decoder (the reproduction default): enumerate candidate covers of
//!   the observed failing set, rank them by the posterior accumulated
//!   over **every** adaptive round's class scores
//!   ([`crate::decoder::CoverPosterior`]), spend
//!   [`MultiFaultConfig::fusion_rounds`] extra rounds gathering fresh
//!   class batteries at other ladder rungs when ambiguous, and accuse
//!   only consensus members (each magnitude-verified). Internally
//!   inconsistent round-1 records (union syndromes no single fault can
//!   produce) route through the same machinery.
//! * [`DecoderPolicy::Interrogate`] — the fused decoder plus
//!   disputed-member interrogation (an extension beyond the paper):
//!   with no consensus after every rung is fused, point-test the
//!   highest-marginal disputed coupling.
//! * [`DecoderPolicy::SetCoverFallback`] — the greedy peel plus the
//!   set-cover + point-verification fallback (an extension beyond the
//!   paper, documented in `DESIGN.md`).

use crate::classes::{first_round_classes, LabelSpace, SubcubeClass};
use crate::decoder::{self, CoverModel, DecoderPolicy, FailingSet};
use crate::executor::TestExecutor;
use crate::single_fault::{Diagnosis, SingleFaultProtocol};
use crate::testplan::{canary_for, canary_rotation, rotation_seed, ScoreMode, TestSpec};
use crate::threshold;
use itqc_circuit::Coupling;
use std::collections::BTreeSet;

/// Configuration of the multi-fault loop.
#[derive(Clone, Debug)]
pub struct MultiFaultConfig {
    /// Ascending even repetition counts tried for magnitude separation.
    pub reps_ladder: Vec<usize>,
    /// Pass/fail fidelity threshold for class and verification tests.
    pub threshold: f64,
    /// Pass/fail threshold for the full-coupling canary test (usually
    /// lower: it accumulates ambient error over every coupling).
    pub canary_threshold: f64,
    /// Shots per test circuit.
    pub shots: usize,
    /// Shots for the cheap canary/magnitude tripwire tests (a coarse
    /// pass/fail needs far fewer shots than a diagnosis test).
    pub canary_shots: usize,
    /// Abort after this many diagnosed faults (sanity bound).
    pub max_faults: usize,
    /// How equal-magnitude syndrome collisions are disambiguated (see
    /// the module docs and [`DecoderPolicy`]).
    pub decoder: DecoderPolicy,
    /// Observation-noise scale of the ranked decoder's posterior — how
    /// far an observed round-1 score may sit from a candidate cover's
    /// predicted score and still count as consistent. Calibrate with
    /// [`crate::threshold::observation_sigma`].
    pub ranked_sigma: f64,
    /// Pass/fail statistic for every test in the pipeline.
    pub score: ScoreMode,
    /// Pass/fail statistic for the full-coupling canary and magnitude
    /// probes. Defaults to [`ScoreMode::WorstQubit`]: a canary spans every
    /// coupling, so its exact-string statistic is both exponentially
    /// fragile and (at 32+ qubits) beyond the exact engine's support.
    pub canary_score: ScoreMode,
    /// Fig. 5's threshold adjustment: on conflicting syndromes, retry the
    /// single-fault protocol with up to this many lowered thresholds
    /// (placed in the gaps of the observed round-1 scores) so that only
    /// the largest fault trips tests. 0 disables.
    pub max_threshold_retunes: usize,
    /// Cross-round evidence-fusion budget of the ranked decoder: when
    /// the fused posterior is still ambiguous, up to this many extra
    /// adaptive rounds re-run the class battery at *another* rung of
    /// the repetition ladder and accumulate the fresh per-class scores
    /// into the cover posterior ([`crate::decoder::CoverPosterior`]) —
    /// round 2 narrows the cover set with its own evidence instead of
    /// re-ranking round-1 scores. 0 restores the PR 3 re-ranking-only
    /// behaviour. Each fusion round costs one adaptation plus one class
    /// battery (`2n` tests).
    pub fusion_rounds: usize,
    /// Minimum |under-rotation| that counts as a fault during magnitude
    /// verification of retuned diagnoses (the paper's ~10% recalibration
    /// line in Fig. 7C).
    pub fault_magnitude: f64,
    /// Rotating-canary countermeasure (an extension beyond the paper):
    /// when the fixed full-coupling canary *passes*, run up to this many
    /// seeded random-subset canaries ([`crate::testplan::canary_rotation`]).
    /// An even-degree fault configuration — every qubit touching an even
    /// number of faults, i.e. a cycle union in the coupling graph — passes
    /// the fixed worst-qubit canary at any magnitude, but a rotated subset
    /// intersects it in an odd-degree subgraph with high probability; a
    /// tripped rotation restricts one diagnosis round to the drawn subset,
    /// whose restricted class battery sees the parity broken. 0 (the
    /// paper default) disables rotation entirely: no extra tests, the
    /// Fig. 5 loop is unchanged.
    pub canary_rotations: usize,
    /// Base seed of the rotation subsets (mixed with the outer round and
    /// rotation counters via [`crate::testplan::rotation_seed`]), so the
    /// drawn subsets are deterministic in the configuration alone.
    pub canary_seed: u64,
}

impl MultiFaultConfig {
    /// Paper-flavoured defaults: 2-MS and 4-MS tests, 0.5/0.25 thresholds,
    /// 300 shots, the ranked aliasing decoder.
    pub fn paper_defaults() -> Self {
        MultiFaultConfig {
            reps_ladder: vec![2, 4],
            threshold: 0.5,
            canary_threshold: 0.25,
            shots: 300,
            canary_shots: 30,
            max_faults: 8,
            decoder: DecoderPolicy::Ranked,
            ranked_sigma: threshold::observation_sigma(300, 0.0, 4),
            score: ScoreMode::ExactTarget,
            canary_score: ScoreMode::WorstQubit,
            max_threshold_retunes: 4,
            fusion_rounds: 2,
            fault_magnitude: 0.10,
            canary_rotations: 0,
            canary_seed: 0,
        }
    }
}

/// One diagnosed coupling.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DiagnosedFault {
    /// The coupling found faulty (and verified).
    pub coupling: Coupling,
    /// The repetition count at which it was isolated.
    pub reps: usize,
}

/// Outcome of a full multi-fault diagnosis run.
#[derive(Clone, Debug)]
pub struct MultiFaultReport {
    /// Diagnosed (verified) faults in discovery order.
    pub diagnosed: Vec<DiagnosedFault>,
    /// Total test circuits executed.
    pub tests_run: usize,
    /// Total adaptive rounds consumed.
    pub adaptations: usize,
    /// `true` when the final canary passed (machine clean after
    /// excluding the diagnosed couplings).
    pub converged: bool,
}

impl MultiFaultReport {
    /// Just the coupling list, sorted.
    pub fn couplings(&self) -> Vec<Coupling> {
        let mut out: Vec<Coupling> = self.diagnosed.iter().map(|d| d.coupling).collect();
        out.sort();
        out
    }
}

/// Runs the full Fig. 5 loop.
///
/// # Panics
///
/// Panics if the ladder is empty or contains odd repetition counts.
pub fn diagnose_all<E: TestExecutor>(
    exec: &mut E,
    n_qubits: usize,
    config: &MultiFaultConfig,
) -> MultiFaultReport {
    diagnose_all_excluding(exec, n_qubits, config, &BTreeSet::new())
}

/// [`diagnose_all`] with couplings excluded up front — already-diagnosed
/// (quarantined/mapped-around) or physically unused couplings, per
/// Corollary V.12. Excluded couplings appear in no test and are never
/// accused.
///
/// # Panics
///
/// Panics if the ladder is empty or contains odd repetition counts.
pub fn diagnose_all_excluding<E: TestExecutor>(
    exec: &mut E,
    n_qubits: usize,
    config: &MultiFaultConfig,
    pre_excluded: &BTreeSet<Coupling>,
) -> MultiFaultReport {
    assert!(!config.reps_ladder.is_empty(), "need at least one repetition count");
    assert!(
        config.reps_ladder.iter().all(|r| r % 2 == 0 && *r >= 2),
        "repetition counts must be even"
    );
    let space = LabelSpace::new(n_qubits);
    let mut excluded: BTreeSet<Coupling> = pre_excluded.clone();
    let mut diagnosed: Vec<DiagnosedFault> = Vec::new();
    let mut tests_run = 0usize;
    let mut adaptations = 0usize;
    let max_reps = *config.reps_ladder.last().unwrap();
    let mut converged = false;
    let mut outer_round = 0u64;

    'outer: while diagnosed.len() <= config.max_faults {
        // Canary: every relevant coupling at maximal amplification.
        let relevant: Vec<Coupling> =
            space.all_couplings().into_iter().filter(|c| !excluded.contains(c)).collect();
        if relevant.is_empty() {
            converged = true;
            break;
        }
        outer_round += 1;
        let canary = canary_for(&relevant, max_reps, config.canary_score);
        tests_run += 1;
        let f = exec.run_test(&canary, config.canary_shots);
        // The round's working sets: a tripped rotation below restricts
        // both to the drawn subset for this round only.
        let mut round_relevant = relevant.clone();
        let mut round_excluded = excluded.clone();
        if f >= config.canary_threshold {
            // The fixed canary is clean — but an even-degree fault
            // configuration (a cycle union in the coupling graph) looks
            // exactly like clean to it at any magnitude. Rotate: seeded
            // random-subset canaries whose intersection with any fixed
            // parity class has odd degree with high probability.
            let mut tripped = None;
            for rot in 0..config.canary_rotations {
                let seed = rotation_seed(config.canary_seed, outer_round, rot as u64);
                let Some((spec, subset)) = canary_rotation(
                    format!("canary rotation {rot}"),
                    &relevant,
                    max_reps,
                    config.canary_score,
                    seed,
                ) else {
                    continue; // trivial draw: no parity information
                };
                tests_run += 1;
                if exec.run_test(&spec, config.canary_shots) < config.canary_threshold {
                    tripped = Some(subset);
                    break;
                }
            }
            match tripped {
                None => {
                    converged = true;
                    break;
                }
                Some(subset) => {
                    // Diagnose within the tripped subset: the restricted
                    // class battery sees the broken parity. Diagnosed
                    // couplings still join the *real* exclusion set, so
                    // the next outer round re-canaries the full residue
                    // (whose degrees are now odd).
                    round_excluded.extend(relevant.iter().filter(|c| !subset.contains(c)));
                    round_relevant = subset;
                }
            }
        }

        // Magnitude separation: smallest amplification that still trips
        // the full-coupling test (the biggest fault dominates there).
        adaptations += 1;
        exec.note_adaptation(round_relevant.len());
        let mut start_idx = config.reps_ladder.len() - 1;
        for (idx, &r) in config.reps_ladder.iter().enumerate() {
            if r == max_reps {
                break; // canary already told us it fails at max_reps
            }
            let probe = TestSpec::for_couplings(format!("magnitude x{r}MS"), &round_relevant, r)
                .with_score(config.canary_score);
            tests_run += 1;
            if exec.run_test(&probe, config.canary_shots) < config.canary_threshold {
                start_idx = idx;
                break;
            }
        }

        // Single-fault diagnosis, escalating amplification if nothing is
        // pinned down at the separation level.
        let mut progressed = false;
        for &reps in &config.reps_ladder[start_idx..] {
            let protocol = SingleFaultProtocol::new(n_qubits, reps, config.threshold, config.shots)
                .with_score(config.score)
                .exclude(round_excluded.iter().copied());
            let report = protocol.diagnose(exec);
            tests_run += report.tests_run();
            adaptations += report.adaptations;
            match report.diagnosis {
                Diagnosis::Fault(coupling) => {
                    diagnosed.push(DiagnosedFault { coupling, reps });
                    excluded.insert(coupling);
                    // Restart with the updated exclusion set (one more
                    // adaptive round: reconfigure the relevant set).
                    adaptations += 1;
                    exec.note_adaptation(1);
                    progressed = true;
                    break;
                }
                Diagnosis::MultipleFaultsSuspected => {
                    // Fig. 5: "reduce gate repetitions … the threshold is
                    // adjusted accordingly to maximise the fault vs
                    // no-fault contrast." The decoder policy decides how
                    // that adjustment budget is spent: greedy peel of the
                    // score gaps, or likelihood-ranked disambiguation.
                    let mut isolated = None;
                    if config.max_threshold_retunes > 0 {
                        if config.decoder.uses_ranked_fusion() {
                            // Score-ranked disambiguation first: accuse
                            // only what the cover posterior decisively
                            // implicates, at no extra class-test cost.
                            isolated = ranked_isolate(
                                exec,
                                &space,
                                &round_excluded,
                                config,
                                reps,
                                &report,
                                decoder::COVER_TIE_MARGIN,
                                &mut tests_run,
                                &mut adaptations,
                            );
                        }
                        if isolated.is_none() {
                            // Fig. 5's threshold peel: re-run the
                            // single-fault protocol at gap thresholds
                            // (its adaptive round 2 gathers evidence the
                            // round-1 scores alone do not carry).
                            isolated = retune_and_isolate(
                                exec,
                                n_qubits,
                                &round_excluded,
                                config,
                                reps,
                                &report,
                                &mut tests_run,
                                &mut adaptations,
                            );
                        }
                    }
                    if let Some(c) = isolated {
                        diagnosed.push(DiagnosedFault { coupling: c, reps });
                        excluded.insert(c);
                        adaptations += 1;
                        exec.note_adaptation(1);
                        progressed = true;
                        break;
                    }
                    if config.decoder == DecoderPolicy::SetCoverFallback {
                        let confirmed = cover_fallback(
                            exec,
                            &space,
                            &round_excluded,
                            config,
                            reps,
                            &mut tests_run,
                            &mut adaptations,
                        );
                        if !confirmed.is_empty() {
                            for c in confirmed {
                                diagnosed.push(DiagnosedFault { coupling: c, reps });
                                excluded.insert(c);
                            }
                            progressed = true;
                            break;
                        }
                    }
                    // Equal-magnitude collision the pipeline cannot split.
                    break 'outer;
                }
                Diagnosis::Inconclusive
                    if config.decoder.uses_ranked_fusion() && config.max_threshold_retunes > 0 =>
                {
                    // An internally inconsistent record — e.g. a union
                    // syndrome longer than any single fault can produce,
                    // which never trips the bit-conflict detector. This
                    // is *the* dominant 3-fault signature (three
                    // syndromes can union without colliding), so the
                    // evidence-fusion decoder gets the round-1 scores
                    // here too: candidate covers of the failing set are
                    // ranked by the fused posterior and the consensus
                    // member is accused and magnitude-verified exactly
                    // as on a conflict. Shadowed members of the true
                    // fault set surface on later sequential passes once
                    // the accused coupling is excluded.
                    let isolated = ranked_isolate(
                        exec,
                        &space,
                        &round_excluded,
                        config,
                        reps,
                        &report,
                        INCONSISTENT_TIE_MARGIN,
                        &mut tests_run,
                        &mut adaptations,
                    );
                    if let Some(c) = isolated {
                        diagnosed.push(DiagnosedFault { coupling: c, reps });
                        excluded.insert(c);
                        adaptations += 1;
                        exec.note_adaptation(1);
                        progressed = true;
                        break;
                    }
                    // Nothing decisively implicated: escalate the
                    // amplification like any other inconclusive round.
                }
                Diagnosis::NoFault | Diagnosis::Inconclusive => {
                    // Not visible at this amplification; escalate.
                }
            }
        }
        if !progressed {
            break;
        }
    }

    // Per-diagnosis outcome counters: a trial's diagnosis is a pure
    // function of its executor and seeds, so these totals are
    // partition-invariant and belong to the deterministic snapshot.
    if itqc_obs::enabled() {
        use itqc_obs::event;
        event::add("core.decoder.diagnoses", 1);
        event::add("core.decoder.tests_run", tests_run as u64);
        event::add("core.decoder.adaptive_rounds", adaptations as u64);
        event::add("core.decoder.faults_found", diagnosed.len() as u64);
        event::add(
            if converged { "core.decoder.converged" } else { "core.decoder.unconverged" },
            1,
        );
    }
    MultiFaultReport { diagnosed, tests_run, adaptations, converged }
}

/// Estimates the under-rotation magnitude of one coupling from a point
/// test and checks it against the configured fault line. A point test at
/// `r` repetitions scores `(1 + cos(r·u·π/2))/2`; inverted, that gives
/// `|û|`. Verification is capped at 4 repetitions so `|u| ≤ 0.5` stays on
/// the principal branch (no accidental-cancellation aliasing —
/// footnote 8's concern).
fn magnitude_verify<E: TestExecutor>(
    exec: &mut E,
    coupling: Coupling,
    reps: usize,
    config: &MultiFaultConfig,
    tests_run: &mut usize,
) -> bool {
    let verify_reps = reps.clamp(2, 4);
    let spec =
        TestSpec::for_couplings(format!("magnitude verify {coupling}"), &[coupling], verify_reps)
            .with_score(config.score);
    *tests_run += 1;
    let s = exec.run_test(&spec, config.shots).clamp(0.0, 1.0);
    let dev = (2.0 * s - 1.0).clamp(-1.0, 1.0).acos();
    let u_est = dev / (verify_reps as f64 * std::f64::consts::FRAC_PI_2);
    u_est.abs() >= config.fault_magnitude
}

/// Fig. 5's threshold-adjustment loop: take the conflicted first round's
/// observed scores, place candidate thresholds in the gaps between the
/// lowest scores (ascending), and re-run the single-fault protocol at each
/// until one isolates a coupling whose magnitude verification confirms a
/// real outlier.
#[allow(clippy::too_many_arguments)]
fn retune_and_isolate<E: TestExecutor>(
    exec: &mut E,
    n_qubits: usize,
    excluded: &BTreeSet<Coupling>,
    config: &MultiFaultConfig,
    reps: usize,
    conflicted: &crate::single_fault::DiagnosisReport,
    tests_run: &mut usize,
    adaptations: &mut usize,
) -> Option<Coupling> {
    let scores: Vec<f64> = conflicted.tests.iter().map(|t| t.fidelity).collect();
    let candidates =
        threshold::gap_thresholds(&scores, config.threshold, config.max_threshold_retunes);
    for t in candidates {
        *adaptations += 1;
        exec.note_adaptation(0);
        let protocol = SingleFaultProtocol::new(n_qubits, reps, t, config.shots)
            .with_score(config.score)
            .exclude(excluded.iter().copied());
        let report = protocol.diagnose(exec);
        *tests_run += report.tests_run();
        *adaptations += report.adaptations;
        let candidate = match report.diagnosis {
            Diagnosis::Fault(c) => Some(c),
            Diagnosis::Inconclusive | Diagnosis::NoFault => report.candidate,
            Diagnosis::MultipleFaultsSuspected => None,
        };
        if let Some(c) = candidate {
            if magnitude_verify(exec, c, reps, config, tests_run) {
                return Some(c);
            }
        }
    }
    None
}

/// How many candidate covers the ranked decoder scores per round.
const RANKED_COVER_CAP: usize = 96;

/// Consensus tie margin for internally *inconsistent* (non-conflicting)
/// first rounds: wider than [`decoder::COVER_TIE_MARGIN`] because such
/// records lack the corroborating bit-conflict, so an accusation must
/// hold across a broader band of near-optimal explanations — but kept
/// strictly inside one [`decoder::COVER_LOG_FAULT_PRIOR`] unit (2.0),
/// otherwise every equal-likelihood cover one member larger would join
/// the tie set by prior alone and veto consensus permanently.
const INCONSISTENT_TIE_MARGIN: f64 = 1.5;

/// The likelihood-ranked disambiguation loop (`DecoderPolicy::Ranked`):
/// the replacement for the greedy equal-magnitude peel, upgraded to
/// **cross-round evidence fusion**.
///
/// The conflicted first round already carries the full analog score of
/// every class test — far more information than the pass/fail pattern
/// the greedy peel consumes — and every later adaptive round adds more.
/// Each round:
///
/// 1. re-calibrates the pass/fail threshold (round 0 uses the configured
///    threshold; later rounds walk the gaps of the observed score
///    distribution, [`threshold::gap_thresholds`]),
/// 2. enumerates candidate covers of the resulting failing set up to the
///    fault budget ([`decoder::covers_up_to`]),
/// 3. ranks them by the **fused** posterior over every observed round
///    ([`decoder::CoverPosterior`]): per-round log-likelihoods sum at
///    each point of a joint magnitude profile, so covers predicting the
///    wrong per-class fault multiplicities — at *any* observed
///    amplification — are pushed down even when their round-1 pass/fail
///    pattern matches exactly,
/// 4. accuses the posterior-marginal-best coupling and point-verifies
///    its magnitude.
///
/// When the fused posterior is still ambiguous (no consensus member),
/// up to [`MultiFaultConfig::fusion_rounds`] extra adaptive rounds
/// re-run the class battery at another rung of the repetition ladder
/// and accumulate the fresh scores into the posterior — each with its
/// own re-calibrated cut ([`threshold::contrast_threshold`]) that
/// eliminates covers the new evidence decisively contradicts. Only
/// after the fusion budget is spent does the loop fall back to
/// re-interpreting round-1 scores at gap thresholds (PR 3's walk).
///
/// A verified accusation is returned for exclusion (the sequential loop
/// then re-diagnoses the remainder); a refuted one is vetoed from later
/// rounds' candidate pools.
#[allow(clippy::too_many_arguments)]
fn ranked_isolate<E: TestExecutor>(
    exec: &mut E,
    space: &LabelSpace,
    excluded: &BTreeSet<Coupling>,
    config: &MultiFaultConfig,
    reps: usize,
    conflicted: &crate::single_fault::DiagnosisReport,
    tie_margin: f64,
    tests_run: &mut usize,
    adaptations: &mut usize,
) -> Option<Coupling> {
    let classes = first_round_classes(space);
    if conflicted.tests.len() < classes.len() {
        return None; // not a round-1 conflict record
    }
    let observed: Vec<(SubcubeClass, f64)> =
        classes.iter().copied().zip(conflicted.tests.iter().map(|t| t.fidelity)).collect();
    let scores: Vec<f64> = observed.iter().map(|&(_, s)| s).collect();
    let mut posterior = decoder::CoverPosterior::new();
    posterior.observe(observed.clone(), CoverModel::new(reps, config.score, config.ranked_sigma));

    // Round thresholds: the configured one first, then the score gaps.
    let mut thresholds = vec![config.threshold];
    thresholds.extend(threshold::gap_thresholds(
        &scores,
        config.threshold,
        config.max_threshold_retunes,
    ));

    // Fresh-evidence rungs: the ladder's other repetition counts, each
    // probed at most once — re-probing a rung the posterior has already
    // absorbed adds no information on a deterministic score model. Only
    // the *spendable* fusion budget extends the round count; a ladder
    // with no other rungs keeps the plain retune budget.
    let probe_rungs: Vec<usize> =
        config.reps_ladder.iter().copied().filter(|&r| r != reps).collect();
    let fusion_budget = config.fusion_rounds.min(probe_rungs.len());
    let mut fusion_left = fusion_budget;
    let mut probe_idx = 0usize;

    // The interrogation extension resolves tied covers by successive
    // point tests: each refuted accusation vetoes one disputed member
    // and the covers re-rank, so the budget must admit several vetoes
    // before the true member is reached (a tie family of k members
    // needs up to k−1 eliminations). Cheap: each round costs one point
    // test.
    let tie_break_budget =
        if config.decoder == DecoderPolicy::Interrogate { config.max_faults.min(4) } else { 0 };
    let mut vetoed: BTreeSet<Coupling> = BTreeSet::new();
    let mut t_idx = 0usize;
    for _round in 0..config.max_threshold_retunes + fusion_budget + tie_break_budget {
        let t = thresholds[t_idx.min(thresholds.len() - 1)];
        let failing: FailingSet = observed
            .iter()
            .filter(|&&(_, s)| s < t)
            .map(|&(class, _)| (class.bit, class.value))
            .collect();
        if failing.is_empty() {
            t_idx += 1;
            if t_idx >= thresholds.len() {
                return None; // walk saturated: further rounds are identical
            }
            continue;
        }
        let mut barred = excluded.clone();
        barred.extend(vetoed.iter().copied());
        let covers = decoder::covers_up_to(
            &failing,
            space,
            &barred,
            config.max_faults.max(1),
            RANKED_COVER_CAP,
        );
        let ranked = posterior.rank(&covers);
        let accused = match decoder::consensus_accusation_within(&ranked, tie_margin) {
            Some(c) => Some(c),
            None if fusion_left > 0 => {
                // Ambiguous under all evidence so far: spend a fusion
                // round — re-run the class battery at the next unprobed
                // ladder rung and fuse its scores into the posterior,
                // with the round's own re-calibrated cut.
                let probe_reps = probe_rungs[probe_idx];
                probe_idx += 1;
                fusion_left -= 1;
                let u_hat = ranked
                    .first()
                    .map(|rc| rc.magnitude)
                    .unwrap_or_else(|| config.fault_magnitude.max(0.25));
                fuse_class_round(
                    exec,
                    space,
                    excluded,
                    config,
                    reps,
                    probe_reps,
                    u_hat,
                    &classes,
                    &mut posterior,
                    tests_run,
                    adaptations,
                );
                continue; // same threshold, fused evidence
            }
            None if config.decoder == DecoderPolicy::Interrogate => {
                // Every rung has been fused and the surviving covers
                // still disagree. The paper's pipeline stops here (the
                // Table II failure residue); the interrogation extension
                // instead point-tests the *disputed* member — in some
                // but not all near-optimal covers — that the fused
                // marginal weights highest. A faulty outcome is a
                // diagnosis; a healthy one vetoes the member and every
                // cover containing it, collapsing the tie family one
                // point test at a time (genuinely tied disjoint covers
                // share no member, so consensus alone abstains forever).
                // Only a fully empty candidate set falls through to the
                // gap walk.
                decoder::disputed_members(&ranked, tie_margin)
                    .into_iter()
                    .next()
                    .or_else(|| decoder::marginal_accusation(&ranked))
            }
            None => None,
        };
        let Some(accused) = accused else {
            // No candidate left at this cut: re-calibrate into the next
            // score gap and re-interpret the round-1 failing set.
            t_idx += 1;
            if t_idx >= thresholds.len() {
                return None; // walk saturated: further rounds are identical
            }
            continue;
        };
        *adaptations += 1;
        exec.note_adaptation(0);
        if magnitude_verify(exec, accused, reps, config, tests_run) {
            return Some(accused);
        }
        // A refuted accusation stays at this threshold: the vetoed
        // coupling leaves the candidate pool and the covers re-rank.
        vetoed.insert(accused);
    }
    None
}

/// One cross-round evidence-fusion round: runs the full first-round
/// class battery at `probe_reps` repetitions and accumulates the analog
/// scores into the cover posterior, with the round's pass/fail cut
/// re-calibrated to the fitted magnitude `u_hat`
/// ([`threshold::contrast_threshold`]) and its noise width rescaled to
/// the rung ([`threshold::rescale_sigma`]). Costs one adaptation plus
/// one class battery.
#[allow(clippy::too_many_arguments)]
fn fuse_class_round<E: TestExecutor>(
    exec: &mut E,
    space: &LabelSpace,
    excluded: &BTreeSet<Coupling>,
    config: &MultiFaultConfig,
    from_reps: usize,
    probe_reps: usize,
    u_hat: f64,
    classes: &[SubcubeClass],
    posterior: &mut decoder::CoverPosterior,
    tests_run: &mut usize,
    adaptations: &mut usize,
) {
    *adaptations += 1;
    let compiled: usize = classes.iter().map(|c| c.couplings(space, excluded).len()).sum();
    exec.note_adaptation(compiled);
    let fresh: Vec<(SubcubeClass, f64)> = classes
        .iter()
        .map(|&class| {
            let couplings = class.couplings(space, excluded);
            if couplings.is_empty() {
                return (class, 1.0); // nothing under test: trivially clean
            }
            let spec = TestSpec::for_couplings(
                format!("fusion {class} x{probe_reps}MS"),
                &couplings,
                probe_reps,
            )
            .with_score(config.score);
            *tests_run += 1;
            (class, exec.run_test(&spec, config.shots))
        })
        .collect();
    let sigma = threshold::rescale_sigma(config.ranked_sigma, from_reps, probe_reps);
    posterior.observe_round(decoder::EvidenceRound {
        observed: fresh,
        model: CoverModel::new(probe_reps, config.score, sigma),
        veto_threshold: Some(threshold::contrast_threshold(u_hat, probe_reps)),
    });
}

/// Extension path: on conflicting syndromes, re-observe the first-round
/// failing set, enumerate minimal set-cover explanations, and point-test
/// every implicated coupling individually. Returns verified faults.
fn cover_fallback<E: TestExecutor>(
    exec: &mut E,
    space: &LabelSpace,
    excluded: &BTreeSet<Coupling>,
    config: &MultiFaultConfig,
    reps: usize,
    tests_run: &mut usize,
    adaptations: &mut usize,
) -> Vec<Coupling> {
    // Re-observe round 1 as a failing set.
    let mut failing: FailingSet = FailingSet::new();
    for class in first_round_classes(space) {
        let couplings = class.couplings(space, excluded);
        if couplings.is_empty() {
            continue;
        }
        let spec = TestSpec::for_couplings(format!("fallback round1 {class}"), &couplings, reps)
            .with_score(config.score);
        *tests_run += 1;
        if exec.run_test(&spec, config.shots) < config.threshold {
            failing.insert((class.bit, class.value));
        }
    }
    *adaptations += 1;
    exec.note_adaptation(0);
    // Candidates implicated by any minimal explanation.
    let covers = decoder::minimal_covers(&failing, space, excluded, config.max_faults, 8);
    let mut implicated: BTreeSet<Coupling> = covers.into_iter().flatten().collect();
    // Complementary pairs are invisible to round 1; point-testing them all
    // would defeat the log-test budget, so only syndrome-bearing
    // candidates are checked here.
    let mut confirmed = Vec::new();
    while let Some(c) = implicated.pop_first() {
        let spec = TestSpec::for_couplings(format!("fallback verify {c}"), &[c], reps)
            .with_score(config.score);
        *tests_run += 1;
        if exec.run_test(&spec, config.shots) < config.threshold {
            confirmed.push(c);
        }
    }
    confirmed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::ExactExecutor;

    fn config() -> MultiFaultConfig {
        MultiFaultConfig {
            reps_ladder: vec![2, 4],
            threshold: 0.5,
            canary_threshold: 0.5,
            shots: 1,
            canary_shots: 1,
            max_faults: 6,
            decoder: DecoderPolicy::Greedy,
            ranked_sigma: crate::threshold::MODEL_ERROR_FLOOR,
            score: ScoreMode::ExactTarget,
            canary_score: ScoreMode::ExactTarget,
            max_threshold_retunes: 0,
            fusion_rounds: 0,
            fault_magnitude: 0.10,
            canary_rotations: 0,
            canary_seed: 0,
        }
    }

    #[test]
    fn clean_machine_converges_immediately() {
        let mut exec = ExactExecutor::new(8);
        let report = diagnose_all(&mut exec, 8, &config());
        assert!(report.converged);
        assert!(report.diagnosed.is_empty());
        assert_eq!(report.tests_run, 1, "one canary only");
    }

    #[test]
    fn single_fault_end_to_end() {
        let truth = Coupling::new(2, 6);
        let mut exec = ExactExecutor::new(8).with_fault(truth, 0.35);
        let report = diagnose_all(&mut exec, 8, &config());
        assert!(report.converged);
        assert_eq!(report.couplings(), vec![truth]);
        // Cost model: ~4k+1 adaptations for k faults (§V-C).
        assert!(
            report.adaptations <= 4 + 2,
            "adaptations {} exceed the 4k+1 budget (+slack)",
            report.adaptations
        );
    }

    #[test]
    fn two_faults_of_different_magnitude_are_peeled() {
        // A big fault and a small one: magnitude separation isolates the
        // big one at low amplification, the small one after exclusion.
        let big = Coupling::new(0, 4);
        let small = Coupling::new(2, 5);
        let mut exec = ExactExecutor::new(8).with_fault(big, 0.45).with_fault(small, 0.16);
        let mut cfg = config();
        cfg.reps_ladder = vec![2, 4, 8];
        let report = diagnose_all(&mut exec, 8, &cfg);
        assert!(report.converged, "did not converge: {report:?}");
        assert_eq!(report.couplings(), vec![big, small]);
        assert!(report.adaptations <= 4 * 2 + 2, "adaptations {}", report.adaptations);
    }

    #[test]
    fn three_faults_spread_in_magnitude() {
        let faults =
            [(Coupling::new(0, 7), 0.48), (Coupling::new(1, 3), 0.22), (Coupling::new(4, 6), 0.09)];
        let mut exec = ExactExecutor::new(8).with_faults(faults.iter().map(|&(c, u)| (c, u)));
        let mut cfg = config();
        cfg.reps_ladder = vec![2, 4, 8, 16];
        let report = diagnose_all(&mut exec, 8, &cfg);
        assert!(report.converged, "{report:?}");
        let mut expect: Vec<Coupling> = faults.iter().map(|&(c, _)| c).collect();
        expect.sort();
        assert_eq!(report.couplings(), expect);
    }

    #[test]
    fn equal_magnitude_collision_without_fallback_fails_gracefully() {
        // Conflicting syndromes at equal magnitude: the paper pipeline
        // stops without mis-diagnosing.
        let a = Coupling::new(0, 2); // syndrome (0,0),(2,0)
        let b = Coupling::new(1, 3); // syndrome (0,1),(2,0) → conflict at bit 0
        let mut exec = ExactExecutor::new(8).with_fault(a, 0.3).with_fault(b, 0.3);
        let report = diagnose_all(&mut exec, 8, &config());
        assert!(!report.converged);
        for d in &report.diagnosed {
            assert!(d.coupling == a || d.coupling == b, "no false accusations");
        }
    }

    #[test]
    fn cover_fallback_resolves_equal_magnitude_collision() {
        let a = Coupling::new(0, 2);
        let b = Coupling::new(1, 3);
        let mut exec = ExactExecutor::new(8).with_fault(a, 0.3).with_fault(b, 0.3);
        let mut cfg = config();
        cfg.decoder = DecoderPolicy::SetCoverFallback;
        let report = diagnose_all(&mut exec, 8, &cfg);
        assert!(report.converged, "{report:?}");
        assert_eq!(report.couplings(), vec![a, b]);
    }

    #[test]
    fn ranked_decoder_resolves_equal_magnitude_collision() {
        // The same collision, resolved by likelihood ranking alone: no
        // exhaustive point verification of every implicated coupling,
        // just score-ranked accusations with per-accusation verification.
        let a = Coupling::new(0, 2);
        let b = Coupling::new(1, 3);
        let mut exec = ExactExecutor::new(8).with_fault(a, 0.3).with_fault(b, 0.3);
        let mut cfg = config();
        cfg.decoder = DecoderPolicy::Ranked;
        cfg.max_threshold_retunes = 4;
        let report = diagnose_all(&mut exec, 8, &cfg);
        assert!(report.converged, "{report:?}");
        assert_eq!(report.couplings(), vec![a, b]);
    }

    #[test]
    fn inconclusive_union_syndrome_is_diagnosed_by_fusion_routing() {
        // Three equal faults sharing qubit 4: the union syndrome
        // (0,0),(1,0),(2,1) has no bit conflict — the single-fault
        // protocol reports Inconclusive, the failure mode that dominated
        // the 3-fault Table II cell before the evidence-fusion decoder
        // was routed these records. PR 3's pipeline abandoned such
        // trials with zero accusations; the fused posterior's consensus
        // must now accuse and verify the member every near-optimal
        // cover shares ({0,4}). The remainder genuinely aliases
        // (several disjoint perfect-fit explanations — the paper's
        // residual failure class), so the paper-faithful policy stops
        // honestly there, while the interrogation extension point-tests
        // the dispute and recovers the full planted set.
        let truth = [Coupling::new(0, 4), Coupling::new(2, 4), Coupling::new(4, 5)];
        let mut expect = truth.to_vec();
        expect.sort();
        let mut cfg = config();
        cfg.max_threshold_retunes = 4;
        cfg.fusion_rounds = 2;

        cfg.decoder = DecoderPolicy::Ranked;
        let mut exec = ExactExecutor::new(8).with_faults(truth.iter().map(|&c| (c, 0.3)));
        let report = diagnose_all(&mut exec, 8, &cfg);
        assert_eq!(
            report.couplings(),
            vec![Coupling::new(0, 4)],
            "consensus must verify the shared member: {report:?}"
        );
        assert!(!report.converged, "the aliased remainder must be reported, not guessed");

        cfg.decoder = DecoderPolicy::Interrogate;
        let mut exec = ExactExecutor::new(8).with_faults(truth.iter().map(|&c| (c, 0.3)));
        let report = diagnose_all(&mut exec, 8, &cfg);
        assert!(report.converged, "{report:?}");
        assert_eq!(report.couplings(), expect);
    }

    #[test]
    fn interrogation_extension_splits_aliasing_family_ranked_cannot() {
        // {2,7} and {4,7} produce a length-2 union aliased against the
        // healthy {6,7} (identical class scores), plus the invisible
        // complementary {1,6}: the paper-faithful ranked policy must
        // stop without a false accusation, while the interrogation
        // extension point-tests the disputed members and recovers the
        // full planted set.
        let truth = [Coupling::new(1, 6), Coupling::new(2, 7), Coupling::new(4, 7)];
        let mut expect = truth.to_vec();
        expect.sort();

        let mut cfg = config();
        cfg.max_threshold_retunes = 4;
        cfg.fusion_rounds = 2;

        cfg.decoder = DecoderPolicy::Ranked;
        let mut exec = ExactExecutor::new(8).with_faults(truth.iter().map(|&c| (c, 0.3)));
        let ranked_report = diagnose_all(&mut exec, 8, &cfg);
        assert_ne!(ranked_report.couplings(), expect, "fixture must actually defeat ranked");
        for d in &ranked_report.diagnosed {
            assert!(truth.contains(&d.coupling), "no false accusations under ranked");
        }

        cfg.decoder = DecoderPolicy::Interrogate;
        let mut exec = ExactExecutor::new(8).with_faults(truth.iter().map(|&c| (c, 0.3)));
        let report = diagnose_all(&mut exec, 8, &cfg);
        assert!(report.converged, "{report:?}");
        assert_eq!(report.couplings(), expect);
    }

    #[test]
    fn ranked_decoder_never_accuses_healthy_couplings() {
        // Every diagnosed coupling under the ranked policy passed a
        // magnitude verification, so even unresolved collisions must not
        // produce false accusations.
        let faults = [Coupling::new(0, 1), Coupling::new(2, 3), Coupling::new(4, 5)];
        let mut exec = ExactExecutor::new(8).with_faults(faults.iter().map(|&c| (c, 0.3)));
        let mut cfg = config();
        cfg.decoder = DecoderPolicy::Ranked;
        cfg.max_threshold_retunes = 4;
        let report = diagnose_all(&mut exec, 8, &cfg);
        for d in &report.diagnosed {
            assert!(faults.contains(&d.coupling), "false accusation {}", d.coupling);
        }
    }

    #[test]
    fn ranked_decoder_matches_greedy_on_spread_magnitudes() {
        // Magnitude-separated workloads never reach the collision path,
        // so ranked and greedy must agree exactly there.
        let big = Coupling::new(0, 4);
        let small = Coupling::new(2, 5);
        for decoder in [DecoderPolicy::Greedy, DecoderPolicy::Ranked] {
            let mut exec = ExactExecutor::new(8).with_fault(big, 0.45).with_fault(small, 0.16);
            let mut cfg = config();
            cfg.reps_ladder = vec![2, 4, 8];
            cfg.decoder = decoder;
            cfg.max_threshold_retunes = 4;
            let report = diagnose_all(&mut exec, 8, &cfg);
            assert!(report.converged, "{decoder}: {report:?}");
            assert_eq!(report.couplings(), vec![big, small], "{decoder}");
        }
    }

    #[test]
    fn even_degree_triangle_is_invisible_to_the_fixed_canary() {
        // The blind spot: every qubit of a fault triangle has degree 2,
        // so the worst-qubit canary agreement is (1 + cos²(r·u·π/2))/2 ≥
        // 1/2 at ANY magnitude — the loop "converges" on a faulty
        // machine without running a single diagnosis.
        let triangle = [Coupling::new(0, 2), Coupling::new(2, 4), Coupling::new(0, 4)];
        let mut cfg = config();
        cfg.canary_score = ScoreMode::WorstQubit;
        let mut exec = ExactExecutor::new(8).with_faults(triangle.iter().map(|&c| (c, 0.3)));
        let report = diagnose_all(&mut exec, 8, &cfg);
        assert!(report.converged, "the fixed canary must (wrongly) report clean");
        assert!(report.diagnosed.is_empty());
        assert_eq!(report.tests_run, 1, "one canary only — the false negative is silent");
    }

    #[test]
    fn rotating_canary_exposes_the_triangle() {
        // The countermeasure: seeded random-subset canaries intersect
        // the triangle in an odd-degree subgraph with probability 3/4
        // per rotation; the tripped subset restricts one diagnosis round,
        // the excluded member breaks the parity, and the ordinary loop
        // finishes the job.
        let triangle = [Coupling::new(0, 2), Coupling::new(2, 4), Coupling::new(0, 4)];
        let mut expect = triangle.to_vec();
        expect.sort();
        let mut cfg = config();
        cfg.canary_score = ScoreMode::WorstQubit;
        cfg.decoder = DecoderPolicy::Ranked;
        cfg.max_threshold_retunes = 4;
        cfg.fusion_rounds = 2;
        cfg.canary_rotations = 4;
        cfg.canary_seed = 11;
        let mut exec = ExactExecutor::new(8).with_faults(triangle.iter().map(|&c| (c, 0.3)));
        let report = diagnose_all(&mut exec, 8, &cfg);
        assert!(report.converged, "{report:?}");
        assert_eq!(report.couplings(), expect);
    }

    #[test]
    fn rotations_add_no_tests_on_a_clean_machine_beyond_the_budget() {
        // A clean machine pays exactly the rotation budget (every subset
        // passes) and still converges with zero accusations.
        let mut cfg = config();
        cfg.canary_rotations = 3;
        cfg.canary_seed = 5;
        let mut exec = ExactExecutor::new(8);
        let report = diagnose_all(&mut exec, 8, &cfg);
        assert!(report.converged);
        assert!(report.diagnosed.is_empty());
        assert!(
            report.tests_run <= 1 + 3,
            "canary + at most three rotations, got {}",
            report.tests_run
        );
    }

    #[test]
    fn zero_rotations_is_byte_identical_to_the_legacy_loop() {
        // canary_rotations = 0 (the paper default) must not change a
        // single executed test: same counts, same outcome.
        let faults = [(Coupling::new(0, 4), 0.42), (Coupling::new(2, 5), 0.16)];
        let mut cfg = config();
        cfg.reps_ladder = vec![2, 4, 8];
        let mut exec = ExactExecutor::new(8).with_faults(faults.iter().copied());
        let legacy = diagnose_all(&mut exec, 8, &cfg);
        cfg.canary_seed = 777; // a seed without rotations is inert
        let mut exec = ExactExecutor::new(8).with_faults(faults.iter().copied());
        let gated = diagnose_all(&mut exec, 8, &cfg);
        assert_eq!(legacy.tests_run, gated.tests_run);
        assert_eq!(legacy.adaptations, gated.adaptations);
        assert_eq!(legacy.couplings(), gated.couplings());
    }

    #[test]
    fn tied_disjoint_covers_interrogated_to_resolution() {
        // The second blind spot: {0,3} (syndrome exactly {(2,0)}) and
        // {4,7} (exactly {(2,1)}) are planted; {1,2} and {5,6} share
        // those syndromes coupling-for-coupling, so all four cross
        // covers predict identical scores at every rung. Ranked must
        // abstain (no common member); Interrogate must point-test the
        // dispute to resolution without a false accusation.
        let truth = [Coupling::new(0, 3), Coupling::new(4, 7)];
        let mut expect = truth.to_vec();
        expect.sort();
        let mut cfg = config();
        cfg.max_threshold_retunes = 4;
        cfg.fusion_rounds = 2;
        cfg.max_faults = 4;

        cfg.decoder = DecoderPolicy::Ranked;
        let mut exec = ExactExecutor::new(8).with_faults(truth.iter().map(|&c| (c, 0.3)));
        let ranked = diagnose_all(&mut exec, 8, &cfg);
        assert!(ranked.diagnosed.is_empty(), "a genuine tie admits no consensus: {ranked:?}");
        assert!(!ranked.converged, "the abstention must be reported");

        cfg.decoder = DecoderPolicy::Interrogate;
        let mut exec = ExactExecutor::new(8).with_faults(truth.iter().map(|&c| (c, 0.3)));
        let report = diagnose_all(&mut exec, 8, &cfg);
        assert!(report.converged, "{report:?}");
        assert_eq!(report.couplings(), expect);
    }

    #[test]
    fn sixteen_qubits_two_faults() {
        let big = Coupling::new(3, 12);
        let small = Coupling::new(0, 9);
        let mut exec = ExactExecutor::new(16).with_fault(big, 0.42).with_fault(small, 0.14);
        let mut cfg = config();
        cfg.reps_ladder = vec![2, 4, 8];
        let report = diagnose_all(&mut exec, 16, &cfg);
        assert!(report.converged, "{report:?}");
        assert_eq!(
            report.couplings(),
            vec![small, big]
                .into_iter()
                .collect::<std::collections::BTreeSet<_>>()
                .into_iter()
                .collect::<Vec<_>>()
        );
    }
}
