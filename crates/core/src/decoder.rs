//! Multi-fault syndrome analysis: the set-cover decoder.
//!
//! With `k` simultaneous same-magnitude faults, the first round observes
//! the *union* of the individual syndromes (a test fails when it contains
//! at least one faulty coupling). This module quantifies the resulting
//! aliasing — "how syndromes start repeating with the increased number of
//! faults" (§VII) — via exact set cover: find the fault sets whose
//! syndrome union equals the observed failing set, restricted to couplings
//! *consistent* with it (a coupling whose syndrome hits any passing test
//! cannot be faulty).
//!
//! Note the first round alone cannot uniquely identify even a single
//! fault in general: Lemma V.9 gives `2^{n−L−1}` pairs per length-`L`
//! syndrome, and bit-complementary pairs are invisible entirely. The
//! paper's Table II therefore corresponds to the full *adaptive* pipeline
//! (see [`crate::multi_fault`]); this decoder serves three purposes
//! there:
//!
//! * it measures raw round-1 aliasing ([`minimal_covers`],
//!   [`identification_probability`]);
//! * it powers the **cross-round evidence-fusion decoder**
//!   ([`DecoderPolicy::Ranked`], the reproduction default): candidate
//!   covers up to the fault budget ([`covers_up_to`]) are ranked by a
//!   posterior that scores each cover's *predicted analog scores*
//!   against the observed ones — accumulated across every adaptive
//!   round under a joint fault-magnitude profile ([`CoverPosterior`],
//!   single-round convenience [`rank_covers`]). Pass/fail patterns
//!   alias far earlier than the analog score vectors do, because a test
//!   containing two faults sits measurably below one containing one;
//! * as optional extensions beyond the paper (`DESIGN.md`) it proposes
//!   candidate fault sets for targeted disputed-member interrogation
//!   ([`DecoderPolicy::Interrogate`], [`marginal_accusation`]) or
//!   exhaustive point-verification
//!   ([`DecoderPolicy::SetCoverFallback`]).

use crate::classes::{LabelSpace, SubcubeClass};
use crate::executor::{predicted_class_score, ClassScorePredictor};
use crate::syndrome::Syndrome;
use crate::testplan::ScoreMode;
use itqc_circuit::Coupling;
use rand::Rng;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// A failing-test set, as `(bit, value)` pairs.
pub type FailingSet = BTreeSet<(u32, bool)>;

/// How the multi-fault loop disambiguates equal-magnitude syndrome
/// collisions (conflicting round-1 results).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum DecoderPolicy {
    /// Fig. 5's greedy threshold peel: retry the single-fault protocol at
    /// thresholds placed in the gaps of the observed round-1 scores and
    /// accept the first magnitude-verified isolate. Collisions the peel
    /// cannot split are abandoned.
    Greedy,
    /// The cross-round evidence-fusion decoder (this workspace's paper
    /// reproduction default): enumerate candidate covers of the failing
    /// set up to the fault budget and rank them by the posterior
    /// accumulated over every adaptive round's class scores
    /// ([`CoverPosterior`] — per-round log-likelihoods sum under a
    /// joint fault-magnitude profile). Ambiguous rounds gather fresh
    /// class batteries at other ladder rungs, each with a re-calibrated
    /// pass/fail cut; accusations are consensus-gated and
    /// magnitude-verified.
    #[default]
    Ranked,
    /// The fused ranked decoder plus **disputed-member interrogation**
    /// (an extension beyond the paper's pipeline): when the fused
    /// posterior still has no consensus after every ladder rung has been
    /// probed, the disputed coupling with the highest posterior-weighted
    /// marginal ([`marginal_accusation`]) is point-tested — a faulty
    /// outcome is a diagnosis, a healthy one eliminates every cover
    /// containing it. Resolves aliasing families the paper's pipeline
    /// reports as failures, at one targeted test per round (compare the
    /// test-everything [`DecoderPolicy::SetCoverFallback`]).
    Interrogate,
    /// The greedy peel plus the set-cover + point-verification fallback
    /// (an extension beyond the paper's pipeline: every coupling
    /// implicated by any minimal cover is point-tested individually).
    SetCoverFallback,
}

impl DecoderPolicy {
    /// All policies, in ablation order (paper-faithful first, then the
    /// extensions).
    pub const ALL: [DecoderPolicy; 4] = [
        DecoderPolicy::Greedy,
        DecoderPolicy::Ranked,
        DecoderPolicy::Interrogate,
        DecoderPolicy::SetCoverFallback,
    ];

    /// `true` for the policies that run the likelihood-ranked
    /// evidence-fusion loop ([`CoverPosterior`]) on collisions.
    pub fn uses_ranked_fusion(self) -> bool {
        matches!(self, DecoderPolicy::Ranked | DecoderPolicy::Interrogate)
    }
}

impl fmt::Display for DecoderPolicy {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DecoderPolicy::Greedy => "greedy",
            DecoderPolicy::Ranked => "ranked",
            DecoderPolicy::Interrogate => "interrogate",
            DecoderPolicy::SetCoverFallback => "set-cover",
        };
        write!(f, "{s}")
    }
}

impl std::str::FromStr for DecoderPolicy {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "greedy" => Ok(DecoderPolicy::Greedy),
            "ranked" => Ok(DecoderPolicy::Ranked),
            "interrogate" => Ok(DecoderPolicy::Interrogate),
            "set-cover" | "set_cover" | "cover" => Ok(DecoderPolicy::SetCoverFallback),
            other => Err(format!(
                "unknown decoder policy '{other}' (greedy|ranked|interrogate|set-cover)"
            )),
        }
    }
}

/// The failing set a fault set produces (OR semantics, all faults assumed
/// above threshold).
pub fn failing_set_of(faults: &[Coupling], space: &LabelSpace) -> FailingSet {
    let mut out = FailingSet::new();
    for &f in faults {
        for (i, v) in Syndrome::of_coupling(f, space.n_bits()).iter() {
            out.insert((i, v));
        }
    }
    out
}

/// All couplings whose syndrome is a subset of the failing set (i.e. they
/// do not contradict any passing test), excluding `excluded`.
pub fn consistent_couplings(
    failing: &FailingSet,
    space: &LabelSpace,
    excluded: &BTreeSet<Coupling>,
) -> Vec<Coupling> {
    space
        .all_couplings()
        .into_iter()
        .filter(|c| !excluded.contains(c))
        .filter(|&c| {
            Syndrome::of_coupling(c, space.n_bits()).iter().all(|(i, v)| failing.contains(&(i, v)))
        })
        .collect()
}

/// Packs a failing-set element into its bit position: `(bit, value)` →
/// `bit*2 + value`. A `LabelSpace` has `log2(n)` bits, so even a
/// 2³²-qubit machine fits the resulting index in a `u64` — the whole
/// failing set becomes one machine word, and the cover search's
/// clone/remove churn becomes two bitwise ops per candidate.
#[inline]
fn element_bit(bit: u32, value: bool) -> u64 {
    debug_assert!(bit < 32, "failing-set bit index {bit} exceeds the u64 mask width");
    1u64 << (bit * 2 + value as u32)
}

/// The bitmask form of a failing set (order-independent OR of
/// [`element_bit`]s).
fn failing_mask(failing: &FailingSet) -> u64 {
    failing.iter().fold(0u64, |m, &(bit, value)| m | element_bit(bit, value))
}

/// The bitmask form of one coupling's syndrome.
fn syndrome_mask(c: Coupling, n_bits: u32) -> u64 {
    Syndrome::of_coupling(c, n_bits)
        .iter()
        .fold(0u64, |m, (bit, value)| m | element_bit(bit, value))
}

/// Finds exact covers of `failing` by syndromes of consistent couplings,
/// of minimum cardinality, returning at most `cap` distinct covers
/// (2 suffices to decide uniqueness). Searches sizes `0..=max_size`.
pub fn minimal_covers(
    failing: &FailingSet,
    space: &LabelSpace,
    excluded: &BTreeSet<Coupling>,
    max_size: usize,
    cap: usize,
) -> Vec<Vec<Coupling>> {
    covers_by_size(failing, space, excluded, max_size, cap, true)
}

/// Enumerates exact covers of `failing` of **every** size up to
/// `max_size` (not just the minimal cardinality), smallest sizes first,
/// returning at most `cap` covers. This is the candidate pool for the
/// likelihood-ranked decoder: with `k` equal-magnitude faults the true
/// fault set is frequently *non*-minimal (two syndromes can already
/// cover the third's), so ranking must see larger covers too.
///
/// Each enumerated cover is irredundant in index order (every member
/// contributes at least one new failing test at the moment it is
/// chosen); covers whose trailing members are fully shadowed by earlier
/// ones are not proposed — the sequential exclusion loop picks such
/// faults up after the shadowing members are diagnosed and excluded.
pub fn covers_up_to(
    failing: &FailingSet,
    space: &LabelSpace,
    excluded: &BTreeSet<Coupling>,
    max_size: usize,
    cap: usize,
) -> Vec<Vec<Coupling>> {
    let _span = itqc_obs::span::timed("core.decoder.covers");
    covers_by_size(failing, space, excluded, max_size, cap, false)
}

/// The one cover search behind [`minimal_covers`] and [`covers_up_to`]:
/// size-by-size passes of [`search_covers_sized`], smallest first, until
/// `cap` covers are found, `max_size` is passed, or — with
/// `stop_at_first_size` — a pass finds any cover, which is then of
/// minimum cardinality.
fn covers_by_size(
    failing: &FailingSet,
    space: &LabelSpace,
    excluded: &BTreeSet<Coupling>,
    max_size: usize,
    cap: usize,
    stop_at_first_size: bool,
) -> Vec<Vec<Coupling>> {
    if failing.is_empty() {
        // The empty explanation covers an empty failing set.
        return vec![Vec::new()];
    }
    // Precompute syndrome masks; drop couplings with empty syndromes —
    // they can never help cover anything.
    let cands: Vec<(Coupling, u64)> = consistent_couplings(failing, space, excluded)
        .into_iter()
        .map(|c| (c, syndrome_mask(c, space.n_bits())))
        .filter(|&(_, syn)| syn != 0)
        .collect();
    let uncovered = failing_mask(failing);
    let mut found: Vec<Vec<Coupling>> = Vec::new();
    for size in 1..=max_size {
        if found.len() >= cap || (stop_at_first_size && !found.is_empty()) {
            break;
        }
        search_covers_sized(uncovered, &cands, size, &mut Vec::new(), 0, &mut found, cap);
    }
    found
}

/// Depth-first search for covers of exactly `budget` more candidates,
/// chosen in index order so each subset is enumerated once, each member
/// covering at least one still-uncovered element. Records only covers
/// that use the whole budget, so size-by-size passes never repeat a
/// smaller cover found in an earlier pass.
fn search_covers_sized(
    uncovered: u64,
    cands: &[(Coupling, u64)],
    budget: usize,
    chosen: &mut Vec<Coupling>,
    start: usize,
    found: &mut Vec<Vec<Coupling>>,
    cap: usize,
) {
    if found.len() >= cap {
        return;
    }
    if uncovered == 0 {
        if budget == 0 {
            found.push(chosen.clone());
        }
        return;
    }
    if budget == 0 {
        return;
    }
    for idx in start..cands.len() {
        let (c, syn) = cands[idx];
        if syn & uncovered == 0 {
            continue;
        }
        chosen.push(c);
        search_covers_sized(uncovered & !syn, cands, budget - 1, chosen, idx + 1, found, cap);
        chosen.pop();
        if found.len() >= cap {
            return;
        }
    }
}

// ---------------------------------------------------------------------
// Likelihood-ranked cover scoring (the `DecoderPolicy::Ranked` engine).
// ---------------------------------------------------------------------

/// Per-fault log-prior of the cover posterior: every extra member costs
/// `ln(0.135) ≈ −2`, so a larger cover must fit the observed scores
/// decisively better than a smaller one to outrank it (the Bayesian
/// reading of the paper's minimum-cardinality preference).
pub const COVER_LOG_FAULT_PRIOR: f64 = -2.0;

/// Profile grid for the common fault magnitude `|u|`: the posterior of
/// each cover is maximised over this range. Bounded at 0.5 so the
/// point-test response stays on its principal branch for the 2-/4-MS
/// ladders (footnote 8's aliasing concern).
pub const COVER_U_GRID: (f64, f64, usize) = (0.02, 0.50, 33);

/// The observation model behind the ranked decoder's posterior: how a
/// candidate cover predicts the analog round-1 scores, and how much the
/// observed scores may deviate (shot noise + ambient calibration spread
/// + forward-model truncation — see [`crate::threshold::observation_sigma`]).
#[derive(Clone, Copy, Debug)]
pub struct CoverModel {
    /// Gate repetitions of the observed round-1 tests.
    pub reps: usize,
    /// The pass/fail statistic those tests scored.
    pub score: ScoreMode,
    /// Gaussian observation-noise scale for a single test score.
    pub sigma: f64,
    /// Log-prior per cover member (defaults to [`COVER_LOG_FAULT_PRIOR`]).
    pub log_fault_prior: f64,
}

impl CoverModel {
    /// A model for round-1 tests at `reps` repetitions scored by `score`,
    /// with observation noise `sigma`.
    pub fn new(reps: usize, score: ScoreMode, sigma: f64) -> Self {
        CoverModel { reps, score, sigma: sigma.max(1e-6), log_fault_prior: COVER_LOG_FAULT_PRIOR }
    }
}

/// One scored candidate explanation of a conflicted first round.
#[derive(Clone, Debug)]
pub struct RankedCover {
    /// The candidate fault set, sorted.
    pub couplings: Vec<Coupling>,
    /// Profiled log-posterior: max over the magnitude grid of the
    /// Gaussian score log-likelihood, plus the per-fault size prior.
    pub log_posterior: f64,
    /// The magnitude at which the profile peaks.
    pub magnitude: f64,
}

/// Gaussian log-likelihood of the observed round-1 scores under the
/// hypothesis "exactly the couplings of `cover` are faulty, all with
/// under-rotation `u`". Predicted per-class scores come from the
/// product forward model ([`predicted_class_score`]).
pub fn cover_log_likelihood(
    cover: &[Coupling],
    u: f64,
    observed: &[(SubcubeClass, f64)],
    model: &CoverModel,
) -> f64 {
    let inv = 0.5 / (model.sigma * model.sigma);
    observed
        .iter()
        .map(|&(class, obs)| {
            let members: Vec<Coupling> =
                cover.iter().copied().filter(|&c| class.contains_coupling(c)).collect();
            let d = obs - predicted_class_score(&members, u, model.reps, model.score);
            -d * d * inv
        })
        .sum()
}

/// Ranks candidate covers by profiled log-posterior, best first.
/// Ties break on smaller cover, then lexicographic coupling order, so
/// the ranking is deterministic. Single-round convenience wrapper over
/// [`CoverPosterior`].
pub fn rank_covers(
    covers: &[Vec<Coupling>],
    observed: &[(SubcubeClass, f64)],
    model: &CoverModel,
) -> Vec<RankedCover> {
    let mut posterior = CoverPosterior::new();
    posterior.observe(observed.to_vec(), *model);
    posterior.rank(covers)
}

// ---------------------------------------------------------------------
// Cross-round evidence fusion (the §V second-adaptive-round upgrade).
// ---------------------------------------------------------------------

/// One adaptive round's worth of analog evidence: the per-class scores
/// it observed, the observation model they were scored under (gate
/// repetitions, statistic, per-round re-calibrated noise width — see
/// [`crate::threshold::rescale_sigma`]), and optionally the round's
/// re-calibrated pass/fail threshold used to *narrow* the cover set
/// (covers whose prediction lands decisively on the wrong side of the
/// cut for a class are eliminated rather than merely down-weighted).
#[derive(Clone, Debug)]
pub struct EvidenceRound {
    /// The analog score of every class test this round ran.
    pub observed: Vec<(SubcubeClass, f64)>,
    /// The observation model the scores were produced under.
    pub model: CoverModel,
    /// The round's re-calibrated pass/fail cut
    /// ([`crate::threshold::contrast_threshold`]); `None` disables
    /// contradiction pruning for the round.
    pub veto_threshold: Option<f64>,
}

/// Number of points on the magnitude grid ([`COVER_U_GRID`]).
const GRID_STEPS: usize = COVER_U_GRID.2;

/// The magnitude at grid point `s` of [`COVER_U_GRID`].
fn grid_u(s: usize) -> f64 {
    let (u_lo, u_hi, steps) = COVER_U_GRID;
    u_lo + (u_hi - u_lo) * s as f64 / (steps - 1) as f64
}

/// Index of the all-ones row: a class with no cover member scores 1.
const CLEAN_ROW: usize = 0;

/// The ranked decoder's forward model tabulated over the magnitude grid
/// for one [`CoverPosterior::rank`] call. A class's predicted score
/// depends only on its [`ClassScorePredictor`] (gate repetitions, score
/// mode, and the members' degree multiset or interference masks), and
/// those repeat across the covers of one call, so each distinct
/// predictor is evaluated once per grid point and every cover reads its
/// rows. Each row holds the same `at(u)` values on the same `u` as a
/// per-cover evaluation would, so every sum built from it is
/// bit-identical. The table lives only as long as the call.
struct ForwardTable {
    rows: Vec<[f64; GRID_STEPS]>,
    index: HashMap<ClassScorePredictor, usize>,
    /// Scratch for one class's cover members, reused across classes.
    members: Vec<Coupling>,
}

impl ForwardTable {
    fn new() -> Self {
        ForwardTable { rows: vec![[1.0; GRID_STEPS]], index: HashMap::new(), members: Vec::new() }
    }

    /// Rows tabulated so far (the constant clean row not counted).
    fn tabulated(&self) -> usize {
        self.rows.len() - 1
    }

    /// Fills `out` with `cover`'s row index for every round × observed
    /// class, in round then class order, tabulating rows not seen yet.
    fn cover_rows(&mut self, rounds: &[EvidenceRound], cover: &[Coupling], out: &mut Vec<usize>) {
        out.clear();
        for round in rounds {
            for &(class, _) in &round.observed {
                self.members.clear();
                self.members.extend(cover.iter().copied().filter(|&c| class.contains_coupling(c)));
                if self.members.is_empty() {
                    out.push(CLEAN_ROW);
                    continue;
                }
                let predictor =
                    ClassScorePredictor::new(&self.members, round.model.reps, round.model.score);
                let rows = &mut self.rows;
                let row = *self.index.entry(predictor).or_insert_with_key(|predictor| {
                    rows.push(std::array::from_fn(|s| predictor.at(grid_u(s))));
                    rows.len() - 1
                });
                out.push(row);
            }
        }
    }
}

/// The cross-round evidence-fusion posterior over candidate covers.
///
/// PR 3's ranked decoder re-ranked every disambiguation round from the
/// *round-1* scores alone; this ledger instead accumulates each
/// adaptive round's per-class scores and ranks covers by the **fused**
/// posterior: the common fault magnitude is profiled *jointly* — one
/// `u` grid point sums the Gaussian log-likelihood of every observed
/// round before the maximum is taken — so a cover can no longer buy a
/// good round-1 fit with a magnitude that round 2's amplification
/// contradicts. Two fault multiplicities that alias at one repetition
/// count (`cos²(r·u·π/4)^m` surfaces cross) separate once a second
/// rung pins the magnitude, which is precisely the residual Table II
/// gap ROADMAP tracked after PR 3.
#[derive(Clone, Debug, Default)]
pub struct CoverPosterior {
    rounds: Vec<EvidenceRound>,
}

impl CoverPosterior {
    /// An empty ledger (no evidence yet).
    pub fn new() -> Self {
        CoverPosterior { rounds: Vec::new() }
    }

    /// Accumulates one round of per-class scores without a veto cut.
    pub fn observe(&mut self, observed: Vec<(SubcubeClass, f64)>, model: CoverModel) {
        self.observe_round(EvidenceRound { observed, model, veto_threshold: None });
    }

    /// Accumulates one full evidence round.
    pub fn observe_round(&mut self, round: EvidenceRound) {
        self.rounds.push(round);
    }

    /// Number of accumulated evidence rounds.
    pub fn rounds(&self) -> usize {
        self.rounds.len()
    }

    /// The fused log-likelihood profile of one cover, read from its
    /// forward-model `rows` (one per round × observed class, in order;
    /// see [`ForwardTable::cover_rows`]): at each magnitude grid point
    /// the per-round log-likelihoods *sum* (joint-magnitude profiling),
    /// and the returned pair is the profile maximum and its grid index.
    /// The per-u arithmetic is [`cover_log_likelihood`]'s (same values,
    /// same summation order).
    fn fused_profile(&self, rows: &[usize], table: &ForwardTable) -> (f64, usize) {
        let mut best = f64::NEG_INFINITY;
        let mut best_s = 0;
        for s in 0..GRID_STEPS {
            let mut rest = rows;
            let ll: f64 = self
                .rounds
                .iter()
                .map(|r| {
                    let (round_rows, tail) = rest.split_at(r.observed.len());
                    rest = tail;
                    let inv = 0.5 / (r.model.sigma * r.model.sigma);
                    r.observed
                        .iter()
                        .zip(round_rows)
                        .map(|(&(_, obs), &row)| {
                            let d = obs - table.rows[row][s];
                            -d * d * inv
                        })
                        .sum::<f64>()
                })
                .sum();
            if ll > best {
                best = ll;
                best_s = s;
            }
        }
        (best, best_s)
    }

    /// `true` when a round with a veto cut decisively contradicts the
    /// cover at its own fused-MAP magnitude: the cover predicts a class
    /// a full noise width *below* the round's re-calibrated threshold
    /// (a fault it insists on) while the round observed that class a
    /// full noise width *above* it (clean). Such covers are eliminated
    /// from the candidate set — the "narrowing" half of evidence
    /// fusion.
    ///
    /// Only this overreach direction prunes. The converse — a cover
    /// predicting clean where the round observed a failure — is *not* a
    /// contradiction: the gap-threshold walk deliberately ranks partial
    /// covers that explain only the deepest-scoring band of the failing
    /// set (the magnitude-peel reading of Fig. 5), and those
    /// legitimately leave shallower failures unexplained.
    pub fn contradicted(&self, cover: &[Coupling]) -> bool {
        let mut table = ForwardTable::new();
        let mut rows = Vec::new();
        table.cover_rows(&self.rounds, cover, &mut rows);
        let (_, s_hat) = self.fused_profile(&rows, &table);
        self.contradicted_at(&rows, &table, s_hat)
    }

    /// [`Self::contradicted`] at a pre-computed fused-MAP grid index
    /// (so [`Self::rank`] profiles each cover exactly once).
    fn contradicted_at(&self, rows: &[usize], table: &ForwardTable, s_hat: usize) -> bool {
        let mut rest = rows;
        self.rounds.iter().any(|round| {
            let (round_rows, tail) = rest.split_at(round.observed.len());
            rest = tail;
            let Some(t) = round.veto_threshold else {
                return false;
            };
            let margin = round.model.sigma;
            round.observed.iter().zip(round_rows).any(|(&(_, obs), &row)| {
                if obs < t + margin {
                    return false; // class not decisively clean this round
                }
                row != CLEAN_ROW && table.rows[row][s_hat] <= t - margin
            })
        })
    }

    /// Ranks a candidate pool by fused log-posterior, best first, after
    /// eliminating covers contradicted by any veto round. Tie-breaking
    /// matches [`rank_covers`] (smaller cover, then lexicographic), so
    /// with a single vetoless round this *is* `rank_covers`.
    pub fn rank(&self, covers: &[Vec<Coupling>]) -> Vec<RankedCover> {
        let _span = itqc_obs::span::timed("core.decoder.rank");
        let prior =
            self.rounds.first().map(|r| r.model.log_fault_prior).unwrap_or(COVER_LOG_FAULT_PRIOR);
        let has_veto = self.rounds.iter().any(|r| r.veto_threshold.is_some());
        let mut table = ForwardTable::new();
        let mut rows = Vec::new();
        let mut out: Vec<RankedCover> = covers
            .iter()
            .filter_map(|cover| {
                table.cover_rows(&self.rounds, cover, &mut rows);
                let (best, best_s) = self.fused_profile(&rows, &table);
                if has_veto && self.contradicted_at(&rows, &table, best_s) {
                    return None;
                }
                let mut couplings = cover.clone();
                couplings.sort();
                Some(RankedCover {
                    couplings,
                    log_posterior: best + prior * cover.len() as f64,
                    magnitude: grid_u(best_s),
                })
            })
            .collect();
        itqc_obs::event::add("core.decoder.covers_ranked", covers.len() as u64);
        itqc_obs::event::add("core.decoder.forward_rows", table.tabulated() as u64);
        out.sort_by(|a, b| {
            b.log_posterior
                .partial_cmp(&a.log_posterior)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(a.couplings.len().cmp(&b.couplings.len()))
                .then(a.couplings.cmp(&b.couplings))
        });
        out
    }

    /// [`consensus_accusation`] over the fused ranking of `covers`.
    pub fn consensus(&self, covers: &[Vec<Coupling>]) -> Option<Coupling> {
        consensus_accusation(&self.rank(covers))
    }
}

/// Posterior margin (in log units) within which two covers count as
/// statistically indistinguishable: covers whose predicted score
/// vectors differ by less than about one observation-noise width tie
/// under this margin, while a single resolved score gap (≈ 0.1 at
/// σ ≈ 0.04) separates decisively.
pub const COVER_TIE_MARGIN: f64 = 1.0;

/// The coupling the ranked posterior *decisively* implicates, if any:
/// the posterior-marginal-best member among those shared by **every**
/// cover within [`COVER_TIE_MARGIN`] of the MAP cover.
///
/// This is the honest reading of aliasing: when the near-optimal covers
/// disagree about a member, the analog scores genuinely cannot tell the
/// explanations apart and the decoder must report ambiguity (`None`)
/// rather than guess — the residual failure probability Table II
/// quantifies. When they *agree* on a member, that coupling is faulty
/// under every surviving explanation and can be accused, verified, and
/// excluded, after which the sequential loop re-diagnoses the rest.
pub fn consensus_accusation(ranked: &[RankedCover]) -> Option<Coupling> {
    consensus_accusation_within(ranked, COVER_TIE_MARGIN)
}

/// [`consensus_accusation`] at an explicit tie margin: wider margins
/// demand agreement across more near-optimal covers, so accusations get
/// rarer but stronger. The multi-fault loop uses a wider margin on
/// internally *inconsistent* (non-conflicting) first rounds, which lack
/// the corroborating bit-conflict a collision record carries.
pub fn consensus_accusation_within(ranked: &[RankedCover], margin: f64) -> Option<Coupling> {
    let top = ranked.first()?.log_posterior;
    let tied: Vec<&RankedCover> =
        ranked.iter().take_while(|rc| top - rc.log_posterior <= margin).collect();
    let mut common: BTreeSet<Coupling> = tied[0].couplings.iter().copied().collect();
    for rc in &tied[1..] {
        common.retain(|c| rc.couplings.contains(c));
    }
    // Posterior-weighted marginal over ALL ranked covers, restricted to
    // the consensus members; ties break on the smallest coupling.
    let mut weight: BTreeMap<Coupling, f64> = BTreeMap::new();
    for rc in ranked {
        let w = (rc.log_posterior - top).exp();
        for &c in &rc.couplings {
            if common.contains(&c) {
                *weight.entry(c).or_insert(0.0) += w;
            }
        }
    }
    weight
        .into_iter()
        .max_by(|(ca, wa), (cb, wb)| {
            wa.partial_cmp(wb).unwrap_or(std::cmp::Ordering::Equal).then(cb.cmp(ca))
        })
        .map(|(c, _)| c)
}

/// The coupling to *interrogate next* when the ranked posterior has no
/// consensus: the posterior-weighted marginal-best member over **all**
/// ranked covers, with no agreement requirement. Unlike
/// [`consensus_accusation`] this is not a diagnosis — it is the
/// highest-information point test available, the evidence-fusion
/// counterpart of Fig. 5's adaptive verification round: a faulty
/// outcome confirms the member under every explanation containing it,
/// a healthy outcome eliminates all of them, and either way the cover
/// set narrows decisively. Ties break on the smallest coupling.
pub fn marginal_accusation(ranked: &[RankedCover]) -> Option<Coupling> {
    let top = ranked.first()?.log_posterior;
    let mut weight: BTreeMap<Coupling, f64> = BTreeMap::new();
    for rc in ranked {
        let w = (rc.log_posterior - top).exp();
        for &c in &rc.couplings {
            *weight.entry(c).or_insert(0.0) += w;
        }
    }
    weight
        .into_iter()
        .max_by(|(ca, wa), (cb, wb)| {
            wa.partial_cmp(wb).unwrap_or(std::cmp::Ordering::Equal).then(cb.cmp(ca))
        })
        .map(|(c, _)| c)
}

/// The *disputed* members of a tie: couplings appearing in at least one
/// but not every cover within `margin` of the MAP cover, ordered by
/// descending posterior-weighted marginal (ties on the smaller
/// coupling). These are exactly the members [`consensus_accusation_within`]
/// cannot rule on — for genuinely tied disjoint perfect-fit covers the
/// tie set shares *no* member and every member is disputed — and
/// therefore the targets of the interrogation extension's point tests:
/// each healthy outcome eliminates every cover containing the member,
/// collapsing the tie family one test at a time.
pub fn disputed_members(ranked: &[RankedCover], margin: f64) -> Vec<Coupling> {
    let Some(first) = ranked.first() else {
        return Vec::new();
    };
    let top = first.log_posterior;
    let tied: Vec<&RankedCover> =
        ranked.iter().take_while(|rc| top - rc.log_posterior <= margin).collect();
    let mut count: BTreeMap<Coupling, usize> = BTreeMap::new();
    for rc in &tied {
        for &c in &rc.couplings {
            *count.entry(c).or_insert(0) += 1;
        }
    }
    let mut weight: BTreeMap<Coupling, f64> = BTreeMap::new();
    for rc in ranked {
        let w = (rc.log_posterior - top).exp();
        for &c in &rc.couplings {
            *weight.entry(c).or_insert(0.0) += w;
        }
    }
    let mut disputed: Vec<Coupling> =
        count.into_iter().filter(|&(_, n)| n < tied.len()).map(|(c, _)| c).collect();
    disputed.sort_by(|a, b| {
        let wa = weight.get(a).copied().unwrap_or(0.0);
        let wb = weight.get(b).copied().unwrap_or(0.0);
        wb.partial_cmp(&wa).unwrap_or(std::cmp::Ordering::Equal).then(a.cmp(b))
    });
    disputed
}

/// Decodes a failing set: returns `Some(fault set)` when there is a
/// *unique* minimum-cardinality explanation, `None` otherwise.
pub fn identify(
    failing: &FailingSet,
    space: &LabelSpace,
    excluded: &BTreeSet<Coupling>,
    max_size: usize,
) -> Option<Vec<Coupling>> {
    let covers = minimal_covers(failing, space, excluded, max_size, 2);
    if covers.len() == 1 {
        Some(covers.into_iter().next().unwrap())
    } else {
        None
    }
}

/// Monte-Carlo estimate of the probability that `k` random simultaneous
/// faults are identified (Table II): plants `k` distinct faulty couplings
/// uniformly, observes the failing set, and scores a success when
/// [`identify`] returns exactly the planted set.
pub fn identification_probability<R: Rng + ?Sized>(
    n_qubits: usize,
    k: usize,
    trials: usize,
    rng: &mut R,
) -> f64 {
    let space = LabelSpace::new(n_qubits);
    let all = space.all_couplings();
    let none = BTreeSet::new();
    let mut successes = 0usize;
    for _ in 0..trials {
        // Sample k distinct couplings.
        let mut chosen: BTreeSet<usize> = BTreeSet::new();
        while chosen.len() < k {
            chosen.insert(rng.gen_range(0..all.len()));
        }
        let faults: Vec<Coupling> = chosen.iter().map(|&i| all[i]).collect();
        let failing = failing_set_of(&faults, &space);
        if let Some(mut decoded) = identify(&failing, &space, &none, k) {
            decoded.sort();
            let mut truth = faults.clone();
            truth.sort();
            if decoded == truth {
                successes += 1;
            }
        }
    }
    successes as f64 / trials.max(1) as f64
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn space8() -> LabelSpace {
        LabelSpace::new(8)
    }

    #[test]
    fn single_fault_covers_match_lemma_v9() {
        // Round 1 alone: a single fault's minimal explanations are exactly
        // the 2^{n−L−1} pairs sharing its syndrome (Lemma V.9); the truth
        // is always among them, and uniqueness holds exactly when L = n−1.
        let space = space8();
        let none = BTreeSet::new();
        for c in space.all_couplings() {
            let failing = failing_set_of(&[c], &space);
            if failing.is_empty() {
                continue; // complementary pair: invisible to round 1
            }
            let l = failing.len() as u32;
            let covers = minimal_covers(&failing, &space, &none, 1, 100);
            assert_eq!(covers.len(), 1usize << (3 - l - 1), "coupling {c}");
            assert!(covers.iter().any(|cv| cv == &vec![c]), "truth missing for {c}");
            let unique = identify(&failing, &space, &none, 1);
            if l == 2 {
                assert_eq!(unique, Some(vec![c]));
            } else {
                assert_eq!(unique, None, "L={l} cannot be unique");
            }
        }
    }

    /// The unpruned depth-first cover search, kept as the reference the
    /// production search is pinned to: with `sized` it records only
    /// covers that use the whole budget, without it every cover it
    /// reaches within the budget.
    #[allow(clippy::too_many_arguments)]
    fn reference_dfs(
        uncovered: u64,
        cands: &[(Coupling, u64)],
        budget: usize,
        chosen: &mut Vec<Coupling>,
        start: usize,
        found: &mut Vec<Vec<Coupling>>,
        cap: usize,
        sized: bool,
    ) {
        if found.len() >= cap {
            return;
        }
        if uncovered == 0 {
            if budget == 0 || !sized {
                found.push(chosen.clone());
            }
            return;
        }
        if budget == 0 {
            return;
        }
        for idx in start..cands.len() {
            let (c, syn) = cands[idx];
            if syn & uncovered == 0 {
                continue;
            }
            chosen.push(c);
            reference_dfs(uncovered & !syn, cands, budget - 1, chosen, idx + 1, found, cap, sized);
            chosen.pop();
            if found.len() >= cap {
                return;
            }
        }
    }

    /// The reference covers: minimal ones from unsized passes that stop
    /// at the first size with a cover, or all sizes up to `max_size`
    /// from sized passes that stop at `cap`.
    fn reference_covers(
        failing: &FailingSet,
        space: &LabelSpace,
        excluded: &BTreeSet<Coupling>,
        max_size: usize,
        cap: usize,
        minimal: bool,
    ) -> Vec<Vec<Coupling>> {
        if failing.is_empty() {
            return vec![Vec::new()];
        }
        let cands: Vec<(Coupling, u64)> = consistent_couplings(failing, space, excluded)
            .into_iter()
            .map(|c| (c, syndrome_mask(c, space.n_bits())))
            .filter(|&(_, syn)| syn != 0)
            .collect();
        let mut found = Vec::new();
        for size in 1..=max_size {
            if !minimal && found.len() >= cap {
                break;
            }
            let uncovered = failing_mask(failing);
            reference_dfs(uncovered, &cands, size, &mut Vec::new(), 0, &mut found, cap, !minimal);
            if minimal && !found.is_empty() {
                break;
            }
        }
        found
    }

    #[test]
    fn cover_searches_match_the_unpruned_reference_in_order() {
        let mut rng = SmallRng::seed_from_u64(0xC0FE);
        let mut nonempty = 0;
        for n in [8usize, 16, 32] {
            let space = LabelSpace::new(n);
            let all = space.all_couplings();
            for faults in 1..=4usize {
                for _ in 0..6 {
                    let mut truth = BTreeSet::new();
                    while truth.len() < faults {
                        truth.insert(all[rng.gen_range(0..all.len())]);
                    }
                    let truth: Vec<Coupling> = truth.into_iter().collect();
                    let failing = failing_set_of(&truth, &space);
                    // Sometimes exclude a planted member or a bystander.
                    let mut excluded = BTreeSet::new();
                    if rng.gen_bool(0.5) {
                        excluded.insert(all[rng.gen_range(0..all.len())]);
                    }
                    for cap in [1usize, 2, 8, 96, 256] {
                        for max_size in 1..=4usize {
                            let ctx = format!("n={n} truth={truth:?} cap={cap} max={max_size}");
                            let minimal =
                                minimal_covers(&failing, &space, &excluded, max_size, cap);
                            let expect =
                                reference_covers(&failing, &space, &excluded, max_size, cap, true);
                            assert_eq!(minimal, expect, "minimal_covers: {ctx}");
                            let up_to = covers_up_to(&failing, &space, &excluded, max_size, cap);
                            let expect =
                                reference_covers(&failing, &space, &excluded, max_size, cap, false);
                            assert_eq!(up_to, expect, "covers_up_to: {ctx}");
                            nonempty += usize::from(!up_to.is_empty());
                        }
                    }
                }
            }
        }
        assert!(nonempty > 500, "only {nonempty} searches found a cover");
    }

    #[test]
    fn consistency_filter_respects_passing_tests() {
        let space = space8();
        let none = BTreeSet::new();
        // Fault {0,2}: syndrome (0,0),(2,0). Coupling {1,3} has syndrome
        // (0,1),(2,0) — the (0,1) test passed, so {1,3} is inconsistent.
        let failing = failing_set_of(&[Coupling::new(0, 2)], &space);
        let consistent = consistent_couplings(&failing, &space, &none);
        assert!(consistent.contains(&Coupling::new(0, 2)));
        assert!(!consistent.contains(&Coupling::new(1, 3)));
    }

    #[test]
    fn aliased_two_fault_sets_are_rejected() {
        // Find a two-fault set whose failing set admits another minimal
        // explanation and check identify() returns None.
        // {0,1} syndrome: shares bits 1,2 → (1,0),(2,0). {2,3}: 010/011
        // share bits 1(1),2(0) → (1,1),(2,0). Union: (1,0),(1,1),(2,0).
        // Alternative covers of the same set exist (e.g. {0,3}&{1,2}?):
        // {0,3}=000/011: share bit 2 → (2,0). {1,2}=001/010: share bit
        // 2 → (2,0). Those don't cover (1,0). But {4,5}… — regardless,
        // the decoder must agree with brute-force uniqueness.
        let space = space8();
        let none = BTreeSet::new();
        let faults = vec![Coupling::new(0, 1), Coupling::new(2, 3)];
        let failing = failing_set_of(&faults, &space);
        let covers = minimal_covers(&failing, &space, &none, 2, 10);
        // Brute force all 1- and 2-subsets for reference.
        let all = space.all_couplings();
        let mut brute: Vec<Vec<Coupling>> = Vec::new();
        for (i, &a) in all.iter().enumerate() {
            if failing_set_of(&[a], &space) == failing {
                brute.push(vec![a]);
            }
            for &b in &all[i + 1..] {
                if failing_set_of(&[a, b], &space) == failing {
                    brute.push(vec![a, b]);
                }
            }
        }
        let min_len = brute.iter().map(Vec::len).min().unwrap();
        let brute_min: BTreeSet<Vec<Coupling>> = brute
            .into_iter()
            .filter(|c| c.len() == min_len)
            .map(|mut c| {
                c.sort();
                c
            })
            .collect();
        let got: BTreeSet<Vec<Coupling>> = covers
            .into_iter()
            .map(|mut c| {
                c.sort();
                c
            })
            .collect();
        assert_eq!(got, brute_min, "decoder must enumerate exactly the minimal explanations");
    }

    #[test]
    fn complementary_member_makes_set_unidentifiable() {
        // {3,4} is complementary (empty syndrome): any set containing it
        // can never be the unique minimal explanation.
        let space = space8();
        let none = BTreeSet::new();
        let faults = vec![Coupling::new(3, 4), Coupling::new(0, 2)];
        let failing = failing_set_of(&faults, &space);
        let decoded = identify(&failing, &space, &none, 2);
        assert_ne!(decoded, Some(faults));
    }

    #[test]
    fn exhaustive_two_fault_identification_rate_8q() {
        // Exact identification rate over every 2-subset at 8 qubits.
        // The paper reports 47%; our round-1 uniqueness criterion lands in
        // the same regime (see EXPERIMENTS.md for the comparison).
        let space = space8();
        let none = BTreeSet::new();
        let all = space.all_couplings();
        let mut total = 0usize;
        let mut ok = 0usize;
        for (i, &a) in all.iter().enumerate() {
            for &b in &all[i + 1..] {
                total += 1;
                let truth = {
                    let mut t = vec![a, b];
                    t.sort();
                    t
                };
                let failing = failing_set_of(&truth, &space);
                if let Some(mut d) = identify(&failing, &space, &none, 2) {
                    d.sort();
                    if d == truth {
                        ok += 1;
                    }
                }
            }
        }
        let rate = ok as f64 / total as f64;
        // At n = 3 bits, *no* two-fault set is uniquely recoverable from
        // round 1 alone: every union syndrome admits either a smaller
        // cover or an alternative same-size cover (verified exhaustively
        // here). This is precisely why the paper's pipeline leans on the
        // adaptive second round and magnitude separation — the Table II
        // probabilities come from `multi_fault`, not from this decoder.
        assert_eq!(rate, 0.0, "2-fault round-1-only rate {rate}");
    }

    #[test]
    fn monte_carlo_matches_exhaustive_at_8q() {
        let mut rng = SmallRng::seed_from_u64(77);
        let p = identification_probability(8, 1, 400, &mut rng);
        // Round-1-only identification succeeds exactly for the 12 of 28
        // couplings with maximal syndromes (L = n−1) → 42.9%.
        assert!((p - 12.0 / 28.0).abs() < 0.07, "p = {p}");
    }

    #[test]
    fn identification_decays_with_fault_count() {
        let mut rng = SmallRng::seed_from_u64(78);
        let p1 = identification_probability(8, 1, 200, &mut rng);
        let p2 = identification_probability(8, 2, 200, &mut rng);
        let p3 = identification_probability(8, 3, 150, &mut rng);
        assert!(p1 > p2 && p2 >= p3, "{p1} > {p2} >= {p3} expected");
    }

    // -----------------------------------------------------------------
    // Cover-scoring math (the `DecoderPolicy::Ranked` posterior).
    // -----------------------------------------------------------------

    use crate::classes::first_round_classes;
    use crate::executor::ExactExecutor;
    use crate::testplan::TestSpec;

    /// Exact (noiseless, shot-free) first-round scores of a machine with
    /// the given planted faults — the observation vector the ranked
    /// decoder consumes.
    fn noiseless_observed(
        faults: &[(Coupling, f64)],
        n: usize,
        reps: usize,
    ) -> Vec<(SubcubeClass, f64)> {
        let space = LabelSpace::new(n);
        let exec = ExactExecutor::new(n).with_faults(faults.iter().copied());
        let none = BTreeSet::new();
        first_round_classes(&space)
            .into_iter()
            .map(|class| {
                let couplings = class.couplings(&space, &none);
                let spec = TestSpec::for_couplings("obs", &couplings, reps);
                (class, exec.exact_fidelity(&spec))
            })
            .collect()
    }

    fn ranked_for(faults: &[Coupling], u: f64, n: usize, reps: usize) -> Vec<RankedCover> {
        let planted: Vec<(Coupling, f64)> = faults.iter().map(|&c| (c, u)).collect();
        let observed = noiseless_observed(&planted, n, reps);
        let failing: FailingSet = observed
            .iter()
            .filter(|&&(_, s)| s < 0.5)
            .map(|&(class, _)| (class.bit, class.value))
            .collect();
        let space = LabelSpace::new(n);
        let none = BTreeSet::new();
        let covers = covers_up_to(&failing, &space, &none, faults.len() + 2, 96);
        let model = CoverModel::new(reps, ScoreMode::ExactTarget, 0.04);
        rank_covers(&covers, &observed, &model)
    }

    #[test]
    fn covers_up_to_includes_non_minimal_explanations() {
        // Three faults whose union syndrome also admits 2-covers: the
        // ranked candidate pool must contain the size-3 truth, which
        // `minimal_covers` (by construction) never proposes.
        let space = space8();
        let none = BTreeSet::new();
        let truth = vec![Coupling::new(0, 2), Coupling::new(1, 3), Coupling::new(4, 6)];
        let failing = failing_set_of(&truth, &space);
        let minimal = minimal_covers(&failing, &space, &none, 3, 96);
        let min_size = minimal[0].len();
        let all = covers_up_to(&failing, &space, &none, 3, 96);
        assert!(all.iter().any(|c| c.len() == min_size), "minimal covers present");
        let mut sorted_truth = truth.clone();
        sorted_truth.sort();
        assert!(
            all.iter().any(|c| {
                let mut s = c.clone();
                s.sort();
                s == sorted_truth
            }),
            "the size-3 truth must be in the candidate pool"
        );
        // Every enumerated cover is an exact cover of the failing set.
        for c in &all {
            assert_eq!(failing_set_of(c, &space), failing, "{c:?}");
            assert!(c.len() <= 3);
        }
    }

    #[test]
    fn aliased_two_fault_set_ranks_planted_first() {
        // {0,1} and {2,3} produce the aliased union (1,0),(1,1),(2,0)
        // (the fixture of `aliased_two_fault_sets_are_rejected`, which
        // pass/fail cover counting alone cannot decide). The analog
        // scores resolve it: the planted set must rank first, at its
        // planted magnitude.
        let truth = vec![Coupling::new(0, 1), Coupling::new(2, 3)];
        let ranked = ranked_for(&truth, 0.30, 8, 4);
        assert!(ranked.len() > 1, "fixture must actually alias");
        assert_eq!(ranked[0].couplings, truth);
        assert!((ranked[0].magnitude - 0.30).abs() < 0.02, "fitted u {}", ranked[0].magnitude);
    }

    #[test]
    fn aliased_three_fault_set_ranks_planted_first() {
        // A conflicted 3-fault union — (0,0)/(0,1) and (2,0)/(2,1) all
        // fail — with multiple candidate covers.
        let truth = vec![Coupling::new(0, 2), Coupling::new(1, 3), Coupling::new(4, 6)];
        let ranked = ranked_for(&truth, 0.30, 8, 4);
        assert!(ranked.len() > 1, "fixture must actually alias");
        assert_eq!(ranked[0].couplings, truth);
    }

    #[test]
    fn consensus_respects_genuine_ambiguity() {
        // A decisive fixture accuses a planted member; and whatever the
        // consensus returns must be planted (never a healthy coupling).
        let truth = vec![Coupling::new(0, 1), Coupling::new(2, 3)];
        let ranked = ranked_for(&truth, 0.30, 8, 4);
        let accused = consensus_accusation(&ranked).expect("fixture is decisive");
        assert!(truth.contains(&accused));
    }

    #[test]
    fn tied_fixtures_never_yield_an_accusation_outside_the_tied_families() {
        // Generator-driven sweep over the adversarial tied-cover pool
        // (`itqc_faults::adversarial::tied_cover_scenarios`): plant one
        // member each of two conflicting same-syndrome families, at
        // exactly equal magnitudes and at a seeded near-tied
        // perturbation. Within a family the members are interchangeable
        // in every first-round observation, so the decoder cannot be
        // asked to find the truth — but every statistic it exposes
        // (consensus, posterior-weighted marginal, disputed-member
        // ordering) must stay inside the planted-or-syndrome-tied set.
        // Honest abstention is allowed; naming an unrelated healthy
        // coupling is the one unforgivable failure. On the exact tie,
        // consensus specifically must abstain: the conflicting families
        // share no common member across the tied covers.
        use itqc_faults::adversarial::tied_cover_scenarios;
        let mut rng = SmallRng::seed_from_u64(0x71ED);
        for n in [8usize, 16] {
            let space = LabelSpace::new(n);
            let none = BTreeSet::new();
            let model = CoverModel::new(4, ScoreMode::ExactTarget, 0.04);
            let mut scenarios = tied_cover_scenarios(n);
            if n == 16 {
                // The 16-qubit pool holds 64 cross pairs; sweep a seeded
                // sample to keep the tier-1 budget.
                while scenarios.len() > 8 {
                    let drop = rng.gen_range(0..scenarios.len());
                    scenarios.remove(drop);
                }
            }
            for scenario in scenarios {
                let allowed: BTreeSet<Coupling> = scenario
                    .faults
                    .iter()
                    .chain(scenario.tied_alternatives.iter().flatten())
                    .copied()
                    .collect();
                let near_tied = 0.30 + rng.gen_range(0.02..0.06);
                for second_u in [0.30, near_tied] {
                    let planted = vec![(scenario.faults[0], 0.30), (scenario.faults[1], second_u)];
                    let observed = noiseless_observed(&planted, n, 4);
                    let failing: FailingSet = observed
                        .iter()
                        .filter(|&&(_, s)| s < 0.5)
                        .map(|&(class, _)| (class.bit, class.value))
                        .collect();
                    let covers = covers_up_to(&failing, &space, &none, 4, 96);
                    let ranked = rank_covers(&covers, &observed, &model);
                    assert!(!ranked.is_empty(), "n={n} {:?}: no covers", scenario.faults);
                    if second_u == 0.30 {
                        assert_eq!(
                            consensus_accusation(&ranked),
                            None,
                            "n={n} {:?}: exact ties admit no consensus",
                            scenario.faults
                        );
                    } else if let Some(c) = consensus_accusation(&ranked) {
                        assert!(allowed.contains(&c), "n={n} consensus fabricated {c}");
                    }
                    if let Some(c) = marginal_accusation(&ranked) {
                        assert!(allowed.contains(&c), "n={n} marginal fabricated {c}");
                    }
                    for c in disputed_members(&ranked, COVER_TIE_MARGIN) {
                        assert!(allowed.contains(&c), "n={n} disputed list fabricated {c}");
                    }
                }
            }
        }
    }

    // -----------------------------------------------------------------
    // Cross-round evidence fusion (the `CoverPosterior` ledger).
    // -----------------------------------------------------------------

    #[test]
    fn single_round_posterior_is_exactly_rank_covers() {
        // The fused posterior with one vetoless round must reproduce
        // `rank_covers` bit-for-bit — PR 3's ranking is the fusion base
        // case, not a separate code path.
        let truth = vec![Coupling::new(0, 1), Coupling::new(2, 3)];
        let planted: Vec<(Coupling, f64)> = truth.iter().map(|&c| (c, 0.30)).collect();
        let observed = noiseless_observed(&planted, 8, 4);
        let space = space8();
        let none = BTreeSet::new();
        let failing = failing_set_of(&truth, &space);
        let covers = covers_up_to(&failing, &space, &none, 4, 96);
        let model = CoverModel::new(4, ScoreMode::ExactTarget, 0.04);
        let direct = rank_covers(&covers, &observed, &model);
        let mut posterior = CoverPosterior::new();
        posterior.observe(observed, model);
        let fused = posterior.rank(&covers);
        assert_eq!(direct.len(), fused.len());
        for (a, b) in direct.iter().zip(&fused) {
            assert_eq!(a.couplings, b.couplings);
            assert_eq!(a.log_posterior.to_bits(), b.log_posterior.to_bits());
            assert_eq!(a.magnitude.to_bits(), b.magnitude.to_bits());
        }
    }

    #[test]
    fn fusing_a_round_never_worsens_the_true_covers_rank() {
        // Seeded property sweep: plant 2-3 equal-magnitude faults,
        // observe the noiseless class battery at 4-MS, then fuse the
        // 2-MS battery. The truth predicts both rounds exactly, so
        // accumulating evidence can only hold or improve its position;
        // wrong covers can only lose ground under the joint-magnitude
        // profile.
        let mut rng = SmallRng::seed_from_u64(20260729);
        let space = space8();
        let none = BTreeSet::new();
        let all = space.all_couplings();
        let mut checked = 0usize;
        let mut improved = 0usize;
        for trial in 0..60 {
            let k = 2 + rng.gen_range(0..2usize);
            let mut chosen: BTreeSet<usize> = BTreeSet::new();
            while chosen.len() < k {
                chosen.insert(rng.gen_range(0..all.len()));
            }
            let truth: Vec<Coupling> = chosen.iter().map(|&i| all[i]).collect();
            let u = 0.22 + 0.16 * rng.gen::<f64>();
            let planted: Vec<(Coupling, f64)> = truth.iter().map(|&c| (c, u)).collect();
            let observed4 = noiseless_observed(&planted, 8, 4);
            let failing: FailingSet = observed4
                .iter()
                .filter(|&&(_, s)| s < 0.5)
                .map(|&(class, _)| (class.bit, class.value))
                .collect();
            if failing.is_empty() {
                continue; // all-complementary plant: nothing to rank
            }
            let covers = covers_up_to(&failing, &space, &none, k + 1, 256);
            if !covers.iter().any(|c| {
                let mut s = c.clone();
                s.sort();
                s == truth
            }) {
                continue; // truth shadowed out of the candidate pool
            }
            let rank_of = |ranked: &[RankedCover]| {
                ranked.iter().position(|rc| rc.couplings == truth).expect("truth must be ranked")
            };
            let mut posterior = CoverPosterior::new();
            posterior.observe(observed4.clone(), CoverModel::new(4, ScoreMode::ExactTarget, 0.04));
            let before = rank_of(&posterior.rank(&covers));
            posterior.observe(
                noiseless_observed(&planted, 8, 2),
                CoverModel::new(2, ScoreMode::ExactTarget, 0.04),
            );
            let after = rank_of(&posterior.rank(&covers));
            assert!(
                after <= before,
                "trial {trial}: fusing 2-MS evidence demoted the truth {before} -> {after}"
            );
            checked += 1;
            if after < before {
                improved += 1;
            }
        }
        assert!(checked >= 25, "sweep must exercise enough fixtures: {checked}");
        assert!(improved > 0, "fusion must strictly improve at least one fixture");
    }

    #[test]
    fn veto_round_eliminates_overreaching_covers_only() {
        // A veto round prunes covers that insist on a fault in a class
        // the round observed decisively clean, and never prunes the
        // truth (whose predictions match every round).
        let truth = vec![Coupling::new(0, 1), Coupling::new(2, 3)];
        let planted: Vec<(Coupling, f64)> = truth.iter().map(|&c| (c, 0.30)).collect();
        let space = space8();
        let none = BTreeSet::new();
        let failing = failing_set_of(&truth, &space);
        let covers = covers_up_to(&failing, &space, &none, 4, 96);
        let mut posterior = CoverPosterior::new();
        posterior.observe(
            noiseless_observed(&planted, 8, 4),
            CoverModel::new(4, ScoreMode::ExactTarget, 0.04),
        );
        let baseline = posterior.rank(&covers).len();
        posterior.observe_round(EvidenceRound {
            observed: noiseless_observed(&planted, 8, 2),
            model: CoverModel::new(2, ScoreMode::ExactTarget, 0.04),
            veto_threshold: Some(crate::threshold::contrast_threshold(0.30, 2)),
        });
        let pruned = posterior.rank(&covers);
        assert!(pruned.len() <= baseline);
        assert!(
            pruned.iter().any(|rc| rc.couplings == truth),
            "the truth must survive every veto round"
        );
        for rc in &pruned {
            assert!(!posterior.contradicted(&rc.couplings));
        }
    }

    #[test]
    fn tabulated_profile_matches_per_u_reference() {
        // `rank` reads its forward model from a per-call table of grid
        // rows; it must agree bit for bit with the per-u definition: at
        // every grid magnitude the rounds' `cover_log_likelihood`s sum,
        // the profile maximum wins, and a veto round contradicts a cover
        // when `predicted_class_score` at the fused-MAP magnitude
        // overreaches. Random covers of 1–5 couplings (plus 3–5 members
        // packed into one class, the interference branch), 1–3 rounds of
        // mixed statistics and depths, with and without veto cuts.
        let mut rng = SmallRng::seed_from_u64(0x7AB1E);
        let (u_lo, u_hi, steps) = COVER_U_GRID;
        let none = BTreeSet::new();
        let mut vetoed = 0usize;
        let mut interference = 0usize;
        for n in [8usize, 16] {
            let space = LabelSpace::new(n);
            let all = space.all_couplings();
            let classes = first_round_classes(&space);
            for case in 0..24 {
                let mut posterior = CoverPosterior::new();
                for _ in 0..rng.gen_range(1..=3usize) {
                    let reps = if rng.gen::<bool>() { 2 } else { 4 };
                    let score = if rng.gen::<bool>() {
                        ScoreMode::ExactTarget
                    } else {
                        ScoreMode::WorstQubit
                    };
                    let observed = classes.iter().map(|&class| (class, rng.gen::<f64>())).collect();
                    let veto_threshold =
                        if rng.gen::<bool>() { Some(rng.gen_range(0.2..0.7)) } else { None };
                    posterior.observe_round(EvidenceRound {
                        observed,
                        model: CoverModel::new(reps, score, rng.gen_range(0.02..0.1)),
                        veto_threshold,
                    });
                }
                let mut covers: Vec<Vec<Coupling>> = Vec::new();
                for _ in 0..12 {
                    let size = rng.gen_range(1..=5usize);
                    let mut cover: Vec<Coupling> = Vec::new();
                    while cover.len() < size {
                        let c = all[rng.gen_range(0..all.len())];
                        if !cover.contains(&c) {
                            cover.push(c);
                        }
                    }
                    covers.push(cover);
                }
                for _ in 0..4 {
                    let class = classes[rng.gen_range(0..classes.len())];
                    let mut pool = class.couplings(&space, &none);
                    let size = rng.gen_range(3..=5usize).min(pool.len());
                    let cover: Vec<Coupling> =
                        (0..size).map(|_| pool.swap_remove(rng.gen_range(0..pool.len()))).collect();
                    interference += usize::from(cover.len() >= 3);
                    covers.push(cover);
                }
                // Repeats, reordered, so the table is read as well as filled.
                let again: Vec<Coupling> = covers[0].iter().rev().copied().collect();
                covers.push(again);

                let reference_ll = |cover: &[Coupling], u: f64| -> f64 {
                    posterior
                        .rounds
                        .iter()
                        .map(|r| cover_log_likelihood(cover, u, &r.observed, &r.model))
                        .sum()
                };
                let reference_contradicted = |cover: &[Coupling], u_hat: f64| {
                    posterior.rounds.iter().any(|round| {
                        let Some(t) = round.veto_threshold else {
                            return false;
                        };
                        let margin = round.model.sigma;
                        round.observed.iter().any(|&(class, obs)| {
                            if obs < t + margin {
                                return false;
                            }
                            let members: Vec<Coupling> = cover
                                .iter()
                                .copied()
                                .filter(|&c| class.contains_coupling(c))
                                .collect();
                            !members.is_empty()
                                && predicted_class_score(
                                    &members,
                                    u_hat,
                                    round.model.reps,
                                    round.model.score,
                                ) <= t - margin
                        })
                    })
                };
                let prior = posterior.rounds[0].model.log_fault_prior;
                let has_veto = posterior.rounds.iter().any(|r| r.veto_threshold.is_some());
                let mut reference: Vec<RankedCover> = Vec::new();
                for cover in &covers {
                    let mut best = f64::NEG_INFINITY;
                    let mut best_u = u_lo;
                    for s in 0..steps {
                        let u = u_lo + (u_hi - u_lo) * s as f64 / (steps - 1) as f64;
                        let ll = reference_ll(cover, u);
                        if ll > best {
                            best = ll;
                            best_u = u;
                        }
                    }
                    let contradicted = has_veto && reference_contradicted(cover, best_u);
                    assert_eq!(posterior.contradicted(cover), contradicted, "n={n} case {case}");
                    if contradicted {
                        vetoed += 1;
                        continue;
                    }
                    let mut couplings = cover.clone();
                    couplings.sort();
                    reference.push(RankedCover {
                        couplings,
                        log_posterior: best + prior * cover.len() as f64,
                        magnitude: best_u,
                    });
                }
                reference.sort_by(|a, b| {
                    b.log_posterior
                        .partial_cmp(&a.log_posterior)
                        .unwrap_or(std::cmp::Ordering::Equal)
                        .then(a.couplings.len().cmp(&b.couplings.len()))
                        .then(a.couplings.cmp(&b.couplings))
                });
                let ranked = posterior.rank(&covers);
                assert_eq!(ranked.len(), reference.len(), "n={n} case {case}");
                for (got, want) in ranked.iter().zip(&reference) {
                    assert_eq!(got.couplings, want.couplings, "n={n} case {case}");
                    assert_eq!(got.log_posterior.to_bits(), want.log_posterior.to_bits());
                    assert_eq!(got.magnitude.to_bits(), want.magnitude.to_bits());
                }
            }
        }
        assert!(vetoed > 0, "the sweep must exercise veto pruning");
        assert!(interference > 0, "the sweep must exercise the interference branch");
    }

    #[test]
    fn marginal_accusation_targets_a_planted_member() {
        // On the aliased fixture the marginal interrogation must pick a
        // member of some surviving cover — and with the truth ranked
        // first, a planted coupling.
        let truth = vec![Coupling::new(0, 1), Coupling::new(2, 3)];
        let ranked = ranked_for(&truth, 0.30, 8, 4);
        let accused = marginal_accusation(&ranked).expect("non-empty ranking");
        assert!(truth.contains(&accused), "marginal accusation {accused} must be planted");
        assert!(marginal_accusation(&[]).is_none());
    }

    #[test]
    fn cover_score_peaks_at_planted_magnitude() {
        // Property-style seeded sweep: for disjoint planted faults the
        // truth's log-likelihood, profiled over the magnitude grid, must
        // peak at the planted magnitude and fall off monotonically on
        // both sides (the forward model is exact and monotone here).
        let mut rng = SmallRng::seed_from_u64(2022);
        let space = space8();
        let all = space.all_couplings();
        let model = CoverModel::new(4, ScoreMode::ExactTarget, 0.04);
        let (u_lo, u_hi, steps) = COVER_U_GRID;
        let step = (u_hi - u_lo) / (steps - 1) as f64;
        for trial in 0..25 {
            // Two faults on disjoint qubits, random magnitude.
            let (a, b) = loop {
                let a = all[rng.gen_range(0..all.len())];
                let b = all[rng.gen_range(0..all.len())];
                let (a0, a1) = a.endpoints();
                let (b0, b1) = b.endpoints();
                if a0 != b0 && a0 != b1 && a1 != b0 && a1 != b1 {
                    break (a, b);
                }
            };
            let u_true = 0.12 + 0.30 * rng.gen::<f64>();
            let truth = vec![a, b];
            let observed = noiseless_observed(&[(a, u_true), (b, u_true)], 8, 4);
            let lls: Vec<f64> = (0..steps)
                .map(|s| {
                    let u = u_lo + step * s as f64;
                    cover_log_likelihood(&truth, u, &observed, &model)
                })
                .collect();
            let peak = lls
                .iter()
                .enumerate()
                .max_by(|(_, x), (_, y)| x.partial_cmp(y).unwrap())
                .map(|(i, _)| i)
                .unwrap();
            let u_peak = u_lo + step * peak as f64;
            assert!((u_peak - u_true).abs() <= step, "trial {trial}: peak {u_peak} vs {u_true}");
            for i in 1..=peak {
                assert!(lls[i] >= lls[i - 1] - 1e-9, "trial {trial}: rise violated at {i}");
            }
            for i in (peak + 1)..lls.len() {
                assert!(lls[i] <= lls[i - 1] + 1e-9, "trial {trial}: fall violated at {i}");
            }
        }
    }

    #[test]
    fn ranking_margins_are_monotone_in_magnitude() {
        // Monotonicity in fault magnitude at the ranking level, swept
        // over the threshold-tripping band (a 4-MS class test first
        // fails the 0.5 threshold at u ≈ 0.25). Three properties fall
        // out of the forward model and all are asserted:
        //
        // (i) the planted cover ranks first everywhere and its fitted
        //     magnitude tracks the planted one monotonically;
        // (ii) supersets of the truth's aliasing family predict the
        //      *identical* analog score vector, so their posterior gap
        //      is pinned at exactly the per-member size prior at every
        //      magnitude — the prior, not the likelihood, is what keeps
        //      them ranked below the truth;
        // (iii) the margin over the best same-size wrong cover is
        //       decisive everywhere but shrinks monotonically as the
        //       magnitude approaches the 0.5 saturation point, where
        //       all class scores compress (footnote 8): bigger faults
        //       are *harder*, not easier, to tell apart near
        //       saturation.
        let truth = vec![Coupling::new(0, 1), Coupling::new(2, 3)];
        let mut last_mag = f64::NEG_INFINITY;
        let mut last_margin = f64::INFINITY;
        for &u in &[0.27, 0.30, 0.33, 0.36] {
            let ranked = ranked_for(&truth, u, 8, 4);
            assert_eq!(ranked[0].couplings, truth, "u={u}");
            assert!((ranked[0].magnitude - u).abs() < 0.02, "fitted u {}", ranked[0].magnitude);
            assert!(ranked[0].magnitude > last_mag, "fitted magnitude must track planted (u={u})");
            last_mag = ranked[0].magnitude;

            let superset = ranked
                .iter()
                .filter(|rc| rc.couplings.len() > truth.len())
                .max_by(|a, b| a.log_posterior.partial_cmp(&b.log_posterior).unwrap())
                .expect("an analog-exact superset alias exists");
            let prior_gap = ranked[0].log_posterior - superset.log_posterior;
            assert!(
                (prior_gap + COVER_LOG_FAULT_PRIOR).abs() < 1e-9,
                "superset gap must be exactly the size prior: {prior_gap} (u={u})"
            );

            let wrong = ranked
                .iter()
                .filter(|rc| rc.couplings.len() == truth.len() && rc.couplings != truth)
                .max_by(|a, b| a.log_posterior.partial_cmp(&b.log_posterior).unwrap())
                .expect("a same-size aliased wrong cover exists");
            let margin = ranked[0].log_posterior - wrong.log_posterior;
            assert!(margin > 2.0 * COVER_TIE_MARGIN, "must be decisive at u={u}: margin {margin}");
            assert!(
                margin < last_margin,
                "margin must shrink toward saturation: {margin} !< {last_margin} (u={u})"
            );
            last_margin = margin;
        }
    }
}
