//! Static cost model for the simulation backends.
//!
//! Predicts what a test plan will spend *before* any shot is burned, in
//! the two currencies the analytic engine actually pays:
//!
//! * **table build** — preparing a `c`-qubit component's outcome
//!   distribution walks `2^c` Gray-code phases and runs a `c·2^c`
//!   Walsh–Hadamard pass;
//! * **shots** — each output string draws one uniform per component and
//!   resolves it against the component's cumulative table in
//!   `log2(2^c)` bisection steps.
//!
//! Exact single-target scoring (the analytic scalar path) pays one Gray
//! walk per component without the transform. The constants are calibrated on the
//! reference 1-vCPU container; they are *order-of-magnitude* honest,
//! not microbenchmarks — the CI gate accepts a predicted/measured ratio
//! anywhere in `[0.25, 4.0]` and exists to catch the model (or the
//! engine) drifting out of touch, not to flatter it.
//!
//! The bench binaries assemble whole-run [`CostReport`]s from these
//! per-circuit primitives under `--cost-report` (see
//! `itqc_bench::cost_report`).

use std::fmt;

/// Seconds per Gray-code phase step (one `cis` evaluation plus the
/// running-sum updates) — the unit of both table builds and exact
/// single-target walks.
pub const PHASE_STEP_SECONDS: f64 = 22e-9;

/// Seconds per Walsh–Hadamard butterfly (one add/sub pair on the
/// re/im tables).
pub const BUTTERFLY_SECONDS: f64 = 2.5e-9;

/// Fixed seconds per drawn output string per component: one uniform
/// variate plus the bisection setup.
pub const DRAW_SECONDS: f64 = 14e-9;

/// Seconds per bisection step of the inverse-CDF search.
pub const SEARCH_STEP_SECONDS: f64 = 2.0e-9;

/// Seconds per score-memo lookup that *hits* (hash the circuit key,
/// probe the thread's table, return the stored float). The observed
/// per-phase cost report prices memoised evaluations at this instead of
/// a full exact walk — mispricing them as walks is exactly the table2
/// 3.11× over-count the per-phase table was built to localise.
pub const SCORE_MEMO_LOOKUP_SECONDS: f64 = 2.0e-7;

/// Special-set size the static model assumes for chain-sampled
/// components. Plans priced before the noisy angles exist cannot know
/// how many qubits a trial's planted faults will touch; two (one
/// deviant pair) is the protocol's common case, and the chain build
/// only grows by `2×` per extra special qubit — well inside the CI
/// gate's `[0.25, 4.0]` bracket for the plausible `t ≤ 4`.
pub const CHAIN_ASSUMED_SPECIAL: usize = 2;

/// The static backend cost model. Distinct from the paper's Fig. 10
/// *protocol* cost model (`itqc_core::cost`), which counts tests and
/// shots on simulated hardware — this one prices the simulation itself.
#[derive(Clone, Copy, Debug)]
pub struct SimCostModel {
    phase_step: f64,
    butterfly: f64,
    draw: f64,
    search_step: f64,
}

impl Default for SimCostModel {
    fn default() -> Self {
        SimCostModel {
            phase_step: PHASE_STEP_SECONDS,
            butterfly: BUTTERFLY_SECONDS,
            draw: DRAW_SECONDS,
            search_step: SEARCH_STEP_SECONDS,
        }
    }
}

impl SimCostModel {
    /// The reference-container model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Seconds to build the outcome tables of one preparation with the
    /// given component sizes: the joint Gray walk + Walsh–Hadamard at
    /// or below [`crate::MAX_COMPONENT`] qubits, the chain sampler's
    /// `(z_T, k)` amplitude table above it (routing matches
    /// `XxPrepared`, so call sites never branch on size).
    pub fn table_build_seconds(&self, component_sizes: &[usize]) -> f64 {
        component_sizes
            .iter()
            .map(|&c| {
                if c <= crate::MAX_COMPONENT {
                    let size = (1u64 << c) as f64;
                    size * self.phase_step + c as f64 * size * self.butterfly
                } else {
                    self.chain_build_seconds(c, CHAIN_ASSUMED_SPECIAL)
                }
            })
            .sum()
    }

    /// Seconds to build one chain-sampled component's tables at an
    /// explicit special-set size: `2^t·(n+1)` trig evaluations plus
    /// `2^t·(n+1)·(n+1+t)` Krawtchouk-dot and Walsh–Hadamard
    /// multiply-adds plus the `O(n²)` binomial/Krawtchouk setup
    /// (`n = c − t`).
    pub fn chain_build_seconds(&self, c: usize, t: usize) -> f64 {
        let t = t.min(c);
        let n = (c - t) as f64;
        let tsize = (1u64 << t) as f64;
        tsize * (n + 1.0) * self.phase_step
            + (tsize * (n + 1.0) * (n + 1.0 + t as f64) + n * n) * self.butterfly
    }

    /// Seconds for one exact single-target evaluation: the `2^c` oracle
    /// Gray walk below the joint cap, one `O(c)` chain-table lookup
    /// above it (the chain path answers targets from its built
    /// `(z_T, k)` table, never by enumeration).
    pub fn exact_walk_seconds(&self, component_sizes: &[usize]) -> f64 {
        component_sizes
            .iter()
            .map(|&c| {
                if c <= crate::MAX_COMPONENT {
                    (1u64 << c) as f64 * self.phase_step
                } else {
                    c as f64 * self.search_step
                }
            })
            .sum()
    }

    /// Seconds to draw `shots` output strings from built tables: a
    /// `log2`-free flat-CDF bisection (`c` steps) per joint component,
    /// the `O(c²/2)` conditional-boundary descent per chain component.
    /// A descent step is a binomial-weighted partial sum — one
    /// multiply-add over two table reads — measured ~6× a bisection
    /// probe on the fig8 N=64 workload, so the chain step count carries
    /// that factor (`3c²` probe-equivalents ≈ `c²/2` descent steps).
    pub fn sample_seconds(&self, component_sizes: &[usize], shots: u64) -> f64 {
        let per_shot: f64 = component_sizes
            .iter()
            .map(|&c| {
                let steps = if c <= crate::MAX_COMPONENT { c as f64 } else { 3.0 * (c * c) as f64 };
                self.draw + steps * self.search_step
            })
            .sum();
        shots as f64 * per_shot
    }
}

/// An accumulated prediction for a whole run: how many preparations and
/// shots the plan needs and what the model prices them at.
#[derive(Clone, Copy, Debug, Default)]
pub struct CostReport {
    /// Predicted seconds building outcome tables.
    pub table_seconds: f64,
    /// Predicted seconds in exact single-target walks.
    pub walk_seconds: f64,
    /// Predicted seconds drawing output strings.
    pub sample_seconds: f64,
    /// Preparations (table builds) the plan needs.
    pub preparations: u64,
    /// Exact single-target evaluations the plan needs.
    pub walks: u64,
    /// Output strings the plan draws.
    pub shots: u64,
}

impl CostReport {
    /// Accumulates `count` table builds of the given component shape.
    pub fn add_builds(&mut self, model: &SimCostModel, component_sizes: &[usize], count: u64) {
        self.preparations += count;
        self.table_seconds += count as f64 * model.table_build_seconds(component_sizes);
    }

    /// Accumulates `count` exact single-target walks.
    pub fn add_walks(&mut self, model: &SimCostModel, component_sizes: &[usize], count: u64) {
        self.walks += count;
        self.walk_seconds += count as f64 * model.exact_walk_seconds(component_sizes);
    }

    /// Accumulates `shots` drawn strings against the given shape.
    pub fn add_shots(&mut self, model: &SimCostModel, component_sizes: &[usize], shots: u64) {
        self.shots += shots;
        self.sample_seconds += model.sample_seconds(component_sizes, shots);
    }

    /// Total predicted seconds.
    pub fn total_seconds(&self) -> f64 {
        self.table_seconds + self.walk_seconds + self.sample_seconds
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &CostReport) {
        self.table_seconds += other.table_seconds;
        self.walk_seconds += other.walk_seconds;
        self.sample_seconds += other.sample_seconds;
        self.preparations += other.preparations;
        self.walks += other.walks;
        self.shots += other.shots;
    }
}

impl fmt::Display for CostReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} preps ({:.3} s) + {} walks ({:.3} s) + {} shots ({:.3} s) = {:.3} s predicted",
            self.preparations,
            self.table_seconds,
            self.walks,
            self.walk_seconds,
            self.shots,
            self.sample_seconds,
            self.total_seconds()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn costs_scale_with_component_size_and_shots() {
        let model = SimCostModel::new();
        // Table builds are exponential in component size.
        let small = model.table_build_seconds(&[8]);
        let big = model.table_build_seconds(&[16]);
        assert!(big > 100.0 * small, "{big} vs {small}");
        // Splitting a register into components is cheaper than one
        // joint walk.
        assert!(model.exact_walk_seconds(&[8, 8]) < model.exact_walk_seconds(&[16]));
        // Sampling is linear in shots and much cheaper per shot than
        // the build.
        let s1 = model.sample_seconds(&[16], 1);
        let s300 = model.sample_seconds(&[16], 300);
        assert!((s300 / s1 - 300.0).abs() < 1e-6);
        assert!(model.table_build_seconds(&[16]) > 100.0 * s1);
    }

    #[test]
    fn chain_costs_stay_polynomial_beyond_the_joint_cap() {
        let model = SimCostModel::new();
        // A 64-qubit chain component must price *far* below what the
        // joint formula would give a 21-qubit one — polynomial, not
        // exponential — and the pricing must not overflow the shift.
        let chain64 = model.table_build_seconds(&[64]);
        let joint20 = model.table_build_seconds(&[20]);
        assert!(chain64 > 0.0 && chain64.is_finite());
        assert!(chain64 < joint20, "chain 64q {chain64} vs joint 20q {joint20}");
        let chain128 = model.table_build_seconds(&[128]);
        assert!(chain128 > chain64 && chain128.is_finite());
        // Build grows ~2× per extra special qubit at fixed size.
        let t2 = model.chain_build_seconds(64, 2);
        let t3 = model.chain_build_seconds(64, 3);
        assert!(t3 > 1.5 * t2 && t3 < 2.5 * t2, "{t3} vs {t2}");
        // Exact lookups and sampling are polynomial too, and a chain
        // draw costs more search steps than a joint one.
        assert!(model.exact_walk_seconds(&[64]) < model.exact_walk_seconds(&[20]));
        let chain_shot = model.sample_seconds(&[32], 1);
        let joint_shot = model.sample_seconds(&[20], 1);
        assert!(chain_shot > joint_shot);
        assert!(model.sample_seconds(&[128], 1000).is_finite());
    }

    #[test]
    fn report_accumulates_and_merges() {
        let model = SimCostModel::new();
        let mut a = CostReport::default();
        a.add_builds(&model, &[4, 2], 10);
        a.add_shots(&model, &[4, 2], 3000);
        a.add_walks(&model, &[4], 5);
        assert_eq!((a.preparations, a.shots, a.walks), (10, 3000, 5));
        let total = a.total_seconds();
        assert!(total > 0.0);
        let mut b = CostReport::default();
        b.merge(&a);
        b.merge(&a);
        assert!((b.total_seconds() - 2.0 * total).abs() < 1e-12);
        assert_eq!(b.shots, 6000);
        // Display carries the headline number.
        assert!(format!("{a}").contains("predicted"));
    }
}
