//! The virtual ion-trap machine.
//!
//! [`VirtualTrap`] stands in for the commercial 11-qubit ion trap of the
//! paper's §VI (see `DESIGN.md` §1 for the substitution argument). It keeps
//! a hidden per-coupling miscalibration state, evolves it under drift,
//! executes circuits with the full §III noise model and finite shots, and
//! bills every operation to a duty-cycle ledger through the §VIII timing
//! model.
//!
//! Two execution paths are provided, matching the paper's own methodology:
//!
//! * [`VirtualTrap::run_circuit`] — dense trajectory simulation with every
//!   noise channel (amplitude, 1/f phase, residual bus, SPAM); used at
//!   hardware scale (≤ ~14 qubits).
//! * [`VirtualTrap::run_xx_test`] — the exact commuting-XX engine for test
//!   circuits, with amplitude-type channels and SPAM attenuation; scales to
//!   32+ qubits exactly like the paper's scaling study, which "suppresses
//!   phase noise and residual couplings" (§VII).

use crate::duty::{Activity, DutyLedger};
use crate::timing::TimingModel;
use itqc_circuit::{Circuit, Coupling};
use itqc_faults::drift::DriftProcess;
use itqc_faults::models::CouplingFault;
use itqc_faults::phase_noise::OneOverF;
use itqc_faults::{IonTrapNoise, SpamModel};
use itqc_math::rng::standard_normal;
use itqc_sim::trajectory::run_trajectory;
use itqc_sim::{shots, XxCircuit};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

/// Configuration of a [`VirtualTrap`].
#[derive(Clone, Debug)]
pub struct TrapConfig {
    /// Register size.
    pub n_qubits: usize,
    /// RNG seed (the machine is fully deterministic given the seed).
    pub seed: u64,
    /// Per-gate random relative amplitude jitter (std of a zero-mean
    /// normal). 0 disables.
    pub amplitude_jitter_std: f64,
    /// Additive angle jitter on single-qubit rotation gates (radians).
    /// 0 disables.
    pub one_qubit_jitter_std: f64,
    /// RMS of 1/f phase noise on MS beam phases (radians). 0 disables.
    pub phase_noise_rms: f64,
    /// Odd-population leakage per MS gate from residual bus coupling.
    /// 0 disables.
    pub residual_odd_population: f64,
    /// Readout error model.
    pub spam: SpamModel,
    /// Residual |under-rotation| remaining immediately after a coupling is
    /// recalibrated (drawn uniformly in `[−r, r]`).
    pub recalibration_residual: f64,
    /// Wall-clock cost of recalibrating one coupling, seconds.
    pub recalibration_seconds: f64,
    /// Timing model for everything else.
    pub timing: TimingModel,
}

impl TrapConfig {
    /// A machine with the paper's §VI noise operating point: 1% residual
    /// odd population, 1/f phase noise, sub-1% SPAM, and no ambient
    /// amplitude jitter (add it per experiment).
    pub fn paper_like(n_qubits: usize, seed: u64) -> Self {
        TrapConfig {
            n_qubits,
            seed,
            amplitude_jitter_std: 0.0,
            one_qubit_jitter_std: 0.02,
            phase_noise_rms: 0.03,
            residual_odd_population: 0.01,
            spam: SpamModel::new(0.004, 0.006),
            recalibration_residual: 0.01,
            recalibration_seconds: 1.0,
            timing: TimingModel::paper_defaults(),
        }
    }

    /// A noiseless ideal machine (useful for protocol logic tests).
    pub fn ideal(n_qubits: usize, seed: u64) -> Self {
        TrapConfig {
            n_qubits,
            seed,
            amplitude_jitter_std: 0.0,
            one_qubit_jitter_std: 0.0,
            phase_noise_rms: 0.0,
            residual_odd_population: 0.0,
            spam: SpamModel::IDEAL,
            recalibration_residual: 0.0,
            recalibration_seconds: 1.0,
            timing: TimingModel::paper_defaults(),
        }
    }
}

/// Exact statistics of one commuting-XX test circuit, as
/// [`VirtualTrap::read_out_xx_test`] consumes them.
#[derive(Clone, Debug, PartialEq)]
pub enum XxStats {
    /// The probability of the target string.
    Target(f64),
    /// Each support qubit's probability of reading its target bit, in
    /// ascending qubit order.
    Agreements(Vec<f64>),
}

/// The virtual machine. See the module docs.
#[derive(Clone, Debug)]
pub struct VirtualTrap {
    config: TrapConfig,
    calibration: BTreeMap<Coupling, f64>,
    rng: SmallRng,
    clock_seconds: f64,
    duty: DutyLedger,
}

impl VirtualTrap {
    /// Builds a perfectly calibrated machine.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits < 2`.
    pub fn new(config: TrapConfig) -> Self {
        assert!(config.n_qubits >= 2, "a trap needs at least two qubits");
        let mut calibration = BTreeMap::new();
        for a in 0..config.n_qubits {
            for b in (a + 1)..config.n_qubits {
                calibration.insert(Coupling::new(a, b), 0.0);
            }
        }
        let rng = SmallRng::seed_from_u64(config.seed);
        VirtualTrap { config, calibration, rng, clock_seconds: 0.0, duty: DutyLedger::new() }
    }

    /// Register size.
    pub fn n_qubits(&self) -> usize {
        self.config.n_qubits
    }

    /// The machine configuration.
    pub fn config(&self) -> &TrapConfig {
        &self.config
    }

    /// All `C(N,2)` couplings, ascending.
    pub fn couplings(&self) -> Vec<Coupling> {
        self.calibration.keys().copied().collect()
    }

    /// Machine wall clock, seconds since construction.
    pub fn clock_seconds(&self) -> f64 {
        self.clock_seconds
    }

    /// The duty-cycle ledger accumulated so far.
    pub fn duty(&self) -> &DutyLedger {
        &self.duty
    }

    /// Ground-truth under-rotation of a coupling. Hidden from the
    /// protocols (they must discover it through tests); exposed for
    /// validation and oracles.
    ///
    /// # Panics
    ///
    /// Panics if the coupling does not exist on this machine.
    pub fn true_under_rotation(&self, coupling: Coupling) -> f64 {
        *self.calibration.get(&coupling).expect("coupling not on this machine")
    }

    /// Sets the miscalibration of one coupling (the paper's "artificially
    /// introduced errors", §VI).
    ///
    /// # Panics
    ///
    /// Panics if the coupling does not exist on this machine.
    pub fn inject_fault(&mut self, coupling: Coupling, under_rotation: f64) {
        let slot = self.calibration.get_mut(&coupling).expect("coupling not on this machine");
        *slot = under_rotation;
    }

    /// Draws an ambient miscalibration for every coupling: zero-mean
    /// normal with `E|u| = mean_abs` (the paper's "10% average calibration
    /// error" convention — see DESIGN.md §3.3).
    pub fn randomize_calibration(&mut self, mean_abs: f64) {
        let sigma = mean_abs * (std::f64::consts::PI / 2.0).sqrt();
        for v in self.calibration.values_mut() {
            *v = sigma * standard_normal(&mut self.rng);
        }
    }

    /// Draws every coupling's under-rotation from an arbitrary law (e.g.
    /// the Fig. 9 composite distribution).
    pub fn calibration_from_law<D: itqc_math::rng::Distribution>(&mut self, law: &D) {
        for v in self.calibration.values_mut() {
            *v = law.sample(&mut self.rng);
        }
    }

    /// Recalibrates one coupling: its error drops to the configured
    /// post-calibration residual, and the ledger is billed.
    ///
    /// # Panics
    ///
    /// Panics if the coupling does not exist on this machine.
    pub fn recalibrate(&mut self, coupling: Coupling) {
        let r = self.config.recalibration_residual;
        let residual = if r > 0.0 { self.rng.gen_range(-r..r) } else { 0.0 };
        let slot = self.calibration.get_mut(&coupling).expect("coupling not on this machine");
        *slot = residual;
        let dt = self.config.recalibration_seconds;
        self.clock_seconds += dt;
        self.duty.record(Activity::Calibration, dt);
    }

    /// Advances the wall clock by `minutes`, applying `drift` to every
    /// coupling and billing the time as idle.
    pub fn advance_time<D: DriftProcess>(&mut self, minutes: f64, drift: &D) {
        self.apply_drift(minutes, drift);
        self.clock_seconds += minutes * 60.0;
        self.duty.record(Activity::Idle, minutes * 60.0);
    }

    /// Applies `minutes` worth of drift to every coupling *without*
    /// billing wall clock — for callers that already billed the elapsed
    /// time to a specific activity (e.g. job execution).
    pub fn apply_drift<D: DriftProcess>(&mut self, minutes: f64, drift: &D) {
        for v in self.calibration.values_mut() {
            *v = drift.advance(*v, minutes, &mut self.rng);
        }
    }

    /// Bills job time (customer circuits) without simulating them — used
    /// by duty-cycle studies.
    pub fn bill_job_time(&mut self, seconds: f64) {
        self.clock_seconds += seconds;
        self.duty.record(Activity::Jobs, seconds);
    }

    /// Bills idle wall clock without applying drift — for schedulers
    /// that manage drift on their own cadence (cf. [`Self::advance_time`],
    /// which couples the two).
    pub fn bill_idle_time(&mut self, seconds: f64) {
        self.clock_seconds += seconds;
        self.duty.record(Activity::Idle, seconds);
    }

    /// Draws `shots` Bernoulli(`p`) outcomes from the machine's own RNG
    /// stream and returns the hit count (`p` clamped to `[0, 1]`). The
    /// caller is responsible for billing any test time (see
    /// [`Self::bill_test_time`]).
    pub fn observe_binomial(&mut self, shot_count: usize, p: f64) -> usize {
        shots::binomial(&mut self.rng, shot_count, p.clamp(0.0, 1.0))
    }

    /// Bills one classical adaptation round that compiles pulses for
    /// `couplings_compiled` couplings.
    pub fn bill_adaptation(&mut self, couplings_compiled: usize) {
        let dt = self.config.timing.adaptation(couplings_compiled);
        self.clock_seconds += dt;
        self.duty.record(Activity::Adaptation, dt);
    }

    /// Bills testing time computed externally (e.g. a characterisation
    /// procedure modelled analytically rather than simulated shot by
    /// shot) without running circuits.
    pub fn bill_test_time(&mut self, seconds: f64) {
        self.clock_seconds += seconds;
        self.duty.record(Activity::Testing, seconds);
    }

    fn noise_model(&mut self) -> IonTrapNoise {
        let faults: Vec<CouplingFault> =
            self.calibration.iter().map(|(&c, &u)| CouplingFault::new(c, u)).collect();
        let mut model = IonTrapNoise::new()
            .with_coupling_faults(faults)
            .with_amplitude_noise(self.config.amplitude_jitter_std)
            .with_one_qubit_noise(self.config.one_qubit_jitter_std);
        if self.config.phase_noise_rms > 0.0 {
            model = model.with_phase_noise(OneOverF::new(self.config.phase_noise_rms, 1.0, 8), 0.2);
        }
        if self.config.residual_odd_population > 0.0 {
            model = model.with_residual_coupling(self.config.residual_odd_population);
        }
        model
    }

    /// Executes `circuit` for `shots` shots with the full noise model and
    /// per-shot trajectory sampling (dense backend). Outcomes include SPAM
    /// corruption. Time is billed to `activity`.
    ///
    /// # Panics
    ///
    /// Panics if the circuit register exceeds the machine or the dense
    /// backend limit.
    pub fn run_circuit(
        &mut self,
        circuit: &Circuit,
        shot_count: usize,
        activity: Activity,
    ) -> BTreeMap<usize, usize> {
        assert!(circuit.n_qubits() <= self.config.n_qubits, "circuit does not fit the machine");
        let mut model = self.noise_model();
        let mut counts = BTreeMap::new();
        for _ in 0..shot_count {
            let state = run_trajectory(circuit, &mut model, &mut self.rng);
            let raw = state.sample(&mut self.rng);
            let read = self.config.spam.corrupt(raw, circuit.n_qubits(), &mut self.rng);
            *counts.entry(read).or_insert(0) += 1;
        }
        let dt = self.config.timing.shots(
            self.config.n_qubits,
            circuit.two_qubit_gate_count(),
            circuit.len() - circuit.two_qubit_gate_count(),
            shot_count,
        );
        self.clock_seconds += dt;
        self.duty.record(activity, dt);
        counts
    }

    /// Executes a pure-XX test circuit on the exact commuting-XX engine
    /// and returns the number of shots observed on `target`.
    ///
    /// Includes deterministic coupling faults, quasi-static per-gate
    /// amplitude jitter, and SPAM attenuation of the target string; phase
    /// noise and residual bus coupling are not representable in the XX
    /// engine (the paper's scaling study suppresses them too, §VII).
    ///
    /// `gates` lists `(coupling, θ)` in program order.
    pub fn run_xx_test(
        &mut self,
        gates: &[(Coupling, f64)],
        target: itqc_sim::BitString,
        shot_count: usize,
        activity: Activity,
    ) -> usize {
        let xx = self.jittered_xx(gates);
        let stats = XxStats::Target(xx.fidelity(target));
        self.read_out_xx_test(stats, target, gates.len(), shot_count, activity)
    }

    /// Population-scored variant of [`Self::run_xx_test`]: computes every
    /// support qubit's marginal agreement with `target`, samples each with
    /// `shot_count` shots, and returns the hit count of the *worst* qubit.
    ///
    /// This is the statistic that survives ambient miscalibration at
    /// 32-qubit class sizes, where the exact-string probability collapses
    /// (see `itqc_sim::xx::XxCircuit::min_qubit_agreement`). Per-qubit
    /// samples are drawn independently; correlations between qubit
    /// readouts shift the minimum statistic only at second order.
    pub fn run_xx_test_population(
        &mut self,
        gates: &[(Coupling, f64)],
        target: itqc_sim::BitString,
        shot_count: usize,
        activity: Activity,
    ) -> usize {
        let xx = self.jittered_xx(gates);
        let stats = XxStats::Agreements(
            xx.support().into_iter().map(|q| xx.qubit_agreement(q, target)).collect(),
        );
        self.read_out_xx_test(stats, target, gates.len(), shot_count, activity)
    }

    /// The commuting-XX circuit the machine actually executes for
    /// `gates`: each angle scaled by its coupling's static
    /// under-rotation plus, when configured, a fresh per-gate amplitude
    /// jitter draw.
    fn jittered_xx(&mut self, gates: &[(Coupling, f64)]) -> XxCircuit {
        let mut xx = XxCircuit::new(self.config.n_qubits);
        for &(coupling, theta) in gates {
            let u_static = self.true_under_rotation(coupling);
            let jitter = if self.config.amplitude_jitter_std > 0.0 {
                self.config.amplitude_jitter_std * standard_normal(&mut self.rng)
            } else {
                0.0
            };
            let (a, b) = coupling.endpoints();
            xx.add_xx(a, b, theta * (1.0 - u_static - jitter));
        }
        xx
    }

    /// The readout step every exact XX test shares, for executors that
    /// computed the circuit's statistics themselves (e.g. the fleet's,
    /// through the memoised exact-score path): SPAM attenuation, one binomial
    /// draw per statistic on the machine's own RNG, and the test time of
    /// `gate_count` two-qubit gates billed to `activity`. Returns the
    /// target hit count, or the worst qubit's agreement count. Keeping
    /// the draws on the trap's RNG keeps the machine deterministic in its
    /// seed no matter which executor runs its tests.
    pub fn read_out_xx_test(
        &mut self,
        stats: XxStats,
        target: itqc_sim::BitString,
        gate_count: usize,
        shot_count: usize,
        activity: Activity,
    ) -> usize {
        let spam = self.config.spam;
        let hits = match stats {
            XxStats::Target(p) => {
                let retention = spam.retention(target, self.config.n_qubits);
                self.observe_binomial(shot_count, p * retention)
            }
            XxStats::Agreements(agreements) => {
                let keep = 1.0 - (spam.p01 + spam.p10) / 2.0;
                agreements
                    .into_iter()
                    .map(|p| self.observe_binomial(shot_count, p * keep))
                    .fold(shot_count, usize::min)
            }
        };
        let dt = self.config.timing.shots(self.config.n_qubits, gate_count, 0, shot_count);
        self.clock_seconds += dt;
        self.duty.record(activity, dt);
        hits
    }

    /// Directly monitors every coupling's XX angle with `shot_count` shots
    /// each (single fully-entangling MS per coupling, populations →
    /// angle): the paper's Fig. 7C "MS-gate quality snapshot".
    ///
    /// Returns `(coupling, estimated under-rotation)` pairs.
    pub fn snapshot_under_rotations(&mut self, shot_count: usize) -> Vec<(Coupling, f64)> {
        let couplings = self.couplings();
        let mut out = Vec::with_capacity(couplings.len());
        for coupling in couplings {
            let u = self.true_under_rotation(coupling);
            let theta = std::f64::consts::FRAC_PI_2 * (1.0 - u);
            let p11_true = (theta / 2.0).sin().powi(2);
            let ones = shots::binomial(&mut self.rng, shot_count, p11_true);
            let p11 = ones as f64 / shot_count.max(1) as f64;
            let est = itqc_faults::estimator::estimate_xx_angle(1.0 - p11, p11);
            out.push((coupling, itqc_faults::estimator::under_rotation_from_angle(est)));
            let dt = self.config.timing.shots(self.config.n_qubits, 1, 0, shot_count);
            self.clock_seconds += dt;
            self.duty.record(Activity::Testing, dt);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_PI_2;

    fn four_ms_gates(c: Coupling) -> Vec<(Coupling, f64)> {
        vec![(c, FRAC_PI_2); 4]
    }

    #[test]
    fn ideal_machine_passes_perfect_tests() {
        let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 1));
        let c = Coupling::new(0, 4);
        let hits = trap.run_xx_test(&four_ms_gates(c), 0, 300, Activity::Testing);
        assert_eq!(hits, 300);
    }

    #[test]
    fn injected_fault_shows_in_xx_test() {
        let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 2));
        let c = Coupling::new(0, 4);
        trap.inject_fault(c, 0.47);
        let hits = trap.run_xx_test(&four_ms_gates(c), 0, 300, Activity::Testing);
        let expect = (std::f64::consts::PI * 0.47).cos().powi(2);
        let p = hits as f64 / 300.0;
        assert!((p - expect).abs() < 0.08, "p {p} vs {expect}");
    }

    #[test]
    fn dense_and_xx_paths_agree_on_amplitude_faults() {
        let mut cfg = TrapConfig::ideal(4, 3);
        cfg.spam = SpamModel::IDEAL;
        let mut trap = VirtualTrap::new(cfg);
        let c = Coupling::new(1, 3);
        trap.inject_fault(c, 0.22);
        // XX path.
        let hits = trap.run_xx_test(&four_ms_gates(c), 0, 4000, Activity::Testing);
        // Dense path.
        let mut circuit = Circuit::new(4);
        for _ in 0..4 {
            circuit.xx(1, 3, FRAC_PI_2);
        }
        let counts = trap.run_circuit(&circuit, 4000, Activity::Testing);
        let dense_p = *counts.get(&0).unwrap_or(&0) as f64 / 4000.0;
        let xx_p = hits as f64 / 4000.0;
        assert!((dense_p - xx_p).abs() < 0.05, "dense {dense_p} vs xx {xx_p}");
    }

    #[test]
    fn recalibration_clears_faults() {
        let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 4));
        let c = Coupling::new(2, 5);
        trap.inject_fault(c, 0.3);
        assert_eq!(trap.true_under_rotation(c), 0.3);
        trap.recalibrate(c);
        assert_eq!(trap.true_under_rotation(c), 0.0);
        assert!(trap.duty().seconds(Activity::Calibration) > 0.0);
    }

    #[test]
    fn randomize_calibration_has_requested_spread() {
        let mut trap = VirtualTrap::new(TrapConfig::ideal(16, 5));
        trap.randomize_calibration(0.10);
        let mean_abs: f64 =
            trap.couplings().iter().map(|&c| trap.true_under_rotation(c).abs()).sum::<f64>()
                / trap.couplings().len() as f64;
        assert!((mean_abs - 0.10).abs() < 0.02, "mean |u| = {mean_abs}");
    }

    #[test]
    fn drift_moves_calibration() {
        use itqc_faults::drift::OrnsteinUhlenbeckDrift;
        let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 6));
        let d = OrnsteinUhlenbeckDrift { tau_minutes: 30.0, sigma: 0.05 };
        trap.advance_time(15.0, &d);
        let moved =
            trap.couplings().iter().filter(|&&c| trap.true_under_rotation(c).abs() > 1e-6).count();
        assert!(moved > 20, "most couplings should have drifted, moved = {moved}");
        assert!(trap.clock_seconds() >= 15.0 * 60.0);
    }

    #[test]
    fn observe_binomial_matches_run_xx_test_on_same_seed() {
        // Same seed, same p → the external-executor sampling path draws
        // the exact shot sequence run_xx_test would have drawn.
        let c = Coupling::new(0, 1);
        let mut a = VirtualTrap::new(TrapConfig::ideal(4, 77));
        a.inject_fault(c, 0.2);
        let via_test = a.run_xx_test(&four_ms_gates(c), 0, 500, Activity::Testing);
        let mut b = VirtualTrap::new(TrapConfig::ideal(4, 77));
        b.inject_fault(c, 0.2);
        let mut xx = itqc_sim::XxCircuit::new(4);
        for _ in 0..4 {
            xx.add_xx(0, 1, FRAC_PI_2 * 0.8);
        }
        let p = xx.fidelity(0);
        assert_eq!(b.observe_binomial(500, p), via_test);
    }

    #[test]
    fn bill_idle_time_records_without_drift() {
        let mut trap = VirtualTrap::new(TrapConfig::ideal(4, 12));
        trap.bill_idle_time(42.0);
        assert_eq!(trap.duty().seconds(Activity::Idle), 42.0);
        assert_eq!(trap.clock_seconds(), 42.0);
        // No drift was applied: calibration stays exactly zero.
        for c in trap.couplings() {
            assert_eq!(trap.true_under_rotation(c), 0.0);
        }
    }

    #[test]
    fn duty_ledger_tracks_activities() {
        let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 7));
        trap.bill_job_time(100.0);
        let c = Coupling::new(0, 1);
        let _ = trap.run_xx_test(&four_ms_gates(c), 0, 300, Activity::Testing);
        trap.bill_adaptation(28);
        assert!(trap.duty().uptime_fraction() > 0.9);
        assert!(trap.duty().seconds(Activity::Testing) > 0.0);
        assert!(trap.duty().seconds(Activity::Adaptation) > 0.0);
    }

    #[test]
    fn snapshot_recovers_injected_faults() {
        let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 8));
        trap.inject_fault(Coupling::new(3, 4), 0.15);
        let snap = trap.snapshot_under_rotations(2000);
        for (c, u_est) in snap {
            let truth = trap.true_under_rotation(c);
            assert!((u_est - truth).abs() < 0.03, "{c}: {u_est} vs {truth}");
        }
    }

    #[test]
    fn spam_attenuates_test_fidelity() {
        let mut cfg = TrapConfig::ideal(8, 9);
        cfg.spam = SpamModel::new(0.01, 0.01);
        let mut trap = VirtualTrap::new(cfg);
        let c = Coupling::new(0, 1);
        let hits = trap.run_xx_test(&four_ms_gates(c), 0, 20_000, Activity::Testing);
        let p = hits as f64 / 20_000.0;
        let expect = 0.99f64.powi(8);
        assert!((p - expect).abs() < 0.01, "p {p} vs {expect}");
    }

    #[test]
    #[should_panic(expected = "not on this machine")]
    fn foreign_coupling_panics() {
        let trap = VirtualTrap::new(TrapConfig::ideal(4, 10));
        let _ = trap.true_under_rotation(Coupling::new(0, 7));
    }
}
