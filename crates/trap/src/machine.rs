//! The virtual ion-trap machine.
//!
//! [`VirtualTrap`] stands in for the commercial 11-qubit ion trap of the
//! paper's §VI (see `DESIGN.md` §1 for the substitution argument). It keeps
//! a hidden per-coupling miscalibration state, evolves it under drift,
//! executes circuits with per-gate amplitude and one-qubit jitter, SPAM
//! and finite shots, and bills every operation to a duty-cycle ledger
//! through the §VIII timing model. The other §III channels, 1/f phase
//! noise and residual bus coupling, are driven through
//! [`IonTrapNoise`] directly by the Fig. 3 echo study.
//!
//! Two execution paths are provided, matching the paper's own methodology:
//!
//! * [`VirtualTrap::run_circuit`] — dense trajectory simulation of the
//!   trap's channels; used at hardware scale (≤ ~14 qubits).
//! * [`VirtualTrap::run_xx_test`] — the exact commuting-XX engine for test
//!   circuits, with amplitude-type channels and SPAM, read out under the
//!   test's [`ScoreMode`]; like the paper's scaling study, it "suppresses
//!   phase noise and residual couplings" (§VII).

use crate::duty::{Activity, DutyLedger};
use crate::timing::TimingModel;
use itqc_backend::{
    worst_qubit_count, PreparedCircuit, ScoreMode, XxAnalyticBackend, XxPrepared, MAX_COMPONENT,
};
use itqc_circuit::{Circuit, Coupling};
use itqc_faults::drift::DriftProcess;
use itqc_faults::models::CouplingFault;
use itqc_faults::{IonTrapNoise, SpamModel};
use itqc_math::rng::standard_normal;
use itqc_sim::trajectory::run_trajectory;
use itqc_sim::{shots, BitString, XxCircuit};
use rand::rngs::SmallRng;
use rand::SeedableRng;
use std::collections::BTreeMap;

/// Wall-clock cost of recalibrating one coupling, seconds.
const RECALIBRATION_SECONDS: f64 = 1.0;

/// The timing model every operation is billed through.
const TIMING: TimingModel = TimingModel::paper_defaults();

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
    /// Readout error model.
    pub spam: SpamModel,
}

impl TrapConfig {
    /// A noiseless ideal machine; experiments add jitter or SPAM to it.
    pub fn ideal(n_qubits: usize, seed: u64) -> Self {
        TrapConfig {
            n_qubits,
            seed,
            amplitude_jitter_std: 0.0,
            one_qubit_jitter_std: 0.0,
            spam: SpamModel::IDEAL,
        }
    }
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
    /// Panics if `n_qubits < 2` or `n_qubits > MAX_COMPONENT`: every
    /// test circuit must fit the commuting-XX engine's joint tables.
    pub fn new(config: TrapConfig) -> Self {
        assert!(config.n_qubits >= 2, "a trap needs at least two qubits");
        assert!(
            config.n_qubits <= MAX_COMPONENT,
            "a trap holds at most {MAX_COMPONENT} qubits, got {}",
            config.n_qubits
        );
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

    /// Recalibrates one coupling: its error drops to exactly zero, and
    /// the ledger is billed one second of calibration time.
    ///
    /// # Panics
    ///
    /// Panics if the coupling does not exist on this machine.
    pub fn recalibrate(&mut self, coupling: Coupling) {
        let slot = self.calibration.get_mut(&coupling).expect("coupling not on this machine");
        *slot = 0.0;
        self.clock_seconds += RECALIBRATION_SECONDS;
        self.duty.record(Activity::Calibration, RECALIBRATION_SECONDS);
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
    /// that apply drift on their own cadence ([`Self::apply_drift`]).
    pub fn bill_idle_time(&mut self, seconds: f64) {
        self.clock_seconds += seconds;
        self.duty.record(Activity::Idle, seconds);
    }

    /// Bills one classical adaptation round that compiles pulses for
    /// `couplings_compiled` couplings.
    pub fn bill_adaptation(&mut self, couplings_compiled: usize) {
        let dt = TIMING.adaptation(couplings_compiled);
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

    fn noise_model(&self) -> IonTrapNoise {
        let faults = self.calibration.iter().map(|(&c, &u)| CouplingFault::new(c, u));
        IonTrapNoise::new()
            .with_coupling_faults(faults)
            .with_amplitude_noise(self.config.amplitude_jitter_std)
            .with_one_qubit_noise(self.config.one_qubit_jitter_std)
    }

    /// Executes `circuit` for `shots` shots with the trap's noise channels
    /// and per-shot trajectory sampling (dense backend). Outcomes include SPAM
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
        let dt = TIMING.shots(
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
    /// and returns its `score` hit count over `shot_count` shots: the
    /// shots on `target` ([`ScoreMode::ExactTarget`]) or the worst
    /// support qubit's count of shots reading its `target` bit
    /// ([`ScoreMode::WorstQubit`]). The test time is billed to
    /// `activity`.
    ///
    /// Includes deterministic coupling faults, quasi-static per-gate
    /// amplitude jitter, and SPAM; phase noise and residual bus coupling
    /// are not representable in the XX engine (the paper's scaling study
    /// suppresses them too, §VII). The readout follows the score:
    ///
    /// * `ExactTarget` — one binomial draw of the exact target
    ///   probability (the memoised [`XxAnalyticBackend::score`]),
    ///   attenuated by the chance SPAM leaves the whole string intact;
    /// * `WorstQubit` — `shot_count` output strings sampled from the
    ///   circuit's exact distribution, each corrupted by SPAM, and
    ///   counted by [`worst_qubit_count`], the statistic hardware
    ///   post-processing computes from its measured strings.
    ///
    /// Every draw is on the machine's own RNG, so a machine is
    /// deterministic in its seed. `gates` lists `(coupling, θ)` in
    /// program order.
    pub fn run_xx_test(
        &mut self,
        gates: &[(Coupling, f64)],
        target: BitString,
        score: ScoreMode,
        shot_count: usize,
        activity: Activity,
    ) -> usize {
        let xx = self.jittered_xx(gates);
        let n = self.config.n_qubits;
        let spam = self.config.spam;
        let hits = match score {
            ScoreMode::ExactTarget => {
                let p = XxAnalyticBackend::score(&xx, target, score)
                    .expect("trap registers fit the joint tables");
                let p = (p * spam.retention(target, n)).clamp(0.0, 1.0);
                shots::binomial(&mut self.rng, shot_count, p)
            }
            ScoreMode::WorstQubit => {
                let prepared =
                    XxPrepared::prepare(xx).expect("trap registers fit the joint tables");
                let mut strings = prepared.sample(&mut self.rng, shot_count);
                for s in &mut strings {
                    *s = spam.corrupt(*s as usize, n, &mut self.rng) as BitString;
                }
                worst_qubit_count(&strings, prepared.support(), target)
            }
        };
        let dt = TIMING.shots(n, gates.len(), 0, shot_count);
        self.clock_seconds += dt;
        self.duty.record(activity, dt);
        hits
    }

    /// The commuting-XX circuit the machine actually executes for
    /// `gates`: each angle scaled by its coupling's static
    /// under-rotation plus, when configured, a fresh per-gate amplitude
    /// jitter draw (one per gate, in program order).
    fn jittered_xx(&mut self, gates: &[(Coupling, f64)]) -> XxCircuit {
        let jitter_std = self.config.amplitude_jitter_std;
        XxCircuit::compile(self.config.n_qubits, gates, |coupling| {
            let u_static = self.true_under_rotation(coupling);
            let jitter =
                if jitter_std > 0.0 { jitter_std * standard_normal(&mut self.rng) } else { 0.0 };
            1.0 - u_static - jitter
        })
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
            let dt = TIMING.shots(self.config.n_qubits, 1, 0, shot_count);
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
        let hits =
            trap.run_xx_test(&four_ms_gates(c), 0, ScoreMode::ExactTarget, 300, Activity::Testing);
        assert_eq!(hits, 300);
    }

    #[test]
    fn injected_fault_shows_in_xx_test() {
        let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 2));
        let c = Coupling::new(0, 4);
        trap.inject_fault(c, 0.47);
        let hits =
            trap.run_xx_test(&four_ms_gates(c), 0, ScoreMode::ExactTarget, 300, Activity::Testing);
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
        let hits =
            trap.run_xx_test(&four_ms_gates(c), 0, ScoreMode::ExactTarget, 4000, Activity::Testing);
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
    fn recalibration_zeroes_the_coupling_and_bills_one_second() {
        let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 5));
        let c = Coupling::new(1, 6);
        trap.inject_fault(c, -0.12);
        trap.bill_job_time(30.0);
        trap.recalibrate(c);
        assert_eq!(trap.true_under_rotation(c), 0.0);
        assert_eq!(trap.duty().seconds(Activity::Calibration), 1.0);
        assert_eq!(trap.clock_seconds(), 31.0);
        trap.recalibrate(c);
        assert_eq!(trap.duty().seconds(Activity::Calibration), 2.0);
    }

    #[test]
    fn drift_moves_calibration() {
        use itqc_faults::drift::OrnsteinUhlenbeckDrift;
        let mut trap = VirtualTrap::new(TrapConfig::ideal(8, 6));
        let d = OrnsteinUhlenbeckDrift { tau_minutes: 30.0, sigma: 0.05 };
        // Fifteen idle minutes of drift.
        trap.apply_drift(15.0, &d);
        trap.bill_idle_time(15.0 * 60.0);
        let moved =
            trap.couplings().iter().filter(|&&c| trap.true_under_rotation(c).abs() > 1e-6).count();
        assert!(moved > 20, "most couplings should have drifted, moved = {moved}");
        assert!(trap.clock_seconds() >= 15.0 * 60.0);
    }

    #[test]
    fn worst_qubit_readout_converges_and_spam_lowers_it() {
        // Two faults sharing qubit 1, plus a healthy coupling: the sampled
        // worst-qubit count converges to the exact min marginal, and 1%
        // SPAM (on the same seed, so the same pre-SPAM strings) lowers it.
        let faults = [(Coupling::new(0, 1), 0.10), (Coupling::new(1, 2), 0.06)];
        let gates: Vec<(Coupling, f64)> =
            [Coupling::new(0, 1), Coupling::new(1, 2), Coupling::new(3, 4)]
                .into_iter()
                .flat_map(four_ms_gates)
                .collect();
        let mut xx = XxCircuit::new(6);
        for &(c, theta) in &gates {
            let u = faults.iter().find(|f| f.0 == c).map_or(0.0, |f| f.1);
            let (a, b) = c.endpoints();
            xx.add_xx(a, b, theta * (1.0 - u));
        }
        let exact = xx.min_qubit_agreement(0);
        let shots = 100_000;
        let score = |spam: SpamModel| {
            let mut cfg = TrapConfig::ideal(6, 21);
            cfg.spam = spam;
            let mut trap = VirtualTrap::new(cfg);
            for &(c, u) in &faults {
                trap.inject_fault(c, u);
            }
            let hits = trap.run_xx_test(&gates, 0, ScoreMode::WorstQubit, shots, Activity::Testing);
            hits as f64 / shots as f64
        };
        let ideal = score(SpamModel::IDEAL);
        assert!((ideal - exact).abs() < 0.005, "sampled {ideal} vs exact {exact}");
        let noisy = score(SpamModel::new(0.01, 0.01));
        // A symmetric flip rate ε moves an agreement p to p − ε(2p − 1).
        let drop = 0.01 * (2.0 * exact - 1.0);
        assert!(noisy < ideal, "SPAM must lower the score: {noisy} vs {ideal}");
        assert!((ideal - noisy - drop).abs() < 0.004, "drop {} vs {drop}", ideal - noisy);
    }

    #[test]
    #[should_panic(expected = "at most")]
    fn register_beyond_the_joint_tables_panics() {
        let _ = VirtualTrap::new(TrapConfig::ideal(MAX_COMPONENT + 1, 1));
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
        let _ =
            trap.run_xx_test(&four_ms_gates(c), 0, ScoreMode::ExactTarget, 300, Activity::Testing);
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
        let hits = trap.run_xx_test(
            &four_ms_gates(c),
            0,
            ScoreMode::ExactTarget,
            20_000,
            Activity::Testing,
        );
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
