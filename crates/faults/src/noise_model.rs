//! The composite ion-trap noise model.
//!
//! [`IonTrapNoise`] implements [`itqc_sim::NoiseModel`] and combines every
//! error class of the paper's unitary-error simulator (§VI):
//!
//! 1. **Deterministic coupling faults** — per-coupling under-rotations
//!    (the machine's current miscalibration state);
//! 2. **Random amplitude noise** — per-gate relative angle jitter ("10%
//!    random amplitude errors for all two-qubit gates");
//! 3. **1/f phase noise** — slow beam-phase drift entering the MS phases;
//! 4. **Residual bus coupling** — random kicks generating ~1% odd
//!    population per MS gate.
//!
//! Build with the non-consuming builder methods and hand to
//! `itqc_sim::trajectory`.

use crate::models::CouplingFault;
use crate::phase_noise::OneOverF;
use crate::residual::ResidualCoupling;
use itqc_circuit::{Coupling, Gate, Op};
use itqc_math::rng::standard_normal;
use itqc_sim::NoiseModel;
use rand::Rng;
use std::collections::BTreeMap;

/// Composite unitary noise for trajectory simulation.
#[derive(Clone, Debug, Default)]
pub struct IonTrapNoise {
    coupling_faults: BTreeMap<Coupling, f64>,
    amplitude_noise_std: f64,
    one_qubit_noise_std: f64,
    phase_noise: Option<OneOverF>,
    phase_noise_dt: f64,
    residual: Option<ResidualCoupling>,
}

impl IonTrapNoise {
    /// A noiseless model (all channels off). Add channels with the
    /// builder methods.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the deterministic under-rotation of one coupling (later calls
    /// overwrite earlier ones for the same coupling).
    pub fn with_coupling_fault(mut self, fault: CouplingFault) -> Self {
        self.coupling_faults.insert(fault.coupling, fault.under_rotation);
        self
    }

    /// Sets the full deterministic miscalibration map at once.
    pub fn with_coupling_faults<I>(mut self, faults: I) -> Self
    where
        I: IntoIterator<Item = CouplingFault>,
    {
        for f in faults {
            self.coupling_faults.insert(f.coupling, f.under_rotation);
        }
        self
    }

    /// Enables per-gate random relative amplitude jitter with the given
    /// standard deviation (e.g. `0.10·√(π/2)` for the paper's "10% average
    /// amplitude error").
    pub fn with_amplitude_noise(mut self, std: f64) -> Self {
        assert!(std >= 0.0, "noise amplitude must be non-negative");
        self.amplitude_noise_std = std;
        self
    }

    /// Enables additive angle jitter on single-qubit rotation gates
    /// (`R`, `Rx`, `Ry` — the laser-driven gates; virtual `Rz` frame
    /// updates stay exact). The paper's machine quotes ~99.5% single-qubit
    /// fidelity, i.e. small but non-zero rotation noise.
    pub fn with_one_qubit_noise(mut self, std: f64) -> Self {
        assert!(std >= 0.0, "noise amplitude must be non-negative");
        self.one_qubit_noise_std = std;
        self
    }

    /// Enables 1/f phase noise on MS-gate beam phases; `dt_per_gate` is the
    /// process time advanced per gate (gate duration).
    pub fn with_phase_noise(mut self, generator: OneOverF, dt_per_gate: f64) -> Self {
        assert!(dt_per_gate > 0.0, "gate duration must be positive");
        self.phase_noise = Some(generator);
        self.phase_noise_dt = dt_per_gate;
        self
    }

    /// Enables residual bus coupling producing the given odd population per
    /// MS gate.
    pub fn with_residual_coupling(mut self, odd_population: f64) -> Self {
        self.residual = Some(ResidualCoupling::new(odd_population));
        self
    }

    fn effective_under_rotation<R: Rng + ?Sized>(&self, coupling: Coupling, rng: &mut R) -> f64 {
        let deterministic = self.coupling_faults.get(&coupling).copied().unwrap_or(0.0);
        let random = if self.amplitude_noise_std > 0.0 {
            self.amplitude_noise_std * standard_normal(rng)
        } else {
            0.0
        };
        deterministic + random
    }
}

impl NoiseModel for IonTrapNoise {
    fn begin_trajectory<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        if let Some(pn) = &mut self.phase_noise {
            pn.randomize_state(rng);
        }
    }

    fn rewrite<R: Rng + ?Sized>(&mut self, op: &Op, rng: &mut R, out: &mut Vec<Op>) {
        match op.gate {
            Gate::Xx(theta) => {
                let coupling = op.coupling().expect("XX has a coupling");
                let u = self.effective_under_rotation(coupling, rng);
                let phase = match &mut self.phase_noise {
                    Some(pn) => pn.step(self.phase_noise_dt, rng),
                    None => 0.0,
                };
                let noisy = Gate::Ms { theta: theta * (1.0 - u), phi1: phase, phi2: phase };
                out.push(Op::two(noisy, op.qubits()[0], op.qubits()[1]));
            }
            Gate::Ms { theta, phi1, phi2 } => {
                let coupling = op.coupling().expect("MS has a coupling");
                let u = self.effective_under_rotation(coupling, rng);
                let phase = match &mut self.phase_noise {
                    Some(pn) => pn.step(self.phase_noise_dt, rng),
                    None => 0.0,
                };
                let noisy =
                    Gate::Ms { theta: theta * (1.0 - u), phi1: phi1 + phase, phi2: phi2 + phase };
                out.push(Op::two(noisy, op.qubits()[0], op.qubits()[1]));
            }
            Gate::R { theta, phi } if self.one_qubit_noise_std > 0.0 => {
                let d = self.one_qubit_noise_std * standard_normal(rng);
                out.push(Op::one(Gate::R { theta: theta + d, phi }, op.qubits()[0]));
            }
            Gate::Rx(t) if self.one_qubit_noise_std > 0.0 => {
                let d = self.one_qubit_noise_std * standard_normal(rng);
                out.push(Op::one(Gate::R { theta: t + d, phi: 0.0 }, op.qubits()[0]));
            }
            Gate::Ry(t) if self.one_qubit_noise_std > 0.0 => {
                let d = self.one_qubit_noise_std * standard_normal(rng);
                out.push(Op::one(
                    Gate::R { theta: t + d, phi: std::f64::consts::FRAC_PI_2 },
                    op.qubits()[0],
                ));
            }
            _ => out.push(*op),
        }
        if let Some(rc) = &self.residual {
            rc.kicks_after(op, rng, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_circuit::Circuit;
    use itqc_math::stats;
    use itqc_sim::trajectory::run_trajectory;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_PI_2;

    /// Mean probability of `target` over `n_traj` noisy trajectories.
    fn mean_target_probability(
        circuit: &Circuit,
        target: usize,
        n_traj: usize,
        model: &mut IonTrapNoise,
        rng: &mut SmallRng,
    ) -> f64 {
        let total: f64 =
            (0..n_traj).map(|_| run_trajectory(circuit, model, rng).probability(target)).sum();
        total / n_traj as f64
    }

    fn four_ms(a: usize, b: usize, n: usize) -> Circuit {
        let mut c = Circuit::new(n);
        for _ in 0..4 {
            c.xx(a, b, FRAC_PI_2);
        }
        c
    }

    #[test]
    fn noiseless_default_is_exact() {
        let mut model = IonTrapNoise::new();
        let mut rng = SmallRng::seed_from_u64(1);
        let s = run_trajectory(&four_ms(0, 1, 2), &mut model, &mut rng);
        assert!((s.probability(0) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn deterministic_fault_reproduces_analytic_fidelity() {
        let mut model =
            IonTrapNoise::new().with_coupling_fault(CouplingFault::new(Coupling::new(0, 1), 0.22));
        let mut rng = SmallRng::seed_from_u64(2);
        let f = mean_target_probability(&four_ms(0, 1, 2), 0, 3, &mut model, &mut rng);
        let expect = (std::f64::consts::PI * 0.22).cos().powi(2);
        assert!((f - expect).abs() < 1e-10);
    }

    #[test]
    fn amplitude_noise_spreads_fidelity() {
        // With random amplitude noise the per-trajectory fidelity varies;
        // its mean drops below 1.
        let mut rng = SmallRng::seed_from_u64(3);
        let sigma = 0.10 * (std::f64::consts::PI / 2.0).sqrt();
        let mut model = IonTrapNoise::new().with_amplitude_noise(sigma);
        let c = four_ms(0, 1, 2);
        let fs: Vec<f64> =
            (0..200).map(|_| run_trajectory(&c, &mut model, &mut rng).probability(0)).collect();
        let mean = stats::mean(&fs);
        // Four independent jitters of std σ compose to a total-angle spread
        // of 2σ·(π/2); E[cos²] ≈ 0.963 at σ = 0.1253.
        assert!(mean < 0.99, "mean {mean}");
        assert!(mean > 0.85, "mean {mean}");
        let spread = fs.iter().map(|f| (f - mean).powi(2)).sum::<f64>() / (fs.len() - 1) as f64;
        assert!(spread.sqrt() > 0.01);
    }

    #[test]
    fn residual_coupling_creates_odd_population() {
        let mut rng = SmallRng::seed_from_u64(4);
        let mut model = IonTrapNoise::new().with_residual_coupling(0.01);
        let c = four_ms(0, 1, 2);
        let mut odd = 0.0;
        let trials = 200;
        for _ in 0..trials {
            let s = run_trajectory(&c, &mut model, &mut rng);
            odd += s.probability(0b01) + s.probability(0b10);
        }
        odd /= trials as f64;
        assert!(odd > 0.01 && odd < 0.10, "odd {odd}");
    }

    #[test]
    fn phase_noise_affects_echoed_sequences_less_than_miscalibration() {
        // Deterministic amplitude errors accumulate coherently; echoing
        // cancels them. Phase noise alone leaves echoed sequences nearly
        // ideal over short sequences.
        let mut rng = SmallRng::seed_from_u64(5);
        let mut model = IonTrapNoise::new().with_phase_noise(OneOverF::new(0.05, 1.0, 6), 0.1);
        let c = four_ms(0, 1, 2);
        let f = mean_target_probability(&c, 0, 50, &mut model, &mut rng);
        assert!(f > 0.95, "small phase noise keeps test fidelity high, got {f}");
    }

    #[test]
    fn faults_map_is_queryable() {
        // The fault is keyed by the unordered coupling; other couplings
        // pass through at their requested angle.
        let mut model =
            IonTrapNoise::new().with_coupling_fault(CouplingFault::new(Coupling::new(2, 5), 0.15));
        let mut rng = SmallRng::seed_from_u64(6);
        let mut theta_of = |a: usize, b: usize| {
            let mut out = Vec::new();
            model.rewrite(&Op::two(Gate::Xx(FRAC_PI_2), a, b), &mut rng, &mut out);
            match out[..] {
                [Op { gate: Gate::Ms { theta, .. }, .. }] => theta,
                _ => panic!("one MS gate expected, got {out:?}"),
            }
        };
        assert_eq!(theta_of(5, 2), FRAC_PI_2 * (1.0 - 0.15));
        assert_eq!(theta_of(0, 1), FRAC_PI_2);
    }
}
