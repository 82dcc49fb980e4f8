//! Dense state-vector simulator.
//!
//! The general-purpose backend: exact amplitudes for any circuit, memory
//! bound at `2^n` complex doubles (practical to ~22 qubits). All the
//! small-scale experiments of the paper (Figs. 3, 6, 7 at 8–11 qubits) run
//! on this backend; the 32-qubit experiments use the structure-exploiting
//! [`crate::xx::XxCircuit`] engine, which is cross-validated against this
//! one in the test suite.

use itqc_circuit::{Circuit, Op};
use itqc_math::{Complex64, Mat2, Mat4};
use rand::Rng;

/// Maximum register size `unitary`-style dense simulation will accept.
pub const MAX_QUBITS: usize = 26;

/// An `n`-qubit pure state. Qubit 0 is the least-significant index bit.
///
/// # Example
///
/// ```
/// use itqc_circuit::Circuit;
/// use itqc_sim::StateVector;
///
/// let mut c = Circuit::new(2);
/// c.h(0).cnot(0, 1);
/// let mut psi = StateVector::zero_state(2);
/// psi.apply_circuit(&c);
/// assert!((psi.probability(0b00) - 0.5).abs() < 1e-12);
/// assert!((psi.probability(0b11) - 0.5).abs() < 1e-12);
/// ```
#[derive(Clone, Debug)]
pub struct StateVector {
    n_qubits: usize,
    amps: Vec<Complex64>,
}

impl StateVector {
    /// The all-zeros computational basis state `|0…0⟩`.
    ///
    /// # Panics
    ///
    /// Panics if `n_qubits` is 0 or exceeds [`MAX_QUBITS`].
    pub fn zero_state(n_qubits: usize) -> Self {
        assert!(n_qubits > 0, "state needs at least one qubit");
        assert!(
            n_qubits <= MAX_QUBITS,
            "dense simulation of {n_qubits} qubits exceeds the {MAX_QUBITS}-qubit memory wall; \
             use the commuting-XX engine for protocol-scale runs"
        );
        let mut amps = vec![Complex64::ZERO; 1usize << n_qubits];
        amps[0] = Complex64::ONE;
        StateVector { n_qubits, amps }
    }

    /// Number of qubits.
    pub fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    /// The amplitude of `|basis⟩`.
    #[inline]
    pub fn amplitude(&self, basis: usize) -> Complex64 {
        self.amps[basis]
    }

    /// `|⟨basis|ψ⟩|²`.
    #[inline]
    pub fn probability(&self, basis: usize) -> f64 {
        self.amps[basis].norm_sqr()
    }

    /// The full outcome distribution (length `2^n`).
    pub fn probabilities(&self) -> Vec<f64> {
        self.amps.iter().map(|a| a.norm_sqr()).collect()
    }

    /// The state norm (should be 1 for a physical state).
    pub fn norm(&self) -> f64 {
        self.amps.iter().map(|a| a.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Overlap `⟨other|self⟩`.
    ///
    /// # Panics
    ///
    /// Panics if qubit counts differ.
    pub fn overlap(&self, other: &StateVector) -> Complex64 {
        assert_eq!(self.n_qubits, other.n_qubits, "state size mismatch");
        self.amps.iter().zip(other.amps.iter()).map(|(a, b)| b.conj() * *a).sum()
    }

    /// State fidelity `|⟨other|self⟩|²`.
    pub fn fidelity(&self, other: &StateVector) -> f64 {
        self.overlap(other).norm_sqr()
    }

    /// Probability that qubit `q` measures `|1⟩`.
    pub fn marginal_one(&self, q: usize) -> f64 {
        let bit = 1usize << q;
        self.amps.iter().enumerate().filter(|(i, _)| i & bit != 0).map(|(_, a)| a.norm_sqr()).sum()
    }

    /// Applies a single-qubit gate matrix to qubit `q`.
    ///
    /// # Panics
    ///
    /// Panics if `q` is out of range.
    pub fn apply_1q(&mut self, q: usize, m: &Mat2) {
        assert!(q < self.n_qubits, "qubit {q} out of range");
        let bit = 1usize << q;
        let dim = self.amps.len();
        let mut i = 0usize;
        while i < dim {
            if i & bit == 0 {
                let a0 = self.amps[i];
                let a1 = self.amps[i | bit];
                self.amps[i] = m.at(0, 0) * a0 + m.at(0, 1) * a1;
                self.amps[i | bit] = m.at(1, 0) * a0 + m.at(1, 1) * a1;
            }
            i += 1;
        }
    }

    /// Applies a two-qubit gate matrix; `first` maps to the high bit of the
    /// gate's 2-bit index (matching [`Mat4::kron`] and `Op::two`).
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range.
    pub fn apply_2q(&mut self, first: usize, second: usize, m: &Mat4) {
        assert!(first < self.n_qubits && second < self.n_qubits, "qubit out of range");
        assert_ne!(first, second, "two-qubit gate needs distinct qubits");
        let bf = 1usize << first;
        let bs = 1usize << second;
        let dim = self.amps.len();
        for i in 0..dim {
            if i & bf == 0 && i & bs == 0 {
                let i00 = i;
                let i01 = i | bs;
                let i10 = i | bf;
                let i11 = i | bf | bs;
                let v = [self.amps[i00], self.amps[i01], self.amps[i10], self.amps[i11]];
                let w = m.mul_vec(v);
                self.amps[i00] = w[0];
                self.amps[i01] = w[1];
                self.amps[i10] = w[2];
                self.amps[i11] = w[3];
            }
        }
    }

    /// Applies one circuit operation.
    ///
    /// # Panics
    ///
    /// Panics if the op addresses qubits outside the register.
    pub fn apply_op(&mut self, op: &Op) {
        match op.gate.arity() {
            1 => self.apply_1q(op.qubits()[0], &op.gate.matrix1().expect("1q matrix")),
            _ => self.apply_2q(
                op.qubits()[0],
                op.qubits()[1],
                &op.gate.matrix2().expect("2q matrix"),
            ),
        }
    }

    /// Applies every operation of a circuit in order.
    ///
    /// # Panics
    ///
    /// Panics if the circuit register is larger than the state.
    pub fn apply_circuit(&mut self, circuit: &Circuit) {
        assert!(circuit.n_qubits() <= self.n_qubits, "circuit register larger than state");
        for op in circuit.ops() {
            self.apply_op(op);
        }
    }

    /// Samples one measurement outcome (all qubits, computational basis)
    /// without collapsing the state.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> usize {
        let mut u: f64 = rng.gen();
        for (i, a) in self.amps.iter().enumerate() {
            let p = a.norm_sqr();
            if u < p {
                return i;
            }
            u -= p;
        }
        self.amps.len() - 1 // numerical slack lands on the last state
    }
}

/// Runs `circuit` from `|0…0⟩` and returns the final state.
pub fn run(circuit: &Circuit) -> StateVector {
    let mut s = StateVector::zero_state(circuit.n_qubits());
    s.apply_circuit(circuit);
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_circuit::library;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn zero_state_is_all_zeros() {
        let s = StateVector::zero_state(3);
        assert_eq!(s.probability(0), 1.0);
        assert!((s.norm() - 1.0).abs() < 1e-15);
    }

    #[test]
    fn x_flips() {
        let mut c = Circuit::new(2);
        c.x(1);
        let s = run(&c);
        assert!((s.probability(0b10) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ghz_distribution() {
        let s = run(&library::ghz(4));
        assert!((s.probability(0) - 0.5).abs() < 1e-12);
        assert!((s.probability(0b1111) - 0.5).abs() < 1e-12);
        assert!((s.norm() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn unitary_preserves_norm() {
        let mut rng = SmallRng::seed_from_u64(3);
        let c = library::random_circuit(6, 8, &mut rng);
        let s = run(&c);
        assert!((s.norm() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn matches_dense_unitary_on_random_circuits() {
        let mut rng = SmallRng::seed_from_u64(12);
        for _ in 0..5 {
            let c = library::random_circuit(5, 4, &mut rng);
            let s = run(&c);
            let u = c.unitary();
            let dim = 1usize << 5;
            let mut v = vec![Complex64::ZERO; dim];
            v[0] = Complex64::ONE;
            let expect = u.mul_vec(&v);
            for (a, b) in s.amps.iter().zip(expect.iter()) {
                assert!(a.approx_eq(*b, 1e-9));
            }
        }
    }

    #[test]
    fn four_ms_returns_home() {
        // The paper's four-MS-gate single-output test on a perfect coupling.
        let mut c = Circuit::new(2);
        for _ in 0..4 {
            c.xx(0, 1, FRAC_PI_2);
        }
        let s = run(&c);
        assert!((s.probability(0) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn two_ms_inverts() {
        // The paper's two-MS-gate test: expected output is all-ones.
        let mut c = Circuit::new(2);
        for _ in 0..2 {
            c.xx(0, 1, FRAC_PI_2);
        }
        let s = run(&c);
        assert!((s.probability(0b11) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn underrotation_leaks_population() {
        // XX(π/2·(1−u)) four times leaves odd population ~ sin²(π·u)… the
        // qualitative fact the single-output test exploits.
        let u = 0.22;
        let mut c = Circuit::new(2);
        for _ in 0..4 {
            c.xx(0, 1, FRAC_PI_2 * (1.0 - u));
        }
        let s = run(&c);
        let f = s.probability(0);
        assert!(f < 0.9, "fidelity {f} should visibly drop");
        assert!(f > 0.1);
        // Analytic check: 4 under-rotated gates compose to XX(2π−2πu);
        // P(00) = cos²(π·u).
        let expect = (std::f64::consts::PI * u).cos().powi(2);
        assert!((f - expect).abs() < 1e-10);
    }

    #[test]
    fn sampling_statistics_match_probabilities() {
        let mut rng = SmallRng::seed_from_u64(99);
        let s = run(&library::ghz(3));
        let mut counts = std::collections::BTreeMap::new();
        for _ in 0..20_000 {
            *counts.entry(s.sample(&mut rng)).or_insert(0) += 1;
        }
        let p0 = *counts.get(&0).unwrap_or(&0) as f64 / 20_000.0;
        let p7 = *counts.get(&7).unwrap_or(&0) as f64 / 20_000.0;
        assert!((p0 - 0.5).abs() < 0.02);
        assert!((p7 - 0.5).abs() < 0.02);
        assert_eq!(counts.keys().filter(|&&k| k != 0 && k != 7).count(), 0);
    }

    /// Measures all qubits, collapsing the state to the sampled basis
    /// state, and returns the outcome.
    fn measure(s: &mut StateVector, rng: &mut SmallRng) -> usize {
        let outcome = s.sample(rng);
        for a in &mut s.amps {
            *a = Complex64::ZERO;
        }
        s.amps[outcome] = Complex64::ONE;
        outcome
    }

    #[test]
    fn measure_collapses() {
        let mut rng = SmallRng::seed_from_u64(7);
        let mut s = run(&library::ghz(3));
        let outcome = measure(&mut s, &mut rng);
        assert!(outcome == 0 || outcome == 7);
        assert_eq!(s.probability(outcome), 1.0);
    }

    #[test]
    fn marginals() {
        let s = run(&library::ghz(2));
        assert!((s.marginal_one(0) - 0.5).abs() < 1e-12);
        assert!((s.marginal_one(1) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn overlap_of_orthogonal_states() {
        let a = StateVector::zero_state(2);
        let mut flip = Circuit::new(2);
        flip.x(0).x(1);
        let b = run(&flip);
        assert!(a.overlap(&b).norm() < 1e-15);
        assert!((a.fidelity(&a) - 1.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "memory wall")]
    fn oversized_register_panics() {
        let _ = StateVector::zero_state(30);
    }
}
