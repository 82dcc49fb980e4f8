//! Wall-clock cost model for testing strategies (§VIII, Fig. 10).
//!
//! Reproduces the paper's speed-up analysis of adaptive and non-adaptive
//! testing over all-couplings point checks, under its stated assumptions:
//!
//! * gate *speed* improves quadratically with machine generation, so
//!   `t_gate(N) = t₈·(8/N)²` starting from 0.2 ms at 8 qubits;
//! * a shallow circuit's run time is dominated by preparation + readout;
//! * the non-adaptive protocol's fixed test family is compiled offline
//!   (selection costs one decision + upload), while adaptive strategies
//!   must compile each data-dependent test program on the fly — the cost
//!   `∝` couplings that makes the adaptive speed-up plateau (Fig. 10's
//!   blue line), roughly 10³ below the per-point-check processing cost.

/// Parameters of the Fig. 10 study. All times in seconds.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct CostModel {
    /// Preparation + readout per circuit run.
    pub prep_readout: f64,
    /// Two-qubit gate time at 8 qubits (scales as `(8/N)²`).
    pub gate_time_8q: f64,
    /// Shots per test circuit.
    pub shots: usize,
    /// Circuits per full point-check characterisation (the Eq.-2 fidelity
    /// estimate needs the bare-XX circuit plus a parity scan).
    pub characterization_circuits: usize,
    /// MS repetitions per coupling in a test.
    pub reps: usize,
    /// Classical decision latency per adaptive round.
    pub decision: f64,
    /// Compilation time per coupling in an on-the-fly-compiled program.
    pub compile_per_coupling: f64,
    /// Control-program upload latency.
    pub upload: f64,
}

impl CostModel {
    /// The paper's Fig. 10 operating point.
    pub fn paper_defaults() -> Self {
        CostModel {
            prep_readout: 1e-3,
            gate_time_8q: 0.2e-3,
            shots: 300,
            characterization_circuits: 11,
            reps: 2,
            decision: 50e-3,
            compile_per_coupling: 4e-3,
            upload: 100e-3,
        }
    }

    /// `t_gate(N) = t₈·(8/N)²` — Fig. 10's "gate time scales as 1/N²".
    pub fn gate_time(&self, n_qubits: usize) -> f64 {
        let r = 8.0 / n_qubits as f64;
        self.gate_time_8q * r * r
    }

    /// Number of couplings `C(N,2)`.
    pub fn couplings(&self, n_qubits: usize) -> usize {
        n_qubits * (n_qubits - 1) / 2
    }

    /// One shot of a test circuit containing `gates` two-qubit gates.
    fn run_once(&self, n_qubits: usize, gates: usize) -> f64 {
        self.prep_readout + gates as f64 * self.gate_time(n_qubits)
    }

    /// Wall-clock of the brute-force strategy: point-check every coupling
    /// (`shots` shots of a `reps`-gate circuit each, compiled per
    /// coupling).
    pub fn point_check_time(&self, n_qubits: usize) -> f64 {
        let c = self.couplings(n_qubits) as f64;
        let per_check = self.characterization_circuits as f64
            * self.shots as f64
            * self.run_once(n_qubits, self.reps)
            + self.compile_per_coupling;
        c * per_check + self.upload
    }

    /// Wall-clock of adaptive binary search for one fault: `⌈log₂C⌉`
    /// halving tests plus verification, each an adaptation whose program
    /// must be compiled for its suspect half.
    pub fn adaptive_time(&self, n_qubits: usize) -> f64 {
        let c = self.couplings(n_qubits);
        let mut total = 0.0;
        let mut size = c;
        while size > 1 {
            let half = size / 2;
            total += self.decision + self.upload + half as f64 * self.compile_per_coupling;
            total += self.shots as f64 * self.run_once(n_qubits, half * self.reps);
            size -= half;
        }
        // Final verification of the surviving coupling.
        total += self.decision + self.upload + self.compile_per_coupling;
        total += self.shots as f64 * self.run_once(n_qubits, self.reps);
        total
    }

    /// Wall-clock of the paper's non-adaptive protocol (§V-B): `3n − 1`
    /// class tests plus one verification, with the fixed test family
    /// precompiled offline and a single decision+upload for the adapted
    /// round.
    pub fn non_adaptive_time(&self, n_qubits: usize) -> f64 {
        let n_bits = itqc_math::bits::label_bits(n_qubits);
        let class_size = n_qubits / 2;
        let class_couplings = class_size * class_size.saturating_sub(1) / 2;
        let mut total = 0.0;
        // Round 1: 2n class tests.
        total += 2.0
            * n_bits as f64
            * self.shots as f64
            * self.run_once(n_qubits, class_couplings * self.reps);
        // Round 2: up to n−1 tests of comparable size, one adaptation.
        total += self.decision + self.upload;
        total += (n_bits as f64 - 1.0)
            * self.shots as f64
            * self.run_once(n_qubits, class_couplings * self.reps);
        // Verification.
        total += self.shots as f64 * self.run_once(n_qubits, self.reps);
        total
    }

    /// Fig. 10's blue curve: point-check time over adaptive-search time.
    pub fn speedup_adaptive(&self, n_qubits: usize) -> f64 {
        self.point_check_time(n_qubits) / self.adaptive_time(n_qubits)
    }

    /// Fig. 10's orange curve: point-check time over non-adaptive
    /// protocol time (grows as `N²/log N`).
    pub fn speedup_non_adaptive(&self, n_qubits: usize) -> f64 {
        self.point_check_time(n_qubits) / self.non_adaptive_time(n_qubits)
    }
}

impl Default for CostModel {
    fn default() -> Self {
        Self::paper_defaults()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gate_time_shrinks_quadratically() {
        let m = CostModel::paper_defaults();
        assert!((m.gate_time(8) - 0.2e-3).abs() < 1e-12);
        assert!((m.gate_time(16) - 0.05e-3).abs() < 1e-12);
        assert!((m.gate_time(32) - 0.0125e-3).abs() < 1e-12);
    }

    #[test]
    fn eleven_qubit_operating_points() {
        // §IX: full characterisation takes "over a minute"; the paper's
        // strategy diagnoses the 11-qubit system "in ten seconds".
        let m = CostModel::paper_defaults();
        let point = m.point_check_time(11);
        let ours = m.non_adaptive_time(11);
        assert!(point > 60.0, "point check {point} s");
        assert!(ours > 3.0 && ours < 20.0, "protocol {ours} s (paper: ~10 s)");
    }

    #[test]
    fn adaptive_speedup_plateaus() {
        let m = CostModel::paper_defaults();
        let s64 = m.speedup_adaptive(64);
        let s1024 = m.speedup_adaptive(1024);
        let s4096 = m.speedup_adaptive(4096);
        // Grows early, then saturates near the ratio of per-point-check
        // processing to per-coupling compile time ≈ 10³.
        assert!(s1024 > s64);
        assert!((s4096 / s1024) < 1.3, "should be flattening: {s1024} → {s4096}");
        assert!(s4096 > 300.0 && s4096 < 3000.0, "plateau level {s4096}");
    }

    #[test]
    fn non_adaptive_speedup_grows_like_n2_over_logn() {
        let m = CostModel::paper_defaults();
        let s = |n: usize| m.speedup_non_adaptive(n);
        // Strictly increasing…
        assert!(s(16) > s(8));
        assert!(s(64) > s(16));
        assert!(s(1024) > s(256));
        // …and roughly N²/log N: quadrupling N should gain ~16×/(log ratio).
        let ratio = s(1024) / s(256);
        assert!(ratio > 8.0 && ratio < 24.0, "scaling ratio {ratio}");
        // Non-adaptive overtakes adaptive at scale (the paper's headline).
        assert!(s(1024) > m.speedup_adaptive(1024) * 5.0);
    }

    #[test]
    fn non_adaptive_always_beats_point_checks() {
        let m = CostModel::paper_defaults();
        for n in [8usize, 11, 16, 32, 64, 128] {
            assert!(m.speedup_non_adaptive(n) > 1.0, "n={n}");
        }
    }
}
