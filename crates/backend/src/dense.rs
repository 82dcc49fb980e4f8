//! The dense reference backend.
//!
//! Wraps the general state-vector simulator as a [`PreparedCircuit`].
//! A compiled circuit is expanded into one `XX(Θ)` gate per coupling,
//! in term order, and *compressed onto its support*: the state vector
//! covers only the qubits some gate touches, so a sparse circuit on a
//! large register costs `2^support`, not `2^N` — a 32-qubit register
//! whose test circuit touches 16 qubits stays within reach, and the
//! dense-vs-analytic cross-check can run at any size the support
//! allows. Memory remains exponential in the support; the analytic
//! backend is the scalable path.

use crate::dist::{sample_strings_blocked, ComponentDist};
use crate::{BackendError, PreparedCircuit};
use itqc_circuit::Circuit;
use itqc_sim::statevector::MAX_QUBITS;
use itqc_sim::{BitString, XxCircuit};
use rand::rngs::SmallRng;
use std::rc::Rc;

/// The dense state-vector backend (stateless; preparations are not
/// cached — the backend exists as the exact reference and the fallback
/// for components the analytic engine refuses, not as a hot path).
#[derive(Clone, Copy, Debug, Default)]
pub struct DenseBackend;

impl DenseBackend {
    /// A dense backend.
    pub fn new() -> Self {
        DenseBackend
    }

    /// Prepares a compiled circuit for evaluation, or refuses a support
    /// beyond the state-vector limit.
    pub fn prepare(&self, xx: &XxCircuit) -> Result<Rc<dyn PreparedCircuit>, BackendError> {
        Ok(Rc::new(DensePrepared::build(xx)?))
    }
}

/// A dense preparation: the support-compressed output distribution plus
/// its component factorization for canonical sampling.
#[derive(Clone, Debug)]
pub struct DensePrepared {
    n_qubits: usize,
    /// Touched qubits, ascending; local bit `k` ↔ `support[k]`.
    support: Vec<usize>,
    /// `2^support.len()` outcome probabilities in support-local indexing.
    probs: Vec<f64>,
    components: Vec<ComponentDist>,
}

impl DensePrepared {
    fn build(xx: &XxCircuit) -> Result<Self, BackendError> {
        let n_qubits = xx.n_qubits();
        let support = xx.support();
        let m = support.len();
        if m > MAX_QUBITS {
            return Err(BackendError::SupportTooLarge { support: m, limit: MAX_QUBITS });
        }
        if m == 0 {
            return Ok(DensePrepared {
                n_qubits,
                support,
                probs: vec![1.0],
                components: Vec::new(),
            });
        }
        // Remap onto the support (a qubit's local bit is its rank in it)
        // and run the full simulator.
        let local = |q: usize| support.partition_point(|&s| s < q);
        let mut compressed = Circuit::new(m);
        for ((a, b), theta) in xx.terms() {
            compressed.xx(local(a), local(b), theta);
        }
        let probs = itqc_sim::run(&compressed).probabilities();
        // Factorize over the coupling graph's components by marginalizing
        // the dense distribution onto each component's qubits.
        let components = xx
            .component_masks()
            .into_iter()
            .map(|mask| {
                let qubits: Vec<usize> =
                    support.iter().copied().filter(|&q| (mask >> q) & 1 == 1).collect();
                let members: Vec<usize> = qubits.iter().map(|&q| local(q)).collect();
                let mut comp_probs = vec![0.0f64; 1usize << members.len()];
                for (state, &p) in probs.iter().enumerate() {
                    let mut idx = 0usize;
                    for (k, &member) in members.iter().enumerate() {
                        if (state >> member) & 1 == 1 {
                            idx |= 1 << k;
                        }
                    }
                    comp_probs[idx] += p;
                }
                ComponentDist::new(qubits, &comp_probs)
            })
            .collect();
        Ok(DensePrepared { n_qubits, support, probs, components })
    }

    /// Maps a full-register basis string onto the support-local index,
    /// or `None` if an off-support bit is set (probability 0).
    fn local_index(&self, target: BitString) -> Option<usize> {
        let mut idx = 0usize;
        let mut seen: BitString = 0;
        for (k, &q) in self.support.iter().enumerate() {
            if (target >> q) & 1 == 1 {
                idx |= 1 << k;
            }
            seen |= (1 as BitString) << q;
        }
        if target & !seen != 0 {
            None
        } else {
            Some(idx)
        }
    }
}

impl PreparedCircuit for DensePrepared {
    fn n_qubits(&self) -> usize {
        self.n_qubits
    }

    fn support(&self) -> &[usize] {
        &self.support
    }

    fn probability(&self, target: BitString) -> f64 {
        match self.local_index(target) {
            Some(idx) => self.probs[idx],
            None => 0.0,
        }
    }

    fn marginal_one(&self, q: usize) -> f64 {
        let Ok(k) = self.support.binary_search(&q) else {
            return 0.0; // untouched qubits stay |0⟩
        };
        self.probs
            .iter()
            .enumerate()
            .filter(|&(state, _)| (state >> k) & 1 == 1)
            .map(|(_, &p)| p)
            .sum()
    }

    fn sample(&self, rng: &mut SmallRng, shots: usize) -> Vec<BitString> {
        sample_strings_blocked(&self.components, rng, shots)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use std::f64::consts::FRAC_PI_2;

    #[test]
    fn support_compression_reaches_beyond_dense_register_wall() {
        // One MS pair on a 40-qubit register: support 2, trivially dense.
        let mut xx = XxCircuit::new(40);
        xx.add_xx(3, 37, FRAC_PI_2);
        let prep = DensePrepared::build(&xx).unwrap();
        assert_eq!(prep.support(), &[3, 37]);
        assert!((prep.probability(0) - 0.5).abs() < 1e-12);
        assert!((prep.probability((1 << 3) | (1 << 37)) - 0.5).abs() < 1e-12);
        assert_eq!(prep.probability(1 << 5), 0.0);
        assert!((prep.marginal_one(3) - 0.5).abs() < 1e-12);
        assert_eq!(prep.marginal_one(5), 0.0);
    }

    #[test]
    fn empty_circuit_is_deterministic_zero() {
        let prep = DensePrepared::build(&XxCircuit::new(5)).unwrap();
        assert_eq!(prep.probability(0), 1.0);
        assert_eq!(prep.probability(1), 0.0);
        let mut rng = SmallRng::seed_from_u64(1);
        assert!(prep.sample(&mut rng, 10).iter().all(|&s| s == 0));
    }

    #[test]
    fn component_marginalization_matches_full_distribution() {
        let mut rng = SmallRng::seed_from_u64(77);
        let n = 6;
        let mut xx = XxCircuit::new(n);
        for _ in 0..7 {
            let a = rng.gen_range(0..n);
            let mut b = rng.gen_range(0..n);
            while b == a {
                b = rng.gen_range(0..n);
            }
            xx.add_xx(a, b, rng.gen_range(-2.0..2.0));
        }
        let prep = DensePrepared::build(&xx).unwrap();
        // Product of component probabilities equals the joint for any
        // target (components are unentangled).
        for target in 0..(1 << n) as BitString {
            let joint = prep.probability(target);
            let product: f64 =
                prep.components.iter().map(|d| d.probability(d.local_state(target))).product();
            let off_support = prep.local_index(target).is_none();
            if !off_support {
                assert!((joint - product).abs() < 1e-10, "target {target:06b}");
            }
        }
    }
}
