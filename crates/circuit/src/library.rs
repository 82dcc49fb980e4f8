//! A library of standard quantum algorithms.
//!
//! These are the "real-life quantum circuits" used for the paper's Fig. 11
//! coupling-utilisation census (stand-in for the workload suite of
//! reference \[27\]) and by the examples. Each generator returns a plain
//! [`Circuit`] in the generic gate set; transpile with
//! [`crate::transpile::to_native`] to obtain ion-trap native gates.

use crate::circuit::Circuit;
use rand::Rng;
use std::f64::consts::PI;

/// Quantum Fourier transform on `n` qubits (with final bit-reversal swaps).
///
/// Uses all `C(n,2)` controlled-phase couplings — the densest workload in
/// the suite.
pub fn qft(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    for q in (0..n).rev() {
        c.h(q);
        for (k, ctl) in (0..q).rev().enumerate() {
            c.cphase(ctl, q, PI / (1 << (k + 1)) as f64);
        }
    }
    for q in 0..n / 2 {
        c.swap(q, n - 1 - q);
    }
    c
}

/// GHZ state preparation: H on qubit 0 then a CNOT chain.
pub fn ghz(n: usize) -> Circuit {
    let mut c = Circuit::new(n);
    c.h(0);
    for q in 1..n {
        c.cnot(q - 1, q);
    }
    c
}

/// Bernstein–Vazirani circuit for an `n`-bit secret (the last qubit is the
/// oracle ancilla, so the register has `n + 1` qubits).
pub fn bernstein_vazirani(secret: usize, n: usize) -> Circuit {
    let mut c = Circuit::new(n + 1);
    c.x(n).h(n);
    for q in 0..n {
        c.h(q);
    }
    for q in 0..n {
        if (secret >> q) & 1 == 1 {
            c.cnot(q, n);
        }
    }
    for q in 0..n {
        c.h(q);
    }
    c
}

/// One QAOA layer pair (cost + mixer) per `(gamma, beta)` element, for
/// MaxCut on the given edge list.
///
/// # Panics
///
/// Panics if an edge references a qubit `>= n`.
pub fn qaoa_maxcut(n: usize, edges: &[(usize, usize)], angles: &[(f64, f64)]) -> Circuit {
    let mut c = Circuit::new(n);
    for q in 0..n {
        c.h(q);
    }
    for &(gamma, beta) in angles {
        for &(a, b) in edges {
            assert!(a < n && b < n, "edge ({a},{b}) out of range");
            // exp(-iγ Z_a Z_b) via CNOT–Rz–CNOT.
            c.cnot(a, b).rz(b, 2.0 * gamma).cnot(a, b);
        }
        for q in 0..n {
            c.rx(q, 2.0 * beta);
        }
    }
    c
}

/// A random 3-regular graph on `n` vertices (n even), for QAOA workloads.
/// Uses repeated perfect matchings with collision retries.
pub fn random_3_regular<R: Rng + ?Sized>(n: usize, rng: &mut R) -> Vec<(usize, usize)> {
    assert!(n >= 4 && n.is_multiple_of(2), "3-regular graph needs even n >= 4");
    loop {
        let mut edges = std::collections::BTreeSet::new();
        let mut ok = true;
        for _ in 0..3 {
            // Random perfect matching.
            let mut verts: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                let j = rng.gen_range(0..=i);
                verts.swap(i, j);
            }
            for pair in verts.chunks(2) {
                let (a, b) = (pair[0].min(pair[1]), pair[0].max(pair[1]));
                if !edges.insert((a, b)) {
                    ok = false;
                    break;
                }
            }
            if !ok {
                break;
            }
        }
        if ok {
            return edges.into_iter().collect();
        }
    }
}

/// Hardware-efficient VQE ansatz: `layers` rounds of per-qubit `Ry`+`Rz`
/// rotations followed by a linear CNOT entangling chain.
///
/// `params` supplies rotation angles round-robin (cycled if short).
pub fn vqe_ansatz(n: usize, layers: usize, params: &[f64]) -> Circuit {
    let mut c = Circuit::new(n);
    let mut k = 0usize;
    let next = |k: &mut usize| {
        let v = if params.is_empty() { 0.1 } else { params[*k % params.len()] };
        *k += 1;
        v
    };
    for _ in 0..layers {
        for q in 0..n {
            let a = next(&mut k);
            let b = next(&mut k);
            c.ry(q, a).rz(q, b);
        }
        for q in 0..n.saturating_sub(1) {
            c.cnot(q, q + 1);
        }
    }
    c
}

/// Cuccaro ripple-carry adder computing `b += a` on two `bits`-bit
/// registers, with a carry-in ancilla and an explicit carry-out qubit.
///
/// Register layout: `a` occupies qubits `0..bits`, `b` occupies
/// `bits..2·bits`, carry-in is qubit `2·bits` (|0⟩), carry-out is qubit
/// `2·bits + 1`.
pub fn cuccaro_adder(bits: usize) -> Circuit {
    assert!(bits >= 1, "adder needs at least one bit");
    let n = 2 * bits + 2;
    let mut c = Circuit::new(n);
    let a = |i: usize| i;
    let b = |i: usize| bits + i;
    let carry_in = 2 * bits;
    let carry_out = 2 * bits + 1;

    let maj = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.cnot(z, y).cnot(z, x).toffoli(x, y, z);
    };
    let uma = |c: &mut Circuit, x: usize, y: usize, z: usize| {
        c.toffoli(x, y, z).cnot(z, x).cnot(x, y);
    };

    maj(&mut c, carry_in, b(0), a(0));
    for i in 1..bits {
        maj(&mut c, a(i - 1), b(i), a(i));
    }
    // After the MAJ cascade the top `a` qubit holds the carry; copy it out.
    c.cnot(a(bits - 1), carry_out);
    for i in (1..bits).rev() {
        uma(&mut c, a(i - 1), b(i), a(i));
    }
    uma(&mut c, carry_in, b(0), a(0));
    c
}

/// Grover search on `n` qubits for a single `marked` basis state, with
/// `iters` Grover iterations. Oracle and diffusion use a multi-controlled-Z
/// built from Toffoli cascades with `n − 2` work qubits appended.
pub fn grover(n: usize, marked: usize, iters: usize) -> Circuit {
    assert!(n >= 2, "grover needs at least two qubits");
    assert!(marked < (1 << n), "marked state out of range");
    let anc = n.saturating_sub(2);
    let mut c = Circuit::new(n + anc);
    for q in 0..n {
        c.h(q);
    }
    for _ in 0..iters {
        phase_flip_on(&mut c, n, marked);
        // Diffusion: reflection about |s⟩ = H^{⊗n} (2|0⟩⟨0| − I) H^{⊗n},
        // realised as a phase flip of the all-zeros pattern (global sign
        // aside).
        for q in 0..n {
            c.h(q);
        }
        phase_flip_on(&mut c, n, 0);
        for q in 0..n {
            c.h(q);
        }
    }
    c
}

/// Applies a phase flip to exactly the `pattern` basis state of the first
/// `n` qubits (multi-controlled-Z with X conjugation), using work qubits
/// `n..` for the Toffoli cascade.
fn phase_flip_on(c: &mut Circuit, n: usize, pattern: usize) {
    for q in 0..n {
        if (pattern >> q) & 1 == 0 {
            c.x(q);
        }
    }
    match n {
        1 => {
            c.z(0);
        }
        2 => {
            c.cz(0, 1);
        }
        _ => {
            // AND-tree into ancillas, CZ, then uncompute.
            c.toffoli(0, 1, n);
            for k in 2..n - 1 {
                c.toffoli(k, n + k - 2, n + k - 1);
            }
            c.cz(n - 1, n + n - 3);
            for k in (2..n - 1).rev() {
                c.toffoli(k, n + k - 2, n + k - 1);
            }
            c.toffoli(0, 1, n);
        }
    }
    for q in 0..n {
        if (pattern >> q) & 1 == 0 {
            c.x(q);
        }
    }
}

/// First-order Trotterised transverse-field Ising evolution on a chain:
/// `steps` steps of `exp(-i J Z_q Z_{q+1} dt)` + `exp(-i h X_q dt)`.
pub fn trotter_ising(n: usize, steps: usize, j_coupling: f64, field: f64, dt: f64) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..steps {
        for q in 0..n.saturating_sub(1) {
            c.cnot(q, q + 1).rz(q + 1, 2.0 * j_coupling * dt).cnot(q, q + 1);
        }
        for q in 0..n {
            c.rx(q, 2.0 * field * dt);
        }
    }
    c
}

/// W-state preparation on `n` qubits via the standard cascade of
/// controlled rotations: `|W⟩ = (|100…⟩ + |010…⟩ + … + |0…01⟩)/√n`.
pub fn w_state(n: usize) -> Circuit {
    assert!(n >= 2, "W state needs at least two qubits");
    let mut c = Circuit::new(n);
    c.x(0);
    for k in 1..n {
        // Rotate amplitude from qubit k−1 onto qubit k with the angle that
        // leaves 1/(n−k+1) of the remaining weight behind, via a
        // controlled-Ry built from two CNOTs and half-angle rotations.
        let remaining = (n - k + 1) as f64;
        let theta = 2.0 * (1.0 / remaining.sqrt()).acos();
        c.ry(k, theta / 2.0);
        c.cnot(k - 1, k);
        c.ry(k, -theta / 2.0);
        c.cnot(k - 1, k);
        c.cnot(k, k - 1);
    }
    c
}

/// Quantum phase estimation of `Phase(2π·phase)` acting on one target
/// qubit prepared in `|1⟩`, with `bits` counting qubits. Register layout:
/// counting qubits `0..bits`, target is qubit `bits`.
pub fn phase_estimation(bits: usize, phase: f64) -> Circuit {
    assert!(bits >= 1, "need at least one counting qubit");
    let n = bits + 1;
    let target = bits;
    let mut c = Circuit::new(n);
    c.x(target);
    for q in 0..bits {
        c.h(q);
    }
    // Controlled powers U^{2^q}.
    for q in 0..bits {
        let angle = 2.0 * PI * phase * (1u64 << q) as f64;
        c.cphase(q, target, angle);
    }
    // Inverse QFT on the counting register.
    let iqft = {
        let mut f = Circuit::new(n);
        for q in 0..bits / 2 {
            f.swap(q, bits - 1 - q);
        }
        for q in 0..bits {
            for k in 0..q {
                f.cphase(k, q, -PI / (1 << (q - k)) as f64);
            }
            f.h(q);
        }
        f
    };
    c.append(&iqft);
    c
}

/// The 24-element single-qubit Clifford group, each element as a short
/// `H`/`S` gate word (applied left to right). Generated by breadth-first
/// search over products, deduplicated up to global phase.
///
/// Used by randomized benchmarking (paper §II-B): RB draws random
/// sequences from exactly this restricted gate set.
pub fn single_qubit_cliffords() -> Vec<Vec<crate::gates::Gate>> {
    use crate::gates::Gate;
    use itqc_math::Mat2;
    let gens = [Gate::H, Gate::S];
    let mut reps: Vec<(Vec<Gate>, Mat2)> = vec![(Vec::new(), Mat2::identity())];
    let mut frontier = vec![0usize];
    while !frontier.is_empty() {
        let mut next = Vec::new();
        for &idx in &frontier {
            let (word, mat) = reps[idx].clone();
            for &g in &gens {
                let m = g.matrix1().expect("1q gate").mul(&mat);
                if !reps.iter().any(|(_, known)| known.approx_eq_up_to_phase(&m, 1e-9)) {
                    let mut w = word.clone();
                    w.push(g);
                    reps.push((w, m));
                    next.push(reps.len() - 1);
                }
            }
        }
        frontier = next;
    }
    debug_assert_eq!(reps.len(), 24, "the 1q Clifford group has 24 elements");
    reps.into_iter().map(|(w, _)| w).collect()
}

/// The composed 2×2 unitary of a Clifford gate word.
pub fn clifford_matrix(word: &[crate::gates::Gate]) -> itqc_math::Mat2 {
    let mut m = itqc_math::Mat2::identity();
    for g in word {
        m = g.matrix1().expect("1q gate").mul(&m);
    }
    m
}

/// A random circuit: alternating layers of random single-qubit rotations
/// and `XX(π/4)` gates on a random qubit pairing.
pub fn random_circuit<R: Rng + ?Sized>(n: usize, layers: usize, rng: &mut R) -> Circuit {
    let mut c = Circuit::new(n);
    for _ in 0..layers {
        for q in 0..n {
            c.r(q, rng.gen_range(0.0..PI), rng.gen_range(0.0..2.0 * PI));
        }
        let mut verts: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.gen_range(0..=i);
            verts.swap(i, j);
        }
        for pair in verts.chunks(2) {
            if pair.len() == 2 {
                c.xx(pair[0], pair[1], PI / 4.0);
            }
        }
    }
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use itqc_math::{CMatrix, Complex64};
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn amplitude_of(c: &Circuit, basis: usize) -> Complex64 {
        let u = c.unitary();
        let dim = 1usize << c.n_qubits();
        let mut v = vec![Complex64::ZERO; dim];
        v[0] = Complex64::ONE;
        u.mul_vec(&v)[basis]
    }

    #[test]
    fn ghz_amplitudes() {
        let c = ghz(3);
        let a0 = amplitude_of(&c, 0);
        let a7 = amplitude_of(&c, 7);
        let s = std::f64::consts::FRAC_1_SQRT_2;
        assert!((a0.norm() - s).abs() < 1e-12);
        assert!((a7.norm() - s).abs() < 1e-12);
    }

    #[test]
    fn qft_matches_dft_matrix() {
        let n = 3;
        let c = qft(n);
        let u = c.unitary();
        let dim = 1 << n;
        let omega = 2.0 * PI / dim as f64;
        let mut dft = CMatrix::zeros(dim, dim);
        for r in 0..dim {
            for col in 0..dim {
                *dft.at_mut(r, col) =
                    Complex64::cis(omega * (r * col) as f64) / (dim as f64).sqrt();
            }
        }
        assert!(u.approx_eq_up_to_phase(&dft, 1e-10), "QFT unitary mismatch");
    }

    #[test]
    fn bernstein_vazirani_recovers_secret() {
        let n = 4;
        let secret = 0b1011;
        let c = bernstein_vazirani(secret, n);
        let u = c.unitary();
        let dim = 1usize << (n + 1);
        let mut v = vec![Complex64::ZERO; dim];
        v[0] = Complex64::ONE;
        let out = u.mul_vec(&v);
        // Data register must read `secret` with certainty (ancilla in |−⟩).
        let mut p_secret = 0.0;
        for (idx, amp) in out.iter().enumerate() {
            if idx & ((1 << n) - 1) == secret {
                p_secret += amp.norm_sqr();
            }
        }
        assert!((p_secret - 1.0).abs() < 1e-10);
    }

    #[test]
    fn grover_amplifies_marked_state() {
        let n = 3;
        let marked = 5;
        let c = grover(n, marked, 2);
        let u = c.unitary();
        let dim = 1usize << c.n_qubits();
        let mut v = vec![Complex64::ZERO; dim];
        v[0] = Complex64::ONE;
        let out = u.mul_vec(&v);
        let mut p_marked = 0.0;
        for (idx, amp) in out.iter().enumerate() {
            if idx & ((1 << n) - 1) == marked {
                p_marked += amp.norm_sqr();
            }
        }
        // Two iterations at n=3 give ~94.5% success.
        assert!(p_marked > 0.9, "p_marked = {p_marked}");
    }

    #[test]
    fn cuccaro_adds_correctly() {
        let bits = 2;
        let c = cuccaro_adder(bits);
        let u = c.unitary();
        let dim = 1usize << c.n_qubits();
        for a_val in 0..(1 << bits) {
            for b_val in 0..(1 << bits) {
                let input = a_val | (b_val << bits);
                let mut v = vec![Complex64::ZERO; dim];
                v[input] = Complex64::ONE;
                let out = u.mul_vec(&v);
                let (idx, amp) = out
                    .iter()
                    .enumerate()
                    .max_by(|(_, x), (_, y)| x.norm_sqr().partial_cmp(&y.norm_sqr()).unwrap())
                    .unwrap();
                assert!((amp.norm() - 1.0).abs() < 1e-9, "non-classical output");
                let sum = (a_val + b_val) & ((1 << (bits + 1)) - 1);
                let b_out = (idx >> bits) & ((1 << bits) - 1);
                let carry_in = (idx >> (2 * bits)) & 1;
                let carry_out = (idx >> (2 * bits + 1)) & 1;
                assert_eq!(carry_in, 0, "carry-in ancilla must be restored");
                assert_eq!(b_out | (carry_out << bits), sum, "a={a_val} b={b_val}");
                assert_eq!(idx & ((1 << bits) - 1), a_val, "a register must be preserved");
            }
        }
    }

    #[test]
    fn qaoa_uses_exactly_graph_edges() {
        let edges = [(0, 1), (1, 2), (2, 3), (0, 3)];
        let c = qaoa_maxcut(4, &edges, &[(0.4, 0.7)]);
        let used = c.used_couplings();
        assert_eq!(used.len(), 4);
    }

    #[test]
    fn random_3_regular_has_correct_degrees() {
        let mut rng = SmallRng::seed_from_u64(17);
        let n = 10;
        let edges = random_3_regular(n, &mut rng);
        assert_eq!(edges.len(), 3 * n / 2);
        let mut deg = vec![0usize; n];
        for (a, b) in edges {
            assert_ne!(a, b);
            deg[a] += 1;
            deg[b] += 1;
        }
        assert!(deg.iter().all(|&d| d == 3));
    }

    #[test]
    fn trotter_ising_uses_chain_couplings() {
        let c = trotter_ising(5, 3, 1.0, 0.5, 0.1);
        assert_eq!(c.used_couplings().len(), 4);
    }

    #[test]
    fn vqe_ansatz_structure() {
        let c = vqe_ansatz(4, 2, &[0.1, 0.2, 0.3]);
        assert_eq!(c.used_couplings().len(), 3);
        let count = |name| c.ops().iter().filter(|op| op.gate.name() == name).count();
        assert!(count("ry") == 8 && count("rz") == 8);
    }

    #[test]
    fn w_state_amplitudes() {
        for n in [2usize, 3, 5] {
            let c = w_state(n);
            let u = c.unitary();
            let dim = 1usize << n;
            let mut v = vec![Complex64::ZERO; dim];
            v[0] = Complex64::ONE;
            let out = u.mul_vec(&v);
            let expect = 1.0 / (n as f64).sqrt();
            let mut weight_ones = 0.0;
            for (idx, amp) in out.iter().enumerate() {
                if idx.count_ones() == 1 {
                    assert!(
                        (amp.norm() - expect).abs() < 1e-9,
                        "n={n} idx={idx} amp={}",
                        amp.norm()
                    );
                    weight_ones += amp.norm_sqr();
                } else {
                    assert!(amp.norm() < 1e-9, "n={n}: weight outside W manifold at {idx}");
                }
            }
            assert!((weight_ones - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn phase_estimation_reads_exact_phase() {
        // phase = 3/8 is exactly representable with 3 counting bits.
        let bits = 3;
        let c = phase_estimation(bits, 3.0 / 8.0);
        let u = c.unitary();
        let dim = 1usize << c.n_qubits();
        let mut v = vec![Complex64::ZERO; dim];
        v[0] = Complex64::ONE;
        let out = u.mul_vec(&v);
        // Counting register must read 3 (little-endian bits 0..3) with the
        // target still |1⟩.
        let want = 3usize | (1 << bits);
        let p: f64 = out[want].norm_sqr();
        assert!(p > 0.99, "P(count=3) = {p}");
    }

    #[test]
    fn clifford_group_has_24_elements() {
        let cliffords = single_qubit_cliffords();
        assert_eq!(cliffords.len(), 24);
        // Pairwise distinct up to phase.
        let mats: Vec<_> = cliffords.iter().map(|w| clifford_matrix(w)).collect();
        for i in 0..24 {
            for j in (i + 1)..24 {
                assert!(
                    !mats[i].approx_eq_up_to_phase(&mats[j], 1e-9),
                    "elements {i} and {j} collide"
                );
            }
        }
    }

    #[test]
    fn clifford_group_closed_under_inverse() {
        // Every element's inverse is in the group (up to phase).
        let cliffords = single_qubit_cliffords();
        let mats: Vec<_> = cliffords.iter().map(|w| clifford_matrix(w)).collect();
        for m in &mats {
            let inv = m.adjoint();
            assert!(
                mats.iter().any(|k| k.approx_eq_up_to_phase(&inv, 1e-9)),
                "inverse missing from group"
            );
        }
    }

    #[test]
    fn random_circuit_is_reproducible() {
        let mut r1 = SmallRng::seed_from_u64(5);
        let mut r2 = SmallRng::seed_from_u64(5);
        assert_eq!(random_circuit(6, 3, &mut r1), random_circuit(6, 3, &mut r2));
    }
}
