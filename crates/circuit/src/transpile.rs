//! Transpilation to the ion-trap native gate set.
//!
//! The native set is `{R(θ, φ), Rz(θ), XX(θ)}` — equatorial single-qubit
//! rotations (laser-driven), virtual Z rotations (frame updates), and
//! arbitrary-angle Mølmer–Sørensen gates. `CNOT` lowers through the MS
//! identity quoted in the paper's §II-B:
//!
//! `CNOT = (Ry(π/2)⊗I)·(Rx(−π/2)⊗Rx(π/2))·XX(π/2)·(Ry(−π/2)⊗I)`
//!
//! (up to global phase), and everything else lowers through `CNOT`/`CZ` or
//! direct `Rz`/`R` synthesis. A fusion pass collapses runs of single-qubit
//! gates into at most `R(θ,φ)·Rz(ζ)` via ZXZ resynthesis.

use crate::circuit::{Circuit, Op};
use crate::gates::Gate;
use itqc_math::Mat2;
use std::f64::consts::{FRAC_PI_2, PI};

/// Lowers a circuit to the native gate set. Output contains only
/// `R(θ,φ)`, `Rz`, and `Xx` gates (every `Ms` is kept as-is: it is native).
///
/// The result is unitarily equivalent to the input up to global phase.
pub fn to_native(circuit: &Circuit) -> Circuit {
    let mut out = Circuit::new(circuit.n_qubits());
    for op in circuit.ops() {
        lower_op(op, &mut out);
    }
    out
}

/// Lowers and then fuses adjacent single-qubit gates; the typical entry
/// point for the Fig. 11 census and the examples.
pub fn to_native_optimized(circuit: &Circuit) -> Circuit {
    fuse_single_qubit_runs(&to_native(circuit))
}

fn lower_op(op: &Op, out: &mut Circuit) {
    let qs = op.qubits();
    match op.gate {
        // Already native.
        Gate::R { theta, phi } => {
            out.r(qs[0], theta, phi);
        }
        Gate::Rz(t) => {
            out.rz(qs[0], t);
        }
        Gate::Xx(t) => {
            out.xx(qs[0], qs[1], t);
        }
        Gate::Ms { theta, phi1, phi2 } => {
            out.ms(qs[0], qs[1], theta, phi1, phi2);
        }
        // Single-qubit rewrites.
        Gate::X => {
            out.r(qs[0], PI, 0.0);
        }
        Gate::Y => {
            out.r(qs[0], PI, FRAC_PI_2);
        }
        Gate::Z => {
            out.rz(qs[0], PI);
        }
        Gate::H => {
            // H = Ry(π/2)·Z (apply Z first, then Ry(π/2)).
            out.rz(qs[0], PI);
            out.r(qs[0], FRAC_PI_2, FRAC_PI_2);
        }
        Gate::S => {
            out.rz(qs[0], FRAC_PI_2);
        }
        Gate::Sdg => {
            out.rz(qs[0], -FRAC_PI_2);
        }
        Gate::T => {
            out.rz(qs[0], PI / 4.0);
        }
        Gate::Tdg => {
            out.rz(qs[0], -PI / 4.0);
        }
        Gate::Phase(l) => {
            out.rz(qs[0], l);
        }
        Gate::Rx(t) => {
            out.r(qs[0], t, 0.0);
        }
        Gate::Ry(t) => {
            out.r(qs[0], t, FRAC_PI_2);
        }
        // Two-qubit rewrites.
        Gate::Cnot => {
            lower_cnot(qs[0], qs[1], out);
        }
        Gate::Cz => {
            // CZ = (I⊗H)·CNOT·(I⊗H).
            lower_op(&Op::one(Gate::H, qs[1]), out);
            lower_cnot(qs[0], qs[1], out);
            lower_op(&Op::one(Gate::H, qs[1]), out);
        }
        Gate::Swap => {
            lower_cnot(qs[0], qs[1], out);
            lower_cnot(qs[1], qs[0], out);
            lower_cnot(qs[0], qs[1], out);
        }
        Gate::CPhase(l) => {
            // CP(λ) ∝ Rz(λ/2)⊗Rz(λ/2) · ZZ(−λ/2), with
            // ZZ(θ) = (Ry(−π/2)⊗Ry(−π/2))·XX(θ)·(Ry(π/2)⊗Ry(π/2)).
            out.r(qs[0], FRAC_PI_2, FRAC_PI_2);
            out.r(qs[1], FRAC_PI_2, FRAC_PI_2);
            out.xx(qs[0], qs[1], -l / 2.0);
            out.r(qs[0], -FRAC_PI_2, FRAC_PI_2);
            out.r(qs[1], -FRAC_PI_2, FRAC_PI_2);
            out.rz(qs[0], l / 2.0);
            out.rz(qs[1], l / 2.0);
        }
    }
}

/// The paper's MS-based CNOT (§II-B), control `c`, target `t`.
fn lower_cnot(c: usize, t: usize, out: &mut Circuit) {
    out.r(c, -FRAC_PI_2, FRAC_PI_2); // Ry(−π/2) on control
    out.xx(c, t, FRAC_PI_2);
    out.r(c, -FRAC_PI_2, 0.0); // Rx(−π/2) on control
    out.r(t, FRAC_PI_2, 0.0); // Rx(π/2) on target
    out.r(c, FRAC_PI_2, FRAC_PI_2); // Ry(π/2) on control
}

/// Collapses maximal runs of consecutive single-qubit gates on each qubit
/// into at most two native ops (`R(θ,φ)` then `Rz(ζ)`) via ZXZ
/// resynthesis; identity runs are dropped entirely.
///
/// Two-qubit gates act as barriers on their operand qubits.
pub fn fuse_single_qubit_runs(circuit: &Circuit) -> Circuit {
    let n = circuit.n_qubits();
    let mut out = Circuit::new(n);
    // Accumulated single-qubit unitary per qubit (None = identity).
    let mut pending: Vec<Option<Mat2>> = vec![None; n];

    let flush = |q: usize, pending: &mut Vec<Option<Mat2>>, out: &mut Circuit| {
        if let Some(u) = pending[q].take() {
            for op in synthesize_1q(&u, q) {
                out.push(op);
            }
        }
    };

    for op in circuit.ops() {
        match op.gate.arity() {
            1 => {
                let q = op.qubits()[0];
                let m = op.gate.matrix1().expect("arity-1 gate has a 2x2 matrix");
                let acc = match pending[q] {
                    Some(prev) => m.mul(&prev),
                    None => m,
                };
                pending[q] = Some(acc);
            }
            _ => {
                for &q in op.qubits() {
                    flush(q, &mut pending, &mut out);
                }
                out.push(*op);
            }
        }
    }
    for q in 0..n {
        flush(q, &mut pending, &mut out);
    }
    out
}

/// Synthesises an arbitrary 2×2 unitary as `Rz(ζ) · R(θ, φ)` (R applied
/// first), dropping factors that are identity to tolerance. Returns 0–2 ops.
///
/// Uses the ZXZ decomposition `U = e^{iδ}·Rz(a)·Rx(θ)·Rz(b)` and the
/// identity `Rz(a)·Rx(θ)·Rz(b) = Rz(a+b)·R(θ, −b)`. Because `a+b` and
/// `a−b` are each recovered only modulo 2π, `b` carries a π ambiguity; we
/// resolve it by verifying the reconstruction and flipping to the
/// alternative branch when needed.
///
/// # Panics
///
/// Panics if `u` is not unitary (reconstruction then fails both branches).
pub fn synthesize_1q(u: &Mat2, qubit: usize) -> Vec<Op> {
    const TOL: f64 = 1e-12;
    let u00 = u.at(0, 0);
    let u01 = u.at(0, 1);
    let u10 = u.at(1, 0);
    let u11 = u.at(1, 1);

    let cos_half = u00.norm().min(1.0);
    let sin_half = u01.norm().min(1.0);
    let theta = 2.0 * sin_half.atan2(cos_half);

    // With U = e^{iδ} Rz(a) Rx(θ) Rz(b):
    //   arg U11 − arg U00 = a + b   (mod 2π, valid when cos ≠ 0)
    //   arg U10 − arg U01 = a − b   (mod 2π, valid when sin ≠ 0)
    let (zeta, phi) = if sin_half < 1e-9 {
        // Diagonal: U ∝ Rz(a+b); the R factor is identity.
        (u11.arg() - u00.arg(), 0.0)
    } else if cos_half < 1e-9 {
        // Anti-diagonal: only a−b matters; pick a+b = 0.
        let a_minus_b = u10.arg() - u01.arg();
        (0.0, a_minus_b / 2.0)
    } else {
        let a_plus_b = u11.arg() - u00.arg();
        let a_minus_b = u10.arg() - u01.arg();
        let b = (a_plus_b - a_minus_b) / 2.0;
        (a_plus_b, -b)
    };

    // The branch cut in a−b can offset b by π; test both candidates.
    for cand_phi in [phi, phi + PI] {
        let mut ops = Vec::with_capacity(2);
        if theta.abs() > TOL {
            ops.push(Op::one(Gate::R { theta, phi: wrap_angle(cand_phi) }, qubit));
        }
        if wrap_angle(zeta).abs() > TOL {
            ops.push(Op::one(Gate::Rz(wrap_angle(zeta)), qubit));
        }
        if ops_unitary_1q(&ops).approx_eq_up_to_phase(u, 1e-9) {
            return ops;
        }
    }
    panic!("single-qubit synthesis failed; input was not unitary?");
}

/// Wraps an angle into `(−π, π]`.
fn wrap_angle(t: f64) -> f64 {
    let mut x = t % (2.0 * PI);
    if x > PI {
        x -= 2.0 * PI;
    } else if x <= -PI {
        x += 2.0 * PI;
    }
    x
}

/// Checks the synthesis invariant used in debug assertions and tests:
/// the op list reproduces `u` up to global phase.
#[doc(hidden)]
pub fn ops_unitary_1q(ops: &[Op]) -> Mat2 {
    let mut m = Mat2::identity();
    for op in ops {
        m = op.gate.matrix1().expect("1q op").mul(&m);
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::library;
    use itqc_math::CMatrix;
    use itqc_math::Complex64;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    fn assert_equiv(a: &Circuit, b: &Circuit) {
        assert!(
            a.unitary().approx_eq_up_to_phase(&b.unitary(), 1e-8),
            "circuits are not equivalent"
        );
    }

    #[test]
    fn cnot_lowering_is_exact() {
        let mut c = Circuit::new(2);
        c.cnot(0, 1);
        assert_equiv(&c, &to_native(&c));
        let mut c2 = Circuit::new(2);
        c2.cnot(1, 0);
        assert_equiv(&c2, &to_native(&c2));
    }

    #[test]
    fn all_basic_gates_lower_correctly() {
        type GateApplier = Box<dyn Fn(&mut Circuit)>;
        let gates: Vec<GateApplier> = vec![
            Box::new(|c| {
                c.x(0);
            }),
            Box::new(|c| {
                c.y(0);
            }),
            Box::new(|c| {
                c.z(0);
            }),
            Box::new(|c| {
                c.h(0);
            }),
            Box::new(|c| {
                c.s(0);
            }),
            Box::new(|c| {
                c.t(1);
            }),
            Box::new(|c| {
                c.rx(0, 0.7);
            }),
            Box::new(|c| {
                c.ry(1, -0.4);
            }),
            Box::new(|c| {
                c.rz(0, 2.2);
            }),
            Box::new(|c| {
                c.phase(1, 0.9);
            }),
            Box::new(|c| {
                c.cz(0, 1);
            }),
            Box::new(|c| {
                c.swap(0, 1);
            }),
            Box::new(|c| {
                c.cphase(0, 1, 1.3);
            }),
        ];
        for (i, build) in gates.iter().enumerate() {
            let mut c = Circuit::new(2);
            build(&mut c);
            let native = to_native(&c);
            assert!(native.is_native(), "case {i} not native");
            assert_equiv(&c, &native);
        }
    }

    #[test]
    fn whole_algorithms_survive_lowering() {
        let circuits = [library::ghz(4), library::qft(3), library::bernstein_vazirani(0b101, 3)];
        for c in &circuits {
            let native = to_native(c);
            assert!(native.is_native());
            assert_equiv(c, &native);
        }
    }

    #[test]
    fn fusion_preserves_unitary() {
        let mut rng = SmallRng::seed_from_u64(23);
        for _ in 0..10 {
            let c = library::random_circuit(4, 4, &mut rng);
            let native = to_native(&c);
            let fused = fuse_single_qubit_runs(&native);
            assert_equiv(&native, &fused);
            assert!(fused.len() <= native.len(), "fusion must not grow the circuit");
        }
    }

    #[test]
    fn fusion_drops_identity_runs() {
        let mut c = Circuit::new(1);
        c.h(0).h(0); // H² = I
        let fused = fuse_single_qubit_runs(&c);
        assert!(fused.is_empty(), "got {fused}");
    }

    #[test]
    fn fusion_respects_two_qubit_barriers() {
        let mut c = Circuit::new(2);
        c.h(0).xx(0, 1, 0.5).h(0);
        let fused = fuse_single_qubit_runs(&c);
        // The two H's must not merge across the XX gate.
        assert_equiv(&c, &fused);
        assert_eq!(fused.two_qubit_gate_count(), 1);
        assert!(fused.len() >= 3);
    }

    #[test]
    fn synthesize_random_unitaries() {
        let mut rng = SmallRng::seed_from_u64(31);
        for _ in 0..200 {
            // Random SU(2) via three rotations.
            let u = Gate::Rz(rng.gen_range(-PI..PI))
                .matrix1()
                .unwrap()
                .mul(&Gate::Rx(rng.gen_range(-PI..PI)).matrix1().unwrap())
                .mul(&Gate::Rz(rng.gen_range(-PI..PI)).matrix1().unwrap());
            let ops = synthesize_1q(&u, 0);
            assert!(ops.len() <= 2);
            let v = ops_unitary_1q(&ops);
            assert!(v.approx_eq_up_to_phase(&u, 1e-9), "resynthesis failed");
        }
    }

    #[test]
    fn synthesize_identity_is_empty() {
        let ops = synthesize_1q(&Mat2::identity(), 0);
        assert!(ops.is_empty());
        // Global phase only — still identity physically.
        let z = Complex64::cis(1.234);
        let phased = Mat2::new([[z, Complex64::ZERO], [Complex64::ZERO, z]]);
        assert!(synthesize_1q(&phased, 0).is_empty());
    }

    #[test]
    fn native_circuit_unchanged_by_lowering() {
        let mut c = Circuit::new(3);
        c.r(0, 0.3, 0.4).xx(0, 2, 0.5).rz(1, 0.7).ms(1, 2, 0.2, 0.1, -0.1);
        let native = to_native(&c);
        assert_eq!(c, native);
    }

    #[test]
    fn lowering_uses_same_couplings() {
        // The transpiler must not change which couplings a circuit touches
        // (it introduces no SWAP routing — ion traps are all-to-all).
        let c = library::qft(4);
        let native = to_native(&c);
        assert_eq!(c.used_couplings(), native.used_couplings());
    }

    #[test]
    fn ghz_native_matches_cmatrix_reference() {
        let c = library::ghz(3);
        let u: CMatrix = c.unitary();
        let v: CMatrix = to_native_optimized(&c).unitary();
        assert!(u.approx_eq_up_to_phase(&v, 1e-8));
    }
}
