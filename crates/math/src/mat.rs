//! Fixed-size 2×2 and 4×4 complex matrices.
//!
//! These are the working types for single-qubit gates (`Mat2`) and two-qubit
//! gates (`Mat4`). Both are plain stack values with no allocation, which
//! keeps the hot simulator loops free of indirection.

use crate::complex::Complex64;

/// A 2×2 complex matrix in row-major order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mat2 {
    m: [[Complex64; 2]; 2],
}

impl Mat2 {
    /// Creates a matrix from rows.
    #[inline]
    pub const fn new(rows: [[Complex64; 2]; 2]) -> Self {
        Mat2 { m: rows }
    }

    /// The 2×2 identity.
    pub fn identity() -> Self {
        Mat2::new([[Complex64::ONE, Complex64::ZERO], [Complex64::ZERO, Complex64::ONE]])
    }

    /// The zero matrix.
    pub fn zero() -> Self {
        Mat2::new([[Complex64::ZERO; 2]; 2])
    }

    /// Returns entry `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> Complex64 {
        self.m[r][c]
    }

    /// Returns a mutable reference to entry `(r, c)`.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut Complex64 {
        &mut self.m[r][c]
    }

    /// Matrix product `self · rhs`.
    pub fn mul(&self, rhs: &Mat2) -> Mat2 {
        let mut out = Mat2::zero();
        for r in 0..2 {
            for c in 0..2 {
                let mut acc = Complex64::ZERO;
                for k in 0..2 {
                    acc += self.m[r][k] * rhs.m[k][c];
                }
                out.m[r][c] = acc;
            }
        }
        out
    }

    /// Applies the matrix to a 2-vector.
    #[inline]
    pub fn mul_vec(&self, v: [Complex64; 2]) -> [Complex64; 2] {
        [self.m[0][0] * v[0] + self.m[0][1] * v[1], self.m[1][0] * v[0] + self.m[1][1] * v[1]]
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Mat2 {
        let mut out = Mat2::zero();
        for r in 0..2 {
            for c in 0..2 {
                out.m[r][c] = self.m[c][r].conj();
            }
        }
        out
    }

    /// Multiplies every entry by a real scalar.
    pub fn scale(&self, s: f64) -> Mat2 {
        let mut out = *self;
        for r in 0..2 {
            for c in 0..2 {
                out.m[r][c] = out.m[r][c] * s;
            }
        }
        out
    }

    /// Trace of the matrix.
    pub fn trace(&self) -> Complex64 {
        self.m[0][0] + self.m[1][1]
    }

    /// Returns `true` when `U U† = I` within `tol` entry-wise.
    pub fn is_unitary(&self, tol: f64) -> bool {
        let p = self.mul(&self.adjoint());
        p.approx_eq(&Mat2::identity(), tol)
    }

    /// Entry-wise approximate equality.
    pub fn approx_eq(&self, other: &Mat2, tol: f64) -> bool {
        for r in 0..2 {
            for c in 0..2 {
                if !self.m[r][c].approx_eq(other.m[r][c], tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Approximate equality up to a global phase `e^{iγ}`.
    ///
    /// Quantum gates that differ only by global phase are physically
    /// identical; this is the right notion of equality for transpiler tests.
    pub fn approx_eq_up_to_phase(&self, other: &Mat2, tol: f64) -> bool {
        phase_align_eq(self.m.iter().flatten().copied(), other.m.iter().flatten().copied(), tol)
    }
}

/// A 4×4 complex matrix in row-major order.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Mat4 {
    m: [[Complex64; 4]; 4],
}

impl Mat4 {
    /// Creates a matrix from rows.
    #[inline]
    pub const fn new(rows: [[Complex64; 4]; 4]) -> Self {
        Mat4 { m: rows }
    }

    /// The 4×4 identity.
    pub fn identity() -> Self {
        let mut out = Mat4::zero();
        for k in 0..4 {
            out.m[k][k] = Complex64::ONE;
        }
        out
    }

    /// The zero matrix.
    pub fn zero() -> Self {
        Mat4::new([[Complex64::ZERO; 4]; 4])
    }

    /// Returns entry `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> Complex64 {
        self.m[r][c]
    }

    /// Returns a mutable reference to entry `(r, c)`.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut Complex64 {
        &mut self.m[r][c]
    }

    /// Matrix product `self · rhs`.
    pub fn mul(&self, rhs: &Mat4) -> Mat4 {
        let mut out = Mat4::zero();
        for r in 0..4 {
            for c in 0..4 {
                let mut acc = Complex64::ZERO;
                for k in 0..4 {
                    acc += self.m[r][k] * rhs.m[k][c];
                }
                out.m[r][c] = acc;
            }
        }
        out
    }

    /// Applies the matrix to a 4-vector.
    pub fn mul_vec(&self, v: [Complex64; 4]) -> [Complex64; 4] {
        let mut out = [Complex64::ZERO; 4];
        for (r, slot) in out.iter_mut().enumerate() {
            for (k, &vk) in v.iter().enumerate() {
                *slot += self.m[r][k] * vk;
            }
        }
        out
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> Mat4 {
        let mut out = Mat4::zero();
        for r in 0..4 {
            for c in 0..4 {
                out.m[r][c] = self.m[c][r].conj();
            }
        }
        out
    }

    /// Multiplies every entry by a real scalar.
    pub fn scale(&self, s: f64) -> Mat4 {
        let mut out = *self;
        for r in 0..4 {
            for c in 0..4 {
                out.m[r][c] = out.m[r][c] * s;
            }
        }
        out
    }

    /// Trace of the matrix.
    pub fn trace(&self) -> Complex64 {
        (0..4).map(|k| self.m[k][k]).sum()
    }

    /// Kronecker product of two 2×2 matrices: `a ⊗ b`.
    ///
    /// Index convention: the first factor acts on the more significant qubit
    /// of the pair, so `(a ⊗ b)[2r₁+r₂][2c₁+c₂] = a[r₁][c₁]·b[r₂][c₂]`.
    pub fn kron(a: &Mat2, b: &Mat2) -> Mat4 {
        let mut out = Mat4::zero();
        for r1 in 0..2 {
            for c1 in 0..2 {
                for r2 in 0..2 {
                    for c2 in 0..2 {
                        out.m[2 * r1 + r2][2 * c1 + c2] = a.at(r1, c1) * b.at(r2, c2);
                    }
                }
            }
        }
        out
    }

    /// Returns `true` when `U U† = I` within `tol` entry-wise.
    pub fn is_unitary(&self, tol: f64) -> bool {
        let p = self.mul(&self.adjoint());
        p.approx_eq(&Mat4::identity(), tol)
    }

    /// Entry-wise approximate equality.
    pub fn approx_eq(&self, other: &Mat4, tol: f64) -> bool {
        for r in 0..4 {
            for c in 0..4 {
                if !self.m[r][c].approx_eq(other.m[r][c], tol) {
                    return false;
                }
            }
        }
        true
    }

    /// Approximate equality up to a global phase.
    pub fn approx_eq_up_to_phase(&self, other: &Mat4, tol: f64) -> bool {
        phase_align_eq(self.m.iter().flatten().copied(), other.m.iter().flatten().copied(), tol)
    }
}

/// Compares two entry streams for equality up to one global phase factor.
///
/// Finds the largest-magnitude entry of the first stream, derives the phase
/// that aligns it with the corresponding entry of the second, then checks all
/// entries under that alignment.
pub(crate) fn phase_align_eq<I, J>(a: I, b: J, tol: f64) -> bool
where
    I: Iterator<Item = Complex64>,
    J: Iterator<Item = Complex64>,
{
    let av: Vec<Complex64> = a.collect();
    let bv: Vec<Complex64> = b.collect();
    if av.len() != bv.len() {
        return false;
    }
    let Some((idx, _)) = av
        .iter()
        .enumerate()
        .max_by(|(_, x), (_, y)| x.norm_sqr().partial_cmp(&y.norm_sqr()).unwrap())
    else {
        return true;
    };
    if av[idx].norm() <= tol {
        // Entire first matrix is ~zero; equal iff second is too.
        return bv.iter().all(|z| z.norm() <= tol);
    }
    if bv[idx].norm() <= tol {
        return false;
    }
    let phase = bv[idx] / av[idx];
    // A pure phase must have unit modulus; tolerate small norm mismatch.
    if (phase.norm() - 1.0).abs() > tol.max(1e-9) {
        return false;
    }
    av.iter().zip(bv.iter()).all(|(&x, &y)| (x * phase).approx_eq(y, tol))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_1_SQRT_2;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    fn pauli_x() -> Mat2 {
        Mat2::new([[c(0.0, 0.0), c(1.0, 0.0)], [c(1.0, 0.0), c(0.0, 0.0)]])
    }

    fn hadamard() -> Mat2 {
        Mat2::new([[c(1.0, 0.0), c(1.0, 0.0)], [c(1.0, 0.0), c(-1.0, 0.0)]]).scale(FRAC_1_SQRT_2)
    }

    #[test]
    fn identity_is_multiplicative_unit() {
        let h = hadamard();
        assert!(h.mul(&Mat2::identity()).approx_eq(&h, 1e-15));
        assert!(Mat2::identity().mul(&h).approx_eq(&h, 1e-15));
    }

    #[test]
    fn hadamard_squares_to_identity() {
        let h = hadamard();
        assert!(h.mul(&h).approx_eq(&Mat2::identity(), 1e-12));
        assert!(h.is_unitary(1e-12));
    }

    #[test]
    fn adjoint_reverses_products() {
        let a = hadamard();
        let b = pauli_x();
        let lhs = a.mul(&b).adjoint();
        let rhs = b.adjoint().mul(&a.adjoint());
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn kron_of_identities_is_identity() {
        let k = Mat4::kron(&Mat2::identity(), &Mat2::identity());
        assert!(k.approx_eq(&Mat4::identity(), 0.0));
    }

    #[test]
    fn kron_mixed_product_property() {
        // (A⊗B)(C⊗D) = (AC)⊗(BD)
        let a = hadamard();
        let b = pauli_x();
        let lhs = Mat4::kron(&a, &b).mul(&Mat4::kron(&b, &a));
        let rhs = Mat4::kron(&a.mul(&b), &b.mul(&a));
        assert!(lhs.approx_eq(&rhs, 1e-12));
    }

    #[test]
    fn mat4_unitarity_of_kron() {
        let k = Mat4::kron(&hadamard(), &pauli_x());
        assert!(k.is_unitary(1e-12));
    }

    #[test]
    fn global_phase_equality() {
        let h = hadamard();
        let z = Complex64::cis(0.7);
        let phased = Mat2::new([[z, Complex64::ZERO], [Complex64::ZERO, z]]).mul(&h);
        assert!(h.approx_eq_up_to_phase(&phased, 1e-12));
        assert!(!h.approx_eq(&phased, 1e-12));
        assert!(!h.approx_eq_up_to_phase(&pauli_x(), 1e-9));
    }

    #[test]
    fn mul_vec_matches_mul() {
        let h = hadamard();
        let v = [c(0.6, 0.0), c(0.0, 0.8)];
        let w = h.mul_vec(v);
        let norm: f64 = w.iter().map(|z| z.norm_sqr()).sum();
        assert!((norm - 1.0).abs() < 1e-12, "unitary preserves norm");
    }

    #[test]
    fn trace_linear() {
        let a = hadamard();
        assert!((a.trace().re - 0.0).abs() < 1e-12);
        assert!((Mat4::identity().trace().re - 4.0).abs() < 1e-15);
    }
}
