//! Heap-allocated dense complex matrices.
//!
//! Used for computing full unitaries of small circuits (transpiler
//! verification, fault-model algebra) where the dimension is `2^n` for small
//! `n`. Not used in simulator hot paths.

use crate::complex::Complex64;
use crate::mat::{phase_align_eq, Mat2, Mat4};

/// A dense, row-major complex matrix.
///
/// # Example
///
/// ```
/// use itqc_math::CMatrix;
/// let id = CMatrix::identity(4);
/// assert!(id.is_unitary(1e-12));
/// ```
#[derive(Clone, Debug, PartialEq)]
pub struct CMatrix {
    rows: usize,
    cols: usize,
    data: Vec<Complex64>,
}

impl CMatrix {
    /// Creates a zero matrix of shape `rows × cols`.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMatrix { rows, cols, data: vec![Complex64::ZERO; rows * cols] }
    }

    /// Creates the `n × n` identity.
    pub fn identity(n: usize) -> Self {
        let mut m = CMatrix::zeros(n, n);
        for k in 0..n {
            *m.at_mut(k, k) = Complex64::ONE;
        }
        m
    }

    /// Number of rows.
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Returns entry `(r, c)`.
    #[inline]
    pub fn at(&self, r: usize, c: usize) -> Complex64 {
        self.data[r * self.cols + c]
    }

    /// Returns a mutable reference to entry `(r, c)`.
    #[inline]
    pub fn at_mut(&mut self, r: usize, c: usize) -> &mut Complex64 {
        &mut self.data[r * self.cols + c]
    }

    /// Matrix product `self · rhs`.
    ///
    /// # Panics
    ///
    /// Panics if the inner dimensions disagree.
    pub fn mul(&self, rhs: &CMatrix) -> CMatrix {
        assert_eq!(self.cols, rhs.rows, "dimension mismatch in matrix product");
        let mut out = CMatrix::zeros(self.rows, rhs.cols);
        for r in 0..self.rows {
            for k in 0..self.cols {
                let a = self.at(r, k);
                if a == Complex64::ZERO {
                    continue;
                }
                for c in 0..rhs.cols {
                    *out.at_mut(r, c) += a * rhs.at(k, c);
                }
            }
        }
        out
    }

    /// Applies the matrix to a vector.
    ///
    /// # Panics
    ///
    /// Panics if `v.len() != self.cols()`.
    pub fn mul_vec(&self, v: &[Complex64]) -> Vec<Complex64> {
        assert_eq!(v.len(), self.cols, "dimension mismatch in matrix-vector product");
        let mut out = vec![Complex64::ZERO; self.rows];
        for (r, o) in out.iter_mut().enumerate() {
            let mut acc = Complex64::ZERO;
            for (c, &x) in v.iter().enumerate() {
                acc += self.at(r, c) * x;
            }
            *o = acc;
        }
        out
    }

    /// Conjugate transpose.
    pub fn adjoint(&self) -> CMatrix {
        let mut out = CMatrix::zeros(self.cols, self.rows);
        for r in 0..self.rows {
            for c in 0..self.cols {
                *out.at_mut(c, r) = self.at(r, c).conj();
            }
        }
        out
    }

    /// Kronecker product `self ⊗ rhs`.
    pub fn kron(&self, rhs: &CMatrix) -> CMatrix {
        let mut out = CMatrix::zeros(self.rows * rhs.rows, self.cols * rhs.cols);
        for r1 in 0..self.rows {
            for c1 in 0..self.cols {
                let a = self.at(r1, c1);
                if a == Complex64::ZERO {
                    continue;
                }
                for r2 in 0..rhs.rows {
                    for c2 in 0..rhs.cols {
                        *out.at_mut(r1 * rhs.rows + r2, c1 * rhs.cols + c2) = a * rhs.at(r2, c2);
                    }
                }
            }
        }
        out
    }

    /// Returns `true` when the matrix is square and `U U† = I` within `tol`.
    pub fn is_unitary(&self, tol: f64) -> bool {
        if self.rows != self.cols {
            return false;
        }
        let p = self.mul(&self.adjoint());
        p.approx_eq(&CMatrix::identity(self.rows), tol)
    }

    /// Entry-wise approximate equality.
    pub fn approx_eq(&self, other: &CMatrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.data.iter().zip(other.data.iter()).all(|(a, b)| a.approx_eq(*b, tol))
    }

    /// Approximate equality up to a global phase factor.
    pub fn approx_eq_up_to_phase(&self, other: &CMatrix, tol: f64) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && phase_align_eq(self.data.iter().copied(), other.data.iter().copied(), tol)
    }

    /// Embeds a single-qubit gate acting on `target` into an `n`-qubit
    /// unitary (qubit 0 is the least-significant index bit).
    pub fn embed_1q(n: usize, target: usize, g: &Mat2) -> CMatrix {
        assert!(target < n, "target qubit out of range");
        let dim = 1usize << n;
        let mut out = CMatrix::zeros(dim, dim);
        let tbit = 1usize << target;
        for col in 0..dim {
            let cb = usize::from(col & tbit != 0);
            for rb in 0..2 {
                let row = (col & !tbit) | (rb << target);
                *out.at_mut(row, col) += g.at(rb, cb);
            }
        }
        out
    }

    /// Embeds a two-qubit gate on `(q1, q0)` into an `n`-qubit unitary.
    ///
    /// The `Mat4` index convention matches [`Mat4::kron`]: the row/column
    /// index is `2·b1 + b0` where `b1` is the bit of `q1` and `b0` of `q0`.
    ///
    /// # Panics
    ///
    /// Panics if the qubits coincide or are out of range.
    pub fn embed_2q(n: usize, q1: usize, q0: usize, g: &Mat4) -> CMatrix {
        assert!(q1 < n && q0 < n && q1 != q0, "bad two-qubit target");
        let dim = 1usize << n;
        let mut out = CMatrix::zeros(dim, dim);
        let b1 = 1usize << q1;
        let b0 = 1usize << q0;
        for col in 0..dim {
            let c1 = usize::from(col & b1 != 0);
            let c0 = usize::from(col & b0 != 0);
            let cin = 2 * c1 + c0;
            let base = col & !(b1 | b0);
            for rin in 0..4 {
                let r1 = rin >> 1;
                let r0 = rin & 1;
                let row = base | (r1 << q1) | (r0 << q0);
                *out.at_mut(row, col) += g.at(rin, cin);
            }
        }
        out
    }
}

impl From<&Mat2> for CMatrix {
    fn from(m: &Mat2) -> Self {
        let mut out = CMatrix::zeros(2, 2);
        for r in 0..2 {
            for c in 0..2 {
                *out.at_mut(r, c) = m.at(r, c);
            }
        }
        out
    }
}

impl From<&Mat4> for CMatrix {
    fn from(m: &Mat4) -> Self {
        let mut out = CMatrix::zeros(4, 4);
        for r in 0..4 {
            for c in 0..4 {
                *out.at_mut(r, c) = m.at(r, c);
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::f64::consts::FRAC_1_SQRT_2;

    fn c(re: f64, im: f64) -> Complex64 {
        Complex64::new(re, im)
    }

    fn hadamard() -> Mat2 {
        Mat2::new([[c(1.0, 0.0), c(1.0, 0.0)], [c(1.0, 0.0), c(-1.0, 0.0)]]).scale(FRAC_1_SQRT_2)
    }

    fn pauli_x() -> Mat2 {
        Mat2::new([[c(0.0, 0.0), c(1.0, 0.0)], [c(1.0, 0.0), c(0.0, 0.0)]])
    }

    #[test]
    fn identity_multiplication() {
        let h: CMatrix = (&hadamard()).into();
        assert!(h.mul(&CMatrix::identity(2)).approx_eq(&h, 0.0));
    }

    #[test]
    fn kron_shape_and_values() {
        let a: CMatrix = (&hadamard()).into();
        let b: CMatrix = (&pauli_x()).into();
        let k = a.kron(&b);
        assert_eq!(k.rows(), 4);
        let expected: CMatrix = (&Mat4::kron(&hadamard(), &pauli_x())).into();
        assert!(k.approx_eq(&expected, 1e-12));
    }

    #[test]
    fn embed_1q_matches_kron() {
        // On 2 qubits, gate on qubit 1 (high bit) is G ⊗ I.
        let g = hadamard();
        let e = CMatrix::embed_1q(2, 1, &g);
        let k: CMatrix = (&Mat4::kron(&g, &Mat2::identity())).into();
        assert!(e.approx_eq(&k, 1e-12));
        // Gate on qubit 0 (low bit) is I ⊗ G.
        let e0 = CMatrix::embed_1q(2, 0, &g);
        let k0: CMatrix = (&Mat4::kron(&Mat2::identity(), &g)).into();
        assert!(e0.approx_eq(&k0, 1e-12));
    }

    #[test]
    fn embed_2q_on_adjacent_qubits() {
        let g = Mat4::kron(&pauli_x(), &hadamard());
        let e = CMatrix::embed_2q(2, 1, 0, &g);
        let d: CMatrix = (&g).into();
        assert!(e.approx_eq(&d, 1e-12));
    }

    #[test]
    fn embed_2q_swapped_operands() {
        // Embedding G on (q1=0, q0=1) must equal embedding SWAP·G·SWAP on (1,0).
        let g = Mat4::kron(&pauli_x(), &hadamard());
        let e = CMatrix::embed_2q(2, 0, 1, &g);
        // SWAP conjugation == kron factors exchanged for product gates.
        let gs = Mat4::kron(&hadamard(), &pauli_x());
        let expect: CMatrix = (&gs).into();
        assert!(e.approx_eq(&expect, 1e-12));
    }

    #[test]
    fn unitarity_of_embeddings() {
        let e = CMatrix::embed_1q(3, 1, &hadamard());
        assert!(e.is_unitary(1e-12));
        let g = Mat4::kron(&hadamard(), &hadamard());
        let e2 = CMatrix::embed_2q(3, 2, 0, &g);
        assert!(e2.is_unitary(1e-12));
    }

    #[test]
    fn phase_equality() {
        let a = CMatrix::identity(3);
        let mut b = a.clone();
        for k in 0..3 {
            *b.at_mut(k, k) = Complex64::cis(1.1);
        }
        assert!(a.approx_eq_up_to_phase(&b, 1e-12));
    }

    #[test]
    #[should_panic(expected = "dimension mismatch")]
    fn mismatched_product_panics() {
        let a = CMatrix::zeros(2, 3);
        let b = CMatrix::zeros(2, 3);
        let _ = a.mul(&b);
    }
}
