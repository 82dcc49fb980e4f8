//! Small linear solvers and least-squares fits.
//!
//! Two consumers: the MS-gate fidelity estimator (Eq. 2 of the paper) fits
//! `Π_contrast · sin(2φ)` to parity-scan data, and the ion-chain equilibrium
//! solver needs a dense linear solve inside its Newton iteration.

/// Solves the square system `A x = b` in place by Gaussian elimination with
/// partial pivoting. `a` is row-major `n × n`; on return `b` holds `x`.
///
/// Returns `false` (leaving outputs unspecified) if the matrix is singular
/// to working precision.
///
/// # Panics
///
/// Panics if the slice lengths are inconsistent with `n`.
pub fn solve_linear(a: &mut [f64], b: &mut [f64], n: usize) -> bool {
    assert_eq!(a.len(), n * n, "matrix shape mismatch");
    assert_eq!(b.len(), n, "rhs shape mismatch");
    for col in 0..n {
        // Pivot.
        let mut piv = col;
        let mut best = a[col * n + col].abs();
        for r in (col + 1)..n {
            let v = a[r * n + col].abs();
            if v > best {
                best = v;
                piv = r;
            }
        }
        if best < 1e-300 {
            return false;
        }
        if piv != col {
            for c in 0..n {
                a.swap(col * n + c, piv * n + c);
            }
            b.swap(col, piv);
        }
        // Eliminate below.
        let d = a[col * n + col];
        for r in (col + 1)..n {
            let f = a[r * n + col] / d;
            if f == 0.0 {
                continue;
            }
            for c in col..n {
                a[r * n + c] -= f * a[col * n + c];
            }
            b[r] -= f * b[col];
        }
    }
    // Back substitution.
    for col in (0..n).rev() {
        let mut acc = b[col];
        for c in (col + 1)..n {
            acc -= a[col * n + c] * b[c];
        }
        b[col] = acc / a[col * n + col];
    }
    true
}

/// Least-squares amplitude for the single-parameter model `y ≈ A·f(x)`:
/// `A = Σ y·f / Σ f²`.
///
/// Returns 0 when the design is degenerate (all `f(x) = 0`).
///
/// # Panics
///
/// Panics if the slices have different lengths.
fn fit_amplitude(f_values: &[f64], y: &[f64]) -> f64 {
    assert_eq!(f_values.len(), y.len(), "design/response length mismatch");
    let num: f64 = f_values.iter().zip(y).map(|(f, y)| f * y).sum();
    let den: f64 = f_values.iter().map(|f| f * f).sum();
    if den < 1e-300 {
        0.0
    } else {
        num / den
    }
}

/// Fits `y ≈ A·sin(2φ)` and returns `A` — the paper's `Π_contrast`
/// estimation from a parity scan over analysis phases `φ`.
pub fn fit_sin2phi_amplitude(phi: &[f64], y: &[f64]) -> f64 {
    let design: Vec<f64> = phi.iter().map(|&p| (2.0 * p).sin()).collect();
    fit_amplitude(&design, y)
}

/// Ordinary least squares for `y ≈ X β` with a small number of columns.
/// Solves the normal equations; returns `None` when `XᵀX` is singular.
///
/// `x` is row-major with `cols` columns per observation.
///
/// # Panics
///
/// Panics if `x.len() != y.len() * cols`.
pub fn least_squares(x: &[f64], y: &[f64], cols: usize) -> Option<Vec<f64>> {
    assert_eq!(x.len(), y.len() * cols, "design shape mismatch");
    let mut xtx = vec![0.0; cols * cols];
    let mut xty = vec![0.0; cols];
    for (row, &yi) in y.iter().enumerate() {
        let r = &x[row * cols..(row + 1) * cols];
        for i in 0..cols {
            xty[i] += r[i] * yi;
            for j in 0..cols {
                xtx[i * cols + j] += r[i] * r[j];
            }
        }
    }
    if solve_linear(&mut xtx, &mut xty, cols) {
        Some(xty)
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn solve_simple_system() {
        // x + y = 3; x - y = 1 → x=2, y=1
        let mut a = vec![1.0, 1.0, 1.0, -1.0];
        let mut b = vec![3.0, 1.0];
        assert!(solve_linear(&mut a, &mut b, 2));
        assert!((b[0] - 2.0).abs() < 1e-12);
        assert!((b[1] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn singular_system_detected() {
        let mut a = vec![1.0, 2.0, 2.0, 4.0];
        let mut b = vec![1.0, 2.0];
        assert!(!solve_linear(&mut a, &mut b, 2));
    }

    #[test]
    fn random_system_round_trip() {
        let mut rng = SmallRng::seed_from_u64(5);
        let n = 6;
        let a: Vec<f64> = (0..n * n).map(|_| rng.gen_range(-1.0..1.0)).collect();
        let x_true: Vec<f64> = (0..n).map(|_| rng.gen_range(-2.0..2.0)).collect();
        let mut b = vec![0.0; n];
        for r in 0..n {
            b[r] = (0..n).map(|c| a[r * n + c] * x_true[c]).sum();
        }
        let mut a2 = a.clone();
        assert!(solve_linear(&mut a2, &mut b, n));
        for (xs, xt) in b.iter().zip(&x_true) {
            assert!((xs - xt).abs() < 1e-9);
        }
    }

    #[test]
    fn sin2phi_fit_recovers_contrast() {
        let contrast = 0.87;
        let phi: Vec<f64> = (0..32).map(|k| k as f64 * std::f64::consts::PI / 32.0).collect();
        let y: Vec<f64> = phi.iter().map(|&p| contrast * (2.0 * p).sin()).collect();
        let a = fit_sin2phi_amplitude(&phi, &y);
        assert!((a - contrast).abs() < 1e-12);
    }

    #[test]
    fn sin2phi_fit_with_noise() {
        let mut rng = SmallRng::seed_from_u64(9);
        let contrast = 0.6;
        let phi: Vec<f64> = (0..64).map(|k| k as f64 * std::f64::consts::PI / 64.0).collect();
        let y: Vec<f64> = phi
            .iter()
            .map(|&p| contrast * (2.0 * p).sin() + 0.01 * rng.gen_range(-1.0..1.0))
            .collect();
        let a = fit_sin2phi_amplitude(&phi, &y);
        assert!((a - contrast).abs() < 0.01);
    }

    #[test]
    fn ols_recovers_line() {
        // y = 2 + 3t
        let ts: Vec<f64> = (0..10).map(|k| k as f64).collect();
        let mut x = Vec::new();
        let mut y = Vec::new();
        for &t in &ts {
            x.extend_from_slice(&[1.0, t]);
            y.push(2.0 + 3.0 * t);
        }
        let beta = least_squares(&x, &y, 2).unwrap();
        assert!((beta[0] - 2.0).abs() < 1e-10);
        assert!((beta[1] - 3.0).abs() < 1e-10);
    }
}
