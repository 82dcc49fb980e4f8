//! Linear Paul-trap ion-chain physics.
//!
//! Computes what the paper's Eq. (1) fidelity model consumes: equilibrium
//! ion positions, normal-mode frequencies and eigenvectors (the
//! "vibrational bus"), Lamb–Dicke couplings `η_{p,i}`, and the residual
//! mode displacements `α_p = ∫ g(t)·e^{iω_p t} dt` left behind by an
//! amplitude-modulated MS pulse.
//!
//! Units: lengths in `ℓ = (e²/(4πε₀ M ω_z²))^{1/3}`, frequencies in units
//! of the axial trap frequency `ω_z`, so the maths is dimensionless and the
//! classic exact results (axial mode eigenvalues 1 and 3, two-ion spacing
//! `2·(1/4)^{1/3}`) hold verbatim.

use itqc_math::eig::sym_eig;
use itqc_math::lstsq::solve_linear;
use itqc_math::Complex64;

/// An ion chain with solved equilibrium positions.
#[derive(Clone, Debug)]
pub struct IonChain {
    positions: Vec<f64>,
}

impl IonChain {
    /// Solves the `n`-ion equilibrium by damped Newton iteration on the
    /// force balance `u_i = Σ_{j<i} (u_i−u_j)^{−2} − Σ_{j>i} (u_j−u_i)^{−2}`,
    /// using homotopy in the ion count (each chain starts from the solved
    /// `n−1`-ion equilibrium plus one appended ion), which keeps Newton in
    /// its convergence basin for arbitrarily long chains.
    ///
    /// # Panics
    ///
    /// Panics if `n == 0` or the iteration fails to converge (does not
    /// happen for physical n ≤ hundreds).
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "chain needs at least one ion");
        if n == 1 {
            return IonChain { positions: vec![0.0] };
        }
        let r2 = 0.25f64.powf(1.0 / 3.0);
        let mut u = vec![-r2, r2];
        Self::relax(&mut u);
        for _m in 3..=n {
            // Append one ion past the current edge, recentre, re-solve.
            let gap = u[u.len() - 1] - u[u.len() - 2];
            u.push(u[u.len() - 1] + gap);
            let mean = u.iter().sum::<f64>() / u.len() as f64;
            for x in &mut u {
                *x -= mean;
            }
            Self::relax(&mut u);
        }
        IonChain { positions: u }
    }

    /// Damped Newton to force-balance, in place.
    ///
    /// # Panics
    ///
    /// Panics on non-convergence (not reachable from the homotopy path).
    fn relax(u: &mut Vec<f64>) {
        let n = u.len();
        for _iter in 0..200 {
            // Residual force and Hessian.
            let mut f = vec![0.0; n];
            let mut h = vec![0.0; n * n];
            for i in 0..n {
                let mut fi = u[i];
                for j in 0..n {
                    if i == j {
                        continue;
                    }
                    let d = u[i] - u[j];
                    fi -= d.signum() / (d * d);
                    let w = 2.0 / d.abs().powi(3);
                    h[i * n + i] += w;
                    h[i * n + j] = -w;
                }
                h[i * n + i] += 1.0;
                f[i] = fi;
            }
            let err = f.iter().map(|x| x * x).sum::<f64>().sqrt();
            // Scale-aware tolerance: the residual floor grows with chain
            // length and extent (double-precision cancellation).
            let tol = 1e-12 * (n as f64).sqrt();
            if err < tol {
                return;
            }
            let mut delta = f.clone();
            let mut hm = h.clone();
            assert!(solve_linear(&mut hm, &mut delta, n), "singular chain Hessian");
            // Damped step: ions must stay ordered AND the residual must
            // not grow (plain Newton diverges from a uniform guess for
            // long chains).
            let residual = |pos: &[f64]| -> f64 {
                let mut acc = 0.0;
                for i in 0..n {
                    let mut fi = pos[i];
                    for j in 0..n {
                        if i != j {
                            let d = pos[i] - pos[j];
                            fi -= d.signum() / (d * d);
                        }
                    }
                    acc += fi * fi;
                }
                acc.sqrt()
            };
            let mut step = 1.0;
            'damp: loop {
                let trial: Vec<f64> = u.iter().zip(&delta).map(|(x, d)| x - step * d).collect();
                let ordered = trial.windows(2).all(|w| w[1] - w[0] > 1e-6);
                if ordered && residual(&trial) < err {
                    *u = trial;
                    break 'damp;
                }
                step *= 0.5;
                if step <= 1e-10 {
                    // Line search exhausted: accept if we are at the
                    // numerical noise floor, otherwise this is a real
                    // divergence.
                    assert!(err < 1e-8, "Newton damping failed at residual {err}");
                    return;
                }
            }
        }
        panic!("chain equilibrium failed to converge");
    }

    /// Number of ions.
    pub fn n_ions(&self) -> usize {
        self.positions.len()
    }

    /// Equilibrium positions in units of `ℓ`, ascending.
    pub fn positions(&self) -> &[f64] {
        &self.positions
    }

    /// Transverse normal modes for trap anisotropy
    /// `a = (ω_transverse/ω_z)²`.
    ///
    /// The highest mode is the transverse COM at `ω = √a`; the spectrum
    /// softens toward the zigzag instability as `a` decreases.
    ///
    /// # Panics
    ///
    /// Panics if the chain is transversally unstable at this anisotropy
    /// (a mode frequency would be imaginary).
    pub fn transverse_modes(&self, anisotropy: f64) -> ModeSpectrum {
        let n = self.n_ions();
        let mut b = vec![0.0; n * n];
        for i in 0..n {
            let mut diag = anisotropy;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let w = 1.0 / (self.positions[i] - self.positions[j]).abs().powi(3);
                diag -= w;
                b[i * n + j] = w;
            }
            b[i * n + i] = diag;
        }
        ModeSpectrum::from_hessian(&b, n)
    }
}

/// A set of normal modes: frequencies (ascending, units of `ω_z`) and
/// orthonormal mode vectors.
#[derive(Clone, Debug)]
pub struct ModeSpectrum {
    frequencies: Vec<f64>,
    vectors: Vec<Vec<f64>>,
}

impl ModeSpectrum {
    fn from_hessian(h: &[f64], n: usize) -> Self {
        let eig = sym_eig(h, n);
        for &l in &eig.values {
            assert!(l > 0.0, "unstable chain: eigenvalue {l} <= 0 (zigzag threshold crossed)");
        }
        ModeSpectrum {
            frequencies: eig.values.iter().map(|l| l.sqrt()).collect(),
            vectors: eig.vectors,
        }
    }

    /// Mode frequencies in units of `ω_z`, ascending.
    pub fn frequencies(&self) -> &[f64] {
        &self.frequencies
    }

    /// Mode vector of mode `p` (orthonormal).
    pub fn vector(&self, p: usize) -> &[f64] {
        &self.vectors[p]
    }

    /// Lamb–Dicke parameters `η_{p,i} = η_ref·b_{p,i}·√(ω_ref/ω_p)`, where
    /// `η_ref` is the single-ion Lamb–Dicke parameter at reference
    /// frequency `ω_ref` (both in the same units as [`Self::frequencies`]).
    ///
    /// Returned as `eta[p][i]`.
    pub fn lamb_dicke(&self, eta_ref: f64, omega_ref: f64) -> Vec<Vec<f64>> {
        self.frequencies
            .iter()
            .zip(&self.vectors)
            .map(|(&w, v)| {
                let scale = eta_ref * (omega_ref / w).sqrt();
                v.iter().map(|b| scale * b).collect()
            })
            .collect()
    }
}

/// One piecewise-constant segment of an amplitude-modulated MS pulse.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PulseSegment {
    /// Drive amplitude during the segment (arbitrary units).
    pub amplitude: f64,
    /// Segment duration (in units of `1/ω_z`).
    pub duration: f64,
}

/// The residual displacement `α_p = ∫₀^τ g(t)·e^{iω_p t} dt` of mode `p`
/// under a piecewise-constant pulse — the quantity whose non-zero value is
/// "the amount of quantum information unintentionally left behind in a
/// memory bus" (paper §III).
pub fn pulse_alpha(segments: &[PulseSegment], omega: f64) -> Complex64 {
    let mut t = 0.0;
    let mut acc = Complex64::ZERO;
    for seg in segments {
        let t1 = t + seg.duration;
        if omega.abs() < 1e-12 {
            acc += Complex64::real(seg.amplitude * seg.duration);
        } else {
            // ∫ A e^{iωt} dt = A·(e^{iωt₁} − e^{iωt₀})/(iω)
            let num = Complex64::cis(omega * t1) - Complex64::cis(omega * t);
            acc += num * seg.amplitude / Complex64::new(0.0, omega);
        }
        t = t1;
    }
    acc
}

/// `|α_p|²` for every mode in a spectrum.
pub fn pulse_alpha_sqr(segments: &[PulseSegment], modes: &ModeSpectrum) -> Vec<f64> {
    modes.frequencies().iter().map(|&w| pulse_alpha(segments, w).norm_sqr()).collect()
}

/// Predicts the Eq. (1) MS-gate fidelity for ions `i`, `j` of a chain with
/// the given transverse anisotropy and pulse.
pub fn eq1_fidelity_for_pair(
    chain: &IonChain,
    anisotropy: f64,
    eta_ref: f64,
    segments: &[PulseSegment],
    ion_i: usize,
    ion_j: usize,
) -> f64 {
    let modes = chain.transverse_modes(anisotropy);
    let omega_com = *modes.frequencies().last().expect("chain has at least one mode");
    let eta = modes.lamb_dicke(eta_ref, omega_com);
    let alpha2 = pulse_alpha_sqr(segments, &modes);
    let eta_i: Vec<f64> = eta.iter().map(|row| row[ion_i]).collect();
    let eta_j: Vec<f64> = eta.iter().map(|row| row[ion_j]).collect();
    itqc_faults::estimator::eq1_ms_fidelity(&eta_i, &eta_j, &alpha2)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Axial normal modes (frequencies in units of `ω_z`): the classic
    /// closed-form spectrum the equilibrium solver is checked against.
    fn axial_spectrum(chain: &IonChain) -> ModeSpectrum {
        let u = chain.positions();
        let n = u.len();
        let mut a = vec![0.0; n * n];
        for i in 0..n {
            let mut diag = 1.0;
            for j in 0..n {
                if i == j {
                    continue;
                }
                let w = 2.0 / (u[i] - u[j]).abs().powi(3);
                diag += w;
                a[i * n + j] = -w;
            }
            a[i * n + i] = diag;
        }
        ModeSpectrum::from_hessian(&a, n)
    }

    #[test]
    fn two_ion_equilibrium_is_exact() {
        let chain = IonChain::new(2);
        let expect = 0.25f64.powf(1.0 / 3.0);
        assert!((chain.positions()[1] - expect).abs() < 1e-10);
        assert!((chain.positions()[0] + expect).abs() < 1e-10);
    }

    #[test]
    fn three_ion_equilibrium_is_exact() {
        let chain = IonChain::new(3);
        let expect = (5.0f64 / 4.0).powf(1.0 / 3.0);
        assert!(chain.positions()[1].abs() < 1e-10);
        assert!((chain.positions()[2] - expect).abs() < 1e-9);
    }

    #[test]
    fn equilibrium_is_symmetric_and_ordered() {
        let chain = IonChain::new(11);
        let u = chain.positions();
        for w in u.windows(2) {
            assert!(w[1] > w[0]);
        }
        for i in 0..11 {
            assert!((u[i] + u[10 - i]).abs() < 1e-9, "chain must be mirror-symmetric");
        }
    }

    #[test]
    fn axial_com_and_stretch_modes_are_exact() {
        // Classic results: axial eigenvalues are exactly 1 (COM) and 3
        // (stretch) independent of N for the lowest two modes.
        for n in [2usize, 3, 5, 11] {
            let modes = axial_spectrum(&IonChain::new(n));
            let f = modes.frequencies();
            assert!((f[0] - 1.0).abs() < 1e-8, "COM at ω_z (n={n})");
            assert!((f[1] - 3.0f64.sqrt()).abs() < 1e-8, "stretch at √3·ω_z (n={n})");
        }
    }

    #[test]
    fn axial_com_vector_is_uniform() {
        let modes = axial_spectrum(&IonChain::new(5));
        let v = modes.vector(0);
        let expect = 1.0 / 5.0f64.sqrt();
        for &x in v {
            assert!((x.abs() - expect).abs() < 1e-8);
        }
    }

    #[test]
    fn transverse_com_at_anisotropy() {
        let chain = IonChain::new(4);
        let a = 20.0;
        let modes = chain.transverse_modes(a);
        let top = *modes.frequencies().last().unwrap();
        assert!((top - a.sqrt()).abs() < 1e-8, "transverse COM at √a");
        // All transverse modes below COM.
        for &f in &modes.frequencies()[..3] {
            assert!(f < top);
        }
    }

    #[test]
    #[should_panic(expected = "zigzag")]
    fn weak_transverse_confinement_goes_unstable() {
        // Long chain + weak transverse trap → zigzag instability.
        let chain = IonChain::new(10);
        let _ = chain.transverse_modes(1.05);
    }

    #[test]
    fn lamb_dicke_scaling() {
        let chain = IonChain::new(3);
        let modes = axial_spectrum(&chain);
        let eta = modes.lamb_dicke(0.1, 1.0);
        // COM mode: η = 0.1·(1/√3)·√(1/1) per ion.
        let expect = 0.1 / 3.0f64.sqrt();
        for e in &eta[0] {
            assert!((e.abs() - expect).abs() < 1e-9);
        }
        // Higher modes have smaller √(ω_ref/ω_p) factors.
        assert!(eta[1][0].abs() < eta[0][0].abs() + 1e-12);
    }

    #[test]
    fn pulse_alpha_of_zero_frequency_is_area() {
        let segs = [
            PulseSegment { amplitude: 2.0, duration: 1.5 },
            PulseSegment { amplitude: -1.0, duration: 0.5 },
        ];
        let a = pulse_alpha(&segs, 0.0);
        assert!((a.re - 2.5).abs() < 1e-12 && a.im.abs() < 1e-15);
    }

    #[test]
    fn pulse_alpha_matches_numeric_integration() {
        let segs = [
            PulseSegment { amplitude: 1.0, duration: 2.0 },
            PulseSegment { amplitude: -0.5, duration: 1.0 },
        ];
        let omega = 3.7;
        let analytic = pulse_alpha(&segs, omega);
        // Riemann sum.
        let mut num = Complex64::ZERO;
        let dt: f64 = 1e-5;
        let mut t = 0.0;
        for seg in &segs {
            let end = t + seg.duration;
            while t < end {
                num += Complex64::cis(omega * t) * seg.amplitude * dt.min(end - t);
                t += dt;
            }
            t = end;
        }
        assert!(analytic.approx_eq(num, 1e-4), "{analytic} vs {num}");
    }

    #[test]
    fn commensurate_pulse_decouples_single_mode() {
        // A constant pulse of duration 2πk/ω leaves α = 0 for that mode —
        // the textbook decoupling condition.
        let omega = 2.0;
        let tau = 2.0 * std::f64::consts::PI / omega * 3.0;
        let segs = [PulseSegment { amplitude: 1.0, duration: tau }];
        assert!(pulse_alpha(&segs, omega).norm() < 1e-12);
        // …but not for an incommensurate mode.
        assert!(pulse_alpha(&segs, 2.3).norm() > 1e-3);
    }

    #[test]
    fn eq1_fidelity_realistic_setup() {
        // 11-ion chain, strong transverse trap, small Lamb–Dicke, pulse
        // commensurate with the COM mode: high but imperfect fidelity
        // (residuals on the other modes), dropping when the pulse is
        // detuned from commensurability.
        let chain = IonChain::new(11);
        let a = 25.0;
        let modes = chain.transverse_modes(a);
        let omega_com = *modes.frequencies().last().unwrap();
        let tau = 2.0 * std::f64::consts::PI / omega_com * 40.0;
        let good = [PulseSegment { amplitude: 0.05, duration: tau }];
        let bad = [PulseSegment { amplitude: 0.05, duration: tau * 1.013 }];
        let f_good = eq1_fidelity_for_pair(&chain, a, 0.08, &good, 3, 8);
        let f_bad = eq1_fidelity_for_pair(&chain, a, 0.08, &bad, 3, 8);
        assert!(f_good > 0.9, "f_good {f_good}");
        assert!(f_good <= 1.0 + 1e-12);
        assert!(f_bad < f_good, "detuned pulse must be worse: {f_bad} vs {f_good}");
    }
}
