//! Numerical substrate for the `itqc` workspace.
//!
//! This crate provides the self-contained numerical tools the rest of the
//! stack builds on — complex arithmetic, small dense complex linear algebra,
//! a Jacobi eigensolver for the ion-chain normal-mode problem, a radix-2 FFT
//! for noise synthesis, random-variate samplers for the paper's noise laws,
//! binary reflected Gray codes (the paper's footnote 7), and statistics
//! helpers used by the experiment harness.
//!
//! Everything here is implemented from scratch so that the workspace depends
//! only on the approved crate set (see `DESIGN.md` §5).
//!
//! # Example
//!
//! ```
//! use itqc_math::{Complex64, Mat2};
//!
//! let h = Mat2::new([
//!     [Complex64::new(1.0, 0.0), Complex64::new(1.0, 0.0)],
//!     [Complex64::new(1.0, 0.0), Complex64::new(-1.0, 0.0)],
//! ])
//! .scale(std::f64::consts::FRAC_1_SQRT_2);
//! assert!(h.is_unitary(1e-12));
//! ```

#![warn(missing_docs)]

pub mod bits;
pub mod complex;
pub mod dense;
pub mod eig;
pub mod fft;
pub mod gray;
pub mod lstsq;
pub mod mat;
pub mod rng;
pub mod stats;

pub use complex::Complex64;
pub use dense::CMatrix;
pub use gray::gray;
pub use mat::{Mat2, Mat4};
