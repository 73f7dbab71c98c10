//! Numerical kernels for the `oxterm` analog-simulation workspace.
//!
//! This crate is the lowest layer of the [oxterm](https://example.com/oxterm)
//! reproduction of the DATE 2021 paper *"Density Enhancement of RRAMs using a
//! RESET Write Termination for MLC Operation"*. It provides the numerical
//! machinery every SPICE-class simulator is built on, plus the statistics and
//! optimization helpers used by the Monte Carlo and calibration layers:
//!
//! * [`dense`] — row-major dense matrices and LU factorization with partial
//!   pivoting, the one solver for every modified-nodal-analysis system in
//!   the workspace (the largest, an 8×8 array tile, has 128 unknowns).
//! * [`interp`] — piecewise-linear waveforms (sources, measured curves).
//! * [`stats`] — quantiles, box-plot statistics, CDFs, and regression used to
//!   reproduce the paper's distribution figures.
//! * [`optimize`] — a Nelder–Mead simplex minimizer used to calibrate the
//!   OxRAM compact model against the paper's published tables.
//! * [`roots`] — scalar root finding (Newton with bisection fallback).
//!
//! # Examples
//!
//! Solve a small linear system:
//!
//! ```
//! use oxterm_numerics::dense::DMatrix;
//!
//! # fn main() -> Result<(), oxterm_numerics::NumericsError> {
//! let a = DMatrix::from_rows(&[&[4.0, 1.0], &[1.0, 3.0]])?;
//! let lu = a.factorize()?;
//! let x = lu.solve(&[1.0, 2.0])?;
//! assert!((4.0 * x[0] + x[1] - 1.0).abs() < 1e-12);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod dense;
pub mod interp;
pub mod optimize;
pub mod roots;
pub mod special;
pub mod stats;

mod error;

pub use error::NumericsError;
