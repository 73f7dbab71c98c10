//! A modified-nodal-analysis (MNA) analog circuit simulator.
//!
//! `oxterm-spice` is the simulation substrate of the `oxterm` reproduction of
//! the DATE 2021 RESET-write-termination paper. The paper's evaluation runs
//! on a commercial SPICE simulator (Eldo); this crate re-implements the parts
//! of that stack the evaluation needs:
//!
//! * a [`circuit::Circuit`] container of [`device::Device`] elements with
//!   named nodes and automatic branch-current unknown allocation,
//! * [`analysis::op`] — Newton–Raphson DC operating point with gmin stepping
//!   and source stepping fallbacks,
//! * [`analysis::dc_sweep`] — warm-started parameter sweeps,
//! * [`analysis::tran`] — adaptive-step transient analysis with source
//!   breakpoints, step rejection, and user monitors (the hook the RESET
//!   write-termination logic plugs into),
//! * [`waveform`] — recorded traces with the measurement operators the
//!   paper's figures need (crossings, integrals, final values).
//!
//! Device models themselves (resistors, MOSFETs, RRAM cells, …) live in the
//! `oxterm-devices` and `oxterm-rram` crates; anything implementing
//! [`device::Device`] can be simulated.
//!
//! # Examples
//!
//! A resistor divider solved at DC (devices from `oxterm-devices` are used in
//! practice; here we implement a minimal conductance inline):
//!
//! ```
//! use oxterm_spice::circuit::Circuit;
//! use oxterm_spice::device::{Device, StampContext};
//! use oxterm_spice::analysis::op::{solve_op, OpOptions};
//!
//! #[derive(Debug)]
//! struct G { name: String, a: oxterm_spice::circuit::NodeId, b: oxterm_spice::circuit::NodeId, g: f64 }
//! impl Device for G {
//!     fn name(&self) -> &str { &self.name }
//!     fn stamp(&self, ctx: &mut StampContext<'_>) { ctx.stamp_conductance(self.a, self.b, self.g); }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//! #[derive(Debug)]
//! struct I { name: String, from: oxterm_spice::circuit::NodeId, to: oxterm_spice::circuit::NodeId, i: f64 }
//! impl Device for I {
//!     fn name(&self) -> &str { &self.name }
//!     fn stamp(&self, ctx: &mut StampContext<'_>) {
//!         let i = self.i * ctx.source_factor();
//!         ctx.stamp_current(self.from, self.to, i);
//!     }
//!     fn as_any(&self) -> &dyn std::any::Any { self }
//!     fn as_any_mut(&mut self) -> &mut dyn std::any::Any { self }
//! }
//!
//! # fn main() -> Result<(), oxterm_spice::SpiceError> {
//! let mut c = Circuit::new();
//! let n1 = c.node("n1");
//! let gnd = Circuit::gnd();
//! c.add(G { name: "g1".into(), a: n1, b: gnd, g: 1e-3 });
//! c.add(I { name: "i1".into(), from: gnd, to: n1, i: 1e-3 });
//! let sol = solve_op(&c, &OpOptions::default())?;
//! assert!((sol.v(n1) - 1.0).abs() < 1e-9);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod analysis;
pub mod circuit;
pub mod device;
pub mod options;
pub mod solution;
pub mod waveform;

mod error;

pub use error::SpiceError;
