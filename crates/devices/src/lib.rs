//! Device models for the `oxterm` analog simulator.
//!
//! These are the CMOS-side models the paper's circuits are built from. The
//! paper simulates a 0.13 µm high-voltage (3.3 V) CMOS process with foundry
//! models; this crate substitutes physically-grounded compact models that
//! capture what the write-termination circuit depends on — current-mirror
//! ratioing, triode/saturation transitions, subthreshold conduction, and an
//! inverter's switching threshold — without the proprietary parameter decks.
//!
//! * [`passive`] — resistors and capacitors (with trapezoidal companions).
//! * [`sources`] — DC / pulse / PWL voltage and current sources, including
//!   the pulse-truncation hook ([`sources::VoltageSource::force_end_at`])
//!   the RESET write-termination uses to chop a programming pulse.
//! * [`diode`] — an exponential junction diode.
//! * [`mosfet`] — an EKV-style all-region MOSFET (weak inversion through
//!   saturation in one smooth expression) with mismatch hooks for Monte
//!   Carlo.
//! * [`switch`] — a smooth voltage-controlled switch for ideal-ish drivers.
//!
//! # Examples
//!
//! An RC low-pass step response:
//!
//! ```
//! use oxterm_spice::analysis::tran::{run_transient, TranOptions};
//! use oxterm_spice::circuit::Circuit;
//! use oxterm_devices::passive::{Capacitor, Resistor};
//! use oxterm_devices::sources::{SourceWave, VoltageSource};
//!
//! # fn main() -> Result<(), oxterm_spice::SpiceError> {
//! let mut c = Circuit::new();
//! let vin = c.node("in");
//! let vout = c.node("out");
//! c.add(VoltageSource::new("vin", vin, Circuit::gnd(), SourceWave::dc(1.0)));
//! c.add(Resistor::new("r1", vin, vout, 1e3));
//! c.add(Capacitor::new("c1", vout, Circuit::gnd(), 1e-9));
//! let opts = TranOptions::for_duration(10e-6);
//! let result = run_transient(&mut c, &opts, &mut [])?;
//! let v_end = result.node_trace(vout).last();
//! assert!((v_end - 1.0).abs() < 1e-3); // fully charged after 10 RC
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod diode;
pub mod mosfet;
pub mod passive;
pub mod sources;
pub mod switch;

/// Thermal voltage at 300 K (V), shared by the junction models.
pub const VT_300K: f64 = 0.025852;
