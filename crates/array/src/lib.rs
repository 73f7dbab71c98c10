//! 1T-1R RRAM memory-array netlist builders and measurement campaigns.
//!
//! Reproduces the paper's array-level substrate:
//!
//! * [`bias`] — the Table 1 operating voltages (FMG/RST/SET/READ) as typed
//!   bias sets.
//! * [`cell`] — the 1T-1R bit cell of Fig 1b: BL → OxRAM TE, BE → access
//!   NMOS drain (W = 0.8 µm, L = 0.5 µm), source → SL, gate → WL.
//! * [`parasitics`] — BL/WL line models: the paper mimics a 1 KByte array
//!   (1024 WLs × 1024 BLs) with a 1 pF bit-line capacitance and distributed
//!   line resistance at 10 Ω/µm for a 50 nm wire.
//! * [`crate::array`] — the 8×8 elementary tile of Fig 2a with per-cell
//!   device-to-device variability and segment parasitics.
//! * [`crossbar`] — selector-less crossbar sneak-path analysis, the
//!   paper's §1 case for 1T-1R MLC over crossbar density.
//! * [`cycling`] — the 500-cycle RST/SET measurement campaign behind Fig 3,
//!   run on the fast scalar path.
//!
//! # Examples
//!
//! Build a single addressed 1T-1R column with paper-scale parasitics:
//!
//! ```
//! use oxterm_spice::circuit::Circuit;
//! use oxterm_array::cell::{Cell1T1R, CellConfig};
//! use oxterm_array::parasitics::LineParasitics;
//!
//! let mut c = Circuit::new();
//! let bl = c.node("bl0");
//! let wl = c.node("wl0");
//! let sl = c.node("sl0");
//! let handles = Cell1T1R::build(&mut c, "c00", bl, wl, sl, &CellConfig::paper());
//! let line = LineParasitics::kilobyte_array();
//! assert!(line.c_bl_total > 0.9e-12);
//! let _ = handles;
//! ```

#![forbid(unsafe_code)]

pub mod array;
pub mod bias;
pub mod cell;
pub mod crossbar;
pub mod cycling;
pub mod parasitics;
