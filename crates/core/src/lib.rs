//! RESET write-termination MLC/QLC programming for RRAM — the primary
//! contribution of the reproduced paper.
//!
//! The scheme: to store `n` bits per cell, allocate `2ⁿ` reference currents
//! `IrefR` (ISO-ΔI, 2 µA apart in the paper's 6–36 µA window), SET the cell,
//! then apply a RESET pulse that a per-bit-line **write-termination circuit**
//! chops the instant the cell current decays to the selected `IrefR`. The
//! final HRS resistance is current-defined — no program-and-verify loop, no
//! read circuitry in the write path.
//!
//! Module map:
//!
//! * [`levels`] — ISO-ΔI / ISO-ΔR level allocation (the paper's Table 2).
//! * [`codec`] — 4-bit (and generalized) state ↔ reference-current codec.
//! * [`termination`] — the RESET write-termination circuit of Fig 7a, in two
//!   fidelities: a behavioral transient monitor and a transistor-level
//!   netlist (current mirrors + inverter comparator).
//! * [`program`] — programming controllers over the fast scalar path and
//!   the full circuit-level transient.
//! * [`read`] — the multi-level READ: 15 reference currents compared
//!   against the 0.3 V cell current (Fig 9).
//! * [`margins`] — Monte Carlo margin analysis between adjacent states
//!   (Figs 11–12).
//! * [`projection`] — 5 and 6 bits/cell projections (Table 3).
//! * [`verify_baseline`] — the prior-art program-and-verify MLC loop the
//!   paper's introduction argues against, as a comparison baseline.
//! * [`soa`] — the state-of-the-art comparison rows (Table 4).
//!
//! # Examples
//!
//! Program and read back one quad-level cell:
//!
//! ```
//! use oxterm_mlc::levels::LevelAllocation;
//! use oxterm_mlc::program::{program_cell_fast, ProgramConditions};
//! use oxterm_mlc::read::MlcReader;
//! use oxterm_rram::params::{InstanceVariation, OxramParams};
//!
//! # fn main() -> Result<(), oxterm_mlc::MlcError> {
//! let alloc = LevelAllocation::paper_qlc();
//! let params = OxramParams::calibrated();
//! let inst = InstanceVariation::nominal();
//! let reader = MlcReader::from_allocation(&alloc, &params, 0.3);
//!
//! let data = 0b1010;
//! let outcome = program_cell_fast(&params, &inst, &alloc, data, &ProgramConditions::paper())?;
//! let read_back = reader.classify_resistance(outcome.r_read_ohms);
//! assert_eq!(read_back, data);
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]

pub mod codec;
pub mod levels;
pub mod margins;
pub mod memory;
pub mod program;
pub mod projection;
pub mod read;
pub mod soa;
pub mod termination;
pub mod verify_baseline;
pub mod word;

mod error;

pub use error::MlcError;
