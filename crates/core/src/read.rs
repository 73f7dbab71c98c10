//! Multi-level READ: reference-current classification (paper Fig 9).
//!
//! The READ applies `VRead` (0.2–0.3 V) to the cell and compares the drawn
//! current against `n − 1` fixed reference currents placed between adjacent
//! states' nominal currents. 16 states ⇒ 15 references.

use oxterm_rram::calib::{simulate_reset_references, ResetConditions};
use oxterm_rram::params::{InstanceVariation, OxramParams};

use crate::levels::LevelAllocation;

/// A calibrated multi-level reader.
///
/// Built once per allocation: the nominal programmed resistance of every
/// level is obtained from the calibrated model, and the read references are
/// the midpoints (in current) between adjacent levels.
#[derive(Debug, Clone, PartialEq)]
pub struct MlcReader {
    /// Nominal read current per code (A), descending in code.
    nominal_i: Vec<f64>,
    /// Nominal resistance per code (Ω), ascending in code.
    nominal_r: Vec<f64>,
    /// Reference currents, one between each adjacent code pair (A),
    /// descending.
    refs: Vec<f64>,
    v_read: f64,
}

impl MlcReader {
    /// Builds the reader by programming each level nominally in the fast
    /// path (one shared RESET trajectory read at every level's IrefR) and
    /// placing references at adjacent-current midpoints.
    ///
    /// # Panics
    ///
    /// Panics if the calibrated model cannot program some level (the
    /// allocation must be within the model's programmable window).
    pub fn from_allocation(alloc: &LevelAllocation, params: &OxramParams, v_read: f64) -> Self {
        let cond = ResetConditions {
            v_read,
            ..ResetConditions::paper_defaults(f64::NAN)
        };
        let i_refs: Vec<f64> = alloc.levels().iter().map(|l| l.i_ref).collect();
        let outs = simulate_reset_references(params, &InstanceVariation::nominal(), &cond, &i_refs);
        let mut nominal_r = Vec::with_capacity(alloc.n_levels());
        for (level, out) in alloc.levels().iter().zip(outs) {
            match out {
                Ok(out) => nominal_r.push(out.r_read_ohms),
                Err(e) => panic!(
                    "allocation must be inside the programmable window \
                     (level {} at {:.3e} A): {e}",
                    level.code, level.i_ref
                ),
            }
        }
        let nominal_i: Vec<f64> = nominal_r.iter().map(|r| v_read / r).collect();
        let refs = nominal_i.windows(2).map(|w| 0.5 * (w[0] + w[1])).collect();
        MlcReader {
            nominal_i,
            nominal_r,
            refs,
            v_read,
        }
    }

    /// The read voltage (V).
    pub fn v_read(&self) -> f64 {
        self.v_read
    }

    /// The reference currents (A), one fewer than the level count,
    /// descending (code 0/1 boundary first).
    pub fn reference_currents(&self) -> &[f64] {
        &self.refs
    }

    /// Nominal read current per code (A).
    pub fn nominal_currents(&self) -> &[f64] {
        &self.nominal_i
    }

    /// Nominal programmed resistance per code (Ω).
    pub fn nominal_resistances(&self) -> &[f64] {
        &self.nominal_r
    }

    /// Classifies a measured cell current into a code: the number of
    /// references the current falls below.
    pub fn classify_current(&self, i_cell: f64) -> u16 {
        self.refs.iter().filter(|&&r| i_cell < r).count() as u16
    }

    /// Classifies a measured resistance (current at `v_read`).
    pub fn classify_resistance(&self, r_ohms: f64) -> u16 {
        self.classify_current(self.v_read / r_ohms)
    }

    /// Maximum nominal read current (A) — the paper keeps this below 8 µA
    /// by bounding the window at 38 kΩ.
    pub fn max_read_current(&self) -> f64 {
        self.nominal_i.iter().cloned().fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::LevelAllocation;

    fn reader() -> MlcReader {
        MlcReader::from_allocation(
            &LevelAllocation::paper_qlc(),
            &OxramParams::calibrated(),
            0.3,
        )
    }

    #[test]
    fn sixteen_levels_need_fifteen_references() {
        let r = reader();
        assert_eq!(r.reference_currents().len(), 15);
        assert_eq!(r.nominal_currents().len(), 16);
        // References strictly descending.
        for w in r.reference_currents().windows(2) {
            assert!(w[0] > w[1]);
        }
    }

    #[test]
    fn nominal_levels_classify_to_themselves() {
        let r = reader();
        for (code, &res) in r.nominal_resistances().iter().enumerate() {
            assert_eq!(r.classify_resistance(res), code as u16, "code {code}");
        }
    }

    #[test]
    fn extremes_clip_to_end_codes() {
        let r = reader();
        assert_eq!(r.classify_resistance(1e3), 0); // far below the window
        assert_eq!(r.classify_resistance(100e6), 15); // deep HRS
    }

    #[test]
    fn read_current_stays_below_8ua() {
        // The paper bounds the window at 38 kΩ precisely to keep read
        // currents below 8 µA at 0.3 V.
        let r = reader();
        assert!(
            r.max_read_current() < 8.5e-6,
            "max read current {:.3e}",
            r.max_read_current()
        );
    }

    #[test]
    fn references_sit_between_nominal_currents() {
        let r = reader();
        let i = r.nominal_currents();
        for (k, &rf) in r.reference_currents().iter().enumerate() {
            assert!(rf < i[k] && rf > i[k + 1], "ref {k} misplaced");
        }
    }
}
