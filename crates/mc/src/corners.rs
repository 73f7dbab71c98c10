//! Process corners.
//!
//! The paper's Monte Carlo deck "cover\[s\] corner cases"; this module
//! provides the classic five-corner enumeration as systematic shifts to be
//! applied on top of (or instead of) random mismatch — slow/fast NMOS and
//! PMOS threshold/current-factor combinations.

/// A named process corner.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Corner {
    /// Typical-typical.
    Tt,
    /// Slow NMOS, slow PMOS.
    Ss,
    /// Fast NMOS, fast PMOS.
    Ff,
    /// Slow NMOS, fast PMOS.
    Sf,
    /// Fast NMOS, slow PMOS.
    Fs,
}

impl Corner {
    /// All five classic corners.
    pub fn all() -> [Corner; 5] {
        [Corner::Tt, Corner::Ss, Corner::Ff, Corner::Sf, Corner::Fs]
    }

    /// The systematic parameter shifts of this corner.
    pub fn shifts(self) -> CornerShifts {
        // ±3σ-class global shifts for a 0.13 µm process: ~40 mV on VTH,
        // ~8 % on the current factor.
        const DV: f64 = 0.04;
        const DB: f64 = 0.08;
        let (n, p) = match self {
            Corner::Tt => ((0.0, 0.0), (0.0, 0.0)),
            Corner::Ss => ((DV, -DB), (DV, -DB)),
            Corner::Ff => ((-DV, DB), (-DV, DB)),
            Corner::Sf => ((DV, -DB), (-DV, DB)),
            Corner::Fs => ((-DV, DB), (DV, -DB)),
        };
        CornerShifts {
            nmos_dvth: n.0,
            nmos_dbeta: n.1,
            pmos_dvth: p.0,
            pmos_dbeta: p.1,
        }
    }
}

impl std::fmt::Display for Corner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let s = match self {
            Corner::Tt => "TT",
            Corner::Ss => "SS",
            Corner::Ff => "FF",
            Corner::Sf => "SF",
            Corner::Fs => "FS",
        };
        write!(f, "{s}")
    }
}

/// Systematic transistor parameter shifts for one corner.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CornerShifts {
    /// NMOS threshold shift (V).
    pub nmos_dvth: f64,
    /// NMOS relative current-factor shift.
    pub nmos_dbeta: f64,
    /// PMOS threshold-magnitude shift (V).
    pub pmos_dvth: f64,
    /// PMOS relative current-factor shift.
    pub pmos_dbeta: f64,
}

impl CornerShifts {
    /// The multiplicative beta factor for the NMOS (1 + shift).
    pub fn nmos_beta_factor(&self) -> f64 {
        1.0 + self.nmos_dbeta
    }

    /// The multiplicative beta factor for the PMOS (1 + shift).
    pub fn pmos_beta_factor(&self) -> f64 {
        1.0 + self.pmos_dbeta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tt_is_neutral() {
        let s = Corner::Tt.shifts();
        assert_eq!(s.nmos_dvth, 0.0);
        assert_eq!(s.pmos_dbeta, 0.0);
        assert_eq!(s.nmos_beta_factor(), 1.0);
    }

    #[test]
    fn ss_and_ff_are_opposites() {
        let ss = Corner::Ss.shifts();
        let ff = Corner::Ff.shifts();
        assert_eq!(ss.nmos_dvth, -ff.nmos_dvth);
        assert_eq!(ss.pmos_dbeta, -ff.pmos_dbeta);
        // Slow = higher threshold, less current.
        assert!(ss.nmos_dvth > 0.0 && ss.nmos_dbeta < 0.0);
    }

    #[test]
    fn skew_corners_mix_polarities() {
        let sf = Corner::Sf.shifts();
        assert!(sf.nmos_dvth > 0.0 && sf.pmos_dvth < 0.0);
        let fs = Corner::Fs.shifts();
        assert!(fs.nmos_dvth < 0.0 && fs.pmos_dvth > 0.0);
    }

    #[test]
    fn display_and_enumeration() {
        let names: Vec<String> = Corner::all().iter().map(|c| c.to_string()).collect();
        assert_eq!(names, ["TT", "SS", "FF", "SF", "FS"]);
    }
}
