//! MLC level allocation: mapping data states to RESET reference currents.
//!
//! Given the usable HRS window and the number of levels, the paper compares
//! two placement schemes (following Xu et al., DAC'13):
//!
//! * **ISO-ΔI** — reference *currents* linearly spaced; natural for a
//!   current-terminated RESET and the scheme the paper adopts (Table 2:
//!   6–36 µA in 2 µA steps).
//! * **ISO-ΔR** — *resistances* linearly spaced; included as the ablation
//!   baseline.

use crate::MlcError;

/// How the level targets are spaced across the window.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AllocationScheme {
    /// Reference currents linearly spaced (the paper's choice).
    IsoDeltaI,
    /// Target resistances linearly spaced.
    IsoDeltaR,
}

/// One programmable level.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LevelSpec {
    /// The data value this level encodes (`0..n_levels`).
    pub code: u16,
    /// RESET termination reference current (A).
    pub i_ref: f64,
}

/// A complete level allocation.
///
/// Levels are ordered by code; code 0 maps to the *largest* reference
/// current (lowest resistance), matching the paper's Table 2 where state
/// `1111` takes `IrefR = 6 µA` (267 kΩ) and `0000` takes `36 µA` (38 kΩ).
#[derive(Debug, Clone, PartialEq)]
pub struct LevelAllocation {
    levels: Vec<LevelSpec>,
    scheme: AllocationScheme,
}

impl LevelAllocation {
    /// Builds an allocation of `n_levels` across `[i_min, i_max]` (A).
    ///
    /// For [`AllocationScheme::IsoDeltaR`] the implied resistance window is
    /// derived from `r_of_i`, a callback giving the nominal programmed
    /// resistance for each of a slice of reference currents, in order (the
    /// calibrated model provides it; [`AllocationScheme::IsoDeltaI`] never
    /// calls it). Target resistances are linearly spaced and mapped back to
    /// the currents that hit them by bisection, every level's in lockstep:
    /// each of the 60 rounds asks `r_of_i` for all the levels' midpoints at
    /// once, so one RESET trajectory can answer a round.
    ///
    /// # Errors
    ///
    /// Returns [`MlcError::InvalidAllocation`] if `n_levels < 2` or the
    /// current window is empty/non-positive.
    pub fn new(
        n_levels: usize,
        i_min: f64,
        i_max: f64,
        scheme: AllocationScheme,
        mut r_of_i: impl FnMut(&[f64]) -> Vec<f64>,
    ) -> Result<Self, MlcError> {
        if n_levels < 2 {
            return Err(MlcError::InvalidAllocation {
                reason: format!("need at least 2 levels, got {n_levels}"),
            });
        }
        if !(i_min > 0.0 && i_max > i_min) {
            return Err(MlcError::InvalidAllocation {
                reason: format!("invalid current window [{i_min}, {i_max}]"),
            });
        }
        let n = n_levels;
        let levels = match scheme {
            AllocationScheme::IsoDeltaI => (0..n)
                .map(|code| {
                    // Code 0 → i_max, code n−1 → i_min.
                    let f = code as f64 / (n - 1) as f64;
                    LevelSpec {
                        code: code as u16,
                        i_ref: i_max - f * (i_max - i_min),
                    }
                })
                .collect(),
            AllocationScheme::IsoDeltaR => {
                let window = r_of_i(&[i_max, i_min]);
                let (r_lo, r_hi) = (window[0], window[1]);
                let targets: Vec<f64> = (0..n)
                    .map(|code| r_lo + code as f64 / (n - 1) as f64 * (r_hi - r_lo))
                    .collect();
                // Invert r_of_i by bisection (monotone decreasing).
                let mut brackets = vec![(i_min, i_max); n];
                for _ in 0..60 {
                    let mids: Vec<f64> = brackets.iter().map(|&(lo, hi)| 0.5 * (lo + hi)).collect();
                    let r = r_of_i(&mids);
                    assert_eq!(r.len(), n, "r_of_i gives one resistance per current");
                    for (((lo, hi), mid), (r, target)) in brackets
                        .iter_mut()
                        .zip(mids)
                        .zip(r.into_iter().zip(&targets))
                    {
                        if r > *target {
                            *lo = mid;
                        } else {
                            *hi = mid;
                        }
                    }
                }
                brackets
                    .iter()
                    .enumerate()
                    .map(|(code, &(lo, hi))| LevelSpec {
                        code: code as u16,
                        i_ref: 0.5 * (lo + hi),
                    })
                    .collect()
            }
        };
        Ok(LevelAllocation { levels, scheme })
    }

    /// The paper's Table 2: 16 levels (4 bits/cell), ISO-ΔI, 6–36 µA in
    /// 2 µA steps.
    pub fn paper_qlc() -> Self {
        match LevelAllocation::new(16, 6e-6, 36e-6, AllocationScheme::IsoDeltaI, |_| Vec::new()) {
            Ok(alloc) => alloc,
            // The ISO-ΔI constructor cannot fail on these static parameters.
            Err(_) => unreachable!("paper QLC allocation parameters are valid"),
        }
    }

    /// The allocation scheme used.
    pub fn scheme(&self) -> AllocationScheme {
        self.scheme
    }

    /// Number of levels.
    pub fn n_levels(&self) -> usize {
        self.levels.len()
    }

    /// Bits per cell (`log2(n_levels)`, rounded down).
    pub fn bits_per_cell(&self) -> u32 {
        usize::BITS - 1 - self.levels.len().leading_zeros()
    }

    /// The levels, ordered by code.
    pub fn levels(&self) -> &[LevelSpec] {
        &self.levels
    }

    /// The level for a data value.
    ///
    /// # Errors
    ///
    /// Returns [`MlcError::InvalidData`] if `code` is out of range.
    pub fn level(&self, code: u16) -> Result<LevelSpec, MlcError> {
        self.levels
            .get(code as usize)
            .copied()
            .ok_or(MlcError::InvalidData {
                value: code,
                levels: self.levels.len(),
            })
    }

    /// Constant current step between adjacent levels for ISO-ΔI
    /// allocations (A); `None` for other schemes.
    pub fn delta_i(&self) -> Option<f64> {
        if self.scheme == AllocationScheme::IsoDeltaI && self.levels.len() >= 2 {
            Some(self.levels[0].i_ref - self.levels[1].i_ref)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_qlc_matches_table2_currents() {
        let alloc = LevelAllocation::paper_qlc();
        assert_eq!(alloc.n_levels(), 16);
        assert_eq!(alloc.bits_per_cell(), 4);
        // Code 0 (state '0000') → 36 µA; code 15 ('1111') → 6 µA.
        assert!((alloc.level(0).unwrap().i_ref - 36e-6).abs() < 1e-12);
        assert!((alloc.level(15).unwrap().i_ref - 6e-6).abs() < 1e-12);
        // Constant 2 µA steps.
        let d = alloc.delta_i().unwrap();
        assert!((d - 2e-6).abs() < 1e-12);
        for w in alloc.levels().windows(2) {
            assert!((w[0].i_ref - w[1].i_ref - 2e-6).abs() < 1e-12);
        }
    }

    #[test]
    fn iso_delta_r_spaces_resistances() {
        // Synthetic R(I) = K / I.
        let alloc = LevelAllocation::new(4, 6e-6, 36e-6, AllocationScheme::IsoDeltaR, |i| {
            i.iter().map(|i| 1.5 / i).collect()
        })
        .unwrap();
        let r: Vec<f64> = alloc.levels().iter().map(|l| 1.5 / l.i_ref).collect();
        let d1 = r[1] - r[0];
        let d2 = r[2] - r[1];
        let d3 = r[3] - r[2];
        assert!((d1 - d2).abs() / d1 < 0.01, "{d1} vs {d2}");
        assert!((d2 - d3).abs() / d2 < 0.01);
        // ISO-ΔR places more codes at low resistance than ISO-ΔI does.
        assert!(alloc.delta_i().is_none());
    }

    #[test]
    fn rejects_bad_windows() {
        assert!(
            LevelAllocation::new(1, 6e-6, 36e-6, AllocationScheme::IsoDeltaI, |_| Vec::new())
                .is_err()
        );
        assert!(
            LevelAllocation::new(4, 36e-6, 6e-6, AllocationScheme::IsoDeltaI, |_| Vec::new())
                .is_err()
        );
        assert!(
            LevelAllocation::new(4, 0.0, 36e-6, AllocationScheme::IsoDeltaI, |_| Vec::new())
                .is_err()
        );
    }

    #[test]
    fn out_of_range_code_rejected() {
        let alloc = LevelAllocation::paper_qlc();
        assert!(matches!(
            alloc.level(16),
            Err(MlcError::InvalidData {
                value: 16,
                levels: 16
            })
        ));
    }

    #[test]
    fn projection_sizes() {
        for (n, bits) in [(32usize, 5u32), (64, 6)] {
            let a =
                LevelAllocation::new(n, 6e-6, 36e-6, AllocationScheme::IsoDeltaI, |_| Vec::new())
                    .unwrap();
            assert_eq!(a.bits_per_cell(), bits);
            let d = a.delta_i().unwrap();
            assert!((d - 30e-6 / (n as f64 - 1.0)).abs() < 1e-12);
        }
    }
}
