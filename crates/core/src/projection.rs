//! Projections beyond quad-level cell (paper Table 3).
//!
//! Keeping the paper's compliance-current window (6–36 µA), the level count
//! is raised to 32 (5 bits) and 64 (6 bits) and the Monte Carlo margin
//! analysis re-run: the minimal nominal ΔR and the worst-case ΔR collapse,
//! which is the paper's argument for why sensing beyond 4 bits/cell becomes
//! impractical.

use oxterm_rram::params::OxramParams;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::levels::{AllocationScheme, LevelAllocation};
use crate::margins::{analyze, LevelSamples, MarginReport};
use crate::program::{program_cell_mc, McVariability, ProgramConditions};
use crate::MlcError;

/// Configuration of a projection run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProjectionConfig {
    /// Bits per cell (4, 5, or 6 in the paper).
    pub bits: u32,
    /// Monte Carlo runs per level.
    pub runs: usize,
    /// RNG seed (deterministic reproduction).
    pub seed: u64,
    /// Program conditions.
    pub conditions: ProgramConditions,
    /// Monte Carlo variability knobs.
    pub variability: McVariability,
    /// Current window (A) — the paper's 6–36 µA.
    pub i_min: f64,
    /// Upper end of the window (A).
    pub i_max: f64,
}

impl ProjectionConfig {
    /// The paper's Table 3 setup for a given bit count.
    pub fn paper(bits: u32, runs: usize, seed: u64) -> Self {
        ProjectionConfig {
            bits,
            runs,
            seed,
            conditions: ProgramConditions::paper(),
            variability: McVariability::default(),
            i_min: 6e-6,
            i_max: 36e-6,
        }
    }
}

/// One row of the Table 3 reproduction.
#[derive(Debug, Clone, PartialEq)]
pub struct ProjectionRow {
    /// Bits per cell.
    pub bits: u32,
    /// Levels programmed.
    pub levels: usize,
    /// Minimal nominal ΔR between adjacent states (Ω).
    pub min_nominal_margin: f64,
    /// Worst-case ΔR between adjacent states (Ω); negative = overlap.
    pub worst_case_margin: f64,
    /// The full margin report (per-level box stats, all margins).
    pub report: MarginReport,
}

/// Runs the Monte Carlo projection for `bits` per cell.
///
/// # Errors
///
/// Propagates programming and analysis failures.
pub fn project(params: &OxramParams, config: &ProjectionConfig) -> Result<ProjectionRow, MlcError> {
    let n_levels = 1usize << config.bits;
    let alloc = LevelAllocation::new(
        n_levels,
        config.i_min,
        config.i_max,
        AllocationScheme::IsoDeltaI,
        |_| Vec::new(),
    )?;
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut samples = Vec::with_capacity(n_levels);
    for level in alloc.levels() {
        let mut r = Vec::with_capacity(config.runs);
        for _ in 0..config.runs {
            let out = program_cell_mc(
                params,
                &alloc,
                level.code,
                &config.conditions,
                &config.variability,
                &mut rng,
            )?;
            r.push(out.r_read_ohms);
        }
        samples.push(LevelSamples {
            code: level.code,
            i_ref: level.i_ref,
            r,
        });
    }
    let report = analyze(&samples)?;
    Ok(ProjectionRow {
        bits: config.bits,
        levels: n_levels,
        min_nominal_margin: report.min_nominal_margin(),
        worst_case_margin: report.worst_case_margin(),
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn margins_shrink_with_bit_count() {
        let params = OxramParams::calibrated();
        // Small run counts keep the test fast; the bench harness uses 500.
        let p4 = project(&params, &ProjectionConfig::paper(4, 20, 1)).unwrap();
        let p5 = project(&params, &ProjectionConfig::paper(5, 20, 1)).unwrap();
        assert_eq!(p4.levels, 16);
        assert_eq!(p5.levels, 32);
        assert!(
            p5.min_nominal_margin < p4.min_nominal_margin,
            "5-bit margin {:.3e} not below 4-bit {:.3e}",
            p5.min_nominal_margin,
            p4.min_nominal_margin
        );
        assert!(p5.worst_case_margin < p4.worst_case_margin);
    }

    #[test]
    fn four_bit_margins_are_positive_kiloohm_scale() {
        let params = OxramParams::calibrated();
        let p4 = project(&params, &ProjectionConfig::paper(4, 30, 2)).unwrap();
        // Paper: minimal ΔR 2.5 kΩ, worst-case 2.1 kΩ — same order here.
        assert!(
            (0.5e3..10e3).contains(&p4.min_nominal_margin),
            "min nominal margin {:.3e}",
            p4.min_nominal_margin
        );
        assert!(
            p4.worst_case_margin > 0.0,
            "4-bit states overlap: {:.3e}",
            p4.worst_case_margin
        );
    }

    #[test]
    fn deterministic_under_seed() {
        let params = OxramParams::calibrated();
        let a = project(&params, &ProjectionConfig::paper(4, 10, 7)).unwrap();
        let b = project(&params, &ProjectionConfig::paper(4, 10, 7)).unwrap();
        assert_eq!(a.min_nominal_margin, b.min_nominal_margin);
        assert_eq!(a.worst_case_margin, b.worst_case_margin);
    }
}
