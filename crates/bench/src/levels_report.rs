//! Streaming per-level distribution report.
//!
//! Where fig11/fig12 batch-collect full sample vectors, this module
//! builds the same statistical story from the bounded-memory
//! [`LevelsSnapshot`] the campaign feeds during the run: per-level
//! p01/p50/p99, adjacent-level sigma margins (fig12's margin analysis),
//! read-window BER *upper bounds* with exact Clopper–Pearson and Wilson
//! confidence intervals, and feasibility verdicts for 3/4/5/6 bits per
//! cell (the paper's density-projection question, Table 3).
//!
//! Two serializations ship:
//!
//! - [`LevelReport::to_json`] — the nested `oxterm-levels/1` artifact
//!   (the CI `baseline-gate` job uploads it);
//! - [`LevelReport::to_flat_json`] — a flat key/value summary, the
//!   `level.*` half of the drift baseline that [`baseline`] compares.
//!
//! [`baseline`]: crate::baseline

use std::fmt::Write as _;

use crate::table::{eng, Table};
use oxterm_mc::convergence::{clopper_pearson_upper, wilson_interval};
use oxterm_numerics::special::q_function;
use oxterm_telemetry::levels::LevelsSnapshot;
use oxterm_telemetry::JsonWriter;

/// Schema tag of the nested JSON artifact.
pub const LEVELS_SCHEMA: &str = "oxterm-levels/1";

/// One-sided confidence level used for every BER upper bound.
const CONFIDENCE: f64 = 0.95;

/// z-score of the one-sided 95% bound (for Wilson).
const Z_ONE_SIDED_95: f64 = 1.6449;

/// A feasible allocation needs at least this many sigmas between
/// adjacent level medians…
const FEASIBLE_MIN_SIGMA_MARGIN: f64 = 3.0;

/// …and a worst-pair BER bound at or below this.
const FEASIBLE_MAX_BER: f64 = 1e-3;

/// Per-level statistics, derived entirely from streaming state.
#[derive(Debug, Clone)]
pub struct LevelRow {
    /// Binary level code.
    pub code: u16,
    /// RESET-termination reference current (A).
    pub i_ref: f64,
    /// Observations.
    pub n: u64,
    /// Streaming mean (Ω).
    pub mean: f64,
    /// Sample standard deviation (Ω).
    pub sigma: f64,
    /// Streaming 1st / 50th / 99th percentiles (Ω).
    pub p01: f64,
    /// Streaming median (Ω).
    pub p50: f64,
    /// Streaming 99th percentile (Ω).
    pub p99: f64,
}

/// Separation statistics for one adjacent level pair (ordered by
/// median resistance).
#[derive(Debug, Clone)]
pub struct MarginRow {
    /// Code of the lower-resistance level.
    pub lo_code: u16,
    /// Code of the higher-resistance level.
    pub hi_code: u16,
    /// Median-to-median gap (Ω).
    pub gap: f64,
    /// Gap divided by the summed sigmas — fig12's separation figure.
    pub sigma_margin: f64,
    /// The read boundary assumed between the pair: the midpoint of the
    /// two medians (Ω).
    pub boundary_ohms: f64,
    /// Conservative count of samples on the wrong side of the
    /// boundary: whole histogram bins, the boundary's own included.
    pub violations: u64,
    /// Samples across the pair.
    pub trials: u64,
    /// Exact Clopper–Pearson 95% upper bound on the pair's read BER.
    pub ber_cp_upper: f64,
    /// Wilson-score 95% upper bound on the same proportion.
    pub ber_wilson_upper: f64,
}

/// Feasibility verdict for one bits-per-cell allocation.
#[derive(Debug, Clone)]
pub struct AllocationVerdict {
    /// Bits per cell judged.
    pub bits: u32,
    /// Levels that allocation needs.
    pub levels_needed: usize,
    /// Codes of the worst-separated adjacent pair.
    pub worst_pair: (u16, u16),
    /// The worst pair's sigma margin (scaled for projected levels).
    pub min_sigma_margin: f64,
    /// Worst-pair Gaussian misread estimate, the same basis for every
    /// bit-depth so the verdicts are mutually comparable. The measured
    /// Clopper–Pearson/Wilson bounds live in the margins table — they
    /// floor at ~3/n for small campaigns (a sample-size statement, not
    /// a separation statement) and therefore do not gate feasibility.
    pub ber_bound: f64,
    /// Whether the projection is measured or Gaussian-extrapolated.
    pub projected: bool,
    /// The verdict: margin ≥ 3σ and BER bound ≤ 1e-3.
    pub feasible: bool,
}

/// The full streaming-distribution report.
#[derive(Debug, Clone)]
pub struct LevelReport {
    /// Per-level rows, ascending by median resistance.
    pub levels: Vec<LevelRow>,
    /// Adjacent-pair separation rows (`levels.len() - 1` of them).
    pub margins: Vec<MarginRow>,
    /// 3/4/5/6-bit feasibility verdicts.
    pub verdicts: Vec<AllocationVerdict>,
}

impl LevelReport {
    /// Builds the report from a tracker snapshot.
    ///
    /// # Errors
    ///
    /// Needs at least two levels with at least two observations each —
    /// below that no margin statistic is defined.
    pub fn from_snapshot(snap: &LevelsSnapshot) -> Result<Self, String> {
        let mut levels: Vec<LevelRow> = snap
            .levels
            .iter()
            .filter(|l| l.n >= 2)
            .map(|l| LevelRow {
                code: l.code,
                i_ref: l.i_ref,
                n: l.n,
                mean: l.mean,
                sigma: l.std_dev,
                p01: l.p01,
                p50: l.p50,
                p99: l.p99,
            })
            .collect();
        if levels.len() < 2 {
            return Err(format!(
                "level report needs >= 2 levels with >= 2 samples, have {}",
                levels.len()
            ));
        }
        levels.sort_by(|a, b| a.p50.total_cmp(&b.p50));

        let margins: Vec<MarginRow> = levels
            .windows(2)
            .map(|pair| {
                let (lo, hi) = (&pair[0], &pair[1]);
                let boundary = 0.5 * (lo.p50 + hi.p50);
                // Wrong-side counts from the histograms: every sample in a
                // bin wholly past the boundary, plus the whole boundary
                // bin, so the count can only be conservative. Min and max
                // are exact, so a boundary outside a level's observed
                // range counts exactly zero for it.
                let mut k = 0u64;
                if let Some(l) = summary_for(snap, lo.code) {
                    k += l.histogram.count - l.histogram.count_le(boundary).0;
                }
                if let Some(h) = summary_for(snap, hi.code) {
                    k += h.histogram.count_le(boundary).1;
                }
                let trials = lo.n + hi.n;
                let k = k.min(trials);
                let gap = hi.p50 - lo.p50;
                let denom = lo.sigma + hi.sigma;
                MarginRow {
                    lo_code: lo.code,
                    hi_code: hi.code,
                    gap,
                    sigma_margin: if denom > 0.0 { gap / denom } else { 0.0 },
                    boundary_ohms: boundary,
                    violations: k,
                    trials,
                    ber_cp_upper: clopper_pearson_upper(k, trials, 1.0 - CONFIDENCE),
                    ber_wilson_upper: wilson_interval(k as usize, trials as usize, Z_ONE_SIDED_95)
                        .1,
                }
            })
            .collect();

        let verdicts = [3u32, 4, 5, 6]
            .iter()
            .map(|&bits| judge_allocation(bits, &levels, &margins))
            .collect();

        Ok(LevelReport {
            levels,
            margins,
            verdicts,
        })
    }

    /// Renders the report as aligned ASCII tables plus verdict lines.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let mut t = Table::new(&["level", "i_ref", "n", "p01", "p50", "p99", "sigma"]);
        for l in &self.levels {
            t.row_strings(vec![
                format!("{:04b}", l.code),
                eng(l.i_ref, "A"),
                l.n.to_string(),
                eng(l.p01, "Ω"),
                eng(l.p50, "Ω"),
                eng(l.p99, "Ω"),
                eng(l.sigma, "Ω"),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
        let mut m = Table::new(&[
            "pair",
            "gap",
            "margin/σ",
            "viol",
            "BER≤ (CP95)",
            "BER≤ (Wilson)",
        ]);
        for r in &self.margins {
            m.row_strings(vec![
                format!("{:04b}-{:04b}", r.lo_code, r.hi_code),
                eng(r.gap, "Ω"),
                format!("{:.2}", r.sigma_margin),
                format!("{}/{}", r.violations, r.trials),
                format!("{:.2e}", r.ber_cp_upper),
                format!("{:.2e}", r.ber_wilson_upper),
            ]);
        }
        out.push_str(&m.render());
        out.push('\n');
        for v in &self.verdicts {
            let _ = writeln!(
                out,
                "{}-bit ({} levels): worst pair {:04b}-{:04b}, margin {:.2}σ, \
                 BER ≤ {:.2e}{} -> {}",
                v.bits,
                v.levels_needed,
                v.worst_pair.0,
                v.worst_pair.1,
                v.min_sigma_margin,
                v.ber_bound,
                if v.projected { " (projected)" } else { "" },
                if v.feasible {
                    "feasible"
                } else {
                    "not feasible"
                },
            );
        }
        out
    }

    /// The nested `oxterm-levels/1` JSON artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.string("schema", LEVELS_SCHEMA);
        w.begin_array_key("levels");
        for l in &self.levels {
            w.begin_object();
            w.string("code", &format!("{:04b}", l.code));
            w.f64("i_ref_a", finite(l.i_ref));
            w.u64("n", l.n);
            w.f64("mean_ohms", finite(l.mean));
            w.f64("sigma_ohms", finite(l.sigma));
            w.f64("p01_ohms", finite(l.p01));
            w.f64("p50_ohms", finite(l.p50));
            w.f64("p99_ohms", finite(l.p99));
            w.end_object();
        }
        w.end_array();
        w.begin_array_key("margins");
        for r in &self.margins {
            w.begin_object();
            w.string("pair", &format!("{:04b}-{:04b}", r.lo_code, r.hi_code));
            w.f64("gap_ohms", finite(r.gap));
            w.f64("sigma_margin", finite(r.sigma_margin));
            w.f64("boundary_ohms", finite(r.boundary_ohms));
            w.u64("violations", r.violations);
            w.u64("trials", r.trials);
            w.f64("ber_cp_upper", finite(r.ber_cp_upper));
            w.f64("ber_wilson_upper", finite(r.ber_wilson_upper));
            w.end_object();
        }
        w.end_array();
        w.begin_array_key("verdicts");
        for v in &self.verdicts {
            w.begin_object();
            w.u64("bits", u64::from(v.bits));
            w.u64("levels_needed", v.levels_needed as u64);
            w.string(
                "worst_pair",
                &format!("{:04b}-{:04b}", v.worst_pair.0, v.worst_pair.1),
            );
            w.f64("min_sigma_margin", finite(v.min_sigma_margin));
            w.f64("ber_bound", finite(v.ber_bound));
            w.bool("projected", v.projected);
            w.bool("feasible", v.feasible);
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }

    /// The flat summary the drift baseline stores: one
    /// `level.<code>.<stat>` key per statistic, plus worst-case rollups.
    /// Round-trips through
    /// [`parse_flat_json`](crate::baseline::parse_flat_json).
    #[must_use]
    pub fn to_flat_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.string("schema", "oxterm-levels-flat/1");
        for l in &self.levels {
            let code = format!("{:04b}", l.code);
            w.u64(&format!("level.{code}.n"), l.n);
            w.f64(&format!("level.{code}.p01"), finite(l.p01));
            w.f64(&format!("level.{code}.p50"), finite(l.p50));
            w.f64(&format!("level.{code}.p99"), finite(l.p99));
            w.f64(&format!("level.{code}.sigma"), finite(l.sigma));
        }
        if let Some(worst) = self.worst_margin() {
            w.f64("worst.sigma_margin", finite(worst.sigma_margin));
            w.f64("worst.ber_cp_upper", finite(worst.ber_cp_upper));
        }
        w.end_object();
        w.finish()
    }

    /// The least-separated adjacent pair.
    #[must_use]
    pub fn worst_margin(&self) -> Option<&MarginRow> {
        self.margins
            .iter()
            .min_by(|a, b| a.sigma_margin.total_cmp(&b.sigma_margin))
    }
}

/// Looks up a level's full streaming summary in the snapshot by code.
fn summary_for(snap: &LevelsSnapshot, code: u16) -> Option<&oxterm_telemetry::LevelSummary> {
    snap.levels.iter().find(|l| l.code == code)
}

/// Replaces non-finite statistics (possible on degenerate input) with
/// zero so every serialization stays valid JSON.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

/// Judges one bits-per-cell allocation against the measured levels.
///
/// - 3 bits: every second measured level (the ISO-ΔI allocation's own
///   coarsening) — measured margins.
/// - 4 bits: the measured levels as-is.
/// - 5/6 bits: each measured gap must host 2/4 sub-levels, so the pair
///   margin shrinks by that factor.
///
/// All four verdicts gate on the margin plus the Gaussian misread
/// estimate of the worst pair, so they are monotone in density and
/// comparable with each other; the measured CP/Wilson bounds stay in
/// the margins table where their small-n floor (~3/n even with zero
/// violations) reads as what it is — a sample-size limit.
fn judge_allocation(bits: u32, levels: &[LevelRow], margins: &[MarginRow]) -> AllocationVerdict {
    let needed = 1usize << bits;
    match bits {
        3 => {
            // Coarsen: keep every second level (by resistance order).
            let kept: Vec<&LevelRow> = levels.iter().step_by(2).collect();
            let mut worst: Option<(f64, (u16, u16), f64)> = None;
            for pair in kept.windows(2) {
                let (lo, hi) = (pair[0], pair[1]);
                let gap = hi.p50 - lo.p50;
                let denom = lo.sigma + hi.sigma;
                let margin = if denom > 0.0 { gap / denom } else { 0.0 };
                // Boundary sits mid-gap; each side clears margin·σ
                // (since gap = margin·(σlo+σhi), the midpoint is at
                // least margin·min(σ) away — use the Gaussian tail of
                // the worse side).
                let ber = ber_gaussian(gap, lo.sigma, hi.sigma);
                if worst.map(|(m, _, _)| margin < m).unwrap_or(true) {
                    worst = Some((margin, (lo.code, hi.code), ber));
                }
            }
            let (margin, pair, ber) = worst.unwrap_or((0.0, (0, 0), 1.0));
            AllocationVerdict {
                bits,
                levels_needed: needed,
                worst_pair: pair,
                min_sigma_margin: margin,
                ber_bound: ber,
                projected: false,
                feasible: feasible(margin, ber),
            }
        }
        4 => {
            let worst = margins
                .iter()
                .min_by(|a, b| a.sigma_margin.total_cmp(&b.sigma_margin));
            let (margin, pair, ber) = worst
                .map(|m| {
                    let slo = sigma_of(levels, m.lo_code);
                    let shi = sigma_of(levels, m.hi_code);
                    (
                        m.sigma_margin,
                        (m.lo_code, m.hi_code),
                        ber_gaussian(m.gap, slo, shi),
                    )
                })
                .unwrap_or((0.0, (0, 0), 1.0));
            AllocationVerdict {
                bits,
                levels_needed: needed,
                worst_pair: pair,
                min_sigma_margin: margin,
                ber_bound: ber,
                projected: false,
                feasible: feasible(margin, ber),
            }
        }
        _ => {
            // 5/6 bits: 2^(bits-4) sub-levels per measured gap.
            let shrink = (1u32 << (bits - 4)) as f64;
            let worst = margins
                .iter()
                .min_by(|a, b| a.sigma_margin.total_cmp(&b.sigma_margin));
            let (margin4, pair, gap, slo, shi) = worst
                .map(|m| {
                    (
                        m.sigma_margin,
                        (m.lo_code, m.hi_code),
                        m.gap,
                        sigma_of(levels, m.lo_code),
                        sigma_of(levels, m.hi_code),
                    )
                })
                .unwrap_or((0.0, (0, 0), 0.0, 0.0, 0.0));
            let margin = margin4 / shrink;
            let ber = ber_gaussian(gap / shrink, slo, shi);
            AllocationVerdict {
                bits,
                levels_needed: needed,
                worst_pair: pair,
                min_sigma_margin: margin,
                ber_bound: ber,
                projected: true,
                feasible: feasible(margin, ber),
            }
        }
    }
}

fn feasible(margin: f64, ber: f64) -> bool {
    margin >= FEASIBLE_MIN_SIGMA_MARGIN && ber <= FEASIBLE_MAX_BER
}

/// Sigma of a level by code (zero for an unknown code — degenerate
/// inputs then fold to the conservative `ber_gaussian` answer).
fn sigma_of(levels: &[LevelRow], code: u16) -> f64 {
    levels
        .iter()
        .find(|l| l.code == code)
        .map(|l| l.sigma)
        .unwrap_or(0.0)
}

/// Gaussian misread estimate for a level pair with median gap `gap`:
/// the worse side's tail beyond the mid-gap boundary.
fn ber_gaussian(gap: f64, sigma_lo: f64, sigma_hi: f64) -> f64 {
    let s = sigma_lo.max(sigma_hi);
    if s <= 0.0 || gap <= 0.0 {
        return if gap > 0.0 { 0.0 } else { 1.0 };
    }
    q_function(0.5 * gap / s)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{check, parse_flat_json};
    use oxterm_telemetry::levels::LevelTracker;

    /// A tracker fed two clean synthetic Gaussian-ish levels.
    fn synthetic_snapshot(sep: f64) -> LevelsSnapshot {
        let t = LevelTracker::enabled();
        let mut x = 0x1234_5678_u64;
        let mut unit = || {
            // Irwin–Hall(12) pseudo-Gaussian from xorshift.
            let mut s = 0.0;
            for _ in 0..12 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                s += (x % 10_000) as f64 / 10_000.0;
            }
            s - 6.0
        };
        for _ in 0..400 {
            t.observe(0, 50e-6, 40e3 + 1e3 * unit());
            t.observe(1, 40e-6, 40e3 + sep + 1e3 * unit());
        }
        t.snapshot()
    }

    #[test]
    fn report_rejects_thin_snapshots() {
        let t = LevelTracker::enabled();
        t.observe(0, 1e-6, 50e3);
        assert!(LevelReport::from_snapshot(&t.snapshot()).is_err());
    }

    #[test]
    fn well_separated_levels_get_clean_margins() {
        let snap = synthetic_snapshot(10e3);
        let report = LevelReport::from_snapshot(&snap).expect("two levels");
        assert_eq!(report.levels.len(), 2);
        assert_eq!(report.margins.len(), 1);
        let m = &report.margins[0];
        assert_eq!((m.lo_code, m.hi_code), (0, 1));
        assert!(m.sigma_margin > 3.0, "margin {}", m.sigma_margin);
        // 10σ separation: the boundary sits outside both observed
        // ranges, so no boundary bin counts — zero violations, and the
        // CP bound is driven by n alone (≈ 3/n for k = 0).
        assert_eq!(m.violations, 0, "cp {}", m.ber_cp_upper);
        assert!(m.ber_cp_upper < 0.05, "cp {}", m.ber_cp_upper);
        assert!(m.ber_cp_upper > 0.0);
        // Exact bound is the conservative one of the two.
        assert!(m.ber_cp_upper >= m.ber_wilson_upper * 0.5);
    }

    #[test]
    fn overlapping_levels_are_flagged() {
        let snap = synthetic_snapshot(1e3);
        let report = LevelReport::from_snapshot(&snap).expect("two levels");
        let m = &report.margins[0];
        assert!(m.sigma_margin < 1.0, "margin {}", m.sigma_margin);
        assert!(m.ber_cp_upper > 0.1, "cp {}", m.ber_cp_upper);
        assert!(m.violations > 0);
    }

    #[test]
    fn serializations_are_well_formed() {
        let snap = synthetic_snapshot(8e3);
        let report = LevelReport::from_snapshot(&snap).expect("two levels");
        let nested = report.to_json();
        assert!(
            nested.contains("\"schema\":\"oxterm-levels/1\""),
            "{nested}"
        );
        assert!(nested.contains("\"code\":\"0000\""));
        let flat = report.to_flat_json();
        let parsed = parse_flat_json(&flat).expect("flat summary parses");
        assert!(parsed.contains_key("level.0000.p50"));
        assert!(parsed.contains_key("worst.sigma_margin"));
        let table = report.to_table();
        assert!(table.contains("0000"), "{table}");
        assert!(table.contains("BER"), "{table}");
    }

    #[test]
    fn verdicts_cover_3_to_6_bits_and_degrade_with_density() {
        let snap = synthetic_snapshot(12e3);
        let report = LevelReport::from_snapshot(&snap).expect("two levels");
        assert_eq!(
            report.verdicts.iter().map(|v| v.bits).collect::<Vec<_>>(),
            vec![3, 4, 5, 6]
        );
        let margin_of = |bits: u32| {
            report
                .verdicts
                .iter()
                .find(|v| v.bits == bits)
                .map(|v| v.min_sigma_margin)
                .expect("verdict present")
        };
        // Projected margins halve per extra bit.
        assert!((margin_of(5) - margin_of(4) / 2.0).abs() < 1e-9);
        assert!((margin_of(6) - margin_of(4) / 4.0).abs() < 1e-9);
        let verdict_of = |bits: u32| {
            report
                .verdicts
                .iter()
                .find(|v| v.bits == bits)
                .expect("verdict present")
        };
        assert!(verdict_of(6).projected);
        // 12e3 gap at σ ≈ 1e3: margin ≈ 6σ at 4 bits, ≈ 1.5σ at
        // 6 bits. Verdict order must match — clean separation cannot
        // read "not feasible" at low density while reading "feasible"
        // at high density.
        assert!(verdict_of(4).feasible, "{:?}", verdict_of(4));
        assert!(!verdict_of(6).feasible, "{:?}", verdict_of(6));
        assert!(
            verdict_of(4).ber_bound <= verdict_of(5).ber_bound
                && verdict_of(5).ber_bound <= verdict_of(6).ber_bound,
            "BER bounds must be monotone in density"
        );
    }

    // The report's own flat summary through the one drift gate
    // (`crate::baseline`, whose tests cover the comparator's edge cases).

    #[test]
    fn drift_gate_passes_identical_summaries() {
        let snap = synthetic_snapshot(8e3);
        let flat = LevelReport::from_snapshot(&snap)
            .expect("two levels")
            .to_flat_json();
        let verdict = check(Ok(flat.clone()), Some(&flat)).expect("gate passes");
        // 2 levels × {p01, p50, p99, sigma}.
        assert!(verdict.contains("OK (8 statistics"), "{verdict}");
    }

    #[test]
    fn drift_gate_flags_a_seeded_perturbation_and_names_the_level() {
        let snap = synthetic_snapshot(8e3);
        let report = LevelReport::from_snapshot(&snap).expect("two levels");
        let baseline = report.to_flat_json();
        // Seeded perturbation: shift level 0001's distribution by 10%.
        let mut shifted = report.clone();
        for l in &mut shifted.levels {
            if l.code == 1 {
                l.p01 *= 1.10;
                l.p50 *= 1.10;
                l.p99 *= 1.10;
            }
        }
        let verdict = check(Ok(baseline), Some(&shifted.to_flat_json())).expect_err("gate fails");
        assert!(
            verdict.contains("worst-drifting key: level.0001."),
            "{verdict}"
        );
        assert!(verdict.contains("FAIL"), "{verdict}");
    }

    #[test]
    fn drift_gate_flags_missing_levels() {
        let snap = synthetic_snapshot(8e3);
        let flat = LevelReport::from_snapshot(&snap)
            .expect("two levels")
            .to_flat_json();
        let verdict = check(Ok(flat), Some("{\"schema\": \"oxterm-levels-flat/1\"}"))
            .expect_err("gate fails");
        assert!(verdict.contains("missing from fresh run"), "{verdict}");
    }
}
