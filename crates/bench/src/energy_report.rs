//! Streaming per-level energy / program-latency report.
//!
//! The campaign feeds the [`JouleLedger`] during the run (Ok outcomes
//! only, like the resistance tracker); this module turns the bounded-
//! memory [`JouleSnapshot`] into the paper's Fig 13 story plus the
//! termination-savings attribution: per-level RESET energy and latency
//! statistics, each level's savings against the worst-case *open-loop*
//! pulse (the same drive held for the full termination budget with the
//! comparator disabled — see [`WorstCaseBaseline`]), and the role × phase
//! attribution of every integrated joule.
//!
//! Two serializations ship, mirroring [`levels_report`]:
//!
//! - [`EnergyReport::to_json`] — the nested `oxterm-energy/1` artifact
//!   (`results/energy_repro_all.json`, uploaded by the CI `baseline-gate`
//!   job);
//! - [`EnergyReport::to_flat_json`] — a flat key/value summary, the
//!   `energy.*` half of the drift baseline that [`baseline`] compares.
//!
//! [`levels_report`]: crate::levels_report
//! [`baseline`]: crate::baseline

use std::fmt::Write as _;

use crate::table::{eng, Table};
use oxterm_rram::calib::{simulate_worst_case_reset, ResetConditions};
use oxterm_rram::params::{InstanceVariation, OxramParams};
use oxterm_telemetry::joule::{JouleSnapshot, Role, N_PHASES, PHASES};
use oxterm_telemetry::JsonWriter;

/// Schema tag of the nested JSON artifact.
pub const ENERGY_SCHEMA: &str = "oxterm-energy/1";

/// The worst-case open-loop RESET the savings are attributed against:
/// the paper's scheme without write termination must size every pulse
/// for the slowest cell, so the honest baseline is the terminated drive
/// held for the full termination budget (`t_max`) with the comparator
/// disabled. Energy and time saved per programmed cell are measured
/// against this run (paper Figs 13/14 framing).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorstCaseBaseline {
    /// Energy the open-loop budget pulse draws from the driver (J).
    pub energy_j: f64,
    /// Its duration — the termination budget `t_max` (s).
    pub latency_s: f64,
}

impl WorstCaseBaseline {
    /// Computes the baseline for the paper's nominal RESET conditions.
    ///
    /// The open-loop dynamics do not depend on the reference current, so
    /// one simulation covers every level programmed under the paper's
    /// drive.
    ///
    /// # Errors
    ///
    /// Propagates fast-path simulation failures as strings.
    pub fn paper_open_loop() -> Result<Self, String> {
        let cond = ResetConditions::paper_defaults(10e-6);
        let out = simulate_worst_case_reset(
            &OxramParams::calibrated(),
            &InstanceVariation::nominal(),
            &cond,
        )
        .map_err(|e| format!("worst-case baseline simulation failed: {e}"))?;
        Ok(WorstCaseBaseline {
            energy_j: out.energy_j,
            latency_s: out.latency_s,
        })
    }
}

/// Per-level energy/latency statistics plus termination savings.
#[derive(Debug, Clone)]
pub struct EnergyLevelRow {
    /// Binary level code.
    pub code: u16,
    /// RESET-termination reference current (A).
    pub i_ref: f64,
    /// Observations (Ok outcomes only).
    pub n: u64,
    /// Mean RESET energy (J).
    pub mean_j: f64,
    /// Sample standard deviation of the energy (J).
    pub sigma_j: f64,
    /// Streaming median energy (J).
    pub p50_j: f64,
    /// Maximum observed energy (J).
    pub max_j: f64,
    /// Mean RESET latency (s).
    pub mean_latency_s: f64,
    /// Sample standard deviation of the latency (s).
    pub sigma_latency_s: f64,
    /// Streaming median latency (s).
    pub p50_latency_s: f64,
    /// Maximum observed latency (s).
    pub max_latency_s: f64,
    /// Mean energy saved per cell vs the worst-case open-loop pulse (J).
    pub saved_j: f64,
    /// Mean time saved per cell vs the worst-case pulse (s).
    pub saved_s: f64,
}

/// One circuit role's share of the integrated energy.
#[derive(Debug, Clone)]
pub struct RoleAttribution {
    /// The circuit role.
    pub role: Role,
    /// Signed absorbed joules per program phase.
    pub phase_j: [f64; N_PHASES],
    /// Signed total across phases (J).
    pub total_j: f64,
    /// This role's positive (dissipated) energy as a fraction of the
    /// total dissipated energy.
    pub frac_of_dissipated: f64,
}

/// The full energy/latency report.
#[derive(Debug, Clone)]
pub struct EnergyReport {
    /// Per-level rows, ascending by code.
    pub levels: Vec<EnergyLevelRow>,
    /// Roles with any recorded energy, in [`ROLES`] order.
    pub roles: Vec<RoleAttribution>,
    /// Total dissipated energy in the ledger matrix (J).
    pub total_dissipated_j: f64,
    /// Total source-delivered energy (J) — zero on the fast path, where
    /// only dissipation is recorded.
    pub total_delivered_j: f64,
    /// Fraction of the dissipated energy attributed to a named (non-
    /// `Other`) role.
    pub attributed_frac: f64,
    /// The savings baseline the per-level rows reference.
    pub worst_case: WorstCaseBaseline,
}

impl EnergyReport {
    /// Builds the report from a ledger snapshot and a savings baseline.
    ///
    /// # Errors
    ///
    /// Needs at least one level with at least two observations — below
    /// that no spread statistic is defined.
    pub fn from_snapshot(snap: &JouleSnapshot, worst: WorstCaseBaseline) -> Result<Self, String> {
        let levels: Vec<EnergyLevelRow> = snap
            .levels
            .iter()
            .filter(|l| l.n >= 2)
            .map(|l| EnergyLevelRow {
                code: l.code,
                i_ref: l.i_ref,
                n: l.n,
                mean_j: l.mean_j,
                sigma_j: l.std_j,
                p50_j: l.p50_j,
                max_j: l.max_j,
                mean_latency_s: l.mean_latency_s,
                sigma_latency_s: l.std_latency_s,
                p50_latency_s: l.p50_latency_s,
                max_latency_s: l.max_latency_s,
                saved_j: worst.energy_j - l.mean_j,
                saved_s: worst.latency_s - l.mean_latency_s,
            })
            .collect();
        if levels.is_empty() {
            return Err("energy report needs >= 1 level with >= 2 samples".into());
        }
        let total_dissipated = snap.total_dissipated_j();
        let roles: Vec<RoleAttribution> = snap
            .roles
            .iter()
            .filter(|r| r.phase_j.iter().any(|&j| j != 0.0))
            .map(|r| {
                let positive: f64 = r.phase_j.iter().filter(|&&j| j > 0.0).sum();
                RoleAttribution {
                    role: r.role,
                    phase_j: r.phase_j,
                    total_j: r.total_j(),
                    frac_of_dissipated: if total_dissipated > 0.0 {
                        positive / total_dissipated
                    } else {
                        0.0
                    },
                }
            })
            .collect();
        let attributed_frac = roles
            .iter()
            .filter(|r| r.role != Role::Other)
            .map(|r| r.frac_of_dissipated)
            .sum();
        Ok(EnergyReport {
            levels,
            roles,
            total_dissipated_j: total_dissipated,
            total_delivered_j: snap.total_delivered_j(),
            attributed_frac,
            worst_case: worst,
        })
    }

    /// Renders the report as aligned ASCII tables plus rollup lines.
    #[must_use]
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        let mut t = Table::new(&[
            "level", "i_ref", "n", "E p50", "E mean", "E sigma", "t p50", "E saved", "t saved",
        ]);
        for l in &self.levels {
            t.row_strings(vec![
                format!("{:04b}", l.code),
                eng(l.i_ref, "A"),
                l.n.to_string(),
                eng(l.p50_j, "J"),
                eng(l.mean_j, "J"),
                eng(l.sigma_j, "J"),
                eng(l.p50_latency_s, "s"),
                eng(l.saved_j, "J"),
                eng(l.saved_s, "s"),
            ]);
        }
        out.push_str(&t.render());
        out.push('\n');
        let mut r = Table::new(&["role", "set", "reset", "bisect", "tail", "other", "%diss"]);
        for a in &self.roles {
            let mut row = vec![a.role.label().to_string()];
            for p in PHASES {
                row.push(eng(a.phase_j[p.index()], "J"));
            }
            row.push(format!("{:.1}%", a.frac_of_dissipated * 100.0));
            r.row_strings(row);
        }
        out.push_str(&r.render());
        out.push('\n');
        let _ = writeln!(
            out,
            "total dissipated {} (delivered {}), {:.1}% attributed to named roles",
            eng(self.total_dissipated_j, "J"),
            eng(self.total_delivered_j, "J"),
            self.attributed_frac * 100.0,
        );
        let _ = writeln!(
            out,
            "worst-case open-loop pulse: {} over {}",
            eng(self.worst_case.energy_j, "J"),
            eng(self.worst_case.latency_s, "s"),
        );
        out
    }

    /// The nested `oxterm-energy/1` JSON artifact.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.string("schema", ENERGY_SCHEMA);
        w.begin_object_key("worst_case");
        w.f64("energy_j", finite(self.worst_case.energy_j));
        w.f64("latency_s", finite(self.worst_case.latency_s));
        w.end_object();
        w.begin_array_key("levels");
        for l in &self.levels {
            w.begin_object();
            w.string("code", &format!("{:04b}", l.code));
            w.f64("i_ref_a", finite(l.i_ref));
            w.u64("n", l.n);
            w.f64("mean_j", finite(l.mean_j));
            w.f64("sigma_j", finite(l.sigma_j));
            w.f64("p50_j", finite(l.p50_j));
            w.f64("max_j", finite(l.max_j));
            w.f64("mean_latency_s", finite(l.mean_latency_s));
            w.f64("sigma_latency_s", finite(l.sigma_latency_s));
            w.f64("p50_latency_s", finite(l.p50_latency_s));
            w.f64("max_latency_s", finite(l.max_latency_s));
            w.f64("saved_j", finite(l.saved_j));
            w.f64("saved_s", finite(l.saved_s));
            w.end_object();
        }
        w.end_array();
        w.begin_array_key("roles");
        for a in &self.roles {
            w.begin_object();
            w.string("role", a.role.label());
            for p in PHASES {
                w.f64(&format!("{}_j", p.label()), finite(a.phase_j[p.index()]));
            }
            w.f64("total_j", finite(a.total_j));
            w.f64("frac_of_dissipated", finite(a.frac_of_dissipated));
            w.end_object();
        }
        w.end_array();
        w.f64("total_dissipated_j", finite(self.total_dissipated_j));
        w.f64("total_delivered_j", finite(self.total_delivered_j));
        w.f64("attributed_frac", finite(self.attributed_frac));
        w.end_object();
        w.finish()
    }

    /// The flat summary the drift baseline stores: one
    /// `energy.<code>.<stat>` key per statistic plus ledger rollups.
    /// Round-trips through
    /// [`parse_flat_json`](crate::baseline::parse_flat_json).
    #[must_use]
    pub fn to_flat_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.string("schema", "oxterm-energy-flat/1");
        for l in &self.levels {
            let code = format!("{:04b}", l.code);
            w.u64(&format!("energy.{code}.n"), l.n);
            w.f64(&format!("energy.{code}.mean_j"), finite(l.mean_j));
            w.f64(&format!("energy.{code}.p50_j"), finite(l.p50_j));
            w.f64(&format!("energy.{code}.sigma_j"), finite(l.sigma_j));
            w.f64(
                &format!("energy.{code}.mean_latency_s"),
                finite(l.mean_latency_s),
            );
            w.f64(
                &format!("energy.{code}.p50_latency_s"),
                finite(l.p50_latency_s),
            );
            w.f64(&format!("energy.{code}.saved_j"), finite(l.saved_j));
            w.f64(&format!("energy.{code}.saved_s"), finite(l.saved_s));
        }
        w.f64("rollup.total_dissipated_j", finite(self.total_dissipated_j));
        w.f64("rollup.attributed_frac", finite(self.attributed_frac));
        w.f64("rollup.worst_case_j", finite(self.worst_case.energy_j));
        w.end_object();
        w.finish()
    }

    /// Mean energy and latency across levels (for one-line summaries).
    #[must_use]
    pub fn grand_means(&self) -> (f64, f64) {
        let n = self.levels.len() as f64;
        let e = self.levels.iter().map(|l| l.mean_j).sum::<f64>() / n;
        let t = self.levels.iter().map(|l| l.mean_latency_s).sum::<f64>() / n;
        (e, t)
    }
}

/// Replaces non-finite statistics with zero so every serialization stays
/// valid JSON.
fn finite(v: f64) -> f64 {
    if v.is_finite() {
        v
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::baseline::{check, parse_flat_json};
    use oxterm_telemetry::joule::{DeviceClass, JouleLedger, ProgramPhase};

    /// A ledger fed two synthetic levels plus role-bucketed energy.
    fn synthetic_report() -> EnergyReport {
        let l = JouleLedger::enabled();
        let mut x = 0x9e37_79b9_u64;
        let mut jitter = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            1.0 + ((x % 1000) as f64 / 1000.0 - 0.5) * 0.1
        };
        for _ in 0..200 {
            l.observe_level(0, 36e-6, 15e-12 * jitter(), 0.4e-6 * jitter());
            l.observe_level(15, 6e-6, 80e-12 * jitter(), 4.0e-6 * jitter());
        }
        l.record_energy_in_phase(
            DeviceClass::RramCell,
            Role::RramCell,
            ProgramPhase::Reset,
            12e-9,
        );
        l.record_energy_in_phase(
            DeviceClass::Resistor,
            Role::AccessTransistor,
            ProgramPhase::Reset,
            7e-9,
        );
        let worst = WorstCaseBaseline {
            energy_j: 600e-12,
            latency_s: 60e-6,
        };
        EnergyReport::from_snapshot(&l.snapshot(), worst).expect("two levels")
    }

    #[test]
    fn report_rejects_empty_snapshots() {
        let l = JouleLedger::enabled();
        let worst = WorstCaseBaseline {
            energy_j: 1e-9,
            latency_s: 60e-6,
        };
        assert!(EnergyReport::from_snapshot(&l.snapshot(), worst).is_err());
    }

    #[test]
    fn savings_are_positive_against_the_budget_pulse() {
        let r = synthetic_report();
        assert_eq!(r.levels.len(), 2);
        for l in &r.levels {
            assert!(
                l.saved_j > 0.0,
                "level {:04b} saved_j {}",
                l.code,
                l.saved_j
            );
            assert!(
                l.saved_s > 0.0,
                "level {:04b} saved_s {}",
                l.code,
                l.saved_s
            );
        }
    }

    #[test]
    fn attribution_sums_to_the_dissipated_total() {
        let r = synthetic_report();
        assert!((r.total_dissipated_j - 19e-9).abs() < 1e-18);
        assert!(
            (r.attributed_frac - 1.0).abs() < 1e-12,
            "frac {}",
            r.attributed_frac
        );
        let cell = r
            .roles
            .iter()
            .find(|a| a.role == Role::RramCell)
            .expect("cell role present");
        assert!((cell.frac_of_dissipated - 12.0 / 19.0).abs() < 1e-12);
    }

    #[test]
    fn serializations_are_well_formed() {
        let r = synthetic_report();
        let nested = r.to_json();
        assert!(
            nested.contains("\"schema\":\"oxterm-energy/1\""),
            "{nested}"
        );
        assert!(nested.contains("\"code\":\"1111\""));
        assert!(nested.contains("\"worst_case\""));
        let flat = r.to_flat_json();
        let parsed = parse_flat_json(&flat).expect("flat summary parses");
        assert!(parsed.contains_key("energy.0000.mean_j"));
        assert!(parsed.contains_key("energy.1111.saved_j"));
        assert!(parsed.contains_key("rollup.attributed_frac"));
        let table = r.to_table();
        assert!(table.contains("1111"), "{table}");
        assert!(table.contains("E saved"), "{table}");
        assert!(table.contains("attributed"), "{table}");
    }

    // The report's own flat summary through the one drift gate
    // (`crate::baseline`, whose tests cover the comparator's edge cases).

    #[test]
    fn drift_gate_passes_identical_summaries() {
        let flat = synthetic_report().to_flat_json();
        let verdict = check(Ok(flat.clone()), Some(&flat)).expect("gate passes");
        // 2 levels × {mean_j, p50_j, mean_latency_s, p50_latency_s, saved_j}.
        assert!(verdict.contains("OK (10 statistics"), "{verdict}");
    }

    #[test]
    fn drift_gate_flags_missing_levels_and_malformed_json() {
        let flat = synthetic_report().to_flat_json();
        let verdict = check(
            Ok(flat.clone()),
            Some("{\"schema\": \"oxterm-energy-flat/1\"}"),
        )
        .expect_err("gate fails");
        assert!(verdict.contains("missing from fresh run"), "{verdict}");
        assert!(check(Ok("[1]".into()), Some(&flat)).is_err());
        assert!(check(Ok(flat), Some("nope")).is_err());
    }
}
