//! Ablation — ISO-ΔI vs ISO-ΔR level placement (paper §4.1 design choice).
//!
//! The paper adopts ISO-ΔI because the termination controls *current*.
//! This ablation programs both allocations under identical Monte Carlo
//! variability and compares margin uniformity: ISO-ΔR equalizes the nominal
//! gaps but its worst-case margin at the high-resistance end collapses,
//! because the state noise grows exactly where ISO-ΔR packs the levels in
//! current space.

use oxterm_bench::campaigns::mc_campaign;
use oxterm_bench::table::{eng, Table};
use oxterm_mlc::levels::{AllocationScheme, LevelAllocation};
use oxterm_mlc::margins::analyze;
use oxterm_rram::calib::{simulate_reset_references, ResetConditions};
use oxterm_rram::params::{InstanceVariation, OxramParams};

fn main() {
    let runs = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(200);
    println!("== Ablation: ISO-ΔI vs ISO-ΔR allocation ({runs} MC runs/level) ==\n");
    let params = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    // Every level's RESET starts from the same state under the same drive,
    // so one trajectory reads all of a round's currents.
    let cond = ResetConditions::paper_defaults(f64::NAN);
    let r_of_i = |currents: &[f64]| -> Vec<f64> {
        simulate_reset_references(&params, &inst, &cond, currents)
            .into_iter()
            .map(|o| o.map_or(f64::INFINITY, |o| o.r_read_ohms))
            .collect()
    };

    let iso_i = LevelAllocation::new(16, 6e-6, 36e-6, AllocationScheme::IsoDeltaI, r_of_i)
        .expect("valid window");
    let iso_r = LevelAllocation::new(16, 6e-6, 36e-6, AllocationScheme::IsoDeltaR, r_of_i)
        .expect("valid window");

    let mut t = Table::new(&[
        "scheme",
        "min nominal ΔR",
        "max nominal ΔR",
        "worst-case margin",
        "overlap",
    ]);
    for (name, alloc) in [("ISO-ΔI (paper)", &iso_i), ("ISO-ΔR", &iso_r)] {
        let campaign = mc_campaign(&params, alloc, runs, 0xAB1A);
        let samples: Vec<_> = campaign.iter().map(|c| c.to_level_samples()).collect();
        let report = analyze(&samples).expect("populated levels");
        let max_gap = report
            .margins
            .iter()
            .map(|m| m.nominal_gap)
            .fold(0.0f64, f64::max);
        t.row_strings(vec![
            name.to_string(),
            eng(report.min_nominal_margin(), "Ω"),
            eng(max_gap, "Ω"),
            eng(report.worst_case_margin(), "Ω"),
            if report.has_overlap() {
                "YES".into()
            } else {
                "no".to_string()
            },
        ]);
    }
    println!("{}", t.render());
    println!("reading: ISO-ΔR equalizes nominal gaps but concentrates codes at low");
    println!("currents where σ(R) explodes — ISO-ΔI trades nominal uniformity for a");
    println!("margin profile that tracks the variability, which is why the paper uses it.");
}
