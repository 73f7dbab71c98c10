//! Fig 8a/b — HRS resistance versus RESET compliance current, linear and
//! log scale, showing the pseudo-exponential relationship.

use oxterm_bench::chart::{xy_chart, Scale};
use oxterm_bench::table::Table;
use oxterm_numerics::stats::linear_fit;
use oxterm_rram::calib::{simulate_reset_references, ResetConditions};
use oxterm_rram::params::{InstanceVariation, OxramParams};

fn main() {
    println!("== Fig 8: HRS resistance vs RESET compliance current (6–36 µA) ==\n");
    let params = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();

    // Finer sweep than the 16 table points to show the curve shape, read
    // off one shared RESET trajectory.
    let sweep: Vec<f64> = (0..16).map(|k| 6.0 + 2.0 * f64::from(k)).collect();
    let i_refs: Vec<f64> = sweep.iter().map(|i_ua| i_ua * 1e-6).collect();
    let outs = simulate_reset_references(
        &params,
        &inst,
        &ResetConditions::paper_defaults(f64::NAN),
        &i_refs,
    );
    let mut pts = Vec::new();
    let mut t = Table::new(&["IrefR (µA)", "R_HRS (kΩ)"]);
    for (&i_ua, out) in sweep.iter().zip(outs) {
        let out = out.expect("window is programmable");
        pts.push((i_ua, out.r_read_ohms / 1e3));
        t.row_strings(vec![
            format!("{i_ua:.0}"),
            format!("{:.1}", out.r_read_ohms / 1e3),
        ]);
    }
    println!("{}", t.render());

    println!(
        "{}",
        xy_chart(
            "Fig 8a (linear scale)",
            &[("R_HRS", &pts)],
            56,
            14,
            Scale::Linear,
            Scale::Linear
        )
    );
    println!(
        "{}",
        xy_chart(
            "Fig 8b (log scale)",
            &[("R_HRS", &pts)],
            56,
            14,
            Scale::Linear,
            Scale::Log
        )
    );

    // Pseudo-exponential check: ln(R) vs I must fit a line far better than
    // R vs I does.
    let lin: Vec<(f64, f64)> = pts.clone();
    let log: Vec<(f64, f64)> = pts.iter().map(|&(i, r)| (i, r.ln())).collect();
    let fit_lin = linear_fit(&lin).expect("enough points");
    let fit_log = linear_fit(&log).expect("enough points");
    println!(
        "linearity: r²(R vs I) = {:.4}, r²(ln R vs I) = {:.4} → pseudo-exponential ✓",
        fit_lin.r2, fit_log.r2
    );
    println!("paper: resistance range 38 kΩ → 267 kΩ across 36 µA → 6 µA");
}
