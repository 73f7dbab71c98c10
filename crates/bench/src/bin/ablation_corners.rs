//! Ablation — process-corner sensitivity of the termination comparator.
//!
//! The paper's MC deck covers corner cases; this ablation applies the five
//! classic global corners (TT/SS/FF/SF/FS) to the transistor-level Fig 7a
//! stage and measures where its trip point moves. The mirrors are
//! ratiometric, so global corners should shift the trip point far less
//! than the raw device parameters move — the design's PVT argument
//! (the paper grounds `IrefR` itself in a bandgap reference).

use oxterm_bench::table::{eng, Table};
use oxterm_bench::telemetry_cli;
use oxterm_devices::mosfet::Mosfet;
use oxterm_mc::corners::Corner;
use oxterm_mlc::termination::{comparator_testbench, TerminationSizing};
use oxterm_spice::analysis::op::{solve_op, OpOptions};
use oxterm_telemetry::Telemetry;

/// Comparator output at the given corner for an injected cell current.
fn out_at_corner(corner: Corner, i_cell: f64, i_ref: f64) -> f64 {
    let shifts = corner.shifts();
    // The same netlist the termination tests and the lint corpus build.
    let (mut c, stage) = comparator_testbench(i_cell, i_ref, &TerminationSizing::default());
    // Apply the global corner to every transistor in the stage.
    for name in ["t0_m1", "t0_m2", "t0_m3", "t0_m4", "t0_i1p", "t0_i1n"] {
        let id = c.find_device(name).expect("stage device exists");
        let m: &mut Mosfet = c.device_mut(id).expect("is a mosfet");
        let is_pmos = matches!(
            m.params().polarity,
            oxterm_devices::mosfet::MosPolarity::Pmos
        );
        if is_pmos {
            m.set_delta_vth(shifts.pmos_dvth);
            m.set_beta_factor(shifts.pmos_beta_factor());
        } else {
            m.set_delta_vth(shifts.nmos_dvth);
            m.set_beta_factor(shifts.nmos_beta_factor());
        }
    }
    let sol = solve_op(&c, &OpOptions::default()).expect("corner point converges");
    sol.v(stage.out)
}

/// Bisects the comparator trip current at a corner.
fn trip_point(corner: Corner, i_ref: f64) -> f64 {
    let tel = Telemetry::global();
    let mut lo = 1e-6;
    let mut hi = 80e-6;
    for _ in 0..20 {
        tel.incr("bench.ablation_corners.bisection_steps");
        let mid = 0.5 * (lo + hi);
        if out_at_corner(corner, mid, i_ref) < 1.65 {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

fn main() {
    let (_args, tel_cli) = telemetry_cli::init("ablation_corners").unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(e.code);
    });
    if tel_cli.wants_supervision() {
        eprintln!(
            "ablation_corners: --chaos, --checkpoint, --resume and --quorum are not \
             supported: this ablation solves operating points, with no Monte Carlo \
             campaign to supervise"
        );
        std::process::exit(2);
    }
    println!("== Ablation: termination trip point across process corners ==\n");
    let mut t = Table::new(&[
        "corner",
        "trip @ 6 µA",
        "err %",
        "trip @ 20 µA",
        "err %",
        "trip @ 36 µA",
        "err %",
    ]);
    let mut worst: f64 = 0.0;
    for corner in Corner::all() {
        let mut row = vec![corner.to_string()];
        for i_ref in [6e-6, 20e-6, 36e-6] {
            let trip = trip_point(corner, i_ref);
            let err = (trip / i_ref - 1.0) * 100.0;
            Telemetry::global().record("bench.ablation_corners.trip_error_pct", err.abs());
            worst = worst.max(err.abs());
            row.push(eng(trip, "A"));
            row.push(format!("{err:+.1}"));
        }
        t.row_strings(row);
    }
    println!("{}", t.render());
    println!("worst corner-induced trip error: {worst:.1} % of IrefR");
    println!("\nreading: the mirror pairs track across global corners (both devices of a");
    println!("mirror shift together), so the trip error stays a small fraction of the");
    println!("raw ±40 mV / ±8 % device shifts — provided IrefR itself is corner-stable,");
    println!("which is why the paper derives it from a bandgap reference (§3.2).");
    tel_cli.finish();
}
