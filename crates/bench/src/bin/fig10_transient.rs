//! Fig 10 — transient of a write-terminated RESET at IrefR = 10 µA on the
//! full circuit (1T-1R + 1 KByte-array bit-line parasitics + behavioral
//! termination), against the 3.5 µs standard pulse.
//!
//! Paper anchors: termination at 2.6 µs, final HRS 152 kΩ; the standard
//! pulse would drive the cell to ≈382 MΩ.

use oxterm_bench::chart::{xy_chart, Scale};
use oxterm_bench::table::{eng, Table};
use oxterm_bench::telemetry_cli;
use oxterm_mlc::program::{program_cell_circuit, CircuitProgramOptions};

fn main() {
    let (_args, tel_cli) = telemetry_cli::init("fig10").unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(e.code);
    });
    println!("== Fig 10: terminated RESET transient, IrefR = 10 µA ==\n");
    let opts = CircuitProgramOptions::paper_fig10();
    let term = program_cell_circuit(&opts, Some(10e-6)).expect("transient converges");

    // Waveform table at representative times.
    let t_end = term.i_cell.t().last().copied().unwrap_or(0.0);
    let mut t = Table::new(&["t", "V_SL", "I_cell", "rho", "R(0.3 V)"]);
    let params = opts.cell.oxram;
    let inst = oxterm_rram::params::InstanceVariation::nominal();
    let mut probe = 0.0;
    while probe <= t_end + 1e-12 {
        let rho = term.rho.value_at(probe);
        let r = oxterm_rram::model::read_resistance(&params, &inst, rho, 0.3);
        t.row_strings(vec![
            eng(probe, "s"),
            format!("{:.2} V", term.v_sl.value_at(probe)),
            eng(term.i_cell.value_at(probe).abs(), "A"),
            format!("{rho:.3}"),
            eng(r, "Ω"),
        ]);
        probe += t_end / 12.0;
    }
    println!("{}", t.render());

    let i_pts: Vec<(f64, f64)> = term
        .i_cell
        .iter()
        .map(|(t, i)| (t * 1e6, i.abs().max(1e-9)))
        .collect();
    let v_pts: Vec<(f64, f64)> = term
        .v_sl
        .iter()
        .map(|(t, v)| (t * 1e6, v.max(1e-3)))
        .collect();
    println!(
        "{}",
        xy_chart(
            "I_cell (A, log) and V_SL (V, log) vs time (µs)",
            &[("I_cell", &i_pts), ("V_SL", &v_pts)],
            64,
            16,
            Scale::Linear,
            Scale::Log,
        )
    );

    println!("== baseline: standard (non-terminated) worst-case pulse ==");
    // Full-rail drive: our compact model's RESET acceleration is milder
    // than the silicon device's, so the deep-HRS baseline needs the rail
    // (documented in EXPERIMENTS.md).
    let std_opts = CircuitProgramOptions {
        v_sl: 3.0,
        v_wl: 3.3,
        pulse_width: 3.5e-6,
        ..opts
    };
    let std_pulse = program_cell_circuit(&std_opts, None).expect("transient converges");

    println!("\npaper vs measured:");
    let mut t = Table::new(&["metric", "paper", "measured"]);
    t.row_strings(vec![
        "termination latency".into(),
        "2.6 µs".into(),
        term.latency_s
            .map_or("did not fire".into(), |l| eng(l, "s")),
    ]);
    t.row_strings(vec![
        "final HRS (terminated)".into(),
        "152 kΩ".into(),
        eng(term.r_read_ohms, "Ω"),
    ]);
    t.row_strings(vec![
        "final HRS (standard pulse)".into(),
        "~382 MΩ".into(),
        eng(std_pulse.r_read_ohms, "Ω"),
    ]);
    t.row_strings(vec![
        "standard pulse width".into(),
        "3.5 µs".into(),
        "3.5 µs".into(),
    ]);
    t.row_strings(vec![
        "RST energy (terminated)".into(),
        "—".into(),
        eng(term.energy_j, "J"),
    ]);
    t.row_strings(vec![
        "RST energy (standard)".into(),
        "—".into(),
        eng(std_pulse.energy_j, "J"),
    ]);
    println!("{}", t.render());
    println!("shape check: the terminated pulse stops ~µs in, pinning R near the target;");
    println!("the standard pulse runs its full width and blows far past every MLC level.");
    tel_cli.finish();
}
