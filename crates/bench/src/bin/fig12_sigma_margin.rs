//! Fig 12 — standard deviation and resistance margin versus the RESET
//! compliance current: both grow as IrefR falls, and the std-dev growth is
//! super-linear (the paper calls it exponential).
//!
//! The batch analysis is followed by the *streaming* level report built
//! from the bounded-memory tracker the campaign feeds — the same sigma
//! and margin story with confidence intervals.

use oxterm_bench::campaigns::supervised_qlc_campaign;
use oxterm_bench::chart::{xy_chart, Scale};
use oxterm_bench::levels_report::LevelReport;
use oxterm_bench::table::{eng, Table};
use oxterm_bench::telemetry_cli;
use oxterm_mlc::margins::analyze;
use oxterm_numerics::stats::linear_fit;
use oxterm_telemetry::LevelTracker;

fn main() {
    let (args, tel_cli) = telemetry_cli::init("fig12").unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(e.code);
    });
    // Arm the streaming tracker: the second half of the figure is built
    // entirely from it.
    LevelTracker::install(LevelTracker::enabled());
    let runs = args.first().and_then(|s| s.parse().ok()).unwrap_or(500);
    println!("== Fig 12: σ(R_HRS) and margin vs compliance current ({runs} MC runs) ==\n");
    let (campaign, outcome) =
        supervised_qlc_campaign(runs, tel_cli.campaign()).unwrap_or_else(|e| {
            eprintln!("fig12: {e}");
            std::process::exit(2);
        });
    tel_cli.report_campaign(&outcome);
    let samples: Vec<_> = campaign.iter().map(|c| c.to_level_samples()).collect();
    let report = analyze(&samples).expect("16 populated levels");

    let mut t = Table::new(&["IrefR (µA)", "σ(R)", "margin to next"]);
    let mut sigma_pts = Vec::new();
    let mut margin_pts = Vec::new();
    for (k, level) in report.levels.iter().enumerate() {
        let i_ua = level.i_ref * 1e6;
        sigma_pts.push((i_ua, level.std_dev));
        let margin = report.margins.get(k).map(|m| m.nominal_gap);
        if let Some(m) = margin {
            margin_pts.push((i_ua, m));
        }
        t.row_strings(vec![
            format!("{i_ua:.0}"),
            eng(level.std_dev, "Ω"),
            margin.map_or("—".into(), |m| eng(m, "Ω")),
        ]);
    }
    println!("{}", t.render());

    println!(
        "{}",
        xy_chart(
            "σ and margin vs IrefR (log y)",
            &[("sigma", &sigma_pts), ("margin", &margin_pts)],
            56,
            14,
            Scale::Linear,
            Scale::Log,
        )
    );

    // Shape claims: both σ and margin increase monotonically (allowing MC
    // noise) as IrefR falls; σ growth is super-linear in 1/I.
    let low_i = report.levels.last().expect("non-empty");
    let high_i = &report.levels[0];
    println!(
        "σ at 6 µA / σ at 36 µA = {:.1}×  (paper: strong growth toward low currents)",
        low_i.std_dev / high_i.std_dev
    );
    let log_pts: Vec<(f64, f64)> = sigma_pts
        .iter()
        .map(|&(i, s)| ((1.0 / i).ln(), s.ln()))
        .collect();
    let fit = linear_fit(&log_pts).expect("enough points");
    println!(
        "power-law exponent of σ vs 1/IrefR: {:.2} (> 1 ⇒ super-linear growth ✓, r² = {:.3})",
        fit.slope, fit.r2
    );
    println!("margin shape tracks σ, motivating the ISO-ΔI choice of wider gaps at low current.");

    // The same margins, regenerated from streaming state alone — with
    // BER upper bounds and the 3/4/5/6-bit feasibility verdicts.
    match LevelReport::from_snapshot(&LevelTracker::global().snapshot()) {
        Ok(streaming) => {
            println!("\n== streaming level report (histogram-derived, bounded memory) ==\n");
            print!("{}", streaming.to_table());
        }
        Err(e) => {
            eprintln!("fig12: STREAMING LEVEL REPORT UNAVAILABLE: {e}");
            std::process::exit(1);
        }
    }
    tel_cli.finish();
    let code = outcome.exit_code();
    if code != 0 {
        std::process::exit(code);
    }
}
