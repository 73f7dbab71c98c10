//! Fig 13 — energy/cell and RESET latency box plots across the 16
//! compliance currents (500 MC runs).
//!
//! Paper anchors: max energy ≈ 150 pJ at 6 µA, average 25 pJ/cell; max
//! latency 4.01 µs at 6 µA, average 1.65 µs; SET adds ~20 pJ and its ~100 ns
//! pulse is excluded from the latency numbers.

use oxterm_bench::campaigns::{supervised_qlc_campaign, LevelCampaign};
use oxterm_bench::chart::boxplot_row;
use oxterm_bench::table::{eng, Table};
use oxterm_bench::telemetry_cli;
use oxterm_numerics::stats::{box_stats, summary};
use oxterm_telemetry::joule::JouleLedger;

fn main() {
    let (args, tel_cli) = telemetry_cli::init("fig13").unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(e.code);
    });
    // The campaign feeds one (energy, latency) observation per successful
    // program into the streaming joule ledger; the in-binary cross-check
    // below then pits those bounded-memory statistics against the batch
    // vectors this figure plots, so Fig 13 cannot silently diverge from
    // the energy artifact repro_all ships.
    JouleLedger::install(JouleLedger::enabled());
    let runs = args.first().and_then(|s| s.parse().ok()).unwrap_or(500);
    println!("== Fig 13: energy/cell and RST latency, {runs} MC runs × 16 levels ==\n");
    let (campaign, outcome) =
        supervised_qlc_campaign(runs, tel_cli.campaign()).unwrap_or_else(|e| {
            eprintln!("fig13: {e}");
            std::process::exit(2);
        });
    tel_cli.report_campaign(&outcome);

    cross_check_streaming(&campaign);

    let mut all_energy = Vec::new();
    let mut all_latency = Vec::new();
    let mut t = Table::new(&["IrefR (µA)", "E median", "E max", "lat median", "lat max"]);
    let mut e_rows = Vec::new();
    let mut l_rows = Vec::new();
    for lc in &campaign {
        let e = lc.energies();
        let l = lc.latencies();
        let be = box_stats(&e).expect("populated");
        let bl = box_stats(&l).expect("populated");
        let label = format!("{:>2.0} µA", lc.spec.i_ref * 1e6);
        e_rows.push((label.clone(), be.clone()));
        l_rows.push((label, bl.clone()));
        t.row_strings(vec![
            format!("{:.0}", lc.spec.i_ref * 1e6),
            eng(be.median, "J"),
            eng(e.iter().cloned().fold(0.0, f64::max), "J"),
            eng(bl.median, "s"),
            eng(l.iter().cloned().fold(0.0, f64::max), "s"),
        ]);
        all_energy.extend(e);
        all_latency.extend(l);
    }
    println!("{}", t.render());

    let e_hi = all_energy.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "Fig 13a: energy/cell box plots (scale 0 … {}):",
        eng(e_hi, "J")
    );
    for (label, b) in e_rows.iter().rev() {
        println!("{}", boxplot_row(label, b, 0.0, e_hi, 60));
    }
    let l_hi = all_latency.iter().cloned().fold(0.0f64, f64::max);
    println!(
        "\nFig 13b: RST latency box plots (scale 0 … {}):",
        eng(l_hi, "s")
    );
    for (label, b) in l_rows.iter().rev() {
        println!("{}", boxplot_row(label, b, 0.0, l_hi, 60));
    }

    let e_summary = summary(&all_energy).expect("populated");
    let l_summary = summary(&all_latency).expect("populated");
    // Average over the outcomes actually collected — identical to
    // `16 × runs` on a clean campaign, correct under graceful degradation.
    let total_outcomes = campaign.iter().map(|lc| lc.outcomes.len()).sum::<usize>();
    let set_energy = campaign
        .iter()
        .flat_map(|lc| lc.outcomes.iter().map(|o| o.set_energy_j))
        .sum::<f64>()
        / total_outcomes as f64;
    println!("\npaper vs measured:");
    println!(
        "  avg RST energy/cell : paper 25 pJ      measured {}",
        eng(e_summary.mean, "J")
    );
    println!(
        "  max RST energy/cell : paper ~150 pJ    measured {} (at 6 µA)",
        eng(e_hi, "J")
    );
    println!(
        "  avg RST latency     : paper 1.65 µs    measured {}",
        eng(l_summary.mean, "s")
    );
    println!(
        "  max RST latency     : paper 4.01 µs    measured {} (at 6 µA)",
        eng(l_hi, "s")
    );
    println!(
        "  avg SET energy/cell : paper ~20 pJ     measured {}",
        eng(set_energy, "J")
    );
    println!(
        "  worst-case SET+RST  : paper ~175 pJ    measured {}",
        eng(e_hi + set_energy, "J")
    );
    tel_cli.finish();
    let code = outcome.exit_code();
    if code != 0 {
        std::process::exit(code);
    }
}

/// Pits the joule ledger's streaming per-level means against the batch
/// energy/latency vectors this figure plots. Means must agree to 1e-9
/// relative — the ledger and the campaign saw the exact same outcomes, so
/// anything larger is an accumulation bug, not noise. The ledger is fed
/// every run in run order, replayed ones included, so a level it lacks or
/// counts differently fails too, also under `--resume`.
fn cross_check_streaming(campaign: &[LevelCampaign]) {
    let snap = JouleLedger::global().snapshot();
    for lc in campaign {
        let level = snap.levels.iter().find(|l| l.code == lc.spec.code);
        let Some(level) = level.filter(|l| l.n as usize == lc.outcomes.len()) else {
            eprintln!(
                "fig13: STREAMING CROSS-CHECK FAILED: level {:04b} has {} batch \
                 outcome(s), {} in the ledger",
                lc.spec.code,
                lc.outcomes.len(),
                level.map_or(0, |l| l.n)
            );
            std::process::exit(1);
        };
        let n = lc.outcomes.len() as f64;
        let pairs = [
            ("energy", lc.energies(), level.mean_j),
            ("latency", lc.latencies(), level.mean_latency_s),
        ];
        for (what, batch, streaming_mean) in pairs {
            let batch_mean = batch.iter().sum::<f64>() / n;
            let rel = (streaming_mean - batch_mean).abs() / batch_mean.abs().max(1e-30);
            if rel > 1e-9 {
                eprintln!(
                    "fig13: STREAMING CROSS-CHECK FAILED: level {:04b} mean {what} \
                     batch {batch_mean:.6e} vs streaming {streaming_mean:.6e}",
                    lc.spec.code
                );
                std::process::exit(1);
            }
        }
    }
    eprintln!(
        "fig13: streaming cross-check: batch and ledger statistics agree on all \
         {} levels (energy and latency means within 1e-9)",
        campaign.len()
    );
}
