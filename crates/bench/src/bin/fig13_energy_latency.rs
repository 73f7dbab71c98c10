//! Fig 13 — energy/cell and RESET latency box plots across the 16
//! compliance currents (500 MC runs).
//!
//! Paper anchors: max energy ≈ 150 pJ at 6 µA, average 25 pJ/cell; max
//! latency 4.01 µs at 6 µA, average 1.65 µs; SET adds ~20 pJ and its ~100 ns
//! pulse is excluded from the latency numbers.

use oxterm_bench::campaigns::{probe_designated_run, supervised_qlc_campaign, LevelCampaign};
use oxterm_bench::chart::boxplot_row;
use oxterm_bench::table::{eng, Table};
use oxterm_bench::telemetry_cli;
use oxterm_numerics::stats::{box_stats, summary};
use oxterm_telemetry::joule::JouleLedger;

fn main() {
    let (args, mut tel_cli) = telemetry_cli::init("fig13").unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(e.code);
    });
    // The campaign feeds one (energy, latency) observation per successful
    // program into the streaming joule ledger; the in-binary cross-check
    // below then pits those bounded-memory statistics against the batch
    // vectors this figure plots, so Fig 13 cannot silently diverge from
    // the energy artifact repro_all ships.
    JouleLedger::install(JouleLedger::enabled());
    // The campaign itself runs on the circuit-free fast path; `--probes`
    // captures the designated run 0 — the Fig 10 testbench pulsed at the
    // level-'0000' compliance current — at circuit level instead. That is
    // the campaign's most energetic RESET, i.e. the transient Fig 13's
    // worst-case energy/latency numbers come from.
    let probe_plan = tel_cli
        .probe_plan("v(sl),v(bl_sense),i(vsense)")
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(e.code);
        });
    if let Some(plan) = &probe_plan {
        match probe_designated_run(plan) {
            Ok(capture) => {
                eprintln!(
                    "fig13: probed designated run 0 (circuit-level replay at the \
                     '0000' compliance current)"
                );
                tel_cli.record_probes(&capture);
            }
            Err(e) => {
                eprintln!("fig13: designated probe run failed: {e}");
                std::process::exit(1);
            }
        }
    }
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
/// anything larger is an accumulation bug, not noise. Levels whose
/// streaming count disagrees with the batch vector are skipped rather
/// than failed: under `--resume` the replayed runs never re-execute, so
/// the ledger legitimately sees only the fresh tail of the campaign.
fn cross_check_streaming(campaign: &[LevelCampaign]) {
    let snap = JouleLedger::global().snapshot();
    let mut checked = 0usize;
    let mut skipped = 0usize;
    for lc in campaign {
        let Some(level) = snap.levels.iter().find(|l| l.code == lc.spec.code) else {
            skipped += 1;
            continue;
        };
        if level.n as usize != lc.outcomes.len() {
            skipped += 1;
            continue;
        }
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
        checked += 1;
    }
    if skipped > 0 {
        eprintln!(
            "fig13: streaming cross-check: {checked} level(s) agree, {skipped} skipped \
             (ledger saw a partial feed — expected under --resume)"
        );
    } else {
        eprintln!(
            "fig13: streaming cross-check: batch and ledger statistics agree on all \
             {checked} levels (energy and latency means within 1e-9)"
        );
    }
}
