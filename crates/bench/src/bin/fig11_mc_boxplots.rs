//! Fig 11 — HRS resistance box plots after 500 Monte Carlo runs for the 16
//! RESET compliance currents, plus the adjacent-state margins.
//!
//! Paper anchors: margins range from 2.1 kΩ ('0000'/'0001', worst case) to
//! 69 kΩ ('1111'/'1110'); no distribution overlap.

use oxterm_bench::campaigns::{probe_designated_run, supervised_qlc_campaign};
use oxterm_bench::chart::boxplot_row;
use oxterm_bench::table::{eng, Table};
use oxterm_bench::telemetry_cli;
use oxterm_mlc::margins::{analyze, LevelSamples};
use oxterm_telemetry::LevelTracker;

fn main() {
    let (args, mut tel_cli) = telemetry_cli::init("fig11").unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(e.code);
    });
    // Always arm the streaming level tracker: the batch statistics below
    // are cross-checked against it, so the two paths can never silently
    // diverge.
    LevelTracker::install(LevelTracker::enabled());
    // The campaign itself runs on the circuit-free fast path; `--probes`
    // captures the designated run 0 — the Fig 10 testbench pulsed at the
    // level-'0000' compliance current — at circuit level instead.
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
                    "fig11: probed designated run 0 (circuit-level replay at the \
                     '0000' compliance current)"
                );
                tel_cli.record_probes(&capture);
            }
            Err(e) => {
                eprintln!("fig11: designated probe run failed: {e}");
                std::process::exit(1);
            }
        }
    }
    let runs = args.first().and_then(|s| s.parse().ok()).unwrap_or(500);
    println!("== Fig 11: HRS box plots, {runs} MC runs × 16 compliance currents ==\n");
    let (campaign, outcome) =
        supervised_qlc_campaign(runs, tel_cli.campaign()).unwrap_or_else(|e| {
            eprintln!("fig11: {e}");
            std::process::exit(2);
        });
    tel_cli.report_campaign(&outcome);
    let samples: Vec<_> = campaign.iter().map(|c| c.to_level_samples()).collect();
    let report = analyze(&samples).expect("16 populated levels");
    // Batch vs streaming agreement gate (stderr: resume replays see a
    // partial tracker feed and stdout must stay byte-stable for the
    // kill/resume smoke).
    cross_check_streaming(&samples);

    // Box-plot strip, low-R states at the bottom like the figure.
    let lo = 30e3;
    let hi = 300e3;
    println!("resistance scale: {} … {}", eng(lo, "Ω"), eng(hi, "Ω"));
    for level in report.levels.iter().rev() {
        let label = format!("{:04b} {:>2.0}µA", level.code, level.i_ref * 1e6);
        println!("{}", boxplot_row(&label, &level.box_stats, lo, hi, 64));
    }

    println!("\nper-level statistics:");
    let mut t = Table::new(&["state", "IrefR (µA)", "median", "σ", "full range"]);
    for level in &report.levels {
        t.row_strings(vec![
            format!("{:04b}", level.code),
            format!("{:.0}", level.i_ref * 1e6),
            eng(level.box_stats.median, "Ω"),
            eng(level.std_dev, "Ω"),
            format!(
                "{} … {}",
                eng(level.full_range.0, "Ω"),
                eng(level.full_range.1, "Ω")
            ),
        ]);
    }
    println!("{}", t.render());

    println!("adjacent-state margins (worst case = min(hi) − max(lo)):");
    let mut t = Table::new(&["pair", "nominal gap", "worst-case margin"]);
    for m in &report.margins {
        t.row_strings(vec![
            format!("{:04b}/{:04b}", m.lo_code, m.hi_code),
            eng(m.nominal_gap, "Ω"),
            eng(m.worst_case, "Ω"),
        ]);
    }
    println!("{}", t.render());
    println!(
        "smallest worst-case margin: {}   (paper: 2.1 kΩ between '0000' and '0001')",
        eng(report.worst_case_margin(), "Ω")
    );
    let largest = report
        .margins
        .iter()
        .map(|m| m.worst_case)
        .fold(f64::NEG_INFINITY, f64::max);
    println!(
        "largest worst-case margin:  {}   (paper: 69 kΩ between '1111' and '1110')",
        eng(largest, "Ω")
    );
    println!(
        "distribution overlap: {}   (paper: none)",
        if report.has_overlap() {
            "YES — FAILURE"
        } else {
            "none"
        }
    );

    // Statistical confidence of the "no overlap" claim: with zero observed
    // failures across all programmed cells, bound the per-cell failure
    // rate (Wilson, 95 %).
    let total_cells = campaign.iter().map(|c| c.outcomes.len()).sum::<usize>();
    let (_, hi) = oxterm_mc::convergence::wilson_interval(0, total_cells, 1.96);
    println!(
        "confidence: 0 margin violations in {total_cells} programmed cells ⇒ \
         per-cell failure rate < {:.2e} (95 %)",
        hi
    );
    tel_cli.finish();
    let code = outcome.exit_code();
    if code != 0 {
        std::process::exit(code);
    }
}

/// Asserts that the streaming level tracker agrees with the batch sample
/// vectors it was fed from: per level, identical counts and means (the
/// Welford merge is exact) and a median within the sketch's rank-error
/// bound of the exact empirical rank. Divergence is a hard failure —
/// the two statistics paths must never drift apart silently.
///
/// Levels whose tracker count differs from the batch count are skipped
/// with a note: a `--resume` replay serves completed runs from the
/// checkpoint without re-executing them, so the tracker legitimately
/// sees only the remainder.
fn cross_check_streaming(samples: &[LevelSamples]) {
    let snap = LevelTracker::global().snapshot();
    let mut checked = 0usize;
    let mut skipped = 0usize;
    for s in samples {
        let Some(level) = snap.levels.iter().find(|l| l.code == s.code) else {
            skipped += 1;
            continue;
        };
        if level.n as usize != s.r.len() {
            skipped += 1;
            continue;
        }
        let n = s.r.len();
        let batch_mean = s.r.iter().sum::<f64>() / n as f64;
        let mean_rel = (level.mean - batch_mean).abs() / batch_mean.abs().max(1e-12);
        if mean_rel > 1e-9 {
            eprintln!(
                "fig11: STREAMING CROSS-CHECK FAILED: level {:04b} mean \
                 batch {batch_mean:.6e} vs streaming {:.6e}",
                s.code, level.mean
            );
            std::process::exit(1);
        }
        // The sketch's median must land within ε (+ discretisation) of
        // the exact rank 0.5 in the batch vector.
        let mut sorted = s.r.clone();
        sorted.sort_by(f64::total_cmp);
        let rank = sorted.iter().filter(|&&x| x <= level.p50).count() as f64;
        let target = 0.5 * (n - 1) as f64 + 1.0;
        let tol_frac = level.sketch.rank_error_bound() + 2.0 / n as f64;
        let err = (rank - target).abs() / n as f64;
        if err > tol_frac {
            eprintln!(
                "fig11: STREAMING CROSS-CHECK FAILED: level {:04b} p50 {} has \
                 rank error {err:.4} (bound {tol_frac:.4})",
                s.code,
                eng(level.p50, "Ω")
            );
            std::process::exit(1);
        }
        checked += 1;
    }
    if skipped > 0 {
        eprintln!(
            "fig11: streaming cross-check: {checked} level(s) agree, {skipped} skipped \
             (tracker saw a partial feed — expected under --resume)"
        );
    } else {
        eprintln!(
            "fig11: streaming cross-check: batch and sketch statistics agree on all \
             {checked} levels (means exact, medians within rank error)"
        );
    }
}
