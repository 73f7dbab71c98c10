//! One-shot reproduction checklist: runs a reduced-size version of every
//! experiment and prints a pass/fail summary against the paper's anchors.
//!
//! ```text
//! cargo run --release -p oxterm-bench --bin repro_all [mc_runs] [--telemetry[=json]]
//! ```
//!
//! Full-size artifacts come from the individual binaries; this target
//! exists so one command demonstrates the whole reproduction end to end.
//!
//! Instrumentation is always on here (the run doubles as the perf probe):
//! a machine-readable `BENCH_telemetry.json` with the run's raw work counts,
//! its wall time and per-phase wall-time shares is written at exit. `--telemetry`
//! additionally prints the hot-path tree and the full metric table, and
//! `--telemetry=json` dumps both to `results/hotpath_repro_all.json` and
//! `results/telemetry_repro_all.json`.
//!
//! The drift gate, on top of the shared telemetry CLI:
//!
//! * `--check` — compare this run's per-level resistance and
//!   energy/latency statistics against the committed
//!   `results/baseline.json` (read before the run) and fail the run when
//!   any gated statistic moves more than ±5 % in either direction, or when
//!   the baseline cannot be read. The verdict names the worst-drifting key.
//!   The committed baseline is blessed at the default 120 runs, so other
//!   run counts drift by design. See [`oxterm_bench::baseline`].
//! * `--bless` — write this run's summary to `results/baseline.json`
//!   after the run (the blessing step after an intentional model,
//!   allocation or sampling change).
//!
//! The nested `oxterm-levels/1` artifact is always written to
//! `results/levels_repro_all.json`, and the nested `oxterm-energy/1`
//! artifact (per-level energy/latency, termination savings vs the
//! worst-case open-loop pulse, and role×phase attribution) to
//! `results/energy_repro_all.json`. The bench summary gains informational
//! `level.<code>.p50` / `levels.worst_*` and `energy.*` rollup keys.

use oxterm_array::cycling::{cycle_array, CyclingConfig};
use oxterm_bench::baseline::{self, BASELINE_PATH};
use oxterm_bench::campaigns::supervised_qlc_campaign;
use oxterm_bench::energy_report::{EnergyReport, WorstCaseBaseline};
use oxterm_bench::hotpath::matrix_stats;
use oxterm_bench::levels_report::LevelReport;
use oxterm_bench::table::{eng, Table};
use oxterm_bench::telemetry_cli;
use oxterm_mlc::margins::analyze;
use oxterm_mlc::program::{build_program_circuit, program_cell_circuit, CircuitProgramOptions};
use oxterm_mlc::projection::{project, ProjectionConfig};
use oxterm_rram::calib::{simulate_reset_references, CalibrationTarget, ResetConditions};
use oxterm_rram::params::{InstanceVariation, OxramParams};
use oxterm_telemetry::joule::JouleLedger;
use oxterm_telemetry::{LevelTracker, Profiler, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;

struct Check {
    name: &'static str,
    paper: String,
    measured: String,
    pass: bool,
}

fn main() {
    // The drift-gate flags are this binary's own; take them before the
    // shared CLI rejects every `--` flag it does not know.
    let mut args: Vec<String> = std::env::args().skip(1).collect();
    let check = take_flag(&mut args, "--check");
    let bless = take_flag(&mut args, "--bless");
    let (args, mut tel_cli) = telemetry_cli::init_from("repro_all", args.into_iter())
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(e.code);
        });
    // The checklist always runs instrumented — it doubles as the perf
    // probe behind BENCH_telemetry.json (a no-op if --telemetry already
    // installed the handles). The profiler feeds the
    // phase_share.* keys of the summary, so it is armed unconditionally
    // too.
    Telemetry::install(Telemetry::enabled());
    Profiler::install(Profiler::enabled());
    // The streaming level tracker is armed unconditionally as well: the
    // MC campaign feeds it one observation per programmed level per run,
    // and the drift gate plus the levels artifact read it back at exit.
    LevelTracker::install(LevelTracker::enabled());
    // And the joule ledger beside it: every device power integral of the
    // circuit transient, every fast-path RESET/SET energy split, and one
    // (energy, latency) observation per successful program feed it; the
    // energy artifact and the drift gate read it back at exit.
    JouleLedger::install(JouleLedger::enabled());
    // `--check` reads the committed baseline before `--bless` could
    // overwrite it.
    let committed = check.then(|| std::fs::read_to_string(BASELINE_PATH));
    let t_start = std::time::Instant::now();
    let runs: usize = args.first().and_then(|s| s.parse().ok()).unwrap_or(120);
    println!("== oxterm reproduction checklist ({runs} MC runs where applicable) ==\n");
    let params = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    let mut checks: Vec<Check> = Vec::new();

    // Table 2 anchors, read off one shared nominal RESET trajectory.
    let mut worst_err: f64 = 0.0;
    let anchors = CalibrationTarget::paper().allocation;
    let i_refs: Vec<f64> = anchors.iter().map(|&(i_ua, _)| i_ua * 1e-6).collect();
    let outs = simulate_reset_references(
        &params,
        &inst,
        &ResetConditions::paper_defaults(f64::NAN),
        &i_refs,
    );
    for (&(_, r_kohm), out) in anchors.iter().zip(outs) {
        if let Ok(out) = out {
            worst_err = worst_err.max((out.r_read_ohms / (r_kohm * 1e3) - 1.0).abs());
        }
    }
    checks.push(Check {
        name: "Table 2: 16 IrefR→RHRS anchors",
        paper: "38.17–267 kΩ".into(),
        measured: format!("worst err {:.1} %", worst_err * 100.0),
        pass: worst_err < 0.06,
    });

    // The Fig 10 testbench is the checklist's representative MNA system:
    // its structural stats price the Newton work in the hot-path report.
    if let Ok((circuit, _)) = build_program_circuit(&CircuitProgramOptions::paper_fig10()) {
        tel_cli.record_matrix_stats(matrix_stats(&circuit));
    }

    // Fig 10 anchors (circuit level).
    match program_cell_circuit(&CircuitProgramOptions::paper_fig10(), Some(10e-6)) {
        Ok(out) => {
            let lat = out.latency_s.unwrap_or(f64::NAN);
            checks.push(Check {
                name: "Fig 10: terminated RST @ 10 µA",
                paper: "152 kΩ / 2.6 µs".into(),
                measured: format!("{} / {}", eng(out.r_read_ohms, "Ω"), eng(lat, "s")),
                pass: (100e3..250e3).contains(&out.r_read_ohms) && (1.5e-6..4.5e-6).contains(&lat),
            });
        }
        Err(e) => checks.push(Check {
            name: "Fig 10: terminated RST @ 10 µA",
            paper: "152 kΩ / 2.6 µs".into(),
            measured: format!("FAILED: {e}"),
            pass: false,
        }),
    }

    // Fig 11/12: margins from a reduced campaign, run supervised: fault-hit
    // runs are retried, exhausted runs leave holes in their
    // level, and the process exit code reports degradation (3) or a quorum
    // breach (1). The health check shows under `--chaos` / `--checkpoint`
    // / `--resume` / `--quorum`.
    let (campaign, outcome) =
        supervised_qlc_campaign(runs, tel_cli.campaign()).unwrap_or_else(|e| {
            eprintln!("repro_all: {e}");
            std::process::exit(2);
        });
    eprintln!("repro_all: campaign {}", outcome.summary_line());
    if tel_cli.wants_supervision() {
        checks.push(Check {
            name: "MC campaign health (supervised)",
            paper: "n/a".into(),
            measured: format!(
                "{} of {} runs failed (quorum {:.2})",
                outcome.failures,
                outcome.results.len(),
                outcome.quorum
            ),
            pass: !outcome.quorum_breached(),
        });
    }
    let samples: Vec<_> = campaign.iter().map(|c| c.to_level_samples()).collect();
    match analyze(&samples) {
        Ok(report) => {
            checks.push(Check {
                name: "Fig 11: worst-case margin, no overlap",
                paper: "2.1 kΩ, none".into(),
                measured: format!(
                    "{}, {}",
                    eng(report.worst_case_margin(), "Ω"),
                    if report.has_overlap() {
                        "OVERLAP"
                    } else {
                        "none"
                    }
                ),
                pass: !report.has_overlap() && report.worst_case_margin() > 1e3,
            });
            let s_lo = report.levels.last().map(|l| l.std_dev).unwrap_or(0.0);
            let s_hi = report.levels.first().map(|l| l.std_dev).unwrap_or(1.0);
            checks.push(Check {
                name: "Fig 12: σ grows toward low IrefR",
                paper: "strong growth".into(),
                measured: format!("{:.1}× from 36 µA to 6 µA", s_lo / s_hi),
                pass: s_lo > 5.0 * s_hi,
            });
        }
        Err(e) => checks.push(Check {
            name: "Fig 11/12",
            paper: "margins".into(),
            measured: format!("FAILED: {e}"),
            pass: false,
        }),
    }

    // Fig 13: averages.
    let all_e: Vec<f64> = campaign.iter().flat_map(|c| c.energies()).collect();
    let all_l: Vec<f64> = campaign.iter().flat_map(|c| c.latencies()).collect();
    let avg_e = all_e.iter().sum::<f64>() / all_e.len() as f64;
    let avg_l = all_l.iter().sum::<f64>() / all_l.len() as f64;
    checks.push(Check {
        name: "Fig 13: avg RST energy / latency",
        paper: "25 pJ / 1.65 µs".into(),
        measured: format!("{} / {}", eng(avg_e, "J"), eng(avg_l, "s")),
        pass: (15e-12..60e-12).contains(&avg_e) && (0.8e-6..2.5e-6).contains(&avg_l),
    });

    // Table 3: 5-bit projection.
    match project(&params, &ProjectionConfig::paper(5, runs, 0xA13)) {
        Ok(row) => checks.push(Check {
            name: "Table 3: 5-bit min ΔR",
            paper: "1.24 kΩ".into(),
            measured: eng(row.min_nominal_margin, "Ω"),
            pass: (0.8e3..1.8e3).contains(&row.min_nominal_margin),
        }),
        Err(e) => checks.push(Check {
            name: "Table 3: 5-bit projection",
            paper: "1.24 kΩ".into(),
            measured: format!("FAILED: {e}"),
            pass: false,
        }),
    }

    // Fig 3: distribution shapes from a reduced cycling campaign.
    let mut rng = StdRng::seed_from_u64(0xA03);
    let cyc = CyclingConfig {
        n_cells: 16,
        n_cycles: 60,
        ..CyclingConfig::paper_fig3()
    };
    match cycle_array(&params, &cyc, &mut rng) {
        Ok(data) => {
            let ln_sigma = |v: &[f64]| {
                let logs: Vec<f64> = v.iter().map(|x| x.ln()).collect();
                oxterm_numerics::stats::summary(&logs)
                    .map(|s| s.std_dev)
                    .unwrap_or(0.0)
            };
            let (sh, sl) = (ln_sigma(&data.r_hrs), ln_sigma(&data.r_lrs));
            checks.push(Check {
                name: "Fig 3: HRS spread ≫ LRS spread",
                paper: "≫".into(),
                measured: format!("log-σ {:.2} vs {:.2}", sh, sl),
                pass: sh > 2.0 * sl,
            });
        }
        Err(e) => checks.push(Check {
            name: "Fig 3",
            paper: "distributions".into(),
            measured: format!("FAILED: {e}"),
            pass: false,
        }),
    }

    // Render.
    let mut t = Table::new(&["check", "paper", "measured", "status"]);
    let mut all_pass = true;
    for c in &checks {
        all_pass &= c.pass;
        t.row_strings(vec![
            c.name.to_string(),
            c.paper.clone(),
            c.measured.clone(),
            if c.pass {
                "PASS".into()
            } else {
                "FAIL".to_string()
            },
        ]);
    }
    println!("{}", t.render());
    println!(
        "overall: {}",
        if all_pass {
            "all checks PASS — reproduction intact"
        } else {
            "SOME CHECKS FAILED — see individual binaries"
        }
    );

    // Streaming per-level distribution report: the nested artifact is
    // always written; the flat form is half of the drift-gate summary.
    let level_report = match LevelReport::from_snapshot(&LevelTracker::global().snapshot()) {
        Ok(r) => Some(r),
        Err(e) => {
            eprintln!("repro_all: streaming level report unavailable: {e}");
            None
        }
    };
    if let Some(report) = &level_report {
        write_results_file("results/levels_repro_all.json", &report.to_json());
    }
    // Streaming energy/latency report: the Fig 13/14 story (per-level
    // energy, latency and termination savings vs the worst-case open-loop
    // pulse) plus the role × phase attribution of every integrated joule.
    let energy_report = WorstCaseBaseline::paper_open_loop()
        .and_then(|worst| EnergyReport::from_snapshot(&JouleLedger::global().snapshot(), worst))
        .map_err(|e| eprintln!("repro_all: streaming energy report unavailable: {e}"))
        .ok();
    if let Some(report) = &energy_report {
        println!("\n== per-level energy / latency (streaming joule ledger) ==\n");
        print!("{}", report.to_table());
        write_results_file("results/energy_repro_all.json", &report.to_json());
    }
    write_bench_summary(
        t_start.elapsed().as_secs_f64(),
        level_report.as_ref(),
        energy_report.as_ref(),
    );
    let fresh = match (&level_report, &energy_report) {
        (Some(levels), Some(energy)) => baseline::summary(levels, energy)
            .map_err(|e| eprintln!("repro_all: drift summary unavailable: {e}"))
            .ok(),
        _ => None,
    };
    let mut gate_ok = true;
    if let Some(read) = committed {
        println!("\n== drift gate vs {BASELINE_PATH} ==\n");
        let verdict = baseline::check(read, fresh.as_deref());
        gate_ok = verdict.is_ok();
        let (Ok(text) | Err(text)) = verdict;
        print!("{text}");
    }
    if bless {
        match &fresh {
            Some(fresh) => {
                write_results_file(BASELINE_PATH, fresh);
                println!("baseline blessed at {BASELINE_PATH}");
            }
            None => {
                eprintln!("repro_all: --bless: this run built no summary to bless");
                gate_ok = false;
            }
        }
    }
    tel_cli.finish();
    // Anchor/gate failures dominate; otherwise the campaign's code reports
    // graceful degradation (3) or a quorum breach (1).
    let code = if all_pass && gate_ok {
        outcome.exit_code()
    } else {
        1
    };
    std::process::exit(code);
}

/// Strips every `flag` from `args`, returning whether it was present.
fn take_flag(args: &mut Vec<String>, flag: &str) -> bool {
    let found = args.iter().any(|a| a == flag);
    args.retain(|a| a != flag);
    found
}

/// Writes one artifact under `results/`, creating the directory on
/// first use; failure is reported but never takes the checklist down.
fn write_results_file(path: &str, contents: &str) {
    if let Some(dir) = std::path::Path::new(path).parent() {
        if let Err(e) = std::fs::create_dir_all(dir) {
            eprintln!("could not create {dir:?}: {e}");
            return;
        }
    }
    match std::fs::write(path, contents) {
        Ok(()) => println!("artifact written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Writes `BENCH_telemetry.json`: the run's raw work counts (Newton
/// iterations, Monte Carlo runs, transient steps) and wall time — speed is
/// measured by the perfbench workloads, not divided out here — plus the
/// per-phase wall-time shares from the hot-path profiler
/// (`phase_share.<path>` keys), the level-distribution rollups
/// (`level.<code>.p50`, `levels.worst_*`) and the energy rollups
/// (`energy.*`), all informational (the drift gate reads the reports, not
/// this file).
fn write_bench_summary(wall_s: f64, levels: Option<&LevelReport>, energy: Option<&EnergyReport>) {
    let report = Telemetry::global().report();
    let newton_iters = report
        .histogram("spice.newton.iterations")
        .map(|h| h.sum)
        .unwrap_or(0.0);
    let mc_runs = report.counter("mc.engine.runs").unwrap_or(0);
    let mut w = oxterm_telemetry::JsonWriter::new();
    w.begin_object();
    w.string("bench", "repro_all");
    w.f64("wall_seconds", wall_s);
    w.f64("newton_iterations", newton_iters);
    w.u64("mc_runs", mc_runs);
    w.u64(
        "tran_steps_accepted",
        report.counter("spice.tran.steps_accepted").unwrap_or(0),
    );
    w.u64(
        "mc_convergence_failures",
        report
            .counter("mc.engine.convergence_failures")
            .unwrap_or(0),
    );
    // Per-phase wall-time shares: the solver phases are all closed by now
    // (only the still-open bench/run root is missing, and orchestration is
    // excluded from the share denominator anyway).
    let snapshot = Profiler::global().snapshot();
    for stats in &snapshot.phases {
        if let Some(share) = snapshot.share(stats) {
            w.f64(&format!("phase_share.{}", stats.path()), share);
        }
    }
    if let Some(coverage) = snapshot.leaf_coverage() {
        w.f64("phase_leaf_coverage", coverage);
    }
    if let Some(report) = levels {
        for l in &report.levels {
            w.f64(&format!("level.{:04b}.p50", l.code), l.p50);
        }
        if let Some(worst) = report.worst_margin() {
            w.f64("levels.worst_sigma_margin", worst.sigma_margin);
            w.f64("levels.worst_ber_cp_upper", worst.ber_cp_upper);
        }
    }
    if let Some(report) = energy {
        let (mean_e, mean_t) = report.grand_means();
        w.f64("energy.mean_reset_j", mean_e);
        w.f64("energy.mean_reset_latency_s", mean_t);
        w.f64("energy.total_dissipated_j", report.total_dissipated_j);
        w.f64("energy.attributed_frac", report.attributed_frac);
        w.f64("energy.worst_case_j", report.worst_case.energy_j);
    }
    w.end_object();
    match std::fs::write("BENCH_telemetry.json", w.finish()) {
        Ok(()) => println!("run summary written to BENCH_telemetry.json"),
        Err(e) => eprintln!("could not write BENCH_telemetry.json: {e}"),
    }
}
