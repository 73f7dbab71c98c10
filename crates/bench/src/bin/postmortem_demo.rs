//! Post-mortem artifact demonstration: drives the Fig 10 programming
//! transient into deterministic non-convergence under the campaign
//! supervisor, so every failed run lands one JSON bundle — residual history,
//! worst-residual unknowns, timestep tail, probe tails and the derived
//! replay seed — under the artifacts directory.
//!
//! ```text
//! cargo run --release -p oxterm-bench --bin postmortem_demo -- \
//!     [runs] [--artifacts-dir=PATH] [--probes[=SPEC]] [--telemetry]
//! ```
//!
//! The failure is engineered, not accidental: the Newton budget is
//! strangled (2 iterations against the cell's strongly nonlinear RESET
//! onset) and the timestep floor is raised so the engine cannot rescue the
//! step by halving — the run dies with `TimestepTooSmall` carrying the
//! final Newton attempt's diagnostics. The binary exits non-zero if any
//! run unexpectedly *converges* or an artifact is missing, making it a CI
//! gate on the whole post-mortem pipeline.

use oxterm_bench::telemetry_cli;
use oxterm_mc::supervisor::{run_supervised, CampaignOutcome, RetryPolicy, SupervisorOptions};
use oxterm_mc::MonteCarlo;
use oxterm_mlc::program::{build_program_circuit, program_tran_options, CircuitProgramOptions};
use oxterm_spice::analysis::tran::run_transient;
use oxterm_spice::probe::ProbePlan;
use rand::Rng;

fn main() {
    let (args, tel_cli) = telemetry_cli::init("postmortem_demo").unwrap_or_else(|e| {
        eprintln!("{e}");
        std::process::exit(e.code);
    });
    let runs = args.first().and_then(|s| s.parse().ok()).unwrap_or(4);
    // The demo's whole point is the artifact bundle: default the directory
    // in when no --artifacts-dir was given.
    if oxterm_telemetry::postmortem::artifacts_dir().is_none() {
        oxterm_telemetry::postmortem::set_artifacts_dir("results/artifacts_postmortem_demo");
    }
    let dir = oxterm_telemetry::postmortem::artifacts_dir().unwrap_or_default();
    println!("== post-mortem demo: {runs} engineered non-convergent runs ==");
    println!("artifacts directory: {dir}\n");

    let plan = tel_cli
        .probe_plan("v(sl),v(bl_sense),i(vsense)")
        .unwrap_or_else(|e| {
            eprintln!("{e}");
            std::process::exit(e.code);
        })
        .unwrap_or_else(|| ProbePlan::parse("v(sl),i(vsense)").expect("static spec parses"));

    let mc = MonteCarlo::new(runs, 0xDEAD).with_threads(1);
    // An engineered failure never recovers, so each run gets one attempt:
    // its bundle's seed then replays exactly the attempt that failed.
    let opts = SupervisorOptions {
        retry: RetryPolicy {
            max_attempts: 1,
            ..RetryPolicy::default()
        },
        ..SupervisorOptions::default()
    };
    // No run may succeed, so the result type is a placeholder.
    let out: CampaignOutcome<f64> = run_supervised(mc, &opts, |_attempt, rng| {
        // Small per-run drive jitter: every bundle shows a distinct failing
        // operating point, replayable from its seed alone.
        let jitter: f64 = (rng.random::<f64>() - 0.5) * 0.1;
        let opts = CircuitProgramOptions {
            v_sl: 1.35 + jitter,
            ..CircuitProgramOptions::paper_fig10()
        };
        let (mut c, _handles) = build_program_circuit(&opts).map_err(|e| e.to_string())?;
        let mut tran = program_tran_options(&opts).with_probes(plan.clone());
        // Strangle the solver: 2 Newton iterations cannot track the RESET
        // onset, and a raised dt floor forbids the usual step-halving
        // rescue. The run must die with TimestepTooSmall.
        tran.sim.max_newton_iters = 2;
        tran.dt_min = 2e-9;
        match run_transient(&mut c, &tran, &mut []) {
            Ok(_) => Err("unexpected convergence — demo invariant broken".to_string()),
            Err(e) => Err(e.to_string()),
        }
    })
    .expect("a campaign that resumes nothing always runs");

    let mut bundles = 0usize;
    let mut ok = true;
    for (i, r) in out.results.iter().enumerate() {
        let seed = mc.seed_for_run(i);
        match r {
            Err(fail) if fail.error.contains("unexpected convergence") => {
                println!("run {i} seed {seed:#018x}: {}", fail.error);
                ok = false;
            }
            Err(fail) => {
                println!(
                    "run {i} seed {seed:#018x}: failed as engineered ({})",
                    fail.error
                );
                bundles += 1;
            }
            Ok(_) => {
                println!("run {i} seed {seed:#018x}: returned Ok — demo invariant broken");
                ok = false;
            }
        }
    }

    // Every engineered failure must have left a JSON bundle on disk.
    let found = std::fs::read_dir(&dir)
        .map(|rd| {
            rd.filter_map(Result::ok)
                .filter(|e| {
                    let name = e.file_name();
                    let name = name.to_string_lossy();
                    name.starts_with("postmortem_") && name.ends_with(".json")
                })
                .count()
        })
        .unwrap_or(0);
    println!("\n{bundles} failed run(s), {found} artifact(s) under {dir}");
    if found < bundles {
        println!("MISSING ARTIFACTS — post-mortem pipeline broken");
        ok = false;
    }
    if let Ok(rd) = std::fs::read_dir(&dir) {
        for e in rd.filter_map(Result::ok) {
            let path = e.path();
            if let Ok(text) = std::fs::read_to_string(&path) {
                let has_diag = text.contains("\"worst_unknowns\"")
                    && text.contains("\"residual_history\"")
                    && text.contains("\"seed_hex\"");
                println!(
                    "  {} ({} bytes{})",
                    path.display(),
                    text.len(),
                    if has_diag { ", full diagnostics" } else { "" },
                );
            }
        }
    }
    tel_cli.finish();
    std::process::exit(if ok { 0 } else { 1 });
}
