//! Post-mortem artifact pipeline, end to end: a forced transient
//! non-convergence under the campaign supervisor must leave a JSON bundle
//! naming the worst-residual unknown, carrying the residual history and a
//! replay seed that reproduces the failure in isolation.
//!
//! The file contains exactly one test: the capture switch and artifacts
//! directory are process-global, so concurrent tests in one binary would
//! race on them.

use oxterm_mc::supervisor::{per_attempt, run_supervised, CampaignOutcome, SupervisorOptions};
use oxterm_mc::MonteCarlo;
use oxterm_mlc::program::{build_program_circuit, program_tran_options, CircuitProgramOptions};
use oxterm_spice::analysis::tran::{run_transient, TranOptions};
use oxterm_spice::probe::ProbePlan;
use rand::Rng;

/// The engineered failure: the Fig 10 programming circuit with a strangled
/// Newton budget and a raised timestep floor, so the RESET onset kills the
/// run with `TimestepTooSmall`. `jitter` shifts the SL drive so different
/// seeds produce observably different failures.
fn doomed_run(jitter: f64, probes: &ProbePlan) -> Result<(), String> {
    let opts = CircuitProgramOptions {
        v_sl: 1.35 + jitter,
        ..CircuitProgramOptions::paper_fig10()
    };
    let (mut c, _) = build_program_circuit(&opts).map_err(|e| e.to_string())?;
    let mut tran: TranOptions = program_tran_options(&opts).with_probes(probes.clone());
    tran.sim.max_newton_iters = 2;
    tran.dt_min = 2e-9;
    match run_transient(&mut c, &tran, &mut []) {
        Ok(_) => Ok(()),
        Err(e) => Err(e.to_string()),
    }
}

#[test]
fn failed_mc_run_leaves_a_replayable_artifact() {
    // Artifacts must stay inside the repo: target/ is the build scratch
    // area, and the directory is keyed to this test to survive reruns.
    let dir = "target/test_artifacts/postmortem_it";
    let _ = std::fs::remove_dir_all(dir);
    oxterm_telemetry::postmortem::set_artifacts_dir(dir);

    let probes = ProbePlan::parse("v(sl),i(vsense)").expect("spec parses");
    let mc = MonteCarlo::new(2, 0xB0B).with_threads(1);
    // One attempt per run: the replay seed is then the failing attempt's.
    let opts = SupervisorOptions {
        max_attempts: 1,
        ..SupervisorOptions::default()
    };
    let out: CampaignOutcome<f64> = run_supervised(
        mc,
        &opts,
        per_attempt(|_attempt, rng| {
            let jitter = (rng.random::<f64>() - 0.5) * 0.1;
            doomed_run(jitter, &probes).map(|()| 0.0)
        }),
    )
    .expect("supervision runs");
    let errors: Vec<_> = out
        .results
        .iter()
        .filter_map(|r| r.as_ref().err())
        .collect();
    assert_eq!(
        errors.len(),
        2,
        "both runs must fail as engineered: {:?}",
        out.results
    );

    // One artifact per failed run, enriched with run index and seed.
    let mut artifacts: Vec<_> = std::fs::read_dir(dir)
        .expect("artifacts directory exists")
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    artifacts.sort();
    assert_eq!(artifacts.len(), 2, "one bundle per failed run");

    let json = std::fs::read_to_string(&artifacts[0]).expect("readable");
    assert!(json.contains(r#""artifact":"oxterm-postmortem""#), "{json}");
    assert!(json.contains(r#""kind":"tran""#), "{json}");
    // Convergence diagnostics: a residual history and named worst
    // unknowns referencing real circuit nodes/devices.
    assert!(json.contains(r#""residual_history":["#), "{json}");
    assert!(!json.contains(r#""residual_history":[]"#), "{json}");
    let worst_start = json.find(r#""worst_unknowns""#).expect("present");
    let worst = &json[worst_start..worst_start + 200];
    assert!(
        worst.contains(r#""name":"v("#) || worst.contains(r#""name":"i("#),
        "worst unknown not named: {worst}"
    );
    // Probe tails from the active probes.
    assert!(json.contains(r#""label":"v(sl)""#), "{json}");
    // Replay seed of run 0.
    let seed = mc.seed_for_run(0);
    assert!(
        json.contains(&format!(r#""seed_hex":"{seed:#018x}""#)),
        "{json}"
    );
    assert!(json.contains(r#""run_index":0"#), "{json}");

    // The seed replays the failure in isolation: rebuilding the run's RNG
    // outside the engine reproduces the identical error.
    let mut rng = mc.rng_for_run(0);
    let jitter = (rng.random::<f64>() - 0.5) * 0.1;
    let replayed = doomed_run(jitter, &probes).expect_err("replay fails identically");
    assert_eq!(
        replayed, errors[0].error,
        "replay diverged from the campaign run"
    );
    // And the error string is the one the artifact recorded.
    assert!(
        json.contains(&replayed.replace('"', "\\\"")),
        "artifact error does not match replay: {replayed} vs {json}"
    );

    oxterm_telemetry::postmortem::set_capture(false);
}
