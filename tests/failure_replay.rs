//! A failed Monte Carlo run replays from its seed: a forced transient
//! non-convergence under the campaign supervisor reproduces, error string
//! for error string, when its run's RNG is rebuilt outside the campaign.

use oxterm_mc::supervisor::{per_attempt, run_supervised, CampaignOutcome, SupervisorOptions};
use oxterm_mc::MonteCarlo;
use oxterm_mlc::program::{build_program_circuit, program_tran_options, CircuitProgramOptions};
use oxterm_spice::analysis::tran::{run_transient, TranOptions};
use rand::Rng;

/// The engineered failure: the Fig 10 programming circuit with a strangled
/// Newton budget and a raised timestep floor, so the RESET onset kills the
/// run with `TimestepTooSmall`. `jitter` shifts the SL drive so different
/// seeds produce observably different failures.
fn doomed_run(jitter: f64) -> Result<(), String> {
    let opts = CircuitProgramOptions {
        v_sl: 1.35 + jitter,
        ..CircuitProgramOptions::paper_fig10()
    };
    let (mut c, _) = build_program_circuit(&opts).map_err(|e| e.to_string())?;
    let mut tran: TranOptions = program_tran_options(&opts);
    tran.sim.max_newton_iters = 2;
    tran.dt_min = 2e-9;
    match run_transient(&mut c, &tran, &mut []) {
        Ok(_) => Ok(()),
        Err(e) => Err(e.to_string()),
    }
}

#[test]
fn failed_mc_run_replays_from_its_seed() {
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
            doomed_run(jitter).map(|()| 0.0)
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
    assert_eq!(out.failures, 2);

    // The seed replays the failure in isolation: rebuilding the run's RNG
    // outside the engine reproduces the identical error.
    let mut rng = mc.rng_for_run(0);
    let jitter = (rng.random::<f64>() - 0.5) * 0.1;
    let replayed = doomed_run(jitter).expect_err("replay fails identically");
    assert_eq!(
        replayed, errors[0].error,
        "replay diverged from the campaign run"
    );
}
