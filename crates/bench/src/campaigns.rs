//! Shared Monte Carlo campaigns reused by several experiment binaries.
//!
//! Figs 11, 12 and 13 and Table 3 all consume the same campaign: for every
//! level of an allocation, `runs` Monte Carlo programs with full
//! variability. Running it once and slicing it three ways matches how the
//! paper derives those artifacts from one 500-run simulation set.
//!
//! Every campaign runs under [`run_supervised`], so a failed run is
//! handled one way: retried, counted, and left as a hole in its level. Run
//! `i` of a `levels × runs` campaign programs level `i / runs` with the
//! engine's RNG for run `i`, so with no failures the supervisor options
//! change no sample.
//!
//! Campaigns feed the streaming level tracker and joule ledger in run
//! order once their workers are done, so their summaries (and the results
//! files written from them) are the same bytes on every run.

use oxterm_mc::engine::MonteCarlo;
use oxterm_mc::supervisor::{
    run_supervised, CampaignOutcome, RunFailure, SupervisorError, SupervisorOptions,
};
use oxterm_mlc::levels::{LevelAllocation, LevelSpec};
use oxterm_mlc::margins::LevelSamples;
use oxterm_mlc::program::{
    program_cell_circuit_probed, program_cells_mc, CircuitProgramOptions, McVariability,
    ProgramConditions, ProgramOutcome,
};
use oxterm_mlc::MlcError;
use oxterm_rram::params::OxramParams;
use oxterm_spice::probe::{ProbeCapture, ProbePlan};
use oxterm_telemetry::joule::JouleLedger;
use oxterm_telemetry::levels::LevelTracker;
use rand::rngs::StdRng;

/// Seed of the paper's QLC campaign, shared by the figure binaries and
/// the reproduction checklist.
pub const PAPER_QLC_SEED: u64 = 0xD47E_2021;

/// All Monte Carlo outcomes for one level.
#[derive(Debug, Clone)]
pub struct LevelCampaign {
    /// The level programmed.
    pub spec: LevelSpec,
    /// One outcome per Monte Carlo run.
    pub outcomes: Vec<ProgramOutcome>,
}

impl LevelCampaign {
    /// The sampled read resistances (Ω).
    pub fn resistances(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.r_read_ohms).collect()
    }

    /// The sampled RESET latencies (s).
    pub fn latencies(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.latency_s).collect()
    }

    /// The sampled RESET energies (J).
    pub fn energies(&self) -> Vec<f64> {
        self.outcomes.iter().map(|o| o.energy_j).collect()
    }

    /// Converts to the margin-analysis sample form.
    pub fn to_level_samples(&self) -> LevelSamples {
        LevelSamples {
            code: self.spec.code,
            i_ref: self.spec.i_ref,
            r: self.resistances(),
        }
    }
}

/// Feeds a campaign's successful runs to the streaming level tracker and
/// joule ledger, which is where the progress line and the level and energy
/// reports get their distributions from.
///
/// It runs on the calling thread once the workers are done, in run order,
/// so the observers' sketches and moments see one sequence whatever the
/// worker count, and no worker takes a lock to observe. Each observer
/// takes its lock once per campaign. Failed runs,
/// including injected chaos faults, feed nothing, so a retried run
/// contributes exactly its one success.
fn observe_in_run_order(
    alloc: &LevelAllocation,
    runs: usize,
    results: &[Result<ProgramOutcome, RunFailure>],
    tracker: &LevelTracker,
    ledger: &JouleLedger,
) {
    let ok = || {
        alloc
            .levels()
            .iter()
            .zip(results.chunks(runs.max(1)))
            .flat_map(|(spec, level)| level.iter().map(move |out| (spec, out)))
            .filter_map(|(spec, out)| Some((spec.code, spec.i_ref, out.as_ref().ok()?)))
    };
    tracker.observe_all(ok().map(|(code, i_ref, out)| (code, i_ref, out.r_read_ohms)));
    ledger
        .observe_levels(ok().map(|(code, i_ref, out)| (code, i_ref, out.energy_j, out.latency_s)));
}

/// Runs `runs` Monte Carlo programs per level of `alloc` on `mc` under
/// [`run_supervised`]: run `i` programs level `i / runs`, and each batch of
/// runs goes to [`program_cells_mc`] at once. Successful runs
/// feed `tracker` and `ledger` in run order; a failed run leaves a hole in
/// its level.
fn run_campaign(
    mc: MonteCarlo,
    params: &OxramParams,
    alloc: &LevelAllocation,
    runs: usize,
    opts: &SupervisorOptions,
    tracker: &LevelTracker,
    ledger: &JouleLedger,
) -> Result<(Vec<LevelCampaign>, CampaignOutcome<ProgramOutcome>), SupervisorError> {
    let cond = ProgramConditions::paper();
    let var = McVariability::default();
    let outcome = run_supervised(mc, opts, |attempts, rngs| {
        let mut jobs: Vec<(u16, &mut StdRng)> = attempts
            .iter()
            .zip(rngs)
            .map(|(attempt, rng)| (alloc.levels()[attempt.run_index as usize / runs].code, rng))
            .collect();
        program_cells_mc(params, alloc, &cond, &var, &mut jobs)
            .into_iter()
            .map(|out| out.map_err(|e| e.to_string()))
            .collect()
    })?;
    observe_in_run_order(alloc, runs, &outcome.results, tracker, ledger);
    let campaigns = alloc
        .levels()
        .iter()
        .enumerate()
        .map(|(k, &spec)| LevelCampaign {
            spec,
            outcomes: outcome.results[k * runs..(k + 1) * runs]
                .iter()
                .filter_map(|r| r.as_ref().ok().copied())
                .collect(),
        })
        .collect();
    Ok((campaigns, outcome))
}

/// Runs the full campaign: `runs` Monte Carlo programs per level of
/// `alloc`, in parallel, deterministically seeded.
///
/// # Panics
///
/// Panics if any program operation fails — the allocation must sit inside
/// the calibrated model's programmable window. Each run gets one attempt,
/// so every sample is its run's first draw; the supervisor records the
/// failed run (with its replayable seed) in telemetry first.
pub fn mc_campaign(
    params: &OxramParams,
    alloc: &LevelAllocation,
    runs: usize,
    seed: u64,
) -> Vec<LevelCampaign> {
    let mc = MonteCarlo::new(alloc.levels().len() * runs, seed);
    let opts = SupervisorOptions {
        max_attempts: 1,
        ..SupervisorOptions::default()
    };
    let (campaigns, outcome) = run_campaign(
        mc,
        params,
        alloc,
        runs,
        &opts,
        LevelTracker::global(),
        JouleLedger::global(),
    )
    .expect("a campaign that resumes nothing always runs");
    assert!(
        outcome.failures == 0,
        "level outside the programmable window: {}",
        outcome.summary_line()
    );
    campaigns
}

/// The standard campaign used across the figure binaries — the paper's
/// QLC allocation at [`PAPER_QLC_SEED`] — under the caller's supervisor
/// options, so retries, panic isolation, checkpoint/resume and quorum
/// bookkeeping cover the whole figure in a single ledger. It draws the
/// same sample stream as [`mc_campaign`]: with no failures it returns
/// exactly what `mc_campaign` returns for that allocation and seed.
///
/// Runs that exhaust their attempts simply leave a hole in their level's
/// sample set; the returned [`CampaignOutcome`] carries the failure
/// fraction and suggested process exit code.
pub fn supervised_qlc_campaign(
    runs: usize,
    opts: &SupervisorOptions,
) -> Result<(Vec<LevelCampaign>, CampaignOutcome<ProgramOutcome>), SupervisorError> {
    let params = OxramParams::calibrated();
    let alloc = LevelAllocation::paper_qlc();
    let mc = MonteCarlo::new(alloc.levels().len() * runs, PAPER_QLC_SEED);
    run_campaign(
        mc,
        &params,
        &alloc,
        runs,
        opts,
        LevelTracker::global(),
        JouleLedger::global(),
    )
}

/// Runs one designated circuit-level program with signal probes attached,
/// standing in for "run 0" of a fast-path Monte Carlo campaign.
///
/// The MC campaigns behind Figs 11 and 13 run on the circuit-free fast
/// path, which has no nodes or branches to probe. When `--probes` is given
/// on those binaries, this helper replays the campaign's operating point —
/// the paper's Fig 10 testbench pulsed at the allocation's lowest
/// compliance current (level `0000`, the slowest and most energetic RESET)
/// — at circuit level, so the requested waveforms describe a transient the
/// campaign actually models.
///
/// # Errors
///
/// Propagates transient-analysis failures, including probe specs naming
/// signals the Fig 10 testbench does not contain.
pub fn probe_designated_run(plan: &ProbePlan) -> Result<ProbeCapture, MlcError> {
    let alloc = LevelAllocation::paper_qlc();
    let i_ref = alloc.levels()[0].i_ref;
    let out =
        program_cell_circuit_probed(&CircuitProgramOptions::paper_fig10(), Some(i_ref), plan)?;
    Ok(out.probes)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn designated_probe_run_captures_requested_signals() {
        let plan = ProbePlan::parse("v(sl),i(vsense)").expect("valid spec");
        let capture = probe_designated_run(&plan).expect("fig10 testbench converges");
        assert_eq!(capture.traces.len(), 2);
        assert!(capture.traces.iter().any(|t| t.label == "v(sl)"));
        assert!(capture.traces.iter().all(|t| !t.samples.is_empty()));
    }

    #[test]
    fn campaign_covers_every_level() {
        let campaign = mc_campaign(
            &OxramParams::calibrated(),
            &LevelAllocation::paper_qlc(),
            5,
            1,
        );
        assert_eq!(campaign.len(), 16);
        for lc in &campaign {
            assert_eq!(lc.outcomes.len(), 5);
            assert!(lc.resistances().iter().all(|&r| r > 10e3));
        }
    }

    #[test]
    fn supervised_campaign_covers_every_level_cleanly() {
        let (campaign, outcome) =
            supervised_qlc_campaign(3, &SupervisorOptions::default()).expect("campaign runs");
        assert_eq!(campaign.len(), 16);
        assert_eq!(outcome.exit_code(), 0);
        assert_eq!(outcome.failures, 0);
        for lc in &campaign {
            assert_eq!(lc.outcomes.len(), 3);
            assert!(lc.resistances().iter().all(|&r| r > 10e3));
        }
    }

    #[test]
    fn supervised_campaign_draws_the_unsupervised_stream() {
        let (supervised, _) =
            supervised_qlc_campaign(4, &SupervisorOptions::default()).expect("campaign runs");
        let plain = mc_campaign(
            &OxramParams::calibrated(),
            &LevelAllocation::paper_qlc(),
            4,
            PAPER_QLC_SEED,
        );
        assert_eq!(supervised.len(), plain.len());
        for (s, p) in supervised.iter().zip(&plain) {
            assert_eq!(s.spec, p.spec);
            assert_eq!(s.outcomes, p.outcomes, "level {:04b}", p.spec.code);
        }
    }

    #[test]
    fn supervised_campaign_is_deterministic() {
        let a = supervised_qlc_campaign(2, &SupervisorOptions::default()).expect("campaign runs");
        let b = supervised_qlc_campaign(2, &SupervisorOptions::default()).expect("campaign runs");
        assert_eq!(a.0[7].resistances(), b.0[7].resistances());
        assert_eq!(a.0[7].energies(), b.0[7].energies());
    }

    #[test]
    fn observed_summaries_do_not_depend_on_worker_order() {
        let params = OxramParams::calibrated();
        let alloc = LevelAllocation::paper_qlc();
        let runs = 24;
        let observe = |threads: usize| {
            let (tracker, ledger) = (LevelTracker::enabled(), JouleLedger::enabled());
            let mc = MonteCarlo::new(alloc.levels().len() * runs, 0x0DE7).with_threads(threads);
            let opts = SupervisorOptions::default();
            run_campaign(mc, &params, &alloc, runs, &opts, &tracker, &ledger)
                .expect("campaign runs");
            (tracker.snapshot(), ledger.snapshot().levels)
        };
        // One worker runs on the calling thread (the serial path); two run
        // on their own threads.
        let (levels, energy) = observe(1);
        assert_eq!(levels.levels.len(), 16);
        assert!(levels.levels.iter().all(|l| l.n == runs as u64));
        for threads in [2, 2, 2, 1] {
            let again = observe(threads);
            assert_eq!(again.0, levels, "{threads} worker(s)");
            assert_eq!(again.1, energy, "{threads} worker(s)");
        }
    }

    #[test]
    fn run_order_feed_matches_one_observation_at_a_time() {
        use oxterm_telemetry::QuantileSketch;
        let params = OxramParams::calibrated();
        let alloc = LevelAllocation::paper_qlc();
        let runs = 9;
        let (tracker, ledger) = (LevelTracker::enabled(), JouleLedger::enabled());
        let (one_tracker, one_ledger) = (LevelTracker::enabled(), JouleLedger::enabled());
        // The values each level's sketches saw, fed one `insert` at a time.
        let mut inserted = vec![[(); 3].map(|()| QuantileSketch::default()); 16];
        // Two campaigns into the same observers, with a snapshot between:
        // samples waiting beside a sketch must survive both.
        for seed in [0x5EED, 0xFEED] {
            let mc = MonteCarlo::new(alloc.levels().len() * runs, seed);
            let opts = SupervisorOptions::default();
            let (campaigns, _) = run_campaign(mc, &params, &alloc, runs, &opts, &tracker, &ledger)
                .expect("campaign runs");
            for lc in &campaigns {
                let (code, i_ref) = (lc.spec.code, lc.spec.i_ref);
                for o in &lc.outcomes {
                    one_tracker.observe(code, i_ref, o.r_read_ohms);
                    one_ledger.observe_level(code, i_ref, o.energy_j, o.latency_s);
                    let sketches = &mut inserted[usize::from(code)];
                    sketches[0].insert(o.r_read_ohms);
                    sketches[1].insert(o.energy_j);
                    sketches[2].insert(o.latency_s);
                }
            }
            let levels = tracker.snapshot();
            assert_eq!(levels.levels.len(), 16);
            assert_eq!(levels, one_tracker.snapshot());
            assert_eq!(ledger.snapshot().levels, one_ledger.snapshot().levels);
            for (level, energy) in levels.levels.iter().zip(&ledger.snapshot().levels) {
                let [r, e, t] = &inserted[usize::from(level.code)];
                assert_eq!(&level.sketch, r, "level {:04b}", level.code);
                assert_eq!(energy.p50_j, e.quantile(0.5).expect("observed"));
                assert_eq!(energy.p50_latency_s, t.quantile(0.5).expect("observed"));
            }
        }
    }

    #[test]
    fn campaign_is_deterministic() {
        let a = mc_campaign(
            &OxramParams::calibrated(),
            &LevelAllocation::paper_qlc(),
            3,
            9,
        );
        let b = mc_campaign(
            &OxramParams::calibrated(),
            &LevelAllocation::paper_qlc(),
            3,
            9,
        );
        assert_eq!(a[4].resistances(), b[4].resistances());
    }
}
