//! Shared Monte Carlo campaigns reused by several experiment binaries.
//!
//! Figs 11, 12 and 13 and Table 3 all consume the same campaign: for every
//! level of an allocation, `runs` Monte Carlo programs with full
//! variability. Running it once and slicing it three ways matches how the
//! paper derives those artifacts from one 500-run simulation set.
//!
//! Supervised and unsupervised campaigns draw one sample stream: run `i`
//! of a `levels × runs` campaign programs level `i / runs` with the
//! engine's RNG for run `i`, so with retries and quorum at their defaults
//! supervision changes no sample.
//!
//! Both feed the streaming level tracker and joule ledger in run order,
//! whatever order the workers finish in, so their summaries (and the
//! results files written from them) are the same bytes on every run.

use oxterm_mc::engine::MonteCarlo;
use oxterm_mc::supervisor::{
    run_supervised, CampaignOutcome, RunFailure, SupervisorError, SupervisorOptions,
};
use oxterm_mlc::levels::{LevelAllocation, LevelSpec};
use oxterm_mlc::margins::LevelSamples;
use oxterm_mlc::program::{
    program_cell_circuit_probed, program_cell_mc, CircuitProgramOptions, McVariability,
    ProgramConditions, ProgramOutcome,
};
use oxterm_mlc::MlcError;
use oxterm_rram::params::OxramParams;
use oxterm_spice::probe::{ProbeCapture, ProbePlan};
use oxterm_telemetry::joule::JouleLedger;
use oxterm_telemetry::levels::LevelTracker;
use rand::rngs::StdRng;
use std::sync::{Mutex, PoisonError};

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

/// The per-run body of every QLC campaign: run `i` programs level
/// `i / runs` of `alloc`.
fn program_run<'a>(
    params: &'a OxramParams,
    alloc: &'a LevelAllocation,
    runs: usize,
) -> impl Fn(usize, &mut StdRng) -> Result<ProgramOutcome, MlcError> + Sync + 'a {
    let cond = ProgramConditions::paper();
    let var = McVariability::default();
    move |i, rng| {
        let spec = &alloc.levels()[i / runs];
        program_cell_mc(params, alloc, spec.code, &cond, &var, rng)
    }
}

/// Feeds a campaign's successful runs to the streaming level tracker and
/// joule ledger in run order, which is where the progress line and the
/// level and energy reports get their distributions from.
///
/// Workers finish runs in any order; run `i` is fed once every earlier run
/// has finished, so the observers' sketches and moments see one sequence
/// and their summaries do not depend on scheduling. Progress lines stay
/// live: a finished run waits only for the runs still in flight before it.
/// Failed runs, including injected chaos faults, feed nothing, so a
/// retried run contributes exactly its one success.
struct RunOrder<'a> {
    alloc: &'a LevelAllocation,
    runs: usize,
    tracker: &'a LevelTracker,
    ledger: &'a JouleLedger,
    /// The first run not yet fed, and each run's outcome once it finished
    /// (`Some(None)` for a failure).
    state: Mutex<(usize, Vec<Option<Option<ProgramOutcome>>>)>,
}

impl<'a> RunOrder<'a> {
    /// `None` when both observers are off, so a bare campaign pays one
    /// branch per run.
    fn new(
        alloc: &'a LevelAllocation,
        runs: usize,
        tracker: &'a LevelTracker,
        ledger: &'a JouleLedger,
    ) -> Option<Self> {
        if !(tracker.is_enabled() || ledger.is_enabled()) {
            return None;
        }
        let total = alloc.levels().len() * runs;
        Some(RunOrder {
            alloc,
            runs,
            tracker,
            ledger,
            state: Mutex::new((0, vec![None; total])),
        })
    }

    /// Records that run `i` finished with `out` (`None`: it failed), and
    /// feeds every run the finished prefix now covers.
    fn done(&self, i: usize, out: Option<&ProgramOutcome>) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (next, finished) = &mut *state;
        finished[i] = Some(out.copied());
        while let Some(Some(out)) = finished.get(*next) {
            if let Some(out) = out {
                self.observe(*next, out);
            }
            *next += 1;
        }
    }

    /// Feeds, in order, every run not fed yet once the campaign is over:
    /// `results[i]` stands in for a run that never reported (resumed from
    /// a checkpoint, or lost to a panic or the run budget).
    fn finish(&self, results: &[Result<ProgramOutcome, RunFailure>]) {
        let mut state = self.state.lock().unwrap_or_else(PoisonError::into_inner);
        let (next, finished) = &mut *state;
        for i in *next..finished.len() {
            let out = finished[i].unwrap_or_else(|| results[i].as_ref().ok().copied());
            if let Some(out) = out {
                self.observe(i, &out);
            }
        }
        *next = finished.len();
    }

    fn observe(&self, i: usize, out: &ProgramOutcome) {
        let spec = &self.alloc.levels()[i / self.runs];
        self.tracker.observe(spec.code, spec.i_ref, out.r_read_ohms);
        self.ledger
            .observe_level(spec.code, spec.i_ref, out.energy_j, out.latency_s);
    }
}

/// Groups a flat `levels × runs` campaign's outcomes by level, keeping
/// what `keep` returns for each run.
fn by_level<R>(
    alloc: &LevelAllocation,
    runs: usize,
    results: &[R],
    keep: impl Fn(&R) -> Option<ProgramOutcome>,
) -> Vec<LevelCampaign> {
    alloc
        .levels()
        .iter()
        .enumerate()
        .map(|(k, &spec)| LevelCampaign {
            spec,
            outcomes: results[k * runs..(k + 1) * runs]
                .iter()
                .filter_map(&keep)
                .collect(),
        })
        .collect()
}

/// Runs the full campaign: `runs` Monte Carlo programs per level of
/// `alloc`, in parallel, deterministically seeded.
///
/// # Panics
///
/// Panics if any program operation fails — the allocation must sit inside
/// the calibrated model's programmable window. The engine records the
/// failed run (with its replayable seed) in telemetry first.
pub fn mc_campaign(
    params: &OxramParams,
    alloc: &LevelAllocation,
    runs: usize,
    seed: u64,
) -> Vec<LevelCampaign> {
    let mc = MonteCarlo::new(alloc.levels().len() * runs, seed);
    observed_campaign(
        mc,
        params,
        alloc,
        runs,
        LevelTracker::global(),
        JouleLedger::global(),
    )
}

/// [`mc_campaign`] on the engine `mc`, feeding `tracker` and `ledger`.
fn observed_campaign(
    mc: MonteCarlo,
    params: &OxramParams,
    alloc: &LevelAllocation,
    runs: usize,
    tracker: &LevelTracker,
    ledger: &JouleLedger,
) -> Vec<LevelCampaign> {
    let order = RunOrder::new(alloc, runs, tracker, ledger);
    let program = program_run(params, alloc, runs);
    let outcomes: Vec<ProgramOutcome> = mc
        .try_run(|i, rng| {
            let out = program(i, rng);
            if let Some(order) = &order {
                order.done(i, out.as_ref().ok());
            }
            out
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("level inside programmable window");
    by_level(alloc, runs, &outcomes, |o| Some(*o))
}

/// The standard campaign used across the figure binaries: the paper's QLC
/// allocation, 500 runs, fixed seed.
pub fn paper_qlc_campaign(runs: usize) -> Vec<LevelCampaign> {
    mc_campaign(
        &OxramParams::calibrated(),
        &LevelAllocation::paper_qlc(),
        runs,
        PAPER_QLC_SEED,
    )
}

/// Supervised variant of [`paper_qlc_campaign`], executed under
/// [`run_supervised`] so the retry ladder, panic isolation,
/// checkpoint/resume and quorum bookkeeping cover the whole figure in a
/// single ledger. It draws the same sample stream: with default options
/// and no faults it returns exactly what [`paper_qlc_campaign`] returns.
///
/// Runs whose retry ladder is exhausted simply leave a hole in their
/// level's sample set; the returned [`CampaignOutcome`] carries the
/// failure fraction and suggested process exit code.
pub fn supervised_qlc_campaign(
    runs: usize,
    opts: &SupervisorOptions,
) -> Result<(Vec<LevelCampaign>, CampaignOutcome<ProgramOutcome>), SupervisorError> {
    let params = OxramParams::calibrated();
    let alloc = LevelAllocation::paper_qlc();
    let run = program_run(&params, &alloc, runs);
    let order = RunOrder::new(&alloc, runs, LevelTracker::global(), JouleLedger::global());
    let total = alloc.levels().len() * runs;
    let outcome = run_supervised(
        MonteCarlo::new(total, PAPER_QLC_SEED),
        opts,
        |attempt, rng| {
            let i = attempt.run_index as usize;
            let out = run(i, rng);
            // A failure is final on the ladder's last rung.
            let last = attempt.attempt + 1 >= attempt.max_attempts;
            if let Some(order) = order.as_ref().filter(|_| out.is_ok() || last) {
                order.done(i, out.as_ref().ok());
            }
            out.map_err(|e| e.to_string())
        },
    )?;
    if let Some(order) = &order {
        order.finish(&outcome.results);
    }
    let campaigns = by_level(&alloc, runs, &outcome.results, |r| r.as_ref().ok().copied());
    Ok((campaigns, outcome))
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
        let plain = paper_qlc_campaign(4);
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
        let observe = || {
            let (tracker, ledger) = (LevelTracker::enabled(), JouleLedger::enabled());
            let mc = MonteCarlo::new(alloc.levels().len() * runs, 0x0DE7).with_threads(2);
            observed_campaign(mc, &params, &alloc, runs, &tracker, &ledger);
            (tracker.snapshot(), ledger.snapshot().levels)
        };
        let (levels, energy) = observe();
        assert_eq!(levels.levels.len(), 16);
        assert!(levels.levels.iter().all(|l| l.n == runs as u64));
        for _ in 0..3 {
            let again = observe();
            assert_eq!(again.0, levels);
            assert_eq!(again.1, energy);
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
