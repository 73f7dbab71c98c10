//! Resilient campaign supervision: retry ladder, panic isolation,
//! checkpoint/resume and graceful degradation.
//!
//! [`run_supervised`] wraps a [`MonteCarlo`] campaign so that individual
//! run failures — convergence collapses, chaos-injected faults, outright
//! worker panics — cost one run's worth of work at most, never the
//! campaign:
//!
//! * **Retry ladder.** A failed attempt is retried with a re-derived RNG
//!   stream; from the second retry on, the [`Attempt`] handed to the run
//!   closure carries a [`Relax`] escalation (abstol/gmin/dt_min factors,
//!   mirroring the operating-point escalation vocabulary) that the closure
//!   applies to its `SimOptions`. Factors grow ×10 per rung and are
//!   clamped to [`RelaxLimits`], so options never leave their configured
//!   bounds (property-tested).
//! * **Panic isolation.** Every attempt runs under `catch_unwind`; the
//!   payload becomes the attempt's error string.
//! * **One failure record per exhausted run.** Each run that exhausts its
//!   ladder counts once in `mc.engine.convergence_failures` and leaves one
//!   `mc.engine.failed_run` note quoting its run index and
//!   [`MonteCarlo::seed_for_run`] seed, so it replays in isolation.
//! * **One bundle per exhausted run.** Post-mortem artifact writes are
//!   deferred during retryable attempts (`postmortem::set_deferred`);
//!   intermediate failures fold into `mc.supervisor.retried` telemetry
//!   notes and only the final attempt of an exhausted run writes an
//!   artifact, stamped with `attempt`/`max_attempts`/run/seed.
//! * **Budgets as deadlines.** `run_budget_s` bounds one run's *total*
//!   wall-clock across its attempts; the ladder stops escalating when the
//!   budget is spent. (Deadlines read the sanctioned telemetry clock —
//!   `Instant::now` is lint-banned in this crate like the solver crates.)
//! * **Checkpoint/resume.** Completed runs stream into a
//!   [`Checkpoint`](crate::checkpoint::Checkpoint) every
//!   `checkpoint_every` completions (atomic tmp+rename); a campaign without
//!   `checkpoint_path` keeps no per-run records. `resume_from` replays
//!   completed runs out of the file — bit-identically, results are stored
//!   as f64 bit patterns — and only computes the remainder.
//! * **Graceful degradation.** The campaign finishes useful as long as the
//!   failure fraction stays within `quorum`; [`CampaignOutcome::exit_code`]
//!   distinguishes clean (0), degraded (3) and quorum-breached (1).

use oxterm_telemetry::postmortem::{self, PostmortemReport};
use oxterm_telemetry::profiler::monotonic_ns;
use oxterm_telemetry::Telemetry;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::checkpoint::{Checkpoint, CheckpointHeader, CheckpointState, RunRecord};
use crate::engine::{splitmix64, MonteCarlo};

/// Renders a `catch_unwind` payload as a string (panics carry `&str` or
/// `String` in practice; anything else gets a placeholder).
fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// Upper bounds on the retry ladder's option relaxation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RelaxLimits {
    /// Max multiplier ever applied to `abstol` (and `vntol`).
    pub abstol_max_factor: f64,
    /// Max multiplier ever applied to `gmin`.
    pub gmin_max_factor: f64,
    /// Max multiplier ever applied to `dt_min`.
    pub dt_min_max_factor: f64,
}

impl Default for RelaxLimits {
    fn default() -> Self {
        RelaxLimits {
            abstol_max_factor: 1e3,
            gmin_max_factor: 1e3,
            dt_min_max_factor: 1e2,
        }
    }
}

/// One rung of the retry ladder: multiplicative `SimOptions` relaxation.
///
/// The run closure applies these factors itself (the supervisor is generic
/// over what a "run" is); [`Relax::NONE`] means run with pristine options.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Relax {
    /// Multiplier for `abstol`/`vntol`.
    pub abstol_factor: f64,
    /// Multiplier for `gmin`.
    pub gmin_factor: f64,
    /// Multiplier for `dt_min`.
    pub dt_min_factor: f64,
}

impl Relax {
    /// No relaxation (attempts 0 and 1).
    pub const NONE: Relax = Relax {
        abstol_factor: 1.0,
        gmin_factor: 1.0,
        dt_min_factor: 1.0,
    };

    /// The ladder rung for `attempt` (0-based): attempts 0 and 1 run
    /// pristine (the first retry only re-derives the RNG stream), then
    /// factors grow ×10 per attempt, clamped to `limits`.
    pub fn for_attempt(attempt: u64, limits: &RelaxLimits) -> Relax {
        if attempt < 2 {
            return Relax::NONE;
        }
        let rung = 10f64.powi((attempt - 1).min(300) as i32);
        Relax {
            abstol_factor: rung.min(limits.abstol_max_factor).max(1.0),
            gmin_factor: rung.min(limits.gmin_max_factor).max(1.0),
            dt_min_factor: rung.min(limits.dt_min_max_factor).max(1.0),
        }
    }

    /// Whether this rung changes anything.
    pub fn is_none(&self) -> bool {
        *self == Relax::NONE
    }
}

/// Retry-ladder shape.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per run (1 = no retries).
    pub max_attempts: u64,
    /// Relaxation clamps.
    pub limits: RelaxLimits,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            limits: RelaxLimits::default(),
        }
    }
}

/// Supervision knobs (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorOptions {
    /// Retry ladder.
    pub retry: RetryPolicy,
    /// Max tolerated failure fraction for a degraded-but-useful finish.
    pub quorum: f64,
    /// Where to stream checkpoints (`None` = no checkpointing).
    pub checkpoint_path: Option<String>,
    /// Checkpoint after every N completed runs (and once at the end).
    pub checkpoint_every: usize,
    /// Resume completed runs from this checkpoint file.
    pub resume_from: Option<String>,
    /// Wall-clock budget for one run across all its attempts (seconds).
    pub run_budget_s: Option<f64>,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            retry: RetryPolicy::default(),
            quorum: 0.05,
            checkpoint_path: None,
            checkpoint_every: 32,
            resume_from: None,
            run_budget_s: None,
        }
    }
}

/// What the run closure is told about the attempt it is executing.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Attempt {
    /// Campaign run index.
    pub run_index: u64,
    /// 0-based attempt number.
    pub attempt: u64,
    /// Ladder size this campaign runs with.
    pub max_attempts: u64,
    /// Option relaxation for this rung.
    pub relax: Relax,
}

/// A run that exhausted its retry ladder (or budget).
#[derive(Debug, Clone, PartialEq)]
pub struct RunFailure {
    /// Campaign run index.
    pub run: u64,
    /// Attempts consumed.
    pub attempts: u64,
    /// Final attempt's error.
    pub error: String,
}

/// Supervisor-level failure: campaign could not run at all (bad resume
/// checkpoint, identity mismatch). Per-run failures are *not* errors —
/// they land in [`CampaignOutcome::results`].
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorError {
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for SupervisorError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "campaign supervisor: {}", self.message)
    }
}

impl std::error::Error for SupervisorError {}

fn sup_err(message: impl Into<String>) -> SupervisorError {
    SupervisorError {
        message: message.into(),
    }
}

/// A finished supervised campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome<T> {
    /// One entry per run, in run order.
    pub results: Vec<Result<T, RunFailure>>,
    /// Max tolerated failure fraction the campaign ran with.
    pub quorum: f64,
    /// Runs that exhausted their ladder.
    pub failures: u64,
    /// Retried attempts across the campaign.
    pub retries: u64,
    /// Attempts that ended in a (caught) panic.
    pub panics: u64,
    /// Runs replayed from the resume checkpoint.
    pub resumed: u64,
}

impl<T> CampaignOutcome<T> {
    /// Failed runs as a fraction of all runs (0 for an empty campaign).
    pub fn failure_fraction(&self) -> f64 {
        if self.results.is_empty() {
            0.0
        } else {
            self.failures as f64 / self.results.len() as f64
        }
    }

    /// Some runs failed, but few enough that the campaign is still useful.
    pub fn is_degraded(&self) -> bool {
        self.failures > 0 && !self.quorum_breached()
    }

    /// Too many runs failed for the aggregates to be trusted.
    pub fn quorum_breached(&self) -> bool {
        self.failure_fraction() > self.quorum
    }

    /// Process exit code: 0 clean, 3 degraded-but-useful, 1 breached.
    pub fn exit_code(&self) -> i32 {
        if self.quorum_breached() {
            1
        } else if self.failures > 0 {
            3
        } else {
            0
        }
    }

    /// The successful results, in run order.
    pub fn ok_results(&self) -> impl Iterator<Item = &T> {
        self.results.iter().filter_map(|r| r.as_ref().ok())
    }

    /// One-line human summary (`clean`/`degraded`/`quorum breached` plus
    /// counts), for figure annotations and logs.
    pub fn summary_line(&self) -> String {
        let state = if self.quorum_breached() {
            "quorum breached"
        } else if self.failures > 0 {
            "degraded"
        } else {
            "clean"
        };
        format!(
            "{state}: {ok}/{total} runs ok, failure fraction {frac:.4} (quorum {q}), \
             {retries} retries, {panics} panics, {resumed} resumed",
            ok = self.results.len() as u64 - self.failures,
            total = self.results.len(),
            frac = self.failure_fraction(),
            q = self.quorum,
            retries = self.retries,
            panics = self.panics,
            resumed = self.resumed,
        )
    }
}

/// The RNG for `(run, attempt)`: attempt 0 is exactly
/// [`MonteCarlo::rng_for_run`] (a supervised campaign with no failures is
/// bit-identical to an unsupervised one); retries re-derive a decorrelated
/// stream from the same run seed.
fn rng_for_attempt(mc: &MonteCarlo, run: usize, attempt: u64) -> StdRng {
    if attempt == 0 {
        mc.rng_for_run(run)
    } else {
        StdRng::seed_from_u64(splitmix64(
            mc.seed_for_run(run) ^ attempt.wrapping_mul(0xD1B5_4A32_D192_ED03),
        ))
    }
}

/// Runs `mc` under supervision. The closure executes one *attempt* of one
/// run and applies `attempt.relax` to its own solver options; errors are
/// rendered to strings so the ladder (and the checkpoint format) stays
/// generic.
///
/// Returns `Err` only when supervision itself cannot proceed (unreadable
/// or mismatched resume checkpoint); per-run failures are folded into the
/// returned [`CampaignOutcome`].
pub fn run_supervised<T, F>(
    mc: MonteCarlo,
    opts: &SupervisorOptions,
    f: F,
) -> Result<CampaignOutcome<T>, SupervisorError>
where
    T: Send + Clone + CheckpointState,
    F: Fn(&Attempt, &mut StdRng) -> Result<T, String> + Sync,
{
    let max_attempts = opts.retry.max_attempts.max(1);
    let header = CheckpointHeader {
        seed: mc.seed,
        runs: mc.runs as u64,
        fault_plan_hash: oxterm_chaos::armed_plan().map(|p| p.hash()).unwrap_or(0),
    };

    // Resume: replay completed runs from the checkpoint file.
    let mut resumed: Vec<Option<RunRecord>> = Vec::new();
    let mut resumed_count = 0u64;
    if let Some(path) = &opts.resume_from {
        resumed = vec![None; mc.runs];
        // Tolerant load: a SIGKILL can tear the final checkpoint line
        // mid-append; every complete line before it is still good.
        let loaded = Checkpoint::load_tolerant(path).map_err(sup_err)?;
        if loaded.dropped_tail {
            Telemetry::global().incr("mc.supervisor.checkpoint_torn_tail");
            eprintln!("oxterm-mc: checkpoint {path} had a torn final record; dropped");
        }
        let cp = loaded.checkpoint;
        if cp.header != header {
            return Err(sup_err(format!(
                "checkpoint {path} does not match this campaign \
                 (checkpoint seed {:#x} runs {} plan {:#x}; \
                 campaign seed {:#x} runs {} plan {:#x})",
                cp.header.seed,
                cp.header.runs,
                cp.header.fault_plan_hash,
                header.seed,
                header.runs,
                header.fault_plan_hash,
            )));
        }
        for rec in cp.records {
            let i = rec.run as usize;
            if i >= mc.runs {
                return Err(sup_err(format!(
                    "checkpoint {path} names run {i} outside the campaign"
                )));
            }
            if let Ok(words) = &rec.outcome {
                if T::decode(words).is_none() {
                    return Err(sup_err(format!(
                        "checkpoint {path} run {i}: result does not decode \
                         (wrong campaign type?)"
                    )));
                }
            }
            if resumed[i].is_none() {
                resumed_count += 1;
            }
            resumed[i] = Some(rec);
        }
    }

    let tel = Telemetry::global();
    tel.incr("mc.supervisor.campaigns");
    if resumed_count > 0 {
        tel.add("mc.supervisor.resumed_runs", resumed_count);
    }

    // Shared, lock-guarded record store feeding the periodic checkpoints;
    // it stays empty unless the campaign writes checkpoints.
    let keep_records = opts.checkpoint_path.is_some();
    let records: Mutex<Vec<Option<RunRecord>>> = Mutex::new(if keep_records {
        vec![None; mc.runs]
    } else {
        Vec::new()
    });
    let completed = AtomicUsize::new(0);
    let retries = AtomicU64::new(0);
    let panics = AtomicU64::new(0);
    let every = opts.checkpoint_every.max(1);

    let checkpoint_now = |records: &Mutex<Vec<Option<RunRecord>>>| {
        let Some(path) = &opts.checkpoint_path else {
            return;
        };
        let snapshot: Vec<RunRecord> = records.lock().iter().flatten().cloned().collect();
        let mut cp = Checkpoint::new(header);
        cp.records = snapshot;
        if let Err(e) = cp.write_atomic(path) {
            eprintln!("mc: checkpoint write failed: {e}");
        }
    };
    let keep = |i: usize, record: RunRecord| {
        records.lock()[i] = Some(record);
        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
        if done.is_multiple_of(every) {
            checkpoint_now(&records);
        }
    };

    let results: Vec<Result<T, RunFailure>> = mc.run(|i, _engine_rng| {
        // Resumed runs short-circuit: decode the stored record verbatim.
        if let Some(Some(rec)) = resumed.get(i) {
            let out = match &rec.outcome {
                // Decodability was validated at load; a `None` here would
                // mean the file changed under us — degrade to a failure.
                Ok(words) => match T::decode(words) {
                    Some(v) => Ok(v),
                    None => Err(RunFailure {
                        run: i as u64,
                        attempts: rec.attempts,
                        error: "resume record no longer decodes".to_string(),
                    }),
                },
                Err(e) => Err(RunFailure {
                    run: i as u64,
                    attempts: rec.attempts,
                    error: e.clone(),
                }),
            };
            if keep_records {
                keep(i, rec.clone());
            }
            return out;
        }

        let started_ns = monotonic_ns();
        let prev_deferred = postmortem::set_deferred(true);
        if postmortem::is_active() {
            let _ = postmortem::take_last();
        }
        let mut last_err = String::new();
        let mut attempts_used = 0u64;
        let mut value: Option<T> = None;
        for attempt in 0..max_attempts {
            attempts_used = attempt + 1;
            let relax = Relax::for_attempt(attempt, &opts.retry.limits);
            let att = Attempt {
                run_index: i as u64,
                attempt,
                max_attempts,
                relax,
            };
            let mut rng = rng_for_attempt(&mc, i, attempt);
            oxterm_chaos::begin_run(i as u64, attempt);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                if oxterm_chaos::should_inject(oxterm_chaos::FaultKind::Panic) {
                    Telemetry::global().incr("chaos.injected.panic");
                    panic!("chaos: injected worker panic (run {i} attempt {attempt})");
                }
                f(&att, &mut rng)
            }));
            oxterm_chaos::end_run();
            match caught {
                Ok(Ok(v)) => {
                    value = Some(v);
                    break;
                }
                Ok(Err(e)) => last_err = e,
                Err(payload) => {
                    panics.fetch_add(1, Ordering::Relaxed);
                    tel.incr("mc.supervisor.caught_panics");
                    last_err = format!("panic: {}", panic_message(payload));
                }
            }
            // Attempt failed. Retry if the ladder and the budget allow.
            let budget_left = opts
                .run_budget_s
                .map(|b| monotonic_ns().saturating_sub(started_ns) as f64 / 1e9 < b)
                .unwrap_or(true);
            if attempt + 1 >= max_attempts || !budget_left {
                if !budget_left {
                    last_err =
                        format!("run budget exhausted after {attempts_used} attempts: {last_err}");
                }
                break;
            }
            retries.fetch_add(1, Ordering::Relaxed);
            crate::progress::note_retry();
            tel.incr("mc.supervisor.retries");
            tel.note(
                "mc.supervisor.retried",
                format!("run {i} attempt {}/{max_attempts}: {last_err}", attempt + 1),
            );
            // Fold the intermediate attempt's stashed diagnostics away so
            // only the final attempt of an exhausted run leaves a bundle.
            let _ = postmortem::take_last();
        }
        postmortem::set_deferred(prev_deferred);

        let out = match value {
            Some(v) => Ok(v),
            None => {
                let seed = mc.seed_for_run(i);
                let artifact = if postmortem::is_active() {
                    let mut report = postmortem::take_last()
                        .unwrap_or_else(|| PostmortemReport::new("mc_run", last_err.clone()));
                    report.run_index = Some(i as u64);
                    report.seed = Some(seed);
                    report.attempt = Some(attempts_used);
                    report.max_attempts = Some(max_attempts);
                    if report.error.is_empty() {
                        last_err.clone_into(&mut report.error);
                    }
                    // Deferred mode kept intermediate reports off disk, so
                    // this is the run's one and only artifact.
                    report.artifact_path = None;
                    postmortem::write_report(&mut report)
                } else {
                    None
                };
                crate::progress::note_failure(seed, artifact);
                Err(RunFailure {
                    run: i as u64,
                    attempts: attempts_used,
                    error: last_err,
                })
            }
        };

        if keep_records {
            let outcome = match &out {
                Ok(v) => Ok(v.encode()),
                Err(fail) => Err(fail.error.clone()),
            };
            keep(
                i,
                RunRecord {
                    run: i as u64,
                    attempts: attempts_used,
                    outcome,
                },
            );
        }
        out
    });

    checkpoint_now(&records);

    let failures = results.iter().filter(|r| r.is_err()).count() as u64;
    if tel.is_enabled() {
        for fail in results.iter().filter_map(|r| r.as_ref().err()) {
            let i = fail.run as usize;
            tel.incr("mc.engine.convergence_failures");
            tel.note(
                "mc.engine.failed_run",
                format!("run {i} seed {:#018x}: {}", mc.seed_for_run(i), fail.error),
            );
        }
    }
    let outcome = CampaignOutcome {
        results,
        quorum: opts.quorum,
        failures,
        retries: retries.load(Ordering::Relaxed),
        panics: panics.load(Ordering::Relaxed),
        resumed: resumed_count,
    };
    if outcome.quorum_breached() {
        tel.incr("mc.campaign.quorum_breached");
    } else if outcome.is_degraded() {
        tel.incr("mc.campaign.degraded");
    }
    if tel.is_enabled() {
        tel.note("mc.supervisor.summary", outcome.summary_line());
    }
    Ok(outcome)
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex as PlMutex;
    use std::collections::HashMap;

    /// Serialises tests that arm the process-global chaos plan or touch
    /// the postmortem thread-local machinery.
    static TEST_LOCK: PlMutex<()> = PlMutex::new(());

    fn mc(runs: usize, seed: u64) -> MonteCarlo {
        MonteCarlo::new(runs, seed).with_threads(4)
    }

    #[test]
    fn clean_campaign_matches_unsupervised_run() {
        let campaign = mc(64, 0xFEED);
        let plain: Vec<f64> = campaign.run(|_, rng| {
            use rand::Rng;
            rng.random::<f64>()
        });
        let supervised = run_supervised(campaign, &SupervisorOptions::default(), |_, rng| {
            use rand::Rng;
            Ok(rng.random::<f64>())
        })
        .expect("supervision runs");
        assert_eq!(supervised.failures, 0);
        assert_eq!(supervised.exit_code(), 0);
        let got: Vec<f64> = supervised.ok_results().copied().collect();
        assert_eq!(plain, got);
    }

    #[test]
    fn retry_ladder_recovers_transient_failures() {
        // Every run fails its first two attempts, succeeds on the third
        // (which carries a relaxation rung).
        let out = run_supervised(mc(16, 1), &SupervisorOptions::default(), |att, _| {
            if att.attempt < 2 {
                Err(format!("transient failure at attempt {}", att.attempt))
            } else {
                assert!(!att.relax.is_none(), "third attempt should be relaxed");
                Ok(att.relax.abstol_factor)
            }
        })
        .expect("supervision runs");
        assert_eq!(out.failures, 0);
        assert_eq!(out.retries, 32, "two retries per run");
        assert_eq!(out.exit_code(), 0);
    }

    #[test]
    fn exhausted_runs_become_failures_with_attempt_counts() {
        let out: CampaignOutcome<f64> =
            run_supervised(mc(10, 2), &SupervisorOptions::default(), |att, _| {
                if att.run_index % 2 == 0 {
                    Err("persistent fault".to_string())
                } else {
                    Ok(1.0)
                }
            })
            .expect("supervision runs");
        assert_eq!(out.failures, 5);
        assert!(out.quorum_breached(), "50% failures breach the 5% quorum");
        assert_eq!(out.exit_code(), 1);
        for (i, r) in out.results.iter().enumerate() {
            if i % 2 == 0 {
                let fail = r.as_ref().unwrap_err();
                assert_eq!(fail.attempts, 3);
                assert_eq!(fail.error, "persistent fault");
            } else {
                assert!(r.is_ok());
            }
        }
    }

    #[test]
    fn panicking_attempts_are_isolated_and_retried() {
        let out = run_supervised(mc(8, 3), &SupervisorOptions::default(), |att, _| {
            if att.run_index == 5 && att.attempt == 0 {
                panic!("kaboom in run 5");
            }
            Ok(att.attempt as f64)
        })
        .expect("supervision runs");
        assert_eq!(out.failures, 0);
        assert_eq!(out.panics, 1);
        assert_eq!(out.retries, 1);
        let vals: Vec<f64> = out.ok_results().copied().collect();
        assert_eq!(vals[5], 1.0, "run 5 succeeded on its second attempt");
    }

    #[test]
    fn degraded_exit_code_under_quorum() {
        let opts = SupervisorOptions {
            quorum: 0.2,
            ..SupervisorOptions::default()
        };
        let out: CampaignOutcome<f64> = run_supervised(mc(20, 4), &opts, |att, _| {
            if att.run_index == 0 {
                Err("one bad run".into())
            } else {
                Ok(0.0)
            }
        })
        .expect("supervision runs");
        assert_eq!(out.failures, 1);
        assert!(out.is_degraded());
        assert!(!out.quorum_breached());
        assert_eq!(out.exit_code(), 3);
        assert!((out.failure_fraction() - 0.05).abs() < 1e-12);
        assert!(
            out.summary_line().starts_with("degraded"),
            "{}",
            out.summary_line()
        );
    }

    #[test]
    fn relax_ladder_is_clamped_and_monotone() {
        let limits = RelaxLimits::default();
        assert!(Relax::for_attempt(0, &limits).is_none());
        assert!(Relax::for_attempt(1, &limits).is_none());
        let r2 = Relax::for_attempt(2, &limits);
        assert_eq!(r2.abstol_factor, 10.0);
        let mut prev = Relax::NONE;
        for attempt in 0..50 {
            let r = Relax::for_attempt(attempt, &limits);
            assert!(r.abstol_factor >= prev.abstol_factor);
            assert!(r.abstol_factor <= limits.abstol_max_factor);
            assert!(r.gmin_factor <= limits.gmin_max_factor);
            assert!(r.dt_min_factor <= limits.dt_min_max_factor);
            assert!(r.abstol_factor >= 1.0 && r.gmin_factor >= 1.0 && r.dt_min_factor >= 1.0);
            prev = r;
        }
    }

    #[test]
    fn retry_rungs_reseed_deterministically_but_differently() {
        let campaign = mc(4, 9);
        use rand::Rng;
        let a: u64 = rng_for_attempt(&campaign, 2, 0).random();
        let a2: u64 = rng_for_attempt(&campaign, 2, 0).random();
        let b: u64 = rng_for_attempt(&campaign, 2, 1).random();
        let c: u64 = rng_for_attempt(&campaign, 2, 2).random();
        assert_eq!(a, a2);
        assert_ne!(a, b);
        assert_ne!(b, c);
        // Attempt 0 is the engine stream.
        let mut engine = campaign.rng_for_run(2);
        assert_eq!(a, engine.random::<u64>());
    }

    #[test]
    fn checkpoint_resume_reproduces_aggregates_bit_identically() {
        let _guard = TEST_LOCK.lock();
        let dir = std::env::temp_dir().join(format!("oxterm_sup_resume_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ckpt.jsonl").to_string_lossy().to_string();
        let campaign = mc(40, 0xABCD);
        let body = |att: &Attempt, rng: &mut StdRng| -> Result<f64, String> {
            use rand::Rng;
            if att.run_index == 7 {
                Err("run 7 always fails".into())
            } else {
                Ok(rng.random::<f64>().ln_1p())
            }
        };
        let quorumed = SupervisorOptions {
            quorum: 0.5,
            ..SupervisorOptions::default()
        };
        // Uninterrupted reference.
        let reference = run_supervised(campaign, &quorumed, body).expect("reference runs");

        // Partial campaign: only the first 17 runs execute (the closure
        // refuses the rest), checkpointing every 4 completions.
        let partial_opts = SupervisorOptions {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 4,
            quorum: 1.0,
            ..SupervisorOptions::default()
        };
        let _partial = run_supervised(campaign, &partial_opts, |att, rng| {
            if att.run_index >= 17 {
                return Err("simulated kill".to_string());
            }
            body(att, rng)
        })
        .expect("partial runs");
        let cp = Checkpoint::load(&path).expect("checkpoint exists");
        assert!(!cp.records.is_empty());

        // The checkpoint recorded the fake "simulated kill" failures too;
        // strip them so the resume only replays genuinely-completed runs,
        // as a killed process would have left them.
        let mut cp = cp;
        cp.records.retain(|r| r.outcome.is_ok() || r.run == 7);
        cp.write_atomic(&path).expect("rewrite");

        let resumed_opts = SupervisorOptions {
            resume_from: Some(path.clone()),
            quorum: 0.5,
            ..SupervisorOptions::default()
        };
        let resumed = run_supervised(campaign, &resumed_opts, body).expect("resume runs");
        assert!(resumed.resumed > 0);
        // Bit-identical aggregate: compare total bit patterns run by run.
        assert_eq!(reference.results.len(), resumed.results.len());
        for (a, b) in reference.results.iter().zip(resumed.results.iter()) {
            match (a, b) {
                (Ok(x), Ok(y)) => assert_eq!(x.to_bits(), y.to_bits()),
                (Err(x), Err(y)) => assert_eq!(x.error, y.error),
                other => panic!("outcome shape diverged: {other:?}"),
            }
        }
        assert_eq!(reference.failures, resumed.failures);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_rejects_mismatched_campaign() {
        let _guard = TEST_LOCK.lock();
        let dir = std::env::temp_dir().join(format!("oxterm_sup_mismatch_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ckpt.jsonl").to_string_lossy().to_string();
        let opts = SupervisorOptions {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 1,
            ..SupervisorOptions::default()
        };
        run_supervised(mc(4, 111), &opts, |_, _| Ok(1.0f64)).expect("first campaign");
        let resume = SupervisorOptions {
            resume_from: Some(path.clone()),
            ..SupervisorOptions::default()
        };
        // Different seed => identity mismatch.
        let err = run_supervised(mc(4, 222), &resume, |_, _| Ok(1.0f64))
            .expect_err("mismatch must be rejected");
        assert!(err.message.contains("does not match"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn panic_payload_rendering() {
        // An owned `String` payload (`panic!` with format arguments, or
        // `panic_any`) renders verbatim into the run's error.
        let out: CampaignOutcome<f64> =
            run_supervised(mc(1, 0), &SupervisorOptions::default(), |_, _| {
                std::panic::panic_any(String::from("owned payload"))
            })
            .expect("supervision runs");
        assert_eq!(out.panics, 3, "every rung panicked");
        let fail = out.results[0].as_ref().unwrap_err();
        assert_eq!(fail.error, "panic: owned payload");
    }

    #[test]
    fn run_budget_stops_the_ladder() {
        let opts = SupervisorOptions {
            run_budget_s: Some(0.0),
            ..SupervisorOptions::default()
        };
        let attempts_seen: PlMutex<HashMap<u64, u64>> = PlMutex::new(HashMap::new());
        let out: CampaignOutcome<f64> = run_supervised(mc(6, 5), &opts, |att, _| {
            *attempts_seen.lock().entry(att.run_index).or_insert(0) += 1;
            Err("always fails".to_string())
        })
        .expect("supervision runs");
        assert_eq!(out.failures, 6);
        for (_, n) in attempts_seen.lock().iter() {
            assert_eq!(*n, 1, "zero budget must forbid retries");
        }
        let fail = out.results[0].as_ref().unwrap_err();
        assert!(fail.error.contains("budget exhausted"), "{}", fail.error);
    }
}
