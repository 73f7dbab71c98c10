//! Resilient campaign supervision: retries, panic isolation,
//! checkpoint/resume and graceful degradation.
//!
//! [`run_supervised`] wraps a [`MonteCarlo`] campaign so that individual
//! run failures — convergence collapses, chaos-injected faults, outright
//! worker panics — cost one run's worth of work at most, never the
//! campaign:
//!
//! * **Batches.** The run closure takes a batch of attempts, each an
//!   [`Attempt`] naming its run and attempt number with its own RNG, so a
//!   campaign pays its per-call costs (observer scopes, card checks) once
//!   per batch of first attempts. Batching never changes a result.
//! * **Retries.** A failed attempt is retried alone, up to
//!   [`SupervisorOptions::max_attempts`] attempts per run, each with a
//!   re-derived RNG stream.
//! * **Panic isolation.** Every batch and every attempt runs under
//!   `catch_unwind`; a panicking batch is replayed one run at a time, and
//!   the payload becomes the failing attempt's error string.
//! * **One failure record per exhausted run.** Each run that exhausts its
//!   attempts counts once in `mc.engine.convergence_failures` and leaves
//!   one `mc.engine.failed_run` note quoting its run index and
//!   [`MonteCarlo::seed_for_run`] seed, so it replays in isolation;
//!   intermediate failures fold into `mc.supervisor.retried` telemetry
//!   notes.
//! * **One count per campaign.** Failures, retries and panics are counted
//!   per campaign and reported in its [`CampaignOutcome`].
//! * **Checkpoint/resume.** Completed runs stream into a [`Checkpoint`]:
//!   the file starts as the header and any resumed runs, new records are
//!   appended every `checkpoint_every` completions, and the end rewrites it
//!   whole in run order (atomic tmp+rename); a campaign without
//!   `checkpoint_path` keeps no per-run records. `resume_from` replays
//!   completed runs out of the file — bit-identically, results are stored
//!   as f64 bit patterns — and only computes the remainder.
//! * **Graceful degradation.** The campaign finishes useful as long as the
//!   failure fraction stays within `quorum`; [`CampaignOutcome::exit_code`]
//!   distinguishes clean (0), degraded (3) and quorum-breached (1).

use oxterm_telemetry::Telemetry;
use parking_lot::Mutex;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

use crate::checkpoint::{Checkpoint, CheckpointHeader, CheckpointState, RunRecord};
use crate::engine::{splitmix64, MonteCarlo, BATCH};

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

/// Supervision knobs (see module docs).
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorOptions {
    /// Total attempts per run (1 = no retries).
    pub max_attempts: u64,
    /// Max tolerated failure fraction for a degraded-but-useful finish.
    pub quorum: f64,
    /// Where to stream checkpoints (`None` = no checkpointing).
    pub checkpoint_path: Option<String>,
    /// Append the new records after every N completed runs (and write the
    /// whole file once at the end).
    pub checkpoint_every: usize,
    /// Resume completed runs from this checkpoint file.
    pub resume_from: Option<String>,
}

impl Default for SupervisorOptions {
    fn default() -> Self {
        SupervisorOptions {
            max_attempts: 3,
            quorum: 0.05,
            checkpoint_path: None,
            checkpoint_every: 32,
            resume_from: None,
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
}

/// A run that exhausted its attempts.
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
    /// Runs that exhausted their attempts.
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

/// Adapts `f`, which runs one attempt with its RNG, to the batch closure
/// [`run_supervised`] takes.
pub fn per_attempt<T, F>(
    f: F,
) -> impl Fn(&[Attempt], &mut [StdRng]) -> Vec<Result<T, String>> + Sync
where
    F: Fn(&Attempt, &mut StdRng) -> Result<T, String> + Sync,
{
    move |attempts, rngs| {
        attempts
            .iter()
            .zip(rngs)
            .map(|(a, rng)| f(a, rng))
            .collect()
    }
}

/// Runs `mc` under supervision. The closure executes a batch of
/// *attempts*, one RNG per attempt, and returns one result per attempt, in
/// order; errors are rendered to strings so the supervisor (and the
/// checkpoint format) stays generic. [`per_attempt`] adapts a closure that
/// runs one attempt.
///
/// A batch is up to [`BATCH`] consecutive first attempts of the runs a
/// worker claims. Resumed runs never enter a batch and retries run one at
/// a time. While a fault plan is armed every batch holds one run, so each
/// keeps its own chaos context. A batch that panics is replayed one run at
/// a time, so only the panicking run fails.
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
    F: Fn(&[Attempt], &mut [StdRng]) -> Vec<Result<T, String>> + Sync,
{
    let max_attempts = opts.max_attempts.max(1);
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

    // Shared, lock-guarded record store for the final checkpoint, and the
    // records not yet appended to the file; both stay empty unless the
    // campaign writes checkpoints.
    let keep_records = opts.checkpoint_path.is_some();
    let records: Mutex<Vec<Option<RunRecord>>> = Mutex::new(if keep_records {
        vec![None; mc.runs]
    } else {
        Vec::new()
    });
    let unwritten: Mutex<Vec<RunRecord>> = Mutex::new(Vec::new());
    let completed = AtomicUsize::new(0);
    let panics = AtomicU64::new(0);
    let failures = AtomicU64::new(0);
    let retries = AtomicU64::new(0);
    let every = opts.checkpoint_every.max(1);

    // The whole checkpoint: every record so far, in run order. The file
    // starts as the header and the resumed records, and ends complete.
    let checkpoint_now = |records: &Mutex<Vec<Option<RunRecord>>>| {
        let Some(path) = &opts.checkpoint_path else {
            return;
        };
        let mut cp = Checkpoint::new(header);
        cp.records = records.lock().iter().flatten().cloned().collect();
        if let Err(e) = cp.write_atomic(path) {
            eprintln!("mc: checkpoint write failed: {e}");
        }
    };
    if keep_records {
        let mut store = records.lock();
        for (slot, rec) in store.iter_mut().zip(&resumed) {
            slot.clone_from(rec);
        }
    }
    checkpoint_now(&records);
    // Held by the one append in flight, so appended lines never interleave.
    let writing = Mutex::new(());
    // A run's record, appended with the next periodic write.
    let keep = |i: usize, record: RunRecord| {
        unwritten.lock().push(record.clone());
        records.lock()[i] = Some(record);
        let done = completed.fetch_add(1, Ordering::Relaxed) + 1;
        // A worker that finds an append in flight skips its own; the next
        // periodic append, or the final write, covers its records.
        if done.is_multiple_of(every) {
            if let (Some(path), Some(_writing)) = (&opts.checkpoint_path, writing.try_lock()) {
                let new = std::mem::take(&mut *unwritten.lock());
                if let Err(e) = Checkpoint::append(path, &new) {
                    eprintln!("mc: checkpoint write failed: {e}");
                }
            }
        }
    };

    // One attempt of one run, alone: under the chaos run bracket, with an
    // armed panic fault injected before the closure.
    let attempt_one = |i: usize, attempt: u64| -> Result<T, String> {
        let att = Attempt {
            run_index: i as u64,
            attempt,
        };
        let mut rng = rng_for_attempt(&mc, i, attempt);
        oxterm_chaos::begin_run(i as u64, attempt);
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if oxterm_chaos::should_inject(oxterm_chaos::FaultKind::Panic) {
                Telemetry::global().incr("chaos.injected.panic");
                panic!("chaos: injected worker panic (run {i} attempt {attempt})");
            }
            let mut out = f(&[att], std::slice::from_mut(&mut rng));
            assert_eq!(out.len(), 1, "one result per attempt");
            out.swap_remove(0)
        }));
        oxterm_chaos::end_run();
        caught.unwrap_or_else(|payload| {
            panics.fetch_add(1, Ordering::Relaxed);
            tel.incr("mc.supervisor.caught_panics");
            Err(format!("panic: {}", panic_message(payload)))
        })
    };

    // The first attempts of `runs` as one batch; `None` for each if the
    // batch panicked, so each replays alone and only the panicking run
    // fails.
    let attempt_batch = |runs: &[usize]| -> Vec<Option<Result<T, String>>> {
        let atts: Vec<Attempt> = runs
            .iter()
            .map(|&i| Attempt {
                run_index: i as u64,
                attempt: 0,
            })
            .collect();
        let mut rngs: Vec<StdRng> = runs.iter().map(|&i| rng_for_attempt(&mc, i, 0)).collect();
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let out = f(&atts, &mut rngs);
            assert_eq!(out.len(), runs.len(), "one result per attempt");
            out
        }));
        match caught {
            Ok(out) => out.into_iter().map(Some).collect(),
            Err(_) => runs.iter().map(|_| None).collect(),
        }
    };

    // A resumed run: its stored record, decoded verbatim.
    let replay = |i: usize, rec: &RunRecord| -> Result<T, RunFailure> {
        let out = match &rec.outcome {
            // Decodability was validated at load; a `None` here would
            // mean the file changed under us — degrade to a failure.
            Ok(words) => T::decode(words).ok_or_else(|| RunFailure {
                run: i as u64,
                attempts: rec.attempts,
                error: "resume record no longer decodes".to_string(),
            }),
            Err(e) => Err(RunFailure {
                run: i as u64,
                attempts: rec.attempts,
                error: e.clone(),
            }),
        };
        if out.is_err() {
            failures.fetch_add(1, Ordering::Relaxed);
        }
        out
    };

    // Run `i` to success or its last attempt. `first` is its first
    // attempt's result if that already ran in a batch; retries run alone.
    let supervise = |i: usize, mut first: Option<Result<T, String>>| -> Result<T, RunFailure> {
        let mut last_err = String::new();
        let mut attempts_used = 0u64;
        let mut value: Option<T> = None;
        for attempt in 0..max_attempts {
            attempts_used = attempt + 1;
            match first.take().unwrap_or_else(|| attempt_one(i, attempt)) {
                Ok(v) => {
                    value = Some(v);
                    break;
                }
                Err(e) => last_err = e,
            }
            if attempts_used == max_attempts {
                break;
            }
            retries.fetch_add(1, Ordering::Relaxed);
            tel.incr("mc.supervisor.retries");
            tel.note(
                "mc.supervisor.retried",
                format!("run {i} attempt {attempts_used}/{max_attempts}: {last_err}"),
            );
        }

        let out = match value {
            Some(v) => Ok(v),
            None => {
                failures.fetch_add(1, Ordering::Relaxed);
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
    };

    // Runs share a batch only while no fault plan is armed, so each
    // injected fault stays with its own run.
    let batch = if oxterm_chaos::is_armed() { 1 } else { BATCH };
    let results: Vec<Result<T, RunFailure>> = mc.run_batches(mc.workers(), batch, |runs| {
        // Resumed runs never enter a batch.
        let fresh: Vec<usize> = runs
            .clone()
            .filter(|&i| !matches!(resumed.get(i), Some(Some(_))))
            .collect();
        let mut first = if fresh.len() > 1 {
            attempt_batch(&fresh)
        } else {
            vec![None; fresh.len()]
        }
        .into_iter();
        runs.map(|i| match resumed.get(i) {
            Some(Some(rec)) => replay(i, rec),
            _ => supervise(i, first.next().flatten()),
        })
        .collect()
    });

    checkpoint_now(&records);

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
        failures: failures.load(Ordering::Relaxed),
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

    /// Serialises tests that arm the process-global chaos plan.
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
        let supervised = run_supervised(
            campaign,
            &SupervisorOptions::default(),
            per_attempt(|_, rng| {
                use rand::Rng;
                Ok(rng.random::<f64>())
            }),
        )
        .expect("supervision runs");
        assert_eq!(supervised.failures, 0);
        assert_eq!(supervised.exit_code(), 0);
        let got: Vec<f64> = supervised.ok_results().copied().collect();
        assert_eq!(plain, got);
    }

    #[test]
    fn retry_ladder_recovers_transient_failures() {
        // Every run fails its first two attempts, succeeds on the third.
        let out = run_supervised(
            mc(16, 1),
            &SupervisorOptions::default(),
            per_attempt(|att, _| {
                if att.attempt < 2 {
                    Err(format!("transient failure at attempt {}", att.attempt))
                } else {
                    Ok(att.attempt as f64)
                }
            }),
        )
        .expect("supervision runs");
        assert_eq!(out.failures, 0);
        assert_eq!(out.retries, 32, "two retries per run");
        assert_eq!(out.exit_code(), 0);
    }

    #[test]
    fn exhausted_runs_become_failures_with_attempt_counts() {
        let out: CampaignOutcome<f64> = run_supervised(
            mc(10, 2),
            &SupervisorOptions::default(),
            per_attempt(|att, _| {
                if att.run_index % 2 == 0 {
                    Err("persistent fault".to_string())
                } else {
                    Ok(1.0)
                }
            }),
        )
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
        let out = run_supervised(
            mc(8, 3),
            &SupervisorOptions::default(),
            per_attempt(|att, _| {
                if att.run_index == 5 && att.attempt == 0 {
                    panic!("kaboom in run 5");
                }
                Ok(att.attempt as f64)
            }),
        )
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
        let out: CampaignOutcome<f64> = run_supervised(
            mc(20, 4),
            &opts,
            per_attempt(|att, _| {
                if att.run_index == 0 {
                    Err("one bad run".into())
                } else {
                    Ok(0.0)
                }
            }),
        )
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
        let reference =
            run_supervised(campaign, &quorumed, per_attempt(body)).expect("reference runs");

        // Partial campaign: only the first 17 runs execute (the closure
        // refuses the rest), checkpointing every 4 completions.
        let partial_opts = SupervisorOptions {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 4,
            quorum: 1.0,
            ..SupervisorOptions::default()
        };
        let _partial = run_supervised(
            campaign,
            &partial_opts,
            per_attempt(|att, rng| {
                if att.run_index >= 17 {
                    return Err("simulated kill".to_string());
                }
                body(att, rng)
            }),
        )
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
        let resumed =
            run_supervised(campaign, &resumed_opts, per_attempt(body)).expect("resume runs");
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
    fn periodic_checkpoints_append_and_the_final_one_is_complete() {
        let _guard = TEST_LOCK.lock();
        let dir = std::env::temp_dir().join(format!("oxterm_sup_append_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ckpt.jsonl").to_string_lossy().to_string();
        let opts = SupervisorOptions {
            checkpoint_path: Some(path.clone()),
            checkpoint_every: 4,
            ..SupervisorOptions::default()
        };
        // One worker; every run fails its first attempt, so each retry runs
        // alone, in run order, after the records of the runs before it.
        let file = || Checkpoint::load(&path).expect("checkpoint parses");
        let out = run_supervised(
            MonteCarlo::new(10, 0xA99E).with_threads(1),
            &opts,
            per_attempt(|att, _| {
                if att.attempt == 0 {
                    return Err("first attempt".to_string());
                }
                match att.run_index {
                    // Four records so far: mark the first, which a rewrite
                    // would restore and an append leaves alone.
                    5 => {
                        let mut cp = file();
                        assert_eq!(cp.records.len(), 4);
                        cp.records[0].attempts = 99;
                        cp.write_atomic(&path).expect("rewrite");
                    }
                    9 => {
                        let cp = file();
                        let runs: Vec<u64> = cp.records.iter().map(|r| r.run).collect();
                        assert_eq!(runs, (0..8).collect::<Vec<_>>());
                        assert_eq!(cp.records[0].attempts, 99, "the first four were rewritten");
                    }
                    _ => {}
                }
                Ok(att.run_index as f64)
            }),
        )
        .expect("campaign runs");
        assert_eq!(out.failures, 0);
        let cp = file();
        assert_eq!(cp.records.len(), 10);
        for (i, rec) in cp.records.iter().enumerate() {
            assert_eq!((rec.run, rec.attempts), (i as u64, 2));
            assert_eq!(rec.outcome, Ok(vec![i as f64]));
        }
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
        run_supervised(mc(4, 111), &opts, per_attempt(|_, _| Ok(1.0f64))).expect("first campaign");
        let resume = SupervisorOptions {
            resume_from: Some(path.clone()),
            ..SupervisorOptions::default()
        };
        // Different seed => identity mismatch.
        let err = run_supervised(mc(4, 222), &resume, per_attempt(|_, _| Ok(1.0f64)))
            .expect_err("mismatch must be rejected");
        assert!(err.message.contains("does not match"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A campaign of `runs` runs under `opts` whose closure notes the
    /// largest batch it is handed: run `i` fails its first attempt when
    /// `i % 7 == 3`, and panics on every attempt when it is `panicking`.
    fn batched(
        runs: usize,
        opts: &SupervisorOptions,
        panicking: Option<u64>,
    ) -> (CampaignOutcome<f64>, usize) {
        use rand::Rng;
        let largest = AtomicUsize::new(0);
        let out = run_supervised(mc(runs, 0xBA7C), opts, |atts, rngs| {
            largest.fetch_max(atts.len(), Ordering::Relaxed);
            atts.iter()
                .zip(rngs)
                .map(|(att, rng)| {
                    if Some(att.run_index) == panicking {
                        panic!("run {} panics", att.run_index);
                    }
                    if att.run_index % 7 == 3 && att.attempt == 0 {
                        return Err("transient".to_string());
                    }
                    Ok(rng.random::<f64>())
                })
                .collect()
        })
        .expect("supervision runs");
        (out, largest.into_inner())
    }

    fn values(out: &CampaignOutcome<f64>) -> Vec<Result<u64, (u64, String)>> {
        out.results
            .iter()
            .map(|r| match r {
                Ok(v) => Ok(v.to_bits()),
                Err(f) => Err((f.attempts, f.error.clone())),
            })
            .collect()
    }

    #[test]
    fn a_panicking_batch_fails_only_the_panicking_run() {
        let _guard = TEST_LOCK.lock();
        let opts = SupervisorOptions::default();
        let (clean, _) = batched(40, &opts, None);
        let (out, largest) = batched(40, &opts, Some(5));
        assert!(largest > 1, "runs shared batches");
        assert_eq!(out.failures, 1);
        assert_eq!(out.panics, 3, "run 5 panicked alone on each attempt");
        let (got, want) = (values(&out), values(&clean));
        for (i, (g, w)) in got.iter().zip(&want).enumerate() {
            if i == 5 {
                assert_eq!(g, &Err((3, "panic: run 5 panics".to_string())));
            } else {
                assert_eq!(g, w, "run {i} keeps its value");
            }
        }
    }

    #[test]
    fn a_first_attempt_failing_in_a_batch_is_retried_and_counted() {
        use rand::Rng;
        let _guard = TEST_LOCK.lock();
        let (out, largest) = batched(100, &SupervisorOptions::default(), None);
        assert!(largest > 1, "runs shared batches");
        let failing: Vec<usize> = (0..100).filter(|i| i % 7 == 3).collect();
        assert_eq!(out.retries, failing.len() as u64);
        assert_eq!(out.failures, 0);
        for i in failing {
            let retried: f64 = rng_for_attempt(&mc(100, 0xBA7C), i, 1).random();
            assert_eq!(
                out.results[i],
                Ok(retried),
                "run {i} took its second attempt"
            );
        }
    }

    #[test]
    fn keeping_a_checkpoint_leaves_results_unchanged() {
        let _guard = TEST_LOCK.lock();
        let dir = std::env::temp_dir().join(format!("oxterm_sup_kept_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("ckpt.jsonl").to_string_lossy().to_string();
        let kept = SupervisorOptions {
            checkpoint_path: Some(path.clone()),
            ..SupervisorOptions::default()
        };
        let (with, _) = batched(150, &kept, Some(40));
        let (without, _) = batched(150, &SupervisorOptions::default(), Some(40));
        assert_eq!(values(&with), values(&without));
        assert_eq!(
            (with.failures, with.retries, with.panics),
            (without.failures, without.retries, without.panics)
        );
        // Every run, first-attempt successes included, left its record.
        let records = Checkpoint::load(&path).expect("checkpoint parses").records;
        assert_eq!(records.len(), 150);
        for (rec, result) in records.iter().zip(&with.results) {
            match result {
                Ok(v) => assert_eq!(rec.outcome, Ok(vec![*v])),
                Err(f) => assert_eq!(rec.outcome, Err(f.error.clone())),
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn armed_faults_hold_batches_to_one_run_with_equal_results() {
        let _guard = TEST_LOCK.lock();
        let opts = SupervisorOptions::default();
        let (reference, largest) = batched(100, &opts, None);
        assert!(largest > 1, "runs shared batches");
        assert!(reference.retries > 0);
        oxterm_chaos::arm(oxterm_chaos::FaultPlan::new(7));
        let (out, largest) = batched(100, &opts, None);
        oxterm_chaos::disarm();
        assert_eq!(largest, 1);
        assert_eq!(values(&out), values(&reference));
        assert_eq!(out.retries, reference.retries);
    }

    #[test]
    fn panic_payload_rendering() {
        // An owned `String` payload (`panic!` with format arguments, or
        // `panic_any`) renders verbatim into the run's error.
        let out: CampaignOutcome<f64> = run_supervised(
            mc(1, 0),
            &SupervisorOptions::default(),
            per_attempt(|_, _| std::panic::panic_any(String::from("owned payload"))),
        )
        .expect("supervision runs");
        assert_eq!(out.panics, 3, "every attempt panicked");
        let fail = out.results[0].as_ref().unwrap_err();
        assert_eq!(fail.error, "panic: owned payload");
    }
}
