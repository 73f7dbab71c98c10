//! End-to-end chaos engineering gate: deterministic fault injection driven
//! through the supervised Monte Carlo campaign.
//!
//! The headline test arms a fault plan that pushes well over 5 % of a
//! 240-run campaign past its last attempt and asserts the supervisor's
//! whole contract at once: the campaign completes degraded (exit code 3),
//! the failed-run set matches the plan's deterministic schedule exactly,
//! and every exhausted run leaves exactly one failure record stamped with
//! its attempt count. A second test kills a campaign in the middle
//! (by truncating its checkpoint) and proves `--resume` replays the
//! completed half bit-identically.
//!
//! Chaos state is process-global, so every test that arms a plan
//! serializes on [`CHAOS_LOCK`] and disarms on drop.

use oxterm_chaos::{FaultKind, FaultPlan};
use oxterm_mc::checkpoint::Checkpoint;
use oxterm_mc::supervisor::{per_attempt, Attempt};
use oxterm_mc::{run_supervised, MonteCarlo, SupervisorOptions};
use rand::rngs::StdRng;
use std::sync::{Mutex, MutexGuard};

static CHAOS_LOCK: Mutex<()> = Mutex::new(());

/// Serializes chaos-arming tests and guarantees a disarmed exit even when
/// an assertion panics mid-test.
struct ChaosSession(#[allow(dead_code)] MutexGuard<'static, ()>);

impl ChaosSession {
    fn arm(plan: FaultPlan) -> Self {
        let guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        oxterm_chaos::arm(plan);
        let _ = oxterm_chaos::drain_injections();
        ChaosSession(guard)
    }
}

impl Drop for ChaosSession {
    fn drop(&mut self) {
        oxterm_chaos::disarm();
        let _ = oxterm_chaos::drain_injections();
    }
}

#[test]
fn fault_schedule_is_deterministic_and_seed_sensitive() {
    let spec = "newton_stall:p=0.05,nan_stamp:p=0.02,panic:p=0.01:transient,seed=42";
    let a = FaultPlan::parse(spec).expect("spec parses");
    let b = FaultPlan::parse(spec).expect("spec parses");
    assert_eq!(a.hash(), b.hash());
    assert_eq!(a.schedule(400), b.schedule(400));
    assert!(
        !a.schedule(400).is_empty(),
        "a 400-run schedule at these rates must fire"
    );

    let reseeded =
        FaultPlan::parse("newton_stall:p=0.05,nan_stamp:p=0.02,panic:p=0.01:transient,seed=43")
            .expect("spec parses");
    assert_ne!(a.hash(), reseeded.hash());
    assert_ne!(
        a.schedule(400),
        reseeded.schedule(400),
        "the seed must decorrelate the schedule"
    );
}

/// The run-level failure predicate implied by the e2e plan: a persistent
/// Newton stall fails every attempt, while a transient panic must fire on
/// all `max_attempts` attempts to exhaust the run.
fn plan_dooms_run(plan: &FaultPlan, run: u64, max_attempts: u64) -> bool {
    plan.injects(run, 0, FaultKind::NewtonStall)
        || (0..max_attempts).all(|a| plan.injects(run, a, FaultKind::Panic))
}

#[test]
fn degraded_campaign_completes_with_one_failure_record_per_exhausted_run() {
    let plan = FaultPlan::parse("newton_stall:p=0.10,panic:p=0.02:transient,seed=77")
        .expect("spec parses");
    let session = ChaosSession::arm(plan);

    let runs = 240usize;
    let opts = SupervisorOptions {
        quorum: 0.25,
        ..SupervisorOptions::default()
    };
    let outcome = run_supervised(
        MonteCarlo::new(runs, 0x5EED_CAFE),
        &opts,
        per_attempt(|att: &Attempt, _rng: &mut StdRng| -> Result<f64, String> {
            if oxterm_chaos::should_inject(FaultKind::NewtonStall) {
                return Err("injected newton stall".to_string());
            }
            Ok(att.run_index as f64)
        }),
    )
    .expect("supervision proceeds");

    // The failed-run set is exactly the plan's deterministic schedule.
    let expected: Vec<u64> = (0..runs as u64)
        .filter(|&r| plan_dooms_run(&plan, r, opts.max_attempts))
        .collect();
    let failed: Vec<u64> = outcome
        .results
        .iter()
        .enumerate()
        .filter(|(_, r)| r.is_err())
        .map(|(i, _)| i as u64)
        .collect();
    assert_eq!(failed, expected, "failures must match the armed plan");

    // ≥5 % of the campaign was pushed into exhaustion, yet the campaign
    // finished degraded-but-useful under its quorum.
    assert!(
        outcome.failures as f64 >= 0.05 * runs as f64,
        "the gate needs a ≥5 % fault rate, got {}/{runs}",
        outcome.failures
    );
    assert!(outcome.is_degraded());
    assert!(!outcome.quorum_breached());
    assert_eq!(outcome.exit_code(), 3);
    assert_eq!(outcome.ok_results().count(), runs - expected.len());

    // Exactly one failure record per exhausted run, each stamped with the
    // full ladder consumed.
    assert_eq!(outcome.failures, expected.len() as u64);
    for fail in outcome.results.iter().filter_map(|r| r.as_ref().err()) {
        assert_eq!(
            fail.attempts, opts.max_attempts,
            "an exhausted run consumes the whole ladder: {fail:?}"
        );
    }

    drop(session);
}

#[test]
fn killed_campaign_resumes_bit_identically() {
    let plan = FaultPlan::parse("newton_stall:p=0.05,seed=9").expect("spec parses");
    let session = ChaosSession::arm(plan);

    let dir = std::env::temp_dir().join(format!("oxterm_chaos_resume_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let full_path = dir.join("full.jsonl").to_string_lossy().to_string();
    let torn_path = dir.join("torn.jsonl").to_string_lossy().to_string();

    let campaign = MonteCarlo::new(200, 0xFEED_F00D);
    let body = |att: &Attempt, rng: &mut StdRng| -> Result<f64, String> {
        use rand::Rng;
        if oxterm_chaos::should_inject(FaultKind::NewtonStall) {
            return Err(format!("injected stall in run {}", att.run_index));
        }
        Ok(rng.random::<f64>().mul_add(2.0, att.run_index as f64))
    };

    let uninterrupted = run_supervised(
        campaign,
        &SupervisorOptions {
            checkpoint_path: Some(full_path.clone()),
            ..SupervisorOptions::default()
        },
        per_attempt(body),
    )
    .expect("uninterrupted campaign runs");
    assert!(
        uninterrupted.failures > 0,
        "the plan must fail some runs so resume replays failures too"
    );

    // Simulate a SIGKILL mid-campaign: keep only the first half of the
    // completed-run records, exactly as a torn run would have left them.
    let mut cp = Checkpoint::load(&full_path).expect("checkpoint parses");
    cp.records.retain(|r| r.run < 100);
    let kept = cp.records.len() as u64;
    assert!(kept > 0, "the truncated checkpoint must retain some runs");
    cp.write_atomic(&torn_path).expect("torn checkpoint writes");

    let resumed = run_supervised(
        campaign,
        &SupervisorOptions {
            resume_from: Some(torn_path.clone()),
            ..SupervisorOptions::default()
        },
        per_attempt(body),
    )
    .expect("resumed campaign runs");

    assert_eq!(resumed.resumed, kept);
    assert_eq!(uninterrupted.results.len(), resumed.results.len());
    for (i, (a, b)) in uninterrupted
        .results
        .iter()
        .zip(resumed.results.iter())
        .enumerate()
    {
        match (a, b) {
            (Ok(x), Ok(y)) => assert_eq!(
                x.to_bits(),
                y.to_bits(),
                "run {i} diverged after resume: {x} vs {y}"
            ),
            (Err(x), Err(y)) => {
                assert_eq!(x.run, y.run);
                assert_eq!(x.attempts, y.attempts, "run {i} attempt count diverged");
                assert_eq!(x.error, y.error, "run {i} error diverged");
            }
            _ => panic!("run {i} changed ok/err polarity after resume"),
        }
    }
    assert_eq!(uninterrupted.failures, resumed.failures);

    // A checkpoint from a different fault plan must be refused.
    oxterm_chaos::arm(FaultPlan::parse("newton_stall:p=0.05,seed=10").expect("spec parses"));
    let err = run_supervised(
        campaign,
        &SupervisorOptions {
            resume_from: Some(torn_path),
            ..SupervisorOptions::default()
        },
        per_attempt(body),
    )
    .expect_err("plan-hash mismatch must be rejected");
    assert!(
        err.to_string().contains("does not match"),
        "unexpected error: {err}"
    );

    let _ = std::fs::remove_dir_all(&dir);
    drop(session);
}

#[test]
fn ladder_never_exceeds_max_attempts() {
    use std::sync::atomic::{AtomicU64, Ordering};
    for max_attempts in 1..=5u64 {
        let highest_attempt = AtomicU64::new(0);
        let calls = AtomicU64::new(0);
        let outcome = run_supervised(
            MonteCarlo::new(4, 0xBAD),
            &SupervisorOptions {
                max_attempts,
                quorum: 1.0,
                ..SupervisorOptions::default()
            },
            per_attempt(|att: &Attempt, _rng: &mut StdRng| -> Result<f64, String> {
                calls.fetch_add(1, Ordering::Relaxed);
                highest_attempt.fetch_max(att.attempt, Ordering::Relaxed);
                Err("always fails".to_string())
            }),
        )
        .expect("supervision proceeds");
        assert_eq!(outcome.failures, 4);
        assert_eq!(calls.load(Ordering::Relaxed), 4 * max_attempts);
        assert_eq!(highest_attempt.load(Ordering::Relaxed), max_attempts - 1);
        for r in &outcome.results {
            let f = r.as_ref().expect_err("all runs fail");
            assert_eq!(f.attempts, max_attempts);
        }
    }
}

#[test]
fn disarmed_hooks_never_fire() {
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    // Arm a certain-fire plan, then disarm: the hooks must go quiet.
    oxterm_chaos::arm(FaultPlan::parse("newton_stall:p=1.0,seed=1").expect("spec parses"));
    oxterm_chaos::disarm();
    let before = oxterm_chaos::injected_count();
    oxterm_chaos::begin_run(0, 0);
    for kind in oxterm_chaos::ALL_KINDS {
        assert!(!oxterm_chaos::should_inject(kind));
    }
    oxterm_chaos::end_run();
    assert_eq!(oxterm_chaos::injected_count(), before);
}

/// Satellite of the job-service work: the checkpoint's crash-tolerance
/// contract, byte by byte. A SIGKILL can land mid-append, so for EVERY
/// truncation point inside the final record the tolerant loader must
/// recover exactly the complete records before it — never a misparsed
/// partial, never an error — while the strict loader refuses mid-JSON
/// cuts. A resume from a representative torn file then replays
/// bit-identically.
#[test]
fn torn_checkpoint_tail_tolerates_truncation_at_every_byte() {
    // Hold the chaos lock (disarmed): the checkpoint header hashes the
    // armed plan, so a concurrently arming test would split the header.
    let _guard = CHAOS_LOCK.lock().unwrap_or_else(|p| p.into_inner());
    oxterm_chaos::disarm();

    let dir = std::env::temp_dir().join(format!("oxterm_torn_tail_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("temp dir");
    let full_path = dir.join("cp.jsonl").to_string_lossy().to_string();
    let torn_path = dir.join("torn.jsonl").to_string_lossy().to_string();

    let campaign = MonteCarlo::new(12, 0xABCD).with_threads(1);
    let body = |att: &Attempt, rng: &mut StdRng| -> Result<f64, String> {
        use rand::Rng;
        Ok(rng.random::<f64>().mul_add(3.0, att.run_index as f64))
    };
    let uninterrupted = run_supervised(
        campaign,
        &SupervisorOptions {
            checkpoint_path: Some(full_path.clone()),
            ..SupervisorOptions::default()
        },
        per_attempt(body),
    )
    .expect("checkpointed campaign runs");

    let full = std::fs::read(&full_path).expect("checkpoint bytes");
    let full_checkpoint = Checkpoint::load(&full_path).expect("full checkpoint parses");
    let n = full_checkpoint.records.len();
    assert_eq!(n, 12);
    assert_eq!(full.last(), Some(&b'\n'), "records are newline-terminated");
    let last_start = full[..full.len() - 1]
        .iter()
        .rposition(|&b| b == b'\n')
        .expect("more than one line")
        + 1;

    for cut in last_start..full.len() {
        std::fs::write(&torn_path, &full[..cut]).expect("write torn file");
        let loaded = Checkpoint::load_tolerant(&torn_path)
            .unwrap_or_else(|e| panic!("tolerant load must absorb a cut at byte {cut}: {e}"));
        assert_eq!(
            loaded.checkpoint.records.len(),
            n - 1,
            "cut at byte {cut}: exactly the complete records survive"
        );
        assert_eq!(
            loaded.dropped_tail,
            cut > last_start,
            "cut at byte {cut}: dropped_tail flags a torn (unterminated) tail"
        );
        // The strict loader is a flat field extractor, so some cuts (all
        // fields intact, trailing syntax gone) still parse. What it must
        // NEVER do is misparse: an accepted cut yields either exactly
        // the complete prefix or a record bit-identical to the uncut one.
        match Checkpoint::load(&torn_path) {
            Err(_) => {}
            Ok(strict) => {
                let d = strict.digest();
                assert!(
                    d == full_checkpoint.digest() || d == loaded.checkpoint.digest(),
                    "cut at byte {cut}: strict load accepted a corrupted record"
                );
            }
        }
    }

    // Resume from a mid-record cut: the completed 11 runs replay from the
    // file, the torn 12th re-executes, and the aggregate is bit-identical.
    std::fs::write(&torn_path, &full[..(last_start + full.len()) / 2]).expect("write torn file");
    let resumed = run_supervised(
        campaign,
        &SupervisorOptions {
            resume_from: Some(torn_path),
            ..SupervisorOptions::default()
        },
        per_attempt(body),
    )
    .expect("resume from torn checkpoint");
    assert_eq!(resumed.resumed, (n - 1) as u64);
    for (i, (a, b)) in uninterrupted
        .results
        .iter()
        .zip(resumed.results.iter())
        .enumerate()
    {
        let (x, y) = (
            a.as_ref().expect("clean campaign"),
            b.as_ref().expect("clean resume"),
        );
        assert_eq!(x.to_bits(), y.to_bits(), "run {i} diverged after resume");
    }

    let _ = std::fs::remove_dir_all(&dir);
}
