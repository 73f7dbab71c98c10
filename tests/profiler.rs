//! Cross-crate behavior of the hierarchical phase profiler: nesting
//! arithmetic on private handles, deterministic cross-thread merging, and
//! the snapshot artifacts the bench layer consumes.
//!
//! Everything here uses private [`Profiler`] handles — the process global
//! stays untouched so these tests compose with the rest of the suite.

use std::sync::Arc;
use std::thread;

use oxterm_telemetry::{PhaseId, Profiler, Telemetry};

/// Spins for roughly `us` microseconds without sleeping (keeps the timing
/// deterministic enough for coarse assertions under load).
fn busy_wait_us(us: u64) {
    let start = std::time::Instant::now();
    while start.elapsed() < std::time::Duration::from_micros(us) {
        std::hint::spin_loop();
    }
}

#[test]
fn nested_phases_split_self_and_child_time() {
    let prof = Profiler::enabled();
    {
        let _outer = prof.phase(PhaseId::TranRun);
        busy_wait_us(2_000);
        {
            let _inner = prof.phase(PhaseId::TranNewton);
            busy_wait_us(2_000);
            let _leaf = prof.phase(PhaseId::NewtonSolveLu);
            busy_wait_us(2_000);
        }
        busy_wait_us(1_000);
    }
    let snap = prof.snapshot();
    let outer = snap.phase(PhaseId::TranRun).expect("outer recorded");
    let newton = snap.phase(PhaseId::TranNewton).expect("newton recorded");
    let lu = snap.phase(PhaseId::NewtonSolveLu).expect("leaf recorded");

    // Wall time nests: outer ⊇ newton ⊇ lu.
    assert!(outer.wall_ns >= newton.wall_ns, "{outer:?} vs {newton:?}");
    assert!(newton.wall_ns >= lu.wall_ns, "{newton:?} vs {lu:?}");
    // Self time is wall minus children, exactly.
    assert_eq!(outer.self_ns(), outer.wall_ns - outer.child_ns);
    assert_eq!(outer.child_ns, newton.wall_ns);
    assert_eq!(newton.child_ns, lu.wall_ns);
    assert_eq!(lu.child_ns, 0);
    // The leaf spun for ~2 ms; the outer's own busy work was ~3 ms.
    assert!(lu.self_ns() >= 1_500_000, "{lu:?}");
    assert!(outer.self_ns() >= 2_000_000, "{outer:?}");
}

#[test]
fn sibling_phases_accumulate_without_overlap() {
    let prof = Profiler::enabled();
    {
        let _newton = prof.phase(PhaseId::TranNewton);
        for _ in 0..10 {
            let _stamp = prof.phase(PhaseId::NewtonStamp);
            busy_wait_us(100);
        }
        for _ in 0..10 {
            let _solve = prof.phase(PhaseId::NewtonSolveLu);
            busy_wait_us(100);
        }
    }
    let snap = prof.snapshot();
    let newton = snap.phase(PhaseId::TranNewton).unwrap();
    let stamp = snap.phase(PhaseId::NewtonStamp).unwrap();
    let solve = snap.phase(PhaseId::NewtonSolveLu).unwrap();
    assert_eq!(stamp.calls, 10);
    assert_eq!(solve.calls, 10);
    assert_eq!(newton.calls, 1);
    assert_eq!(newton.child_ns, stamp.wall_ns + solve.wall_ns);
    assert!(newton.wall_ns >= newton.child_ns);
}

#[test]
fn cross_thread_merge_counts_every_call_exactly() {
    let prof = Arc::new(Profiler::enabled());
    const THREADS: usize = 8;
    const PER_THREAD: usize = 500;
    let mut handles = Vec::new();
    for _ in 0..THREADS {
        let prof = Arc::clone(&prof);
        handles.push(thread::spawn(move || {
            for _ in 0..PER_THREAD {
                let _run = prof.phase(PhaseId::McWorkerRun);
                let _program = prof.phase(PhaseId::MlcProgram);
            }
        }));
    }
    for h in handles {
        h.join().expect("worker completes");
    }
    let snap = prof.snapshot();
    let run = snap.phase(PhaseId::McWorkerRun).unwrap();
    let program = snap.phase(PhaseId::MlcProgram).unwrap();
    // Sharded accumulators must merge to exact totals, independent of
    // thread→shard assignment.
    assert_eq!(run.calls, (THREADS * PER_THREAD) as u64);
    assert_eq!(program.calls, (THREADS * PER_THREAD) as u64);
    assert_eq!(run.child_ns, program.wall_ns);
    // Each fresh thread's first scope set the profiler up once, under its
    // own phase, outside the attribution denominator.
    let setup = snap.phase(PhaseId::ProfilerSetup).unwrap();
    assert_eq!(setup.calls, THREADS as u64);
    assert_eq!(setup.child_ns, 0);
    assert_eq!(snap.share(setup), None);
}

#[test]
fn disabled_handle_records_nothing_and_guards_are_inert() {
    let prof = Profiler::disabled();
    assert!(!prof.is_enabled());
    let guard = prof.phase(PhaseId::TranRun);
    assert!(!guard.is_active());
    drop(guard);
    assert!(prof.snapshot().is_empty());
}

#[test]
fn snapshot_artifacts_render_and_fold() {
    let prof = Profiler::enabled();
    {
        let _run = prof.phase(PhaseId::BenchRun);
        let _op = prof.phase(PhaseId::OpSolve);
        let _lu = prof.phase(PhaseId::NewtonSolveLu);
        busy_wait_us(200);
    }
    let snap = prof.snapshot();

    // The tree indents by depth and prints the last path segment; the
    // JSON carries the full paths.
    let tree = snap.to_ascii_tree();
    assert!(tree.contains("solve_lu"), "{tree}");
    assert!(tree.contains("leaf coverage"), "{tree}");
    let json = snap.to_json();
    assert!(json.contains("oxterm-profile/1"), "{json}");
    assert!(json.contains("\"bench/run\""), "{json}");
    assert!(json.contains("\"op/solve\""), "{json}");

    let tel = Telemetry::enabled();
    snap.fold_into(&tel);
    let report = tel.report();
    assert_eq!(report.counter("profile.op.solve.calls"), Some(1));
    assert!(
        report
            .counter("profile.tran.newton.solve_lu.wall_ns")
            .unwrap_or(0)
            > 0
    );
}
