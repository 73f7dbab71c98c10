//! The disarmed profiler's scope path must not allocate.
//!
//! The phase profiler's contract (mirroring chaos) is that a binary
//! which never passes `--telemetry` pays one branch per instrumentation
//! point: no clock read, no thread-local push, no heap traffic. This
//! binary installs a counting `#[global_allocator]` and holds the guard
//! create/drop path to that promise. It contains exactly one test so no
//! concurrent test can allocate on another thread mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oxterm_telemetry::{PhaseId, Profiler};

struct CountingAlloc;

thread_local! {
    // Per-thread count: the libtest harness thread allocates concurrently
    // (timers, captured output), and the contract is about the measuring
    // thread only — a process-wide counter flakes on harness noise.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

fn local_allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|c| c.set(c.get() + 1));
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL_ALLOC: CountingAlloc = CountingAlloc;

#[test]
fn disarmed_profiler_scope_path_allocates_nothing() {
    // Never install a global profiler here: the point is the disarmed path
    // every un-flagged binary takes.
    let prof = Profiler::global();
    assert!(!prof.is_enabled());

    // Warm up lazy statics outside the window.
    drop(prof.phase(PhaseId::TranNewton));

    let before = local_allocations();
    for _ in 0..10_000u64 {
        let _newton = prof.phase(PhaseId::TranNewton);
        let stamp = prof.phase(PhaseId::NewtonStamp);
        assert!(!stamp.is_active());
        stamp.finish();
        drop(prof.phase(PhaseId::NewtonSolveLu));
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "disarmed scope path allocated {} times over 30k scopes",
        after - before
    );

    // Sanity: the same scopes against an armed handle do record (so the
    // zero above measures the branch, not dead code).
    let armed = Profiler::enabled();
    {
        let _g = armed.phase(PhaseId::NewtonSolveLu);
    }
    let snap = armed.snapshot();
    assert_eq!(snap.phase(PhaseId::NewtonSolveLu).unwrap().calls, 1);
}
