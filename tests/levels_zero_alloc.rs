//! The disarmed level tracker's observe path must not allocate.
//!
//! Every MC campaign run calls `LevelTracker::observe` once per
//! programmed level whether or not anyone asked for the level report.
//! The tracker's contract (mirroring chaos/profiler) is that the
//! disarmed path costs one branch: no mutex, no histogram record, no heap
//! traffic. This binary installs a counting `#[global_allocator]` and
//! holds `observe` to that promise. It contains exactly one test so no
//! concurrent test can allocate on another thread mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oxterm_telemetry::LevelTracker;

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
fn disarmed_observe_path_allocates_nothing() {
    // Never install a global tracker here: the point is the disarmed
    // path every un-flagged binary takes.
    let tracker = LevelTracker::global();
    assert!(!tracker.is_enabled());

    // Warm up lazy statics outside the measurement window.
    tracker.observe(0, 6e-6, 267e3);
    let _ = tracker.snapshot();

    let before = local_allocations();
    for i in 0..10_000u64 {
        tracker.observe((i % 16) as u16, 10e-6, 40e3 + i as f64);
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "disarmed observe path allocated {} times over 10k observations",
        after - before
    );

    // Sanity: an armed handle really records (the zero above measures
    // the branch, not dead code).
    let armed = LevelTracker::enabled();
    armed.observe(5, 20e-6, 120e3);
    assert_eq!(armed.snapshot().levels[0].n, 1);
}
