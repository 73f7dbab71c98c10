//! The disarmed chaos layer's hook path must not allocate.
//!
//! Every fault-injection hook compiled into the solvers costs one read of
//! a const-initialised thread-local outside a faulted campaign's run
//! bracket — no heap traffic, no locks, no copy of a plan. This binary
//! installs a counting `#[global_allocator]` and holds `should_inject` to
//! that promise. It contains exactly one test so no concurrent test can
//! allocate on another thread mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oxterm_chaos::ALL_KINDS;

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
fn disarmed_should_inject_allocates_nothing() {
    // Never open a run bracket here: the point is the path every campaign
    // without a fault plan takes through the solver hooks.

    // Warm up thread-locals and lazy statics outside the window.
    for kind in ALL_KINDS {
        assert!(!oxterm_chaos::should_inject(kind));
    }

    let before = local_allocations();
    for _ in 0..100_000u64 {
        for kind in ALL_KINDS {
            assert!(!oxterm_chaos::should_inject(kind));
        }
    }
    let after = local_allocations();

    assert_eq!(
        after - before,
        0,
        "disarmed should_inject must be one thread-local read, zero allocations"
    );
}
