//! The disarmed joule ledger's observe paths must not allocate.
//!
//! Every accepted transient step and every successful fast-path program
//! calls into the ledger whether or not anyone asked for the energy
//! report. The ledger's contract (mirroring chaos/profiler/levels)
//! is that the disarmed path costs one branch: no mutex, no histogram
//! record, no heap traffic. This binary installs a counting
//! `#[global_allocator]` and holds `observe_level` and `record_energy`
//! to that promise. It contains exactly one test so no concurrent test
//! can allocate on another thread mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oxterm_telemetry::joule::{DeviceClass, JouleLedger, Role};

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
fn disarmed_observe_paths_allocate_nothing() {
    // Never install a global ledger here: the point is the disarmed path
    // every un-flagged binary takes.
    let ledger = JouleLedger::global();
    assert!(!ledger.is_enabled());

    // Warm up lazy statics outside the measurement window.
    ledger.observe_level(0, 6e-6, 80e-12, 4e-6);
    ledger.record_energy(DeviceClass::RramCell, Role::RramCell, 1e-12);
    let _ = ledger.snapshot();

    let before = local_allocations();
    for i in 0..10_000u64 {
        ledger.observe_level((i % 16) as u16, 10e-6, 20e-12 + i as f64 * 1e-15, 1e-6);
        ledger.record_energy(DeviceClass::Resistor, Role::AccessTransistor, 1e-13);
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "disarmed joule paths allocated {} times over 10k iterations",
        after - before
    );

    // Sanity: an armed handle really records (the zero above measures
    // the branch, not dead code).
    let armed = JouleLedger::enabled();
    armed.observe_level(5, 20e-6, 30e-12, 0.8e-6);
    armed.record_energy(DeviceClass::RramCell, Role::RramCell, 2e-12);
    let snap = armed.snapshot();
    assert_eq!(snap.levels.iter().map(|l| l.n).sum::<u64>(), 1);
    assert!(snap.total_dissipated_j() > 0.0);
}
