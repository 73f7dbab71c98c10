//! Probe capture must not allocate on the accepted-step path.
//!
//! The probe layer's contract is that once a recorder's buffers are
//! constructed, recording a solution vector — including the in-place
//! min/max decimation a long run triggers — touches no heap. This binary
//! installs a counting `#[global_allocator]` and holds
//! `ProbeRecorder::record` to that promise. It contains exactly one test
//! so no concurrent test can allocate on another thread mid-measurement.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use oxterm_devices::passive::{Capacitor, Resistor};
use oxterm_devices::sources::{SourceWave, VoltageSource};
use oxterm_spice::circuit::Circuit;
use oxterm_spice::probe::{ProbePlan, ProbeRecorder};

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
fn probe_record_path_allocates_nothing_after_warmup() {
    // A small circuit so the probe specs resolve against real unknowns.
    let mut c = Circuit::new();
    let a = c.node("a");
    let b = c.node("b");
    c.add(VoltageSource::new(
        "v1",
        a,
        Circuit::gnd(),
        SourceWave::dc(1.0),
    ));
    c.add(Resistor::new("r1", a, b, 1e3));
    c.add(Capacitor::new("c1", b, Circuit::gnd(), 1e-9));

    let plan = ProbePlan::parse("v(a),v(b),i(v1)")
        .expect("spec parses")
        .with_budget(64);
    let mut rec = ProbeRecorder::resolve(&plan, &c).expect("targets exist");

    // Fake solution vector shaped like the MNA system (2 nodes + 1 branch).
    let x = [1.0f64, 0.5, -0.5e-3];

    // Warm-up: construction pre-allocated every buffer; a few records and
    // one full decimation cycle make sure any lazy statics are settled.
    for i in 0..200u64 {
        rec.record(i as f64 * 1e-9, &x);
    }

    let before = local_allocations();
    // 10k records over a 64-sample budget forces many decimation passes;
    // none of it may allocate.
    for i in 200..10_200u64 {
        rec.record(i as f64 * 1e-9, &x);
    }
    let after = local_allocations();
    assert_eq!(
        after - before,
        0,
        "probe record path allocated {} times over 10k records",
        after - before
    );

    // Sanity: the recorder really was capturing (the zero above measures
    // the hot path, not dead code).
    let capture = rec.into_capture();
    let trace = capture.trace("v(b)").expect("captured");
    assert_eq!(trace.offered, 10_200);
    assert!(trace.compactions > 0, "budget never hit — test too short");
    assert!(!trace.samples.is_empty());
}
