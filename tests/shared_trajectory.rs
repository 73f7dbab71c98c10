//! The multi-reference RESET kernel against independent one-reference runs.
//!
//! `simulate_reset_references` runs one trajectory and reads every
//! reference's crossing off it. Its outcomes must be the independent runs'
//! outcomes bit for bit, and it must leave the same observer records.
//!
//! This binary installs the global telemetry and joule ledger, so its tests
//! take one lock and run one at a time: the observer test compares deltas of
//! process-global totals.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use oxterm_mlc::levels::LevelAllocation;
use oxterm_rram::calib::{
    simulate_reset_references, simulate_reset_termination, CalibrationTarget, ResetConditions,
    TerminationOutcome,
};
use oxterm_rram::params::{InstanceVariation, OxramParams};
use oxterm_rram::RramError;
use oxterm_telemetry::joule::JouleLedger;
use oxterm_telemetry::Telemetry;

static SERIAL: Mutex<()> = Mutex::new(());

/// A test's turn with the global observers. A thread's observer shards
/// merge when it exits, which is after its test returns, so the turn
/// merges them itself before it unlocks: otherwise a finished test's
/// records could land inside the next test's deltas.
struct Serial {
    _turn: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        oxterm_telemetry::flush_thread();
    }
}

fn serial() -> Serial {
    Telemetry::install(Telemetry::enabled());
    JouleLedger::install(JouleLedger::enabled());
    Serial {
        _turn: SERIAL.lock().unwrap_or_else(PoisonError::into_inner),
    }
}

/// The calibration objective's 20 references, in its order: the Table 2
/// allocation, then the latency anchors, then the energy anchors.
fn calibration_refs() -> Vec<f64> {
    let target = CalibrationTarget::paper();
    target
        .allocation
        .iter()
        .chain(&target.latencies)
        .chain(&target.energies)
        .map(|&(i_ua, _)| i_ua * 1e-6)
        .collect()
}

fn qlc_refs() -> Vec<f64> {
    LevelAllocation::paper_qlc()
        .levels()
        .iter()
        .map(|l| l.i_ref)
        .collect()
}

fn bits(out: &TerminationOutcome) -> [u64; 5] {
    [
        out.rho_final.to_bits(),
        out.r_read_ohms.to_bits(),
        out.latency_s.to_bits(),
        out.energy_j.to_bits(),
        out.i_initial.to_bits(),
    ]
}

fn assert_matches_independent_runs(cond: &ResetConditions, refs: &[f64]) {
    let p = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    let shared = simulate_reset_references(&p, &inst, cond, refs);
    assert_eq!(shared.len(), refs.len());
    for (&i_ref, got) in refs.iter().zip(&shared) {
        let alone =
            simulate_reset_termination(&p, &inst, &ResetConditions { i_ref, ..*cond }).unwrap();
        let got = got.as_ref().unwrap();
        assert_eq!(
            bits(got),
            bits(&alone),
            "IrefR {i_ref:e}: {got:?} vs {alone:?}"
        );
    }
}

#[test]
fn shared_trajectory_matches_independent_runs_bit_for_bit() {
    let _serial = serial();
    let paper = ResetConditions::paper_defaults(f64::NAN);
    assert_matches_independent_runs(&paper, &calibration_refs());
    assert_matches_independent_runs(&paper, &qlc_refs());
    // Order does not matter: the references come back in input order.
    let mut shuffled = qlc_refs();
    shuffled.rotate_left(5);
    shuffled.swap(0, 9);
    assert_matches_independent_runs(&paper, &shuffled);
}

/// `n` distinct references from `i_ref` up, a relative 1e-10 apart: for
/// `n` up to 20 their `v*` lie within 0.2 nV, inside one panel.
fn cluster(i_ref: f64, n: usize) -> Vec<f64> {
    (0..n).map(|j| i_ref * (1.0 + 1e-10 * j as f64)).collect()
}

#[test]
fn shared_searches_match_independent_runs_bit_for_bit() {
    let _serial = serial();
    let p = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    let paper = ResetConditions::paper_defaults(f64::NAN);
    // Exact duplicates share one partial panel and still fill every slot.
    assert_matches_independent_runs(&paper, &[20e-6, 6e-6, 20e-6, 36e-6, 6e-6, 20e-6]);
    // Several references inside one panel, each with its own partial panel.
    let mut one_step = cluster(20e-6, 3);
    one_step.push(10e-6);
    assert_matches_independent_runs(&paper, &one_step);
    // Many distinct references in one partial panel.
    assert_matches_independent_runs(&paper, &cluster(14e-6, 17));
    // A reference above the start current is met at pulse start, before
    // any panel, beside references the pulse goes on to cross.
    let i0 = simulate_reset_termination(
        &p,
        &inst,
        &ResetConditions {
            i_ref: 20e-6,
            ..paper
        },
    )
    .unwrap()
    .i_initial;
    assert_matches_independent_runs(&paper, &[1.5 * i0, 20e-6, 1.5 * i0, 8e-6]);
}

#[test]
fn unreachable_lowest_reference_reports_not_terminated() {
    let _serial = serial();
    let p = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    let cond = ResetConditions {
        t_max: 5e-6,
        ..ResetConditions::paper_defaults(f64::NAN)
    };
    let out = simulate_reset_references(&p, &inst, &cond, &[20e-6, 1e-12, f64::NAN, 36e-6]);
    let alone = |i_ref| simulate_reset_termination(&p, &inst, &ResetConditions { i_ref, ..cond });
    assert_eq!(out[0], alone(20e-6));
    assert!(out[0].is_ok());
    assert_eq!(out[1], alone(1e-12));
    assert!(matches!(out[1], Err(RramError::NotTerminated { i_ref, .. }) if i_ref == 1e-12));
    assert!(matches!(
        out[2],
        Err(RramError::InvalidParameter { name: "i_ref", .. })
    ));
    assert_eq!(out[3], alone(36e-6));
    assert!(simulate_reset_references(&p, &inst, &cond, &[]).is_empty());
}

/// The RESET kernel's observer records so far: integer ones by name (its
/// counters, and its histogram's count and bins) and float sums (the
/// histogram's sum and the ledger's dissipated energy).
fn records() -> (BTreeMap<String, u64>, Vec<f64>) {
    let report = Telemetry::global().report();
    let mut ints: BTreeMap<String, u64> = ["rram.termination.runs", "rram.termination.steps"]
        .iter()
        .map(|k| (k.to_string(), report.counter(k).unwrap_or(0)))
        .collect();
    let h = report
        .histogram("rram.termination.latency_s")
        .expect("recorded by the warm-up run");
    ints.insert("latency count".into(), h.count);
    ints.extend(h.bins().map(|(i, c)| (format!("latency bin {i}"), c)));
    let mut sums = vec![h.sum];
    sums.push(JouleLedger::global().snapshot().total_dissipated_j());
    (ints, sums)
}

/// What `work` added to [`records`]: the integer records that moved, and
/// every sum.
fn observed(work: impl FnOnce()) -> (BTreeMap<String, u64>, Vec<f64>) {
    let (ints0, sums0) = records();
    work();
    let (ints1, sums1) = records();
    (
        ints1
            .into_iter()
            .map(|(k, v)| {
                let before = ints0.get(&k).copied().unwrap_or(0);
                (k, v - before)
            })
            .filter(|&(_, d)| d > 0)
            .collect(),
        sums1.iter().zip(&sums0).map(|(a, b)| a - b).collect(),
    )
}

#[test]
fn shared_trajectory_leaves_the_independent_runs_observer_records() {
    let _serial = serial();
    let p = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    let cond = ResetConditions::paper_defaults(f64::NAN);
    let refs = calibration_refs();
    let warm_up = ResetConditions {
        i_ref: 20e-6,
        ..cond
    };
    simulate_reset_termination(&p, &inst, &warm_up).unwrap();
    let (ints_shared, sums_shared) = observed(|| {
        for out in simulate_reset_references(&p, &inst, &cond, &refs) {
            out.unwrap();
        }
    });
    let (ints_alone, sums_alone) = observed(|| {
        for &i_ref in &refs {
            simulate_reset_termination(&p, &inst, &ResetConditions { i_ref, ..cond }).unwrap();
        }
    });
    assert_eq!(ints_shared, ints_alone);
    assert_eq!(
        ints_shared["rram.termination.runs"],
        refs.len() as u64,
        "one run per reference"
    );
    // Sums accumulate in a different order, so only to rounding.
    for (s, a) in sums_shared.iter().zip(&sums_alone) {
        assert!(*a > 0.0);
        assert!((s - a).abs() <= 1e-12 * a, "{s} vs {a}");
    }
}
