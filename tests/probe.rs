//! Signal-probe integration: capture during a real transient, CSV export
//! and property tests on the min/max decimation.

use proptest::prelude::*;

use oxterm_devices::passive::{Capacitor, Resistor};
use oxterm_devices::sources::{SourceWave, VoltageSource};
use oxterm_spice::analysis::tran::{run_transient, TranOptions};
use oxterm_spice::circuit::Circuit;
use oxterm_spice::probe::{ProbeBuffer, ProbePlan};
use oxterm_spice::SpiceError;

/// An RC low-pass driven by a 1 V pulse: node `in` steps, node `out`
/// charges through 1 kΩ into 1 nF (τ = 1 µs).
fn rc_circuit() -> Circuit {
    let mut c = Circuit::new();
    let vin = c.node("in");
    let out = c.node("out");
    c.add(VoltageSource::new(
        "v1",
        vin,
        Circuit::gnd(),
        SourceWave::pulse(1.0, 0.1e-6, 10e-9, 10e-6, 10e-9),
    ));
    c.add(Resistor::new("r1", vin, out, 1e3));
    c.add(Capacitor::new("c1", out, Circuit::gnd(), 1e-9));
    c
}

#[test]
fn probes_capture_a_real_transient() {
    let mut c = rc_circuit();
    let opts = TranOptions::for_duration(5e-6)
        .with_probes(ProbePlan::parse("v(in),v(out),i(v1)").expect("spec parses"));
    let result = run_transient(&mut c, &opts, &mut []).expect("RC converges");

    assert_eq!(result.probes.traces.len(), 3);
    let vout = result.probes.trace("v(out)").expect("v(out) captured");
    assert!(vout.samples.len() > 20, "{} samples", vout.samples.len());

    // The probe record must agree with the dense waveform the engine kept:
    // same solution vector, sampled at the same accepted steps.
    let out = c.find_node("out").expect("node exists");
    let dense = result.node_trace(out);
    for s in &vout.samples {
        let d = dense.value_at(s.t);
        assert!(
            (d - s.y).abs() < 1e-12 + 1e-9 * d.abs(),
            "probe {} vs dense {} at t = {}",
            s.y,
            d,
            s.t
        );
    }

    // RC physics sanity: the output settles toward the drive level.
    let last = vout.samples.last().expect("nonempty");
    assert!(last.y > 0.9, "v(out) settled at {}", last.y);

    // Probing ground is legal and constant-zero.
    let mut c2 = rc_circuit();
    let opts2 = TranOptions::for_duration(1e-6)
        .with_probes(ProbePlan::parse("v(0)").expect("gnd spec parses"));
    let r2 = run_transient(&mut c2, &opts2, &mut []).expect("converges");
    assert!(r2.probes.traces[0].samples.iter().all(|s| s.y == 0.0));
}

#[test]
fn probe_csv_export() {
    let mut c = rc_circuit();
    let opts = TranOptions::for_duration(2e-6)
        .with_probes(ProbePlan::parse("v(out)").expect("spec parses"));
    let result = run_transient(&mut c, &opts, &mut []).expect("converges");
    let trace = result.probes.trace("v(out)").expect("captured");

    let csv = trace.to_csv();
    let mut lines = csv.lines();
    assert_eq!(lines.next(), Some("t_s,v(out) [V]"));
    let rows: Vec<&str> = lines.collect();
    assert_eq!(rows.len(), trace.samples.len());
    for row in &rows {
        let (t, y) = row.split_once(',').expect("two columns");
        t.parse::<f64>().expect("numeric time");
        y.parse::<f64>().expect("numeric value");
    }

    assert!(
        trace.samples.windows(2).all(|w| w[0].t < w[1].t),
        "rows sorted by simulated time"
    );
}

#[test]
fn unknown_probe_target_fails_before_the_run() {
    let mut c = rc_circuit();
    let opts = TranOptions::for_duration(1e-6)
        .with_probes(ProbePlan::parse("v(no_such_node)").expect("grammar ok"));
    match run_transient(&mut c, &opts, &mut []) {
        Err(SpiceError::NotFound { .. }) => {}
        other => panic!("expected NotFound, got {other:?}"),
    }
}

#[test]
fn decimation_respects_the_budget_during_a_long_run() {
    let mut c = rc_circuit();
    let budget = 64;
    let opts = TranOptions {
        dt_max: Some(5e-9),
        ..TranOptions::for_duration(5e-6)
    }
    .with_probes(
        ProbePlan::parse("v(out)")
            .expect("spec parses")
            .with_budget(budget),
    );
    let result = run_transient(&mut c, &opts, &mut []).expect("converges");
    let trace = result.probes.trace("v(out)").expect("captured");
    assert!(trace.offered > budget as u64, "run too short to decimate");
    assert!(trace.compactions > 0);
    assert!(trace.samples.len() <= budget);
    // The envelope survives: retained extremes equal the signal extremes
    // (the decimator keeps each group's min and max member).
    let retained_max = trace.samples.iter().map(|s| s.y).fold(f64::MIN, f64::max);
    assert!(retained_max > 0.9, "peak lost: {retained_max}");
}

proptest! {
    /// Decimated capture stays inside the dense capture's envelope, keeps
    /// the global extremes, keeps time order, and never exceeds its
    /// budget — for arbitrary signals and budgets.
    #[test]
    fn decimation_envelope_bounds_dense_capture(
        ys in proptest::collection::vec(-1e3f64..1e3, 1..600),
        budget in 8usize..64,
    ) {
        let mut buf = ProbeBuffer::new(budget);
        for (i, y) in ys.iter().enumerate() {
            buf.push(i as f64 * 1e-9, *y);
        }
        let samples = buf.samples();
        prop_assert!(samples.len() <= budget.max(8));
        prop_assert_eq!(buf.offered(), ys.len() as u64);

        // Time-ordered, and every sample is genuine (no synthesized points).
        for w in samples.windows(2) {
            prop_assert!(w[0].t < w[1].t);
        }
        for s in samples {
            let idx = (s.t / 1e-9).round() as usize;
            prop_assert!((ys[idx] - s.y).abs() == 0.0, "synthesized sample at {}", s.t);
        }

        // Envelope: retained min/max equal the dense min/max.
        let dense_min = ys.iter().cloned().fold(f64::INFINITY, f64::min);
        let dense_max = ys.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let kept_min = samples.iter().map(|s| s.y).fold(f64::INFINITY, f64::min);
        let kept_max = samples.iter().map(|s| s.y).fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(dense_min, kept_min);
        prop_assert_eq!(dense_max, kept_max);
    }

    /// The most recent sample always survives decimation (compaction runs
    /// *before* the newest push lands), so the capture never loses the
    /// signal's current value.
    #[test]
    fn decimation_keeps_the_newest_sample(
        ys in proptest::collection::vec(-10.0f64..10.0, 9..400),
    ) {
        let mut buf = ProbeBuffer::new(8);
        for (i, y) in ys.iter().enumerate() {
            buf.push(i as f64, *y);
        }
        let samples = buf.samples();
        prop_assert!(!samples.is_empty());
        let last = samples.last().unwrap();
        prop_assert_eq!(last.t, (ys.len() - 1) as f64);
        prop_assert_eq!(last.y, *ys.last().unwrap());
    }
}
