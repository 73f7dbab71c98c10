//! The instrumentation layer under concurrent load: Monte Carlo workers
//! hammering shared counters/histograms, failure notes with replayable
//! seeds, and end-to-end metric flow from a real programming operation into
//! the process-global registry.
//!
//! This binary is the one place where installing the global telemetry is
//! fine: it owns its process. Tests share that global, so assertions on
//! engine-level metrics use lower bounds, while each test keys its own
//! uniquely-named metrics for exact checks.

use oxterm_mc::engine::MonteCarlo;
use oxterm_mc::supervisor::{per_attempt, run_supervised, CampaignOutcome, SupervisorOptions};
use oxterm_mlc::levels::LevelAllocation;
use oxterm_mlc::program::{program_cell_fast, ProgramConditions};
use oxterm_rram::params::{InstanceVariation, OxramParams};
use oxterm_telemetry::Telemetry;

/// Installs an enabled global exactly once and returns it.
fn global() -> &'static Telemetry {
    Telemetry::install(Telemetry::enabled());
    Telemetry::global()
}

#[test]
fn mc_workers_increment_shared_counters_concurrently() {
    let tel = global();
    let campaign = MonteCarlo::new(256, 0xC0FFEE).with_threads(8);
    let out: Vec<u64> = campaign.run(|i, _| {
        tel.incr("test.concurrent.increments");
        tel.add("test.concurrent.bulk", 3);
        tel.record("test.concurrent.index", i as f64 + 1.0);
        i as u64
    });
    assert_eq!(out.len(), 256);
    let report = tel.report();
    // Exact counts despite 8 workers racing on the same atomics.
    assert_eq!(report.counter("test.concurrent.increments"), Some(256));
    assert_eq!(report.counter("test.concurrent.bulk"), Some(256 * 3));
    let h = report.histogram("test.concurrent.index").unwrap();
    assert_eq!(h.count, 256);
    assert!((h.sum - (1..=256).sum::<u64>() as f64).abs() < 1e-6);
    // Engine self-metrics are shared with the other tests: lower bounds.
    assert!(report.counter("mc.engine.runs").unwrap_or(0) >= 256);
    assert!(report.counter("mc.engine.campaigns").unwrap_or(0) >= 1);
}

#[test]
fn failed_run_notes_carry_replayable_seeds() {
    let tel = global();
    let campaign = MonteCarlo::new(12, 0xBAD_5EED).with_threads(4);
    let out: CampaignOutcome<f64> = run_supervised(
        campaign,
        &SupervisorOptions::default(),
        per_attempt(|att, _| {
            let i = att.run_index;
            if i == 4 || i == 7 {
                Err(format!("synthetic divergence in run {i}"))
            } else {
                Ok(i as f64)
            }
        }),
    )
    .expect("supervision runs");
    assert_eq!(out.failures, 2);
    let report = tel.report();
    assert!(
        report
            .counter("mc.engine.convergence_failures")
            .unwrap_or(0)
            >= 2
    );
    // One note per exhausted run, not one per failed attempt.
    let notes = report.notes("mc.engine.failed_run").unwrap();
    for i in [4usize, 7] {
        let seed = format!("run {i} seed {:#018x}", campaign.seed_for_run(i));
        assert_eq!(
            notes.iter().filter(|n| n.contains(&seed)).count(),
            1,
            "failed run {i} should leave one note quoting {seed}; notes: {notes:?}"
        );
    }
}

#[test]
fn program_operation_reports_into_the_global_registry() {
    let tel = global();
    let params = OxramParams::calibrated();
    let alloc = LevelAllocation::paper_qlc();
    let cond = ProgramConditions::paper();
    let out = program_cell_fast(&params, &InstanceVariation::nominal(), &alloc, 5, &cond)
        .expect("nominal level-5 program succeeds");
    assert!(out.r_read_ohms > 10e3);
    let report = tel.report();
    assert!(report.counter("mlc.program.fast_ops").unwrap_or(0) >= 1);
    assert!(report.counter("rram.termination.runs").unwrap_or(0) >= 1);
    assert!(report.counter("rram.termination.steps").unwrap_or(0) >= 1);
    let latency = report.histogram("rram.termination.latency_s").unwrap();
    assert!(latency.count >= 1);
    assert!(latency.max > 0.0);
}

#[test]
fn report_serializes_all_global_metric_kinds() {
    let tel = global();
    tel.incr("test.serialize.counter");
    tel.record("test.serialize.hist", 0.125);
    tel.note("test.serialize.note", "one entry");
    let report = tel.report();
    let json = report.to_json();
    assert!(json.starts_with("{\"schema\":\"oxterm-telemetry/1\""));
    assert!(json.contains("\"test.serialize.counter\""));
    assert!(json.contains("\"test.serialize.hist\""));
    assert!(json.contains("\"one entry\""));
    let table = report.to_table();
    assert!(table.contains("test.serialize.counter"));
    assert!(table.contains("test.serialize.hist"));
}
