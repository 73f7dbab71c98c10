//! End-to-end checks of the Prometheus export surface: the text render of
//! a live registry (including folded `profile.*` phase totals) must pass
//! the strict format validator.

use oxterm_telemetry::metrics::{to_prometheus, validate_prometheus};
use oxterm_telemetry::{PhaseId, Profiler, Telemetry};

/// A registry shaped like a real bench run: counters, a histogram, a note,
/// and folded profiler phases.
fn populated_telemetry() -> Telemetry {
    let tel = Telemetry::enabled();
    tel.incr("mlc.program.fast_ops");
    tel.add("spice.newton.total_iterations", 185);
    tel.record("mc.engine.run_seconds", 1.5e-3);
    tel.record("mc.engine.run_seconds", 2.5e-3);
    tel.note("mc.engine.failed_run", "run 7: diverged");

    let prof = Profiler::enabled();
    {
        let _newton = prof.phase(PhaseId::TranNewton);
        let _lu = prof.phase(PhaseId::NewtonSolveLu);
    }
    prof.snapshot().fold_into(&tel);
    tel
}

#[test]
fn live_registry_renders_valid_prometheus_text() {
    let tel = populated_telemetry();
    let text = to_prometheus(&tel.report());
    validate_prometheus(&text).unwrap_or_else(|e| panic!("invalid exposition: {e}\n{text}"));
    assert!(text.contains("oxterm_mlc_program_fast_ops 1"), "{text}");
    assert!(
        text.contains("oxterm_spice_newton_total_iterations 185"),
        "{text}"
    );
    assert!(
        text.contains("# TYPE oxterm_mc_engine_run_seconds summary"),
        "{text}"
    );
    assert!(
        text.contains("oxterm_mc_engine_run_seconds_count 2"),
        "{text}"
    );
    // Folded phase totals ride the same surface.
    assert!(
        text.contains("oxterm_profile_tran_newton_solve_lu_calls 1"),
        "{text}"
    );
    assert!(
        text.contains("oxterm_note_events{log=\"mc.engine.failed_run\"} 1"),
        "{text}"
    );
}

#[test]
fn validator_is_strict_about_the_claimed_format() {
    validate_prometheus("oxterm_x_total 3\n").unwrap();
    validate_prometheus("oxterm_q{quantile=\"0.5\"} 1.5\n").unwrap();
    assert!(validate_prometheus("9starts_with_digit 1\n").is_err());
    assert!(validate_prometheus("no_value\n").is_err());
    assert!(validate_prometheus("bad_value twelve\n").is_err());
    assert!(validate_prometheus("# TYPE x flavor\n").is_err());
    assert!(validate_prometheus("x{k=bare} 1\n").is_err());
}
