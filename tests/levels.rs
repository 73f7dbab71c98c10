//! End-to-end coverage of the streaming level-observability chain: a
//! real MC campaign feeds the global tracker one observation per
//! programmed level per run, and the report layer reproduces the batch
//! statistics from streaming state alone, and the one drift gate
//! (`oxterm_bench::baseline`) passes a clean re-run of the flat summary
//! while flagging (and naming) a perturbed level.

use oxterm_bench::baseline::check;
use oxterm_bench::campaigns::mc_campaign;
use oxterm_bench::levels_report::LevelReport;
use oxterm_mlc::levels::LevelAllocation;
use oxterm_rram::params::OxramParams;
use oxterm_telemetry::LevelTracker;

#[test]
fn campaign_feeds_tracker_and_streaming_report_matches_batch() {
    // First-wins process-global install: this is the only test in the
    // binary that touches the global tracker.
    LevelTracker::install(LevelTracker::enabled());
    let params = OxramParams::calibrated();
    let alloc = LevelAllocation::paper_qlc();
    let runs = 25;
    let campaign = mc_campaign(&params, &alloc, runs, 0xA11);

    let snap = LevelTracker::global().snapshot();
    assert_eq!(snap.levels.len(), 16, "one tracked cell per QLC level");
    for level in &snap.levels {
        assert_eq!(
            level.n, runs as u64,
            "level {:04b}: exactly one observation per successful run",
            level.code
        );
    }

    // The streaming report must retell the batch story: same medians
    // (within the histogram's bin half-width on 25 samples) and positive
    // worst-pair separation.
    let report = LevelReport::from_snapshot(&snap).expect("16 full levels");
    assert_eq!(report.levels.len(), 16);
    assert_eq!(report.margins.len(), 15);
    assert_eq!(report.verdicts.len(), 4);
    for cell in &campaign {
        let samples = cell.to_level_samples();
        let mut sorted = samples.r.clone();
        sorted.sort_by(f64::total_cmp);
        let batch_median = sorted[sorted.len() / 2];
        let row = report
            .levels
            .iter()
            .find(|l| l.code == samples.code)
            .expect("level present in report");
        let rel = (row.p50 - batch_median).abs() / batch_median;
        assert!(
            rel < 0.02,
            "level {:04b}: streaming p50 {} vs batch median {}",
            samples.code,
            row.p50,
            batch_median
        );
    }
    let worst = report.worst_margin().expect("15 margin rows");
    assert!(
        worst.sigma_margin > 3.0,
        "paper QLC allocation separates every pair: {worst:?}"
    );
    // The artifact forms render and carry the schema tags downstream
    // tooling keys on.
    assert!(report.to_json().contains("\"schema\":\"oxterm-levels/1\""));
    assert!(report
        .to_flat_json()
        .contains("\"schema\":\"oxterm-levels-flat/1\""));
}

/// Builds a report from a locally-fed tracker: `shift` multiplies level
/// 0001's resistances, modeling a drifted model calibration.
fn local_report(shift: f64) -> LevelReport {
    let t = LevelTracker::enabled();
    let mut x = 0xBEEF_u64;
    let mut unit = || {
        let mut s = 0.0;
        for _ in 0..12 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            s += (x % 10_000) as f64 / 10_000.0;
        }
        s - 6.0
    };
    for _ in 0..200 {
        t.observe(0, 50e-6, 40e3 + 0.4e3 * unit());
        t.observe(1, 45e-6, shift * (48e3 + 0.5e3 * unit()));
        t.observe(2, 40e-6, 58e3 + 0.6e3 * unit());
    }
    LevelReport::from_snapshot(&t.snapshot()).expect("three levels")
}

#[test]
fn drift_gate_passes_clean_rerun_and_flags_perturbed_level() {
    let baseline = local_report(1.0).to_flat_json();

    // Same deterministic feed → identical statistics → OK.
    let clean = local_report(1.0).to_flat_json();
    let verdict = check(Ok(baseline.clone()), Some(&clean)).expect("clean re-run passes");
    assert!(verdict.contains("OK"), "{verdict}");

    // An 8% shift of one level against the ±5% bound: flagged, named.
    let perturbed = local_report(1.08).to_flat_json();
    let verdict = check(Ok(baseline), Some(&perturbed)).expect_err("perturbed level fails");
    assert!(
        verdict.contains("worst-drifting key: level.0001."),
        "{verdict}"
    );
}
