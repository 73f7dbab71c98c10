//! Accuracy guard on the level histograms' bin ratios.
//!
//! A level's read resistance has σ/μ of only 2.2e-3 to 7.0e-3, so a bin
//! ratio chosen too coarse moves the quantiles, the sigma margins and
//! then the density verdicts. This binary runs the checklist's campaign
//! (the paper's QLC allocation at 120 runs per level, seeded) with the
//! global observers installed, and holds every streamed quantile to the
//! exact order statistic of the same samples, and the 4/5/6-bit verdicts
//! to the committed `results/levels_repro_all.json`. It contains one test,
//! the only one to install the global observers.

use oxterm_bench::campaigns::supervised_qlc_campaign;
use oxterm_bench::levels_report::LevelReport;
use oxterm_mc::supervisor::SupervisorOptions;
use oxterm_telemetry::joule::{JouleLedger, ENERGY_RATIO, LATENCY_RATIO};
use oxterm_telemetry::LevelTracker;

/// The exact order statistic at the histograms' rank `round(q·(n−1))`.
fn order_statistic(mut values: Vec<f64>, q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    values[(q * (values.len() - 1) as f64).round() as usize]
}

/// The `feasible` flag of the `bits`-bit verdict in an `oxterm-levels/1`
/// artifact.
fn committed_feasible(json: &str, bits: u32) -> bool {
    let at = json
        .find(&format!("{{\"bits\":{bits},"))
        .unwrap_or_else(|| panic!("no {bits}-bit verdict"));
    let verdict = &json[at..at + json[at..].find('}').expect("closed object")];
    match (
        verdict.contains("\"feasible\":true"),
        verdict.contains("\"feasible\":false"),
    ) {
        (true, false) => true,
        (false, true) => false,
        _ => panic!("{bits}-bit verdict has no feasible flag: {verdict}"),
    }
}

#[test]
fn checklist_quantiles_sit_within_a_tenth_sigma_and_the_verdicts_hold() {
    LevelTracker::install(LevelTracker::enabled());
    JouleLedger::install(JouleLedger::enabled());
    let (campaign, outcome) =
        supervised_qlc_campaign(120, &SupervisorOptions::default()).expect("campaign runs");
    assert_eq!(outcome.failures, 0);
    let levels = LevelTracker::global().snapshot();
    let energy = JouleLedger::global().snapshot();
    assert_eq!(levels.levels.len(), 16);
    for lc in &campaign {
        let code = lc.spec.code;
        let level = levels
            .levels
            .iter()
            .find(|l| l.code == code)
            .expect("tracked");
        let rollup = energy
            .levels
            .iter()
            .find(|l| l.code == code)
            .expect("ledgered");
        assert_eq!(level.n, 120);
        for (q, got) in [(0.01, level.p01), (0.50, level.p50), (0.99, level.p99)] {
            let exact = order_statistic(lc.resistances(), q);
            let err = (got - exact).abs() / level.std_dev;
            assert!(
                err <= 0.1,
                "level {code:04b} p{:02.0}: {got} is {err:.3}σ from {exact}",
                q * 100.0
            );
        }
        let latencies = lc.outcomes.iter().map(|o| o.latency_s).collect();
        for (what, got, values, ratio) in [
            ("energy", rollup.p50_j, lc.energies(), ENERGY_RATIO),
            ("latency", rollup.p50_latency_s, latencies, LATENCY_RATIO),
        ] {
            let exact = order_statistic(values, 0.5);
            let err = (got / exact - 1.0).abs();
            assert!(
                err <= ratio - 1.0,
                "level {code:04b} {what} p50: {got} is {err:.2e} from {exact}"
            );
        }
    }
    let report = LevelReport::from_snapshot(&levels).expect("16 full levels");
    let committed = std::fs::read_to_string(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../results/levels_repro_all.json"
    ))
    .expect("committed level artifact");
    for bits in [4, 5, 6] {
        let verdict = report
            .verdicts
            .iter()
            .find(|v| v.bits == bits)
            .expect("verdict");
        assert_eq!(
            verdict.feasible,
            committed_feasible(&committed, bits),
            "{bits}-bit verdict flipped: {verdict:?}"
        );
    }
}
