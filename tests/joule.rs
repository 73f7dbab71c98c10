//! End-to-end tests of the streaming joule ledger and energy report.
//!
//! The campaign-fed test runs a real (reduced) Monte Carlo campaign with
//! the process-global ledger armed and checks the full pipeline: per-level
//! energy/latency statistics, batch-vs-streaming agreement, role×phase
//! attribution coverage, termination savings against the worst-case
//! open-loop pulse, and the `oxterm-energy/1` serialization. It is the
//! only test in this binary that feeds the global ledger — the quadrature
//! properties below use local handles and pure waveforms so per-level
//! counts stay exact.

use proptest::prelude::*;

use oxterm_bench::campaigns::mc_campaign;
use oxterm_bench::energy_report::{EnergyReport, WorstCaseBaseline, ENERGY_SCHEMA};
use oxterm_mlc::levels::LevelAllocation;
use oxterm_rram::params::OxramParams;
use oxterm_spice::waveform::Waveform;
use oxterm_telemetry::joule::{JouleLedger, Role};

#[test]
fn campaign_feeds_a_complete_energy_report() {
    JouleLedger::install(JouleLedger::enabled());
    let runs = 6;
    let campaign = mc_campaign(
        &OxramParams::calibrated(),
        &LevelAllocation::paper_qlc(),
        runs,
        0xE2E_2026,
    );
    let snap = JouleLedger::global().snapshot();
    let worst = WorstCaseBaseline::paper_open_loop().expect("open-loop baseline simulates");
    let report = EnergyReport::from_snapshot(&snap, worst).expect("report builds");

    // Every level reported, with exactly the campaign's sample count.
    assert_eq!(report.levels.len(), 16);
    for l in &report.levels {
        assert_eq!(l.n as usize, runs, "level {:04b}", l.code);
        assert!(l.mean_j > 1e-13, "level {:04b} mean {}", l.code, l.mean_j);
        assert!(l.mean_latency_s > 1e-8, "level {:04b}", l.code);
        // Termination savings must be positive for every level — the
        // open-loop pulse burns the whole 60 µs budget at the same drive.
        assert!(
            l.saved_j > 0.0,
            "level {:04b} saved_j {}",
            l.code,
            l.saved_j
        );
        assert!(
            l.saved_s > 0.0,
            "level {:04b} saved_s {}",
            l.code,
            l.saved_s
        );
    }
    // Lower compliance currents mean longer, more energetic RESETs
    // (paper Fig 13): the '1111' level must out-cost '0000'.
    let first = &report.levels[0];
    let last = &report.levels[15];
    assert!(last.mean_j > 2.0 * first.mean_j);
    assert!(last.mean_latency_s > 2.0 * first.mean_latency_s);

    // Streaming means match the batch vectors bit-for-bit-ish (the same
    // contract the fig13 in-binary cross-check enforces).
    for lc in &campaign {
        let level = report
            .levels
            .iter()
            .find(|l| l.code == lc.spec.code)
            .expect("level present");
        let n = lc.outcomes.len() as f64;
        let batch_e = lc.energies().iter().sum::<f64>() / n;
        let batch_t = lc.latencies().iter().sum::<f64>() / n;
        assert!((level.mean_j - batch_e).abs() / batch_e <= 1e-9);
        assert!((level.mean_latency_s - batch_t).abs() / batch_t <= 1e-9);
    }

    // Role attribution: the fast path splits every drive joule between
    // the cell and the series path, so ≥95% of the dissipated energy
    // carries a named role.
    assert!(
        report.attributed_frac >= 0.95,
        "attributed {}",
        report.attributed_frac
    );
    for role in [Role::RramCell, Role::AccessTransistor] {
        let r = report
            .roles
            .iter()
            .find(|r| r.role == role)
            .unwrap_or_else(|| panic!("{} attributed", role.label()));
        assert!(r.total_j > 0.0, "{} energy {}", role.label(), r.total_j);
    }

    // Serializations carry the schema tag and every level.
    let nested = report.to_json();
    assert!(nested.contains(&format!("\"schema\":\"{ENERGY_SCHEMA}\"")));
    assert!(nested.contains("\"code\":\"1111\""));
}

/// Ledger-style running trapezoid accumulation (`0.5·(p₀+p₁)·dt` per
/// completed interval) replayed over arbitrary samples.
fn running_trapezoid(t: &[f64], p: &[f64]) -> f64 {
    let mut acc = 0.0;
    for w in 1..t.len() {
        acc += 0.5 * (p[w - 1] + p[w]) * (t[w] - t[w - 1]);
    }
    acc
}

proptest! {
    /// The running accumulation used by the power meter and the calib
    /// fast path computes exactly `Waveform::integral`'s trapezoid sum —
    /// one quadrature convention across the whole stack.
    #[test]
    fn running_accumulation_matches_waveform_integral(
        samples in proptest::collection::vec((1e-9f64..1e-6, -1e-3f64..1e-3), 2..60),
    ) {
        let mut t = Vec::with_capacity(samples.len());
        let mut p = Vec::with_capacity(samples.len());
        let mut now = 0.0;
        for (dt, power) in samples {
            now += dt;
            t.push(now);
            p.push(power);
        }
        let wave = Waveform::from_parts(t.clone(), p.clone());
        let direct = running_trapezoid(&t, &p);
        let viaw = wave.integral();
        prop_assert!(
            (direct - viaw).abs() <= 1e-12 * direct.abs().max(1e-15),
            "running {direct:.17e} vs waveform {viaw:.17e}"
        );
    }

    /// Trapezoid quadrature is exact (to roundoff) on piecewise-linear
    /// pulses sampled at their breakpoints — the synthetic-pulse anchor
    /// for the energy integrals.
    #[test]
    fn trapezoid_is_exact_on_piecewise_linear_pulses(
        breaks in proptest::collection::vec((1e-9f64..1e-6, 0.0f64..1e-3), 2..40),
    ) {
        let mut t = vec![0.0];
        let mut p = vec![0.0];
        let mut exact = 0.0;
        let mut now = 0.0;
        for (dt, power) in breaks {
            // Analytic integral of the linear segment from the previous
            // breakpoint, accumulated independently of the waveform code.
            exact += 0.5 * (p[p.len() - 1] + power) * dt;
            now += dt;
            t.push(now);
            p.push(power);
        }
        let wave = Waveform::from_parts(t, p);
        let got = wave.integral();
        prop_assert!(
            (got - exact).abs() <= 1e-12 * exact.abs().max(1e-15),
            "trapezoid {got:.17e} vs analytic {exact:.17e}"
        );
    }

    /// Against a genuinely curved power profile — the discharging-RC
    /// analytic form `p(t) = P₀·e^(−2t/τ)` — the trapezoid error shrinks
    /// with the square of the step, staying inside the classical
    /// `(b−a)·h²·max|p″|/12` bound.
    #[test]
    fn trapezoid_error_is_second_order_on_exponential_decay(
        p0 in 1e-6f64..1e-3,
        tau in 1e-7f64..1e-5,
        n in 64usize..512,
    ) {
        let span = 2.0 * tau;
        let h = span / n as f64;
        let t: Vec<f64> = (0..=n).map(|i| i as f64 * h).collect();
        let p: Vec<f64> = t.iter().map(|&ti| p0 * (-2.0 * ti / tau).exp()).collect();
        let got = Waveform::from_parts(t, p).integral();
        let exact = 0.5 * p0 * tau * (1.0 - (-2.0 * span / tau).exp());
        let bound = span * h * h / 12.0 * (4.0 * p0 / (tau * tau));
        prop_assert!(
            (got - exact).abs() <= bound * 1.0001 + 1e-18,
            "err {:.3e} exceeds trapezoid bound {bound:.3e}",
            (got - exact).abs()
        );
    }
}
