//! The terminated RESET as a quadrature over the cell voltage.
//!
//! During a RESET `ρ` only falls, so the cell voltage `v_c` only rises, and
//! the fast path computes the latency and both energies as integrals over
//! `v_c` from its start to `v* = v_drive − IrefR·r_series`, by a five-point
//! Gauss–Legendre rule on panels that halve the current. Here the same
//! integrals are summed by a 20-node rule on 64 panels, written out from the
//! public cell law, for the 16 QLC references on the nominal cell and on 40
//! sampled Monte Carlo instances, from three start states, and for the
//! fixed-width RESETs, which end where the summed latency reaches the
//! width. The other tests pin the edge behaviour: a reference met at pulse
//! start, a cell that never moves, a latency past `t_max`, the chaos hook,
//! the panel count, a panel split at the Joule clamp, and a read resistance
//! that no panel reaches.
//!
//! This binary installs the global telemetry and joule ledger (the cell
//! energy is read off the ledger), so its tests take one lock and run one
//! at a time.

use std::sync::{Mutex, MutexGuard, PoisonError};

use oxterm_chaos::FaultPlan;
use oxterm_mlc::levels::LevelAllocation;
use oxterm_mlc::program::{McVariability, ProgramConditions};
use oxterm_numerics::roots::{newton_bracketed, RootOptions};
use oxterm_rram::calib::{
    simulate_reset_references, simulate_reset_termination, simulate_standard_reset,
    ResetConditions, StandardResetPulse, TerminationOutcome,
};
use oxterm_rram::model::CellLaw;
use oxterm_rram::params::{InstanceVariation, OxramParams};
use oxterm_rram::RramError;
use oxterm_telemetry::joule::{JouleLedger, Role};
use oxterm_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The bound on each quadrature output's relative error.
const BOUND: f64 = 1e-5;
/// Sampled Monte Carlo instances besides the nominal cell.
const MC_INSTANCES: usize = 40;

static SERIAL: Mutex<()> = Mutex::new(());

/// A test's turn with the global observers; it merges the thread's
/// observer shards before it unlocks.
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

/// The `n`-node Gauss–Legendre rule on `[−1, 1]`: `(node, weight)`, each
/// node by Newton's method on the Legendre polynomial `P_n`.
fn gauss_legendre(n: usize) -> Vec<(f64, f64)> {
    // `(P_n(x), P_n'(x))` by the three-term recurrence.
    let legendre = |x: f64| {
        let (mut p0, mut p1) = (1.0, x);
        for j in 2..=n {
            let j = j as f64;
            (p0, p1) = (p1, ((2.0 * j - 1.0) * x * p1 - (j - 1.0) * p0) / j);
        }
        (p1, n as f64 * (x * p1 - p0) / (x * x - 1.0))
    };
    (0..n)
        .map(|k| {
            let mut x = (std::f64::consts::PI * (k as f64 + 0.75) / (n as f64 + 0.5)).cos();
            for _ in 0..100 {
                let (p, dp) = legendre(x);
                x -= p / dp;
                if (p / dp).abs() < 1e-16 {
                    break;
                }
            }
            let dp = legendre(x).1;
            (x, 2.0 / ((1.0 - x * x) * dp * dp))
        })
        .collect()
}

/// The integrands at cell voltage `v`, from the public cell law: `1/v̇`,
/// `v_drive·i/v̇` and `v·i/v̇`, with `v̇ = dv_c/dt`. The circuit holds
/// `I(v_c, ρ) = i` while `ρ` falls at `ρ·reset_rate`.
fn integrands(law: &CellLaw, cond: &ResetConditions, v: f64) -> [f64; 3] {
    let i = (cond.v_drive - v) / cond.r_series;
    let (rho2, di_dv, di_drho2) = law.rho2_and_slopes(v, i);
    let rate = law.reset_rate(v, i, 0.5 * rho2.ln());
    let v_dot = 2.0 * rho2 * di_drho2 * rate / (di_dv + 1.0 / cond.r_series);
    [1.0 / v_dot, cond.v_drive * i / v_dot, v * i / v_dot]
}

/// The latency, driver energy and cell energy from the start current
/// `i_initial` down to `i_ref`, by `rule` on `panels` panels geometric in
/// the current.
fn fine(
    law: &CellLaw,
    cond: &ResetConditions,
    i_initial: f64,
    i_ref: f64,
    rule: &[(f64, f64)],
    panels: usize,
) -> [f64; 3] {
    let v = |j: usize| {
        let i = i_initial * (i_ref / i_initial).powf(j as f64 / panels as f64);
        cond.v_drive - i * cond.r_series
    };
    let mut sum = [0.0; 3];
    for j in 0..panels {
        let (a, b) = (v(j), v(j + 1));
        let (mid, half) = (0.5 * (a + b), 0.5 * (b - a));
        for &(x, w) in rule {
            let f = integrands(law, cond, mid + half * x);
            for q in 0..3 {
                sum[q] += w * half * f[q];
            }
        }
    }
    sum
}

/// `work`'s result, and the cell energy it added to the joule ledger.
fn cell_energy<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let cell = || {
        JouleLedger::global()
            .snapshot()
            .roles
            .iter()
            .find(|r| r.role == Role::RramCell)
            .map_or(0.0, |r| r.total_j())
    };
    let before = cell();
    let out = work();
    (out, cell() - before)
}

/// `work`'s result, and what it added to a telemetry counter.
fn counted<T>(key: &str, work: impl FnOnce() -> T) -> (T, u64) {
    let count = || Telemetry::global().report().counter(key).unwrap_or(0);
    let before = count();
    let out = work();
    (out, count() - before)
}

/// The nominal cell, then `MC_INSTANCES` sampled ones: the cell variation,
/// the program conditions and the reference-current factor of each.
fn instances(p: &OxramParams) -> Vec<(InstanceVariation, ProgramConditions, f64)> {
    let cond = ProgramConditions::paper();
    let mut rng = StdRng::seed_from_u64(0x9A_D0);
    let var = McVariability::default();
    std::iter::once((InstanceVariation::nominal(), cond, 1.0))
        .chain((0..MC_INSTANCES).map(|_| var.sample(p, &cond, &mut rng)))
        .collect()
}

fn qlc_refs() -> Vec<f64> {
    LevelAllocation::paper_qlc()
        .levels()
        .iter()
        .map(|l| l.i_ref)
        .collect()
}

#[test]
fn the_fine_rule_is_converged() {
    let _serial = serial();
    let rule = gauss_legendre(20);
    let total: f64 = rule.iter().map(|&(_, w)| w).sum();
    assert!((total - 2.0).abs() < 1e-14, "weights sum to {total}");
    // Exact for polynomials up to degree 39.
    let x38: f64 = rule.iter().map(|&(x, w)| w * x.powi(38)).sum();
    assert!((x38 - 2.0 / 39.0).abs() < 1e-14, "{x38}");
    // On the nominal cell at the slowest level, halving the panels moves
    // no output by more than a hundredth of the bound.
    let p = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    let law = CellLaw::new(&p, &inst);
    let cond = ResetConditions::paper_defaults(6e-6);
    let out = simulate_reset_termination(&p, &inst, &cond).unwrap();
    let [half, full] = [32, 64].map(|n| fine(&law, &cond, out.i_initial, 6e-6, &rule, n));
    for q in 0..3 {
        assert!(
            (half[q] / full[q] - 1.0).abs() < 1e-2 * BOUND,
            "{half:?} vs {full:?}"
        );
    }
}

#[test]
fn quadrature_matches_the_fine_rule_at_every_qlc_level() {
    let _serial = serial();
    let p = OxramParams::calibrated();
    let rule = gauss_legendre(20);
    let names = ["latency", "drive energy", "cell energy"];
    let mut worst = [0f64; 3];
    for (n, (inst, cond, factor)) in instances(&p).into_iter().enumerate() {
        let law = CellLaw::new(&p, &inst);
        for rho_start in [1.0, 0.88, 0.8] {
            let cond = ResetConditions {
                rho_start,
                ..cond.reset
            };
            for i_ref in qlc_refs().into_iter().map(|i| i * factor) {
                let cond = ResetConditions { i_ref, ..cond };
                let (out, e_cell) = cell_energy(|| simulate_reset_termination(&p, &inst, &cond));
                let out = out.expect("terminates");
                let want = fine(&law, &cond, out.i_initial, i_ref, &rule, 64);
                let got = [out.latency_s, out.energy_j, e_cell];
                for q in 0..3 {
                    let err = (got[q] / want[q] - 1.0).abs();
                    assert!(
                        err <= BOUND,
                        "instance {n}, ρ0 {rho_start}, {:.2} µA, {}: {:.9e} vs {:.9e} ({err:.2e})",
                        i_ref * 1e6,
                        names[q],
                        got[q],
                        want[q]
                    );
                    worst[q] = worst[q].max(err);
                }
            }
        }
    }
    println!("worst relative error (latency, drive energy, cell energy): {worst:?}");
}

#[test]
fn the_read_resistance_never_goes_through_the_panels() {
    // A terminated RESET's state and read resistance follow from `v*` and
    // IrefR alone, through the per-node conduction law: no quadrature
    // panel and no shared exponential reaches them.
    let _serial = serial();
    let p = OxramParams::calibrated();
    let mut checked = 0;
    for (n, (inst, cond, factor)) in instances(&p).into_iter().enumerate() {
        let law = CellLaw::new(&p, &inst);
        for rho_start in [1.0, 0.88, 0.8] {
            for i_ref in qlc_refs().into_iter().map(|i| i * factor) {
                let cond = ResetConditions {
                    rho_start,
                    i_ref,
                    ..cond.reset
                };
                let out = simulate_reset_termination(&p, &inst, &cond).expect("terminates");
                if out.i_initial <= i_ref {
                    continue;
                }
                let rho = law.rho_at(cond.v_drive - i_ref * cond.r_series, i_ref);
                let r = law.read_resistance(rho, cond.v_read);
                assert_eq!(
                    (out.rho_final.to_bits(), out.r_read_ohms.to_bits()),
                    (rho.to_bits(), r.to_bits()),
                    "instance {n}, ρ0 {rho_start}, {:.2} µA",
                    i_ref * 1e6
                );
                checked += 1;
            }
        }
    }
    assert_eq!(checked, (MC_INSTANCES + 1) * 3 * 16);
}

/// The cell voltage at which the cell in state `rho` draws what the drive
/// of `cond` delivers.
fn divider(law: &CellLaw, cond: &ResetConditions, rho: f64) -> f64 {
    let fdf = |v: f64| {
        let (i, di) = law.current_and_slope(v, rho);
        (
            i - (cond.v_drive - v) / cond.r_series,
            di + 1.0 / cond.r_series,
        )
    };
    newton_bracketed(fdf, 0.0, cond.v_drive, f64::NAN, RootOptions::default())
        .expect("the divider brackets its root")
}

#[test]
fn fixed_width_resets_match_the_fine_rule() {
    let _serial = serial();
    let p = OxramParams::calibrated();
    let rule = gauss_legendre(20);
    // The cycling RESET of Fig 3, the 3 V baseline (whose cell nears the
    // hopping limit, where `ρ²` falls much faster than the current) and
    // the 60 µs worst-case pulse.
    let paper = ResetConditions::paper_defaults(f64::NAN);
    let pulses = [
        StandardResetPulse {
            v_drive: 1.38,
            r_series: 3.0e3,
            width: 3.5e-6,
        },
        StandardResetPulse::paper_baseline(),
        StandardResetPulse {
            v_drive: paper.v_drive,
            r_series: paper.r_series,
            width: paper.t_max,
        },
    ];
    let mut worst = [0f64; 2];
    for (n, (inst, _, _)) in instances(&p).into_iter().enumerate() {
        let law = CellLaw::new(&p, &inst);
        for pulse in &pulses {
            let out = simulate_standard_reset(&p, &inst, pulse, 1.0, 0.3).unwrap();
            let cond = ResetConditions {
                v_drive: pulse.v_drive,
                r_series: pulse.r_series,
                ..paper
            };
            // The current where the pulse ended, and the fine rule's
            // latency and drive energy to it.
            let v_end = divider(&law, &cond, out.rho_final);
            let i_end = (cond.v_drive - v_end) / cond.r_series;
            let want = fine(&law, &cond, out.i_initial, i_end, &rule, 256);
            let errs = [
                (want[0] / pulse.width - 1.0).abs(),
                (out.energy_j / want[1] - 1.0).abs(),
            ];
            for (q, err) in errs.into_iter().enumerate() {
                assert!(
                    err <= BOUND,
                    "instance {n}, {pulse:?}, output {q}: error {err:.2e}"
                );
                worst[q] = worst[q].max(err);
            }
        }
    }
    println!("worst relative error (latency, drive energy): {worst:?}");
}

#[test]
fn a_panel_splits_at_the_joule_clamp() {
    let _serial = serial();
    // A card whose Joule factor clamps above ≈ 50 µA: between the start
    // current (≈ 95 µA) and the 20 µA reference, inside the first panel.
    let mut p = OxramParams::calibrated();
    p.i_joule = 5e-8;
    let i_clamp = (1e6f64 - 1.0).sqrt() * p.i_joule;
    let inst = InstanceVariation::nominal();
    let law = CellLaw::new(&p, &inst);
    let cond = ResetConditions::paper_defaults(20e-6);
    let ((out, panels), e_cell) = cell_energy(|| {
        counted("rram.termination.steps", || {
            simulate_reset_termination(&p, &inst, &cond).unwrap()
        })
    });
    assert!(out.i_initial > i_clamp && i_clamp > 0.5 * out.i_initial);
    // The first panel in two, the second whole, and the partial one.
    assert_eq!(panels, 4);
    // Against the fine rule split at the clamp too.
    let rule = gauss_legendre(20);
    let [a, b] = [
        fine(&law, &cond, out.i_initial, i_clamp, &rule, 64),
        fine(&law, &cond, i_clamp, cond.i_ref, &rule, 64),
    ];
    let got = [out.latency_s, out.energy_j, e_cell];
    for q in 0..3 {
        let want = a[q] + b[q];
        let err = (got[q] / want - 1.0).abs();
        assert!(
            err <= BOUND,
            "output {q}: {:e} vs {want:e} ({err:.2e})",
            got[q]
        );
    }
}

/// The nominal cell's RESET to `i_ref` under `cond`.
fn nominal_reset(cond: &ResetConditions, i_ref: f64) -> Result<TerminationOutcome, RramError> {
    let p = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    simulate_reset_termination(&p, &inst, &ResetConditions { i_ref, ..*cond })
}

/// The current the nominal cell starts a RESET under `cond` at.
fn start_current(cond: &ResetConditions) -> f64 {
    // A reference above every start current is met at once.
    nominal_reset(cond, 1.0).unwrap().i_initial
}

#[test]
fn a_reference_met_at_pulse_start_takes_no_panels() {
    let _serial = serial();
    for rho_start in [1.0, 0.8] {
        let cond = ResetConditions {
            rho_start,
            ..ResetConditions::paper_defaults(f64::NAN)
        };
        let i0 = start_current(&cond);
        let (out, panels) = counted("rram.termination.steps", || {
            nominal_reset(&cond, 1.5 * i0).unwrap()
        });
        assert_eq!(panels, 0);
        assert_eq!(out.latency_s, 0.0);
        assert_eq!(out.energy_j, 0.0);
        assert_eq!(out.rho_final, rho_start);
        assert_eq!(out.i_initial, i0);
    }
}

#[test]
fn termination_steps_count_the_panels_to_each_reference() {
    let _serial = serial();
    // Panel `k` takes the current from `i0/2^k` to half that, so a
    // reference in it reads `k` whole panels and one partial panel.
    let cond = ResetConditions::paper_defaults(f64::NAN);
    let i0 = start_current(&cond);
    for i_ref in qlc_refs() {
        let (out, panels) = counted("rram.termination.steps", || nominal_reset(&cond, i_ref));
        out.unwrap();
        let k = (i0 / i_ref).log2().floor() as u64;
        assert_eq!(
            panels,
            k + 1,
            "{:.0} µA from {:.2} µA",
            i_ref * 1e6,
            i0 * 1e6
        );
    }
}

#[test]
fn a_cell_held_below_the_rate_threshold_never_terminates() {
    let _serial = serial();
    // At 0.35 V the divider leaves the cell below `v_rst_floor` (0.3 V),
    // where the state does not move: the current stays at its start value.
    let cond = ResetConditions {
        v_drive: 0.35,
        ..ResetConditions::paper_defaults(f64::NAN)
    };
    let i0 = start_current(&cond);
    let (out, misses) = counted("rram.termination.not_terminated", || {
        nominal_reset(&cond, 0.5 * i0)
    });
    assert_eq!(misses, 1);
    match out {
        Err(RramError::NotTerminated { i_final, t_max, .. }) => {
            assert_eq!(i_final, i0);
            assert_eq!(t_max, cond.t_max);
        }
        other => panic!("{other:?}"),
    }
}

/// Asserts `out` is `NotTerminated` at `t_max` with the current the cell
/// draws at `t_max`: a reference at that current is reached at `t_max`.
fn assert_current_at_t_max(out: Result<TerminationOutcome, RramError>, cond: &ResetConditions) {
    let Err(RramError::NotTerminated { i_final, t_max, .. }) = out else {
        panic!("expected NotTerminated, got {out:?}");
    };
    assert_eq!(t_max, cond.t_max);
    let open = ResetConditions {
        t_max: 1.0,
        ..*cond
    };
    let at = nominal_reset(&open, i_final).unwrap();
    assert!(
        (at.latency_s / t_max - 1.0).abs() < 1e-9,
        "{i_final:e} A is reached at {:e} s, not {t_max:e} s",
        at.latency_s
    );
}

#[test]
fn a_reference_past_t_max_reports_the_current_at_t_max() {
    let _serial = serial();
    let paper = ResetConditions::paper_defaults(f64::NAN);
    // The 6 µA level takes ≈ 4.4 µs; stop at 2 µs.
    let cond = ResetConditions {
        t_max: 2e-6,
        ..paper
    };
    assert!(nominal_reset(&paper, 6e-6).unwrap().latency_s > cond.t_max);
    assert_current_at_t_max(nominal_reset(&cond, 6e-6), &cond);
    // Below the hopping current the reference is never reached.
    let cond = ResetConditions {
        t_max: 5e-6,
        ..paper
    };
    assert_current_at_t_max(nominal_reset(&cond, 1e-12), &cond);
    // Shared with references the cell does reach, each as alone.
    let refs = [20e-6, 1e-12, 2e-6, 36e-6];
    let shared = simulate_reset_references(
        &OxramParams::calibrated(),
        &InstanceVariation::nominal(),
        &cond,
        &refs,
    );
    for (&i_ref, out) in refs.iter().zip(shared) {
        assert_eq!(out, nominal_reset(&cond, i_ref), "{i_ref:e}");
    }
}

#[test]
fn a_stalled_start_fails_every_reference_of_the_job() {
    let _serial = serial();
    let plan = FaultPlan::parse("newton_stall:p=1.0,seed=1").expect("spec parses");
    oxterm_chaos::begin_run(plan, 0, 0);
    let cond = ResetConditions::paper_defaults(f64::NAN);
    let p = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    // The hook fires at the job's start, before a reference met at pulse
    // start is read.
    let (outs, stalls) = counted("chaos.injected.newton_stall", || {
        simulate_reset_references(&p, &inst, &cond, &[1.0, 20e-6])
    });
    assert_eq!(stalls, 1);
    for out in outs {
        assert!(
            matches!(out, Err(RramError::Injected { site: "reset_fast" })),
            "{out:?}"
        );
    }
    // It fires once per attempt.
    assert!(simulate_reset_references(&p, &inst, &cond, &[20e-6])[0].is_ok());
    oxterm_chaos::end_run();
}
