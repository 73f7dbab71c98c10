//! Accuracy of the fast SET and terminated RESET against a converged
//! fixed-step reference, and the error budget they are held to.
//!
//! The kernels take no time steps: they sum the time and energies as
//! quadratures over the cell voltage. The reference is the fixed-step
//! scheme they replaced, replayed here: the cell voltage frozen over each
//! step, trapezoid energy, and (for RESET) every output read at the
//! crossing interpolated within the step. That scheme is first order in
//! `dt`, so runs at `dt/8` and `dt/16` of the production step
//! Richardson-extrapolate to the converged value. Every output of the
//! kernels must sit within the budget of it — the worst Richardson error
//! estimate the fixed 2 ns step carried (0.41 %, 0.81 % and 0.92 % for
//! R_read, latency and energy), rounded up — and within a tighter measured
//! bound. The study covers the 16 QLC references on the nominal cell and on
//! sampled Monte Carlo instances, the SET that precedes them, and a SET
//! whose compliance engages mid-pulse.

use oxterm_mlc::levels::LevelAllocation;
use oxterm_mlc::program::{McVariability, ProgramConditions};
use oxterm_numerics::roots::{newton_warm, RootOptions};
use oxterm_rram::calib::{simulate_reset_references, simulate_set, ResetConditions, SetConditions};
use oxterm_rram::model;
use oxterm_rram::params::{InstanceVariation, OxramParams};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The error budget of the fixed 2 ns RESET step (R_read, latency,
/// energy), which any faster scheme must stay inside.
const BUDGET: [f64; 3] = [5e-3, 1e-2, 1e-2];
/// The kernels' pinned measured bound on the relative error of any output
/// against the extrapolated reference. When last measured the worst was
/// 1.4e-5, a SET energy (SET R_read 4.8e-6; RESET latency 1.1e-6, energy
/// 6.5e-7, R_read 9.6e-9); the bound keeps the margin of the replay's own
/// extrapolation error.
const MEASURED: f64 = 1e-3;
/// Replay steps are `dt/8` and `dt/16` of the production step.
const FINE: [f64; 2] = [8.0, 16.0];
/// The production step of the fixed-step SET the kernel replaced (s).
const SET_DT: f64 = 0.5e-9;
/// The production step of the fixed-step RESET the kernel replaced (s).
const RESET_DT: f64 = 2e-9;
/// Sampled Monte Carlo instances besides the nominal cell.
const MC_INSTANCES: usize = 3;

/// The divider solve: the cell-voltage magnitude at state `rho`.
fn divider(p: &OxramParams, inst: &InstanceVariation, rho: f64, v: f64, r: f64, guess: f64) -> f64 {
    newton_warm(
        |vc| model::cell_current(p, inst, vc, rho) - (v - vc) / r,
        |vc| model::cell_conductance(p, inst, vc, rho) + 1.0 / r,
        0.0,
        v,
        guess,
        RootOptions::default(),
    )
    .expect("divider brackets its root")
}

/// The fixed-step terminated RESET at step `dt`, read at every reference
/// in `i_refs` (highest first): `[R_read, latency, energy]` each.
fn fixed_step_reset(
    p: &OxramParams,
    inst: &InstanceVariation,
    cond: &ResetConditions,
    i_refs: &[f64],
    dt: f64,
) -> Vec<[f64; 3]> {
    let mut out = Vec::with_capacity(i_refs.len());
    let (mut rho, mut energy, mut t) = (cond.rho_start, 0.0, 0.0);
    let (mut rho_prev, mut e_prev, mut i_prev) = (rho, 0.0, f64::NAN);
    let mut vc = f64::NAN;
    loop {
        vc = divider(p, inst, rho, cond.v_drive, cond.r_series, vc);
        let i = model::cell_current(p, inst, vc, rho);
        if t > 0.0 {
            energy += 0.5 * cond.v_drive * (i_prev + i) * dt;
        }
        while let Some(&i_ref) = i_refs.get(out.len()).filter(|&&i_ref| i <= i_ref) {
            assert!(t > 0.0, "reference {i_ref:e} above the initial current");
            // The crossing interpolated within the step, in ln ρ.
            let frac = (i_prev - i_ref) / (i_prev - i);
            let rho_x = (rho_prev.ln() + frac * (rho / rho_prev).ln()).exp();
            out.push([
                model::read_resistance(p, inst, rho_x, cond.v_read),
                t - dt * (1.0 - frac),
                e_prev + frac * (energy - e_prev),
            ]);
        }
        if out.len() == i_refs.len() {
            return out;
        }
        assert!(t < cond.t_max, "fixed-step replay did not terminate");
        (rho_prev, e_prev, i_prev) = (rho, energy, i);
        rho = model::advance_state(p, inst, rho, -vc, dt);
        t += dt;
    }
}

/// The fixed-step SET at step `dt`: `[R_read, energy]`.
fn fixed_step_set(
    p: &OxramParams,
    inst: &InstanceVariation,
    cond: &SetConditions,
    dt: f64,
) -> [f64; 2] {
    let point = |rho: f64, guess: f64| {
        let vc = divider(p, inst, rho, cond.v_drive, cond.r_series, guess);
        let i = model::cell_current(p, inst, vc, rho);
        if i <= cond.i_compliance {
            return (vc, i);
        }
        let vc = newton_warm(
            |v| model::cell_current(p, inst, v, rho) - cond.i_compliance,
            |v| model::cell_conductance(p, inst, v, rho),
            0.0,
            cond.v_drive,
            guess,
            RootOptions::default(),
        )
        .expect("compliance brackets its root");
        (vc, cond.i_compliance)
    };
    let n = (cond.width / dt).round() as usize;
    let (mut rho, mut energy, mut vc) = (cond.rho_start, 0.0, f64::NAN);
    let mut p_prev = f64::NAN;
    for step in 0..=n {
        let i;
        (vc, i) = point(rho, vc);
        if step > 0 {
            energy += 0.5 * (p_prev + cond.v_drive * i) * dt;
        }
        p_prev = cond.v_drive * i;
        if step < n {
            rho = model::advance_state(p, inst, rho, vc, dt);
        }
    }
    [model::read_resistance(p, inst, rho, cond.v_read), energy]
}

/// First-order Richardson extrapolation from the runs at `FINE` steps.
fn extrapolate(coarse: f64, fine: f64) -> f64 {
    2.0 * fine - coarse
}

/// Asserts one kernel output against its extrapolated reference and
/// returns the relative error.
fn check(what: &str, kernel: f64, converged: f64, budget: f64) -> f64 {
    let err = (kernel / converged - 1.0).abs();
    assert!(
        err <= budget && err <= MEASURED,
        "{what}: kernel {kernel:.6e} vs converged {converged:.6e}, relative error {err:.3e} \
         (budget {budget:.1e}, measured bound {MEASURED:.1e})"
    );
    err
}

/// The nominal cell, then `MC_INSTANCES` sampled ones: the cell variation,
/// the program conditions and the reference-current factor of each.
fn instances(p: &OxramParams) -> Vec<(InstanceVariation, ProgramConditions, f64)> {
    let cond = ProgramConditions::paper();
    let mut rng = StdRng::seed_from_u64(0x5EED);
    let var = McVariability::default();
    std::iter::once((InstanceVariation::nominal(), cond, 1.0))
        .chain((0..MC_INSTANCES).map(|_| var.sample(p, &cond, &mut rng)))
        .collect()
}

#[test]
fn fast_reset_converges_in_dt_and_the_solver_stays_inside_the_budget() {
    let p = OxramParams::calibrated();
    let names = ["R_read", "latency", "energy"];
    let levels = LevelAllocation::paper_qlc();
    let mut worst = [0f64; 3];
    println!("instance  IrefR  quantity  kernel  err_rel  replay_err@dt/16");
    for (n, (inst, cond, factor)) in instances(&p).into_iter().enumerate() {
        let mut i_refs: Vec<f64> = levels.levels().iter().map(|l| l.i_ref * factor).collect();
        i_refs.sort_by(|a, b| b.total_cmp(a));
        let kernel = simulate_reset_references(&p, &inst, &cond.reset, &i_refs);
        let [coarse, fine] =
            FINE.map(|div| fixed_step_reset(&p, &inst, &cond.reset, &i_refs, RESET_DT / div));
        for (k, &i_ref) in i_refs.iter().enumerate() {
            let out = kernel[k].as_ref().expect("kernel terminates");
            let got = [out.r_read_ohms, out.latency_s, out.energy_j];
            for q in 0..3 {
                let converged = extrapolate(coarse[k][q], fine[k][q]);
                let what = format!("instance {n}, {:.2} µA, {}", i_ref * 1e6, names[q]);
                let err = check(&what, got[q], converged, BUDGET[q]);
                println!(
                    "{n}  {:6.2}  {:8}  {:.6e}  {err:.2e}  {:.2e}",
                    i_ref * 1e6,
                    names[q],
                    got[q],
                    (fine[k][q] / converged - 1.0).abs()
                );
                worst[q] = worst[q].max(err);
            }
        }
        if n == 0 {
            // The replay is a clean first-order scheme: its latency error
            // halves with the step, so the extrapolation is sound.
            let quarter = fixed_step_reset(&p, &inst, &cond.reset, &i_refs, RESET_DT / 4.0);
            for (k, &i_ref) in i_refs.iter().enumerate() {
                let order = ((quarter[k][1] - coarse[k][1]) / (coarse[k][1] - fine[k][1]))
                    .abs()
                    .log2();
                assert!(
                    (0.9..1.1).contains(&order),
                    "replay latency at {:.0} µA: observed order {order:.2}, expected 1",
                    i_ref * 1e6
                );
            }
        }
    }
    println!("worst kernel error (relative): {worst:?}");
}

#[test]
fn fast_set_sits_inside_the_budget_of_the_converged_fixed_step_set() {
    let p = OxramParams::calibrated();
    let names = ["R_read", "energy"];
    let budget = [BUDGET[0], BUDGET[2]];
    let mut worst = [0f64; 2];
    for (n, (inst, cond, _)) in instances(&p).into_iter().enumerate() {
        // The paper's SET, and one whose 30 µA compliance engages mid-pulse:
        // its current crosses the clamp as the filament grows.
        let weak = SetConditions {
            i_compliance: 30e-6,
            ..cond.set
        };
        for (what, set) in [("SET", cond.set), ("30 µA SET", weak)] {
            let kernel = simulate_set(&p, &inst, &set).expect("SET completes");
            let got = [kernel.r_read_ohms, kernel.energy_j];
            let [coarse, fine] = FINE.map(|div| fixed_step_set(&p, &inst, &set, SET_DT / div));
            for q in 0..2 {
                let converged = extrapolate(coarse[q], fine[q]);
                let err = check(
                    &format!("instance {n}, {what} {}", names[q]),
                    got[q],
                    converged,
                    budget[q],
                );
                worst[q] = worst[q].max(err);
            }
        }
    }
    println!("worst SET error (relative): {worst:?}");
}
