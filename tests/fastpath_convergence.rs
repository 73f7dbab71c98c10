//! Time-step convergence of the fast terminated RESET, and the error budget
//! it sets.
//!
//! The fast path integrates the filament state with fixed steps `dt`,
//! freezing the cell voltage over each step. The study runs every QLC
//! reference at `dt`, `dt/2` and `dt/4` and estimates each output's
//! discretisation error at `dt` by Richardson extrapolation. The pinned
//! estimates are the error budget: any faster scheme (a different divider
//! solve, adaptive stepping) must move R_read, latency and energy by less
//! than them. The divider solve itself is held to a thousandth of the
//! budget against a cold-start bisection-safeguarded replay.

use oxterm_mlc::levels::LevelAllocation;
use oxterm_numerics::roots::{newton_bisect, RootOptions};
use oxterm_rram::calib::{simulate_reset_termination, ResetConditions, TerminationOutcome};
use oxterm_rram::model;
use oxterm_rram::params::{InstanceVariation, OxramParams};

/// Pinned relative error budget at the production step `dt = 2 ns`: the
/// worst Richardson estimate over the 16 QLC references (0.41 %, 0.81 % and
/// 0.92 % when pinned), rounded up.
const BUDGET_R_READ: f64 = 5e-3;
const BUDGET_LATENCY: f64 = 1e-2;
const BUDGET_ENERGY: f64 = 1e-2;

/// The three outputs the study follows.
fn quantities(out: &TerminationOutcome) -> [f64; 3] {
    [out.r_read_ohms, out.latency_s, out.energy_j]
}

/// Richardson estimate of the error of `q_h` from the same quantity at
/// `h`, `h/2` and `h/4`, and the observed order of convergence.
///
/// The scheme is first order (the cell voltage is frozen over a step), so
/// the error at `h` is `2·(q_h − q_h2)`, or twice the error at `h/2`. R_read
/// and energy are read at the end of the step in which the current crosses
/// IrefR, so they also carry a step-quantisation term whose size depends on
/// where the crossing falls in the step; their observed order scatters
/// about 1. The estimate takes the larger of the two pairs' readings.
fn richardson(q_h: f64, q_h2: f64, q_h4: f64) -> (f64, f64) {
    let order = ((q_h - q_h2) / (q_h2 - q_h4)).abs().log2();
    let err = (2.0 * (q_h - q_h2)).abs().max((4.0 * (q_h2 - q_h4)).abs());
    (err, order)
}

/// The fast RESET replayed with a cold divider solve: `newton_bisect` from
/// the bracket midpoint with a finite-difference slope at every step, and
/// otherwise the kernel's own trapezoid energy and crossing interpolation.
fn cold_replay(p: &OxramParams, inst: &InstanceVariation, cond: &ResetConditions) -> [f64; 3] {
    let mut rho = cond.rho_start;
    let mut t = 0.0;
    let mut energy = 0.0;
    let mut i_prev = f64::NAN;
    loop {
        let divider =
            |vc: f64| model::cell_current(p, inst, vc, rho) - (cond.v_drive - vc) / cond.r_series;
        let vc = newton_bisect(divider, 0.0, cond.v_drive, RootOptions::default())
            .expect("divider brackets its root");
        let i = model::cell_current(p, inst, vc, rho);
        if t > 0.0 {
            energy += 0.5 * cond.v_drive * (i_prev + i) * cond.dt;
        }
        if i <= cond.i_ref {
            let latency = if i_prev.is_finite() && i_prev > cond.i_ref {
                t - cond.dt * (1.0 - (i_prev - cond.i_ref) / (i_prev - i))
            } else {
                t
            };
            let r_read = model::read_resistance(p, inst, rho, cond.v_read);
            return [r_read, latency.max(0.0), energy];
        }
        assert!(t < cond.t_max, "cold replay did not terminate");
        rho = model::advance_state(p, inst, rho, -vc, cond.dt);
        i_prev = i;
        t += cond.dt;
    }
}

#[test]
fn fast_reset_converges_in_dt_and_the_solver_stays_inside_the_budget() {
    let p = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    let budget = [BUDGET_R_READ, BUDGET_LATENCY, BUDGET_ENERGY];
    let names = ["R_read", "latency", "energy"];
    let mut worst = [0f64; 3];
    println!("IrefR  quantity  value@dt  richardson_err_rel  order  solver_shift_rel");
    for level in LevelAllocation::paper_qlc().levels() {
        let base = ResetConditions::paper_defaults(level.i_ref);
        let run = |div: f64| {
            let cond = ResetConditions {
                dt: base.dt / div,
                ..base
            };
            quantities(&simulate_reset_termination(&p, &inst, &cond).expect("terminates"))
        };
        let (q1, q2, q4) = (run(1.0), run(2.0), run(4.0));
        let cold = cold_replay(&p, &inst, &base);
        for k in 0..3 {
            let (err, order) = richardson(q1[k], q2[k], q4[k]);
            let err_rel = (err / q1[k]).abs();
            let shift_rel = ((q1[k] - cold[k]) / q1[k]).abs();
            println!(
                "{:5.1}  {:8}  {:.6e}  {:.3e}  {:.2}  {:.1e}",
                level.i_ref * 1e6,
                names[k],
                q1[k],
                err_rel,
                order,
                shift_rel
            );
            worst[k] = worst[k].max(err_rel);
            if k == 1 {
                // The interpolated crossing leaves latency a clean
                // first-order quantity.
                assert!(
                    (0.9..1.1).contains(&order),
                    "latency at {:.0} µA: observed order {order:.2}, expected 1",
                    level.i_ref * 1e6
                );
            }
            assert!(
                err_rel <= budget[k],
                "{} at {:.0} µA: Richardson error {err_rel:.3e} exceeds the budget {:.1e}",
                names[k],
                level.i_ref * 1e6,
                budget[k]
            );
            assert!(
                shift_rel < 1e-3 * err_rel,
                "{} at {:.0} µA: the divider solve moved it by {shift_rel:.3e}, \
                 more than 1e-3 of its error estimate {err_rel:.3e}",
                names[k],
                level.i_ref * 1e6,
            );
        }
    }
    println!("worst Richardson error (relative): {worst:?}");
}
