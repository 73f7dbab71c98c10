//! Pure compact-model physics: conduction law and state dynamics.
//!
//! All functions here are deterministic given a parameter card and an
//! [`InstanceVariation`]; stochasticity enters only through the sampled
//! variation factors. Voltages are signed with the SET convention: positive
//! `v` (TE above BE) grows the filament, negative `v` dissolves it.

use std::cell::Cell;

use oxterm_telemetry::{Arg, Telemetry, Tracer, Track};

use crate::params::{InstanceVariation, OxramParams};

thread_local! {
    // Rising-edge latch for joule-clamp trace instants: `advance_state` runs
    // in tight per-timestep loops, so emit a mark only when a call *enters*
    // the clamped regime, not on every clamped call.
    static JOULE_CLAMPED: Cell<bool> = const { Cell::new(false) };
    // Last dynamics regime seen by this thread (0 hold, 1 SET, 2 RESET);
    // onset instants fire on transitions only, so a multi-µs transient
    // yields a handful of model-track marks, not one per timestep.
    static REGIME: Cell<u8> = const { Cell::new(0) };
}

/// Marks regime transitions (hold → SET/RESET) on the model trace track.
///
/// Only touched when the tracer is live, so the disabled path stays free of
/// even thread-local traffic.
fn note_regime(new: u8, v: f64) {
    let tracer = Tracer::global();
    if !tracer.is_enabled() {
        return;
    }
    REGIME.with(|r| {
        if r.get() != new {
            r.set(new);
            if new != 0 {
                let name = if new == 1 { "set_onset" } else { "reset_onset" };
                tracer.instant(Track::Model, name, &[Arg::f64("v", v)]);
            }
        }
    });
}

/// Largest sinh/exp argument before linear continuation (overflow guard).
const ARG_MAX: f64 = 40.0;

fn safe_sinh(x: f64) -> f64 {
    if x.abs() <= ARG_MAX {
        x.sinh()
    } else {
        let s = x.signum();
        let e = ARG_MAX.exp() * 0.5;
        s * e * (1.0 + (x.abs() - ARG_MAX))
    }
}

fn safe_cosh(x: f64) -> f64 {
    if x.abs() <= ARG_MAX {
        x.cosh()
    } else {
        ARG_MAX.exp() * 0.5
    }
}

/// Cell current at voltage `v` (TE relative to BE) and filament state `ρ`.
///
/// `I(v, ρ) = (g_on/lx)·ρ²·v·(1 + (v/v_shape)²) + i_leak·sinh(v/v_hop)` —
/// an odd function of `v`, so the same law serves both polarities.
pub fn cell_current(params: &OxramParams, inst: &InstanceVariation, v: f64, rho: f64) -> f64 {
    let g = params.g_on * rho * rho / inst.lx_factor;
    let s = v / params.v_shape;
    g * v * (1.0 + s * s) + params.i_leak * safe_sinh(v / params.v_hop)
}

/// `∂I/∂v` at the same operating point (for Newton linearization).
pub fn cell_conductance(params: &OxramParams, inst: &InstanceVariation, v: f64, rho: f64) -> f64 {
    let g = params.g_on * rho * rho / inst.lx_factor;
    let s = v / params.v_shape;
    g * (1.0 + 3.0 * s * s) + params.i_leak / params.v_hop * safe_cosh(v / params.v_hop)
}

/// Low-field read resistance at `v_read` (Ω).
///
/// # Panics
///
/// Panics if `v_read` is not strictly positive.
pub fn read_resistance(
    params: &OxramParams,
    inst: &InstanceVariation,
    rho: f64,
    v_read: f64,
) -> f64 {
    assert!(v_read > 0.0, "read voltage must be positive");
    v_read / cell_current(params, inst, v_read, rho)
}

/// Instantaneous SET time constant at cell voltage `v > 0` and state `ρ`
/// (s). Includes the forming barrier: below `ρ_formed` the effective
/// overdrive is reduced by `v_form_barrier·(1 − ρ/ρ_formed)`, so virgin
/// cells need forming-level voltages.
pub fn tau_set(params: &OxramParams, inst: &InstanceVariation, v: f64, rho: f64) -> f64 {
    let a = (inst.alpha_factor / inst.lx_factor).powf(params.alpha_set_weight);
    let barrier = params.v_form_barrier * (1.0 - rho / params.rho_formed).max(0.0);
    params.tau_set0 * (-a * (v - barrier) / params.v_set).exp()
}

/// Instantaneous RESET time constant at cell-voltage magnitude `v > 0` (s).
pub fn tau_reset(params: &OxramParams, inst: &InstanceVariation, v: f64) -> f64 {
    let a = inst.alpha_factor / inst.lx_factor;
    params.tau_rst0 * (-a * v / params.v_rst).exp()
}

/// RESET time constant `τ_eff` at state `ρ` under cell-voltage magnitude
/// `v`, given `tau = tau_reset(v)`: `dρ/dt = −ρ/τ_eff` with
/// `τ_eff = τ/(ρ^β·(1 + (I/I_joule)²))`. The shape factor is floored and
/// the Joule factor clamped (the second value reports the clamp).
fn reset_time_constant(
    params: &OxramParams,
    inst: &InstanceVariation,
    tau: f64,
    v: f64,
    rho: f64,
) -> (f64, bool) {
    let shape = rho.powf(params.beta_rst).max(1e-12);
    let i_mag = cell_current(params, inst, v, rho).abs();
    let joule_raw = 1.0 + (i_mag / params.i_joule).powi(2);
    (tau / (shape * joule_raw.min(1e6)), joule_raw > 1e6)
}

/// RESET rate at cell-voltage magnitude `v > 0` and state `ρ`:
/// `d(ln ρ)/dt = −reset_rate`, zero below the `v_rst_floor` threshold.
///
/// The law [`advance_state`] integrates in RESET polarity, for integrators
/// that solve the cell voltage themselves.
pub fn reset_rate(params: &OxramParams, inst: &InstanceVariation, v: f64, rho: f64) -> f64 {
    if v < params.v_rst_floor {
        return 0.0;
    }
    let tau = tau_reset(params, inst, v);
    1.0 / reset_time_constant(params, inst, tau, v, rho).0
}

/// SET rate at cell voltage `v > 0` and state `ρ`:
/// `d(ln(1 − ρ))/dt = −set_rate`, zero below the `v_set_floor` threshold.
///
/// The law [`advance_state`] integrates in SET polarity, for integrators
/// that solve the cell voltage themselves.
pub fn set_rate(params: &OxramParams, inst: &InstanceVariation, v: f64, rho: f64) -> f64 {
    if v < params.v_set_floor {
        return 0.0;
    }
    1.0 / tau_set(params, inst, v, rho)
}

/// Advances the filament state by `dt` at constant cell voltage `v`.
///
/// Internally sub-steps so that no sub-step changes `ρ` by more than ~2 %,
/// using closed-form exponential updates with rate factors frozen per
/// sub-step — unconditionally stable for any `dt`.
pub fn advance_state(
    params: &OxramParams,
    inst: &InstanceVariation,
    mut rho: f64,
    v: f64,
    dt: f64,
) -> f64 {
    if dt <= 0.0 {
        return rho;
    }
    if v > 1e-9 {
        // Below the switching threshold the state holds (read-disturb
        // immunity; see `v_set_floor`).
        if v < params.v_set_floor {
            note_regime(0, v);
            return rho;
        }
        note_regime(1, v);
        // SET / forming direction: dρ/dt = (1 − ρ)/τ(v, ρ); the forming
        // barrier inside τ makes growth regenerative out of the virgin
        // state.
        let mut remaining = dt;
        while remaining > 0.0 {
            let tau_eff = tau_set(params, inst, v, rho);
            // In the barrier regime sub-step finely: the barrier collapses
            // quickly as ρ grows, so bound Δρ ≈ 0.2 % per sub-step there.
            let frac = if rho < params.rho_formed { 0.002 } else { 0.02 };
            let sub = (frac * tau_eff).min(remaining).max(remaining * 1e-9);
            rho = 1.0 - (1.0 - rho) * (-sub / tau_eff).exp();
            remaining -= sub;
            if 1.0 - rho < 1e-12 {
                Telemetry::global().incr("rram.model.rho_ceiling_hits");
                Tracer::global().instant(Track::Model, "rho_ceiling", &[Arg::f64("v", v)]);
                return 1.0;
            }
        }
        rho
    } else if v < -1e-9 {
        if -v < params.v_rst_floor {
            note_regime(0, v);
            return rho;
        }
        note_regime(2, v);
        // RESET direction: dρ/dt = −ρ^(1+β)·(1 + (I/I_joule)²)/τ.
        // The current-squared term is the Joule-heating acceleration that
        // collapses the initial LRS current almost instantly.
        let tau = tau_reset(params, inst, -v);
        let mut remaining = dt;
        // Clamp events are accumulated locally and flushed once per call so
        // a saturated sub-step loop costs no atomics until it exits.
        let mut joule_clamps = 0u64;
        let mut floored = false;
        while remaining > 0.0 {
            let (tau_eff, clamped) = reset_time_constant(params, inst, tau, -v, rho);
            joule_clamps += u64::from(clamped);
            let sub = (0.02 * tau_eff).min(remaining).max(remaining * 1e-9);
            rho *= (-sub / tau_eff).exp();
            remaining -= sub;
            if rho < 1e-9 {
                rho = 0.0;
                floored = true;
                break;
            }
        }
        let tel = Telemetry::global();
        tel.add("rram.model.joule_clamps", joule_clamps);
        let clamped = joule_clamps > 0;
        if clamped && !JOULE_CLAMPED.with(Cell::get) {
            Tracer::global().instant(
                Track::Model,
                "joule_clamp",
                &[Arg::u64("substeps", joule_clamps), Arg::f64("v", v)],
            );
        }
        JOULE_CLAMPED.with(|c| c.set(clamped));
        if floored {
            tel.incr("rram.model.rho_floor_hits");
            Tracer::global().instant(Track::Model, "rho_floor", &[Arg::f64("v", v)]);
        }
        rho
    } else {
        note_regime(0, v);
        rho // retention dynamics are out of scope; state holds at zero bias
    }
}

/// The filament state that reads as resistance `r_ohms` at `v_read`
/// (inverse of [`read_resistance`], ignoring the leakage term).
///
/// Useful for preconditioning cells into a known state.
pub fn rho_for_resistance(
    params: &OxramParams,
    inst: &InstanceVariation,
    r_ohms: f64,
    v_read: f64,
) -> f64 {
    let s = v_read / params.v_shape;
    let g_needed =
        (1.0 / r_ohms - params.i_leak * safe_sinh(v_read / params.v_hop) / v_read) / (1.0 + s * s);
    if g_needed <= 0.0 {
        return 0.0;
    }
    (g_needed * inst.lx_factor / params.g_on).sqrt().min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{InstanceVariation, OxramParams};

    fn nominal() -> (OxramParams, InstanceVariation) {
        (OxramParams::calibrated(), InstanceVariation::nominal())
    }

    #[test]
    fn current_is_odd_in_voltage() {
        let (p, i) = nominal();
        for v in [0.1, 0.5, 1.2] {
            let fwd = cell_current(&p, &i, v, 0.5);
            let rev = cell_current(&p, &i, -v, 0.5);
            assert!((fwd + rev).abs() < 1e-18 * fwd.abs().max(1.0));
        }
    }

    #[test]
    fn conductance_matches_finite_difference() {
        let (p, i) = nominal();
        let h = 1e-7;
        for v in [-1.0, -0.3, 0.05, 0.8] {
            for rho in [0.05, 0.3, 1.0] {
                let g = cell_conductance(&p, &i, v, rho);
                let g_fd = (cell_current(&p, &i, v + h, rho) - cell_current(&p, &i, v - h, rho))
                    / (2.0 * h);
                assert!(
                    (g - g_fd).abs() < 1e-4 * g_fd.abs().max(1e-12),
                    "v={v} rho={rho}: {g} vs {g_fd}"
                );
            }
        }
    }

    #[test]
    fn lrs_resistance_is_kiloohm_scale() {
        let (p, i) = nominal();
        let r = read_resistance(&p, &i, 1.0, 0.3);
        assert!((3e3..3e4).contains(&r), "R_LRS = {r}");
    }

    #[test]
    fn hrs_increases_as_filament_shrinks() {
        let (p, i) = nominal();
        let mut prev = 0.0;
        for rho in [1.0, 0.5, 0.25, 0.1, 0.05] {
            let r = read_resistance(&p, &i, rho, 0.3);
            assert!(r > prev);
            prev = r;
        }
    }

    #[test]
    fn virgin_cell_resistance_is_huge() {
        let (p, i) = nominal();
        let r = read_resistance(&p, &i, 0.0, 0.3);
        assert!(r > 5e7, "virgin R = {r}");
    }

    #[test]
    fn reset_shrinks_and_set_grows() {
        let (p, i) = nominal();
        let rho0 = 0.8;
        let after_rst = advance_state(&p, &i, rho0, -1.2, 1e-6);
        assert!(after_rst < rho0);
        let after_set = advance_state(&p, &i, 0.2, 1.2, 1e-6);
        assert!(after_set > 0.2);
        let held = advance_state(&p, &i, 0.4, 0.0, 1.0);
        assert_eq!(held, 0.4);
    }

    #[test]
    fn set_completes_while_reset_tails() {
        let (p, i) = nominal();
        // The paper: SET ~100 ns while RESET tails out over µs. A formed
        // cell at the same |bias| must SET essentially completely in 200 ns
        // yet only partially RESET.
        let set = advance_state(&p, &i, 0.15, 1.2, 200e-9);
        assert!(set > 0.8, "set rho = {set}");
        let rst = advance_state(&p, &i, 1.0, -1.2, 200e-9);
        assert!(rst > 0.15, "reset rho = {rst} (tail too fast)");
        assert!(rst < 1.0);
    }

    #[test]
    fn formed_cell_tau_set_has_no_barrier() {
        let (p, i) = nominal();
        let formed = tau_set(&p, &i, 1.2, 0.2);
        let virgin = tau_set(&p, &i, 1.2, 0.0);
        assert!(
            virgin > 1e3 * formed,
            "barrier too weak: {virgin} vs {formed}"
        );
    }

    #[test]
    fn advance_is_stable_for_large_steps() {
        let (p, i) = nominal();
        // One giant step vs many small steps must agree reasonably.
        let big = advance_state(&p, &i, 0.9, -1.3, 5e-6);
        let mut rho = 0.9;
        for _ in 0..5000 {
            rho = advance_state(&p, &i, rho, -1.3, 1e-9);
        }
        assert!((big - rho).abs() < 0.02, "big={big} small={rho}");
        assert!((0.0..=1.0).contains(&big));
    }

    #[test]
    fn virgin_cell_needs_forming_voltage() {
        let (p, i) = nominal();
        // At SET voltage a virgin cell barely moves in a SET-pulse time...
        let after_set_pulse = advance_state(&p, &i, 0.0, 1.2, 200e-9);
        assert!(after_set_pulse < 0.05, "rho = {after_set_pulse}");
        // ...but a forming pulse at 3.3 V switches it fully.
        let after_forming = advance_state(&p, &i, 0.0, 3.3, 10e-6);
        assert!(after_forming > 0.9, "rho = {after_forming}");
    }

    #[test]
    fn rho_for_resistance_round_trips() {
        let (p, i) = nominal();
        for target in [40e3, 100e3, 250e3] {
            let rho = rho_for_resistance(&p, &i, target, 0.3);
            let r = read_resistance(&p, &i, rho, 0.3);
            assert!((r - target).abs() / target < 0.02, "target {target}: {r}");
        }
    }

    #[test]
    fn variability_shifts_resistance() {
        let p = OxramParams::calibrated();
        let lo = InstanceVariation {
            alpha_factor: 1.0,
            lx_factor: 0.9,
        };
        let hi = InstanceVariation {
            alpha_factor: 1.0,
            lx_factor: 1.1,
        };
        let r_lo = read_resistance(&p, &lo, 0.3, 0.3);
        let r_hi = read_resistance(&p, &hi, 0.3, 0.3);
        assert!(r_hi > r_lo);
    }
}
