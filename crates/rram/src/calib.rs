//! Fast scalar programming simulations and model calibration.
//!
//! Monte Carlo reproduction of the paper's Figs 11–13 needs on the order of
//! `500 runs × 16 levels` SET + terminated-RESET simulations. Running each
//! through the full MNA transient engine works but is wasteful for a series
//! `driver – R_series – cell` path, so this module integrates that path as
//! a scalar ODE. Every pulse — the compliance-limited SET, the terminated
//! RESET and the fixed-width RESET — goes through one error-controlled
//! integrator: an embedded Bogacki–Shampine 3(2) pair on `y = ln ρ` (RESET)
//! or `y = ln(1 − ρ)` (SET), carrying the driver and cell energies as two
//! more components. Each pulse builds the cell's [`CellLaw`] once. Each
//! stage solves the resistive divider (plus SET's compliance re-solve) by
//! bracket-safeguarded Newton on the analytic slope `∂I/∂v + 1/R_series`,
//! warm-started from the previous stage's cell voltage, through the
//! known-sign entry [`newton_bracketed`]: the ends of `[0, v_drive]` are
//! never evaluated, and the current and slope come from one exponential.
//! The stage then evaluates the law's rate ([`CellLaw::reset_rate`] on the
//! solved current and `ln ρ`, [`CellLaw::set_rate`]) at the solved voltage.
//! Steps are sized so the local
//! error stays below one relative tolerance (`RTOL`) in the state and in
//! each energy; the conditions' `dt` is only the first trial step.
//!
//! The termination state has a closed form. When the cell current equals
//! `IrefR`, the cell sits at `v_c = v_drive − IrefR·R_series`, so
//! `I(v_c, ρ*) = IrefR` gives `ρ*` and the read resistance exactly. The
//! crossing time is located by a secant search over sub-steps that start
//! from the beginning of the accepted step in which `y` passes `ln ρ*`.
//! The accepted trajectory never depends on the references, so
//! [`simulate_reset_references`] runs one trajectory and reads every
//! reference's crossing off it; [`simulate_reset_termination`] is its
//! one-reference case. The integration test suite cross-checks this path
//! against the full circuit-level transient and against a converged
//! fixed-step replay.
//!
//! The same fast path makes model calibration affordable:
//! [`calibrate`] runs a Nelder–Mead search over the model card to match the
//! paper's published Table 2 / Fig 13 anchors, reading all 20 anchors of an
//! objective evaluation off one shared RESET trajectory.

use oxterm_numerics::optimize::{nelder_mead, NelderMeadOptions};
use oxterm_numerics::roots::{newton_bracketed, RootOptions};
use oxterm_numerics::NumericsError;

use crate::model::{self, CellLaw};
use crate::params::{InstanceVariation, OxramParams};
use crate::RramError;
use oxterm_telemetry::joule::{DeviceClass, JouleLedger, Role};
use oxterm_telemetry::{Arg, PhaseId, Profiler, Telemetry, Tracer, Track};

/// Relative tolerance of the pulse integrator: the local error allowed per
/// step in `y` (so relative in `ρ` or `1 − ρ`) and in each energy relative
/// to the energy drawn so far.
const RTOL: f64 = 1e-4;

/// Consecutive rejected trials after which a step gives up: each shrinks
/// the step at least fivefold, so this is a step below `1e-60` of the last
/// accepted one.
const MAX_REJECTIONS: usize = 90;

/// Conditions for a current-terminated RESET operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ResetConditions {
    /// Driver voltage applied across the series path (V).
    pub v_drive: f64,
    /// Series resistance: access transistor + line + termination input (Ω).
    pub r_series: f64,
    /// Termination reference current `IrefR` (A).
    pub i_ref: f64,
    /// Starting filament state (LRS = 1.0).
    pub rho_start: f64,
    /// First trial step of the integrator (s).
    pub dt: f64,
    /// Abandon the run after this long (s).
    pub t_max: f64,
    /// Read-back voltage for the reported resistance (V).
    pub v_read: f64,
}

impl ResetConditions {
    /// The conditions used throughout the paper reproduction: SL driven at
    /// ≈1.2 V (Table 1) through ≈3 kΩ of access-transistor and line
    /// resistance, 0.3 V read-back. The exact values are the calibration
    /// fit's optimum against the paper's Table 2.
    pub fn paper_defaults(i_ref: f64) -> Self {
        ResetConditions {
            v_drive: 1.1523,
            r_series: 3.6131e3,
            i_ref,
            rho_start: 1.0,
            dt: 2e-9,
            t_max: 60e-6,
            v_read: 0.3,
        }
    }
}

/// Result of a terminated (or fixed-width) RESET.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TerminationOutcome {
    /// Final filament state.
    pub rho_final: f64,
    /// Read resistance at `v_read` (Ω).
    pub r_read_ohms: f64,
    /// Time from pulse start to termination (s).
    pub latency_s: f64,
    /// Energy drawn from the driver, `∫ v_drive·i dt` (J).
    pub energy_j: f64,
    /// Cell current at pulse start (A).
    pub i_initial: f64,
}

/// Solves the resistive divider: the cell-voltage magnitude `v_c` in
/// `[0, v_drive]` with `I(v_c, ρ) = (v_drive − v_c)/r_series`, and the
/// current `I(v_c, ρ)` there.
///
/// Newton on the analytic slope `∂I/∂v + 1/r_series`, started from `guess`
/// — the previous stage's `v_c`, which the state barely moves within one
/// stage. A `guess` outside `(0, v_drive)` or NaN (no previous stage)
/// starts from the midpoint. The end signs are known, so the ends are never
/// evaluated: `f(0) = −v_drive/r_series < 0`, and `f(v_drive) =
/// I(v_drive, ρ) > 0` because `v_drive > 0`, `ρ ≥ 0` and the card's
/// `i_leak`, `v_hop` are positive ([`check_drive`]). The root is the last
/// point evaluated, so the current kept from there is the solved current.
fn divider(
    law: &CellLaw,
    rho: f64,
    v_drive: f64,
    r_series: f64,
    guess: f64,
) -> Result<(f64, f64), RramError> {
    let mut i = f64::NAN;
    let fdf = |vc: f64| {
        let (ic, gc) = law.current_and_slope(vc, rho);
        i = ic;
        (ic - (v_drive - vc) / r_series, gc + 1.0 / r_series)
    };
    let vc = newton_bracketed(fdf, 0.0, v_drive, guess, RootOptions::default())?;
    Ok((vc, i))
}

/// [`divider`]'s cell voltage for the card and instance (a test's view).
#[cfg(test)]
fn solve_divider(
    params: &OxramParams,
    inst: &InstanceVariation,
    rho: f64,
    v_drive: f64,
    r_series: f64,
    guess: f64,
) -> Result<f64, RramError> {
    let law = CellLaw::new(params, inst);
    Ok(divider(&law, rho, v_drive, r_series, guess)?.0)
}

/// Rejects what the fast path cannot simulate: a drive the divider solve
/// cannot bracket (`v_drive`, `r_series` not finite and positive), a
/// starting state outside `[0, 1]` (NaN included), a non-positive read
/// voltage or instance factor.
fn check_drive(
    inst: &InstanceVariation,
    v_drive: f64,
    r_series: f64,
    rho_start: f64,
    v_read: f64,
) -> Result<(), RramError> {
    let positive = |x: f64| x.is_finite() && x > 0.0;
    for (name, value, ok) in [
        ("v_drive", v_drive, positive(v_drive)),
        ("r_series", r_series, positive(r_series)),
        ("rho_start", rho_start, (0.0..=1.0).contains(&rho_start)),
        ("v_read", v_read, positive(v_read)),
        (
            "alpha_factor",
            inst.alpha_factor,
            positive(inst.alpha_factor),
        ),
        ("lx_factor", inst.lx_factor, positive(inst.lx_factor)),
    ] {
        if !ok {
            return Err(RramError::InvalidParameter { name, value });
        }
    }
    Ok(())
}

/// The integrated quantities of a pulse at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
struct State {
    /// Time since pulse start (s).
    t: f64,
    /// `ln ρ` (RESET) or `ln(1 − ρ)` (SET).
    y: f64,
    /// Energy drawn from the driver, `∫ v_drive·i dt` (J).
    e_drive: f64,
    /// Energy dissipated in the cell, `∫ v_c·i dt` (J).
    e_cell: f64,
}

/// The circuit at one value of `y`: one right-hand-side evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stage {
    /// Cell-voltage magnitude (V).
    vc: f64,
    /// Cell-current magnitude (A).
    i: f64,
    /// `dy/dt` (1/s).
    dy: f64,
}

/// An accepted state with its stage: where one step ends and the next
/// begins (the pair is first-same-as-last).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Point {
    s: State,
    k: Stage,
}

/// The one pulse integrator: an embedded Bogacki–Shampine 3(2) pair with
/// local extrapolation, over a right-hand side `rhs(y, v_c guess)`.
struct Integrator<F> {
    rhs: F,
    v_drive: f64,
    /// The next trial step (s).
    h: f64,
}

impl<F: Fn(f64, f64) -> Result<Stage, RramError>> Integrator<F> {
    /// The pulse's starting point, `t = 0` at state `y`.
    fn start(&self, y: f64) -> Result<Point, RramError> {
        let k = (self.rhs)(y, f64::NAN)?;
        let s = State {
            t: 0.0,
            y,
            e_drive: 0.0,
            e_cell: 0.0,
        };
        Ok(Point { s, k })
    }

    /// The third-order solution `h` past `p`, with its two inner stages.
    fn reach(&self, p: &Point, h: f64) -> Result<(State, Stage, Stage), RramError> {
        let k1 = p.k;
        let k2 = (self.rhs)(p.s.y + 0.5 * h * k1.dy, k1.vc)?;
        let k3 = (self.rhs)(p.s.y + 0.75 * h * k2.dy, k2.vc)?;
        let sum = |f: fn(&Stage) -> f64| h * (2.0 * f(&k1) + 3.0 * f(&k2) + 4.0 * f(&k3)) / 9.0;
        let s = State {
            t: p.s.t + h,
            y: p.s.y + sum(|k| k.dy),
            e_drive: p.s.e_drive + self.v_drive * sum(|k| k.i),
            e_cell: p.s.e_cell + sum(|k| k.vc * k.i),
        };
        Ok((s, k2, k3))
    }

    /// One accepted step from `p`, ending at `t_end` if the trial step
    /// would reach past it. Rejected trials shrink the step and retry; a
    /// step that cannot be made acceptable fails as a numerical error.
    fn step(&mut self, p: &Point, t_end: f64) -> Result<Point, RramError> {
        let mut ratio = f64::NAN;
        for _ in 0..MAX_REJECTIONS {
            let last = self.h >= t_end - p.s.t;
            let h = if last { t_end - p.s.t } else { self.h };
            let (mut s, k2, k3) = self.reach(p, h)?;
            let k4 = (self.rhs)(s.y, k3.vc)?;
            // The embedded second-order solution's distance from the third.
            let k1 = p.k;
            let err = |f: fn(&Stage) -> f64| {
                (h * (-10.0 * f(&k1) + 12.0 * f(&k2) + 16.0 * f(&k3) - 18.0 * f(&k4)) / 144.0).abs()
            };
            let relative = |e: f64, a: f64, b: f64| {
                let scale = a.abs().max(b.abs());
                if scale > 0.0 {
                    e / scale
                } else {
                    0.0
                }
            };
            ratio = err(|k| k.dy)
                .max(relative(
                    self.v_drive * err(|k| k.i),
                    p.s.e_drive,
                    s.e_drive,
                ))
                .max(relative(err(|k| k.vc * k.i), p.s.e_cell, s.e_cell))
                / RTOL;
            let factor = if ratio > 0.0 {
                (0.9 * ratio.powf(-1.0 / 3.0)).clamp(0.2, 5.0)
            } else {
                5.0
            };
            if ratio <= 1.0 {
                if last {
                    s.t = t_end;
                }
                self.h = h * factor;
                return Ok(Point { s, k: k4 });
            }
            // A NaN ratio fails the test above and shrinks the step too.
            self.h = h * factor.min(0.2);
        }
        // The residual is the last trial's error in units of the tolerance.
        Err(RramError::Numerics(NumericsError::NoConvergence {
            iterations: MAX_REJECTIONS,
            residual: ratio,
        }))
    }

    /// The state inside the accepted step `p0 → p1` at which `y` falls to
    /// `y_star` (`p0.s.y > y_star ≥ p1.s.y`): a secant search (Illinois
    /// variant) over sub-steps that start from `p0`.
    fn locate(&self, p0: &Point, p1: &Point, y_star: f64) -> Result<State, RramError> {
        let (mut a, mut ga) = (0.0, p0.s.y - y_star);
        let (mut b, mut gb) = (p1.s.t - p0.s.t, p1.s.y - y_star);
        let mut at = p1.s;
        let mut side = 0i8;
        for _ in 0..50 {
            if gb.abs() <= 1e-12 || b <= a {
                break;
            }
            let tau = (a * gb - b * ga) / (gb - ga);
            let (s, _, _) = self.reach(p0, tau)?;
            let g = s.y - y_star;
            if g > 0.0 {
                (a, ga) = (tau, g);
                if side == 1 {
                    gb *= 0.5;
                }
                side = 1;
            } else {
                (b, gb, at) = (tau, g, s);
                if side == -1 {
                    ga *= 0.5;
                }
                side = -1;
            }
        }
        Ok(at)
    }
}

/// The RESET integrator: `y = ln ρ` under `v_drive` through `r_series`.
fn reset_integrator(
    law: CellLaw,
    v_drive: f64,
    r_series: f64,
    h0: f64,
) -> Integrator<impl Fn(f64, f64) -> Result<Stage, RramError>> {
    let rhs = move |y: f64, guess: f64| {
        let (vc, i) = divider(&law, y.exp(), v_drive, r_series, guess)?;
        Ok(Stage {
            vc,
            i,
            dy: -law.reset_rate(vc, i, y),
        })
    };
    Integrator {
        rhs,
        v_drive,
        h: h0,
    }
}

/// `ln ρ*` of the state at which the RESET divider current equals `i_ref`.
///
/// The cell then sits at `v_c = v_drive − i_ref·r_series`, so
/// `I(v_c, ρ*) = i_ref` has a closed form. `+∞` when the drive cannot
/// source `i_ref` at all, `−∞` when `i_ref` is below the leakage there.
fn ln_rho_at_current(law: &CellLaw, v_drive: f64, r_series: f64, i_ref: f64) -> f64 {
    let vc = v_drive - i_ref * r_series;
    if vc <= 0.0 {
        return f64::INFINITY;
    }
    law.rho_at(vc, i_ref).ln()
}

/// Simulates one current-terminated RESET in the fast scalar path.
///
/// The driver applies `v_drive` across `r_series` in series with the cell
/// (RESET polarity); the run terminates the instant the cell current falls
/// to `i_ref`. This is the one-reference case of
/// [`simulate_reset_references`].
///
/// # Errors
///
/// * [`RramError::InvalidParameter`] for an invalid model card or drive
///   (`v_drive`, `r_series` or `v_read` not positive, `rho_start` outside
///   `[0, 1]` or NaN),
/// * [`RramError::NotTerminated`] if the current never reaches `i_ref`
///   within `t_max` (reference below the leakage floor),
/// * [`RramError::Numerics`] if the divider solve fails.
pub fn simulate_reset_termination(
    params: &OxramParams,
    inst: &InstanceVariation,
    cond: &ResetConditions,
) -> Result<TerminationOutcome, RramError> {
    // One reference in, exactly one outcome out.
    simulate_reset_references(params, inst, cond, &[cond.i_ref]).swap_remove(0)
}

/// Runs one terminated RESET under `cond` and reads off it the outcome for
/// every reference current in `i_refs` (`cond.i_ref` is ignored).
///
/// The trajectory up to a reference's crossing does not depend on the
/// reference, so a single run down to the lowest reference serves them
/// all. Entry `k` of the result is bit for bit what
/// [`simulate_reset_termination`] returns with `i_ref = i_refs[k]`, and the
/// telemetry and [`JouleLedger`] records are those of that run. Sweeps that
/// start every RESET from the same state (the Table 2 allocation, each
/// calibration objective evaluation) pay for one trajectory instead of one
/// per reference.
///
/// # Errors
///
/// Per entry, as [`simulate_reset_termination`]. An invalid model card or a
/// failed divider solve fails every reference not yet crossed; an armed
/// chaos fault fails the whole call.
pub fn simulate_reset_references(
    params: &OxramParams,
    inst: &InstanceVariation,
    cond: &ResetConditions,
    i_refs: &[f64],
) -> Vec<Result<TerminationOutcome, RramError>> {
    let _reset = Profiler::global().phase(PhaseId::RramReset);
    if let Err(e) = params.validate().and_then(|()| {
        check_drive(
            inst,
            cond.v_drive,
            cond.r_series,
            cond.rho_start,
            cond.v_read,
        )
    }) {
        return vec![Err(e); i_refs.len()];
    }
    let law = CellLaw::new(params, inst);
    let mut out: Vec<Option<Result<TerminationOutcome, RramError>>> = vec![None; i_refs.len()];
    // `pending` lists the valid references, each with the `ln ρ` at which
    // the current reaches it, from the highest current down: the order in
    // which a falling current crosses them.
    let mut pending = Vec::with_capacity(i_refs.len());
    for (k, &i_ref) in i_refs.iter().enumerate() {
        if i_ref.is_nan() || i_ref <= 0.0 {
            out[k] = Some(Err(RramError::InvalidParameter {
                name: "i_ref",
                value: i_ref,
            }));
        } else {
            let y_star = ln_rho_at_current(&law, cond.v_drive, cond.r_series, i_ref);
            pending.push((k, y_star));
        }
    }
    pending.sort_by(|&(a, _), &(b, _)| i_refs[b].total_cmp(&i_refs[a]));
    if !pending.is_empty() {
        reset_trajectory(&law, cond, i_refs, &pending, &mut out);
    }
    out.into_iter()
        .map(|slot| slot.unwrap_or_else(|| unreachable!("every reference is resolved")))
        .collect()
}

/// The terminated RESET: integrates from `cond.rho_start` until the state
/// has crossed every reference in `pending` (indices into `i_refs` with
/// their `ln ρ*`, highest current first) or `cond.t_max` passes, and fills
/// `out` at those indices.
fn reset_trajectory(
    law: &CellLaw,
    cond: &ResetConditions,
    i_refs: &[f64],
    pending: &[(usize, f64)],
    out: &mut [Option<Result<TerminationOutcome, RramError>>],
) {
    let tel = Telemetry::global();
    tel.add("rram.termination.runs", pending.len() as u64);
    if oxterm_chaos::should_inject(oxterm_chaos::FaultKind::NewtonStall) {
        // Fast-path analogue of a forced Newton stall: the Monte Carlo
        // volume campaigns (Figs. 11/13) program cells through this
        // semi-analytic path, never through `newton_solve`.
        tel.incr("chaos.injected.newton_stall");
        for &(k, _) in pending {
            out[k] = Some(Err(RramError::Injected { site: "reset_fast" }));
        }
        return;
    }
    // One span per fast-path RESET trajectory: the Monte Carlo volume
    // driver, so the trace shows what each worker is chewing on.
    let mut trace_span = Tracer::global().span(Track::Program, "reset_fast");
    for &(k, _) in pending {
        trace_span.arg(Arg::f64("i_ref_a", i_refs[k]));
    }
    let ledger = JouleLedger::global();
    let fail = |out: &mut [Option<_>], from: usize, e: RramError| {
        for &(k, _) in &pending[from..] {
            out[k] = Some(Err(e.clone()));
        }
    };
    // `pending[next]` is the highest reference not yet crossed.
    let mut next = 0;
    let mut it = reset_integrator(*law, cond.v_drive, cond.r_series, cond.dt);
    let mut p = match it.start(cond.rho_start.ln()) {
        Ok(p) => p,
        Err(e) => return fail(out, next, e),
    };
    let i_initial = p.k.i;
    // The step just accepted, `prev → p`; `None` at pulse start.
    let mut prev: Option<Point> = None;
    let mut steps = 0u64;
    loop {
        while let Some(&(k, y_star)) = pending.get(next).filter(|&&(_, y_star)| p.s.y <= y_star) {
            // Already below the reference at pulse start, or crossed in
            // the step just accepted.
            let (rho_final, at) = match &prev {
                None => (cond.rho_start, p.s),
                Some(p0) => match it.locate(p0, &p, y_star) {
                    Ok(at) => (y_star.exp(), at),
                    Err(e) => return fail(out, next, e),
                },
            };
            if tel.is_enabled() {
                tel.add("rram.termination.steps", steps);
                tel.record("rram.termination.latency_s", at.t);
            }
            trace_span.arg(Arg::u64("steps", steps));
            trace_span.arg(Arg::f64("latency_sim_s", at.t));
            if ledger.is_enabled() {
                // The cell dissipates v_c·i; the balance of the drive,
                // (v_drive − v_c)·i, drops across the series path (access
                // transistor + line), which is what r_series models.
                ledger.record_energy(DeviceClass::RramCell, Role::RramCell, at.e_cell);
                ledger.record_energy(
                    DeviceClass::Resistor,
                    Role::AccessTransistor,
                    at.e_drive - at.e_cell,
                );
                ledger.mark(oxterm_telemetry::profiler::monotonic_ns());
            }
            out[k] = Some(Ok(TerminationOutcome {
                rho_final,
                r_read_ohms: law.read_resistance(rho_final, cond.v_read),
                latency_s: at.t,
                energy_j: at.e_drive,
                i_initial,
            }));
            next += 1;
        }
        if next == pending.len() {
            return;
        }
        if p.s.t >= cond.t_max {
            for &(k, _) in &pending[next..] {
                let i_ref = i_refs[k];
                tel.incr("rram.termination.not_terminated");
                Tracer::global().instant(
                    Track::Program,
                    "not_terminated",
                    &[Arg::f64("i_ref_a", i_ref), Arg::f64("i_final_a", p.k.i)],
                );
                out[k] = Some(Err(RramError::NotTerminated {
                    i_ref,
                    t_max: cond.t_max,
                    i_final: p.k.i,
                }));
            }
            return;
        }
        match it.step(&p, cond.t_max) {
            Ok(p1) => prev = Some(std::mem::replace(&mut p, p1)),
            Err(e) => return fail(out, next, e),
        }
        steps += 1;
    }
}

/// A fixed-width (standard, non-terminated) RESET pulse — the paper's
/// baseline: a worst-case-sized pulse (3.5 µs in Fig 10) that drives the
/// cell deep into HRS regardless of the data.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StandardResetPulse {
    /// Driver voltage (V).
    pub v_drive: f64,
    /// Series resistance (Ω).
    pub r_series: f64,
    /// Pulse width (s).
    pub width: f64,
    /// First trial step of the integrator (s).
    pub dt: f64,
}

impl StandardResetPulse {
    /// The Fig 10 worst-case baseline at full-rail drive (see
    /// EXPERIMENTS.md deviation 1 for why our model needs the rail to go
    /// deep within 3.5 µs).
    pub fn paper_baseline() -> Self {
        StandardResetPulse {
            v_drive: 3.0,
            r_series: 3.6131e3,
            width: 3.5e-6,
            dt: 2e-9,
        }
    }
}

/// Simulates a fixed-width (standard, non-terminated) RESET pulse: the
/// terminated RESET's integrator with no reference, stopped at `width`.
///
/// # Errors
///
/// [`RramError::InvalidParameter`] for an invalid card or drive (as
/// [`simulate_reset_termination`]); propagates divider-solve failures.
pub fn simulate_standard_reset(
    params: &OxramParams,
    inst: &InstanceVariation,
    pulse: &StandardResetPulse,
    rho_start: f64,
    v_read: f64,
) -> Result<TerminationOutcome, RramError> {
    let _reset = Profiler::global().phase(PhaseId::RramReset);
    params.validate()?;
    check_drive(inst, pulse.v_drive, pulse.r_series, rho_start, v_read)?;
    let law = CellLaw::new(params, inst);
    let mut it = reset_integrator(law, pulse.v_drive, pulse.r_series, pulse.dt);
    let start = it.start(rho_start.ln())?;
    let mut p = start;
    while p.s.t < pulse.width {
        p = it.step(&p, pulse.width)?;
    }
    let rho = p.s.y.exp();
    Ok(TerminationOutcome {
        rho_final: rho,
        r_read_ohms: law.read_resistance(rho, v_read),
        latency_s: pulse.width,
        energy_j: p.s.e_drive,
        i_initial: start.k.i,
    })
}

/// The worst-case open-loop RESET used as the termination-savings baseline:
/// the *same* drive as `cond` (`v_drive` through `r_series`) held for the
/// full termination budget `cond.t_max` with the comparator disabled.
///
/// Every terminated write saves `worst.energy_j − energy_j` joules and
/// `cond.t_max − latency_s` seconds against this run. The dynamics do not
/// depend on `i_ref`, so one call covers every level programmed under the
/// same conditions. The run is hypothetical (no write uses it), so it does
/// **not** feed the [`JouleLedger`].
///
/// # Errors
///
/// Propagates divider-solve failures and invalid cards.
pub fn simulate_worst_case_reset(
    params: &OxramParams,
    inst: &InstanceVariation,
    cond: &ResetConditions,
) -> Result<TerminationOutcome, RramError> {
    let pulse = StandardResetPulse {
        v_drive: cond.v_drive,
        r_series: cond.r_series,
        width: cond.t_max,
        dt: cond.dt,
    };
    simulate_standard_reset(params, inst, &pulse, cond.rho_start, cond.v_read)
}

/// Conditions for a SET operation with compliance current.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetConditions {
    /// Driver voltage (V).
    pub v_drive: f64,
    /// Series resistance (Ω).
    pub r_series: f64,
    /// Access-transistor compliance current (A).
    pub i_compliance: f64,
    /// Pulse width (s).
    pub width: f64,
    /// First trial step of the integrator (s).
    pub dt: f64,
    /// Starting filament state.
    pub rho_start: f64,
    /// Read-back voltage (V).
    pub v_read: f64,
}

impl SetConditions {
    /// The paper's standard SET: BL at 1.2 V, ~100 ns effective switching,
    /// ≈100 µA compliance from the 0.8/0.5 µm access transistor (Fig 1c).
    /// The filament is still growing when the 300 ns pulse ends: the
    /// nominal cell finishes at ρ ≈ 0.88, drawing ≈99.5 µA, just under the
    /// compliance. The LRS distribution stays tight because the growth
    /// rate is already small there, not because every cell saturates.
    pub fn paper_defaults() -> Self {
        SetConditions {
            v_drive: 1.2,
            r_series: 2.0e3,
            i_compliance: 100e-6,
            width: 300e-9,
            dt: 0.5e-9,
            rho_start: 0.1,
            v_read: 0.3,
        }
    }
}

/// Result of a SET operation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SetOutcome {
    /// Final filament state.
    pub rho_final: f64,
    /// Read resistance at `v_read` (Ω).
    pub r_read_ohms: f64,
    /// Energy drawn from the driver (J).
    pub energy_j: f64,
}

/// Simulates a compliance-limited SET pulse.
///
/// When the divider current would exceed the compliance, the access
/// transistor saturates: the current is clamped and the cell voltage
/// re-solved from the conduction law at the clamped current. The pulse is
/// integrated on `y = ln(1 − ρ)` to its end.
///
/// # Errors
///
/// [`RramError::InvalidParameter`] for an invalid card, drive (as
/// [`simulate_reset_termination`]) or a non-positive compliance; propagates
/// divider/inversion solve failures.
pub fn simulate_set(
    params: &OxramParams,
    inst: &InstanceVariation,
    cond: &SetConditions,
) -> Result<SetOutcome, RramError> {
    let _set = Profiler::global().phase(PhaseId::RramSet);
    params.validate()?;
    check_drive(
        inst,
        cond.v_drive,
        cond.r_series,
        cond.rho_start,
        cond.v_read,
    )?;
    let i_c = cond.i_compliance;
    if !(i_c.is_finite() && i_c > 0.0) {
        return Err(RramError::InvalidParameter {
            name: "i_compliance",
            value: i_c,
        });
    }
    let law = CellLaw::new(params, inst);
    // Operating point at state `ρ = 1 − e^y`, with the access-transistor
    // compliance clamp: when the divider current would exceed it, the
    // transistor saturates and the cell voltage is re-solved at the clamped
    // current. Both solves start from the previous stage's cell voltage.
    // The re-solve's end signs are known too: `I(0, ρ) − i_c = −i_c < 0`,
    // and `I(v_drive, ρ) ≥ I(v_div, ρ) > i_c` since the current rises with
    // the voltage.
    let rhs = |y: f64, guess: f64| -> Result<Stage, RramError> {
        let rho = -y.exp_m1();
        let (vc_div, i_div) = divider(&law, rho, cond.v_drive, cond.r_series, guess)?;
        let (vc, i) = if i_div > i_c {
            let fdf = |v: f64| {
                let (i, g) = law.current_and_slope(v, rho);
                (i - i_c, g)
            };
            let vc = newton_bracketed(fdf, 0.0, cond.v_drive, guess, RootOptions::default())?;
            (vc, i_c)
        } else {
            (vc_div, i_div)
        };
        Ok(Stage {
            vc,
            i,
            dy: -law.set_rate(vc, rho),
        })
    };
    let mut it = Integrator {
        rhs,
        v_drive: cond.v_drive,
        h: cond.dt,
    };
    let mut p = it.start((-cond.rho_start).ln_1p())?;
    while p.s.t < cond.width {
        p = it.step(&p, cond.width)?;
    }
    let ledger = JouleLedger::global();
    if ledger.is_enabled() {
        ledger.record_energy(DeviceClass::RramCell, Role::RramCell, p.s.e_cell);
        ledger.record_energy(
            DeviceClass::Resistor,
            Role::AccessTransistor,
            p.s.e_drive - p.s.e_cell,
        );
    }
    let rho = -p.s.y.exp_m1();
    Ok(SetOutcome {
        rho_final: rho,
        r_read_ohms: law.read_resistance(rho, cond.v_read),
        energy_j: p.s.e_drive,
    })
}

/// The paper's published anchors used as the calibration target.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationTarget {
    /// `(IrefR in µA, RHRS in kΩ)` — Table 2.
    pub allocation: Vec<(f64, f64)>,
    /// `(IrefR in µA, latency in s)` — Fig 10 / Fig 13b anchors.
    pub latencies: Vec<(f64, f64)>,
    /// `(IrefR in µA, RESET energy in J)` — Fig 13a anchors (median-level
    /// estimates consistent with the reported 25 pJ average / 150 pJ
    /// maximum).
    pub energies: Vec<(f64, f64)>,
    /// LRS read resistance at 0.3 V (Ω) — Fig 3's RLRS median.
    pub r_lrs: f64,
}

impl CalibrationTarget {
    /// Table 2 plus the Fig 10 (2.6 µs @ 10 µA), Fig 13b (4.01 µs @ 6 µA),
    /// and Fig 13a energy anchors.
    pub fn paper() -> Self {
        CalibrationTarget {
            energies: vec![(6.0, 80e-12), (36.0, 15e-12)],
            r_lrs: 10e3,
            allocation: vec![
                (6.0, 267.0),
                (8.0, 185.0),
                (10.0, 153.0),
                (12.0, 125.0),
                (14.0, 106.0),
                (16.0, 92.0),
                (18.0, 81.0),
                (20.0, 72.4),
                (22.0, 65.3),
                (24.0, 59.4),
                (26.0, 54.5),
                (28.0, 50.3),
                (30.0, 46.6),
                (32.0, 43.45),
                (34.0, 40.65),
                (36.0, 38.17),
            ],
            latencies: vec![(10.0, 2.6e-6), (6.0, 4.01e-6)],
        }
    }
}

/// Result of a calibration run.
#[derive(Debug, Clone, PartialEq)]
pub struct CalibrationResult {
    /// The fitted model card.
    pub params: OxramParams,
    /// Fitted driver voltage (V).
    pub v_drive: f64,
    /// Fitted series resistance (Ω).
    pub r_series: f64,
    /// RMS log-space resistance error against the anchors.
    pub rms_log_error: f64,
    /// Objective evaluations consumed.
    pub evals: usize,
}

/// Objective for the calibration search (shared with tests).
fn calibration_objective(
    params: &OxramParams,
    v_drive: f64,
    r_series: f64,
    target: &CalibrationTarget,
) -> f64 {
    if params.validate().is_err() || !(0.5..=3.3).contains(&v_drive) || r_series <= 100.0 {
        return f64::INFINITY;
    }
    let inst = InstanceVariation::nominal();
    // Every anchor's RESET starts from ρ = 1 under the same drive, so one
    // trajectory serves all of them: resistances, then latencies, then
    // energies.
    let cond = ResetConditions {
        v_drive,
        r_series,
        ..ResetConditions::paper_defaults(f64::NAN)
    };
    let i_refs: Vec<f64> = target
        .allocation
        .iter()
        .chain(&target.latencies)
        .chain(&target.energies)
        .map(|&(i_ua, _)| i_ua * 1e-6)
        .collect();
    let Ok(outs) = simulate_reset_references(params, &inst, &cond, &i_refs)
        .into_iter()
        .collect::<Result<Vec<_>, _>>()
    else {
        return f64::INFINITY;
    };
    let (r_outs, rest) = outs.split_at(target.allocation.len());
    let (lat_outs, e_outs) = rest.split_at(target.latencies.len());
    let mut err = 0.0;
    for (&(_, r_kohm), out) in target.allocation.iter().zip(r_outs) {
        let e = (out.r_read_ohms / (r_kohm * 1e3)).ln();
        err += e * e;
    }
    for (&(_, lat), out) in target.latencies.iter().zip(lat_outs) {
        let e = (out.latency_s / lat).ln();
        err += 4.0 * e * e;
    }
    {
        let r_lrs = model::read_resistance(params, &inst, 1.0, 0.3);
        let e = (r_lrs / target.r_lrs).ln();
        err += 2.0 * e * e;
    }
    for (&(_, energy), out) in target.energies.iter().zip(e_outs) {
        let e = (out.energy_j / energy).ln();
        err += 1.5 * e * e;
    }
    err
}

/// Calibrates the model card (and drive conditions) against published
/// anchors with a Nelder–Mead search.
///
/// Free parameters: `ln g_on`, `v_shape`, `ln τ_rst0`, `v_rst`, `β`,
/// `v_drive`, `ln r_series`. SET-side parameters are left at their card
/// values (the paper's SET is a fixed 100 ns pulse common to all levels).
///
/// # Errors
///
/// Returns [`RramError::Numerics`] if the optimizer rejects its inputs.
pub fn calibrate(
    start: &OxramParams,
    v_drive0: f64,
    r_series0: f64,
    target: &CalibrationTarget,
    max_evals: usize,
) -> Result<CalibrationResult, RramError> {
    let x0 = [
        start.g_on.ln(),
        start.v_shape,
        start.tau_rst0.ln(),
        start.v_rst,
        start.beta_rst,
        v_drive0,
        r_series0.ln(),
        start.i_joule.ln(),
    ];
    let scale = [0.2, 0.2, 0.4, 0.04, 0.2, 0.05, 0.3, 0.4];
    let _calib = Profiler::global().phase(PhaseId::RramCalib);
    let base = *start;
    let objective = |x: &[f64]| {
        let mut p = base;
        p.g_on = x[0].exp();
        p.v_shape = x[1];
        p.tau_rst0 = x[2].exp();
        p.v_rst = x[3];
        p.beta_rst = x[4];
        p.i_joule = x[7].exp();
        calibration_objective(&p, x[5], x[6].exp(), target)
    };
    let min = nelder_mead(
        objective,
        &x0,
        &scale,
        NelderMeadOptions {
            max_evals,
            f_tol: 1e-6,
            x_tol: 1e-6,
        },
    )?;
    let mut fitted = *start;
    fitted.g_on = min.x[0].exp();
    fitted.v_shape = min.x[1];
    fitted.tau_rst0 = min.x[2].exp();
    fitted.v_rst = min.x[3];
    fitted.beta_rst = min.x[4];
    fitted.i_joule = min.x[7].exp();
    let n_anchors = target.allocation.len() as f64;
    Ok(CalibrationResult {
        params: fitted,
        v_drive: min.x[5],
        r_series: min.x[6].exp(),
        rms_log_error: (min.f / n_anchors).sqrt(),
        evals: min.evals,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn nominal() -> (OxramParams, InstanceVariation) {
        (OxramParams::calibrated(), InstanceVariation::nominal())
    }

    #[test]
    fn termination_resistance_monotone_in_reference() {
        let (p, inst) = nominal();
        let mut prev = 0.0;
        for i_ua in [36.0, 28.0, 20.0, 12.0, 6.0] {
            let out = simulate_reset_termination(
                &p,
                &inst,
                &ResetConditions::paper_defaults(i_ua * 1e-6),
            )
            .unwrap();
            assert!(
                out.r_read_ohms > prev,
                "R({i_ua} µA) = {} not > {prev}",
                out.r_read_ohms
            );
            prev = out.r_read_ohms;
        }
    }

    #[test]
    fn latency_grows_as_reference_falls() {
        let (p, inst) = nominal();
        let fast =
            simulate_reset_termination(&p, &inst, &ResetConditions::paper_defaults(36e-6)).unwrap();
        let slow =
            simulate_reset_termination(&p, &inst, &ResetConditions::paper_defaults(6e-6)).unwrap();
        assert!(slow.latency_s > 2.0 * fast.latency_s);
        assert!(slow.energy_j > fast.energy_j);
    }

    #[test]
    fn unreachable_reference_reports_not_terminated() {
        let (p, inst) = nominal();
        let mut cond = ResetConditions::paper_defaults(1e-12); // below leakage floor
        cond.t_max = 5e-6;
        assert!(matches!(
            simulate_reset_termination(&p, &inst, &cond),
            Err(RramError::NotTerminated { .. })
        ));
    }

    #[test]
    fn standard_reset_goes_deep() {
        let (p, inst) = nominal();
        let out =
            simulate_standard_reset(&p, &inst, &StandardResetPulse::paper_baseline(), 1.0, 0.3)
                .unwrap();
        let term =
            simulate_reset_termination(&p, &inst, &ResetConditions::paper_defaults(6e-6)).unwrap();
        assert!(
            out.r_read_ohms > 20.0 * term.r_read_ohms,
            "deep HRS {} vs terminated {}",
            out.r_read_ohms,
            term.r_read_ohms
        );
    }

    #[test]
    fn set_reaches_lrs_quickly() {
        let (p, inst) = nominal();
        let out = simulate_set(&p, &inst, &SetConditions::paper_defaults()).unwrap();
        assert!(out.rho_final > 0.6, "rho = {}", out.rho_final);
        assert!(out.r_read_ohms < 30e3, "R_LRS = {}", out.r_read_ohms);
    }

    #[test]
    fn set_compliance_limits_current_effect() {
        let (p, inst) = nominal();
        let mut strong = SetConditions::paper_defaults();
        strong.i_compliance = 500e-6;
        let mut weak = SetConditions::paper_defaults();
        weak.i_compliance = 30e-6;
        let r_strong = simulate_set(&p, &inst, &strong).unwrap();
        let r_weak = simulate_set(&p, &inst, &weak).unwrap();
        // Lower compliance → less energy.
        assert!(r_weak.energy_j < r_strong.energy_j);
    }

    #[test]
    fn terminated_state_draws_exactly_the_reference_current() {
        // The located crossing reports the closed-form state: solving the
        // divider there gives back IrefR, with no step-quantisation
        // overshoot.
        let (p, inst) = nominal();
        for i_ua in [36.0, 20.0, 6.0] {
            let cond = ResetConditions::paper_defaults(i_ua * 1e-6);
            let out = simulate_reset_termination(&p, &inst, &cond).unwrap();
            let vc = solve_divider(
                &p,
                &inst,
                out.rho_final,
                cond.v_drive,
                cond.r_series,
                f64::NAN,
            )
            .unwrap();
            let i = model::cell_current(&p, &inst, vc, out.rho_final);
            assert!(
                (i / cond.i_ref - 1.0).abs() < 1e-9,
                "{i_ua} µA: current {i:e} at the terminated state"
            );
        }
    }

    #[test]
    fn bad_drive_or_nan_state_is_a_classified_error() {
        let (p, inst) = nominal();
        let invalid = |r: Result<(), RramError>, want: &str| match r {
            Err(RramError::InvalidParameter { name, .. }) if name == want => {}
            other => panic!("expected invalid {want}, got {other:?}"),
        };
        for v_drive in [0.0, -1.2, f64::NAN] {
            let cond = ResetConditions {
                v_drive,
                ..ResetConditions::paper_defaults(10e-6)
            };
            invalid(
                simulate_reset_termination(&p, &inst, &cond).map(drop),
                "v_drive",
            );
            let set = SetConditions {
                v_drive,
                ..SetConditions::paper_defaults()
            };
            invalid(simulate_set(&p, &inst, &set).map(drop), "v_drive");
            let pulse = StandardResetPulse {
                v_drive,
                ..StandardResetPulse::paper_baseline()
            };
            invalid(
                simulate_standard_reset(&p, &inst, &pulse, 1.0, 0.3).map(drop),
                "v_drive",
            );
        }
        for rho_start in [f64::NAN, -0.1, 1.5] {
            let cond = ResetConditions {
                rho_start,
                ..ResetConditions::paper_defaults(10e-6)
            };
            invalid(
                simulate_reset_termination(&p, &inst, &cond).map(drop),
                "rho_start",
            );
            let set = SetConditions {
                rho_start,
                ..SetConditions::paper_defaults()
            };
            invalid(simulate_set(&p, &inst, &set).map(drop), "rho_start");
            let pulse = StandardResetPulse::paper_baseline();
            invalid(
                simulate_standard_reset(&p, &inst, &pulse, rho_start, 0.3).map(drop),
                "rho_start",
            );
        }
        // A NaN state reaching the divider is an error, not a silent root.
        let law = CellLaw::new(&p, &inst);
        assert!(matches!(
            divider(&law, f64::NAN, 1.2, 3e3, f64::NAN),
            Err(RramError::Numerics(NumericsError::InvalidInput { .. }))
        ));
    }

    #[test]
    fn divider_returns_the_current_at_its_root() {
        let (p, inst) = nominal();
        let law = CellLaw::new(&p, &inst);
        for rho in [0.0, 1e-6, 0.05, 0.5, 1.0] {
            let (vc, i) = divider(&law, rho, 1.1523, 3.6131e3, f64::NAN).unwrap();
            assert!(vc > 0.0 && vc < 1.1523);
            assert_eq!(i, law.current(vc, rho));
            assert!((i - (1.1523 - vc) / 3.6131e3).abs() < 1e-13, "rho {rho}");
        }
    }

    #[test]
    fn worst_case_reset_bounds_every_terminated_run() {
        let (p, inst) = nominal();
        let cond = ResetConditions::paper_defaults(6e-6);
        let worst = simulate_worst_case_reset(&p, &inst, &cond).unwrap();
        assert!((worst.latency_s - cond.t_max).abs() < 1e-12);
        // 6 µA is the slowest, most energetic level; even it saves energy
        // and time against the open-loop budget pulse.
        let term = simulate_reset_termination(&p, &inst, &cond).unwrap();
        assert!(
            worst.energy_j > term.energy_j,
            "{} vs {}",
            worst.energy_j,
            term.energy_j
        );
        assert!(worst.latency_s > term.latency_s);
    }

    #[test]
    fn objective_is_finite_at_calibrated_point() {
        let p = OxramParams::calibrated();
        let c = ResetConditions::paper_defaults(10e-6);
        let obj = calibration_objective(&p, c.v_drive, c.r_series, &CalibrationTarget::paper());
        assert!(obj.is_finite(), "objective = {obj}");
    }

    #[test]
    fn calibrate_smoke_runs() {
        // A short smoke run: must not regress the objective.
        let p = OxramParams::calibrated();
        let c = ResetConditions::paper_defaults(10e-6);
        let before = calibration_objective(&p, c.v_drive, c.r_series, &CalibrationTarget::paper());
        let res = calibrate(&p, c.v_drive, c.r_series, &CalibrationTarget::paper(), 40).unwrap();
        let after = calibration_objective(
            &res.params,
            res.v_drive,
            res.r_series,
            &CalibrationTarget::paper(),
        );
        assert!(after <= before * 1.0001, "{after} vs {before}");
    }
}
