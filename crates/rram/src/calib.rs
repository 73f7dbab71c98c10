//! Fast scalar programming simulations and model calibration.
//!
//! Monte Carlo reproduction of the paper's Figs 11–13 needs on the order of
//! `500 runs × 16 levels` SET + terminated-RESET simulations. Running each
//! through the full MNA transient engine works but is wasteful for a series
//! `driver – R_series – cell` path, so this module integrates that path as
//! a scalar ODE. Every pulse — the compliance-limited SET, the terminated
//! RESET and the fixed-width RESET — goes through one error-controlled
//! integrator: an embedded Bogacki–Shampine 3(2) pair on the cell voltage
//! `v_c`, carrying the driver and cell energies as two more components.
//!
//! The rest of the circuit follows from `v_c` in closed form. The circuit
//! sets the current, `i = min((v_drive − v_c)/R_series, i_compliance)`. The
//! conduction law is linear in `ρ²`, so [`CellLaw::rho2_and_slopes`] gives
//! the state that draws `i` at `v_c`. The chain rule turns the rate law's
//! `dρ/dt` into `dv_c/dt`. A stage is one exponential for the conduction law and one for
//! the rate, with no solve: each pulse builds its [`CellLaw`] once and
//! solves the resistive divider once, for its start state, through the
//! known-sign Newton entry [`newton_bracketed`]. Steps are sized so the
//! local error stays below one relative tolerance (`RTOL`) in each energy
//! and in `y = ln ρ` (RESET) or `ln(1 − ρ)` (SET), the error in `v_c`
//! weighted by `|dy/dv_c|`; the conditions' `dt` is only the first trial
//! step. A SET starts at or above [`RHO_MIN`]; a RESET holds `ρ = 0`.
//!
//! Termination is a voltage threshold. When the cell current equals
//! `IrefR`, the cell sits at `v* = v_drive − IrefR·R_series`, so
//! `I(v*, ρ*) = IrefR` gives `ρ*` and the read resistance exactly. The
//! crossing time is located by a secant search over sub-steps that start
//! from the beginning of the accepted step in which `v_c` passes `v*`.
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

use crate::model::{self, CellLaw, RHO_CEILING_GAP};
use crate::params::{InstanceVariation, OxramParams};
use crate::RramError;
use oxterm_telemetry::joule::{DeviceClass, JouleLedger, Role};
use oxterm_telemetry::{CounterId, HistogramId, PhaseId, Profiler, Telemetry};

/// Relative tolerance of the pulse integrator: the local error allowed per
/// step in `y` (so relative in `ρ` or `1 − ρ`) and in each energy relative
/// to the energy drawn so far.
const RTOL: f64 = 1e-4;

/// The least state tracked to `RTOL`: SETs start at or above it; below it RESET error is in `ρ²`.
pub const RHO_MIN: f64 = 1e-3;

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

/// One pulse's circuit: the driver `v_drive` through `r_series` (held as
/// its conductance `g_series`) into the cell, the current clamped at
/// `i_max` (the SET compliance; `∞` for RESET), and the polarity, which
/// picks the rate law.
#[derive(Debug, Clone, Copy)]
struct Pulse {
    law: CellLaw,
    v_drive: f64,
    g_series: f64,
    i_max: f64,
    set: bool,
}

impl Pulse {
    /// `v_drive` through `r_series` into the cell `law`, the current
    /// clamped at `i_max`: a SET pulse if `set`, else a RESET.
    fn new(law: CellLaw, v_drive: f64, r_series: f64, i_max: f64, set: bool) -> Self {
        Pulse {
            law,
            v_drive,
            g_series: 1.0 / r_series,
            i_max,
            set,
        }
    }

    /// The current the circuit sets at cell voltage `v`, and how much it
    /// falls per volt: `(v_drive − v)/r_series` up to the clamp.
    fn drive(&self, v: f64) -> (f64, f64) {
        let i_div = (self.v_drive - v) * self.g_series;
        if i_div > self.i_max {
            (self.i_max, 0.0)
        } else {
            (i_div, self.g_series)
        }
    }

    /// The circuit at cell voltage `vc`: one right-hand-side evaluation, with
    /// no solve. The circuit sets the current, the conduction law (linear in
    /// `ρ²`) gives the state drawing it, and the rate law moves that state.
    fn stage(&self, vc: f64) -> Stage {
        let (i, di_drive) = self.drive(vc);
        let (rho2, di_dv, di_drho2) = self.law.rho2_and_slopes(vc, i);
        let rho2 = rho2.max(0.0);
        // The circuit holds `I(v, ρ) = i` as the state moves, so `dv/dt =
        // −(∂I/∂ρ)·(dρ/dt)/di` with `di` the slope of `I(v, ρ) − i` in `v`,
        // and `|dy/dv| = di/(∂I/∂ρ·|dρ/dy|)`. Here `∂I/∂ρ = 2ρ·∂I/∂(ρ²)`.
        let di = di_dv + di_drive;
        let (dv, w) = if self.set {
            // `dρ/dt = (1 − ρ)·set_rate`, `dρ/dy = −(1 − ρ)`, floored where
            // the model saturates.
            let rho = rho2.sqrt();
            let gap = 1.0 - rho;
            let di_drho = 2.0 * rho * di_drho2;
            // Grouped so the division does not wait for the square root.
            (
                -di_drho * gap * (self.law.set_rate(vc, rho) / di),
                di / (di_drho * gap.max(RHO_CEILING_GAP)),
            )
        } else {
            // `dρ/dt = −ρ·reset_rate`, `dρ/dy = ρ`: both carry `ρ·∂I/∂ρ`; the
            // weight's is floored, so the zero error at `ρ = 0` counts as 0.
            let rho_di_drho = 2.0 * rho2 * di_drho2;
            let rate = self.law.reset_rate(vc, i, 0.5 * rho2.ln());
            let w = di / (2.0 * rho2.max(RHO_MIN * RHO_MIN) * di_drho2);
            // Grouped so the division does not wait for the rate.
            (rho_di_drho / di * rate, w)
        };
        Stage { vc, i, rho2, dv, w }
    }

    /// The pulse's integrator, first trial step `h0`, and its start at state
    /// `ρ`: the pulse's one divider solve, by Newton from the midpoint of
    /// `[0, v_drive]`, whose ends are never evaluated. Their signs are known:
    /// `f(0) < 0 < f(v_drive) = I(v_drive, ρ)` ([`check_drive`]).
    fn start(
        self,
        rho: f64,
        h0: f64,
    ) -> Result<(Integrator<impl Fn(f64) -> Stage>, Point), RramError> {
        let fdf = |v: f64| {
            let (i, di_dv) = self.law.current_and_slope(v, rho);
            let (i_set, di_drive) = self.drive(v);
            (i - i_set, di_dv + di_drive)
        };
        let v = newton_bracketed(fdf, 0.0, self.v_drive, f64::NAN, RootOptions::default())?;
        let s = State {
            v,
            ..State::default()
        };
        let k = self.stage(v);
        let it = Integrator {
            rhs: move |v| self.stage(v),
            v_drive: self.v_drive,
            h: h0,
        };
        Ok((it, Point { s, k }))
    }
}

/// Rejects what the fast path cannot simulate: a drive the divider solve
/// cannot bracket (`v_drive`, `r_series` not finite and positive), a
/// starting state outside `[rho_min, 1]` (NaN included), a non-positive
/// read voltage or instance factor.
fn check_drive(
    inst: &InstanceVariation,
    v_drive: f64,
    r_series: f64,
    rho_start: f64,
    rho_min: f64,
    v_read: f64,
) -> Result<(), RramError> {
    let positive = |x: f64| x.is_finite() && x > 0.0;
    for (name, value, ok) in [
        ("v_drive", v_drive, positive(v_drive)),
        ("r_series", r_series, positive(r_series)),
        ("rho_start", rho_start, (rho_min..=1.0).contains(&rho_start)),
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
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct State {
    /// Time since pulse start (s).
    t: f64,
    /// Cell-voltage magnitude `v_c` (V).
    v: f64,
    /// Energy drawn from the driver, `∫ v_drive·i dt` (J).
    e_drive: f64,
    /// Energy dissipated in the cell, `∫ v_c·i dt` (J).
    e_cell: f64,
}

/// The circuit at one cell voltage: one right-hand-side evaluation.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Stage {
    /// Cell-voltage magnitude (V).
    vc: f64,
    /// Cell-current magnitude (A).
    i: f64,
    /// Filament state, squared.
    rho2: f64,
    /// `dv_c/dt` (V/s).
    dv: f64,
    /// `|dy/dv_c|` (1/V) for `y = ln ρ` (RESET; `ρ²/(2·RHO_MIN²)` below
    /// that state) or `ln(1 − ρ)` (SET): the weight that turns an error in
    /// `v_c` into one in `y`.
    w: f64,
}

/// An accepted state with its stage: where one step ends and the next
/// begins (the pair is first-same-as-last).
#[derive(Debug, Clone, Copy, PartialEq)]
struct Point {
    s: State,
    k: Stage,
}

/// The one pulse integrator: an embedded Bogacki–Shampine 3(2) pair with
/// local extrapolation on the cell voltage, over a right-hand side
/// `rhs(v_c)`.
struct Integrator<F> {
    rhs: F,
    v_drive: f64,
    /// The next trial step (s).
    h: f64,
}

impl<F: Fn(f64) -> Stage> Integrator<F> {
    /// The third-order solution `h` past `p`, with its two inner stages.
    fn reach(&self, p: &Point, h: f64) -> (State, Stage, Stage) {
        let k1 = p.k;
        let k2 = (self.rhs)(p.s.v + 0.5 * h * k1.dv);
        let k3 = (self.rhs)(p.s.v + 0.75 * h * k2.dv);
        let sum = |f: fn(&Stage) -> f64| h * (2.0 * f(&k1) + 3.0 * f(&k2) + 4.0 * f(&k3)) / 9.0;
        let s = State {
            t: p.s.t + h,
            v: p.s.v + sum(|k| k.dv),
            e_drive: p.s.e_drive + self.v_drive * sum(|k| k.i),
            e_cell: p.s.e_cell + sum(|k| k.vc * k.i),
        };
        (s, k2, k3)
    }

    /// One accepted step from `p`, ending at `t_end` if the trial step
    /// would reach past it. Rejected trials shrink the step and retry; a
    /// step that cannot be made acceptable fails as a numerical error.
    fn step(&mut self, p: &Point, t_end: f64) -> Result<Point, RramError> {
        let mut ratio = f64::NAN;
        for _ in 0..MAX_REJECTIONS {
            let last = self.h >= t_end - p.s.t;
            let h = if last { t_end - p.s.t } else { self.h };
            let (mut s, k2, k3) = self.reach(p, h);
            let k4 = (self.rhs)(s.v);
            // The embedded second-order solution's distance from the third.
            let k1 = p.k;
            let err = |f: fn(&Stage) -> f64| {
                (h * (-10.0 * f(&k1) + 12.0 * f(&k2) + 16.0 * f(&k3) - 18.0 * f(&k4)) / 144.0).abs()
            };
            // Relative to the larger energy; `0/0` before any is drawn is 0.
            let relative = |e: f64, a: f64, b: f64| e / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
            // The larger, NaN if either is (`f64::max` drops a NaN).
            let worst = |a: f64, b: f64| if a.is_nan() || a > b { a } else { b };
            // The error in `v_c` counts as an error in `y` through `|dy/dv_c|`
            // at whichever end of the step weighs it more.
            ratio = worst(
                worst(
                    err(|k| k.dv) * worst(k1.w, k4.w),
                    relative(self.v_drive * err(|k| k.i), p.s.e_drive, s.e_drive),
                ),
                relative(err(|k| k.vc * k.i), p.s.e_cell, s.e_cell),
            ) * (1.0 / RTOL);
            // Fivefold at a zero error.
            let factor = (0.9 / ratio.cbrt()).clamp(0.2, 5.0);
            let finite = s.v.is_finite() && s.e_drive.is_finite() && s.e_cell.is_finite();
            if finite && ratio <= 1.0 {
                if last {
                    s.t = t_end;
                }
                self.h = h * factor;
                return Ok(Point { s, k: k4 });
            }
            // A non-finite trial state or error is a rejection too.
            self.h = h * factor.min(0.2);
        }
        // The residual is the last trial's error in units of the tolerance.
        Err(RramError::Numerics(NumericsError::NoConvergence {
            iterations: MAX_REJECTIONS,
            residual: ratio,
        }))
    }

    /// The state inside the accepted step `p0 → p1` at which `v_c` rises to
    /// `v_star` (`p0.s.v < v_star ≤ p1.s.v`): a secant search (Illinois
    /// variant) over sub-steps that start from `p0`.
    fn locate(&self, p0: &Point, p1: &Point, v_star: f64) -> State {
        let (mut a, mut ga) = (0.0, v_star - p0.s.v);
        let (mut b, mut gb) = (p1.s.t - p0.s.t, v_star - p1.s.v);
        let mut at = p1.s;
        let mut side = 0i8;
        for _ in 0..50 {
            if gb.abs() <= 1e-12 || b <= a {
                break;
            }
            let tau = (a * gb - b * ga) / (gb - ga);
            let (s, _, _) = self.reach(p0, tau);
            let g = v_star - s.v;
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
        at
    }
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
/// * [`RramError::Numerics`] if the start solve or the step control fails.
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
/// numerical failure fails every reference not yet crossed; an armed chaos
/// fault fails the whole call.
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
            0.0,
            cond.v_read,
        )
    }) {
        return vec![Err(e); i_refs.len()];
    }
    let law = CellLaw::new(params, inst);
    let mut out: Vec<Option<Result<TerminationOutcome, RramError>>> = vec![None; i_refs.len()];
    // `pending` lists the valid references, each with the cell voltage
    // `v* = v_drive − IrefR·r_series` at which the current falls to it, from
    // the lowest up: the order in which a rising `v_c` crosses them.
    let mut pending = Vec::with_capacity(i_refs.len());
    for (k, &i_ref) in i_refs.iter().enumerate() {
        if i_ref.is_nan() || i_ref <= 0.0 {
            out[k] = Some(Err(RramError::InvalidParameter {
                name: "i_ref",
                value: i_ref,
            }));
        } else {
            pending.push((k, cond.v_drive - i_ref * cond.r_series));
        }
    }
    pending.sort_by(|(_, a), (_, b)| a.total_cmp(b));
    if !pending.is_empty() {
        reset_trajectory(&law, cond, i_refs, &pending, &mut out);
    }
    out.into_iter()
        .map(|slot| slot.unwrap_or_else(|| unreachable!("every reference is resolved")))
        .collect()
}

/// The terminated RESET: integrates from `cond.rho_start` until the state
/// has crossed every reference in `pending` (indices into `i_refs` with
/// their `v*`, lowest first) or `cond.t_max` passes, and fills `out` at
/// those indices.
fn reset_trajectory(
    law: &CellLaw,
    cond: &ResetConditions,
    i_refs: &[f64],
    pending: &[(usize, f64)],
    out: &mut [Option<Result<TerminationOutcome, RramError>>],
) {
    let tel = Telemetry::global();
    tel.tally(CounterId::TerminationRuns, pending.len() as u64);
    if oxterm_chaos::should_inject(oxterm_chaos::FaultKind::NewtonStall) {
        // Fast-path analogue of a forced Newton stall: the Monte Carlo
        // volume campaigns (Figs. 11/13) program cells through this
        // semi-analytic path, never through `newton_solve`.
        tel.tally(CounterId::InjectedNewtonStall, 1);
        for &(k, _) in pending {
            out[k] = Some(Err(RramError::Injected { site: "reset_fast" }));
        }
        return;
    }
    let ledger = JouleLedger::global();
    let fail = |out: &mut [Option<_>], from: usize, e: RramError| {
        for &(k, _) in &pending[from..] {
            out[k] = Some(Err(e.clone()));
        }
    };
    // `pending[next]` is the highest reference not yet crossed.
    let mut next = 0;
    let pulse = Pulse::new(*law, cond.v_drive, cond.r_series, f64::INFINITY, false);
    let (mut it, mut p) = match pulse.start(cond.rho_start, cond.dt) {
        Ok(start) => start,
        Err(e) => return fail(out, next, e),
    };
    let i_initial = p.k.i;
    // The step just accepted, `prev → p`; `None` at pulse start.
    let mut prev: Option<Point> = None;
    let mut steps = 0u64;
    loop {
        while let Some(&(k, v_star)) = pending.get(next).filter(|&&(_, v_star)| p.s.v >= v_star) {
            // Already below the reference at pulse start, or crossed in
            // the step just accepted: the state there draws IrefR at `v*`.
            let (rho_final, at) = match &prev {
                None => (cond.rho_start, p.s),
                Some(p0) => (law.rho_at(v_star, i_refs[k]), it.locate(p0, &p, v_star)),
            };
            tel.tally(CounterId::TerminationSteps, steps);
            tel.sample(HistogramId::TerminationLatency, at.t);
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
                tel.tally(CounterId::NotTerminated, 1);
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
/// [`simulate_reset_termination`]); propagates numerical failures.
pub fn simulate_standard_reset(
    params: &OxramParams,
    inst: &InstanceVariation,
    pulse: &StandardResetPulse,
    rho_start: f64,
    v_read: f64,
) -> Result<TerminationOutcome, RramError> {
    let _reset = Profiler::global().phase(PhaseId::RramReset);
    params.validate()?;
    check_drive(inst, pulse.v_drive, pulse.r_series, rho_start, 0.0, v_read)?;
    let law = CellLaw::new(params, inst);
    let (mut it, start) = Pulse::new(law, pulse.v_drive, pulse.r_series, f64::INFINITY, false)
        .start(rho_start, pulse.dt)?;
    let mut p = start;
    while p.s.t < pulse.width {
        p = it.step(&p, pulse.width)?;
    }
    let rho = p.k.rho2.sqrt();
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
/// Propagates numerical failures and invalid cards.
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
/// transistor saturates: the current is clamped, and the cell voltage is
/// where the cell draws the clamped current. The pulse is integrated on the
/// cell voltage to its end.
///
/// # Errors
///
/// [`RramError::InvalidParameter`] for an invalid card, drive (as
/// [`simulate_reset_termination`], but `rho_start` below [`RHO_MIN`]
/// is invalid too) or a non-positive compliance; propagates divider-solve
/// and step-control failures.
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
        RHO_MIN,
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
    let (mut it, mut p) =
        Pulse::new(law, cond.v_drive, cond.r_series, i_c, true).start(cond.rho_start, cond.dt)?;
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
    // Past the model's saturation the state map reads `ρ` a rounding above 1.
    let rho = p.k.rho2.sqrt().min(1.0);
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

    /// The pulse's start solve: the cell voltage at state `rho`.
    fn divider(pulse: Pulse, rho: f64) -> Result<f64, RramError> {
        pulse.start(rho, 1e-9).map(|(_, p)| p.s.v)
    }

    /// A RESET pulse of the nominal cell.
    fn reset_pulse(v_drive: f64, r_series: f64) -> Pulse {
        let (p, inst) = nominal();
        Pulse::new(
            CellLaw::new(&p, &inst),
            v_drive,
            r_series,
            f64::INFINITY,
            false,
        )
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
            let vc = divider(reset_pulse(cond.v_drive, cond.r_series), out.rho_final).unwrap();
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
        assert!(matches!(
            divider(reset_pulse(1.2, 3e3), f64::NAN),
            Err(RramError::Numerics(NumericsError::InvalidInput { .. }))
        ));
    }

    #[test]
    fn divider_returns_the_current_at_its_root() {
        // The stage at the solved voltage carries the divider current, which
        // the cell draws there, and, from `RHO_MIN` up, the state it was
        // solved for.
        let pulse = reset_pulse(1.1523, 3.6131e3);
        for rho in [0.0, 1e-6, 1e-3, 0.05, 0.5, 1.0] {
            let vc = divider(pulse, rho).unwrap();
            assert!(vc > 0.0 && vc < 1.1523);
            let k = pulse.stage(vc);
            assert_eq!(k.i, (1.1523 - vc) * (1.0 / 3.6131e3));
            assert!(
                (k.i - pulse.law.current(vc, rho)).abs() < 1e-13,
                "rho {rho}"
            );
            if rho >= RHO_MIN {
                assert!((k.rho2.sqrt() / rho - 1.0).abs() < 1e-6, "rho {rho}: {k:?}");
            }
        }
    }

    #[test]
    fn reset_from_the_empty_state_holds_it() {
        // `ρ = 0` is the RESET's fixed point: the cell draws the hopping
        // current alone, constant over the pulse, and the state stays 0.
        let (p, inst) = nominal();
        let pulse = StandardResetPulse::paper_baseline();
        let out = simulate_standard_reset(&p, &inst, &pulse, 0.0, 0.3).unwrap();
        assert_eq!(out.rho_final, 0.0, "{out:?}");
        assert_eq!(
            out.r_read_ohms,
            CellLaw::new(&p, &inst).read_resistance(0.0, 0.3)
        );
        let e_held = pulse.v_drive * out.i_initial * pulse.width;
        assert!((out.energy_j / e_held - 1.0).abs() < 1e-12, "{out:?}");
        // A reference below the hopping current is never reached.
        let cond = ResetConditions {
            rho_start: 0.0,
            t_max: 5e-6,
            ..ResetConditions::paper_defaults(1e-12)
        };
        assert!(matches!(
            simulate_reset_termination(&p, &inst, &cond),
            Err(RramError::NotTerminated { .. })
        ));
    }

    #[test]
    fn set_starts_at_the_smallest_tracked_state() {
        // The cell voltage cannot leave `ρ = 0`, so a SET from below
        // `RHO_MIN` is invalid. From `RHO_MIN` it ends where the SET
        // integrated on `ln(1 − ρ)` does, ρ = 1.441680e-3 drawing
        // 5.635236e-15 J.
        let (p, inst) = nominal();
        for rho_start in [0.0, 1e-6, 0.5 * RHO_MIN] {
            let cond = SetConditions {
                rho_start,
                ..SetConditions::paper_defaults()
            };
            assert!(
                matches!(
                    simulate_set(&p, &inst, &cond),
                    Err(RramError::InvalidParameter {
                        name: "rho_start",
                        ..
                    })
                ),
                "rho_start {rho_start}"
            );
        }
        let cond = SetConditions {
            rho_start: RHO_MIN,
            ..SetConditions::paper_defaults()
        };
        let out = simulate_set(&p, &inst, &cond).unwrap();
        assert!((out.rho_final / 1.441680e-3 - 1.0).abs() < 2e-4, "{out:?}");
        assert!((out.energy_j / 5.635236e-15 - 1.0).abs() < 1e-4, "{out:?}");
    }

    /// One step from `v = 0` of an integrator over `rhs`, first trial
    /// step 10 (the right-hand sides below turn non-finite past `v = 1`).
    fn first_step(rhs: impl Fn(f64) -> Stage + Copy) -> Point {
        let p = Point {
            s: State::default(),
            k: rhs(0.0),
        };
        let mut it = Integrator {
            rhs,
            v_drive: 1.0,
            h: 10.0,
        };
        it.step(&p, 100.0).unwrap()
    }

    #[test]
    fn non_finite_trials_are_rejected() {
        // `dv/dt = 1` with a zero error estimate in `v`: only the NaN
        // beyond `v = 1` can reject a trial, and it must, shrinking the
        // step (10 → 2 → 0.4) until no stage reaches past `v = 1`.
        let stage = |v: f64, i: f64, w: f64| Stage {
            vc: v,
            i,
            rho2: 0.25,
            dv: 1.0,
            w,
        };
        let past = |v: f64| if v > 1.0 { f64::NAN } else { 1.0 };
        // A non-finite trial state: the current, so the energies, go NaN.
        let p = first_step(move |v| stage(v, 1e-6 * past(v), 1.0));
        assert_eq!(p.s.v, 0.4, "{p:?}");
        assert!(p.s.e_drive.is_finite() && p.s.e_cell.is_finite(), "{p:?}");
        // A non-finite error: the end stage's weight goes NaN.
        let p = first_step(move |v| stage(v, 1e-6, past(v)));
        assert_eq!(p.s.v, 0.4, "{p:?}");
    }

    #[test]
    fn saturating_set_stays_finite_at_the_ceiling() {
        // 30 µs at 1.5 V under 500 µA drives ρ to the model's ceiling, where
        // the error weight's `1 − ρ` is floored and `ρ` clamped at 1. The
        // energy matches the SET integrated on `ln(1 − ρ)`, 7.346944e-9 J.
        let (p, inst) = nominal();
        let cond = SetConditions {
            v_drive: 1.5,
            i_compliance: 500e-6,
            width: 30e-6,
            ..SetConditions::paper_defaults()
        };
        let out = simulate_set(&p, &inst, &cond).unwrap();
        assert!((out.rho_final - 1.0).abs() < 1e-12, "{out:?}");
        assert!(out.rho_final <= 1.0, "{out:?}");
        assert!((out.energy_j / 7.346944e-9 - 1.0).abs() < 1e-4, "{out:?}");
    }

    #[test]
    fn overdriven_set_matches_the_log_state_kernel() {
        // A SET at the 3 V rail ends where the SET integrated on
        // `ln(1 − ρ)` does, ρ = 0.936951, in a finite state.
        let (p, inst) = nominal();
        let cond = SetConditions {
            v_drive: 3.0,
            ..SetConditions::paper_defaults()
        };
        let out = simulate_set(&p, &inst, &cond).unwrap();
        assert!((out.rho_final - 0.936951).abs() < 1e-4, "{out:?}");
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
