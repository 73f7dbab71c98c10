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
//! That search runs as a lane of its own beside the trajectories, one
//! secant iteration per round of the lane driver, and references with the
//! same `v*` share it. The accepted trajectory never depends on the
//! references, so [`simulate_reset_references`] runs one trajectory and
//! reads every reference's crossing off it, its searches in the lanes
//! beside it; [`simulate_reset_termination`] is its one-reference case.
//! The integration test suite cross-checks this path against the full
//! circuit-level transient and against a converged fixed-step replay.
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
use std::ops::Range;

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

/// Lanes the lane driver advances together: pulse integrators, one step
/// each per round, and crossing searches, one secant iteration each. A
/// stage is one dependent chain of exponentials, `sqrt` and `ln`;
/// independent chains side by side overlap on the core. Chosen by
/// measurement: with each stage split in two halves, six and eight lanes
/// ran `qlc_campaign` ≈ 2 % faster than four and ≈ 5 % faster than three
/// (DESIGN.md §4).
pub const LANES: usize = 8;

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

/// A pulse's right-hand side: the circuit at cell voltage `v`, in two
/// halves so the lane driver can start every lane's first half before any
/// lane's second, and the driver voltage the drawn energy is integrated at.
trait Rhs: Copy {
    /// What the first half of a stage hands to the second.
    type Half: Copy + Default;
    fn half(&self, v: f64) -> Self::Half;
    fn finish(&self, half: &Self::Half) -> Stage;
    fn v_drive(&self) -> f64;

    /// The circuit at cell voltage `v`: one right-hand-side evaluation.
    fn stage(&self, v: f64) -> Stage {
        self.finish(&self.half(v))
    }
}

/// The first half of a RESET or SET stage: the circuit's current at a cell
/// voltage and the conduction law's state and slopes there.
#[derive(Debug, Clone, Copy, Default)]
struct Conduction {
    vc: f64,
    i: f64,
    rho2: f64,
    /// The slope in `v` of `I(v, ρ) − i`.
    di: f64,
    di_drho2: f64,
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

    /// The pulse's lane for job `job`, first trial step `h0`, ending at
    /// `t_end`, started at state `ρ`: the pulse's one divider solve, by
    /// Newton from the midpoint of `[0, v_drive]`, whose ends are never
    /// evaluated. Their signs are known: `f(0) < 0 < f(v_drive) =
    /// I(v_drive, ρ)` ([`check_drive`]).
    fn start(self, rho: f64, h0: f64, t_end: f64, job: usize) -> Result<Lane<Pulse>, RramError> {
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
        Ok(Lane {
            rhs: self,
            p: Point {
                s,
                k: self.stage(v),
            },
            h: h0,
            t_end,
            job,
            search: None,
        })
    }
}

impl Rhs for Pulse {
    type Half = Conduction;

    /// The circuit at cell voltage `vc`, with no solve: the circuit sets the
    /// current, and the conduction law (linear in `ρ²`) gives the state
    /// drawing it.
    fn half(&self, vc: f64) -> Conduction {
        let (i, di_drive) = self.drive(vc);
        let (rho2, di_dv, di_drho2) = self.law.rho2_and_slopes(vc, i);
        Conduction {
            vc,
            i,
            rho2: rho2.max(0.0),
            di: di_dv + di_drive,
            di_drho2,
        }
    }

    /// The rate law moving the state of `c`.
    fn finish(&self, c: &Conduction) -> Stage {
        let &Conduction {
            vc,
            i,
            rho2,
            di,
            di_drho2,
        } = c;
        // The circuit holds `I(v, ρ) = i` as the state moves, so `dv/dt =
        // −(∂I/∂ρ)·(dρ/dt)/di` with `di` the slope of `I(v, ρ) − i` in `v`,
        // and `|dy/dv| = di/(∂I/∂ρ·|dρ/dy|)`. Here `∂I/∂ρ = 2ρ·∂I/∂(ρ²)`.
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

    fn v_drive(&self) -> f64 {
        self.v_drive
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
#[derive(Debug, Clone, Copy, PartialEq, Default)]
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

/// One pulse in flight: an embedded Bogacki–Shampine 3(2) pair with local
/// extrapolation on the cell voltage over the right-hand side `rhs`, at its
/// last accepted point `p`, with its next trial step `h`, its end time and
/// the job it runs. A search lane instead takes the sub-steps `h` of its
/// [`Secant`] from the start `p` of the step it searches.
#[derive(Debug, Clone, Copy)]
struct Lane<R> {
    rhs: R,
    p: Point,
    /// The next trial step (s).
    h: f64,
    /// No step reaches past this time (s); `∞` on a search lane, so its
    /// trial step is `h`.
    t_end: f64,
    /// The job's index in its batch; on a search lane, the crossing's
    /// index in its course.
    job: usize,
    /// The crossing a search lane locates; `None` on a pulse's lane.
    search: Option<Secant>,
}

/// A secant search (Illinois variant) for the time inside an accepted step
/// `p0 → p1` at which `v_c` rises to `v_star` (`p0.s.v < v_star ≤
/// p1.s.v`), over sub-steps `τ` that start from `p0`: the bracket `[a, b]`
/// on `τ` with `v_star − v_c` at each end, the state of the last sub-step
/// that reached `v_star`, the end that moved last, and the iterations.
#[derive(Debug, Clone, Copy)]
struct Secant {
    v_star: f64,
    a: f64,
    ga: f64,
    b: f64,
    gb: f64,
    at: State,
    side: i8,
    iters: u8,
}

impl Secant {
    /// The search for `v_star` inside the accepted step `p0 → p1`.
    fn new(p0: &Point, p1: &Point, v_star: f64) -> Self {
        Secant {
            v_star,
            a: 0.0,
            ga: v_star - p0.s.v,
            b: p1.s.t - p0.s.t,
            gb: v_star - p1.s.v,
            at: p1.s,
            side: 0,
            iters: 0,
        }
    }

    /// Whether `at` is the crossing: within 1e-12 V of `v_star`, the
    /// bracket closed, or 50 iterations spent.
    fn done(&self) -> bool {
        self.iters == 50 || self.gb.abs() <= 1e-12 || self.b <= self.a
    }

    /// The next sub-step: where the secant through the bracket's ends
    /// meets `v_star`.
    fn tau(&self) -> f64 {
        (self.a * self.gb - self.b * self.ga) / (self.gb - self.ga)
    }

    /// Narrows the bracket by the sub-step `tau`, which reached `s`,
    /// halving the far end's value when the same end moves twice.
    fn update(&mut self, tau: f64, s: State) {
        let g = self.v_star - s.v;
        if g > 0.0 {
            (self.a, self.ga) = (tau, g);
            if self.side == 1 {
                self.gb *= 0.5;
            }
            self.side = 1;
        } else {
            (self.b, self.gb, self.at) = (tau, g, s);
            if self.side == -1 {
                self.ga *= 0.5;
            }
            self.side = -1;
        }
        self.iters += 1;
    }
}

impl<R: Rhs> Lane<R> {
    /// The trial step from `p` (`h`, or what is left to `t_end`), and
    /// whether it is the last.
    fn trial(&self) -> (f64, bool) {
        let last = self.h >= self.t_end - self.p.s.t;
        (
            if last {
                self.t_end - self.p.s.t
            } else {
                self.h
            },
            last,
        )
    }

    /// Where the second stage of a step `h` from `p` evaluates.
    fn at2(p: &Point, h: f64) -> f64 {
        p.s.v + 0.5 * h * p.k.dv
    }

    /// Where the third stage of a step `h` from `p` evaluates.
    fn at3(p: &Point, h: f64, k2: &Stage) -> f64 {
        p.s.v + 0.75 * h * k2.dv
    }

    /// The third-order solution `h` past `p`, from its two inner stages.
    fn solution(&self, p: &Point, h: f64, k2: &Stage, k3: &Stage) -> State {
        let k1 = p.k;
        let sum = |f: fn(&Stage) -> f64| h * (2.0 * f(&k1) + 3.0 * f(k2) + 4.0 * f(k3)) / 9.0;
        State {
            t: p.s.t + h,
            v: p.s.v + sum(|k| k.dv),
            e_drive: p.s.e_drive + self.rhs.v_drive() * sum(|k| k.i),
            e_cell: p.s.e_cell + sum(|k| k.vc * k.i),
        }
    }

    /// The lane that runs `secant`, a search inside the step from `p0` to
    /// this lane's point, as crossing `id`.
    fn searching(&self, p0: &Point, secant: Secant, id: usize) -> Self {
        Lane {
            rhs: self.rhs,
            p: *p0,
            h: secant.tau(),
            t_end: f64::INFINITY,
            job: id,
            search: Some(secant),
        }
    }

    /// The error control's verdict on the trial step `h` from `p` to `s`
    /// (`last` if it ends at `t_end`), with stages `k2`–`k4`: the accepted
    /// point, or the rejected trial's error in units of the tolerance. Either
    /// way it sizes the next trial step. A non-finite trial state or error
    /// is a rejection too.
    fn control(
        &mut self,
        h: f64,
        last: bool,
        mut s: State,
        [k2, k3, k4]: &[Stage; 3],
    ) -> Result<Point, f64> {
        let p = &self.p;
        // The embedded second-order solution's distance from the third.
        let k1 = p.k;
        let err = |f: fn(&Stage) -> f64| {
            (h * (-10.0 * f(&k1) + 12.0 * f(k2) + 16.0 * f(k3) - 18.0 * f(k4)) / 144.0).abs()
        };
        // Relative to the larger energy; `0/0` before any is drawn is 0.
        let relative = |e: f64, a: f64, b: f64| e / a.abs().max(b.abs()).max(f64::MIN_POSITIVE);
        // The larger, NaN if either is (`f64::max` drops a NaN).
        let worst = |a: f64, b: f64| if a.is_nan() || a > b { a } else { b };
        // The error in `v_c` counts as an error in `y` through `|dy/dv_c|`
        // at whichever end of the step weighs it more.
        let ratio = worst(
            worst(
                err(|k| k.dv) * worst(k1.w, k4.w),
                relative(self.rhs.v_drive() * err(|k| k.i), p.s.e_drive, s.e_drive),
            ),
            relative(err(|k| k.vc * k.i), p.s.e_cell, s.e_cell),
        ) * (1.0 / RTOL);
        // Fivefold at a zero error.
        let factor = (0.9 / ratio.cbrt()).clamp(0.2, 5.0);
        let finite = s.v.is_finite() && s.e_drive.is_finite() && s.e_cell.is_finite();
        if finite && ratio <= 1.0 {
            if last {
                s.t = self.t_end;
            }
            self.h = h * factor;
            return Ok(Point { s, k: *k4 });
        }
        self.h = h * factor.min(0.2);
        Err(ratio)
    }
}

/// What a batch of pulses is for: how each job's pulse starts, and what it
/// reads off its trajectory.
trait Course {
    type Rhs: Rhs;
    /// Starts job `job`'s pulse.
    fn start(&mut self, job: usize) -> Result<Lane<Self::Rhs>, RramError>;
    /// Reads the job's lane at pulse start (`prev` is `None`) or after it
    /// accepted the step `prev → lane.p`; `true` once the job is done.
    fn visit(&mut self, lane: &Lane<Self::Rhs>, prev: Option<&Point>) -> bool;
    /// The job's pulse failed.
    fn fail(&mut self, job: usize, e: RramError);
    /// A search lane that [`Course::visit`] queued, if any.
    fn search(&mut self) -> Option<Lane<Self::Rhs>> {
        None
    }
    /// The search lane of crossing `id` found it at `at`.
    fn located(&mut self, _id: usize, _at: &State) {
        unreachable!("a course that queues no search locates nothing")
    }
}

/// The lane driver: runs the pulses of the jobs in `queue`, and the
/// crossing searches their courses queue, through `K` lanes. Each round
/// computes every live lane's second stage, then every third, then every
/// pulse's fourth — each stage's first half for every lane before any
/// lane's second half. A pulse's lane then runs its own error control,
/// step size, rejection count and [`Course::visit`]; a search lane, which
/// skips the fourth stage, runs one secant iteration on the third-order
/// solution. After each round the empty slots take queued searches first,
/// then new jobs. Every lane runs the scalar operation sequence, so no
/// result depends on `K` or on which jobs share a batch.
fn drive<C: Course, const K: usize>(course: &mut C, mut queue: impl Iterator<Item = usize>) {
    // The next lane: a queued search, else the next job's, past the jobs
    // that fail to start or finish at their start.
    let mut next = |course: &mut C| {
        if let Some(lane) = course.search() {
            return Some(lane);
        }
        for job in queue.by_ref() {
            match course.start(job) {
                Ok(lane) if !course.visit(&lane, None) => return Some(lane),
                Ok(_) => {}
                Err(e) => course.fail(job, e),
            }
        }
        None
    };
    let Some(first) = next(course) else {
        return;
    };
    // Lanes `0..n` are live; the rest hold copies no round reads.
    let mut lanes = [first; K];
    let mut n = 1;
    // Consecutive rejected trials of each lane's current step.
    let mut tries = [0usize; K];
    let mut trial = [(0.0, false); K];
    let mut halves = [<C::Rhs as Rhs>::Half::default(); K];
    let mut stages = [[Stage::default(); 3]; K];
    let mut ends = [State::default(); K];
    loop {
        while n < K {
            let Some(lane) = next(course) else {
                break;
            };
            (lanes[n], tries[n]) = (lane, 0);
            n += 1;
        }
        if n == 0 {
            return;
        }
        for l in 0..n {
            trial[l] = lanes[l].trial();
            halves[l] = lanes[l]
                .rhs
                .half(Lane::<C::Rhs>::at2(&lanes[l].p, trial[l].0));
        }
        for l in 0..n {
            stages[l][0] = lanes[l].rhs.finish(&halves[l]);
        }
        for l in 0..n {
            let at = Lane::<C::Rhs>::at3(&lanes[l].p, trial[l].0, &stages[l][0]);
            halves[l] = lanes[l].rhs.half(at);
        }
        for l in 0..n {
            stages[l][1] = lanes[l].rhs.finish(&halves[l]);
        }
        for l in 0..n {
            let (lane, h) = (&lanes[l], trial[l].0);
            ends[l] = lane.solution(&lane.p, h, &stages[l][0], &stages[l][1]);
            if lane.search.is_none() {
                halves[l] = lane.rhs.half(ends[l].v);
            }
        }
        for l in 0..n {
            if lanes[l].search.is_none() {
                stages[l][2] = lanes[l].rhs.finish(&halves[l]);
            }
        }
        // From the top down, so a finished lane's slot can take the last
        // live lane, whose round is already done.
        for l in (0..n).rev() {
            let (h, last) = trial[l];
            let lane = &mut lanes[l];
            let done = if let Some(secant) = &mut lane.search {
                secant.update(h, ends[l]);
                let done = secant.done();
                if done {
                    course.located(lane.job, &secant.at);
                } else {
                    lane.h = secant.tau();
                }
                done
            } else {
                match lane.control(h, last, ends[l], &stages[l]) {
                    Ok(p1) => {
                        tries[l] = 0;
                        let p0 = std::mem::replace(&mut lane.p, p1);
                        course.visit(lane, Some(&p0))
                    }
                    Err(ratio) => {
                        tries[l] += 1;
                        let give_up = tries[l] == MAX_REJECTIONS;
                        if give_up {
                            let e = NumericsError::NoConvergence {
                                iterations: MAX_REJECTIONS,
                                residual: ratio,
                            };
                            course.fail(lane.job, RramError::Numerics(e));
                        }
                        give_up
                    }
                }
            };
            if done {
                n -= 1;
                lanes[l] = lanes[n];
                tries[l] = tries[n];
            }
        }
    }
}

/// Fixed-width pulses — the SET and the standard RESET — each run to its
/// end time: the start current and the final point of each job.
struct FixedWidth<'a> {
    /// Each job's pulse, start state, first trial step and width.
    pulses: &'a [(Pulse, f64, f64, f64)],
    out: &'a mut [Option<Result<(f64, Point), RramError>>],
}

impl<'a> FixedWidth<'a> {
    /// Runs `pulses` through `K` lanes, filling `out` at each job's index.
    fn run<const K: usize>(
        pulses: &'a [(Pulse, f64, f64, f64)],
        out: &'a mut [Option<Result<(f64, Point), RramError>>],
    ) {
        drive::<_, K>(&mut FixedWidth { pulses, out }, 0..pulses.len());
    }
}

impl Course for FixedWidth<'_> {
    type Rhs = Pulse;

    fn start(&mut self, job: usize) -> Result<Lane<Pulse>, RramError> {
        let (pulse, rho, h0, width) = self.pulses[job];
        let lane = pulse.start(rho, h0, width, job)?;
        self.out[job] = Some(Ok((lane.p.k.i, lane.p)));
        Ok(lane)
    }

    fn visit(&mut self, lane: &Lane<Pulse>, _: Option<&Point>) -> bool {
        if let Some(Ok((_, end))) = &mut self.out[lane.job] {
            *end = lane.p;
        }
        lane.p.s.t >= lane.t_end
    }

    fn fail(&mut self, job: usize, e: RramError) {
        self.out[job] = Some(Err(e));
    }
}

/// Terminated RESETs: each job's pulse runs until the state has crossed
/// every one of its references, or its `t_max` passes. A crossing inside
/// an accepted step is located by a search lane, one per distinct `v*`.
struct Terminated<'a> {
    /// Each job's conditions and its references: `refs[range]`.
    jobs: &'a [(CellLaw, ResetConditions, Range<usize>)],
    /// Each reference's result slot, its cell voltage `v* = v_drive −
    /// IrefR·r_series` and IrefR; within a job, from the lowest `v*` up:
    /// the order in which a rising `v_c` crosses them.
    refs: &'a [(usize, f64, f64)],
    out: &'a mut [Option<Result<TerminationOutcome, RramError>>],
    /// Per job: how many of its references are crossed, its start
    /// current, and its accepted steps.
    state: Vec<(usize, f64, u64)>,
    /// Each searched crossing: its job, its references `refs[range]` (one
    /// `v*`) and the job's accepted steps up to it.
    crossings: Vec<(usize, Range<usize>, u64)>,
    /// Search lanes waiting for a slot.
    queued: Vec<Lane<Pulse>>,
    tel: &'static Telemetry,
    ledger: &'static JouleLedger,
}

impl<'a> Terminated<'a> {
    fn new(
        jobs: &'a [(CellLaw, ResetConditions, Range<usize>)],
        refs: &'a [(usize, f64, f64)],
        out: &'a mut [Option<Result<TerminationOutcome, RramError>>],
    ) -> Self {
        Terminated {
            jobs,
            refs,
            out,
            state: vec![(0, 0.0, 0); jobs.len()],
            crossings: Vec::with_capacity(refs.len()),
            queued: Vec::new(),
            tel: Telemetry::global(),
            ledger: JouleLedger::global(),
        }
    }

    /// Runs the jobs through `K` lanes, filling `out` at every reference's
    /// slot.
    fn run<const K: usize>(
        jobs: &'a [(CellLaw, ResetConditions, Range<usize>)],
        refs: &'a [(usize, f64, f64)],
        out: &'a mut [Option<Result<TerminationOutcome, RramError>>],
    ) {
        drive::<_, K>(&mut Terminated::new(jobs, refs, out), 0..jobs.len());
    }

    /// The references of `job` not yet crossed.
    fn pending(&self, job: usize) -> &'a [(usize, f64, f64)] {
        let range = &self.jobs[job].2;
        &self.refs[range.start + self.state[job].0..range.end]
    }

    /// Resolves the references `refs[range]` of `job`, crossed at `at`
    /// after `steps` accepted steps: there the state draws IrefR at `v*`,
    /// or, before any step, is the start state.
    fn resolve(&mut self, job: usize, range: Range<usize>, steps: u64, at: &State) {
        let (law, cond, _) = &self.jobs[job];
        let i_initial = self.state[job].1;
        for &(k, v_star, i_ref) in &self.refs[range] {
            let rho_final = if steps == 0 {
                cond.rho_start
            } else {
                law.rho_at(v_star, i_ref)
            };
            self.tel.tally(CounterId::TerminationSteps, steps);
            self.tel.sample(HistogramId::TerminationLatency, at.t);
            if self.ledger.is_enabled() {
                // The cell dissipates v_c·i; the balance of the drive,
                // (v_drive − v_c)·i, drops across the series path (access
                // transistor + line), which is what r_series models.
                self.ledger
                    .record_energy(DeviceClass::RramCell, Role::RramCell, at.e_cell);
                self.ledger.record_energy(
                    DeviceClass::Resistor,
                    Role::AccessTransistor,
                    at.e_drive - at.e_cell,
                );
            }
            self.out[k] = Some(Ok(TerminationOutcome {
                rho_final,
                r_read_ohms: law.read_resistance(rho_final, cond.v_read),
                latency_s: at.t,
                energy_j: at.e_drive,
                i_initial,
            }));
        }
    }
}

impl Course for Terminated<'_> {
    type Rhs = Pulse;

    fn start(&mut self, job: usize) -> Result<Lane<Pulse>, RramError> {
        let (law, cond, range) = &self.jobs[job];
        self.tel
            .tally(CounterId::TerminationRuns, range.len() as u64);
        if oxterm_chaos::should_inject(oxterm_chaos::FaultKind::NewtonStall) {
            // Fast-path analogue of a forced Newton stall: the Monte Carlo
            // volume campaigns (Figs. 11/13) program cells through this
            // semi-analytic path, never through `newton_solve`.
            self.tel.tally(CounterId::InjectedNewtonStall, 1);
            return Err(RramError::Injected { site: "reset_fast" });
        }
        let pulse = Pulse::new(*law, cond.v_drive, cond.r_series, f64::INFINITY, false);
        pulse.start(cond.rho_start, cond.dt, cond.t_max, job)
    }

    fn visit(&mut self, lane: &Lane<Pulse>, prev: Option<&Point>) -> bool {
        let job = lane.job;
        let p = &lane.p;
        match prev {
            None => self.state[job].1 = p.k.i,
            Some(_) => self.state[job].2 += 1,
        }
        let steps = self.state[job].2;
        // Already below these references at pulse start, or crossed in the
        // step just accepted; those with one `v*` share one crossing.
        let first = self.jobs[job].2.start + self.state[job].0;
        let end = first + self.pending(job).partition_point(|r| p.s.v >= r.1);
        self.state[job].0 += end - first;
        let mut i = first;
        while i < end {
            let v_star = self.refs[i].1;
            let j = i + self.refs[i..end].partition_point(|r| r.1 == v_star);
            match prev.map(|p0| (p0, Secant::new(p0, p, v_star))) {
                Some((p0, secant)) if !secant.done() => {
                    let id = self.crossings.len();
                    self.queued.push(lane.searching(p0, secant, id));
                    self.crossings.push((job, i..j, steps));
                }
                // At pulse start, or the step ends within 1e-12 V of `v*`.
                _ => self.resolve(job, i..j, steps, &p.s),
            }
            i = j;
        }
        let (_, cond, _) = &self.jobs[job];
        let pending = self.pending(job);
        if pending.is_empty() {
            return true;
        }
        if p.s.t < cond.t_max {
            return false;
        }
        for &(k, _, i_ref) in pending {
            self.tel.tally(CounterId::NotTerminated, 1);
            self.out[k] = Some(Err(RramError::NotTerminated {
                i_ref,
                t_max: cond.t_max,
                i_final: p.k.i,
            }));
        }
        true
    }

    fn fail(&mut self, job: usize, e: RramError) {
        for &(k, _, _) in self.pending(job) {
            self.out[k] = Some(Err(e.clone()));
        }
    }

    fn search(&mut self) -> Option<Lane<Pulse>> {
        self.queued.pop()
    }

    fn located(&mut self, id: usize, at: &State) {
        let (job, range, steps) = self.crossings[id].clone();
        self.resolve(job, range, steps, at);
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
/// all, its crossing searches in [`LANES`] lanes beside it, one per
/// distinct reference. Entry `k` of the result is bit for bit what
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
    if let Err(e) = params.validate().and_then(|()| check_reset(inst, cond)) {
        return vec![Err(e); i_refs.len()];
    }
    let mut out: Vec<Option<Result<TerminationOutcome, RramError>>> = vec![None; i_refs.len()];
    let mut refs = Vec::with_capacity(i_refs.len());
    for (k, &i_ref) in i_refs.iter().enumerate() {
        match reference(cond, i_ref) {
            Ok(v_star) => refs.push((k, v_star, i_ref)),
            Err(e) => out[k] = Some(Err(e)),
        }
    }
    refs.sort_by(|a, b| a.1.total_cmp(&b.1));
    if !refs.is_empty() {
        let job = [(CellLaw::new(params, inst), *cond, 0..refs.len())];
        Terminated::run::<LANES>(&job, &refs, &mut out);
    }
    resolved(out)
}

/// Runs one terminated RESET per `(instance, conditions)` job, each to its
/// own `i_ref`, through [`LANES`] interleaved lanes. Entry `k` of the result
/// is bit for bit what [`simulate_reset_termination`] returns for job `k`,
/// with the same telemetry and [`JouleLedger`] records.
///
/// # Errors
///
/// Per job, as [`simulate_reset_termination`]; an invalid model card fails
/// every job.
pub fn simulate_reset_terminations(
    params: &OxramParams,
    jobs: &[(InstanceVariation, ResetConditions)],
) -> Vec<Result<TerminationOutcome, RramError>> {
    let _reset = Profiler::global().phase(PhaseId::RramReset);
    if let Err(e) = params.validate() {
        return vec![Err(e); jobs.len()];
    }
    let mut out: Vec<Option<Result<TerminationOutcome, RramError>>> = vec![None; jobs.len()];
    let mut runs = Vec::with_capacity(jobs.len());
    let mut refs = Vec::with_capacity(jobs.len());
    for (k, (inst, cond)) in jobs.iter().enumerate() {
        match check_reset(inst, cond).and_then(|()| reference(cond, cond.i_ref)) {
            Ok(v_star) => {
                runs.push((
                    CellLaw::new(params, inst),
                    *cond,
                    refs.len()..refs.len() + 1,
                ));
                refs.push((k, v_star, cond.i_ref));
            }
            Err(e) => out[k] = Some(Err(e)),
        }
    }
    if runs.len() == 1 {
        Terminated::run::<1>(&runs, &refs, &mut out);
    } else {
        Terminated::run::<LANES>(&runs, &refs, &mut out);
    }
    resolved(out)
}

/// Rejects a RESET drive the fast path cannot simulate ([`check_drive`]).
fn check_reset(inst: &InstanceVariation, cond: &ResetConditions) -> Result<(), RramError> {
    check_drive(
        inst,
        cond.v_drive,
        cond.r_series,
        cond.rho_start,
        0.0,
        cond.v_read,
    )
}

/// The cell voltage `v* = v_drive − IrefR·r_series` at which the current
/// falls to a valid (positive) reference `i_ref`.
fn reference(cond: &ResetConditions, i_ref: f64) -> Result<f64, RramError> {
    if i_ref.is_nan() || i_ref <= 0.0 {
        return Err(RramError::InvalidParameter {
            name: "i_ref",
            value: i_ref,
        });
    }
    Ok(cond.v_drive - i_ref * cond.r_series)
}

/// The results of a batch whose every slot the lanes filled.
fn resolved<T>(out: Vec<Option<T>>) -> Vec<T> {
    out.into_iter()
        .map(|slot| slot.unwrap_or_else(|| unreachable!("every job is resolved")))
        .collect()
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
    let job = [(
        Pulse::new(law, pulse.v_drive, pulse.r_series, f64::INFINITY, false),
        rho_start,
        pulse.dt,
        pulse.width,
    )];
    let mut out = [None];
    FixedWidth::run::<1>(&job, &mut out);
    let [end] = out;
    let (i_initial, p) = end.unwrap_or_else(|| unreachable!("the job is resolved"))?;
    let rho = p.k.rho2.sqrt();
    Ok(TerminationOutcome {
        rho_final: rho,
        r_read_ohms: law.read_resistance(rho, v_read),
        latency_s: pulse.width,
        energy_j: p.s.e_drive,
        i_initial,
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
    // One job in, exactly one outcome out.
    simulate_sets(params, &[(*inst, *cond)]).swap_remove(0)
}

/// Runs one SET per `(instance, conditions)` job through [`LANES`]
/// interleaved lanes. Entry `k` of the result is bit for bit what
/// [`simulate_set`] returns for job `k`, with the same [`JouleLedger`]
/// records.
///
/// # Errors
///
/// Per job, as [`simulate_set`]; an invalid model card fails every job.
pub fn simulate_sets(
    params: &OxramParams,
    jobs: &[(InstanceVariation, SetConditions)],
) -> Vec<Result<SetOutcome, RramError>> {
    let _set = Profiler::global().phase(PhaseId::RramSet);
    if let Err(e) = params.validate() {
        return vec![Err(e); jobs.len()];
    }
    let check = |inst: &InstanceVariation, cond: &SetConditions| {
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
        let pulse = Pulse::new(law, cond.v_drive, cond.r_series, i_c, true);
        Ok((pulse, cond.rho_start, cond.dt, cond.width))
    };
    // The valid jobs' pulses, and each job's pulse index or error.
    let mut pulses = Vec::with_capacity(jobs.len());
    let mut slots = Vec::with_capacity(jobs.len());
    for (inst, cond) in jobs {
        slots.push(check(inst, cond).map(|pulse| {
            pulses.push(pulse);
            pulses.len() - 1
        }));
    }
    let mut out: Vec<Option<Result<(f64, Point), RramError>>> = vec![None; pulses.len()];
    if pulses.len() == 1 {
        FixedWidth::run::<1>(&pulses, &mut out);
    } else {
        FixedWidth::run::<LANES>(&pulses, &mut out);
    }
    let ledger = JouleLedger::global();
    slots
        .into_iter()
        .zip(jobs)
        .map(|(slot, (_, cond))| {
            let k = slot?;
            let (_, p) = out[k]
                .take()
                .unwrap_or_else(|| unreachable!("every job is resolved"))?;
            if ledger.is_enabled() {
                ledger.record_energy(DeviceClass::RramCell, Role::RramCell, p.s.e_cell);
                ledger.record_energy(
                    DeviceClass::Resistor,
                    Role::AccessTransistor,
                    p.s.e_drive - p.s.e_cell,
                );
            }
            // Past the model's saturation the state map reads `ρ` a
            // rounding above 1.
            let rho = p.k.rho2.sqrt().min(1.0);
            let law = pulses[k].0.law;
            Ok(SetOutcome {
                rho_final: rho,
                r_read_ohms: law.read_resistance(rho, cond.v_read),
                energy_j: p.s.e_drive,
            })
        })
        .collect()
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
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn nominal() -> (OxramParams, InstanceVariation) {
        (OxramParams::calibrated(), InstanceVariation::nominal())
    }

    /// The pulse's start solve: the cell voltage at state `rho`.
    fn divider(pulse: Pulse, rho: f64) -> Result<f64, RramError> {
        pulse.start(rho, 1e-9, 1.0, 0).map(|lane| lane.p.s.v)
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

    impl<R: Rhs> Lane<R> {
        /// The third-order solution `h` past `p`.
        fn reach(&self, p: &Point, h: f64) -> State {
            let k2 = self.rhs.stage(Self::at2(p, h));
            let k3 = self.rhs.stage(Self::at3(p, h, &k2));
            self.solution(p, h, &k2, &k3)
        }

        /// The scalar reference for a search lane: the state inside the
        /// accepted step `p0 → p` at which `v_c` rises to `v_star`
        /// (`p0.s.v < v_star ≤ p.s.v`), by a secant search (Illinois
        /// variant) over sub-steps that start from `p0`, one whole
        /// iteration after another.
        fn locate(&self, p0: &Point, v_star: f64) -> State {
            let p1 = &self.p;
            let (mut a, mut ga) = (0.0, v_star - p0.s.v);
            let (mut b, mut gb) = (p1.s.t - p0.s.t, v_star - p1.s.v);
            let mut at = p1.s;
            let mut side = 0i8;
            for _ in 0..50 {
                if gb.abs() <= 1e-12 || b <= a {
                    break;
                }
                let tau = (a * gb - b * ga) / (gb - ga);
                let s = self.reach(p0, tau);
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

    /// [`Terminated`], with each crossing it searches also located by the
    /// scalar search from the same step.
    struct Checked<'a> {
        course: Terminated<'a>,
        /// Per search: the scalar search's state, and the search lane's.
        located: Vec<(State, Option<State>)>,
    }

    impl Course for Checked<'_> {
        type Rhs = Pulse;

        fn start(&mut self, job: usize) -> Result<Lane<Pulse>, RramError> {
            self.course.start(job)
        }

        fn visit(&mut self, lane: &Lane<Pulse>, prev: Option<&Point>) -> bool {
            let searched = self.course.crossings.len();
            let done = self.course.visit(lane, prev);
            for (_, range, _) in &self.course.crossings[searched..] {
                let p0 = prev.expect("a search follows an accepted step");
                let v_star = self.course.refs[range.start].1;
                self.located.push((lane.locate(p0, v_star), None));
            }
            done
        }

        fn fail(&mut self, job: usize, e: RramError) {
            self.course.fail(job, e);
        }

        fn search(&mut self) -> Option<Lane<Pulse>> {
            self.course.search()
        }

        fn located(&mut self, id: usize, at: &State) {
            self.located[id].1 = Some(*at);
            self.course.located(id, at);
        }
    }

    type Outcomes = Vec<Result<TerminationOutcome, RramError>>;

    /// Runs one terminated RESET of the calibrated card per job (its
    /// instance, conditions and references) through [`LANES`] lanes, as
    /// the entry points do, and checks every search lane's crossing bit
    /// for bit against the scalar search's: time, cell voltage, driver
    /// and cell energy. The outcomes in reference order, and the number
    /// of searches.
    fn checked(jobs: &[(InstanceVariation, ResetConditions, Vec<f64>)]) -> (Outcomes, usize) {
        let p = OxramParams::calibrated();
        let (mut runs, mut refs) = (Vec::new(), Vec::new());
        for (inst, cond, i_refs) in jobs {
            let start = refs.len();
            for &i_ref in i_refs {
                refs.push((refs.len(), reference(cond, i_ref).unwrap(), i_ref));
            }
            refs[start..].sort_by(|a, b| a.1.total_cmp(&b.1));
            runs.push((CellLaw::new(&p, inst), *cond, start..refs.len()));
        }
        let mut out = vec![None; refs.len()];
        let mut course = Checked {
            course: Terminated::new(&runs, &refs, &mut out),
            located: Vec::new(),
        };
        drive::<_, LANES>(&mut course, 0..runs.len());
        let Checked { located, .. } = course;
        let bits = |s: &State| [s.t, s.v, s.e_drive, s.e_cell].map(f64::to_bits);
        for (scalar, lane) in &located {
            let lane = lane.expect("every queued search runs");
            assert_eq!(bits(&lane), bits(scalar), "{lane:?} vs {scalar:?}");
        }
        (resolved(out), located.len())
    }

    #[test]
    fn search_lanes_locate_every_crossing_as_the_scalar_search_does() {
        let p = OxramParams::calibrated();
        // The calibration objective's 20 references on the nominal cell:
        // 16 distinct `v*`, so 16 searches, alongside the trajectory.
        let target = CalibrationTarget::paper();
        let i_refs: Vec<f64> = target
            .allocation
            .iter()
            .chain(&target.latencies)
            .chain(&target.energies)
            .map(|&(i_ua, _)| i_ua * 1e-6)
            .collect();
        let cond = ResetConditions::paper_defaults(f64::NAN);
        let nominal = InstanceVariation::nominal();
        let (outs, searches) = checked(&[(nominal, cond, i_refs.clone())]);
        assert_eq!(searches, 16);
        assert_eq!(
            outs,
            simulate_reset_references(&p, &nominal, &cond, &i_refs)
        );
        // Sampled instances, one reference each, as the Monte Carlo batch
        // runs them through `simulate_reset_terminations`.
        let mut rng = StdRng::seed_from_u64(0x5EA7C4);
        let jobs: Vec<_> = (0..3 * LANES + 1)
            .map(|k| {
                let inst = InstanceVariation::sample_d2d(&p, &mut rng);
                let i_ref = (6 + 2 * (k % 16)) as f64 * 1e-6;
                (inst, ResetConditions::paper_defaults(i_ref), vec![i_ref])
            })
            .collect();
        let (outs, searches) = checked(&jobs);
        assert_eq!(searches, jobs.len());
        let batch: Vec<_> = jobs.iter().map(|&(inst, cond, _)| (inst, cond)).collect();
        assert_eq!(outs, simulate_reset_terminations(&p, &batch));
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

    /// A right-hand side from a closure, at a 1 V drive.
    #[derive(Clone, Copy)]
    struct Synthetic<F>(F);

    impl<F: Fn(f64) -> Stage + Copy> Rhs for Synthetic<F> {
        type Half = f64;

        fn half(&self, v: f64) -> f64 {
            v
        }

        fn finish(&self, &v: &f64) -> Stage {
            (self.0)(v)
        }

        fn v_drive(&self) -> f64 {
            1.0
        }
    }

    /// One job that ends at its first accepted step.
    struct FirstStep<F> {
        rhs: Synthetic<F>,
        end: Option<Point>,
    }

    impl<F: Fn(f64) -> Stage + Copy> Course for FirstStep<F> {
        type Rhs = Synthetic<F>;

        fn start(&mut self, job: usize) -> Result<Lane<Self::Rhs>, RramError> {
            let p = Point {
                s: State::default(),
                k: self.rhs.stage(0.0),
            };
            Ok(Lane {
                rhs: self.rhs,
                p,
                h: 10.0,
                t_end: 100.0,
                job,
                search: None,
            })
        }

        fn visit(&mut self, lane: &Lane<Self::Rhs>, prev: Option<&Point>) -> bool {
            self.end = prev.map(|_| lane.p);
            prev.is_some()
        }

        fn fail(&mut self, _: usize, e: RramError) {
            panic!("{e}");
        }
    }

    /// One step from `v = 0` over `rhs`, first trial step 10 (the
    /// right-hand sides below turn non-finite past `v = 1`).
    fn first_step(rhs: impl Fn(f64) -> Stage + Copy) -> Point {
        let mut course = FirstStep {
            rhs: Synthetic(rhs),
            end: None,
        };
        drive::<_, 1>(&mut course, 0..1);
        course.end.expect("one step accepted")
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
