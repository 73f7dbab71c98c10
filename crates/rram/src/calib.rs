//! Fast scalar programming simulations and model calibration.
//!
//! Monte Carlo reproduction of the paper's Figs 11–13 needs on the order of
//! `500 runs × 16 levels` SET + terminated-RESET simulations. Running each
//! through the full MNA transient engine works but is wasteful for a series
//! `driver – R_series – cell` path, so this module reduces that path to the
//! cell voltage `v_c`.
//!
//! The rest of the circuit follows from `v_c` in closed form. The circuit
//! sets the current, `i = min((v_drive − v_c)/R_series, i_compliance)`. The
//! conduction law is linear in `ρ²`, so [`CellLaw::rho2_and_slopes`] gives
//! the state that draws `i` at `v_c`. The chain rule turns the rate law's
//! `dρ/dt` into `dv_c/dt`, with no solve: each pulse builds its
//! [`CellLaw`] once and solves the resistive divider for its start state
//! (a SET from below `ρ_formed` or near the model's ceiling solves it once
//! more there) through the known-sign Newton entry [`newton_bracketed`].
//! A lone cell voltage costs one exponential for the conduction law and
//! one for the rate. A quadrature panel's five nodes sit at `mid ± h·x`,
//! so they share exponentials: three give every node's `exp(v/v_hop)` and
//! its reciprocal, three more a SET's formed rate `exp(k·v)`, and a node's
//! time weight takes one division. A panel thus costs a SET six
//! exponentials and fifteen divisions, and a RESET, whose rate `ρ^β·exp(k·v)`
//! keeps a logarithm and an exponential per node, eight and thirteen.
//!
//! Every pulse takes no time steps. During a RESET `ρ` only falls, so `v_c`
//! only rises; during a SET `ρ` only rises, so `v_c` only falls. The time
//! and both energies up to a cell voltage are then integrals over `v_c`:
//! `∫ dv/v̇`, `v_drive·∫ i/v̇ dv` and `∫ v·i/v̇ dv`. One five-point
//! Gauss–Legendre rule sums them over panels that depend only on the start
//! state, each split at the switch points of the rate law inside it.
//!
//! The terminated RESET ends at a known voltage. When the cell current
//! equals `IrefR`, the cell sits at `v* = v_drive − IrefR·R_series`, so
//! `I(v*, ρ*) = IrefR` gives `ρ*` and the read resistance exactly, and each
//! distinct `v*` adds one partial panel, so [`simulate_reset_references`]
//! reads every reference off one set of panels, bit for bit what one run
//! per reference gives; [`simulate_reset_termination`] is its
//! one-reference case. A fixed-width pulse — the compliance-limited SET
//! and the standard RESET — ends at the voltage where the time reaches the
//! width, found by Newton's method on the partial panel's time inside the
//! panel that passes it. A SET starts at or above [`RHO_MIN`]; a RESET
//! holds `ρ = 0`. The integration test suite cross-checks these paths
//! against the full circuit-level transient, against a converged
//! fixed-step replay and against a fine quadrature.
//!
//! The same fast path makes model calibration affordable:
//! [`calibrate`] runs a Nelder–Mead search over the model card to match the
//! paper's published Table 2 / Fig 13 anchors, reading all 20 anchors of an
//! objective evaluation off one RESET's panels.

use oxterm_numerics::optimize::{nelder_mead, NelderMeadOptions};
use oxterm_numerics::roots::{newton_bracketed, RootOptions};
use oxterm_numerics::NumericsError;

use crate::model::{self, CellLaw, RHO_CEILING_GAP};
use crate::params::{InstanceVariation, OxramParams};
use crate::RramError;
use oxterm_telemetry::joule::{DeviceClass, EnergyTally, JouleLedger, Role};
use oxterm_telemetry::{CounterId, HistogramId, PhaseId, Profiler, Telemetry};

/// The least starting state of a SET: from `ρ = 0` the cell voltage
/// cannot move.
pub const RHO_MIN: f64 = 1e-3;

/// `ln 0.7`: each SET panel shrinks `1 − ρ` (below `ρ_formed`, grows `ρ`)
/// by about this much in the log.
const LN_SET_PANEL: f64 = -0.356_674_943_938_732_4;

/// The most the rate law's exponential in the cell voltage changes, in the
/// log, across a panel: an overdriven pulse moves volts while `ρ` moves
/// little.
const RATE_SPAN: f64 = 2.0;

/// The share of a RESET's current the hopping background carries past
/// which a panel also ends where, by a Newton step from the last panel's
/// last node, `ρ²` halves: near the hopping limit `ρ²` falls much faster
/// than the current.
const HOP_SHARE: f64 = 0.1;

/// `1 − ρ` below which a SET's next panel may reach the model's ceiling
/// (`1 − ρ = RHO_CEILING_GAP`), whose voltage then ends the path.
const NEAR_CEILING: f64 = 1e-9;

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
    /// A time step (s) that no simulation here reads: only the fixed-step
    /// probes in `perfbench/` do, and the field goes with them.
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

impl Conduction {
    /// The conduction at `vc` drawing `i`, the series path's current falling
    /// `di_series` per volt there, from the law's `(ρ², ∂I/∂v, ∂I/∂(ρ²))`.
    fn new(vc: f64, i: f64, di_series: f64, (rho2, di_dv, di_drho2): (f64, f64, f64)) -> Self {
        Conduction {
            vc,
            i,
            rho2: rho2.max(0.0),
            di: di_dv + di_series,
            di_drho2,
        }
    }
}

/// The circuit at one cell voltage: one evaluation of the integrands.
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

    /// The current the series path sets at cell voltage `v`, and how much
    /// it falls per volt: `(v_drive − v)/r_series` up to the clamp.
    fn series(&self, v: f64) -> (f64, f64) {
        let i_div = (self.v_drive - v) * self.g_series;
        if i_div > self.i_max {
            (self.i_max, 0.0)
        } else {
            (i_div, self.g_series)
        }
    }

    /// The cell voltage at state `ρ`: the pulse's one divider solve, by
    /// Newton from the midpoint of `[0, v_drive]`, whose ends are never
    /// evaluated. Their signs are known: `f(0) < 0 < f(v_drive) =
    /// I(v_drive, ρ)` ([`check_drive`]).
    fn divider(&self, rho: f64) -> Result<f64, RramError> {
        let fdf = |v: f64| {
            let (i, di_dv) = self.law.current_and_slope(v, rho);
            let (i_set, di_series) = self.series(v);
            (i - i_set, di_dv + di_series)
        };
        Ok(newton_bracketed(
            fdf,
            0.0,
            self.v_drive,
            f64::NAN,
            RootOptions::default(),
        )?)
    }

    /// The integrals over the cell voltage from `a` to `b` (either way) by
    /// the five-point Gauss–Legendre rule: the time `∫ dv/v̇`, the driver
    /// energy `v_drive·∫ i/v̇ dv` and the cell energy `∫ v·i/v̇ dv`, with
    /// `v̇ = dv_c/dt`; each node's share of the time; and the conduction at
    /// the node nearest `b`.
    fn panel(&self, a: f64, b: f64) -> ([f64; 3], [f64; 5], Conduction) {
        let (halves, dts) = self.nodes(a, b);
        let mut sum = [0.0; 3];
        for (c, dt) in halves.iter().zip(&dts) {
            sum[0] += dt;
            sum[1] += dt * c.i;
            sum[2] += dt * c.i * c.vc;
        }
        sum[1] *= self.v_drive;
        (sum, dts, halves[GAUSS.len() - 1])
    }

    /// The conduction at the five Gauss–Legendre nodes of the panel from
    /// `a` to `b`, and each node's share of its time, `w·h/v̇`.
    ///
    /// The nodes sit at `mid ± h·x`, so every exponential in the cell
    /// voltage they need comes from three ([`node_exps`]): the conduction
    /// law's `exp(v/v_hop)` with its reciprocal, and in a SET the formed
    /// rate's `exp(set_per_v·v)`. A node the shared values do not serve
    /// (outside `sinh_cosh`'s `e − 1/e` range, or below `ρ_formed`) takes
    /// the per-node formula. Every node's first half runs before any node's
    /// second, so the five chains overlap on the core.
    fn nodes(&self, a: f64, b: f64) -> ([Conduction; 5], [f64; 5]) {
        let (mid, half) = (0.5 * (a + b), 0.5 * (b - a));
        let law = &self.law;
        let hop = node_exps(law.hop_arg(mid), law.hop_arg(half));
        let mut halves = [Conduction::default(); 5];
        for ((c, (x, _)), e) in halves.iter_mut().zip(GAUSS).zip(hop) {
            let vc = mid + half * x;
            let (i, di_series) = self.series(vc);
            *c = Conduction::new(vc, i, di_series, law.rho2_and_slopes_exp(vc, i, e));
        }
        let set = if self.set {
            let k = law.set_rate_gain();
            node_exps(k * mid, k * half).map(|(e, _)| e)
        } else {
            [f64::NAN; 5]
        };
        // Plain loops: through `array::map` the stages were not inlined, and
        // a RESET took ≈ 15 % longer.
        let mut dts = [0.0; 5];
        for (((dt, c), (_, w)), e_set) in dts.iter_mut().zip(&halves).zip(GAUSS).zip(set) {
            *dt = self.weight(c, w * half, e_set);
        }
        (halves, dts)
    }

    /// The circuit at cell voltage `vc`, with no solve: the series path
    /// sets the current, and the conduction law (linear in `ρ²`) gives the
    /// state drawing it.
    fn half(&self, vc: f64) -> Conduction {
        let (i, di_series) = self.series(vc);
        Conduction::new(vc, i, di_series, self.law.rho2_and_slopes(vc, i))
    }

    /// A node's share `wh/v̇` of its panel's time, `wh` its weight times
    /// the panel's half-width: [`Pulse::finish`]'s `v̇` with its division
    /// folded into this one. `e_set` is `exp(set_per_v·v)` at the node
    /// ([`CellLaw::set_rate_exp`]).
    fn weight(&self, c: &Conduction, wh: f64, e_set: f64) -> f64 {
        let &Conduction {
            vc,
            i,
            rho2,
            di,
            di_drho2,
        } = c;
        let flow = if self.set {
            let rho = rho2.sqrt();
            -2.0 * rho * di_drho2 * (1.0 - rho) * self.law.set_rate_exp(vc, rho, e_set)
        } else {
            2.0 * rho2 * di_drho2 * self.law.reset_rate(vc, i, 0.5 * rho2.ln())
        };
        wh * di / flow
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
        // −(∂I/∂ρ)·(dρ/dt)/di` with `di` the slope of `I(v, ρ) − i` in `v`.
        // Here `∂I/∂ρ = 2ρ·∂I/∂(ρ²)`.
        let dv = if self.set {
            // `dρ/dt = (1 − ρ)·set_rate`.
            let rho = rho2.sqrt();
            let di_drho = 2.0 * rho * di_drho2;
            // Grouped so the division does not wait for the square root.
            -di_drho * (1.0 - rho) * (self.law.set_rate(vc, rho) / di)
        } else {
            // `dρ/dt = −ρ·reset_rate`.
            let rho_di_drho = 2.0 * rho2 * di_drho2;
            let rate = self.law.reset_rate(vc, i, 0.5 * rho2.ln());
            // Grouped so the division does not wait for the rate.
            rho_di_drho / di * rate
        };
        Stage { vc, i, rho2, dv }
    }

    /// The circuit at cell voltage `v`: one evaluation of the integrands.
    fn stage(&self, v: f64) -> Stage {
        self.finish(&self.half(v))
    }

    /// The integrals of the pulse held at cell voltage `vc` drawing `i`
    /// for `dt`: the state does not move, so neither do they.
    fn held(&self, vc: f64, i: f64, dt: f64) -> [f64; 3] {
        [dt, self.v_drive * i * dt, vc * i * dt]
    }

    /// The cell voltage between `a` (integrals `sum` up to it) and `b`,
    /// either way, at which the time reaches `t_end`, where the panel from
    /// `a` to `b`, whose nodes take the times `dts`, takes it past: the
    /// integrals up to it and the conduction there.
    ///
    /// Newton's method on the partial panel's time, from the interpolated
    /// guess ([`interpolate`]), until the time is within [`REACH_TOL`] of
    /// `t_end`; the last step is then taken in closed form, its integrals by
    /// the trapezoid rule, so it costs one evaluation, not a panel.
    fn reach_time(
        &self,
        (a, sum): (f64, [f64; 3]),
        b: f64,
        dts: &[f64; 5],
        t_end: f64,
    ) -> Result<(f64, [f64; 3], Conduction), RramError> {
        let (mut lo, mut hi) = (a.min(b), a.max(b));
        let rising = b > a;
        let mut v = interpolate(a, b, dts, t_end - sum[0]);
        if !(v > lo && v < hi) {
            v = 0.5 * (lo + hi);
        }
        let mut dt = f64::NAN;
        for _ in 0..REACH_ITERS {
            let q = self.panel(a, v).0;
            let k = self.stage(v);
            dt = t_end - (sum[0] + q[0]);
            let step = dt * k.dv;
            if dt.abs() <= REACH_TOL * t_end {
                let end = self.half(v + step);
                let i = 0.5 * (k.i + end.i);
                let p = 0.5 * (k.vc * k.i + end.vc * end.i);
                let sums = [
                    t_end,
                    sum[1] + q[1] + self.v_drive * i * dt,
                    sum[2] + q[2] + p * dt,
                ];
                return Ok((end.vc, sums, end));
            }
            // Short of `t_end`, the root lies further towards `b`.
            if (dt > 0.0) == rising {
                lo = v;
            } else {
                hi = v;
            }
            v = if v + step > lo && v + step < hi {
                v + step
            } else {
                0.5 * (lo + hi)
            };
        }
        Err(RramError::Numerics(NumericsError::NoConvergence {
            iterations: REACH_ITERS,
            residual: dt / t_end,
        }))
    }
}

/// The relative distance from a fixed width within which
/// [`Pulse::reach_time`] takes its last Newton step in closed form: the
/// step's error is second order in it.
const REACH_TOL: f64 = 1e-6;

/// Newton or bisection steps [`Pulse::reach_time`] takes at most.
const REACH_ITERS: usize = 100;

/// Where the time reaches `tau` past `a` in the panel from `a` to `b`
/// whose nodes take the times `dts`: Newton's method on the integral of the
/// polynomial through the integrand at the nodes. A first guess for
/// [`Pulse::reach_time`] that costs no evaluation.
fn interpolate(a: f64, b: f64, dts: &[f64; 5], tau: f64) -> f64 {
    // The integrand on `[−1, 1]` in monomials: `p_m` is the coefficient of
    // `x^m`, and the time to `x` is `F(x) − F(−1)` with `F' = p`.
    let mut p = [0.0; 5];
    for ((row, &(_, w)), dt) in LAGRANGE.iter().zip(&GAUSS).zip(dts) {
        for (pm, l) in p.iter_mut().zip(row) {
            *pm += dt / w * l;
        }
    }
    let big_f = |x: f64| {
        x * p
            .iter()
            .enumerate()
            .rev()
            .fold(0.0, |f, (m, pm)| f * x + pm / (m + 1) as f64)
    };
    let f0 = big_f(-1.0);
    let total: f64 = dts.iter().sum();
    let mut x = -1.0 + 2.0 * tau / total;
    for _ in 0..4 {
        let slope = p.iter().rev().fold(0.0, |f, pm| f * x + pm);
        x = (x - (big_f(x) - f0 - tau) / slope).clamp(-1.0, 1.0);
    }
    0.5 * (a + b) + 0.5 * (b - a) * x
}

/// The monomial coefficients of the Lagrange basis on [`GAUSS`]'s nodes:
/// row `k` is the polynomial of degree 4 that is 1 at node `k` and 0 at the
/// others.
const LAGRANGE: [[f64; 5]; 5] = lagrange_basis();

const fn lagrange_basis() -> [[f64; 5]; 5] {
    let mut basis = [[0.0; 5]; 5];
    let mut k = 0;
    while k < 5 {
        let p = &mut basis[k];
        p[0] = 1.0;
        let mut degree = 0;
        let mut j = 0;
        while j < 5 {
            if j != k {
                // `p ← p·(x − x_j)/(x_k − x_j)`.
                let (xj, scale) = (GAUSS[j].0, 1.0 / (GAUSS[k].0 - GAUSS[j].0));
                let mut m = degree + 1;
                while m > 0 {
                    p[m] = (p[m - 1] - xj * p[m]) * scale;
                    m -= 1;
                }
                p[0] *= -xj * scale;
                degree += 1;
            }
            j += 1;
        }
        k += 1;
    }
    basis
}

/// The five-point Gauss–Legendre rule on `[−1, 1]`: `(node, weight)`.
const GAUSS: [(f64, f64); 5] = [
    (-0.906_179_845_938_664, 0.236_926_885_056_189_08),
    (-0.538_469_310_105_683_1, 0.478_628_670_499_366_47),
    (0.0, 0.568_888_888_888_888_9),
    (0.538_469_310_105_683_1, 0.478_628_670_499_366_47),
    (0.906_179_845_938_664, 0.236_926_885_056_189_08),
];

/// `(exp(k·v), exp(−k·v))` at the five [`GAUSS`] nodes `v = mid + h·x` of
/// a panel, given `k·mid` and `k·h`. The rule is symmetric and
/// `exp(k·(mid ± h·x)) = exp(k·mid)·exp(±k·h·x)`, so three exponentials
/// and three reciprocals give all ten.
fn node_exps(k_mid: f64, k_half: f64) -> [(f64, f64); 5] {
    let (x1, x2) = (GAUSS[3].0, GAUSS[4].0);
    let (em, e1, e2) = (k_mid.exp(), (k_half * x1).exp(), (k_half * x2).exp());
    let (rm, r1, r2) = (1.0 / em, 1.0 / e1, 1.0 / e2);
    [
        (em * r2, rm * e2),
        (em * r1, rm * e1),
        (em, rm),
        (em * e1, rm * r1),
        (em * e2, rm * r2),
    ]
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

/// A RESET's path in the cell voltage. During a RESET `ρ` only falls, so
/// `v_c` only rises from its start `v0`, and the latency and both energies
/// up to a cell voltage are integrals over `v_c` ([`Pulse::panel`]). They
/// are summed over panels that halve the current from the start current,
/// since the integrands vary as powers of it, each panel split at any
/// switch point of the rate law inside it: the Joule clamp's cell voltage
/// and the `ρ^β` floor's. The third, `v_rst_floor`, is never inside: a
/// cell that starts above it stays above it, and one that starts below it
/// never moves. An overdriven pulse also ends a panel where the rate's
/// field factor grows by [`RATE_SPAN`] in the log, and one near the
/// hopping limit where `ρ²` halves ([`HOP_SHARE`]). The panels depend only
/// on the start state, so a terminated RESET's reference sums the panels
/// below its `v*` and adds one partial panel up to `v*`, and a fixed-width
/// pulse ends inside the panel its width falls in ([`Path::at`]).
struct Path {
    pulse: Pulse,
    /// The panel ends so far, from `v0` up: each cell voltage, and the
    /// latency, driver energy and cell energy up to it.
    ends: Vec<(f64, [f64; 3])>,
    /// Each node's share of the last panel's latency.
    last_dts: [f64; 5],
    /// The conduction at the last panel's last node, or at `v0`.
    last: Conduction,
    /// The widest panel: [`RATE_SPAN`] over the rate's growth per volt.
    max_rise: f64,
    /// `v_drive` less the far end of the panel being filled.
    headroom: f64,
    /// The rate law's switch points above `v0`, ascending, `∞` for none:
    /// the Joule clamp's, and the `ρ^β` floor's once the path may reach it.
    kinks: [f64; 2],
    /// The state `ρ²` at which `ρ^β` is floored.
    rho2_floor: f64,
    /// The path stays above the `ρ^β` floor below this cell voltage, or
    /// the floor's voltage is in `kinks` (`∞`).
    clear_to: f64,
}

impl Path {
    /// The path of `pulse` from the conduction `start` at state `rho`.
    fn new(pulse: Pulse, start: Conduction, rho: f64) -> Self {
        let v0 = start.vc;
        let (rho2_floor, i_clamp) = pulse.law.reset_switch_points();
        let v_clamp = pulse.v_drive - i_clamp / pulse.g_series;
        // Room for a typical RESET's panels: grown from one end, the
        // reallocations cost a terminated RESET ≈ 12 %.
        let mut ends = Vec::with_capacity(8);
        ends.push((v0, [0.0; 3]));
        Path {
            pulse,
            ends,
            last_dts: [0.0; 5],
            last: start,
            max_rise: RATE_SPAN / pulse.law.reset_rate_gain(),
            headroom: 0.5 * (pulse.v_drive - v0),
            kinks: [
                if v_clamp > v0 { v_clamp } else { f64::INFINITY },
                f64::INFINITY,
            ],
            rho2_floor,
            // A state already floored stays floored.
            clear_to: if rho * rho > rho2_floor {
                v0
            } else {
                f64::INFINITY
            },
        }
    }

    /// Notes that the path draws state `ρ² = rho2` at cell voltage `v`. If
    /// that is near the `ρ^β` floor, past it or unreachable, the floor's
    /// voltage joins the switch points; the factor 2 keeps that choice
    /// clear of rounding, so a panel below `v` never contains a floor
    /// found later.
    fn clear(&mut self, v: f64, rho2: f64) -> Result<(), RramError> {
        if v <= self.clear_to {
            return Ok(());
        }
        if rho2 < 2.0 * self.rho2_floor {
            self.kinks[1] = self.pulse.divider(self.rho2_floor.sqrt())?;
            self.kinks.sort_by(f64::total_cmp);
            self.clear_to = f64::INFINITY;
        } else {
            self.clear_to = v;
        }
        Ok(())
    }

    /// The next panel end above `a`.
    fn next(&self, a: f64) -> f64 {
        let kink = self.kinks.into_iter().find(|&s| s > a);
        let b = (self.pulse.v_drive - self.headroom)
            .min(kink.unwrap_or(f64::INFINITY))
            .min(a + self.max_rise);
        // Along the path `dρ²/dv = −di/∂I/∂(ρ²)`.
        let c = &self.last;
        if c.rho2 * c.di_drho2 < (1.0 - HOP_SHARE) * c.i {
            b.min(a + 0.5 * c.rho2 * c.di_drho2 / c.di)
        } else {
            b
        }
    }

    /// Adds the panel from the last end to `b`.
    fn push(&mut self, b: f64) {
        let (a, sum) = self.ends[self.ends.len() - 1];
        if b == self.pulse.v_drive - self.headroom {
            self.headroom *= 0.5;
        }
        let (q, dts, last) = self.pulse.panel(a, b);
        (self.last_dts, self.last) = (dts, last);
        self.ends.push((b, [0, 1, 2].map(|j| sum[j] + q[j])));
    }

    /// The panels to `v_star` (above `v0`) and the integrals up to it, or
    /// `None` if the latency passes `t_max` first. Both follow from the
    /// panel ends alone, however far they reach already.
    fn reach(&mut self, v_star: f64, t_max: f64) -> Option<(u64, [f64; 3])> {
        loop {
            let (a, sum) = self.ends[self.ends.len() - 1];
            let b = self.next(a);
            if b < v_star && sum[0] <= t_max {
                self.push(b);
            } else {
                break;
            }
        }
        let j = self.ends.partition_point(|e| e.0 < v_star) - 1;
        let (a, sum) = self.ends[j];
        let q = self.pulse.panel(a, v_star).0;
        let sum = [0, 1, 2].map(|m| sum[m] + q[m]);
        (sum[0] <= t_max).then_some((j as u64 + 1, sum))
    }

    /// The cell voltage at `t_max`, the integrals up to it and the
    /// conduction there: the panels until the latency passes it, then
    /// [`Pulse::reach_time`] inside the last.
    fn at(&mut self, t_max: f64) -> Result<(f64, [f64; 3], Conduction), RramError> {
        while self.ends[self.ends.len() - 1].1[0] <= t_max {
            let a = self.ends[self.ends.len() - 1].0;
            let b = self.next(a);
            if b > self.clear_to {
                let i = self.pulse.series(b).0;
                self.clear(b, self.pulse.law.rho2_and_slopes(b, i).0)?;
            } else {
                self.push(b);
            }
        }
        // `t_max > 0`, so at least one panel was summed.
        let n = self.ends.len();
        self.pulse
            .reach_time(self.ends[n - 2], self.ends[n - 1].0, &self.last_dts, t_max)
    }
}

/// What a batch of terminated RESETs records, added up as the batch runs
/// and recorded once at its end, inside the `rram/reset` scope.
#[derive(Default)]
struct ResetRecords {
    /// References run, steps to each termination, references not reached
    /// and injected stalls, as the telemetry counters of those names.
    runs: u64,
    steps: u64,
    not_terminated: u64,
    stalls: u64,
    energy: EnergyTally,
}

impl ResetRecords {
    /// Records the batch: its counts, its device energies, and the latency
    /// of each terminated outcome of `out`, taken in `order`, the order
    /// the batch read its references in.
    fn record(
        &self,
        out: &[Option<Result<TerminationOutcome, RramError>>],
        order: impl Iterator<Item = usize>,
    ) {
        let tel = Telemetry::global();
        tel.tally_all(&[
            (CounterId::TerminationRuns, self.runs),
            (CounterId::TerminationSteps, self.steps),
            (CounterId::NotTerminated, self.not_terminated),
            (CounterId::InjectedNewtonStall, self.stalls),
        ]);
        tel.sample_all(
            HistogramId::TerminationLatency,
            order.filter_map(|k| match &out[k] {
                Some(Ok(o)) => Some(o.latency_s),
                _ => None,
            }),
        );
        JouleLedger::global().record_tally(&self.energy);
    }
}

/// Runs one terminated RESET of `law` under `cond`, read at each of `refs`
/// (the job's result slots, `v*` and IrefR, ascending in `v*`), and writes
/// each outcome to its slot in `out`. An error fails every reference not
/// yet written.
fn terminate(
    law: &CellLaw,
    cond: &ResetConditions,
    refs: &[(usize, f64, f64)],
    out: &mut [Option<Result<TerminationOutcome, RramError>>],
    records: &mut ResetRecords,
) {
    records.runs += refs.len() as u64;
    if let Err(e) = read_path(law, cond, refs, out, records) {
        for &(k, _, _) in refs {
            out[k].get_or_insert_with(|| Err(e.clone()));
        }
    }
}

/// [`terminate`]'s pulse: the start solve, then each reference met at
/// pulse start, reached by the path, or not within `t_max`.
fn read_path(
    law: &CellLaw,
    cond: &ResetConditions,
    refs: &[(usize, f64, f64)],
    out: &mut [Option<Result<TerminationOutcome, RramError>>],
    records: &mut ResetRecords,
) -> Result<(), RramError> {
    if oxterm_chaos::should_inject(oxterm_chaos::FaultKind::NewtonStall) {
        // Fast-path analogue of a forced Newton stall: the Monte Carlo
        // volume campaigns (Figs. 11/13) program cells through this
        // semi-analytic path, never through `newton_solve`.
        records.stalls += 1;
        return Err(RramError::Injected { site: "reset_fast" });
    }
    let ledger = JouleLedger::global();
    let pulse = Pulse::new(*law, cond.v_drive, cond.r_series, f64::INFINITY, false);
    let v0 = pulse.divider(cond.rho_start)?;
    let c0 = pulse.half(v0);
    let start = pulse.finish(&c0);
    // Whether the state moves at all: not below `v_rst_floor`, nor at
    // `ρ = 0`.
    let moves = start.dv > 0.0;
    let mut path = Path::new(pulse, c0, cond.rho_start);
    // The current at `t_max`, once a reference needs it.
    let mut i_final = None;
    // The last reference's `v*` and where the path reached it.
    let mut last = None;
    for &(k, v_star, i_ref) in refs {
        let rho2 = law.rho2_and_slopes(v_star, i_ref).0;
        let reached = if v0 >= v_star {
            Some((0, [0.0; 3]))
        } else if !moves {
            None
        } else {
            match last {
                Some((v, reached)) if v == v_star => reached,
                _ => {
                    path.clear(v_star, rho2)?;
                    path.reach(v_star, cond.t_max)
                }
            }
        };
        last = Some((v_star, reached));
        let Some((panels, [t, e_drive, e_cell])) = reached else {
            let i_final = match i_final {
                Some(i) => i,
                None if moves => *i_final.insert(path.at(cond.t_max)?.2.i),
                None => *i_final.insert(start.i),
            };
            records.not_terminated += 1;
            out[k] = Some(Err(RramError::NotTerminated {
                i_ref,
                t_max: cond.t_max,
                i_final,
            }));
            continue;
        };
        let rho_final = if panels == 0 {
            cond.rho_start
        } else {
            rho2.max(0.0).sqrt().min(1.0)
        };
        records.steps += panels;
        if ledger.is_enabled() {
            // The cell dissipates v_c·i; the balance of the drive,
            // (v_drive − v_c)·i, drops across the series path (access
            // transistor + line), which is what r_series models.
            let energy = &mut records.energy;
            energy.add(DeviceClass::RramCell, Role::RramCell, e_cell);
            energy.add(
                DeviceClass::Resistor,
                Role::AccessTransistor,
                e_drive - e_cell,
            );
        }
        out[k] = Some(Ok(TerminationOutcome {
            rho_final,
            r_read_ohms: law.read_resistance(rho_final, cond.v_read),
            latency_s: t,
            energy_j: e_drive,
            i_initial: start.i,
        }));
    }
    Ok(())
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
///   (`v_drive`, `r_series`, `v_read` or `t_max` not finite and positive,
///   `rho_start` outside `[0, 1]` or NaN),
/// * [`RramError::NotTerminated`] if the current never reaches `i_ref`
///   within `t_max` (reference below the leakage floor),
/// * [`RramError::Numerics`] if a divider solve fails.
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
/// The path's panels do not depend on the reference, so one run down to the
/// lowest reference serves them all, each distinct reference adding one
/// partial panel. Entry `k` of the result is bit for bit what
/// [`simulate_reset_termination`] returns with `i_ref = i_refs[k]`, and the
/// telemetry and [`JouleLedger`] records are those of that run. Sweeps that
/// start every RESET from the same state (the Table 2 allocation, each
/// calibration objective evaluation) pay for one path instead of one per
/// reference.
///
/// # Errors
///
/// Per entry, as [`simulate_reset_termination`]. An invalid model card or a
/// numerical failure fails every reference not yet read; an armed chaos
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
        let mut records = ResetRecords::default();
        terminate(
            &CellLaw::new(params, inst),
            cond,
            &refs,
            &mut out,
            &mut records,
        );
        records.record(&out, refs.iter().map(|&(k, _, _)| k));
    }
    resolved(out)
}

/// Runs one terminated RESET per `(instance, conditions)` job, each to its
/// own `i_ref`. Entry `k` of the result
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
    let mut records = ResetRecords::default();
    for (k, (inst, cond)) in jobs.iter().enumerate() {
        match check_reset(inst, cond).and_then(|()| reference(cond, cond.i_ref)) {
            Ok(v_star) => terminate(
                &CellLaw::new(params, inst),
                cond,
                &[(k, v_star, cond.i_ref)],
                &mut out,
                &mut records,
            ),
            Err(e) => out[k] = Some(Err(e)),
        }
    }
    records.record(&out, 0..jobs.len());
    resolved(out)
}

/// Rejects a RESET drive the fast path cannot simulate ([`check_drive`]),
/// or a `t_max` not finite and positive.
fn check_reset(inst: &InstanceVariation, cond: &ResetConditions) -> Result<(), RramError> {
    check_drive(
        inst,
        cond.v_drive,
        cond.r_series,
        cond.rho_start,
        0.0,
        cond.v_read,
    )?;
    if !(cond.t_max.is_finite() && cond.t_max > 0.0) {
        return Err(RramError::InvalidParameter {
            name: "t_max",
            value: cond.t_max,
        });
    }
    Ok(())
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

/// The results of a batch whose every slot was filled.
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
        }
    }
}

/// Rejects a pulse width not finite and positive.
fn check_width(width: f64) -> Result<(), RramError> {
    if width.is_finite() && width > 0.0 {
        Ok(())
    } else {
        Err(RramError::InvalidParameter {
            name: "width",
            value: width,
        })
    }
}

/// Simulates a fixed-width (standard, non-terminated) RESET pulse: the
/// terminated RESET's path with no reference, stopped where the time
/// reaches `width`.
///
/// # Errors
///
/// [`RramError::InvalidParameter`] for an invalid card or drive (as
/// [`simulate_reset_termination`]) or a width not finite and positive;
/// propagates numerical failures.
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
    check_width(pulse.width)?;
    let law = CellLaw::new(params, inst);
    let circuit = Pulse::new(law, pulse.v_drive, pulse.r_series, f64::INFINITY, false);
    let v0 = circuit.divider(rho_start)?;
    let c0 = circuit.half(v0);
    let start = circuit.finish(&c0);
    // Whether the state moves at all, as in the terminated RESET.
    let (rho, [_, e_drive, _]) = if start.dv > 0.0 {
        let (_, sums, end) = Path::new(circuit, c0, rho_start).at(pulse.width)?;
        (end.rho2.sqrt(), sums)
    } else {
        (rho_start, circuit.held(start.vc, start.i, pulse.width))
    };
    Ok(TerminationOutcome {
        rho_final: rho,
        r_read_ohms: law.read_resistance(rho, v_read),
        latency_s: pulse.width,
        energy_j: e_drive,
        i_initial: start.i,
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

/// A SET's path in the cell voltage from state `rho` for `width`: the
/// final state, and the time, driver energy and cell energy.
///
/// The cell voltage falls from its start solve. Each panel ends where a
/// Newton step on `ln(1 − ρ)` from the previous panel's last node puts
/// `1 − ρ` shrunk by 0.7 (below `ρ_formed`, on `ln ρ`, `ρ` grown by 1/0.7),
/// so the ends cost no solve. Panels split at the compliance kink
/// `v_drive − i_c·r_series`, where the current stops rising, and at
/// `ρ_formed`'s voltage, where the forming barrier vanishes. The path stops
/// at `v_set_floor`, below which the rate is zero, or at the model's
/// ceiling `1 − ρ = RHO_CEILING_GAP`, where [`model::advance_state`]
/// saturates to `ρ = 1`; a path that stops before `width` holds there.
/// Saturation is a logarithmic end that the shrinking panels resolve.
fn grow(pulse: &Pulse, rho: f64, width: f64) -> Result<(f64, [f64; 3]), RramError> {
    let (rho_formed, v_floor) = pulse.law.set_switch_points();
    let v0 = pulse.divider(rho)?;
    let start = pulse.half(v0);
    if v0 <= v_floor || 1.0 - rho <= RHO_CEILING_GAP {
        let rho_final = if v0 <= v_floor { rho } else { 1.0 };
        return Ok((rho_final, pulse.held(v0, start.i, width)));
    }
    let v_formed = if rho < rho_formed {
        pulse.divider(rho_formed)?
    } else {
        f64::NEG_INFINITY
    };
    let splits = [pulse.v_drive - pulse.i_max / pulse.g_series, v_formed];
    let max_fall = -RATE_SPAN / pulse.law.set_rate_gain();
    // Where the path stops, and the state it reports there (`None`: the
    // state it draws).
    let (mut stop, mut rho_stop) = (v_floor, None);
    let mut ceiling_solved = false;
    let (mut a, mut sum, mut c) = (v0, [0.0; 3], start);
    loop {
        if a <= stop {
            let k = pulse.half(a);
            let rho_final = rho_stop.unwrap_or_else(|| k.rho2.sqrt().min(1.0));
            let h = pulse.held(a, k.i, width - sum[0]);
            return Ok((rho_final, [0, 1, 2].map(|j| sum[j] + h[j])));
        }
        let rho_c = c.rho2.sqrt();
        if !ceiling_solved && 1.0 - rho_c < NEAR_CEILING {
            ceiling_solved = true;
            let v_ceiling = pulse.divider(1.0 - RHO_CEILING_GAP)?;
            if v_ceiling > stop {
                (stop, rho_stop) = (v_ceiling.min(a), Some(1.0));
            }
            continue;
        }
        // Along the path `dρ/dv = −di/(2ρ·∂I/∂(ρ²))`.
        let m = if rho_c < rho_formed {
            rho_c
        } else {
            1.0 - rho_c
        };
        let step = (LN_SET_PANEL * m * (2.0 * rho_c * c.di_drho2 / c.di)).max(max_fall);
        let next = splits.into_iter().filter(|&v| v < a).fold(stop, f64::max);
        // A step that is not a finite fall goes to the next split.
        let b = if a + step < a {
            (a + step).max(next)
        } else {
            next
        };
        let (q, dts, last) = pulse.panel(a, b);
        let t_b = sum[0] + q[0];
        if t_b > width || t_b.is_nan() {
            let (_, sums, k) = pulse.reach_time((a, sum), b, &dts, width)?;
            // Past the model's saturation the state map reads `ρ` a
            // rounding above 1.
            return Ok((k.rho2.sqrt().min(1.0), sums));
        }
        sum = [0, 1, 2].map(|j| sum[j] + q[j]);
        (a, c) = (b, last);
    }
}

/// Simulates a compliance-limited SET pulse.
///
/// When the divider current would exceed the compliance, the access
/// transistor saturates: the current is clamped, and the cell voltage is
/// where the cell draws the clamped current. The time and energies are
/// integrals over the falling cell voltage, which ends where the time
/// reaches the width.
///
/// # Errors
///
/// [`RramError::InvalidParameter`] for an invalid card, drive (as
/// [`simulate_reset_termination`], but `rho_start` below [`RHO_MIN`]
/// is invalid too), a non-positive compliance or a width not finite and
/// positive; propagates divider-solve failures.
pub fn simulate_set(
    params: &OxramParams,
    inst: &InstanceVariation,
    cond: &SetConditions,
) -> Result<SetOutcome, RramError> {
    // One job in, exactly one outcome out.
    simulate_sets(params, &[(*inst, *cond)]).swap_remove(0)
}

/// Runs one SET per `(instance, conditions)` job, one after another. Entry
/// `k` of the result is what [`simulate_set`] returns for job `k`, with the
/// same [`JouleLedger`] records.
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
    let ledger = JouleLedger::global();
    let mut energy = EnergyTally::default();
    let mut set = |inst: &InstanceVariation, cond: &SetConditions| {
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
        check_width(cond.width)?;
        let law = CellLaw::new(params, inst);
        let pulse = Pulse::new(law, cond.v_drive, cond.r_series, i_c, true);
        let (rho, [_, e_drive, e_cell]) = grow(&pulse, cond.rho_start, cond.width)?;
        if ledger.is_enabled() {
            energy.add(DeviceClass::RramCell, Role::RramCell, e_cell);
            energy.add(
                DeviceClass::Resistor,
                Role::AccessTransistor,
                e_drive - e_cell,
            );
        }
        Ok(SetOutcome {
            rho_final: rho,
            r_read_ohms: law.read_resistance(rho, cond.v_read),
            energy_j: e_drive,
        })
    };
    let out = jobs.iter().map(|(inst, cond)| set(inst, cond)).collect();
    // One record for the batch, inside the `rram/set` scope.
    ledger.record_tally(&energy);
    out
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
    // RESET's panels serve all of them: resistances, then latencies, then
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
        pulse.divider(rho)
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
    fn the_shape_floor_splits_the_panel_it_falls_in() {
        // On a valid card (β ≤ 3) `ρ^β` is floored at `ρ` ≤ 1e-4, where the
        // hopping current carries the cell all but alone (at the card's β,
        // 1.8, within 2e-14 V of the hopping limit). At β = 3, on a card
        // fast enough to get there, a reference between the floor's cell
        // voltage and the hopping limit reads a panel end at the floor.
        let (mut p, inst) = nominal();
        p.beta_rst = 3.0;
        p.tau_rst0 = 1e-20;
        let law = CellLaw::new(&p, &inst);
        let cond = ResetConditions {
            t_max: 1.0,
            ..ResetConditions::paper_defaults(f64::NAN)
        };
        let pulse = Pulse::new(law, cond.v_drive, cond.r_series, f64::INFINITY, false);
        let v_floor = pulse.divider(law.reset_switch_points().0.sqrt()).unwrap();
        let v_star = 0.5 * (v_floor + pulse.divider(0.0).unwrap());
        let i_ref = pulse.series(v_star).0;
        let mut path = Path::new(pulse, pulse.half(pulse.divider(1.0).unwrap()), 1.0);
        path.clear(v_star, law.rho2_and_slopes(v_star, i_ref).0)
            .unwrap();
        let (panels, [t, ..]) = path.reach(v_star, cond.t_max).expect("reached");
        assert!(path.ends.iter().any(|e| e.0 == v_floor), "{:?}", path.ends);
        assert_eq!(panels as usize, path.ends.len());
        let out = simulate_reset_termination(&p, &inst, &ResetConditions { i_ref, ..cond });
        assert_eq!(out.unwrap().latency_s, t);
    }

    /// Checks every node of the panel from `a` to `b` against the per-node
    /// path: the conduction and the time share `w·h/v̇` of [`Pulse::stage`].
    /// Returns how many nodes had `v/v_hop` below the shared range.
    fn assert_nodes_match_stages(pulse: &Pulse, a: f64, b: f64) -> usize {
        let rel = |x: f64, y: f64| if x == y { 0.0 } else { (x - y).abs() / y.abs() };
        let (mid, half) = (0.5 * (a + b), 0.5 * (b - a));
        let (halves, dts) = pulse.nodes(a, b);
        let mut below = 0;
        for ((c, dt), (x, w)) in halves.iter().zip(dts).zip(GAUSS) {
            let k = pulse.stage(mid + half * x);
            let dt_node = w * half / k.dv;
            assert_eq!((c.vc, c.i), (k.vc, k.i), "panel {a}..{b}");
            assert!(
                k.rho2 > 0.0 && dt_node.is_finite() && dt_node > 0.0,
                "{k:?}"
            );
            assert!(
                rel(c.rho2, k.rho2) <= 1e-14,
                "ρ² at {}: {c:?} vs {k:?}",
                k.vc
            );
            assert!(
                rel(dt, dt_node) <= 1e-14,
                "dt at {}: {dt} vs {dt_node}",
                k.vc
            );
            below += usize::from(pulse.law.hop_arg(k.vc) < 0.5);
        }
        below
    }

    #[test]
    fn a_panels_shared_exponentials_match_the_per_node_path() {
        let (p, inst) = nominal();
        // SET panels on each side of the compliance kink, formed and not.
        let cond = SetConditions::paper_defaults();
        let law = CellLaw::new(&p, &inst);
        let set = Pulse::new(law, cond.v_drive, cond.r_series, cond.i_compliance, true);
        let clamped = |v: f64| set.series(v).1 == 0.0;
        let (rho_formed, _) = law.set_switch_points();
        assert!(0.05 < rho_formed && rho_formed < 0.1);
        for (rho_a, rho_b, clamp) in [(0.02, 0.05, false), (0.1, 0.2, false), (0.95, 0.97, true)] {
            let (a, b) = (divider(set, rho_a).unwrap(), divider(set, rho_b).unwrap());
            assert_eq!((clamped(a), clamped(b)), (clamp, clamp), "{a}..{b}");
            assert_eq!(assert_nodes_match_stages(&set, a, b), 0);
        }
        // A RESET panel from the LRS, inside the shared range.
        let reset = reset_pulse(1.1523, 3.6131e3);
        let (a, b) = (divider(reset, 1.0).unwrap(), divider(reset, 0.5).unwrap());
        assert_eq!(assert_nodes_match_stages(&reset, a, b), 0);
        // A RESET at cell voltages about `v_hop/2`, with no threshold: some
        // nodes fall below the shared range and take the per-node formula.
        let mut low = p;
        low.v_rst_floor = 0.0;
        let reset = Pulse::new(CellLaw::new(&low, &inst), 0.3, 100e3, f64::INFINITY, false);
        let below = assert_nodes_match_stages(&reset, 0.1, 0.25);
        assert!(
            (1..5).contains(&below),
            "{below} nodes below the shared range"
        );
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
        for t_max in [0.0, -1e-6, f64::NAN, f64::INFINITY] {
            let cond = ResetConditions {
                t_max,
                ..ResetConditions::paper_defaults(10e-6)
            };
            invalid(
                simulate_reset_termination(&p, &inst, &cond).map(drop),
                "t_max",
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

    #[test]
    fn the_interpolated_guess_inverts_a_polynomial_time() {
        // Each basis polynomial is 1 at its node and 0 at the others.
        for (k, row) in LAGRANGE.iter().enumerate() {
            for (j, &(x, _)) in GAUSS.iter().enumerate() {
                let l = row.iter().rev().fold(0.0, |f, c| f * x + c);
                let want = if j == k { 1.0 } else { 0.0 };
                assert!((l - want).abs() < 1e-12, "basis {k} at node {j}: {l}");
            }
        }
        // The integrand `1 + v²` is interpolated exactly, so the time `v +
        // v³/3` reaches 4/3 at `v = 1`, either way along the panel.
        let time_to = |a: f64, b: f64, target: f64| {
            let (mid, half) = (0.5 * (a + b), 0.5 * (b - a));
            let dts = GAUSS.map(|(x, w)| {
                let v = mid + half * x;
                w * half * (1.0 + v * v)
            });
            interpolate(a, b, &dts, target)
        };
        assert!((time_to(0.0, 2.0, 4.0 / 3.0) - 1.0).abs() < 1e-9);
        // From 2 down, the time to 1 is `(2 + 8/3) − 4/3`, as a negative
        // sum of negative node times.
        assert!((time_to(2.0, 0.0, -(2.0 + 8.0 / 3.0 - 4.0 / 3.0)) - 1.0).abs() < 1e-9);
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
