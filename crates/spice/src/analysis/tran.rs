//! Adaptive-step transient analysis with source breakpoints and monitors.
//!
//! The transient engine is the substrate the paper's write-termination
//! experiments run on: a RESET pulse is applied, the cell current is watched
//! every accepted step by a [`Monitor`], and the monitor chops the pulse (or
//! stops the run) when the current crosses the programmed reference. Step
//! rejection via [`MonitorAction::RedoWithDt`] lets monitors bisect onto a
//! crossing with sub-step precision.

use oxterm_telemetry::joule::{self, JouleLedger, N_PHASES, PHASES};
use oxterm_telemetry::{PhaseId, Profiler, Telemetry};

use crate::analysis::{newton_solve, op::solve_op, NewtonOutcome};
use crate::circuit::{Circuit, ElementId, NodeId};
use crate::device::{AnalysisKind, UpdateContext};
use crate::solution::Solution;
use crate::waveform::Waveform;
use crate::SpiceError;

pub use crate::options::{OpOptions, TranOptions};

/// What a [`Monitor`] asks the engine to do after inspecting a candidate
/// step.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MonitorAction {
    /// Accept the step and continue.
    Continue,
    /// Accept the step, then end the analysis.
    Stop,
    /// Reject the candidate step and retry from the same time with the given
    /// (smaller) step size — used to bisect onto threshold crossings.
    RedoWithDt(f64),
}

/// A candidate transient step presented to monitors before acceptance.
#[derive(Debug)]
pub struct TranSample<'a> {
    /// End time of the candidate step.
    pub time: f64,
    /// Step size.
    pub dt: f64,
    /// Candidate converged solution at `time`.
    pub solution: &'a Solution,
}

/// A transient monitor: inspects each candidate step and may adjust the
/// circuit (e.g. truncate a pulse source).
///
/// Mutate the circuit only when returning [`MonitorAction::Continue`] or
/// [`MonitorAction::Stop`]; a mutation combined with `RedoWithDt` would make
/// the retried step see the mutated circuit.
pub type Monitor<'m> = dyn FnMut(&TranSample<'_>, &mut Circuit) -> MonitorAction + 'm;

/// Recorded transient run: one solution and device-state snapshot per
/// accepted time point.
#[derive(Debug, Clone)]
pub struct TranResult {
    times: Vec<f64>,
    data: Vec<Vec<f64>>,
    states: Vec<Vec<f64>>,
    n_node_unknowns: usize,
    /// Whether a monitor ended the run before `t_stop`.
    pub stopped_early: bool,
}

impl TranResult {
    /// Accepted time points.
    pub fn times(&self) -> &[f64] {
        &self.times
    }

    /// Number of accepted points.
    pub fn len(&self) -> usize {
        self.times.len()
    }

    /// Whether the run recorded no points (never happens for successful
    /// runs — `t = 0` is always recorded).
    pub fn is_empty(&self) -> bool {
        self.times.is_empty()
    }

    /// Voltage trace of a node.
    pub fn node_trace(&self, node: NodeId) -> Waveform {
        let y = match node.unknown() {
            None => vec![0.0; self.times.len()],
            Some(u) => self.data.iter().map(|x| x[u]).collect(),
        };
        Waveform::from_parts(self.times.clone(), y)
    }

    /// Current trace of a device's `k`-th branch.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotFound`] for invalid handles.
    pub fn branch_trace(
        &self,
        circuit: &Circuit,
        id: ElementId,
        k: usize,
    ) -> Result<Waveform, SpiceError> {
        let u = circuit.branch_unknown(id, k)?;
        let y = self.data.iter().map(|x| x[u]).collect();
        Ok(Waveform::from_parts(self.times.clone(), y))
    }

    /// Trace of a device's internal state variable (e.g. an RRAM filament
    /// radius).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotFound`] for invalid handles or state indices.
    pub fn state_trace(
        &self,
        circuit: &Circuit,
        id: ElementId,
        idx: usize,
    ) -> Result<Waveform, SpiceError> {
        let range = circuit.state_range(id)?;
        if idx >= range.len() {
            return Err(SpiceError::NotFound {
                what: format!("state index {idx} of element #{:?}", id),
            });
        }
        let off = range.start + idx;
        let y = self.states.iter().map(|s| s[off]).collect();
        Ok(Waveform::from_parts(self.times.clone(), y))
    }

    /// The solution at the final accepted point.
    pub fn final_solution(&self) -> Solution {
        Solution::new(
            self.data.last().cloned().unwrap_or_default(),
            self.n_node_unknowns,
        )
    }
}

/// Runs a transient analysis.
///
/// The run starts from the DC operating point with sources evaluated at
/// `t = 0`. Device breakpoints (pulse corners) are never stepped over; the
/// step size shrinks on Newton failure or large per-step voltage change and
/// grows again on easy steps.
///
/// # Errors
///
/// * [`SpiceError::TimestepTooSmall`] if Newton keeps failing as `dt → 0`,
/// * [`SpiceError::StepLimit`] if the accepted-step budget is exhausted,
/// * any operating-point failure at `t = 0`.
pub fn run_transient(
    circuit: &mut Circuit,
    opts: &TranOptions,
    monitors: &mut [&mut Monitor<'_>],
) -> Result<TranResult, SpiceError> {
    let nn = circuit.n_nodes() - 1;
    let sim = opts.sim;
    // Pre-resolve the hot-loop counters once per run; each step then pays
    // one branch (disabled) or one relaxed atomic op (enabled).
    let tel = Telemetry::global();
    tel.incr("spice.tran.runs");
    let run_span = tel.span("spice.tran.run_seconds");
    let prof = Profiler::global();
    let _tran = prof.phase(PhaseId::TranRun);
    let c_accept = tel.counter("spice.tran.steps_accepted");
    let c_rej_newton = tel.counter("spice.tran.steps_rejected_newton");
    let c_rej_dv = tel.counter("spice.tran.steps_rejected_dv");
    let c_redo = tel.counter("spice.tran.monitor_redos");
    let op = solve_op(circuit, &OpOptions { sim })?;
    let mut state = circuit.initial_state();
    prime_states(circuit, op.as_slice(), &mut state);
    // Per-device energy integration: armed only when the process-global
    // joule ledger is; disarmed runs pay one branch here and nothing in
    // the step loop.
    let mut meter = {
        let ledger = JouleLedger::global().clone();
        ledger.is_enabled().then(|| {
            let mut m = PowerMeter::new(circuit, ledger);
            m.prime(circuit, op.as_slice(), &state);
            m
        })
    };

    let mut result = TranResult {
        times: vec![0.0],
        data: vec![op.as_slice().to_vec()],
        states: vec![state.clone()],
        n_node_unknowns: nn,
        stopped_early: false,
    };

    let breakpoints = circuit.breakpoints();
    let mut bp_cursor = 0usize;

    let mut t = 0.0f64;
    let mut x = op.as_slice().to_vec();
    let mut dt = opts.resolved_dt_init().min(opts.resolved_dt_max());
    let dt_max = opts.resolved_dt_max();
    let t_eps = (opts.t_stop * 1e-15).max(1e-21);

    let mut accepted = 0usize;
    let mut attempts = 0usize;
    let attempt_budget = opts.max_steps.saturating_mul(8);

    while t < opts.t_stop - t_eps {
        if accepted >= opts.max_steps {
            return Err(SpiceError::StepLimit {
                time: t,
                max_steps: opts.max_steps,
            });
        }
        // Propose a step, clipped to breakpoints and the stop time.
        let mut dt_try = dt.min(dt_max).min(opts.t_stop - t);
        while bp_cursor < breakpoints.len() && breakpoints[bp_cursor] <= t + t_eps {
            bp_cursor += 1;
        }
        if bp_cursor < breakpoints.len() {
            let bp = breakpoints[bp_cursor];
            if t + dt_try > bp - t_eps {
                dt_try = bp - t;
            }
        }
        if oxterm_chaos::should_inject(oxterm_chaos::FaultKind::SlowStep) {
            // Forced timestep collapse: the proposal drops to the dt_min
            // floor, so one more Newton rejection terminates the run.
            Telemetry::global().incr("chaos.injected.slow_step");
            dt_try = dt_try.min(opts.dt_min);
        }

        // Attempt (and possibly retry) the step.
        loop {
            attempts += 1;
            if attempts > attempt_budget {
                return Err(SpiceError::StepLimit {
                    time: t,
                    max_steps: opts.max_steps,
                });
            }
            let kind = AnalysisKind::Tran {
                time: t + dt_try,
                dt: dt_try,
            };
            let outcome = newton_solve(circuit, &x, &state, kind, 1.0, sim.gmin, &sim);
            let NewtonOutcome { x: x_new, iters } = match outcome {
                Ok(o) => o,
                Err(_) => {
                    if let Some(c) = &c_rej_newton {
                        c.incr();
                    }
                    dt_try *= 0.5;
                    if dt_try < opts.dt_min {
                        return Err(SpiceError::TimestepTooSmall {
                            time: t,
                            dt: dt_try,
                        });
                    }
                    continue;
                }
            };

            // Local accuracy control: reject steps with large voltage swing.
            let dv = x_new
                .iter()
                .take(nn)
                .zip(&x)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0f64, f64::max);
            if dv > opts.dv_step_max && dt_try > opts.dt_min * 4.0 {
                if let Some(c) = &c_rej_dv {
                    c.incr();
                }
                dt_try *= 0.5;
                continue;
            }

            // Present the candidate to the monitors.
            let mut action = MonitorAction::Continue;
            let monitors_phase = prof.phase(PhaseId::TranMonitors);
            {
                let sol = Solution::new(x_new.clone(), nn);
                let sample = TranSample {
                    time: t + dt_try,
                    dt: dt_try,
                    solution: &sol,
                };
                for m in monitors.iter_mut() {
                    match m(&sample, circuit) {
                        MonitorAction::Continue => {}
                        a => {
                            action = a;
                            break;
                        }
                    }
                }
            }
            if let MonitorAction::RedoWithDt(d) = action {
                if let Some(c) = &c_redo {
                    c.incr();
                }
                let d = if d >= dt_try { dt_try * 0.5 } else { d };
                dt_try = d.max(opts.dt_min);
                continue;
            }

            // Accept: advance device state and record. Each scope hands
            // over to the next at one clock read.
            let states_phase = monitors_phase.then(PhaseId::TranStates);
            advance_states(circuit, &x_new, &mut state, t + dt_try, dt_try);
            let record = states_phase.then(PhaseId::TranRecord);
            t += dt_try;
            x = x_new;
            if let Some(m) = &mut meter {
                m.accumulate(circuit, &x, &state, t, dt_try);
            }
            result.times.push(t);
            result.data.push(x.clone());
            result.states.push(state.clone());
            accepted += 1;
            if let Some(c) = &c_accept {
                c.incr();
            }
            tel.record("spice.tran.newton_iters", iters as f64);
            record.finish();

            // Step-size adaptation.
            dt = if iters <= 10 {
                (dt_try * 1.4).min(dt_max)
            } else {
                dt_try
            };

            if action == MonitorAction::Stop {
                result.stopped_early = true;
                if let Some(m) = &meter {
                    m.flush(circuit);
                }
                run_span.finish();
                return Ok(result);
            }
            break;
        }
    }
    if let Some(m) = &meter {
        m.flush(circuit);
    }
    run_span.finish();
    Ok(result)
}

/// Per-device trapezoidal energy integrator for one transient run.
///
/// Samples every device's instantaneous absorbed power at each accepted
/// step and keeps one running integral per device per [`ProgramPhase`]
/// bucket (the thread-local phase tag is read once per step, so a monitor
/// flipping the phase mid-run — the write-termination trip — splits the
/// pulse from its tail). Flushed to the ledger once at run end; error
/// paths drop the partial integrals with the failed run.
///
/// [`ProgramPhase`]: oxterm_telemetry::joule::ProgramPhase
struct PowerMeter {
    ledger: JouleLedger,
    prev: Vec<f64>,
    energy: Vec<[f64; N_PHASES]>,
}

impl PowerMeter {
    fn new(circuit: &Circuit, ledger: JouleLedger) -> Self {
        let n = circuit.elements.len();
        PowerMeter {
            ledger,
            prev: vec![0.0; n],
            energy: vec![[0.0; N_PHASES]; n],
        }
    }

    /// Samples the `t = 0` power from the operating point (the left edge
    /// of the first trapezoid).
    fn prime(&mut self, circuit: &Circuit, solution: &[f64], state: &[f64]) {
        let nn = circuit.n_nodes() - 1;
        for (k, el) in circuit.elements.iter().enumerate() {
            let ctx = UpdateContext {
                solution,
                time: 0.0,
                dt: 0.0,
                branch_base: nn + el.branch_offset,
            };
            self.prev[k] = el.device.power(
                &ctx,
                &state[el.state_offset..el.state_offset + el.state_len],
            );
        }
    }

    /// Integrates one accepted step: `e += ½·(p_prev + p)·dt` per device,
    /// into the calling thread's current phase bucket.
    fn accumulate(
        &mut self,
        circuit: &Circuit,
        solution: &[f64],
        state: &[f64],
        time: f64,
        dt: f64,
    ) {
        let nn = circuit.n_nodes() - 1;
        let phase = joule::current_phase().index();
        for (k, el) in circuit.elements.iter().enumerate() {
            let ctx = UpdateContext {
                solution,
                time,
                dt,
                branch_base: nn + el.branch_offset,
            };
            let p = el.device.power(
                &ctx,
                &state[el.state_offset..el.state_offset + el.state_len],
            );
            self.energy[k][phase] += 0.5 * (self.prev[k] + p) * dt;
            self.prev[k] = p;
        }
    }

    /// Flushes every device's per-phase integrals to the ledger (one
    /// record per nonzero bucket).
    fn flush(&self, circuit: &Circuit) {
        for (k, el) in circuit.elements.iter().enumerate() {
            let class = el.device.device_class();
            let role = joule::classify_role(class, el.device.name());
            for (pi, &e) in self.energy[k].iter().enumerate() {
                if e != 0.0 {
                    self.ledger
                        .record_energy_in_phase(class, role, PHASES[pi], e);
                }
            }
        }
    }
}

/// Primes device states from the DC operating point (`dt = 0` convention).
fn prime_states(circuit: &Circuit, solution: &[f64], state: &mut [f64]) {
    let _states = Profiler::global().phase(PhaseId::TranStates);
    let nn = circuit.n_nodes() - 1;
    for el in &circuit.elements {
        let ctx = UpdateContext {
            solution,
            time: 0.0,
            dt: 0.0,
            branch_base: nn + el.branch_offset,
        };
        el.device.update_state(
            &ctx,
            &mut state[el.state_offset..el.state_offset + el.state_len],
        );
    }
}

/// Advances device states over an accepted step, inside the caller's
/// `tran/states` scope.
fn advance_states(circuit: &Circuit, solution: &[f64], state: &mut [f64], time: f64, dt: f64) {
    let nn = circuit.n_nodes() - 1;
    for el in &circuit.elements {
        let ctx = UpdateContext {
            solution,
            time,
            dt,
            branch_base: nn + el.branch_offset,
        };
        el.device.update_state(
            &ctx,
            &mut state[el.state_offset..el.state_offset + el.state_len],
        );
    }
}
