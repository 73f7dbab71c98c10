//! Circuit analyses: DC operating point, DC sweep, transient.

pub mod dc_sweep;
pub mod op;
pub mod tran;

use oxterm_numerics::dense::DMatrix;

use oxterm_telemetry::{CounterId, PhaseId, Profiler, Telemetry};

use crate::circuit::Circuit;
use crate::device::{AnalysisKind, StampContext};
use crate::options::SimOptions;
use crate::SpiceError;

/// Allocates and stamps the linearized MNA system `A·x = b` at the
/// candidate solution (`None` for a circuit with no unknowns).
fn assemble(
    circuit: &Circuit,
    candidate: &[f64],
    state: &[f64],
    kind: AnalysisKind,
    source_factor: f64,
    gshunt: f64,
) -> Option<(DMatrix, Vec<f64>)> {
    let n = circuit.n_unknowns();
    if n == 0 {
        return None;
    }
    let nn = circuit.n_nodes() - 1;
    let mut a = DMatrix::zeros(n, n);
    let mut b = vec![0.0; n];
    for el in &circuit.elements {
        let mut ctx = StampContext {
            a: &mut a,
            b: &mut b,
            candidate,
            state: &state[el.state_offset..el.state_offset + el.state_len],
            kind,
            source_factor,
            branch_base: nn + el.branch_offset,
        };
        el.device.stamp(&mut ctx);
    }
    for i in 0..nn {
        a.add(i, i, gshunt);
    }
    Some((a, b))
}

/// Result of a Newton solve: the converged iterate and the iteration count.
pub(crate) struct NewtonOutcome {
    pub x: Vec<f64>,
    pub iters: usize,
}

/// Damped Newton–Raphson at fixed `kind`/`source_factor`/`gshunt`.
///
/// A solve that runs out of iterations names its worst unknown — the one
/// whose last update was largest against its tolerance — in the
/// [`SpiceError::NoConvergence`] detail, e.g. `… at v(bl_sense)`.
pub(crate) fn newton_solve(
    circuit: &Circuit,
    x0: &[f64],
    state: &[f64],
    kind: AnalysisKind,
    source_factor: f64,
    gshunt: f64,
    opts: &SimOptions,
) -> Result<NewtonOutcome, SpiceError> {
    let n = circuit.n_unknowns();
    let nn = circuit.n_nodes() - 1;
    let linear = !circuit.has_nonlinear();
    let tel = Telemetry::global();
    let prof = Profiler::global();
    let _newton = prof.phase(PhaseId::TranNewton);
    tel.tally(CounterId::NewtonSolves, 1);
    let time = match kind {
        AnalysisKind::Dc => 0.0,
        AnalysisKind::Tran { time, .. } => time,
    };
    if oxterm_chaos::should_inject(oxterm_chaos::FaultKind::NewtonStall) {
        tel.incr("spice.newton.failures");
        tel.incr("chaos.injected.newton_stall");
        return Err(SpiceError::NoConvergence {
            analysis: "newton",
            time,
            detail: "chaos: injected Newton stall".into(),
        });
    }
    let mut x = x0.to_vec();
    let mut worst = f64::INFINITY;
    let mut worst_at = 0usize;
    // Each iteration runs stamp → solve_lu → residual back to back, and
    // the next iteration's stamp follows the residual: one scope hands
    // over to the next, so the Newton loop's self time is its own work.
    let mut phase = prof.phase(PhaseId::NewtonStamp);
    for iter in 0..opts.max_newton_iters {
        if iter > 0 {
            phase = phase.then(PhaseId::NewtonStamp);
        }
        let system = assemble(circuit, &x, state, kind, source_factor, gshunt);
        phase = phase.then(PhaseId::NewtonSolveLu);
        let x_new = match system {
            Some((a, b)) => a.factorize()?.solve(&b)?,
            None => Vec::new(),
        };
        phase = phase.then(PhaseId::NewtonResidual);
        if x_new.iter().any(|v| !v.is_finite()) {
            tel.incr("spice.newton.failures");
            return Err(SpiceError::NoConvergence {
                analysis: "newton",
                time,
                detail: "non-finite solution vector".into(),
            });
        }
        if linear {
            tel.record("spice.newton.iterations", 1.0);
            return Ok(NewtonOutcome { x: x_new, iters: 1 });
        }
        let mut converged = true;
        worst = 0.0;
        for i in 0..n {
            let atol = if i < nn { opts.vntol } else { opts.abstol };
            let tol = atol + opts.reltol * x_new[i].abs().max(x[i].abs());
            let err = (x_new[i] - x[i]).abs();
            let ratio = err / tol;
            if ratio > worst {
                worst = ratio;
                worst_at = i;
            }
            if err > tol {
                converged = false;
            }
        }
        if converged {
            tel.record("spice.newton.iterations", (iter + 1) as f64);
            tel.record("spice.newton.final_residual", worst);
            return Ok(NewtonOutcome {
                x: x_new,
                iters: iter + 1,
            });
        }
        // Global damping: clamp node-voltage updates relative to the
        // previous iterate; branch currents take the full step.
        let mut damped = x_new;
        for i in 0..nn {
            let d = damped[i] - x[i];
            if d > opts.max_dv {
                damped[i] = x[i] + opts.max_dv;
            } else if d < -opts.max_dv {
                damped[i] = x[i] - opts.max_dv;
            }
        }
        x = damped;
    }
    phase.finish();
    tel.incr("spice.newton.failures");
    tel.record("spice.newton.final_residual", worst);
    let detail = format!(
        "{} iterations, worst error {worst:.2} × tolerance at {}",
        opts.max_newton_iters,
        circuit.unknown_name(worst_at)
    );
    Err(SpiceError::NoConvergence {
        analysis: "newton",
        time,
        detail,
    })
}
