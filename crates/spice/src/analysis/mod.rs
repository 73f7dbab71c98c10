//! Circuit analyses: DC operating point, DC sweep, transient.

pub mod dc_sweep;
pub mod op;
pub mod tran;

use oxterm_numerics::dense::DMatrix;
use oxterm_numerics::sparse::TripletMatrix;
use oxterm_numerics::sparse_lu::SparseLu;

use oxterm_telemetry::{CounterId, PhaseId, Profiler, Telemetry};

use crate::circuit::Circuit;
use crate::device::{AnalysisKind, DenseSink, StampContext, TripletSink};
use crate::options::SimOptions;
use crate::SpiceError;

/// One linearized MNA system, dense or sparse by the circuit's size.
enum MnaSystem {
    Dense(DMatrix, Vec<f64>),
    Sparse(TripletMatrix, Vec<f64>),
}

impl MnaSystem {
    /// Factors the system and solves it: the next Newton iterate.
    fn solve(self) -> Result<Vec<f64>, SpiceError> {
        let tel = Telemetry::global();
        match self {
            MnaSystem::Dense(a, b) => {
                tel.incr("spice.newton.lu_dense");
                Ok(a.factorize()?.solve(&b)?)
            }
            MnaSystem::Sparse(a, b) => {
                tel.incr("spice.newton.lu_sparse");
                Ok(SparseLu::factorize(&a.to_csc())?.solve(&b)?)
            }
        }
    }
}

/// Allocates and stamps the linearized MNA system at the candidate
/// solution (`None` for a circuit with no unknowns).
fn assemble(
    circuit: &Circuit,
    candidate: &[f64],
    state: &[f64],
    kind: AnalysisKind,
    source_factor: f64,
    gshunt: f64,
    opts: &SimOptions,
) -> Option<MnaSystem> {
    let n = circuit.n_unknowns();
    if n == 0 {
        return None;
    }
    let nn = circuit.n_nodes() - 1;
    let mut b = vec![0.0; n];
    let stamp_all = |sink: &mut dyn crate::device::MnaSink| {
        for el in &circuit.elements {
            let mut ctx = StampContext {
                sink,
                candidate,
                state: &state[el.state_offset..el.state_offset + el.state_len],
                kind,
                source_factor,
                branch_base: nn + el.branch_offset,
            };
            el.device.stamp(&mut ctx);
        }
    };
    if n <= opts.sparse_threshold {
        let mut a = DMatrix::zeros(n, n);
        stamp_all(&mut DenseSink {
            a: &mut a,
            b: &mut b,
        });
        for i in 0..nn {
            a.add(i, i, gshunt);
        }
        Some(MnaSystem::Dense(a, b))
    } else {
        let mut a = TripletMatrix::new(n, n);
        stamp_all(&mut TripletSink {
            a: &mut a,
            b: &mut b,
        });
        for i in 0..nn {
            a.add(i, i, gshunt);
        }
        Some(MnaSystem::Sparse(a, b))
    }
}

/// Result of a Newton solve: the converged iterate and the iteration count.
pub(crate) struct NewtonOutcome {
    pub x: Vec<f64>,
    pub iters: usize,
}

/// Damped Newton–Raphson at fixed `kind`/`source_factor`/`gshunt`.
///
/// When post-mortem capture is active
/// ([`oxterm_telemetry::postmortem::is_active`]), a failed solve stashes a
/// diagnostic report — per-iteration residual ∞-norm history plus the
/// top-K worst-residual unknowns named via `Circuit::unknown_name` — for a
/// terminal failure site to enrich and write. Inactive capture costs one
/// relaxed atomic load per solve.
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
    let diag_on = oxterm_telemetry::postmortem::is_active();
    let mut residual_history: Vec<f64> = Vec::new();
    let mut ratios: Vec<f64> = Vec::new();
    let mut x = x0.to_vec();
    let mut worst = f64::INFINITY;
    // Each iteration runs stamp → solve_lu → residual back to back, and
    // the next iteration's stamp follows the residual: one scope hands
    // over to the next, so the Newton loop's self time is its own work.
    let mut phase = prof.phase(PhaseId::NewtonStamp);
    for iter in 0..opts.max_newton_iters {
        if iter > 0 {
            phase = phase.then(PhaseId::NewtonStamp);
        }
        let system = assemble(circuit, &x, state, kind, source_factor, gshunt, opts);
        phase = phase.then(PhaseId::NewtonSolveLu);
        let x_new = match system {
            Some(system) => system.solve()?,
            None => Vec::new(),
        };
        phase = phase.then(PhaseId::NewtonResidual);
        if x_new.iter().any(|v| !v.is_finite()) {
            tel.incr("spice.newton.failures");
            if diag_on {
                crate::postmortem::stash_newton_failure(
                    circuit,
                    time,
                    "non-finite solution vector",
                    &residual_history,
                    &ratios,
                    &x,
                );
            }
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
        if diag_on {
            ratios.clear();
        }
        for i in 0..n {
            let atol = if i < nn { opts.vntol } else { opts.abstol };
            let tol = atol + opts.reltol * x_new[i].abs().max(x[i].abs());
            let err = (x_new[i] - x[i]).abs();
            let ratio = err / tol;
            worst = worst.max(ratio);
            if err > tol {
                converged = false;
            }
            if diag_on {
                ratios.push(ratio);
            }
        }
        if diag_on && residual_history.len() < crate::postmortem::MAX_RESIDUAL_HISTORY {
            residual_history.push(worst);
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
        "{} iterations, worst error {worst:.2} × tolerance",
        opts.max_newton_iters
    );
    if diag_on {
        crate::postmortem::stash_newton_failure(
            circuit,
            time,
            &detail,
            &residual_history,
            &ratios,
            &x,
        );
    }
    Err(SpiceError::NoConvergence {
        analysis: "newton",
        time,
        detail,
    })
}
