//! DC operating-point analysis with gmin and source stepping fallbacks.

use oxterm_telemetry::{PhaseId, Profiler, Telemetry};

use crate::analysis::{newton_solve, NewtonOutcome};
use crate::circuit::Circuit;
use crate::device::AnalysisKind;
use crate::solution::Solution;
use crate::SpiceError;

pub use crate::options::OpOptions;

/// Solves the DC operating point of a circuit.
///
/// Independent sources are evaluated at `t = 0`; capacitors are open;
/// dynamic device state is frozen at its initial value.
///
/// The solve strategy mirrors production SPICE engines:
/// 1. direct Newton–Raphson from a zero (or warm) start,
/// 2. gmin stepping — solve with a large node-to-ground shunt conductance
///    and relax it decade by decade,
/// 3. source stepping — ramp all independent sources from 10 % to 100 %.
///
/// # Errors
///
/// Returns [`SpiceError::NoConvergence`] when all three strategies fail, or
/// [`SpiceError::Numerics`] for structural problems (singular topology).
pub fn solve_op(circuit: &Circuit, opts: &OpOptions) -> Result<Solution, SpiceError> {
    solve_op_from(circuit, None, opts)
}

/// Like [`solve_op`], warm-starting from a previous solution (DC sweeps).
///
/// # Errors
///
/// See [`solve_op`].
pub fn solve_op_from(
    circuit: &Circuit,
    warm: Option<&Solution>,
    opts: &OpOptions,
) -> Result<Solution, SpiceError> {
    let n = circuit.n_unknowns();
    let nn = circuit.n_nodes() - 1;
    let state = circuit.initial_state();
    let x0: Vec<f64> = match warm {
        Some(s) if s.as_slice().len() == n => s.as_slice().to_vec(),
        _ => vec![0.0; n],
    };
    let sim = &opts.sim;
    let tel = Telemetry::global();
    let _op = Profiler::global().phase(PhaseId::OpSolve);
    tel.incr("spice.op.solves");

    // 1. Direct Newton.
    if let Ok(NewtonOutcome { x, .. }) =
        newton_solve(circuit, &x0, &state, AnalysisKind::Dc, 1.0, sim.gmin, sim)
    {
        tel.incr("spice.op.direct");
        return Ok(Solution::new(x, nn));
    }

    // 2. Gmin stepping.
    let mut x = x0.clone();
    let mut gshunt = 1e-2;
    let mut gmin_ok = true;
    while gshunt > sim.gmin * 1.01 {
        match newton_solve(circuit, &x, &state, AnalysisKind::Dc, 1.0, gshunt, sim) {
            Ok(out) => x = out.x,
            Err(_) => {
                gmin_ok = false;
                break;
            }
        }
        gshunt *= 0.1;
    }
    if gmin_ok {
        if let Ok(out) = newton_solve(circuit, &x, &state, AnalysisKind::Dc, 1.0, sim.gmin, sim) {
            tel.incr("spice.op.gmin_recoveries");
            return Ok(Solution::new(out.x, nn));
        }
    }

    // 3. Source stepping.
    let mut x = x0;
    let mut factor = 0.0f64;
    let mut step = 0.1f64;
    let mut failures = 0;
    while factor < 1.0 {
        let next = (factor + step).min(1.0);
        match newton_solve(circuit, &x, &state, AnalysisKind::Dc, next, sim.gmin, sim) {
            Ok(out) => {
                x = out.x;
                factor = next;
                step = (step * 1.5).min(0.25);
            }
            Err(e) => {
                step *= 0.25;
                failures += 1;
                if failures > 40 || step < 1e-6 {
                    tel.incr("spice.op.failures");
                    return Err(SpiceError::NoConvergence {
                        analysis: "op",
                        time: 0.0,
                        detail: format!("direct, gmin and source stepping all failed (last: {e})"),
                    });
                }
            }
        }
    }
    tel.incr("spice.op.source_recoveries");
    Ok(Solution::new(x, nn))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::circuit::NodeId;
    use crate::device::{Device, StampContext};

    /// A current source driving an exponential diode to ground: a
    /// nonlinear operating point Newton cannot reach in two iterations.
    #[derive(Debug)]
    struct DiodeLoad {
        node: NodeId,
    }

    impl Device for DiodeLoad {
        fn name(&self) -> &str {
            "dload"
        }
        fn stamp(&self, ctx: &mut StampContext<'_>) {
            let (i_s, v_t) = (1e-14, 0.025);
            let v0 = ctx.v(self.node);
            let e = (v0 / v_t).exp();
            ctx.stamp_nonlinear_branch(
                self.node,
                Circuit::gnd(),
                i_s * (e - 1.0),
                i_s * e / v_t,
                v0,
            );
            let drive = 1e-3 * ctx.source_factor();
            ctx.stamp_current(Circuit::gnd(), self.node, drive);
        }
        fn is_nonlinear(&self) -> bool {
            true
        }
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn failed_dc_solve_names_its_worst_unknown() {
        let mut c = Circuit::new();
        let node = c.node("anode");
        c.add(DiodeLoad { node });
        let mut opts = OpOptions::default();
        opts.sim.max_newton_iters = 2;
        match solve_op(&c, &opts) {
            Err(SpiceError::NoConvergence { detail, .. }) => assert!(
                detail.contains("v(") || detail.contains("i("),
                "no unknown named in {detail:?}"
            ),
            other => panic!("expected a non-convergence, got {other:?}"),
        }
    }
}
