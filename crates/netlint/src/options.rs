//! Simulation-option sanity rules (`opt/*`), applied when a transient run
//! is planned for the netlist.

use oxterm_devices::sources::{CurrentSource, VoltageSource};
use oxterm_spice::analysis::tran::TranOptions;
use oxterm_spice::circuit::Circuit;

use crate::{Sink, Span};

pub(crate) fn check(circuit: &Circuit, tran: &TranOptions, sink: &mut Sink) {
    // Fastest edge and latest breakpoint across every independent source,
    // plus the smallest nonzero current level (the abstol yardstick).
    let mut min_edge: Option<(f64, String)> = None;
    let mut max_bp: Option<(f64, String)> = None;
    let mut min_current: Option<f64> = None;
    for dev in circuit.devices() {
        let (wave, name) = if let Some(vs) = dev.as_any().downcast_ref::<VoltageSource>() {
            (vs.wave(), dev.name())
        } else if let Some(cs) = dev.as_any().downcast_ref::<CurrentSource>() {
            let peak = cs.wave().peak_abs();
            if peak.is_finite() && peak > 0.0 {
                min_current = Some(min_current.map_or(peak, |m: f64| m.min(peak)));
            }
            (cs.wave(), dev.name())
        } else {
            continue;
        };
        if let Some(edge) = wave.min_edge() {
            if min_edge.as_ref().is_none_or(|(e, _)| edge < *e) {
                min_edge = Some((edge, name.to_string()));
            }
        }
        if let Some(bp) = wave
            .breakpoints()
            .into_iter()
            .filter(|t| t.is_finite())
            .fold(None, |acc: Option<f64>, t| {
                Some(acc.map_or(t, |a| a.max(t)))
            })
        {
            if max_bp.as_ref().is_none_or(|(b, _)| bp > *b) {
                max_bp = Some((bp, name.to_string()));
            }
        }
    }

    if !(tran.t_stop.is_finite() && tran.t_stop > 0.0) {
        sink.emit(
            "opt/tstop",
            Span::Option("t_stop".to_string()),
            format!(
                "t_stop = {:?} s is not a positive finite duration",
                tran.t_stop
            ),
            None,
        );
        return; // the derived dt checks divide by t_stop
    }

    if let Some((edge, name)) = min_edge {
        let dt_max = tran.resolved_dt_max();
        if dt_max > edge * (1.0 + 1e-9) {
            sink.emit(
                "opt/coarse-timestep",
                Span::Option("dt_max".to_string()),
                format!(
                    "step ceiling {dt_max:.3e} s cannot resolve the {edge:.3e} s edge of \
                     source `{name}`",
                ),
                Some(format!("set dt_max at or below {edge:.3e} s")),
            );
        }
    }

    if let Some((bp, name)) = max_bp {
        if bp > tran.t_stop {
            sink.emit(
                "opt/tstop",
                Span::Option("t_stop".to_string()),
                format!(
                    "source `{name}` has a breakpoint at {bp:.3e} s, past \
                     t_stop = {:.3e} s — the waveform is cut off",
                    tran.t_stop
                ),
                None,
            );
        }
    }

    if let Some(i_min) = min_current {
        if tran.sim.abstol >= 1e-2 * i_min {
            sink.emit(
                "opt/abstol",
                Span::Option("abstol".to_string()),
                format!(
                    "abstol = {:.3e} A is within two decades of the smallest reference \
                     current ({i_min:.3e} A); current convergence is unreliable",
                    tran.sim.abstol
                ),
                Some(format!("set abstol at or below {:.3e} A", 1e-3 * i_min)),
            );
        }
    }
}
