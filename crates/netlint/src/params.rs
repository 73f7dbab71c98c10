//! Parameter / safe-operating-area rules (`soa/*`).
//!
//! Device parameters are read back through `Device::as_any` downcasts, so
//! the checks see the instances exactly as built (after any programmatic
//! retuning), not a parallel description that could drift.

use oxterm_devices::mosfet::Mosfet;
use oxterm_devices::sources::{CurrentSource, VoltageSource};
use oxterm_mlc::soa::SoaLimits;
use oxterm_spice::circuit::Circuit;

use crate::{Sink, Span};

/// Whether a current source is a termination reference by naming
/// convention: `TerminationCircuit::build` names its bandgap-derived
/// reference branch `{stage}_iref`.
fn is_iref(name: &str) -> bool {
    name == "iref" || name.ends_with("_iref")
}

pub(crate) fn check(circuit: &Circuit, soa: &SoaLimits, sink: &mut Sink) {
    for dev in circuit.devices() {
        let name = dev.name().to_string();
        if let Some(vs) = dev.as_any().downcast_ref::<VoltageSource>() {
            let peak = vs.wave().peak_abs();
            if !peak.is_finite() {
                sink.emit(
                    "soa/nonfinite-source",
                    Span::Device(name.clone()),
                    format!("voltage source `{name}` has a non-finite level"),
                    None,
                );
            } else if peak > soa.v_rail * (1.0 + soa.rel_tol) {
                sink.emit(
                    "soa/rail",
                    Span::Device(name.clone()),
                    format!(
                        "voltage source `{name}` peaks at {peak:.3} V, beyond the \
                         {:.1} V rail",
                        soa.v_rail
                    ),
                    Some(format!("clamp the drive to the {:.1} V supply", soa.v_rail)),
                );
            }
        } else if let Some(cs) = dev.as_any().downcast_ref::<CurrentSource>() {
            let peak = cs.wave().peak_abs();
            if !peak.is_finite() {
                sink.emit(
                    "soa/nonfinite-source",
                    Span::Device(name.clone()),
                    format!("current source `{name}` has a non-finite level"),
                    None,
                );
                continue;
            }
            if is_iref(&name) {
                if !soa.i_ref_in_window(peak) {
                    sink.emit(
                        "soa/iref-window",
                        Span::Device(name.clone()),
                        format!(
                            "reference `{name}` is {:.1} µA, outside the programmable \
                             window [{:.0}, {:.0}] µA",
                            peak * 1e6,
                            soa.i_ref_min * 1e6,
                            soa.i_ref_max * 1e6
                        ),
                        Some(
                            "pick an IrefR from the ISO-ΔI ladder (LevelAllocation::paper_qlc)"
                                .to_string(),
                        ),
                    );
                } else if !soa.i_ref_on_grid(peak) {
                    sink.emit(
                        "soa/iref-grid",
                        Span::Device(name.clone()),
                        format!(
                            "reference `{name}` is {:.2} µA — inside the window but off \
                             the {:.0} µA ISO-ΔI grid",
                            peak * 1e6,
                            soa.i_ref_step * 1e6
                        ),
                        Some("off-grid references do not map to a stored code".to_string()),
                    );
                }
            }
        } else if let Some(m) = dev.as_any().downcast_ref::<Mosfet>() {
            if m.w() < soa.w_min || m.l() < soa.l_min {
                sink.emit(
                    "soa/mos-geometry",
                    Span::Device(name.clone()),
                    format!(
                        "MOSFET `{name}` is drawn {:.2} µm / {:.2} µm, below the process \
                         minimum {:.2} µm / {:.2} µm",
                        m.w() * 1e6,
                        m.l() * 1e6,
                        soa.w_min * 1e6,
                        soa.l_min * 1e6
                    ),
                    None,
                );
            }
        }
    }
}
