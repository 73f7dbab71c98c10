//! The RESET write-termination circuit (paper Fig 7a).
//!
//! Two fidelities are provided:
//!
//! * [`behavioral_monitor`] — an ideal comparator implemented as a transient
//!   monitor: it watches the cell current through a sense branch and chops
//!   the SL programming pulse the instant the current falls to `IrefR`.
//! * [`TerminationCircuit`] — the transistor-level implementation: an NMOS
//!   current-copy mirror (M1, M2) on the bit line, a PMOS mirror (M3, M4)
//!   replicating the reference current (M5/M6 reference branch, modelled as
//!   a bandgap-derived ideal source per the paper's §3.2), and an inverter
//!   comparator (I1) whose output drops when `Icell < IrefR`. Comparator
//!   delay and mirror mismatch emerge from the device models rather than
//!   being asserted.

use oxterm_devices::mosfet::{MosParams, Mosfet};
use oxterm_devices::passive::Capacitor;
use oxterm_devices::sources::{CurrentSource, SourceWave, VoltageSource};
use oxterm_spice::analysis::tran::{MonitorAction, TranSample};
use oxterm_spice::circuit::{Circuit, ElementId, NodeId};
use oxterm_telemetry::joule::{self, ProgramPhase};
use oxterm_telemetry::Telemetry;

/// Options for the behavioral termination monitor.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BehavioralOptions {
    /// Termination reference current (A).
    pub i_ref: f64,
    /// The monitor arms once the sensed current exceeds this (A); prevents
    /// firing before the pulse has started.
    pub arm_current: f64,
    /// Fall time of the chopped pulse (s).
    pub chop_fall: f64,
    /// How long to keep simulating after the chop before stopping (s).
    pub hold_after_chop: f64,
    /// Crossing-refinement step: when the crossing is detected inside a
    /// larger step, the step is redone at this size (s).
    pub dt_fine: f64,
}

impl BehavioralOptions {
    /// Sensible defaults for a reference current `i_ref`.
    pub fn new(i_ref: f64) -> Self {
        BehavioralOptions {
            i_ref,
            arm_current: i_ref * 1.5,
            chop_fall: 5e-9,
            hold_after_chop: 100e-9,
            dt_fine: 1e-9,
        }
    }
}

/// Builds a behavioral write-termination monitor.
///
/// `sense` must be a voltage-source element whose branch carries the cell
/// current (e.g. a 0 V source tying the bit line to ground); `sl_source` is
/// the SL programming-pulse source that gets chopped. The returned closure
/// is passed to [`oxterm_spice::analysis::tran::run_transient`].
///
/// The monitor also records the chop time into its captured state, readable
/// through the returned [`TerminationFlag`] after the run.
pub fn behavioral_monitor(
    sense: ElementId,
    sl_source: ElementId,
    opts: BehavioralOptions,
) -> (
    impl FnMut(&TranSample<'_>, &mut Circuit) -> MonitorAction,
    TerminationFlag,
) {
    let flag = TerminationFlag::new();
    let flag_out = flag.clone();
    let mut armed = false;
    let mut chopped_at: Option<f64> = None;
    let mut i_prev = 0.0f64;
    // Resolved once at monitor construction; the per-sample path pays one
    // branch when telemetry is disabled.
    let tel = Telemetry::global().clone();
    let monitor = move |sample: &TranSample<'_>, circuit: &mut Circuit| -> MonitorAction {
        if let Some(tc) = chopped_at {
            if sample.time >= tc + opts.hold_after_chop {
                return MonitorAction::Stop;
            }
            return MonitorAction::Continue;
        }
        let i = match circuit.branch_unknown(sense, 0) {
            Ok(u) => sample.solution.as_slice()[u].abs(),
            Err(_) => return MonitorAction::Continue,
        };
        if !armed {
            armed = i >= opts.arm_current;
            i_prev = i;
            return MonitorAction::Continue;
        }
        if i > opts.i_ref {
            i_prev = i;
            return MonitorAction::Continue;
        }
        // Crossing detected. Refine the step if it was coarse.
        if sample.dt > opts.dt_fine * 1.5 && i_prev > opts.i_ref {
            // Crossing-refinement steps bill to the bisection phase until
            // the trip flips the thread to the post-trip tail.
            joule::set_phase(ProgramPhase::Bisection);
            tel.incr("mlc.termination.bisections");
            return MonitorAction::RedoWithDt(opts.dt_fine);
        }
        chopped_at = Some(sample.time);
        flag_out.set(sample.time);
        // Everything after the trip is post-trip tail energy (chop fall +
        // hold) for the joule ledger; the caller's phase scope restores the
        // thread phase when the programming op returns.
        joule::set_phase(ProgramPhase::Tail);
        if tel.is_enabled() {
            tel.incr("mlc.termination.trips");
            tel.record("mlc.termination.chop_time_s", sample.time);
            // How far the sensed current undershot IrefR before the
            // comparator tripped — the discrete-sampling overshoot the
            // paper's Fig 8 analyzes.
            tel.record(
                "mlc.termination.overshoot_rel",
                (opts.i_ref - i) / opts.i_ref,
            );
        }
        // The comparator observed `Icell < IrefR`: chop the SL pulse here.
        if let Ok(vs) = circuit.device_mut::<VoltageSource>(sl_source) {
            vs.force_end_at(sample.time, 0.0, opts.chop_fall);
        }
        MonitorAction::Continue
    };
    (monitor, flag)
}

/// Shared readout of the termination time after a transient run.
#[derive(Debug, Clone)]
pub struct TerminationFlag {
    inner: std::rc::Rc<std::cell::Cell<Option<f64>>>,
}

impl TerminationFlag {
    fn new() -> Self {
        TerminationFlag {
            inner: std::rc::Rc::new(std::cell::Cell::new(None)),
        }
    }

    fn set(&self, t: f64) {
        self.inner.set(Some(t));
    }

    /// The time at which the termination fired, if it did.
    pub fn fired_at(&self) -> Option<f64> {
        self.inner.get()
    }
}

/// Transistor sizes for the termination circuit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TerminationSizing {
    /// Width of the NMOS copy mirror M1/M2 (m).
    pub w_nmos: f64,
    /// Width of the PMOS reference mirror M3/M4 (m).
    pub w_pmos: f64,
    /// Shared channel length (m).
    pub l: f64,
    /// Comparator-node wiring capacitance (F).
    pub c_node: f64,
    /// Inverter NMOS/PMOS widths (m).
    pub w_inv_n: f64,
    /// Inverter PMOS width (m).
    pub w_inv_p: f64,
    /// Whether the transistors carry their geometric gate capacitances
    /// (physical comparator delay) or are capacitance-free (idealized).
    pub gate_caps: bool,
}

impl Default for TerminationSizing {
    fn default() -> Self {
        TerminationSizing {
            w_nmos: 10e-6,
            w_pmos: 20e-6,
            l: 0.5e-6,
            c_node: 10e-15,
            w_inv_n: 2e-6,
            w_inv_p: 5e-6,
            gate_caps: true,
        }
    }
}

/// Handles to a built transistor-level termination circuit.
#[derive(Debug, Clone, Copy)]
pub struct TerminationCircuit {
    /// Diode-connected BL input device (M1).
    pub m1: ElementId,
    /// Copy device (M2).
    pub m2: ElementId,
    /// Comparator node A (M2/M4 drains, inverter input).
    pub node_a: NodeId,
    /// Inverter output (`out` in Fig 7a): high while `Icell > IrefR`.
    pub out: NodeId,
    /// The reference current source standing in for the bandgap-derived
    /// M5/M6 branch.
    pub i_ref_source: ElementId,
}

impl TerminationCircuit {
    /// Builds the Fig 7a stage: `bl` is the bit line sinking the cell
    /// current; `vdd` the 3.3 V supply node.
    ///
    /// Sets the reference current to `i_ref`. The inverter output [`Self::out`]
    /// swings from ≈VDD (programming) to ≈0 V (terminate).
    pub fn build(
        circuit: &mut Circuit,
        name: &str,
        bl: NodeId,
        vdd: NodeId,
        i_ref: f64,
        sizing: &TerminationSizing,
    ) -> Self {
        let gnd = Circuit::gnd();
        let node_a = circuit.internal_node(&format!("{name}_a"));
        let node_ref = circuit.internal_node(&format!("{name}_ref"));
        let out = circuit.internal_node(&format!("{name}_out"));
        let nmos = MosParams::nmos_130nm_hv();
        let pmos = MosParams::pmos_130nm_hv();
        let caps = |m: Mosfet| -> Mosfet {
            if sizing.gate_caps {
                let c = m.default_cgs();
                m.with_gate_caps(c, 0.4 * c)
            } else {
                m
            }
        };

        // M1: diode-connected NMOS sinking the BL current.
        let m1 = circuit.add(caps(Mosfet::new(
            format!("{name}_m1"),
            bl,
            bl,
            gnd,
            gnd,
            nmos,
            sizing.w_nmos,
            sizing.l,
        )));
        // M2: copies Icell, pulling node A down.
        let m2 = circuit.add(caps(Mosfet::new(
            format!("{name}_m2"),
            node_a,
            bl,
            gnd,
            gnd,
            nmos,
            sizing.w_nmos,
            sizing.l,
        )));
        // M3: diode-connected PMOS carrying IrefR.
        circuit.add(caps(Mosfet::new(
            format!("{name}_m3"),
            node_ref,
            node_ref,
            vdd,
            vdd,
            pmos,
            sizing.w_pmos,
            sizing.l,
        )));
        // M4: mirrors IrefR, pulling node A up.
        circuit.add(caps(Mosfet::new(
            format!("{name}_m4"),
            node_a,
            node_ref,
            vdd,
            vdd,
            pmos,
            sizing.w_pmos,
            sizing.l,
        )));
        // M5/M6 bandgap-derived reference branch → ideal current source.
        let i_ref_source = circuit.add(CurrentSource::new(
            format!("{name}_iref"),
            node_ref,
            gnd,
            SourceWave::dc(i_ref),
        ));
        // Comparator node capacitance.
        circuit.add(Capacitor::new(
            format!("{name}_ca"),
            node_a,
            gnd,
            sizing.c_node,
        ));
        // Inverter I1.
        circuit.add(caps(Mosfet::new(
            format!("{name}_i1p"),
            out,
            node_a,
            vdd,
            vdd,
            pmos,
            sizing.w_inv_p,
            sizing.l,
        )));
        circuit.add(caps(Mosfet::new(
            format!("{name}_i1n"),
            out,
            node_a,
            gnd,
            gnd,
            nmos,
            sizing.w_inv_n,
            sizing.l,
        )));
        circuit.add(Capacitor::new(
            format!("{name}_cout"),
            out,
            gnd,
            sizing.c_node,
        ));

        TerminationCircuit {
            m1,
            m2,
            node_a,
            out,
            i_ref_source,
        }
    }

    /// Reprograms the reference current (level selection).
    ///
    /// # Errors
    ///
    /// Returns [`oxterm_spice::SpiceError::NotFound`] for stale handles.
    pub fn set_i_ref(
        &self,
        circuit: &mut Circuit,
        i_ref: f64,
    ) -> Result<(), oxterm_spice::SpiceError> {
        let src: &mut CurrentSource = circuit.device_mut(self.i_ref_source)?;
        src.set_wave(SourceWave::dc(i_ref));
        Ok(())
    }

    /// Applies mirror mismatch (Monte Carlo hook): threshold shifts on the
    /// copy devices.
    ///
    /// # Errors
    ///
    /// Returns [`oxterm_spice::SpiceError::NotFound`] for stale handles.
    pub fn apply_mismatch(
        &self,
        circuit: &mut Circuit,
        dvth_m1: f64,
        dvth_m2: f64,
    ) -> Result<(), oxterm_spice::SpiceError> {
        circuit
            .device_mut::<Mosfet>(self.m1)?
            .set_delta_vth(dvth_m1);
        circuit
            .device_mut::<Mosfet>(self.m2)?
            .set_delta_vth(dvth_m2);
        Ok(())
    }
}

/// Builds the standard comparator DC/transient testbench: a 3.3 V supply,
/// the Fig 7a termination stage at `i_ref`, and an ideal current source
/// injecting `i_cell` into the bit-line input.
///
/// Shared by the ablation experiments, the termination unit tests, and the
/// pre-simulation lint corpus, so they all exercise the same netlist.
pub fn comparator_testbench(
    i_cell: f64,
    i_ref: f64,
    sizing: &TerminationSizing,
) -> (Circuit, TerminationCircuit) {
    let mut c = Circuit::new();
    let vdd = c.node("vdd");
    let bl = c.node("bl");
    c.add(VoltageSource::new(
        "vdd",
        vdd,
        Circuit::gnd(),
        SourceWave::dc(3.3),
    ));
    let term = TerminationCircuit::build(&mut c, "t0", bl, vdd, i_ref, sizing);
    // Inject the "cell current" into the BL node.
    c.add(CurrentSource::new(
        "icell",
        Circuit::gnd(),
        bl,
        SourceWave::dc(i_cell),
    ));
    (c, term)
}

#[cfg(test)]
mod tests {
    use super::*;
    use oxterm_devices::sources::{SourceWave, VoltageSource};
    use oxterm_spice::analysis::op::{solve_op, OpOptions};

    /// DC check: drive the BL input with a known current and verify the
    /// comparator output flips around IrefR.
    fn comparator_out(i_cell: f64, i_ref: f64) -> f64 {
        let (c, term) = comparator_testbench(i_cell, i_ref, &TerminationSizing::default());
        let sol = solve_op(&c, &OpOptions::default()).unwrap();
        sol.v(term.out)
    }

    #[test]
    fn output_high_while_current_above_reference() {
        let v = comparator_out(20e-6, 10e-6);
        assert!(v > 2.5, "out = {v}");
    }

    #[test]
    fn output_low_once_current_below_reference() {
        let v = comparator_out(5e-6, 10e-6);
        assert!(v < 0.8, "out = {v}");
    }

    #[test]
    fn switching_point_is_near_reference() {
        // Sweep the injected current and find where out crosses VDD/2; the
        // mirrors should place it within ~20 % of IrefR.
        let i_ref = 10e-6;
        let mut lo = 2e-6;
        let mut hi = 30e-6;
        for _ in 0..20 {
            let mid = 0.5 * (lo + hi);
            if comparator_out(mid, i_ref) < 1.65 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let trip = 0.5 * (lo + hi);
        assert!(
            (trip - i_ref).abs() / i_ref < 0.2,
            "trip point {trip:.3e} vs ref {i_ref:.3e}"
        );
    }

    #[test]
    fn reference_is_retunable() {
        let mut c = Circuit::new();
        let vdd = c.node("vdd");
        let bl = c.node("bl");
        c.add(VoltageSource::new(
            "vdd",
            vdd,
            Circuit::gnd(),
            SourceWave::dc(3.3),
        ));
        let term =
            TerminationCircuit::build(&mut c, "t0", bl, vdd, 10e-6, &TerminationSizing::default());
        c.add(CurrentSource::new(
            "icell",
            Circuit::gnd(),
            bl,
            SourceWave::dc(15e-6),
        ));
        let sol = solve_op(&c, &OpOptions::default()).unwrap();
        assert!(sol.v(term.out) > 2.5); // 15 µA > 10 µA
        term.set_i_ref(&mut c, 30e-6).unwrap();
        let sol = solve_op(&c, &OpOptions::default()).unwrap();
        assert!(sol.v(term.out) < 0.8); // 15 µA < 30 µA
    }
}
