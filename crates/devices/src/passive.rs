//! Linear passive devices: resistor and capacitor.

use std::any::Any;

use oxterm_spice::circuit::NodeId;
use oxterm_spice::device::{
    AnalysisKind, Device, DeviceClass, StampContext, StampTopology, UpdateContext,
};

/// A linear resistor.
///
/// # Examples
///
/// ```
/// use oxterm_spice::circuit::Circuit;
/// use oxterm_devices::passive::Resistor;
///
/// let mut c = Circuit::new();
/// let a = c.node("a");
/// c.add(Resistor::new("r_line", a, Circuit::gnd(), 50.0));
/// ```
#[derive(Debug, Clone)]
pub struct Resistor {
    name: String,
    a: NodeId,
    b: NodeId,
    ohms: f64,
}

impl Resistor {
    /// Creates a resistor of `ohms` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `ohms` is not strictly positive and finite.
    pub fn new(name: impl Into<String>, a: NodeId, b: NodeId, ohms: f64) -> Self {
        assert!(
            ohms.is_finite() && ohms > 0.0,
            "resistance must be positive and finite, got {ohms}"
        );
        Resistor {
            name: name.into(),
            a,
            b,
            ohms,
        }
    }

    /// Resistance in ohms.
    pub fn ohms(&self) -> f64 {
        self.ohms
    }
}

impl Device for Resistor {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        ctx.stamp_conductance(self.a, self.b, 1.0 / self.ohms);
    }

    fn terminals(&self) -> Vec<NodeId> {
        vec![self.a, self.b]
    }

    fn stamp_topology(&self) -> Option<StampTopology> {
        Some(StampTopology {
            dc_conductances: vec![(self.a, self.b)],
            ..StampTopology::default()
        })
    }

    fn device_class(&self) -> DeviceClass {
        DeviceClass::Resistor
    }

    fn power(&self, ctx: &UpdateContext<'_>, _state: &[f64]) -> f64 {
        let v = ctx.v(self.a) - ctx.v(self.b);
        v * v / self.ohms
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// A linear capacitor.
///
/// Open at DC; during transient analysis it stamps a trapezoidal companion
/// model using its stored previous voltage/current.
#[derive(Debug, Clone)]
pub struct Capacitor {
    name: String,
    a: NodeId,
    b: NodeId,
    farads: f64,
}

impl Capacitor {
    /// Creates a capacitor of `farads` between `a` and `b`.
    ///
    /// # Panics
    ///
    /// Panics if `farads` is not strictly positive and finite.
    pub fn new(name: impl Into<String>, a: NodeId, b: NodeId, farads: f64) -> Self {
        assert!(
            farads.is_finite() && farads > 0.0,
            "capacitance must be positive and finite, got {farads}"
        );
        Capacitor {
            name: name.into(),
            a,
            b,
            farads,
        }
    }

    /// Capacitance in farads.
    pub fn farads(&self) -> f64 {
        self.farads
    }
}

/// State layout: `[v_prev, i_prev]`.
const STATE_V: usize = 0;
const STATE_I: usize = 1;

impl Device for Capacitor {
    fn name(&self) -> &str {
        &self.name
    }

    fn state_len(&self) -> usize {
        2
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let AnalysisKind::Tran { dt, .. } = ctx.kind() else {
            return; // open at DC
        };
        let v_prev = ctx.state()[STATE_V];
        let i_prev = ctx.state()[STATE_I];
        let g = 2.0 * self.farads / dt;
        ctx.stamp_conductance(self.a, self.b, g);
        ctx.stamp_current(self.a, self.b, -(g * v_prev + i_prev));
    }

    fn update_state(&self, ctx: &UpdateContext<'_>, state: &mut [f64]) {
        let v = ctx.v(self.a) - ctx.v(self.b);
        let dt = ctx.dt();
        if dt == 0.0 {
            // Priming from the DC operating point: no capacitor current.
            state[STATE_V] = v;
            state[STATE_I] = 0.0;
            return;
        }
        let v_prev = state[STATE_V];
        let i_prev = state[STATE_I];
        let i = 2.0 * self.farads * (v - v_prev) / dt - i_prev;
        state[STATE_V] = v;
        state[STATE_I] = i;
    }

    fn terminals(&self) -> Vec<NodeId> {
        vec![self.a, self.b]
    }

    fn stamp_topology(&self) -> Option<StampTopology> {
        // Open at DC: connects nothing conductively.
        Some(StampTopology::default())
    }

    fn device_class(&self) -> DeviceClass {
        DeviceClass::Capacitor
    }

    fn power(&self, ctx: &UpdateContext<'_>, state: &[f64]) -> f64 {
        // v·i with the post-update branch current: positive while the
        // capacitor charges (stores energy), negative while it gives it
        // back.
        let v = ctx.v(self.a) - ctx.v(self.b);
        v * state[STATE_I]
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sources::{SourceWave, VoltageSource};
    use oxterm_spice::analysis::op::{solve_op, OpOptions};
    use oxterm_spice::analysis::tran::{run_transient, TranOptions};
    use oxterm_spice::circuit::Circuit;

    #[test]
    fn divider_dc() {
        let mut c = Circuit::new();
        let vin = c.node("in");
        let mid = c.node("mid");
        c.add(VoltageSource::new(
            "v1",
            vin,
            Circuit::gnd(),
            SourceWave::dc(3.0),
        ));
        c.add(Resistor::new("r1", vin, mid, 2e3));
        c.add(Resistor::new("r2", mid, Circuit::gnd(), 1e3));
        let sol = solve_op(&c, &OpOptions::default()).unwrap();
        assert!((sol.v(mid) - 1.0).abs() < 1e-9);
        assert!((sol.v(vin) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn source_current_sign() {
        // 1 V across 1 kΩ: 1 mA flows out of the + terminal through the
        // external resistor, so the branch current (p through source to n)
        // is −1 mA.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let vs = c.add(VoltageSource::new(
            "v1",
            vin,
            Circuit::gnd(),
            SourceWave::dc(1.0),
        ));
        c.add(Resistor::new("r1", vin, Circuit::gnd(), 1e3));
        let sol = solve_op(&c, &OpOptions::default()).unwrap();
        let i = sol.branch_current(&c, vs, 0).unwrap();
        assert!((i + 1e-3).abs() < 1e-9, "i = {i}");
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_resistance() {
        let mut c = Circuit::new();
        let a = c.node("a");
        let _ = Resistor::new("bad", a, Circuit::gnd(), 0.0);
    }

    #[test]
    fn rc_time_constant() {
        // V(t) = 1 − exp(−t/RC); at t = RC the response is 63.2 %.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "v1",
            vin,
            Circuit::gnd(),
            SourceWave::dc(1.0),
        ));
        c.add(Resistor::new("r1", vin, out, 1e3));
        c.add(Capacitor::new("c1", out, Circuit::gnd(), 1e-9));
        // DC operating point already charges the cap in this formulation
        // (sources on from t<0), so force a pulse instead: start at 0.
        let mut c = Circuit::new();
        let vin = c.node("in");
        let out = c.node("out");
        c.add(VoltageSource::new(
            "v1",
            vin,
            Circuit::gnd(),
            SourceWave::step(1.0, 1e-9),
        ));
        c.add(Resistor::new("r1", vin, out, 1e3));
        c.add(Capacitor::new("c1", out, Circuit::gnd(), 1e-9));
        let opts = TranOptions {
            dt_max: Some(10e-9),
            ..TranOptions::for_duration(12e-6)
        };
        let res = run_transient(&mut c, &opts, &mut []).unwrap();
        let w = res.node_trace(out);
        let tau = 1e-6;
        let at_tau = w.value_at(1e-9 + tau);
        assert!(
            (at_tau - (1.0 - (-1.0f64).exp())).abs() < 5e-3,
            "v(RC) = {at_tau}"
        );
        assert!((w.last() - 1.0).abs() < 1e-3);
    }

    #[test]
    fn capacitor_holds_dc_charge() {
        // A charged capacitor with no drive path keeps its node floating at
        // the gmin-determined level; at DC it is simply open.
        let mut c = Circuit::new();
        let a = c.node("a");
        c.add(Capacitor::new("c1", a, Circuit::gnd(), 1e-12));
        let sol = solve_op(&c, &OpOptions::default()).unwrap();
        assert_eq!(sol.v(a), 0.0);
    }
}
