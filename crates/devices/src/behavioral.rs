//! Behavioral (ideal-ish) building block: a smooth comparator.
//!
//! These sit between the transistor-level circuits and the pure-monitor
//! idealizations: a [`Comparator`] has a defined gain, output swing, and
//! (through its output RC) a finite response time, but no mirror mismatch
//! or bias sensitivity — useful as a mid-fidelity write-termination stage
//! and for testbench scaffolding.

use std::any::Any;

use oxterm_spice::circuit::NodeId;
use oxterm_spice::device::{Device, DeviceClass, StampContext, StampTopology, UpdateContext};

/// A smooth voltage comparator: the output swings between `v_lo` and
/// `v_hi` as `v(cp) − v(cn)` crosses zero, with a tanh transition of width
/// `v_width` (the effective small-signal gain is `(v_hi − v_lo)/(2·v_width)`).
///
/// Drive a capacitor from the output through a resistor to model response
/// time, or use the output directly for an ideal decision.
#[derive(Debug, Clone)]
pub struct Comparator {
    name: String,
    out: NodeId,
    cp: NodeId,
    cn: NodeId,
    v_lo: f64,
    v_hi: f64,
    v_width: f64,
}

impl Comparator {
    /// Creates a comparator driving `out` (relative to ground).
    ///
    /// # Panics
    ///
    /// Panics if `v_hi <= v_lo` or `v_width` is not strictly positive.
    pub fn new(
        name: impl Into<String>,
        out: NodeId,
        cp: NodeId,
        cn: NodeId,
        v_lo: f64,
        v_hi: f64,
        v_width: f64,
    ) -> Self {
        assert!(
            v_hi > v_lo && v_width > 0.0,
            "comparator needs v_hi > v_lo and positive transition width"
        );
        Comparator {
            name: name.into(),
            out,
            cp,
            cn,
            v_lo,
            v_hi,
            v_width,
        }
    }

    /// The output voltage and its derivative w.r.t. the differential input.
    pub fn transfer(&self, v_diff: f64) -> (f64, f64) {
        let x = (v_diff / self.v_width).clamp(-40.0, 40.0);
        let t = x.tanh();
        let mid = 0.5 * (self.v_hi + self.v_lo);
        let half = 0.5 * (self.v_hi - self.v_lo);
        let dv = half * (1.0 - t * t) / self.v_width;
        (mid + half * t, dv)
    }
}

impl Device for Comparator {
    fn name(&self) -> &str {
        &self.name
    }

    fn n_branches(&self) -> usize {
        1
    }

    fn is_nonlinear(&self) -> bool {
        true
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let v_diff = ctx.v(self.cp) - ctx.v(self.cn);
        let (v_out, dv) = self.transfer(v_diff);
        // Branch equation, linearized:
        // v(out) − [v0 + dv·(vdiff − vdiff0)] = 0.
        let br = Some(ctx.branch_unknown(0));
        let uo = ctx.node_unknown(self.out);
        let (ucp, ucn) = (ctx.node_unknown(self.cp), ctx.node_unknown(self.cn));
        ctx.mat(uo, br, 1.0);
        ctx.mat(br, uo, 1.0);
        ctx.mat(br, ucp, -dv);
        ctx.mat(br, ucn, dv);
        ctx.rhs(br, v_out - dv * v_diff);
    }

    fn terminals(&self) -> Vec<NodeId> {
        vec![self.out, self.cp, self.cn]
    }

    fn stamp_topology(&self) -> Option<StampTopology> {
        // The output branch pins v(out) to ground through the branch
        // equation; the inputs are high-impedance sensors.
        Some(StampTopology {
            voltage_edges: vec![(self.out, oxterm_spice::circuit::Circuit::gnd())],
            ..StampTopology::default()
        })
    }

    fn device_class(&self) -> DeviceClass {
        DeviceClass::Behavioral
    }

    fn power(&self, ctx: &UpdateContext<'_>, _state: &[f64]) -> f64 {
        // The output stage sources/sinks its branch current at v(out).
        ctx.v(self.out) * ctx.i_branch(0)
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
    use crate::passive::Resistor;
    use crate::sources::{SourceWave, VoltageSource};
    use oxterm_spice::analysis::op::{solve_op, OpOptions};
    use oxterm_spice::circuit::Circuit;

    #[test]
    fn comparator_saturates_both_ways() {
        for (vin, expect_hi) in [(0.2, true), (-0.2, false)] {
            let mut c = Circuit::new();
            let inp = c.node("in");
            let out = c.node("out");
            c.add(VoltageSource::new(
                "v1",
                inp,
                Circuit::gnd(),
                SourceWave::dc(vin),
            ));
            c.add(Comparator::new(
                "k1",
                out,
                inp,
                Circuit::gnd(),
                0.0,
                3.3,
                5e-3,
            ));
            c.add(Resistor::new("rl", out, Circuit::gnd(), 10e3));
            let sol = solve_op(&c, &OpOptions::default()).unwrap();
            let v = sol.v(out);
            if expect_hi {
                assert!(v > 3.2, "v = {v}");
            } else {
                assert!(v < 0.1, "v = {v}");
            }
        }
    }

    #[test]
    fn comparator_transfer_is_monotone() {
        let mut c = Circuit::new();
        let out = c.node("out");
        let k = Comparator::new("k", out, out, out, 0.0, 3.3, 0.01);
        let mut prev = -1.0;
        for i in -50..=50 {
            let (v, dv) = k.transfer(i as f64 * 0.002);
            assert!(v >= prev);
            assert!(dv >= 0.0);
            prev = v;
        }
    }

    #[test]
    #[should_panic(expected = "v_hi > v_lo")]
    fn comparator_rejects_inverted_swing() {
        let mut c = Circuit::new();
        let out = c.node("out");
        let _ = Comparator::new("k", out, out, out, 3.3, 0.0, 0.01);
    }
}
