//! The [`Device`] trait and the stamping interface devices use to load
//! themselves into the MNA system.
//!
//! Every analysis builds the linear(ized) system `A·x = b` by calling
//! [`Device::stamp`] on each element. Nonlinear devices linearize around the
//! candidate solution exposed by [`StampContext`] (Newton–Raphson companion
//! models); dynamic devices additionally read their previous-step state and
//! the integration context.

use std::any::Any;
use std::fmt;

use oxterm_numerics::dense::DMatrix;
pub use oxterm_telemetry::joule::DeviceClass;

use crate::circuit::NodeId;

/// Which analysis is currently stamping, plus its time-domain context.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum AnalysisKind {
    /// DC operating point or DC sweep: capacitors open, states frozen.
    Dc,
    /// Transient step from `time - dt` to `time`.
    Tran {
        /// The time being solved for (end of the step).
        time: f64,
        /// Step size.
        dt: f64,
    },
}

/// Structural description of a device's DC stamp pattern, consumed by the
/// pre-simulation static analysis pass (`oxterm-netlint`).
///
/// The lint builds a union-find over [`dc_conductances`] and
/// [`voltage_edges`] to find nodes without a DC path to ground, a bipartite
/// check over [`voltage_edges`] alone to find voltage-source loops, and
/// uses [`current_injections`] to find current-source cutsets (nodes whose
/// only attachments inject current but stamp no conductance — a structural
/// singularity the solver would only discover as a garbage solution held up
/// by `gmin`).
///
/// [`dc_conductances`]: StampTopology::dc_conductances
/// [`voltage_edges`]: StampTopology::voltage_edges
/// [`current_injections`]: StampTopology::current_injections
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StampTopology {
    /// Node pairs with a conductive DC path stamped between them (resistor
    /// body, MOSFET channel, diode junction, …). Capacitors and MOSFET
    /// gates contribute nothing here: they are open at DC.
    pub dc_conductances: Vec<(NodeId, NodeId)>,
    /// Ideal voltage constraints (branch equations) between node pairs —
    /// independent voltage sources and VCVS/comparator outputs.
    pub voltage_edges: Vec<(NodeId, NodeId)>,
    /// RHS-only current injections between node pairs; these provide *no*
    /// DC conductance.
    pub current_injections: Vec<(NodeId, NodeId)>,
}

/// Everything a device sees while stamping one Newton iteration.
pub struct StampContext<'a> {
    /// Matrix being assembled.
    pub(crate) a: &'a mut DMatrix,
    /// Right-hand side being assembled.
    pub(crate) b: &'a mut [f64],
    /// Candidate solution (previous Newton iterate).
    pub(crate) candidate: &'a [f64],
    /// This device's previous-step internal state.
    pub(crate) state: &'a [f64],
    pub(crate) kind: AnalysisKind,
    pub(crate) source_factor: f64,
    /// Global unknown index of this device's first branch current.
    pub(crate) branch_base: usize,
}

impl StampContext<'_> {
    /// The analysis being run.
    pub fn kind(&self) -> AnalysisKind {
        self.kind
    }

    /// Simulated time (`0.0` during DC analyses).
    pub fn time(&self) -> f64 {
        match self.kind {
            AnalysisKind::Dc => 0.0,
            AnalysisKind::Tran { time, .. } => time,
        }
    }

    /// Source scaling in `[0, 1]` — independent sources must multiply their
    /// level by this so source stepping can ramp the circuit up.
    pub fn source_factor(&self) -> f64 {
        self.source_factor
    }

    /// Candidate voltage at a node (previous Newton iterate).
    pub fn v(&self, node: NodeId) -> f64 {
        match node.unknown() {
            None => 0.0,
            Some(u) => self.candidate[u],
        }
    }

    /// Candidate current through this device's `local`-th branch.
    ///
    /// # Panics
    ///
    /// Panics if `local` exceeds the branches the device declared.
    pub fn i_branch(&self, local: usize) -> f64 {
        self.candidate[self.branch_base + local]
    }

    /// This device's previous-step state slice.
    pub fn state(&self) -> &[f64] {
        self.state
    }

    /// Global unknown index of this device's `local`-th branch current.
    pub fn branch_unknown(&self, local: usize) -> usize {
        self.branch_base + local
    }

    /// Raw matrix stamp between unknowns (ground rows/columns dropped).
    pub fn mat(&mut self, r: Option<usize>, c: Option<usize>, v: f64) {
        if let (Some(r), Some(c)) = (r, c) {
            if v != 0.0 {
                self.a.add(r, c, v);
            }
        }
    }

    /// Raw right-hand-side stamp (ground row dropped).
    pub fn rhs(&mut self, r: Option<usize>, v: f64) {
        if let Some(r) = r {
            if v != 0.0 {
                self.b[r] += v;
            }
        }
    }

    /// MNA unknown of a node (`None` for ground).
    pub fn node_unknown(&self, node: NodeId) -> Option<usize> {
        node.unknown()
    }

    /// Stamps a conductance `g` between nodes `a` and `b`.
    pub fn stamp_conductance(&mut self, a: NodeId, b: NodeId, g: f64) {
        let (ua, ub) = (a.unknown(), b.unknown());
        self.mat(ua, ua, g);
        self.mat(ub, ub, g);
        self.mat(ua, ub, -g);
        self.mat(ub, ua, -g);
    }

    /// Stamps an independent current `i` flowing from node `from`, through
    /// the device, into node `to`.
    pub fn stamp_current(&mut self, from: NodeId, to: NodeId, i: f64) {
        self.rhs(from.unknown(), -i);
        self.rhs(to.unknown(), i);
    }

    /// Stamps a voltage-controlled current source: a current
    /// `gm·(v(cp) − v(cn))` flows from `out_from` to `out_to`.
    pub fn stamp_vccs(
        &mut self,
        out_from: NodeId,
        out_to: NodeId,
        cp: NodeId,
        cn: NodeId,
        gm: f64,
    ) {
        let (uf, ut) = (out_from.unknown(), out_to.unknown());
        let (up, un) = (cp.unknown(), cn.unknown());
        self.mat(uf, up, gm);
        self.mat(uf, un, -gm);
        self.mat(ut, up, -gm);
        self.mat(ut, un, gm);
    }

    /// Stamps a voltage source of value `v` between `p` and `n` using the
    /// device's `local`-th branch current.
    ///
    /// The branch current is defined as flowing from `p` through the source
    /// to `n` (positive current discharges the source).
    pub fn stamp_voltage_source(&mut self, local: usize, p: NodeId, n: NodeId, v: f64) {
        let br = Some(self.branch_unknown(local));
        let (up, un) = (p.unknown(), n.unknown());
        self.mat(up, br, 1.0);
        self.mat(un, br, -1.0);
        self.mat(br, up, 1.0);
        self.mat(br, un, -1.0);
        self.rhs(br, v);
    }

    /// Convenience: linearized nonlinear two-terminal branch.
    ///
    /// For a device whose current from `p` to `n` is `i(v)` with conductance
    /// `g = di/dv` evaluated at the candidate voltage `v0`, stamps the
    /// Newton companion `g` plus the equivalent current `i(v0) − g·v0`.
    pub fn stamp_nonlinear_branch(&mut self, p: NodeId, n: NodeId, i_at_v0: f64, g: f64, v0: f64) {
        self.stamp_conductance(p, n, g);
        self.stamp_current(p, n, i_at_v0 - g * v0);
    }
}

/// Context passed to [`Device::update_state`] after a transient step is
/// accepted.
pub struct UpdateContext<'a> {
    pub(crate) solution: &'a [f64],
    pub(crate) time: f64,
    pub(crate) dt: f64,
    pub(crate) branch_base: usize,
}

impl UpdateContext<'_> {
    /// Converged voltage at a node.
    pub fn v(&self, node: NodeId) -> f64 {
        match node.unknown() {
            None => 0.0,
            Some(u) => self.solution[u],
        }
    }

    /// Converged current through this device's `local`-th branch.
    pub fn i_branch(&self, local: usize) -> f64 {
        self.solution[self.branch_base + local]
    }

    /// End time of the accepted step.
    pub fn time(&self) -> f64 {
        self.time
    }

    /// Size of the accepted step.
    pub fn dt(&self) -> f64 {
        self.dt
    }
}

/// An element that can be simulated.
///
/// Implementations stamp their linearized MNA contribution each Newton
/// iteration and, if dynamic, evolve internal state after each accepted
/// transient step.
pub trait Device: fmt::Debug + Send {
    /// Instance name (unique within a circuit by convention).
    fn name(&self) -> &str;

    /// Number of branch-current unknowns this device needs (e.g. 1 for a
    /// voltage source).
    fn n_branches(&self) -> usize {
        0
    }

    /// Length of the internal state vector (e.g. 2 for a capacitor storing
    /// previous voltage and current).
    fn state_len(&self) -> usize {
        0
    }

    /// Initializes the internal state (called once before transient).
    fn init_state(&self, _state: &mut [f64]) {}

    /// Loads the device into the MNA system for the current iteration.
    fn stamp(&self, ctx: &mut StampContext<'_>);

    /// Advances internal state after an accepted transient step.
    fn update_state(&self, _ctx: &UpdateContext<'_>, _state: &mut [f64]) {}

    /// Whether the device requires Newton iteration.
    fn is_nonlinear(&self) -> bool {
        false
    }

    /// Time points (source corners) the transient engine must not step over.
    fn breakpoints(&self) -> Vec<f64> {
        Vec::new()
    }

    /// The terminal nodes this device attaches to, for static analysis.
    ///
    /// The default (empty) marks the connectivity as unknown; such devices
    /// are invisible to the netlist lint's topology checks.
    fn terminals(&self) -> Vec<NodeId> {
        Vec::new()
    }

    /// Structural DC stamp pattern, for static analysis.
    ///
    /// `None` means unknown: the lint conservatively treats every pair of
    /// [`Device::terminals`] as DC-connected so unknown devices never
    /// produce false floating-node findings.
    fn stamp_topology(&self) -> Option<StampTopology> {
        None
    }

    /// The energy-ledger class of this device, for joule attribution
    /// (alongside [`Device::stamp_topology`]'s structural metadata).
    fn device_class(&self) -> DeviceClass {
        DeviceClass::Other
    }

    /// Instantaneous absorbed power (W) at an accepted solution point,
    /// using the passive sign convention: positive means the device
    /// dissipates or stores energy, negative means it delivers (an active
    /// source). `state` is the device's *post-update* internal state for
    /// the accepted step. The transient engine samples this at every
    /// accepted timestep and integrates trapezoidally per device into the
    /// [`oxterm_telemetry::joule::JouleLedger`].
    ///
    /// The default (0 W) keeps devices without a power model invisible to
    /// the ledger rather than mis-attributed.
    fn power(&self, _ctx: &UpdateContext<'_>, _state: &[f64]) -> f64 {
        0.0
    }

    /// Shared [`Any`] access for read-only parameter inspection (the static
    /// analysis pass downcasts to concrete device types to validate their
    /// parameters against PDK and safe-operating-area bounds).
    fn as_any(&self) -> &dyn Any;

    /// Mutable [`Any`] access for monitor-driven parameter changes.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx_on<'a>(
        a: &'a mut DMatrix,
        b: &'a mut [f64],
        candidate: &'a [f64],
        n_node_unknowns: usize,
    ) -> StampContext<'a> {
        StampContext {
            a,
            b,
            candidate,
            state: &[],
            kind: AnalysisKind::Dc,
            source_factor: 1.0,
            branch_base: n_node_unknowns,
        }
    }

    #[test]
    fn conductance_stamp_pattern() {
        let mut a = DMatrix::zeros(2, 2);
        let mut b = vec![0.0; 2];
        let cand = [0.0, 0.0];
        let mut ctx = ctx_on(&mut a, &mut b, &cand, 2);
        ctx.stamp_conductance(NodeId(1), NodeId(2), 2.0);
        assert_eq!(a.get(0, 0), 2.0);
        assert_eq!(a.get(1, 1), 2.0);
        assert_eq!(a.get(0, 1), -2.0);
        assert_eq!(a.get(1, 0), -2.0);
    }

    #[test]
    fn conductance_to_ground_drops_ground_row() {
        let mut a = DMatrix::zeros(1, 1);
        let mut b = vec![0.0; 1];
        let cand = [0.0];
        let mut ctx = ctx_on(&mut a, &mut b, &cand, 1);
        ctx.stamp_conductance(NodeId(1), NodeId(0), 3.0);
        assert_eq!(a.get(0, 0), 3.0);
    }

    #[test]
    fn current_source_signs() {
        let mut a = DMatrix::zeros(2, 2);
        let mut b = vec![0.0; 2];
        let cand = [0.0, 0.0];
        let mut ctx = ctx_on(&mut a, &mut b, &cand, 2);
        // 1 mA from node1 through the source into node2.
        ctx.stamp_current(NodeId(1), NodeId(2), 1e-3);
        assert_eq!(b[0], -1e-3);
        assert_eq!(b[1], 1e-3);
    }

    #[test]
    fn voltage_source_stamp_pattern() {
        // 2 node unknowns + 1 branch.
        let mut a = DMatrix::zeros(3, 3);
        let mut b = vec![0.0; 3];
        let cand = [0.0; 3];
        let mut ctx = ctx_on(&mut a, &mut b, &cand, 2);
        ctx.stamp_voltage_source(0, NodeId(1), NodeId(0), 5.0);
        assert_eq!(a.get(0, 2), 1.0);
        assert_eq!(a.get(2, 0), 1.0);
        assert_eq!(b[2], 5.0);
    }

    #[test]
    fn candidate_voltages_visible() {
        let mut a = DMatrix::zeros(2, 2);
        let mut b = vec![0.0; 2];
        let cand = [1.5, -0.5];
        let ctx = ctx_on(&mut a, &mut b, &cand, 2);
        assert_eq!(ctx.v(NodeId(0)), 0.0);
        assert_eq!(ctx.v(NodeId(1)), 1.5);
        assert_eq!(ctx.v(NodeId(2)), -0.5);
    }

    #[test]
    fn nonlinear_branch_companion() {
        // i(v) = 2 + 3·(v − v0) linearized at v0 = 1 with i(v0) = 2, g = 3:
        // conductance 3 plus source (2 − 3·1) = −1 from p to n.
        let mut a = DMatrix::zeros(1, 1);
        let mut b = vec![0.0; 1];
        let cand = [1.0];
        let mut ctx = ctx_on(&mut a, &mut b, &cand, 1);
        ctx.stamp_nonlinear_branch(NodeId(1), NodeId(0), 2.0, 3.0, 1.0);
        assert_eq!(a.get(0, 0), 3.0);
        assert_eq!(b[0], 1.0); // −(i − g·v0) = −(−1)
    }
}
