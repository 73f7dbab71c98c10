//! Circuit container: named nodes, device elements, and unknown allocation.

use std::collections::HashMap;

use crate::device::Device;
use crate::SpiceError;

/// A circuit node handle.
///
/// `NodeId(0)` is ground; node voltages of all other nodes are MNA unknowns.
/// Obtain ids from [`Circuit::node`] (by name) or [`Circuit::gnd`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub(crate) usize);

impl NodeId {
    /// Whether this is the ground node.
    pub fn is_gnd(self) -> bool {
        self.0 == 0
    }

    /// Dense index of this node (`0` is ground) — stable for the lifetime
    /// of the circuit and usable as a slice index by analysis passes.
    pub fn index(self) -> usize {
        self.0
    }

    /// The MNA unknown index of this node, or `None` for ground.
    pub(crate) fn unknown(self) -> Option<usize> {
        if self.0 == 0 {
            None
        } else {
            Some(self.0 - 1)
        }
    }
}

/// Handle to a device element inside a [`Circuit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ElementId(pub(crate) usize);

/// One registered device plus its allocated unknowns and state storage.
#[derive(Debug)]
pub(crate) struct Element {
    pub(crate) device: Box<dyn Device>,
    /// Global index of the first branch-current unknown owned by the device.
    pub(crate) branch_offset: usize,
    pub(crate) n_branches: usize,
    /// Offset of the device's state slice in the circuit-wide state vector.
    pub(crate) state_offset: usize,
    pub(crate) state_len: usize,
}

/// A flat netlist of devices connected at named nodes.
///
/// # Examples
///
/// ```
/// use oxterm_spice::circuit::Circuit;
///
/// let mut c = Circuit::new();
/// let a = c.node("bl0");
/// let b = c.node("bl0");
/// assert_eq!(a, b); // same name, same node
/// assert!(!a.is_gnd());
/// assert!(Circuit::gnd().is_gnd());
/// ```
#[derive(Debug, Default)]
pub struct Circuit {
    node_names: Vec<String>,
    node_index: HashMap<String, usize>,
    pub(crate) elements: Vec<Element>,
    pub(crate) n_branches: usize,
    pub(crate) state_len: usize,
}

impl Circuit {
    /// Creates an empty circuit (ground pre-allocated as node `"0"`).
    pub fn new() -> Self {
        let mut c = Circuit {
            node_names: vec!["0".to_string()],
            node_index: HashMap::new(),
            elements: Vec::new(),
            n_branches: 0,
            state_len: 0,
        };
        c.node_index.insert("0".to_string(), 0);
        c
    }

    /// The ground node.
    pub fn gnd() -> NodeId {
        NodeId(0)
    }

    /// Returns the node with the given name, creating it if necessary.
    ///
    /// The names `"0"`, `"gnd"` and `"GND"` all alias ground.
    pub fn node(&mut self, name: &str) -> NodeId {
        if name == "0" || name.eq_ignore_ascii_case("gnd") {
            return NodeId(0);
        }
        if let Some(&idx) = self.node_index.get(name) {
            return NodeId(idx);
        }
        let idx = self.node_names.len();
        self.node_names.push(name.to_string());
        self.node_index.insert(name.to_string(), idx);
        NodeId(idx)
    }

    /// Creates a fresh anonymous internal node with a unique generated name.
    pub fn internal_node(&mut self, hint: &str) -> NodeId {
        let mut i = self.node_names.len();
        loop {
            let name = format!("_{hint}#{i}");
            if !self.node_index.contains_key(&name) {
                return self.node(&name);
            }
            i += 1;
        }
    }

    /// The name of a node.
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.node_names[node.0]
    }

    /// Number of nodes, including ground.
    pub fn n_nodes(&self) -> usize {
        self.node_names.len()
    }

    /// Number of MNA unknowns: non-ground node voltages plus branch currents.
    pub fn n_unknowns(&self) -> usize {
        self.node_names.len() - 1 + self.n_branches
    }

    /// Number of branch-current unknowns.
    pub fn n_branches(&self) -> usize {
        self.n_branches
    }

    /// Adds a device and returns its handle.
    pub fn add<D: Device + 'static>(&mut self, device: D) -> ElementId {
        let n_branches = device.n_branches();
        let state_len = device.state_len();
        let el = Element {
            device: Box::new(device),
            branch_offset: self.n_branches,
            n_branches,
            state_offset: self.state_len,
            state_len,
        };
        self.n_branches += n_branches;
        self.state_len += state_len;
        self.elements.push(el);
        ElementId(self.elements.len() - 1)
    }

    /// Number of devices.
    pub fn n_elements(&self) -> usize {
        self.elements.len()
    }

    /// Iterates over the registered devices in insertion order (static
    /// analysis and reporting; simulation goes through the stamp path).
    pub fn devices(&self) -> impl Iterator<Item = &dyn Device> + '_ {
        self.elements.iter().map(|e| e.device.as_ref())
    }

    /// Iterates over every node id, ground first.
    pub fn nodes(&self) -> impl Iterator<Item = NodeId> + '_ {
        (0..self.node_names.len()).map(NodeId)
    }

    /// Whether any registered device is nonlinear.
    pub fn has_nonlinear(&self) -> bool {
        self.elements.iter().any(|e| e.device.is_nonlinear())
    }

    /// Mutable typed access to a device, by handle.
    ///
    /// Used by transient monitors to adjust device parameters mid-run (the
    /// behavioural write-termination truncates its RESET pulse this way).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotFound`] if the handle is stale or the device
    /// has a different concrete type.
    pub fn device_mut<D: Device + 'static>(&mut self, id: ElementId) -> Result<&mut D, SpiceError> {
        let el = self
            .elements
            .get_mut(id.0)
            .ok_or_else(|| SpiceError::NotFound {
                what: format!("element #{}", id.0),
            })?;
        el.device
            .as_any_mut()
            .downcast_mut::<D>()
            .ok_or_else(|| SpiceError::NotFound {
                what: format!("element #{} with requested type", id.0),
            })
    }

    /// Shared access to a device by handle (untyped).
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotFound`] for a stale handle.
    pub fn device(&self, id: ElementId) -> Result<&dyn Device, SpiceError> {
        self.elements
            .get(id.0)
            .map(|e| e.device.as_ref())
            .ok_or_else(|| SpiceError::NotFound {
                what: format!("element #{}", id.0),
            })
    }

    /// Finds a device handle by name.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotFound`] if no device has that name.
    pub fn find_device(&self, name: &str) -> Result<ElementId, SpiceError> {
        self.elements
            .iter()
            .position(|e| e.device.name() == name)
            .map(ElementId)
            .ok_or_else(|| SpiceError::NotFound {
                what: format!("device '{name}'"),
            })
    }

    /// Global unknown index of a device's `k`-th branch current.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotFound`] for stale handles or out-of-range
    /// branch indices.
    pub fn branch_unknown(&self, id: ElementId, k: usize) -> Result<usize, SpiceError> {
        let el = self
            .elements
            .get(id.0)
            .ok_or_else(|| SpiceError::NotFound {
                what: format!("element #{}", id.0),
            })?;
        if k >= el.n_branches {
            return Err(SpiceError::NotFound {
                what: format!("branch {k} of element #{}", id.0),
            });
        }
        Ok(self.n_nodes() - 1 + el.branch_offset + k)
    }

    /// Human-readable name of an MNA unknown, for diagnostics: `v(node)`
    /// for node voltages, `i(device)` (or `i(device:k)` for multi-branch
    /// devices) for branch currents, `?(u)` for out-of-range indices.
    ///
    /// This is the map convergence diagnostics use to point at circuit
    /// structure instead of raw vector indices.
    pub fn unknown_name(&self, u: usize) -> String {
        let nn = self.n_nodes() - 1;
        if u < nn {
            return format!("v({})", self.node_names[u + 1]);
        }
        let b = u - nn;
        for el in &self.elements {
            if b >= el.branch_offset && b < el.branch_offset + el.n_branches {
                let k = b - el.branch_offset;
                return if el.n_branches > 1 {
                    format!("i({}:{k})", el.device.name())
                } else {
                    format!("i({})", el.device.name())
                };
            }
        }
        format!("?({u})")
    }

    /// The range of a device's state slice within the circuit-wide state
    /// vector.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotFound`] for a stale handle.
    pub(crate) fn state_range(&self, id: ElementId) -> Result<std::ops::Range<usize>, SpiceError> {
        let el = self
            .elements
            .get(id.0)
            .ok_or_else(|| SpiceError::NotFound {
                what: format!("element #{}", id.0),
            })?;
        Ok(el.state_offset..el.state_offset + el.state_len)
    }

    /// Collects every time-domain breakpoint declared by the devices
    /// (source corners); transient analysis never steps across these.
    pub(crate) fn breakpoints(&self) -> Vec<f64> {
        let mut bps: Vec<f64> = self
            .elements
            .iter()
            .flat_map(|e| e.device.breakpoints())
            .filter(|t| t.is_finite() && *t > 0.0)
            .collect();
        bps.sort_by(|a, b| a.total_cmp(b));
        bps.dedup_by(|a, b| (*a - *b).abs() < 1e-18);
        bps
    }

    /// Renders a human-readable netlist summary — device listing plus
    /// unknown-count bookkeeping — for debugging and logging.
    ///
    /// # Examples
    ///
    /// ```
    /// use oxterm_spice::circuit::Circuit;
    ///
    /// let mut c = Circuit::new();
    /// c.node("in");
    /// let s = c.describe();
    /// assert!(s.contains("2 nodes"));
    /// ```
    pub fn describe(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "circuit: {} nodes (incl. ground), {} devices, {} branch unknowns, {} MNA unknowns",
            self.n_nodes(),
            self.elements.len(),
            self.n_branches,
            self.n_unknowns()
        );
        for (k, el) in self.elements.iter().enumerate() {
            let _ = writeln!(
                out,
                "  [{k:>3}] {:<24} branches={} state={}{}",
                el.device.name(),
                el.n_branches,
                el.state_len,
                if el.device.is_nonlinear() {
                    "  (nonlinear)"
                } else {
                    ""
                }
            );
        }
        out
    }

    /// Builds the initial device-state vector.
    pub(crate) fn initial_state(&self) -> Vec<f64> {
        let mut state = vec![0.0; self.state_len];
        for el in &self.elements {
            el.device
                .init_state(&mut state[el.state_offset..el.state_offset + el.state_len]);
        }
        state
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::StampContext;

    #[derive(Debug)]
    struct Dummy {
        name: String,
        branches: usize,
        state: usize,
    }

    impl Device for Dummy {
        fn name(&self) -> &str {
            &self.name
        }
        fn n_branches(&self) -> usize {
            self.branches
        }
        fn state_len(&self) -> usize {
            self.state
        }
        fn init_state(&self, state: &mut [f64]) {
            state.fill(7.0);
        }
        fn stamp(&self, _ctx: &mut StampContext<'_>) {}
        fn as_any(&self) -> &dyn std::any::Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn ground_aliases() {
        let mut c = Circuit::new();
        assert!(c.node("0").is_gnd());
        assert!(c.node("gnd").is_gnd());
        assert!(c.node("GND").is_gnd());
        assert_eq!(c.n_nodes(), 1);
    }

    #[test]
    fn node_names_are_stable() {
        let mut c = Circuit::new();
        let a = c.node("alpha");
        let b = c.node("beta");
        assert_ne!(a, b);
        assert_eq!(c.node_name(a), "alpha");
        assert_eq!(c.node_name(b), "beta");
    }

    #[test]
    fn internal_nodes_are_unique() {
        let mut c = Circuit::new();
        let a = c.internal_node("x");
        let b = c.internal_node("x");
        assert_ne!(a, b);
    }

    #[test]
    fn unknown_allocation() {
        let mut c = Circuit::new();
        c.node("a");
        c.node("b");
        let d1 = c.add(Dummy {
            name: "d1".into(),
            branches: 2,
            state: 0,
        });
        let d2 = c.add(Dummy {
            name: "d2".into(),
            branches: 1,
            state: 3,
        });
        assert_eq!(c.n_unknowns(), 2 + 3);
        assert_eq!(c.branch_unknown(d1, 0).unwrap(), 2);
        assert_eq!(c.branch_unknown(d1, 1).unwrap(), 3);
        assert_eq!(c.branch_unknown(d2, 0).unwrap(), 4);
        assert!(c.branch_unknown(d2, 1).is_err());
        let st = c.initial_state();
        assert_eq!(st, vec![7.0, 7.0, 7.0]);
    }

    #[test]
    fn unknown_names_cover_nodes_and_branches() {
        let mut c = Circuit::new();
        c.node("sl");
        c.node("bl");
        let d1 = c.add(Dummy {
            name: "vsense".into(),
            branches: 1,
            state: 0,
        });
        let d2 = c.add(Dummy {
            name: "xfer".into(),
            branches: 2,
            state: 0,
        });
        assert_eq!(c.unknown_name(0), "v(sl)");
        assert_eq!(c.unknown_name(1), "v(bl)");
        assert_eq!(
            c.unknown_name(c.branch_unknown(d1, 0).unwrap()),
            "i(vsense)"
        );
        assert_eq!(
            c.unknown_name(c.branch_unknown(d2, 0).unwrap()),
            "i(xfer:0)"
        );
        assert_eq!(
            c.unknown_name(c.branch_unknown(d2, 1).unwrap()),
            "i(xfer:1)"
        );
        assert_eq!(c.unknown_name(99), "?(99)");
    }

    #[test]
    fn describe_lists_devices() {
        let mut c = Circuit::new();
        c.node("a");
        c.add(Dummy {
            name: "probe".into(),
            branches: 1,
            state: 2,
        });
        let s = c.describe();
        assert!(s.contains("2 nodes"));
        assert!(s.contains("probe"));
        assert!(s.contains("branches=1"));
        assert!(s.contains("state=2"));
    }

    #[test]
    fn device_lookup_and_downcast() {
        let mut c = Circuit::new();
        let id = c.add(Dummy {
            name: "probe".into(),
            branches: 0,
            state: 0,
        });
        assert_eq!(c.find_device("probe").unwrap(), id);
        assert!(c.find_device("nope").is_err());
        let d: &mut Dummy = c.device_mut(id).unwrap();
        assert_eq!(d.name, "probe");
    }
}
