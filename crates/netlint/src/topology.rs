//! Connectivity rules (`topo/*`).
//!
//! The analysis runs on each device's declared [`StampTopology`] — the same
//! classification the MNA assembly implies — rather than on numeric stamps,
//! so a device biased to a zero-conductance point is still seen as a
//! connection. Devices that do not declare a topology are treated
//! conservatively as conducting between all their terminals (no false
//! positives from opaque devices).

use std::collections::HashMap;

use oxterm_spice::circuit::{Circuit, NodeId};
use oxterm_spice::device::StampTopology;

use crate::{Sink, Span};

/// Path-compressed union-find over node indices.
pub(crate) struct UnionFind {
    parent: Vec<usize>,
}

impl UnionFind {
    pub(crate) fn new(n: usize) -> Self {
        UnionFind {
            parent: (0..n).collect(),
        }
    }

    pub(crate) fn find(&mut self, mut x: usize) -> usize {
        while self.parent[x] != x {
            self.parent[x] = self.parent[self.parent[x]];
            x = self.parent[x];
        }
        x
    }

    /// Merges the sets of `a` and `b`; returns `false` if they were
    /// already in the same set (the new edge closes a cycle).
    pub(crate) fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        self.parent[ra] = rb;
        true
    }
}

/// Per-node attachment bookkeeping.
#[derive(Default, Clone)]
struct NodeInfo {
    /// Names of devices with a terminal on this node.
    attached: Vec<String>,
    /// Whether any attachment conducts or constrains at DC (conductance or
    /// voltage edge) — as opposed to injection-only / sense-only contact.
    dc_driven: bool,
    /// Whether a current source injects into this node.
    injected: bool,
}

/// The topology of one device as used by the checks.
fn effective_topology(terminals: &[NodeId], declared: Option<StampTopology>) -> StampTopology {
    match declared {
        Some(t) => t,
        None => {
            // Opaque device: assume every terminal pair conducts so the
            // floating-node analysis never false-positives on it.
            let mut t = StampTopology::default();
            for (i, &a) in terminals.iter().enumerate() {
                for &b in &terminals[i + 1..] {
                    t.dc_conductances.push((a, b));
                }
            }
            t
        }
    }
}

pub(crate) fn check(circuit: &Circuit, sink: &mut Sink) {
    let n = circuit.n_nodes();
    let gnd = Circuit::gnd().index();
    let mut nodes = vec![NodeInfo::default(); n];
    // DC connectivity: conductances and voltage edges both tie nodes into
    // the solvable component containing ground.
    let mut dc = UnionFind::new(n);
    // Voltage edges alone: a cycle here is an over-constrained KVL loop.
    let mut vloops = UnionFind::new(n);

    let mut device_names: HashMap<String, usize> = HashMap::new();
    for dev in circuit.devices() {
        let name = dev.name().to_string();
        *device_names.entry(name.clone()).or_insert(0) += 1;

        let terminals = dev.terminals();
        let topo = effective_topology(&terminals, dev.stamp_topology());
        for &t in &terminals {
            nodes[t.index()].attached.push(name.clone());
        }
        for &(a, b) in &topo.dc_conductances {
            dc.union(a.index(), b.index());
            nodes[a.index()].dc_driven = true;
            nodes[b.index()].dc_driven = true;
        }
        for &(a, b) in &topo.voltage_edges {
            dc.union(a.index(), b.index());
            nodes[a.index()].dc_driven = true;
            nodes[b.index()].dc_driven = true;
            if !vloops.union(a.index(), b.index()) {
                sink.emit(
                    "topo/vsrc-loop",
                    Span::Device(name.clone()),
                    format!(
                        "voltage branch of `{name}` between `{}` and `{}` closes a loop of \
                         voltage constraints (over-determined KVL loop)",
                        circuit.node_name(a),
                        circuit.node_name(b)
                    ),
                    Some(
                        "break the loop with a series resistance or remove the redundant source"
                            .to_string(),
                    ),
                );
            }
        }
        // Current injections attach but neither conduct nor constrain.
        for &(a, b) in &topo.current_injections {
            nodes[a.index()].injected = true;
            nodes[b.index()].injected = true;
        }
    }

    for (name, count) in &device_names {
        if *count > 1 {
            sink.emit(
                "topo/duplicate-device",
                Span::Device(name.clone()),
                format!("{count} devices share the instance name `{name}`"),
                Some("rename the instances so handles and traces stay unambiguous".to_string()),
            );
        }
    }

    // Case-shadowed node names ("BL" vs "bl").
    let mut by_lower: HashMap<String, Vec<&str>> = HashMap::new();
    for node in circuit.nodes() {
        let nm = circuit.node_name(node);
        by_lower
            .entry(nm.to_ascii_lowercase())
            .or_default()
            .push(nm);
    }
    for (_, names) in by_lower {
        if names.len() > 1 {
            sink.emit(
                "topo/shadowed-node",
                Span::Node(names[0].to_string()),
                format!(
                    "distinct nodes {} differ only by ASCII case",
                    names
                        .iter()
                        .map(|n| format!("`{n}`"))
                        .collect::<Vec<_>>()
                        .join(", ")
                ),
                Some("pick one canonical spelling; these do not merge".to_string()),
            );
        }
    }

    let gnd_root = dc.find(gnd);
    for node in circuit.nodes() {
        let idx = node.index();
        if idx == gnd {
            continue;
        }
        let info = &nodes[idx];
        let nm = circuit.node_name(node);
        if dc.find(idx) != gnd_root {
            if info.injected && !info.dc_driven {
                // Only current sources drive this node: its current has
                // nowhere to go and the MNA row has no diagonal entry
                // beyond gmin.
                sink.emit(
                    "topo/isrc-cutset",
                    Span::Node(nm.to_string()),
                    format!(
                        "node `{nm}` is driven only by current sources \
                         (devices: {}) — its nodal equation is structurally singular",
                        info.attached.join(", ")
                    ),
                    Some(
                        "give the node a conductive path (resistor) or a voltage source"
                            .to_string(),
                    ),
                );
            } else {
                let detail = if info.attached.is_empty() {
                    "is declared but attached to nothing".to_string()
                } else {
                    format!(
                        "has no DC path to ground (attached: {})",
                        info.attached.join(", ")
                    )
                };
                sink.emit(
                    "topo/floating-node",
                    Span::Node(nm.to_string()),
                    format!("node `{nm}` {detail}"),
                    Some("only gmin pins this node; add a DC path or remove the node".to_string()),
                );
            }
        }
        if info.attached.len() == 1 {
            sink.emit(
                "topo/dangling-terminal",
                Span::Node(nm.to_string()),
                format!(
                    "node `{nm}` is attached to a single terminal of `{}`",
                    info.attached[0]
                ),
                Some("a one-terminal net usually means a mis-wired connection".to_string()),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn union_find_detects_cycles() {
        let mut uf = UnionFind::new(4);
        assert!(uf.union(0, 1));
        assert!(uf.union(1, 2));
        assert!(!uf.union(0, 2));
        assert_eq!(uf.find(3), 3);
        assert_eq!(uf.find(0), uf.find(2));
    }
}
