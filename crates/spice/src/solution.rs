//! Converged solution vectors with node/branch accessors.

use crate::circuit::{Circuit, ElementId, NodeId};
use crate::SpiceError;

/// A converged MNA solution: node voltages followed by branch currents.
///
/// Produced by the analyses in [`crate::analysis`].
#[derive(Debug, Clone, PartialEq)]
pub struct Solution {
    values: Vec<f64>,
    n_node_unknowns: usize,
}

impl Solution {
    pub(crate) fn new(values: Vec<f64>, n_node_unknowns: usize) -> Self {
        Solution {
            values,
            n_node_unknowns,
        }
    }

    /// Voltage at a node (0 for ground).
    pub fn v(&self, node: NodeId) -> f64 {
        match node.unknown() {
            None => 0.0,
            Some(u) => self.values[u],
        }
    }

    /// Current through a device's `k`-th branch (voltage-source branches).
    ///
    /// Positive current flows from the `p` terminal through the device to
    /// the `n` terminal.
    ///
    /// # Errors
    ///
    /// Returns [`SpiceError::NotFound`] for invalid handles or branch
    /// indices.
    pub fn branch_current(
        &self,
        circuit: &Circuit,
        id: ElementId,
        k: usize,
    ) -> Result<f64, SpiceError> {
        let u = circuit.branch_unknown(id, k)?;
        Ok(self.values[u])
    }

    /// Raw unknown vector (node voltages then branch currents).
    pub fn as_slice(&self) -> &[f64] {
        &self.values
    }

    /// Number of node-voltage unknowns.
    pub fn n_node_unknowns(&self) -> usize {
        self.n_node_unknowns
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accessors() {
        let s = Solution::new(vec![1.0, 2.0, 0.5], 2);
        assert_eq!(s.v(NodeId(0)), 0.0);
        assert_eq!(s.v(NodeId(1)), 1.0);
        assert_eq!(s.v(NodeId(2)), 2.0);
        assert_eq!(s.as_slice().len(), 3);
        assert_eq!(s.n_node_unknowns(), 2);
    }
}
