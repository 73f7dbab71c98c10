//! Solver hot-path attribution: the phase profile of a run joined with the
//! structural cost of the MNA system it solved.
//!
//! The hierarchical phase profiler ([`oxterm_telemetry::profiler`]) says
//! *where* the wall time went; this module says *what the solver was doing
//! per unit of that time*. [`matrix_stats`] derives matrix dimension,
//! structural nonzero count and dense-LU flop cost from a circuit's
//! [`StampTopology`](oxterm_spice::device::StampTopology) without running a
//! single Newton iteration, and [`HotPathReport`] folds those numbers
//! together with the profile snapshot and the Newton-iteration count into
//! one artifact (ASCII for the terminal, JSON for the perf trajectory).
//!
//! The nonzero count is a *structural estimate*: it enumerates the matrix
//! positions the declared topology can touch (conductance 2×2 blocks,
//! voltage-constraint branch rows/columns, the gmin diagonal) and assigns
//! branch-current indices to voltage edges in device insertion order —
//! exactly the order [`Circuit::add`] allocates them. Devices that stamp
//! positions outside their declared topology are not visible here, which
//! matches the netlint topology checks' view of the circuit.

use std::collections::BTreeSet;

use oxterm_spice::circuit::Circuit;
use oxterm_telemetry::{JsonWriter, ProfileSnapshot};

/// Structural cost figures of one circuit's MNA system.
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixStats {
    /// Total MNA unknowns (non-ground node voltages + branch currents).
    pub n_unknowns: usize,
    /// Non-ground node-voltage unknowns.
    pub n_node_unknowns: usize,
    /// Branch-current unknowns.
    pub n_branches: usize,
    /// Devices in the circuit.
    pub n_devices: usize,
    /// Structural nonzero positions (see module docs for the estimate's
    /// ground rules). Includes the gmin diagonal the solver always stamps.
    pub nnz_estimate: usize,
    /// `nnz_estimate / n_unknowns²` — how sparse the system is.
    pub density: f64,
    /// Dense-LU flop cost of one Newton iteration:
    /// `(2/3)·n³` for the factorization plus `2·n²` for the two
    /// triangular solves.
    pub flops_per_iteration: f64,
}

impl MatrixStats {
    /// Renders the stats as indented report lines.
    pub fn to_text(&self) -> String {
        format!(
            "  unknowns      : {} ({} node voltages + {} branch currents)\n\
             \x20 devices       : {}\n\
             \x20 structural nnz: {} ({:.2}% dense)\n\
             \x20 flops/iter    : {:.3e} (dense LU: 2/3·n³ + 2·n²)\n",
            self.n_unknowns,
            self.n_node_unknowns,
            self.n_branches,
            self.n_devices,
            self.nnz_estimate,
            self.density * 100.0,
            self.flops_per_iteration,
        )
    }
}

/// Derives [`MatrixStats`] from a circuit's declared stamp topology.
pub fn matrix_stats(circuit: &Circuit) -> MatrixStats {
    let nn = circuit.n_nodes() - 1;
    let n = circuit.n_unknowns();
    // The MNA unknown index of a node, or None for ground.
    let unknown = |node: oxterm_spice::circuit::NodeId| -> Option<usize> {
        if node.is_gnd() {
            None
        } else {
            Some(node.index() - 1)
        }
    };
    let mut positions: BTreeSet<(usize, usize)> = BTreeSet::new();
    // The solver stamps gmin on every node diagonal, so those positions
    // are always structurally present.
    for d in 0..nn {
        positions.insert((d, d));
    }
    let mut branch_base = 0usize;
    let mut n_devices = 0usize;
    for device in circuit.devices() {
        n_devices += 1;
        let n_branches = device.n_branches();
        if let Some(topo) = device.stamp_topology() {
            for &(a, b) in &topo.dc_conductances {
                let (ia, ib) = (unknown(a), unknown(b));
                for (r, c) in [(ia, ia), (ia, ib), (ib, ia), (ib, ib)] {
                    if let (Some(r), Some(c)) = (r, c) {
                        positions.insert((r, c));
                    }
                }
            }
            for (k, &(a, b)) in topo.voltage_edges.iter().enumerate() {
                // Branch indices are allocated in device insertion order;
                // a device's voltage edges take its branches in sequence
                // (every multi-branch device here declares one edge per
                // branch).
                let br = nn + branch_base + k.min(n_branches.saturating_sub(1));
                positions.insert((br, br));
                for i in [unknown(a), unknown(b)].into_iter().flatten() {
                    positions.insert((i, br));
                    positions.insert((br, i));
                }
            }
            // Current injections are RHS-only: no matrix positions.
        }
        branch_base += n_branches;
    }
    let nnz = positions.len();
    let nf = n as f64;
    MatrixStats {
        n_unknowns: n,
        n_node_unknowns: nn,
        n_branches: circuit.n_branches(),
        n_devices,
        nnz_estimate: nnz,
        density: if n == 0 { 0.0 } else { nnz as f64 / (nf * nf) },
        flops_per_iteration: (2.0 / 3.0) * nf * nf * nf + 2.0 * nf * nf,
    }
}

/// One run's hot-path attribution: phase profile, representative matrix
/// structure, and the Newton work the two together price out.
#[derive(Debug, Clone)]
pub struct HotPathReport {
    /// The merged phase profile of the run.
    pub snapshot: ProfileSnapshot,
    /// Structural stats of the run's representative circuit (absent when
    /// the run never built one, e.g. fast-path-only campaigns).
    pub matrix: Option<MatrixStats>,
    /// Total Newton iterations the run solved (from the
    /// `spice.newton.iterations` histogram).
    pub newton_iterations: f64,
}

impl HotPathReport {
    /// Estimated total flops across all Newton iterations, when a
    /// representative matrix is known.
    pub fn estimated_flops(&self) -> Option<f64> {
        let m = self.matrix.as_ref()?;
        (self.newton_iterations > 0.0).then_some(m.flops_per_iteration * self.newton_iterations)
    }

    /// Effective dense-equivalent flop rate over the LU leaf phase
    /// (`tran/newton/solve_lu` self time), when both sides are known.
    pub fn effective_flops_per_second(&self) -> Option<f64> {
        let flops = self.estimated_flops()?;
        let lu = self
            .snapshot
            .phase(oxterm_telemetry::PhaseId::NewtonSolveLu)?;
        let secs = lu.self_ns() as f64 / 1e9;
        (secs > 0.0).then(|| flops / secs)
    }

    /// The full report as terminal text: phase tree, matrix structure,
    /// Newton work estimate.
    pub fn to_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&self.snapshot.to_ascii_tree());
        if let Some(m) = &self.matrix {
            out.push_str("\nrepresentative MNA system:\n");
            out.push_str(&m.to_text());
        }
        if self.newton_iterations > 0.0 {
            out.push_str(&format!(
                "newton iterations: {:.0}\n",
                self.newton_iterations
            ));
        }
        if let Some(flops) = self.estimated_flops() {
            out.push_str(&format!("estimated newton flops: {flops:.3e}"));
            if let Some(rate) = self.effective_flops_per_second() {
                out.push_str(&format!(" ({rate:.3e} flop/s over the LU phase)"));
            }
            out.push('\n');
        }
        out
    }

    /// The report as JSON (schema `oxterm-hotpath/1`): the profile
    /// snapshot's phases verbatim plus the matrix/newton sections.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.string("schema", "oxterm-hotpath/1");
        w.begin_object_key("profile");
        w.f64_opt("leaf_coverage", self.snapshot.leaf_coverage());
        w.u64("work_self_ns", self.snapshot.work_self_ns());
        w.begin_array_key("phases");
        for p in &self.snapshot.phases {
            w.begin_object();
            w.string("path", p.path());
            w.u64("calls", p.calls);
            w.u64("wall_ns", p.wall_ns);
            w.u64("self_ns", p.self_ns());
            w.f64_opt("share", self.snapshot.share(p));
            w.end_object();
        }
        w.end_array();
        w.end_object();
        if let Some(m) = &self.matrix {
            w.begin_object_key("matrix");
            w.u64("n_unknowns", m.n_unknowns as u64);
            w.u64("n_node_unknowns", m.n_node_unknowns as u64);
            w.u64("n_branches", m.n_branches as u64);
            w.u64("n_devices", m.n_devices as u64);
            w.u64("nnz_estimate", m.nnz_estimate as u64);
            w.f64("density", m.density);
            w.f64("flops_per_iteration", m.flops_per_iteration);
            w.end_object();
        }
        w.begin_object_key("newton");
        w.f64("iterations", self.newton_iterations);
        w.f64_opt("estimated_flops", self.estimated_flops());
        w.f64_opt(
            "effective_flops_per_second",
            self.effective_flops_per_second(),
        );
        w.end_object();
        w.end_object();
        w.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oxterm_mlc::program::{build_program_circuit, CircuitProgramOptions};

    fn fig10_stats() -> MatrixStats {
        let (circuit, _) =
            build_program_circuit(&CircuitProgramOptions::paper_fig10()).expect("testbench builds");
        matrix_stats(&circuit)
    }

    #[test]
    fn fig10_testbench_dimensions_are_consistent() {
        let m = fig10_stats();
        assert_eq!(m.n_unknowns, m.n_node_unknowns + m.n_branches);
        // 3 voltage sources → at least 3 branch unknowns.
        assert!(m.n_branches >= 3, "{m:?}");
        assert!(m.n_devices >= 5, "{m:?}");
        // The estimate counts real structure: more than the diagonal,
        // far fewer than dense.
        assert!(m.nnz_estimate > m.n_unknowns, "{m:?}");
        assert!(m.nnz_estimate < m.n_unknowns * m.n_unknowns, "{m:?}");
        assert!(m.density > 0.0 && m.density < 1.0, "{m:?}");
        assert!(m.flops_per_iteration > 0.0);
    }

    #[test]
    fn empty_report_renders_without_panicking() {
        let report = HotPathReport {
            snapshot: ProfileSnapshot { phases: Vec::new() },
            matrix: None,
            newton_iterations: 0.0,
        };
        assert!(report.estimated_flops().is_none());
        let json = report.to_json();
        assert!(json.contains("oxterm-hotpath/1"), "{json}");
        let _ = report.to_text();
    }

    #[test]
    fn report_prices_newton_work_from_the_matrix() {
        let report = HotPathReport {
            snapshot: ProfileSnapshot { phases: Vec::new() },
            matrix: Some(fig10_stats()),
            newton_iterations: 1000.0,
        };
        let flops = report.estimated_flops().expect("matrix + iterations");
        assert!(flops >= 1000.0 * report.matrix.as_ref().unwrap().flops_per_iteration * 0.999);
        let json = report.to_json();
        assert!(json.contains("\"n_unknowns\""), "{json}");
        assert!(json.contains("\"estimated_flops\""), "{json}");
        let text = report.to_text();
        assert!(text.contains("representative MNA system"), "{text}");
    }
}
