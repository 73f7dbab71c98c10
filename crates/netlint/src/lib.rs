//! Pre-simulation static analysis ("netlint") for `oxterm` netlists.
//!
//! A commercial flow runs ERC/SOA checks before committing simulator time;
//! this crate is that pass for the reproduction. It inspects a built
//! [`Circuit`] — no solving — and reports structured [`Diagnostic`]s in
//! three families:
//!
//! * **`topo/*`** — connectivity: nodes with no DC path to ground,
//!   voltage-source loops, current-source cutsets (structurally singular
//!   MNA systems), dangling terminals, duplicate device names, and
//!   case-shadowed node names. Built from each device's declared
//!   [`oxterm_spice::device::StampTopology`], so the analysis sees exactly
//!   the DC stamp pattern the solver will.
//! * **`soa/*`** — electrical bounds from [`SoaLimits`]: source amplitudes
//!   vs the 3.3 V rail, reference currents vs the ISO-ΔI 6–36 µA ladder,
//!   MOSFET geometry vs the process minimum, non-finite source levels.
//! * **`opt/*`** — simulation-option sanity for a planned transient:
//!   step ceiling vs the shortest source edge, `abstol` vs the smallest
//!   reference current, `t_stop` vs the last source breakpoint.
//!
//! Every finding fails the lint gate: there is one severity, so a report
//! is clean exactly when it has no findings. Reports render as
//! human-readable text ([`LintReport::to_text`]).
//!
//! The [`corpus`] module rebuilds the netlists the shipped experiments
//! simulate (plus seeded-defect variants for the lint's own tests), so the
//! standalone `netlint` binary checks the same circuits the runs will use.
//!
//! # Examples
//!
//! ```
//! use oxterm_netlint::corpus;
//! use oxterm_netlint::lint_circuit;
//!
//! let entry = corpus::defect_floating_node();
//! let report = lint_circuit(&entry.name, &entry.circuit, entry.tran.as_ref());
//! assert!(report.findings.iter().any(|d| d.rule_id == "topo/floating-node"));
//! assert!(!report.is_clean());
//! ```

#![forbid(unsafe_code)]

pub mod corpus;

mod options;
mod params;
mod topology;

use oxterm_mlc::soa::SoaLimits;
use oxterm_spice::analysis::tran::TranOptions;
use oxterm_spice::circuit::Circuit;

/// What a diagnostic is anchored to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Span {
    /// The whole netlist.
    Circuit,
    /// A named node.
    Node(String),
    /// A named device.
    Device(String),
    /// A simulation option.
    Option(String),
}

impl Span {
    fn name(&self) -> &str {
        match self {
            Span::Circuit => "",
            Span::Node(n) | Span::Device(n) | Span::Option(n) => n,
        }
    }
}

impl std::fmt::Display for Span {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Span::Circuit => write!(f, "circuit"),
            Span::Node(n) => write!(f, "node `{n}`"),
            Span::Device(n) => write!(f, "device `{n}`"),
            Span::Option(n) => write!(f, "option `{n}`"),
        }
    }
}

/// One lint finding.
#[derive(Debug, Clone, PartialEq)]
pub struct Diagnostic {
    /// Stable rule identifier, e.g. `topo/floating-node`.
    pub rule_id: &'static str,
    /// What the finding is anchored to.
    pub span: Span,
    /// Human-readable description of the problem.
    pub message: String,
    /// Optional remediation hint.
    pub suggestion: Option<String>,
}

/// The rule catalog: `(rule_id, summary)`.
///
/// Kept in one place so the binary's `--rules` listing and `DESIGN.md` §9
/// stay in sync.
pub const RULES: &[(&str, &str)] = &[
    (
        "topo/floating-node",
        "node has no DC conduction or voltage-source path to ground",
    ),
    (
        "topo/dangling-terminal",
        "node is attached to exactly one device terminal",
    ),
    (
        "topo/shadowed-node",
        "two distinct nodes have names differing only by ASCII case",
    ),
    (
        "topo/duplicate-device",
        "two devices share one instance name",
    ),
    (
        "topo/vsrc-loop",
        "voltage-source branch closes a loop of voltage constraints",
    ),
    (
        "topo/isrc-cutset",
        "node is driven only by current sources (structurally singular MNA row)",
    ),
    ("soa/rail", "source amplitude exceeds the supply rail"),
    (
        "soa/nonfinite-source",
        "source waveform contains a non-finite level",
    ),
    (
        "soa/iref-window",
        "reference current lies outside the programmable IrefR window",
    ),
    (
        "soa/iref-grid",
        "reference current is inside the window but off the ISO-ΔI grid",
    ),
    (
        "soa/mos-geometry",
        "MOSFET geometry is below the process minimum",
    ),
    (
        "opt/coarse-timestep",
        "transient step ceiling cannot resolve the shortest source edge",
    ),
    (
        "opt/abstol",
        "abstol is within two decades of the smallest reference current",
    ),
    (
        "opt/tstop",
        "a source waveform extends past the end of the transient run",
    ),
];

/// The outcome of linting one netlist.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Netlist name (corpus key or caller-chosen label).
    pub name: String,
    /// Node count including ground.
    pub n_nodes: usize,
    /// Device count.
    pub n_devices: usize,
    /// Every finding, by rule id and then anchor.
    pub findings: Vec<Diagnostic>,
}

impl LintReport {
    /// Whether the netlist passes the lint gate (no findings).
    pub fn is_clean(&self) -> bool {
        self.findings.is_empty()
    }

    /// Human-readable rendering, one finding per block.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "netlist `{}` ({} nodes, {} devices): {} finding(s)",
            self.name,
            self.n_nodes,
            self.n_devices,
            self.findings.len(),
        );
        for d in &self.findings {
            let _ = writeln!(out, "  {:<22} {}: {}", d.rule_id, d.span, d.message);
            if let Some(s) = &d.suggestion {
                let _ = writeln!(out, "    hint: {s}");
            }
        }
        out
    }
}

/// Collector used by the check modules.
#[derive(Default)]
pub(crate) struct Sink {
    findings: Vec<Diagnostic>,
}

impl Sink {
    /// Records one finding.
    pub(crate) fn emit(
        &mut self,
        rule_id: &'static str,
        span: Span,
        message: String,
        suggestion: Option<String>,
    ) {
        self.findings.push(Diagnostic {
            rule_id,
            span,
            message,
            suggestion,
        });
    }
}

/// Lints one netlist; pass `tran` when a transient run is planned so the
/// `opt/*` rules apply.
pub fn lint_circuit(name: &str, circuit: &Circuit, tran: Option<&TranOptions>) -> LintReport {
    let mut sink = Sink::default();
    topology::check(circuit, &mut sink);
    params::check(circuit, &SoaLimits::paper(), &mut sink);
    if let Some(tran) = tran {
        options::check(circuit, tran, &mut sink);
    }
    let mut findings = sink.findings;
    // By rule id, then by anchor — deterministic output.
    findings.sort_by(|a, b| {
        a.rule_id
            .cmp(b.rule_id)
            .then_with(|| a.span.name().cmp(b.span.name()))
    });
    LintReport {
        name: name.to_string(),
        n_nodes: circuit.n_nodes(),
        n_devices: circuit.devices().count(),
        findings,
    }
}

/// Lints a corpus entry with its recorded transient options.
pub fn lint_entry(entry: &corpus::CorpusEntry) -> LintReport {
    lint_circuit(&entry.name, &entry.circuit, entry.tran.as_ref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rule_catalog_ids_are_unique() {
        let mut ids: Vec<&str> = RULES.iter().map(|&(r, _)| r).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), RULES.len());
    }

    #[test]
    fn report_renders_text_and_json() {
        let entry = corpus::defect_floating_node();
        let text = lint_entry(&entry).to_text();
        assert!(text.contains("topo/floating-node"), "{text}");
    }
}
