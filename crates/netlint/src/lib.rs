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
//! Every rule has a default severity ([`Severity::Deny`] or
//! [`Severity::Warn`]) that a [`LintConfig`] can override per rule, down to
//! [`Severity::Allow`] to suppress it. Reports render as human-readable
//! text ([`LintReport::to_text`]) and JSON ([`LintReport::to_json`]).
//!
//! The [`corpus`] module rebuilds the netlists the shipped experiments
//! simulate (plus seeded-defect variants for the lint's own tests), so the
//! standalone `netlint` binary checks the same circuits the runs will use.
//!
//! # Examples
//!
//! ```
//! use oxterm_netlint::{lint_circuit, LintOptions};
//! use oxterm_netlint::corpus;
//!
//! let entry = corpus::defect_floating_node();
//! let report = lint_circuit(
//!     &entry.name,
//!     &entry.circuit,
//!     entry.tran.as_ref(),
//!     &LintOptions::default(),
//! );
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
use oxterm_telemetry::JsonWriter;

/// How a finding is treated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Suppressed: the finding is dropped from the report.
    Allow,
    /// Reported, does not fail the run.
    Warn,
    /// Reported and fails the lint gate.
    Deny,
}

impl Severity {
    /// Lowercase label used in text and JSON output.
    pub fn label(self) -> &'static str {
        match self {
            Severity::Allow => "allow",
            Severity::Warn => "warn",
            Severity::Deny => "deny",
        }
    }
}

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
    fn kind(&self) -> &'static str {
        match self {
            Span::Circuit => "circuit",
            Span::Node(_) => "node",
            Span::Device(_) => "device",
            Span::Option(_) => "option",
        }
    }

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
    /// Effective severity after configuration.
    pub severity: Severity,
    /// What the finding is anchored to.
    pub span: Span,
    /// Human-readable description of the problem.
    pub message: String,
    /// Optional remediation hint.
    pub suggestion: Option<String>,
}

/// The rule catalog: `(rule_id, default severity, summary)`.
///
/// Kept in one place so the binary's `--rules` listing, the per-rule
/// default lookup, and `DESIGN.md` §9 stay in sync.
pub const RULES: &[(&str, Severity, &str)] = &[
    (
        "topo/floating-node",
        Severity::Deny,
        "node has no DC conduction or voltage-source path to ground",
    ),
    (
        "topo/dangling-terminal",
        Severity::Warn,
        "node is attached to exactly one device terminal",
    ),
    (
        "topo/shadowed-node",
        Severity::Warn,
        "two distinct nodes have names differing only by ASCII case",
    ),
    (
        "topo/duplicate-device",
        Severity::Deny,
        "two devices share one instance name",
    ),
    (
        "topo/vsrc-loop",
        Severity::Deny,
        "voltage-source/VCVS branch closes a loop of voltage constraints",
    ),
    (
        "topo/isrc-cutset",
        Severity::Deny,
        "node is driven only by current sources (structurally singular MNA row)",
    ),
    (
        "soa/rail",
        Severity::Deny,
        "source amplitude exceeds the supply rail",
    ),
    (
        "soa/nonfinite-source",
        Severity::Deny,
        "source waveform contains a non-finite level",
    ),
    (
        "soa/iref-window",
        Severity::Deny,
        "reference current lies outside the programmable IrefR window",
    ),
    (
        "soa/iref-grid",
        Severity::Warn,
        "reference current is inside the window but off the ISO-ΔI grid",
    ),
    (
        "soa/mos-geometry",
        Severity::Warn,
        "MOSFET geometry is below the process minimum",
    ),
    (
        "opt/coarse-timestep",
        Severity::Warn,
        "transient step ceiling cannot resolve the shortest source edge",
    ),
    (
        "opt/abstol",
        Severity::Warn,
        "abstol is within two decades of the smallest reference current",
    ),
    (
        "opt/tstop",
        Severity::Warn,
        "a source waveform extends past the end of the transient run",
    ),
];

/// Per-rule severity configuration (defaults from [`RULES`]).
#[derive(Debug, Clone, Default)]
pub struct LintConfig {
    overrides: Vec<(String, Severity)>,
}

impl LintConfig {
    /// The default configuration (every rule at its catalog severity).
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides one rule's severity; the last override for a rule wins.
    #[must_use]
    pub fn with(mut self, rule_id: &str, severity: Severity) -> Self {
        self.overrides.push((rule_id.to_string(), severity));
        self
    }

    /// Promotes every warn-by-default rule to deny (`--deny-warnings`).
    #[must_use]
    pub fn deny_warnings(mut self) -> Self {
        for &(rule, default, _) in RULES {
            if default == Severity::Warn {
                self.overrides.push((rule.to_string(), Severity::Deny));
            }
        }
        self
    }

    /// The effective severity of `rule_id`.
    pub fn severity_of(&self, rule_id: &str) -> Severity {
        if let Some((_, s)) = self.overrides.iter().rev().find(|(r, _)| r == rule_id) {
            return *s;
        }
        RULES
            .iter()
            .find(|(r, _, _)| *r == rule_id)
            .map(|&(_, s, _)| s)
            .unwrap_or(Severity::Warn)
    }
}

/// Inputs to a lint pass.
#[derive(Debug, Clone)]
pub struct LintOptions {
    /// Per-rule severity configuration.
    pub config: LintConfig,
    /// Electrical envelope checked by the `soa/*` rules.
    pub soa: SoaLimits,
}

impl Default for LintOptions {
    fn default() -> Self {
        LintOptions {
            config: LintConfig::new(),
            soa: SoaLimits::paper(),
        }
    }
}

/// The outcome of linting one netlist.
#[derive(Debug, Clone)]
pub struct LintReport {
    /// Netlist name (corpus key or caller-chosen label).
    pub name: String,
    /// Node count including ground.
    pub n_nodes: usize,
    /// Device count.
    pub n_devices: usize,
    /// Findings at warn severity or above, deny first.
    pub findings: Vec<Diagnostic>,
}

impl LintReport {
    /// Number of deny-severity findings.
    pub fn deny_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|d| d.severity == Severity::Deny)
            .count()
    }

    /// Number of warn-severity findings.
    pub fn warn_count(&self) -> usize {
        self.findings
            .iter()
            .filter(|d| d.severity == Severity::Warn)
            .count()
    }

    /// Whether the netlist passes the lint gate (no deny findings).
    pub fn is_clean(&self) -> bool {
        self.deny_count() == 0
    }

    /// Human-readable rendering, one finding per block.
    pub fn to_text(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "netlist `{}` ({} nodes, {} devices): {} finding(s), {} deny, {} warn",
            self.name,
            self.n_nodes,
            self.n_devices,
            self.findings.len(),
            self.deny_count(),
            self.warn_count(),
        );
        for d in &self.findings {
            let _ = writeln!(
                out,
                "  {:<4} {:<22} {}: {}",
                d.severity.label(),
                d.rule_id,
                d.span,
                d.message
            );
            if let Some(s) = &d.suggestion {
                let _ = writeln!(out, "       hint: {s}");
            }
        }
        out
    }

    /// JSON rendering (the schema documented in `DESIGN.md` §9).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.string("name", &self.name);
        w.u64("nodes", self.n_nodes as u64);
        w.u64("devices", self.n_devices as u64);
        w.u64("deny", self.deny_count() as u64);
        w.u64("warn", self.warn_count() as u64);
        w.begin_array_key("findings");
        for d in &self.findings {
            w.begin_object();
            w.string("rule_id", d.rule_id);
            w.string("severity", d.severity.label());
            w.begin_object_key("span");
            w.string("kind", d.span.kind());
            w.string("name", d.span.name());
            w.end_object();
            w.string("message", &d.message);
            if let Some(s) = &d.suggestion {
                w.string("suggestion", s);
            }
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Collector used by the check modules.
pub(crate) struct Sink<'a> {
    config: &'a LintConfig,
    findings: Vec<Diagnostic>,
}

impl<'a> Sink<'a> {
    fn new(config: &'a LintConfig) -> Self {
        Sink {
            config,
            findings: Vec::new(),
        }
    }

    /// Emits a finding unless its rule is configured `allow`.
    pub(crate) fn emit(
        &mut self,
        rule_id: &'static str,
        span: Span,
        message: String,
        suggestion: Option<String>,
    ) {
        let severity = self.config.severity_of(rule_id);
        if severity == Severity::Allow {
            return;
        }
        self.findings.push(Diagnostic {
            rule_id,
            severity,
            span,
            message,
            suggestion,
        });
    }
}

/// Lints one netlist; pass `tran` when a transient run is planned so the
/// `opt/*` rules apply.
pub fn lint_circuit(
    name: &str,
    circuit: &Circuit,
    tran: Option<&TranOptions>,
    opts: &LintOptions,
) -> LintReport {
    let mut sink = Sink::new(&opts.config);
    topology::check(circuit, &mut sink);
    params::check(circuit, &opts.soa, &mut sink);
    if let Some(tran) = tran {
        options::check(circuit, tran, &mut sink);
    }
    let mut findings = sink.findings;
    // Deny first, then by rule id, then by anchor — deterministic output.
    findings.sort_by(|a, b| {
        b.severity
            .cmp(&a.severity)
            .then_with(|| a.rule_id.cmp(b.rule_id))
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
pub fn lint_entry(entry: &corpus::CorpusEntry, opts: &LintOptions) -> LintReport {
    lint_circuit(&entry.name, &entry.circuit, entry.tran.as_ref(), opts)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_overrides_and_defaults() {
        let cfg = LintConfig::new();
        assert_eq!(cfg.severity_of("topo/floating-node"), Severity::Deny);
        assert_eq!(cfg.severity_of("opt/coarse-timestep"), Severity::Warn);
        assert_eq!(cfg.severity_of("no/such-rule"), Severity::Warn);
        let cfg = cfg.with("topo/floating-node", Severity::Allow);
        assert_eq!(cfg.severity_of("topo/floating-node"), Severity::Allow);
        let cfg = LintConfig::new().deny_warnings();
        assert_eq!(cfg.severity_of("opt/coarse-timestep"), Severity::Deny);
        assert_eq!(cfg.severity_of("soa/rail"), Severity::Deny);
    }

    #[test]
    fn rule_catalog_ids_are_unique() {
        let mut ids: Vec<&str> = RULES.iter().map(|&(r, _, _)| r).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), RULES.len());
    }

    #[test]
    fn report_renders_text_and_json() {
        let entry = corpus::defect_floating_node();
        let report = lint_entry(&entry, &LintOptions::default());
        let text = report.to_text();
        assert!(text.contains("topo/floating-node"), "{text}");
        let json = report.to_json();
        assert!(
            json.contains("\"rule_id\":\"topo/floating-node\""),
            "{json}"
        );
        assert!(json.starts_with('{') && json.ends_with('}'));
    }

    #[test]
    fn allow_suppresses_findings() {
        let entry = corpus::defect_floating_node();
        let opts = LintOptions {
            config: LintConfig::new()
                .with("topo/floating-node", Severity::Allow)
                .with("topo/dangling-terminal", Severity::Allow),
            ..LintOptions::default()
        };
        let report = lint_entry(&entry, &opts);
        assert!(
            !report
                .findings
                .iter()
                .any(|d| d.rule_id == "topo/floating-node"),
            "{}",
            report.to_text()
        );
    }
}
