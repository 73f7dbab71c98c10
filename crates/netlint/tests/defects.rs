//! The seeded defect corpus: each planted defect must be flagged with its
//! exact rule id and fail the gate, and the shipped experiment netlists
//! must lint clean (no findings) — the no-false-positive gate.

use oxterm_netlint::{corpus, lint_entry};

fn rule_ids(entry: &corpus::CorpusEntry) -> Vec<&'static str> {
    lint_entry(entry)
        .findings
        .iter()
        .map(|d| d.rule_id)
        .collect()
}

#[test]
fn floating_node_is_flagged() {
    let ids = rule_ids(&corpus::defect_floating_node());
    assert!(ids.contains(&"topo/floating-node"), "{ids:?}");
}

#[test]
fn vsrc_loop_is_flagged() {
    let ids = rule_ids(&corpus::defect_vsrc_loop());
    assert!(ids.contains(&"topo/vsrc-loop"), "{ids:?}");
}

#[test]
fn out_of_ladder_iref_is_flagged_as_deny() {
    let report = lint_entry(&corpus::defect_iref_out_of_ladder());
    assert!(
        report
            .findings
            .iter()
            .any(|d| d.rule_id == "soa/iref-window"),
        "missing soa/iref-window in {}",
        report.to_text()
    );
    assert!(!report.is_clean());
}

#[test]
fn coarse_timestep_is_flagged() {
    let ids = rule_ids(&corpus::defect_coarse_timestep());
    assert!(ids.contains(&"opt/coarse-timestep"), "{ids:?}");
}

#[test]
fn defects_fail_the_gate() {
    for entry in [
        corpus::defect_floating_node(),
        corpus::defect_vsrc_loop(),
        corpus::defect_iref_out_of_ladder(),
        corpus::defect_coarse_timestep(),
    ] {
        let report = lint_entry(&entry);
        assert!(!report.is_clean(), "`{}` should not be clean", entry.name);
    }
}

#[test]
fn shipped_netlists_have_no_deny_findings() {
    let entries = corpus::shipped();
    assert!(entries.len() >= 19, "corpus shrank to {}", entries.len());
    for entry in &entries {
        let report = lint_entry(entry);
        assert!(
            report.is_clean(),
            "shipped netlist `{}` has findings:\n{}",
            entry.name,
            report.to_text()
        );
    }
}

#[test]
fn shipped_netlists_have_no_warnings_either() {
    // The finding list itself, not just the gate's verdict: every rule
    // fails the gate, so a shipped netlist has nothing to report at all.
    for entry in &corpus::shipped() {
        let report = lint_entry(entry);
        assert!(
            report.findings.is_empty(),
            "shipped netlist `{}` has findings:\n{}",
            entry.name,
            report.to_text()
        );
    }
}
