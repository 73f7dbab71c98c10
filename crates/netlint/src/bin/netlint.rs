//! Standalone netlist lint driver.
//!
//! ```text
//! netlint [--rules] [NAME...]
//! ```
//!
//! With no `NAME` arguments, lints the full shipped corpus; otherwise only
//! entries whose corpus key contains one of the given substrings. Exits
//! nonzero when any finding is reported — the CI gate.

use std::process::ExitCode;

use oxterm_netlint::{corpus, lint_entry, RULES};

fn usage() -> &'static str {
    "usage: netlint [--rules] [NAME...]\n\
     \n\
     --rules  list the rule catalog and exit\n\
     NAME     lint only corpus entries whose key contains NAME"
}

fn main() -> ExitCode {
    let mut names: Vec<String> = Vec::new();
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--rules" => {
                for &(rule, summary) in RULES {
                    println!("{rule:<22} {summary}");
                }
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{}", usage());
                return ExitCode::SUCCESS;
            }
            flag if flag.starts_with('-') => {
                eprintln!("netlint: unknown flag `{flag}`\n{}", usage());
                return ExitCode::from(2);
            }
            name => names.push(name.to_string()),
        }
    }

    let entries: Vec<_> = corpus::shipped()
        .into_iter()
        .filter(|e| names.is_empty() || names.iter().any(|n| e.name.contains(n.as_str())))
        .collect();
    if entries.is_empty() {
        eprintln!("netlint: no corpus entry matches {names:?}");
        return ExitCode::from(2);
    }

    let mut findings = 0usize;
    for entry in &entries {
        let report = lint_entry(entry);
        findings += report.findings.len();
        if report.is_clean() {
            println!("netlist `{}`: clean", report.name);
        } else {
            print!("{}", report.to_text());
        }
    }
    println!(
        "netlint: {} netlist(s), {findings} finding(s)",
        entries.len()
    );
    if findings > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
