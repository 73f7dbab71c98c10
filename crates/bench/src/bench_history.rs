//! Append-only perf trajectory: one JSONL line per `repro_all` run.
//!
//! `BENCH_telemetry.json` is a snapshot — it says how fast the tree is
//! *now*. `BENCH_history.jsonl` is the trajectory: every benched run
//! appends one flat JSON line stamped with the git revision it measured,
//! so a perf regression can be bisected from the artifact alone without
//! replaying old commits. The line carries the full flat summary
//! (including the `phase_share.*` keys from the hot-path profiler), which
//! keeps the file greppable and diff-friendly.
//!
//! The writer validates the summary through [`baseline::parse_flat_json`]
//! before appending, so a malformed line can never poison the history.
//!
//! [`baseline::parse_flat_json`]: crate::baseline::parse_flat_json

use std::fmt::Write as _;
use std::io::Write as _;

use crate::baseline::{parse_flat_json, BenchValue};
use oxterm_telemetry::JsonWriter;

/// Default history file, committed at the repo root next to the snapshot.
pub const DEFAULT_HISTORY_PATH: &str = "BENCH_history.jsonl";

/// The current git revision (short hash), or `None` when the tree is not a
/// git checkout or `git` is unavailable. A dirty working tree gets a
/// `-dirty` suffix so a history line never silently impersonates a
/// committed state.
pub fn git_rev() -> Option<String> {
    git_rev_with_command("git")
}

/// [`git_rev`] with the `git` executable name injectable, so the
/// degradation path — no `git` in the environment means the history
/// line stamps `"unknown"` rather than erroring — is testable without
/// mutating `PATH`. Every failure mode (spawn error, nonzero exit,
/// non-UTF-8 or empty output) folds to `None`.
pub fn git_rev_with_command(git: &str) -> Option<String> {
    let out = std::process::Command::new(git)
        .args(["rev-parse", "--short=12", "HEAD"])
        .output()
        .ok()?;
    if !out.status.success() {
        return None;
    }
    let rev = String::from_utf8(out.stdout).ok()?.trim().to_string();
    if rev.is_empty() {
        return None;
    }
    let dirty = std::process::Command::new(git)
        .args(["status", "--porcelain"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| !o.stdout.is_empty())
        .unwrap_or(false);
    Some(if dirty { format!("{rev}-dirty") } else { rev })
}

/// Re-renders a parsed flat summary as one JSONL line with the revision
/// stamped first. Pure so the line format is unit-testable.
///
/// # Errors
///
/// Returns a parse error for anything that is not a flat summary object.
pub fn history_line(summary_json: &str, rev: Option<&str>) -> Result<String, String> {
    let summary = parse_flat_json(summary_json)?;
    let mut w = JsonWriter::new();
    w.begin_object();
    w.string("rev", rev.unwrap_or("unknown"));
    for (key, value) in &summary {
        if key == "rev" {
            continue;
        }
        match value {
            BenchValue::Num(v) => {
                w.f64(key, *v);
            }
            BenchValue::Str(s) => {
                w.string(key, s);
            }
        }
    }
    w.end_object();
    Ok(w.finish())
}

/// Appends one summary line to the history file at `path`, creating it
/// (and its parent directory) on first use.
///
/// # Errors
///
/// Returns a message naming the path on I/O failure, or the parse error
/// for a malformed summary.
pub fn append_history(path: &str, summary_json: &str, rev: Option<&str>) -> Result<(), String> {
    let line = history_line(summary_json, rev)?;
    if let Some(dir) = std::path::Path::new(path).parent() {
        if !dir.as_os_str().is_empty() {
            std::fs::create_dir_all(dir).map_err(|e| format!("could not create {dir:?}: {e}"))?;
        }
    }
    let mut f = std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(path)
        .map_err(|e| format!("could not open {path}: {e}"))?;
    writeln!(f, "{line}").map_err(|e| format!("could not append to {path}: {e}"))
}

/// Renders the last `n` history entries as an aligned trajectory table
/// (newest last): revision, wall seconds, MC and Newton throughput.
///
/// # Errors
///
/// Returns a message naming the path on read failure or the first
/// malformed line.
pub fn render_tail(path: &str, n: usize) -> Result<String, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("could not read {path}: {e}"))?;
    let lines: Vec<&str> = text.lines().filter(|l| !l.trim().is_empty()).collect();
    let tail = &lines[lines.len().saturating_sub(n)..];
    let mut out = String::new();
    let _ = writeln!(
        out,
        "{:<18} {:>12} {:>14} {:>18}",
        "rev", "wall (s)", "mc runs/s", "newton iters/s"
    );
    for (i, line) in tail.iter().enumerate() {
        let entry = parse_flat_json(line)
            .map_err(|e| format!("{path}: malformed history line {}: {e}", i + 1))?;
        let num = |k: &str| match entry.get(k) {
            Some(BenchValue::Num(v)) => format!("{v:.2}"),
            _ => "—".to_string(),
        };
        let rev = match entry.get("rev") {
            Some(BenchValue::Str(s)) => s.clone(),
            _ => "unknown".to_string(),
        };
        let _ = writeln!(
            out,
            "{rev:<18} {:>12} {:>14} {:>18}",
            num("wall_seconds"),
            num("mc_runs_per_second"),
            num("newton_iterations_per_second"),
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SUMMARY: &str = "{\"bench\": \"repro_all\", \"wall_seconds\": 2.5, \
                           \"mc_runs_per_second\": 48.0, \
                           \"newton_iterations_per_second\": 12000.0, \
                           \"phase_share.tran/newton/solve_lu\": 0.41}";

    #[test]
    fn history_line_stamps_rev_first_and_stays_flat() {
        let line = history_line(SUMMARY, Some("abc123def456")).unwrap();
        assert!(line.starts_with("{\"rev\":\"abc123def456\""), "{line}");
        // The line must round-trip through the flat parser.
        let parsed = parse_flat_json(&line).unwrap();
        assert_eq!(parsed["rev"], BenchValue::Str("abc123def456".into()));
        assert_eq!(parsed["wall_seconds"], BenchValue::Num(2.5));
        assert_eq!(
            parsed["phase_share.tran/newton/solve_lu"],
            BenchValue::Num(0.41)
        );
        assert!(!line.contains('\n'), "one line per entry: {line:?}");
    }

    #[test]
    fn missing_rev_is_explicit_not_absent() {
        let line = history_line(SUMMARY, None).unwrap();
        let parsed = parse_flat_json(&line).unwrap();
        assert_eq!(parsed["rev"], BenchValue::Str("unknown".into()));
    }

    #[test]
    fn malformed_summaries_never_reach_the_file() {
        assert!(history_line("[1, 2]", Some("abc")).is_err());
        assert!(history_line("{\"a\": {\"nested\": 1}}", Some("abc")).is_err());
    }

    #[test]
    fn append_and_tail_round_trip() {
        let dir = std::env::temp_dir().join(format!(
            "oxterm_hist_{}_{}",
            std::process::id(),
            oxterm_telemetry::profiler::monotonic_ns()
        ));
        let path = dir.join("BENCH_history.jsonl");
        let path = path.to_str().expect("utf-8 temp path");
        append_history(path, SUMMARY, Some("aaaa00000001")).unwrap();
        append_history(path, SUMMARY, Some("bbbb00000002")).unwrap();
        append_history(path, SUMMARY, Some("cccc00000003")).unwrap();
        let tail = render_tail(path, 2).unwrap();
        assert!(!tail.contains("aaaa00000001"), "{tail}");
        assert!(tail.contains("bbbb00000002"), "{tail}");
        assert!(tail.contains("cccc00000003"), "{tail}");
        assert!(tail.contains("2.50"), "{tail}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn unavailable_git_degrades_to_unknown_stamp() {
        // A missing `git` binary must not error the history pipeline:
        // the rev lookup folds to `None` and the line stamps "unknown".
        let rev = git_rev_with_command("oxterm-definitely-not-a-git-binary");
        assert_eq!(rev, None);
        let line = history_line(SUMMARY, rev.as_deref()).unwrap();
        let parsed = parse_flat_json(&line).unwrap();
        assert_eq!(parsed["rev"], BenchValue::Str("unknown".into()));
    }

    #[test]
    fn git_rev_in_this_checkout_looks_like_a_hash() {
        // The test tree is a git checkout; outside one, None is the
        // documented answer and also fine.
        if let Some(rev) = git_rev() {
            let stem = rev.strip_suffix("-dirty").unwrap_or(&rev);
            assert!(stem.len() >= 7, "{rev}");
            assert!(stem.chars().all(|c| c.is_ascii_hexdigit()), "{rev}");
        }
    }
}
