//! Workspace maintenance tasks, invoked as `cargo xtask <task>`.
//!
//! `cargo xtask lint` enforces source-level invariants the compiler cannot:
//!
//! * **unwrap/expect budgets** — per-crate ceilings on `.unwrap()` /
//!   `.expect(` in library non-test code. The solver-facing crates
//!   (`spice`, `core`, `devices`, `rram`, `netlint`) are pinned at zero;
//!   the rest carry explicit ceilings that may only go down.
//! * **`Instant::now` ban outside the sanctioned clock** — wall-clock
//!   reads belong in the telemetry layer; a solver that reads the clock
//!   directly breaks the zero-overhead-when-disabled contract and makes
//!   runs irreproducible. The ban covers the solver crates
//!   *and* `telemetry`/`mc` themselves: only the profiler entry points
//!   ([`CLOCK_ALLOWLIST`]) may construct an `Instant`; everything else
//!   times a scope by opening a profiler phase.
//! * **`std::fs` ban in solver crates** — artifact I/O (telemetry and
//!   hot-path reports) is owned by the bench binaries; a solver writing
//!   files directly bypasses the binaries' output configuration.
//! * **`std::process::exit` ban in library code** — terminating the
//!   process from a library skips destructors, telemetry flushes and
//!   mid-campaign checkpoint writes; only `src/bin/` targets may exit.
//!   Libraries surface errors (e.g. `CliError` with a suggested code)
//!   and let the binary decide.
//! * **`#![forbid(unsafe_code)]` headers** — every library crate must
//!   carry the attribute in its `lib.rs`.
//!
//! The scanner strips `tests/` directories, `src/bin/`, `benches/` and
//! `#[cfg(test)]` modules (by brace depth) before counting, so test code
//! can unwrap freely.

#![forbid(unsafe_code)]

use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Per-crate ceilings on `.unwrap()`/`.expect(` occurrences in library
/// non-test code. These may only shrink: if a burndown drops a count below
/// its ceiling, lower the ceiling in the same change.
const UNWRAP_BUDGETS: &[(&str, usize)] = &[
    ("array", 1),
    ("bench", 1),
    ("chaos", 0),
    ("core", 0),
    ("devices", 0),
    ("examples-shim", 0),
    ("integration", 0),
    ("mc", 0),
    ("netlint", 0),
    ("numerics", 1),
    ("rram", 0),
    ("spice", 0),
    ("telemetry", 0),
];

/// Crates on the solve path: no direct wall-clock reads (`Instant::now`).
/// Timing belongs in `oxterm-telemetry`, which is a no-op when disabled.
const SOLVER_CRATES: &[&str] = &[
    "numerics", "spice", "devices", "rram", "core", "array", "chaos",
];

/// Crates scanned for `Instant::now` on top of [`SOLVER_CRATES`]: the
/// telemetry layer itself and the Monte Carlo engine, whose campaigns are
/// timed by their profiler phases instead.
const CLOCK_CRATES: &[&str] = &["telemetry", "mc"];

/// The only file allowed to construct an `Instant`: the phase profiler,
/// the one clock behind every timed scope.
const CLOCK_ALLOWLIST: &[&str] = &["crates/telemetry/src/profiler.rs"];

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("lint") => lint(),
        Some(other) => {
            eprintln!("xtask: unknown task `{other}`\n\nusage: cargo xtask lint");
            ExitCode::from(2)
        }
        None => {
            eprintln!("usage: cargo xtask lint");
            ExitCode::from(2)
        }
    }
}

fn lint() -> ExitCode {
    let root = workspace_root();
    let crates_dir = root.join("crates");
    let mut violations: Vec<String> = Vec::new();

    for (krate, budget) in UNWRAP_BUDGETS {
        let src = crates_dir.join(krate).join("src");
        if !src.is_dir() {
            violations.push(format!(
                "crate `{krate}` has a budget entry but no src/ directory — update UNWRAP_BUDGETS"
            ));
            continue;
        }
        let mut count = 0usize;
        let mut hits: Vec<String> = Vec::new();
        for file in library_sources(&src) {
            let text = match std::fs::read_to_string(&file) {
                Ok(t) => t,
                Err(e) => {
                    violations.push(format!("could not read {}: {e}", file.display()));
                    continue;
                }
            };
            let n = count_unwraps(&text);
            if n > 0 {
                count += n;
                hits.push(format!("{} ({n})", rel(&file, &root)));
            }
        }
        if count > *budget {
            violations.push(format!(
                "crate `{krate}`: {count} unwrap/expect call(s) in library non-test code \
                 exceeds its budget of {budget} — in: {}",
                hits.join(", ")
            ));
        } else {
            println!("lint: {krate}: unwrap/expect {count}/{budget} ok");
        }
    }

    for krate in SOLVER_CRATES.iter().chain(CLOCK_CRATES) {
        let on_solve_path = SOLVER_CRATES.contains(krate);
        let src = crates_dir.join(krate).join("src");
        for file in library_sources(&src) {
            let text = std::fs::read_to_string(&file).unwrap_or_default();
            let code: String = strip_test_modules(&text)
                .lines()
                .map(strip_comments)
                .collect::<Vec<_>>()
                .join("\n");
            let relpath = rel(&file, &root);
            if code.contains("Instant::now")
                && !CLOCK_ALLOWLIST.contains(&relpath.replace('\\', "/").as_str())
            {
                violations.push(format!(
                    "crate `{krate}`: {relpath} reads the wall clock (Instant::now); \
                     time the scope with an oxterm_telemetry::Profiler phase \
                     (only the profiler may construct an Instant)"
                ));
            }
            // The filesystem ban stays solver-only: telemetry owns the
            // artifact I/O and mc streams campaign checkpoints by design.
            if on_solve_path {
                if let Some(pattern) = fs_access(&code) {
                    violations.push(format!(
                        "solver crate `{krate}`: {relpath} touches the filesystem ({pattern}); \
                         route artifact I/O through oxterm-telemetry"
                    ));
                }
            }
        }
    }

    let mut lib_crates: Vec<PathBuf> = match std::fs::read_dir(&crates_dir) {
        Ok(rd) => rd
            .filter_map(Result::ok)
            .map(|e| e.path())
            .filter(|p| p.join("src/lib.rs").is_file())
            .collect(),
        Err(e) => {
            eprintln!("xtask: could not list {}: {e}", crates_dir.display());
            return ExitCode::FAILURE;
        }
    };
    lib_crates.sort();
    for krate in &lib_crates {
        let lib = krate.join("src/lib.rs");
        let text = std::fs::read_to_string(&lib).unwrap_or_default();
        if !text.contains("#![forbid(unsafe_code)]") {
            violations.push(format!(
                "{} is missing the #![forbid(unsafe_code)] header",
                rel(&lib, &root)
            ));
        }
    }
    println!(
        "lint: {} library crate(s) carry #![forbid(unsafe_code)]",
        lib_crates.len()
    );

    // Process-exit ban: every crate's library sources (src/bin and tests
    // are excluded by `library_sources`). A library that exits skips
    // destructors, telemetry flushes and mid-campaign checkpoint writes.
    let mut exit_clean = 0usize;
    for krate in &lib_crates {
        let mut dirty = false;
        for file in library_sources(&krate.join("src")) {
            let text = std::fs::read_to_string(&file).unwrap_or_default();
            let code: String = strip_test_modules(&text)
                .lines()
                .map(strip_comments)
                .collect::<Vec<_>>()
                .join("\n");
            if code.contains("process::exit") {
                dirty = true;
                violations.push(format!(
                    "{} calls process::exit from library code; return an error \
                     (e.g. CliError) and let the src/bin target exit",
                    rel(&file, &root)
                ));
            }
        }
        if !dirty {
            exit_clean += 1;
        }
    }
    println!("lint: {exit_clean} library crate(s) free of process::exit");

    if violations.is_empty() {
        println!("lint: workspace invariants hold");
        ExitCode::SUCCESS
    } else {
        for v in &violations {
            eprintln!("lint: FAIL: {v}");
        }
        eprintln!("lint: {} violation(s)", violations.len());
        ExitCode::FAILURE
    }
}

/// The workspace root, from this binary's manifest directory.
fn workspace_root() -> PathBuf {
    let manifest = PathBuf::from(env!("CARGO_MANIFEST_DIR"));
    manifest.parent().map(Path::to_path_buf).unwrap_or(manifest)
}

fn rel<'a>(path: &'a Path, root: &Path) -> std::borrow::Cow<'a, str> {
    path.strip_prefix(root).unwrap_or(path).to_string_lossy()
}

/// Every `.rs` file under `src/` that is library code: skips `src/bin/`
/// (binary targets may print-and-exit freely) and any `tests/` directory.
fn library_sources(src: &Path) -> Vec<PathBuf> {
    let mut out = Vec::new();
    let mut stack = vec![src.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let Ok(rd) = std::fs::read_dir(&dir) else {
            continue;
        };
        for entry in rd.filter_map(Result::ok) {
            let path = entry.path();
            let name = entry.file_name();
            if path.is_dir() {
                if name != "bin" && name != "tests" {
                    stack.push(path);
                }
            } else if path.extension().is_some_and(|e| e == "rs") {
                out.push(path);
            }
        }
    }
    out.sort();
    out
}

/// Drops `#[cfg(test)]` items (typically `mod tests { ... }`) by tracking
/// brace depth line-by-line. A heuristic, not a parser: it assumes the
/// attribute sits on its own line and braces are not hidden in strings in
/// the module header — true across this workspace and covered by tests.
fn strip_test_modules(src: &str) -> String {
    #[derive(PartialEq)]
    enum State {
        Normal,
        /// Saw `#[cfg(test)]`; waiting for the item's opening brace (or a
        /// `;`-terminated item, which ends the skip immediately).
        Awaiting,
        /// Inside the skipped item at the given brace depth.
        Skipping(i64),
    }
    let mut state = State::Normal;
    let mut out = String::new();
    for line in src.lines() {
        let code = strip_comments(line);
        let opens = code.matches('{').count() as i64;
        let closes = code.matches('}').count() as i64;
        match state {
            State::Normal => {
                if code.trim_start().starts_with("#[cfg(test)]") {
                    state = State::Awaiting;
                } else {
                    out.push_str(line);
                    out.push('\n');
                }
            }
            State::Awaiting => {
                if opens > 0 {
                    let depth = opens - closes;
                    state = if depth > 0 {
                        State::Skipping(depth)
                    } else {
                        State::Normal
                    };
                } else if code.contains(';') {
                    // A braceless item (`#[cfg(test)] use ...;`).
                    state = State::Normal;
                }
            }
            State::Skipping(depth) => {
                let depth = depth + opens - closes;
                state = if depth <= 0 {
                    State::Normal
                } else {
                    State::Skipping(depth)
                };
            }
        }
    }
    out
}

/// Drops `//` line-comment tails so commented-out code never counts.
fn strip_comments(line: &str) -> &str {
    match line.find("//") {
        Some(idx) => &line[..idx],
        None => line,
    }
}

/// Detects filesystem access in solver-crate library code. Returns the
/// first offending pattern, or `None` for a clean file. Catches both the
/// path-qualified calls (`std::fs::write(...)`) and the common import
/// forms (`use std::fs`, `fs::write(`, `File::create(`).
fn fs_access(code: &str) -> Option<&'static str> {
    const PATTERNS: &[&str] = &[
        "std::fs",
        "use std::fs",
        "fs::write(",
        "fs::create_dir",
        "fs::File",
        "File::create(",
        "File::open(",
        "OpenOptions::new(",
    ];
    PATTERNS.iter().find(|p| code.contains(**p)).copied()
}

/// Counts `.unwrap()` / `.expect(` occurrences outside test modules and
/// comments.
fn count_unwraps(src: &str) -> usize {
    let stripped = strip_test_modules(src);
    stripped
        .lines()
        .map(strip_comments)
        .map(|code| code.matches(".unwrap()").count() + code.matches(".expect(").count())
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_plain_unwraps() {
        assert_eq!(
            count_unwraps("let x = y.unwrap();\nlet z = w.expect(\"m\");\n"),
            2
        );
    }

    #[test]
    fn test_modules_are_excluded() {
        let src = "fn f() { a.unwrap(); }\n\
                   #[cfg(test)]\n\
                   mod tests {\n\
                       fn g() { b.unwrap(); c.expect(\"x\"); }\n\
                   }\n\
                   fn h() { d.unwrap(); }\n";
        assert_eq!(count_unwraps(src), 2);
    }

    #[test]
    fn nested_braces_inside_test_module_do_not_end_the_skip() {
        let src = "#[cfg(test)]\n\
                   mod tests {\n\
                       fn g() {\n\
                           if x { y.unwrap(); } else { z.unwrap(); }\n\
                       }\n\
                   }\n\
                   fn h() { d.unwrap(); }\n";
        assert_eq!(count_unwraps(src), 1);
    }

    #[test]
    fn commented_out_unwraps_do_not_count() {
        assert_eq!(
            count_unwraps("// old: x.unwrap()\nlet y = 1; // .expect(\n"),
            0
        );
    }

    #[test]
    fn braceless_cfg_test_item_only_skips_itself() {
        let src = "#[cfg(test)]\n\
                   use std::fmt::Debug;\n\
                   fn h() { d.unwrap(); }\n";
        assert_eq!(count_unwraps(src), 1);
    }

    #[test]
    fn comment_stripping_is_line_local() {
        assert_eq!(strip_comments("code // tail"), "code ");
        assert_eq!(strip_comments("no comment"), "no comment");
    }

    #[test]
    fn fs_access_catches_write_forms() {
        assert_eq!(fs_access("std::fs::write(path, data)"), Some("std::fs"));
        assert_eq!(
            fs_access("let f = File::create(p)?;"),
            Some("File::create(")
        );
        assert_eq!(fs_access("fs::create_dir_all(dir)"), Some("fs::create_dir"));
        assert_eq!(fs_access("let x = offset(y);"), None);
    }

    #[test]
    fn fs_access_ignores_unrelated_identifiers() {
        // `fs` as a variable and doc mentions stripped earlier must not trip.
        assert_eq!(fs_access("let fs = 44_100.0;"), None);
        assert_eq!(fs_access("offset_file_size"), None);
    }
}
