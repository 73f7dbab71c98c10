//! Prometheus text-format export of the telemetry registry.
//!
//! A run's [`RunReport`] — counters, histograms, and folded `profile.*`
//! phase totals — renders to the Prometheus text exposition format
//! (version 0.0.4), written to a file at exit (`--metrics-out=PATH`).
//!
//! Mapping:
//! - counters → `# TYPE … counter` with the value as-is; metric names are
//!   `oxterm_` + the dotted name with non-`[a-zA-Z0-9_:]` bytes folded to
//!   `_` (`spice.newton.iterations` → `oxterm_spice_newton_iterations`).
//! - histograms → `# TYPE … summary`: `{quantile="0.5|0.9|0.99"}` series
//!   plus `_sum` and `_count`, matching the stats the JSON report carries.
//! - notes → one `oxterm_note_events` counter per log (the total ever
//!   appended), labeled with the log name.
//!
//! [`validate_prometheus`] is a strict line-level checker used by the
//! integration tests (and available to external tooling) so the format
//! claim is pinned, not assumed.

use crate::report::RunReport;
use std::fmt::Write as _;

/// Folds a dotted metric name into a valid Prometheus metric name with the
/// workspace prefix: `spice.newton.iterations` →
/// `oxterm_spice_newton_iterations`.
pub fn metric_name(dotted: &str) -> String {
    let mut out = String::with_capacity(dotted.len() + 7);
    out.push_str("oxterm_");
    for c in dotted.chars() {
        if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
            out.push(c);
        } else {
            out.push('_');
        }
    }
    out
}

fn escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            c => out.push(c),
        }
    }
    out
}

fn push_float(out: &mut String, v: f64) {
    if v.is_nan() {
        out.push_str("NaN");
    } else if v == f64::INFINITY {
        out.push_str("+Inf");
    } else if v == f64::NEG_INFINITY {
        out.push_str("-Inf");
    } else {
        let _ = write!(out, "{v:?}");
    }
}

/// Renders `report` in the Prometheus text exposition format (0.0.4).
/// Deterministic: metrics appear in `BTreeMap` order.
pub fn to_prometheus(report: &RunReport) -> String {
    let mut out = String::new();
    for (name, value) in &report.counters {
        let m = metric_name(name);
        let _ = writeln!(out, "# HELP {m} oxterm counter {name}");
        let _ = writeln!(out, "# TYPE {m} counter");
        let _ = writeln!(out, "{m} {value}");
    }
    for (name, h) in &report.histograms {
        let m = metric_name(name);
        let _ = writeln!(out, "# HELP {m} oxterm histogram {name}");
        let _ = writeln!(out, "# TYPE {m} summary");
        for (q, label) in [(0.5, "0.5"), (0.9, "0.9"), (0.99, "0.99")] {
            if let Some(v) = h.quantile(q) {
                let mut line = format!("{m}{{quantile=\"{label}\"}} ");
                push_float(&mut line, v);
                let _ = writeln!(out, "{line}");
            }
        }
        let mut sum_line = format!("{m}_sum ");
        push_float(&mut sum_line, h.sum);
        let _ = writeln!(out, "{sum_line}");
        let _ = writeln!(out, "{m}_count {}", h.count);
    }
    for (name, log) in &report.notes {
        let _ = writeln!(
            out,
            "# TYPE oxterm_note_events counter\noxterm_note_events{{log=\"{}\"}} {}",
            escape_label(name),
            log.total
        );
    }
    out
}

/// Renders a per-level distribution snapshot as Prometheus gauges, one
/// sample per (level, statistic). Levels are labeled by their binary
/// code (`level="0011"`), matching the figure binaries' row labels.
/// Deterministic: the snapshot is already code-ordered. The output
/// concatenates cleanly after [`to_prometheus`].
#[must_use]
pub fn render_levels(snap: &crate::levels::LevelsSnapshot) -> String {
    let mut out = String::new();
    if snap.levels.is_empty() {
        return out;
    }
    let label = |code: u16| format!("{code:04b}");
    let _ = writeln!(
        out,
        "# HELP oxterm_levels_observations oxterm per-level MC observations"
    );
    let _ = writeln!(out, "# TYPE oxterm_levels_observations counter");
    for l in &snap.levels {
        let _ = writeln!(
            out,
            "oxterm_levels_observations{{level=\"{}\"}} {}",
            label(l.code),
            l.n
        );
    }
    let _ = writeln!(
        out,
        "# HELP oxterm_levels_quantile_ohms oxterm streaming read-resistance quantiles"
    );
    let _ = writeln!(out, "# TYPE oxterm_levels_quantile_ohms gauge");
    for l in &snap.levels {
        for (q, v) in [("0.01", l.p01), ("0.5", l.p50), ("0.99", l.p99)] {
            let mut line = format!(
                "oxterm_levels_quantile_ohms{{level=\"{}\",quantile=\"{q}\"}} ",
                label(l.code)
            );
            push_float(&mut line, v);
            let _ = writeln!(out, "{line}");
        }
    }
    let _ = writeln!(
        out,
        "# HELP oxterm_levels_sigma_ohms oxterm per-level resistance standard deviation"
    );
    let _ = writeln!(out, "# TYPE oxterm_levels_sigma_ohms gauge");
    for l in &snap.levels {
        let mut line = format!("oxterm_levels_sigma_ohms{{level=\"{}\"}} ", label(l.code));
        push_float(&mut line, l.std_dev);
        let _ = writeln!(out, "{line}");
    }
    out
}

/// Renders a joule-ledger snapshot as Prometheus series: per-level energy
/// and latency gauges (labeled like [`render_levels`]), per-role×phase
/// absorbed-energy gauges, and the observation counters. Deterministic
/// (snapshot vectors are code- and role-ordered) and empty when the
/// ledger saw nothing, so it concatenates cleanly after
/// [`to_prometheus`].
#[must_use]
pub fn render_energy(snap: &crate::joule::JouleSnapshot) -> String {
    let mut out = String::new();
    if snap.is_empty() {
        return out;
    }
    let label = |code: u16| format!("{code:04b}");
    if !snap.levels.is_empty() {
        let _ = writeln!(
            out,
            "# HELP oxterm_energy_observations oxterm per-level program observations"
        );
        let _ = writeln!(out, "# TYPE oxterm_energy_observations counter");
        for l in &snap.levels {
            let _ = writeln!(
                out,
                "oxterm_energy_observations{{level=\"{}\"}} {}",
                label(l.code),
                l.n
            );
        }
        let _ = writeln!(
            out,
            "# HELP oxterm_energy_level_joules oxterm per-level RESET energy"
        );
        let _ = writeln!(out, "# TYPE oxterm_energy_level_joules gauge");
        for l in &snap.levels {
            for (stat, v) in [("mean", l.mean_j), ("p50", l.p50_j), ("max", l.max_j)] {
                let mut line = format!(
                    "oxterm_energy_level_joules{{level=\"{}\",stat=\"{stat}\"}} ",
                    label(l.code)
                );
                push_float(&mut line, v);
                let _ = writeln!(out, "{line}");
            }
        }
        let _ = writeln!(
            out,
            "# HELP oxterm_energy_level_latency_seconds oxterm per-level program latency"
        );
        let _ = writeln!(out, "# TYPE oxterm_energy_level_latency_seconds gauge");
        for l in &snap.levels {
            for (stat, v) in [
                ("mean", l.mean_latency_s),
                ("p50", l.p50_latency_s),
                ("max", l.max_latency_s),
            ] {
                let mut line = format!(
                    "oxterm_energy_level_latency_seconds{{level=\"{}\",stat=\"{stat}\"}} ",
                    label(l.code)
                );
                push_float(&mut line, v);
                let _ = writeln!(out, "{line}");
            }
        }
    }
    let roles: Vec<_> = snap
        .roles
        .iter()
        .filter(|r| r.phase_j.iter().any(|&j| j != 0.0))
        .collect();
    if !roles.is_empty() {
        let _ = writeln!(
            out,
            "# HELP oxterm_energy_role_joules oxterm absorbed energy by circuit role and program phase"
        );
        let _ = writeln!(out, "# TYPE oxterm_energy_role_joules gauge");
        for r in &roles {
            for p in crate::joule::PHASES {
                let j = r.phase_j[p.index()];
                if j == 0.0 {
                    continue;
                }
                let mut line = format!(
                    "oxterm_energy_role_joules{{role=\"{}\",phase=\"{}\"}} ",
                    r.role.label(),
                    p.label()
                );
                push_float(&mut line, j);
                let _ = writeln!(out, "{line}");
            }
        }
        let _ = writeln!(
            out,
            "# HELP oxterm_energy_dissipated_joules_total oxterm total dissipated energy"
        );
        let _ = writeln!(out, "# TYPE oxterm_energy_dissipated_joules_total gauge");
        let mut line = "oxterm_energy_dissipated_joules_total ".to_string();
        push_float(&mut line, snap.total_dissipated_j());
        let _ = writeln!(out, "{line}");
    }
    out
}

fn valid_metric_name(name: &str) -> bool {
    let mut chars = name.chars();
    match chars.next() {
        Some(c) if c.is_ascii_alphabetic() || c == '_' || c == ':' => {}
        _ => return false,
    }
    chars.all(|c| c.is_ascii_alphanumeric() || c == '_' || c == ':')
}

fn valid_sample_value(v: &str) -> bool {
    matches!(v, "NaN" | "+Inf" | "-Inf" | "Inf") || v.parse::<f64>().is_ok()
}

/// Checks that `text` is well-formed Prometheus text exposition format:
/// every non-empty line is a `# HELP`/`# TYPE` comment with a valid metric
/// name (and a known type), or a sample `name[{labels}] value` whose name
/// is valid and whose value parses. Returns the first offense.
pub fn validate_prometheus(text: &str) -> Result<(), String> {
    for (lineno, line) in text.lines().enumerate() {
        let n = lineno + 1;
        if line.trim().is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix("# ") {
            let mut parts = rest.splitn(3, ' ');
            let kind = parts.next().unwrap_or("");
            let name = parts.next().unwrap_or("");
            match kind {
                "HELP" => {
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: bad HELP metric name {name:?}"));
                    }
                }
                "TYPE" => {
                    if !valid_metric_name(name) {
                        return Err(format!("line {n}: bad TYPE metric name {name:?}"));
                    }
                    let ty = parts.next().unwrap_or("");
                    if !matches!(
                        ty,
                        "counter" | "gauge" | "summary" | "histogram" | "untyped"
                    ) {
                        return Err(format!("line {n}: unknown metric type {ty:?}"));
                    }
                }
                _ => return Err(format!("line {n}: unknown comment kind {kind:?}")),
            }
            continue;
        }
        if line.starts_with('#') {
            // Bare comments are legal.
            continue;
        }
        // Sample line: name[{labels}] value [timestamp]
        let (name_part, value_part) = match line.find([' ', '{']) {
            Some(i) if line.as_bytes()[i] == b'{' => {
                let close = line
                    .rfind('}')
                    .ok_or_else(|| format!("line {n}: unclosed label braces"))?;
                let labels = &line[i + 1..close];
                for pair in labels.split(',').filter(|p| !p.is_empty()) {
                    let (k, v) = pair
                        .split_once('=')
                        .ok_or_else(|| format!("line {n}: bad label pair {pair:?}"))?;
                    if !valid_metric_name(k) {
                        return Err(format!("line {n}: bad label name {k:?}"));
                    }
                    if !(v.starts_with('"') && v.ends_with('"') && v.len() >= 2) {
                        return Err(format!("line {n}: unquoted label value {v:?}"));
                    }
                }
                (&line[..i], line[close + 1..].trim())
            }
            Some(i) => (&line[..i], line[i + 1..].trim()),
            None => return Err(format!("line {n}: sample without value: {line:?}")),
        };
        if !valid_metric_name(name_part) {
            return Err(format!("line {n}: bad metric name {name_part:?}"));
        }
        let mut fields = value_part.split_whitespace();
        let value = fields
            .next()
            .ok_or_else(|| format!("line {n}: sample without value: {line:?}"))?;
        if !valid_sample_value(value) {
            return Err(format!("line {n}: bad sample value {value:?}"));
        }
        if let Some(ts) = fields.next() {
            if ts.parse::<i64>().is_err() {
                return Err(format!("line {n}: bad timestamp {ts:?}"));
            }
        }
        if fields.next().is_some() {
            return Err(format!("line {n}: trailing fields: {line:?}"));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Telemetry;

    #[test]
    fn metric_names_are_sanitized() {
        assert_eq!(
            metric_name("spice.newton.iterations"),
            "oxterm_spice_newton_iterations"
        );
        assert_eq!(
            metric_name("profile.tran.newton.solve_lu.self_ns"),
            "oxterm_profile_tran_newton_solve_lu_self_ns"
        );
        assert_eq!(metric_name("weird name-1"), "oxterm_weird_name_1");
    }

    #[test]
    fn levels_render_is_valid_and_labeled() {
        let tracker = crate::levels::LevelTracker::enabled();
        for i in 0..50 {
            tracker.observe(3, 20e-6, 40e3 + i as f64 * 25.0);
            tracker.observe(12, 80e-6, 150e3 + i as f64 * 50.0);
        }
        let text = render_levels(&tracker.snapshot());
        validate_prometheus(&text).unwrap();
        assert!(text.contains("oxterm_levels_observations{level=\"0011\"} 50"));
        assert!(text.contains("oxterm_levels_quantile_ohms{level=\"1100\",quantile=\"0.5\"}"));
        assert!(text.contains("oxterm_levels_sigma_ohms{level=\"0011\"}"));
        // An empty snapshot renders as nothing, so concatenation after
        // to_prometheus stays valid even when the tracker is disarmed.
        assert!(render_levels(&crate::levels::LevelsSnapshot::default()).is_empty());
    }

    #[test]
    fn energy_render_is_valid_and_labeled() {
        use crate::joule::{DeviceClass, JouleLedger, ProgramPhase, Role};
        let ledger = JouleLedger::enabled();
        for i in 0..40 {
            ledger.observe_level(5, 26e-6, 20e-12 + i as f64 * 1e-13, 0.5e-6);
        }
        ledger.record_energy_in_phase(
            DeviceClass::RramCell,
            Role::RramCell,
            ProgramPhase::Reset,
            9e-10,
        );
        let text = render_energy(&ledger.snapshot());
        validate_prometheus(&text).unwrap();
        assert!(text.contains("oxterm_energy_observations{level=\"0101\"} 40"));
        assert!(text.contains("oxterm_energy_level_joules{level=\"0101\",stat=\"p50\"}"));
        assert!(text.contains("oxterm_energy_level_latency_seconds{level=\"0101\",stat=\"mean\"}"));
        assert!(text.contains("oxterm_energy_role_joules{role=\"rram_cell\",phase=\"reset\"}"));
        assert!(text.contains("oxterm_energy_dissipated_joules_total"));
        // A disarmed/unfed ledger renders as nothing, keeping the
        // concatenation after to_prometheus valid.
        assert!(render_energy(&JouleLedger::disabled().snapshot()).is_empty());
    }

    #[test]
    fn render_is_valid_and_complete() {
        let tel = Telemetry::enabled();
        tel.add("spice.newton.iterations", 185);
        tel.record("mc.engine.run_seconds", 1.5e-3);
        tel.record("mc.engine.run_seconds", 2.5e-3);
        tel.note("mc.engine.failed_run", "run 7");
        let text = to_prometheus(&tel.report());
        validate_prometheus(&text).unwrap();
        assert!(
            text.contains("oxterm_spice_newton_iterations 185"),
            "{text}"
        );
        assert!(text.contains("# TYPE oxterm_mc_engine_run_seconds summary"));
        assert!(text.contains("oxterm_mc_engine_run_seconds_count 2"));
        assert!(text.contains("quantile=\"0.5\""));
        assert!(text.contains("oxterm_note_events{log=\"mc.engine.failed_run\"} 1"));
    }

    #[test]
    fn empty_report_renders_empty_and_valid() {
        let text = to_prometheus(&RunReport::empty());
        assert!(text.is_empty());
        validate_prometheus(&text).unwrap();
    }

    #[test]
    fn validator_rejects_malformed_lines() {
        assert!(validate_prometheus("1bad_name 3\n").is_err());
        assert!(validate_prometheus("ok_name notanumber\n").is_err());
        assert!(validate_prometheus("# TYPE x mystery\n").is_err());
        assert!(validate_prometheus("name{label=unquoted} 1\n").is_err());
        assert!(validate_prometheus("name{l=\"v\"} 1 2 3\n").is_err());
        assert!(validate_prometheus("just_a_name\n").is_err());
        validate_prometheus("name{l=\"v\"} 1 1700000000\n").unwrap();
        validate_prometheus("x_total +Inf\n").unwrap();
    }
}
