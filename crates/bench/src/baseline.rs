//! The drift gate: one committed baseline, one comparator, one bound.
//!
//! `repro_all --check` compares this run's per-level resistance and
//! energy/latency statistics against [`BASELINE_PATH`], read before the
//! run; `repro_all --bless` writes this run's [`summary`] there after it.
//! The baseline is the union of [`LevelReport::to_flat_json`] and
//! [`EnergyReport::to_flat_json`] under one schema tag; their `level.*`
//! and `energy.*` key spaces are disjoint.
//!
//! The gate is two-sided: a distribution moving in either direction is a
//! reproducibility break. Every gated statistic shares one bound,
//! [`DRIFT_FRAC`] (±5 %), far above the level histograms' value bound
//! (±1.2e-4 on resistance, ±2.5e-3 on energy and latency) yet well below
//! any real model or allocation change. Counts,
//! energy spreads, time saved and the rollups are informational.
//!
//! The module also owns the minimal flat-JSON reader behind every flat
//! summary in the workspace (the baseline and the bench history). It reads
//! string and number values only, because the workspace carries no serde
//! and the formats are fully under our control.

use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;

use crate::energy_report::EnergyReport;
use crate::levels_report::LevelReport;
use oxterm_telemetry::JsonWriter;

/// The committed baseline, relative to the repository root.
pub const BASELINE_PATH: &str = "results/baseline.json";

/// Schema tag of the baseline file.
pub const BASELINE_SCHEMA: &str = "oxterm-baseline/1";

/// Two-sided relative bound on every gated statistic.
pub const DRIFT_FRAC: f64 = 0.05;

/// A value from the flat summary JSON.
#[derive(Debug, Clone, PartialEq)]
pub enum BenchValue {
    /// Any JSON number (all summary metrics).
    Num(f64),
    /// A JSON string (the `bench` name field).
    Str(String),
}

/// Parses a flat JSON object of string/number values.
///
/// # Errors
///
/// Returns a message naming the offending byte offset for anything that is
/// not a single flat `{"key": <string|number>, ...}` object.
pub fn parse_flat_json(s: &str) -> Result<BTreeMap<String, BenchValue>, String> {
    let b = s.as_bytes();
    let mut i = 0usize;
    let skip_ws = |i: &mut usize| {
        while *i < b.len() && b[*i].is_ascii_whitespace() {
            *i += 1;
        }
    };
    let parse_string = |i: &mut usize| -> Result<String, String> {
        if b.get(*i) != Some(&b'"') {
            return Err(format!("expected '\"' at byte {i}", i = *i));
        }
        *i += 1;
        let mut out = String::new();
        while let Some(&c) = b.get(*i) {
            match c {
                b'"' => {
                    *i += 1;
                    return Ok(out);
                }
                b'\\' => {
                    *i += 1;
                    match b.get(*i) {
                        Some(b'"') => out.push('"'),
                        Some(b'\\') => out.push('\\'),
                        Some(b'n') => out.push('\n'),
                        Some(b't') => out.push('\t'),
                        other => return Err(format!("unsupported escape {other:?}")),
                    }
                    *i += 1;
                }
                _ => {
                    out.push(c as char);
                    *i += 1;
                }
            }
        }
        Err("unterminated string".to_string())
    };

    skip_ws(&mut i);
    if b.get(i) != Some(&b'{') {
        return Err(format!("expected '{{' at byte {i}"));
    }
    i += 1;
    let mut map = BTreeMap::new();
    skip_ws(&mut i);
    if b.get(i) == Some(&b'}') {
        return Ok(map);
    }
    loop {
        skip_ws(&mut i);
        let key = parse_string(&mut i)?;
        skip_ws(&mut i);
        if b.get(i) != Some(&b':') {
            return Err(format!("expected ':' after key {key:?} at byte {i}"));
        }
        i += 1;
        skip_ws(&mut i);
        let value = if b.get(i) == Some(&b'"') {
            BenchValue::Str(parse_string(&mut i)?)
        } else if matches!(b.get(i), Some(b'{') | Some(b'[')) {
            return Err(format!(
                "unsupported nested value for key {key:?} at byte {i}; \
                 the summary must stay a flat object"
            ));
        } else {
            let start = i;
            while i < b.len() && !matches!(b[i], b',' | b'}') && !b[i].is_ascii_whitespace() {
                i += 1;
            }
            let tok = &s[start..i];
            // `f64::from_str` happily accepts "NaN"/"inf", and bools/null
            // would otherwise be folded into a confusing number error —
            // reject both explicitly so a malformed summary never half-parses.
            if matches!(tok, "true" | "false" | "null") {
                return Err(format!(
                    "unsupported value {tok:?} for key {key:?} at byte {start}; \
                     only strings and finite numbers are allowed"
                ));
            }
            let v = tok
                .parse::<f64>()
                .map_err(|e| format!("bad number {tok:?} at byte {start}: {e}"))?;
            if !v.is_finite() {
                return Err(format!(
                    "non-finite number {tok:?} for key {key:?} at byte {start}; \
                     summary metrics must be finite"
                ));
            }
            BenchValue::Num(v)
        };
        map.insert(key, value);
        skip_ws(&mut i);
        match b.get(i) {
            Some(b',') => i += 1,
            Some(b'}') => return Ok(map),
            other => return Err(format!("expected ',' or '}}' at byte {i}, found {other:?}")),
        }
    }
}

/// Whether a flat key gates: the level quantiles and spread, and the
/// per-level energy, latency and energy saved. Every other key is
/// informational.
fn gated(key: &str) -> bool {
    let stat = key.rsplit('.').next().unwrap_or_default();
    match key.split('.').next() {
        Some("level") => matches!(stat, "p01" | "p50" | "p99" | "sigma"),
        Some("energy") => matches!(
            stat,
            "mean_j" | "p50_j" | "mean_latency_s" | "p50_latency_s" | "saved_j"
        ),
        _ => false,
    }
}

/// This run's baseline summary: the union of the level and energy flat
/// summaries under [`BASELINE_SCHEMA`], keys sorted.
///
/// # Errors
///
/// Propagates a flat summary that does not parse.
pub fn summary(levels: &LevelReport, energy: &EnergyReport) -> Result<String, String> {
    let mut all = BTreeMap::new();
    for part in [levels.to_flat_json(), energy.to_flat_json()] {
        all.extend(parse_flat_json(&part)?);
    }
    all.remove("schema");
    let mut w = JsonWriter::new();
    w.begin_object();
    w.string("schema", BASELINE_SCHEMA);
    for (key, value) in &all {
        match value {
            BenchValue::Num(v) => w.f64(key, *v),
            BenchValue::Str(s) => w.string(key, s),
        };
    }
    w.end_object();
    Ok(w.finish())
}

/// One gated statistic, as the baseline and this run have it.
#[derive(Debug, Clone, PartialEq)]
struct Delta {
    /// The flat key (`level.0011.p50`).
    key: String,
    /// Baseline value (`None` when the baseline lacks the key).
    baseline: Option<f64>,
    /// Fresh value (`None` when this run lacks the key).
    fresh: Option<f64>,
}

impl Delta {
    /// Signed relative change; `None` when a side is missing or the
    /// baseline value is zero.
    fn rel(&self) -> Option<f64> {
        match (self.baseline, self.fresh) {
            (Some(b), Some(f)) if b != 0.0 => Some((f - b) / b),
            _ => None,
        }
    }

    /// Whether the statistic fails the gate: it moved more than
    /// [`DRIFT_FRAC`] either way, or it cannot be compared at all.
    fn drifted(&self) -> bool {
        self.rel().is_none_or(|r| r.abs() > DRIFT_FRAC)
    }
}

/// Pairs every [`gated`] key of either flat summary, key-sorted.
///
/// # Errors
///
/// Propagates flat-JSON parse errors, naming the offending side.
fn compare(baseline_json: &str, fresh_json: &str) -> Result<Vec<Delta>, String> {
    let base = parse_flat_json(baseline_json).map_err(|e| format!("baseline: {e}"))?;
    let fresh = parse_flat_json(fresh_json).map_err(|e| format!("fresh: {e}"))?;
    let num = |m: &BTreeMap<String, BenchValue>, k: &str| match m.get(k) {
        Some(BenchValue::Num(v)) => Some(*v),
        _ => None,
    };
    let keys: BTreeSet<&String> = base.keys().chain(fresh.keys()).collect();
    Ok(keys
        .into_iter()
        .filter(|k| gated(k))
        .map(|k| Delta {
            key: k.clone(),
            baseline: num(&base, k),
            fresh: num(&fresh, k),
        })
        .collect())
}

/// The verdict block: one line per drifted statistic, then the worst key
/// (an incomparable statistic outranks any finite change).
fn render(deltas: &[Delta]) -> String {
    let drifted: Vec<&Delta> = deltas.iter().filter(|d| d.drifted()).collect();
    let bound = DRIFT_FRAC * 100.0;
    let mut out = String::new();
    for d in &drifted {
        let why = match (d.baseline, d.fresh, d.rel()) {
            (Some(b), Some(f), Some(r)) => format!("{b:.4e} -> {f:.4e} ({:+.2}%)", r * 100.0),
            (None, _, _) => "missing from baseline".to_string(),
            (_, None, _) => "missing from fresh run".to_string(),
            _ => "zero in baseline".to_string(),
        };
        let _ = writeln!(out, "baseline: DRIFT {}: {why}", d.key);
    }
    let magnitude = |d: &Delta| d.rel().map_or(f64::INFINITY, f64::abs);
    match drifted
        .iter()
        .max_by(|a, b| magnitude(a).total_cmp(&magnitude(b)))
    {
        Some(worst) => {
            let _ = writeln!(
                out,
                "baseline: FAIL — worst-drifting key: {} ({} of {} statistics over ±{bound:.0}%)",
                worst.key,
                drifted.len(),
                deltas.len()
            );
        }
        None => {
            let _ = writeln!(
                out,
                "baseline: OK ({} statistics within ±{bound:.0}%)",
                deltas.len()
            );
        }
    }
    out
}

/// The `--check` verdict. `baseline` is [`BASELINE_PATH`] as read before
/// the run; `fresh` is this run's [`summary`], `None` when the run built
/// no level or energy report. Returns the rendered verdict: `Ok` when
/// every gated statistic holds, `Err` otherwise — including a baseline
/// that could not be read, since a gate with nothing to compare against
/// has not passed.
///
/// # Errors
///
/// As above: any drift, a missing side, or a summary that does not parse.
pub fn check(baseline: std::io::Result<String>, fresh: Option<&str>) -> Result<String, String> {
    let baseline = baseline.map_err(|e| {
        format!(
            "baseline: cannot read {BASELINE_PATH}: {e}\n\
             bless one from a trusted run with `repro_all --bless`\n"
        )
    })?;
    let fresh = fresh.ok_or("baseline: this run built no level/energy summary to compare\n")?;
    let deltas = compare(&baseline, fresh).map_err(|e| format!("baseline: {e}\n"))?;
    let verdict = render(&deltas);
    if deltas.iter().any(Delta::drifted) {
        Err(verdict)
    } else {
        Ok(verdict)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::energy_report::WorstCaseBaseline;
    use oxterm_telemetry::joule::JouleLedger;
    use oxterm_telemetry::levels::LevelTracker;

    #[test]
    fn parser_reads_flat_object() {
        let m = parse_flat_json("{\"a\": 1.5, \"b\": \"x\", \"c\": -2e3}").unwrap();
        assert_eq!(m["a"], BenchValue::Num(1.5));
        assert_eq!(m["b"], BenchValue::Str("x".to_string()));
        assert_eq!(m["c"], BenchValue::Num(-2000.0));
    }

    #[test]
    fn parser_rejects_malformed_input() {
        assert!(parse_flat_json("[1, 2]").is_err());
        assert!(parse_flat_json("{\"a\" 1}").is_err());
        assert!(parse_flat_json("{\"a\": nope}").is_err());
        assert!(parse_flat_json("{\"a\": 1").is_err());
    }

    #[test]
    fn empty_object_parses() {
        assert!(parse_flat_json("{}").unwrap().is_empty());
    }

    #[test]
    fn parser_rejects_non_finite_numbers() {
        for bad in ["NaN", "nan", "inf", "-inf", "Infinity"] {
            let err = parse_flat_json(&format!("{{\"wall_seconds\": {bad}}}")).expect_err(bad);
            assert!(err.contains("non-finite"), "{bad}: {err}");
        }
    }

    #[test]
    fn parser_rejects_unsupported_value_types() {
        for bad in ["true", "false", "null"] {
            let err = parse_flat_json(&format!("{{\"ok\": {bad}}}")).expect_err(bad);
            assert!(err.contains("unsupported value"), "{bad}: {err}");
        }
        let nested = parse_flat_json("{\"a\": {\"b\": 1}}").expect_err("nested object");
        assert!(nested.contains("nested"), "{nested}");
        assert!(parse_flat_json("{\"a\": [1, 2]}").is_err());
    }

    /// Three resistance levels from a locally fed tracker; `shift` scales
    /// level 0001's resistances, modelling a drifted calibration.
    fn levels(shift: f64) -> LevelReport {
        let t = LevelTracker::enabled();
        let mut x = 0xBEEF_u64;
        let mut unit = || {
            // Irwin–Hall(12) pseudo-Gaussian from xorshift.
            let mut s = 0.0;
            for _ in 0..12 {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                s += (x % 10_000) as f64 / 10_000.0;
            }
            s - 6.0
        };
        for _ in 0..200 {
            t.observe(0, 50e-6, 40e3 + 0.4e3 * unit());
            t.observe(1, 45e-6, shift * (48e3 + 0.5e3 * unit()));
            t.observe(2, 40e-6, 58e3 + 0.6e3 * unit());
        }
        LevelReport::from_snapshot(&t.snapshot()).expect("three levels")
    }

    /// Two energy/latency levels from a locally fed ledger.
    fn energy() -> EnergyReport {
        let l = JouleLedger::enabled();
        let mut x = 0x9e37_79b9_u64;
        let mut jitter = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            1.0 + ((x % 1000) as f64 / 1000.0 - 0.5) * 0.1
        };
        for _ in 0..200 {
            l.observe_level(0, 36e-6, 15e-12 * jitter(), 0.4e-6 * jitter());
            l.observe_level(15, 6e-6, 80e-12 * jitter(), 4.0e-6 * jitter());
        }
        let worst = WorstCaseBaseline {
            energy_j: 600e-12,
            latency_s: 60e-6,
        };
        EnergyReport::from_snapshot(&l.snapshot(), worst).expect("two levels")
    }

    fn flat(levels: &LevelReport, energy: &EnergyReport) -> String {
        summary(levels, energy).expect("flat summaries parse")
    }

    /// The failing verdict of `check` on a baseline/fresh pair.
    fn failure(baseline: &str, fresh: &str) -> String {
        check(Ok(baseline.to_string()), Some(fresh)).expect_err("gate fails")
    }

    #[test]
    fn summary_is_the_union_under_one_schema() {
        let parsed = parse_flat_json(&flat(&levels(1.0), &energy())).expect("parses");
        assert_eq!(parsed["schema"], BenchValue::Str(BASELINE_SCHEMA.into()));
        assert!(parsed.contains_key("level.0010.p99"));
        assert!(parsed.contains_key("worst.sigma_margin"));
        assert!(parsed.contains_key("energy.1111.saved_j"));
        assert!(parsed.contains_key("rollup.attributed_frac"));
        // 3 levels × 4 resistance statistics + 2 levels × 5 energy ones.
        assert_eq!(parsed.keys().filter(|k| gated(k)).count(), 22);
    }

    #[test]
    fn identical_summaries_pass() {
        let base = flat(&levels(1.0), &energy());
        let verdict = check(Ok(base.clone()), Some(&base)).expect("gate passes");
        assert!(verdict.contains("OK (22 statistics"), "{verdict}");
    }

    #[test]
    fn shifted_level_quantiles_fail_and_name_the_level() {
        let base = flat(&levels(1.0), &energy());
        let verdict = failure(&base, &flat(&levels(1.08), &energy()));
        assert!(
            verdict.contains("worst-drifting key: level.0001."),
            "{verdict}"
        );
    }

    #[test]
    fn shifted_latency_fails_and_names_the_level() {
        let base = flat(&levels(1.0), &energy());
        let mut slow = energy();
        for l in slow.levels.iter_mut().filter(|l| l.code == 0) {
            l.mean_latency_s *= 1.2;
            l.p50_latency_s *= 1.2;
        }
        let verdict = failure(&base, &flat(&levels(1.0), &slow));
        assert!(
            verdict.contains("worst-drifting key: energy.0000."),
            "{verdict}"
        );
    }

    #[test]
    fn informational_keys_never_gate() {
        let base = flat(&levels(1.0), &energy());
        let mut counts = levels(1.0);
        for l in &mut counts.levels {
            l.n = l.n * 3 / 2;
        }
        let mut spreads = energy();
        for l in &mut spreads.levels {
            l.sigma_j *= 1.5;
            l.saved_s *= 1.5;
        }
        let fresh = flat(&counts, &spreads);
        assert_ne!(base, fresh);
        check(Ok(base), Some(&fresh)).expect("informational moves pass");
    }

    #[test]
    fn a_gated_key_missing_from_either_side_fails() {
        let full = flat(&levels(1.0), &energy());
        let mut two = levels(1.0);
        two.levels.retain(|l| l.code != 2);
        let short = flat(&two, &energy());
        let verdict = failure(&full, &short);
        assert!(
            verdict.contains("level.0010.p50: missing from fresh run"),
            "{verdict}"
        );
        let verdict = failure(&short, &full);
        assert!(
            verdict.contains("level.0010.p50: missing from baseline"),
            "{verdict}"
        );
    }

    #[test]
    fn a_zero_baseline_value_fails() {
        let mut zeroed = levels(1.0);
        zeroed.levels[0].p50 = 0.0;
        let verdict = failure(&flat(&zeroed, &energy()), &flat(&levels(1.0), &energy()));
        assert!(
            verdict.contains("level.0000.p50: zero in baseline"),
            "{verdict}"
        );
    }

    #[test]
    fn malformed_json_on_either_side_is_an_error() {
        let good = flat(&levels(1.0), &energy());
        assert!(compare("[1]", &good).is_err_and(|e| e.starts_with("baseline:")));
        assert!(compare(&good, "nope").is_err_and(|e| e.starts_with("fresh:")));
        assert!(check(Ok("{".into()), Some(&good)).is_err());
    }

    #[test]
    fn a_requested_gate_without_a_baseline_fails() {
        let fresh = flat(&levels(1.0), &energy());
        let missing = std::io::Error::from(std::io::ErrorKind::NotFound);
        let verdict = check(Err(missing), Some(&fresh)).expect_err("no baseline, no pass");
        assert!(verdict.contains(BASELINE_PATH), "{verdict}");
        assert!(verdict.contains("--bless"), "{verdict}");
        assert!(check(Ok(fresh), None).is_err());
    }
}
