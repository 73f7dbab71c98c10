//! The rolled-up, serializable end-of-run report.

use crate::histogram::Histogram;
use crate::json::JsonWriter;
use std::collections::BTreeMap;

/// Bounded free-form notes under one name.
#[derive(Debug, Clone, Default)]
pub struct NoteLog {
    /// Stored messages, oldest first (capped; see [`crate::Registry`]).
    pub entries: Vec<String>,
    /// Total notes ever appended, including ones dropped past the cap.
    pub total: u64,
}

/// A point-in-time roll-up of every metric in a registry.
///
/// All maps are `BTreeMap`s so both renderings are deterministic.
#[derive(Debug, Clone, Default)]
pub struct RunReport {
    /// Counter values by metric name.
    pub counters: BTreeMap<String, u64>,
    /// Histogram snapshots by metric name.
    pub histograms: BTreeMap<String, Histogram>,
    /// Note logs by name.
    pub notes: BTreeMap<String, NoteLog>,
}

impl RunReport {
    /// A report with no metrics (what a disabled handle produces).
    pub fn empty() -> Self {
        Self::default()
    }

    /// Whether the report carries no metrics at all.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.histograms.is_empty() && self.notes.is_empty()
    }

    /// The value of counter `name`, if it was ever bumped.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.get(name).copied()
    }

    /// The snapshot of histogram `name`, if it ever recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// The stored notes under `name`, oldest first.
    pub fn notes(&self, name: &str) -> Option<&[String]> {
        self.notes.get(name).map(|log| log.entries.as_slice())
    }

    /// Serializes the report as compact JSON (no serde; see
    /// [`JsonWriter`]). Histogram bins are elided — the JSON carries the
    /// derived statistics (count/sum/min/max/mean/p50/p90/p99), which is
    /// what downstream tooling consumes.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.string("schema", "oxterm-telemetry/1");
        w.begin_object_key("counters");
        for (name, value) in &self.counters {
            w.u64(name, *value);
        }
        w.end_object();
        w.begin_object_key("histograms");
        for (name, h) in &self.histograms {
            w.begin_object_key(name);
            w.u64("count", h.count);
            w.f64("sum", h.sum);
            w.f64("min", h.min);
            w.f64("max", h.max);
            w.f64_opt("mean", h.mean());
            w.f64_opt("p50", h.quantile(0.5));
            w.f64_opt("p90", h.quantile(0.9));
            w.f64_opt("p99", h.quantile(0.99));
            w.u64("underflow", h.underflow);
            w.u64("overflow", h.overflow);
            if h.negatives > 0 {
                w.u64("negatives", h.negatives);
            }
            w.end_object();
        }
        w.end_object();
        w.begin_object_key("notes");
        for (name, log) in &self.notes {
            w.begin_object_key(name);
            w.u64("total", log.total);
            w.begin_array_key("entries");
            for entry in &log.entries {
                w.array_string(entry);
            }
            w.end_array();
            w.end_object();
        }
        w.end_object();
        w.end_object();
        w.finish()
    }

    /// Renders the report as an aligned ASCII table for terminals.
    pub fn to_table(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("telemetry: no metrics recorded\n");
            return out;
        }
        if !self.counters.is_empty() {
            let w = self
                .counters
                .keys()
                .map(|k| k.len())
                .max()
                .unwrap_or(0)
                .max("counter".len());
            out.push_str(&format!("{:<w$}  {:>12}\n", "counter", "value"));
            out.push_str(&format!("{:-<w$}  {:->12}\n", "", ""));
            for (name, value) in &self.counters {
                out.push_str(&format!("{name:<w$}  {value:>12}\n"));
            }
            out.push('\n');
        }
        if !self.histograms.is_empty() {
            let w = self
                .histograms
                .keys()
                .map(|k| k.len())
                .max()
                .unwrap_or(0)
                .max("histogram".len());
            out.push_str(&format!(
                "{:<w$}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                "histogram", "count", "mean", "p50", "p90", "p99", "max"
            ));
            out.push_str(&format!(
                "{:-<w$}  {:->9}  {:->10}  {:->10}  {:->10}  {:->10}  {:->10}\n",
                "", "", "", "", "", "", ""
            ));
            for (name, h) in &self.histograms {
                out.push_str(&format!(
                    "{:<w$}  {:>9}  {:>10}  {:>10}  {:>10}  {:>10}  {:>10}\n",
                    name,
                    h.count,
                    fmt_stat(h.mean()),
                    fmt_stat(h.quantile(0.5)),
                    fmt_stat(h.quantile(0.9)),
                    fmt_stat(h.quantile(0.99)),
                    fmt_stat(if h.count > 0 { Some(h.max) } else { None }),
                ));
            }
            out.push('\n');
        }
        for (name, log) in &self.notes {
            let elided = log.total - log.entries.len() as u64;
            out.push_str(&format!("notes: {name} ({} total)\n", log.total));
            for entry in &log.entries {
                out.push_str(&format!("  - {entry}\n"));
            }
            if elided > 0 {
                out.push_str(&format!("  ... {elided} more elided\n"));
            }
        }
        out
    }
}

/// Compact engineering-notation formatting for table cells.
fn fmt_stat(v: Option<f64>) -> String {
    match v {
        None => "-".to_string(),
        Some(v) if !v.is_finite() => "-".to_string(),
        Some(v) => {
            let a = v.abs();
            if v == 0.0 {
                "0".to_string()
            } else if (1e-3..1e6).contains(&a) {
                format!("{v:.4}")
            } else {
                format!("{v:.3e}")
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Registry;

    fn sample_report() -> RunReport {
        let reg = Registry::new();
        reg.counter("spice.newton.solves").add(42);
        for k in 1..=100 {
            reg.record("rram.termination.latency_s", k as f64 * 1e-4);
        }
        reg.note("mc.engine.failed_run", "run 7 seed 0xdead");
        reg.report()
    }

    #[test]
    fn json_is_well_formed_and_complete() {
        let json = sample_report().to_json();
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""spice.newton.solves":42"#), "{json}");
        assert!(
            json.contains(r#""rram.termination.latency_s":{"count":100"#),
            "{json}"
        );
        assert!(json.contains(r#""p50":"#), "{json}");
        assert!(json.contains(r#""run 7 seed 0xdead""#), "{json}");
        // Balanced braces/brackets (quick structural sanity check; no
        // escaped braces appear in metric names).
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn histograms_keep_their_json_keys_at_sixteen_bins_per_decade() {
        let r = sample_report();
        let h = r.histogram("rram.termination.latency_s").expect("recorded");
        assert!((h.ratio().powi(16) / 10.0 - 1.0).abs() < 1e-14);
        let json = r.to_json();
        let body = &json[json
            .find(r#""rram.termination.latency_s":{"#)
            .expect("present")..];
        let keys: Vec<&str> = body[..body.find('}').expect("closed")]
            .split(',')
            .map(|kv| kv.rsplit('{').next().unwrap_or(kv))
            .map(|kv| kv.split(':').next().unwrap_or(kv).trim_matches('"'))
            .collect();
        assert_eq!(
            keys,
            [
                "count",
                "sum",
                "min",
                "max",
                "mean",
                "p50",
                "p90",
                "p99",
                "underflow",
                "overflow"
            ]
        );
    }

    #[test]
    fn empty_report_serializes_cleanly() {
        let r = RunReport::empty();
        assert!(r.is_empty());
        assert_eq!(
            r.to_json(),
            r#"{"schema":"oxterm-telemetry/1","counters":{},"histograms":{},"notes":{}}"#
        );
        assert!(r.to_table().contains("no metrics"));
    }

    #[test]
    fn table_lists_every_metric() {
        let table = sample_report().to_table();
        assert!(table.contains("spice.newton.solves"), "{table}");
        assert!(table.contains("rram.termination.latency_s"), "{table}");
        assert!(table.contains("run 7 seed 0xdead"), "{table}");
    }

    #[test]
    fn accessors_miss_gracefully() {
        let r = sample_report();
        assert_eq!(r.counter("nope"), None);
        assert!(r.histogram("nope").is_none());
        assert!(r.notes("nope").is_none());
        assert_eq!(r.counter("spice.newton.solves"), Some(42));
    }
}
