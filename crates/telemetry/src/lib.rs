//! Instrumentation substrate for the oxterm workspace.
//!
//! Every long-running part of the reproduction pipeline — Newton–Raphson
//! solves, adaptive transient stepping, Monte Carlo campaigns, the RESET
//! write-termination chop — reports into this crate instead of printing.
//! The design goals, in order:
//!
//! 1. **Free when off.** A disabled [`Telemetry`] handle is a `None`; every
//!    recording call is one branch. Hot kernels stay hot.
//! 2. **Thread-safe when on.** Counters are relaxed atomics, histogram bins
//!    are atomic arrays; Monte Carlo workers record concurrently without a
//!    lock on the recording path (only metric *registration* takes a lock,
//!    once per metric name).
//! 3. **Structured at the end.** [`Registry::report`] rolls everything up
//!    into a [`RunReport`] that renders as an ASCII table for humans or
//!    hand-rolled JSON (no serde) for the perf-trajectory tooling.
//!
//! Metric names follow `crate.subsystem.metric`, e.g.
//! `spice.newton.iterations` or `mc.engine.run_seconds` (see DESIGN.md,
//! "Observability").
//!
//! Aggregates answer *how much*. [`profiler`] answers *where inside the
//! solver*: a fixed catalog of nestable phases (stamp / factorize /
//! residual / timestep control / MC workers) with self-vs-child wall time
//! and allocation counts. [`levels`] and [`joule`] answer *did any
//! level's distribution drift* and *where did the energy go*: streaming
//! per-level resistance sketches and a per-device energy/latency ledger.
//! Each mirrors the [`Telemetry`] handle pattern — disabled is one
//! branch, installed once per process. [`progress`] owns the opt-in
//! switch for live Monte Carlo campaign progress on stderr.
//! [`postmortem`] owns failure artifacts:
//! solver layers hand it structured reports on non-convergence, and it is
//! the only path that writes them to disk (solver crates are lint-banned
//! from direct `std::fs` writes).
//!
//! # Handles
//!
//! [`Telemetry`] is a cheap `Arc` wrapper, cloned freely into workers.
//! Library code takes the process-global handle ([`Telemetry::global`]),
//! which is disabled unless a binary opted in via [`Telemetry::install`]
//! before starting work; tests build private enabled handles instead and
//! never touch the global.
//!
//! ```
//! use oxterm_telemetry::Telemetry;
//!
//! let tel = Telemetry::enabled();
//! tel.incr("mc.engine.runs");
//! tel.record("mc.engine.run_seconds", 1.25e-3);
//! {
//!     let _span = tel.span("spice.tran.run_seconds");
//!     // ... timed work ...
//! }
//! let report = tel.report();
//! assert_eq!(report.counter("mc.engine.runs"), Some(1));
//! println!("{}", report.to_table());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod allocs;
mod counter;
mod histogram;
pub mod joule;
mod json;
pub mod jsonl;
pub mod levels;
pub mod postmortem;
pub mod profiler;
pub mod progress;
mod registry;
mod report;
pub mod sketch;
mod span;

pub use counter::Counter;
pub use histogram::{Histogram, HistogramSnapshot};
pub use joule::{DeviceClass, JouleLedger, JouleSnapshot, ProgramPhase, Role};
pub use json::JsonWriter;
pub use jsonl::JsonlSplit;
pub use levels::{LevelCounts, LevelSummary, LevelTracker, LevelsSnapshot};
pub use profiler::{PhaseGuard, PhaseId, PhaseRole, PhaseStats, ProfileSnapshot, Profiler};
pub use registry::Registry;
pub use report::RunReport;
pub use sketch::{QuantileSketch, Welford};
pub use span::Span;

use std::sync::{Arc, OnceLock};

/// A cheap, cloneable instrumentation handle; `None` inside means disabled
/// and every operation is a no-op costing one branch.
#[derive(Debug, Clone, Default)]
pub struct Telemetry {
    inner: Option<Arc<Registry>>,
}

static GLOBAL: OnceLock<Telemetry> = OnceLock::new();
static DISABLED: Telemetry = Telemetry { inner: None };

impl Telemetry {
    /// A disabled handle: all operations are no-ops.
    pub const fn disabled() -> Self {
        Telemetry { inner: None }
    }

    /// A fresh enabled handle with its own empty registry.
    pub fn enabled() -> Self {
        Telemetry {
            inner: Some(Arc::new(Registry::new())),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The process-global handle used by library instrumentation points.
    ///
    /// Disabled until a binary calls [`Telemetry::install`]; installing
    /// must happen before the instrumented work starts.
    #[inline]
    pub fn global() -> &'static Telemetry {
        GLOBAL.get().unwrap_or(&DISABLED)
    }

    /// Installs `handle` as the process-global telemetry. The first call
    /// wins; returns `false` if a handle was already installed.
    pub fn install(handle: Telemetry) -> bool {
        GLOBAL.set(handle).is_ok()
    }

    /// The underlying registry, if enabled.
    pub fn registry(&self) -> Option<&Registry> {
        self.inner.as_deref()
    }

    /// Increments the counter `name` by one.
    #[inline]
    pub fn incr(&self, name: &str) {
        self.add(name, 1);
    }

    /// Adds `by` to the counter `name`.
    #[inline]
    pub fn add(&self, name: &str, by: u64) {
        if let Some(reg) = &self.inner {
            if by > 0 {
                reg.counter(name).add(by);
            }
        }
    }

    /// Records `value` into the histogram `name`.
    #[inline]
    pub fn record(&self, name: &str, value: f64) {
        if let Some(reg) = &self.inner {
            reg.histogram(name).record(value);
        }
    }

    /// Appends a bounded free-form note under `name` (e.g. the seed of a
    /// failed Monte Carlo run, kept for replay).
    #[inline]
    pub fn note(&self, name: &str, message: impl AsRef<str>) {
        if let Some(reg) = &self.inner {
            reg.note(name, message.as_ref());
        }
    }

    /// Starts a scoped wall-time span; the elapsed seconds are recorded
    /// into the histogram `name` when the returned guard drops.
    #[inline]
    pub fn span(&self, name: &str) -> Span {
        match &self.inner {
            Some(reg) => Span::started(reg.histogram(name)),
            None => Span::noop(),
        }
    }

    /// Pre-resolves the counter `name` for hot loops (`None` if disabled).
    pub fn counter(&self, name: &str) -> Option<Arc<Counter>> {
        self.inner.as_ref().map(|r| r.counter(name))
    }

    /// Pre-resolves the histogram `name` for hot loops (`None` if
    /// disabled).
    pub fn histogram(&self, name: &str) -> Option<Arc<Histogram>> {
        self.inner.as_ref().map(|r| r.histogram(name))
    }

    /// Rolls the registry up into a report (empty when disabled).
    pub fn report(&self) -> RunReport {
        match &self.inner {
            Some(reg) => reg.report(),
            None => RunReport::empty(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_handle_is_a_full_noop() {
        let tel = Telemetry::disabled();
        assert!(!tel.is_enabled());
        tel.incr("a.b.c");
        tel.add("a.b.c", 10);
        tel.record("a.b.h", 1.0);
        tel.note("a.b.n", "msg");
        drop(tel.span("a.b.s"));
        assert!(tel.counter("a.b.c").is_none());
        assert!(tel.histogram("a.b.h").is_none());
        let report = tel.report();
        assert!(report.is_empty());
        assert_eq!(report.counter("a.b.c"), None);
    }

    #[test]
    fn enabled_handle_counts_and_records() {
        let tel = Telemetry::enabled();
        tel.incr("x.y.count");
        tel.add("x.y.count", 4);
        tel.record("x.y.value", 2.0);
        tel.record("x.y.value", 8.0);
        let report = tel.report();
        assert_eq!(report.counter("x.y.count"), Some(5));
        let h = report.histogram("x.y.value").unwrap();
        assert_eq!(h.count, 2);
        assert!((h.sum - 10.0).abs() < 1e-12);
    }

    #[test]
    fn clones_share_a_registry() {
        let tel = Telemetry::enabled();
        let other = tel.clone();
        tel.incr("shared.count");
        other.incr("shared.count");
        assert_eq!(tel.report().counter("shared.count"), Some(2));
    }

    #[test]
    fn spans_record_elapsed_seconds() {
        let tel = Telemetry::enabled();
        {
            let _s = tel.span("timed.section_seconds");
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
        let report = tel.report();
        let h = report.histogram("timed.section_seconds").unwrap();
        assert_eq!(h.count, 1);
        assert!(h.max >= 1e-3, "span recorded {}", h.max);
    }

    #[test]
    fn notes_are_kept_in_order() {
        let tel = Telemetry::enabled();
        tel.note("mc.engine.failed_run", "run 3 seed 123");
        tel.note("mc.engine.failed_run", "run 9 seed 456");
        let report = tel.report();
        let notes = report.notes("mc.engine.failed_run").unwrap();
        assert_eq!(notes.len(), 2);
        assert!(notes[0].contains("seed 123"));
    }

    #[test]
    fn global_defaults_to_disabled() {
        // Never install in tests: the global is shared process-wide.
        assert!(!Telemetry::global().is_enabled() || GLOBAL.get().is_some());
    }
}
