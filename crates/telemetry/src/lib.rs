//! Instrumentation substrate for the oxterm workspace.
//!
//! Every long-running part of the reproduction pipeline — Newton–Raphson
//! solves, adaptive transient stepping, Monte Carlo campaigns, the RESET
//! write-termination chop — reports into this crate instead of printing.
//! The design goals, in order:
//!
//! 1. **Free when off.** A disabled [`Telemetry`] handle is a `None`; every
//!    recording call is one branch. Hot kernels stay hot.
//! 2. **No lock or name lookup on the per-program path.** A Monte Carlo
//!    program records its catalogued metrics ([`CounterId`],
//!    [`HistogramId`]), profiler phases and device energies into plain
//!    per-thread shards, merged when a worker exits ([`flush_thread`]) and
//!    when the calling thread takes a report or snapshot. By-name calls
//!    take the registry's lock; they serve the colder paths.
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
//! residual / timestep control / MC workers) with self-vs-child wall time.
//! [`levels`] and [`joule`] answer *did any level's distribution drift*
//! and *where did the energy go*: streaming per-level resistance histograms
//! and a per-device energy/latency ledger. Each mirrors the [`Telemetry`]
//! handle pattern — disabled is one branch, installed once per process.
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
//! use oxterm_telemetry::{CounterId, Telemetry};
//!
//! let tel = Telemetry::enabled();
//! tel.incr("mc.engine.runs");
//! tel.record("mc.engine.run_seconds", 1.25e-3);
//! tel.tally(CounterId::McOps, 1);
//! {
//!     let _span = tel.span("spice.tran.run_seconds");
//!     // ... timed work ...
//! }
//! let report = tel.report();
//! assert_eq!(report.counter("mc.engine.runs"), Some(1));
//! assert_eq!(report.counter("mlc.program.mc_ops"), Some(1));
//! println!("{}", report.to_table());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

mod counter;
mod histogram;
pub mod joule;
mod json;
pub mod jsonl;
pub mod levels;
pub mod profiler;
mod registry;
mod report;
mod shard;
pub mod sketch;
mod span;

pub use counter::Counter;
pub use histogram::Histogram;
pub use joule::{DeviceClass, JouleLedger, JouleSnapshot, ProgramPhase, Role};
pub use json::JsonWriter;
pub use jsonl::JsonlSplit;
pub use levels::{LevelSummary, LevelTracker, LevelsSnapshot};
pub use profiler::{PhaseGuard, PhaseId, PhaseRole, PhaseStats, ProfileSnapshot, Profiler};
pub use registry::{CounterId, HistogramId, Registry};
pub use report::RunReport;
pub use sketch::Welford;
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
            reg.record(name, value);
        }
    }

    /// Adds `by` to the catalogued counter `id` on this thread's shard: no
    /// lock, no name lookup.
    #[inline]
    pub fn tally(&self, id: CounterId, by: u64) {
        if let Some(reg) = &self.inner {
            registry::tally(reg, id, by);
        }
    }

    /// Adds each `(id, by)` to its catalogued counter through one access
    /// to this thread's shard: what a batch of work tallied as it ran.
    #[inline]
    pub fn tally_all(&self, counts: &[(CounterId, u64)]) {
        if let Some(reg) = &self.inner {
            registry::tally_all(reg, counts);
        }
    }

    /// Records `value` into the catalogued histogram `id` on this thread's
    /// shard.
    #[inline]
    pub fn sample(&self, id: HistogramId, value: f64) {
        self.sample_n(id, value, 1);
    }

    /// Records `value` `n` times into the catalogued histogram `id`
    /// through one access to this thread's shard: the histogram of `n`
    /// [`sample`](Telemetry::sample) calls.
    #[inline]
    pub fn sample_n(&self, id: HistogramId, value: f64, n: u64) {
        if let Some(reg) = &self.inner {
            registry::sample_with(reg, id, |h| h.record_n(value, n));
        }
    }

    /// Records each of `values`, in order, into the catalogued histogram
    /// `id` through one access to this thread's shard: the histogram of
    /// one [`sample`](Telemetry::sample) call per value.
    #[inline]
    pub fn sample_all(&self, id: HistogramId, values: impl IntoIterator<Item = f64>) {
        if let Some(reg) = &self.inner {
            registry::sample_with(reg, id, |h| values.into_iter().for_each(|v| h.record(v)));
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
    pub fn span(&self, name: &'static str) -> Span {
        match &self.inner {
            Some(reg) => Span::started(Arc::clone(reg), name),
            None => Span::noop(),
        }
    }

    /// Pre-resolves the counter `name` for hot loops (`None` if disabled).
    pub fn counter(&self, name: &str) -> Option<Arc<Counter>> {
        self.inner.as_ref().map(|r| r.counter(name))
    }

    /// Rolls the registry up into a report (empty when disabled), after
    /// merging the calling thread's shard.
    pub fn report(&self) -> RunReport {
        match &self.inner {
            Some(reg) => {
                registry::flush_thread();
                reg.report()
            }
            None => RunReport::empty(),
        }
    }
}

/// Merges every per-thread shard of the calling thread (profiler, joule
/// ledger, telemetry) into its sink. Monte Carlo workers call this as they
/// exit; a thread's shards also merge when it exits, and a snapshot or
/// report merges the calling thread's.
pub fn flush_thread() {
    profiler::flush_thread();
    joule::flush_thread();
    registry::flush_thread();
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
        tel.tally(CounterId::McOps, 1);
        tel.sample(HistogramId::RunSeconds, 1.0);
        assert!(tel.counter("a.b.c").is_none());
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
    fn shards_merge_to_the_same_totals_on_1_and_4_threads() {
        // One fixed set of records, split round-robin across the threads.
        let totals = |threads: usize| {
            let (tel, prof, ledger) = (
                Telemetry::enabled(),
                Profiler::enabled(),
                JouleLedger::enabled(),
            );
            std::thread::scope(|scope| {
                for t in 0..threads {
                    let (tel, prof, ledger) = (&tel, &prof, &ledger);
                    scope.spawn(move || {
                        for k in (t..256).step_by(threads) {
                            let _run = prof.phase(PhaseId::McWorkerRun);
                            drop(prof.phase(PhaseId::RramSet));
                            tel.tally(CounterId::McOps, 1);
                            tel.tally(CounterId::TerminationSteps, k as u64);
                            tel.sample(HistogramId::TerminationLatency, (k + 1) as f64 * 1e-7);
                            ledger.record_energy_in_phase(
                                DeviceClass::RramCell,
                                Role::RramCell,
                                ProgramPhase::Reset,
                                (k + 1) as f64 * 1.3e-12,
                            );
                        }
                        flush_thread();
                    });
                }
            });
            let report = tel.report();
            let latency = &report.histograms["rram.termination.latency_s"];
            let snap = prof.snapshot();
            // The profiler sets itself up once on each thread.
            let setup = snap.phase(PhaseId::ProfilerSetup).map(|p| p.calls);
            assert_eq!(setup, Some(threads as u64));
            let calls: Vec<u64> = snap
                .phases
                .iter()
                .filter(|p| p.id != PhaseId::ProfilerSetup)
                .map(|p| p.calls)
                .collect();
            let energy = ledger.snapshot();
            let joules: Vec<[f64; joule::N_PHASES]> =
                energy.roles.iter().map(|r| r.phase_j).collect();
            let classes: Vec<f64> = energy.classes.iter().map(|c| c.joules).collect();
            (
                report.counters,
                (latency.count, latency.bins().collect::<Vec<_>>()),
                calls,
                (joules, classes),
            )
        };
        let serial = totals(1);
        assert_eq!(serial.0["mlc.program.mc_ops"], 256);
        assert_eq!(serial.2, [256, 256]);
        assert_eq!(totals(4), serial);
    }

    #[test]
    fn global_defaults_to_disabled() {
        // Never install in tests: the global is shared process-wide.
        assert!(!Telemetry::global().is_enabled() || GLOBAL.get().is_some());
    }
}
