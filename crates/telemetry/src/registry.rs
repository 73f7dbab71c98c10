//! The metric registry: name → counter/histogram/notes, plus the catalogue
//! of metrics the per-program path tallies per thread.

use crate::counter::Counter;
use crate::histogram::Histogram;
use crate::report::{NoteLog, RunReport};
use crate::shard::{Shard, Sink};
use std::cell::RefCell;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};

/// Cap on stored notes per name; later notes are dropped but still counted
/// so the report can say how many were elided.
const MAX_NOTES_PER_NAME: usize = 256;

/// A counter of the Monte Carlo per-program path or the Newton loop, named
/// in its doc. A tally ([`crate::Telemetry::tally`]) is a plain add on the
/// thread's shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterId {
    /// `mlc.program.fast_ops`: fast-path programs.
    FastOps,
    /// `mlc.program.mc_ops`: Monte Carlo programs.
    McOps,
    /// `rram.termination.runs`: references a fast RESET ran for.
    TerminationRuns,
    /// `rram.termination.steps`: accepted steps up to each termination.
    TerminationSteps,
    /// `rram.termination.not_terminated`: references not reached in time.
    NotTerminated,
    /// `rram.model.rho_ceiling_hits`: SET sub-steps that hit the ceiling.
    RhoCeilingHits,
    /// `rram.model.joule_clamps`: clamped RESET Joule accelerations.
    JouleClamps,
    /// `rram.model.rho_floor_hits`: RESET sub-steps that hit the floor.
    RhoFloorHits,
    /// `chaos.injected.newton_stall`: injected fast-path stalls.
    InjectedNewtonStall,
    /// `spice.newton.solves`: Newton–Raphson solves started.
    NewtonSolves,
}

/// [`CounterId`] names, in declaration order.
const COUNTER_NAMES: [&str; 10] = [
    "mlc.program.fast_ops",
    "mlc.program.mc_ops",
    "rram.termination.runs",
    "rram.termination.steps",
    "rram.termination.not_terminated",
    "rram.model.rho_ceiling_hits",
    "rram.model.joule_clamps",
    "rram.model.rho_floor_hits",
    "chaos.injected.newton_stall",
    "spice.newton.solves",
];

/// A histogram of the Monte Carlo per-program path, named in its doc and
/// recorded like a [`CounterId`] ([`crate::Telemetry::sample_all`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HistogramId {
    /// `rram.termination.latency_s`: time to each fast RESET termination.
    TerminationLatency,
}

/// [`HistogramId`] names, in declaration order.
const HISTOGRAM_NAMES: [&str; 1] = ["rram.termination.latency_s"];

/// One thread's catalogued metrics, indexed by `CounterId as usize` and
/// `HistogramId as usize`.
#[derive(Debug)]
pub(crate) struct Tally {
    counters: [u64; COUNTER_NAMES.len()],
    histograms: [Histogram; HISTOGRAM_NAMES.len()],
}

impl Default for Tally {
    fn default() -> Self {
        Tally {
            counters: [0; COUNTER_NAMES.len()],
            histograms: std::array::from_fn(|_| Histogram::new()),
        }
    }
}

thread_local! {
    static SHARD: RefCell<Shard<Registry>> = const { RefCell::new(Shard::new()) };
}

/// Adds `by` to this thread's tally of `id` for `reg`.
pub(crate) fn tally(reg: &Arc<Registry>, id: CounterId, by: u64) {
    let _ = SHARD.try_with(|s| s.borrow_mut().tally(reg).counters[id as usize] += by);
}

/// Adds each `(id, by)` to this thread's tallies for `reg`.
pub(crate) fn tally_all(reg: &Arc<Registry>, counts: &[(CounterId, u64)]) {
    let _ = SHARD.try_with(|s| {
        let mut s = s.borrow_mut();
        let tally = s.tally(reg);
        for &(id, by) in counts {
            tally.counters[id as usize] += by;
        }
    });
}

/// Hands this thread's `id` histogram for `reg` to `record`.
pub(crate) fn sample_with(
    reg: &Arc<Registry>,
    id: HistogramId,
    record: impl FnOnce(&mut Histogram),
) {
    let _ = SHARD.try_with(|s| record(&mut s.borrow_mut().tally(reg).histograms[id as usize]));
}

/// Merges this thread's tallies into their registries.
pub(crate) fn flush_thread() {
    let _ = SHARD.try_with(|s| s.borrow_mut().flush());
}

#[derive(Debug, Default)]
struct Tables {
    counters: BTreeMap<String, Arc<Counter>>,
    histograms: BTreeMap<String, Histogram>,
    notes: BTreeMap<String, NoteLog>,
}

/// Owns every metric recorded during a run, keyed by
/// `crate.subsystem.metric` name.
///
/// Every by-name call takes the registry's lock. The per-program path does
/// not: it tallies catalogued metrics on its thread's shard, which merges
/// in here by name (see `shard.rs`). A hot loop elsewhere can
/// pre-resolve a counter once and bump the `Arc<Counter>` directly.
/// `BTreeMap` keeps report ordering deterministic.
#[derive(Debug, Default)]
pub struct Registry {
    tables: Mutex<Tables>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn tables(&self) -> MutexGuard<'_, Tables> {
        // Every update leaves the maps valid, so a panicked holder left
        // nothing half-written.
        self.tables.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The counter registered under `name`, creating it on first use.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut tables = self.tables();
        if let Some(c) = tables.counters.get(name) {
            return Arc::clone(c);
        }
        let c = Arc::new(Counter::new());
        tables.counters.insert(name.to_string(), Arc::clone(&c));
        c
    }

    /// Records `value` into the histogram `name`, creating it on first use.
    pub fn record(&self, name: &str, value: f64) {
        let mut tables = self.tables();
        match tables.histograms.get_mut(name) {
            Some(h) => h.record(value),
            None => {
                let mut h = Histogram::new();
                h.record(value);
                tables.histograms.insert(name.to_string(), h);
            }
        }
    }

    /// Appends a free-form note under `name`. Storage is bounded at
    /// `MAX_NOTES_PER_NAME`; notes past the cap are counted, not stored.
    pub fn note(&self, name: &str, message: &str) {
        let mut tables = self.tables();
        let log = tables.notes.entry(name.to_string()).or_default();
        log.total += 1;
        if log.entries.len() < MAX_NOTES_PER_NAME {
            log.entries.push(message.to_string());
        }
    }

    /// Rolls every metric up into a point-in-time [`RunReport`].
    pub fn report(&self) -> RunReport {
        let tables = self.tables();
        RunReport {
            counters: tables
                .counters
                .iter()
                .map(|(name, c)| (name.clone(), c.get()))
                .collect(),
            histograms: tables.histograms.clone(),
            notes: tables.notes.clone(),
        }
    }
}

impl Sink for Registry {
    type Tally = Tally;

    fn merge(&self, tally: &Tally) {
        for (name, &n) in COUNTER_NAMES.iter().zip(&tally.counters) {
            if n > 0 {
                self.counter(name).add(n);
            }
        }
        let mut tables = self.tables();
        for (name, h) in HISTOGRAM_NAMES.iter().zip(&tally.histograms) {
            if h.count + h.negatives > 0 {
                tables
                    .histograms
                    .entry(name.to_string())
                    .or_default()
                    .merge(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_name_returns_the_same_metric() {
        let reg = Registry::new();
        let a = reg.counter("x.y.c");
        let b = reg.counter("x.y.c");
        assert!(Arc::ptr_eq(&a, &b));
        a.incr();
        assert_eq!(b.get(), 1);
        reg.record("x.y.h", 1.0);
        reg.record("x.y.h", 2.0);
        assert_eq!(reg.report().histograms["x.y.h"].count, 2);
    }

    #[test]
    fn report_orders_names_deterministically() {
        let reg = Registry::new();
        reg.counter("z.last").incr();
        reg.counter("a.first").incr();
        reg.counter("m.mid").incr();
        let report = reg.report();
        let names: Vec<&str> = report.counters.keys().map(|s| s.as_str()).collect();
        assert_eq!(names, ["a.first", "m.mid", "z.last"]);
    }

    #[test]
    fn notes_are_bounded_but_counted() {
        let reg = Registry::new();
        for i in 0..(MAX_NOTES_PER_NAME + 10) {
            reg.note("mc.engine.failed_run", &format!("run {i}"));
        }
        let report = reg.report();
        let log = &report.notes["mc.engine.failed_run"];
        assert_eq!(log.entries.len(), MAX_NOTES_PER_NAME);
        assert_eq!(log.total, (MAX_NOTES_PER_NAME + 10) as u64);
    }

    #[test]
    fn concurrent_registration_converges_to_one_metric() {
        let reg = Arc::new(Registry::new());
        std::thread::scope(|scope| {
            for _ in 0..8 {
                let reg = Arc::clone(&reg);
                scope.spawn(move || {
                    for _ in 0..1_000 {
                        reg.counter("contended.name").incr();
                    }
                });
            }
        });
        assert_eq!(reg.report().counters["contended.name"], 8_000);
    }

    #[test]
    fn catalogued_metrics_report_under_their_names() {
        use CounterId as C;
        use HistogramId as H;
        let counters = [
            (C::FastOps, "mlc.program.fast_ops"),
            (C::McOps, "mlc.program.mc_ops"),
            (C::TerminationRuns, "rram.termination.runs"),
            (C::TerminationSteps, "rram.termination.steps"),
            (C::NotTerminated, "rram.termination.not_terminated"),
            (C::RhoCeilingHits, "rram.model.rho_ceiling_hits"),
            (C::JouleClamps, "rram.model.joule_clamps"),
            (C::RhoFloorHits, "rram.model.rho_floor_hits"),
            (C::InjectedNewtonStall, "chaos.injected.newton_stall"),
            (C::NewtonSolves, "spice.newton.solves"),
        ];
        let histograms = [(H::TerminationLatency, "rram.termination.latency_s")];
        let reg = Arc::new(Registry::new());
        for (k, &(id, _)) in counters.iter().enumerate() {
            tally(&reg, id, k as u64 + 1);
        }
        for (k, &(id, _)) in histograms.iter().enumerate() {
            for _ in 0..=k {
                sample_with(&reg, id, |h| h.record(1e-6));
            }
        }
        flush_thread();
        let report = reg.report();
        assert_eq!(report.counters.len(), counters.len());
        for (k, (_, name)) in counters.iter().enumerate() {
            assert_eq!(report.counter(name), Some(k as u64 + 1), "{name}");
        }
        assert_eq!(report.histograms.len(), histograms.len());
        for (k, (_, name)) in histograms.iter().enumerate() {
            assert_eq!(report.histograms[*name].count, k as u64 + 1, "{name}");
        }
    }
}
