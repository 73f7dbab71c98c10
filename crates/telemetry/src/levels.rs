//! Per-level conductance-distribution tracker for MLC campaigns.
//!
//! The paper's density claim is a statement about *distributions*: the
//! write-terminated RESET is only worth extra bits/cell if the per-level
//! read-resistance distributions stay separable. Figs 11/12 check that
//! by batch-collecting every sample; this module is the streaming
//! counterpart. Campaigns feed one observation per programmed
//! level per run, all of a campaign's at once
//! ([`LevelTracker::observe_all`]), and each level accumulates
//! a log [`Histogram`] at [`R_RATIO`] and a [`Welford`] moment tracker —
//! a few hundred bins per level at any campaign size.
//!
//! The design follows the house telemetry idiom ([`crate::Profiler`],
//! [`crate::joule::JouleLedger`]):
//!
//! - [`LevelTracker`] is a cheap handle wrapping `Option<Arc<…>>`; the
//!   disabled handle costs **one branch and zero allocations** per
//!   observation (pinned by `tests/levels_zero_alloc.rs`).
//! - Library code reads the process-global handle
//!   ([`LevelTracker::global`]), armed once by a binary via
//!   [`LevelTracker::install`] (the figure binaries, `repro_all`);
//!   tests build private handles.
//! - State is one `LevelTable` behind one lock. Campaigns feed it from
//!   the calling thread once the workers are done, in run order, under
//!   one lock per campaign, so the moments' floating-point sums see one
//!   sequence and the summaries are the same bytes on every run whatever
//!   the worker count. (The histograms' counts would come out the same in
//!   any order.)
//!
//! Snapshots ([`LevelTracker::snapshot`]) order levels by code.

use crate::histogram::Histogram;
use crate::sketch::Welford;
use std::sync::{Arc, Mutex, MutexGuard, OnceLock, PoisonError};

/// Bin ratio of the read-resistance histograms: `1 + 2⁻¹²`, a half-width
/// of 1.2e-4. A level's R has σ/μ of only 2.2e-3 to 7.0e-3, so the
/// half-width is about 1/18 of the narrowest level's σ; at `1.005` a bin
/// would be about 1σ wide and move the sigma margins by several percent.
pub const R_RATIO: f64 = 1.0 + 1.0 / 4096.0;

/// Level slots available; codes at or above this are dropped (6 bits/cell
/// is the largest allocation the paper explores).
pub const MAX_LEVELS: usize = 64;

/// One level's streaming statistics over `N` observed quantities (the
/// tracker's read resistance; the joule ledger's energy and latency).
#[derive(Debug, Clone)]
pub(crate) struct LevelSlot<const N: usize> {
    /// The reference current of the level's first observation (A).
    pub(crate) i_ref: f64,
    /// Moments of each quantity.
    pub(crate) stats: [Welford; N],
    /// Histogram of each quantity, at the table's ratio for it.
    pub(crate) histograms: [Histogram; N],
}

/// Per-level slots indexed by level code; `None` until first observed.
#[derive(Debug)]
pub(crate) struct LevelTable<const N: usize> {
    /// The bin ratio of each quantity's histograms.
    ratios: [f64; N],
    slots: Vec<Option<LevelSlot<N>>>,
}

impl<const N: usize> LevelTable<N> {
    /// An empty table whose quantity `k` is binned at `ratios[k]`.
    pub(crate) fn new(ratios: [f64; N]) -> Self {
        LevelTable {
            ratios,
            slots: vec![None; MAX_LEVELS],
        }
    }

    /// Adds one observation of level `code`. Codes at or above
    /// [`MAX_LEVELS`] and observations with a non-finite value are dropped.
    pub(crate) fn observe(&mut self, code: u16, i_ref: f64, values: [f64; N]) {
        let Some(slot) = self.slots.get_mut(usize::from(code)) else {
            return;
        };
        if values.iter().any(|v| !v.is_finite()) {
            return;
        }
        let ratios = &self.ratios;
        let slot = slot.get_or_insert_with(|| LevelSlot {
            i_ref,
            stats: [Welford::new(); N],
            histograms: ratios.map(Histogram::with_ratio),
        });
        for ((stats, histogram), v) in slot.stats.iter_mut().zip(&mut slot.histograms).zip(values) {
            stats.push(v);
            histogram.record(v);
        }
    }

    /// The observed levels, ascending by code.
    pub(crate) fn seen(&self) -> impl Iterator<Item = (u16, &LevelSlot<N>)> {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(code, slot)| Some((code as u16, slot.as_ref()?)))
    }
}

/// Locks a level table. An observation cannot panic part-way, so
/// a holder can only have panicked between them (in a batch caller's
/// iterator) and left a valid table.
pub(crate) fn lock<const N: usize>(table: &Mutex<LevelTable<N>>) -> MutexGuard<'_, LevelTable<N>> {
    table.lock().unwrap_or_else(PoisonError::into_inner)
}

/// Immutable view of one tracked level, ordered by code in a snapshot.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelSummary {
    /// The level's binary code (0-based, also its slot index).
    pub code: u16,
    /// The RESET-termination reference current (A) the level was
    /// programmed with.
    pub i_ref: f64,
    /// Observations accumulated.
    pub n: u64,
    /// Running mean read resistance (Ω).
    pub mean: f64,
    /// Sample standard deviation (Ω).
    pub std_dev: f64,
    /// Exact minimum observed (Ω).
    pub min: f64,
    /// Exact maximum observed (Ω).
    pub max: f64,
    /// Streaming 1st percentile (Ω).
    pub p01: f64,
    /// Streaming median (Ω).
    pub p50: f64,
    /// Streaming 99th percentile (Ω).
    pub p99: f64,
    /// The level's read-resistance histogram at [`R_RATIO`], for the
    /// report layer's count bounds.
    pub histogram: Histogram,
}

/// A deterministic, code-ordered view of every level seen so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelsSnapshot {
    /// One summary per observed level, ascending by code.
    pub levels: Vec<LevelSummary>,
}

/// Cheap handle to the per-level distribution tracker.
#[derive(Clone)]
pub struct LevelTracker {
    inner: Option<Arc<Mutex<LevelTable<1>>>>,
}

static GLOBAL: OnceLock<LevelTracker> = OnceLock::new();
static DISABLED: LevelTracker = LevelTracker { inner: None };

impl LevelTracker {
    /// The no-op handle: every observation is one branch, no allocation.
    #[must_use]
    pub const fn disabled() -> Self {
        Self { inner: None }
    }

    /// An armed tracker with empty level slots.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(LevelTable::new([R_RATIO])))),
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The process-global tracker; disabled until [`install`] is called.
    ///
    /// [`install`]: LevelTracker::install
    #[must_use]
    pub fn global() -> &'static LevelTracker {
        GLOBAL.get().unwrap_or(&DISABLED)
    }

    /// Makes `handle` the process-global tracker. First call wins;
    /// returns whether this call installed its handle.
    pub fn install(handle: LevelTracker) -> bool {
        GLOBAL.set(handle).is_ok()
    }

    /// Records one programmed level's read resistance. `code` is the
    /// level's binary code and doubles as the slot index; codes at or
    /// above [`MAX_LEVELS`] and non-finite resistances are dropped.
    pub fn observe(&self, code: u16, i_ref: f64, r_ohms: f64) {
        if let Some(table) = &self.inner {
            lock(table).observe(code, i_ref, [r_ohms]);
        }
    }

    /// Records `(code, i_ref, r_ohms)` observations in order under one
    /// lock: the same summaries as one [`observe`] each.
    ///
    /// [`observe`]: LevelTracker::observe
    pub fn observe_all(&self, observations: impl IntoIterator<Item = (u16, f64, f64)>) {
        if let Some(table) = &self.inner {
            let mut table = lock(table);
            for (code, i_ref, r_ohms) in observations {
                table.observe(code, i_ref, [r_ohms]);
            }
        }
    }

    /// A code-ordered snapshot of every level seen so far. Empty when
    /// disabled or nothing was observed.
    #[must_use]
    pub fn snapshot(&self) -> LevelsSnapshot {
        let Some(table) = &self.inner else {
            return LevelsSnapshot::default();
        };
        let levels = lock(table)
            .seen()
            .map(|(code, slot)| {
                let ([stats], [histogram]) = (&slot.stats, &slot.histograms);
                let q = |p: f64| histogram.quantile(p).unwrap_or(f64::NAN);
                LevelSummary {
                    code,
                    i_ref: slot.i_ref,
                    n: stats.count(),
                    mean: stats.mean(),
                    std_dev: stats.std_dev(),
                    min: stats.min(),
                    max: stats.max(),
                    p01: q(0.01),
                    p50: q(0.50),
                    p99: q(0.99),
                    histogram: histogram.clone(),
                }
            })
            .collect();
        LevelsSnapshot { levels }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracker_ignores_everything() {
        let t = LevelTracker::disabled();
        t.observe(0, 10e-6, 50e3);
        assert!(!t.is_enabled());
        assert!(t.snapshot().levels.is_empty());
    }

    #[test]
    fn observations_land_in_their_level() {
        let t = LevelTracker::enabled();
        for i in 0..100 {
            t.observe(3, 20e-6, 40e3 + i as f64 * 10.0);
            t.observe(7, 60e-6, 90e3 + i as f64 * 10.0);
        }
        let snap = t.snapshot();
        assert_eq!(snap.levels.len(), 2);
        assert_eq!(snap.levels[0].code, 3);
        assert_eq!(snap.levels[1].code, 7);
        assert_eq!(snap.levels[0].n, 100);
        assert!(snap.levels[0].p50 > 40e3 && snap.levels[0].p50 < 41e3);
        assert!((snap.levels[1].i_ref - 60e-6).abs() < 1e-12);
        assert_eq!(snap.levels.iter().map(|l| l.n).sum::<u64>(), 200);
    }

    #[test]
    fn each_quantity_bins_at_its_own_ratio() {
        let t = LevelTracker::enabled();
        t.observe(2, 1e-6, 50e3);
        assert_eq!(t.snapshot().levels[0].histogram.ratio(), R_RATIO);
        let mut table = LevelTable::new([1.005, 1.1]);
        table.observe(0, 1e-6, [1.0, 2.0]);
        let (_, slot) = table.seen().next().expect("observed");
        assert_eq!(
            slot.histograms.each_ref().map(Histogram::ratio),
            [1.005, 1.1]
        );
    }

    #[test]
    fn counts_track_completion() {
        let t = LevelTracker::enabled();
        for _ in 0..5 {
            t.observe(0, 1e-6, 50e3);
        }
        t.observe(1, 2e-6, 60e3);
        let n: Vec<u64> = t.snapshot().levels.iter().map(|l| l.n).collect();
        assert_eq!(n, [5, 1]);
    }

    #[test]
    fn bad_observations_are_dropped() {
        let t = LevelTracker::enabled();
        t.observe(0, 1e-6, f64::NAN);
        t.observe(1000, 1e-6, 50e3);
        assert!(t.snapshot().levels.is_empty());
    }

    #[test]
    fn concurrent_observation_is_safe_and_complete() {
        let t = LevelTracker::enabled();
        std::thread::scope(|s| {
            for w in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..250 {
                        let code = (w * 4 + i % 4) as u16 % 16;
                        t.observe(code, 1e-6, 30e3 + (i as f64) * 100.0);
                    }
                });
            }
        });
        assert_eq!(t.snapshot().levels.iter().map(|l| l.n).sum::<u64>(), 1000);
    }
}
