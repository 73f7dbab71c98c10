//! Per-level conductance-distribution tracker for MLC campaigns.
//!
//! The paper's density claim is a statement about *distributions*: the
//! write-terminated RESET is only worth extra bits/cell if the per-level
//! read-resistance distributions stay separable. Figs 11/12 check that
//! by batch-collecting every sample; this module is the streaming
//! counterpart. Campaign closures feed one observation per programmed
//! level per run ([`LevelTracker::observe`]) and each level accumulates
//! a [`QuantileSketch`], a [`Welford`] moment tracker and a fixed
//! log-spaced mini-histogram — bounded memory at any campaign size.
//!
//! The design follows the house telemetry idiom ([`crate::Profiler`],
//! [`crate::Tracer`]):
//!
//! - [`LevelTracker`] is a cheap handle wrapping `Option<Arc<…>>`; the
//!   disabled handle costs **one branch and zero allocations** per
//!   observation (pinned by `tests/levels_zero_alloc.rs`).
//! - Library code reads the process-global handle
//!   ([`LevelTracker::global`]), armed once by a binary via
//!   [`LevelTracker::install`] (`--dashboard`, the figure binaries,
//!   `repro_all`); tests build private handles.
//! - State is one mutex per level slot. A campaign takes each lock once
//!   per Monte Carlo *run* (milliseconds of solver work), so contention
//!   is negligible without the profiler's thread-sharding; the sketch's
//!   symmetric merge still makes worker-sharded operation possible for
//!   the vectorized-MC path (ROADMAP item 2).
//!
//! Snapshots ([`LevelTracker::snapshot`]) order levels by code, so the
//! report layer sees a deterministic view regardless of which worker
//! observed what, within the sketch's ε rank-error contract (see
//! [`crate::sketch`] on why bit-determinism is impossible and what is
//! guaranteed instead).

use crate::sketch::{QuantileSketch, Welford};
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// Level slots available; codes at or above this are dropped (6 bits/cell
/// is the largest allocation the paper explores).
pub const MAX_LEVELS: usize = 64;

/// Bins in each level's log-spaced mini-histogram.
pub const N_BINS: usize = 24;

/// Default histogram range (Ω): brackets the paper's programmable window
/// (~30 kΩ – 300 kΩ) with a decade of slack on each side.
pub const DEFAULT_HIST_RANGE_OHMS: (f64, f64) = (10e3, 1e6);

/// Accumulated state for one level slot.
#[derive(Debug, Clone)]
struct Cell {
    seen: bool,
    code: u16,
    i_ref: f64,
    sketch: QuantileSketch,
    stats: Welford,
    bins: [u64; N_BINS],
    /// Samples outside the histogram range (still in sketch/stats).
    out_of_range: u64,
}

impl Cell {
    fn new() -> Self {
        Self {
            seen: false,
            code: 0,
            i_ref: 0.0,
            sketch: QuantileSketch::default(),
            stats: Welford::new(),
            bins: [0; N_BINS],
            out_of_range: 0,
        }
    }
}

struct TrackerSink {
    cells: Vec<Mutex<Cell>>,
    /// Histogram bin edges, precomputed as log10 of the range.
    log_lo: f64,
    log_hi: f64,
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
    /// The full quantile sketch, for rank queries in the report layer.
    pub sketch: QuantileSketch,
    /// Log-spaced histogram counts over `bin_range`.
    pub bins: [u64; N_BINS],
    /// The histogram's (lo, hi) range in Ω.
    pub bin_range: (f64, f64),
    /// Samples that fell outside `bin_range` (still counted in `n`).
    pub out_of_range: u64,
}

/// A deterministic, code-ordered view of every level seen so far.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LevelsSnapshot {
    /// One summary per observed level, ascending by code.
    pub levels: Vec<LevelSummary>,
}

impl LevelsSnapshot {
    /// Total observations across all levels.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.levels.iter().map(|l| l.n).sum()
    }
}

/// Compact per-level completion counts for progress lines: cheap enough
/// to compute at every (throttled) progress tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct LevelCounts {
    /// Levels with at least one observation.
    pub levels: usize,
    /// Fewest observations across seen levels (0 when none seen).
    pub min_n: u64,
    /// Most observations across seen levels.
    pub max_n: u64,
    /// Total observations.
    pub total: u64,
}

/// Cheap handle to the per-level distribution tracker.
#[derive(Clone)]
pub struct LevelTracker {
    inner: Option<Arc<TrackerSink>>,
}

static GLOBAL: OnceLock<LevelTracker> = OnceLock::new();
static DISABLED: LevelTracker = LevelTracker { inner: None };

impl LevelTracker {
    /// The no-op handle: every observation is one branch, no allocation.
    #[must_use]
    pub const fn disabled() -> Self {
        Self { inner: None }
    }

    /// An armed tracker with the default histogram range.
    #[must_use]
    pub fn enabled() -> Self {
        Self::enabled_with_range(DEFAULT_HIST_RANGE_OHMS.0, DEFAULT_HIST_RANGE_OHMS.1)
    }

    /// An armed tracker whose mini-histograms span `lo..hi` Ω
    /// (log-spaced). Degenerate ranges fall back to the default.
    #[must_use]
    pub fn enabled_with_range(lo: f64, hi: f64) -> Self {
        let (lo, hi) = if lo.is_finite() && hi.is_finite() && lo > 0.0 && hi > lo {
            (lo, hi)
        } else {
            DEFAULT_HIST_RANGE_OHMS
        };
        let cells = (0..MAX_LEVELS).map(|_| Mutex::new(Cell::new())).collect();
        Self {
            inner: Some(Arc::new(TrackerSink {
                cells,
                log_lo: lo.log10(),
                log_hi: hi.log10(),
            })),
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
        let Some(sink) = &self.inner else {
            return;
        };
        if usize::from(code) >= MAX_LEVELS || !r_ohms.is_finite() {
            return;
        }
        let mut cell = sink.cells[usize::from(code)]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if !cell.seen {
            cell.seen = true;
            cell.code = code;
            cell.i_ref = i_ref;
        }
        cell.sketch.insert(r_ohms);
        cell.stats.push(r_ohms);
        let span = sink.log_hi - sink.log_lo;
        if r_ohms > 0.0 && span > 0.0 {
            let t = (r_ohms.log10() - sink.log_lo) / span;
            if (0.0..1.0).contains(&t) {
                let bin = ((t * N_BINS as f64) as usize).min(N_BINS - 1);
                cell.bins[bin] += 1;
            } else {
                cell.out_of_range += 1;
            }
        } else {
            cell.out_of_range += 1;
        }
    }

    /// Compact per-level completion counts (for progress lines).
    #[must_use]
    pub fn counts(&self) -> LevelCounts {
        let Some(sink) = &self.inner else {
            return LevelCounts::default();
        };
        let mut out = LevelCounts::default();
        for slot in &sink.cells {
            let cell = slot.lock().unwrap_or_else(PoisonError::into_inner);
            if cell.seen {
                let n = cell.stats.count();
                out.levels += 1;
                out.min_n = if out.levels == 1 { n } else { out.min_n.min(n) };
                out.max_n = out.max_n.max(n);
                out.total += n;
            }
        }
        out
    }

    /// A code-ordered snapshot of every level seen so far. Empty when
    /// disabled or nothing was observed.
    #[must_use]
    pub fn snapshot(&self) -> LevelsSnapshot {
        let Some(sink) = &self.inner else {
            return LevelsSnapshot::default();
        };
        let bin_range = (10f64.powf(sink.log_lo), 10f64.powf(sink.log_hi));
        let mut levels = Vec::new();
        for slot in &sink.cells {
            let cell = slot.lock().unwrap_or_else(PoisonError::into_inner);
            if !cell.seen {
                continue;
            }
            let q = |p: f64| cell.sketch.quantile(p).unwrap_or(f64::NAN);
            levels.push(LevelSummary {
                code: cell.code,
                i_ref: cell.i_ref,
                n: cell.stats.count(),
                mean: cell.stats.mean(),
                std_dev: cell.stats.std_dev(),
                min: cell.stats.min(),
                max: cell.stats.max(),
                p01: q(0.01),
                p50: q(0.50),
                p99: q(0.99),
                sketch: cell.sketch.clone(),
                bins: cell.bins,
                bin_range,
                out_of_range: cell.out_of_range,
            });
        }
        // Slot order is code order already; keep the sort as a guard
        // against future slot-assignment changes.
        levels.sort_by_key(|l| l.code);
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
        assert_eq!(t.counts(), LevelCounts::default());
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
        assert_eq!(snap.total(), 200);
    }

    #[test]
    fn counts_track_completion() {
        let t = LevelTracker::enabled();
        for _ in 0..5 {
            t.observe(0, 1e-6, 50e3);
        }
        t.observe(1, 2e-6, 60e3);
        let c = t.counts();
        assert_eq!(c.levels, 2);
        assert_eq!(c.min_n, 1);
        assert_eq!(c.max_n, 5);
        assert_eq!(c.total, 6);
    }

    #[test]
    fn histogram_bins_cover_the_range() {
        let t = LevelTracker::enabled_with_range(10e3, 1e6);
        t.observe(0, 1e-6, 10e3); // first bin
        t.observe(0, 1e-6, 999e3); // last bin
        t.observe(0, 1e-6, 5e3); // below range
        t.observe(0, 1e-6, 2e6); // above range
        let l = &t.snapshot().levels[0];
        assert_eq!(l.bins[0], 1);
        assert_eq!(l.bins[N_BINS - 1], 1);
        assert_eq!(l.out_of_range, 2);
        assert_eq!(l.n, 4);
    }

    #[test]
    fn bad_observations_are_dropped() {
        let t = LevelTracker::enabled();
        t.observe(0, 1e-6, f64::NAN);
        t.observe(1000, 1e-6, 50e3);
        assert!(t.snapshot().levels.is_empty());
    }

    #[test]
    fn degenerate_range_falls_back_to_default() {
        let t = LevelTracker::enabled_with_range(-1.0, f64::NAN);
        t.observe(0, 1e-6, 50e3);
        let l = &t.snapshot().levels[0];
        assert_eq!(l.bin_range, DEFAULT_HIST_RANGE_OHMS);
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
        assert_eq!(t.snapshot().total(), 1000);
    }
}
