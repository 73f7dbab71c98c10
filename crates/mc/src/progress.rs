//! Live campaign progress reporting.
//!
//! When enabled (`--progress` on the bench CLIs), the Monte Carlo engine
//! prints a throttled status line to stderr while a campaign runs: runs
//! done/total, throughput, ETA, worker utilization and the live
//! convergence-failure count. The reporter is allocation-free on
//! the per-run path and takes no lock: a tick costs a few atomic
//! operations and a clock read; when disabled it is a single branch.
//!
//! Each campaign owns its [`CampaignProgress`]: [`run_supervised`] starts
//! one, hands it to the engine, and notes its failures and retries on it,
//! so concurrent campaigns never see each other's counts.
//!
//! [`run_supervised`]: crate::run_supervised

use oxterm_telemetry::joule::{JouleCounts, JouleLedger};
use oxterm_telemetry::levels::{LevelCounts, LevelTracker};
use oxterm_telemetry::profiler::monotonic_ns;
use parking_lot::Mutex;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

/// Minimum wall time between status lines, in nanoseconds (timestamps come
/// from the sanctioned telemetry clock — `Instant::now` is lint-banned
/// here).
const THROTTLE_NS: u64 = 500_000_000;

/// The most recent failure's replay seed and artifact path, for the status
/// line — a hung overnight campaign is then debuggable from stderr alone.
#[derive(Debug)]
struct LastFailure {
    seed: u64,
    artifact: Option<String>,
}

/// Per-campaign progress state shared across worker threads.
#[derive(Debug)]
pub struct CampaignProgress {
    enabled: bool,
    total: usize,
    threads: usize,
    done: AtomicUsize,
    busy_ns: AtomicU64,
    started_ns: u64,
    last_print_ns: AtomicU64,
    failures: AtomicU64,
    retries: AtomicU64,
    last_failure: Mutex<Option<LastFailure>>,
}

impl CampaignProgress {
    /// Starts tracking a campaign of `total` runs on `threads` workers.
    ///
    /// Reporting is active only when the process-wide progress switch is
    /// on; failures and retries are counted either way.
    pub fn start(total: usize, threads: usize) -> Self {
        let now = monotonic_ns();
        CampaignProgress {
            enabled: oxterm_telemetry::progress::enabled(),
            total,
            threads: threads.max(1),
            done: AtomicUsize::new(0),
            busy_ns: AtomicU64::new(0),
            started_ns: now,
            // Backdate so the first completed run may print immediately.
            last_print_ns: AtomicU64::new(now.saturating_sub(THROTTLE_NS)),
            failures: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            last_failure: Mutex::new(None),
        }
    }

    /// Records one failed run: `seed` is its derived replay seed,
    /// `artifact` the post-mortem artifact path if one was written.
    pub(crate) fn note_failure(&self, seed: u64, artifact: Option<String>) {
        self.failures.fetch_add(1, Ordering::Relaxed);
        *self.last_failure.lock() = Some(LastFailure { seed, artifact });
    }

    /// Records one failed attempt that is about to be retried.
    pub(crate) fn note_retry(&self) {
        self.retries.fetch_add(1, Ordering::Relaxed);
    }

    /// Runs that failed so far.
    pub(crate) fn failures(&self) -> u64 {
        self.failures.load(Ordering::Relaxed)
    }

    /// Attempts retried so far.
    pub(crate) fn retries(&self) -> u64 {
        self.retries.load(Ordering::Relaxed)
    }

    /// Status-line suffix describing the most recent failure (empty while
    /// no run has failed).
    fn last_failure_suffix(&self) -> String {
        match &*self.last_failure.lock() {
            Some(LastFailure {
                seed,
                artifact: Some(path),
            }) => format!(" (last seed {seed:#018x} -> {path})"),
            Some(LastFailure {
                seed,
                artifact: None,
            }) => format!(" (last seed {seed:#018x})"),
            None => String::new(),
        }
    }

    /// Worker threads the campaign runs on.
    pub(crate) fn workers(&self) -> usize {
        self.threads
    }

    /// Whether status lines will be printed (callers use this to decide
    /// whether per-run timing is worth taking).
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Records one completed run taking `run_seconds` of worker time.
    ///
    /// Pass `0.0` when the caller did not time the run; utilization then
    /// reads low rather than wrong.
    pub fn tick(&self, run_seconds: f64) {
        if !self.enabled {
            return;
        }
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        if run_seconds > 0.0 {
            self.busy_ns
                .fetch_add((run_seconds * 1e9) as u64, Ordering::Relaxed);
        }
        // Throttled print: of the workers that find the throttle expired,
        // the one that moves the timestamp prints; the rest skip.
        let last = self.last_print_ns.load(Ordering::Relaxed);
        let now = monotonic_ns();
        if now.saturating_sub(last) >= THROTTLE_NS
            && self
                .last_print_ns
                .compare_exchange(last, now, Ordering::Relaxed, Ordering::Relaxed)
                .is_ok()
        {
            self.print_line(done, false);
        }
    }

    /// Prints the final status line (always, if enabled), flushing the
    /// counts the throttle may have swallowed.
    pub fn finish(&self) {
        if !self.enabled {
            return;
        }
        self.print_line(self.done.load(Ordering::Relaxed), true);
    }

    fn print_line(&self, done: usize, last: bool) {
        let elapsed = monotonic_ns().saturating_sub(self.started_ns) as f64 / 1e9;
        let busy = self.busy_ns.load(Ordering::Relaxed) as f64 / 1e9;
        let status = compose_line(
            done,
            self.total,
            self.threads,
            elapsed,
            busy,
            self.failures(),
            self.retries(),
            last,
            &self.last_failure_suffix(),
        );
        eprintln!(
            "{status}{}{}",
            compose_level_part(&LevelTracker::global().counts()),
            compose_energy_part(&JouleLedger::global().counts()),
        );
    }
}

/// Engineering-style label for small SI quantities (energy, latency):
/// `3.4e-11 J` → `34.0p`.
fn fmt_si(v: f64) -> String {
    if !v.is_finite() {
        "--".to_string()
    } else if v.abs() >= 1.0 {
        format!("{v:.1}")
    } else if v.abs() >= 1e-3 {
        format!("{:.1}m", v * 1e3)
    } else if v.abs() >= 1e-6 {
        format!("{:.1}u", v * 1e6)
    } else if v.abs() >= 1e-9 {
        format!("{:.1}n", v * 1e9)
    } else {
        format!("{:.1}p", v * 1e12)
    }
}

/// Plain-line suffix with the ledger's running totals (empty while the
/// joule ledger is disarmed or has integrated nothing). Mid-campaign it
/// covers the printing worker and every thread that has exited.
fn compose_energy_part(counts: &JouleCounts) -> String {
    if counts.total_obs == 0 && counts.dissipated_j == 0.0 {
        return String::new();
    }
    format!(" | E {}J", fmt_si(counts.dissipated_j))
}

/// Plain-line suffix with per-level completion counts (empty while the
/// level tracker is disarmed or has seen nothing). A campaign feeds the
/// tracker once its workers are done, so the counts cover the campaigns
/// finished before the running one.
fn compose_level_part(counts: &LevelCounts) -> String {
    if counts.levels == 0 {
        return String::new();
    }
    if counts.min_n == counts.max_n {
        format!(" | levels {} n {}", counts.levels, counts.max_n)
    } else {
        format!(
            " | levels {} n {}..{}",
            counts.levels, counts.min_n, counts.max_n
        )
    }
}

/// Formats one status line from raw campaign counters.
///
/// Pure so the arithmetic guards are unit-testable: zero-completed,
/// zero-elapsed and all-failed campaigns must never print `inf`/`NaN`
/// (degenerate ETAs render as `--`).
#[allow(clippy::too_many_arguments)]
fn compose_line(
    done: usize,
    total: usize,
    threads: usize,
    elapsed_s: f64,
    busy_s: f64,
    failures: u64,
    retries: u64,
    last: bool,
    failure_suffix: &str,
) -> String {
    let elapsed = if elapsed_s.is_finite() && elapsed_s > 0.0 {
        elapsed_s
    } else {
        0.0
    };
    let rate = if elapsed > 0.0 {
        done as f64 / elapsed
    } else {
        0.0
    };
    let pct = if total == 0 {
        100.0
    } else {
        100.0 * done as f64 / total as f64
    };
    let util = if elapsed > 0.0 && threads > 0 && busy_s.is_finite() && busy_s >= 0.0 {
        100.0 * busy_s / (elapsed * threads as f64)
    } else {
        0.0
    };
    let timing = if last {
        format!("done {elapsed:.1}s")
    } else if done == 0 || done >= total || rate <= 0.0 {
        "eta --".to_string()
    } else {
        let eta = (total - done) as f64 / rate;
        format!("eta {eta:.1}s")
    };
    let retry_part = if retries > 0 {
        format!(" retries {retries}")
    } else {
        String::new()
    };
    format!(
        "mc: {done}/{total} ({pct:.1}%) | {rate:.1} runs/s | {timing} | \
         util {util:.0}% | failures {failures}{retry_part}{failure_suffix}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_progress_is_inert() {
        // The process-wide switch defaults to off in tests, so ticks must
        // be no-ops and the counters must stay untouched by printing.
        let p = CampaignProgress::start(10, 4);
        assert!(!p.is_enabled());
        p.tick(0.5);
        p.finish();
        assert_eq!(p.done.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn failures_reset_per_campaign() {
        let first = CampaignProgress::start(5, 1);
        first.note_failure(0x123, None);
        first.note_failure(0x456, Some("results/postmortem_tran_0.json".into()));
        let second = CampaignProgress::start(5, 1);
        assert_eq!(second.failures(), 0);
        assert_eq!(second.last_failure_suffix(), "");
        assert_eq!(first.failures(), 2, "the first campaign keeps its count");
    }

    #[test]
    fn compose_line_never_prints_inf_or_nan() {
        // Degenerate campaign shapes: nothing completed, zero wall time,
        // zero threads, all runs failed, zero total.
        let cases = [
            compose_line(0, 100, 4, 0.0, 0.0, 0, 0, false, ""),
            compose_line(0, 100, 4, f64::NAN, f64::NAN, 0, 0, false, ""),
            compose_line(0, 0, 0, 0.0, 0.0, 0, 0, true, ""),
            compose_line(50, 50, 4, 0.0, 0.0, 50, 0, true, ""),
            compose_line(1, 100, 4, -1.0, -1.0, 1, 0, false, ""),
        ];
        for line in &cases {
            assert!(!line.contains("inf"), "{line}");
            assert!(!line.to_lowercase().contains("nan"), "{line}");
        }
        // Zero-completed campaigns show a placeholder ETA, not a number.
        assert!(cases[0].contains("eta --"), "{}", cases[0]);
    }

    #[test]
    fn compose_line_shows_retries_next_to_failures() {
        let line = compose_line(10, 20, 2, 1.0, 1.5, 3, 7, false, "");
        assert!(line.contains("failures 3 retries 7"), "{line}");
        let quiet = compose_line(10, 20, 2, 1.0, 1.5, 0, 0, false, "");
        assert!(!quiet.contains("retries"), "{quiet}");
    }

    #[test]
    fn retries_reset_per_campaign() {
        let first = CampaignProgress::start(5, 1);
        first.note_retry();
        first.note_retry();
        let second = CampaignProgress::start(5, 1);
        assert_eq!(second.retries(), 0);
        assert_eq!(first.retries(), 2, "the first campaign keeps its count");
    }

    #[test]
    fn level_part_summarises_completion() {
        assert_eq!(compose_level_part(&LevelCounts::default()), "");
        let even = LevelCounts {
            levels: 16,
            min_n: 30,
            max_n: 30,
            total: 480,
        };
        assert_eq!(compose_level_part(&even), " | levels 16 n 30");
        let ragged = LevelCounts {
            levels: 16,
            min_n: 29,
            max_n: 31,
            total: 479,
        };
        assert_eq!(compose_level_part(&ragged), " | levels 16 n 29..31");
    }

    #[test]
    fn energy_part_summarises_the_ledger_totals() {
        assert_eq!(
            compose_energy_part(&JouleCounts {
                levels: 0,
                total_obs: 0,
                dissipated_j: 0.0
            }),
            ""
        );
        let part = compose_energy_part(&JouleCounts {
            levels: 16,
            total_obs: 480,
            dissipated_j: 1.7e-8,
        });
        assert_eq!(part, " | E 17.0nJ");
    }

    #[test]
    fn fmt_si_spans_the_pico_to_unit_range() {
        assert_eq!(fmt_si(34.8e-12), "34.8p");
        assert_eq!(fmt_si(1.65e-6), "1.7u");
        assert_eq!(fmt_si(2.5e-3), "2.5m");
        assert_eq!(fmt_si(3.0), "3.0");
        assert_eq!(fmt_si(f64::NAN), "--");
    }

    #[test]
    fn last_failure_suffix_names_seed_and_artifact() {
        let p = CampaignProgress::start(5, 1);
        assert_eq!(p.last_failure_suffix(), "", "no failure, no suffix");
        p.note_failure(0xABC, None);
        let s = p.last_failure_suffix();
        assert!(s.contains("0x0000000000000abc"), "{s}");
        p.note_failure(0xDEF, Some("results/postmortem_tran_3.json".into()));
        let s = p.last_failure_suffix();
        assert!(s.contains("0x0000000000000def"), "{s}");
        assert!(s.contains("results/postmortem_tran_3.json"), "{s}");
    }

    #[test]
    fn concurrent_campaigns_count_only_their_own_failures() {
        // Two campaigns start, note failures and retries, and read their
        // counts on their own threads at the same time (the barriers make
        // each phase overlap); each reports exactly its own counts.
        let campaigns = [(3u64, 5u64, 0xA11), (7, 2, 0xB22)];
        let barrier = std::sync::Barrier::new(campaigns.len());
        std::thread::scope(|scope| {
            for (failures, retries, seed) in campaigns {
                let barrier = &barrier;
                scope.spawn(move || {
                    let p = CampaignProgress::start(16, 2);
                    barrier.wait();
                    for k in 0..failures.max(retries) {
                        if k < retries {
                            p.note_retry();
                        }
                        if k < failures {
                            p.note_failure(seed + k, None);
                        }
                        std::thread::yield_now();
                    }
                    barrier.wait();
                    assert_eq!(p.failures(), failures);
                    assert_eq!(p.retries(), retries);
                    let last = format!("{:#018x}", seed + failures - 1);
                    assert_eq!(p.last_failure_suffix(), format!(" (last seed {last})"));
                });
            }
        });
    }
}
