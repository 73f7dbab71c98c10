//! Failure post-mortem artifacts.
//!
//! When a Newton solve, operating-point analysis, transient run or Monte
//! Carlo run fails, the solver layers build a [`PostmortemReport`] — the
//! per-iteration residual history, convergence-aid escalation record, the
//! worst-residual unknowns mapped back to node/device names, the timestep
//! tail, the last accepted solution and the active probe tails — and hand
//! it to [`record`]. This module owns the only disk-writing path for those
//! artifacts (solver crates are banned from direct `std::fs` writes by
//! `cargo xtask lint`), plus the thread-local hand-off that lets the Monte
//! Carlo engine enrich a solver-level report with the failed run's index
//! and derived replay seed before it lands on disk.
//!
//! The contract mirrors [`crate::Telemetry`]:
//!
//! 1. **Free when off.** [`is_active`] is one relaxed atomic load; a solver
//!    that checks it before building a report pays nothing in the common
//!    case. Nothing here runs on the accepted-step hot loop — reports are
//!    built only on terminal failure paths.
//! 2. **Bounded.** A report caps its own vectors at construction sites
//!    (history, tails); the writer allocates one artifact file per failure
//!    with a process-global sequence number.
//! 3. **Structured.** Artifacts are hand-rolled JSON (no serde), one file
//!    per failure under the configured artifacts directory, and every write
//!    is folded into the telemetry run report (`postmortem.artifacts`
//!    counter + one `postmortem.artifact` note carrying the path).

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;

use crate::json::JsonWriter;
use crate::Telemetry;

/// One unknown flagged by the convergence diagnostics: the `err/tol` ratio
/// of the worst offenders on the final failed Newton iteration.
#[derive(Debug, Clone, PartialEq)]
pub struct WorstUnknown {
    /// Circuit-level name (`v(node)` or `i(device:k)`).
    pub name: String,
    /// Convergence error normalized by the unknown's tolerance (≥ 1 means
    /// this unknown alone blocks convergence).
    pub residual_x_tol: f64,
    /// Value of the unknown at the last iterate.
    pub value: f64,
}

/// One accepted (or attempted) transient step in the timestep tail.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TimestepRecord {
    /// End time of the step (s, simulated).
    pub t: f64,
    /// Step size (s).
    pub dt: f64,
    /// Newton iterations the step took.
    pub newton_iters: u32,
}

/// The tail of one signal probe, carried into the artifact so the waveform
/// the run died on is inspectable without re-running.
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeTail {
    /// Probe label (`v(sl)`, `i(vsense)`, …).
    pub label: String,
    /// Most recent `(t, value)` samples, oldest first.
    pub samples: Vec<(f64, f64)>,
}

/// Everything known about one failure, ready to serialize.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PostmortemReport {
    /// Failure site: `"newton"`, `"op"`, `"tran"` or `"mc_run"`.
    pub kind: String,
    /// Rendered error of the failing analysis.
    pub error: String,
    /// Simulated time at the failure (0 for DC analyses).
    pub sim_time: f64,
    /// Per-iteration worst `err/tol` of the final Newton attempt, in
    /// iteration order.
    pub residual_history: Vec<f64>,
    /// Worst-residual unknowns of the final iteration, worst first.
    pub worst_unknowns: Vec<WorstUnknown>,
    /// Convergence-aid escalation record (gmin stepping, source stepping,
    /// damping), in the order the aids were tried.
    pub escalations: Vec<String>,
    /// Most recent accepted transient steps, oldest first.
    pub timestep_tail: Vec<TimestepRecord>,
    /// Last accepted solution, as `(unknown name, value)` pairs (bounded).
    pub last_solution: Vec<(String, f64)>,
    /// Tails of the active signal probes.
    pub probe_tails: Vec<ProbeTail>,
    /// Monte Carlo run index, once the engine enriched the report.
    pub run_index: Option<u64>,
    /// Derived replay seed (`StdRng::seed_from_u64(seed)` reproduces the
    /// run in isolation), once the engine enriched the report.
    pub seed: Option<u64>,
    /// Retry-ladder attempt this failure terminated on (1-based), once the
    /// campaign supervisor enriched the report.
    pub attempt: Option<u64>,
    /// Retry-ladder size the supervisor was running with.
    pub max_attempts: Option<u64>,
    /// Where this report was already written, if it was.
    pub artifact_path: Option<String>,
}

impl PostmortemReport {
    /// A fresh report for the given failure site and rendered error.
    pub fn new(kind: impl Into<String>, error: impl Into<String>) -> Self {
        PostmortemReport {
            kind: kind.into(),
            error: error.into(),
            ..PostmortemReport::default()
        }
    }

    /// Serializes the report as a standalone JSON artifact.
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.string("artifact", "oxterm-postmortem");
        w.u64("schema_version", 1);
        w.string("kind", &self.kind);
        w.string("error", &self.error);
        w.f64("sim_time_s", self.sim_time);
        if let Some(run) = self.run_index {
            w.u64("run_index", run);
        }
        if let Some(seed) = self.seed {
            w.u64("seed", seed);
            w.string("seed_hex", &format!("{seed:#018x}"));
            w.string("replay", "StdRng::seed_from_u64(seed) replays this run");
        }
        if let Some(attempt) = self.attempt {
            w.u64("attempt", attempt);
        }
        if let Some(max_attempts) = self.max_attempts {
            w.u64("max_attempts", max_attempts);
        }
        w.begin_array_key("residual_history");
        for r in &self.residual_history {
            w.array_f64(*r);
        }
        w.end_array();
        w.begin_array_key("worst_unknowns");
        for u in &self.worst_unknowns {
            w.begin_object();
            w.string("name", &u.name);
            w.f64("residual_x_tol", u.residual_x_tol);
            w.f64("value", u.value);
            w.end_object();
        }
        w.end_array();
        w.begin_array_key("escalations");
        for e in &self.escalations {
            w.array_string(e);
        }
        w.end_array();
        w.begin_array_key("timestep_tail");
        for s in &self.timestep_tail {
            w.begin_object();
            w.f64("t_s", s.t);
            w.f64("dt_s", s.dt);
            w.u64("newton_iters", u64::from(s.newton_iters));
            w.end_object();
        }
        w.end_array();
        w.begin_array_key("last_solution");
        for (name, v) in &self.last_solution {
            w.begin_object();
            w.string("name", name);
            w.f64("value", *v);
            w.end_object();
        }
        w.end_array();
        w.begin_array_key("probe_tails");
        for p in &self.probe_tails {
            w.begin_object();
            w.string("label", &p.label);
            w.begin_array_key("t_s");
            for (t, _) in &p.samples {
                w.array_f64(*t);
            }
            w.end_array();
            w.begin_array_key("value");
            for (_, y) in &p.samples {
                w.array_f64(*y);
            }
            w.end_array();
            w.end_object();
        }
        w.end_array();
        w.end_object();
        w.finish()
    }
}

/// Whether reports should be captured at all (set by tests and by
/// [`set_artifacts_dir`]). One relaxed load on the failure path.
static CAPTURE: AtomicBool = AtomicBool::new(false);

/// The configured artifacts directory, if any.
static DIR: RwLock<Option<String>> = RwLock::new(None);

/// Monotone artifact sequence number (process-wide, so concurrent Monte
/// Carlo workers never collide on a filename).
static SEQ: AtomicU64 = AtomicU64::new(0);

thread_local! {
    /// The most recent failure report built on this thread; the Monte
    /// Carlo engine takes it to enrich with run index and replay seed.
    static LAST: RefCell<Option<PostmortemReport>> = const { RefCell::new(None) };

    /// While `true`, [`record`] behaves like [`stash`]: the report is kept
    /// thread-locally but no artifact is written. The campaign supervisor
    /// sets this around retryable attempts so a run that fails, retries and
    /// fails again leaves exactly one artifact (for its *final* attempt),
    /// not one per attempt.
    static DEFERRED: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

/// Turns in-memory report capture on or off without configuring a
/// directory (used by tests and library callers that only want
/// [`take_last`]).
pub fn set_capture(enabled: bool) {
    CAPTURE.store(enabled, Ordering::Relaxed);
}

/// Configures the artifacts directory and enables capture. Artifacts land
/// as `<dir>/postmortem_<kind>_<seq>.json`.
pub fn set_artifacts_dir(dir: impl Into<String>) {
    if let Ok(mut slot) = DIR.write() {
        *slot = Some(dir.into());
    }
    CAPTURE.store(true, Ordering::Relaxed);
}

/// Whether failure paths should bother building a report.
#[inline]
pub fn is_active() -> bool {
    CAPTURE.load(Ordering::Relaxed)
}

/// The configured artifacts directory, if one was set.
pub fn artifacts_dir() -> Option<String> {
    DIR.read().ok().and_then(|d| d.clone())
}

/// Records a failure report: stores it in the thread-local slot (for the
/// Monte Carlo engine to enrich) and, when an artifacts directory is
/// configured, writes it to disk immediately. Returns the artifact path if
/// one was written.
///
/// No-op returning `None` when capture is off. While [`set_deferred`] is
/// in effect on this thread, degrades to [`stash`] (no artifact written).
pub fn record(mut report: PostmortemReport) -> Option<String> {
    if !is_active() {
        return None;
    }
    if is_deferred() {
        LAST.with(|slot| *slot.borrow_mut() = Some(report));
        return None;
    }
    let path = write_report(&mut report);
    LAST.with(|slot| *slot.borrow_mut() = Some(report));
    path
}

/// Switches this thread's artifact writes into (or out of) deferred mode;
/// see the `DEFERRED` thread-local. Returns the previous setting so
/// callers can restore it.
pub fn set_deferred(deferred: bool) -> bool {
    DEFERRED.with(|d| d.replace(deferred))
}

/// Whether this thread currently defers artifact writes.
pub fn is_deferred() -> bool {
    DEFERRED.with(|d| d.get())
}

/// Stores a report thread-locally **without** writing an artifact.
///
/// Inner solver layers use this for failures that may still be retried or
/// escalated (a Newton attempt inside gmin stepping, a rejected transient
/// step); only terminal failure sites call [`record`]/[`write_report`], so
/// one failed run produces one artifact, not one per retry.
pub fn stash(report: PostmortemReport) {
    if !is_active() {
        return;
    }
    LAST.with(|slot| *slot.borrow_mut() = Some(report));
}

/// Takes the most recent failure report recorded on this thread, if any.
pub fn take_last() -> Option<PostmortemReport> {
    LAST.with(|slot| slot.borrow_mut().take())
}

/// Writes `report` as a fresh artifact if a directory is configured,
/// stamping `report.artifact_path`. Counts the write into the global
/// telemetry report (`postmortem.artifacts` counter plus one
/// `postmortem.artifact` note carrying the path).
pub fn write_report(report: &mut PostmortemReport) -> Option<String> {
    let dir = artifacts_dir()?;
    let seq = SEQ.fetch_add(1, Ordering::Relaxed);
    let path = format!("{dir}/postmortem_{}_{seq}.json", report.kind);
    report.artifact_path = Some(path.clone());
    let written = write_at(&path, report)?;
    let tel = Telemetry::global();
    tel.incr("postmortem.artifacts");
    tel.note("postmortem.artifact", &written);
    Some(written)
}

/// (Re)writes `report` at an explicit path — the Monte Carlo engine uses
/// this to replace a solver-level artifact with the enriched run bundle.
/// Rewrites are not counted again (the artifact was counted when first
/// written by [`write_report`]).
pub fn write_at(path: &str, report: &PostmortemReport) -> Option<String> {
    if let Some(parent) = std::path::Path::new(path).parent() {
        if !parent.as_os_str().is_empty() && std::fs::create_dir_all(parent).is_err() {
            return None;
        }
    }
    match std::fs::write(path, report.to_json()) {
        Ok(()) => Some(path.to_string()),
        Err(e) => {
            eprintln!("postmortem: could not write {path}: {e}");
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::{Mutex, MutexGuard};

    /// Serializes the tests that toggle the process-global `CAPTURE`
    /// flag: the test harness runs them on parallel threads, and one
    /// switching capture off between another's `set_capture(true)` and
    /// its `record` makes that `record` a no-op.
    static CAPTURE_LOCK: Mutex<()> = Mutex::new(());

    fn capture_lock() -> MutexGuard<'static, ()> {
        CAPTURE_LOCK
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn sample() -> PostmortemReport {
        let mut r = PostmortemReport::new("tran", "no convergence at t = 1e-6");
        r.sim_time = 1e-6;
        r.residual_history = vec![100.0, 12.5, 3.0];
        r.worst_unknowns = vec![WorstUnknown {
            name: "v(bl_sense)".into(),
            residual_x_tol: 3.0,
            value: 1.23,
        }];
        r.escalations = vec!["gmin stepping failed at gshunt 1e-5".into()];
        r.timestep_tail = vec![TimestepRecord {
            t: 9e-7,
            dt: 1e-9,
            newton_iters: 12,
        }];
        r.last_solution = vec![("v(sl)".into(), 1.35)];
        r.probe_tails = vec![ProbeTail {
            label: "i(vsense)".into(),
            samples: vec![(8e-7, 1e-5), (9e-7, 9e-6)],
        }];
        r.run_index = Some(42);
        r.seed = Some(0xDEAD_BEEF);
        r
    }

    #[test]
    fn json_round_trip_structure() {
        let json = sample().to_json();
        assert!(json.contains(r#""kind":"tran""#), "{json}");
        assert!(
            json.contains(r#""residual_history":[100.0,12.5,3.0]"#),
            "{json}"
        );
        assert!(json.contains(r#""name":"v(bl_sense)""#), "{json}");
        assert!(json.contains(r#""seed":3735928559"#), "{json}");
        assert!(
            json.contains(r#""seed_hex":"0x00000000deadbeef""#),
            "{json}"
        );
        assert!(json.contains(r#""run_index":42"#), "{json}");
        assert!(json.contains(r#""label":"i(vsense)""#), "{json}");
        let opens = json.matches('{').count() + json.matches('[').count();
        let closes = json.matches('}').count() + json.matches(']').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn inactive_record_is_a_noop() {
        let _guard = capture_lock();
        // Capture defaults to off in this process unless a test enabled it;
        // force it off for the scope of this check.
        set_capture(false);
        assert!(record(sample()).is_none());
        assert!(take_last().is_none());
    }

    #[test]
    fn attempt_fields_serialize_when_present() {
        let mut r = sample();
        r.attempt = Some(3);
        r.max_attempts = Some(3);
        let json = r.to_json();
        assert!(json.contains(r#""attempt":3"#), "{json}");
        assert!(json.contains(r#""max_attempts":3"#), "{json}");
        let without = sample().to_json();
        assert!(!without.contains("attempt"), "{without}");
    }

    #[test]
    fn deferred_record_stashes_without_writing() {
        let _guard = capture_lock();
        set_capture(true);
        let was = set_deferred(true);
        let path = record(sample());
        assert!(path.is_none(), "deferred record must not write");
        let taken = take_last().expect("report still stashed");
        assert_eq!(taken.kind, "tran");
        assert!(
            taken.artifact_path.is_none(),
            "deferred record must not stamp a path"
        );
        set_deferred(was);
        assert!(!is_deferred() || was);
        set_capture(false);
    }

    #[test]
    fn capture_without_dir_stores_thread_locally() {
        let _guard = capture_lock();
        set_capture(true);
        let path = record(sample());
        // No directory configured in unit tests → nothing written.
        if artifacts_dir().is_none() {
            assert!(path.is_none());
        }
        let taken = take_last().expect("report stored");
        assert_eq!(taken.kind, "tran");
        assert!(take_last().is_none(), "take_last drains the slot");
        set_capture(false);
    }
}
