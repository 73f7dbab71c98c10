//! Hierarchical phase profiler for the solver hot path.
//!
//! Aggregate counters say *how much* work ran; they do not say **where
//! the time goes** inside one Newton solve.
//! This module closes that gap with a fixed catalog of nestable phases
//! ([`PhaseId`]) instrumented at the stamping / factorization / residual /
//! timestep-control boundaries of the `spice` engine and around the Monte
//! Carlo fast path. Each phase accumulates wall time, call count and
//! child-attributed time (so self time is derivable).
//!
//! The design mirrors [`crate::Telemetry`]:
//!
//! - [`Profiler`] is a cheap handle wrapping `Option<Arc<…>>`; the disabled
//!   handle costs **one branch and zero allocations** per scope (pinned by
//!   `tests/profiler_zero_alloc.rs`, like chaos).
//! - Library code uses the process-global handle ([`Profiler::global`]),
//!   armed once by a binary via [`Profiler::install`] (`--profile`);
//!   tests build private handles and never touch the global.
//! - Recording takes no lock: a closing scope adds to its thread's plain
//!   per-phase totals, which merge into the profiler when a Monte Carlo
//!   worker exits and when [`Profiler::snapshot`] runs on the calling
//!   thread (see `shard.rs`).
//!
//! Nesting is tracked per thread: a guard pushes a frame on construction
//! and, on drop, charges its elapsed time to its phase and to the parent
//! frame's child tally. *Self* time is `wall − child`, so a phase that only
//! delegates (e.g. `tran/newton`) shows near-zero self time while its
//! leaves (`tran/newton/stamp`, `tran/newton/solve_lu`) carry the
//! attribution. Phases are statically pathed: `tran/newton/*` keeps that
//! label even when the Newton loop is entered from the operating-point
//! solver — the dynamic self/child arithmetic stays exact regardless of
//! the caller.
//!
//! Times are wall times, so a preemption (milliseconds on a loaded host)
//! lands whole in whichever phase's self time it hit, and can swamp a
//! millisecond-scale profile's coverage. Each phase therefore also tallies
//! its preempted self time, which leaf coverage leaves out. Self time
//! accrues in segments between consecutive clock reads on a thread; a
//! segment of at least [`STALL_CHECK_NS`] reads the thread's cumulative
//! run-queue wait (Linux `/proc/thread-self/schedstat`, a few hundred ns,
//! so only on long segments) and tallies what it grew by since the last
//! check, up to the segment's length. (The refill of the caches the other
//! task evicted, tens of µs after each preemption here, stays in the
//! phase.) Without the file nothing is tallied. A thread's first scope
//! opens the file and records that set-up as `profiler/setup`, an
//! orchestration phase.
//!
//! This module (with `span.rs`) is one of the few sanctioned
//! wall-clock readers in the workspace: `cargo xtask lint` bans
//! `Instant::now` in solver crates and in the rest of `telemetry`/`mc`.
//! Crates that need a raw monotonic timestamp use [`monotonic_ns`].

use crate::json::JsonWriter;
use crate::shard::{self, Shard, Sink};
use crate::Telemetry;
use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::time::Instant;

/// Number of phases in the catalog (length of [`PhaseId::ALL`]).
pub const N_PHASES: usize = 19;

/// One phase of the fixed instrumentation catalog.
///
/// Paths are static and hierarchical (`/`-separated); the catalog is closed
/// on purpose — a fixed enum keeps the armed hot path at "index into an
/// array" with no name hashing, and keeps reports comparable across runs.
/// Variants are declared in path order, which is also their index.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum PhaseId {
    /// Whole-binary scope opened by `telemetry_cli` (`bench/run`).
    BenchRun,
    /// A Monte Carlo campaign: dispatch plus the join on its workers
    /// (`mc/campaign`).
    McCampaign,
    /// One batch of Monte Carlo runs a worker claimed, executing
    /// (`mc/worker/run`).
    McWorkerRun,
    /// One MLC program operation, behavioral or circuit-level, or one
    /// batch of Monte Carlo programs (`mlc/program`).
    MlcProgram,
    /// Drawing a batch of Monte Carlo programs' variability: each cell
    /// instance, perturbed conditions and state noise, laid out as the
    /// batch's SET jobs (`mlc/sample`).
    MlcSample,
    /// Building a circuit-level programming testbench and measuring its
    /// waveforms afterwards (`mlc/testbench`).
    MlcTestbench,
    /// DC operating-point solve, including gmin/source stepping
    /// (`op/solve`).
    OpSolve,
    /// The profiler's own set-up on a thread's first scope: opening the
    /// thread's schedstat file and reading its run-queue baseline
    /// (`profiler/setup`, one call per profiled thread).
    ProfilerSetup,
    /// The Nelder–Mead model calibration (`rram/calib`); its objective
    /// delegates to `rram/reset`.
    RramCalib,
    /// One fast-path RESET, terminated or fixed-width, or a batch of
    /// terminated RESETs run one after another (`rram/reset`).
    RramReset,
    /// One fast-path compliance-limited SET, or a batch of them run one
    /// after another (`rram/set`).
    RramSet,
    /// Monitor callbacks between accepted steps, including the solution
    /// they are shown (`tran/monitors`).
    TranMonitors,
    /// One Newton–Raphson solve (`tran/newton`).
    TranNewton,
    /// Convergence check and update damping (`tran/newton/residual`).
    NewtonResidual,
    /// LU factorization + back-substitution (`tran/newton/solve_lu`).
    NewtonSolveLu,
    /// Device stamping into the MNA system (`tran/newton/stamp`).
    NewtonStamp,
    /// Recording an accepted step: waveform rows, power meter and step
    /// counters (`tran/record`).
    TranRecord,
    /// One adaptive transient run (`tran/run`).
    TranRun,
    /// Device state priming/advancement (`tran/states`).
    TranStates,
}

/// How a phase's *self* time is classified in coverage arithmetic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhaseRole {
    /// Waiting / reporting scaffolding (`bench/run`, `mc/campaign`) and
    /// the profiler's own set-up (`profiler/setup`): its self time is
    /// blocking on workers, rendering output or observing, not solver
    /// work, so it is excluded from the attribution denominator.
    Orchestration,
    /// Real work that delegates most of its time to finer phases; its self
    /// time counts *against* leaf coverage.
    Interior,
    /// A finest-grained phase; its self time is the attribution target.
    Leaf,
}

impl PhaseId {
    /// Every phase, ordered by path (the order snapshots report in).
    pub const ALL: [PhaseId; N_PHASES] = [
        PhaseId::BenchRun,
        PhaseId::McCampaign,
        PhaseId::McWorkerRun,
        PhaseId::MlcProgram,
        PhaseId::MlcSample,
        PhaseId::MlcTestbench,
        PhaseId::OpSolve,
        PhaseId::ProfilerSetup,
        PhaseId::RramCalib,
        PhaseId::RramReset,
        PhaseId::RramSet,
        PhaseId::TranMonitors,
        PhaseId::TranNewton,
        PhaseId::NewtonResidual,
        PhaseId::NewtonSolveLu,
        PhaseId::NewtonStamp,
        PhaseId::TranRecord,
        PhaseId::TranRun,
        PhaseId::TranStates,
    ];

    /// The static hierarchical path, e.g. `tran/newton/stamp`.
    pub const fn path(self) -> &'static str {
        match self {
            PhaseId::BenchRun => "bench/run",
            PhaseId::McCampaign => "mc/campaign",
            PhaseId::McWorkerRun => "mc/worker/run",
            PhaseId::MlcProgram => "mlc/program",
            PhaseId::MlcSample => "mlc/sample",
            PhaseId::MlcTestbench => "mlc/testbench",
            PhaseId::OpSolve => "op/solve",
            PhaseId::ProfilerSetup => "profiler/setup",
            PhaseId::RramCalib => "rram/calib",
            PhaseId::RramReset => "rram/reset",
            PhaseId::RramSet => "rram/set",
            PhaseId::TranMonitors => "tran/monitors",
            PhaseId::TranNewton => "tran/newton",
            PhaseId::NewtonResidual => "tran/newton/residual",
            PhaseId::NewtonSolveLu => "tran/newton/solve_lu",
            PhaseId::NewtonStamp => "tran/newton/stamp",
            PhaseId::TranRecord => "tran/record",
            PhaseId::TranRun => "tran/run",
            PhaseId::TranStates => "tran/states",
        }
    }

    /// The phase's role in coverage arithmetic (see [`PhaseRole`]).
    pub const fn role(self) -> PhaseRole {
        match self {
            PhaseId::BenchRun | PhaseId::McCampaign | PhaseId::ProfilerSetup => {
                PhaseRole::Orchestration
            }
            PhaseId::McWorkerRun
            | PhaseId::MlcProgram
            | PhaseId::OpSolve
            | PhaseId::RramCalib
            | PhaseId::TranRun
            | PhaseId::TranNewton => PhaseRole::Interior,
            PhaseId::MlcSample
            | PhaseId::MlcTestbench
            | PhaseId::RramReset
            | PhaseId::RramSet
            | PhaseId::TranMonitors
            | PhaseId::NewtonResidual
            | PhaseId::NewtonSolveLu
            | PhaseId::NewtonStamp
            | PhaseId::TranRecord
            | PhaseId::TranStates => PhaseRole::Leaf,
        }
    }

    const fn index(self) -> usize {
        self as usize
    }
}

/// Raw monotonic nanoseconds since an arbitrary process-local origin.
///
/// The sanctioned clock for crates where `cargo xtask lint` bans
/// `Instant::now` (solver crates, `mc`): monotonic, cheap, and only ever
/// used as a difference of two samples.
pub fn monotonic_ns() -> u64 {
    static ORIGIN: OnceLock<Instant> = OnceLock::new();
    ORIGIN.get_or_init(Instant::now).elapsed().as_nanos() as u64
}

#[derive(Debug, Clone, Copy, Default)]
struct PhaseCell {
    wall_ns: u64,
    calls: u64,
    child_ns: u64,
    off_cpu_ns: u64,
}

impl PhaseCell {
    fn add(&mut self, other: &PhaseCell) {
        self.wall_ns += other.wall_ns;
        self.calls += other.calls;
        self.child_ns += other.child_ns;
        self.off_cpu_ns += other.off_cpu_ns;
    }
}

/// Self segments at least this long check the run-queue wait; a shorter
/// preemption can skew its phase by at most this much.
pub const STALL_CHECK_NS: u64 = 50_000;

#[derive(Debug, Default)]
struct ProfilerSink {
    totals: Mutex<[PhaseCell; N_PHASES]>,
}

impl Sink for ProfilerSink {
    type Tally = [PhaseCell; N_PHASES];

    fn merge(&self, tally: &Self::Tally) {
        // Sums only: a panicked holder left valid totals.
        let mut totals = self.totals.lock().unwrap_or_else(PoisonError::into_inner);
        for (t, c) in totals.iter_mut().zip(tally) {
            t.add(c);
        }
    }
}

/// One open scope on this thread's stack: accumulates the time of directly
/// nested guards so the parent can subtract them, and the preempted time
/// of its own self segments.
#[derive(Debug, Clone, Copy)]
struct Frame {
    /// The scope's sink ([`shard::key`]), so a thread interleaving guards
    /// from two private handles (test scenarios) never cross-attributes
    /// child time.
    sink: usize,
    child_ns: u64,
    off_cpu_ns: u64,
}

/// This thread's profiler state.
struct ThreadState {
    /// Per-phase totals of the scopes closed on this thread, per sink.
    shard: Shard<ProfilerSink>,
    frames: Vec<Frame>,
    /// The last clock read: where the current self segment began.
    last: Option<Instant>,
    /// The thread's cumulative run-queue wait at the last check (ns).
    waited_ns: Option<u64>,
    /// `/proc/thread-self/schedstat`, opened on first use (`None` once an
    /// open failed).
    schedstat: Option<Option<std::fs::File>>,
}

impl ThreadState {
    /// Ends the current self segment at `now` and returns how much of it
    /// to tally as preempted (see the module docs).
    fn end_segment(&mut self, now: Instant) -> u64 {
        let Some(last) = self.last.replace(now) else {
            return 0;
        };
        let segment = now.saturating_duration_since(last).as_nanos() as u64;
        if segment < STALL_CHECK_NS {
            return 0;
        }
        let waited = self.run_queue_wait_ns();
        match (std::mem::replace(&mut self.waited_ns, waited), waited) {
            (Some(before), Some(after)) => after.saturating_sub(before).min(segment),
            _ => 0,
        }
    }

    /// The second field of the thread's schedstat: nanoseconds spent
    /// runnable but waiting for a CPU.
    #[cfg(unix)]
    fn run_queue_wait_ns(&mut self) -> Option<u64> {
        use std::os::unix::fs::FileExt;
        let file = self
            .schedstat
            .get_or_insert_with(|| std::fs::File::open("/proc/thread-self/schedstat").ok())
            .as_ref()?;
        let mut buf = [0u8; 96];
        let n = file.read_at(&mut buf, 0).ok()?;
        std::str::from_utf8(&buf[..n])
            .ok()?
            .split_ascii_whitespace()
            .nth(1)?
            .parse()
            .ok()
    }

    #[cfg(not(unix))]
    fn run_queue_wait_ns(&mut self) -> Option<u64> {
        None
    }
}

thread_local! {
    static THREAD: RefCell<ThreadState> = const {
        RefCell::new(ThreadState {
            shard: Shard::new(),
            frames: Vec::new(),
            last: None,
            waited_ns: None,
            schedstat: None,
        })
    };
}

/// RAII guard for one phase scope; records into the profiler on drop.
///
/// The inert (disarmed) variant is a `None` — constructing and dropping it
/// touches neither the clock nor thread-local state.
#[derive(Debug)]
pub struct PhaseGuard {
    inner: Option<GuardInner>,
}

#[derive(Debug)]
struct GuardInner {
    /// The sink's [`shard::key`]; the thread bound it when the scope opened.
    sink: usize,
    id: PhaseId,
    start: Instant,
}

impl PhaseGuard {
    /// Whether this guard will record on drop.
    pub fn is_active(&self) -> bool {
        self.inner.is_some()
    }

    /// Ends the scope now instead of at scope exit.
    pub fn finish(self) {
        drop(self);
    }

    /// Ends this scope and opens its sibling `id` at the same instant.
    ///
    /// One clock read serves both edges and the bookkeeping lands in the
    /// new scope, so a parent that runs its children back to back is
    /// charged nothing between them. A disarmed guard stays disarmed.
    pub fn then(mut self, id: PhaseId) -> PhaseGuard {
        let Some(g) = self.inner.take() else {
            return PhaseGuard { inner: None };
        };
        let now = Instant::now();
        g.close(Some(now));
        PhaseGuard::open(g.sink, None, id, now)
    }

    /// Opens scope `id` of the sink `key` at `start`, binding `sink` (the
    /// sink behind `key`) to this thread's shard if given.
    fn open(
        key: usize,
        sink: Option<&Arc<ProfilerSink>>,
        id: PhaseId,
        mut start: Instant,
    ) -> PhaseGuard {
        let _ = THREAD.try_with(|thread| {
            let thread = &mut *thread.borrow_mut();
            if let Some(sink) = sink {
                thread.shard.tally(sink);
            }
            if thread.last.is_none() {
                // The thread's first profiled event: set the run-queue
                // baseline, which opens the schedstat file, and start the
                // scope after it. That set-up is the profiler's, not the
                // scope's: it records as `profiler/setup`.
                thread.waited_ns = thread.run_queue_wait_ns();
                let now = Instant::now();
                if let Some(cells) = thread.shard.tally_at(key) {
                    cells[PhaseId::ProfilerSetup.index()].add(&PhaseCell {
                        wall_ns: now.saturating_duration_since(start).as_nanos() as u64,
                        calls: 1,
                        ..PhaseCell::default()
                    });
                }
                start = now;
            }
            // The segment ending here was the enclosing scope's self time.
            let off_cpu = thread.end_segment(start);
            if let Some(parent) = thread.frames.last_mut() {
                parent.off_cpu_ns += off_cpu;
            }
            thread.frames.push(Frame {
                sink: key,
                child_ns: 0,
                off_cpu_ns: 0,
            });
        });
        PhaseGuard {
            inner: Some(GuardInner {
                sink: key,
                id,
                start,
            }),
        }
    }
}

impl GuardInner {
    /// Records the scope as ended at `end`, or at a clock read taken as
    /// late as possible: the scope's own bookkeeping lands in its wall
    /// time rather than in its parent's self time.
    fn close(&self, end: Option<Instant>) {
        let _ = THREAD.try_with(|thread| {
            let thread = &mut *thread.borrow_mut();
            let end = end.unwrap_or_else(Instant::now);
            // The segment ending here was this scope's self time.
            let off_cpu = thread.end_segment(end);
            // Pop this scope's frame and charge the elapsed time upward. A
            // guard dropped on another thread than its own finds no frame
            // or tally there and records nothing.
            let Some(frame) = thread.frames.pop() else {
                return;
            };
            let elapsed_ns = end.saturating_duration_since(self.start).as_nanos() as u64;
            if let Some(parent) = thread.frames.last_mut() {
                if parent.sink == self.sink {
                    parent.child_ns += elapsed_ns;
                }
            }
            if let Some(cells) = thread.shard.tally_at(self.sink) {
                cells[self.id.index()].add(&PhaseCell {
                    wall_ns: elapsed_ns,
                    calls: 1,
                    child_ns: frame.child_ns,
                    off_cpu_ns: frame.off_cpu_ns + off_cpu,
                });
            }
        });
    }
}

impl Drop for PhaseGuard {
    fn drop(&mut self) {
        if let Some(g) = self.inner.take() {
            g.close(None);
        }
    }
}

/// The merged totals of one phase, as reported by a snapshot.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseStats {
    /// Which phase.
    pub id: PhaseId,
    /// Number of completed scopes.
    pub calls: u64,
    /// Total wall time spent inside the scope, nanoseconds (summed across
    /// threads, so it can exceed real time under parallelism).
    pub wall_ns: u64,
    /// Wall time attributed to directly nested profiled scopes.
    pub child_ns: u64,
    /// The self time tallied as preempted (see the module docs).
    pub off_cpu_ns: u64,
}

impl PhaseStats {
    /// The static path of this phase.
    pub fn path(&self) -> &'static str {
        self.id.path()
    }

    /// Wall time not attributed to any nested profiled scope.
    pub fn self_ns(&self) -> u64 {
        self.wall_ns.saturating_sub(self.child_ns)
    }

    /// Self time not tallied as preempted: [`PhaseStats::self_ns`] less
    /// [`PhaseStats::off_cpu_ns`].
    pub fn on_cpu_self_ns(&self) -> u64 {
        self.self_ns().saturating_sub(self.off_cpu_ns)
    }
}

/// A merged point-in-time view of every phase that ever completed a scope.
#[derive(Debug, Clone, Default)]
pub struct ProfileSnapshot {
    /// Per-phase totals, ordered by path; phases with zero calls elided.
    pub phases: Vec<PhaseStats>,
}

impl ProfileSnapshot {
    /// Whether nothing was recorded.
    pub fn is_empty(&self) -> bool {
        self.phases.is_empty()
    }

    /// The stats for `id`, if it recorded.
    pub fn phase(&self, id: PhaseId) -> Option<&PhaseStats> {
        self.phases.iter().find(|p| p.id == id)
    }

    /// Total self time of non-orchestration phases — the attribution
    /// denominator. Orchestration self time (blocking on workers,
    /// rendering reports) is excluded; see [`PhaseRole`].
    pub fn work_self_ns(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.id.role() != PhaseRole::Orchestration)
            .map(|p| p.self_ns())
            .sum()
    }

    /// Total self time of leaf phases.
    pub fn leaf_self_ns(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.id.role() == PhaseRole::Leaf)
            .map(|p| p.self_ns())
            .sum()
    }

    /// Self time of orchestration phases (reported, never counted).
    pub fn orchestration_self_ns(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.id.role() == PhaseRole::Orchestration)
            .map(|p| p.self_ns())
            .sum()
    }

    /// Self time of non-orchestration phases tallied as preempted: the
    /// part of [`ProfileSnapshot::work_self_ns`] leaf coverage leaves out.
    pub fn off_cpu_ns(&self) -> u64 {
        self.phases
            .iter()
            .filter(|p| p.id.role() != PhaseRole::Orchestration)
            .map(|p| p.off_cpu_ns)
            .sum()
    }

    /// Fraction of profiled solver work attributed to leaf phases
    /// (`None` when nothing non-orchestration recorded), leaving out self
    /// time tallied as preempted so a preemption cannot swing it. The hot-path report's
    /// headline number: `tests/hotpath.rs` gates it at ≥ 0.9 so "time we
    /// can't name" never silently grows.
    pub fn leaf_coverage(&self) -> Option<f64> {
        let on_cpu = |role: fn(PhaseRole) -> bool| -> u64 {
            self.phases
                .iter()
                .filter(|p| role(p.id.role()))
                .map(PhaseStats::on_cpu_self_ns)
                .sum()
        };
        let work = on_cpu(|r| r != PhaseRole::Orchestration);
        if work == 0 {
            return None;
        }
        Some(on_cpu(|r| r == PhaseRole::Leaf) as f64 / work as f64)
    }

    /// A phase's share of the attribution denominator (`None` for
    /// orchestration phases and when nothing recorded).
    pub fn share(&self, stats: &PhaseStats) -> Option<f64> {
        if stats.id.role() == PhaseRole::Orchestration {
            return None;
        }
        let work = self.work_self_ns();
        if work == 0 {
            return None;
        }
        Some(stats.self_ns() as f64 / work as f64)
    }

    /// Renders the snapshot as an indented ASCII tree with per-phase
    /// calls, wall, self and share columns.
    pub fn to_ascii_tree(&self) -> String {
        let mut out = String::new();
        if self.is_empty() {
            out.push_str("profile: no phases recorded\n");
            return out;
        }
        let _ = writeln!(
            out,
            "{:<34} {:>10} {:>11} {:>11} {:>7}",
            "phase", "calls", "wall", "self", "share"
        );
        let _ = writeln!(
            out,
            "{:-<34} {:->10} {:->11} {:->11} {:->7}",
            "", "", "", "", ""
        );
        for p in &self.phases {
            let path = p.path();
            let depth = path.matches('/').count();
            let name = path.rsplit('/').next().unwrap_or(path);
            let label = format!("{}{}", "  ".repeat(depth), name);
            let share = match self.share(p) {
                Some(s) => format!("{:.1}%", s * 100.0),
                None => "-".to_string(),
            };
            let _ = writeln!(
                out,
                "{:<34} {:>10} {:>11} {:>11} {:>7}",
                label,
                p.calls,
                fmt_ns(p.wall_ns),
                fmt_ns(p.self_ns()),
                share
            );
        }
        let _ = match self.leaf_coverage() {
            Some(cov) => writeln!(
                out,
                "leaf coverage: {:.1}% of {} profiled solver work ({} of it preempted and {} orchestration self excluded)",
                cov * 100.0,
                fmt_ns(self.work_self_ns()),
                fmt_ns(self.off_cpu_ns()),
                fmt_ns(self.orchestration_self_ns())
            ),
            None => writeln!(out, "leaf coverage: n/a (no solver work profiled)"),
        };
        out
    }

    /// Serializes the snapshot as compact JSON (`oxterm-profile/1`).
    pub fn to_json(&self) -> String {
        let mut w = JsonWriter::new();
        w.begin_object();
        w.string("schema", "oxterm-profile/1");
        w.begin_object_key("phases");
        for p in &self.phases {
            w.begin_object_key(p.path());
            w.u64("calls", p.calls);
            w.u64("wall_ns", p.wall_ns);
            w.u64("self_ns", p.self_ns());
            w.u64("child_ns", p.child_ns);
            w.u64("off_cpu_ns", p.off_cpu_ns);
            w.f64_opt("share", self.share(p));
            w.end_object();
        }
        w.end_object();
        w.u64("work_self_ns", self.work_self_ns());
        w.u64("leaf_self_ns", self.leaf_self_ns());
        w.u64("off_cpu_ns", self.off_cpu_ns());
        w.u64("orchestration_self_ns", self.orchestration_self_ns());
        w.f64_opt("leaf_coverage", self.leaf_coverage());
        w.end_object();
        w.finish()
    }

    /// Folds the per-phase totals into `tel`'s registry as `profile.*`
    /// counters (path with `/` → `.`), so phase totals ride the existing
    /// report/JSON surfaces.
    pub fn fold_into(&self, tel: &Telemetry) {
        for p in &self.phases {
            let dotted = p.path().replace('/', ".");
            tel.add(&format!("profile.{dotted}.calls"), p.calls);
            tel.add(&format!("profile.{dotted}.wall_ns"), p.wall_ns);
            tel.add(&format!("profile.{dotted}.self_ns"), p.self_ns());
        }
    }
}

/// Human-readable nanosecond quantity for tree cells.
fn fmt_ns(ns: u64) -> String {
    let s = ns as f64 * 1e-9;
    if ns == 0 {
        "0".to_string()
    } else if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} us", s * 1e6)
    } else {
        format!("{ns} ns")
    }
}

/// A cheap, cloneable profiler handle; `None` inside means disarmed and a
/// phase scope costs one branch and zero allocations.
#[derive(Debug, Clone, Default)]
pub struct Profiler {
    inner: Option<Arc<ProfilerSink>>,
}

static GLOBAL: OnceLock<Profiler> = OnceLock::new();
static DISABLED: Profiler = Profiler { inner: None };

impl Profiler {
    /// A disarmed handle: scopes are inert.
    pub const fn disabled() -> Self {
        Profiler { inner: None }
    }

    /// A fresh armed handle with its own empty accumulators.
    pub fn enabled() -> Self {
        Profiler {
            inner: Some(Arc::new(ProfilerSink::default())),
        }
    }

    /// Whether this handle records anything.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The process-global handle used by library instrumentation points;
    /// disarmed until a binary calls [`Profiler::install`] (`--profile`).
    #[inline]
    pub fn global() -> &'static Profiler {
        GLOBAL.get().unwrap_or(&DISABLED)
    }

    /// Installs `handle` as the process-global profiler. First call wins;
    /// returns `false` if one was already installed.
    pub fn install(handle: Profiler) -> bool {
        GLOBAL.set(handle).is_ok()
    }

    /// Opens a phase scope; the returned guard records on drop. Disarmed:
    /// one branch, no clock read, no thread-local touch, no allocation.
    #[inline]
    pub fn phase(&self, id: PhaseId) -> PhaseGuard {
        match &self.inner {
            // The clock is read first, so the guard's bookkeeping lands
            // inside its own scope (see `GuardInner::close`).
            Some(sink) => {
                let start = Instant::now();
                PhaseGuard::open(shard::key(sink), Some(sink), id, start)
            }
            None => PhaseGuard { inner: None },
        }
    }

    /// Merges the calling thread's shard and returns a deterministic
    /// snapshot (empty when disarmed). Other threads are included once
    /// they have flushed or exited: snapshot after joining workers.
    pub fn snapshot(&self) -> ProfileSnapshot {
        let Some(sink) = &self.inner else {
            return ProfileSnapshot::default();
        };
        flush_thread();
        let merged = *sink.totals.lock().unwrap_or_else(PoisonError::into_inner);
        let phases = PhaseId::ALL
            .iter()
            .filter_map(|&id| {
                let c = merged[id.index()];
                (c.calls > 0).then_some(PhaseStats {
                    id,
                    calls: c.calls,
                    wall_ns: c.wall_ns,
                    child_ns: c.child_ns,
                    off_cpu_ns: c.off_cpu_ns,
                })
            })
            .collect();
        ProfileSnapshot { phases }
    }
}

/// Merges this thread's per-phase totals into their profilers.
pub(crate) fn flush_thread() {
    let _ = THREAD.try_with(|t| t.borrow_mut().shard.flush());
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::Ordering;
    use std::time::Duration;

    #[test]
    fn catalog_is_ordered_and_indexed_consistently() {
        for (i, id) in PhaseId::ALL.iter().enumerate() {
            assert_eq!(id.index(), i, "{:?}", id);
        }
        let paths: Vec<&str> = PhaseId::ALL.iter().map(|id| id.path()).collect();
        let mut sorted = paths.clone();
        sorted.sort_unstable();
        assert_eq!(paths, sorted, "ALL must be path-ordered");
    }

    #[test]
    fn nested_scopes_attribute_self_and_child_time() {
        let prof = Profiler::enabled();
        {
            let _outer = prof.phase(PhaseId::TranNewton);
            std::thread::sleep(Duration::from_millis(4));
            {
                let _inner = prof.phase(PhaseId::NewtonStamp);
                std::thread::sleep(Duration::from_millis(6));
            }
        }
        let snap = prof.snapshot();
        let outer = snap.phase(PhaseId::TranNewton).unwrap();
        let inner = snap.phase(PhaseId::NewtonStamp).unwrap();
        assert_eq!(outer.calls, 1);
        assert_eq!(inner.calls, 1);
        assert!(inner.wall_ns >= 6_000_000, "inner {}", inner.wall_ns);
        assert_eq!(outer.child_ns, inner.wall_ns);
        assert!(outer.self_ns() >= 4_000_000, "self {}", outer.self_ns());
        assert!(outer.wall_ns >= inner.wall_ns + outer.self_ns());
    }

    #[test]
    fn preempted_self_time_is_tallied() {
        if THREAD
            .with(|t| t.borrow_mut().run_queue_wait_ns())
            .is_none()
        {
            return; // no schedstat on this host: nothing is excluded
        }
        // More spinning threads than CPUs, so the profiled thread waits on
        // the run queue for part of its scope.
        let stop = std::sync::atomic::AtomicBool::new(false);
        let cpus = std::thread::available_parallelism().map_or(2, |n| n.get());
        let prof = Profiler::enabled();
        std::thread::scope(|scope| {
            for _ in 0..=cpus {
                scope.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        std::hint::spin_loop();
                    }
                });
            }
            let _leaf = prof.phase(PhaseId::NewtonStamp);
            let t0 = Instant::now();
            while t0.elapsed() < Duration::from_millis(40) {
                std::hint::spin_loop();
            }
            drop(_leaf);
            stop.store(true, Ordering::Relaxed);
        });
        let stamp = *prof.snapshot().phase(PhaseId::NewtonStamp).unwrap();
        assert!(stamp.off_cpu_ns > 0, "{stamp:?}");
        assert!(stamp.off_cpu_ns <= stamp.wall_ns, "{stamp:?}");
        assert_eq!(stamp.self_ns(), stamp.wall_ns);
        assert_eq!(stamp.on_cpu_self_ns(), stamp.wall_ns - stamp.off_cpu_ns);
    }

    #[test]
    fn sleeping_is_not_preemption() {
        let prof = Profiler::enabled();
        {
            let _g = prof.phase(PhaseId::TranNewton);
            std::thread::sleep(Duration::from_millis(5));
        }
        let newton = *prof.snapshot().phase(PhaseId::TranNewton).unwrap();
        assert!(newton.on_cpu_self_ns() >= 5_000_000, "{newton:?}");
    }

    #[test]
    fn then_hands_over_between_siblings_at_one_instant() {
        let prof = Profiler::enabled();
        {
            let _outer = prof.phase(PhaseId::TranNewton);
            let stamp = prof.phase(PhaseId::NewtonStamp);
            std::thread::sleep(Duration::from_millis(2));
            let solve = stamp.then(PhaseId::NewtonSolveLu);
            std::thread::sleep(Duration::from_millis(3));
            solve.then(PhaseId::NewtonStamp).finish();
        }
        let snap = prof.snapshot();
        let outer = snap.phase(PhaseId::TranNewton).unwrap();
        let stamp = snap.phase(PhaseId::NewtonStamp).unwrap();
        let solve = snap.phase(PhaseId::NewtonSolveLu).unwrap();
        assert_eq!((stamp.calls, solve.calls), (2, 1));
        assert!(stamp.wall_ns >= 2_000_000 && solve.wall_ns >= 3_000_000);
        // The siblings tile the parent's child tally exactly.
        assert_eq!(outer.child_ns, stamp.wall_ns + solve.wall_ns);
        // A disarmed guard stays disarmed across the hand-over.
        let off = Profiler::disabled().phase(PhaseId::NewtonStamp);
        assert!(!off.then(PhaseId::NewtonSolveLu).is_active());
    }

    #[test]
    fn disarmed_phase_is_inert() {
        let prof = Profiler::disabled();
        assert!(!prof.is_enabled());
        let g = prof.phase(PhaseId::NewtonStamp);
        assert!(!g.is_active());
        drop(g);
        assert!(prof.snapshot().is_empty());
    }

    #[test]
    fn cross_thread_calls_merge_exactly() {
        let prof = Profiler::enabled();
        let threads: Vec<_> = (0..8)
            .map(|_| {
                let p = prof.clone();
                std::thread::spawn(move || {
                    for _ in 0..500 {
                        let _outer = p.phase(PhaseId::McWorkerRun);
                        let _inner = p.phase(PhaseId::RramCalib);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let snap = prof.snapshot();
        assert_eq!(snap.phase(PhaseId::McWorkerRun).unwrap().calls, 4000);
        assert_eq!(snap.phase(PhaseId::RramCalib).unwrap().calls, 4000);
        // Deterministic: a second merge sees the same totals.
        let again = prof.snapshot();
        assert_eq!(snap.phases, again.phases);
    }

    #[test]
    fn coverage_counts_leaves_against_interior() {
        let prof = Profiler::enabled();
        {
            let _run = prof.phase(PhaseId::TranRun);
            let _leaf = prof.phase(PhaseId::NewtonStamp);
            std::thread::sleep(Duration::from_millis(2));
        }
        let snap = prof.snapshot();
        let cov = snap.leaf_coverage().unwrap();
        assert!(cov > 0.5, "coverage {cov}");
        assert!(cov <= 1.0);
    }

    #[test]
    fn tree_and_json_render_paths() {
        let prof = Profiler::enabled();
        {
            let _g = prof.phase(PhaseId::NewtonSolveLu);
        }
        let snap = prof.snapshot();
        let tree = snap.to_ascii_tree();
        assert!(tree.contains("solve_lu"), "{tree}");
        assert!(tree.contains("leaf coverage"), "{tree}");
        let json = snap.to_json();
        assert!(json.contains("\"oxterm-profile/1\""), "{json}");
        assert!(json.contains("\"tran/newton/solve_lu\""), "{json}");
        let opens = json.matches('{').count();
        assert_eq!(opens, json.matches('}').count());
    }

    #[test]
    fn fold_into_exports_profile_counters() {
        let prof = Profiler::enabled();
        {
            let _g = prof.phase(PhaseId::RramCalib);
        }
        let tel = Telemetry::enabled();
        prof.snapshot().fold_into(&tel);
        let report = tel.report();
        assert_eq!(report.counter("profile.rram.calib.calls"), Some(1));
        assert!(report.counter("profile.rram.calib.wall_ns").is_some());
    }

    #[test]
    fn monotonic_ns_advances() {
        let a = monotonic_ns();
        std::thread::sleep(Duration::from_millis(1));
        let b = monotonic_ns();
        assert!(b > a);
    }
}
