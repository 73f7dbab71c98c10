//! Deterministic, seeded fault injection for resilience testing.
//!
//! The chaos layer lets a campaign driver *prove* that the failure paths of
//! the solver and Monte Carlo stack work: retry ladders, panic isolation,
//! failure records and degraded completion are exercised by injecting
//! faults at the existing solver boundaries instead of waiting for a rare
//! pathological cell to hit them.
//!
//! # Model
//!
//! A [`FaultPlan`] is parsed from a `--chaos=SPEC` string such as
//!
//! ```text
//! newton_stall:p=0.02,nan_stamp:p=0.005,panic:p=0.001,slow_step:p=0.01
//! ```
//!
//! and is **purely deterministic**: whether a fault fires for run `i`,
//! attempt `k` is a function of `(plan seed, fault kind, i, k)` only — no
//! global RNG state, no wall clock. The same spec and seed always produce
//! the same injected-fault schedule, so chaos campaigns are replayable and
//! checkpoint/resume remains bit-identical under injection.
//!
//! Faults are *persistent* by default: they re-fire on every retry attempt
//! of an afflicted run, so the run exhausts its retry ladder and exercises
//! the terminal failure path. A spec entry marked `:transient` instead
//! draws an independent decision per attempt, exercising the
//! recover-on-retry path.
//!
//! # Hook discipline
//!
//! Injection sites call [`should_inject`] which, when no plan is armed, is
//! a single relaxed atomic load — zero allocation, no locks — mirroring the
//! trace-layer discipline (pinned by a counting-allocator test). When a
//! plan is armed, the Monte Carlo layer brackets each worker attempt with
//! [`begin_run`]/[`end_run`]; sites outside a bracketed run never inject.
//! Each fault kind fires at most once per attempt.

#![forbid(unsafe_code)]

use std::cell::Cell;
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// The injectable fault classes, one per solver-boundary hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// Forced Newton non-convergence (op/tran analyses and the
    /// semi-analytic RESET fast path).
    NewtonStall,
    /// NaN poisoning of a device stamp (MOSFET / OxRAM cell).
    NanStamp,
    /// Forced panic inside a Monte Carlo worker body.
    Panic,
    /// Forced timestep collapse to `dt_min` in transient analysis.
    SlowStep,
}

/// Number of fault kinds (sizes the per-kind tables).
pub const KIND_COUNT: usize = 4;

/// All fault kinds, in canonical (spec/schedule) order.
pub const ALL_KINDS: [FaultKind; KIND_COUNT] = [
    FaultKind::NewtonStall,
    FaultKind::NanStamp,
    FaultKind::Panic,
    FaultKind::SlowStep,
];

/// Per-kind salts decorrelating the injection decisions of different
/// fault kinds at the same `(run, attempt)`.
const KIND_SALTS: [u64; KIND_COUNT] = [
    0x9D39_247E_3377_6D41,
    0x2FDD_81DB_E69A_F2E2,
    0x4C16_93DE_BDB8_1A7C,
    0xA5F1_D1E2_7B3C_9F05,
];

impl FaultKind {
    /// Stable index into per-kind tables.
    pub fn index(self) -> usize {
        match self {
            FaultKind::NewtonStall => 0,
            FaultKind::NanStamp => 1,
            FaultKind::Panic => 2,
            FaultKind::SlowStep => 3,
        }
    }

    /// The spec-grammar name (`newton_stall`, `nan_stamp`, ...).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::NewtonStall => "newton_stall",
            FaultKind::NanStamp => "nan_stamp",
            FaultKind::Panic => "panic",
            FaultKind::SlowStep => "slow_step",
        }
    }

    fn from_name(name: &str) -> Option<FaultKind> {
        ALL_KINDS.iter().copied().find(|k| k.name() == name)
    }
}

impl fmt::Display for FaultKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// One armed fault class: kind, per-run probability, persistence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpec {
    /// Which hook this spec drives.
    pub kind: FaultKind,
    /// Per-run (or, if transient, per-attempt) injection probability.
    pub p: f64,
    /// `false` (default): the fault re-fires on every retry attempt of an
    /// afflicted run. `true`: an independent decision per attempt.
    pub transient: bool,
}

/// Error from [`FaultPlan::parse`]; `Display` names the offending entry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChaosParseError {
    message: String,
}

impl fmt::Display for ChaosParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid --chaos spec: {}", self.message)
    }
}

impl std::error::Error for ChaosParseError {}

fn parse_err(message: impl Into<String>) -> ChaosParseError {
    ChaosParseError {
        message: message.into(),
    }
}

/// Seed used when the spec string has no `seed=N` entry.
pub const DEFAULT_SEED: u64 = 0xC4A0_5EED_0000_0001;

/// A seeded, deterministic injection plan over the fault kinds.
///
/// `Copy` by design: the armed plan is copied into a thread-local run
/// context by [`begin_run`], so the per-hook decision path never takes a
/// lock.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultPlan {
    seed: u64,
    specs: [Option<FaultSpec>; KIND_COUNT],
}

impl FaultPlan {
    /// An empty plan (injects nothing) with the given seed.
    pub fn new(seed: u64) -> Self {
        FaultPlan {
            seed,
            specs: [None; KIND_COUNT],
        }
    }

    /// The plan's decision seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The spec armed for `kind`, if any.
    pub fn spec(&self, kind: FaultKind) -> Option<FaultSpec> {
        self.specs[kind.index()]
    }

    /// Arms (or replaces) one fault spec; builder-style.
    pub fn with(mut self, spec: FaultSpec) -> Self {
        self.specs[spec.kind.index()] = Some(spec);
        self
    }

    /// Parses a `--chaos` spec string.
    ///
    /// Grammar: comma-separated entries, each either `seed=N` (decimal or
    /// `0x` hex) or `KIND:p=FLOAT[:transient]` with `KIND` one of
    /// `newton_stall`, `nan_stamp`, `panic`, `slow_step` and the
    /// probability in `[0, 1]`.
    pub fn parse(spec: &str) -> Result<FaultPlan, ChaosParseError> {
        let mut plan = FaultPlan::new(DEFAULT_SEED);
        let mut any = false;
        for raw in spec.split(',') {
            let entry = raw.trim();
            if entry.is_empty() {
                continue;
            }
            if let Some(seed_str) = entry.strip_prefix("seed=") {
                let seed = if let Some(hex) = seed_str.strip_prefix("0x") {
                    u64::from_str_radix(&hex.replace('_', ""), 16)
                } else {
                    seed_str.replace('_', "").parse::<u64>()
                };
                plan.seed = seed.map_err(|_| parse_err(format!("bad seed value `{seed_str}`")))?;
                continue;
            }
            let mut parts = entry.split(':');
            let name = parts.next().unwrap_or_default();
            let kind = FaultKind::from_name(name).ok_or_else(|| {
                let known: Vec<&str> = ALL_KINDS.iter().map(|k| k.name()).collect();
                parse_err(format!(
                    "unknown fault kind `{name}` (expected one of {})",
                    known.join(", ")
                ))
            })?;
            let p_part = parts
                .next()
                .ok_or_else(|| parse_err(format!("`{entry}` is missing `:p=FLOAT`")))?;
            let p_str = p_part.strip_prefix("p=").ok_or_else(|| {
                parse_err(format!("`{entry}`: expected `p=FLOAT`, got `{p_part}`"))
            })?;
            let p: f64 = p_str
                .parse()
                .map_err(|_| parse_err(format!("bad probability `{p_str}`")))?;
            if !(0.0..=1.0).contains(&p) {
                return Err(parse_err(format!("probability {p} out of range [0, 1]")));
            }
            let transient = match parts.next() {
                None => false,
                Some("transient") => true,
                Some(other) => {
                    return Err(parse_err(format!(
                        "`{entry}`: unknown modifier `{other}` \
                         (only `transient` is recognised)"
                    )))
                }
            };
            if plan.specs[kind.index()].is_some() {
                return Err(parse_err(format!("duplicate entry for `{name}`")));
            }
            plan.specs[kind.index()] = Some(FaultSpec { kind, p, transient });
            any = true;
        }
        if !any {
            return Err(parse_err("no fault entries (plan would be empty)"));
        }
        Ok(plan)
    }

    /// Canonical round-trippable spec string (fixed kind order, explicit
    /// seed). Equal plans have equal canonical strings.
    pub fn canonical(&self) -> String {
        let mut out = format!("seed=0x{:016x}", self.seed);
        for kind in ALL_KINDS {
            if let Some(s) = self.specs[kind.index()] {
                out.push_str(&format!(",{}:p={}", kind.name(), s.p));
                if s.transient {
                    out.push_str(":transient");
                }
            }
        }
        out
    }

    /// Stable content hash of the plan (FNV-1a over seed, kinds and the
    /// probabilities' bit patterns). Stored in campaign checkpoints so a
    /// `--resume` under a different plan is rejected.
    pub fn hash(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= b as u64;
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(&self.seed.to_le_bytes());
        for kind in ALL_KINDS {
            match self.specs[kind.index()] {
                None => eat(&[0xFF]),
                Some(s) => {
                    eat(&[kind.index() as u8, s.transient as u8]);
                    eat(&s.p.to_bits().to_le_bytes());
                }
            }
        }
        h
    }

    /// Pure injection decision for `(run, attempt, kind)`.
    ///
    /// Persistent specs ignore `attempt` (the fault follows the run through
    /// its whole retry ladder); transient specs draw an independent
    /// decision per attempt.
    pub fn injects(&self, run: u64, attempt: u64, kind: FaultKind) -> bool {
        let Some(spec) = self.specs[kind.index()] else {
            return false;
        };
        let mut x = self.seed ^ KIND_SALTS[kind.index()] ^ splitmix64(run);
        if spec.transient {
            x ^= splitmix64(attempt.wrapping_add(0xA77E_3D47));
        }
        unit_interval(splitmix64(x)) < spec.p
    }

    /// The full first-attempt injection schedule over `runs` runs, in
    /// `(run, kind)` order — the determinism tests' ground truth.
    pub fn schedule(&self, runs: u64) -> Vec<Injection> {
        let mut out = Vec::new();
        for run in 0..runs {
            for kind in ALL_KINDS {
                if self.injects(run, 0, kind) {
                    out.push(Injection {
                        run,
                        attempt: 0,
                        kind,
                    });
                }
            }
        }
        out
    }
}

/// SplitMix64 finalizer — the same mixer the MC engine uses for per-run
/// seeds, duplicated here to keep this crate dependency-free.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Maps a hash to [0, 1) with 53 bits of precision.
fn unit_interval(h: u64) -> f64 {
    (h >> 11) as f64 / (1u64 << 53) as f64
}

/// One injected (or scheduled) fault occurrence.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Injection {
    /// Campaign run index.
    pub run: u64,
    /// Retry-ladder attempt (0-based).
    pub attempt: u64,
    /// Which fault fired.
    pub kind: FaultKind,
}

// ---------------------------------------------------------------------------
// Global arming + per-run thread-local context.
// ---------------------------------------------------------------------------

/// Fast-path gate: `should_inject` is a single relaxed load of this flag
/// when no plan is armed.
static ARMED: AtomicBool = AtomicBool::new(false);
static PLAN: Mutex<Option<FaultPlan>> = Mutex::new(None);
static INJECTED: AtomicU64 = AtomicU64::new(0);
static LOG: Mutex<Vec<Injection>> = Mutex::new(Vec::new());

/// Locks a mutex, recovering from poisoning — injected worker panics must
/// not wedge the chaos layer itself.
fn lock_recover<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    match m.lock() {
        Ok(g) => g,
        Err(poisoned) => poisoned.into_inner(),
    }
}

#[derive(Clone, Copy)]
struct RunCtx {
    plan: FaultPlan,
    run: u64,
    attempt: u64,
    fired: [bool; KIND_COUNT],
}

thread_local! {
    static CTX: Cell<Option<RunCtx>> = const { Cell::new(None) };
}

/// Arms `plan` process-wide. Hooks still only fire inside a
/// [`begin_run`]/[`end_run`] bracket on the calling thread.
pub fn arm(plan: FaultPlan) {
    *lock_recover(&PLAN) = Some(plan);
    ARMED.store(true, Ordering::Release);
}

/// Disarms injection and clears the plan (thread-local contexts from
/// in-flight runs go stale and stop injecting via the `ARMED` gate).
pub fn disarm() {
    ARMED.store(false, Ordering::Release);
    *lock_recover(&PLAN) = None;
}

/// Whether a plan is currently armed.
pub fn is_armed() -> bool {
    ARMED.load(Ordering::Relaxed)
}

/// A copy of the armed plan, if any.
pub fn armed_plan() -> Option<FaultPlan> {
    if !is_armed() {
        return None;
    }
    *lock_recover(&PLAN)
}

/// Brackets the start of one worker attempt: copies the armed plan into
/// this thread's run context so hooks can decide without locking. A no-op
/// (clears the context) when nothing is armed.
pub fn begin_run(run: u64, attempt: u64) {
    let ctx = armed_plan().map(|plan| RunCtx {
        plan,
        run,
        attempt,
        fired: [false; KIND_COUNT],
    });
    CTX.with(|c| c.set(ctx));
}

/// Clears this thread's run context.
pub fn end_run() {
    CTX.with(|c| c.set(None));
}

/// The per-hook injection decision.
///
/// Disarmed (the default): one relaxed atomic load, inlined into the hook,
/// zero allocation. Armed: consults the thread-local run context; fires at
/// most once per kind per attempt and appends to the injection log.
#[inline]
pub fn should_inject(kind: FaultKind) -> bool {
    ARMED.load(Ordering::Relaxed) && armed_should_inject(kind)
}

/// [`should_inject`] once a plan is armed, kept out of line.
#[cold]
#[inline(never)]
fn armed_should_inject(kind: FaultKind) -> bool {
    CTX.with(|c| {
        let Some(mut ctx) = c.get() else {
            return false;
        };
        if ctx.fired[kind.index()] {
            return false;
        }
        if !ctx.plan.injects(ctx.run, ctx.attempt, kind) {
            return false;
        }
        ctx.fired[kind.index()] = true;
        let injection = Injection {
            run: ctx.run,
            attempt: ctx.attempt,
            kind,
        };
        c.set(Some(ctx));
        INJECTED.fetch_add(1, Ordering::Relaxed);
        lock_recover(&LOG).push(injection);
        true
    })
}

/// Total faults injected since process start ([`drain_injections`] does
/// **not** reset this counter).
pub fn injected_count() -> u64 {
    INJECTED.load(Ordering::Relaxed)
}

/// Drains and returns the injection log (test/diagnostic use).
pub fn drain_injections() -> Vec<Injection> {
    std::mem::take(&mut *lock_recover(&LOG))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(spec: &str) -> FaultPlan {
        FaultPlan::parse(spec).expect("spec parses")
    }

    #[test]
    fn parse_full_spec() {
        let p = plan("newton_stall:p=0.02,nan_stamp:p=0.005,panic:p=0.001,slow_step:p=0.01");
        assert_eq!(p.seed(), DEFAULT_SEED);
        assert_eq!(p.spec(FaultKind::NewtonStall).unwrap().p, 0.02);
        assert_eq!(p.spec(FaultKind::NanStamp).unwrap().p, 0.005);
        assert_eq!(p.spec(FaultKind::Panic).unwrap().p, 0.001);
        assert_eq!(p.spec(FaultKind::SlowStep).unwrap().p, 0.01);
        assert!(!p.spec(FaultKind::NewtonStall).unwrap().transient);
    }

    #[test]
    fn parse_seed_and_transient() {
        let p = plan("seed=0xDEAD_BEEF,newton_stall:p=0.5:transient");
        assert_eq!(p.seed(), 0xDEAD_BEEF);
        assert!(p.spec(FaultKind::NewtonStall).unwrap().transient);
        let p2 = plan("seed=42,panic:p=1.0");
        assert_eq!(p2.seed(), 42);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("").is_err());
        assert!(FaultPlan::parse("seed=12").is_err()); // no fault entries
        assert!(FaultPlan::parse("frobnicate:p=0.1").is_err());
        assert!(FaultPlan::parse("panic:p=1.5").is_err());
        assert!(FaultPlan::parse("panic:p=-0.1").is_err());
        assert!(FaultPlan::parse("panic:0.1").is_err());
        assert!(FaultPlan::parse("panic:p=0.1:sometimes").is_err());
        assert!(FaultPlan::parse("panic:p=0.1,panic:p=0.2").is_err());
        assert!(FaultPlan::parse("seed=zzz,panic:p=0.1").is_err());
    }

    #[test]
    fn canonical_round_trips_and_hash_is_stable() {
        let p = plan("slow_step:p=0.01,newton_stall:p=0.02:transient,seed=7");
        let rt = plan(&p.canonical());
        assert_eq!(p, rt);
        assert_eq!(p.hash(), rt.hash());
        // Different seed or probability => different hash.
        assert_ne!(
            p.hash(),
            plan("slow_step:p=0.01,newton_stall:p=0.02:transient,seed=8").hash()
        );
        assert_ne!(
            p.hash(),
            plan("slow_step:p=0.02,newton_stall:p=0.02:transient,seed=7").hash()
        );
    }

    #[test]
    fn decisions_are_deterministic_and_seed_sensitive() {
        let p = plan("newton_stall:p=0.1,seed=123");
        let a = p.schedule(5000);
        let b = p.schedule(5000);
        assert_eq!(a, b);
        assert!(!a.is_empty());
        let q = plan("newton_stall:p=0.1,seed=124");
        assert_ne!(a, q.schedule(5000));
    }

    #[test]
    fn injection_rate_tracks_probability() {
        let p = plan("panic:p=0.05,seed=99");
        let n = 20_000u64;
        let hits = p.schedule(n).len() as f64;
        let rate = hits / n as f64;
        assert!((rate - 0.05).abs() < 0.01, "rate {rate} far from 0.05");
    }

    #[test]
    fn persistent_faults_follow_the_run_across_attempts() {
        let p = plan("newton_stall:p=0.2,seed=5");
        for run in 0..200 {
            let first = p.injects(run, 0, FaultKind::NewtonStall);
            for attempt in 1..4 {
                assert_eq!(first, p.injects(run, attempt, FaultKind::NewtonStall));
            }
        }
    }

    #[test]
    fn transient_faults_vary_by_attempt() {
        let p = plan("newton_stall:p=0.5:transient,seed=5");
        let mut differs = false;
        for run in 0..100 {
            let d0 = p.injects(run, 0, FaultKind::NewtonStall);
            let d1 = p.injects(run, 1, FaultKind::NewtonStall);
            if d0 != d1 {
                differs = true;
            }
        }
        assert!(differs, "transient decisions never varied across attempts");
    }

    #[test]
    fn hooks_fire_once_per_attempt_and_log() {
        // Serialise against other tests touching the global plan.
        let _guard = lock_recover(&GLOBAL_TEST_LOCK);
        drain_injections();
        arm(plan("panic:p=1.0,seed=1"));
        begin_run(7, 2);
        assert!(should_inject(FaultKind::Panic));
        assert!(
            !should_inject(FaultKind::Panic),
            "second query must not re-fire"
        );
        assert!(!should_inject(FaultKind::NewtonStall));
        end_run();
        assert!(
            !should_inject(FaultKind::Panic),
            "no context => no injection"
        );
        disarm();
        let log = drain_injections();
        assert_eq!(
            log,
            vec![Injection {
                run: 7,
                attempt: 2,
                kind: FaultKind::Panic
            }]
        );
    }

    #[test]
    fn retired_service_fault_is_rejected_and_the_error_lists_the_known_kinds() {
        let err: ChaosParseError =
            FaultPlan::parse("queue_full:p=0.1").expect_err("queue_full is no longer a fault kind");
        let msg = err.to_string();
        assert!(
            msg.starts_with("invalid --chaos spec: unknown fault kind `queue_full`"),
            "{msg}"
        );
        assert!(
            msg.ends_with("(expected one of newton_stall, nan_stamp, panic, slow_step)"),
            "{msg}"
        );
    }

    #[test]
    fn kind_tables_cover_every_variant() {
        assert_eq!(ALL_KINDS.len(), KIND_COUNT);
        for (i, kind) in ALL_KINDS.iter().enumerate() {
            assert_eq!(kind.index(), i, "{kind} out of canonical order");
            assert_eq!(FaultKind::from_name(kind.name()), Some(*kind));
        }
    }

    #[test]
    fn disarmed_hook_is_inert() {
        let _guard = lock_recover(&GLOBAL_TEST_LOCK);
        disarm();
        begin_run(0, 0);
        assert!(!should_inject(FaultKind::Panic));
        end_run();
    }

    pub(super) static GLOBAL_TEST_LOCK: Mutex<()> = Mutex::new(());
}
