//! Streaming per-device energy & program-latency ledger.
//!
//! The paper's headline is an *energy/latency* claim: the RESET write
//! termination stops each pulse at the comparator trip, so programming a
//! level costs the joules of the terminated pulse — not the worst-case
//! pulse a fixed-width controller would have to budget. This module is
//! where those joules are accounted for. Simulation layers feed it two
//! kinds of records:
//!
//! * **Device energy** ([`JouleLedger::record_energy`]): integrated
//!   absorbed energy per device, bucketed by [`DeviceClass`] (what the
//!   device *is*), [`Role`] (what it does in the programming circuit —
//!   RRAM cell, access transistor, driver, termination comparator,
//!   bit-line parasitic) and [`ProgramPhase`] (when in the programming
//!   sequence it was dissipated). The transient engine integrates
//!   per-device power trapezoidally across accepted steps and flushes one
//!   record per device per run; the semi-analytic fast path splits its
//!   divider energy into cell and series-path portions.
//! * **Per-level rollups** ([`JouleLedger::observe_level`]): one
//!   (energy, latency) pair per successfully programmed level per Monte
//!   Carlo run, Ok-outcomes-only like [`crate::levels::LevelTracker`].
//!   Each level keeps a Welford accumulator and a log histogram per
//!   quantity, binned at [`ENERGY_RATIO`] and [`LATENCY_RATIO`].
//!
//! The design follows the house telemetry idiom ([`crate::Profiler`],
//! [`crate::levels::LevelTracker`]):
//!
//! - [`JouleLedger`] is a cheap handle wrapping `Option<Arc<…>>`; the
//!   disabled handle costs **one branch and zero allocations** per record
//!   (pinned by `tests/joule_zero_alloc.rs`).
//! - Library code reads the process-global handle
//!   ([`JouleLedger::global`]), armed once by a binary via
//!   [`JouleLedger::install`]; tests build private handles.
//! - An energy record is a plain add on the recording thread's matrix
//!   shard, with no lock (see `shard.rs`); callers integrate locally and
//!   record once per device per run, and the batch kernels add a batch up
//!   in an [`EnergyTally`] and record it once. Level rollups share the
//!   level tracker's one-lock table, fed by the campaign after its workers
//!   are done, under one lock per campaign.
//!
//! Energy records use the passive sign convention: positive joules are
//! absorbed (dissipated or stored), negative joules are delivered (an
//! active source). Attribution percentages in the report layer are over
//! the *dissipated* total.
//!
//! The current [`ProgramPhase`] is thread-local: each Monte Carlo worker
//! programs its own cells, so a phase scope opened on the worker thread
//! ([`enter_phase`]) tags exactly that worker's records. The
//! write-termination monitor flips the phase to [`ProgramPhase::Tail`]
//! mid-transient at the comparator trip, which is what splits pulse
//! joules from post-trip tail joules.

use crate::levels::{self, LevelTable};
use crate::shard::{Shard, Sink};
use std::cell::RefCell;
use std::sync::{Arc, Mutex, OnceLock, PoisonError};

/// What a device *is* — the electrical model class reporting the energy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum DeviceClass {
    /// Independent voltage source (drivers, sense sources).
    VoltageSource,
    /// Independent current source (bias mirrors).
    CurrentSource,
    /// Linear resistor.
    Resistor,
    /// Linear capacitor.
    Capacitor,
    /// MOSFET (EKV model).
    Mosfet,
    /// Voltage-controlled switch.
    Switch,
    /// OxRAM memory cell.
    RramCell,
    /// Junction diode.
    Diode,
    /// Anything else (default for devices without a power model).
    Other,
}

/// Number of [`DeviceClass`] variants.
pub const N_CLASSES: usize = 9;

/// All device classes, in bucket order.
pub const CLASSES: [DeviceClass; N_CLASSES] = [
    DeviceClass::VoltageSource,
    DeviceClass::CurrentSource,
    DeviceClass::Resistor,
    DeviceClass::Capacitor,
    DeviceClass::Mosfet,
    DeviceClass::Switch,
    DeviceClass::RramCell,
    DeviceClass::Diode,
    DeviceClass::Other,
];

impl DeviceClass {
    /// Stable lower-snake label (used in JSON keys).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            DeviceClass::VoltageSource => "voltage_source",
            DeviceClass::CurrentSource => "current_source",
            DeviceClass::Resistor => "resistor",
            DeviceClass::Capacitor => "capacitor",
            DeviceClass::Mosfet => "mosfet",
            DeviceClass::Switch => "switch",
            DeviceClass::RramCell => "rram_cell",
            DeviceClass::Diode => "diode",
            DeviceClass::Other => "other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// What a device *does* in the programming circuit — the attribution axis
/// the paper's energy story is told in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum Role {
    /// The programmed OxRAM cell itself.
    RramCell,
    /// The cell's access (select) transistor.
    AccessTransistor,
    /// BL/SL/WL drivers and driver output stages.
    Driver,
    /// The RESET write-termination comparator and its bias tree.
    Comparator,
    /// Bit-line / source-line parasitics.
    Parasitic,
    /// Unclassified devices.
    Other,
}

/// Number of [`Role`] variants.
pub const N_ROLES: usize = 6;

/// All roles, in bucket order.
pub const ROLES: [Role; N_ROLES] = [
    Role::RramCell,
    Role::AccessTransistor,
    Role::Driver,
    Role::Comparator,
    Role::Parasitic,
    Role::Other,
];

impl Role {
    /// Stable lower-snake label (used in JSON keys).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Role::RramCell => "rram_cell",
            Role::AccessTransistor => "access_transistor",
            Role::Driver => "driver",
            Role::Comparator => "comparator",
            Role::Parasitic => "parasitic",
            Role::Other => "other",
        }
    }

    fn index(self) -> usize {
        self as usize
    }
}

/// When in the programming sequence energy was dissipated.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(usize)]
pub enum ProgramPhase {
    /// The fixed SET pulse preceding the terminated RESET.
    Set,
    /// The RESET pulse, from pulse start until the comparator trips.
    Reset,
    /// Fine bisection steps while the monitor hunts the crossing.
    Bisection,
    /// Post-trip tail: chop fall plus the hold window after the chop.
    Tail,
    /// Outside any programming phase (read-back, standalone analyses).
    Other,
}

/// Number of [`ProgramPhase`] variants.
pub const N_PHASES: usize = 5;

/// All program phases, in bucket order.
pub const PHASES: [ProgramPhase; N_PHASES] = [
    ProgramPhase::Set,
    ProgramPhase::Reset,
    ProgramPhase::Bisection,
    ProgramPhase::Tail,
    ProgramPhase::Other,
];

impl ProgramPhase {
    /// Stable lower-snake label (used in JSON keys).
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ProgramPhase::Set => "set",
            ProgramPhase::Reset => "reset",
            ProgramPhase::Bisection => "bisection",
            ProgramPhase::Tail => "tail",
            ProgramPhase::Other => "other",
        }
    }

    /// Bucket index of this phase.
    #[must_use]
    pub fn index(self) -> usize {
        self as usize
    }
}

thread_local! {
    static CURRENT_PHASE: std::cell::Cell<ProgramPhase> =
        const { std::cell::Cell::new(ProgramPhase::Other) };
}

/// The calling thread's current [`ProgramPhase`] tag.
#[must_use]
pub fn current_phase() -> ProgramPhase {
    CURRENT_PHASE.with(|p| p.get())
}

/// Sets the calling thread's phase tag without scoping — used by transient
/// monitors that flip the phase mid-run (the write-termination trip sets
/// [`ProgramPhase::Tail`]); the enclosing [`enter_phase`] scope restores
/// the outer phase when the program operation ends.
pub fn set_phase(phase: ProgramPhase) {
    CURRENT_PHASE.with(|p| p.set(phase));
}

/// RAII scope tagging the calling thread's energy records with `phase`;
/// restores the previous phase on drop.
#[must_use = "the phase reverts when the scope drops"]
pub fn enter_phase(phase: ProgramPhase) -> PhaseScope {
    let prev = CURRENT_PHASE.with(|p| p.replace(phase));
    PhaseScope { prev }
}

/// Guard returned by [`enter_phase`]; restores the previous phase on drop.
#[derive(Debug)]
pub struct PhaseScope {
    prev: ProgramPhase,
}

impl Drop for PhaseScope {
    fn drop(&mut self) {
        CURRENT_PHASE.with(|p| p.set(self.prev));
    }
}

/// Classifies a device's circuit [`Role`] from its class and instance
/// name, using the workspace's naming conventions (`{cell}_r` RRAM,
/// `{cell}_m` access FET, `blp*` line parasitics, `v*`/`cut*` drivers,
/// `{cmp}_m1…` comparator internals).
#[must_use]
pub fn classify_role(class: DeviceClass, name: &str) -> Role {
    const COMPARATOR_SUFFIXES: [&str; 9] = [
        "_m1", "_m2", "_m3", "_m4", "_i1p", "_i1n", "_iref", "_ca", "_cout",
    ];
    if COMPARATOR_SUFFIXES.iter().any(|s| name.ends_with(s)) {
        return Role::Comparator;
    }
    if name.starts_with("blp") || name.starts_with("slp") || name.starts_with("wlp") {
        return Role::Parasitic;
    }
    if class == DeviceClass::RramCell || name.ends_with("_r") {
        return Role::RramCell;
    }
    if name.ends_with("_m") {
        return Role::AccessTransistor;
    }
    if matches!(
        class,
        DeviceClass::VoltageSource | DeviceClass::CurrentSource | DeviceClass::Switch
    ) || name.starts_with("cut")
    {
        return Role::Driver;
    }
    Role::Other
}

/// Joules per unit of the matrix accumulators. Integer sums do not depend
/// on the order worker threads record in, so the totals are the same bytes
/// on every run; at 1e-30 J a unit sits far below an f64 ulp of any energy
/// a program draws, and `i128` holds ±1.7e8 J.
const JOULE_QUANTUM: f64 = 1e-30;

fn to_quanta(joules: f64) -> i128 {
    (joules / JOULE_QUANTUM).round() as i128
}

fn to_joules(quanta: i128) -> f64 {
    quanta as f64 * JOULE_QUANTUM
}

/// The role × phase joule matrix plus per-class totals, in quanta of
/// 1e-30 J: exact integer sums ([`JouleLedger::quanta`]), where the `f64`
/// read-outs of a snapshot round.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct EnergyQuanta {
    /// Signed quanta per [`Role`] and [`ProgramPhase`], in [`ROLES`] and
    /// [`PHASES`] order.
    pub role_phase: [[i128; N_PHASES]; N_ROLES],
    /// Signed quanta per [`DeviceClass`], in [`CLASSES`] order.
    pub class: [i128; N_CLASSES],
}

/// Bin ratio of the per-level energy histograms: `1.005`, a half-width of
/// 2.5e-3. A level's program energy has σ/μ ≥ 0.131, so a bin is a
/// fiftieth of σ or less.
pub const ENERGY_RATIO: f64 = 1.005;

/// Bin ratio of the per-level latency histograms: `1.005`, as for energy
/// and for the same reason (σ/μ ≥ 0.131).
pub const LATENCY_RATIO: f64 = 1.005;

pub(crate) struct LedgerSink {
    matrix: Mutex<EnergyQuanta>,
    /// Energy and latency per level.
    levels: Mutex<LevelTable<2>>,
}

impl Default for LedgerSink {
    fn default() -> Self {
        LedgerSink {
            matrix: Mutex::default(),
            levels: Mutex::new(LevelTable::new([ENERGY_RATIO, LATENCY_RATIO])),
        }
    }
}

impl LedgerSink {
    fn matrix(&self) -> EnergyQuanta {
        // Sums only: a panicked holder left a valid matrix.
        *self.matrix.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

impl Sink for LedgerSink {
    type Tally = EnergyQuanta;

    fn merge(&self, tally: &EnergyQuanta) {
        let mut m = self.matrix.lock().unwrap_or_else(PoisonError::into_inner);
        for (row, t_row) in m.role_phase.iter_mut().zip(&tally.role_phase) {
            for (q, t) in row.iter_mut().zip(t_row) {
                *q += t;
            }
        }
        for (q, t) in m.class.iter_mut().zip(&tally.class) {
            *q += t;
        }
    }
}

thread_local! {
    static SHARD: RefCell<Shard<LedgerSink>> = const { RefCell::new(Shard::new()) };
}

/// Merges this thread's matrix shards into their ledgers.
pub(crate) fn flush_thread() {
    let _ = SHARD.try_with(|s| s.borrow_mut().flush());
}

/// Device energies a batch kernel adds up as it runs and records at its
/// end through one shard access ([`JouleLedger::record_tally`]), tagged
/// with the calling thread's phase then: the same totals as one
/// [`JouleLedger::record_energy`] per [`add`](EnergyTally::add).
#[derive(Debug, Clone, Copy, Default)]
pub struct EnergyTally {
    role: [i128; N_ROLES],
    class: [i128; N_CLASSES],
}

impl EnergyTally {
    /// Adds one device's absorbed energy; non-finite values are dropped.
    pub fn add(&mut self, class: DeviceClass, role: Role, joules: f64) {
        if !joules.is_finite() {
            return;
        }
        let quanta = to_quanta(joules);
        self.role[role.index()] += quanta;
        self.class[class.index()] += quanta;
    }
}

/// Immutable view of one role's phase-bucketed energy.
#[derive(Debug, Clone, Copy)]
pub struct RoleEnergy {
    /// The circuit role.
    pub role: Role,
    /// Signed absorbed joules per [`ProgramPhase`] bucket.
    pub phase_j: [f64; N_PHASES],
}

impl RoleEnergy {
    /// Signed absorbed joules across all phases.
    #[must_use]
    pub fn total_j(&self) -> f64 {
        self.phase_j.iter().sum()
    }
}

/// Immutable view of one device class's total energy.
#[derive(Debug, Clone, Copy)]
pub struct ClassEnergy {
    /// The device class.
    pub class: DeviceClass,
    /// Signed absorbed joules.
    pub joules: f64,
}

/// Immutable view of one level's energy/latency statistics.
#[derive(Debug, Clone, PartialEq)]
pub struct LevelEnergySummary {
    /// The level's binary code (0-based, also its slot index).
    pub code: u16,
    /// The RESET-termination reference current (A).
    pub i_ref: f64,
    /// Observations accumulated (Ok outcomes only).
    pub n: u64,
    /// Mean RESET energy per programmed cell (J).
    pub mean_j: f64,
    /// Sample standard deviation of the energy (J).
    pub std_j: f64,
    /// Minimum observed energy (J).
    pub min_j: f64,
    /// Maximum observed energy (J).
    pub max_j: f64,
    /// Streaming median energy (J).
    pub p50_j: f64,
    /// Mean RESET latency (s).
    pub mean_latency_s: f64,
    /// Sample standard deviation of the latency (s).
    pub std_latency_s: f64,
    /// Minimum observed latency (s).
    pub min_latency_s: f64,
    /// Maximum observed latency (s).
    pub max_latency_s: f64,
    /// Streaming median latency (s).
    pub p50_latency_s: f64,
}

/// A deterministic snapshot of the whole ledger.
#[derive(Debug, Clone, Default)]
pub struct JouleSnapshot {
    /// Per-role phase-bucketed energy, in [`ROLES`] order.
    pub roles: Vec<RoleEnergy>,
    /// Per-class totals, in [`CLASSES`] order, zero entries omitted.
    pub classes: Vec<ClassEnergy>,
    /// One summary per observed level, ascending by code.
    pub levels: Vec<LevelEnergySummary>,
}

impl JouleSnapshot {
    /// Total dissipated energy: the sum of all positive role × phase
    /// entries (delivered/source entries are negative and excluded).
    #[must_use]
    pub fn total_dissipated_j(&self) -> f64 {
        self.roles
            .iter()
            .flat_map(|r| r.phase_j.iter())
            .filter(|&&j| j > 0.0)
            .sum()
    }

    /// Total delivered energy: minus the sum of all negative entries
    /// (what the sources pushed into the circuit).
    #[must_use]
    pub fn total_delivered_j(&self) -> f64 {
        -self
            .roles
            .iter()
            .flat_map(|r| r.phase_j.iter())
            .filter(|&&j| j < 0.0)
            .sum::<f64>()
    }

    /// Whether the ledger saw anything at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.levels.is_empty() && self.classes.is_empty()
    }
}

/// Cheap handle to the streaming energy/latency ledger.
#[derive(Clone)]
pub struct JouleLedger {
    inner: Option<Arc<LedgerSink>>,
}

static GLOBAL: OnceLock<JouleLedger> = OnceLock::new();
static DISABLED: JouleLedger = JouleLedger { inner: None };

impl JouleLedger {
    /// The no-op handle: every record is one branch, no allocation.
    #[must_use]
    pub const fn disabled() -> Self {
        Self { inner: None }
    }

    /// An armed ledger with empty buckets.
    #[must_use]
    pub fn enabled() -> Self {
        Self {
            inner: Some(Arc::default()),
        }
    }

    /// Whether this handle records anything.
    #[must_use]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The process-global ledger; disabled until [`install`] is called.
    ///
    /// [`install`]: JouleLedger::install
    #[must_use]
    pub fn global() -> &'static JouleLedger {
        GLOBAL.get().unwrap_or(&DISABLED)
    }

    /// Makes `handle` the process-global ledger. First call wins; returns
    /// whether this call installed its handle.
    pub fn install(handle: JouleLedger) -> bool {
        GLOBAL.set(handle).is_ok()
    }

    /// Records integrated absorbed energy for one device over one run
    /// segment, tagged with the given phase, on the calling thread's shard.
    /// Non-finite values are dropped. Callers integrate locally and record
    /// once per run.
    pub fn record_energy_in_phase(
        &self,
        class: DeviceClass,
        role: Role,
        phase: ProgramPhase,
        joules: f64,
    ) {
        let Some(sink) = &self.inner else {
            return;
        };
        if !joules.is_finite() {
            return;
        }
        let quanta = to_quanta(joules);
        let _ = SHARD.try_with(|s| {
            let mut s = s.borrow_mut();
            let m = s.tally(sink);
            m.role_phase[role.index()][phase.index()] += quanta;
            m.class[class.index()] += quanta;
        });
    }

    /// Like [`record_energy_in_phase`], tagged with the calling thread's
    /// current phase ([`current_phase`]).
    ///
    /// [`record_energy_in_phase`]: JouleLedger::record_energy_in_phase
    pub fn record_energy(&self, class: DeviceClass, role: Role, joules: f64) {
        if self.inner.is_none() {
            return;
        }
        self.record_energy_in_phase(class, role, current_phase(), joules);
    }

    /// Records a batch's [`EnergyTally`] on the calling thread's shard,
    /// tagged with its current phase ([`current_phase`]).
    pub fn record_tally(&self, tally: &EnergyTally) {
        let Some(sink) = &self.inner else {
            return;
        };
        let phase = current_phase().index();
        let _ = SHARD.try_with(|s| {
            let mut s = s.borrow_mut();
            let m = s.tally(sink);
            for (row, q) in m.role_phase.iter_mut().zip(&tally.role) {
                row[phase] += q;
            }
            for (c, q) in m.class.iter_mut().zip(&tally.class) {
                *c += q;
            }
        });
    }

    /// Records one successfully programmed level's (energy, latency)
    /// pair. Codes at or above [`levels::MAX_LEVELS`] and non-finite values are
    /// dropped; feed Ok outcomes only.
    pub fn observe_level(&self, code: u16, i_ref: f64, energy_j: f64, latency_s: f64) {
        if let Some(sink) = &self.inner {
            levels::lock(&sink.levels).observe(code, i_ref, [energy_j, latency_s]);
        }
    }

    /// Records `(code, i_ref, energy_j, latency_s)` rollups in order under
    /// one lock: the same summaries as one [`observe_level`] each.
    ///
    /// [`observe_level`]: JouleLedger::observe_level
    pub fn observe_levels(&self, rollups: impl IntoIterator<Item = (u16, f64, f64, f64)>) {
        if let Some(sink) = &self.inner {
            let mut table = levels::lock(&sink.levels);
            for (code, i_ref, energy_j, latency_s) in rollups {
                table.observe(code, i_ref, [energy_j, latency_s]);
            }
        }
    }

    /// The raw energy totals, after merging the calling thread's shard
    /// (`None` when disabled).
    #[must_use]
    pub fn quanta(&self) -> Option<EnergyQuanta> {
        let sink = self.inner.as_ref()?;
        flush_thread();
        Some(sink.matrix())
    }

    /// A deterministic snapshot, after merging the calling thread's shard:
    /// roles in [`ROLES`] order, nonzero classes in [`CLASSES`] order,
    /// levels ascending by code. Empty when disabled or nothing was
    /// recorded.
    #[must_use]
    pub fn snapshot(&self) -> JouleSnapshot {
        let Some(sink) = &self.inner else {
            return JouleSnapshot::default();
        };
        flush_thread();
        let m = sink.matrix();
        let roles = ROLES
            .iter()
            .map(|&role| RoleEnergy {
                role,
                phase_j: m.role_phase[role.index()].map(to_joules),
            })
            .collect();
        let classes = CLASSES
            .iter()
            .filter(|&&c| m.class[c.index()] != 0)
            .map(|&class| ClassEnergy {
                class,
                joules: to_joules(m.class[class.index()]),
            })
            .collect();
        let levels = levels::lock(&sink.levels)
            .seen()
            .map(|(code, slot)| {
                let [energy, latency] = &slot.stats;
                let [e_histogram, l_histogram] = &slot.histograms;
                LevelEnergySummary {
                    code,
                    i_ref: slot.i_ref,
                    n: energy.count(),
                    mean_j: energy.mean(),
                    std_j: energy.std_dev(),
                    min_j: energy.min(),
                    max_j: energy.max(),
                    p50_j: e_histogram.quantile(0.50).unwrap_or(f64::NAN),
                    mean_latency_s: latency.mean(),
                    std_latency_s: latency.std_dev(),
                    min_latency_s: latency.min(),
                    max_latency_s: latency.max(),
                    p50_latency_s: l_histogram.quantile(0.50).unwrap_or(f64::NAN),
                }
            })
            .collect();
        JouleSnapshot {
            roles,
            classes,
            levels,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_ledger_ignores_everything() {
        let l = JouleLedger::disabled();
        l.record_energy(DeviceClass::Resistor, Role::Driver, 1e-12);
        l.record_energy_in_phase(
            DeviceClass::RramCell,
            Role::RramCell,
            ProgramPhase::Reset,
            1e-12,
        );
        l.observe_level(0, 10e-6, 20e-12, 1e-6);
        assert!(!l.is_enabled());
        assert!(l.snapshot().is_empty());
    }

    #[test]
    fn energy_lands_in_role_phase_and_class_buckets() {
        let l = JouleLedger::enabled();
        l.record_energy_in_phase(
            DeviceClass::RramCell,
            Role::RramCell,
            ProgramPhase::Reset,
            30e-12,
        );
        l.record_energy_in_phase(
            DeviceClass::Resistor,
            Role::Driver,
            ProgramPhase::Reset,
            10e-12,
        );
        l.record_energy_in_phase(
            DeviceClass::Mosfet,
            Role::Comparator,
            ProgramPhase::Tail,
            2e-12,
        );
        let snap = l.snapshot();
        let cell = &snap.roles[Role::RramCell.index()];
        assert!((cell.phase_j[ProgramPhase::Reset.index()] - 30e-12).abs() < 1e-24);
        assert!((snap.total_dissipated_j() - 42e-12).abs() < 1e-24);
        assert_eq!(snap.classes.len(), 3);
        let rram_class = snap
            .classes
            .iter()
            .find(|c| c.class == DeviceClass::RramCell)
            .unwrap();
        assert!((rram_class.joules - 30e-12).abs() < 1e-24);
    }

    #[test]
    fn delivered_energy_is_tracked_separately() {
        let l = JouleLedger::enabled();
        l.record_energy_in_phase(
            DeviceClass::VoltageSource,
            Role::Driver,
            ProgramPhase::Reset,
            -40e-12,
        );
        l.record_energy_in_phase(
            DeviceClass::Resistor,
            Role::Parasitic,
            ProgramPhase::Reset,
            40e-12,
        );
        let snap = l.snapshot();
        assert!((snap.total_dissipated_j() - 40e-12).abs() < 1e-24);
        assert!((snap.total_delivered_j() - 40e-12).abs() < 1e-24);
    }

    #[test]
    fn level_observations_accumulate_statistics() {
        let l = JouleLedger::enabled();
        for i in 0..100 {
            l.observe_level(3, 20e-6, 20e-12 + f64::from(i) * 1e-14, 1e-6);
            l.observe_level(7, 60e-6, 5e-12, 0.5e-6 + f64::from(i) * 1e-10);
        }
        let snap = l.snapshot();
        assert_eq!(snap.levels.len(), 2);
        assert_eq!(snap.levels[0].code, 3);
        assert_eq!(snap.levels[1].code, 7);
        assert_eq!(snap.levels[0].n, 100);
        assert!(snap.levels[0].mean_j > 20e-12 && snap.levels[0].mean_j < 21e-12);
        assert!(snap.levels[0].p50_j > 20e-12 && snap.levels[0].p50_j < 21e-12);
        assert!((snap.levels[1].min_j - 5e-12).abs() < 1e-24);
        assert!(snap.levels[1].mean_latency_s > 0.5e-6);
        assert_eq!(snap.levels.iter().map(|l| l.n).sum::<u64>(), 200);
    }

    #[test]
    fn bad_observations_are_dropped() {
        let l = JouleLedger::enabled();
        l.observe_level(0, 1e-6, f64::NAN, 1e-6);
        l.observe_level(0, 1e-6, 1e-12, f64::INFINITY);
        l.observe_level(1000, 1e-6, 1e-12, 1e-6);
        l.record_energy(DeviceClass::Other, Role::Other, f64::NAN);
        let snap = l.snapshot();
        assert!(snap.levels.is_empty());
        assert_eq!(snap.total_dissipated_j(), 0.0);
    }

    #[test]
    fn phase_scopes_nest_and_restore() {
        assert_eq!(current_phase(), ProgramPhase::Other);
        {
            let _set = enter_phase(ProgramPhase::Set);
            assert_eq!(current_phase(), ProgramPhase::Set);
            {
                let _reset = enter_phase(ProgramPhase::Reset);
                assert_eq!(current_phase(), ProgramPhase::Reset);
                set_phase(ProgramPhase::Tail);
                assert_eq!(current_phase(), ProgramPhase::Tail);
            }
            assert_eq!(current_phase(), ProgramPhase::Set);
        }
        assert_eq!(current_phase(), ProgramPhase::Other);
    }

    #[test]
    fn record_energy_uses_the_thread_phase() {
        let l = JouleLedger::enabled();
        {
            let _scope = enter_phase(ProgramPhase::Set);
            l.record_energy(DeviceClass::RramCell, Role::RramCell, 7e-12);
        }
        let snap = l.snapshot();
        let cell = &snap.roles[Role::RramCell.index()];
        assert!((cell.phase_j[ProgramPhase::Set.index()] - 7e-12).abs() < 1e-24);
        assert_eq!(cell.phase_j[ProgramPhase::Reset.index()], 0.0);
    }

    #[test]
    fn role_classification_follows_naming_conventions() {
        use DeviceClass as C;
        assert_eq!(classify_role(C::RramCell, "c0_r"), Role::RramCell);
        assert_eq!(classify_role(C::Resistor, "w3_r"), Role::RramCell);
        assert_eq!(classify_role(C::Mosfet, "c0_m"), Role::AccessTransistor);
        assert_eq!(classify_role(C::Mosfet, "cmp_m1"), Role::Comparator);
        assert_eq!(
            classify_role(C::CurrentSource, "cmp_iref"),
            Role::Comparator
        );
        assert_eq!(classify_role(C::Capacitor, "cmp_ca"), Role::Comparator);
        assert_eq!(classify_role(C::Resistor, "blp_r0"), Role::Parasitic);
        assert_eq!(classify_role(C::Capacitor, "blp_c1"), Role::Parasitic);
        assert_eq!(classify_role(C::VoltageSource, "vsl"), Role::Driver);
        assert_eq!(classify_role(C::VoltageSource, "vsense0"), Role::Driver);
        assert_eq!(classify_role(C::Switch, "cut3"), Role::Driver);
        assert_eq!(classify_role(C::Resistor, "rload"), Role::Other);
    }

    #[test]
    fn concurrent_records_are_safe_and_complete() {
        let l = JouleLedger::enabled();
        std::thread::scope(|s| {
            for w in 0..4 {
                let l = l.clone();
                s.spawn(move || {
                    for i in 0..250 {
                        let code = (w * 4 + i % 4) as u16 % 16;
                        l.observe_level(code, 1e-6, 10e-12, 1e-6);
                        l.record_energy_in_phase(
                            DeviceClass::RramCell,
                            Role::RramCell,
                            ProgramPhase::Reset,
                            1e-12,
                        );
                    }
                    // A scoped thread's exit may not have merged its shard
                    // by the time the scope returns.
                    crate::flush_thread();
                });
            }
        });
        let snap = l.snapshot();
        assert_eq!(snap.levels.iter().map(|l| l.n).sum::<u64>(), 1000);
        assert!((snap.total_dissipated_j() - 1000e-12).abs() < 1e-20);
    }
}
