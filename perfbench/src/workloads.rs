//! The four end-to-end workloads: inputs made from the seed, one batch per
//! closed-loop call, and the checks on each batch's outputs.

use std::panic::{catch_unwind, AssertUnwindSafe};

use oxterm_bench::campaigns::{mc_campaign, LevelCampaign};
use oxterm_mlc::levels::LevelAllocation;
use oxterm_mlc::program::{program_cell_circuit, CircuitProgramOptions};
use oxterm_mlc::word::{program_word_circuit, WordProgramOptions};
use oxterm_rram::calib::{calibrate, CalibrationTarget, ResetConditions};
use oxterm_rram::params::OxramParams;
use oxterm_telemetry::joule::JouleLedger;
use oxterm_telemetry::{LevelTracker, Profiler, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::stats::Digest;

/// Monte Carlo runs per level in one campaign call (the checklist's size).
pub const RUNS_PER_LEVEL: usize = 120;
/// Objective evaluations per calibration call: below the ≈620 at which the
/// search converges from the committed card, so every call spends it all.
pub const EVAL_BUDGET: usize = 200;
/// Bits (cells) in the programmed word.
pub const WORD_BITS: usize = 8;
/// The Fig 10 anchors: final HRS and termination latency at 10 µA.
pub const FIG10_R_OHMS: f64 = 152e3;
/// See [`FIG10_R_OHMS`].
pub const FIG10_LATENCY_S: f64 = 2.6e-6;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `mc_campaign` over the QLC allocation, observers off.
    QlcCampaign,
    /// The same call with the checklist's four observers installed.
    QlcCampaignObserved,
    /// `calibrate` from the committed card at a fixed evaluation budget.
    NominalSweep,
    /// The Fig 10 testbench at every QLC IrefR, the standard pulse and an
    /// 8-bit word, all at circuit level.
    CircuitProgram,
}

impl Workload {
    /// Every workload; `BENCHMARK.json` lists the first three.
    pub const ALL: [Workload; 4] = [
        Workload::QlcCampaign,
        Workload::QlcCampaignObserved,
        Workload::NominalSweep,
        Workload::CircuitProgram,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::QlcCampaign => "qlc_campaign",
            Workload::QlcCampaignObserved => "qlc_campaign_observed",
            Workload::NominalSweep => "nominal_sweep",
            Workload::CircuitProgram => "circuit_program",
        }
    }

    /// Parses a command-line name.
    pub fn parse(name: &str) -> Option<Self> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    /// What one operation of the workload is, as its throughput key.
    pub fn throughput_key(self) -> &'static str {
        match self {
            Workload::QlcCampaign | Workload::QlcCampaignObserved => "programs_per_s",
            Workload::NominalSweep => "evals_per_s",
            Workload::CircuitProgram => "transients_per_s",
        }
    }

    /// What the output check asserts, for the report.
    pub fn check_text(self) -> &'static str {
        match self {
            Workload::QlcCampaign | Workload::QlcCampaignObserved => {
                "16 levels present, ordered and non-overlapping"
            }
            Workload::NominalSweep => "fitted objective no worse than at the start",
            Workload::CircuitProgram => {
                "termination fires at every IrefR; standard pulse deeper than every level"
            }
        }
    }

    /// What `anchor_err_pct` compares, for the report.
    pub fn anchor_text(self) -> &'static str {
        match self {
            Workload::QlcCampaign | Workload::QlcCampaignObserved => {
                "worst per-level median R vs Table 2"
            }
            Workload::NominalSweep => "100 x the fit's rms_log_error",
            Workload::CircuitProgram => "worst of R and latency at 10 uA vs Fig 10",
        }
    }

    /// Builds the workload's inputs from `seed`, runs one untimed warm-up
    /// call, and returns the state batches run from.
    pub fn setup(self, seed: u64) -> Box<dyn Batch> {
        match self {
            Workload::QlcCampaign | Workload::QlcCampaignObserved => {
                Box::new(Campaign::setup(seed))
            }
            Workload::NominalSweep => Box::new(Sweep::setup()),
            Workload::CircuitProgram => Box::new(Circuits::setup(seed)),
        }
    }
}

/// Installs the four observers exactly as the reproduction checklist does.
/// They are process-global and cannot be removed again.
pub fn install_observers() {
    Telemetry::install(Telemetry::enabled());
    Profiler::install(Profiler::enabled());
    LevelTracker::install(LevelTracker::enabled());
    JouleLedger::install(JouleLedger::enabled());
}

/// What one batch produced.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchOutcome {
    /// Operations attempted.
    pub ops: u64,
    /// Operations that failed or whose output check failed.
    pub failed: u64,
    /// Digest of every simulated output of the batch.
    pub digest: Digest,
    /// Worst relative error against the paper's anchors, in %.
    pub anchor_err_pct: f64,
}

/// One closed-loop call of a workload: issued, then waited for.
pub trait Batch {
    /// Runs one batch on the prepared inputs.
    fn run(&mut self) -> BatchOutcome;
}

/// Runs `f`, turning a panic into `None` (the panic message still reaches
/// stderr) so a failing batch is counted rather than aborting the run.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Table 2's resistance (Ω) at reference current `i_ref` (A).
fn table2_r_ohms(i_ref: f64) -> Option<f64> {
    CalibrationTarget::paper()
        .allocation
        .into_iter()
        .find(|(i_ua, _)| (i_ua * 1e-6 - i_ref).abs() < 1e-9)
        .map(|(_, r_kohm)| r_kohm * 1e3)
}

struct Campaign {
    params: OxramParams,
    alloc: LevelAllocation,
    seed: u64,
}

impl Campaign {
    fn setup(seed: u64) -> Self {
        let c = Campaign {
            params: OxramParams::calibrated(),
            alloc: LevelAllocation::paper_qlc(),
            seed,
        };
        // Enough runs per level that compute, not worker start-up, sets the
        // warm-up's time.
        std::hint::black_box(mc_campaign(&c.params, &c.alloc, 16, seed));
        c
    }
}

impl Batch for Campaign {
    fn run(&mut self) -> BatchOutcome {
        let n_levels = self.alloc.n_levels();
        let ops = (n_levels * RUNS_PER_LEVEL) as u64;
        match guarded(|| mc_campaign(&self.params, &self.alloc, RUNS_PER_LEVEL, self.seed)) {
            Some(levels) => check_campaign(&levels, n_levels, ops),
            None => BatchOutcome {
                ops,
                failed: ops,
                digest: Digest::default(),
                anchor_err_pct: f64::NAN,
            },
        }
    }
}

/// Checks a campaign: every level present with all its runs, levels ordered
/// by resistance as IrefR falls, and adjacent levels' ranges disjoint. The
/// runs of a level that fails any of these count as failed.
pub fn check_campaign(levels: &[LevelCampaign], n_levels: usize, ops: u64) -> BatchOutcome {
    let mut digest = Digest::default();
    let mut failed = 0u64;
    let mut anchor_err: f64 = 0.0;
    // Levels in the order of falling IrefR, with their (min R, max R).
    let mut order: Vec<usize> = (0..levels.len()).collect();
    order.sort_by(|&a, &b| levels[b].spec.i_ref.total_cmp(&levels[a].spec.i_ref));
    let ranges: Vec<(f64, f64)> = order
        .iter()
        .map(|&k| {
            let r = levels[k].resistances();
            let lo = r.iter().copied().fold(f64::INFINITY, f64::min);
            let hi = r.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            (lo, hi)
        })
        .collect();
    for (pos, &k) in order.iter().enumerate() {
        let lc = &levels[k];
        let r = lc.resistances();
        let complete = lc.outcomes.len() == RUNS_PER_LEVEL && r.iter().all(|x| x.is_finite());
        let below_next = ranges
            .get(pos + 1)
            .is_none_or(|next| ranges[pos].1 < next.0);
        let above_prev = pos == 0 || ranges[pos - 1].1 < ranges[pos].0;
        if !(complete && below_next && above_prev) {
            failed += lc.outcomes.len() as u64;
        }
        match table2_r_ohms(lc.spec.i_ref) {
            Some(target) if !r.is_empty() => {
                let med = crate::stats::median(&r);
                anchor_err = anchor_err.max(100.0 * (med / target - 1.0).abs());
            }
            _ => failed += lc.outcomes.len() as u64,
        }
        for o in &lc.outcomes {
            digest.word(u64::from(o.code));
            digest.f64s(&[o.r_read_ohms, o.latency_s, o.energy_j, o.set_energy_j]);
        }
    }
    let present = levels.iter().map(|l| l.outcomes.len() as u64).sum::<u64>();
    if levels.len() != n_levels {
        failed = ops;
    }
    BatchOutcome {
        ops,
        failed: (failed + ops.saturating_sub(present)).min(ops),
        digest,
        anchor_err_pct: anchor_err,
    }
}

struct Sweep {
    start: OxramParams,
    v_drive: f64,
    r_series: f64,
    target: CalibrationTarget,
    /// The best objective of the search's initial simplex, in
    /// `rms_log_error` form: what a fit must not be worse than.
    start_rms: f64,
}

impl Sweep {
    fn setup() -> Self {
        let op = ResetConditions::paper_defaults(10e-6);
        let start = OxramParams::calibrated();
        let target = CalibrationTarget::paper();
        // A budget of one still evaluates the initial simplex.
        let start_rms = calibrate(&start, op.v_drive, op.r_series, &target, 1)
            .map_or(f64::NAN, |r| r.rms_log_error);
        Sweep {
            start,
            v_drive: op.v_drive,
            r_series: op.r_series,
            target,
            start_rms,
        }
    }
}

impl Batch for Sweep {
    fn run(&mut self) -> BatchOutcome {
        let fit = guarded(|| {
            calibrate(
                &self.start,
                self.v_drive,
                self.r_series,
                &self.target,
                EVAL_BUDGET,
            )
        });
        let mut digest = Digest::default();
        match fit {
            Some(Ok(fit)) => {
                let p = &fit.params;
                digest.f64s(&[
                    p.g_on,
                    p.v_shape,
                    p.tau_rst0,
                    p.v_rst,
                    p.beta_rst,
                    p.i_joule,
                    fit.v_drive,
                    fit.r_series,
                    fit.rms_log_error,
                ]);
                digest.word(fit.evals as u64);
                let ok = fit.rms_log_error.is_finite() && fit.rms_log_error <= self.start_rms;
                BatchOutcome {
                    ops: fit.evals as u64,
                    failed: if ok { 0 } else { fit.evals as u64 },
                    digest,
                    anchor_err_pct: 100.0 * fit.rms_log_error,
                }
            }
            _ => BatchOutcome {
                ops: EVAL_BUDGET as u64,
                failed: EVAL_BUDGET as u64,
                digest,
                anchor_err_pct: f64::NAN,
            },
        }
    }
}

/// The 8-bit word programmed by `circuit_program`: every odd code, from
/// the slowest level (15, 6 µA) down, in a seeded bit order. The set of
/// levels is fixed so every word costs the same; the seed decides which bit
/// line carries which level.
pub fn word_codes(seed: u64) -> Vec<u16> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut codes: Vec<u16> = (0..WORD_BITS as u16).map(|k| 15 - 2 * k).collect();
    for i in (1..codes.len()).rev() {
        let j = (rng.random::<u64>() % (i as u64 + 1)) as usize;
        codes.swap(i, j);
    }
    codes
}

/// Fig 10's 3.5 µs standard (non-terminated) pulse at full-rail drive.
pub fn standard_pulse_options() -> CircuitProgramOptions {
    CircuitProgramOptions {
        v_sl: 3.0,
        v_wl: 3.3,
        pulse_width: 3.5e-6,
        ..CircuitProgramOptions::paper_fig10()
    }
}

struct Circuits {
    fig10: CircuitProgramOptions,
    standard: CircuitProgramOptions,
    word: WordProgramOptions,
    alloc: LevelAllocation,
    codes: Vec<u16>,
}

impl Circuits {
    fn setup(seed: u64) -> Self {
        let c = Circuits {
            fig10: CircuitProgramOptions::paper_fig10(),
            standard: standard_pulse_options(),
            word: WordProgramOptions::paper(),
            alloc: LevelAllocation::paper_qlc(),
            codes: word_codes(seed),
        };
        let _ = std::hint::black_box(program_word_circuit(&c.codes, &c.alloc, &c.word));
        c
    }
}

impl Batch for Circuits {
    fn run(&mut self) -> BatchOutcome {
        let mut digest = Digest::default();
        let mut failed = 0u64;
        let mut anchor_err = f64::NAN;
        let mut deepest_level: f64 = 0.0;
        for spec in self.alloc.levels() {
            let out = guarded(|| program_cell_circuit(&self.fig10, Some(spec.i_ref)));
            let Some(Ok(out)) = out else {
                failed += 1;
                continue;
            };
            digest.f64s(&[out.r_read_ohms, out.latency_s.unwrap_or(-1.0), out.energy_j]);
            deepest_level = deepest_level.max(out.r_read_ohms);
            let Some(latency) = out.latency_s else {
                failed += 1;
                continue;
            };
            if (spec.i_ref - 10e-6).abs() < 1e-12 {
                anchor_err = 100.0
                    * (out.r_read_ohms / FIG10_R_OHMS - 1.0)
                        .abs()
                        .max((latency / FIG10_LATENCY_S - 1.0).abs());
            }
        }
        match guarded(|| program_cell_circuit(&self.standard, None)) {
            Some(Ok(out)) => {
                digest.f64s(&[out.r_read_ohms, out.energy_j]);
                if out.latency_s.is_some() || out.r_read_ohms <= deepest_level {
                    failed += 1;
                }
            }
            _ => failed += 1,
        }
        match guarded(|| program_word_circuit(&self.codes, &self.alloc, &self.word)) {
            Some(Ok(out)) => {
                digest.f64s(&out.r_read_ohms);
                let latencies: Vec<f64> = out.latencies.iter().map(|l| l.unwrap_or(-1.0)).collect();
                digest.f64s(&latencies);
                digest.f64s(&[out.energy_j]);
                if out.latencies.iter().any(Option::is_none) {
                    failed += 1;
                }
            }
            _ => failed += 1,
        }
        BatchOutcome {
            ops: self.alloc.n_levels() as u64 + 2,
            failed,
            digest,
            anchor_err_pct: anchor_err,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("qlc"), None);
    }

    #[test]
    fn word_is_a_seeded_order_of_the_same_levels() {
        for seed in 0..50 {
            let mut codes = word_codes(seed);
            assert_eq!(codes, word_codes(seed));
            codes.sort_unstable();
            assert_eq!(codes, [1, 3, 5, 7, 9, 11, 13, 15]);
        }
        assert_ne!(word_codes(1), word_codes(2));
    }

    #[test]
    fn table2_lookup_covers_the_qlc_allocation() {
        for spec in LevelAllocation::paper_qlc().levels() {
            assert!(table2_r_ohms(spec.i_ref).is_some(), "{spec:?}");
        }
    }

    #[test]
    fn campaign_check_counts_overlapping_levels_as_failed() {
        let params = OxramParams::calibrated();
        let alloc = LevelAllocation::paper_qlc();
        let mut levels = mc_campaign(&params, &alloc, RUNS_PER_LEVEL, 3);
        let ops = (16 * RUNS_PER_LEVEL) as u64;
        let clean = check_campaign(&levels, 16, ops);
        assert_eq!(clean.failed, 0, "{clean:?}");
        assert!(clean.anchor_err_pct > 0.0 && clean.anchor_err_pct < 10.0);
        // Push one run of level 5 into level 6's range: both levels fail.
        let into = levels[6].outcomes[0].r_read_ohms;
        levels[5].outcomes[0].r_read_ohms = into;
        let broken = check_campaign(&levels, 16, ops);
        assert_eq!(broken.failed, 2 * RUNS_PER_LEVEL as u64);
        assert_ne!(broken.digest, clean.digest);
        // A missing level fails the whole batch.
        levels.pop();
        assert_eq!(check_campaign(&levels, 16, ops).failed, ops);
    }
}
