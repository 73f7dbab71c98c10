//! MLC programming controllers.
//!
//! Word programming follows the paper's two-phase scheme (§4.2): the
//! addressed word is first entirely SET, then a RESET with the per-bit-line
//! reference current runs in parallel and each bit line's write termination
//! chops its own pulse.
//!
//! Two execution paths are provided:
//!
//! * [`program_cell_fast`] — the semi-analytic scalar path (used for Monte
//!   Carlo volume),
//! * [`program_cell_circuit`] — the full MNA transient with a 1T-1R cell,
//!   paper-scale bit-line parasitics, and the behavioral write-termination
//!   monitor (used for Fig 10 and for cross-validating the fast path).

use oxterm_array::cell::{Cell1T1R, CellConfig};
use oxterm_array::parasitics::LineParasitics;
use oxterm_devices::sources::{SourceWave, VoltageSource};
use oxterm_rram::calib::{
    simulate_reset_termination, simulate_reset_terminations, simulate_set, simulate_sets,
    ResetConditions, SetConditions,
};
use oxterm_rram::cell::OxramCell;
use oxterm_rram::params::{standard_normal, InstanceVariation, OxramParams};
use oxterm_spice::analysis::tran::{run_transient, TranOptions};
use oxterm_spice::circuit::Circuit;
use oxterm_spice::waveform::CrossDir;
use oxterm_telemetry::joule::{self, ProgramPhase};
use oxterm_telemetry::{CounterId, PhaseId, Profiler, Telemetry};
use rand::Rng;

use crate::levels::{LevelAllocation, LevelSpec};
use crate::termination::{behavioral_monitor, BehavioralOptions};
use crate::MlcError;

/// Conditions of a full program operation (SET phase + terminated RESET).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramConditions {
    /// SET-phase conditions.
    pub set: SetConditions,
    /// RESET-phase conditions (the `i_ref` field is overridden per level).
    pub reset: ResetConditions,
}

impl ProgramConditions {
    /// The paper's conditions (Table 1 biases, calibrated series path).
    pub fn paper() -> Self {
        ProgramConditions {
            set: SetConditions::paper_defaults(),
            reset: ResetConditions::paper_defaults(10e-6),
        }
    }
}

/// Outcome of one programmed cell.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ProgramOutcome {
    /// The programmed data value.
    pub code: u16,
    /// Reference current used (A).
    pub i_ref: f64,
    /// Final read resistance (Ω).
    pub r_read_ohms: f64,
    /// RESET-phase latency (SET is a fixed short pulse; the paper reports
    /// RST latency) (s).
    pub latency_s: f64,
    /// RESET-phase energy (J).
    pub energy_j: f64,
    /// SET-phase energy (J).
    pub set_energy_j: f64,
}

impl oxterm_mc::checkpoint::CheckpointState for ProgramOutcome {
    // Fixed 6-word layout: the campaign checkpoints store f64 bit
    // patterns, so encode/decode must be bit-lossless for `--resume` to
    // replay aggregates identically.
    fn encode(&self) -> Vec<f64> {
        vec![
            f64::from(self.code),
            self.i_ref,
            self.r_read_ohms,
            self.latency_s,
            self.energy_j,
            self.set_energy_j,
        ]
    }

    fn decode(words: &[f64]) -> Option<Self> {
        match words {
            [code, i_ref, r_read_ohms, latency_s, energy_j, set_energy_j] => {
                if !(*code >= 0.0 && *code <= f64::from(u16::MAX) && code.fract() == 0.0) {
                    return None;
                }
                Some(ProgramOutcome {
                    code: *code as u16,
                    i_ref: *i_ref,
                    r_read_ohms: *r_read_ohms,
                    latency_s: *latency_s,
                    energy_j: *energy_j,
                    set_energy_j: *set_energy_j,
                })
            }
            _ => None,
        }
    }
}

/// Programs one cell on the fast scalar path: full SET, then terminated
/// RESET at the level's reference current.
///
/// # Errors
///
/// * [`MlcError::InvalidData`] for out-of-range `code`,
/// * [`MlcError::Rram`] for model failures (e.g. unreachable reference).
pub fn program_cell_fast(
    params: &OxramParams,
    inst: &InstanceVariation,
    alloc: &LevelAllocation,
    code: u16,
    cond: &ProgramConditions,
) -> Result<ProgramOutcome, MlcError> {
    Telemetry::global().tally(CounterId::FastOps, 1);
    let _program = Profiler::global().phase(PhaseId::MlcProgram);
    let level = alloc.level(code)?;
    let set = {
        let _phase = joule::enter_phase(ProgramPhase::Set);
        simulate_set(params, inst, &cond.set)?
    };
    let reset_cond = ResetConditions {
        i_ref: level.i_ref,
        rho_start: set.rho_final,
        ..cond.reset
    };
    let out = {
        let _phase = joule::enter_phase(ProgramPhase::Reset);
        simulate_reset_termination(params, inst, &reset_cond)?
    };
    Ok(ProgramOutcome {
        code,
        i_ref: level.i_ref,
        r_read_ohms: out.r_read_ohms,
        latency_s: out.latency_s,
        energy_j: out.energy_j,
        set_energy_j: set.energy_j,
    })
}

/// Monte Carlo variability applied around the nominal program conditions.
///
/// A core property of the write-termination scheme — and the reason the
/// paper's state distributions are so tight — is that the terminated
/// resistance is *current-defined*: `R ≈ V_cell/IrefR`, independent of the
/// cell's conduction variability, which only shifts *which* filament state
/// satisfies the termination condition. The residual spread therefore comes
/// from:
///
/// * the termination mirror's reference-current mismatch (`sigma_i_ref`),
/// * the access-path resistance mismatch shifting `V_cell` slightly
///   (`sigma_r_series`),
/// * filament-discreteness state noise that grows as the programming
///   current shrinks (thinner filaments, fewer defects — the paper's
///   refs 20 and 34): `σ_lnR(I) = sigma_state0·(i_star/I)^gamma_state`.
///
/// Cell-level `α`/`Lx` variation (D2D ∘ C2C) is sampled too; it dominates
/// the latency and energy spreads (Fig 13) while largely cancelling in the
/// programmed resistance.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct McVariability {
    /// Relative σ of the effective reference current (mirror mismatch).
    pub sigma_i_ref: f64,
    /// Relative σ of the series path resistance (access-transistor
    /// mismatch dominating, per the paper's MC setup).
    pub sigma_r_series: f64,
    /// Filament-discreteness log-resistance σ at `i_star`.
    pub sigma_state0: f64,
    /// Exponent of the state-noise growth toward low currents.
    pub gamma_state: f64,
    /// Reference current at which `sigma_state0` applies (A).
    pub i_star: f64,
}

impl Default for McVariability {
    fn default() -> Self {
        McVariability {
            sigma_i_ref: 8e-4,
            sigma_r_series: 0.01,
            sigma_state0: 1.2e-3,
            gamma_state: 1.0,
            i_star: 36e-6,
        }
    }
}

impl McVariability {
    /// Samples one Monte Carlo instance: returns the cell variation plus
    /// perturbed conditions and reference current.
    pub fn sample<R: Rng + ?Sized>(
        &self,
        params: &OxramParams,
        cond: &ProgramConditions,
        rng: &mut R,
    ) -> (InstanceVariation, ProgramConditions, f64) {
        let d2d = InstanceVariation::sample_d2d(params, rng);
        let c2c = InstanceVariation::sample_c2c(params, rng);
        let inst = d2d.combine(&c2c);
        let mut cond = *cond;
        cond.reset.r_series *= (standard_normal(rng) * self.sigma_r_series).exp();
        let i_ref_factor = (standard_normal(rng) * self.sigma_i_ref).exp();
        (inst, cond, i_ref_factor)
    }

    /// The filament-discreteness log-resistance σ at reference current
    /// `i_ref`.
    pub fn sigma_ln_r(&self, i_ref: f64) -> f64 {
        self.sigma_state0 * (self.i_star / i_ref).powf(self.gamma_state)
    }
}

/// Programs one cell with sampled Monte Carlo variability: the batch of
/// [`program_cells_mc`] with one job.
///
/// # Errors
///
/// See [`program_cell_fast`].
pub fn program_cell_mc<R: Rng + ?Sized>(
    params: &OxramParams,
    alloc: &LevelAllocation,
    code: u16,
    cond: &ProgramConditions,
    var: &McVariability,
    rng: &mut R,
) -> Result<ProgramOutcome, MlcError> {
    // One job in, exactly one outcome out.
    program_cells_mc(params, alloc, cond, var, &mut [(code, rng)]).swap_remove(0)
}

/// One job's draws: its level, the sampled cell and conditions, the
/// reference-current factor and the filament-discreteness state noise.
struct Draw {
    level: LevelSpec,
    inst: InstanceVariation,
    cond: ProgramConditions,
    i_ref_factor: f64,
    state_noise: f64,
}

/// Programs a batch of cells with sampled Monte Carlo variability: job `k`
/// programs the data value `jobs[k].0` drawing from the RNG `jobs[k].1`.
///
/// Each job's variability and state noise are drawn first, in job order;
/// then all the batch's SETs run through [`simulate_sets`], then all its
/// RESETs through [`simulate_reset_terminations`], each one job after
/// another. Every job runs the scalar operation sequence, so entry `k` is
/// bit for bit what [`program_cell_mc`] returns for job `k` alone, and the
/// telemetry counters and joule-ledger totals are those of the jobs run one
/// at a time.
///
/// # Errors
///
/// Per job, see [`program_cell_fast`]; a failed job fails alone.
pub fn program_cells_mc<R: Rng>(
    params: &OxramParams,
    alloc: &LevelAllocation,
    cond: &ProgramConditions,
    var: &McVariability,
    jobs: &mut [(u16, R)],
) -> Vec<Result<ProgramOutcome, MlcError>> {
    Telemetry::global().tally(CounterId::McOps, jobs.len() as u64);
    let _program = Profiler::global().phase(PhaseId::MlcProgram);
    let sample = Profiler::global().phase(PhaseId::MlcSample);
    let mut set_jobs = Vec::with_capacity(jobs.len());
    let draws: Vec<Result<Draw, MlcError>> = jobs
        .iter_mut()
        .map(|(code, rng)| {
            let level = alloc.level(*code)?;
            let (inst, cond, i_ref_factor) = var.sample(params, cond, rng);
            // Filament-discreteness state noise (grows at low programming
            // current). The pulses draw nothing from `rng`, so drawing it
            // before them keeps the run's sample stream.
            let state_noise = (standard_normal(rng) * var.sigma_ln_r(level.i_ref)).exp();
            set_jobs.push((inst, cond.set));
            Ok(Draw {
                level,
                inst,
                cond,
                i_ref_factor,
                state_noise,
            })
        })
        .collect();
    sample.finish();
    let sets = {
        let _phase = joule::enter_phase(ProgramPhase::Set);
        simulate_sets(params, &set_jobs)
    };
    // One RESET per successful SET, from the state it left.
    let reset_jobs: Vec<_> = draws
        .iter()
        .flatten()
        .zip(&sets)
        .filter_map(|(d, set)| {
            let reset = ResetConditions {
                i_ref: d.level.i_ref * d.i_ref_factor,
                rho_start: set.as_ref().ok()?.rho_final,
                ..d.cond.reset
            };
            Some((d.inst, reset))
        })
        .collect();
    let mut resets = {
        let _phase = joule::enter_phase(ProgramPhase::Reset);
        simulate_reset_terminations(params, &reset_jobs)
    }
    .into_iter();
    let mut sets = sets.into_iter();
    draws
        .into_iter()
        .zip(jobs.iter())
        .map(|(d, &(code, _))| {
            let d = d?;
            let set = sets
                .next()
                .unwrap_or_else(|| unreachable!("one SET per draw"))?;
            let out = resets
                .next()
                .unwrap_or_else(|| unreachable!("one RESET per SET"))?;
            Ok(ProgramOutcome {
                code,
                i_ref: d.level.i_ref,
                r_read_ohms: out.r_read_ohms * d.state_noise,
                latency_s: out.latency_s,
                energy_j: out.energy_j,
                set_energy_j: set.energy_j,
            })
        })
        .collect()
}

/// Options for the circuit-level programming path.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CircuitProgramOptions {
    /// Cell configuration (OxRAM card + access transistor).
    pub cell: CellConfig,
    /// Bit-line parasitics between the cell and the termination sense.
    pub bl_line: LineParasitics,
    /// SL driver level during the terminated RESET (V).
    pub v_sl: f64,
    /// WL level during RESET (V) — Table 1: 2.5 V.
    pub v_wl: f64,
    /// Worst-case pulse width the termination must beat (s) — Fig 10:
    /// 3.5 µs.
    pub pulse_width: f64,
    /// Starting filament state (post-SET LRS).
    pub rho_start: f64,
    /// Read-back voltage (V).
    pub v_read: f64,
    /// Maximum simulation step during the RESET (s).
    pub dt_max: f64,
}

impl CircuitProgramOptions {
    /// Fig 10 conditions: 1 KByte-array parasitics, Table 1 WL bias.
    ///
    /// The pulse budget (6 µs) exceeds the worst-case termination latency
    /// (≈4.4 µs at 6 µA) so the chop — not the pulse edge — always defines
    /// the level. The paper's 3.5 µs *standard* pulse is the non-MLC
    /// baseline; pass `i_ref = None` with `pulse_width = 3.5e-6` for it.
    pub fn paper_fig10() -> Self {
        CircuitProgramOptions {
            cell: CellConfig::paper(),
            bl_line: LineParasitics::kilobyte_array(),
            v_sl: 1.35,
            v_wl: 2.5,
            pulse_width: 6.0e-6,
            rho_start: 1.0,
            v_read: 0.3,
            dt_max: 10e-9,
        }
    }
}

/// Result of a circuit-level program operation, with waveforms.
#[derive(Debug, Clone)]
pub struct CircuitProgramOutcome {
    /// Final read resistance (Ω).
    pub r_read_ohms: f64,
    /// Termination latency (s), if the termination fired.
    pub latency_s: Option<f64>,
    /// Energy delivered by the SL driver (J).
    pub energy_j: f64,
    /// Cell-current waveform (A vs s) through the sense branch.
    pub i_cell: oxterm_spice::waveform::Waveform,
    /// SL driver voltage waveform (V vs s).
    pub v_sl: oxterm_spice::waveform::Waveform,
    /// Filament-state waveform (ρ vs s).
    pub rho: oxterm_spice::waveform::Waveform,
}

/// Handles into a circuit built by [`build_program_circuit`].
#[derive(Debug, Clone, Copy)]
pub struct ProgramCircuitHandles {
    /// SL driver node.
    pub sl: oxterm_spice::circuit::NodeId,
    /// The OxRAM cell element (for `rho` state access).
    pub rram: oxterm_spice::circuit::ElementId,
    /// The 0 V sense source whose branch carries the cell current.
    pub sense: oxterm_spice::circuit::ElementId,
    /// The SL pulse driver (the source the termination chops).
    pub vsl: oxterm_spice::circuit::ElementId,
}

/// Builds the circuit-level programming testbench without running it.
///
/// Topology: SL pulse driver → access transistor → OxRAM → bit line with
/// paper-scale parasitics → 0 V sense source (the termination's current
/// input). Shared by [`program_cell_circuit`] and the pre-simulation lint
/// corpus, so what gets linted is exactly what gets simulated.
///
/// # Errors
///
/// Returns [`MlcError::Spice`] if the freshly built cell handle cannot be
/// resolved (unreachable in practice).
pub fn build_program_circuit(
    opts: &CircuitProgramOptions,
) -> Result<(Circuit, ProgramCircuitHandles), MlcError> {
    let mut c = Circuit::new();
    let sl = c.node("sl");
    let wl = c.node("wl");
    let bl_cell = c.node("bl_cell");
    let bl_sense = c.node("bl_sense");

    let cell = Cell1T1R::build(&mut c, "c0", bl_cell, wl, sl, &opts.cell);
    {
        let r: &mut OxramCell = c.device_mut(cell.rram)?;
        r.set_rho_init(opts.rho_start);
    }
    opts.bl_line.build(&mut c, "blp", bl_cell, bl_sense);

    let sense = c.add(VoltageSource::new(
        "vsense",
        bl_sense,
        Circuit::gnd(),
        SourceWave::dc(0.0),
    ));
    c.add(VoltageSource::new(
        "vwl",
        wl,
        Circuit::gnd(),
        SourceWave::dc(opts.v_wl),
    ));
    let vsl = c.add(VoltageSource::new(
        "vsl",
        sl,
        Circuit::gnd(),
        SourceWave::pulse(opts.v_sl, 20e-9, 10e-9, opts.pulse_width, 10e-9),
    ));
    Ok((
        c,
        ProgramCircuitHandles {
            sl,
            rram: cell.rram,
            sense,
            vsl,
        },
    ))
}

/// The transient options [`program_cell_circuit`] runs with — exposed so the
/// lint pass can check them against the built circuit.
pub fn program_tran_options(opts: &CircuitProgramOptions) -> TranOptions {
    let t_stop = opts.pulse_width + 200e-9;
    TranOptions {
        dt_max: Some(opts.dt_max),
        ..TranOptions::for_duration(t_stop)
    }
}

/// Programs one 1T-1R cell at circuit level with the behavioral write
/// termination, returning the Fig 10-style waveforms.
///
/// Set `i_ref` to `None` to run the *standard* (non-terminated) pulse — the
/// paper's baseline in Fig 10.
///
/// # Errors
///
/// Propagates transient-analysis failures.
pub fn program_cell_circuit(
    opts: &CircuitProgramOptions,
    i_ref: Option<f64>,
) -> Result<CircuitProgramOutcome, MlcError> {
    let tel = Telemetry::global();
    tel.incr("mlc.program.circuit_ops");
    let _op_span = tel.span("mlc.program.circuit_seconds");
    let _program = Profiler::global().phase(PhaseId::MlcProgram);
    let testbench = Profiler::global().phase(PhaseId::MlcTestbench);
    let (mut c, handles) = build_program_circuit(opts)?;
    let ProgramCircuitHandles {
        sl,
        rram,
        sense,
        vsl,
    } = handles;
    let tran_opts = program_tran_options(opts);
    testbench.finish();

    // The whole transient is a RESET programming pulse for the joule
    // ledger; the termination monitor flips the thread phase to Tail at
    // the trip (and Bisection while hunting the crossing), and the scope
    // guard restores whatever phase the caller was in.
    let (result, fired) = {
        let _phase = joule::enter_phase(ProgramPhase::Reset);
        match i_ref {
            Some(i_ref) => {
                let (mut monitor, flag) =
                    behavioral_monitor(sense, vsl, BehavioralOptions::new(i_ref));
                let res = run_transient(&mut c, &tran_opts, &mut [&mut monitor])?;
                (res, flag.fired_at())
            }
            None => (run_transient(&mut c, &tran_opts, &mut [])?, None),
        }
    };

    let _measure = Profiler::global().phase(PhaseId::MlcTestbench);
    let i_cell = result.branch_trace(&c, sense, 0)?;
    let v_sl_wave = result.node_trace(sl);
    let rho = result.state_trace(&c, rram, 0)?;
    // Energy delivered by the SL driver: ∫ v·(−i_branch) dt.
    let i_sl = result.branch_trace(&c, vsl, 0)?.map(|i| -i);
    let energy = v_sl_wave.pointwise_mul(&i_sl).integral();

    let rho_final = rho.last();
    let params = opts.cell.oxram;
    let r_read = oxterm_rram::model::read_resistance(
        &params,
        &InstanceVariation::nominal(),
        rho_final,
        opts.v_read,
    );
    // Latency per the paper: time from pulse start to termination.
    let latency = fired.map(|t| {
        let pulse_start = 20e-9;
        (t - pulse_start).max(0.0)
    });
    // Cross-check: latency should match the current crossing.
    let _ = i_cell.first_crossing(i_ref.unwrap_or(0.0), CrossDir::Falling);

    // Releasing the testbench and its waveforms is testbench work too.
    drop(result);
    drop(c);
    Ok(CircuitProgramOutcome {
        r_read_ohms: r_read,
        latency_s: latency,
        energy_j: energy,
        i_cell,
        v_sl: v_sl_wave,
        rho,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::levels::LevelAllocation;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn fast_path_hits_allocation_targets() {
        let params = OxramParams::calibrated();
        let inst = InstanceVariation::nominal();
        let alloc = LevelAllocation::paper_qlc();
        let cond = ProgramConditions::paper();
        // Table 2 end points: code 15 → ~267 kΩ, code 0 → ~38 kΩ.
        let hi = program_cell_fast(&params, &inst, &alloc, 15, &cond).unwrap();
        assert!(
            (230e3..300e3).contains(&hi.r_read_ohms),
            "R(1111) = {:.3e}",
            hi.r_read_ohms
        );
        let lo = program_cell_fast(&params, &inst, &alloc, 0, &cond).unwrap();
        assert!(
            (34e3..43e3).contains(&lo.r_read_ohms),
            "R(0000) = {:.3e}",
            lo.r_read_ohms
        );
        assert!(hi.latency_s > lo.latency_s);
    }

    #[test]
    fn all_sixteen_levels_are_distinct_and_ordered() {
        let params = OxramParams::calibrated();
        let inst = InstanceVariation::nominal();
        let alloc = LevelAllocation::paper_qlc();
        let cond = ProgramConditions::paper();
        let mut prev = 0.0;
        for code in 0..16u16 {
            let out = program_cell_fast(&params, &inst, &alloc, code, &cond).unwrap();
            assert!(
                out.r_read_ohms > prev,
                "code {code}: {} not > {prev}",
                out.r_read_ohms
            );
            prev = out.r_read_ohms;
        }
    }

    #[test]
    fn mc_sampling_spreads_outcomes() {
        let params = OxramParams::calibrated();
        let alloc = LevelAllocation::paper_qlc();
        let cond = ProgramConditions::paper();
        let var = McVariability::default();
        let mut rng = StdRng::seed_from_u64(5);
        let rs: Vec<f64> = (0..30)
            .map(|_| {
                program_cell_mc(&params, &alloc, 8, &cond, &var, &mut rng)
                    .unwrap()
                    .r_read_ohms
            })
            .collect();
        let min = rs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = rs.iter().cloned().fold(0.0f64, f64::max);
        // The termination self-compensates most cell variability, so the
        // spread is small — but it must exist.
        assert!(max > min * 1.004, "no spread: {min} vs {max}");
    }

    #[test]
    fn invalid_code_rejected() {
        let params = OxramParams::calibrated();
        let inst = InstanceVariation::nominal();
        let alloc = LevelAllocation::paper_qlc();
        let cond = ProgramConditions::paper();
        assert!(matches!(
            program_cell_fast(&params, &inst, &alloc, 99, &cond),
            Err(MlcError::InvalidData { .. })
        ));
    }

    #[test]
    fn circuit_level_termination_fires_and_limits_resistance() {
        let opts = CircuitProgramOptions::paper_fig10();
        let out = program_cell_circuit(&opts, Some(10e-6)).unwrap();
        assert!(out.latency_s.is_some(), "termination never fired");
        // Fig 10: final HRS ≈ 152 kΩ at IrefR = 10 µA (we accept the
        // circuit-level value within a loose band; exact calibration is on
        // the fast path).
        assert!(
            (60e3..400e3).contains(&out.r_read_ohms),
            "R = {:.3e}",
            out.r_read_ohms
        );
        let lat = out.latency_s.unwrap();
        assert!((0.3e-6..6e-6).contains(&lat), "latency = {lat:.3e}");
    }

    #[test]
    fn program_outcome_checkpoint_round_trip_is_bit_exact() {
        use oxterm_mc::checkpoint::CheckpointState;
        let out = ProgramOutcome {
            code: 11,
            i_ref: 6.25e-6,
            r_read_ohms: 1.0 / 3.0 * 1e5,
            latency_s: 0.1 + 0.2,
            energy_j: 6.02e-13,
            set_energy_j: -0.0,
        };
        let decoded = ProgramOutcome::decode(&out.encode()).expect("decodes");
        assert_eq!(out.code, decoded.code);
        for (a, b) in out.encode().iter().zip(decoded.encode().iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
        // Shape and range violations refuse to decode.
        assert!(ProgramOutcome::decode(&[1.0; 5]).is_none());
        assert!(ProgramOutcome::decode(&[1.5, 0.0, 0.0, 0.0, 0.0, 0.0]).is_none());
        assert!(ProgramOutcome::decode(&[-1.0, 0.0, 0.0, 0.0, 0.0, 0.0]).is_none());
    }

    #[test]
    fn standard_pulse_drives_much_deeper() {
        let opts = CircuitProgramOptions::paper_fig10();
        let term = program_cell_circuit(&opts, Some(10e-6)).unwrap();
        // The worst-case standard pulse is driven at full rail (our model's
        // RESET voltage acceleration is milder than the silicon device's;
        // see EXPERIMENTS.md) — the claim under test is the *relationship*:
        // a fixed worst-case pulse blows far past every MLC level.
        let std_opts = CircuitProgramOptions {
            v_sl: 3.0,
            v_wl: 3.3,
            pulse_width: 3.5e-6,
            ..opts
        };
        let std_pulse = program_cell_circuit(&std_opts, None).unwrap();
        assert!(std_pulse.latency_s.is_none());
        assert!(
            std_pulse.r_read_ohms > 3.0 * term.r_read_ohms,
            "standard {:.3e} vs terminated {:.3e}",
            std_pulse.r_read_ohms,
            term.r_read_ohms
        );
    }
}
