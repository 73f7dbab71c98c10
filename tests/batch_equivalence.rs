//! Interleaved lanes and batched programs against one-at-a-time runs.
//!
//! The lane driver advances several pulses per round, and
//! `program_cells_mc` programs a batch of cells through it. For every batch
//! size from one to past two full rounds of lanes, each job must come out
//! bit for bit as it does alone, a bad job must fail alone with the error
//! it fails with alone, and the batch must leave the telemetry counters and
//! joule-ledger totals of the one-at-a-time runs.
//!
//! This binary installs the global telemetry and joule ledger, so its tests
//! take one lock and run one at a time: the observer checks compare deltas
//! of process-global totals.

use std::collections::BTreeMap;
use std::sync::Mutex;

use oxterm_mlc::levels::{AllocationScheme, LevelAllocation};
use oxterm_mlc::program::{
    program_cell_mc, program_cells_mc, McVariability, ProgramConditions, ProgramOutcome,
};
use oxterm_mlc::MlcError;
use oxterm_rram::calib::{
    simulate_reset_termination, simulate_reset_terminations, simulate_set, simulate_sets,
    ResetConditions, SetConditions, LANES,
};
use oxterm_rram::params::{InstanceVariation, OxramParams};
use oxterm_rram::RramError;
use oxterm_telemetry::joule::JouleLedger;
use oxterm_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> std::sync::MutexGuard<'static, ()> {
    Telemetry::install(Telemetry::enabled());
    JouleLedger::install(JouleLedger::enabled());
    SERIAL
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Batch sizes from one lane to past two full rounds of lanes.
fn batch_sizes() -> std::ops::RangeInclusive<usize> {
    1..=2 * LANES + 1
}

/// The global observers' records so far: every telemetry counter, and the
/// joule ledger's energy per role and phase.
fn records() -> (BTreeMap<String, u64>, Vec<f64>) {
    let counters = Telemetry::global().report().counters;
    let roles = JouleLedger::global().snapshot().roles;
    (counters, roles.iter().flat_map(|r| r.phase_j).collect())
}

/// What `work` added to [`records`].
fn observed<T>(work: impl FnOnce() -> T) -> (T, BTreeMap<String, u64>, Vec<f64>) {
    let (c0, e0) = records();
    let out = work();
    let (c1, e1) = records();
    let counters = c1
        .into_iter()
        .map(|(k, v)| {
            let before = c0.get(&k).copied().unwrap_or(0);
            (k, v - before)
        })
        .filter(|&(_, d)| d > 0)
        .collect();
    let energy = e1
        .iter()
        .zip(e0.iter().chain(std::iter::repeat(&0.0)))
        .map(|(a, b)| a - b)
        .collect();
    (out, counters, energy)
}

/// The ledger holds integer quanta, read out as `f64` totals, so deltas of
/// two read-outs agree to their rounding.
fn assert_same_energy(batch: &[f64], alone: &[f64]) {
    assert_eq!(batch.len(), alone.len());
    for (b, a) in batch.iter().zip(alone) {
        assert!((b - a).abs() <= 1e-12 * a.abs().max(1e-18), "{b} vs {a}");
    }
}

fn outcome_bits(o: &ProgramOutcome) -> [u64; 6] {
    [
        u64::from(o.code),
        o.i_ref.to_bits(),
        o.r_read_ohms.to_bits(),
        o.latency_s.to_bits(),
        o.energy_j.to_bits(),
        o.set_energy_j.to_bits(),
    ]
}

/// Four levels, the last at 1 pA: below the cell's hopping current, so its
/// RESET never terminates.
fn allocation_with_unreachable_level() -> LevelAllocation {
    LevelAllocation::new(4, 1e-12, 36e-6, AllocationScheme::IsoDeltaI, |_| Vec::new())
        .expect("valid window")
}

/// Job `k` of batch `n`: mixed codes, among them the unreachable level 3
/// and the out-of-range code 4, each on its own seed.
fn job(n: usize, k: usize) -> (u16, u64) {
    const CODES: [u16; 7] = [0, 2, 3, 1, 4, 2, 0];
    (CODES[(n + k) % CODES.len()], (n * 1000 + k) as u64)
}

fn assert_same_outcome(
    got: &Result<ProgramOutcome, MlcError>,
    alone: &Result<ProgramOutcome, MlcError>,
    what: &str,
) {
    match (got, alone) {
        (Ok(g), Ok(a)) => assert_eq!(outcome_bits(g), outcome_bits(a), "{what}"),
        (Err(g), Err(a)) => assert_eq!(g, a, "{what}"),
        other => panic!("{what}: {other:?}"),
    }
}

#[test]
fn every_batch_size_programs_the_one_at_a_time_outcomes() {
    let _serial = serial();
    let params = OxramParams::calibrated();
    let alloc = allocation_with_unreachable_level();
    let mut cond = ProgramConditions::paper();
    cond.reset.t_max = 10e-6;
    let var = McVariability::default();
    let (mut unreachable, mut invalid) = (0, 0);
    for n in batch_sizes() {
        let jobs: Vec<(u16, u64)> = (0..n).map(|k| job(n, k)).collect();
        let (alone, c_alone, e_alone) = observed(|| {
            jobs.iter()
                .map(|&(code, seed)| {
                    let mut rng = StdRng::seed_from_u64(seed);
                    let out = program_cell_mc(&params, &alloc, code, &cond, &var, &mut rng);
                    (out, rng.random::<u64>())
                })
                .collect::<Vec<_>>()
        });
        let mut batch: Vec<(u16, StdRng)> = jobs
            .iter()
            .map(|&(code, seed)| (code, StdRng::seed_from_u64(seed)))
            .collect();
        let (outs, c_batch, e_batch) =
            observed(|| program_cells_mc(&params, &alloc, &cond, &var, &mut batch));
        assert_eq!(outs.len(), n);
        for (k, ((got, (_, rng)), (want, next))) in
            outs.iter().zip(&mut batch).zip(&alone).enumerate()
        {
            assert_same_outcome(got, want, &format!("batch {n} job {k}"));
            // The batch drew exactly the job's own stream.
            assert_eq!(rng.random::<u64>(), *next, "batch {n} job {k}: RNG state");
            match got {
                Err(MlcError::Rram(RramError::NotTerminated { .. })) => unreachable += 1,
                Err(MlcError::InvalidData { value: 4, .. }) => invalid += 1,
                Err(e) => panic!("batch {n} job {k}: unexpected {e:?}"),
                Ok(_) => {}
            }
        }
        assert_eq!(c_batch, c_alone, "batch {n}: counters");
        assert_same_energy(&e_batch, &e_alone);
    }
    assert!(unreachable > 0 && invalid > 0, "{unreachable} / {invalid}");
}

#[test]
fn lanes_run_every_pulse_as_it_runs_alone() {
    let _serial = serial();
    let params = OxramParams::calibrated();
    let var = McVariability::default();
    let cond = ProgramConditions::paper();
    let mut rng = StdRng::seed_from_u64(0x1A4E);
    for n in batch_sizes() {
        let mut sets: Vec<(InstanceVariation, SetConditions)> = Vec::new();
        let mut resets: Vec<(InstanceVariation, ResetConditions)> = Vec::new();
        for k in 0..n {
            let (mut inst, c, _) = var.sample(&params, &cond, &mut rng);
            let mut reset = c.reset;
            reset.i_ref = [36e-6, 20e-6, 6e-6][k % 3];
            if k == n / 2 {
                // An invalid instance fails its SET and its RESET alone.
                inst.alpha_factor = -1.0;
            }
            if k == 0 && n > 1 {
                // An unreachable reference, below the hopping current.
                reset.i_ref = 1e-12;
                reset.t_max = 5e-6;
            }
            sets.push((inst, c.set));
            resets.push((inst, reset));
        }
        let (batch, c_batch, e_batch) = observed(|| simulate_sets(&params, &sets));
        let (alone, c_alone, e_alone) = observed(|| {
            sets.iter()
                .map(|(inst, c)| simulate_set(&params, inst, c))
                .collect::<Vec<_>>()
        });
        assert_eq!(batch, alone, "SET batch {n}");
        assert_eq!(c_batch, c_alone, "SET batch {n}: counters");
        assert_same_energy(&e_batch, &e_alone);
        assert!(matches!(
            batch[n / 2],
            Err(RramError::InvalidParameter {
                name: "alpha_factor",
                ..
            })
        ));

        let (batch, c_batch, e_batch) = observed(|| simulate_reset_terminations(&params, &resets));
        let (alone, c_alone, e_alone) = observed(|| {
            resets
                .iter()
                .map(|(inst, c)| simulate_reset_termination(&params, inst, c))
                .collect::<Vec<_>>()
        });
        assert_eq!(batch, alone, "RESET batch {n}");
        assert_eq!(c_batch, c_alone, "RESET batch {n}: counters");
        assert_same_energy(&e_batch, &e_alone);
        if n > 1 {
            assert!(matches!(
                batch[0],
                Err(RramError::NotTerminated { i_ref, .. }) if i_ref == 1e-12
            ));
        }
        for (k, out) in batch.iter().enumerate() {
            assert_eq!(out.is_ok(), k != n / 2 && (k != 0 || n == 1), "job {k}");
        }
    }
}
