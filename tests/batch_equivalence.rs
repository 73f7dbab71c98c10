//! Batched pulses and programs against one-at-a-time runs.
//!
//! `simulate_sets` and `simulate_reset_terminations` run a batch of pulses,
//! and `program_cells_mc` programs a batch of cells through them. For every
//! batch size from 1 to 17, each job must come out bit for bit as it does
//! alone, a bad job must fail alone with the error it fails with alone, and
//! the batch must leave the telemetry counters, the RESET latency histogram
//! and the joule ledger's raw quanta of the one-at-a-time runs, exactly:
//! the batch entries add up their records as they run and record them once
//! at their end. The Monte Carlo engine's `mc.engine.run_seconds` record of
//! a batch must be the histogram of one sample per run.
//!
//! This binary installs the global telemetry and joule ledger, so its tests
//! take one lock and run one at a time: the observer checks compare deltas
//! of process-global totals.

use std::collections::BTreeMap;
use std::sync::{Mutex, MutexGuard, PoisonError};

use oxterm_mlc::levels::{AllocationScheme, LevelAllocation};
use oxterm_mlc::program::{
    program_cell_mc, program_cells_mc, McVariability, ProgramConditions, ProgramOutcome,
};
use oxterm_mlc::MlcError;
use oxterm_rram::calib::{
    simulate_reset_termination, simulate_reset_terminations, simulate_set, simulate_sets,
    ResetConditions, SetConditions,
};
use oxterm_rram::params::{InstanceVariation, OxramParams};
use oxterm_rram::RramError;
use oxterm_telemetry::joule::{EnergyQuanta, JouleLedger};
use oxterm_telemetry::{Histogram, HistogramId, Telemetry};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

static SERIAL: Mutex<()> = Mutex::new(());

/// A test's turn with the global observers. A thread's observer shards
/// merge when it exits, which is after its test returns, so the turn
/// merges them itself before it unlocks: otherwise a finished test's
/// records could land inside the next test's deltas.
struct Serial {
    _turn: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        oxterm_telemetry::flush_thread();
    }
}

fn serial() -> Serial {
    Telemetry::install(Telemetry::enabled());
    JouleLedger::install(JouleLedger::enabled());
    Serial {
        _turn: SERIAL.lock().unwrap_or_else(PoisonError::into_inner),
    }
}

/// Batch sizes from 1 to 17.
fn batch_sizes() -> std::ops::RangeInclusive<usize> {
    1..=17
}

/// The RESET latency histogram's name in a report.
const LATENCY: &str = "rram.termination.latency_s";

/// The global observers' records so far: every telemetry counter, the
/// RESET latency histogram, and the joule ledger's raw quanta.
fn records() -> (BTreeMap<String, u64>, Histogram, EnergyQuanta) {
    let mut report = Telemetry::global().report();
    let latency = report.histograms.remove(LATENCY).unwrap_or_default();
    let quanta = JouleLedger::global().quanta().expect("ledger installed");
    (report.counters, latency, quanta)
}

/// What `work` added to the global observers.
struct Observed<T> {
    out: T,
    /// Counter increments, the counters that moved only.
    counters: BTreeMap<String, u64>,
    /// The latency histogram before and after `work`.
    latency: (Histogram, Histogram),
    /// Exact quanta added per role × phase and per class.
    quanta: EnergyQuanta,
}

/// Runs `work` on this thread, whose shards merge into the observers only
/// when [`records`] takes a report: each histogram merge is then one `f64`
/// addition of the whole of `work`'s sum.
fn observed<T>(work: impl FnOnce() -> T) -> Observed<T> {
    let (c0, h0, q0) = records();
    let out = work();
    let (c1, h1, q1) = records();
    let counters = c1
        .into_iter()
        .map(|(k, v)| {
            let before = c0.get(&k).copied().unwrap_or(0);
            (k, v - before)
        })
        .filter(|&(_, d)| d > 0)
        .collect();
    let mut quanta = q1;
    for (row, row0) in quanta.role_phase.iter_mut().zip(&q0.role_phase) {
        for (q, q0) in row.iter_mut().zip(row0) {
            *q -= q0;
        }
    }
    for (q, q0) in quanta.class.iter_mut().zip(&q0.class) {
        *q -= q0;
    }
    Observed {
        out,
        counters,
        latency: (h0, h1),
        quanta,
    }
}

/// The histogram's every field, floats as bits.
fn histogram_bits(h: &Histogram) -> (Vec<u64>, [u64; 4]) {
    let counts = [h.count, h.negatives, h.underflow, h.overflow];
    let mut bits = vec![h.sum.to_bits(), h.min.to_bits(), h.max.to_bits()];
    bits.extend(h.bins().flat_map(|(i, c)| [i as u64, c]));
    (bits, counts)
}

/// Asserts that `work`'s latency records were exactly one sample per
/// latency of `latencies`, in order: the histogram after `work` is the one
/// before it merged with a fresh histogram of those samples.
fn assert_latencies<T>(seen: &Observed<T>, latencies: impl Iterator<Item = f64>, what: &str) {
    let (before, after) = &seen.latency;
    let mut samples = Histogram::new();
    latencies.for_each(|t| samples.record(t));
    let mut expected = before.clone();
    expected.merge(&samples);
    assert_eq!(
        histogram_bits(after),
        histogram_bits(&expected),
        "{what}: latency histogram"
    );
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
        let alone = observed(|| {
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
        let batched = observed(|| program_cells_mc(&params, &alloc, &cond, &var, &mut batch));
        let (outs, alone_outs) = (&batched.out, &alone.out);
        assert_eq!(outs.len(), n);
        for (k, ((got, (_, rng)), (want, next))) in
            outs.iter().zip(&mut batch).zip(alone_outs).enumerate()
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
        assert_eq!(batched.counters, alone.counters, "batch {n}: counters");
        assert_eq!(batched.quanta, alone.quanta, "batch {n}: joule quanta");
        let latencies = |outs: &[Result<ProgramOutcome, MlcError>]| -> Vec<f64> {
            outs.iter().flatten().map(|o| o.latency_s).collect()
        };
        let alone_outs: Vec<_> = alone_outs.iter().map(|(o, _)| o.clone()).collect();
        assert_latencies(&alone, latencies(&alone_outs).into_iter(), "alone");
        assert_latencies(&batched, latencies(outs).into_iter(), &format!("batch {n}"));
    }
    assert!(unreachable > 0 && invalid > 0, "{unreachable} / {invalid}");
}

#[test]
fn batches_run_every_pulse_as_it_runs_alone() {
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
        let batched = observed(|| simulate_sets(&params, &sets));
        let alone = observed(|| {
            sets.iter()
                .map(|(inst, c)| simulate_set(&params, inst, c))
                .collect::<Vec<_>>()
        });
        assert_eq!(batched.out, alone.out, "SET batch {n}");
        assert_eq!(batched.counters, alone.counters, "SET batch {n}: counters");
        assert_eq!(batched.quanta, alone.quanta, "SET batch {n}: joule quanta");
        assert!(matches!(
            batched.out[n / 2],
            Err(RramError::InvalidParameter {
                name: "alpha_factor",
                ..
            })
        ));

        let batched = observed(|| simulate_reset_terminations(&params, &resets));
        let alone = observed(|| {
            resets
                .iter()
                .map(|(inst, c)| simulate_reset_termination(&params, inst, c))
                .collect::<Vec<_>>()
        });
        let batch = &batched.out;
        assert_eq!(*batch, alone.out, "RESET batch {n}");
        assert_eq!(
            batched.counters, alone.counters,
            "RESET batch {n}: counters"
        );
        assert_eq!(
            batched.quanta, alone.quanta,
            "RESET batch {n}: joule quanta"
        );
        for seen in [&batched, &alone] {
            let latencies = seen.out.iter().flatten().map(|o| o.latency_s);
            assert_latencies(seen, latencies, &format!("RESET batch {n}"));
        }
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

#[test]
fn a_batchs_run_seconds_record_is_one_sample_per_run() {
    // Private handles: fresh registries, so each histogram is exactly its
    // records.
    let run_seconds = |record: &dyn Fn(&Telemetry)| {
        let tel = Telemetry::enabled();
        record(&tel);
        let mut report = tel.report();
        report
            .histograms
            .remove("mc.engine.run_seconds")
            .unwrap_or_default()
    };
    // An empty batch records nothing, as no `sample` call does.
    for n in std::iter::once(0).chain(batch_sizes()) {
        // Values whose repeated sums round, a negative and a non-finite
        // one, and values at and beyond the binned range.
        for per_run in [3.3e-6 / n as f64, 0.1, -2e-6, f64::NAN, 1e-19, 2e13] {
            let batched = run_seconds(&|tel| {
                tel.sample_n(HistogramId::RunSeconds, per_run, n as u64);
            });
            let alone = run_seconds(&|tel| {
                (0..n).for_each(|_| tel.sample(HistogramId::RunSeconds, per_run));
            });
            assert_eq!(
                histogram_bits(&batched),
                histogram_bits(&alone),
                "batch {n}, {per_run:e} s per run"
            );
        }
    }
}
