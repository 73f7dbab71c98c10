//! Deterministic parallel Monte Carlo runner.

use oxterm_telemetry::profiler::monotonic_ns;
use oxterm_telemetry::{HistogramId, PhaseId, Profiler, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};

use crate::progress::CampaignProgress;

/// Runs a worker claims from the cursor at most: a batch small enough to
/// balance a campaign's uneven runs across the workers, large enough that
/// a campaign pays its per-call costs — the claim, the observer scopes, the
/// card checks — once per batch. Measured on a 2-vCPU host, `qlc_campaign`
/// ran ≈ 26 % more programs per CPU second with batches of 64 than with
/// claims of one (DESIGN.md §4).
pub const BATCH: usize = 64;

/// A Monte Carlo campaign: `runs` independent evaluations of a closure.
///
/// Every run gets a private RNG seeded from `(seed, run_index)` through a
/// SplitMix64 mix, so results are bit-identical regardless of thread count
/// or scheduling — a hard requirement for reproducible experiment tables.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MonteCarlo {
    /// Number of runs.
    pub runs: usize,
    /// Campaign seed.
    pub seed: u64,
    /// Worker threads (`None` = available parallelism).
    pub threads: Option<usize>,
}

impl MonteCarlo {
    /// Creates a campaign with automatic thread count.
    pub fn new(runs: usize, seed: u64) -> Self {
        MonteCarlo {
            runs,
            seed,
            threads: None,
        }
    }

    /// Forces a specific worker count (1 = serial).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    fn resolved_threads(&self) -> usize {
        self.threads.unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
    }

    /// The derived 64-bit seed of run `run_index` — what
    /// [`MonteCarlo::rng_for_run`] feeds to `seed_from_u64`. Telemetry
    /// failure notes quote this value so a single run can be replayed with
    /// `StdRng::seed_from_u64(seed)` outside the campaign.
    pub fn seed_for_run(&self, run_index: usize) -> u64 {
        splitmix64(self.seed ^ (run_index as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }

    /// The per-run RNG for `run_index` (public so sequential code can
    /// reproduce a single run of interest).
    pub fn rng_for_run(&self, run_index: usize) -> StdRng {
        StdRng::seed_from_u64(self.seed_for_run(run_index))
    }

    /// Executes the campaign, returning one result per run (in run order).
    ///
    /// Work is distributed dynamically (an atomic cursor), so uneven
    /// per-run cost — low-reference-current RESETs take longest — balances
    /// across workers. A closure of one run gains nothing from batches, so
    /// workers claim one run at a time.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut StdRng) -> T + Sync,
    {
        self.run_batches(&self.start_progress(), 1, |runs| {
            runs.map(|i| f(i, &mut self.rng_for_run(i))).collect()
        })
    }

    /// Starts the progress reporter of one campaign on this engine's
    /// workers.
    pub(crate) fn start_progress(&self) -> CampaignProgress {
        let threads = self.resolved_threads().min(self.runs.max(1));
        CampaignProgress::start(self.runs, threads)
    }

    /// The campaign on the workers `progress` was started with: each
    /// worker claims up to `batch` consecutive runs from the cursor and
    /// hands them to `f`, which returns one result per run, in order.
    /// Claims shrink on small campaigns so every worker still gets a few.
    ///
    /// The observers see batches: `mc/worker/run` is entered once per
    /// batch, each `mc.engine.run_seconds` sample is the batch's time
    /// divided by its runs (the batch's samples recorded at once), and
    /// `progress` ticks once per run.
    pub(crate) fn run_batches<T, F>(
        &self,
        progress: &CampaignProgress,
        batch: usize,
        f: F,
    ) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> Vec<T> + Sync,
    {
        // One global-handle lookup per campaign; the per-batch timing path
        // only exists when telemetry or progress was turned on, so
        // a disabled build pays a single branch per batch.
        let tel = Telemetry::global();
        tel.incr("mc.engine.campaigns");
        tel.add("mc.engine.runs", self.runs as u64);
        let campaign_span = tel.span("mc.engine.campaign_seconds");
        let prof = Profiler::global();
        let _campaign = prof.phase(PhaseId::McCampaign);

        let threads = progress.workers();
        let timed = tel.is_enabled() || progress.is_enabled();
        let claim = batch.min(self.runs.div_ceil(4 * threads)).max(1);

        let cursor = AtomicUsize::new(0);
        // One worker: claim the next runs, time them, keep their results.
        // Its records stay on its thread's shard until it exits.
        let worker = || {
            let mut done = Vec::new();
            let mut busy = 0.0f64;
            loop {
                let start = cursor.fetch_add(claim, Ordering::Relaxed);
                if start >= self.runs {
                    break;
                }
                let runs = start..(start + claim).min(self.runs);
                let n = runs.len();
                let _run_phase = prof.phase(PhaseId::McWorkerRun);
                let values = if timed {
                    let t0 = monotonic_ns();
                    let values = f(runs);
                    let dt = monotonic_ns().wrapping_sub(t0) as f64 * 1e-9;
                    let per_run = dt / n as f64;
                    tel.sample_n(HistogramId::RunSeconds, per_run, n as u64);
                    for _ in 0..n {
                        progress.tick(per_run);
                    }
                    busy += dt;
                    values
                } else {
                    f(runs)
                };
                assert_eq!(values.len(), n, "one result per run of a batch");
                done.push((start, values));
            }
            tel.sample(HistogramId::WorkerBusySeconds, busy);
            oxterm_telemetry::flush_thread();
            done
        };
        let parts = if threads <= 1 {
            // Serial campaigns stay on the calling thread, so its
            // thread-local post-mortem stash and profiler stack see the runs.
            vec![worker()]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = (0..threads).map(|_| scope.spawn(worker)).collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)))
                    .collect()
            })
        };
        progress.finish();
        campaign_span.finish();
        let mut batches: Vec<(usize, Vec<T>)> = parts.into_iter().flatten().collect();
        batches.sort_unstable_by_key(|&(start, _)| start);
        batches.into_iter().flat_map(|(_, values)| values).collect()
    }
}

pub(crate) fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn parallel_matches_serial_exactly() {
        let campaign = MonteCarlo::new(200, 7);
        let serial: Vec<f64> = campaign.with_threads(1).run(|_, rng| rng.random::<f64>());
        let parallel: Vec<f64> = campaign.with_threads(8).run(|_, rng| rng.random::<f64>());
        assert_eq!(serial, parallel);
    }

    #[test]
    fn run_indices_are_passed_in_order() {
        let campaign = MonteCarlo::new(50, 1).with_threads(4);
        let idx: Vec<usize> = campaign.run(|i, _| i);
        assert_eq!(idx, (0..50).collect::<Vec<_>>());
    }

    #[test]
    fn different_runs_get_different_randomness() {
        let campaign = MonteCarlo::new(100, 3);
        let vals: Vec<u64> = campaign.run(|_, rng| rng.random::<u64>());
        let mut dedup = vals.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), vals.len());
    }

    #[test]
    fn different_seeds_differ() {
        let a: Vec<u64> = MonteCarlo::new(10, 1).run(|_, rng| rng.random());
        let b: Vec<u64> = MonteCarlo::new(10, 2).run(|_, rng| rng.random());
        assert_ne!(a, b);
    }

    #[test]
    fn zero_runs_is_fine() {
        let out: Vec<u8> = MonteCarlo::new(0, 1).run(|_, _| 0u8);
        assert!(out.is_empty());
    }

    #[test]
    fn seed_for_run_matches_rng_for_run() {
        let campaign = MonteCarlo::new(4, 11);
        let mut direct = StdRng::seed_from_u64(campaign.seed_for_run(2));
        let mut via = campaign.rng_for_run(2);
        assert_eq!(direct.random::<u64>(), via.random::<u64>());
    }

    #[test]
    fn single_run_reproducible_via_rng_for_run() {
        let campaign = MonteCarlo::new(100, 9);
        let all: Vec<u64> = campaign.run(|_, rng| rng.random());
        let mut rng = campaign.rng_for_run(42);
        assert_eq!(all[42], rng.random::<u64>());
    }
}
