//! Deterministic parallel Monte Carlo runner.

use oxterm_telemetry::{PhaseId, Profiler, Telemetry};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::OnceLock;

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
    /// Worker threads, the caller included (`None` = available parallelism).
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

    /// Forces a specific worker count (1 = the calling thread alone).
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = Some(threads.max(1));
        self
    }

    /// The worker count; available parallelism is read once per process.
    fn resolved_threads(&self) -> usize {
        static AVAILABLE: OnceLock<usize> = OnceLock::new();
        self.threads.unwrap_or_else(|| {
            *AVAILABLE.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
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
    /// across workers. Workers claim up to [`BATCH`] runs at a time, as
    /// supervised campaigns do, which is faster even for a trivial closure.
    pub fn run<T, F>(&self, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(usize, &mut StdRng) -> T + Sync,
    {
        self.run_batches(self.workers(), BATCH, |runs| {
            runs.map(|i| f(i, &mut self.rng_for_run(i))).collect()
        })
    }

    /// The workers a campaign runs on: the resolved thread count, but no
    /// more than one per run.
    pub(crate) fn workers(&self) -> usize {
        self.resolved_threads().min(self.runs.max(1))
    }

    /// The campaign on `threads` workers, the calling thread one of them:
    /// each claims up to `batch` consecutive runs from the cursor and
    /// hands them to `f`, which returns one result per run, in order.
    /// Claims shrink on small campaigns so every worker still gets a few.
    ///
    /// The observers see batches: `mc/worker/run` is entered once per
    /// batch and is the batch's one clock.
    pub(crate) fn run_batches<T, F>(&self, threads: usize, batch: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> Vec<T> + Sync,
    {
        let tel = Telemetry::global();
        tel.incr("mc.engine.campaigns");
        tel.add("mc.engine.runs", self.runs as u64);
        let prof = Profiler::global();
        let _campaign = prof.phase(PhaseId::McCampaign);

        let claim = batch.min(self.runs.div_ceil(4 * threads)).max(1);

        let cursor = AtomicUsize::new(0);
        // One worker: claim the next runs and keep their results. Its
        // records stay on its thread's shard until it finishes.
        let worker = || {
            let mut done = Vec::new();
            loop {
                let start = cursor.fetch_add(claim, Ordering::Relaxed);
                if start >= self.runs {
                    break;
                }
                let runs = start..(start + claim).min(self.runs);
                let n = runs.len();
                let _run_phase = prof.phase(PhaseId::McWorkerRun);
                let values = f(runs);
                assert_eq!(values.len(), n, "one result per run of a batch");
                done.push((start, values));
            }
            oxterm_telemetry::flush_thread();
            done
        };
        let mut batches = std::thread::scope(|scope| {
            let helpers: Vec<_> = (1..threads).map(|_| scope.spawn(worker)).collect();
            let mut batches = worker();
            for h in helpers {
                batches.extend(h.join().unwrap_or_else(|p| std::panic::resume_unwind(p)));
            }
            batches
        });
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
    use std::collections::HashSet;

    #[test]
    fn parallel_matches_serial_exactly() {
        let campaign = MonteCarlo::new(500, 7);
        let serial: Vec<f64> = campaign.with_threads(1).run(|_, rng| rng.random::<f64>());
        for n in 1..=8 {
            let out = campaign
                .with_threads(n)
                .run(|_, rng| (std::thread::current().id(), rng.random::<f64>()));
            let ids: HashSet<_> = out.iter().map(|&(id, _)| id).collect();
            assert!(ids.len() <= n, "{n} workers ran on {} threads", ids.len());
            let parallel: Vec<f64> = out.into_iter().map(|(_, v)| v).collect();
            assert_eq!(serial, parallel, "{n} workers");
        }
    }

    #[test]
    fn one_worker_is_the_calling_thread() {
        let caller = std::thread::current().id();
        // Runs long enough that any spawned worker would claim some.
        let ids = MonteCarlo::new(8, 5).with_threads(1).run(|_, _| {
            std::thread::sleep(std::time::Duration::from_millis(1));
            std::thread::current().id()
        });
        assert!(ids.iter().all(|&id| id == caller));
    }

    #[test]
    #[should_panic(expected = "run 37 panics")]
    fn a_panicking_run_reaches_the_caller() {
        MonteCarlo::new(100, 2).with_threads(4).run(|i, _| {
            assert_ne!(i, 37, "run 37 panics");
        });
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
