//! Seeded, parallel Monte Carlo orchestration.
//!
//! The paper's evaluation rests on 500-run Monte Carlo campaigns per
//! configuration (Figs 11–13, Table 3). This crate provides the runner:
//!
//! * [`dist`] — the Box–Muller standard normal behind every draw (the
//!   approved dependency list has `rand` but not `rand_distr`),
//! * [`engine`] — a deterministic parallel runner for infallible runs:
//!   every run gets an independent RNG derived from `(seed, run_index)`,
//!   so results are bit-identical regardless of thread count or
//!   scheduling,
//! * [`sweep`] — parameter sweeps of Monte Carlo campaigns,
//! * [`convergence`] — confidence bounds on rare-event probabilities,
//! * [`corners`] — the five classic process corners,
//! * [`supervisor`] — the one path for runs that can fail: per-run
//!   retries on re-derived RNG streams, `catch_unwind` panic isolation, a
//!   replay seed per failed run, and graceful degradation under a failure
//!   quorum,
//! * [`checkpoint`] — crash-safe campaign snapshots (`f64` bit patterns,
//!   atomic tmp+rename writes) that `--resume` replays bit-identically.
//!
//! # Examples
//!
//! ```
//! use oxterm_mc::engine::MonteCarlo;
//! use oxterm_mc::dist::standard_normal;
//!
//! let mc = MonteCarlo::new(1000, 42);
//! let samples = mc.run(|_, rng| 5.0 + 0.1 * standard_normal(rng));
//! let mean = samples.iter().sum::<f64>() / samples.len() as f64;
//! assert!((mean - 5.0).abs() < 0.02);
//! ```

#![forbid(unsafe_code)]

pub mod checkpoint;
pub mod convergence;
pub mod corners;
pub mod dist;
pub mod engine;
pub mod supervisor;
pub mod sweep;

pub use engine::MonteCarlo;
pub use supervisor::{per_attempt, run_supervised, CampaignOutcome, SupervisorOptions};
