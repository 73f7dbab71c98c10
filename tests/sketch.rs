//! Property harness for the streaming quantile sketch: every answer must
//! stay within the advertised rank-error contract of the *exact* batch
//! quantile from `oxterm_numerics::stats` — including when the stream is
//! sharded across sketches and merged, the deployment shape the MC
//! worker pool uses. A sketch that silently loosened its ε under merge
//! would make the level report's margins and BER bounds quietly wrong,
//! so the contract is pinned here property-style over distribution
//! shapes, seeds, and query points.

use oxterm_numerics::stats::quantile;
use oxterm_telemetry::sketch::DEFAULT_EPSILON;
use oxterm_telemetry::{LevelTracker, QuantileSketch};
use proptest::prelude::*;

/// A test-only copy of the sketch's one-value insert and its compression
/// pass as they stood before samples waited beside the summary, and before
/// the pass compressed in place. Its `Debug` output has the sketch's shape,
/// so equal `Debug` strings mean bit-identical summaries: every tuple's
/// value, gap and band, the count and the inserts since the last pass.
mod reference {
    #[derive(Debug, Clone, Copy)]
    struct Tuple {
        v: f64,
        g: u64,
        delta: u64,
    }

    #[derive(Debug, Clone)]
    pub struct QuantileSketch {
        epsilon: f64,
        n: u64,
        tuples: Vec<Tuple>,
        since_compress: u64,
    }

    impl QuantileSketch {
        pub fn new(epsilon: f64) -> Self {
            Self {
                epsilon,
                n: 0,
                tuples: Vec::new(),
                since_compress: 0,
            }
        }

        fn band(&self) -> u64 {
            (2.0 * self.epsilon * self.n as f64).floor() as u64
        }

        pub fn insert(&mut self, v: f64) {
            if !v.is_finite() {
                return;
            }
            let idx = self.tuples.partition_point(|t| t.v <= v);
            let delta = if idx == 0 || idx == self.tuples.len() {
                0
            } else {
                self.band().saturating_sub(1)
            };
            self.tuples.insert(idx, Tuple { v, g: 1, delta });
            self.n += 1;
            self.since_compress += 1;
            if self.since_compress as f64 >= 1.0 / (2.0 * self.epsilon) {
                self.compress();
            }
        }

        fn compress(&mut self) {
            self.since_compress = 0;
            if self.tuples.len() < 3 {
                return;
            }
            let band = self.band();
            let mut kept: Vec<Tuple> = Vec::with_capacity(self.tuples.len());
            let mut right = self.tuples[self.tuples.len() - 1];
            for &t in self.tuples[1..self.tuples.len() - 1].iter().rev() {
                if t.g + right.g + right.delta < band {
                    right.g += t.g;
                } else {
                    kept.push(right);
                    right = t;
                }
            }
            kept.push(right);
            kept.push(self.tuples[0]);
            kept.reverse();
            self.tuples = kept;
        }
    }
}

/// A stream that exercises every branch of an insert: ties (with each
/// other, with the extremes, and `-0.0` with `0.0`), new minima and
/// maxima, and non-finite values, which are dropped.
fn awkward_stream(seed: u64, len: usize) -> Vec<f64> {
    let mut x = seed | 1;
    (0..len)
        .map(|i| {
            let r = xorshift(&mut x);
            match r % 19 {
                0 => f64::NAN,
                1 => f64::INFINITY,
                2 => f64::NEG_INFINITY,
                3 => -0.0,
                4 => 0.0,
                5 => 42.0,
                6 => 1e3 * i as f64,
                7 => -1e3 * i as f64,
                _ => ((r >> 11) % 1000) as f64 / 8.0,
            }
        })
        .collect()
}

/// Values from a handful of levels, so most inserts tie with the current
/// minimum, the maximum or each other.
fn tied_stream(seed: u64, len: usize) -> Vec<f64> {
    let mut x = seed | 1;
    let levels = [-0.0, 0.0, 1.0, 2.5, 2.5, 7.0];
    (0..len)
        .map(|_| levels[(xorshift(&mut x) % levels.len() as u64) as usize])
        .collect()
}

/// Values that drift up, then down, with noise, so new extremes keep
/// arriving, and values between the former extreme and the new one.
fn drifting_stream(seed: u64, len: usize) -> Vec<f64> {
    let mut x = seed | 1;
    (0..len)
        .map(|i| {
            let drift = if i % 1000 < 500 {
                i as f64
            } else {
                -(i as f64)
            };
            drift + (xorshift(&mut x) % 64) as f64
        })
        .collect()
}

/// Streams of each kind, with the sizes of the chunks to compare after.
fn cases(case: u64) -> impl Iterator<Item = (Vec<f64>, Vec<usize>)> {
    (0..9u64).map(move |seed| {
        let stream = match seed % 3 {
            0 => awkward_stream,
            1 => tied_stream,
            _ => drifting_stream,
        };
        let data = stream(seed * 31 + case, 3_000);
        let mut x = seed + 7;
        let mut left = data.len();
        let mut chunks = Vec::new();
        while left > 0 {
            let len = ((xorshift(&mut x) % 260) as usize).clamp(1, left);
            chunks.push(len);
            left -= len;
        }
        (data, chunks)
    })
}

#[test]
fn insert_matches_the_one_value_reference_bit_for_bit() {
    for (case, epsilon) in [0.005, 0.05, 1e-4, 0.5, 0.013].into_iter().enumerate() {
        for (data, chunks) in cases(case as u64) {
            let mut reference = reference::QuantileSketch::new(epsilon);
            let mut sketch = QuantileSketch::new(epsilon);
            let mut rest = &data[..];
            for len in chunks {
                let (chunk, tail) = rest.split_at(len);
                for &v in chunk {
                    reference.insert(v);
                    sketch.insert(v);
                }
                assert_eq!(
                    format!("{sketch:?}"),
                    format!("{reference:?}"),
                    "epsilon {epsilon}, after {} values",
                    data.len() - tail.len()
                );
                rest = tail;
            }
        }
    }
}

#[test]
fn a_trackers_waiting_samples_fold_as_the_one_value_reference_inserts() {
    // The level tracker keeps a level's samples beside its sketch until a
    // compression pass or a snapshot folds them in; every snapshot must
    // show the summary one insert per sample leaves. Two levels take
    // alternate samples; the tracker drops non-finite ones before its
    // sketches, as the reference drops them on insert.
    for (data, chunks) in cases(0) {
        let tracker = LevelTracker::enabled();
        let mut reference = [0, 1].map(|_| reference::QuantileSketch::new(DEFAULT_EPSILON));
        let mut rest = &data[..];
        let mut at = 0;
        for len in chunks {
            let (chunk, tail) = rest.split_at(len);
            let observations: Vec<(u16, f64, f64)> = chunk
                .iter()
                .enumerate()
                .map(|(k, &v)| (((at + k) % 2) as u16, 1e-6, v))
                .collect();
            for &(code, _, v) in &observations {
                reference[usize::from(code)].insert(v);
            }
            tracker.observe_all(observations);
            for level in tracker.snapshot().levels {
                assert_eq!(
                    format!("{:?}", level.sketch),
                    format!("{:?}", reference[usize::from(level.code)]),
                    "level {}, after {} values",
                    level.code,
                    data.len() - tail.len()
                );
            }
            at += len;
            rest = tail;
        }
    }
}

/// Samples per case — the campaign scale the sketch is specified at.
const N: usize = 10_000;

/// Rank tolerance: the ±1% acceptance bound, plus the discretisation
/// slack of querying a finite sample (the sketch returns a *sample*,
/// the reference interpolates between two).
fn rank_tolerance(n: usize) -> f64 {
    0.01 + 2.0 / n as f64
}

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// A unit uniform from the generator's top bits.
fn unit(x: &mut u64) -> f64 {
    (xorshift(x) >> 11) as f64 / (1u64 << 53) as f64
}

/// Deterministic synthetic sample in one of three shapes the resistance
/// data actually takes: uniform, log-normal-ish (skewed HRS tail), and
/// bimodal (two adjacent levels pooled).
fn sample(seed: u64, shape: u8) -> Vec<f64> {
    let mut x = seed | 1;
    (0..N)
        .map(|_| match shape {
            0 => 1e3 + 99e3 * unit(&mut x),
            1 => {
                // Sum of uniforms through exp: right-skewed like R_HRS.
                let g = unit(&mut x) + unit(&mut x) + unit(&mut x) - 1.5;
                40e3 * (0.8 * g).exp()
            }
            _ => {
                let mode = if unit(&mut x) < 0.5 { 40e3 } else { 160e3 };
                mode + 5e3 * (unit(&mut x) - 0.5)
            }
        })
        .collect()
}

/// Empirical rank (count ≤ v) of a value in sorted data.
fn rank_of(sorted: &[f64], v: f64) -> f64 {
    sorted.iter().filter(|&&x| x <= v).count() as f64
}

/// Asserts the sketch's answer at `q` lands within the rank tolerance
/// of the exact batch answer, both as a rank and as a value bracketed
/// by the exact quantiles one tolerance away.
fn assert_rank_contract(sk: &QuantileSketch, data: &[f64], q: f64) -> Result<(), String> {
    let v = sk.quantile(q).expect("non-empty sketch answers");
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = data.len() as f64;
    let target = q * (n - 1.0) + 1.0;
    let err = (rank_of(&sorted, v) - target).abs() / n;
    let tol = rank_tolerance(data.len());
    prop_assert!(
        err <= tol,
        "q={q}: rank error {err:.4} exceeds {tol:.4} (answer {v})"
    );
    // The same statement through the reference implementation: the
    // answer must sit between the exact quantiles one tolerance away.
    let lo = quantile(data, (q - tol).max(0.0)).expect("valid input");
    let hi = quantile(data, (q + tol).min(1.0)).expect("valid input");
    prop_assert!(
        (lo - 1e-9..=hi + 1e-9).contains(&v),
        "q={q}: answer {v} outside exact bracket [{lo}, {hi}]"
    );
    Ok(())
}

proptest! {
    #[test]
    fn sketch_rank_error_stays_within_one_percent(
        seed in any::<u64>(),
        shape in 0u8..3,
        qi in 0usize..=100,
    ) {
        let data = sample(seed, shape);
        let mut sk = QuantileSketch::new(0.005);
        for &v in &data {
            sk.insert(v);
        }
        prop_assert_eq!(sk.count(), N as u64);
        prop_assert!(sk.rank_error_bound() <= 0.005 + 1e-12);
        // Bounded memory is the point: far fewer tuples than samples.
        prop_assert!(sk.summary_len() < N / 4, "{} tuples", sk.summary_len());
        assert_rank_contract(&sk, &data, qi as f64 / 100.0)?;
    }

    #[test]
    fn sharded_merge_preserves_the_rank_contract(
        seed in any::<u64>(),
        shape in 0u8..3,
        shards in 2usize..9,
        qi in 0usize..=100,
    ) {
        let data = sample(seed, shape);
        // Round-robin split across worker shards, one sketch each.
        let mut parts = vec![QuantileSketch::new(0.005); shards];
        for (i, &v) in data.iter().enumerate() {
            parts[i % shards].insert(v);
        }
        let mut merged = parts[0].clone();
        for p in &parts[1..] {
            merged.merge_from(p);
        }
        prop_assert_eq!(merged.count(), N as u64);
        assert_rank_contract(&merged, &data, qi as f64 / 100.0)?;
    }

    #[test]
    fn merge_is_order_symmetric(seed in any::<u64>(), shape in 0u8..3) {
        let data = sample(seed, shape);
        let (left, right) = data.split_at(N / 3);
        let mut a = QuantileSketch::new(0.005);
        let mut b = QuantileSketch::new(0.005);
        for &v in left {
            a.insert(v);
        }
        for &v in right {
            b.insert(v);
        }
        let ab = QuantileSketch::merged(&a, &b);
        let ba = QuantileSketch::merged(&b, &a);
        prop_assert_eq!(ab.summary_len(), ba.summary_len());
        for qi in 0..=100u32 {
            let q = f64::from(qi) / 100.0;
            prop_assert!(
                ab.quantile(q) == ba.quantile(q),
                "merge order changed the answer at q = {q}: {:?} vs {:?}",
                ab.quantile(q),
                ba.quantile(q)
            );
        }
    }
}
