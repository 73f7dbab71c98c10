//! Property harness for the log histogram's stated value bound: every
//! quantile answer must sit within `Histogram::relative_error` of the
//! exact order statistic at its rank, as `oxterm_numerics::stats` computes
//! it, including when the stream is sharded across histograms and merged.
//! A histogram whose answers drifted past its bound would make the level
//! report's margins and BER bounds quietly wrong, so the bound is pinned
//! here property-style over distribution shapes, bin ratios, seeds and
//! query points. At the level tracker's ratio the answers also keep the
//! rank contract the level tables quote: within 1% of the exact rank.

use oxterm_numerics::stats::quantile;
use oxterm_telemetry::joule::ENERGY_RATIO;
use oxterm_telemetry::levels::R_RATIO;
use oxterm_telemetry::{Histogram, LevelTracker};
use proptest::prelude::*;

/// The ratios under test: the level tracker's, the joule ledger's, the
/// registry's, and a coarse one.
fn ratio(k: usize) -> f64 {
    [R_RATIO, ENERGY_RATIO, Histogram::new().ratio(), 1.1][k]
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

/// Samples per smooth stream — the campaign scale the level tables see.
const N: usize = 10_000;

/// Deterministic synthetic sample in one of three shapes the resistance
/// data actually takes: uniform, log-normal-ish (skewed HRS tail), and
/// bimodal (two adjacent levels pooled).
fn smooth_stream(seed: u64, shape: u8) -> Vec<f64> {
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

/// A stream that exercises every branch of a record: ties (with each
/// other, with the extremes, and `-0.0` with `0.0`), new minima and
/// maxima, non-positive values, which land in the underflow, and
/// non-finite values, which are dropped.
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

/// Values from a handful of levels, so most records tie with the current
/// minimum, the maximum or each other.
fn tied_stream(seed: u64, len: usize) -> Vec<f64> {
    let mut x = seed | 1;
    let levels = [-0.0, 0.0, 1.0, 2.5, 2.5, 7.0];
    (0..len)
        .map(|_| levels[(xorshift(&mut x) % levels.len() as u64) as usize])
        .collect()
}

/// Values that drift up, then down through zero, with noise, so new
/// extremes keep arriving, and values between the former extreme and the
/// new one.
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

/// Stream `shape`: uniform, skewed, bimodal, awkward, tied or drifting.
fn stream(seed: u64, shape: u8) -> Vec<f64> {
    match shape {
        0..=2 => smooth_stream(seed, shape),
        3 => awkward_stream(seed, 3_000),
        4 => tied_stream(seed, 3_000),
        _ => drifting_stream(seed, 3_000),
    }
}

fn histogram_of(data: &[f64], ratio: f64) -> Histogram {
    let mut h = Histogram::with_ratio(ratio);
    for &v in data {
        h.record(v);
    }
    h
}

/// Asserts the histogram's answer at `q` against the exact order
/// statistic at rank `round(q·(n−1))`: within the relative error for a
/// positive one, and the exact minimum for one in the underflow (every
/// value here that is not positive).
fn assert_value_bound(h: &Histogram, data: &[f64], q: f64) -> Result<(), String> {
    let mut finite: Vec<f64> = data.iter().copied().filter(|v| v.is_finite()).collect();
    let n = finite.len();
    prop_assert_eq!(h.count, n as u64);
    let got = h.quantile(q).expect("non-empty histogram answers");
    let pos = q * (n - 1) as f64;
    finite.sort_by(f64::total_cmp);
    let exact = finite[pos.round() as usize];
    // Where the reference's position is a whole rank it interpolates
    // nothing, and its quantile is that order statistic.
    if pos.fract() == 0.0 {
        let reference = quantile(&finite, q).expect("valid input");
        prop_assert!(
            reference == exact,
            "q={q}: reference {reference} vs {exact}"
        );
    }
    if exact > 0.0 {
        let err = (got - exact).abs() / exact;
        prop_assert!(
            err <= h.relative_error(),
            "q={q}: answer {got} is {err:.3e} from {exact} (bound {:.3e})",
            h.relative_error()
        );
    } else {
        prop_assert!(
            got == h.min,
            "q={q}: answer {got} for {exact} is not the min"
        );
    }
    Ok(())
}

/// Rank tolerance: the ±1% acceptance bound, plus the discretisation
/// slack of querying a finite sample (the histogram returns a bin
/// midpoint, the reference interpolates between two samples).
fn rank_tolerance(n: usize) -> f64 {
    0.01 + 2.0 / n as f64
}

/// Asserts the histogram's answer at `q` lands within the rank tolerance
/// of the exact batch answer, both as a rank and as a value bracketed by
/// the exact quantiles one tolerance away.
fn assert_rank_contract(h: &Histogram, data: &[f64], q: f64) -> Result<(), String> {
    let v = h.quantile(q).expect("non-empty histogram answers");
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = data.len() as f64;
    let target = q * (n - 1.0) + 1.0;
    let rank = sorted.partition_point(|&x| x <= v) as f64;
    let err = (rank - target).abs() / n;
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

/// The bit patterns of the fields a merge must reproduce exactly.
fn counts_min_max(h: &Histogram) -> (Vec<(i32, u64)>, [u64; 6]) {
    (
        h.bins().collect(),
        [
            h.count,
            h.negatives,
            h.underflow,
            h.overflow,
            h.min.to_bits(),
            h.max.to_bits(),
        ],
    )
}

proptest! {
    #[test]
    fn histogram_quantiles_stay_within_the_value_bound(
        seed in any::<u64>(),
        shape in 0u8..6,
        k in 0usize..4,
        qi in 0usize..=100,
    ) {
        let data = stream(seed, shape);
        let h = histogram_of(&data, ratio(k));
        assert_value_bound(&h, &data, qi as f64 / 100.0)?;
        // Only the occupied span is stored.
        if h.min > 0.0 {
            let span = (h.max / h.min).ln() / h.ratio().ln();
            prop_assert!(
                h.bins().count() as f64 <= span + 2.0,
                "{} bins for a span of {span:.1}",
                h.bins().count()
            );
        }
    }

    #[test]
    fn sketch_rank_error_stays_within_one_percent(
        seed in any::<u64>(),
        shape in 0u8..3,
        qi in 0usize..=100,
    ) {
        // The level tracker's read-resistance summary over the smooth
        // shapes the resistance data takes: its bins are narrow enough
        // that no bin holds 1% of a level's samples.
        let data = smooth_stream(seed, shape);
        let h = histogram_of(&data, R_RATIO);
        prop_assert_eq!(h.count, N as u64);
        assert_rank_contract(&h, &data, qi as f64 / 100.0)?;
    }

    #[test]
    fn sharded_merge_gives_the_sequential_counts_min_and_max(
        seed in any::<u64>(),
        shape in 0u8..6,
        k in 0usize..4,
        shards in 1usize..9,
        qi in 0usize..=100,
    ) {
        let data = stream(seed, shape);
        let whole = histogram_of(&data, ratio(k));
        // Round-robin split across worker shards, one histogram each.
        let mut parts = vec![Histogram::with_ratio(ratio(k)); shards];
        for (i, &v) in data.iter().enumerate() {
            parts[i % shards].record(v);
        }
        // Merged forwards, backwards and from the middle.
        for start in [0, shards - 1, shards / 2] {
            for reverse in [false, true] {
                let mut merged = Histogram::with_ratio(ratio(k));
                for j in 0..shards {
                    let j = if reverse { shards - 1 - j } else { j };
                    merged.merge(&parts[(start + j) % shards]);
                }
                prop_assert_eq!(counts_min_max(&merged), counts_min_max(&whole));
            }
        }
        let mut merged = parts[0].clone();
        for p in &parts[1..] {
            merged.merge(p);
        }
        assert_value_bound(&merged, &data, qi as f64 / 100.0)?;
    }

    #[test]
    fn merge_is_order_symmetric(seed in any::<u64>(), shape in 0u8..6, k in 0usize..4) {
        let data = stream(seed, shape);
        let (left, right) = data.split_at(data.len() / 3);
        let (a, b) = (histogram_of(left, ratio(k)), histogram_of(right, ratio(k)));
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        prop_assert_eq!(counts_min_max(&ab), counts_min_max(&ba));
        for qi in 0..=100u32 {
            let q = f64::from(qi) / 100.0;
            prop_assert!(
                ab.quantile(q).map(f64::to_bits) == ba.quantile(q).map(f64::to_bits),
                "merge order changed the answer at q = {q}: {:?} vs {:?}",
                ab.quantile(q),
                ba.quantile(q)
            );
        }
    }
}

#[test]
fn a_trackers_level_histograms_match_one_record_per_sample() {
    // Two levels take alternate samples of each awkward stream; the
    // tracker drops non-finite observations before its histograms.
    for seed in 0..9u64 {
        let data = stream(seed * 31, 3 + (seed % 3) as u8);
        let tracker = LevelTracker::enabled();
        let mut reference = [0, 1].map(|_| Histogram::with_ratio(R_RATIO));
        for (chunk_at, chunk) in data.chunks(257).enumerate() {
            let observations: Vec<(u16, f64, f64)> = chunk
                .iter()
                .enumerate()
                .map(|(i, &v)| (((chunk_at * 257 + i) % 2) as u16, 1e-6, v))
                .collect();
            for &(code, _, v) in &observations {
                if v.is_finite() {
                    reference[usize::from(code)].record(v);
                }
            }
            tracker.observe_all(observations);
            for level in tracker.snapshot().levels {
                assert_eq!(
                    level.histogram,
                    reference[usize::from(level.code)],
                    "seed {seed}, level {}",
                    level.code
                );
            }
        }
    }
}
