//! Streaming moments: Welford's mean/variance accumulator.
//!
//! The level tracker and the joule ledger keep one beside each level's
//! histogram (`crate::Histogram`), which answers the quantiles. Campaigns
//! feed both in run order: the accumulator's floating-point sums depend on
//! the order they see, so one sequence gives the same bytes on every run.

/// Welford online mean/variance with exact min/max.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl Welford {
    /// An empty accumulator.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one sample; non-finite values are dropped.
    pub fn push(&mut self, x: f64) {
        if !x.is_finite() {
            return;
        }
        if self.n == 0 {
            self.min = x;
            self.max = x;
        } else {
            self.min = self.min.min(x);
            self.max = self.max.max(x);
        }
        self.n += 1;
        let d = x - self.mean;
        self.mean += d / self.n as f64;
        self.m2 += d * (x - self.mean);
    }

    /// Sample count.
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Running mean (0 while empty).
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Sample standard deviation (n−1 denominator; 0 below 2 samples).
    #[must_use]
    pub fn std_dev(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            (self.m2 / (self.n - 1) as f64).sqrt()
        }
    }

    /// Smallest sample seen (0 while empty).
    #[must_use]
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest sample seen (0 while empty).
    #[must_use]
    pub fn max(&self) -> f64 {
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::joule::ENERGY_RATIO;
    use crate::levels::R_RATIO;
    use crate::Histogram;

    /// A level's streaming summary as the tracker keeps it: moments beside
    /// a histogram at the level ratio.
    fn level_summary() -> (Welford, Histogram) {
        (Welford::new(), Histogram::with_ratio(R_RATIO))
    }

    /// Empirical rank (count ≤ v) of a value in sorted data.
    fn exact_rank(sorted: &[f64], v: f64) -> f64 {
        sorted.partition_point(|&x| x <= v) as f64
    }

    #[test]
    fn empty_sketch_answers_none() {
        let (w, h) = level_summary();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.count, 0);
        assert_eq!(w.count(), 0);
    }

    #[test]
    fn single_value_is_every_quantile() {
        let (mut w, mut h) = level_summary();
        w.push(42.0);
        h.record(42.0);
        assert_eq!(h.quantile(0.0), Some(42.0));
        assert_eq!(h.quantile(0.5), Some(42.0));
        assert_eq!(h.quantile(1.0), Some(42.0));
        assert_eq!((w.min(), w.mean(), w.max()), (42.0, 42.0, 42.0));
    }

    #[test]
    fn rank_error_stays_within_bound_for_sequential_insert() {
        // The level tracker's ratio and the joule ledger's, which is the
        // coarser of the two.
        for ratio in [R_RATIO, ENERGY_RATIO] {
            let n = 10_000usize;
            let mut h = Histogram::with_ratio(ratio);
            let mut data: Vec<f64> = Vec::with_capacity(n);
            let mut x = 0x2468_ACE0_u64;
            for _ in 0..n {
                // xorshift: adversarially unordered but deterministic.
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                let v = (x % 1_000_000) as f64 / 7.0;
                data.push(v);
                h.record(v);
            }
            data.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
            for q in [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99] {
                let got = h.quantile(q).expect("non-empty");
                let rank = exact_rank(&data, got);
                let target = q * (n - 1) as f64 + 1.0;
                let err = (rank - target).abs() / n as f64;
                assert!(err <= 0.01, "ratio {ratio}, q={q}: rank err {err}");
            }
        }
    }

    #[test]
    fn nan_and_inf_are_dropped() {
        let mut w = Welford::new();
        w.push(f64::NAN);
        w.push(f64::INFINITY);
        w.push(2.0);
        assert_eq!(w.count(), 1);
        assert_eq!(w.mean(), 2.0);
    }

    #[test]
    fn welford_matches_batch_moments() {
        let data: Vec<f64> = (0..500).map(|i| ((i * 37) % 101) as f64).collect();
        let mut w = Welford::new();
        for &x in &data {
            w.push(x);
        }
        let mean = data.iter().sum::<f64>() / data.len() as f64;
        let var = data.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (data.len() - 1) as f64;
        assert!((w.mean() - mean).abs() < 1e-9);
        assert!((w.std_dev() - var.sqrt()).abs() < 1e-9);
        assert_eq!(w.min(), 0.0);
        assert_eq!(w.max(), 100.0);
    }
}
