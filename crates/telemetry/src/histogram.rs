//! Log-binned histograms with quantile extraction.

/// Sub-bins per decade. 16 gives a bin width of ×10^(1/16) ≈ ×1.155, i.e.
/// quantiles are resolved to better than ±8 % — ample for latency and
/// iteration-count distributions.
const SUB_BINS: usize = 16;
/// Smallest binnable magnitude (10^MIN_EXP). Values at or below this (and
/// all non-positive values) saturate into the underflow bin.
const MIN_EXP: i32 = -18;
/// One past the largest binnable magnitude (10^MAX_EXP); larger values
/// saturate into the overflow bin.
const MAX_EXP: i32 = 12;
/// Number of regular bins.
const N_BINS: usize = ((MAX_EXP - MIN_EXP) as usize) * SUB_BINS;

/// A histogram of non-negative magnitudes on a logarithmic grid.
///
/// Plain data: the registry keeps its histograms behind its lock, and a
/// thread's shard (see `shard.rs`) keeps its own and merges them in.
/// Negative values are recorded by magnitude-zero convention (clamped into
/// the underflow bin) and counted separately so a report can flag them.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// Number of recorded values.
    pub count: u64,
    /// Values that were negative or non-finite at record time.
    pub negatives: u64,
    /// Sum of all recorded values.
    pub sum: f64,
    /// Smallest recorded value (NaN when empty).
    pub min: f64,
    /// Largest recorded value (NaN when empty).
    pub max: f64,
    /// Records below the binnable range.
    pub underflow: u64,
    /// Records above the binnable range.
    pub overflow: u64,
    /// Regular bin occupancies.
    pub bins: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Histogram {
            count: 0,
            negatives: 0,
            sum: 0.0,
            min: f64::NAN,
            max: f64::NAN,
            underflow: 0,
            overflow: 0,
            bins: vec![0; N_BINS],
        }
    }

    /// The lower edge of regular bin `i`.
    fn bin_lo(i: usize) -> f64 {
        10f64.powf(MIN_EXP as f64 + i as f64 / SUB_BINS as f64)
    }

    /// Records one value. Non-finite values are dropped (and counted as
    /// negatives so they surface in reports rather than poisoning sums).
    pub fn record(&mut self, value: f64) {
        self.record_n(value, 1);
    }

    /// Records `value` `n` times: the histogram `n` [`record`] calls
    /// leave, binning the value once. `n = 0` changes nothing.
    ///
    /// [`record`]: Histogram::record
    pub fn record_n(&mut self, value: f64, n: u64) {
        if n == 0 {
            return;
        }
        if !value.is_finite() {
            self.negatives += n;
            return;
        }
        if value < 0.0 {
            self.negatives += n;
        }
        let magnitude = value.max(0.0);
        if magnitude <= 10f64.powi(MIN_EXP) {
            self.underflow += n;
        } else {
            let pos = (magnitude.log10() - MIN_EXP as f64) * SUB_BINS as f64;
            if pos >= N_BINS as f64 {
                self.overflow += n;
            } else {
                self.bins[pos as usize] += n;
            }
        }
        self.count += n;
        // One addition per record, so the sum rounds as theirs does.
        for _ in 0..n {
            self.sum += value;
        }
        // `f64::min`/`max` skip the NaN of an empty histogram.
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Adds every record of `other` to this histogram.
    pub fn merge(&mut self, other: &Histogram) {
        self.count += other.count;
        self.negatives += other.negatives;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        for (b, o) in self.bins.iter_mut().zip(&other.bins) {
            *b += o;
        }
    }

    /// Arithmetic mean (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.count == 0 {
            None
        } else {
            Some(self.sum / self.count as f64)
        }
    }

    /// The `q`-quantile (`q` in `[0, 1]`), geometric interpolation within
    /// the landing bin, clamped to the observed `[min, max]`. `None` when
    /// the histogram is empty or `q` is out of range.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        // Rank in 1..=count of the order statistic closest to q.
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(self.min);
        }
        for (i, &c) in self.bins.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if rank <= seen + c {
                let lo = Histogram::bin_lo(i);
                let hi = Histogram::bin_lo(i + 1);
                let frac = (rank - seen) as f64 / c as f64;
                let v = lo * (hi / lo).powf(frac);
                return Some(v.clamp(self.min, self.max));
            }
            seen += c;
        }
        Some(self.max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_histogram_has_no_quantiles() {
        let s = Histogram::new();
        assert_eq!(s.count, 0);
        assert!(s.quantile(0.5).is_none());
        assert!(s.mean().is_none());
        assert!(s.min.is_nan() && s.max.is_nan());
    }

    #[test]
    fn single_sample_quantiles_are_exact() {
        let mut h = Histogram::new();
        h.record(3.7e-6);
        let s = h;
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let v = s.quantile(q).unwrap();
            assert!((v - 3.7e-6).abs() < 1e-18, "q{q} = {v}");
        }
        assert!((s.mean().unwrap() - 3.7e-6).abs() < 1e-18);
    }

    #[test]
    fn quantiles_track_a_uniform_grid() {
        let mut h = Histogram::new();
        // 1..=1000 µs uniform.
        for k in 1..=1000 {
            h.record(k as f64 * 1e-6);
        }
        let s = h;
        let p50 = s.quantile(0.5).unwrap();
        let p90 = s.quantile(0.9).unwrap();
        assert!((p50 / 500e-6 - 1.0).abs() < 0.12, "p50 = {p50:e}");
        assert!((p90 / 900e-6 - 1.0).abs() < 0.12, "p90 = {p90:e}");
        assert!(s.quantile(0.0).unwrap() >= s.min);
        assert_eq!(s.quantile(1.0).unwrap(), s.max);
    }

    #[test]
    fn saturating_values_land_in_edge_bins() {
        let mut h = Histogram::new();
        h.record(0.0); // at/below the underflow edge
        h.record(1e-30); // below the underflow edge
        h.record(1e30); // above the overflow edge
        h.record(1.0);
        let s = h;
        assert_eq!(s.count, 4);
        assert_eq!(s.underflow, 2);
        assert_eq!(s.overflow, 1);
        // Quantiles remain finite and clamped to the observed range.
        let p99 = s.quantile(0.99).unwrap();
        assert!(p99 <= s.max && p99.is_finite());
        assert_eq!(s.quantile(0.01).unwrap(), s.min);
    }

    #[test]
    fn negative_and_nonfinite_values_are_flagged() {
        let mut h = Histogram::new();
        h.record(-1.0);
        h.record(f64::NAN);
        h.record(2.0);
        let s = h;
        assert_eq!(s.negatives, 2);
        assert_eq!(s.count, 2); // NaN dropped, -1 recorded as underflow
        assert_eq!(s.min, -1.0);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let tel = crate::Telemetry::enabled();
        std::thread::scope(|scope| {
            for t in 0..8 {
                let tel = tel.clone();
                scope.spawn(move || {
                    for k in 0..5_000 {
                        tel.record("t", (t * 5_000 + k) as f64 * 1e-9 + 1e-9);
                    }
                });
            }
        });
        let report = tel.report();
        let s = report.histogram("t").unwrap();
        assert_eq!(s.count, 40_000);
        let total: u64 = s.bins.iter().sum::<u64>() + s.underflow + s.overflow;
        assert_eq!(total, 40_000);
    }

    #[test]
    fn mean_matches_sum_over_count() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0] {
            h.record(v);
        }
        let s = h;
        assert!((s.mean().unwrap() - 2.5).abs() < 1e-12);
        assert_eq!(s.min, 1.0);
        assert_eq!(s.max, 4.0);
    }
}
