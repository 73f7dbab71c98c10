//! Log-binned histograms with quantile extraction: the crate's one
//! quantile structure.
//!
//! Bin `i` holds the magnitudes in `[γ^i, γ^(i+1))` for a bin ratio `γ`
//! chosen per quantity, and a quantile is answered from the bin's
//! relative-error midpoint `2γ^(i+1)/(γ+1)`. That is the DDSketch
//! construction (Masson, Rim and Lee, arXiv 1908.10693): every answer in
//! the binnable range sits within `(γ−1)/(γ+1)` of the order statistic it
//! stands for, relative. A record is one `ln` and one increment, and a
//! merge adds counts, so merged histograms carry the same counts in any
//! order and at any shard count. Only the bins between the lowest and the
//! highest occupied one are stored: a narrow distribution needs few bins
//! however fine its ratio.

/// Bin ratio of the registry's histograms: `10^(1/16)`, 16 bins per
/// decade, so quantiles sit within ±7.2 %, ample for latency and
/// iteration-count distributions.
const REGISTRY_RATIO: f64 = 1.154_781_984_689_458_3;

/// Smallest binnable magnitude. Values at or below it (and all
/// non-positive values) saturate into the underflow count.
const FLOOR: f64 = 1e-18;

/// Largest binnable magnitude (exclusive); values at or above it saturate
/// into the overflow count.
const CEILING: f64 = 1e12;

/// Relative rounding of `ln` and `exp` in a bin's index and midpoint, far
/// below any bin's half-width.
const ROUNDING: f64 = 1e-12;

/// A histogram of non-negative magnitudes on a logarithmic grid.
///
/// Plain data: the registry keeps its histograms behind its lock, a
/// thread's shard (see `shard.rs`) keeps its own and merges them in, and
/// the level tables keep one per level and quantity. Negative values are
/// recorded by magnitude-zero convention (clamped into the underflow
/// count) and counted separately so a report can flag them.
#[derive(Debug, Clone, PartialEq)]
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
    /// The bin ratio `γ`.
    ratio: f64,
    /// `1 / ln γ`: a magnitude's bin index is `⌊ln v / ln γ⌋`.
    inv_ln_ratio: f64,
    /// Index of `bins[0]`.
    first: i32,
    /// Occupancies of bins `first..first + bins.len()`.
    bins: Vec<u64>,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// An empty histogram at the registry's ratio, `10^(1/16)`.
    pub fn new() -> Self {
        Self::with_ratio(REGISTRY_RATIO)
    }

    /// An empty histogram whose bins grow by `ratio`.
    ///
    /// # Panics
    ///
    /// Panics unless `ratio` is finite and at least `1 + 1e-6`, which keeps
    /// every bin index of the binnable range within `i32`.
    pub fn with_ratio(ratio: f64) -> Self {
        assert!(
            ratio.is_finite() && ratio >= 1.0 + 1e-6,
            "bin ratio {ratio} must be finite and at least 1 + 1e-6"
        );
        Histogram {
            count: 0,
            negatives: 0,
            sum: 0.0,
            min: f64::NAN,
            max: f64::NAN,
            underflow: 0,
            overflow: 0,
            ratio,
            inv_ln_ratio: 1.0 / ratio.ln(),
            first: 0,
            bins: Vec::new(),
        }
    }

    /// The bin ratio `γ`.
    pub fn ratio(&self) -> f64 {
        self.ratio
    }

    /// The stated value bound: every [`quantile`] answer whose order
    /// statistic lies in the binnable range `(1e-18, 1e12)` is within this
    /// fraction of that order statistic. It is the bin half-width
    /// `(γ−1)/(γ+1)`, plus `1e-12` for the rounding of `ln` and `exp`.
    ///
    /// [`quantile`]: Histogram::quantile
    pub fn relative_error(&self) -> f64 {
        (self.ratio - 1.0) / (self.ratio + 1.0) + ROUNDING
    }

    /// The occupied bins, lowest first, as `(index, count)`: bin `index`
    /// holds the magnitudes in `[γ^index, γ^(index+1))`. Bins inside the
    /// occupied range may be empty.
    pub fn bins(&self) -> impl Iterator<Item = (i32, u64)> + '_ {
        (self.first..).zip(self.bins.iter().copied())
    }

    /// The bin index of a magnitude in the binnable range.
    fn index(&self, magnitude: f64) -> i32 {
        (magnitude.ln() * self.inv_ln_ratio).floor() as i32
    }

    /// Bin `i`'s relative-error midpoint `2γ^(i+1)/(γ+1)`.
    fn midpoint(&self, i: i32) -> f64 {
        (f64::from(i) / self.inv_ln_ratio).exp() * (2.0 * self.ratio / (self.ratio + 1.0))
    }

    /// Bin `i`'s occupancy, stored bins grown to hold it.
    fn bin_mut(&mut self, i: i32) -> &mut u64 {
        let at = i.wrapping_sub(self.first) as usize;
        if at >= self.bins.len() {
            self.grow_to(i);
        }
        &mut self.bins[(i - self.first) as usize]
    }

    /// Extends the stored bins to hold bin `i`.
    #[cold]
    fn grow_to(&mut self, i: i32) {
        if self.bins.is_empty() {
            self.first = i;
            self.bins.push(0);
        } else if i < self.first {
            let below = (self.first - i) as usize;
            self.bins.splice(0..0, std::iter::repeat_n(0, below));
            self.first = i;
        } else {
            self.bins.resize((i - self.first) as usize + 1, 0);
        }
    }

    /// Records one value. Non-finite values are dropped (and counted as
    /// negatives so they surface in reports rather than poisoning sums).
    pub fn record(&mut self, value: f64) {
        if !value.is_finite() {
            self.negatives += 1;
            return;
        }
        if value < 0.0 {
            self.negatives += 1;
        }
        if value <= FLOOR {
            self.underflow += 1;
        } else if value >= CEILING {
            self.overflow += 1;
        } else {
            let i = self.index(value);
            *self.bin_mut(i) += 1;
        }
        self.count += 1;
        self.sum += value;
        self.min = lower(self.min, value);
        self.max = higher(self.max, value);
    }

    /// Adds every record of `other`, which must share this histogram's
    /// ratio. Counts, min and max come out the same in any merge order.
    pub fn merge(&mut self, other: &Histogram) {
        debug_assert_eq!(self.ratio, other.ratio, "merged histograms share a ratio");
        self.count += other.count;
        self.negatives += other.negatives;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = lower(self.min, other.min);
            self.max = higher(self.max, other.max);
        }
        self.underflow += other.underflow;
        self.overflow += other.overflow;
        if !other.bins.is_empty() {
            self.bin_mut(other.first);
            self.bin_mut(other.first + (other.bins.len() - 1) as i32);
            let at = (other.first - self.first) as usize;
            for (b, o) in self.bins[at..].iter_mut().zip(&other.bins) {
                *b += o;
            }
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

    /// The `q`-quantile (`q` in `[0, 1]`): the midpoint of the bin that
    /// holds the order statistic of rank `round(q·(n−1)) + 1`, clamped to
    /// the observed `[min, max]`. That is the rank convention of
    /// `oxterm_numerics::stats::quantile`, without interpolation, and the
    /// answer is within [`relative_error`] of that order statistic. A rank
    /// in the underflow answers `min`, one in the overflow `max`. `None`
    /// when the histogram is empty or `q` is out of range.
    ///
    /// [`relative_error`]: Histogram::relative_error
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = (q * (self.count - 1) as f64).round() as u64 + 1;
        let mut seen = self.underflow;
        if rank <= seen {
            return Some(self.min);
        }
        for (i, c) in self.bins() {
            seen += c;
            if rank <= seen {
                return Some(self.midpoint(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Bounds on the number of recorded values at or below `x`, as
    /// `(certain, possible)`. Values in bins wholly below `x` are certain,
    /// and the whole of `x`'s own bin is possible; below `min` and from
    /// `max` on, both bounds are exact.
    pub fn count_le(&self, x: f64) -> (u64, u64) {
        if self.count == 0 || x < self.min {
            return (0, 0);
        }
        if x >= self.max {
            return (self.count, self.count);
        }
        if x <= FLOOR {
            return (0, self.underflow);
        }
        if x >= CEILING {
            return (self.count - self.overflow, self.count);
        }
        let k = self.index(x);
        let mut below = self.underflow;
        let mut at = 0;
        for (i, c) in self.bins() {
            if i < k {
                below += c;
            } else {
                at = if i == k { c } else { 0 };
                break;
            }
        }
        (below, below + at)
    }
}

/// The lower of a running minimum (NaN while empty) and `v`, with `-0.0`
/// below `0.0`, so that merges give the same bits in any order.
fn lower(min: f64, v: f64) -> f64 {
    if min.is_nan() || v.total_cmp(&min).is_lt() {
        v
    } else {
        min
    }
}

/// The higher of a running maximum (NaN while empty) and `v`; see
/// [`lower`].
fn higher(max: f64, v: f64) -> f64 {
    if max.is_nan() || v.total_cmp(&max).is_gt() {
        v
    } else {
        max
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
        assert_eq!(s.count_le(1.0), (0, 0));
    }

    #[test]
    #[should_panic(expected = "bin ratio")]
    fn a_ratio_too_close_to_one_is_rejected() {
        let _ = Histogram::with_ratio(1.0 + 1e-9);
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
    fn extreme_quantiles_stay_within_the_observed_range() {
        let mut h = Histogram::with_ratio(1.005);
        for i in 0..5000 {
            h.record(1.0 + (i as f64 * 37.0) % 1000.0);
        }
        assert_eq!((h.min, h.max), (1.0, 1000.0));
        let (p0, p100) = (h.quantile(0.0).unwrap(), h.quantile(1.0).unwrap());
        let e = h.relative_error();
        assert!((1.0..=1.0 + e).contains(&p0), "q0 = {p0}");
        assert!((1000.0 * (1.0 - e)..=1000.0).contains(&p100), "q1 = {p100}");
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
        assert!((p50 / 500e-6 - 1.0).abs() < 0.08, "p50 = {p50:e}");
        assert!((p90 / 900e-6 - 1.0).abs() < 0.08, "p90 = {p90:e}");
        assert!(s.quantile(0.0).unwrap() >= s.min);
        // q = 1 answers the top occupied bin's midpoint 2γ^(i+1)/(γ+1),
        // clamped to [min, max]. Here max = 1e-3 = γ^-48 is the lower edge
        // of that bin (i = -48), so its midpoint, 2γ/(γ+1) ≈ 1.072 times
        // max, lies above max and the clamp answers max exactly.
        let (top, _) = s.bins().filter(|&(_, c)| c > 0).last().expect("occupied");
        let gamma = s.ratio();
        let midpoint = 2.0 * gamma.powi(top + 1) / (gamma + 1.0);
        assert!((s.midpoint(top) / midpoint - 1.0).abs() < ROUNDING);
        assert_eq!(
            s.quantile(1.0).unwrap(),
            s.midpoint(top).clamp(s.min, s.max)
        );
        assert_eq!(top, -48);
        assert!(s.midpoint(top) > s.max);
        assert_eq!(s.quantile(1.0).unwrap(), s.max);
    }

    #[test]
    fn bins_span_only_the_occupied_range() {
        // A level's read resistance: σ/μ ≈ 2e-3 at the tracker's ratio.
        let mut h = Histogram::with_ratio(1.0 + 1.0 / 4096.0);
        let mut x = 0x2468_ACE0_u64;
        for _ in 0..100_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            h.record(40e3 * (1.0 + 0.012 * ((x % 1000) as f64 / 1000.0 - 0.5)));
        }
        let bins: Vec<(i32, u64)> = h.bins().collect();
        assert!(bins.len() < 60, "{} bins", bins.len());
        assert!(bins.first().unwrap().1 > 0 && bins.last().unwrap().1 > 0);
        assert_eq!(bins.iter().map(|b| b.1).sum::<u64>(), 100_000);
    }

    #[test]
    fn merge_is_symmetric_and_counts_add() {
        let mut a = Histogram::with_ratio(1.005);
        let mut b = Histogram::with_ratio(1.005);
        for i in 1..3000 {
            if i % 2 == 0 {
                a.record(i as f64);
            } else {
                b.record(1e6 / i as f64);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab.bins().collect::<Vec<_>>(), ba.bins().collect::<Vec<_>>());
        assert_eq!((ab.count, ab.min, ab.max), (ba.count, ba.min, ba.max));
        assert_eq!(ab.count, 2999);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = Histogram::with_ratio(1.005);
        for i in 1..100 {
            a.record(i as f64);
        }
        let e = Histogram::with_ratio(1.005);
        let mut ae = a.clone();
        ae.merge(&e);
        assert_eq!(ae, a);
        let mut ea = e.clone();
        ea.merge(&a);
        assert_eq!(ea, a);
    }

    #[test]
    fn count_bounds_bracket_true_count() {
        let mut h = Histogram::with_ratio(1.005);
        for i in 1..=10_000 {
            h.record(i as f64);
        }
        for x in [0.5, 1.0, 17.3, 2499.0, 2500.0, 9999.5, 10_000.0, 2e4] {
            let exact = (1..=10_000).filter(|&i| i as f64 <= x).count() as u64;
            let (certain, possible) = h.count_le(x);
            assert!(certain <= exact && exact <= possible, "x = {x}");
            // The slack is one bin: ±0.25 % of x's neighbourhood.
            assert!(possible - certain <= (x * 0.006).ceil() as u64, "x = {x}");
        }
        assert_eq!(h.count_le(0.5), (0, 0));
        assert_eq!(h.count_le(10_000.0), (10_000, 10_000));
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
        let total: u64 = s.bins().map(|b| b.1).sum::<u64>() + s.underflow + s.overflow;
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
