//! Mergeable streaming estimators: a Greenwald–Khanna quantile sketch
//! and a Welford mean/variance accumulator.
//!
//! The level tracker and the joule ledger summarise each level's stream
//! with these in bounded memory, whatever the campaign size. Campaigns
//! feed them in run order, so a summary is the same bytes on every run.
//! Their samples wait beside the summary and are folded in at each
//! compression pass (`QuantileSketch::push`), which leaves the summary one
//! [`QuantileSketch::insert`] per sample leaves, bit for bit, without
//! shifting it once per sample.
//!
//! Both estimators are also *mergeable*. A sketch's tuple list depends on
//! insertion order, so merging shards cannot promise the bytes of one
//! sequential feed; it promises *ε-determinism* — every rank query is
//! within `epsilon` of the exact batch rank no matter the insertion or
//! merge order — plus a symmetric merge: `merge(a, b)` and `merge(b, a)`
//! produce bit-identical summaries (pinned by `tests/sketch.rs`).
//!
//! # The Greenwald–Khanna invariant
//!
//! The sketch keeps an ordered list of tuples `(v, g, Δ)` where `g` is
//! the gap in minimum rank to the previous tuple and `Δ` bounds the
//! extra rank uncertainty. As long as `g + Δ ≤ 2εn` for every tuple,
//! any rank query answered from the list is within `εn` of exact. Merge
//! follows the practical scheme used by production implementations
//! (e.g. Spark's `QuantileSummaries`): interleave the two tuple lists
//! by value and widen each side's `Δ` by the other side's worst gap,
//! which preserves the invariant at `ε = max(ε_a, ε_b)`.

/// Default rank-error bound. At 0.5% the sketch answers every quantile
/// within ±0.5% of the exact batch rank — half the ±1% budget the
/// acceptance tests pin, leaving room for interpolation effects.
pub const DEFAULT_EPSILON: f64 = 0.005;

/// One GK summary tuple: a stored sample value with its rank band.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
struct Tuple {
    /// The sample value.
    v: f64,
    /// Minimum-rank gap to the previous tuple.
    g: u64,
    /// Additional rank uncertainty for this tuple.
    delta: u64,
}

/// Streaming quantile sketch with a worst-case rank-error bound.
///
/// Inserts are `O(log s)` amortised in the summary size `s`, which stays
/// `O((1/ε)·log(εn))`. All state is plain data: cloning and merging
/// never touch global state, so sketches can ride inside per-worker
/// shards.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    epsilon: f64,
    n: u64,
    tuples: Vec<Tuple>,
    /// Inserts since the last compression pass.
    since_compress: u64,
}

/// Samples waiting beside a [`QuantileSketch`]'s summary for its next
/// fold ([`QuantileSketch::push`]).
#[derive(Debug, Clone, Default)]
pub(crate) struct Pending {
    /// `(gap, tuple)` in insertion order: `gap` summary tuples sort at or
    /// below the tuple's value.
    tuples: Vec<(usize, Tuple)>,
    /// The extremes of the summary and the waiting tuples.
    lo: f64,
    hi: f64,
    /// The sketch's [`QuantileSketch::compress_every`].
    every: u64,
}

impl QuantileSketch {
    /// Creates an empty sketch with rank-error bound `epsilon`.
    ///
    /// Out-of-range bounds are clamped into `[1e-4, 0.5]` rather than
    /// rejected — a sketch with a nonsensical ε is still a valid (if
    /// coarse or memory-hungry) summary, and the observability layer
    /// must never panic the solver it watches.
    #[must_use]
    pub fn new(epsilon: f64) -> Self {
        let epsilon = if epsilon.is_finite() {
            epsilon.clamp(1e-4, 0.5)
        } else {
            DEFAULT_EPSILON
        };
        Self {
            epsilon,
            n: 0,
            tuples: Vec::new(),
            since_compress: 0,
        }
    }

    /// Number of samples inserted (across all merged shards).
    #[must_use]
    pub fn count(&self) -> u64 {
        self.n
    }

    /// The guaranteed rank-error bound as a fraction of `count()`.
    #[must_use]
    pub fn rank_error_bound(&self) -> f64 {
        self.epsilon
    }

    /// Current summary size in tuples (diagnostic).
    #[must_use]
    pub fn summary_len(&self) -> usize {
        self.tuples.len()
    }

    /// The allowed band width `2εn` for the GK invariant.
    fn band(&self) -> u64 {
        (2.0 * self.epsilon * self.n as f64).floor() as u64
    }

    /// Inserts between compression passes: every ~1/(2ε) inserts
    /// amortises the pass while keeping the summary near its asymptotic
    /// size. The smallest count `k` with `k ≥ 1/(2ε)`.
    fn compress_every(&self) -> u64 {
        (1.0 / (2.0 * self.epsilon)).ceil() as u64
    }

    /// Inserts one sample. Non-finite values are dropped: a NaN from a
    /// diverged run must not poison the whole level's distribution.
    ///
    /// A fold of one waiting sample, as the level tables fold many.
    pub fn insert(&mut self, v: f64) {
        let mut pending = Pending::default();
        self.push(&mut pending, v);
        self.settle(&mut pending);
    }

    /// Adds one sample to `pending`, the tuples waiting beside this
    /// summary, and folds them in at each compression pass. The new tuple
    /// goes in as it would go into the summary alone: its gap is the
    /// position in the summary after every tuple not above its value (equal
    /// values stay in arrival order), and its Δ is 0 below the minimum or
    /// at or above the maximum, else the band less one.
    ///
    /// Every read of the summary must [`settle`](QuantileSketch::settle)
    /// `pending` first, and nothing else may change it meanwhile.
    pub(crate) fn push(&mut self, pending: &mut Pending, v: f64) {
        if !v.is_finite() {
            return;
        }
        if pending.tuples.is_empty() {
            (pending.lo, pending.hi) = match (self.tuples.first(), self.tuples.last()) {
                (Some(first), Some(last)) => (first.v, last.v),
                _ => (f64::NAN, f64::NAN),
            };
            pending.every = self.compress_every();
        }
        let delta = if v >= pending.lo && v < pending.hi {
            self.band().saturating_sub(1)
        } else {
            0
        };
        (pending.lo, pending.hi) = (pending.lo.min(v), pending.hi.max(v));
        let gap = self.tuples.partition_point(|t| t.v <= v);
        pending.tuples.push((gap, Tuple { v, g: 1, delta }));
        self.n += 1;
        self.since_compress += 1;
        if self.since_compress >= pending.every {
            self.settle(pending);
            self.compress();
        }
    }

    /// Folds `pending` into the summary: each waiting tuple goes after
    /// every summary tuple of its gap and every waiting tuple of its gap
    /// with a value not above its own, where one-at-a-time arrivals would
    /// have put it.
    pub(crate) fn settle(&mut self, pending: &mut Pending) {
        let m = pending.tuples.len();
        if m == 0 {
            return;
        }
        let s = self.tuples.len();
        // `before[g]`: waiting tuples in gaps below `g`. A stable counting
        // sort by gap, then an insertion sort by value, which only moves
        // tuples within a gap: gaps rise with value.
        let mut before = vec![0usize; s + 2];
        for &(gap, _) in &pending.tuples {
            before[gap + 1] += 1;
        }
        for g in 1..before.len() {
            before[g] += before[g - 1];
        }
        let mut order = vec![(0, Tuple::default()); m];
        let mut next = before.clone();
        for &(gap, t) in &pending.tuples {
            order[next[gap]] = (gap, t);
            next[gap] += 1;
        }
        for k in 1..m {
            let cur = order[k];
            let mut at = k;
            while at > 0 && order[at - 1].1.v > cur.1.v {
                order[at] = order[at - 1];
                at -= 1;
            }
            order[at] = cur;
        }
        // Summary tuple `i` moves up by the waiting tuples of gaps up to
        // `i`; moving from the top never overwrites one not yet moved.
        let t = &mut self.tuples;
        t.resize(s + m, Tuple::default());
        for i in (0..s).rev() {
            t[i + before[i + 1]] = t[i];
        }
        for (k, &(gap, tuple)) in order.iter().enumerate() {
            t[k + gap] = tuple;
        }
        pending.tuples.clear();
    }

    /// Removes tuples whose rank band fits inside a neighbour's, keeping
    /// the GK invariant `g + Δ ≤ 2εn`.
    fn compress(&mut self) {
        self.since_compress = 0;
        let len = self.tuples.len();
        if len < 3 {
            return;
        }
        let band = self.band();
        let t = &mut self.tuples;
        // Walk right-to-left, folding each tuple into its right neighbour
        // when the combined band still fits, and write the kept ones from
        // the back, in place: a write lands above the tuple being read. The
        // first and last tuples are always kept: they carry the exact
        // extremes.
        let mut w = len - 1;
        let mut right = t[w];
        for i in (1..len - 1).rev() {
            let cur = t[i];
            if cur.g + right.g + right.delta < band {
                right.g += cur.g;
            } else {
                t[w] = right;
                w -= 1;
                right = cur;
            }
        }
        t[w] = right;
        w -= 1;
        t[w] = t[0];
        t.copy_within(w.., 0);
        t.truncate(len - w);
    }

    /// The quantile `q` in `[0, 1]`, or `None` while empty.
    ///
    /// The returned value's exact rank is within `rank_error_bound()`
    /// of `q·(n−1)` (the same rank convention as
    /// `oxterm_numerics::stats::quantile`, without interpolation).
    #[must_use]
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.tuples.is_empty() || !q.is_finite() {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        // Target rank, 1-based; ε-tolerance on each side.
        let target = (q * (self.n - 1) as f64).round() as u64 + 1;
        let tol = (self.epsilon * self.n as f64).ceil() as u64;
        let mut r_min = 0u64;
        for t in &self.tuples {
            r_min += t.g;
            let r_max = r_min + t.delta;
            // First tuple whose band certainly covers target ± tol.
            if target <= r_min + tol && r_max <= target + tol {
                return Some(t.v);
            }
        }
        self.tuples.last().map(|t| t.v)
    }

    /// Estimated number of samples `≤ x` (midpoint of the rank band).
    /// The true count differs by at most `⌈ε·n⌉`.
    #[must_use]
    pub fn rank_le(&self, x: f64) -> u64 {
        let mut r_min = 0u64;
        let mut best = 0u64;
        for t in &self.tuples {
            r_min += t.g;
            if t.v <= x {
                best = r_min + t.delta / 2;
            } else {
                break;
            }
        }
        best
    }

    /// Merges `other` into `self` (symmetric: either order yields a
    /// bit-identical summary). The merged bound is the larger of the
    /// two inputs' bounds.
    pub fn merge_from(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        // Each side's tuples gain the other's worst-case interleaving
        // uncertainty. Using the *worst gap actually present* (rather
        // than the 2εn bound) keeps merged summaries tighter.
        let spread = |s: &Self| s.tuples.iter().map(|t| t.g + t.delta).max().unwrap_or(0);
        let (pad_a, pad_b) = (
            spread(other).saturating_sub(1),
            spread(self).saturating_sub(1),
        );
        let mut merged: Vec<Tuple> = Vec::with_capacity(self.tuples.len() + other.tuples.len());
        let (mut ia, mut ib) = (0, 0);
        while ia < self.tuples.len() || ib < other.tuples.len() {
            // Total order on (value, g, Δ, side-exhausted) keeps the
            // interleave symmetric under argument swap.
            let take_a = match (self.tuples.get(ia), other.tuples.get(ib)) {
                (Some(a), Some(b)) => (a.v, a.g, a.delta) <= (b.v, b.g, b.delta),
                (Some(_), None) => true,
                _ => false,
            };
            if take_a {
                let mut t = self.tuples[ia];
                t.delta += pad_a;
                merged.push(t);
                ia += 1;
            } else {
                let mut t = other.tuples[ib];
                t.delta += pad_b;
                merged.push(t);
                ib += 1;
            }
        }
        // Extremes stay exact: the global min/max carry Δ = 0.
        if let Some(first) = merged.first_mut() {
            first.delta = 0;
        }
        if let Some(last) = merged.last_mut() {
            last.delta = 0;
        }
        self.epsilon = self.epsilon.max(other.epsilon);
        self.n += other.n;
        self.tuples = merged;
        self.compress();
    }

    /// The symmetric merge of two sketches.
    #[must_use]
    pub fn merged(a: &Self, b: &Self) -> Self {
        let mut out = a.clone();
        out.merge_from(b);
        out
    }
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(DEFAULT_EPSILON)
    }
}

/// Welford online mean/variance with exact min/max, mergeable via
/// Chan's parallel update. The merge is exact (not ε-approximate): the
/// combined moments equal the batch moments up to float rounding.
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

    /// Merges another accumulator (Chan et al. pairwise update).
    pub fn merge_from(&mut self, other: &Self) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = *other;
            return;
        }
        let n = self.n + other.n;
        let d = other.mean - self.mean;
        self.m2 += other.m2 + d * d * (self.n as f64 * other.n as f64) / n as f64;
        self.mean += d * other.n as f64 / n as f64;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
        self.n = n;
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

    fn exact_rank(sorted: &[f64], v: f64) -> f64 {
        sorted.iter().filter(|&&x| x <= v).count() as f64
    }

    #[test]
    fn empty_sketch_answers_none() {
        let s = QuantileSketch::default();
        assert_eq!(s.quantile(0.5), None);
        assert_eq!(s.count(), 0);
    }

    #[test]
    fn single_value_is_every_quantile() {
        let mut s = QuantileSketch::default();
        s.insert(42.0);
        assert_eq!(s.quantile(0.0), Some(42.0));
        assert_eq!(s.quantile(0.5), Some(42.0));
        assert_eq!(s.quantile(1.0), Some(42.0));
    }

    #[test]
    fn extremes_are_exact() {
        let mut s = QuantileSketch::default();
        for i in 0..5000 {
            s.insert((i as f64 * 37.0) % 1000.0);
        }
        assert_eq!(s.quantile(0.0), Some(0.0));
        assert_eq!(s.quantile(1.0), Some(999.0));
    }

    #[test]
    fn rank_error_stays_within_bound_for_sequential_insert() {
        let n = 10_000usize;
        let mut s = QuantileSketch::new(0.005);
        let mut data: Vec<f64> = Vec::with_capacity(n);
        let mut x = 0x2468_ACE0_u64;
        for _ in 0..n {
            // xorshift: adversarially unordered but deterministic.
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let v = (x % 1_000_000) as f64 / 7.0;
            data.push(v);
            s.insert(v);
        }
        data.sort_by(|a, b| a.partial_cmp(b).expect("finite"));
        for q in [0.01, 0.05, 0.25, 0.5, 0.75, 0.95, 0.99] {
            let got = s.quantile(q).expect("non-empty");
            let rank = exact_rank(&data, got);
            let target = q * (n - 1) as f64 + 1.0;
            let err = (rank - target).abs() / n as f64;
            assert!(err <= 0.01, "q={q}: rank err {err}");
        }
    }

    #[test]
    fn summary_stays_sublinear() {
        let mut s = QuantileSketch::new(0.005);
        for i in 0..100_000 {
            s.insert((i as f64).sin());
        }
        assert!(
            s.summary_len() < 4000,
            "summary grew to {}",
            s.summary_len()
        );
    }

    #[test]
    fn merge_is_symmetric_and_counts_add() {
        let mut a = QuantileSketch::new(0.005);
        let mut b = QuantileSketch::new(0.005);
        for i in 0..3000 {
            if i % 2 == 0 {
                a.insert(i as f64);
            } else {
                b.insert(i as f64);
            }
        }
        let ab = QuantileSketch::merged(&a, &b);
        let ba = QuantileSketch::merged(&b, &a);
        assert_eq!(ab, ba);
        assert_eq!(ab.count(), 3000);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = QuantileSketch::default();
        for i in 0..100 {
            a.insert(i as f64);
        }
        let e = QuantileSketch::default();
        assert_eq!(QuantileSketch::merged(&a, &e), a);
        assert_eq!(QuantileSketch::merged(&e, &a), a);
    }

    #[test]
    fn nan_and_inf_are_dropped() {
        let mut s = QuantileSketch::default();
        s.insert(f64::NAN);
        s.insert(f64::INFINITY);
        s.insert(1.0);
        assert_eq!(s.count(), 1);
        let mut w = Welford::new();
        w.push(f64::NAN);
        w.push(2.0);
        assert_eq!(w.count(), 1);
        assert_eq!(w.mean(), 2.0);
    }

    #[test]
    fn rank_le_brackets_true_count() {
        let mut s = QuantileSketch::new(0.005);
        for i in 0..10_000 {
            s.insert(i as f64);
        }
        let est = s.rank_le(2499.0);
        let err = (est as f64 - 2500.0).abs() / 10_000.0;
        assert!(err <= 0.005, "rank_le err {err}");
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

    #[test]
    fn welford_merge_is_exact() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.37).cos() * 50.0).collect();
        let mut whole = Welford::new();
        let mut a = Welford::new();
        let mut b = Welford::new();
        for (i, &x) in data.iter().enumerate() {
            whole.push(x);
            if i % 3 == 0 {
                a.push(x)
            } else {
                b.push(x)
            }
        }
        a.merge_from(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.mean() - whole.mean()).abs() < 1e-9);
        assert!((a.std_dev() - whole.std_dev()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
    }
}
