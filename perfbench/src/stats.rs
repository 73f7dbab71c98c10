//! The benchmark's arithmetic: percentiles, quartile spreads, failure
//! fractions, observer overhead and the output digest.

/// Nearest-rank percentile of `sorted` (ascending) at quantile `q` in
/// `(0, 1]`: the smallest sample with at least `q·n` samples at or below it.
///
/// # Panics
///
/// Panics on an empty slice.
pub fn percentile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "percentile of no samples");
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest of the usual tail quantiles that leaves at least ten of `n`
/// samples strictly above its nearest-rank position, if any does.
pub fn tail_quantile(n: usize) -> Option<f64> {
    [0.999, 0.99, 0.95, 0.9, 0.75]
        .into_iter()
        .find(|&q| n.saturating_sub((q * n as f64).ceil() as usize) >= 10)
}

/// The label of a quantile in metric names: `0.99` → `"p99"`, `0.999` →
/// `"p99.9"`.
pub fn quantile_label(q: f64) -> String {
    format!("p{}", (q * 1000.0).round() / 10.0)
}

/// Quartiles `(q1, median, q3)` by the exclusive method — the default of
/// Python's `statistics.quantiles(values, n=4)`.
///
/// # Panics
///
/// Panics with fewer than two values.
pub fn quartiles(values: &[f64]) -> (f64, f64, f64) {
    assert!(values.len() >= 2, "quartiles need at least two values");
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let ld = data.len();
    let m = ld + 1;
    let cut = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (data[j - 1] * (4.0 - delta) + data[j] * delta) / 4.0
    };
    (cut(1), cut(2), cut(3))
}

/// The distance between the first and third quartile as a share of the
/// median.
pub fn relative_iqr(values: &[f64]) -> f64 {
    let (q1, q2, q3) = quartiles(values);
    (q3 - q1) / q2
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut data = values.to_vec();
    data.sort_by(f64::total_cmp);
    let n = data.len();
    if n % 2 == 1 {
        data[n / 2]
    } else {
        0.5 * (data[n / 2 - 1] + data[n / 2])
    }
}

/// Failed operations as a share of those attempted (0 when none were).
pub fn failed_frac(failed: u64, attempted: u64) -> f64 {
    if attempted == 0 {
        0.0
    } else {
        failed as f64 / attempted as f64
    }
}

/// The cost of the observers, from throughput samples of the bare and the
/// observed campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Overhead {
    /// Extra CPU time per program when observed, in % of the bare time:
    /// `100·(median bare / median observed − 1)`.
    pub pct: f64,
    /// The wider of the two samples' quartile spreads, in % of its median.
    pub spread_pct: f64,
}

impl Overhead {
    /// Compares the two throughput samples (programs/s).
    pub fn from_throughputs(bare: &[f64], observed: &[f64]) -> Self {
        Overhead {
            pct: 100.0 * (median(bare) / median(observed) - 1.0),
            spread_pct: 100.0 * relative_iqr(bare).max(relative_iqr(observed)),
        }
    }

    /// Whether the difference stands out of the run-to-run spread.
    pub fn resolved(&self) -> bool {
        self.pct.abs() > self.spread_pct
    }
}

/// FNV-1a over the bit patterns of simulated outputs: equal digests mean
/// every listed number repeated bit for bit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one 64-bit word into the digest.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }

    /// Folds the bit pattern of each value into the digest.
    pub fn f64s(&mut self, values: &[f64]) {
        for v in values {
            self.word(v.to_bits());
        }
    }

    /// The digest as a hex string.
    pub fn hex(&self) -> String {
        format!("{:016x}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_is_nearest_rank() {
        let s: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&s, 0.5), 50.0);
        assert_eq!(percentile(&s, 0.9), 90.0);
        assert_eq!(percentile(&s, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_quantile_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(10_000), Some(0.999));
        assert_eq!(tail_quantile(1000), Some(0.99));
        assert_eq!(tail_quantile(999), Some(0.95));
        assert_eq!(tail_quantile(200), Some(0.95));
        assert_eq!(tail_quantile(100), Some(0.9));
        assert_eq!(tail_quantile(40), Some(0.75));
        assert_eq!(tail_quantile(39), None);
        for n in [40, 100, 200, 1000, 5000] {
            let q = tail_quantile(n).unwrap();
            let s: Vec<f64> = (0..n).map(|i| i as f64).collect();
            let beyond = s.iter().filter(|&&x| x > percentile(&s, q)).count();
            assert!(beyond >= 10, "n {n}: {beyond} beyond p{q}");
        }
        assert_eq!(quantile_label(0.99), "p99");
        assert_eq!(quantile_label(0.999), "p99.9");
        assert_eq!(quantile_label(0.75), "p75");
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..=10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 5.5, 8.25));
        // statistics.quantiles([3, 1, 2, 4], n=4) == [1.25, 2.5, 3.75]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0, 4.0]), (1.25, 2.5, 3.75));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), (0.75, 1.5, 2.25));
        assert!((relative_iqr(&v) - 5.5 / 5.5).abs() < 1e-12);
        assert_eq!(median(&[5.0, 1.0, 3.0]), 3.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn failed_frac_counts_against_attempts() {
        assert_eq!(failed_frac(0, 0), 0.0);
        assert_eq!(failed_frac(0, 1920), 0.0);
        assert_eq!(failed_frac(16, 1920), 16.0 / 1920.0);
        assert_eq!(failed_frac(5, 5), 1.0);
    }

    #[test]
    fn overhead_is_extra_time_per_program() {
        // Observed runs 20 % slower per program: 1000/s bare, 833.3/s observed.
        let bare = [990.0, 1000.0, 1010.0, 1000.0];
        let observed = [1000.0 / 1.2; 4];
        let o = Overhead::from_throughputs(&bare, &observed);
        assert!((o.pct - 20.0).abs() < 1e-9, "{o:?}");
        assert!((o.spread_pct - 100.0 * 15.0 / 1000.0).abs() < 1e-9, "{o:?}");
        assert!(o.resolved());
        // A 1 % difference inside a 10 % spread is unresolved.
        let noisy = [900.0, 1000.0, 1100.0, 1000.0];
        let o = Overhead::from_throughputs(&noisy, &[990.0, 990.0, 990.0]);
        assert!(!o.resolved(), "{o:?}");
    }

    #[test]
    fn digest_sees_every_bit() {
        let mut a = Digest::default();
        a.f64s(&[1.0, 2.0]);
        let mut b = Digest::default();
        b.f64s(&[1.0, f64::from_bits(2.0f64.to_bits() ^ 1)]);
        let mut c = Digest::default();
        c.f64s(&[2.0, 1.0]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let mut again = Digest::default();
        again.f64s(&[1.0, 2.0]);
        assert_eq!(a.hex(), again.hex());
        assert_eq!(a.hex().len(), 16);
    }
}
