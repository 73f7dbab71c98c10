//! Descriptive statistics for Monte Carlo post-processing.
//!
//! These are the exact reductions the paper's evaluation section uses:
//! box-plot five-number summaries (Figs 11 and 13), standard deviations
//! (Fig 12), cumulative distributions (Fig 3), and simple regression used in
//! calibration diagnostics.

use crate::NumericsError;

/// Basic moments of a sample.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of samples.
    pub n: usize,
    /// Arithmetic mean.
    pub mean: f64,
    /// Sample standard deviation (`n − 1` denominator; 0 for `n < 2`).
    pub std_dev: f64,
    /// Minimum.
    pub min: f64,
    /// Maximum.
    pub max: f64,
}

/// Computes the [`Summary`] of a sample.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidInput`] for an empty sample or one
/// containing non-finite values.
pub fn summary(data: &[f64]) -> Result<Summary, NumericsError> {
    validate(data)?;
    let n = data.len();
    let mean = data.iter().sum::<f64>() / n as f64;
    let var = if n > 1 {
        data.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1) as f64
    } else {
        0.0
    };
    let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
    let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
    Ok(Summary {
        n,
        mean,
        std_dev: var.sqrt(),
        min,
        max,
    })
}

fn validate(data: &[f64]) -> Result<(), NumericsError> {
    if data.is_empty() {
        return Err(NumericsError::InvalidInput {
            reason: "empty sample".into(),
        });
    }
    if data.iter().any(|x| !x.is_finite()) {
        return Err(NumericsError::InvalidInput {
            reason: "sample contains non-finite values".into(),
        });
    }
    Ok(())
}

/// Linear-interpolated quantile of a sample, `q ∈ [0, 1]`.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidInput`] for empty/non-finite data or `q`
/// outside `[0, 1]`.
pub fn quantile(data: &[f64], q: f64) -> Result<f64, NumericsError> {
    validate(data)?;
    if !(0.0..=1.0).contains(&q) {
        return Err(NumericsError::InvalidInput {
            reason: format!("quantile {q} outside [0, 1]"),
        });
    }
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    Ok(quantile_sorted(&sorted, q))
}

/// Quantile of an already-sorted sample (no validation; internal fast path).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let pos = q * (n - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// A Tukey box-plot five-number summary with 1.5·IQR whiskers.
#[derive(Debug, Clone, PartialEq)]
pub struct BoxStats {
    /// Lower whisker: smallest sample ≥ `q1 − 1.5·IQR`.
    pub whisker_lo: f64,
    /// First quartile.
    pub q1: f64,
    /// Median.
    pub median: f64,
    /// Third quartile.
    pub q3: f64,
    /// Upper whisker: largest sample ≤ `q3 + 1.5·IQR`.
    pub whisker_hi: f64,
    /// Samples beyond the whiskers.
    pub outliers: Vec<f64>,
}

impl BoxStats {
    /// Interquartile range.
    pub fn iqr(&self) -> f64 {
        self.q3 - self.q1
    }

    /// Full extent including outliers (worst-case spread).
    ///
    /// The paper's "worst-case ΔR" margins are computed from the extreme
    /// corner samples, so this is the spread the margin analysis uses.
    pub fn full_range(&self) -> (f64, f64) {
        let mut lo = self.whisker_lo;
        let mut hi = self.whisker_hi;
        for &o in &self.outliers {
            lo = lo.min(o);
            hi = hi.max(o);
        }
        (lo, hi)
    }
}

/// Computes Tukey box-plot statistics.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidInput`] for empty or non-finite samples.
pub fn box_stats(data: &[f64]) -> Result<BoxStats, NumericsError> {
    validate(data)?;
    let mut sorted = data.to_vec();
    sorted.sort_by(f64::total_cmp);
    let q1 = quantile_sorted(&sorted, 0.25);
    let median = quantile_sorted(&sorted, 0.5);
    let q3 = quantile_sorted(&sorted, 0.75);
    let iqr = q3 - q1;
    let lo_fence = q1 - 1.5 * iqr;
    let hi_fence = q3 + 1.5 * iqr;
    // Whiskers run from the box to the furthest sample inside the fence;
    // with interpolated quartiles that sample can sit inside the box, in
    // which case the whisker collapses onto the quartile.
    let whisker_lo = sorted
        .iter()
        .cloned()
        .find(|&x| x >= lo_fence)
        .unwrap_or(q1)
        .min(q1);
    let whisker_hi = sorted
        .iter()
        .rev()
        .cloned()
        .find(|&x| x <= hi_fence)
        .unwrap_or(q3)
        .max(q3);
    let outliers = sorted
        .iter()
        .cloned()
        .filter(|&x| x < lo_fence || x > hi_fence)
        .collect();
    Ok(BoxStats {
        whisker_lo,
        q1,
        median,
        q3,
        whisker_hi,
        outliers,
    })
}

/// An empirical cumulative distribution: sorted samples with probabilities
/// `(i + 0.5) / n` (the plotting convention used for Fig 3).
#[derive(Debug, Clone, PartialEq)]
pub struct Ecdf {
    sorted: Vec<f64>,
}

impl Ecdf {
    /// Builds the ECDF of a sample.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidInput`] for empty or non-finite data.
    pub fn new(data: &[f64]) -> Result<Self, NumericsError> {
        validate(data)?;
        let mut sorted = data.to_vec();
        sorted.sort_by(f64::total_cmp);
        Ok(Ecdf { sorted })
    }

    /// `(value, probability)` plotting points.
    pub fn points(&self) -> impl Iterator<Item = (f64, f64)> + '_ {
        let n = self.sorted.len() as f64;
        self.sorted
            .iter()
            .enumerate()
            .map(move |(i, &x)| (x, (i as f64 + 0.5) / n))
    }

    /// Fraction of samples ≤ `x`.
    pub fn eval(&self, x: f64) -> f64 {
        let idx = self.sorted.partition_point(|&v| v <= x);
        idx as f64 / self.sorted.len() as f64
    }

    /// Value at probability `p` (inverse CDF by linear interpolation).
    pub fn inverse(&self, p: f64) -> f64 {
        quantile_sorted(&self.sorted, p.clamp(0.0, 1.0))
    }
}

/// Two-sample Kolmogorov–Smirnov statistic: the maximum distance between
/// the two empirical CDFs. Useful for checking whether two Monte Carlo
/// populations (e.g. serial vs parallel, or two seeds) plausibly share a
/// distribution.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidInput`] for empty or non-finite samples.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> Result<f64, NumericsError> {
    validate(a)?;
    validate(b)?;
    let mut sa = a.to_vec();
    let mut sb = b.to_vec();
    sa.sort_by(f64::total_cmp);
    sb.sort_by(f64::total_cmp);
    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut ia, mut ib) = (0usize, 0usize);
    let mut d: f64 = 0.0;
    while ia < sa.len() && ib < sb.len() {
        // Advance both CDFs past the current smallest value (tie-safe).
        let x = sa[ia].min(sb[ib]);
        while ia < sa.len() && sa[ia] <= x {
            ia += 1;
        }
        while ib < sb.len() && sb[ib] <= x {
            ib += 1;
        }
        d = d.max((ia as f64 / na - ib as f64 / nb).abs());
    }
    Ok(d)
}

/// Approximate two-sample KS acceptance threshold at significance `alpha`
/// (asymptotic formula); `ks_statistic` below this is consistent with a
/// shared distribution.
pub fn ks_threshold(n_a: usize, n_b: usize, alpha: f64) -> f64 {
    let c = (-0.5 * (alpha / 2.0).ln()).sqrt();
    let n = (n_a * n_b) as f64 / (n_a + n_b) as f64;
    c / n.sqrt()
}

/// Ordinary least-squares fit `y = slope·x + intercept` with `r²`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination.
    pub r2: f64,
}

/// Least-squares linear regression through `(x, y)` pairs.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidInput`] if fewer than two points are given
/// or all `x` coincide.
pub fn linear_fit(xy: &[(f64, f64)]) -> Result<LinearFit, NumericsError> {
    if xy.len() < 2 {
        return Err(NumericsError::InvalidInput {
            reason: "linear fit needs at least two points".into(),
        });
    }
    let n = xy.len() as f64;
    let sx: f64 = xy.iter().map(|p| p.0).sum();
    let sy: f64 = xy.iter().map(|p| p.1).sum();
    let mx = sx / n;
    let my = sy / n;
    let sxx: f64 = xy.iter().map(|p| (p.0 - mx) * (p.0 - mx)).sum();
    let sxy: f64 = xy.iter().map(|p| (p.0 - mx) * (p.1 - my)).sum();
    if sxx == 0.0 {
        return Err(NumericsError::InvalidInput {
            reason: "all x values coincide".into(),
        });
    }
    let slope = sxy / sxx;
    let intercept = my - slope * mx;
    let ss_tot: f64 = xy.iter().map(|p| (p.1 - my) * (p.1 - my)).sum();
    let ss_res: f64 = xy
        .iter()
        .map(|p| {
            let e = p.1 - (slope * p.0 + intercept);
            e * e
        })
        .sum();
    let r2 = if ss_tot == 0.0 {
        1.0
    } else {
        1.0 - ss_res / ss_tot
    };
    Ok(LinearFit {
        slope,
        intercept,
        r2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn summary_of_known_sample() {
        let s = summary(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]).unwrap();
        assert_eq!(s.n, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Sample std dev with n-1: sqrt(32/7)
        assert!((s.std_dev - (32.0f64 / 7.0).sqrt()).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn summary_rejects_bad_input() {
        assert!(summary(&[]).is_err());
        assert!(summary(&[1.0, f64::NAN]).is_err());
        assert!(summary(&[f64::INFINITY]).is_err());
    }

    #[test]
    fn single_sample_summary() {
        let s = summary(&[3.0]).unwrap();
        assert_eq!(s.std_dev, 0.0);
        assert_eq!(s.mean, 3.0);
    }

    #[test]
    fn quantiles_interpolate() {
        let d = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(quantile(&d, 0.0).unwrap(), 1.0);
        assert_eq!(quantile(&d, 1.0).unwrap(), 4.0);
        assert!((quantile(&d, 0.5).unwrap() - 2.5).abs() < 1e-12);
        assert!(quantile(&d, 1.5).is_err());
    }

    #[test]
    fn box_stats_flags_outliers() {
        let mut d = vec![10.0; 20];
        for (i, v) in d.iter_mut().enumerate() {
            *v += i as f64 * 0.1;
        }
        d.push(100.0); // gross outlier
        let b = box_stats(&d).unwrap();
        assert_eq!(b.outliers, vec![100.0]);
        assert!(b.whisker_hi < 100.0);
        let (lo, hi) = b.full_range();
        assert_eq!(hi, 100.0);
        assert_eq!(lo, 10.0);
    }

    #[test]
    fn box_stats_of_symmetric_sample() {
        let d: Vec<f64> = (1..=101).map(|i| i as f64).collect();
        let b = box_stats(&d).unwrap();
        assert_eq!(b.median, 51.0);
        assert_eq!(b.q1, 26.0);
        assert_eq!(b.q3, 76.0);
        assert!(b.outliers.is_empty());
    }

    #[test]
    fn ecdf_round_trips() {
        let d = [5.0, 1.0, 3.0, 2.0, 4.0];
        let e = Ecdf::new(&d).unwrap();
        assert_eq!(e.eval(0.0), 0.0);
        assert_eq!(e.eval(5.0), 1.0);
        assert!((e.eval(3.0) - 0.6).abs() < 1e-12);
        assert!((e.inverse(0.5) - 3.0).abs() < 1e-12);
        let pts: Vec<_> = e.points().collect();
        assert_eq!(pts.len(), 5);
        assert_eq!(pts[0].0, 1.0);
        assert!((pts[0].1 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_recovers_line() {
        let pts: Vec<(f64, f64)> = (0..10).map(|i| (i as f64, 3.0 * i as f64 - 2.0)).collect();
        let f = linear_fit(&pts).unwrap();
        assert!((f.slope - 3.0).abs() < 1e-12);
        assert!((f.intercept + 2.0).abs() < 1e-12);
        assert!((f.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn linear_fit_rejects_degenerate() {
        assert!(linear_fit(&[(1.0, 2.0)]).is_err());
        assert!(linear_fit(&[(1.0, 2.0), (1.0, 3.0)]).is_err());
    }

    #[test]
    fn ks_identical_samples_is_zero() {
        let a = [1.0, 2.0, 3.0, 4.0];
        assert_eq!(ks_statistic(&a, &a).unwrap(), 0.0);
    }

    #[test]
    fn ks_disjoint_samples_is_one() {
        let a = [1.0, 2.0, 3.0];
        let b = [10.0, 11.0];
        assert!((ks_statistic(&a, &b).unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn ks_detects_shift_but_accepts_same_distribution() {
        // Deterministic LCG samples from the same uniform distribution.
        let mut state: u64 = 12345;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 11) as f64 / (1u64 << 53) as f64
        };
        let a: Vec<f64> = (0..500).map(|_| next()).collect();
        let b: Vec<f64> = (0..500).map(|_| next()).collect();
        let same = ks_statistic(&a, &b).unwrap();
        assert!(same < ks_threshold(500, 500, 0.01), "same-dist KS {same}");
        let shifted: Vec<f64> = b.iter().map(|x| x + 0.3).collect();
        let diff = ks_statistic(&a, &shifted).unwrap();
        assert!(diff > ks_threshold(500, 500, 0.01), "shifted KS {diff}");
    }
}
