//! Monte Carlo convergence diagnostics.
//!
//! "How many runs are enough?" — the paper uses 500 everywhere; these
//! helpers make that choice auditable with confidence bounds on
//! rare-event probabilities (decode failures, margin violations).

/// Wilson score interval for a binomial proportion — robust for rare
/// events (e.g. "0 decode failures in 500 runs": what failure rates are
/// still consistent with that observation?).
///
/// Returns `(lo, hi)` bounds on the true probability at z-score `z`.
pub fn wilson_interval(successes: usize, trials: usize, z: f64) -> (f64, f64) {
    if trials == 0 {
        return (0.0, 1.0);
    }
    let n = trials as f64;
    let p = successes as f64 / n;
    let z2 = z * z;
    let denom = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denom;
    let half = (z / denom) * ((p * (1.0 - p) / n) + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// Exact (Clopper–Pearson) one-sided upper confidence bound on a
/// binomial proportion: the largest `p` such that observing `k` or fewer
/// events in `n` trials still has probability at least `alpha`.
///
/// Used for read-window BER bounds where `k` is usually 0 — the exact
/// bound stays honest there (`1 − alpha^(1/n)`), unlike the Wilson
/// approximation which degrades at the extremes. Degenerate inputs
/// (`n == 0`, `k ≥ n`) return the vacuous bound `1.0`; `alpha` is
/// clamped into `(0, 1)`.
///
/// For `k > 0` the bound is found by bisecting the log-space binomial
/// lower tail — no incomplete-beta inverse needed, and 80 iterations
/// put the bracket far below the bound's statistical resolution.
pub fn clopper_pearson_upper(k: u64, n: u64, alpha: f64) -> f64 {
    if n == 0 || k >= n {
        return 1.0;
    }
    let alpha = if alpha.is_finite() {
        alpha.clamp(1e-12, 1.0 - 1e-12)
    } else {
        0.05
    };
    let nf = n as f64;
    if k == 0 {
        return 1.0 - alpha.powf(1.0 / nf);
    }
    // ln C(n, i) built incrementally; the tail has only k+1 terms.
    let mut ln_binom = Vec::with_capacity(k as usize + 1);
    let mut acc = 0.0f64;
    ln_binom.push(acc);
    for i in 0..k {
        acc += ((n - i) as f64).ln() - ((i + 1) as f64).ln();
        ln_binom.push(acc);
    }
    let tail = |p: f64| -> f64 {
        let (lp, lq) = (p.ln(), (1.0 - p).ln());
        ln_binom
            .iter()
            .enumerate()
            .map(|(i, &lb)| (lb + i as f64 * lp + (nf - i as f64) * lq).exp())
            .sum()
    };
    // The lower tail is monotone decreasing in p; bracket and bisect.
    let (mut lo, mut hi) = (k as f64 / nf, 1.0 - 1e-15);
    for _ in 0..80 {
        let mid = 0.5 * (lo + hi);
        if tail(mid) > alpha {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    0.5 * (lo + hi)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wilson_zero_failures_bound() {
        // 0 failures in 500: the 95 % upper bound on the failure rate is
        // famously ≈ 3.84/(n+3.84) ≈ 0.76 %.
        let (lo, hi) = wilson_interval(0, 500, 1.96);
        assert_eq!(lo, 0.0);
        assert!((0.004..0.010).contains(&hi), "hi = {hi}");
    }

    #[test]
    fn wilson_half_and_half() {
        let (lo, hi) = wilson_interval(250, 500, 1.96);
        assert!(lo < 0.5 && hi > 0.5);
        assert!(hi - lo < 0.1);
    }

    #[test]
    fn clopper_pearson_zero_events_matches_closed_form() {
        let b = clopper_pearson_upper(0, 100, 0.05);
        let exact = 1.0 - 0.05f64.powf(0.01);
        assert!((b - exact).abs() < 1e-12, "{b} vs {exact}");
        // The "rule of three" approximation 3/n sits just above.
        assert!(b < 0.03 && b > 0.029, "{b}");
    }

    #[test]
    fn clopper_pearson_matches_published_value() {
        // One-sided 95% exact upper bound for 1 event in 100 trials.
        let b = clopper_pearson_upper(1, 100, 0.05);
        assert!((b - 0.0466).abs() < 5e-4, "{b}");
    }

    #[test]
    fn clopper_pearson_is_sane_at_the_edges() {
        assert_eq!(clopper_pearson_upper(0, 0, 0.05), 1.0);
        assert_eq!(clopper_pearson_upper(5, 5, 0.05), 1.0);
        assert_eq!(clopper_pearson_upper(7, 5, 0.05), 1.0);
        // More trials with no events tightens the bound.
        assert!(clopper_pearson_upper(0, 1000, 0.05) < clopper_pearson_upper(0, 100, 0.05));
        // The bound always dominates the point estimate.
        let b = clopper_pearson_upper(10, 200, 0.05);
        assert!(b > 10.0 / 200.0 && b < 1.0, "{b}");
        // And sits above Wilson's approximate upper bound (exact is
        // conservative).
        let (_, wilson_hi) = wilson_interval(10, 200, 1.6449);
        assert!(b >= wilson_hi - 5e-3, "cp {b} vs wilson {wilson_hi}");
    }
}
