//! Scalar root finding.
//!
//! Compact-model internals occasionally need a quick scalar solve (e.g.
//! inverting a conduction law to find the filament radius that yields a given
//! read resistance), and the fast programming path solves a resistive divider
//! at every time step. [`newton_bisect`] and [`newton_warm`] share one
//! safeguarded Newton iteration that falls back to bisection whenever the
//! Newton step leaves the bracket, so it inherits Newton's quadratic
//! convergence with bisection's robustness. [`newton_bisect`] starts cold from
//! the midpoint with a finite-difference slope; [`newton_warm`] takes the
//! analytic slope and a start point.

use crate::NumericsError;

/// Options for [`newton_bisect`] and [`newton_warm`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RootOptions {
    /// Absolute tolerance on `x`.
    pub x_tol: f64,
    /// Absolute tolerance on `f(x)`.
    pub f_tol: f64,
    /// Iteration budget.
    pub max_iters: usize,
}

impl Default for RootOptions {
    fn default() -> Self {
        RootOptions {
            x_tol: 1e-14,
            f_tol: 1e-14,
            max_iters: 200,
        }
    }
}

/// Finds a root of `f` in `[a, b]` using safeguarded Newton iteration.
///
/// The derivative is approximated by a forward difference, so only `f` is
/// required, and the iteration starts from the bracket midpoint. This is the
/// cold-start form of [`newton_warm`].
///
/// # Errors
///
/// Returns [`NumericsError::InvalidInput`] if the bracket is invalid or
/// `f(a)` and `f(b)` have the same sign, and [`NumericsError::NoConvergence`]
/// if the iteration budget is exhausted.
///
/// # Examples
///
/// ```
/// use oxterm_numerics::roots::{newton_bisect, RootOptions};
///
/// # fn main() -> Result<(), oxterm_numerics::NumericsError> {
/// let sqrt2 = newton_bisect(|x| x * x - 2.0, 0.0, 2.0, RootOptions::default())?;
/// assert!((sqrt2 - 2.0f64.sqrt()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn newton_bisect<F>(f: F, a: f64, b: f64, opts: RootOptions) -> Result<f64, NumericsError>
where
    F: FnMut(f64) -> f64,
{
    let slope = |f: &mut F, x: f64, fx: f64| {
        let h = 1e-7 * (1.0 + x.abs());
        (f(x + h) - fx) / h
    };
    safeguarded_newton(f, slope, a, b, f64::NAN, opts)
}

/// Finds a root of `f` in `[a, b]` by safeguarded Newton iteration with the
/// analytic slope `df` and a start point `guess`.
///
/// A guess outside the open bracket `(a, b)`, or a NaN guess, starts from
/// the midpoint instead. The bracket is maintained exactly as in
/// [`newton_bisect`]: every iterate narrows it, and a Newton step that
/// leaves it, or a zero or non-finite slope, takes a bisection step. A guess
/// near the root (the previous time step's solution, say) converges in a
/// couple of iterations where a cold start needs ten.
///
/// # Errors
///
/// As [`newton_bisect`].
///
/// # Examples
///
/// ```
/// use oxterm_numerics::roots::{newton_warm, RootOptions};
///
/// # fn main() -> Result<(), oxterm_numerics::NumericsError> {
/// let sqrt2 = newton_warm(|x| x * x - 2.0, |x| 2.0 * x, 0.0, 2.0, 1.4, RootOptions::default())?;
/// assert!((sqrt2 - 2.0f64.sqrt()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn newton_warm<F, D>(
    f: F,
    mut df: D,
    a: f64,
    b: f64,
    guess: f64,
    opts: RootOptions,
) -> Result<f64, NumericsError>
where
    F: FnMut(f64) -> f64,
    D: FnMut(f64) -> f64,
{
    safeguarded_newton(f, |_: &mut F, x, _| df(x), a, b, guess, opts)
}

/// The one Newton loop behind [`newton_bisect`] and [`newton_warm`].
/// `slope(f, x, f(x))` returns `f'(x)`; it gets `f` so a finite difference
/// can evaluate it once more.
fn safeguarded_newton<F, S>(
    mut f: F,
    mut slope: S,
    a: f64,
    b: f64,
    guess: f64,
    opts: RootOptions,
) -> Result<f64, NumericsError>
where
    F: FnMut(f64) -> f64,
    S: FnMut(&mut F, f64, f64) -> f64,
{
    if !a.is_finite() || !b.is_finite() || a >= b {
        return Err(NumericsError::InvalidInput {
            reason: format!("invalid bracket [{a}, {b}]"),
        });
    }
    let mut lo = a;
    let mut hi = b;
    let mut f_lo = f(lo);
    let f_hi = f(hi);
    if f_lo == 0.0 {
        return Ok(lo);
    }
    if f_hi == 0.0 {
        return Ok(hi);
    }
    if f_lo.signum() == f_hi.signum() {
        return Err(NumericsError::InvalidInput {
            reason: "f(a) and f(b) must have opposite signs".into(),
        });
    }

    // `NaN` fails both comparisons, so a NaN guess starts at the midpoint.
    let mut x = if guess > lo && guess < hi {
        guess
    } else {
        0.5 * (lo + hi)
    };
    for _ in 0..opts.max_iters {
        let fx = f(x);
        if fx.abs() <= opts.f_tol || (hi - lo) <= opts.x_tol {
            return Ok(x);
        }
        // Maintain the bracket.
        if fx.signum() == f_lo.signum() {
            lo = x;
            f_lo = fx;
        } else {
            hi = x;
        }
        let dfdx = slope(&mut f, x, fx);
        let newton = if dfdx != 0.0 { x - fx / dfdx } else { f64::NAN };
        x = if newton.is_finite() && newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
    }
    Err(NumericsError::NoConvergence {
        iterations: opts.max_iters,
        residual: f(x).abs(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finds_sqrt_two() {
        let r = newton_bisect(|x| x * x - 2.0, 0.0, 2.0, RootOptions::default()).unwrap();
        assert!((r - 2.0f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn finds_root_of_stiff_exponential() {
        // exp-style conduction law: I(V) = 1e-12 * (exp(V / 0.05) - 1) - 1e-6
        let r = newton_bisect(
            |v| 1e-12 * ((v / 0.05).exp() - 1.0) - 1e-6,
            0.0,
            2.0,
            RootOptions::default(),
        )
        .unwrap();
        let expected = 0.05 * (1e6_f64 + 1.0).ln();
        assert!((r - expected).abs() < 1e-9);
    }

    #[test]
    fn endpoint_roots_returned_directly() {
        let r = newton_bisect(|x| x, 0.0, 1.0, RootOptions::default()).unwrap();
        assert_eq!(r, 0.0);
    }

    #[test]
    fn rejects_unbracketed() {
        assert!(newton_bisect(|x| x * x + 1.0, -1.0, 1.0, RootOptions::default()).is_err());
        assert!(newton_bisect(|x| x, 1.0, 0.0, RootOptions::default()).is_err());
    }

    #[test]
    fn decreasing_function() {
        let r = newton_bisect(|x| 1.0 - x, 0.0, 5.0, RootOptions::default()).unwrap();
        assert!((r - 1.0).abs() < 1e-12);
    }

    /// Records every point `f` is evaluated at, so a test can see where the
    /// iteration started.
    fn logged<'a>(
        log: &'a mut Vec<f64>,
        f: impl Fn(f64) -> f64 + 'a,
    ) -> impl FnMut(f64) -> f64 + 'a {
        move |x| {
            log.push(x);
            f(x)
        }
    }

    #[test]
    fn warm_start_converges_from_a_near_guess() {
        let mut log = Vec::new();
        let r = newton_warm(
            logged(&mut log, |x| x * x - 2.0),
            |x| 2.0 * x,
            0.0,
            2.0,
            1.4,
            RootOptions::default(),
        )
        .unwrap();
        assert!((r - 2.0f64.sqrt()).abs() < 1e-12);
        // Two endpoint checks, then the iterates from the guess.
        assert_eq!(log[2], 1.4);
        assert!(log.len() <= 2 + 5, "{} evaluations", log.len());
    }

    #[test]
    fn guess_outside_bracket_or_nan_starts_at_midpoint() {
        for guess in [-1.0, 0.0, 2.0, 7.5, f64::NAN, f64::INFINITY] {
            let mut log = Vec::new();
            let r = newton_warm(
                logged(&mut log, |x| x * x - 2.0),
                |x| 2.0 * x,
                0.0,
                2.0,
                guess,
                RootOptions::default(),
            )
            .unwrap();
            assert!((r - 2.0f64.sqrt()).abs() < 1e-12, "guess {guess}");
            assert_eq!(log[2], 1.0, "guess {guess} did not start at the midpoint");
        }
    }

    #[test]
    fn zero_or_nan_slope_takes_the_bisection_step() {
        for bad in [0.0, f64::NAN] {
            let mut log = Vec::new();
            let r = newton_warm(
                logged(&mut log, |x| x - 0.3),
                |_| bad,
                0.0,
                1.0,
                0.8,
                RootOptions::default(),
            )
            .unwrap();
            assert!((r - 0.3).abs() < 1e-12, "slope {bad}");
            // f(0.8) > 0 makes 0.8 the new upper end; the next iterate is
            // the midpoint of [0, 0.8], then of [0, 0.4].
            assert_eq!(&log[2..5], &[0.8, 0.4, 0.2], "slope {bad}");
        }
    }

    #[test]
    fn exhausted_budget_reports_no_convergence() {
        let opts = RootOptions {
            max_iters: 3,
            ..RootOptions::default()
        };
        // A zero slope leaves only bisection, which cannot reach 1e-14 in
        // three halvings.
        let err = newton_warm(|x| x - 0.3, |_| 0.0, 0.0, 1.0, 0.9, opts).unwrap_err();
        match err {
            NumericsError::NoConvergence {
                iterations,
                residual,
            } => {
                assert_eq!(iterations, 3);
                assert!(residual > 0.0 && residual < 0.3);
            }
            other => panic!("expected NoConvergence, got {other:?}"),
        }
        assert!(matches!(
            newton_bisect(|x| (x - 0.3).cbrt(), 0.0, 1.0, opts),
            Err(NumericsError::NoConvergence { iterations: 3, .. })
        ));
    }

    #[test]
    fn warm_rejects_unbracketed_like_the_cold_form() {
        assert!(newton_warm(
            |x| x * x + 1.0,
            |x| 2.0 * x,
            -1.0,
            1.0,
            0.5,
            RootOptions::default()
        )
        .is_err());
        assert!(newton_warm(|x| x, |_| 1.0, 1.0, 0.0, 0.5, RootOptions::default()).is_err());
        assert_eq!(
            newton_warm(|x| x, |_| 1.0, 0.0, 1.0, 0.5, RootOptions::default()).unwrap(),
            0.0
        );
    }
}
