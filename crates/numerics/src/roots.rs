//! Scalar root finding.
//!
//! Compact-model internals occasionally need a quick scalar solve (e.g.
//! inverting a conduction law to find the filament radius that yields a given
//! read resistance), and the fast programming path solves a resistive divider
//! at every integrator stage. One safeguarded Newton iteration,
//! [`newton_bracketed`], serves every entry: it falls back to bisection
//! whenever the Newton step leaves the bracket, so it inherits Newton's
//! quadratic convergence with bisection's robustness. It takes `f` and `f'`
//! from one fused closure and a bracket whose end signs the caller
//! guarantees, so a caller that knows them (the divider: `f(0) < 0 <
//! f(v_drive)`) never pays for evaluating the ends. [`newton_bisect`] and
//! [`newton_warm`] evaluate their ends first: [`newton_bisect`] starts cold
//! from the midpoint with a finite-difference slope; [`newton_warm`] takes
//! the analytic slope and a start point.

use crate::NumericsError;

/// Options for the Newton entries ([`newton_bracketed`], [`newton_bisect`]
/// and [`newton_warm`]).
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
/// Returns [`NumericsError::InvalidInput`] if the bracket is invalid,
/// `f(a)` and `f(b)` have the same sign or `f` is NaN at an iterate, and
/// [`NumericsError::NoConvergence`] if the iteration budget is exhausted.
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
pub fn newton_bisect<F>(mut f: F, a: f64, b: f64, opts: RootOptions) -> Result<f64, NumericsError>
where
    F: FnMut(f64) -> f64,
{
    let sign = match end_signs(&mut f, a, b)? {
        Ends::Root(x) => return Ok(x),
        Ends::Sign(sign) => sign,
    };
    let fdf = |x: f64| {
        let fx = f(x);
        // The loop stops on a value this small without using the slope, so
        // the difference's extra evaluation is skipped.
        let dfdx = if fx.abs() <= opts.f_tol {
            f64::NAN
        } else {
            let h = 1e-7 * (1.0 + x.abs());
            (f(x + h) - fx) / h
        };
        (sign * fx, sign * dfdx)
    };
    newton_bracketed(fdf, a, b, f64::NAN, opts)
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
    mut f: F,
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
    let sign = match end_signs(&mut f, a, b)? {
        Ends::Root(x) => return Ok(x),
        Ends::Sign(sign) => sign,
    };
    newton_bracketed(|x| (sign * f(x), sign * df(x)), a, b, guess, opts)
}

/// What evaluating `f` at both ends of a bracket established.
enum Ends {
    /// An end is an exact root.
    Root(f64),
    /// `sign · f` is negative at the lower end and positive at the upper.
    Sign(f64),
}

/// Evaluates `f` at both ends of `[a, b]` and orients the bracket for
/// [`newton_bracketed`].
fn end_signs<F>(f: &mut F, a: f64, b: f64) -> Result<Ends, NumericsError>
where
    F: FnMut(f64) -> f64,
{
    check_bracket(a, b)?;
    let f_lo = f(a);
    let f_hi = f(b);
    if f_lo == 0.0 {
        return Ok(Ends::Root(a));
    }
    if f_hi == 0.0 {
        return Ok(Ends::Root(b));
    }
    if f_lo.signum() == f_hi.signum() {
        return Err(NumericsError::InvalidInput {
            reason: "f(a) and f(b) must have opposite signs".into(),
        });
    }
    Ok(Ends::Sign(-f_lo.signum()))
}

fn check_bracket(a: f64, b: f64) -> Result<(), NumericsError> {
    if !a.is_finite() || !b.is_finite() || a >= b {
        return Err(NumericsError::InvalidInput {
            reason: format!("invalid bracket [{a}, {b}]"),
        });
    }
    Ok(())
}

/// The one safeguarded Newton loop: finds a root of `f` in `[lo, hi]`,
/// where `fdf(x)` returns `(f(x), f'(x))` and the caller guarantees
/// `f(lo) < 0 < f(hi)`.
///
/// This is the known-sign entry: neither end is evaluated, so every
/// evaluation is an iterate, starting with `guess` (the midpoint when
/// `guess` is outside `(lo, hi)` or NaN). Each iterate narrows the bracket;
/// a Newton step that leaves it, or a zero or non-finite slope, takes a
/// bisection step. The root returned is the last point evaluated, so a
/// closure that keeps what it computed there (the divider's current, say)
/// need not evaluate it again.
///
/// If the sign guarantee is false the iteration still stays inside the
/// bracket, but may converge to one of its ends.
///
/// # Errors
///
/// Returns [`NumericsError::InvalidInput`] for an invalid bracket or a NaN
/// `f`, and [`NumericsError::NoConvergence`] if the iteration budget is
/// exhausted.
///
/// # Examples
///
/// ```
/// use oxterm_numerics::roots::{newton_bracketed, RootOptions};
///
/// # fn main() -> Result<(), oxterm_numerics::NumericsError> {
/// // x² − 2 is negative at 0 and positive at 2.
/// let sqrt2 = newton_bracketed(|x| (x * x - 2.0, 2.0 * x), 0.0, 2.0, 1.4, RootOptions::default())?;
/// assert!((sqrt2 - 2.0f64.sqrt()).abs() < 1e-12);
/// # Ok(())
/// # }
/// ```
pub fn newton_bracketed<F>(
    mut fdf: F,
    lo: f64,
    hi: f64,
    guess: f64,
    opts: RootOptions,
) -> Result<f64, NumericsError>
where
    F: FnMut(f64) -> (f64, f64),
{
    check_bracket(lo, hi)?;
    let (mut lo, mut hi) = (lo, hi);
    // `NaN` fails both comparisons, so a NaN guess starts at the midpoint.
    let mut x = if guess > lo && guess < hi {
        guess
    } else {
        0.5 * (lo + hi)
    };
    for _ in 0..opts.max_iters {
        let (fx, dfdx) = fdf(x);
        if fx.abs() <= opts.f_tol || (hi - lo) <= opts.x_tol {
            return Ok(x);
        }
        // Maintain the bracket.
        if fx < 0.0 {
            lo = x;
        } else if fx.is_nan() {
            return Err(NumericsError::InvalidInput {
                reason: format!("f({x}) is NaN"),
            });
        } else {
            hi = x;
        }
        // A zero or NaN slope makes the step non-finite.
        let newton = x - fx / dfdx;
        x = if newton.is_finite() && newton > lo && newton < hi {
            newton
        } else {
            0.5 * (lo + hi)
        };
    }
    Err(NumericsError::NoConvergence {
        iterations: opts.max_iters,
        residual: fdf(x).0.abs(),
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

    #[test]
    fn known_sign_entry_never_evaluates_the_bracket_ends() {
        for guess in [1.4, f64::NAN] {
            let mut log = Vec::new();
            let r = {
                let mut f = logged(&mut log, |x| x * x - 2.0);
                newton_bracketed(|x| (f(x), 2.0 * x), 0.0, 2.0, guess, RootOptions::default())
                    .unwrap()
            };
            assert!((r - 2.0f64.sqrt()).abs() < 1e-12);
            // Every evaluation is an iterate, the first the start point,
            // the last the root returned.
            assert_eq!(log[0], if guess.is_nan() { 1.0 } else { guess });
            assert_eq!(*log.last().unwrap(), r);
            assert!(log.iter().all(|&x| x > 0.0 && x < 2.0), "{log:?}");
        }
    }

    #[test]
    fn known_sign_entry_matches_the_warm_iterates() {
        // The same iterates as the entry that evaluates its ends, for an
        // increasing and a decreasing function.
        type Fn1 = fn(f64) -> f64;
        let cases: [(Fn1, Fn1); 2] = [
            (|x| x * x - 2.0, |x| 2.0 * x),
            (|x| 2.0 - x * x, |x| -2.0 * x),
        ];
        for (f, df) in cases {
            let mut warm = Vec::new();
            let w = newton_warm(
                logged(&mut warm, f),
                df,
                0.0,
                2.0,
                0.3,
                RootOptions::default(),
            )
            .unwrap();
            let sign = -f(0.0).signum();
            let mut known = Vec::new();
            let k = {
                let mut g = logged(&mut known, f);
                let fdf = |x| (sign * g(x), sign * df(x));
                newton_bracketed(fdf, 0.0, 2.0, 0.3, RootOptions::default()).unwrap()
            };
            assert_eq!(w, k);
            assert_eq!(&warm[2..], &known[..]);
        }
    }

    #[test]
    fn nan_function_is_an_error_not_a_root() {
        let err = newton_bracketed(|_| (f64::NAN, 1.0), 0.0, 1.0, 0.5, RootOptions::default())
            .unwrap_err();
        assert!(matches!(err, NumericsError::InvalidInput { .. }), "{err:?}");
        assert!(newton_bracketed(|x| (x, 1.0), 1.0, 1.0, 0.5, RootOptions::default()).is_err());
    }
}
