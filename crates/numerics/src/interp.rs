//! Piecewise-linear waveforms.
//!
//! Used for PWL sources, measured-curve lookups (e.g. the paper's Table 2
//! `IrefR → RHRS` anchors during calibration), and post-processing of
//! simulated waveforms.

use crate::NumericsError;

/// A piecewise-linear function `y(x)` defined by breakpoints with strictly
/// increasing `x`.
///
/// Evaluation outside the breakpoint range clamps to the end values, matching
/// SPICE PWL-source semantics.
///
/// # Examples
///
/// ```
/// use oxterm_numerics::interp::Pwl;
///
/// # fn main() -> Result<(), oxterm_numerics::NumericsError> {
/// let ramp = Pwl::new(vec![(0.0, 0.0), (1e-6, 1.2)])?;
/// assert_eq!(ramp.eval(0.5e-6), 0.6);
/// assert_eq!(ramp.eval(2e-6), 1.2); // clamped
/// # Ok(())
/// # }
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct Pwl {
    points: Vec<(f64, f64)>,
}

impl Pwl {
    /// Creates a waveform from `(x, y)` breakpoints.
    ///
    /// # Errors
    ///
    /// Returns [`NumericsError::InvalidInput`] if fewer than one point is
    /// given, any coordinate is non-finite, or `x` is not strictly
    /// increasing.
    pub fn new(points: Vec<(f64, f64)>) -> Result<Self, NumericsError> {
        if points.is_empty() {
            return Err(NumericsError::InvalidInput {
                reason: "piecewise-linear waveform needs at least one point".into(),
            });
        }
        for w in points.windows(2) {
            if w[1].0 <= w[0].0 {
                return Err(NumericsError::InvalidInput {
                    reason: format!(
                        "breakpoints must be strictly increasing in x ({} then {})",
                        w[0].0, w[1].0
                    ),
                });
            }
        }
        if points.iter().any(|(x, y)| !x.is_finite() || !y.is_finite()) {
            return Err(NumericsError::InvalidInput {
                reason: "breakpoints must be finite".into(),
            });
        }
        Ok(Pwl { points })
    }

    /// The breakpoints.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// Evaluates the waveform at `x`, clamping outside the defined range.
    pub fn eval(&self, x: f64) -> f64 {
        let pts = &self.points;
        if x <= pts[0].0 {
            return pts[0].1;
        }
        if x >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        // Binary search for the segment containing x.
        let mut lo = 0;
        let mut hi = pts.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if pts[mid].0 <= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (x0, y0) = pts[lo];
        let (x1, y1) = pts[hi];
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// Integral of the waveform over `[a, b]` (with clamped extension).
    pub fn integral(&self, a: f64, b: f64) -> f64 {
        if b <= a {
            return 0.0;
        }
        // Trapezoid over every sub-segment boundary in [a, b].
        let mut knots: Vec<f64> = vec![a];
        for &(x, _) in &self.points {
            if x > a && x < b {
                knots.push(x);
            }
        }
        knots.push(b);
        let mut sum = 0.0;
        for w in knots.windows(2) {
            let (x0, x1) = (w[0], w[1]);
            sum += 0.5 * (self.eval(x0) + self.eval(x1)) * (x1 - x0);
        }
        sum
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_point_is_constant() {
        let p = Pwl::new(vec![(1.0, 5.0)]).unwrap();
        assert_eq!(p.eval(-10.0), 5.0);
        assert_eq!(p.eval(1.0), 5.0);
        assert_eq!(p.eval(10.0), 5.0);
    }

    #[test]
    fn ramp_interpolates() {
        let p = Pwl::new(vec![(0.0, 0.0), (2.0, 4.0)]).unwrap();
        assert_eq!(p.eval(1.0), 2.0);
        assert_eq!(p.eval(0.25), 0.5);
    }

    #[test]
    fn pulse_shape() {
        // 0 → rise → flat → fall → 0, like a RST pulse.
        let p = Pwl::new(vec![
            (0.0, 0.0),
            (10e-9, 1.2),
            (3.5e-6, 1.2),
            (3.51e-6, 0.0),
        ])
        .unwrap();
        assert_eq!(p.eval(1e-6), 1.2);
        assert_eq!(p.eval(5e-6), 0.0);
        assert!((p.eval(5e-9) - 0.6).abs() < 1e-12);
    }

    #[test]
    fn rejects_non_monotone() {
        assert!(Pwl::new(vec![(0.0, 0.0), (0.0, 1.0)]).is_err());
        assert!(Pwl::new(vec![(1.0, 0.0), (0.5, 1.0)]).is_err());
        assert!(Pwl::new(vec![]).is_err());
        assert!(Pwl::new(vec![(f64::NAN, 0.0)]).is_err());
    }

    #[test]
    fn integral_of_triangle() {
        let p = Pwl::new(vec![(0.0, 0.0), (1.0, 1.0), (2.0, 0.0)]).unwrap();
        assert!((p.integral(0.0, 2.0) - 1.0).abs() < 1e-12);
        // Partial span.
        assert!((p.integral(0.0, 1.0) - 0.5).abs() < 1e-12);
        // Clamped extension beyond the last point contributes y=0 here.
        assert!((p.integral(0.0, 3.0) - 1.0).abs() < 1e-12);
        assert_eq!(p.integral(2.0, 1.0), 0.0);
    }
}
