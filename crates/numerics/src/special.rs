//! Special functions: error function family and the Gaussian tail.
//!
//! Used by the margin analysis to convert resistance margins into decode
//! error probabilities (a Q-function of margin over noise).

/// Error function, Abramowitz & Stegun 7.1.26 (|ε| ≤ 1.5e-7).
pub fn erf(x: f64) -> f64 {
    let sign = x.signum();
    let x = x.abs();
    let t = 1.0 / (1.0 + 0.3275911 * x);
    let poly = t
        * (0.254829592
            + t * (-0.284496736 + t * (1.421413741 + t * (-1.453152027 + t * 1.061405429))));
    sign * (1.0 - poly * (-x * x).exp())
}

/// Complementary error function.
pub fn erfc(x: f64) -> f64 {
    1.0 - erf(x)
}

/// Standard normal upper-tail probability `Q(x) = P(Z > x)`.
pub fn q_function(x: f64) -> f64 {
    0.5 * erfc(x / std::f64::consts::SQRT_2)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn erf_known_values() {
        assert!(erf(0.0).abs() < 1e-8); // A&S 7.1.26 residual ≈ 1e-9 at 0
        assert!((erf(1.0) - 0.8427007929).abs() < 2e-7);
        assert!((erf(2.0) - 0.9953222650).abs() < 2e-7);
        assert!((erf(-1.0) + 0.8427007929).abs() < 2e-7);
        assert!((erf(5.0) - 1.0).abs() < 1e-7);
    }

    #[test]
    fn q_function_tails() {
        assert!((q_function(0.0) - 0.5).abs() < 1e-8);
        // 1σ, 2σ, 3σ one-sided tail probabilities.
        assert!((q_function(1.0) - 0.158655).abs() < 1e-5);
        assert!((q_function(2.0) - 0.022750).abs() < 1e-5);
        assert!((q_function(3.0) - 0.001350).abs() < 2e-5);
    }

    #[test]
    fn erf_is_odd_and_monotone() {
        let mut prev = -1.0;
        for k in -40..=40 {
            let x = k as f64 * 0.1;
            let e = erf(x);
            assert!((e + erf(-x)).abs() < 1e-12);
            assert!(e >= prev - 1e-12);
            prev = e;
        }
    }
}
