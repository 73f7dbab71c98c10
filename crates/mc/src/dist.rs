//! Statistical distributions for Monte Carlo sampling.

use rand::Rng;

/// A scalar distribution that can be sampled.
pub trait Distribution {
    /// Draws one sample.
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64;
}

/// Standard normal via the Box–Muller transform (no external distribution
/// crate — `rand_distr` is not on the approved dependency list). Every
/// normal draw in the workspace goes through this one function.
pub fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    loop {
        let u1: f64 = rng.random::<f64>();
        let u2: f64 = rng.random::<f64>();
        if u1 > f64::MIN_POSITIVE {
            return (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        }
    }
}

/// Normal distribution `N(mean, sigma²)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Normal {
    mean: f64,
    sigma: f64,
}

impl Normal {
    /// Creates a normal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is non-finite.
    pub fn new(mean: f64, sigma: f64) -> Self {
        assert!(
            mean.is_finite() && sigma.is_finite() && sigma >= 0.0,
            "normal parameters must be finite with sigma >= 0"
        );
        Normal { mean, sigma }
    }
}

impl Distribution for Normal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.mean + self.sigma * standard_normal(rng)
    }
}

/// Lognormal distribution with the given median and log-σ.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LogNormal {
    median: f64,
    sigma_ln: f64,
}

impl LogNormal {
    /// Creates a lognormal distribution.
    ///
    /// # Panics
    ///
    /// Panics if `median` is not positive or `sigma_ln` is negative.
    pub fn new(median: f64, sigma_ln: f64) -> Self {
        assert!(
            median > 0.0 && sigma_ln >= 0.0,
            "lognormal needs positive median and non-negative sigma"
        );
        LogNormal { median, sigma_ln }
    }
}

impl Distribution for LogNormal {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.median * (self.sigma_ln * standard_normal(rng)).exp()
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution.
    ///
    /// # Panics
    ///
    /// Panics if `lo >= hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo < hi, "uniform needs lo < hi");
        Uniform { lo, hi }
    }
}

impl Distribution for Uniform {
    fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lo + (self.hi - self.lo) * rng.random::<f64>()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use oxterm_numerics::stats::summary;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn draw<D: Distribution>(d: &D, n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn normal_moments() {
        let s = summary(&draw(&Normal::new(2.0, 0.5), 40_000, 1)).unwrap();
        assert!((s.mean - 2.0).abs() < 0.01);
        assert!((s.std_dev - 0.5).abs() < 0.01);
    }

    #[test]
    fn lognormal_median_and_positivity() {
        let samples = draw(&LogNormal::new(10.0, 0.3), 40_000, 2);
        assert!(samples.iter().all(|&x| x > 0.0));
        let med = oxterm_numerics::stats::quantile(&samples, 0.5).unwrap();
        assert!((med - 10.0).abs() / 10.0 < 0.02, "median = {med}");
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let samples = draw(&Uniform::new(-1.0, 3.0), 40_000, 3);
        assert!(samples.iter().all(|&x| (-1.0..3.0).contains(&x)));
        let s = summary(&samples).unwrap();
        assert!((s.mean - 1.0).abs() < 0.03);
    }

    #[test]
    #[should_panic(expected = "sigma")]
    fn normal_rejects_negative_sigma() {
        Normal::new(0.0, -1.0);
    }

    #[test]
    #[should_panic(expected = "lo < hi")]
    fn uniform_rejects_inverted() {
        Uniform::new(1.0, 1.0);
    }
}
