//! The one normal sampler behind every Monte Carlo draw.

use rand::Rng;

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
