//! Parameter sweeps of Monte Carlo campaigns.

use crate::engine::MonteCarlo;

/// Runs one Monte Carlo campaign per sweep point.
///
/// Each point gets a decorrelated seed derived from the base campaign seed
/// and the point index, so adding points never perturbs existing ones.
///
/// The paper's Fig 11 is exactly this shape: sweep the 16 reference
/// currents, run 500 Monte Carlo programs at each.
pub fn sweep_mc<P, T, F>(points: &[P], base: MonteCarlo, f: F) -> Vec<(P, Vec<T>)>
where
    P: Clone + Sync,
    T: Send,
    F: Fn(&P, usize, &mut rand::rngs::StdRng) -> T + Sync,
{
    points
        .iter()
        .enumerate()
        .map(|(k, p)| {
            let campaign = MonteCarlo {
                seed: base.seed.wrapping_add((k as u64 + 1) * 0x9E37_79B9),
                ..base
            };
            let samples = campaign.run(|i, rng| f(p, i, rng));
            (p.clone(), samples)
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn every_point_gets_its_campaign() {
        let points = vec![1.0f64, 2.0, 3.0];
        let out = sweep_mc(&points, MonteCarlo::new(20, 5), |p, _, rng| {
            p * rng.random::<f64>()
        });
        assert_eq!(out.len(), 3);
        for (p, samples) in &out {
            assert_eq!(samples.len(), 20);
            assert!(samples.iter().all(|s| *s <= *p));
        }
    }

    #[test]
    fn points_are_decorrelated_but_stable() {
        let points = vec![0u8, 1];
        let a = sweep_mc(&points, MonteCarlo::new(5, 1), |_, _, rng| {
            rng.random::<u64>()
        });
        let b = sweep_mc(&points, MonteCarlo::new(5, 1), |_, _, rng| {
            rng.random::<u64>()
        });
        assert_eq!(a[0].1, b[0].1);
        assert_ne!(a[0].1, a[1].1);
    }
}
