//! OxRAM model parameters and stochastic instance variations.

pub use oxterm_mc::dist::standard_normal;
use rand::Rng;

use crate::RramError;

/// Compact-model parameter card for a TiN/Ti/HfO2/TiN OxRAM cell.
///
/// Defaults come from [`OxramParams::calibrated`], which was fitted (via
/// [`crate::calib::calibrate`]) against the paper's published Table 2 / Fig 10
/// / Fig 13 anchors — see `DESIGN.md` §4.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OxramParams {
    // --- Conduction ---
    /// Filament conductance at `ρ = 1` (S); sets the LRS resistance.
    pub g_on: f64,
    /// Super-linearity voltage of filament conduction (V).
    pub v_shape: f64,
    /// Hopping background current prefactor (A).
    pub i_leak: f64,
    /// Hopping background sinh voltage (V).
    pub v_hop: f64,
    // --- SET dynamics ---
    /// SET time prefactor (s).
    pub tau_set0: f64,
    /// SET exponential voltage scale (V).
    pub v_set: f64,
    /// Forming barrier: growth sees an extra voltage barrier
    /// `v_form_barrier·(1 − ρ/ρ_formed)₊`, so virgin cells (`ρ ≈ 0`) switch
    /// only at forming-level voltages while formed cells SET normally.
    pub v_form_barrier: f64,
    /// Filament fraction above which the forming barrier has fully
    /// collapsed.
    pub rho_formed: f64,
    /// SET switching threshold (V): below this cell voltage the filament
    /// does not grow at all. Real devices show no switching for ~years at
    /// read biases; a pure exponential rate law would leak state on every
    /// read or post-termination relaxation.
    pub v_set_floor: f64,
    /// RESET switching threshold (V): below this magnitude the filament
    /// does not dissolve.
    pub v_rst_floor: f64,
    /// Exponent damping the transfer coefficient's effect on the SET rate
    /// (`α_eff = α^w`). Real SET is an abrupt self-accelerating transition
    /// whose completion is compliance-defined and largely insensitive to
    /// rate variations — this is what keeps the paper's Fig 3 LRS
    /// distribution tight while the HRS distribution spreads.
    pub alpha_set_weight: f64,
    // --- RESET dynamics ---
    /// RESET time prefactor (s).
    pub tau_rst0: f64,
    /// RESET exponential voltage scale (V).
    pub v_rst: f64,
    /// Dissolution tail exponent: `dρ/dt ∝ −ρ^(1+β)`.
    pub beta_rst: f64,
    /// Joule-heating acceleration current (A): the dissolution rate is
    /// multiplied by `1 + (I/i_joule)²`, producing the abrupt initial
    /// RESET phase (the LRS current collapses almost immediately, so the
    /// energy is dominated by the near-reference tail — the paper's
    /// 25 pJ/cell average with a 150 pJ worst case at 6 µA).
    pub i_joule: f64,
    // --- Variability (1σ, relative) ---
    /// Cycle-to-cycle σ on the transfer coefficient `α`.
    pub sigma_alpha_c2c: f64,
    /// Device-to-device σ on `α`.
    pub sigma_alpha_d2d: f64,
    /// Cycle-to-cycle σ on the oxide thickness `Lx`.
    pub sigma_lx_c2c: f64,
    /// Device-to-device σ on `Lx`.
    pub sigma_lx_d2d: f64,
}

impl OxramParams {
    /// The parameter card calibrated against the paper's published data.
    ///
    /// Fit targets: Table 2 (16 `IrefR → RHRS` anchors, 38 kΩ–267 kΩ),
    /// Fig 10 (152 kΩ / 2.6 µs at 10 µA), Fig 13b (4.01 µs max latency at
    /// 6 µA, 1.65 µs average).
    pub fn calibrated() -> Self {
        OxramParams {
            g_on: 9.6169e-5,
            v_shape: 1.751,
            i_leak: 1.0e-9,
            v_hop: 0.35,
            tau_set0: 1.2e-4,
            v_set: 0.16,
            v_form_barrier: 1.5,
            rho_formed: 0.08,
            v_set_floor: 0.40,
            v_rst_floor: 0.30,
            alpha_set_weight: 0.3,
            tau_rst0: 1.0466e-5,
            v_rst: 0.3891,
            beta_rst: 1.775,
            i_joule: 3.009e-5,
            sigma_alpha_c2c: 0.05,
            sigma_alpha_d2d: 0.05,
            sigma_lx_c2c: 0.05,
            sigma_lx_d2d: 0.05,
        }
    }

    /// Validates the card.
    ///
    /// # Errors
    ///
    /// Returns [`RramError::InvalidParameter`] for any non-positive scale
    /// parameter or out-of-range fraction.
    pub fn validate(&self) -> Result<(), RramError> {
        let positive = [
            ("g_on", self.g_on),
            ("v_shape", self.v_shape),
            ("i_leak", self.i_leak),
            ("v_hop", self.v_hop),
            ("tau_set0", self.tau_set0),
            ("v_set", self.v_set),
            ("tau_rst0", self.tau_rst0),
            ("v_rst", self.v_rst),
            ("i_joule", self.i_joule),
        ];
        for (name, value) in positive {
            if !(value.is_finite() && value > 0.0) {
                return Err(RramError::InvalidParameter { name, value });
            }
        }
        if !(0.0..=3.3).contains(&self.v_form_barrier) {
            return Err(RramError::InvalidParameter {
                name: "v_form_barrier",
                value: self.v_form_barrier,
            });
        }
        if !(self.rho_formed > 0.0 && self.rho_formed <= 0.5) {
            return Err(RramError::InvalidParameter {
                name: "rho_formed",
                value: self.rho_formed,
            });
        }
        if !(0.0..=1.0).contains(&self.v_set_floor) || !(0.0..=1.0).contains(&self.v_rst_floor) {
            return Err(RramError::InvalidParameter {
                name: "v_set_floor/v_rst_floor",
                value: self.v_set_floor,
            });
        }
        if !(0.0..=1.0).contains(&self.alpha_set_weight) {
            return Err(RramError::InvalidParameter {
                name: "alpha_set_weight",
                value: self.alpha_set_weight,
            });
        }
        if !(0.0..=3.0).contains(&self.beta_rst) {
            return Err(RramError::InvalidParameter {
                name: "beta_rst",
                value: self.beta_rst,
            });
        }
        for (name, value) in [
            ("sigma_alpha_c2c", self.sigma_alpha_c2c),
            ("sigma_alpha_d2d", self.sigma_alpha_d2d),
            ("sigma_lx_c2c", self.sigma_lx_c2c),
            ("sigma_lx_d2d", self.sigma_lx_d2d),
        ] {
            if !(0.0..=0.5).contains(&value) {
                return Err(RramError::InvalidParameter { name, value });
            }
        }
        Ok(())
    }
}

impl Default for OxramParams {
    fn default() -> Self {
        OxramParams::calibrated()
    }
}

/// Multiplicative stochastic variation of one cell (or one cycle).
///
/// `alpha_factor` scales the exponent of the switching rates (transfer
/// coefficient `α`); `lx_factor` scales the oxide thickness, entering the
/// conduction (`G ∝ 1/Lx`) and the field term of the rates (`∝ 1/Lx`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceVariation {
    /// Transfer-coefficient multiplier (nominal 1.0).
    pub alpha_factor: f64,
    /// Oxide-thickness multiplier (nominal 1.0).
    pub lx_factor: f64,
}

impl Default for InstanceVariation {
    fn default() -> Self {
        InstanceVariation {
            alpha_factor: 1.0,
            lx_factor: 1.0,
        }
    }
}

impl InstanceVariation {
    /// Nominal (no variation).
    pub fn nominal() -> Self {
        Self::default()
    }

    /// Samples a device-to-device variation from the card's D2D sigmas.
    pub fn sample_d2d<R: Rng + ?Sized>(params: &OxramParams, rng: &mut R) -> Self {
        InstanceVariation {
            alpha_factor: lognormal(rng, params.sigma_alpha_d2d),
            lx_factor: lognormal(rng, params.sigma_lx_d2d),
        }
    }

    /// Samples a cycle-to-cycle variation from the card's C2C sigmas.
    pub fn sample_c2c<R: Rng + ?Sized>(params: &OxramParams, rng: &mut R) -> Self {
        InstanceVariation {
            alpha_factor: lognormal(rng, params.sigma_alpha_c2c),
            lx_factor: lognormal(rng, params.sigma_lx_c2c),
        }
    }

    /// Combines two variations (D2D ∘ C2C).
    pub fn combine(&self, other: &InstanceVariation) -> Self {
        InstanceVariation {
            alpha_factor: self.alpha_factor * other.alpha_factor,
            lx_factor: self.lx_factor * other.lx_factor,
        }
    }
}

/// A lognormal multiplier with median 1 and the given log-σ (for small σ
/// this is ≈ a relative σ), via Box–Muller.
fn lognormal<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> f64 {
    (standard_normal(rng) * sigma).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn calibrated_card_validates() {
        OxramParams::calibrated().validate().unwrap();
    }

    #[test]
    fn bad_cards_are_rejected() {
        let mut p = OxramParams::calibrated();
        p.g_on = 0.0;
        assert!(matches!(
            p.validate(),
            Err(RramError::InvalidParameter { name: "g_on", .. })
        ));
        let mut p = OxramParams::calibrated();
        p.beta_rst = -1.0;
        assert!(p.validate().is_err());
        let mut p = OxramParams::calibrated();
        p.sigma_lx_c2c = 0.9;
        assert!(p.validate().is_err());
    }

    #[test]
    fn standard_normal_moments() {
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| standard_normal(&mut rng)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / (n - 1) as f64;
        assert!(mean.abs() < 0.03, "mean = {mean}");
        assert!((var - 1.0).abs() < 0.05, "var = {var}");
    }

    #[test]
    fn variation_sampling_spreads() {
        let params = OxramParams::calibrated();
        let mut rng = StdRng::seed_from_u64(7);
        let vs: Vec<InstanceVariation> = (0..1000)
            .map(|_| InstanceVariation::sample_c2c(&params, &mut rng))
            .collect();
        let mean_alpha = vs.iter().map(|v| v.alpha_factor).sum::<f64>() / 1000.0;
        assert!((mean_alpha - 1.0).abs() < 0.02);
        assert!(vs.iter().any(|v| v.alpha_factor > 1.05));
        assert!(vs.iter().any(|v| v.alpha_factor < 0.95));
    }

    #[test]
    fn combine_multiplies() {
        let a = InstanceVariation {
            alpha_factor: 1.1,
            lx_factor: 0.9,
        };
        let b = InstanceVariation {
            alpha_factor: 2.0,
            lx_factor: 1.0,
        };
        let c = a.combine(&b);
        assert!((c.alpha_factor - 2.2).abs() < 1e-12);
        assert!((c.lx_factor - 0.9).abs() < 1e-12);
    }
}
