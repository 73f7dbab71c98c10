//! Pure compact-model physics: conduction law and state dynamics.
//!
//! All functions here are deterministic given a parameter card and an
//! [`InstanceVariation`]; stochasticity enters only through the sampled
//! variation factors. Voltages are signed with the SET convention: positive
//! `v` (TE above BE) grows the filament, negative `v` dissolves it.

use oxterm_telemetry::{CounterId, Telemetry};

use crate::params::{InstanceVariation, OxramParams};

/// Largest sinh/exp argument before linear continuation (overflow guard).
const ARG_MAX: f64 = 40.0;

/// `ln 1e-12`: the floor of the RESET shape factor `ρ^β`, in the log.
const LN_SHAPE_FLOOR: f64 = -27.631_021_115_928_547;

/// Largest Joule-heating factor `1 + (I/i_joule)²` the RESET rate uses.
const JOULE_CLAMP: f64 = 1e6;

/// The smallest `1 − ρ` the SET dynamics resolve: [`advance_state`]
/// saturates to `ρ = 1` below it.
pub(crate) const RHO_CEILING_GAP: f64 = 1e-12;

/// `(sinh x, cosh x)` from one exponential, accurate to a few ulps down to
/// `x → 0`; past `|x| > ARG_MAX` sinh continues linearly and cosh holds.
fn sinh_cosh(x: f64) -> (f64, f64) {
    let a = x.abs();
    let (sinh, cosh) = if a >= 0.5 {
        if a > ARG_MAX {
            let e = 0.5 * ARG_MAX.exp();
            return (x.signum() * e * (1.0 + (a - ARG_MAX)), e);
        }
        // e^a − e^−a loses at most a couple of bits for a ≥ 0.5.
        let e = a.exp();
        let r = 1.0 / e;
        (0.5 * (e - r), 0.5 * (e + r))
    } else {
        // Near zero, with t = e^a − 1: 2·sinh a = t + t/(t + 1), which does
        // not cancel.
        let t = a.exp_m1();
        let r = 1.0 / (t + 1.0);
        (0.5 * (t + t * r), 0.5 * (t + 1.0 + r))
    };
    (sinh.copysign(x), cosh)
}

/// The conduction and rate laws of one cell instance, with the instance
/// constants hoisted: built once per pulse from the card and the variation,
/// then evaluated at every integrator stage. Every free function of this
/// module delegates to it, so each formula is written once.
///
/// * Conduction: `I(v, ρ) = (g_on/lx)·ρ²·v·(1 + (v/v_shape)²) +
///   i_leak·sinh(v/v_hop)` and its slope, from one exponential.
/// * RESET: `d(ln ρ)/dt = −ρ^β·(1 + (I/i_joule)²)/τ_rst(v)` with
///   `τ_rst(v) = τ_rst0·exp(−(α/lx)·v/v_rst)`, the shape factor floored at
///   `1e-12` and the Joule factor clamped at `1e6`.
/// * SET: `d(ln(1 − ρ))/dt = −1/τ_set(v, ρ)` with
///   `τ_set = τ_set0·exp(−(α/lx)^w·(v − barrier(ρ))/v_set)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CellLaw {
    /// `g_on/lx` (S).
    g: f64,
    /// `1/v_shape²` (1/V²).
    inv_v_shape2: f64,
    /// `i_leak` (A).
    i_leak: f64,
    /// `1/v_hop` (1/V).
    inv_v_hop: f64,
    /// `i_leak/v_hop` (S).
    g_leak: f64,
    /// `(α/lx)/v_rst` (1/V).
    rst_per_v: f64,
    /// `1/τ_rst0` (1/s).
    inv_tau_rst0: f64,
    /// `β`.
    beta_rst: f64,
    /// `1/i_joule` (1/A).
    inv_i_joule: f64,
    /// `(α/lx)^w/v_set` (1/V).
    set_per_v: f64,
    /// `1/τ_set0` (1/s).
    inv_tau_set0: f64,
    /// Forming barrier height (V).
    v_form_barrier: f64,
    /// `1/ρ_formed`.
    inv_rho_formed: f64,
    /// SET switching threshold (V).
    v_set_floor: f64,
    /// RESET switching threshold (V).
    v_rst_floor: f64,
}

impl CellLaw {
    /// The laws of the cell `inst` of card `params`.
    #[inline]
    pub fn new(params: &OxramParams, inst: &InstanceVariation) -> Self {
        let a = inst.alpha_factor / inst.lx_factor;
        CellLaw {
            g: params.g_on / inst.lx_factor,
            inv_v_shape2: 1.0 / (params.v_shape * params.v_shape),
            i_leak: params.i_leak,
            inv_v_hop: 1.0 / params.v_hop,
            g_leak: params.i_leak / params.v_hop,
            rst_per_v: a / params.v_rst,
            inv_tau_rst0: 1.0 / params.tau_rst0,
            beta_rst: params.beta_rst,
            inv_i_joule: 1.0 / params.i_joule,
            set_per_v: a.powf(params.alpha_set_weight) / params.v_set,
            inv_tau_set0: 1.0 / params.tau_set0,
            v_form_barrier: params.v_form_barrier,
            inv_rho_formed: 1.0 / params.rho_formed,
            v_set_floor: params.v_set_floor,
            v_rst_floor: params.v_rst_floor,
        }
    }

    /// The cell current `I(v, ρ)` and its slope `∂I/∂v`: an odd and an even
    /// function of `v`, so the same law serves both polarities.
    #[inline]
    pub fn current_and_slope(&self, v: f64, rho: f64) -> (f64, f64) {
        let g = self.g * rho * rho;
        let s2 = v * v * self.inv_v_shape2;
        let (sinh, cosh) = sinh_cosh(v * self.inv_v_hop);
        (
            g * v * (1.0 + s2) + self.i_leak * sinh,
            g * (1.0 + 3.0 * s2) + self.g_leak * cosh,
        )
    }

    /// The cell current `I(v, ρ)`.
    pub fn current(&self, v: f64, rho: f64) -> f64 {
        self.current_and_slope(v, rho).0
    }

    /// The read resistance `v_read/I(v_read, ρ)` (Ω).
    pub fn read_resistance(&self, rho: f64, v_read: f64) -> f64 {
        v_read / self.current(v_read, rho)
    }

    /// The state at which the cell draws `i` at `v > 0` (`0` when the
    /// hopping background alone exceeds `i`, at most `1`).
    pub fn rho_at(&self, v: f64, i: f64) -> f64 {
        self.rho2_and_slopes(v, i).0.max(0.0).sqrt().min(1.0)
    }

    /// The state at which the cell draws `i` at `v > 0`, as `ρ²`, with the
    /// current's slopes there: `(ρ², ∂I/∂v, ∂I/∂(ρ²))`. The conduction law
    /// is linear in `ρ²`, so this is closed form, from one exponential;
    /// `ρ² < 0` when the hopping background alone draws more than `i`.
    #[inline]
    pub fn rho2_and_slopes(&self, v: f64, i: f64) -> (f64, f64, f64) {
        self.rho2_and_slopes_of(v, i, sinh_cosh(v * self.inv_v_hop))
    }

    /// `v/v_hop`: the argument of the conduction law's exponential.
    #[inline]
    pub(crate) fn hop_arg(&self, v: f64) -> f64 {
        v * self.inv_v_hop
    }

    /// [`CellLaw::rho2_and_slopes`] given `(e, r)`, `exp(v/v_hop)` and its
    /// reciprocal computed elsewhere: a quadrature panel gets them for all
    /// its nodes from fewer exponentials. They are used where
    /// [`sinh_cosh`] would take its `e − 1/e` branch
    /// (`0.5 ≤ v/v_hop ≤ ARG_MAX`); elsewhere the per-node form runs.
    #[inline]
    pub(crate) fn rho2_and_slopes_exp(
        &self,
        v: f64,
        i: f64,
        (e, r): (f64, f64),
    ) -> (f64, f64, f64) {
        let x = v * self.inv_v_hop;
        let sinh_cosh = if (0.5..=ARG_MAX).contains(&x) {
            (0.5 * (e - r), 0.5 * (e + r))
        } else {
            sinh_cosh(x)
        };
        self.rho2_and_slopes_of(v, i, sinh_cosh)
    }

    /// The conduction law's state and slopes at `v` drawing `i`, given
    /// `(sinh, cosh)` of `v/v_hop`.
    #[inline]
    fn rho2_and_slopes_of(&self, v: f64, i: f64, (sinh, cosh): (f64, f64)) -> (f64, f64, f64) {
        let s2 = v * v * self.inv_v_shape2;
        let per_rho2 = self.g * v * (1.0 + s2);
        // The reciprocal is ready early: no division between `v` and `ρ²`.
        let rho2 = (i - self.i_leak * sinh) * (1.0 / per_rho2);
        (
            rho2,
            self.g * rho2 * (1.0 + 3.0 * s2) + self.g_leak * cosh,
            per_rho2,
        )
    }

    /// RESET rate `−d(ln ρ)/dt` at cell-voltage magnitude `v > 0` drawing
    /// current `i = I(v, ρ)`, at state `ln ρ`; zero below the `v_rst_floor`
    /// threshold. Taking the solved current and `ln ρ` saves recomputing
    /// the one and a `powf` for `ρ^β`.
    pub fn reset_rate(&self, v: f64, i: f64, ln_rho: f64) -> f64 {
        if v < self.v_rst_floor {
            return 0.0;
        }
        self.reset_rate_clamped(v, i, ln_rho).0
    }

    /// Where the RESET rate law changes form above its threshold voltage:
    /// the state `ρ²` below which the shape factor `ρ^β` is floored, and
    /// the current above which the Joule factor is clamped.
    pub fn reset_switch_points(&self) -> (f64, f64) {
        (
            (2.0 * LN_SHAPE_FLOOR / self.beta_rst).exp(),
            (JOULE_CLAMP - 1.0).sqrt() / self.inv_i_joule,
        )
    }

    /// The RESET rate without the threshold, and whether the Joule factor
    /// hit its clamp.
    fn reset_rate_clamped(&self, v: f64, i: f64, ln_rho: f64) -> (f64, bool) {
        let x = i * self.inv_i_joule;
        let joule = 1.0 + x * x;
        // ρ^β·exp(v·(α/lx)/v_rst) as one exponential.
        let shape_field = (self.beta_rst * ln_rho).max(LN_SHAPE_FLOOR) + self.rst_per_v * v;
        (
            self.inv_tau_rst0 * shape_field.exp() * joule.min(JOULE_CLAMP),
            joule > JOULE_CLAMP,
        )
    }

    /// Where the SET rate law changes form: the state `ρ_formed` at which
    /// the forming barrier vanishes, and the threshold voltage `v_set_floor`
    /// below which the rate is zero.
    pub(crate) fn set_switch_points(&self) -> (f64, f64) {
        (1.0 / self.inv_rho_formed, self.v_set_floor)
    }

    /// How fast the SET rate grows with the cell voltage above `ρ_formed`,
    /// `∂ ln(set_rate)/∂v` (1/V).
    pub(crate) fn set_rate_gain(&self) -> f64 {
        self.set_per_v
    }

    /// How fast the RESET rate's field factor grows with the cell voltage,
    /// `∂ ln(reset_rate)/∂v` at a fixed state and current (1/V).
    pub(crate) fn reset_rate_gain(&self) -> f64 {
        self.rst_per_v
    }

    /// SET rate `−d(ln(1 − ρ))/dt` at cell voltage `v > 0` and state `ρ`;
    /// zero below the `v_set_floor` threshold.
    pub fn set_rate(&self, v: f64, rho: f64) -> f64 {
        if v < self.v_set_floor {
            return 0.0;
        }
        self.set_rate_unfloored(v, rho)
    }

    /// [`CellLaw::set_rate`] given `e = exp(set_per_v·v)` computed
    /// elsewhere (a panel's nodes share exponentials), which it uses where
    /// the state is formed; elsewhere the per-node form runs.
    #[inline]
    pub(crate) fn set_rate_exp(&self, v: f64, rho: f64, e: f64) -> f64 {
        if v < self.v_set_floor || 1.0 - rho * self.inv_rho_formed > 0.0 {
            return self.set_rate(v, rho);
        }
        self.inv_tau_set0 * e
    }

    /// `1/τ_set(v, ρ)`: the SET rate without the threshold. Below
    /// `ρ_formed` the forming barrier reduces the effective overdrive.
    fn set_rate_unfloored(&self, v: f64, rho: f64) -> f64 {
        let unformed = 1.0 - rho * self.inv_rho_formed;
        // No barrier once formed: a branch with two exponentials, not one
        // of a selected argument, lets the formed one start before `ρ`.
        if unformed > 0.0 {
            return self.inv_tau_set0
                * (self.set_per_v * (v - self.v_form_barrier * unformed)).exp();
        }
        self.inv_tau_set0 * (self.set_per_v * v).exp()
    }
}

/// Cell current at voltage `v` (TE relative to BE) and filament state `ρ`.
///
/// `I(v, ρ) = (g_on/lx)·ρ²·v·(1 + (v/v_shape)²) + i_leak·sinh(v/v_hop)` —
/// an odd function of `v`, so the same law serves both polarities.
pub fn cell_current(params: &OxramParams, inst: &InstanceVariation, v: f64, rho: f64) -> f64 {
    CellLaw::new(params, inst).current(v, rho)
}

/// `∂I/∂v` at the same operating point (for Newton linearization).
pub fn cell_conductance(params: &OxramParams, inst: &InstanceVariation, v: f64, rho: f64) -> f64 {
    CellLaw::new(params, inst).current_and_slope(v, rho).1
}

/// Low-field read resistance at `v_read` (Ω).
///
/// # Panics
///
/// Panics if `v_read` is not strictly positive.
pub fn read_resistance(
    params: &OxramParams,
    inst: &InstanceVariation,
    rho: f64,
    v_read: f64,
) -> f64 {
    assert!(v_read > 0.0, "read voltage must be positive");
    CellLaw::new(params, inst).read_resistance(rho, v_read)
}

/// Advances the filament state by `dt` at constant cell voltage `v`.
///
/// Internally sub-steps so that no sub-step changes `ρ` by more than ~2 %,
/// using closed-form exponential updates with rate factors frozen per
/// sub-step — unconditionally stable for any `dt`.
pub fn advance_state(
    params: &OxramParams,
    inst: &InstanceVariation,
    mut rho: f64,
    v: f64,
    dt: f64,
) -> f64 {
    if dt <= 0.0 {
        return rho;
    }
    if v > 1e-9 {
        // Below the switching threshold the state holds (read-disturb
        // immunity; see `v_set_floor`).
        if v < params.v_set_floor {
            return rho;
        }
        let law = CellLaw::new(params, inst);
        // SET / forming direction: dρ/dt = (1 − ρ)/τ(v, ρ); the forming
        // barrier inside τ makes growth regenerative out of the virgin
        // state.
        let mut remaining = dt;
        while remaining > 0.0 {
            let tau_eff = 1.0 / law.set_rate_unfloored(v, rho);
            // In the barrier regime sub-step finely: the barrier collapses
            // quickly as ρ grows, so bound Δρ ≈ 0.2 % per sub-step there.
            let frac = if rho < params.rho_formed { 0.002 } else { 0.02 };
            let sub = (frac * tau_eff).min(remaining).max(remaining * 1e-9);
            rho = 1.0 - (1.0 - rho) * (-sub / tau_eff).exp();
            remaining -= sub;
            if 1.0 - rho < RHO_CEILING_GAP {
                Telemetry::global().tally(CounterId::RhoCeilingHits, 1);
                return 1.0;
            }
        }
        rho
    } else if v < -1e-9 {
        if -v < params.v_rst_floor {
            return rho;
        }
        let law = CellLaw::new(params, inst);
        // RESET direction: dρ/dt = −ρ^(1+β)·(1 + (I/I_joule)²)/τ.
        // The current-squared term is the Joule-heating acceleration that
        // collapses the initial LRS current almost instantly.
        let mut remaining = dt;
        // Clamp events are accumulated locally and flushed once per call so
        // a saturated sub-step loop costs no atomics until it exits.
        let mut joule_clamps = 0u64;
        let mut floored = false;
        while remaining > 0.0 {
            let (rate, clamped) = law.reset_rate_clamped(-v, law.current(-v, rho), rho.ln());
            let tau_eff = 1.0 / rate;
            joule_clamps += u64::from(clamped);
            let sub = (0.02 * tau_eff).min(remaining).max(remaining * 1e-9);
            rho *= (-sub / tau_eff).exp();
            remaining -= sub;
            if rho < 1e-9 {
                rho = 0.0;
                floored = true;
                break;
            }
        }
        let tel = Telemetry::global();
        tel.tally(CounterId::JouleClamps, joule_clamps);
        tel.tally(CounterId::RhoFloorHits, u64::from(floored));
        rho
    } else {
        rho // retention dynamics are out of scope; state holds at zero bias
    }
}

/// The filament state that reads as resistance `r_ohms` at `v_read`
/// (inverse of [`read_resistance`]; `0` when the leakage alone draws more).
///
/// Useful for preconditioning cells into a known state.
pub fn rho_for_resistance(
    params: &OxramParams,
    inst: &InstanceVariation,
    r_ohms: f64,
    v_read: f64,
) -> f64 {
    CellLaw::new(params, inst).rho_at(v_read, v_read / r_ohms)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::{InstanceVariation, OxramParams};

    fn nominal() -> (OxramParams, InstanceVariation) {
        (OxramParams::calibrated(), InstanceVariation::nominal())
    }

    #[test]
    fn current_is_odd_in_voltage() {
        let (p, i) = nominal();
        for v in [0.1, 0.5, 1.2] {
            let fwd = cell_current(&p, &i, v, 0.5);
            let rev = cell_current(&p, &i, -v, 0.5);
            assert!((fwd + rev).abs() < 1e-18 * fwd.abs().max(1.0));
        }
    }

    #[test]
    fn conductance_matches_finite_difference() {
        let (p, i) = nominal();
        let h = 1e-7;
        for v in [-1.0, -0.3, 0.05, 0.8] {
            for rho in [0.05, 0.3, 1.0] {
                let g = cell_conductance(&p, &i, v, rho);
                let g_fd = (cell_current(&p, &i, v + h, rho) - cell_current(&p, &i, v - h, rho))
                    / (2.0 * h);
                assert!(
                    (g - g_fd).abs() < 1e-4 * g_fd.abs().max(1e-12),
                    "v={v} rho={rho}: {g} vs {g_fd}"
                );
            }
        }
    }

    /// Nominal plus sampled D2D ∘ C2C instances.
    fn instances(p: &OxramParams) -> Vec<InstanceVariation> {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mut rng = StdRng::seed_from_u64(11);
        let mut out = vec![InstanceVariation::nominal()];
        for _ in 0..24 {
            let d2d = InstanceVariation::sample_d2d(p, &mut rng);
            out.push(d2d.combine(&InstanceVariation::sample_c2c(p, &mut rng)));
        }
        out
    }

    fn rel(a: f64, b: f64) -> f64 {
        if a == b {
            0.0
        } else {
            (a - b).abs() / b.abs()
        }
    }

    #[test]
    fn cell_law_matches_the_sinh_cosh_form() {
        let p = OxramParams::calibrated();
        let mut volts = vec![1e-12, 1e-9, 1e-6, 1e-4, 1e-3, 0.01, 0.05];
        volts.extend((1..=33).map(|k| 0.1 * f64::from(k)));
        for inst in instances(&p) {
            let law = CellLaw::new(&p, &inst);
            for &v in volts.iter().chain(&[15.0, 20.0]) {
                for v in [v, -v] {
                    for rho in [0.0, 1e-6, 0.05, 0.5, 1.0] {
                        let g = p.g_on * rho * rho / inst.lx_factor;
                        let s = v / p.v_shape;
                        let x = v / p.v_hop;
                        let (sinh, cosh) = if x.abs() <= ARG_MAX {
                            (x.sinh(), x.cosh())
                        } else {
                            let e = ARG_MAX.exp() * 0.5;
                            (x.signum() * e * (1.0 + (x.abs() - ARG_MAX)), e)
                        };
                        let i_ref = g * v * (1.0 + s * s) + p.i_leak * sinh;
                        let g_ref = g * (1.0 + 3.0 * s * s) + p.i_leak / p.v_hop * cosh;
                        let (i, slope) = law.current_and_slope(v, rho);
                        assert!(rel(i, i_ref) < 1e-14, "I({v}, {rho}): {i:e} vs {i_ref:e}");
                        assert!(
                            rel(slope, g_ref) < 1e-14,
                            "dI/dv({v}, {rho}): {slope:e} vs {g_ref:e}"
                        );
                        assert_eq!(cell_current(&p, &inst, v, rho), i);
                        assert_eq!(cell_conductance(&p, &inst, v, rho), slope);
                    }
                }
            }
        }
    }

    #[test]
    fn shared_exponential_entry_points_take_them_only_in_range() {
        // Given the exact exponential, the panel entry points are the
        // per-node laws bit for bit; outside the shared range (or below
        // `ρ_formed`, or below the SET threshold) they ignore it.
        let p = OxramParams::calibrated();
        for inst in instances(&p) {
            let law = CellLaw::new(&p, &inst);
            for v in [0.05, 0.17, 0.175, 0.2, 0.4, 0.8, 1.2, 14.0, 15.0] {
                let i = 0.5 * law.current(v, 0.5);
                let x = law.hop_arg(v);
                let want = law.rho2_and_slopes(v, i);
                if (0.5..=ARG_MAX).contains(&x) {
                    let e = x.exp();
                    assert_eq!(law.rho2_and_slopes_exp(v, i, (e, 1.0 / e)), want);
                } else {
                    assert_eq!(law.rho2_and_slopes_exp(v, i, (f64::NAN, f64::NAN)), want);
                }
                for rho in [0.01, p.rho_formed, 0.5, 1.0] {
                    let e = (law.set_rate_gain() * v).exp();
                    let shared = v >= p.v_set_floor && rho >= p.rho_formed;
                    let e = if shared { e } else { f64::NAN };
                    assert_eq!(
                        law.set_rate_exp(v, rho, e),
                        law.set_rate(v, rho),
                        "{v} {rho}"
                    );
                }
            }
        }
    }

    #[test]
    fn cell_law_rates_match_their_time_constant_form() {
        let p = OxramParams::calibrated();
        assert_eq!(LN_SHAPE_FLOOR, 1e-12f64.ln());
        for inst in instances(&p) {
            let law = CellLaw::new(&p, &inst);
            let a = inst.alpha_factor / inst.lx_factor;
            for v in [0.2, 0.45, 0.8, 1.2, 3.3] {
                for rho in [1e-6, 0.05, 0.5, 0.9, 1.0] {
                    // RESET: τ_eff = τ/(ρ^β·min(1 + (I/i_joule)², 1e6)).
                    let tau = p.tau_rst0 * (-a * v / p.v_rst).exp();
                    let i = law.current(v, rho);
                    let shape = rho.powf(p.beta_rst).max(1e-12);
                    let joule = (1.0 + (i / p.i_joule).powi(2)).min(1e6);
                    let want = if v < p.v_rst_floor {
                        0.0
                    } else {
                        shape * joule / tau
                    };
                    let got = law.reset_rate(v, i, rho.ln());
                    assert!(
                        rel(got, want) < 1e-13,
                        "reset({v}, {rho}): {got:e} vs {want:e}"
                    );
                    // SET: τ_set = τ_set0·exp(−(α/lx)^w·(v − barrier)/v_set).
                    let barrier = p.v_form_barrier * (1.0 - rho / p.rho_formed).max(0.0);
                    let a_set = a.powf(p.alpha_set_weight);
                    let tau = p.tau_set0 * (-a_set * (v - barrier) / p.v_set).exp();
                    let want = if v < p.v_set_floor { 0.0 } else { 1.0 / tau };
                    let got = law.set_rate(v, rho);
                    assert!(
                        rel(got, want) < 1e-13,
                        "set({v}, {rho}): {got:e} vs {want:e}"
                    );
                    assert!(rel(1.0 / law.set_rate_unfloored(v, rho), tau) < 1e-13);
                }
            }
        }
    }

    #[test]
    fn state_map_inverts_the_conduction_law() {
        // At the operating point of a RESET divider (1.1523 V through
        // 3.6131 kΩ) and of a compliance clamp at half its current, the
        // closed-form map gives back the state and the current's slopes.
        let (p, inst) = nominal();
        let law = CellLaw::new(&p, &inst);
        // The voltage at which the cell draws `target(v)` (bisection: the
        // cell current rises with `v`, the targets do not).
        let solve = |rho: f64, target: &dyn Fn(f64) -> f64| {
            let (mut lo, mut hi) = (0.0, 3.3);
            for _ in 0..200 {
                let mid = 0.5 * (lo + hi);
                if law.current(mid, rho) < target(mid) {
                    lo = mid;
                } else {
                    hi = mid;
                }
            }
            0.5 * (lo + hi)
        };
        let divider = |v: f64| (1.1523 - v) / 3.6131e3;
        for rho in [1e-3, 0.05, 0.5, 0.88, 1.0] {
            let v_div = solve(rho, &divider);
            let i_c = 0.5 * law.current(v_div, rho);
            for v in [v_div, solve(rho, &|_| i_c)] {
                let (i, slope) = law.current_and_slope(v, rho);
                let (rho2, di_dv, di_drho2) = law.rho2_and_slopes(v, i);
                assert!(
                    rel(rho2, rho * rho) < 1e-12,
                    "ρ {rho} at {v} V: ρ² {rho2:e}"
                );
                assert!(rel(di_dv, slope) < 1e-12, "ρ {rho} at {v} V: {di_dv:e}");
                let filament = i - law.current(v, 0.0);
                assert!(
                    rel(di_drho2 * rho * rho, filament) < 1e-12,
                    "ρ {rho} at {v} V"
                );
            }
        }
        // Along the divider line and under a fixed clamp, the state falls
        // strictly as the cell voltage rises, until it vanishes.
        for target in [&divider as &dyn Fn(f64) -> f64, &|_| 30e-6] {
            let mut prev = f64::INFINITY;
            let vanishes = (1..=400).any(|k| {
                let v = 0.01 * f64::from(k);
                let rho2 = law.rho2_and_slopes(v, target(v)).0;
                assert!(rho2 < prev, "ρ² {rho2:e} at {v} V after {prev:e}");
                prev = rho2;
                rho2 <= 0.0
            });
            assert!(vanishes, "the state never vanished: {prev:e}");
        }
    }

    #[test]
    fn lrs_resistance_is_kiloohm_scale() {
        let (p, i) = nominal();
        let r = read_resistance(&p, &i, 1.0, 0.3);
        assert!((3e3..3e4).contains(&r), "R_LRS = {r}");
    }

    #[test]
    fn hrs_increases_as_filament_shrinks() {
        let (p, i) = nominal();
        let mut prev = 0.0;
        for rho in [1.0, 0.5, 0.25, 0.1, 0.05] {
            let r = read_resistance(&p, &i, rho, 0.3);
            assert!(r > prev);
            prev = r;
        }
    }

    #[test]
    fn virgin_cell_resistance_is_huge() {
        let (p, i) = nominal();
        let r = read_resistance(&p, &i, 0.0, 0.3);
        assert!(r > 5e7, "virgin R = {r}");
    }

    #[test]
    fn reset_shrinks_and_set_grows() {
        let (p, i) = nominal();
        let rho0 = 0.8;
        let after_rst = advance_state(&p, &i, rho0, -1.2, 1e-6);
        assert!(after_rst < rho0);
        let after_set = advance_state(&p, &i, 0.2, 1.2, 1e-6);
        assert!(after_set > 0.2);
        let held = advance_state(&p, &i, 0.4, 0.0, 1.0);
        assert_eq!(held, 0.4);
    }

    #[test]
    fn set_completes_while_reset_tails() {
        let (p, i) = nominal();
        // The paper: SET ~100 ns while RESET tails out over µs. A formed
        // cell at the same |bias| must SET essentially completely in 200 ns
        // yet only partially RESET.
        let set = advance_state(&p, &i, 0.15, 1.2, 200e-9);
        assert!(set > 0.8, "set rho = {set}");
        let rst = advance_state(&p, &i, 1.0, -1.2, 200e-9);
        assert!(rst > 0.15, "reset rho = {rst} (tail too fast)");
        assert!(rst < 1.0);
    }

    #[test]
    fn formed_cell_tau_set_has_no_barrier() {
        // τ_set = 1/rate: the forming barrier slows a virgin cell's SET.
        let (p, i) = nominal();
        let law = CellLaw::new(&p, &i);
        let formed = 1.0 / law.set_rate_unfloored(1.2, 0.2);
        let virgin = 1.0 / law.set_rate_unfloored(1.2, 0.0);
        assert!(
            virgin > 1e3 * formed,
            "barrier too weak: {virgin} vs {formed}"
        );
    }

    #[test]
    fn advance_is_stable_for_large_steps() {
        let (p, i) = nominal();
        // One giant step vs many small steps must agree reasonably.
        let big = advance_state(&p, &i, 0.9, -1.3, 5e-6);
        let mut rho = 0.9;
        for _ in 0..5000 {
            rho = advance_state(&p, &i, rho, -1.3, 1e-9);
        }
        assert!((big - rho).abs() < 0.02, "big={big} small={rho}");
        assert!((0.0..=1.0).contains(&big));
    }

    #[test]
    fn virgin_cell_needs_forming_voltage() {
        let (p, i) = nominal();
        // At SET voltage a virgin cell barely moves in a SET-pulse time...
        let after_set_pulse = advance_state(&p, &i, 0.0, 1.2, 200e-9);
        assert!(after_set_pulse < 0.05, "rho = {after_set_pulse}");
        // ...but a forming pulse at 3.3 V switches it fully.
        let after_forming = advance_state(&p, &i, 0.0, 3.3, 10e-6);
        assert!(after_forming > 0.9, "rho = {after_forming}");
    }

    #[test]
    fn rho_for_resistance_round_trips() {
        let (p, i) = nominal();
        for target in [40e3, 100e3, 250e3] {
            let rho = rho_for_resistance(&p, &i, target, 0.3);
            let r = read_resistance(&p, &i, rho, 0.3);
            assert!((r - target).abs() / target < 0.02, "target {target}: {r}");
        }
    }

    #[test]
    fn variability_shifts_resistance() {
        let p = OxramParams::calibrated();
        let lo = InstanceVariation {
            alpha_factor: 1.0,
            lx_factor: 0.9,
        };
        let hi = InstanceVariation {
            alpha_factor: 1.0,
            lx_factor: 1.1,
        };
        let r_lo = read_resistance(&p, &lo, 0.3, 0.3);
        let r_hi = read_resistance(&p, &hi, 0.3, 0.3);
        assert!(r_hi > r_lo);
    }
}
