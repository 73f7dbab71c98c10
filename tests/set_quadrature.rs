//! The fixed-width SET as a quadrature over the cell voltage.
//!
//! During a SET `ρ` only rises, so the cell voltage `v_c` only falls, and
//! the fast path computes the time and both energies as integrals over
//! `v_c` by a five-point Gauss–Legendre rule, ending where the time reaches
//! the width. Here the same integrals are summed by a 20-node rule on 64
//! panels per piece, written out from the public cell law, for the nominal
//! cell and 40 sampled Monte Carlo instances under six SETs: the paper's,
//! one whose 30 µA compliance engages mid-pulse, one at the 3 V rail, one
//! that saturates (30 µs at 1.5 V under 500 µA), and two from below
//! `ρ_formed`. The other tests pin a SET held below its rate threshold, one
//! that reaches the threshold mid-pulse, and the width check.
//!
//! This binary installs the global joule ledger (the cell energy is read
//! off it), so its tests take one lock and run one at a time.

use std::sync::{Mutex, MutexGuard, PoisonError};

use oxterm_mlc::program::{McVariability, ProgramConditions};
use oxterm_numerics::roots::{newton_bracketed, RootOptions};
use oxterm_rram::calib::{simulate_set, SetConditions, SetOutcome, RHO_MIN};
use oxterm_rram::model::CellLaw;
use oxterm_rram::params::{InstanceVariation, OxramParams};
use oxterm_rram::RramError;
use oxterm_telemetry::joule::{JouleLedger, Role};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// The bound on the relative error of `ln(1 − ρ_final)` and of each energy:
/// the worst error of the error-controlled stepper the quadrature replaced,
/// against the same fine rule.
const BOUND: f64 = 2.5e-4;
/// Sampled Monte Carlo instances besides the nominal cell.
const MC_INSTANCES: usize = 40;
/// The model's ceiling: below `1 − ρ = 1e-12` a SET saturates to `ρ = 1`.
const CEILING_GAP: f64 = 1e-12;
/// Panels per piece of the fine rule.
const PANELS: usize = 64;

static SERIAL: Mutex<()> = Mutex::new(());

/// A test's turn with the global joule ledger; it merges the thread's
/// observer shards before it unlocks.
struct Serial {
    _turn: MutexGuard<'static, ()>,
}

impl Drop for Serial {
    fn drop(&mut self) {
        oxterm_telemetry::flush_thread();
    }
}

fn serial() -> Serial {
    JouleLedger::install(JouleLedger::enabled());
    Serial {
        _turn: SERIAL.lock().unwrap_or_else(PoisonError::into_inner),
    }
}

/// The `n`-node Gauss–Legendre rule on `[−1, 1]`: `(node, weight)`, each
/// node by Newton's method on the Legendre polynomial `P_n`.
fn gauss_legendre(n: usize) -> Vec<(f64, f64)> {
    // `(P_n(x), P_n'(x))` by the three-term recurrence.
    let legendre = |x: f64| {
        let (mut p0, mut p1) = (1.0, x);
        for j in 2..=n {
            let j = j as f64;
            (p0, p1) = (p1, ((2.0 * j - 1.0) * x * p1 - (j - 1.0) * p0) / j);
        }
        (p1, n as f64 * (x * p1 - p0) / (x * x - 1.0))
    };
    (0..n)
        .map(|k| {
            let mut x = (std::f64::consts::PI * (k as f64 + 0.75) / (n as f64 + 0.5)).cos();
            for _ in 0..100 {
                let (p, dp) = legendre(x);
                x -= p / dp;
                if (p / dp).abs() < 1e-16 {
                    break;
                }
            }
            let dp = legendre(x).1;
            (x, 2.0 / ((1.0 - x * x) * dp * dp))
        })
        .collect()
}

/// One SET of one cell, written out from the public cell law.
struct Set {
    law: CellLaw,
    cond: SetConditions,
    rule: Vec<(f64, f64)>,
}

impl Set {
    fn new(p: &OxramParams, inst: &InstanceVariation, cond: SetConditions) -> Self {
        Set {
            law: CellLaw::new(p, inst),
            cond,
            rule: gauss_legendre(20),
        }
    }

    /// The current the series path sets at cell voltage `v`, up to the
    /// compliance, and how much it falls per volt.
    fn series(&self, v: f64) -> (f64, f64) {
        let i = (self.cond.v_drive - v) / self.cond.r_series;
        if i > self.cond.i_compliance {
            (self.cond.i_compliance, 0.0)
        } else {
            (i, 1.0 / self.cond.r_series)
        }
    }

    /// The state the cell is in at cell voltage `v`.
    fn state(&self, v: f64) -> f64 {
        self.law.rho_at(v, self.series(v).0)
    }

    /// The cell voltage at state `rho`.
    fn voltage(&self, rho: f64) -> f64 {
        let fdf = |v: f64| {
            let (i, di) = self.law.current_and_slope(v, rho);
            let (i_set, di_set) = self.series(v);
            (i - i_set, di + di_set)
        };
        newton_bracketed(
            fdf,
            0.0,
            self.cond.v_drive,
            f64::NAN,
            RootOptions::default(),
        )
        .expect("the divider brackets its root")
    }

    /// `dv_c/dt` and the integrands `1/v̇`, `v_drive·i/v̇` and `v·i/v̇` at
    /// cell voltage `v`. The circuit holds `I(v_c, ρ) = i` while `ρ` rises
    /// at `(1 − ρ)·set_rate`.
    fn integrands(&self, v: f64) -> (f64, [f64; 3]) {
        let (i, di_series) = self.series(v);
        let (rho2, di_dv, di_drho2) = self.law.rho2_and_slopes(v, i);
        let rho = rho2.sqrt();
        let rate = self.law.set_rate(v, rho);
        let v_dot = -2.0 * rho * di_drho2 * (1.0 - rho) * rate / (di_dv + di_series);
        (
            v_dot,
            [1.0 / v_dot, self.cond.v_drive * i / v_dot, v * i / v_dot],
        )
    }

    /// The time, driver energy and cell energy from the start down to `v`,
    /// by the 20-node rule on `panels` panels per piece. Pieces split at
    /// the compliance kink and at `ρ_formed`'s voltage; the panels of a
    /// piece are uniform in `ln(1 − ρ)` (in `ln ρ` below `ρ_formed`).
    fn fine(&self, rho_formed: f64, v: f64, panels: usize) -> [f64; 3] {
        let v0 = self.voltage(self.cond.rho_start);
        let mut cuts = vec![v0];
        let kink = self.cond.v_drive - self.cond.i_compliance * self.cond.r_series;
        let formed = if self.cond.rho_start < rho_formed {
            self.voltage(rho_formed)
        } else {
            f64::NAN
        };
        let mut inner: Vec<f64> = [kink, formed]
            .into_iter()
            .filter(|&s| s < v0 && s > v)
            .collect();
        inner.sort_by(|a, b| b.total_cmp(a));
        cuts.extend(inner);
        cuts.push(v);
        let mut sum = [0.0; 3];
        for piece in cuts.windows(2) {
            let (va, vb) = (piece[0], piece[1]);
            let (ra, rb) = (self.state(va), self.state(vb));
            let below = rb <= rho_formed * (1.0 + 1e-12);
            let u = |r: f64| if below { r.ln() } else { (1.0 - r).ln() };
            let r_of = |u: f64| if below { u.exp() } else { 1.0 - u.exp() };
            let (ua, ub) = (u(ra), u(rb));
            let end = |j: usize| match j {
                0 => va,
                j if j == panels => vb,
                j => self.voltage(r_of(ua + (ub - ua) * j as f64 / panels as f64)),
            };
            for j in 0..panels {
                let (a, b) = (end(j), end(j + 1));
                let (mid, half) = (0.5 * (a + b), 0.5 * (b - a));
                for &(x, w) in &self.rule {
                    let f = self.integrands(mid + half * x).1;
                    for q in 0..3 {
                        sum[q] += w * half * f[q];
                    }
                }
            }
        }
        sum
    }

    /// The fine rule's outcome: the final state, and the driver and cell
    /// energies. The end voltage is Newton's from `v_guess`; a cell that
    /// reaches the ceiling or `v_set_floor` first holds there.
    fn reference(&self, p: &OxramParams, v_guess: f64) -> (f64, [f64; 2]) {
        let width = self.cond.width;
        let held = |v: f64, rho: f64, sum: [f64; 3]| {
            let i = self.series(v).0;
            let dt = width - sum[0];
            (
                rho,
                [sum[1] + self.cond.v_drive * i * dt, sum[2] + v * i * dt],
            )
        };
        // The path stops at whichever it meets first.
        let v_ceiling = self.voltage(1.0 - CEILING_GAP);
        let (v_stop, rho_stop) = if v_ceiling > p.v_set_floor {
            (v_ceiling, 1.0)
        } else {
            (p.v_set_floor, self.state(p.v_set_floor))
        };
        if v_stop < self.voltage(self.cond.rho_start) {
            let sum = self.fine(p.rho_formed, v_stop, PANELS);
            if sum[0] <= width {
                return held(v_stop, rho_stop, sum);
            }
        }
        // Newton's method on the time, to its tolerance or to where the
        // voltage stops moving (a SET that barely moves resolves its time
        // only to the voltage's rounding).
        let mut v = v_guess;
        for _ in 0..20 {
            let sum = self.fine(p.rho_formed, v, PANELS);
            let next = v - (sum[0] - width) * self.integrands(v).0;
            if (sum[0] / width - 1.0).abs() < 1e-13 || next == v {
                return (self.state(v), [sum[1], sum[2]]);
            }
            v = next;
        }
        panic!("the fine rule's end voltage did not converge");
    }
}

/// `work`'s result, and the cell energy it added to the joule ledger.
fn cell_energy<T>(work: impl FnOnce() -> T) -> (T, f64) {
    let cell = || {
        JouleLedger::global()
            .snapshot()
            .roles
            .iter()
            .find(|r| r.role == Role::RramCell)
            .map_or(0.0, |r| r.total_j())
    };
    let before = cell();
    let out = work();
    (out, cell() - before)
}

/// The nominal cell, then `MC_INSTANCES` sampled ones.
fn instances(p: &OxramParams) -> Vec<InstanceVariation> {
    let cond = ProgramConditions::paper();
    let mut rng = StdRng::seed_from_u64(0x5E70);
    let var = McVariability::default();
    std::iter::once(InstanceVariation::nominal())
        .chain((0..MC_INSTANCES).map(|_| var.sample(p, &cond, &mut rng).0))
        .collect()
}

/// The six SETs each instance runs, by name.
fn sets() -> Vec<(&'static str, SetConditions)> {
    let paper = SetConditions::paper_defaults();
    vec![
        ("paper", paper),
        (
            "30 µA compliance",
            SetConditions {
                i_compliance: 30e-6,
                ..paper
            },
        ),
        (
            "3 V",
            SetConditions {
                v_drive: 3.0,
                ..paper
            },
        ),
        (
            "saturating",
            SetConditions {
                v_drive: 1.5,
                i_compliance: 500e-6,
                width: 30e-6,
                ..paper
            },
        ),
        (
            "from ρ = 0.05",
            SetConditions {
                rho_start: 0.05,
                ..paper
            },
        ),
        (
            "from RHO_MIN",
            SetConditions {
                rho_start: RHO_MIN,
                ..paper
            },
        ),
    ]
}

/// The relative errors of the kernel's `ln(1 − ρ_final)`, driver energy and
/// cell energy against the fine rule; a saturated state must be exactly 1
/// in both.
fn errors(set: &Set, p: &OxramParams, out: &SetOutcome, e_cell: f64) -> [f64; 3] {
    let v_guess = if out.rho_final < 1.0 {
        set.voltage(out.rho_final)
    } else {
        f64::NAN
    };
    let (rho, [e_drive, e_cell_ref]) = set.reference(p, v_guess);
    let rel = |got: f64, want: f64| (got / want - 1.0).abs();
    let state = if rho == 1.0 || out.rho_final == 1.0 {
        assert_eq!(out.rho_final, rho, "a saturated state is exactly 1");
        0.0
    } else {
        rel((1.0 - out.rho_final).ln(), (1.0 - rho).ln())
    };
    [state, rel(out.energy_j, e_drive), rel(e_cell, e_cell_ref)]
}

#[test]
fn the_fine_rule_is_converged() {
    let _serial = serial();
    let rule = gauss_legendre(20);
    let total: f64 = rule.iter().map(|&(_, w)| w).sum();
    assert!((total - 2.0).abs() < 1e-14, "weights sum to {total}");
    // On the nominal cell, for each SET that ends mid-path, halving the
    // panels moves no integral by more than a hundredth of the bound.
    let p = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    for (name, cond) in sets() {
        let out = simulate_set(&p, &inst, &cond).unwrap();
        if out.rho_final == 1.0 {
            continue;
        }
        let set = Set::new(&p, &inst, cond);
        let v = set.voltage(out.rho_final);
        let [half, full] = [PANELS / 2, PANELS].map(|n| set.fine(p.rho_formed, v, n));
        for q in 0..3 {
            assert!(
                (half[q] / full[q] - 1.0).abs() < 1e-2 * BOUND,
                "{name}: {half:?} vs {full:?}"
            );
        }
    }
}

#[test]
fn quadrature_matches_the_fine_rule() {
    let _serial = serial();
    let p = OxramParams::calibrated();
    let names = ["ln(1 − ρ)", "drive energy", "cell energy"];
    let mut worst = [0f64; 3];
    let mut saturated = 0;
    for (n, inst) in instances(&p).into_iter().enumerate() {
        for (name, cond) in sets() {
            let (out, e_cell) = cell_energy(|| simulate_set(&p, &inst, &cond));
            let out = out.expect("SET completes");
            saturated += usize::from(out.rho_final == 1.0);
            let err = errors(&Set::new(&p, &inst, cond), &p, &out, e_cell);
            for q in 0..3 {
                assert!(
                    err[q] <= BOUND,
                    "instance {n}, {name} SET, {}: error {:.2e} ({out:?})",
                    names[q],
                    err[q]
                );
                worst[q] = worst[q].max(err[q]);
            }
        }
    }
    // Every instance saturates under the saturating SET.
    assert_eq!(saturated, MC_INSTANCES + 1);
    println!("worst relative error (ln(1 − ρ), drive energy, cell energy): {worst:?}");
}

#[test]
fn a_set_reaching_its_rate_threshold_holds_there() {
    let _serial = serial();
    let p = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    // At 0.5 V with no compliance to speak of the cell starts above
    // `v_set_floor` (0.4 V) and falls below it as the filament grows: the
    // state then holds for the rest of the 1 ms pulse.
    let cond = SetConditions {
        v_drive: 0.5,
        i_compliance: 1.0,
        width: 1e-3,
        ..SetConditions::paper_defaults()
    };
    let set = Set::new(&p, &inst, cond);
    assert!(set.voltage(cond.rho_start) > p.v_set_floor);
    let (out, e_cell) = cell_energy(|| simulate_set(&p, &inst, &cond));
    let out = out.unwrap();
    assert!(
        (out.rho_final / set.state(p.v_set_floor) - 1.0).abs() < 1e-12,
        "{out:?}"
    );
    for (q, err) in errors(&set, &p, &out, e_cell).into_iter().enumerate() {
        assert!(err <= BOUND, "output {q}: error {err:.2e}");
    }
}

#[test]
fn a_set_below_its_rate_threshold_holds_its_state() {
    let _serial = serial();
    let p = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    // At 0.3 V the cell never reaches `v_set_floor`: the state stays and
    // the driver delivers the start current for the whole width.
    let cond = SetConditions {
        v_drive: 0.3,
        ..SetConditions::paper_defaults()
    };
    let set = Set::new(&p, &inst, cond);
    let i0 = set.series(set.voltage(cond.rho_start)).0;
    let out = simulate_set(&p, &inst, &cond).unwrap();
    assert_eq!(out.rho_final, cond.rho_start);
    let e_held = cond.v_drive * i0 * cond.width;
    assert!((out.energy_j / e_held - 1.0).abs() < 1e-12, "{out:?}");
}

#[test]
fn a_width_not_finite_and_positive_is_invalid() {
    let _serial = serial();
    let p = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    for width in [0.0, -1e-9, f64::NAN, f64::INFINITY] {
        let cond = SetConditions {
            width,
            ..SetConditions::paper_defaults()
        };
        assert!(
            matches!(
                simulate_set(&p, &inst, &cond),
                Err(RramError::InvalidParameter { name: "width", .. })
            ),
            "width {width}"
        );
    }
}
