//! The host-speed reference: a fixed kernel of the benchmark's own, timed
//! between batches, whose CPU time tracks how fast the host runs this kind
//! of code at the moment.
//!
//! CPU time leaves out the time other tenants hold the host's cores, but
//! not how fast a core runs while this process holds it, and on a shared
//! host that drifts by tens of percent over minutes (shared caches, the
//! sibling hyperthread, clock speed). The end-to-end timings are therefore
//! scaled to a nominal host speed: a timing taken while the reference ran
//! at `k` times its nominal CPU time is divided by `k`.

use std::hint::black_box;

use crate::cpu;

/// Time steps of one reference pass.
const STEPS: usize = 20_000;
/// Newton-or-bisection iterations per divider solve.
const ROOT_ITERS: usize = 8;
/// The nominal CPU time of one pass, in seconds: its median on an Intel
/// Xeon 2-vCPU virtual machine (the host the bounds were set on).
pub const NOMINAL_PASS_S: f64 = 0.0136;
/// Reference CPU time run after each batch, as a share of the batch's.
pub const SHARE: f64 = 0.15;

/// One reference pass: a terminated-RESET-shaped loop with the instruction
/// mix of the device model's fast path (a divider solved by Newton steps
/// with a bisection fallback, `sinh`, `exp` and `powf`, data-dependent
/// branches), on constants of its own. It calls nothing from the
/// repository, so no change to the program moves it, and it always does the
/// same work.
fn pass(v_drive: f64) -> f64 {
    let (g_on, v_shape, i_leak, v_hop, r_series) = (1e-3, 0.6, 1e-7, 0.25, 3.6e3);
    let (tau0, v_rst, beta, dt) = (1e-3, 0.05, 0.7, 2e-9);
    let mut rho: f64 = 1.0;
    let mut acc = 0.0;
    for _ in 0..STEPS {
        let divider = |v: f64| {
            let s = v / v_shape;
            g_on * rho * rho * v * (1.0 + s * s) + i_leak * (v / v_hop).sinh()
                - (v_drive - v) / r_series
        };
        let (mut lo, mut hi, mut v) = (0.0, v_drive, 0.5 * v_drive);
        for _ in 0..ROOT_ITERS {
            let f = divider(v);
            if f > 0.0 {
                hi = v;
            } else {
                lo = v;
            }
            let slope = (divider(v + 1e-6) - f) / 1e-6;
            let next = v - f / slope;
            v = if next > lo && next < hi {
                next
            } else {
                0.5 * (lo + hi)
            };
        }
        let tau = tau0 * (-v / v_rst).exp();
        rho *= (-dt * rho.powf(beta) / tau).exp();
        if rho < 0.05 {
            rho = 1.0;
        }
        acc += v;
    }
    acc + rho
}

/// CPU seconds of one reference pass on the calling thread.
pub fn pass_cpu_s() -> f64 {
    let t = cpu::thread_s();
    black_box(pass(black_box(1.15)));
    cpu::thread_s() - t
}

/// Reference passes interleaved with the measured work.
#[derive(Debug, Default)]
pub struct Reference {
    passes: Vec<f64>,
}

impl Reference {
    /// Runs passes right after a batch that took `batch_cpu_s`, for
    /// [`SHARE`] of that time and at least one pass, and returns how much
    /// slower than nominal they ran (their median over
    /// [`NOMINAL_PASS_S`]): the host's speed while that batch ran.
    pub fn after_batch(&mut self, batch_cpu_s: f64) -> f64 {
        let from = self.passes.len();
        let mut spent = 0.0;
        while spent == 0.0 || spent < SHARE * batch_cpu_s {
            let s = pass_cpu_s();
            self.passes.push(s);
            spent += s;
        }
        crate::stats::median(&self.passes[from..]) / NOMINAL_PASS_S
    }

    /// The passes run so far.
    pub fn passes(&self) -> usize {
        self.passes.len()
    }

    /// How much slower than nominal the host ran over the whole run: the
    /// median of every pass over [`NOMINAL_PASS_S`].
    pub fn slowdown(&self) -> f64 {
        crate::stats::median(&self.passes) / NOMINAL_PASS_S
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_runs_its_share_after_each_batch() {
        let mut r = Reference::default();
        let k = r.after_batch(0.0);
        assert_eq!(r.passes(), 1);
        assert!(k > 0.1 && k < 10.0, "{k}");
        r.after_batch(20.0 * NOMINAL_PASS_S / SHARE);
        assert!(r.passes() > 5, "{}", r.passes());
        assert!(r.slowdown() > 0.1 && r.slowdown() < 10.0);
    }

    #[test]
    fn a_pass_repeats_its_result_and_restarts_its_state() {
        assert_eq!(pass(1.15).to_bits(), pass(1.15).to_bits());
        assert!(pass(1.15).is_finite());
    }
}
