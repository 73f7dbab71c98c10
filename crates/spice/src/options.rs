//! Tolerances and analysis options.

/// Newton–Raphson and assembly tolerances shared by all analyses.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimOptions {
    /// Relative convergence tolerance.
    pub reltol: f64,
    /// Absolute voltage tolerance (V).
    pub vntol: f64,
    /// Absolute branch-current tolerance (A).
    pub abstol: f64,
    /// Maximum Newton iterations per solve.
    pub max_newton_iters: usize,
    /// Final shunt conductance from every node to ground (numerical aid).
    pub gmin: f64,
    /// Per-iteration clamp on node-voltage updates (V) — global damping.
    pub max_dv: f64,
}

impl Default for SimOptions {
    fn default() -> Self {
        SimOptions {
            reltol: 1e-3,
            vntol: 1e-6,
            abstol: 1e-12,
            max_newton_iters: 150,
            gmin: 1e-12,
            max_dv: 1.0,
        }
    }
}

/// Options for the DC operating-point analysis.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct OpOptions {
    /// Shared tolerances.
    pub sim: SimOptions,
}

/// Options for transient analysis.
#[derive(Debug, Clone, PartialEq)]
pub struct TranOptions {
    /// Shared tolerances.
    pub sim: SimOptions,
    /// End time (s).
    pub t_stop: f64,
    /// Initial step (s); defaults to `t_stop / 1000`.
    pub dt_init: Option<f64>,
    /// Smallest step before the run is abandoned (s).
    pub dt_min: f64,
    /// Largest allowed step (s); defaults to `t_stop / 50`.
    pub dt_max: Option<f64>,
    /// Hard cap on accepted steps.
    pub max_steps: usize,
    /// Largest node-voltage change allowed per accepted step (V); larger
    /// changes cause the step to be retried at half size. This is the
    /// engine's local-accuracy control.
    pub dv_step_max: f64,
}

impl TranOptions {
    /// Creates options for a run of the given duration with defaults
    /// matching the paper's microsecond-scale programming pulses.
    pub fn for_duration(t_stop: f64) -> Self {
        TranOptions {
            sim: SimOptions::default(),
            t_stop,
            dt_init: None,
            dt_min: 1e-16,
            dt_max: None,
            max_steps: 2_000_000,
            dv_step_max: 0.3,
        }
    }

    /// The initial step the engine will actually use (`dt_init` or the
    /// `t_stop / 1000` default).
    pub fn resolved_dt_init(&self) -> f64 {
        self.dt_init.unwrap_or(self.t_stop / 1000.0)
    }

    /// The step ceiling the engine will actually use (`dt_max` or the
    /// `t_stop / 50` default). Exposed so pre-simulation lint can compare
    /// it against the shortest source edge.
    pub fn resolved_dt_max(&self) -> f64 {
        self.dt_max.unwrap_or(self.t_stop / 50.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_are_sane() {
        let s = SimOptions::default();
        assert!(s.reltol > 0.0 && s.reltol < 1.0);
        assert!(s.gmin <= 1e-9);
        let t = TranOptions::for_duration(1e-6);
        assert!((t.resolved_dt_init() - 1e-9).abs() < 1e-18);
        assert!((t.resolved_dt_max() - 2e-8).abs() < 1e-18);
        let t2 = TranOptions {
            dt_init: Some(5e-12),
            dt_max: Some(1e-9),
            ..TranOptions::for_duration(1e-6)
        };
        assert_eq!(t2.resolved_dt_init(), 5e-12);
        assert_eq!(t2.resolved_dt_max(), 1e-9);
    }
}
