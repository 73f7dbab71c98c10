//! Independent voltage and current sources with DC, pulse, and PWL
//! waveforms.
//!
//! [`VoltageSource::force_end_at`] is the hook the RESET write-termination
//! uses: when the termination comparator fires, the transient monitor chops
//! the programming pulse by scheduling an early fall edge.

use std::any::Any;

use oxterm_numerics::interp::Pwl;
use oxterm_spice::circuit::NodeId;
use oxterm_spice::device::{Device, DeviceClass, StampContext, StampTopology, UpdateContext};

/// A time-domain source waveform.
#[derive(Debug, Clone, PartialEq)]
pub enum SourceWave {
    /// Constant level.
    Dc(f64),
    /// Single-shot trapezoidal pulse.
    Pulse {
        /// Level before `delay` and after the fall edge.
        v0: f64,
        /// Pulse plateau level.
        v1: f64,
        /// Start of the rise edge (s).
        delay: f64,
        /// Rise time (s).
        rise: f64,
        /// Plateau width (s), measured from the end of the rise edge.
        width: f64,
        /// Fall time (s).
        fall: f64,
    },
    /// Arbitrary piecewise-linear waveform (clamped outside its range).
    Pwl(Pwl),
}

impl SourceWave {
    /// Constant level shorthand.
    pub fn dc(level: f64) -> Self {
        SourceWave::Dc(level)
    }

    /// A step from 0 to `level` with the given rise time starting at `t = 0`.
    pub fn step(level: f64, rise: f64) -> Self {
        SourceWave::Pulse {
            v0: 0.0,
            v1: level,
            delay: 0.0,
            rise,
            width: f64::INFINITY,
            fall: rise,
        }
    }

    /// A standard programming pulse: `0 → level → 0`.
    ///
    /// # Panics
    ///
    /// Panics if any duration is negative or `rise`/`fall` is zero.
    pub fn pulse(level: f64, delay: f64, rise: f64, width: f64, fall: f64) -> Self {
        assert!(
            delay >= 0.0 && width >= 0.0 && rise > 0.0 && fall > 0.0,
            "pulse durations must be non-negative with nonzero edges"
        );
        SourceWave::Pulse {
            v0: 0.0,
            v1: level,
            delay,
            rise,
            width,
            fall,
        }
    }

    /// Evaluates the waveform at time `t`.
    pub fn eval(&self, t: f64) -> f64 {
        match self {
            SourceWave::Dc(v) => *v,
            SourceWave::Pulse {
                v0,
                v1,
                delay,
                rise,
                width,
                fall,
            } => {
                if t <= *delay {
                    *v0
                } else if t < delay + rise {
                    v0 + (v1 - v0) * (t - delay) / rise
                } else if t <= delay + rise + width {
                    *v1
                } else if t < delay + rise + width + fall {
                    v1 + (v0 - v1) * (t - delay - rise - width) / fall
                } else {
                    *v0
                }
            }
            SourceWave::Pwl(p) => p.eval(t),
        }
    }

    /// Largest magnitude the waveform ever reaches (rail/SOA checks).
    pub fn peak_abs(&self) -> f64 {
        match self {
            SourceWave::Dc(v) => v.abs(),
            SourceWave::Pulse { v0, v1, .. } => v0.abs().max(v1.abs()),
            SourceWave::Pwl(p) => p.points().iter().map(|&(_, y)| y.abs()).fold(0.0, f64::max),
        }
    }

    /// Shortest transition edge in the waveform (s): the fastest feature a
    /// transient run must resolve. `None` for DC sources.
    pub fn min_edge(&self) -> Option<f64> {
        match self {
            SourceWave::Dc(_) => None,
            SourceWave::Pulse { rise, fall, .. } => Some(rise.min(*fall)),
            SourceWave::Pwl(p) => p
                .points()
                .windows(2)
                .map(|w| w[1].0 - w[0].0)
                .filter(|dt| *dt > 0.0)
                .fold(None, |acc: Option<f64>, dt| {
                    Some(acc.map_or(dt, |a| a.min(dt)))
                }),
        }
    }

    /// Time-grid corners transient analysis must land on.
    pub fn breakpoints(&self) -> Vec<f64> {
        match self {
            SourceWave::Dc(_) => Vec::new(),
            SourceWave::Pulse {
                delay,
                rise,
                width,
                fall,
                ..
            } => {
                let mut bps = vec![*delay, delay + rise];
                if width.is_finite() {
                    bps.push(delay + rise + width);
                    bps.push(delay + rise + width + fall);
                }
                bps
            }
            SourceWave::Pwl(p) => p.points().iter().map(|&(t, _)| t).collect(),
        }
    }
}

/// An independent voltage source (one branch-current unknown).
///
/// Branch current is defined flowing from the `p` terminal through the
/// source to the `n` terminal, so a source *delivering* power has negative
/// branch current.
#[derive(Debug, Clone)]
pub struct VoltageSource {
    name: String,
    p: NodeId,
    n: NodeId,
    wave: SourceWave,
    /// When set, the output ramps from its value at this time down to the
    /// off level over `end_fall` seconds — the write-termination chop.
    end_at: Option<f64>,
    end_fall: f64,
    end_level: f64,
}

impl VoltageSource {
    /// Creates a voltage source driving `p` relative to `n`.
    pub fn new(name: impl Into<String>, p: NodeId, n: NodeId, wave: SourceWave) -> Self {
        VoltageSource {
            name: name.into(),
            p,
            n,
            wave,
            end_at: None,
            end_fall: 5e-9,
            end_level: 0.0,
        }
    }

    /// The programmed waveform.
    pub fn wave(&self) -> &SourceWave {
        &self.wave
    }

    /// Replaces the waveform.
    pub fn set_wave(&mut self, wave: SourceWave) {
        self.wave = wave;
        self.end_at = None;
    }

    /// Truncates the output: from time `t` the source ramps to `level`
    /// over `fall` seconds, regardless of the programmed waveform.
    ///
    /// This models the SL driver receiving the termination circuit's stop
    /// pulse and pulling the line back to its idle level.
    ///
    /// # Panics
    ///
    /// Panics if `fall` is not strictly positive.
    pub fn force_end_at(&mut self, t: f64, level: f64, fall: f64) {
        assert!(fall > 0.0, "fall time must be positive");
        self.end_at = Some(t);
        self.end_level = level;
        self.end_fall = fall;
    }

    /// Output level at time `t`, including any forced end.
    pub fn level_at(&self, t: f64) -> f64 {
        match self.end_at {
            Some(te) if t >= te => {
                let v_at_end = self.wave.eval(te);
                if t >= te + self.end_fall {
                    self.end_level
                } else {
                    v_at_end + (self.end_level - v_at_end) * (t - te) / self.end_fall
                }
            }
            _ => self.wave.eval(t),
        }
    }
}

impl Device for VoltageSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn n_branches(&self) -> usize {
        1
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let v = self.level_at(ctx.time()) * ctx.source_factor();
        ctx.stamp_voltage_source(0, self.p, self.n, v);
    }

    fn update_state(&self, _ctx: &UpdateContext<'_>, _state: &mut [f64]) {}

    fn breakpoints(&self) -> Vec<f64> {
        let mut bps = self.wave.breakpoints();
        if let Some(te) = self.end_at {
            bps.push(te);
            bps.push(te + self.end_fall);
        }
        bps
    }

    fn terminals(&self) -> Vec<NodeId> {
        vec![self.p, self.n]
    }

    fn stamp_topology(&self) -> Option<StampTopology> {
        Some(StampTopology {
            voltage_edges: vec![(self.p, self.n)],
            ..StampTopology::default()
        })
    }

    fn device_class(&self) -> DeviceClass {
        DeviceClass::VoltageSource
    }

    fn power(&self, ctx: &UpdateContext<'_>, _state: &[f64]) -> f64 {
        // Branch current flows p → source → n, so a delivering source
        // (current out of the + terminal) absorbs negative power.
        self.level_at(ctx.time()) * ctx.i_branch(0)
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

/// An independent current source: `amps(t)` flows from `from`, through the
/// source, into `to`.
#[derive(Debug, Clone)]
pub struct CurrentSource {
    name: String,
    from: NodeId,
    to: NodeId,
    wave: SourceWave,
}

impl CurrentSource {
    /// Creates a current source pushing current from `from` into `to`.
    pub fn new(name: impl Into<String>, from: NodeId, to: NodeId, wave: SourceWave) -> Self {
        CurrentSource {
            name: name.into(),
            from,
            to,
            wave,
        }
    }

    /// The programmed waveform.
    pub fn wave(&self) -> &SourceWave {
        &self.wave
    }

    /// Replaces the waveform (e.g. to sweep a reference current).
    pub fn set_wave(&mut self, wave: SourceWave) {
        self.wave = wave;
    }
}

impl Device for CurrentSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn stamp(&self, ctx: &mut StampContext<'_>) {
        let i = self.wave.eval(ctx.time()) * ctx.source_factor();
        ctx.stamp_current(self.from, self.to, i);
    }

    fn breakpoints(&self) -> Vec<f64> {
        self.wave.breakpoints()
    }

    fn terminals(&self) -> Vec<NodeId> {
        vec![self.from, self.to]
    }

    fn stamp_topology(&self) -> Option<StampTopology> {
        Some(StampTopology {
            current_injections: vec![(self.from, self.to)],
            ..StampTopology::default()
        })
    }

    fn device_class(&self) -> DeviceClass {
        DeviceClass::CurrentSource
    }

    fn power(&self, ctx: &UpdateContext<'_>, _state: &[f64]) -> f64 {
        // The programmed current flows internally from `from` to `to`;
        // absorbed power is the drop across the source times that current.
        (ctx.v(self.from) - ctx.v(self.to)) * self.wave.eval(ctx.time())
    }

    fn as_any(&self) -> &dyn Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pulse_shape() {
        let w = SourceWave::pulse(1.2, 100e-9, 10e-9, 3.5e-6, 10e-9);
        assert_eq!(w.eval(0.0), 0.0);
        assert_eq!(w.eval(50e-9), 0.0);
        assert!((w.eval(105e-9) - 0.6).abs() < 1e-9);
        assert_eq!(w.eval(1e-6), 1.2);
        assert_eq!(w.eval(4e-6), 0.0);
        assert_eq!(w.breakpoints().len(), 4);
    }

    #[test]
    fn step_has_infinite_width() {
        let w = SourceWave::step(3.3, 1e-9);
        assert_eq!(w.eval(1e-3), 3.3);
        assert_eq!(w.breakpoints().len(), 2);
    }

    #[test]
    fn forced_end_truncates() {
        let mut c = oxterm_spice::circuit::Circuit::new();
        let p = c.node("p");
        let mut vs = VoltageSource::new(
            "v",
            p,
            oxterm_spice::circuit::Circuit::gnd(),
            SourceWave::pulse(1.2, 0.0, 1e-9, 3.5e-6, 1e-9),
        );
        assert_eq!(vs.level_at(1e-6), 1.2);
        vs.force_end_at(1e-6, 0.0, 10e-9);
        assert_eq!(vs.level_at(0.5e-6), 1.2); // before the chop
        assert!((vs.level_at(1e-6 + 5e-9) - 0.6).abs() < 1e-9);
        assert_eq!(vs.level_at(2e-6), 0.0);
    }

    #[test]
    #[should_panic(expected = "nonzero edges")]
    fn pulse_rejects_zero_rise() {
        SourceWave::pulse(1.0, 0.0, 0.0, 1e-6, 1e-9);
    }

    #[test]
    fn pwl_wave() {
        let p = Pwl::new(vec![(0.0, 0.0), (1e-6, 2.0)]).unwrap();
        let w = SourceWave::Pwl(p);
        assert_eq!(w.eval(0.5e-6), 1.0);
        assert_eq!(w.breakpoints(), vec![0.0, 1e-6]);
    }
}
