//! Property-based tests (proptest) on the core invariants of the stack:
//! the linear solver, the compact-model state dynamics, the MLC codec,
//! and the level allocation.

use proptest::prelude::*;

use oxterm_mlc::codec::MlcCodec;
use oxterm_mlc::levels::{AllocationScheme, LevelAllocation};
use oxterm_numerics::dense::DMatrix;
use oxterm_rram::model;
use oxterm_rram::params::{InstanceVariation, OxramParams};

proptest! {
    /// Dense LU with partial pivoting, the MNA solver, solves random
    /// diagonally-dominant MNA-like systems: its solution satisfies
    /// `A·x = b` to 1e-8.
    #[test]
    fn solvers_agree_on_random_systems(
        n in 2usize..24,
        entries in proptest::collection::vec((-1.0f64..1.0, 0usize..24, 0usize..24), 1..80),
        rhs_seed in -1.0f64..1.0,
    ) {
        let mut a = DMatrix::zeros(n, n);
        for i in 0..n {
            a.add(i, i, 5.0 + (i as f64) * 0.1);
        }
        for (v, r, c) in entries {
            a.add(r % n, c % n, v);
        }
        let b: Vec<f64> = (0..n).map(|i| rhs_seed + i as f64 * 0.3).collect();
        let x = a.factorize().expect("diagonally dominant").solve(&b).expect("sized");
        // Residual check.
        let r = a.mul_vec(&x).expect("sized");
        for (ri, bi) in r.iter().zip(&b) {
            prop_assert!((ri - bi).abs() < 1e-8);
        }
    }

    /// The filament state always stays inside [0, 1] and moves in the
    /// direction the applied polarity dictates.
    #[test]
    fn filament_state_stays_bounded_and_directional(
        rho0 in 0.0f64..=1.0,
        v in -3.3f64..3.3,
        dt_exp in -10.0f64..-5.0,
    ) {
        let params = OxramParams::calibrated();
        let inst = InstanceVariation::nominal();
        let dt = 10f64.powf(dt_exp);
        let rho1 = model::advance_state(&params, &inst, rho0, v, dt);
        prop_assert!((0.0..=1.0).contains(&rho1), "rho out of range: {rho1}");
        if v > 1e-3 {
            prop_assert!(rho1 >= rho0 - 1e-12, "SET shrank the filament");
        } else if v < -1e-3 {
            prop_assert!(rho1 <= rho0 + 1e-12, "RESET grew the filament");
        } else {
            prop_assert!((rho1 - rho0).abs() < 1e-9, "state moved at ~zero bias");
        }
    }

    /// Conduction is monotone in the filament state at fixed read voltage.
    #[test]
    fn read_current_monotone_in_state(
        rho_a in 0.0f64..=1.0,
        rho_b in 0.0f64..=1.0,
        v in 0.05f64..1.0,
    ) {
        let params = OxramParams::calibrated();
        let inst = InstanceVariation::nominal();
        let (lo, hi) = if rho_a <= rho_b { (rho_a, rho_b) } else { (rho_b, rho_a) };
        let i_lo = model::cell_current(&params, &inst, v, lo);
        let i_hi = model::cell_current(&params, &inst, v, hi);
        prop_assert!(i_hi >= i_lo - 1e-18);
    }

    /// Codec round-trips arbitrary payloads for every power-of-two level
    /// count the projections use.
    #[test]
    fn codec_round_trips(
        data in proptest::collection::vec(any::<u8>(), 0..64),
        bits in 2u32..=6,
    ) {
        let alloc = LevelAllocation::new(
            1usize << bits,
            6e-6,
            36e-6,
            AllocationScheme::IsoDeltaI,
            |_| Vec::new(),
        ).expect("valid window");
        let codec = MlcCodec::for_allocation(&alloc).expect("power of two");
        let codes = codec.encode(&data);
        prop_assert!(codes.iter().all(|&c| (c as usize) < (1usize << bits)));
        let back = codec.decode(&codes, data.len());
        prop_assert_eq!(back, data);
    }

    /// ISO-ΔI allocations have strictly decreasing reference currents with
    /// constant steps, for any window and level count.
    #[test]
    fn iso_delta_i_steps_are_constant(
        n in 2usize..=64,
        i_min_ua in 1.0f64..20.0,
        span_ua in 5.0f64..40.0,
    ) {
        let i_min = i_min_ua * 1e-6;
        let i_max = (i_min_ua + span_ua) * 1e-6;
        let alloc = LevelAllocation::new(n, i_min, i_max, AllocationScheme::IsoDeltaI, |_| Vec::new())
            .expect("valid window");
        let d = alloc.delta_i().expect("iso-ΔI");
        let expected = (i_max - i_min) / (n as f64 - 1.0);
        prop_assert!((d - expected).abs() < 1e-15);
        for w in alloc.levels().windows(2) {
            prop_assert!(w[0].i_ref > w[1].i_ref);
            prop_assert!(((w[0].i_ref - w[1].i_ref) - expected).abs() < 1e-12);
        }
    }

    /// The Waveform crossing finder returns a time inside the record and
    /// at which interpolation actually hits the level.
    #[test]
    fn waveform_crossing_is_consistent(
        samples in proptest::collection::vec(-2.0f64..2.0, 3..40),
        level in -1.5f64..1.5,
    ) {
        use oxterm_spice::waveform::{CrossDir, Waveform};
        let t: Vec<f64> = (0..samples.len()).map(|k| k as f64).collect();
        let w = Waveform::from_parts(t, samples);
        if let Some(tc) = w.first_crossing(level, CrossDir::Any) {
            prop_assert!(tc >= 0.0 && tc <= (w.len() - 1) as f64);
            prop_assert!((w.value_at(tc) - level).abs() < 1e-9);
        }
    }
}

proptest! {
    /// The MOSFET's terminal-derivative sum is zero at arbitrary bias
    /// (only potential differences matter), for both polarities.
    #[test]
    fn mosfet_kcl_derivative_sum(
        vd in -0.5f64..3.8,
        vg in -0.5f64..3.8,
        vs in -0.5f64..3.8,
        vb in 0.0f64..3.3,
        pmos in proptest::bool::ANY,
    ) {
        use oxterm_devices::mosfet::{MosParams, Mosfet};
        use oxterm_spice::circuit::Circuit;
        let mut c = Circuit::new();
        let d = c.node("d");
        let g = c.node("g");
        let s = c.node("s");
        let b = c.node("b");
        let params = if pmos {
            MosParams::pmos_130nm_hv()
        } else {
            MosParams::nmos_130nm_hv()
        };
        let m = Mosfet::new("m", d, g, s, b, params, 2e-6, 0.5e-6);
        let e = m.eval(vd, vg, vs, vb);
        let sum = e.gm + e.gd + e.gs + e.gb;
        let scale = e.gm.abs() + e.gd.abs() + e.gs.abs() + e.gb.abs() + 1e-30;
        prop_assert!(sum.abs() / scale < 1e-6, "KCL sum {sum:.3e} at scale {scale:.3e}");
        prop_assert!(e.id.is_finite());
    }

    /// Switch conductance is monotone in the control voltage and bounded
    /// by its on/off values.
    #[test]
    fn switch_conductance_bounded_monotone(
        v1 in -5.0f64..5.0,
        v2 in -5.0f64..5.0,
    ) {
        use oxterm_devices::switch::{SwitchParams, VSwitch};
        use oxterm_spice::circuit::Circuit;
        let mut c = Circuit::new();
        let a = c.node("a");
        let b = c.node("b");
        let sw = VSwitch::new("s", a, b, a, b, SwitchParams::default());
        let p = SwitchParams::default();
        let (lo, hi) = if v1 <= v2 { (v1, v2) } else { (v2, v1) };
        let (g_lo, _) = sw.g_and_dg(lo);
        let (g_hi, _) = sw.g_and_dg(hi);
        prop_assert!(g_lo <= g_hi + 1e-18);
        prop_assert!(g_lo >= p.g_off * 0.999 && g_hi <= p.g_on * 1.001);
    }

    /// Gray-coded QLC cells: a ±1-level misread corrupts exactly one data
    /// bit, for every level.
    #[test]
    fn gray_codec_single_bit_property(level in 0u16..15) {
        use oxterm_mlc::codec::{CodeMapping, MlcCodec};
        let alloc = LevelAllocation::paper_qlc();
        let codec = MlcCodec::with_mapping(&alloc, CodeMapping::Gray).expect("power of two");
        // Decode both adjacent physical levels through one byte.
        let decode1 = codec.decode(&[level, 0], 1)[0];
        let decode2 = codec.decode(&[level + 1, 0], 1)[0];
        prop_assert_eq!((decode1 ^ decode2).count_ones(), 1);
    }

    /// The PCM state stays bounded for any drive within the rail.
    #[test]
    fn pcm_state_bounded(
        x0 in 0.0f64..=1.0,
        v in 0.0f64..2.5,
        dt_exp in -9.0f64..-6.0,
    ) {
        use oxterm_rram::pcm::PcmParams;
        let p = PcmParams::gst225();
        let x1 = p.advance(x0, v, 10f64.powf(dt_exp));
        prop_assert!((0.0..=1.0).contains(&x1), "x = {x1}");
    }

    /// Box-plot invariants: whiskers bracket the quartiles and every
    /// outlier lies outside the whiskers.
    #[test]
    fn box_stats_invariants(
        data in proptest::collection::vec(-1e3f64..1e3, 4..60),
    ) {
        let b = oxterm_numerics::stats::box_stats(&data).expect("non-empty");
        prop_assert!(b.whisker_lo <= b.q1 + 1e-9);
        prop_assert!(b.q1 <= b.median && b.median <= b.q3);
        prop_assert!(b.whisker_hi >= b.q3 - 1e-9);
        for &o in &b.outliers {
            prop_assert!(o < b.whisker_lo || o > b.whisker_hi);
        }
        let (lo, hi) = b.full_range();
        let min = data.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = data.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!((lo - min).abs() < 1e-9 && (hi - max).abs() < 1e-9);
    }

    /// Retention relaxation never leaves [ρ_eq, ρ0] (monotone decay toward
    /// the deep-HRS equilibrium).
    #[test]
    fn retention_relaxation_bounded(
        rho in 0.05f64..=1.0,
        temp in 250.0f64..500.0,
        years in 0.0f64..20.0,
    ) {
        use oxterm_rram::retention::RetentionParams;
        let r = RetentionParams::hfo2_defaults();
        let after = r.relax(rho, temp, years * 365.25 * 24.0 * 3600.0).expect("valid");
        let lo = r.rho_eq.min(rho) - 1e-12;
        let hi = r.rho_eq.max(rho) + 1e-12;
        prop_assert!((lo..=hi).contains(&after), "rho {rho} → {after}");
    }
}

#[test]
fn termination_resistance_monotone_across_window() {
    // Deterministic (non-proptest) sweep at fine granularity: R(IrefR)
    // strictly decreasing across the full programmable window.
    use oxterm_rram::calib::{simulate_reset_termination, ResetConditions};
    let params = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    let mut prev = f64::INFINITY;
    for k in 0..31 {
        let i_ref = (6.0 + k as f64) * 1e-6;
        let out =
            simulate_reset_termination(&params, &inst, &ResetConditions::paper_defaults(i_ref))
                .expect("window programmable");
        assert!(
            out.r_read_ohms < prev,
            "R not decreasing at {i_ref:.1e}: {} vs {}",
            out.r_read_ohms,
            prev
        );
        prev = out.r_read_ohms;
    }
}
