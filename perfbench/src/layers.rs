//! The traced run: per-layer metrics, each timed from the benchmark's own
//! code around calls into one layer's public functions.
//!
//! Kernel and transient timings are the calling thread's CPU time (see
//! `cpu.rs`); the `mc` ratios, which are about how work spreads over
//! threads, are wall time. The run installs no observer until its very
//! last step (the transient point counts), because the observers are
//! process-global and would otherwise sit inside every kernel timed here;
//! the observer overhead itself comes from child processes running the two
//! campaign workloads.

use std::hint::black_box;
use std::process::Command;
use std::time::Instant;

use oxterm_array::cell::Cell1T1R;
use oxterm_bench::campaigns::{mc_campaign, supervised_qlc_campaign};
use oxterm_devices::sources::{SourceWave, VoltageSource};
use oxterm_devices::switch::{SwitchParams, VSwitch};
use oxterm_mc::engine::MonteCarlo;
use oxterm_mc::supervisor::SupervisorOptions;
use oxterm_mc::sweep::sweep_mc;
use oxterm_mlc::levels::LevelAllocation;
use oxterm_mlc::program::{
    build_program_circuit, program_cell_circuit, program_cell_mc, program_tran_options,
    CircuitProgramOptions, McVariability, ProgramConditions, ProgramOutcome,
};
use oxterm_mlc::termination::{behavioral_monitor, BehavioralOptions};
use oxterm_mlc::word::{program_word_circuit, WordProgramOptions};
use oxterm_numerics::dense::DMatrix;
use oxterm_numerics::roots::{newton_bisect, RootOptions};
use oxterm_rram::calib::{
    simulate_reset_termination, simulate_set, ResetConditions, SetConditions,
};
use oxterm_rram::model::{advance_state, cell_current};
use oxterm_rram::params::{standard_normal, InstanceVariation, OxramParams};
use oxterm_spice::analysis::op::{solve_op, OpOptions};
use oxterm_spice::analysis::tran::run_transient;
use oxterm_spice::circuit::Circuit;
use oxterm_telemetry::Telemetry;
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::stats::{self, quantile_label, tail_quantile, Overhead};
use crate::workloads::{word_codes, Workload};
use crate::{cpu, Metric};

/// Samples per kernel timing: enough for a p99 with ten samples beyond it.
const N_KERNEL: usize = 1000;
/// Samples of one Fig 10 transient (p95).
const N_TRAN_FIG10: usize = 200;
/// Samples of one 8-bit word transient (p75).
const N_TRAN_WORD: usize = 40;
/// Calls per sample for kernels too short to time one at a time.
const CALLS_PER_SAMPLE: usize = 1000;
/// Dense LU factor-and-solves per sample.
const LU_PER_SAMPLE: usize = 16;
/// Monte Carlo runs per level of the replayed SET/RESET split.
const REPLAY_RUNS: usize = 25;
/// Runs per level of the campaigns behind the `mc` ratios.
const MC_RUNS: usize = 32;
/// Alternating repetitions of each side of an `mc` ratio.
const MC_REPS: usize = 5;
/// Child processes per campaign workload for the observer overhead.
const OVERHEAD_CHILDREN: usize = 2;

/// What the traced run measured.
pub struct Traced {
    /// The per-layer metrics.
    pub metrics: Vec<Metric>,
    /// Operations whose output check failed, and operations attempted.
    pub failed: u64,
    /// See [`Traced::failed`].
    pub attempted: u64,
}

impl Traced {
    fn value(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("{name:<36} {value:>14.4} {unit}");
        self.metrics.push(Metric::new(name, value, unit));
    }

    /// Records p50 and the highest tail percentile with ten samples beyond
    /// it, as `<name>.p50` and e.g. `<name>.p99`.
    fn timing(&mut self, name: &str, mut samples: Vec<f64>, unit: &'static str) {
        samples.sort_by(f64::total_cmp);
        self.value(
            &format!("{name}.p50"),
            stats::percentile(&samples, 0.5),
            unit,
        );
        if let Some(q) = tail_quantile(samples.len()) {
            let label = quantile_label(q);
            self.value(
                &format!("{name}.{label}"),
                stats::percentile(&samples, q),
                unit,
            );
        }
        println!("{:<36} {:>14} samples", format!("{name}.n"), samples.len());
    }

    fn check(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            println!("CHECK FAILED: {what}");
        }
    }
}

/// Times `n` samples of `calls` calls of `f` each, in CPU ns per call.
fn time_ns(n: usize, calls: usize, mut f: impl FnMut()) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = cpu::thread_s();
            for _ in 0..calls {
                f();
            }
            (cpu::thread_s() - t) * 1e9 / calls as f64
        })
        .collect()
}

/// Times [`N_KERNEL`] passes of `f` over a recorded `(ρ, v_c)` trajectory,
/// in ns per step.
fn per_step_ns(trajectory: &[(f64, f64)], mut f: impl FnMut(f64, f64)) -> Vec<f64> {
    time_ns(N_KERNEL, 1, || {
        for &(rho, vc) in trajectory {
            f(black_box(rho), black_box(vc));
        }
    })
    .into_iter()
    .map(|ns| ns / trajectory.len() as f64)
    .collect()
}

/// Wall seconds taken by `f`.
fn seconds(f: impl FnOnce()) -> f64 {
    let t = Instant::now();
    f();
    t.elapsed().as_secs_f64()
}

/// The number of fixed RESET steps a terminated RESET took, from its
/// latency (the crossing lies inside the last step).
fn reset_steps(latency_s: f64, dt: f64) -> f64 {
    (latency_s / dt).ceil()
}

/// Runs the traced measurement. `seconds_budget` sizes the observer-overhead
/// children; every other layer runs a fixed sample count.
pub fn run(seed: u64, seconds_budget: f64) -> Traced {
    let mut r = Traced {
        metrics: Vec::new(),
        failed: 0,
        attempted: 0,
    };
    let params = OxramParams::calibrated();
    let inst = InstanceVariation::nominal();
    let alloc = LevelAllocation::paper_qlc();
    println!(
        "traced run: seed {seed}, available parallelism {}",
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );

    // rram: one SET pulse, and terminated RESETs from the post-SET state.
    let set_cond = SetConditions::paper_defaults();
    let set = simulate_set(&params, &inst, &set_cond).expect("nominal SET completes");
    r.timing(
        "rram.set_ns",
        time_ns(N_KERNEL, 1, || {
            black_box(simulate_set(&params, &inst, black_box(&set_cond)).ok());
        }),
        "ns",
    );
    for i_ua in [6u32, 20, 36] {
        let cond = ResetConditions {
            rho_start: set.rho_final,
            ..ResetConditions::paper_defaults(f64::from(i_ua) * 1e-6)
        };
        let out = simulate_reset_termination(&params, &inst, &cond);
        r.check(&format!("RESET at {i_ua} uA terminates"), out.is_ok());
        r.timing(
            &format!("rram.reset_ns.{i_ua}ua"),
            time_ns(N_KERNEL, 1, || {
                black_box(simulate_reset_termination(&params, &inst, black_box(&cond)).ok());
            }),
            "ns",
        );
        let steps = out.map_or(f64::NAN, |o| reset_steps(o.latency_s, cond.dt));
        r.value(&format!("rram.reset_steps.{i_ua}ua"), steps, "count");
    }

    // The per-step kernels, fed the (ρ, v_c) sequence of a real RESET at
    // 20 µA so their inputs are distributed as in the campaign.
    let cond = ResetConditions {
        rho_start: set.rho_final,
        ..ResetConditions::paper_defaults(20e-6)
    };
    let divider = |rho: f64, fevals: &mut u64| {
        newton_bisect(
            |vc| {
                *fevals += 1;
                cell_current(&params, &inst, vc, rho) - (cond.v_drive - vc) / cond.r_series
            },
            0.0,
            cond.v_drive,
            RootOptions::default(),
        )
        .expect("divider brackets its root")
    };
    let mut trajectory = Vec::new();
    let mut rho = cond.rho_start;
    let mut fevals = 0u64;
    loop {
        let vc = divider(rho, &mut fevals);
        trajectory.push((rho, vc));
        if cell_current(&params, &inst, vc, rho) <= cond.i_ref || trajectory.len() > 100_000 {
            break;
        }
        rho = advance_state(&params, &inst, rho, -vc, cond.dt);
    }
    let per_pass = trajectory.len();
    r.timing(
        "rram.advance_state_ns",
        per_step_ns(&trajectory, |rho, vc| {
            black_box(advance_state(&params, &inst, rho, -vc, cond.dt));
        }),
        "ns",
    );
    r.timing(
        "rram.cell_current_ns",
        per_step_ns(&trajectory, |rho, vc| {
            black_box(cell_current(&params, &inst, vc, rho));
        }),
        "ns",
    );
    let mut sink = 0u64;
    r.timing(
        "numerics.divider_solve_ns",
        per_step_ns(&trajectory, |rho, _| {
            black_box(divider(rho, &mut sink));
        }),
        "ns",
    );
    r.value(
        "numerics.divider_fevals",
        fevals as f64 / per_pass as f64,
        "count",
    );

    // numerics: dense LU at each testbench's unknown count.
    let fig10 = CircuitProgramOptions::paper_fig10();
    let (fig10_circuit, _) = build_program_circuit(&fig10).expect("fig10 testbench builds");
    let word = WordProgramOptions::paper();
    let codes = word_codes(seed);
    for (label, n) in [
        ("fig10", fig10_circuit.n_unknowns()),
        ("word8", word_unknowns(&word, codes.len())),
    ] {
        let a = ladder(n);
        let b = vec![1.0; n];
        r.timing(
            &format!("numerics.lu_ns.{label}"),
            time_ns(N_KERNEL, LU_PER_SAMPLE, || {
                let lu = black_box(&a).factorize().expect("ladder is regular");
                black_box(lu.solve(&b).ok());
            }),
            "ns",
        );
        println!(
            "{:<36} {n:>14} unknowns",
            format!("numerics.lu_ns.{label}.size")
        );
    }

    // spice: the operating point and the terminated transient of the Fig 10
    // testbench, and the 8-bit word transient.
    r.timing(
        "spice.op_ns.fig10",
        time_ns(N_KERNEL, 1, || {
            black_box(solve_op(&fig10_circuit, &OpOptions::default()).ok());
        }),
        "ns",
    );
    let tran_opts = program_tran_options(&fig10);
    let tran_fig10 = || {
        let (mut c, h) = build_program_circuit(&fig10).expect("fig10 testbench builds");
        let (mut monitor, flag) = behavioral_monitor(h.sense, h.vsl, BehavioralOptions::new(10e-6));
        let t = cpu::thread_s();
        let res = run_transient(&mut c, &tran_opts, &mut [&mut monitor]);
        let ms = (cpu::thread_s() - t) * 1e3;
        (ms, res.is_ok() && flag.fired_at().is_some())
    };
    let mut fig10_ok = true;
    let samples = (0..N_TRAN_FIG10)
        .map(|_| {
            let (ms, ok) = tran_fig10();
            fig10_ok &= ok;
            ms
        })
        .collect();
    r.check("Fig 10 transient terminates at 10 uA", fig10_ok);
    r.timing("spice.tran_ms.fig10_10ua", samples, "ms");
    let mut word_ok = true;
    let samples = (0..N_TRAN_WORD)
        .map(|_| {
            let t = cpu::thread_s();
            let out = program_word_circuit(&codes, &alloc, &word);
            let ms = (cpu::thread_s() - t) * 1e3;
            word_ok &= out.is_ok_and(|o| o.latencies.iter().all(Option::is_some));
            ms
        })
        .collect();
    r.check("every word bit terminates", word_ok);
    r.timing("spice.tran_ms.word8", samples, "ms");

    // core (oxterm-mlc): whole MC programs at the fastest and slowest level,
    // and the SET share from a replay of the same RNG streams.
    let cond = ProgramConditions::paper();
    let var = McVariability::default();
    for (label, code) in [("36ua", 0u16), ("6ua", 15)] {
        let mut rng = StdRng::seed_from_u64(seed);
        let samples = time_ns(N_KERNEL, 1, || {
            black_box(program_cell_mc(&params, &alloc, code, &cond, &var, &mut rng).ok());
        });
        r.timing(&format!("mlc.program_ns.{label}"), samples, "ns");
    }
    let (set_share, replay_ok) = set_share(&params, &alloc, seed);
    r.check("replayed SET+RESET equals program_cell_mc", replay_ok);
    r.value("mlc.set_share", set_share, "ratio");

    // mc: worker scaling of the campaign, and the supervised path's price.
    let levels = alloc.levels().to_vec();
    let throughput = |threads: usize| {
        let mc = MonteCarlo::new(MC_RUNS, seed).with_threads(threads);
        let s = seconds(|| {
            black_box(sweep_mc(&levels, mc, |spec, _, rng| {
                program_cell_mc(&params, &alloc, spec.code, &cond, &var, rng).ok()
            }));
        });
        (levels.len() * MC_RUNS) as f64 / s
    };
    let (one, two) = alternate(|| throughput(1), || throughput(2));
    r.value(
        "mc.parallel_efficiency",
        stats::median(&two) / (2.0 * stats::median(&one)),
        "ratio",
    );
    let programs = (levels.len() * MC_RUNS) as f64;
    let (plain, supervised) = alternate(
        || programs / seconds(|| drop(black_box(mc_campaign(&params, &alloc, MC_RUNS, seed)))),
        || {
            programs
                / seconds(|| {
                    let out = supervised_qlc_campaign(MC_RUNS, &SupervisorOptions::default());
                    drop(black_box(out.ok()));
                })
        },
    );
    r.value(
        "mc.supervised_ratio",
        stats::median(&supervised) / stats::median(&plain),
        "ratio",
    );

    // telemetry: one counter increment and one histogram record on an
    // enabled handle, with the names the fast path uses.
    let tel = Telemetry::enabled();
    r.timing(
        "telemetry.incr_ns",
        time_ns(N_KERNEL, CALLS_PER_SAMPLE, || {
            tel.incr(black_box("rram.termination.runs"))
        }),
        "ns",
    );
    r.timing(
        "telemetry.record_ns",
        time_ns(N_KERNEL, CALLS_PER_SAMPLE, || {
            tel.record(black_box("rram.termination.latency_s"), black_box(1.5e-6))
        }),
        "ns",
    );
    let o = observer_overhead(seed, seconds_budget);
    r.check("campaign children ran and passed their checks", o.is_some());
    let o = o.unwrap_or(Overhead {
        pct: f64::NAN,
        spread_pct: f64::NAN,
    });
    r.value("telemetry.observer_overhead_pct", o.pct, "%");
    r.value("telemetry.observer_overhead_spread_pct", o.spread_pct, "%");
    println!(
        "observer overhead {:.2} % against a quartile spread of {:.2} %: {}",
        o.pct,
        o.spread_pct,
        if o.resolved() {
            "resolved"
        } else {
            "unresolved"
        }
    );

    // Accepted transient points, read off the library's own counter. This
    // installs telemetry for the rest of the process, so it comes last.
    Telemetry::install(Telemetry::enabled());
    let accepted = || {
        Telemetry::global()
            .counter("spice.tran.steps_accepted")
            .map_or(0, |c| c.get())
    };
    let before = accepted();
    let ok = program_cell_circuit(&fig10, Some(10e-6)).is_ok();
    let mid = accepted();
    let ok = ok && program_word_circuit(&codes, &alloc, &word).is_ok();
    r.check("transients rerun under telemetry", ok);
    r.value(
        "spice.tran_points.fig10_10ua",
        (mid - before) as f64,
        "count",
    );
    r.value(
        "spice.tran_points.word8",
        (accepted() - mid) as f64,
        "count",
    );

    r
}

/// Runs `a` and `b` [`MC_REPS`] times each, alternating which goes first.
fn alternate(mut a: impl FnMut() -> f64, mut b: impl FnMut() -> f64) -> (Vec<f64>, Vec<f64>) {
    let (mut xs, mut ys) = (Vec::new(), Vec::new());
    for rep in 0..MC_REPS {
        if rep % 2 == 0 {
            xs.push(a());
            ys.push(b());
        } else {
            ys.push(b());
            xs.push(a());
        }
    }
    (xs, ys)
}

/// The fraction of serial `program_cell_mc` time spent in SET, from a
/// replay of `McVariability::sample` → `simulate_set` →
/// `simulate_reset_termination` on each run's RNG stream. Also reports
/// whether every replayed outcome equals `program_cell_mc`'s on a clone of
/// the same stream.
fn set_share(params: &OxramParams, alloc: &LevelAllocation, seed: u64) -> (f64, bool) {
    let cond = ProgramConditions::paper();
    let var = McVariability::default();
    let mc = MonteCarlo::new(REPLAY_RUNS, seed);
    let (mut t_set, mut t_program) = (0.0, 0.0);
    let mut equal = true;
    for spec in alloc.levels() {
        for run in 0..REPLAY_RUNS {
            let mut rng = mc.rng_for_run(run);
            let mut twin = rng.clone();
            let t = cpu::thread_s();
            let program = program_cell_mc(params, alloc, spec.code, &cond, &var, &mut twin);
            t_program += cpu::thread_s() - t;

            let (inst, mut c, i_ref_factor) = var.sample(params, &cond, &mut rng);
            let t = cpu::thread_s();
            let set = simulate_set(params, &inst, &c.set);
            t_set += cpu::thread_s() - t;
            let replay = set.ok().and_then(|set| {
                c.reset.i_ref = spec.i_ref * i_ref_factor;
                c.reset.rho_start = set.rho_final;
                let out = simulate_reset_termination(params, &inst, &c.reset).ok()?;
                let noise = (standard_normal(&mut rng) * var.sigma_ln_r(spec.i_ref)).exp();
                Some(ProgramOutcome {
                    code: spec.code,
                    i_ref: spec.i_ref,
                    r_read_ohms: out.r_read_ohms * noise,
                    latency_s: out.latency_s,
                    energy_j: out.energy_j,
                    set_energy_j: set.energy_j,
                })
            });
            equal &= program.ok() == replay && replay.is_some();
        }
    }
    (t_set / t_program, equal)
}

/// Observer overhead from child processes running the bare and the
/// observed campaign workloads, alternating, with every batch's programs
/// per CPU second as one sample. `None` if a child failed.
fn observer_overhead(seed: u64, seconds_budget: f64) -> Option<Overhead> {
    let exe = std::env::current_exe().ok()?;
    let child_seconds = (seconds_budget / (4 * OVERHEAD_CHILDREN) as f64).max(1.0);
    let run = |w: Workload| -> Option<Vec<f64>> {
        let out = Command::new(&exe)
            .args(["--workload", w.name(), "--seed", &seed.to_string()])
            .args(["--seconds", &child_seconds.to_string(), "--trace", "0"])
            .output()
            .ok()?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let passed = stdout
            .lines()
            .last()
            .is_some_and(|l| l.contains("\"correct\": true"));
        if !out.status.success() || !passed {
            return None;
        }
        let line = stdout
            .lines()
            .find_map(|l| l.strip_prefix("batch_ops_per_cpu_s:"))?;
        line.split_whitespace().map(|v| v.parse().ok()).collect()
    };
    let (mut bare, mut observed) = (Vec::new(), Vec::new());
    for k in 0..OVERHEAD_CHILDREN {
        let order = if k % 2 == 0 {
            [Workload::QlcCampaign, Workload::QlcCampaignObserved]
        } else {
            [Workload::QlcCampaignObserved, Workload::QlcCampaign]
        };
        for w in order {
            let samples = run(w)?;
            match w {
                Workload::QlcCampaign => bare.extend(samples),
                _ => observed.extend(samples),
            }
        }
    }
    Some(Overhead::from_throughputs(&bare, &observed))
}

/// An MNA-shaped (RC-ladder) conductance matrix of order `n`.
fn ladder(n: usize) -> DMatrix {
    let mut a = DMatrix::zeros(n, n);
    for i in 0..n {
        a.set(i, i, 2.5);
        if i > 0 {
            a.set(i, i - 1, -1.0);
            a.set(i - 1, i, -1.0);
        }
    }
    a.add(0, 0, 1.0);
    a
}

/// The unknown count of the word testbench `program_word_circuit` builds
/// (it does not expose its circuit): per bit a 1T-1R cell, the bit-line
/// parasitics, a cut-off switch with its control source and a 0 V sense
/// source; one shared SL and WL driver.
fn word_unknowns(opts: &WordProgramOptions, bits: usize) -> usize {
    let mut c = Circuit::new();
    let sl = c.node("sl");
    let wl = c.node("wl");
    c.node("ctrl_on");
    let gnd = Circuit::gnd();
    let switch = SwitchParams {
        g_on: 1.0 / 50.0,
        g_off: 1e-9,
        v_th: 1.65,
        v_width: 0.1,
    };
    for k in 0..bits {
        let bl_cell = c.node(&format!("bl{k}_cell"));
        let bl_cut = c.node(&format!("bl{k}_cut"));
        let bl_sense = c.node(&format!("bl{k}_sense"));
        let ctrl = c.node(&format!("bl{k}_ctrl"));
        Cell1T1R::build(&mut c, &format!("w{k}"), bl_cell, wl, sl, &opts.cell);
        opts.bl_line
            .build(&mut c, &format!("blp{k}"), bl_cell, bl_cut);
        c.add(VSwitch::new(
            format!("cut{k}"),
            bl_cut,
            bl_sense,
            ctrl,
            gnd,
            switch,
        ));
        c.add(VoltageSource::new(
            format!("vctrl{k}"),
            ctrl,
            gnd,
            SourceWave::dc(3.3),
        ));
        c.add(VoltageSource::new(
            format!("vsense{k}"),
            bl_sense,
            gnd,
            SourceWave::dc(0.0),
        ));
    }
    c.add(VoltageSource::new(
        "vwl",
        wl,
        gnd,
        SourceWave::dc(opts.v_wl),
    ));
    c.add(VoltageSource::new(
        "vsl",
        sl,
        gnd,
        SourceWave::dc(opts.v_sl),
    ));
    c.n_unknowns()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reset_steps_count_the_step_holding_the_crossing() {
        assert_eq!(reset_steps(2.0e-9, 2e-9), 1.0);
        assert_eq!(reset_steps(2.5e-9, 2e-9), 2.0);
        assert_eq!(reset_steps(1.0e-6, 2e-9), 500.0);
    }

    #[test]
    fn word_testbench_grows_with_its_bits() {
        let opts = WordProgramOptions::paper();
        let one = word_unknowns(&opts, 1);
        let eight = word_unknowns(&opts, 8);
        assert!(one > 4);
        assert_eq!(eight - one, 7 * (word_unknowns(&opts, 2) - one));
    }

    #[test]
    fn replayed_split_matches_program_cell_mc() {
        let (share, equal) = set_share(
            &OxramParams::calibrated(),
            &LevelAllocation::paper_qlc(),
            11,
        );
        assert!(equal);
        assert!(share > 0.0 && share < 1.0, "{share}");
    }
}
