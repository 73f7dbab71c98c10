//! The oxterm benchmark.
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` it runs one workload closed-loop (one client issues a
//! batch and waits for it) for `--seconds`, checks every batch's outputs,
//! and prints the end-to-end metrics. With `--trace 1` it prints the
//! per-layer metrics instead (see `layers.rs`). Human-readable lines come
//! first; the last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`.

mod cpu;
mod layers;
mod reference;
mod stats;
mod workloads;

use std::time::Instant;

use reference::Reference;
use workloads::{BatchOutcome, Workload};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 11;
/// Batches per run even when one batch outlasts `--seconds`.
const MIN_BATCHES: usize = 3;

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n\
     workloads: qlc_campaign, qlc_campaign_observed, nominal_sweep, circuit_program";

/// One measured metric.
pub struct Metric {
    /// Name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit.
    pub unit: &'static str,
}

impl Metric {
    /// A metric named `name`.
    pub fn new(name: &str, value: f64, unit: &'static str) -> Self {
        Metric {
            name: name.to_string(),
            value,
            unit,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad())?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad())?;
                if !(s.is_finite() && s > 0.0) {
                    return Err(bad());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// Peak resident set of this process (MiB), from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
            Some(kib / 1024.0)
        })
        .unwrap_or(f64::NAN)
}

/// Prints the result object as the last line of standard output. A value
/// JSON cannot carry (NaN, ±∞) marks the run incorrect and prints as -1.
fn print_result(mut correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            let value = if m.value.is_finite() {
                m.value
            } else {
                correct = false;
                -1.0
            };
            format!(
                "\"{}\": {{\"value\": {value:?}, \"unit\": \"{}\"}}",
                m.name, m.unit
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    );
}

/// Runs one workload closed-loop and prints its end-to-end metrics.
fn end_to_end(w: Workload, seed: u64, seconds: f64) {
    if w == Workload::QlcCampaignObserved {
        workloads::install_observers();
    }
    let workers = match w {
        Workload::QlcCampaign | Workload::QlcCampaignObserved => {
            std::thread::available_parallelism().map_or(1, |n| n.get())
        }
        Workload::NominalSweep | Workload::CircuitProgram => 1,
    };
    println!(
        "workload {}: seed {seed}, closed loop (1 client, next batch after the last returns), {workers} worker(s)",
        w.name()
    );

    let mut setup_s = Vec::with_capacity(SETUP_REPS);
    let mut batch = None;
    for _ in 0..SETUP_REPS {
        let cpu0 = cpu::process_s();
        batch = Some(w.setup(seed));
        setup_s.push(cpu::process_s() - cpu0);
    }
    let mut batch = batch.expect("at least one set-up");

    let mut walls = Vec::new();
    // Operations per CPU second of each batch, as measured and at nominal
    // host speed.
    let (mut raw_tp, mut per_batch_tp) = (Vec::new(), Vec::new());
    let mut reference = Reference::default();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let mut first: Option<BatchOutcome> = None;
    let start = Instant::now();
    while walls.len() < MIN_BATCHES || start.elapsed().as_secs_f64() < seconds {
        let (t, cpu0) = (Instant::now(), cpu::process_s());
        let out = batch.run();
        let cpu_s = cpu::process_s() - cpu0;
        walls.push(t.elapsed().as_secs_f64());
        raw_tp.push(out.ops as f64 / cpu_s);
        per_batch_tp.push(out.ops as f64 / cpu_s * reference.after_batch(cpu_s));
        attempted += out.ops;
        // Every batch repeats the same inputs, so it must repeat the first
        // batch's outputs bit for bit.
        let expected = first.get_or_insert(out);
        failed += if out.digest == expected.digest {
            out.failed
        } else {
            out.ops
        };
    }
    let first = first.expect("at least one batch");
    let correct = failed == 0;
    println!(
        "check ({}): {} -- {failed} of {attempted} operations failed, failed_frac {}",
        w.check_text(),
        if correct { "PASS" } else { "FAIL" },
        stats::failed_frac(failed, attempted)
    );
    println!("digest: {} (every batch identical)", first.digest.hex());
    let slowdown = reference.slowdown();
    let setup_cpu_s = stats::median(&setup_s);
    println!(
        "host: {} reference passes, median {slowdown:.4}x their nominal {} s; set-up {setup_cpu_s:.4} CPU s, {:.2} ops per CPU second as measured",
        reference.passes(),
        reference::NOMINAL_PASS_S,
        stats::median(&raw_tp),
    );
    let tps: Vec<String> = per_batch_tp.iter().map(|v| format!("{v}")).collect();
    println!("batch_ops_per_cpu_s: {}", tps.join(" "));
    let wall_per_s = attempted as f64 / walls.iter().sum::<f64>();
    let metrics = [
        Metric::new("setup_s", setup_cpu_s / slowdown, "s"),
        Metric::new("ops_per_cpu_s", stats::median(&per_batch_tp), "1/s"),
        Metric::new("peak_rss_mib", peak_rss_mib(), "MiB"),
        Metric::new("anchor_err_pct", first.anchor_err_pct, "%"),
    ];
    println!(
        "setup_s {:.4} CPU s at nominal host speed (median of {SETUP_REPS}) | wall time per batch: median {:.4} s of {} batches",
        metrics[0].value,
        stats::median(&walls),
        walls.len(),
    );
    println!(
        "ops_per_cpu_s = {} per CPU second at nominal host speed {:.2} 1/s (median of batches) | per wall second {wall_per_s:.2} 1/s (over the run)",
        w.throughput_key(),
        metrics[1].value,
    );
    println!(
        "peak_rss_mib {:.1} MiB | anchor_err_pct {:.3} % ({})",
        metrics[2].value,
        metrics[3].value,
        w.anchor_text()
    );
    print_result(correct, attempted, failed, &metrics);
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv).unwrap_or_else(|e| {
        eprintln!("perfbench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.trace {
        println!(
            "workload {} (traced run: per-layer metrics)",
            args.workload.name()
        );
        let traced = layers::run(args.seed, args.seconds);
        print_result(
            traced.failed == 0,
            traced.attempted,
            traced.failed,
            &traced.metrics,
        );
    } else {
        end_to_end(args.workload, args.seed, args.seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a = parse_args(&args(
            "--workload nominal_sweep --seed 7 --seconds 10 --trace 1",
        ))
        .expect("valid");
        assert_eq!(a.workload, Workload::NominalSweep);
        assert_eq!((a.seed, a.seconds, a.trace), (7, 10.0, true));
    }

    #[test]
    fn rejects_bad_command_lines() {
        for bad in [
            "--workload nope --seed 1 --seconds 1 --trace 0",
            "--workload qlc_campaign --seed -1 --seconds 1 --trace 0",
            "--workload qlc_campaign --seed 1 --seconds 0 --trace 0",
            "--workload qlc_campaign --seed 1 --seconds 1 --trace 2",
            "--workload qlc_campaign --seed 1 --seconds 1",
            "--workload qlc_campaign --seed 1 --seconds 1 --trace",
            "--workload qlc_campaign --seed 1 --seconds 1 --trace 0 --extra 1",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad}");
        }
    }

    #[test]
    fn peak_rss_is_read() {
        assert!(peak_rss_mib() > 0.0);
    }
}
