//! Shared `--telemetry` and campaign-flag handling for the experiment
//! binaries.
//!
//! Usage in a `src/bin/` target:
//!
//! ```ignore
//! let (args, tel_cli) = telemetry_cli::init("fig11");
//! let runs = args.first().and_then(|s| s.parse().ok()).unwrap_or(500);
//! // ... experiment ...
//! tel_cli.finish();
//! ```
//!
//! `init` installs the enabled process-global [`Telemetry`] and
//! [`Profiler`] when `--telemetry` is present (it must run before any
//! instrumented work) and strips the flags from the argument list so
//! positional arguments keep their meaning. Any other argument starting
//! with `--` is a configuration error (exit 2), so a typo never runs the
//! experiment without the flag it meant. `finish` prints the run report
//! and writes the requested artifacts.
//!
//! Flags:
//!
//! * `--telemetry` — the one observer flag: arm the telemetry registry
//!   and the hierarchical phase profiler, and at exit print the ASCII run
//!   report and the hot-path attribution (phase tree + matrix stats). The
//!   profiler times every instrumented scope; its per-phase totals are
//!   folded into the registry as `profile.*` counters.
//! * `--telemetry=json` — also write `results/telemetry_<name>.json` and
//!   `results/hotpath_<name>.json`.
//! * `--telemetry=json:PATH` — the telemetry JSON to an explicit path
//!   (the hot-path JSON still goes to `results/hotpath_<name>.json`).
//! * `--chaos=SPEC` — deterministic fault injection (e.g.
//!   `newton_stall:p=0.02,nan_stamp:p=0.005,panic:p=0.001,slow_step:p=0.01`,
//!   optional `seed=N` entry). The plan becomes the `faults` of
//!   [`TelemetryCli::campaign`], so it reaches exactly the campaigns run
//!   under those options: the QLC campaign of `fig11_mc_boxplots`,
//!   `fig12_sigma_margin`, `fig13_energy_latency` and `repro_all`. The
//!   campaign supervisor retries the runs it faults. Binaries with no
//!   supervised campaign (`fig10_transient`) accept the flag and inject
//!   nothing.
//! * `--checkpoint[=PATH]` — stream campaign checkpoints (default
//!   `results/checkpoint_<name>.jsonl`) so a killed campaign can resume.
//! * `--resume=PATH` — replay completed runs from a checkpoint file;
//!   aggregates are bit-identical to the uninterrupted campaign.
//! * `--quorum=F` — max tolerated failure fraction (default 0.1); a
//!   degraded-but-useful campaign exits 3, a breached one exits 1.
//!
//! The binaries' Monte Carlo campaigns always run under
//! [`oxterm_mc::run_supervised`] (retries, panic isolation, graceful
//! degradation); the four campaign flags set its options. Whether any was
//! given only decides if the binary prints its campaign-health lines.

use crate::hotpath::{HotPathReport, MatrixStats};
use oxterm_mc::supervisor::{CampaignOutcome, SupervisorOptions};
use oxterm_telemetry::{PhaseGuard, PhaseId, Profiler, Telemetry};

/// A configuration error the binary should exit on (library code here
/// never calls `std::process::exit` — `cargo xtask lint` bans it outside
/// `src/bin`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CliError {
    /// Human-readable cause, ready for stderr.
    pub message: String,
    /// Suggested process exit code.
    pub code: i32,
}

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.message)
    }
}

impl std::error::Error for CliError {}

impl CliError {
    fn config(message: impl Into<String>) -> Self {
        CliError {
            message: message.into(),
            code: 2,
        }
    }
}

/// How the binary was asked to report telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryMode {
    /// No flag: telemetry and the profiler stay disabled (zero-overhead
    /// path).
    Off,
    /// `--telemetry`: print the ASCII report and hot-path tree at exit.
    Table,
    /// `--telemetry=json[:PATH]`: print both reports and write the
    /// telemetry JSON (to `PATH` when given, else
    /// `results/telemetry_<name>.json`) and `results/hotpath_<name>.json`.
    Json {
        /// Explicit output path, if one was supplied after the colon.
        path: Option<String>,
    },
}

/// Flags recognised by [`init_from`], split from the positional arguments.
///
/// Pure parse result — applying the side effects (installing the global
/// handles) is [`init_from`]'s job, so tests can exercise the grammar
/// without mutating process state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParsedFlags {
    /// Telemetry reporting mode.
    pub mode: TelemetryMode,
    /// The raw `--chaos=SPEC` string, if present (validated at `init`).
    pub chaos: Option<String>,
    /// `Some(explicit_path)` when `--checkpoint[=PATH]` was present.
    pub checkpoint: Option<Option<String>>,
    /// The `--resume=PATH` path, if present.
    pub resume: Option<String>,
    /// The raw `--quorum=F` string, if present (validated at `init`).
    pub quorum: Option<String>,
    /// Remaining (positional) arguments, in order.
    pub rest: Vec<String>,
}

impl ParsedFlags {
    /// Whether any campaign-supervision flag was given.
    pub fn wants_supervision(&self) -> bool {
        self.chaos.is_some()
            || self.checkpoint.is_some()
            || self.resume.is_some()
            || self.quorum.is_some()
    }
}

/// Splits recognised flags from positional arguments without side effects.
///
/// An argument starting with `--` that names no flag is an error: it would
/// otherwise land among the positionals and be ignored.
pub fn parse_flags(args: impl Iterator<Item = String>) -> Result<ParsedFlags, CliError> {
    let mut parsed = ParsedFlags {
        mode: TelemetryMode::Off,
        chaos: None,
        checkpoint: None,
        resume: None,
        quorum: None,
        rest: Vec::new(),
    };
    for a in args {
        if a == "--telemetry" {
            parsed.mode = TelemetryMode::Table;
        } else if a == "--telemetry=json" {
            parsed.mode = TelemetryMode::Json { path: None };
        } else if let Some(path) = a.strip_prefix("--telemetry=json:") {
            parsed.mode = TelemetryMode::Json {
                path: Some(path.to_string()),
            };
        } else if let Some(spec) = a.strip_prefix("--chaos=") {
            parsed.chaos = Some(spec.to_string());
        } else if a == "--checkpoint" {
            parsed.checkpoint = Some(None);
        } else if let Some(path) = a.strip_prefix("--checkpoint=") {
            parsed.checkpoint = Some(Some(path.to_string()));
        } else if let Some(path) = a.strip_prefix("--resume=") {
            parsed.resume = Some(path.to_string());
        } else if let Some(q) = a.strip_prefix("--quorum=") {
            parsed.quorum = Some(q.to_string());
        } else if a.starts_with("--") {
            return Err(CliError::config(format!("unknown flag {a:?}")));
        } else {
            parsed.rest.push(a);
        }
    }
    Ok(parsed)
}

/// Parsed telemetry CLI state; call [`TelemetryCli::finish`] at exit.
#[derive(Debug)]
pub struct TelemetryCli {
    mode: TelemetryMode,
    name: &'static str,
    /// Campaign supervision options set by `--chaos` / `--checkpoint` /
    /// `--resume` / `--quorum` (CLI defaults without them); `--chaos`
    /// lands in `faults`.
    campaign: SupervisorOptions,
    /// Whether any of those four flags was given.
    supervised: bool,
    /// Whole-binary `bench/run` phase, opened at `init` so the profile
    /// tree always has its root; closed just before the snapshot.
    run_phase: Option<PhaseGuard>,
    /// Structural stats of the run's representative circuit, handed in by
    /// the binary via [`TelemetryCli::record_matrix_stats`].
    matrix: Option<MatrixStats>,
}

/// Parses `std::env::args`, installs global telemetry/profiling if
/// requested, and returns the remaining (non-flag) arguments plus the CLI
/// state.
///
/// `name` keys the default output files: `results/telemetry_<name>.json`
/// and `results/hotpath_<name>.json`.
///
/// A configuration error (unknown `--` flag, bad `--chaos` spec,
/// out-of-range `--quorum`) comes back as a
/// [`CliError`]; the binary prints it and exits with [`CliError::code`].
pub fn init(name: &'static str) -> Result<(Vec<String>, TelemetryCli), CliError> {
    init_from(name, std::env::args().skip(1))
}

/// [`init`] over an explicit argument iterator (testable).
pub fn init_from(
    name: &'static str,
    args: impl Iterator<Item = String>,
) -> Result<(Vec<String>, TelemetryCli), CliError> {
    let parsed = parse_flags(args).map_err(|e| CliError::config(format!("{name}: {e}")))?;
    if parsed.mode != TelemetryMode::Off {
        Telemetry::install(Telemetry::enabled());
        Profiler::install(Profiler::enabled());
    }
    let campaign = campaign_options(name, &parsed)?;
    let supervised = parsed.wants_supervision();
    if let Some(plan) = campaign.faults {
        eprintln!(
            "chaos({name}): armed plan {} (hash {:#018x})",
            plan.canonical(),
            plan.hash()
        );
    }
    let run_phase = Profiler::global().phase(PhaseId::BenchRun);
    Ok((
        parsed.rest,
        TelemetryCli {
            mode: parsed.mode,
            name,
            campaign,
            supervised,
            run_phase: Some(run_phase),
            matrix: None,
        },
    ))
}

/// Builds the supervisor configuration the campaign flags request, on top
/// of the CLI defaults.
fn campaign_options(name: &str, parsed: &ParsedFlags) -> Result<SupervisorOptions, CliError> {
    let mut opts = SupervisorOptions {
        // CLI campaigns tolerate a little more than the library default:
        // chaos smokes deliberately push several percent of runs past
        // their last attempt.
        quorum: 0.1,
        ..SupervisorOptions::default()
    };
    if let Some(q) = &parsed.quorum {
        let v: f64 = q
            .parse()
            .map_err(|_| CliError::config(format!("{name}: bad --quorum value {q:?}")))?;
        if !(0.0..=1.0).contains(&v) {
            return Err(CliError::config(format!(
                "{name}: --quorum must be within [0, 1], got {q}"
            )));
        }
        opts.quorum = v;
    }
    if let Some(path) = &parsed.checkpoint {
        opts.checkpoint_path = Some(
            path.clone()
                .unwrap_or_else(|| format!("results/checkpoint_{name}.jsonl")),
        );
    }
    opts.resume_from = parsed.resume.clone();
    if let Some(spec) = &parsed.chaos {
        let plan = oxterm_chaos::FaultPlan::parse(spec)
            .map_err(|e| CliError::config(format!("{name}: bad --chaos spec {spec:?}: {e}")))?;
        opts.faults = Some(plan);
    }
    Ok(opts)
}

impl TelemetryCli {
    /// The parsed mode.
    pub fn mode(&self) -> &TelemetryMode {
        &self.mode
    }

    /// The campaign supervision options: the CLI defaults, as set by
    /// `--chaos` / `--checkpoint` / `--resume` / `--quorum`.
    pub fn campaign(&self) -> &SupervisorOptions {
        &self.campaign
    }

    /// Whether any campaign flag was given; binaries print their
    /// campaign-health lines only then.
    pub fn wants_supervision(&self) -> bool {
        self.supervised
    }

    /// Prints a finished campaign's summary line on stderr and, when a
    /// campaign flag was given, its campaign-health line on stdout.
    /// Retry and resume counts stay off stdout, so a kill + `--resume`
    /// replay prints the same stdout as an uninterrupted campaign.
    pub fn report_campaign<T>(&self, outcome: &CampaignOutcome<T>) {
        eprintln!("{}: campaign {}", self.name, outcome.summary_line());
        if self.supervised {
            println!(
                "campaign health: {} of {} runs failed (failure fraction {:.4}, quorum {:.2})\n",
                outcome.failures,
                outcome.results.len(),
                outcome.failure_fraction(),
                outcome.quorum,
            );
        }
    }

    /// Hands the structural stats of the run's representative circuit to
    /// the hot-path report written at [`TelemetryCli::finish`] (the flop
    /// estimates stay absent without them). The last call wins.
    pub fn record_matrix_stats(&mut self, stats: MatrixStats) {
        self.matrix = Some(stats);
    }

    /// Prints the hot-path attribution and the run report, and writes
    /// their JSON artifacts under `--telemetry=json`. No-op without
    /// `--telemetry`.
    pub fn finish(mut self) {
        // Close the whole-binary phase before snapshotting so the
        // `bench/run` root covers everything the run did.
        drop(self.run_phase.take());
        let json_path = match &self.mode {
            TelemetryMode::Off => return,
            TelemetryMode::Table => None,
            TelemetryMode::Json { path } => Some(
                path.clone()
                    .unwrap_or_else(|| format!("results/telemetry_{}.json", self.name)),
            ),
        };
        let tel = Telemetry::global();
        let snapshot = Profiler::global().snapshot();
        // The phase totals join the registry as `profile.*` counters.
        snapshot.fold_into(tel);
        let report = tel.report();
        let hot_path = HotPathReport {
            newton_iterations: report
                .histogram("spice.newton.iterations")
                .map_or(0.0, |h| h.sum),
            matrix: self.matrix.take(),
            snapshot,
        };
        println!("\n== hot path ({}) ==\n", self.name);
        print!("{}", hot_path.to_text());
        if json_path.is_some() {
            let path = format!("results/hotpath_{}.json", self.name);
            write_artifact("hot-path", &path, &hot_path.to_json());
        }
        println!("\n== telemetry ({}) ==\n", self.name);
        println!("{}", report.to_table());
        if let Some(path) = json_path {
            write_artifact("telemetry", &path, &report.to_json());
        }
    }
}

/// Writes one report artifact, creating its directory; a failure is
/// reported on stderr and does not stop the binary.
fn write_artifact(what: &str, path: &str, body: &str) {
    match ensure_parent(path).and_then(|()| std::fs::write(path, body)) {
        Ok(()) => println!("{what} report written to {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

fn ensure_parent(path: &str) -> std::io::Result<()> {
    match std::path::Path::new(path).parent() {
        Some(dir) if !dir.as_os_str().is_empty() => std::fs::create_dir_all(dir),
        _ => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> ParsedFlags {
        try_parse(args).expect("known flags parse")
    }

    fn try_parse(args: &[&str]) -> Result<ParsedFlags, CliError> {
        parse_flags(args.iter().map(|s| (*s).to_string()))
    }

    #[test]
    fn flag_is_stripped_and_positionals_survive() {
        let p = parse(&["120", "--telemetry"]);
        assert_eq!(p.rest, vec!["120".to_string()]);
        assert_eq!(p.mode, TelemetryMode::Table);
    }

    #[test]
    fn no_flag_means_off() {
        let p = parse(&["7"]);
        assert_eq!(p.rest, vec!["7".to_string()]);
        assert_eq!(p.mode, TelemetryMode::Off);
    }

    #[test]
    fn json_variant_parses() {
        let p = parse(&["--telemetry=json"]);
        assert_eq!(p.mode, TelemetryMode::Json { path: None });
    }

    #[test]
    fn json_path_variant_parses() {
        let p = parse(&["--telemetry=json:out/run.json"]);
        assert_eq!(
            p.mode,
            TelemetryMode::Json {
                path: Some("out/run.json".to_string())
            }
        );
    }

    #[test]
    fn misspelled_flag_is_a_config_error() {
        let err = try_parse(&["--chek", "120"]).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("\"--chek\""), "{}", err.message);
        let err = init_from("cli_test", ["--chek".to_string()].into_iter())
            .expect_err("an unknown flag must stop the binary");
        assert_eq!(err.code, 2);
        assert!(err.message.starts_with("cli_test: "), "{}", err.message);
    }

    #[test]
    fn trace_flags_are_config_errors() {
        // Flags of retired observers fail like any other typo.
        for retired in [
            "trace",
            "trace=results/t.json",
            "metrics-out=m.prom",
            "lint",
            "lint=deny",
            "progress",
            "probes",
            "probes=v(sl)",
            "artifacts-dir",
            "artifacts-dir=out",
        ] {
            let flag = format!("--{retired}");
            let err = try_parse(&[&flag]).unwrap_err();
            assert_eq!(err.code, 2, "{flag} should be a config error");
            assert!(err.message.contains(&flag), "{}", err.message);
        }
    }

    #[test]
    fn dashboard_flag_is_a_config_error() {
        let flag = format!("--{}", "dashboard");
        let err = try_parse(&[&flag, "500"]).unwrap_err();
        assert_eq!(err.code, 2, "{flag} should be a config error");
        assert!(err.message.contains(&flag), "{}", err.message);
        assert_eq!(parse(&["500"]).rest, vec!["500".to_string()]);
    }

    #[test]
    fn parent_creation_handles_bare_filenames() {
        assert!(ensure_parent("bare.json").is_ok());
    }

    #[test]
    fn campaign_flags_parse() {
        let p = parse(&[
            "--chaos=newton_stall:p=0.02,seed=7",
            "--checkpoint",
            "--resume=ckpt.jsonl",
            "--quorum=0.2",
            "500",
        ]);
        assert_eq!(p.chaos, Some("newton_stall:p=0.02,seed=7".to_string()));
        assert_eq!(p.checkpoint, Some(None));
        assert_eq!(p.resume, Some("ckpt.jsonl".to_string()));
        assert_eq!(p.quorum, Some("0.2".to_string()));
        assert_eq!(p.rest, vec!["500".to_string()]);
        assert!(p.wants_supervision());
        assert_eq!(
            parse(&["--checkpoint=out/c.jsonl"]).checkpoint,
            Some(Some("out/c.jsonl".to_string()))
        );
        assert!(!parse(&["500"]).wants_supervision());
    }

    #[test]
    fn campaign_options_apply_cli_defaults() {
        let opts = campaign_options("fig11", &parse(&["--checkpoint", "--quorum=0.25"])).unwrap();
        assert_eq!(opts.quorum, 0.25);
        assert_eq!(
            opts.checkpoint_path.as_deref(),
            Some("results/checkpoint_fig11.jsonl")
        );
        assert_eq!(opts.resume_from, None);

        let defaulted = campaign_options("fig11", &parse(&["--chaos=panic:p=0.01"])).unwrap();
        assert_eq!(defaulted.quorum, 0.1);
        assert_eq!(defaulted.checkpoint_path, None);

        // No campaign flag: the same CLI defaults, with no fault plan.
        assert_eq!(
            campaign_options("fig11", &parse(&["500"])).unwrap(),
            SupervisorOptions {
                faults: None,
                ..defaulted
            }
        );
    }

    #[test]
    fn campaign_options_carry_the_chaos_plan() {
        let spec = "newton_stall:p=0.08,panic:p=0.02:transient,seed=77";
        let opts = campaign_options("fig11", &parse(&[&format!("--chaos={spec}")])).unwrap();
        assert_eq!(
            opts.faults,
            Some(oxterm_chaos::FaultPlan::parse(spec).unwrap())
        );
        assert_eq!(
            campaign_options("fig11", &parse(&["500"])).unwrap().faults,
            None
        );
        let err = campaign_options("fig11", &parse(&["--chaos=bogus:p=2"])).unwrap_err();
        assert_eq!(err.code, 2);
        assert!(
            err.message.starts_with("fig11: bad --chaos spec"),
            "{}",
            err.message
        );
    }

    #[test]
    fn campaign_options_reject_bad_quorum() {
        for bad in ["--quorum=nope", "--quorum=-0.1", "--quorum=1.5"] {
            let err = campaign_options("fig11", &parse(&[bad])).unwrap_err();
            assert_eq!(err.code, 2, "{bad} should be a config error");
            assert!(err.message.contains("--quorum"), "{}", err.message);
        }
    }

    #[test]
    fn observability_flags_parse() {
        // `--telemetry` is the one observer flag; the retired profiler
        // flag fails like any other typo.
        let p = parse(&["--telemetry", "7"]);
        assert_eq!(p.mode, TelemetryMode::Table);
        assert_eq!(p.rest, vec!["7".to_string()]);
        for retired in ["--profile", "--profile=out/h.json"] {
            let err = try_parse(&[retired, "7"]).unwrap_err();
            assert_eq!(err.code, 2, "{retired} should be a config error");
            assert!(err.message.contains(retired), "{}", err.message);
        }
    }

    #[test]
    fn init_rejects_bad_chaos_spec() {
        let err = init_from("cli_test", ["--chaos=bogus:p=2".to_string()].into_iter())
            .expect_err("invalid chaos spec must be a config error");
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--chaos"), "{}", err.message);
    }
}
