//! Shared `--telemetry`, `--profile` and `--progress` handling for the
//! experiment binaries.
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
//! `init` installs the enabled process-global [`Telemetry`] and/or
//! [`Profiler`] when the flags are present (it must run before any
//! instrumented work) and strips the flags from the argument list so
//! positional arguments keep their meaning. Any other argument starting
//! with `--` is a configuration error (exit 2), so a typo never runs the
//! experiment without the flag it meant. `finish` prints the run report
//! and writes the requested artifacts.
//!
//! Flags:
//!
//! * `--telemetry` — print the ASCII run report at exit.
//! * `--telemetry=json` — also write `results/telemetry_<name>.json`.
//! * `--telemetry=json:PATH` — same, to an explicit path.
//! * `--progress` — live Monte Carlo campaign status lines on stderr.
//! * `--lint` — run the netlint preflight over this binary's corpus slice
//!   before the experiment; findings go to stderr and the counts land in
//!   the telemetry report (`netlint.findings.deny` / `.warn`).
//! * `--lint=deny` — same, with warn rules promoted to deny; the process
//!   exits with status 2 before simulating anything if a finding remains.
//! * `--probes[=SPEC]` — capture the named node voltages / branch currents
//!   during the experiment's transients (comma list, e.g.
//!   `v(sl),v(bl_sense),i(vsense)`; the bare flag uses the binary's default
//!   spec). Each probe is written to `results/probe_<name>_<label>.csv`.
//! * `--artifacts-dir[=PATH]` — write a post-mortem JSON bundle for every
//!   Newton/op/transient non-convergence and every failed Monte Carlo run
//!   (default directory `results/artifacts_<name>`).
//! * `--chaos=SPEC` — arm deterministic fault injection for the binary's
//!   Monte Carlo campaigns (e.g.
//!   `newton_stall:p=0.02,nan_stamp:p=0.005,panic:p=0.001,slow_step:p=0.01`,
//!   optional `seed=N` entry); the campaign supervisor retries the runs it
//!   faults.
//! * `--checkpoint[=PATH]` — stream campaign checkpoints (default
//!   `results/checkpoint_<name>.jsonl`) so a killed campaign can resume.
//! * `--resume=PATH` — replay completed runs from a checkpoint file;
//!   aggregates are bit-identical to the uninterrupted campaign.
//! * `--quorum=F` — max tolerated failure fraction (default 0.1); a
//!   degraded-but-useful campaign exits 3, a breached one exits 1.
//! * `--profile[=PATH]` — arm the hierarchical phase profiler; at exit,
//!   print the hot-path attribution (ASCII phase tree + matrix stats) and
//!   write the JSON report to `PATH` (default
//!   `results/hotpath_<name>.json`). The per-phase totals are also folded
//!   into the telemetry registry as `profile.*` counters.
//!
//! The binaries' Monte Carlo campaigns always run under
//! [`oxterm_mc::run_supervised`] (retries, panic isolation, graceful
//! degradation); the four campaign flags set its options. Whether any was
//! given only decides if the binary prints its campaign-health lines.

use crate::hotpath::{HotPathReport, MatrixStats};
use oxterm_mc::supervisor::{CampaignOutcome, SupervisorOptions};
use oxterm_netlint::{corpus, lint_entry, LintConfig, LintOptions};
use oxterm_spice::probe::{ProbeCapture, ProbePlan};
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

/// Whether (and how strictly) the netlint preflight runs before the
/// experiment.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintMode {
    /// No flag: the experiment starts immediately.
    Off,
    /// `--lint`: lint, report, and continue even on findings.
    Warn,
    /// `--lint=deny`: warn rules promoted to deny; abort on any finding.
    Deny,
}

/// How the binary was asked to report telemetry.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TelemetryMode {
    /// No flag: telemetry stays disabled (zero-overhead path).
    Off,
    /// `--telemetry`: print the ASCII report at exit.
    Table,
    /// `--telemetry=json[:PATH]`: print the report and write the JSON file
    /// (to `PATH` when given, else `results/telemetry_<name>.json`).
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
    /// Whether `--progress` was present.
    pub progress: bool,
    /// Netlint preflight mode (`--lint[=deny]`).
    pub lint: LintMode,
    /// `Some(explicit_spec)` when `--probes[=SPEC]` was present (`None`
    /// inside means "use the binary's default spec").
    pub probes: Option<Option<String>>,
    /// `Some(explicit_dir)` when `--artifacts-dir[=PATH]` was present.
    pub artifacts_dir: Option<Option<String>>,
    /// The raw `--chaos=SPEC` string, if present (validated at `init`).
    pub chaos: Option<String>,
    /// `Some(explicit_path)` when `--checkpoint[=PATH]` was present.
    pub checkpoint: Option<Option<String>>,
    /// The `--resume=PATH` path, if present.
    pub resume: Option<String>,
    /// The raw `--quorum=F` string, if present (validated at `init`).
    pub quorum: Option<String>,
    /// `Some(explicit_json_path)` when `--profile[=PATH]` was present
    /// (`None` inside means the default `results/hotpath_<name>.json`).
    pub profile: Option<Option<String>>,
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
        progress: false,
        lint: LintMode::Off,
        probes: None,
        artifacts_dir: None,
        chaos: None,
        checkpoint: None,
        resume: None,
        quorum: None,
        profile: None,
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
        } else if a == "--progress" {
            parsed.progress = true;
        } else if a == "--lint" {
            parsed.lint = LintMode::Warn;
        } else if a == "--lint=deny" {
            parsed.lint = LintMode::Deny;
        } else if a == "--probes" {
            parsed.probes = Some(None);
        } else if let Some(spec) = a.strip_prefix("--probes=") {
            parsed.probes = Some(Some(spec.to_string()));
        } else if a == "--artifacts-dir" {
            parsed.artifacts_dir = Some(None);
        } else if let Some(dir) = a.strip_prefix("--artifacts-dir=") {
            parsed.artifacts_dir = Some(Some(dir.to_string()));
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
        } else if a == "--profile" {
            parsed.profile = Some(None);
        } else if let Some(path) = a.strip_prefix("--profile=") {
            parsed.profile = Some(Some(path.to_string()));
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
    /// The `--probes[=SPEC]` request, if present.
    probes: Option<Option<String>>,
    /// Probe captures handed back by the experiment (CSV emission happens
    /// in [`TelemetryCli::finish`]).
    captures: Vec<ProbeCapture>,
    /// Campaign supervision options set by `--chaos` / `--checkpoint` /
    /// `--resume` / `--quorum` (CLI defaults without them).
    campaign: SupervisorOptions,
    /// Whether any of those four flags was given.
    supervised: bool,
    /// Hot-path JSON output path when `--profile[=PATH]` armed the
    /// profiler (`None` = profiling off).
    profile_to: Option<String>,
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
/// out-of-range `--quorum`, deny-mode lint findings) comes back as a
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
    // The profiler folds its totals into the registry, so `--profile` arms
    // telemetry too.
    if parsed.mode != TelemetryMode::Off || parsed.profile.is_some() {
        Telemetry::install(Telemetry::enabled());
    }
    if parsed.profile.is_some() {
        Profiler::install(Profiler::enabled());
    }
    lint_preflight(name, parsed.lint)?;
    let campaign = campaign_options(name, &parsed)?;
    let supervised = parsed.wants_supervision();
    if let Some(spec) = &parsed.chaos {
        let plan = oxterm_chaos::FaultPlan::parse(spec)
            .map_err(|e| CliError::config(format!("{name}: bad --chaos spec {spec:?}: {e}")))?;
        oxterm_chaos::arm(plan);
        eprintln!(
            "chaos({name}): armed plan {} (hash {:#018x})",
            plan.canonical(),
            plan.hash()
        );
    }
    if parsed.progress {
        oxterm_telemetry::progress::set_enabled(true);
    }
    if let Some(dir) = &parsed.artifacts_dir {
        let dir = dir
            .clone()
            .unwrap_or_else(|| format!("results/artifacts_{name}"));
        oxterm_telemetry::postmortem::set_artifacts_dir(dir);
    }
    let run_phase = Profiler::global().phase(PhaseId::BenchRun);
    Ok((
        parsed.rest,
        TelemetryCli {
            mode: parsed.mode,
            name,
            probes: parsed.probes,
            captures: Vec::new(),
            campaign,
            supervised,
            profile_to: parsed
                .profile
                .map(|explicit| explicit.unwrap_or_else(|| format!("results/hotpath_{name}.json"))),
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
    Ok(opts)
}

impl TelemetryCli {
    /// The parsed mode.
    pub fn mode(&self) -> &TelemetryMode {
        &self.mode
    }

    /// The probe plan requested by `--probes[=SPEC]`, or `Ok(None)` when
    /// the flag was absent. `default_spec` is the binary's canonical
    /// signal set, used when the flag carries no explicit spec.
    ///
    /// A malformed spec is a configuration error (exit code 2) surfaced
    /// as a [`CliError`] so the binary can report it before simulating
    /// anything.
    pub fn probe_plan(&self, default_spec: &str) -> Result<Option<ProbePlan>, CliError> {
        let Some(spec) = self.probes.as_ref() else {
            return Ok(None);
        };
        let spec = spec.as_deref().unwrap_or(default_spec);
        ProbePlan::parse(spec).map(Some).map_err(|e| {
            CliError::config(format!("{}: bad --probes spec {spec:?}: {e}", self.name))
        })
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

    /// Whether `--probes[=SPEC]` was given at all — binaries without a
    /// circuit-level transient use this to acknowledge (and decline) the
    /// flag instead of silently swallowing it.
    pub fn probes_requested(&self) -> bool {
        self.probes.is_some()
    }

    /// Hands a finished probe capture back for emission at
    /// [`TelemetryCli::finish`]: one CSV per probe. Call once per probed
    /// transient; empty captures are ignored.
    pub fn record_probes(&mut self, capture: &ProbeCapture) {
        if !capture.is_empty() {
            self.captures.push(capture.clone());
        }
    }

    /// Hands the structural stats of the run's representative circuit to
    /// the hot-path report written at [`TelemetryCli::finish`] (the flop
    /// estimates stay absent without them). The last call wins.
    pub fn record_matrix_stats(&mut self, stats: MatrixStats) {
        self.matrix = Some(stats);
    }

    /// Writes the probe CSVs, prints the run report, and writes the
    /// telemetry JSON / hot-path artifacts if asked. No-op when no flag
    /// was given.
    pub fn finish(mut self) {
        self.write_probe_csvs();
        // Close the whole-binary phase before snapshotting so the
        // `bench/run` root covers everything the run did.
        drop(self.run_phase.take());
        self.write_profile();
        if self.mode != TelemetryMode::Off {
            let report = Telemetry::global().report();
            println!("\n== telemetry ({}) ==\n", self.name);
            println!("{}", report.to_table());
            if let TelemetryMode::Json { path } = &self.mode {
                let path = path
                    .clone()
                    .unwrap_or_else(|| format!("results/telemetry_{}.json", self.name));
                match ensure_parent(&path).and_then(|()| std::fs::write(&path, report.to_json())) {
                    Ok(()) => println!("telemetry report written to {path}"),
                    Err(e) => eprintln!("could not write {path}: {e}"),
                }
            }
        }
    }

    /// Snapshots the phase profiler, folds the totals into the telemetry
    /// registry, and — under `--profile` — prints the hot-path attribution
    /// and writes its JSON artifact.
    fn write_profile(&self) {
        let prof = Profiler::global();
        if !prof.is_enabled() {
            return;
        }
        let snapshot = prof.snapshot();
        if snapshot.is_empty() {
            return;
        }
        snapshot.fold_into(Telemetry::global());
        let Some(path) = &self.profile_to else {
            return;
        };
        let report = HotPathReport {
            newton_iterations: Telemetry::global()
                .report()
                .histogram("spice.newton.iterations")
                .map(|h| h.sum)
                .unwrap_or(0.0),
            matrix: self.matrix.clone(),
            snapshot,
        };
        println!("\n== hot path ({}) ==\n", self.name);
        print!("{}", report.to_text());
        match ensure_parent(path).and_then(|()| std::fs::write(path, report.to_json())) {
            Ok(()) => println!("hot-path report written to {path}"),
            Err(e) => eprintln!("could not write {path}: {e}"),
        }
    }

    /// One CSV per captured probe: `results/probe_<name>_<label>.csv`
    /// (with a capture index inserted when the experiment recorded more
    /// than one probed transient).
    fn write_probe_csvs(&self) {
        let many = self.captures.len() > 1;
        for (ci, capture) in self.captures.iter().enumerate() {
            for trace in &capture.traces {
                let label = sanitize_label(&trace.label);
                let path = if many {
                    format!("results/probe_{}_{ci}_{label}.csv", self.name)
                } else {
                    format!("results/probe_{}_{label}.csv", self.name)
                };
                match ensure_parent(&path).and_then(|()| std::fs::write(&path, trace.to_csv())) {
                    Ok(()) => println!(
                        "probe {} written to {path} ({} samples kept of {} offered, \
                         {} decimation pass(es))",
                        trace.label,
                        trace.samples.len(),
                        trace.offered,
                        trace.compactions,
                    ),
                    Err(e) => eprintln!("could not write {path}: {e}"),
                }
            }
        }
    }
}

/// Maps a probe label to a filename-safe stem: `v(bl_sense)` → `v_bl_sense`.
fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| if c.is_ascii_alphanumeric() { c } else { '_' })
        .collect::<String>()
        .trim_matches('_')
        .to_string()
}

/// Runs the netlint preflight over the corpus slice keyed by the binary
/// name, folds the finding counts into the telemetry report, and — in
/// deny mode — refuses to start the experiment on a dirty netlist.
fn lint_preflight(name: &str, mode: LintMode) -> Result<(), CliError> {
    if mode == LintMode::Off {
        return Ok(());
    }
    let mut config = LintConfig::new();
    if mode == LintMode::Deny {
        config = config.deny_warnings();
    }
    let opts = LintOptions {
        config,
        ..LintOptions::default()
    };
    let entries = corpus::for_experiment(name);
    let (mut deny, mut warn) = (0usize, 0usize);
    for entry in &entries {
        let report = lint_entry(entry, &opts);
        deny += report.deny_count();
        warn += report.warn_count();
        if !report.findings.is_empty() {
            eprint!("{}", report.to_text());
        }
    }
    let tel = Telemetry::global();
    tel.add("netlint.netlists", entries.len() as u64);
    tel.add("netlint.findings.deny", deny as u64);
    tel.add("netlint.findings.warn", warn as u64);
    eprintln!(
        "netlint({name}): {} netlist(s), {deny} deny finding(s), {warn} warn finding(s)",
        entries.len()
    );
    if mode == LintMode::Deny && deny > 0 {
        return Err(CliError::config(format!(
            "netlint({name}): refusing to run with deny findings (--lint=deny)"
        )));
    }
    Ok(())
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
        assert!(!p.progress);
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
        for retired in ["trace", "trace=results/t.json", "metrics-out=m.prom"] {
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
    fn progress_flag_parses_alongside_others() {
        let p = parse(&["--progress", "500", "--profile", "--telemetry"]);
        assert!(p.progress);
        assert_eq!(p.profile, Some(None));
        assert_eq!(p.mode, TelemetryMode::Table);
        assert_eq!(p.rest, vec!["500".to_string()]);
    }

    #[test]
    fn parent_creation_handles_bare_filenames() {
        assert!(ensure_parent("bare.json").is_ok());
    }

    #[test]
    fn probe_and_artifacts_flags_parse() {
        let p = parse(&["--probes", "7"]);
        assert_eq!(p.probes, Some(None));
        assert_eq!(p.rest, vec!["7".to_string()]);
        let p = parse(&["--probes=v(sl),i(vsense)"]);
        assert_eq!(p.probes, Some(Some("v(sl),i(vsense)".to_string())));
        assert_eq!(parse(&["--artifacts-dir"]).artifacts_dir, Some(None));
        assert_eq!(
            parse(&["--artifacts-dir=out/am"]).artifacts_dir,
            Some(Some("out/am".to_string()))
        );
        let off = parse(&["7"]);
        assert_eq!(off.probes, None);
        assert_eq!(off.artifacts_dir, None);
    }

    #[test]
    fn probe_labels_sanitize_to_filename_stems() {
        assert_eq!(sanitize_label("v(bl_sense)"), "v_bl_sense");
        assert_eq!(sanitize_label("i(vsense:0)"), "i_vsense_0");
    }

    #[test]
    fn lint_flags_parse() {
        assert_eq!(parse(&["7"]).lint, LintMode::Off);
        let p = parse(&["--lint", "7"]);
        assert_eq!(p.lint, LintMode::Warn);
        assert_eq!(p.rest, vec!["7".to_string()]);
        assert_eq!(parse(&["--lint=deny"]).lint, LintMode::Deny);
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

        // No campaign flag: the same CLI defaults.
        assert_eq!(
            campaign_options("fig11", &parse(&["500"])).unwrap(),
            defaulted
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
    fn probe_plan_surfaces_parse_errors_as_config_errors() {
        let (_, cli) = init_from("cli_test", ["--probes=bogus!!".to_string()].into_iter())
            .expect("init accepts a probes flag");
        let err = cli.probe_plan("v(sl)").unwrap_err();
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--probes"), "{}", err.message);
    }

    #[test]
    fn observability_flags_parse() {
        let p = parse(&["--profile", "7"]);
        assert_eq!(p.profile, Some(None));
        assert_eq!(p.rest, vec!["7".to_string()]);
        assert_eq!(
            parse(&["--profile=out/h.json"]).profile,
            Some(Some("out/h.json".to_string()))
        );
        assert_eq!(parse(&["7"]).profile, None);
    }

    #[test]
    fn init_rejects_bad_chaos_spec() {
        let err = init_from("cli_test", ["--chaos=bogus:p=2".to_string()].into_iter())
            .expect_err("invalid chaos spec must be a config error");
        assert_eq!(err.code, 2);
        assert!(err.message.contains("--chaos"), "{}", err.message);
    }
}
