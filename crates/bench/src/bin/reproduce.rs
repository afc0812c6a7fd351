//! Regenerate every table and figure of the thesis's evaluation.
//!
//! ```text
//! reproduce run     [--quick] [--out DIR] [cache flags] [IDS...]
//! reproduce scale   [--quick] [--widths LIST] [--json FILE] [cache flags]
//! reproduce bench   [--check-regression]
//! reproduce serve   [--addr HOST:PORT] [--queue-depth N] [--workers N]
//!                   [--max-body-bytes N] [--read-timeout-ms N]
//!                   [--wait-timeout-ms N] [cache flags]
//! reproduce hammer  [--requests N] [--concurrency N] [--no-record]
//! reproduce audit   [--quick] [--width N]
//! reproduce metrics [--quick] [--json FILE]
//! reproduce trace   [--quick] [--out FILE] [--event-capacity N]
//!
//! cache flags: [--cache-dir DIR] [--no-cache] [--cache-stats]
//! ```
//!
//! * `run` — run the study and print tables/figures. With no IDS,
//!   everything is regenerated; IDS are case-insensitive names (`table1
//!   table2 table3 table4 tableA1 fig3 .. fig14 figA1 .. figA5 figB1 ..
//!   figB10 comparison observability`, from
//!   [`fx8_core::report::SECTIONS`]); an unknown ID exits 2 with
//!   `error[request/unknown-id]` before the study runs. `--quick` runs a
//!   scaled-down study (seconds instead of minutes); `--out DIR`
//!   additionally writes `report.txt`, `comparison.md` and `study.json`
//!   under DIR.
//! * `bench` — measure every bench row (see [`fx8_bench::throughput`])
//!   and upsert them by name into `BENCH_throughput.json` at the repo root
//!   (`current` rows; the first run writes `baseline` rows too; a binary
//!   built with `--features audit` records under `audited` instead). The
//!   harness is CoV-adaptive with one fixed setting
//!   ([`fx8_bench::throughput::HARNESS`]): each measurement is re-timed
//!   until the windows' rates agree to within 3% or 12 windows have run,
//!   and every row carries its own CoV and window count.
//!   `--check-regression` measures but does **not** rewrite the file: it
//!   exits nonzero if a gated row (the engine cycles/s rates) fell below
//!   its tolerance or a stepping-mix ratio row differs at all, skipping (with a warning) any row whose fresh
//!   measurement never settled under the CoV threshold — a noisy runner
//!   must not fail the canary spuriously. CI's `bench-smoke` job runs this
//!   to catch throughput regressions.
//! * `scale` — the scaling study the paper couldn't run: one complete
//!   study per cluster width (default widths 2 4 8 16 32 64, override with
//!   `--widths 2,8,64`), printed as C_w/P_c/missrate/bus-utilization
//!   curves; `--json FILE` writes the full
//!   [`fx8_core::scale::ScaleStudy`]; `--quick` sweeps the scaled-down
//!   study per width. The sweep is *incremental*: every width's sessions
//!   fan out through one shared pool and consult the result cache, so
//!   re-running with one added width recomputes only that width's
//!   sessions.
//! * `serve` — run the study-as-a-service job server (see `fx8-serve`):
//!   `POST /v1/jobs` takes the same `JobRequest` JSON the CLI builds
//!   internally, a bounded queue feeds the shared session pool, and the
//!   result cache answers repeat jobs without recomputation. Blocks until
//!   `POST /v1/shutdown` drains it.
//! * `hammer` — load-test an in-process server with the quick study: one
//!   cold job to populate the cache, then `--concurrency` clients ×
//!   `--requests` warm requests each; prints p50 latency and req/s and
//!   (unless `--no-record`) records them as `serve.*` rows in
//!   `BENCH_throughput.json`. Exits nonzero if the warm-hit rate falls
//!   below 90%, any 5xx was served, or the server started more than four
//!   connection threads per client — CI's serve-smoke gate.
//!
//! `run`, `scale` and `serve` memoize session results in a
//! content-addressed cache (the simulator is bit-deterministic, so a
//! session result is a pure function of its validated config, seed,
//! session index, and engine version — see DESIGN.md §13). By default
//! entries persist under `$XDG_CACHE_HOME/fx8` (or `~/.cache/fx8`);
//! `--cache-dir DIR` redirects the store, `--no-cache` disables caching
//! entirely, and `--cache-stats` prints a machine-greppable `cache-stats:
//! hits=.. misses=.. stores=.. invalid=..` line on stdout. Audit, metrics,
//! and trace runs never read or write the cache: the auditor and the
//! trace ring only exist on a freshly stepped cluster.
//! * `audit` — run the study with the auditor's report only (no tables);
//!   meaningful when built with `--features audit`. `--width N` audits a
//!   scaled hypothetical cluster instead of the measured 8-CE machine.
//! * `metrics` — run the study with the `fx8-trace` metrics registry armed
//!   and print per-session/per-engine counters; `--json FILE` writes the
//!   full [`fx8_core::observability::MetricsReport`].
//! * `trace` — run the study with the event trace armed and export Chrome
//!   `trace_event` JSON (Perfetto-loadable), default `study.trace.json`.
//!
//! Every subcommand names its flags in one table ([`COMMANDS`]) read by
//! one argument loop; an unknown flag, a missing value or a malformed
//! number exits 1 with the usage. Invalid configurations (e.g.
//! `--event-capacity 0`) exit with code 2 and a one-line diagnostic naming
//! the offending field.

use fx8_bench::hammer;
use fx8_bench::throughput;
use fx8_core::analysis::Analysis;
use fx8_core::api::{self, codes, ApiError, JobRequest, JobResult};
use fx8_core::cache::{CacheStats, SessionCache};
use fx8_core::observability::StudyObservability;
use fx8_core::report::{self, CompRow};
use fx8_core::scale::ScaleConfig;
use fx8_core::study::{Study, StudyConfig};
use fx8_serve::{ServeConfig, Server};
use fx8_sim::{ConfigError, MachineConfig, TraceConfig};
use std::collections::{BTreeMap, BTreeSet};
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: reproduce <run|scale|bench|serve|hammer|audit|metrics|trace> [options]\n\
     \n\
     reproduce run     [--quick] [--out DIR] [cache flags] [IDS...]\n\
     reproduce scale   [--quick] [--widths LIST] [--json FILE] [cache flags]\n\
     reproduce bench   [--check-regression]\n\
     reproduce serve   [--addr HOST:PORT] [--queue-depth N] [--workers N] \
     [--max-body-bytes N] [--read-timeout-ms N] [--wait-timeout-ms N] [cache flags]\n\
     reproduce hammer  [--requests N] [--concurrency N] [--no-record]\n\
     reproduce audit   [--quick] [--width N]\n\
     reproduce metrics [--quick] [--json FILE]\n\
     reproduce trace   [--quick] [--out FILE] [--event-capacity N]\n\
     \n\
     cache flags: [--cache-dir DIR] [--no-cache] [--cache-stats] — session \
     results\n\
     memoize under --cache-dir (default ~/.cache/fx8); --no-cache disables, \
     \n\
     --cache-stats prints a greppable counter line\n\
     \n\
     IDS: table1 table2 table3 table4 tableA1 fig3..fig14 figA1..figA5 \
     figB1..figB10 comparison observability"
}

/// What a flag reads from the command line after it.
#[derive(Clone, Copy)]
enum Takes {
    /// Nothing: the flag is a switch.
    Switch,
    /// Any text, described as in "`--out` requires a directory".
    Text(&'static str),
    /// A non-negative integer.
    Number,
    /// A comma-separated list of cluster widths.
    Widths,
}

/// A flag's parsed value.
enum Value {
    On,
    Text(String),
    Number(usize),
    Widths(Vec<usize>),
}

impl Takes {
    /// Read this flag's value, if it takes one, from the rest of `argv`.
    fn read(self, flag: &str, argv: &mut impl Iterator<Item = String>) -> Result<Value, String> {
        let what = match self {
            Takes::Switch => return Ok(Value::On),
            Takes::Text(what) => what,
            Takes::Number => "a number",
            Takes::Widths => "a comma-separated list",
        };
        let v = argv
            .next()
            .ok_or_else(|| format!("{flag} requires {what}"))?;
        match self {
            Takes::Number => v
                .parse()
                .map(Value::Number)
                .map_err(|_| format!("{flag}: not a number: {v}")),
            Takes::Widths => v
                .split(',')
                .map(|w| w.trim().parse())
                .collect::<Result<_, _>>()
                .map(Value::Widths)
                .map_err(|_| format!("{flag}: not a width list: {v}")),
            _ => Ok(Value::Text(v)),
        }
    }
}

/// A subcommand: its name, the flags it accepts, whether its bare words
/// are report IDs, and the function that runs it.
struct Command {
    name: &'static str,
    flags: &'static [(&'static str, Takes)],
    ids: bool,
    run: fn(&Args) -> ExitCode,
}

/// Every subcommand and the flags it accepts. The first is the default
/// when `reproduce` is given no arguments.
const COMMANDS: [Command; 8] = [
    Command {
        name: "run",
        flags: &[
            ("--quick", Takes::Switch),
            ("--out", Takes::Text("a directory")),
            ("--cache-dir", Takes::Text("a directory")),
            ("--no-cache", Takes::Switch),
            ("--cache-stats", Takes::Switch),
        ],
        ids: true,
        run: cmd_run,
    },
    Command {
        name: "scale",
        flags: &[
            ("--quick", Takes::Switch),
            ("--widths", Takes::Widths),
            ("--json", Takes::Text("a file path")),
            ("--cache-dir", Takes::Text("a directory")),
            ("--no-cache", Takes::Switch),
            ("--cache-stats", Takes::Switch),
        ],
        ids: false,
        run: cmd_scale,
    },
    Command {
        name: "bench",
        flags: &[("--check-regression", Takes::Switch)],
        ids: false,
        run: cmd_bench,
    },
    Command {
        name: "serve",
        flags: &[
            ("--addr", Takes::Text("HOST:PORT")),
            ("--queue-depth", Takes::Number),
            ("--workers", Takes::Number),
            ("--max-body-bytes", Takes::Number),
            ("--read-timeout-ms", Takes::Number),
            ("--wait-timeout-ms", Takes::Number),
            ("--cache-dir", Takes::Text("a directory")),
            ("--no-cache", Takes::Switch),
            ("--cache-stats", Takes::Switch),
        ],
        ids: false,
        run: cmd_serve,
    },
    Command {
        name: "hammer",
        flags: &[
            ("--requests", Takes::Number),
            ("--concurrency", Takes::Number),
            ("--no-record", Takes::Switch),
        ],
        ids: false,
        run: cmd_hammer,
    },
    Command {
        name: "audit",
        flags: &[("--quick", Takes::Switch), ("--width", Takes::Number)],
        ids: false,
        run: cmd_audit,
    },
    Command {
        name: "metrics",
        flags: &[
            ("--quick", Takes::Switch),
            ("--json", Takes::Text("a file path")),
        ],
        ids: false,
        run: cmd_metrics,
    },
    Command {
        name: "trace",
        flags: &[
            ("--quick", Takes::Switch),
            ("--out", Takes::Text("a file path")),
            ("--event-capacity", Takes::Number),
        ],
        ids: false,
        run: cmd_trace,
    },
];

/// A parsed command line: the subcommand, the value of every flag given
/// (the last one wins), and the lower-cased report IDs.
struct Args {
    command: &'static Command,
    values: BTreeMap<&'static str, Value>,
    ids: BTreeSet<String>,
}

impl Args {
    fn has(&self, flag: &str) -> bool {
        self.values.contains_key(flag)
    }

    fn text(&self, flag: &str) -> Option<&str> {
        match self.values.get(flag) {
            Some(Value::Text(v)) => Some(v),
            _ => None,
        }
    }

    fn number(&self, flag: &str) -> Option<usize> {
        match self.values.get(flag) {
            Some(Value::Number(n)) => Some(*n),
            _ => None,
        }
    }

    fn widths(&self, flag: &str) -> Option<Vec<usize>> {
        match self.values.get(flag) {
            Some(Value::Widths(w)) => Some(w.clone()),
            _ => None,
        }
    }
}

/// The one loop over `argv`: a subcommand from [`COMMANDS`] (`run` when
/// there is none), then the flags it names. `Err(None)` is a request for
/// the usage (`--help`); `Err(Some(..))` is an argument error to print
/// above it.
fn parse(mut argv: impl Iterator<Item = String>) -> Result<Args, Option<String>> {
    let command = match argv.next() {
        None => &COMMANDS[0],
        Some(h) if h == "--help" || h == "-h" => return Err(None),
        Some(name) => COMMANDS
            .iter()
            .find(|c| c.name == name)
            .ok_or_else(|| format!("unknown subcommand {name}"))?,
    };
    let mut args = Args {
        command,
        values: BTreeMap::new(),
        ids: BTreeSet::new(),
    };
    while let Some(a) = argv.next() {
        if a == "--help" || a == "-h" {
            return Err(None);
        }
        match command.flags.iter().find(|(flag, _)| *flag == a) {
            Some(&(flag, takes)) => {
                let value = takes.read(flag, &mut argv)?;
                args.values.insert(flag, value);
            }
            None if command.ids && !a.starts_with('-') => {
                args.ids.insert(a.to_ascii_lowercase());
            }
            None => return Err(Some(format!("unknown flag {a} for {}", command.name))),
        }
    }
    Ok(args)
}

/// Resolve the cache flags to a cache. `--no-cache` wins; an explicit
/// `--cache-dir` is used as given; otherwise the conventional
/// `~/.cache/fx8` location, degrading to an in-process-only cache when no
/// home resolves.
fn build_cache(args: &Args) -> Option<SessionCache> {
    if args.has("--no-cache") {
        return None;
    }
    let cache = match (args.text("--cache-dir"), SessionCache::default_dir()) {
        (Some(d), _) => SessionCache::at_dir(d),
        (None, Some(d)) => SessionCache::at_dir(d),
        (None, None) => SessionCache::in_memory(),
    };
    Some(cache)
}

/// Where session results memoize, for the `result cache: …` narration.
fn cache_place(cache: Option<&SessionCache>) -> String {
    match cache.map(SessionCache::dir) {
        None => "disabled (--no-cache)".to_string(),
        Some(None) => "in-memory only, no cache dir resolved".to_string(),
        Some(Some(d)) => d.display().to_string(),
    }
}

/// Narrate where results memoized and how often they hit (stderr) and,
/// under `--cache-stats`, print the machine-greppable counter line
/// (stdout) CI parses.
fn report_cache(args: &Args, cache: Option<&SessionCache>, delta: &CacheStats) {
    eprintln!(
        "result cache: {} ({} hits / {} lookups)",
        cache_place(cache),
        delta.hits,
        delta.lookups()
    );
    if !args.has("--cache-stats") {
        return;
    }
    if cache.is_none() {
        println!("cache-stats: disabled");
    } else {
        println!(
            "cache-stats: hits={} misses={} stores={} invalid={}",
            delta.hits, delta.misses, delta.stores, delta.invalid_entries
        );
    }
}

/// Write an output through `write` and narrate it on stderr: `wrote
/// <what>`, or `failed to write <what>: <error>` and exit FAILURE.
fn write_output(what: &str, write: impl FnOnce() -> std::io::Result<()>) -> ExitCode {
    match write() {
        Ok(()) => {
            eprintln!("wrote {what}");
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("failed to write {what}: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The bench file every `bench` and `hammer` run reads and updates.
const BENCH_PATH: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");

/// Measure every row against the committed `current` rows without
/// rewriting the file. Fails if a gated row (the engine cycles/s rates:
/// the loop rate guards the dense stepper, the idle / serial / join-wait
/// rates guard its jumps) dropped below its tolerance, or
/// an exactly gated row (the engines' stepping-mix ratios) changed. The
/// verdicts come from [`throughput::regression_outcomes`]; this function
/// only narrates them. Rows whose fresh windows never settled under the
/// CoV threshold, and rows with no usable committed value, are reported
/// but never gated; ungated layers are printed in the tables only.
fn run_check_regression() -> ExitCode {
    let committed = match throughput::load(BENCH_PATH) {
        Ok(f) => f.current,
        Err(e) => {
            eprintln!("reproduce: {e}; nothing to check against");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("measuring bench rows for regression check...");
    let fresh = throughput::measure(1.0, StudyConfig::quick());
    print!("{}", throughput::render("committed", &committed));
    print!("{}", throughput::render("fresh", &fresh));
    let mut regressed = false;
    let cov_threshold = throughput::HARNESS.cov_threshold;
    for o in throughput::regression_outcomes(&committed, &fresh, cov_threshold) {
        let (name, unit) = (&o.name, &o.unit);
        let tol_pct = o.tolerance.unwrap_or(0.0) * 100.0;
        let committed = o.committed.unwrap_or(f64::NAN);
        let cov_pct = o.fresh_cov.map_or(f64::NAN, |c| c * 100.0);
        match o.verdict {
            throughput::GateVerdict::Ungated => {}
            throughput::GateVerdict::SkippedNoBaseline => {
                eprintln!(
                    "NOTE: no regression gate for {name}: no usable committed row \
                     ({committed}); re-run `reproduce bench` to record a baseline",
                );
            }
            throughput::GateVerdict::SkippedNoisy => {
                eprintln!(
                    "WARNING: skipping {name} regression gate: windows never settled \
                     (CoV {cov_pct:.1}% >= threshold {:.1}%) — runner too noisy for a \
                     {tol_pct:.0}% comparison",
                    cov_threshold * 100.0,
                );
            }
            throughput::GateVerdict::Regressed => {
                eprintln!(
                    "REGRESSION: {name} {:.0} {unit} fell below {:.0} ({tol_pct:.0}% under \
                     the committed {committed:.0})",
                    o.fresh,
                    o.floor.unwrap_or(f64::NAN),
                );
                regressed = true;
            }
            throughput::GateVerdict::Changed => {
                eprintln!(
                    "REGRESSION: {name} is {} but the committed value is {committed}: \
                     the engines' stepping mix changed",
                    o.fresh,
                );
                regressed = true;
            }
            throughput::GateVerdict::Ok if o.tolerance.is_none() => {
                eprintln!("ok: {name} {} {unit} equals the committed value", o.fresh);
            }
            throughput::GateVerdict::Ok => {
                eprintln!(
                    "ok: {name} {:.0} {unit} within {tol_pct:.0}% of committed \
                     {committed:.0} (CoV {cov_pct:.1}%)",
                    o.fresh,
                );
            }
        }
    }
    if regressed {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

/// Measure every row and merge it into `BENCH_throughput.json` at the
/// repo root, or, under `--check-regression`, only check the fresh rows
/// against it. A missing file starts fresh; an unreadable or invalid file
/// is reported and left untouched.
fn cmd_bench(args: &Args) -> ExitCode {
    if args.has("--check-regression") {
        return run_check_regression();
    }
    let previous = match throughput::load(BENCH_PATH) {
        Ok(f) => Some(f),
        Err(throughput::BenchLoadError::Io { source, .. })
            if source.kind() == std::io::ErrorKind::NotFound =>
        {
            None
        }
        Err(e) => {
            eprintln!("reproduce: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("measuring bench rows (engine / monitor / study / analysis / serde)...");
    let current = throughput::measure(1.0, StudyConfig::quick());
    let file = throughput::merge(previous, current, cfg!(feature = "audit"));
    print!("{}", throughput::render("baseline", &file.baseline));
    print!("{}", throughput::render("current", &file.current));
    if !file.audited.is_empty() {
        print!("{}", throughput::render("audited", &file.audited));
    }
    if let Some(speedup) = throughput::loop_speedup(&file) {
        println!("loop speedup over baseline: {speedup:.2}x");
    }
    write_output(BENCH_PATH, || throughput::save(BENCH_PATH, &file))
}

/// Print a typed API failure in the uniform envelope format — the same
/// code and message an HTTP client would see in
/// `{"api":1,"error":{...}}` — and exit with the documented code 2.
fn api_error(e: ApiError) -> ExitCode {
    eprintln!("reproduce: {e}");
    ExitCode::from(2)
}

/// Map an invalid configuration through the stable-code mapping to the
/// uniform envelope (exit code 2, `error[config/...]: ...` diagnostic).
fn config_error(e: ConfigError) -> ExitCode {
    api_error(ApiError::from(e))
}

/// The study configuration for a subcommand, with the given trace knobs,
/// validated before anything runs.
fn study_cfg(quick: bool, trace: TraceConfig) -> Result<StudyConfig, ConfigError> {
    let mut cfg = if quick {
        StudyConfig::quick()
    } else {
        StudyConfig::paper()
    };
    cfg.machine.trace = trace;
    cfg.validate()?;
    Ok(cfg)
}

/// Run the study against an optional result cache, narrating scale and
/// timing on stderr, and return it with its paper comparison rows and its
/// observability. The CLI is just another API client: the config
/// becomes a [`JobRequest`] executed through the same entry point the
/// HTTP server uses, so both transports validate, cache, and fail
/// identically.
fn run_study(
    cfg: StudyConfig,
    quick: bool,
    cache: Option<&SessionCache>,
) -> Result<(Study, Vec<CompRow>, StudyObservability), ApiError> {
    eprintln!(
        "running study: {} random sessions, {} triggered, {} transition ({} mode)...",
        cfg.n_random,
        cfg.n_triggered,
        cfg.n_transition,
        if quick { "quick" } else { "paper" }
    );
    let outcome = api::execute(&JobRequest::study(cfg), cache)?;
    let JobResult::Study { study, comparison } = outcome.result else {
        unreachable!("a study request returns a study result");
    };
    let obs = outcome.study_obs.expect("study jobs carry observability");
    eprintln!(
        "study complete in {:.1}s: {} samples, {} records",
        obs.study_wall_s,
        study.all_samples().len(),
        study.pooled_counts().records
    );
    Ok((study, comparison, obs))
}

/// Print the audit report; false if violations were recorded.
fn print_audit(study: &Study) -> bool {
    if !cfg!(feature = "audit") {
        eprintln!(
            "warning: reproduce was built without the `audit` feature; \
             the auditor did not run and the report below is vacuous \
             (rebuild with `cargo run --features audit --bin reproduce`)"
        );
    }
    let audit = study.audit_report();
    eprint!("{}", audit.render());
    if !audit.is_clean() {
        eprintln!(
            "audit FAILED: {} invariant violations",
            audit.total_violations()
        );
        return false;
    }
    true
}

/// The `run` IDs beyond the tables and figures of [`report::SECTIONS`].
const REPORT_IDS: [&str; 2] = ["comparison", "observability"];

/// Reject any requested ID that names no section, before the study runs.
fn check_ids(ids: &BTreeSet<String>) -> Result<(), ApiError> {
    let known = |id: &str| {
        report::SECTIONS
            .iter()
            .map(|(s, _)| *s)
            .chain(REPORT_IDS)
            .any(|s| s.eq_ignore_ascii_case(id))
    };
    match ids.iter().find(|id| !known(id)) {
        Some(id) => Err(ApiError::new(
            codes::UNKNOWN_ID,
            format!("unknown experiment id {id:?}; see `reproduce --help` for the IDs"),
        )),
        None => Ok(()),
    }
}

fn cmd_run(args: &Args) -> ExitCode {
    if let Err(e) = check_ids(&args.ids) {
        return api_error(e);
    }
    let quick = args.has("--quick");
    let cfg = match study_cfg(quick, TraceConfig::metrics_only()) {
        Ok(c) => c,
        Err(e) => return config_error(e),
    };
    let cache = build_cache(args);
    let (study, comparison, obs) = match run_study(cfg, quick, cache.as_ref()) {
        Ok(r) => r,
        Err(e) => return api_error(e),
    };
    report_cache(args, cache.as_ref(), &obs.cache);

    let wanted = |id: &str| args.ids.is_empty() || args.ids.contains(&id.to_ascii_lowercase());
    let mut printed = String::new();
    let mut emit = |id: &str, text: &str| {
        if wanted(id) {
            println!("==================== {id} ====================");
            println!("{text}");
        }
        printed.push_str(&format!("==================== {id} ====================\n"));
        printed.push_str(text);
        printed.push('\n');
    };

    let analysis = Analysis::new(&study);
    for (id, render) in report::SECTIONS {
        if let Some(text) = render(&analysis) {
            emit(id, &text);
        }
    }
    let comparison = report::render_comparison(&comparison);
    emit("comparison", &comparison);
    emit("observability", &obs.render());

    match args.text("--out") {
        Some(dir) => write_output(
            &format!("report.txt, comparison.md and study.json to {dir}/"),
            || write_outputs(dir, &study, &printed, &comparison),
        ),
        None => ExitCode::SUCCESS,
    }
}

fn cmd_audit(args: &Args) -> ExitCode {
    let quick = args.has("--quick");
    let width = args.number("--width");
    let cfg = match study_cfg(quick, TraceConfig::off()).and_then(|c| match width {
        Some(w) => {
            let c = StudyConfig {
                machine: MachineConfig::scaled(w),
                ..c
            };
            c.validate().map(|()| c)
        }
        None => Ok(c),
    }) {
        Ok(c) => c,
        Err(e) => return config_error(e),
    };
    if let Some(w) = width {
        eprintln!("auditing a scaled {w}-CE cluster");
    }
    let (study, _, _) = match run_study(cfg, quick, None) {
        Ok(r) => r,
        Err(e) => return api_error(e),
    };
    if print_audit(&study) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_scale(args: &Args) -> ExitCode {
    let quick = args.has("--quick");
    let mut cfg = if quick {
        ScaleConfig::quick()
    } else {
        ScaleConfig::paper()
    };
    if let Some(w) = args.widths("--widths") {
        cfg.widths = w;
    }
    eprintln!(
        "running scaling study across widths {:?} ({} mode)...",
        cfg.widths,
        if quick { "quick" } else { "paper" }
    );
    let cache = build_cache(args);
    // Same entry point as the HTTP server's scale jobs — validation,
    // caching, and the error envelope are shared, not parallel code paths.
    let n_widths = cfg.widths.len();
    let outcome = match api::execute(&JobRequest::scale(cfg), cache.as_ref()) {
        Ok(o) => o,
        Err(e) => return api_error(e),
    };
    let JobResult::Scale { study } = outcome.result else {
        unreachable!("a scale request returns a scale result");
    };
    let obs = outcome.study_obs.expect("scale jobs carry observability");
    eprintln!(
        "sweep complete in {:.1}s: {} sessions across {} widths",
        obs.study_wall_s,
        obs.sessions.len(),
        n_widths
    );
    report_cache(args, cache.as_ref(), &obs.cache);
    print!("{}", study.render());
    match args.text("--json") {
        Some(path) => {
            let payload = serde_json::to_string(&study).expect("scale study serializes");
            write_output(path, || std::fs::write(path, payload + "\n"))
        }
        None => ExitCode::SUCCESS,
    }
}

fn cmd_metrics(args: &Args) -> ExitCode {
    let quick = args.has("--quick");
    let cfg = match study_cfg(quick, TraceConfig::metrics_only()) {
        Ok(c) => c,
        Err(e) => return config_error(e),
    };
    let (_, _, obs) = match run_study(cfg, quick, None) {
        Ok(r) => r,
        Err(e) => return api_error(e),
    };
    print!("{}", obs.render());
    match args.text("--json") {
        Some(path) => {
            let payload =
                serde_json::to_string(&obs.metrics_report()).expect("metrics report serializes");
            write_output(path, || std::fs::write(path, payload + "\n"))
        }
        None => ExitCode::SUCCESS,
    }
}

fn cmd_trace(args: &Args) -> ExitCode {
    let quick = args.has("--quick");
    let out = args.text("--out").unwrap_or("study.trace.json");
    let mut trace = TraceConfig::full();
    if let Some(cap) = args.number("--event-capacity") {
        trace.event_capacity = cap;
    }
    let cfg = match study_cfg(quick, trace) {
        Ok(c) => c,
        Err(e) => return config_error(e),
    };
    let ns_per_cycle = cfg.machine.ns_per_cycle;
    let (_, _, obs) = match run_study(cfg, quick, None) {
        Ok(r) => r,
        Err(e) => return api_error(e),
    };
    let recorded: u64 = obs.sessions.iter().map(|s| s.metrics.events_recorded).sum();
    let dropped: u64 = obs.sessions.iter().map(|s| s.events_dropped).sum();
    eprintln!(
        "trace: {} sessions, {recorded} events recorded ({dropped} dropped by the ring); \
         open the file in Perfetto or chrome://tracing",
        obs.sessions.len()
    );
    let json = obs.chrome_trace(ns_per_cycle);
    write_output(out, || std::fs::write(out, json + "\n"))
}

/// Bind the job server and run it until a `POST /v1/shutdown` (or signal
/// from the worker side) drains it. Blocks the calling thread.
fn cmd_serve(args: &Args) -> ExitCode {
    let mut cfg = ServeConfig::default();
    if let Some(addr) = args.text("--addr") {
        cfg.addr = addr.to_string();
    }
    let number = |flag, default| args.number(flag).unwrap_or(default);
    cfg.queue_depth = number("--queue-depth", cfg.queue_depth);
    cfg.workers = number("--workers", cfg.workers);
    cfg.max_body_bytes = number("--max-body-bytes", cfg.max_body_bytes);
    cfg.read_timeout_ms = number("--read-timeout-ms", cfg.read_timeout_ms as usize) as u64;
    cfg.wait_timeout_ms = number("--wait-timeout-ms", cfg.wait_timeout_ms as usize) as u64;
    let cache = build_cache(args);
    eprintln!("result cache: {}", cache_place(cache.as_ref()));
    let server = match Server::bind(cfg, cache) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("reproduce: serve: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!(
        "serving on http://{} — POST /v1/jobs, GET /v1/metrics, POST /v1/shutdown",
        server.local_addr()
    );
    if let Err(e) = server.run() {
        eprintln!("reproduce: serve: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("server drained; bye");
    ExitCode::SUCCESS
}

/// Load-test an in-process server and (unless `--no-record`) fold the
/// serve numbers into `BENCH_throughput.json`. Exits nonzero if a CI gate
/// (warm-hit rate, 5xx, connection threads per client) fails.
fn cmd_hammer(args: &Args) -> ExitCode {
    let defaults = hammer::HammerOptions::default();
    let opts = hammer::HammerOptions {
        requests: args.number("--requests").unwrap_or(defaults.requests),
        concurrency: args.number("--concurrency").unwrap_or(defaults.concurrency),
    };
    if let Err(e) = opts.validate() {
        return config_error(e);
    }
    let report = match hammer::run(&opts) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("reproduce: hammer: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.render());
    // The greppable line CI and scripts parse.
    println!(
        "hammer-stats: warm_p50_ms={:.3} req_per_s={:.1} warm_hit_rate={:.3} responses_5xx={} \
         connection_threads={}",
        report.warm_p50_ms,
        report.req_per_s,
        report.warm_hit_rate,
        report.responses_5xx,
        report.connection_threads
    );
    if !args.has("--no-record") {
        match hammer::record(BENCH_PATH, &report) {
            Ok(()) => eprintln!("recorded serve numbers into {BENCH_PATH}"),
            Err(e) => {
                eprintln!("reproduce: hammer: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let failures = report.gate_failures();
    if !failures.is_empty() {
        for f in &failures {
            eprintln!("hammer GATE FAILED: {f}");
        }
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    match parse(std::env::args().skip(1)) {
        Ok(args) => (args.command.run)(&args),
        Err(message) => {
            if let Some(m) = message {
                eprintln!("{m}");
            }
            eprintln!("{}", usage());
            ExitCode::FAILURE
        }
    }
}

fn write_outputs(
    dir: &str,
    study: &Study,
    report_text: &str,
    comparison: &str,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    std::fs::write(format!("{dir}/report.txt"), report_text)?;
    std::fs::write(format!("{dir}/comparison.md"), comparison)?;
    let json = serde_json::to_string(study).expect("study serializes");
    std::fs::write(format!("{dir}/study.json"), json)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse_words(words: &[&str]) -> Result<Args, Option<String>> {
        parse(words.iter().map(|w| w.to_string()))
    }

    #[test]
    fn usage_names_every_flag_each_subcommand_accepts() {
        let flags_in = |line: &str| -> BTreeSet<String> {
            line.split(|c: char| c.is_whitespace() || "[]|".contains(c))
                .filter(|w| w.starts_with("--"))
                .map(str::to_string)
                .collect()
        };
        let lines: Vec<&str> = usage().lines().collect();
        let cache_line = lines.iter().find(|l| l.starts_with("cache flags:"));
        let cache_flags = flags_in(cache_line.expect("usage explains the cache flags"));
        for c in &COMMANDS {
            let prefix = format!("reproduce {} ", c.name);
            let line = lines
                .iter()
                .find(|l| l.starts_with(&prefix))
                .unwrap_or_else(|| panic!("usage has no line for {}", c.name));
            let mut listed = flags_in(line);
            if line.contains("[cache flags]") {
                listed.extend(cache_flags.iter().cloned());
            }
            let accepted: BTreeSet<String> = c.flags.iter().map(|(f, _)| f.to_string()).collect();
            assert_eq!(listed, accepted, "usage line for {}", c.name);
            assert_eq!(line.contains("[IDS...]"), c.ids, "IDS on {}", c.name);
        }
    }

    #[test]
    fn flags_parse_to_their_values_and_errors_keep_their_wording() {
        let args =
            parse_words(&["scale", "--widths", "2, 4", "--json", "a", "--json", "b"]).unwrap();
        assert_eq!(args.command.name, "scale");
        assert_eq!(args.widths("--widths"), Some(vec![2, 4]));
        assert_eq!(args.text("--json"), Some("b"), "the last value wins");
        let args = parse_words(&["run", "Table2", "--quick", "fig3"]).unwrap();
        assert!(args.has("--quick") && !args.has("--no-cache"));
        assert_eq!(args.ids, BTreeSet::from(["table2".into(), "fig3".into()]));
        assert_eq!(parse_words(&[]).unwrap().command.name, "run");

        let error = |words: &[&str]| parse_words(words).err().unwrap();
        assert_eq!(error(&["--help"]), None);
        assert_eq!(error(&["trace", "-h"]), None);
        for (words, message) in [
            (&["nope"][..], "unknown subcommand nope"),
            (
                &["audit", "--widths", "2"],
                "unknown flag --widths for audit",
            ),
            (&["trace", "extra"], "unknown flag extra for trace"),
            (&["run", "--out"], "--out requires a directory"),
            (&["trace", "--out"], "--out requires a file path"),
            (&["serve", "--addr"], "--addr requires HOST:PORT"),
            (&["hammer", "--requests"], "--requests requires a number"),
            (&["serve", "--workers", "x"], "--workers: not a number: x"),
            (
                &["scale", "--widths"],
                "--widths requires a comma-separated list",
            ),
            (
                &["scale", "--widths", "2,x"],
                "--widths: not a width list: 2,x",
            ),
        ] {
            assert_eq!(error(words), Some(message.to_string()), "{words:?}");
        }
    }
}
