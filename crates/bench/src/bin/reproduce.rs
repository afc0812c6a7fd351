//! Regenerate every table and figure of the thesis's evaluation.
//!
//! ```text
//! reproduce run     [--quick] [--out DIR] [cache flags] [IDS...]
//! reproduce scale   [--quick] [--widths LIST] [--json FILE] [cache flags]
//! reproduce bench   [--as-baseline | --check-regression]
//! reproduce serve   [--addr HOST:PORT] [--queue-depth N] [--workers N] [cache flags]
//! reproduce hammer  [--quick] [--requests N] [--concurrency N] [--no-record]
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
//!   (`current` rows; `--as-baseline` rewrites `baseline` rows too; a
//!   binary built with `--features audit` records under `audited`
//!   instead). The harness is CoV-adaptive: each measurement is re-timed
//!   until the windows' rates agree to within `--cov-threshold` (default
//!   0.03, i.e. 3%) or `--max-windows` (default 12) windows have run, and
//!   every row carries its own CoV and window count.
//!   `--check-regression` measures but does **not** rewrite the file: it
//!   exits nonzero if a gated row (the engine cycles/s rates) fell below
//!   its tolerance, skipping (with a warning) any row whose fresh
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
//! * `hammer` — load-test an in-process server: one cold job to populate
//!   the cache, then `--concurrency` clients × `--requests` warm requests
//!   each; prints p50 latency and req/s and (unless `--no-record`) records
//!   them as `serve.*` rows in `BENCH_throughput.json`. Exits nonzero if
//!   the warm-hit rate falls below 90% or any 5xx was served — CI's
//!   serve-smoke gate.
//!
//! `run` and `scale` memoize session results in a content-addressed cache
//! (the simulator is bit-deterministic, so a session result is a pure
//! function of its validated config, seed, session index, and engine
//! version — see DESIGN.md §13). By default entries persist under
//! `$XDG_CACHE_HOME/fx8` (or `~/.cache/fx8`); `--cache-dir DIR` redirects
//! the store, `--no-cache` disables caching entirely, and `--cache-stats`
//! prints a machine-greppable `cache-stats: hits=.. misses=.. stores=..
//! invalid=..` line on stdout. Audit, metrics, and trace runs never read
//! or write the cache: the auditor and the trace ring only exist on a
//! freshly stepped cluster.
//! * `audit` — run the study with the auditor's report only (no tables);
//!   meaningful when built with `--features audit`. `--width N` audits a
//!   scaled hypothetical cluster instead of the measured 8-CE machine.
//! * `metrics` — run the study with the `fx8-trace` metrics registry armed
//!   and print per-session/per-engine counters; `--json FILE` writes the
//!   full [`fx8_core::observability::MetricsReport`].
//! * `trace` — run the study with the event trace armed and export Chrome
//!   `trace_event` JSON (Perfetto-loadable), default `study.trace.json`.
//!
//! Invalid configurations (e.g. `--event-capacity 0`) exit with code 2 and
//! a one-line diagnostic naming the offending field.

use fx8_bench::hammer;
use fx8_bench::throughput;
use fx8_core::api::{self, codes, ApiError, JobRequest, JobResult};
use fx8_core::cache::{CacheStats, SessionCache};
use fx8_core::observability::StudyObservability;
use fx8_core::report;
use fx8_core::scale::ScaleConfig;
use fx8_core::study::{Study, StudyConfig};
use fx8_serve::{ServeConfig, Server};
use fx8_sim::{ConfigError, MachineConfig, TraceConfig};
use std::collections::BTreeSet;
use std::process::ExitCode;

fn usage() -> &'static str {
    "usage: reproduce <run|scale|bench|serve|hammer|audit|metrics|trace> [options]\n\
     \n\
     reproduce run     [--quick] [--out DIR] [cache flags] [IDS...]\n\
     reproduce scale   [--quick] [--widths LIST] [--json FILE] [cache flags]\n\
     reproduce bench   [--as-baseline | --check-regression] \
     [--cov-threshold F] [--max-windows N]\n\
     reproduce serve   [--addr HOST:PORT] [--queue-depth N] [--workers N] \
     [cache flags]\n\
     reproduce hammer  [--quick] [--requests N] [--concurrency N] [--no-record]\n\
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

/// The session-result-cache flags shared by `run` and `scale`.
#[derive(Default)]
struct CacheOpts {
    /// Explicit persistent directory (`--cache-dir DIR`).
    dir: Option<String>,
    /// `--no-cache`: run every session fresh, store nothing.
    no_cache: bool,
    /// `--cache-stats`: print the greppable counter line on stdout.
    stats: bool,
}

impl CacheOpts {
    /// Try to consume one flag; true if it was a cache flag.
    fn parse_flag(
        &mut self,
        flag: &str,
        argv: &mut impl Iterator<Item = String>,
    ) -> Result<bool, String> {
        match flag {
            "--cache-dir" => {
                self.dir = Some(argv.next().ok_or("--cache-dir requires a directory")?);
                Ok(true)
            }
            "--no-cache" => {
                self.no_cache = true;
                Ok(true)
            }
            "--cache-stats" => {
                self.stats = true;
                Ok(true)
            }
            _ => Ok(false),
        }
    }

    /// Resolve the flags to a cache. `--no-cache` wins; an explicit dir is
    /// used as given; otherwise the conventional `~/.cache/fx8` location,
    /// degrading to an in-process-only cache when no home resolves.
    fn build(&self) -> Option<SessionCache> {
        if self.no_cache {
            return None;
        }
        Some(match (&self.dir, SessionCache::default_dir()) {
            (Some(d), _) => SessionCache::at_dir(d),
            (None, Some(d)) => SessionCache::at_dir(d),
            (None, None) => SessionCache::in_memory(),
        })
    }

    /// Narrate where results memoize (stderr) and, under `--cache-stats`,
    /// print the machine-greppable counter line (stdout) CI parses.
    fn report(&self, cache: Option<&SessionCache>, delta: &CacheStats) {
        let Some(cache) = cache else {
            if self.stats {
                println!("cache-stats: disabled");
            }
            return;
        };
        match cache.dir() {
            Some(d) => eprintln!(
                "result cache: {} ({} hits / {} lookups)",
                d.display(),
                delta.hits,
                delta.lookups()
            ),
            None => eprintln!(
                "result cache: in-memory only, no cache dir resolved \
                 ({} hits / {} lookups)",
                delta.hits,
                delta.lookups()
            ),
        }
        if self.stats {
            println!(
                "cache-stats: hits={} misses={} stores={} invalid={}",
                delta.hits, delta.misses, delta.stores, delta.invalid_entries
            );
        }
    }
}

struct RunArgs {
    quick: bool,
    out: Option<String>,
    cache: CacheOpts,
    ids: BTreeSet<String>,
}

enum Cmd {
    Run(RunArgs),
    Bench {
        as_baseline: bool,
        check_regression: bool,
        opts: throughput::BenchOptions,
    },
    Scale {
        quick: bool,
        widths: Option<Vec<usize>>,
        json: Option<String>,
        cache: CacheOpts,
    },
    Audit {
        quick: bool,
        width: Option<usize>,
    },
    Metrics {
        quick: bool,
        json: Option<String>,
    },
    Trace {
        quick: bool,
        out: String,
        event_capacity: Option<usize>,
    },
    Serve {
        cfg: ServeConfig,
        cache: CacheOpts,
    },
    Hammer {
        opts: hammer::HammerOptions,
        record: bool,
    },
}

fn parse_run(mut argv: impl Iterator<Item = String>) -> Result<Cmd, String> {
    let mut args = RunArgs {
        quick: false,
        out: None,
        cache: CacheOpts::default(),
        ids: BTreeSet::new(),
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--quick" => args.quick = true,
            "--out" => args.out = Some(argv.next().ok_or("--out requires a directory")?),
            "--help" | "-h" => return Err(usage().to_string()),
            flag if args.cache.parse_flag(flag, &mut argv)? => {}
            id if !id.starts_with('-') => {
                args.ids.insert(id.to_ascii_lowercase());
            }
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    Ok(Cmd::Run(args))
}

fn parse_bench(mut argv: impl Iterator<Item = String>) -> Result<Cmd, String> {
    let mut as_baseline = false;
    let mut check_regression = false;
    let mut opts = throughput::BenchOptions::default();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--as-baseline" => as_baseline = true,
            "--check-regression" => check_regression = true,
            "--cov-threshold" => {
                let v = argv.next().ok_or("--cov-threshold requires a fraction")?;
                opts.cov_threshold = v
                    .parse::<f64>()
                    .map_err(|_| format!("--cov-threshold: not a number: {v}"))?;
            }
            "--max-windows" => {
                let v = argv.next().ok_or("--max-windows requires a number")?;
                opts.max_windows = v
                    .parse::<u32>()
                    .map_err(|_| format!("--max-windows: not a number: {v}"))?;
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other}\n{}", usage())),
        }
    }
    if check_regression && as_baseline {
        return Err(format!(
            "--check-regression and --as-baseline are mutually exclusive\n{}",
            usage()
        ));
    }
    Ok(Cmd::Bench {
        as_baseline,
        check_regression,
        opts,
    })
}

fn parse_scale(mut argv: impl Iterator<Item = String>) -> Result<Cmd, String> {
    let mut quick = false;
    let mut widths = None;
    let mut json = None;
    let mut cache = CacheOpts::default();
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--widths" => {
                let v = argv
                    .next()
                    .ok_or("--widths requires a comma-separated list")?;
                let parsed: Result<Vec<usize>, _> =
                    v.split(',').map(|w| w.trim().parse::<usize>()).collect();
                widths = Some(parsed.map_err(|_| format!("--widths: not a width list: {v}"))?);
            }
            "--json" => json = Some(argv.next().ok_or("--json requires a file path")?),
            "--help" | "-h" => return Err(usage().to_string()),
            flag if cache.parse_flag(flag, &mut argv)? => {}
            other => return Err(format!("unknown flag {other} for scale\n{}", usage())),
        }
    }
    Ok(Cmd::Scale {
        quick,
        widths,
        json,
        cache,
    })
}

fn parse_audit(mut argv: impl Iterator<Item = String>) -> Result<Cmd, String> {
    let mut quick = false;
    let mut width = None;
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--width" => {
                let v = argv.next().ok_or("--width requires a number")?;
                width = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--width: not a number: {v}"))?,
                );
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other} for audit\n{}", usage())),
        }
    }
    Ok(Cmd::Audit { quick, width })
}

fn parse_metrics(mut argv: impl Iterator<Item = String>) -> Result<Cmd, String> {
    let mut quick = false;
    let mut json = None;
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--json" => json = Some(argv.next().ok_or("--json requires a file path")?),
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other} for metrics\n{}", usage())),
        }
    }
    Ok(Cmd::Metrics { quick, json })
}

fn parse_trace(mut argv: impl Iterator<Item = String>) -> Result<Cmd, String> {
    let mut quick = false;
    let mut out = String::from("study.trace.json");
    let mut event_capacity = None;
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--out" => out = argv.next().ok_or("--out requires a file path")?,
            "--event-capacity" => {
                let v = argv.next().ok_or("--event-capacity requires a number")?;
                event_capacity = Some(
                    v.parse::<usize>()
                        .map_err(|_| format!("--event-capacity: not a number: {v}"))?,
                );
            }
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other} for trace\n{}", usage())),
        }
    }
    Ok(Cmd::Trace {
        quick,
        out,
        event_capacity,
    })
}

fn parse_serve(mut argv: impl Iterator<Item = String>) -> Result<Cmd, String> {
    let mut cfg = ServeConfig::default();
    let mut cache = CacheOpts::default();
    let parse_num = |flag: &str, v: Option<String>| -> Result<usize, String> {
        let v = v.ok_or_else(|| format!("{flag} requires a number"))?;
        v.parse::<usize>()
            .map_err(|_| format!("{flag}: not a number: {v}"))
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--addr" => cfg.addr = argv.next().ok_or("--addr requires HOST:PORT")?,
            "--queue-depth" => cfg.queue_depth = parse_num("--queue-depth", argv.next())?,
            "--workers" => cfg.workers = parse_num("--workers", argv.next())?,
            "--max-body-bytes" => cfg.max_body_bytes = parse_num("--max-body-bytes", argv.next())?,
            "--read-timeout-ms" => {
                cfg.read_timeout_ms = parse_num("--read-timeout-ms", argv.next())? as u64
            }
            "--wait-timeout-ms" => {
                cfg.wait_timeout_ms = parse_num("--wait-timeout-ms", argv.next())? as u64
            }
            "--help" | "-h" => return Err(usage().to_string()),
            flag if cache.parse_flag(flag, &mut argv)? => {}
            other => return Err(format!("unknown flag {other} for serve\n{}", usage())),
        }
    }
    Ok(Cmd::Serve { cfg, cache })
}

fn parse_hammer(mut argv: impl Iterator<Item = String>) -> Result<Cmd, String> {
    let mut opts = hammer::HammerOptions::default();
    let mut record = true;
    let parse_num = |flag: &str, v: Option<String>| -> Result<usize, String> {
        let v = v.ok_or_else(|| format!("{flag} requires a number"))?;
        v.parse::<usize>()
            .map_err(|_| format!("{flag}: not a number: {v}"))
    };
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--quick" => opts.quick = true,
            "--requests" => opts.requests = parse_num("--requests", argv.next())?,
            "--concurrency" => opts.concurrency = parse_num("--concurrency", argv.next())?,
            "--no-record" => record = false,
            "--help" | "-h" => return Err(usage().to_string()),
            other => return Err(format!("unknown flag {other} for hammer\n{}", usage())),
        }
    }
    Ok(Cmd::Hammer { opts, record })
}

fn parse_cmd() -> Result<Cmd, String> {
    let mut argv = std::env::args().skip(1);
    match argv.next() {
        None => Ok(Cmd::Run(RunArgs {
            quick: false,
            out: None,
            cache: CacheOpts::default(),
            ids: BTreeSet::new(),
        })),
        Some(first) => match first.as_str() {
            "run" => parse_run(argv),
            "scale" => parse_scale(argv),
            "bench" => parse_bench(argv),
            "serve" => parse_serve(argv),
            "hammer" => parse_hammer(argv),
            "audit" => parse_audit(argv),
            "metrics" => parse_metrics(argv),
            "trace" => parse_trace(argv),
            "--help" | "-h" => Err(usage().to_string()),
            other => Err(format!("unknown subcommand {other}\n{}", usage())),
        },
    }
}

/// Measure every row against the committed `current` rows without
/// rewriting the file. Fails if a gated row (the engine cycles/s rates:
/// the loop rate guards the dense stepper, the idle / serial / join-wait
/// rates guard the fast-forward engine) dropped below its tolerance. The
/// verdicts come from [`throughput::regression_outcomes`]; this function
/// only narrates them. Rows whose fresh windows never settled under the
/// CoV threshold, and rows with no usable committed value, are reported
/// but never gated; ungated layers are printed in the tables only.
fn run_check_regression(path: &str, opts: &throughput::BenchOptions) -> ExitCode {
    let committed = match throughput::load(path) {
        Ok(f) => f.current,
        Err(e) => {
            eprintln!("reproduce: {e}; nothing to check against");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("measuring bench rows for regression check...");
    let fresh = throughput::measure(1.0, StudyConfig::quick(), opts);
    print!("{}", throughput::render("committed", &committed));
    print!("{}", throughput::render("fresh", &fresh));
    let mut regressed = false;
    for o in throughput::regression_outcomes(&committed, &fresh, opts.cov_threshold) {
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
                    opts.cov_threshold * 100.0,
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
/// repo root. A missing file starts fresh; an unreadable, invalid or
/// flat-schema file is reported and left untouched.
fn run_bench_json(as_baseline: bool, opts: &throughput::BenchOptions) -> ExitCode {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    let previous = match throughput::load(path) {
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
    eprintln!("measuring bench rows (engine / monitor / study / analysis)...");
    let current = throughput::measure(1.0, StudyConfig::quick(), opts);
    let file = throughput::merge(previous, current, as_baseline, cfg!(feature = "audit"));
    print!("{}", throughput::render("baseline", &file.baseline));
    print!("{}", throughput::render("current", &file.current));
    if !file.audited.is_empty() {
        print!("{}", throughput::render("audited", &file.audited));
    }
    if let Some(speedup) = throughput::loop_speedup(&file) {
        println!("loop speedup over baseline: {speedup:.2}x");
    }
    if let Err(e) = throughput::save(path, &file) {
        eprintln!("failed to write {path}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {path}");
    ExitCode::SUCCESS
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
/// timing on stderr. The CLI is just another API client: the config
/// becomes a [`JobRequest`] executed through the same entry point the
/// HTTP server uses, so both transports validate, cache, and fail
/// identically.
fn run_study(
    cfg: StudyConfig,
    quick: bool,
    cache: Option<&SessionCache>,
) -> Result<(Study, StudyObservability), ApiError> {
    eprintln!(
        "running study: {} random sessions, {} triggered, {} transition ({} mode)...",
        cfg.n_random,
        cfg.n_triggered,
        cfg.n_transition,
        if quick { "quick" } else { "paper" }
    );
    let outcome = api::execute(&JobRequest::study(cfg), cache)?;
    let JobResult::Study { study, .. } = outcome.result else {
        unreachable!("a study request returns a study result");
    };
    let obs = outcome.study_obs.expect("study jobs carry observability");
    eprintln!(
        "study complete in {:.1}s: {} samples, {} records",
        obs.study_wall_s,
        study.all_samples().len(),
        study.pooled_counts().records
    );
    Ok((study, obs))
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

fn cmd_run(args: RunArgs) -> ExitCode {
    if let Err(e) = check_ids(&args.ids) {
        return api_error(e);
    }
    let cfg = match study_cfg(args.quick, TraceConfig::metrics_only()) {
        Ok(c) => c,
        Err(e) => return config_error(e),
    };
    let cache = args.cache.build();
    let (study, obs) = match run_study(cfg, args.quick, cache.as_ref()) {
        Ok(r) => r,
        Err(e) => return api_error(e),
    };
    args.cache.report(cache.as_ref(), &obs.cache);

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

    for (id, render) in report::SECTIONS {
        if let Some(text) = render(&study) {
            emit(id, &text);
        }
    }
    let comparison = report::render_comparison(&report::comparison(&study));
    emit("comparison", &comparison);
    emit("observability", &obs.render());

    if let Some(dir) = &args.out {
        if let Err(e) = write_outputs(dir, &study, &printed, &comparison) {
            eprintln!("failed to write outputs to {dir}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote report.txt, comparison.md and study.json to {dir}/");
    }
    ExitCode::SUCCESS
}

fn cmd_audit(quick: bool, width: Option<usize>) -> ExitCode {
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
    let (study, _) = match run_study(cfg, quick, None) {
        Ok(r) => r,
        Err(e) => return api_error(e),
    };
    if print_audit(&study) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn cmd_scale(
    quick: bool,
    widths: Option<Vec<usize>>,
    json: Option<String>,
    cache_opts: CacheOpts,
) -> ExitCode {
    let mut cfg = if quick {
        ScaleConfig::quick()
    } else {
        ScaleConfig::paper()
    };
    if let Some(w) = widths {
        cfg.widths = w;
    }
    eprintln!(
        "running scaling study across widths {:?} ({} mode)...",
        cfg.widths,
        if quick { "quick" } else { "paper" }
    );
    let cache = cache_opts.build();
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
    cache_opts.report(cache.as_ref(), &obs.cache);
    print!("{}", study.render());
    if let Some(path) = json {
        let payload = serde_json::to_string(&study).expect("scale study serializes");
        if let Err(e) = std::fs::write(&path, payload + "\n") {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn cmd_metrics(quick: bool, json: Option<String>) -> ExitCode {
    let cfg = match study_cfg(quick, TraceConfig::metrics_only()) {
        Ok(c) => c,
        Err(e) => return config_error(e),
    };
    let (_study, obs) = match run_study(cfg, quick, None) {
        Ok(r) => r,
        Err(e) => return api_error(e),
    };
    print!("{}", obs.render());
    if let Some(path) = json {
        let payload =
            serde_json::to_string(&obs.metrics_report()).expect("metrics report serializes");
        if let Err(e) = std::fs::write(&path, payload + "\n") {
            eprintln!("failed to write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("wrote {path}");
    }
    ExitCode::SUCCESS
}

fn cmd_trace(quick: bool, out: String, event_capacity: Option<usize>) -> ExitCode {
    let mut trace = TraceConfig::full();
    if let Some(cap) = event_capacity {
        trace.event_capacity = cap;
    }
    let cfg = match study_cfg(quick, trace) {
        Ok(c) => c,
        Err(e) => return config_error(e),
    };
    let ns_per_cycle = cfg.machine.ns_per_cycle;
    let (_study, obs) = match run_study(cfg, quick, None) {
        Ok(r) => r,
        Err(e) => return api_error(e),
    };
    let recorded: u64 = obs.sessions.iter().map(|s| s.metrics.events_recorded).sum();
    let dropped: u64 = obs.sessions.iter().map(|s| s.events_dropped).sum();
    let json = obs.chrome_trace(ns_per_cycle);
    if let Err(e) = std::fs::write(&out, json + "\n") {
        eprintln!("failed to write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!(
        "wrote {out}: {} sessions, {recorded} events recorded ({dropped} dropped by the ring); \
         open in Perfetto or chrome://tracing",
        obs.sessions.len()
    );
    ExitCode::SUCCESS
}

/// Bind the job server and run it until a `POST /v1/shutdown` (or signal
/// from the worker side) drains it. Blocks the calling thread.
fn cmd_serve(cfg: ServeConfig, cache_opts: CacheOpts) -> ExitCode {
    let cache = cache_opts.build();
    match cache.as_ref().and_then(|c| c.dir()) {
        Some(d) => eprintln!("result cache: {}", d.display()),
        None => {
            if cache.is_some() {
                eprintln!("result cache: in-memory only");
            } else {
                eprintln!("result cache: disabled (--no-cache)");
            }
        }
    }
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
/// (warm-hit rate, 5xx) fails.
fn cmd_hammer(opts: hammer::HammerOptions, record: bool) -> ExitCode {
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
        "hammer-stats: warm_p50_ms={:.3} req_per_s={:.1} warm_hit_rate={:.3} responses_5xx={}",
        report.warm_p50_ms, report.req_per_s, report.warm_hit_rate, report.responses_5xx
    );
    if record {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
        match hammer::record(path, &report) {
            Ok(()) => eprintln!("recorded serve numbers into {path}"),
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
    let cmd = match parse_cmd() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    match cmd {
        Cmd::Run(args) => cmd_run(args),
        Cmd::Bench {
            as_baseline,
            check_regression,
            opts,
        } => {
            // The typed validation path: bad knob values exit 2 with a
            // one-line diagnostic naming the field, like any other
            // configuration error.
            if let Err(e) = opts.validate() {
                return config_error(e);
            }
            if check_regression {
                let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
                run_check_regression(path, &opts)
            } else {
                run_bench_json(as_baseline, &opts)
            }
        }
        Cmd::Scale {
            quick,
            widths,
            json,
            cache,
        } => cmd_scale(quick, widths, json, cache),
        Cmd::Serve { cfg, cache } => cmd_serve(cfg, cache),
        Cmd::Hammer { opts, record } => cmd_hammer(opts, record),
        Cmd::Audit { quick, width } => cmd_audit(quick, width),
        Cmd::Metrics { quick, json } => cmd_metrics(quick, json),
        Cmd::Trace {
            quick,
            out,
            event_capacity,
        } => cmd_trace(quick, out, event_capacity),
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
