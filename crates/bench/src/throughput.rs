//! The one in-tree measurement harness and the one bench schema.
//!
//! Every timed number this repository records comes out of
//! [`measure_adaptive`]: a CoV-adaptive window loop that re-runs until the
//! windows agree. Simulation throughput (cycles simulated per wall second
//! for the machine states the workload alternates between, plus a
//! skip-heavy join-wait loop whose quiet stretches the dense kernel
//! jumps), DAS acquisition and reduction, a loop drain, and the analysis
//! and JSON layers over the quick study all go through it; study walls
//! are read once from each run's own observability.
//!
//! Each number is a [`Row`] `{name, layer, unit, value, cov, windows}` —
//! a per-subsystem claim carrying its own noise bound. `reproduce bench`
//! writes the rows to `BENCH_throughput.json` at the repo root under
//! `current`, keeping the committed `baseline` so speedups and regressions
//! stay visible across changes (the first run writes the baseline). A
//! missing row means "not measured"; [`merge`] replaces rows by
//! name and carries every other row forward, and [`regression_outcomes`]
//! gates rows generically through the per-layer [`GATES`] table (a rate
//! may fall by its tolerance) and [`EXACT_GATES`] table (a deterministic
//! row must not move).

use fx8_core::api::{JobResult, RunHooks};
use fx8_core::cache::{CachedSession, SessionCache};
use fx8_core::report;
use fx8_core::scale::{ScaleConfig, ScaleStudy};
use fx8_core::study::{Study, StudyConfig};
use fx8_monitor::{DasConfig, DasMonitor, EventCounts, Trigger};
use fx8_sim::cluster::LoadKind;
use fx8_sim::{Cluster, MachineConfig};
use fx8_stats::summary::{mean, stddev};
use fx8_workload::{kernels, WorkloadMix};
use serde::{Deserialize, Deserializer, Serialize};
use std::hint::black_box;
use std::time::Instant;

/// The subsystem a [`Row`] measures. Serialized as its lowercase name,
/// which is also the prefix of every row name in the layer
/// (`engine.loop_cycles_per_s`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// The cycle stepper: the scalar stepper and the dense kernel.
    Engine,
    /// DAS 9100 acquisition and event-count reduction.
    Monitor,
    /// Whole studies and sweeps, end to end.
    Study,
    /// Tables, figures and the paper comparison over a finished study.
    Analysis,
    /// JSON: writing job results, decoding session-cache entries.
    Serde,
    /// The HTTP job service, measured by `reproduce hammer`.
    Serve,
}

impl Layer {
    /// Every layer, in report order.
    const ALL: [Layer; 6] = [
        Layer::Engine,
        Layer::Monitor,
        Layer::Study,
        Layer::Analysis,
        Layer::Serde,
        Layer::Serve,
    ];

    /// The serialized name and row-name prefix.
    pub fn as_str(self) -> &'static str {
        match self {
            Layer::Engine => "engine",
            Layer::Monitor => "monitor",
            Layer::Study => "study",
            Layer::Analysis => "analysis",
            Layer::Serde => "serde",
            Layer::Serve => "serve",
        }
    }
}

impl Serialize for Layer {
    fn serialize(&self, out: &mut String) {
        serde::write_str(self.as_str(), out);
    }
}

impl Deserialize for Layer {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, serde::Error> {
        let s = de.str()?;
        Layer::ALL
            .into_iter()
            .find(|l| l.as_str() == s)
            .ok_or_else(|| serde::Error::unknown_variant(&s))
    }
}

/// One recorded number.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Row {
    /// Unique key, `<layer>.<quantity>` (`engine.loop_cycles_per_s`).
    pub name: String,
    /// The subsystem measured; selects the regression gate in [`GATES`].
    pub layer: Layer,
    /// Unit of `value` (`cycles/s`, `ratio`, `s`, `ms`, `req/s`).
    pub unit: String,
    /// The measurement: the best window for timed rows (see
    /// [`MIN_WINDOWS`]), the observed value otherwise.
    pub value: f64,
    /// Coefficient of variation (population stddev / mean) across the
    /// windows or samples behind `value`; `None` when there was no spread
    /// to measure (a single timing, a derived ratio) or none was recorded.
    pub cov: Option<f64>,
    /// Timing windows or samples behind `value`; `None` for derived
    /// ratios and for rows whose count was never recorded.
    pub windows: Option<u32>,
}

impl Row {
    /// A row with no recorded noise bound.
    pub fn new(layer: Layer, name: &str, unit: &str, value: f64) -> Row {
        Row {
            name: format!("{}.{name}", layer.as_str()),
            layer,
            unit: unit.to_string(),
            value,
            cov: None,
            windows: None,
        }
    }

    /// Attach the CoV and window count of the measurement behind the row.
    pub fn noise(self, cov: Option<f64>, windows: u32) -> Row {
        Row {
            cov,
            windows: Some(windows),
            ..self
        }
    }

    /// Milliseconds per operation from an operations-per-second
    /// measurement.
    fn ms_per_op(layer: Layer, name: &str, m: RunMeasurement) -> Row {
        Row::new(layer, name, "ms", 1e3 / m.rate).noise(Some(m.cov), m.windows)
    }
}

/// The row named `name`, if it was measured.
fn find<'a>(rows: &'a [Row], name: &str) -> Option<&'a Row> {
    rows.iter().find(|r| r.name == name)
}

/// Fresh rows replace rows with the same name in place; new names append.
pub fn upsert(rows: &mut Vec<Row>, fresh: Vec<Row>) {
    for row in fresh {
        match rows.iter_mut().find(|r| r.name == row.name) {
            Some(slot) => *slot = row,
            None => rows.push(row),
        }
    }
}

/// The persisted `BENCH_throughput.json` contents. An empty list means
/// nothing was measured under that key.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct BenchFile {
    /// Rows taken before the zero-allocation stepper landed.
    pub baseline: Vec<Row>,
    /// Rows for the current tree.
    pub current: Vec<Row>,
    /// Rows measured with the `audit` feature compiled in — the overhead
    /// record that shows feature-off throughput is untouched by the
    /// invariant auditor.
    pub audited: Vec<Row>,
}

/// Name of the row [`loop_speedup`] compares.
const LOOP_RATE: &str = "engine.loop_cycles_per_s";

/// `current / baseline` of the full-width loop rate, when both were
/// measured and the baseline is a usable rate.
pub fn loop_speedup(file: &BenchFile) -> Option<f64> {
    let base = find(&file.baseline, LOOP_RATE)?.value;
    let cur = find(&file.current, LOOP_RATE)?.value;
    (base > 0.0).then(|| cur / base)
}

/// Why a committed `BENCH_throughput.json` could not be loaded. The
/// regression gate and the hammer report these as ordinary diagnostics
/// instead of panicking.
#[derive(Debug)]
pub enum BenchLoadError {
    /// The file could not be read at all.
    Io {
        /// Path the loader tried to read.
        path: String,
        /// The underlying filesystem error.
        source: std::io::Error,
    },
    /// The file read but is not a valid bench file.
    Parse {
        /// Path the loader read.
        path: String,
        /// What the parser or row validation rejected.
        detail: String,
    },
}

impl std::fmt::Display for BenchLoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BenchLoadError::Io { path, source } => {
                write!(f, "cannot read {path}: {source}")
            }
            BenchLoadError::Parse { path, detail } => {
                write!(f, "{path} is not a valid bench file: {detail}")
            }
        }
    }
}

impl std::error::Error for BenchLoadError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BenchLoadError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}

/// Load a bench file, distinguishing an unreadable file from one that is
/// malformed (the retired flat per-field schema included) or carries an
/// invalid row (non-finite value, negative CoV, a name outside its layer,
/// a duplicate name).
pub fn load(path: &str) -> Result<BenchFile, BenchLoadError> {
    let bytes = std::fs::read(path).map_err(|source| BenchLoadError::Io {
        path: path.to_string(),
        source,
    })?;
    let parse_err = |detail: String| BenchLoadError::Parse {
        path: path.to_string(),
        detail,
    };
    let text = std::str::from_utf8(&bytes).map_err(|e| parse_err(format!("not UTF-8: {e}")))?;
    let file: BenchFile = serde_json::from_str(text).map_err(|e| parse_err(e.to_string()))?;
    for (key, rows) in [
        ("baseline", &file.baseline),
        ("current", &file.current),
        ("audited", &file.audited),
    ] {
        validate_rows(rows).map_err(|e| parse_err(format!("{key}: {e}")))?;
    }
    Ok(file)
}

fn validate_rows(rows: &[Row]) -> Result<(), String> {
    for (i, r) in rows.iter().enumerate() {
        let name = &r.name;
        let in_layer = name
            .strip_prefix(r.layer.as_str())
            .is_some_and(|rest| rest.len() > 1 && rest.starts_with('.'));
        if !in_layer {
            return Err(format!("row {name:?} is not named under its layer"));
        }
        if !r.value.is_finite() {
            return Err(format!("row {name:?} has a non-finite value"));
        }
        if r.cov.is_some_and(|c| !(c.is_finite() && c >= 0.0)) {
            return Err(format!("row {name:?} has an invalid cov"));
        }
        if rows[..i].iter().any(|p| p.name == *name) {
            return Err(format!("row {name:?} appears twice"));
        }
    }
    Ok(())
}

/// Write `file` to `path` as one line of JSON.
pub fn save(path: &str, file: &BenchFile) -> std::io::Result<()> {
    let json = serde_json::to_string(file).expect("bench file serializes");
    std::fs::write(path, json + "\n")
}

/// A cluster with only IP background traffic.
pub fn idle_cluster(seed: u64) -> Cluster {
    let mut c = Cluster::new(MachineConfig::fx8(), seed);
    c.set_ip_intensity(WorkloadMix::csrd_production().ip_intensity);
    c
}

/// A cluster running a detached serial process on CE 0.
pub fn serial_cluster(seed: u64) -> Cluster {
    let mut c = idle_cluster(seed);
    c.mount_serial(kernels::scalar_serial().instantiate(1), 1, None);
    c.run(5_000);
    c
}

/// A cluster with a long full-width concurrent loop mounted and warmed.
pub fn loop_cluster(seed: u64) -> Cluster {
    let mut c = idle_cluster(seed);
    let k = kernels::sor_sweep(1026);
    c.mount_loop(
        k.instantiate(1),
        0,
        1_000_000_000,
        kernels::glue_serial().instantiate(1),
        1,
    );
    c.run(20_000);
    c
}

/// A cluster running a dependence-bound "join-wait" loop: nearly the whole
/// iteration body sits inside the iteration-carried critical section, so
/// at any instant one CE computes while the other seven block on the CCB
/// sync register — the kernel's jumps' best mounted-workload case.
pub fn join_wait_cluster(seed: u64) -> Cluster {
    let mut c = idle_cluster(seed);
    let k = kernels::LoopKernel {
        name: "join-wait".into(),
        iters: 1_000_000_000,
        panel_lines: 16,
        panel_refs: 2,
        stream_lines: 1,
        store_lines: 1,
        compute: 400,
        code_bytes: 512,
        dependence: Some(0.95),
        variance: 0.0,
    };
    c.mount_loop(
        k.instantiate(1),
        0,
        1_000_000_000,
        kernels::glue_serial().instantiate(1),
        1,
    );
    c.run(20_000);
    c
}

/// `cycles_skipped / cycles_total` over everything `cluster` has run.
pub fn skip_ratio(cluster: &Cluster) -> f64 {
    let e = cluster.engine_cycles();
    if e.total == 0 {
        0.0
    } else {
        e.skipped as f64 / e.total as f64
    }
}

/// `cycles_dense / cycles_total` over everything `cluster` has run.
pub fn dense_ratio(cluster: &Cluster) -> f64 {
    let e = cluster.engine_cycles();
    if e.total == 0 {
        0.0
    } else {
        e.dense as f64 / e.total as f64
    }
}

/// Minimum timing windows per measurement. The rate reported is the
/// **maximum** over the windows: on a shared (single-vCPU CI) machine any
/// window can lose an arbitrary slice of wall clock to preemption, which
/// only ever *lowers* a measured rate, so the fastest window is the
/// least-contaminated estimate of the code's actual speed. Windows of
/// `min_wall_s / MIN_WINDOWS` keep the quiet-machine bench time at the
/// pre-adaptive cost; the harness only runs longer when the windows
/// disagree.
pub const MIN_WINDOWS: u32 = 3;

/// Default coefficient-of-variation target: windows are re-run until the
/// spread of rates falls under 3% of their mean (or the window cap bites),
/// so a committed number carries a quantified noise bound instead of
/// hoping three windows happened to land in quiet time.
pub const DEFAULT_COV_THRESHOLD: f64 = 0.03;

/// Default cap on timing windows per measurement: 4x the minimum bench
/// time bounds the worst case on a hopelessly noisy runner, where the
/// recorded CoV (still above threshold) tells the consumer not to trust a
/// tight comparison.
pub const DEFAULT_MAX_WINDOWS: u32 = 12;

/// Mixed-regime detection band. A kernel whose warmup slice skipped a
/// fraction of cycles strictly inside `(SKIP_MIX_LO, SKIP_MIX_HI)`
/// alternates between quiet stretches the dense kernel jumps and stepped
/// bursts. Its blended cycles-per-second then swings with whatever
/// skip/step blend each timing window happens to sample — stepping is
/// ~30-60x slower per cycle than jumping, so a few percent of
/// blend drift moves the window rate by double digits (the committed
/// serial CoV sat at ~15% for two revisions without ever reflecting host
/// noise). Mixed-regime kernels are therefore timed on their **stepped**
/// cycles per wall second — the quantity host speed actually governs —
/// and the best stepped rate is rescaled once by the overall skip mix of
/// the whole timed run, so the reported number is still the blended
/// cycles/s but its CoV no longer includes blend drift. Homogeneous
/// kernels — the always-stepping loop below the band, the ~fully-skipped
/// idle state above it — keep the direct measurement.
pub const SKIP_MIX_LO: f64 = 0.05;
/// Upper edge of the mixed-regime band (see [`SKIP_MIX_LO`]).
pub const SKIP_MIX_HI: f64 = 0.98;
/// Window-length multiplier for mixed-regime kernels: longer windows
/// average more skip/step alternations into the rescaling mix.
pub const SKIP_MIX_WINDOW_SCALE: f64 = 4.0;

/// The stop rule of the CoV-adaptive measurement harness. Every bench row
/// is measured under [`HARNESS`]; only the harness's own tests use others.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BenchOptions {
    /// Stop re-running windows once their rates' CoV falls below this.
    pub cov_threshold: f64,
    /// Hard cap on windows per measurement.
    pub max_windows: u32,
}

/// The one harness setting behind every recorded number.
pub const HARNESS: BenchOptions = BenchOptions {
    cov_threshold: DEFAULT_COV_THRESHOLD,
    max_windows: DEFAULT_MAX_WINDOWS,
};

/// One adaptive rate measurement: the best window's rate plus how noisy
/// the windows were and how many it took to get there.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunMeasurement {
    /// Best window's work units per second.
    pub rate: f64,
    /// Coefficient of variation (population stddev / mean) of all windows.
    pub cov: f64,
    /// Windows actually run (`MIN_WINDOWS ..= max_windows`).
    pub windows: u32,
}

/// Coefficient of variation of a sample; 0 for degenerate inputs (fewer
/// than two values, or a zero mean).
pub(crate) fn cov_of(samples: &[f64]) -> f64 {
    match (mean(samples), stddev(samples)) {
        (Some(m), Some(s)) if samples.len() >= 2 && m != 0.0 => s / m,
        _ => 0.0,
    }
}

/// The harness's stop rule over the window rates so far: stop at
/// `opts.max_windows` windows, or earlier once at least [`MIN_WINDOWS`]
/// have run and their CoV is below `opts.cov_threshold` (a CoV equal to
/// the threshold keeps going).
fn windows_settled(rates: &[f64], opts: &BenchOptions) -> bool {
    let n = rates.len() as u32;
    n >= opts.max_windows || (n >= MIN_WINDOWS && cov_of(rates) < opts.cov_threshold)
}

/// The harness loop. Calls `op` back to back in timing windows of
/// `window_s` seconds; `op` returns the work units it just did (cycles,
/// or `1.0` for one operation), and a window's rate is its units per
/// second. Runs at least [`MIN_WINDOWS`] windows, more until the rates'
/// CoV falls below `opts.cov_threshold` or `opts.max_windows` is reached,
/// and reports the best rate (see [`MIN_WINDOWS`] for why max, not mean)
/// with the achieved CoV and window count.
pub fn measure_adaptive(
    window_s: f64,
    opts: &BenchOptions,
    mut op: impl FnMut() -> f64,
) -> RunMeasurement {
    let mut rates: Vec<f64> = Vec::new();
    loop {
        let start = Instant::now();
        let mut units = 0.0;
        let rate = loop {
            units += op();
            let elapsed = start.elapsed().as_secs_f64();
            if elapsed >= window_s {
                break units / elapsed;
            }
        };
        rates.push(rate);
        if windows_settled(&rates, opts) {
            break;
        }
    }
    RunMeasurement {
        rate: rates.iter().cloned().fold(0.0, f64::max),
        cov: cov_of(&rates),
        windows: rates.len() as u32,
    }
}

/// Operations per second of `op` through [`measure_adaptive`] under
/// [`HARNESS`], after one untimed warm-up call.
fn ops_per_s(window_s: f64, mut op: impl FnMut()) -> RunMeasurement {
    op();
    measure_adaptive(window_s, &HARNESS, || {
        op();
        1.0
    })
}

/// Cycles/sec of `Cluster::run` on `cluster` through [`measure_adaptive`]
/// with windows of `min_wall_s / MIN_WINDOWS` seconds, stepped in
/// `chunk`-cycle slices. An untimed warm-up window first decides whether
/// the kernel is mixed-regime (see [`SKIP_MIX_LO`]).
fn measure_run_adaptive(
    cluster: &mut Cluster,
    chunk: u64,
    min_wall_s: f64,
    opts: &BenchOptions,
) -> RunMeasurement {
    let base_window_s = min_wall_s / MIN_WINDOWS as f64;
    // Untimed warmup window: warms the host caches and branch predictors
    // *and* runs the cluster long enough to observe which stepping regime
    // mix this kernel actually settles into (the first few thousand cycles
    // after a mount are unrepresentative).
    let before = cluster.engine_cycles();
    let warm_start = Instant::now();
    loop {
        cluster.run(chunk);
        if warm_start.elapsed().as_secs_f64() >= base_window_s {
            break;
        }
    }
    let after = cluster.engine_cycles();
    let warm_skip =
        (after.skipped - before.skipped) as f64 / (after.total - before.total).max(1) as f64;
    let mixed = warm_skip > SKIP_MIX_LO && warm_skip < SKIP_MIX_HI;
    if !mixed {
        return measure_adaptive(base_window_s, opts, || {
            cluster.run(chunk);
            chunk as f64
        });
    }
    // Mixed-regime kernels: longer windows, rates over stepped cycles only.
    let timed_0 = cluster.engine_cycles();
    let m = measure_adaptive(base_window_s * SKIP_MIX_WINDOW_SCALE, opts, || {
        let e0 = cluster.engine_cycles();
        cluster.run(chunk);
        let e1 = cluster.engine_cycles();
        ((e1.total - e0.total) - (e1.skipped - e0.skipped)) as f64
    });
    // Rescale the best stepped rate by the skip mix of the whole timed run
    // (the mix is common to every window, so it shifts the level, not the
    // CoV): stepped / (1 - skip) = blended cycles per stepped-second, and
    // skipped cycles cost ~no wall clock next to stepped ones.
    let timed_1 = cluster.engine_cycles();
    let skipped = timed_1.skipped - timed_0.skipped;
    let total = (timed_1.total - timed_0.total).max(1);
    let stepped_frac = (total - skipped) as f64 / total as f64;
    RunMeasurement {
        rate: m.rate / stepped_frac.max(f64::EPSILON),
        ..m
    }
}

/// Cycles each mounted state's stepping-mix rows (`*_skip_ratio`,
/// `loop_dense_ratio`) are counted over, on a fresh cluster.
pub const MIX_CYCLES: u64 = 500_000;

/// Measure every row: the four mounted-state engine rates (gated) with
/// their skip ratios and the loop's dense ratio over [`MIX_CYCLES`]
/// (gated exactly), a loop drain, DAS
/// acquisition and reduction, the cold and warm `study_cfg` study and an
/// incremental sweep, and the analysis and JSON layers over that study.
/// Every timing runs under [`HARNESS`]. `min_wall_s` bounds the timing
/// per measured kernel; `StudyConfig::quick()` is the persisted study
/// (smoke tests pass something smaller).
pub fn measure(min_wall_s: f64, study_cfg: StudyConfig) -> Vec<Row> {
    const CHUNK: u64 = 100_000;
    let window_s = min_wall_s / MIN_WINDOWS as f64;
    let mut rows = Vec::new();
    let states = [
        ("idle", idle_cluster as fn(u64) -> Cluster, 1),
        ("serial", serial_cluster, 2),
        ("loop", loop_cluster, 3),
        ("ff_loop", join_wait_cluster, 4),
    ];
    for (state, make, seed) in states {
        let mut cluster = make(seed);
        let m = measure_run_adaptive(&mut cluster, CHUNK, min_wall_s, &HARNESS);
        let rate = format!("{state}_cycles_per_s");
        rows.push(Row::new(Layer::Engine, &rate, "cycles/s", m.rate).noise(Some(m.cov), m.windows));
        // The stepping mix of a fresh cluster over a fixed budget: the
        // timed cluster ran as many cycles as the adaptive timer chose.
        let mut fresh = make(seed);
        for _ in 0..MIX_CYCLES / CHUNK {
            fresh.run(CHUNK);
        }
        let (skip_name, skip) = (format!("{state}_skip_ratio"), skip_ratio(&fresh));
        rows.push(Row::new(Layer::Engine, &skip_name, "ratio", skip));
        if state == "loop" {
            let dense = dense_ratio(&fresh);
            rows.push(Row::new(Layer::Engine, "loop_dense_ratio", "ratio", dense));
        }
    }
    // Mount a 64-iteration loop tail on a fresh cluster and step it until
    // every CE has drained: loop start-up and the CCB's drain protocol.
    let drain = ops_per_s(window_s, || {
        let mut c = Cluster::new(MachineConfig::fx8(), 4);
        c.set_ip_intensity(0.0);
        c.mount_loop(
            kernels::sor_sweep(258).instantiate(1),
            194,
            258,
            kernels::glue_serial().instantiate(1),
            1,
        );
        let mut steps = 0u64;
        while c.load_kind() != LoadKind::Drained && steps < 500_000 {
            c.step();
            steps += 1;
        }
        black_box(steps);
    });
    rows.push(Row::ms_per_op(Layer::Engine, "loop_drain_ms", drain));

    let mut warm = loop_cluster(5);
    let das = DasMonitor::new(DasConfig::das9100(Trigger::Immediate));
    let acquire = ops_per_s(window_s, || {
        black_box(das.acquire(&mut warm).expect("an immediate trigger fires"));
    });
    rows.push(Row::ms_per_op(Layer::Monitor, "acquire_512_ms", acquire));
    let words = warm.capture(512);
    let reduce = ops_per_s(window_s, || {
        black_box(EventCounts::reduce(black_box(&words), 8));
    });
    rows.push(Row::ms_per_op(Layer::Monitor, "reduce_512_ms", reduce));

    let hooks = RunHooks::default();
    let (study, cold_obs) = Study::run(study_cfg.clone(), None, &hooks).expect("uncancellable");
    assert!(study.pooled_counts().records > 0, "study produced no data");
    rows.push(Row::new(Layer::Study, "quick_wall_s", "s", cold_obs.study_wall_s).noise(None, 1));

    // Cold vs warm against the session result cache: populate a fresh
    // in-memory cache (untimed), then time the all-hits rerun. Both runs
    // must reproduce the uncached study bit-for-bit — that determinism is
    // the cache's entire correctness argument, so the bench asserts it on
    // every measurement.
    let cache = SessionCache::in_memory();
    let (populated, _) =
        Study::run(study_cfg.clone(), Some(&cache), &hooks).expect("uncancellable");
    assert_eq!(populated, study, "cache-populating run diverged");
    let (warm_study, warm_obs) =
        Study::run(study_cfg.clone(), Some(&cache), &hooks).expect("uncancellable");
    assert_eq!(warm_study, study, "warm-cache run diverged");
    assert_eq!(
        warm_obs.cache.misses, 0,
        "an identical study must hit on every session"
    );
    let warm_wall = warm_obs.study_wall_s;
    rows.push(Row::new(Layer::Study, "quick_warm_wall_s", "s", warm_wall).noise(None, 1));

    // Incremental sweep against the same warm cache: the base width's
    // sessions all hit (when the study runs the stock scaled geometry),
    // so the sweep's cost approximates adding one new width (2) to an
    // already-swept grid.
    let base_width = study_cfg.machine.n_ces;
    let mut widths = vec![2];
    if base_width != 2 {
        widths.push(base_width);
    }
    let sweep_cfg = ScaleConfig {
        base: study_cfg,
        widths,
    };
    let (_, sweep_obs) =
        ScaleStudy::run(&sweep_cfg, Some(&cache), &hooks).expect("sweep of a validated study");
    let sweep_wall = sweep_obs.study_wall_s;
    rows.push(Row::new(Layer::Study, "scale_sweep_wall_s", "s", sweep_wall).noise(None, 1));

    let full = ops_per_s(window_s, || {
        black_box(report::render_full_report(&study));
    });
    rows.push(Row::ms_per_op(Layer::Analysis, "full_report_ms", full));
    let comparison = ops_per_s(window_s, || {
        black_box(report::comparison(&study));
    });
    rows.push(Row::ms_per_op(Layer::Analysis, "comparison_ms", comparison));

    // The JSON layer over the same study: decoding its sessions as the
    // disk cache stores them, and writing its job result.
    let entries: Vec<String> = cached_sessions(&study)
        .iter()
        .map(|s| serde_json::to_string(s).expect("session serializes"))
        .collect();
    let decode = ops_per_s(window_s, || {
        for entry in &entries {
            black_box(serde_json::from_str::<CachedSession>(entry).expect("entry decodes"));
        }
    });
    rows.push(Row::ms_per_op(Layer::Serde, "entry_decode_ms", decode));
    let comparison = report::comparison(&study);
    let result = JobResult::Study { study, comparison };
    let write = ops_per_s(window_s, || {
        black_box(serde_json::to_string(&result).expect("result serializes"));
    });
    rows.push(Row::ms_per_op(Layer::Serde, "result_write_ms", write));
    rows
}

/// A study's sessions as the session cache stores them.
fn cached_sessions(study: &Study) -> Vec<CachedSession> {
    let random = study
        .random_sessions
        .iter()
        .map(|result| CachedSession::Random {
            result: result.clone(),
        });
    let captures = (study.triggered.iter().zip(&study.triggered_audits))
        .chain(study.transitions.iter().zip(&study.transition_audits))
        .map(|(captures, audit)| CachedSession::Captures {
            captures: captures.clone(),
            audit: audit.clone(),
        });
    random.chain(captures).collect()
}

/// Render rows as an aligned text block, one row per line.
pub fn render(label: &str, rows: &[Row]) -> String {
    let mut s = format!("{label}:\n");
    for r in rows {
        let value = if r.value.abs() >= 100.0 {
            format!("{:.0}", r.value)
        } else {
            format!("{:.4}", r.value)
        };
        let cov = r
            .cov
            .map_or(String::new(), |c| format!("  cov {:.1}%", c * 100.0));
        let windows = r.windows.map_or(String::new(), |n| format!("  n={n}"));
        s.push_str(&format!(
            "  {:<32} {value:>12} {:<8}{cov}{windows}\n",
            r.name, r.unit
        ));
    }
    s
}

/// Merge fresh rows into the bench file: fresh rows replace rows with the
/// same name, all other rows carry forward. A feature-off run updates
/// `current` — and `baseline` too when there is no baseline yet. An
/// `audited_run` (built with the `audit` feature) updates only `audited`,
/// so the committed baseline/current rows always describe the unaudited
/// stepper.
pub fn merge(previous: Option<BenchFile>, measured: Vec<Row>, audited_run: bool) -> BenchFile {
    let mut file = previous.unwrap_or_default();
    if audited_run {
        upsert(&mut file.audited, measured);
        return file;
    }
    if file.baseline.is_empty() {
        upsert(&mut file.baseline, measured.clone());
    }
    upsert(&mut file.current, measured);
    file
}

/// Allowed shortfall of a fresh engine rate against the committed rate
/// before the regression gate fails. The CoV-adaptive harness re-times
/// each state until its windows agree (and the gate skips a state
/// entirely when they won't), so the tolerance only has to absorb
/// sub-threshold jitter, not worst-case scheduler noise.
pub const REGRESSION_TOLERANCE: f64 = 0.08;

/// The regression gates, per layer: a row is gated when its layer and
/// unit match an entry, at that entry's tolerance. Every other row is
/// recorded without a gate. Only the engine rates are stable enough on a
/// shared runner to arbitrate a tight comparison.
pub const GATES: &[(Layer, &str, f64)] = &[(Layer::Engine, "cycles/s", REGRESSION_TOLERANCE)];

/// Rows gated for exact equality, per layer and unit: the engine's
/// stepping mix (`*_skip_ratio`, `loop_dense_ratio`), counted over
/// [`MIX_CYCLES`] of a fresh cluster, is a property of the code, not of
/// the host, so any change to it is a change to the windowing.
pub const EXACT_GATES: &[(Layer, &str)] = &[(Layer::Engine, "ratio")];

/// The tolerance gating `row`, if any.
fn tolerance(row: &Row) -> Option<f64> {
    GATES
        .iter()
        .find(|(layer, unit, _)| *layer == row.layer && *unit == row.unit)
        .map(|&(_, _, tol)| tol)
}

/// What the regression gate decided about one fresh row.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GateVerdict {
    /// The fresh value is within tolerance of the committed value (equal
    /// to it, for a row in [`EXACT_GATES`]).
    Ok,
    /// The fresh value fell below the tolerance floor.
    Regressed,
    /// A row in [`EXACT_GATES`] differs from its committed value.
    Changed,
    /// Fresh windows never settled under the CoV threshold: the runner is
    /// too noisy for the comparison to mean anything, so no gate applies.
    SkippedNoisy,
    /// No usable committed row — absent, zero or non-finite — so there is
    /// nothing to gate against. An absent baseline must read as "no gate",
    /// not "any value passes/fails".
    SkippedNoBaseline,
    /// The row's layer and unit have no entry in [`GATES`] or
    /// [`EXACT_GATES`]: recorded, never failed.
    Ungated,
}

/// One fresh row's gate decision, with everything a caller needs to print
/// or assert on it.
#[derive(Debug, Clone, PartialEq)]
pub struct GateOutcome {
    /// Row name.
    pub name: String,
    /// Row unit.
    pub unit: String,
    /// The committed `current` value, if that row was recorded.
    pub committed: Option<f64>,
    /// The fresh value.
    pub fresh: f64,
    /// CoV of the fresh measurement's windows, if it has one.
    pub fresh_cov: Option<f64>,
    /// The gate's tolerance ([`GATES`]), if the row is gated.
    pub tolerance: Option<f64>,
    /// The failure floor, `committed * (1 - tolerance)`, when compared.
    pub floor: Option<f64>,
    /// The decision.
    pub verdict: GateVerdict,
}

/// Gate every fresh row against the committed row of the same name.
/// Pure and typed so the missing-baseline and noisy-runner paths are unit
/// testable without timing anything; `reproduce bench --check-regression`
/// renders the outcomes and maps any [`GateVerdict::Regressed`] or
/// [`GateVerdict::Changed`] to a
/// failing exit code.
pub fn regression_outcomes(
    committed: &[Row],
    fresh: &[Row],
    cov_threshold: f64,
) -> Vec<GateOutcome> {
    fresh
        .iter()
        .map(|row| {
            let tol = tolerance(row);
            let exact = EXACT_GATES.contains(&(row.layer, row.unit.as_str()));
            let committed = find(committed, &row.name).map(|c| c.value);
            let usable = committed.filter(|c| *c > 0.0 && c.is_finite());
            let mut floor = None;
            let verdict = match (tol, usable) {
                _ if exact => match committed {
                    None => GateVerdict::SkippedNoBaseline,
                    Some(c) if c == row.value => GateVerdict::Ok,
                    Some(_) => GateVerdict::Changed,
                },
                (None, _) => GateVerdict::Ungated,
                (Some(_), None) => GateVerdict::SkippedNoBaseline,
                _ if row.cov.is_none_or(|c| c >= cov_threshold) => GateVerdict::SkippedNoisy,
                (Some(tol), Some(c)) => {
                    let f = c * (1.0 - tol);
                    floor = Some(f);
                    if row.value < f {
                        GateVerdict::Regressed
                    } else {
                        GateVerdict::Ok
                    }
                }
            };
            GateOutcome {
                name: row.name.clone(),
                unit: row.unit.clone(),
                committed,
                fresh: row.value,
                fresh_cov: row.cov,
                tolerance: tol,
                floor,
                verdict,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A keyed row set shaped like a real measurement: the four gated
    /// engine rates plus ungated rows from other layers.
    fn rows(loop_rate: f64) -> Vec<Row> {
        let rate = |name: &str, v: f64, cov: f64| {
            Row::new(Layer::Engine, name, "cycles/s", v).noise(Some(cov), 4)
        };
        vec![
            rate("idle_cycles_per_s", 1.0, 0.01),
            rate("serial_cycles_per_s", 2.0, 0.02),
            rate("loop_cycles_per_s", loop_rate, 0.015),
            rate("ff_loop_cycles_per_s", 4.0, 0.025),
            Row::new(Layer::Engine, "loop_dense_ratio", "ratio", 0.7),
            Row::new(Layer::Study, "quick_wall_s", "s", 3.0).noise(None, 1),
            Row::new(Layer::Analysis, "full_report_ms", "ms", 12.0).noise(Some(0.2), 3),
        ]
    }

    fn verdict(outcomes: &[GateOutcome], name: &str) -> GateVerdict {
        outcomes.iter().find(|o| o.name == name).unwrap().verdict
    }

    fn value(rows: &[Row], name: &str) -> Option<f64> {
        find(rows, name).map(|r| r.value)
    }

    #[test]
    fn merge_replaces_by_name_and_carries_every_other_row_forward() {
        let mut file = merge(None, rows(100.0), false);
        // The hammer records serve rows through the same upsert...
        upsert(
            &mut file.current,
            vec![Row::new(Layer::Serve, "warm_p50_ms", "ms", 4.2).noise(None, 40)],
        );
        // ...then a plain `reproduce bench` rewrites the file without
        // measuring them; the recorded row must survive untouched.
        let rewritten = merge(Some(file), rows(120.0), false);
        assert_eq!(value(&rewritten.current, "serve.warm_p50_ms"), Some(4.2));
        assert_eq!(value(&rewritten.current, LOOP_RATE), Some(120.0));
        assert_eq!(
            rewritten.current.len(),
            rows(0.0).len() + 1,
            "no duplicates"
        );
        // Names keep their first position.
        assert_eq!(rewritten.current[2].name, LOOP_RATE);
    }

    #[test]
    fn merge_keeps_previous_baseline_and_derives_the_speedup() {
        let first = merge(None, rows(100.0), false);
        assert_eq!(
            first.baseline, first.current,
            "no baseline yet: this run is it"
        );
        assert_eq!(loop_speedup(&first), Some(1.0));
        let second = merge(Some(first.clone()), rows(250.0), false);
        assert_eq!(second.baseline, rows(100.0));
        assert_eq!(second.current, rows(250.0));
        assert_eq!(loop_speedup(&second), Some(2.5));
    }

    #[test]
    fn speedup_is_absent_without_a_usable_baseline_rate() {
        let mut file = merge(None, rows(50.0), false);
        file.baseline.retain(|r| r.name != LOOP_RATE);
        assert_eq!(loop_speedup(&file), None);
        upsert(&mut file.baseline, rows(0.0));
        assert_eq!(loop_speedup(&file), None, "a zero baseline has no ratio");
    }

    #[test]
    fn audited_runs_never_touch_the_unaudited_trajectory() {
        let base = merge(None, rows(100.0), false);
        let with_audit = merge(Some(base.clone()), rows(60.0), true);
        assert_eq!(with_audit.baseline, base.baseline);
        assert_eq!(with_audit.current, base.current);
        assert_eq!(with_audit.audited, rows(60.0));
        // ...and a later feature-off run preserves the audited rows.
        let later = merge(Some(with_audit), rows(120.0), false);
        assert_eq!(later.current, rows(120.0));
        assert_eq!(later.audited, rows(60.0));
    }

    #[test]
    fn gate_verdicts_cover_regressed_noisy_and_ok() {
        let committed = rows(100.0);
        let mut fresh = rows(100.0);
        let set_loop = |fresh: &mut Vec<Row>, v: f64, cov: Option<f64>| {
            let r = fresh.iter_mut().find(|r| r.name == LOOP_RATE).unwrap();
            r.value = v;
            r.cov = cov;
        };
        // Only the four engine rates are gated, at 8%.
        let o = regression_outcomes(&committed, &fresh, 0.03);
        let gated: Vec<&str> = o
            .iter()
            .filter(|o| o.tolerance.is_some())
            .map(|o| o.name.as_str())
            .collect();
        assert_eq!(
            gated,
            [
                "engine.idle_cycles_per_s",
                "engine.serial_cycles_per_s",
                LOOP_RATE,
                "engine.ff_loop_cycles_per_s"
            ]
        );
        assert!(o
            .iter()
            .all(|o| o.tolerance.is_none_or(|t| t == REGRESSION_TOLERANCE)));
        // An engine row 10% below its committed value regresses; 91.9 <
        // 92.0 floor fails, 92.1 passes.
        set_loop(&mut fresh, 90.0, Some(0.01));
        let o = regression_outcomes(&committed, &fresh, 0.03);
        assert_eq!(verdict(&o, LOOP_RATE), GateVerdict::Regressed);
        let l = o.iter().find(|o| o.name == LOOP_RATE).unwrap();
        assert!((l.floor.unwrap() - 92.0).abs() < 1e-9);
        set_loop(&mut fresh, 91.9, Some(0.01));
        let o = regression_outcomes(&committed, &fresh, 0.03);
        assert_eq!(verdict(&o, LOOP_RATE), GateVerdict::Regressed);
        set_loop(&mut fresh, 92.1, Some(0.01));
        let o = regression_outcomes(&committed, &fresh, 0.03);
        assert_eq!(verdict(&o, LOOP_RATE), GateVerdict::Ok);
        // A CoV at or above the threshold is skipped even if the rate
        // dropped; so is a fresh row with no CoV at all.
        set_loop(&mut fresh, 10.0, Some(0.03));
        let o = regression_outcomes(&committed, &fresh, 0.03);
        assert_eq!(verdict(&o, LOOP_RATE), GateVerdict::SkippedNoisy);
        set_loop(&mut fresh, 10.0, None);
        let o = regression_outcomes(&committed, &fresh, 0.03);
        assert_eq!(verdict(&o, LOOP_RATE), GateVerdict::SkippedNoisy);
        // A missing committed row has no baseline to gate against; neither
        // does a zero or non-finite one.
        set_loop(&mut fresh, 10.0, Some(0.01));
        let without: Vec<Row> = committed
            .iter()
            .filter(|r| r.name != LOOP_RATE)
            .cloned()
            .collect();
        let o = regression_outcomes(&without, &fresh, 0.03);
        assert_eq!(verdict(&o, LOOP_RATE), GateVerdict::SkippedNoBaseline);
        assert_eq!(o.iter().find(|o| o.name == LOOP_RATE).unwrap().floor, None);
        for bad in [0.0, f64::NAN] {
            let o = regression_outcomes(&rows(bad), &fresh, 0.03);
            assert_eq!(verdict(&o, LOOP_RATE), GateVerdict::SkippedNoBaseline);
        }
        // An ungated layer never fails, however far it moves.
        let mut slow = rows(100.0);
        for r in slow.iter_mut().filter(|r| r.layer != Layer::Engine) {
            r.value *= 100.0;
            r.cov = Some(0.0);
        }
        let mut fast = rows(100.0);
        for r in fast.iter_mut().filter(|r| r.layer != Layer::Engine) {
            r.value = 1e-9;
        }
        for o in regression_outcomes(&fast, &slow, 0.03) {
            if o.name.starts_with("engine.") {
                assert_eq!(o.verdict, GateVerdict::Ok, "{}", o.name);
            } else {
                assert_eq!(o.verdict, GateVerdict::Ungated, "{}", o.name);
            }
        }
    }

    #[test]
    fn stepping_mix_rows_must_match_exactly() {
        const DENSE: &str = "engine.loop_dense_ratio";
        let committed = rows(100.0);
        let with_dense = |v: f64| {
            let mut fresh = rows(100.0);
            fresh.iter_mut().find(|r| r.name == DENSE).unwrap().value = v;
            regression_outcomes(&committed, &fresh, 0.03)
        };
        let o = with_dense(0.7);
        assert_eq!(verdict(&o, DENSE), GateVerdict::Ok);
        assert_eq!(o.iter().find(|o| o.name == DENSE).unwrap().tolerance, None);
        // Either way, by any amount, with no CoV to excuse it.
        for moved in [0.7 + 1e-12, 0.69, 0.99] {
            assert_eq!(verdict(&with_dense(moved), DENSE), GateVerdict::Changed);
        }
        // A zero ratio is a value like any other; an absent one is not.
        let mut zero = rows(100.0);
        zero.iter_mut().find(|r| r.name == DENSE).unwrap().value = 0.0;
        assert_eq!(verdict(&with_dense(0.0), DENSE), GateVerdict::Changed);
        let o = regression_outcomes(&zero, &zero, 0.03);
        assert_eq!(verdict(&o, DENSE), GateVerdict::Ok);
        let without: Vec<Row> = committed.into_iter().filter(|r| r.name != DENSE).collect();
        let o = regression_outcomes(&without, &rows(100.0), 0.03);
        assert_eq!(verdict(&o, DENSE), GateVerdict::SkippedNoBaseline);
    }

    #[test]
    fn stepping_mix_rows_are_deterministic() {
        let mix = || {
            let mut c = serial_cluster(2);
            c.run(200_000);
            skip_ratio(&c)
        };
        let first = mix();
        assert_eq!(first.to_bits(), mix().to_bits());
        if cfg!(feature = "audit") {
            assert_eq!(first, 0.0, "audit builds never skip");
        } else {
            assert!(first > 0.0 && first < 1.0, "serial skip ratio {first}");
        }
    }

    #[test]
    fn bench_file_round_trips_as_json() {
        let f = merge(None, rows(42.0), false);
        let with_audit = merge(Some(f), rows(30.0), true);
        let json = serde_json::to_string(&with_audit).unwrap();
        let back: BenchFile = serde_json::from_str(&json).unwrap();
        assert_eq!(back, with_audit);
    }

    /// The stop rule on fixed rate sequences: how many windows run before
    /// it says stop (`None`: the sequence ran out first).
    #[test]
    fn stop_rule_on_fixed_rates() {
        let stops_after = |rates: &[f64], cov_threshold: f64, max_windows: u32| {
            let opts = BenchOptions {
                cov_threshold,
                max_windows,
            };
            (1..=rates.len()).find(|&n| windows_settled(&rates[..n], &opts))
        };
        let noisy = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0];
        assert_eq!(
            stops_after(&noisy, 0.99, 7),
            Some(MIN_WINDOWS as usize),
            "a loose threshold stops at the minimum"
        );
        assert_eq!(
            stops_after(&noisy, 1e-12, 4),
            Some(4),
            "an unreachable threshold runs to the cap"
        );
        let tied = [2.0, 4.0, 2.0, 4.0, 2.0, 4.0];
        let cov = cov_of(&tied[..MIN_WINDOWS as usize]);
        assert_eq!(
            stops_after(&tied, cov, 12),
            Some(4),
            "a CoV equal to the threshold keeps going"
        );
    }

    /// The timed harness end to end, with bounds that hold under any host
    /// load; the exact stopping points are pinned by
    /// `stop_rule_on_fixed_rates`.
    #[test]
    fn adaptive_harness_respects_window_bounds() {
        let opts = BenchOptions {
            cov_threshold: 0.99,
            max_windows: 7,
        };
        let in_bounds = |m: RunMeasurement, opts: &BenchOptions| {
            assert!(
                (MIN_WINDOWS..=opts.max_windows).contains(&m.windows),
                "{} windows",
                m.windows
            );
            assert!(m.rate > 0.0);
            assert!(m.cov >= 0.0);
        };
        in_bounds(
            measure_run_adaptive(&mut idle_cluster(11), 2_000, 0.01, &opts),
            &opts,
        );
        let strict = BenchOptions {
            cov_threshold: 1e-12,
            max_windows: 4,
        };
        in_bounds(
            measure_run_adaptive(&mut idle_cluster(12), 2_000, 0.01, &strict),
            &strict,
        );
        // The same loop times arbitrary operations.
        in_bounds(measure_adaptive(0.001, &opts, || 1.0), &opts);
    }

    #[test]
    fn cov_of_known_samples() {
        assert_eq!(cov_of(&[]), 0.0);
        assert_eq!(cov_of(&[5.0]), 0.0);
        assert_eq!(cov_of(&[3.0, 3.0, 3.0]), 0.0);
        // {2, 4}: mean 3, population stddev 1 → CoV = 1/3.
        let c = cov_of(&[2.0, 4.0]);
        assert!((c - 1.0 / 3.0).abs() < 1e-12, "cov {c}");
    }

    /// Every row a measurement produces, in the order it produces them.
    const MEASURED: [&str; 19] = [
        "engine.idle_cycles_per_s",
        "engine.idle_skip_ratio",
        "engine.serial_cycles_per_s",
        "engine.serial_skip_ratio",
        "engine.loop_cycles_per_s",
        "engine.loop_skip_ratio",
        "engine.loop_dense_ratio",
        "engine.ff_loop_cycles_per_s",
        "engine.ff_loop_skip_ratio",
        "engine.loop_drain_ms",
        "monitor.acquire_512_ms",
        "monitor.reduce_512_ms",
        "study.quick_wall_s",
        "study.quick_warm_wall_s",
        "study.scale_sweep_wall_s",
        "analysis.full_report_ms",
        "analysis.comparison_ms",
        "serde.entry_decode_ms",
        "serde.result_write_ms",
    ];

    #[test]
    fn a_tiny_measurement_produces_every_row() {
        let cfg = StudyConfig {
            n_random: 1,
            session_hours: vec![0.05],
            n_triggered: 1,
            captures_per_triggered: 1,
            n_transition: 1,
            captures_per_transition: 1,
            ..StudyConfig::quick()
        };
        let rows = measure(0.02, cfg);
        let names: Vec<&str> = rows.iter().map(|r| r.name.as_str()).collect();
        assert_eq!(names, MEASURED);
        validate_rows(&rows).expect("measured rows are valid");
        for r in &rows {
            assert!(r.value >= 0.0, "{}: {}", r.name, r.value);
            if r.unit != "ratio" {
                assert!(r.value > 0.0, "{} measured nothing", r.name);
            }
        }
        let text = render("tiny", &rows);
        assert_eq!(text.lines().count(), rows.len() + 1);
    }

    #[test]
    fn committed_bench_file_loads_with_the_gated_rows() {
        // The checked-in BENCH_throughput.json must stay loadable by the
        // harness that maintains it.
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
        let f = load(path).expect("committed bench file loads");
        for (_, unit, _) in GATES {
            assert!(f.current.iter().any(|r| r.unit == *unit));
        }
        for name in [
            "engine.idle_cycles_per_s",
            "engine.serial_cycles_per_s",
            LOOP_RATE,
            "engine.ff_loop_cycles_per_s",
        ] {
            let r = find(&f.current, name).expect("gated row is committed");
            assert!(r.value > 0.0);
            let cov = r.cov.expect("gated rows carry their CoV");
            assert!((0.0..1.0).contains(&cov), "cov out of range: {cov}");
        }
        assert!(loop_speedup(&f).is_some_and(|s| s > 1.0));
    }

    /// The loader must surface "file missing" and "present but invalid"
    /// (the retired flat schema included) as typed, printable errors — not a panic and not one
    /// indistinguishable `None`.
    #[test]
    fn load_distinguishes_missing_flat_and_invalid_files() {
        let dir = std::env::temp_dir().join(format!("fx8_bench_load_{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let load_text = |name: &str, text: &str| {
            let p = dir.join(name);
            std::fs::write(&p, text).unwrap();
            load(p.to_str().unwrap())
        };

        let missing = dir.join("nonexistent.json");
        let e = load(missing.to_str().unwrap()).unwrap_err();
        assert!(matches!(e, BenchLoadError::Io { .. }), "got {e}");
        assert!(e.to_string().contains("cannot read"));

        let flat = r#"{"baseline":{"loop_cycles_per_sec":1.0},"current":{"loop_cycles_per_sec":2.0},"loop_speedup":2.0}"#;
        let e = load_text("flat.json", flat).unwrap_err();
        assert!(matches!(e, BenchLoadError::Parse { .. }), "got {e}");

        let e = load_text("partial.json", r#"{"baseline":[],"current":[]}"#).unwrap_err();
        match &e {
            BenchLoadError::Parse { detail, .. } => {
                assert!(detail.contains("missing field"), "detail: {detail}");
            }
            other => panic!("expected Parse error, got {other}"),
        }

        let row = |name: &str, layer: &str, value: &str| {
            format!(
                r#"{{"baseline":[],"current":[{{"name":"{name}","layer":"{layer}","unit":"s","value":{value},"cov":null,"windows":1}}],"audited":[]}}"#
            )
        };
        assert!(load_text("ok.json", &row("study.quick_wall_s", "study", "1.5")).is_ok());
        for (name, layer, value) in [
            ("engine.quick_wall_s", "study", "1.5"), // outside its layer
            ("study.", "study", "1.5"),              // empty quantity
            ("study.quick_wall_s", "gpu", "1.5"),    // unknown layer
            ("study.quick_wall_s", "study", "null"), // non-finite value
            ("study.quick_wall_s", "study", "\"1\""),
        ] {
            let e = load_text("bad.json", &row(name, layer, value)).unwrap_err();
            assert!(matches!(e, BenchLoadError::Parse { .. }), "got {e}");
        }
        let dup = r#"{"baseline":[],"audited":[],"current":[
            {"name":"study.a","layer":"study","unit":"s","value":1,"cov":null,"windows":null},
            {"name":"study.a","layer":"study","unit":"s","value":2,"cov":null,"windows":null}]}"#;
        let e = load_text("dup.json", dup).unwrap_err();
        assert!(e.to_string().contains("twice"), "got {e}");

        assert!(matches!(
            load_text("garbage.json", "not json at all").unwrap_err(),
            BenchLoadError::Parse { .. }
        ));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn full_loop_cluster_is_dense_heavy() {
        // The full-width loop keeps every CE busy, which is exactly the
        // dense SoA stepper's domain.
        let mut c = loop_cluster(7);
        c.run(200_000);
        let ratio = dense_ratio(&c);
        if cfg!(feature = "audit") {
            assert_eq!(ratio, 0.0, "audit builds never dense-step");
        } else {
            assert!(ratio > 0.9, "loop dense ratio too low: {ratio}");
        }
    }

    #[test]
    fn join_wait_cluster_is_skip_heavy() {
        // The join-wait kernel serializes its iterations, so fast-forward
        // should skip most cycles; the full-width loop should skip fewer.
        let mut ff = join_wait_cluster(5);
        ff.run(200_000);
        let ratio = skip_ratio(&ff);
        if cfg!(feature = "audit") {
            assert_eq!(ratio, 0.0, "audit builds never skip");
        } else {
            assert!(ratio > 0.5, "join-wait skip ratio too low: {ratio}");
        }
    }
}
