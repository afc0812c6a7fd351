//! The cold paper study: `StudyConfig::paper()` through `api::execute`
//! into an empty on-disk `SessionCache`, which is what a first
//! `reproduce run` does. It is `disk_warm`'s set-up, and the only place
//! the benchmark simulates the paper study: the fx8-sim engines, the
//! workload generator, the DAS monitor, the executor and the cache
//! writes all do their work here.

use crate::checks;
use crate::plan::Plan;
use crate::stats::median;
use fx8_core::api::{self, JobRequest, JobResult, RunHooks, SessionDone};
use fx8_core::cache::SessionCache;
use fx8_core::observability::StudyObservability;
use fx8_core::study::Study;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One cold study as the benchmark saw it.
pub struct ColdRun {
    /// `api::execute_with`, start to end.
    pub execute: Duration,
    /// Time spent inside the completion hook (the trace's own cost).
    hook: Duration,
    /// Completion time of each session, seconds after the call started.
    session_ends: BTreeMap<String, f64>,
    pub obs: StudyObservability,
    pub study: Study,
    /// The serialized `JobResult`.
    pub result_json: String,
}

/// Run `req` cold through the api into the cache over `dir`, which must
/// be empty, with a completion hook that stamps each session's end.
pub fn run(req: &JobRequest, dir: &Path) -> Result<ColdRun, String> {
    let cache = SessionCache::at_dir(dir);
    let ends = Mutex::new((BTreeMap::new(), Duration::ZERO));
    let t0 = Instant::now();
    let on_session = |s: SessionDone| {
        let entered = Instant::now();
        let mut g = ends.lock().expect("hook state poisoned");
        g.0.insert(s.label, (entered - t0).as_secs_f64());
        g.1 += entered.elapsed();
    };
    let hooks = RunHooks {
        cancel: None,
        on_session: Some(&on_session),
    };
    let outcome = api::execute_with(req, Some(&cache), &hooks).map_err(|e| e.to_string())?;
    let execute = t0.elapsed();
    let (session_ends, hook) = ends.into_inner().expect("hook state poisoned");
    let result_json = serde_json::to_string(&outcome.result).map_err(|e| e.to_string())?;
    let JobResult::Study { study, .. } = outcome.result else {
        return Err("a study request returned a non-study result".into());
    };
    Ok(ColdRun {
        execute,
        hook,
        session_ends,
        obs: outcome
            .study_obs
            .ok_or("a study returned no observability")?,
        study,
        result_json,
    })
}

/// Check one cold study: the engines partition the cycles and, for a
/// table seed, the result digest and the cycle count equal the pinned
/// ones. Returns what failed, if anything.
pub fn check(plan: &Plan, cold: &ColdRun) -> Option<String> {
    if !checks::engine_split_partitions(&cold.obs) {
        return Some("engine cycle split does not partition sim.cycles_total".into());
    }
    let digest = checks::digest(cold.result_json.as_bytes());
    match plan.pinned {
        Some(pin) if digest != pin.paper_digest || cold.obs.total_cycles() != pin.paper_cycles => {
            Some(format!(
                "base_seed {} gave digest {digest} / {} cycles, pinned {} / {}",
                pin.base_seed,
                cold.obs.total_cycles(),
                pin.paper_digest,
                pin.paper_cycles
            ))
        }
        _ => None,
    }
}

/// The per-layer numbers of one cold study whose cache is in `dir`: the
/// simulation, the monitor, the sessions, the executor and the cache
/// writes, plus the study's own layer sum as `trace.coverage` and
/// `trace.overhead`.
pub fn layers(cold: &ColdRun, dir: &Path) -> Result<BTreeMap<&'static str, f64>, String> {
    let obs = &cold.obs;
    let mut l = BTreeMap::new();
    let engine = obs.pooled_engine();
    let sum = |f: &dyn Fn(&fx8_sim::trace::MetricsSnapshot) -> u64| -> f64 {
        obs.sessions.iter().map(|s| f(&s.metrics) as f64).sum()
    };
    l.insert("sim.cycles_total", engine.total as f64);
    l.insert("sim.cycles_scalar", engine.scalar as f64);
    l.insert("sim.cycles_dense", engine.dense as f64);
    l.insert("sim.cycles_skipped", engine.skipped as f64);
    l.insert("sim.instrs", sum(&|m| m.instrs));
    l.insert("sim.crossbar_grants", sum(&|m| m.crossbar_grants));
    l.insert("sim.crossbar_retries", sum(&|m| m.crossbar_retries));
    l.insert("sim.ccb_grants", sum(&|m| m.ccb_grants_by_ce.iter().sum()));

    // Session thread time per kind, and per simulated cycle.
    let kind_of = |label: &str| label.split(' ').next().unwrap_or("").to_string();
    let mut wall: BTreeMap<String, f64> = BTreeMap::new();
    let mut cycles: BTreeMap<String, f64> = BTreeMap::new();
    for s in &obs.sessions {
        *wall.entry(kind_of(&s.label)).or_default() += s.wall_s;
        *cycles.entry(kind_of(&s.label)).or_default() += s.metrics.cycles.total as f64;
    }
    let ns_per_cycle = |w: f64, c: f64| if c > 0.0 { w * 1e9 / c } else { 0.0 };
    let total_wall: f64 = wall.values().sum();
    l.insert(
        "sim.ns_per_cycle",
        ns_per_cycle(total_wall, engine.total as f64),
    );
    for (kind, wall_name, ns_name) in [
        ("random", "session.random_s", "sim.ns_per_cycle.random"),
        (
            "triggered",
            "session.triggered_s",
            "sim.ns_per_cycle.triggered",
        ),
        (
            "transition",
            "session.transition_s",
            "sim.ns_per_cycle.transition",
        ),
    ] {
        let w = wall.get(kind).copied().unwrap_or(0.0);
        l.insert(wall_name, w);
        l.insert(
            ns_name,
            ns_per_cycle(w, cycles.get(kind).copied().unwrap_or(0.0)),
        );
    }
    l.insert(
        "session.max_s",
        obs.sessions.iter().map(|s| s.wall_s).fold(0.0, f64::max),
    );

    let samples = cold.study.all_samples();
    l.insert("monitor.samples", samples.len() as f64);
    l.insert(
        "monitor.records",
        samples.iter().map(|s| s.counts.records as f64).sum(),
    );

    // Executor: how busy its threads were, and how long the last session
    // ran alone after the one before it finished.
    let threads = std::thread::available_parallelism()
        .map_or(1, |n| n.get())
        .min(obs.sessions.len().max(1));
    l.insert(
        "executor.busy_frac",
        total_wall / (threads as f64 * obs.study_wall_s),
    );
    let mut ends: Vec<f64> = cold.session_ends.values().copied().collect();
    ends.sort_by(f64::total_cmp);
    let penultimate = ends.len().checked_sub(2).map_or(0.0, |i| ends[i]);
    l.insert("executor.tail_s", obs.study_wall_s - penultimate);
    l.insert("study.wall_s", obs.study_wall_s);
    l.insert(
        "study.sim_mcycles_per_s",
        engine.total as f64 / 1e6 / cold.execute.as_secs_f64(),
    );
    l.insert("study.base_seed", cold.study.config.base_seed as f64);

    // Cache writes.
    l.insert("cache.stores", obs.cache.stores as f64);
    let disk_bytes: u64 = std::fs::read_dir(dir)
        .map_err(|e| format!("cache dir: {e}"))?
        .filter_map(Result::ok)
        .filter_map(|e| e.metadata().ok())
        .filter(|m| m.is_file())
        .map(|m| m.len())
        .sum();
    l.insert("cache.disk_bytes", disk_bytes as f64);

    // Layer sum: the sessions' span (program-timed session walls placed at
    // their hook-stamped ends) against the whole call. What is left over
    // is request validation, the comparison and the executor's start and
    // end.
    let starts = obs
        .sessions
        .iter()
        .filter_map(|s| cold.session_ends.get(&s.label).map(|end| end - s.wall_s));
    let first_start = starts.fold(f64::INFINITY, f64::min);
    let last_end = ends.last().copied().unwrap_or(0.0);
    let span = (last_end - first_start.min(last_end)).max(0.0);
    l.insert("trace.coverage", span / cold.execute.as_secs_f64());
    l.insert(
        "trace.overhead",
        cold.execute.as_secs_f64() / (cold.execute - cold.hook).as_secs_f64(),
    );
    Ok(l)
}

/// Each layer figure's median over several cold studies' layers.
pub fn median_layers(runs: &[BTreeMap<&'static str, f64>]) -> BTreeMap<&'static str, f64> {
    let names: BTreeSet<&'static str> = runs.iter().flat_map(|l| l.keys().copied()).collect();
    names
        .into_iter()
        .map(|name| {
            let vals: Vec<f64> = runs.iter().filter_map(|l| l.get(name).copied()).collect();
            (name, median(&vals))
        })
        .collect()
}
