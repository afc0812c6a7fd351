//! The metric catalogue and the result line.
//!
//! Every workload prints every metric of the catalogue it runs in: the
//! end-to-end set untraced (`--trace 0`), the per-layer set traced
//! (`--trace 1`). A per-layer metric a workload does not exercise reads 0:
//! that layer did no work there. The names and units here are the ones
//! `BENCHMARK.json` lists; a test keeps the two in step.

use std::collections::BTreeMap;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("p50_ms", "ms"),
    ("peak_rss_mb", "MB"),
    ("success_frac", "ratio"),
];

/// Per-layer metrics of the traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    // fx8-sim engines: pure counts, identical for a speed-only change.
    ("sim.cycles_total", "count"),
    ("sim.cycles_scalar", "count"),
    ("sim.cycles_dense", "count"),
    ("sim.cycles_skipped", "count"),
    ("sim.instrs", "count"),
    ("sim.crossbar_grants", "count"),
    ("sim.crossbar_retries", "count"),
    ("sim.ccb_grants", "count"),
    // fx8-sim host cost: session thread time per simulated cycle.
    ("sim.ns_per_cycle", "ns"),
    ("sim.ns_per_cycle.random", "ns"),
    ("sim.ns_per_cycle.triggered", "ns"),
    ("sim.ns_per_cycle.transition", "ns"),
    // fx8-monitor DAS.
    ("monitor.records", "count"),
    ("monitor.samples", "count"),
    // fx8-core experiment sessions and the executor that runs them.
    ("session.random_s", "s"),
    ("session.triggered_s", "s"),
    ("session.transition_s", "s"),
    ("session.max_s", "s"),
    ("executor.busy_frac", "ratio"),
    ("executor.tail_s", "s"),
    ("study.wall_s", "s"),
    ("study.sim_mcycles_per_s", "Mcycles/s"),
    ("study.base_seed", "count"),
    // fx8-core session cache.
    ("cache.stores", "count"),
    ("cache.disk_bytes", "B"),
    ("cache.hits", "count"),
    ("cache.misses", "count"),
    ("cache.invalid", "count"),
    ("cache.hit_frac", "ratio"),
    ("cache.disk_read_ms", "ms"),
    // fx8-core api.
    ("api.parse_ms", "ms"),
    ("core.execute_warm_ms", "ms"),
    // Analysis: report, tables, figures (fx8-stats underneath).
    ("analysis.comparison_ms", "ms"),
    ("analysis.tables_ms", "ms"),
    ("analysis.figures_ms", "ms"),
    ("analysis.report_bytes", "B"),
    // Result serialization (vendored serde_json).
    ("serialize.result_ms", "ms"),
    ("serialize.result_bytes", "B"),
    // fx8-serve.
    ("serve.submit_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.job_wall_ms", "ms"),
    ("serve.rtt_ms", "ms"),
    ("serve.fetch_ms", "ms"),
    ("serve.response_bytes", "B"),
    ("serve.http_requests_per_job", "count"),
    ("serve.overhead_ms", "ms"),
    ("serve.responses_4xx", "count"),
    ("serve.responses_5xx", "count"),
    ("serve.rejected_busy", "count"),
    ("serve.rss_kb_per_job", "kB"),
    // The op itself, from the untraced ops of the traced run.
    ("op.p90_ms", "ms"),
    ("op.samples", "count"),
    // The host's speed during the timed phase (see `host_speed`).
    ("host.slowdown", "ratio"),
    // The trace checking itself.
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// How far `trace.coverage` may stray from 1 before the layer sum counts
/// as a measurement bug.
pub const COVERAGE_TOLERANCE: f64 = 0.10;

/// What one workload run measured.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Ops attempted in the run.
    pub attempted: u64,
    /// Ops whose output failed a check (or that errored).
    pub failed: u64,
    /// Measured values by metric name.
    pub values: BTreeMap<&'static str, f64>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl Outcome {
    /// Record a metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Record a human-readable note.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// Count one checked op: `ok` or failed.
    pub fn count_op(&mut self, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
        }
    }

    /// Checked-good ops over ops attempted.
    pub fn success_frac(&self) -> f64 {
        if self.attempted == 0 {
            return 0.0;
        }
        (self.attempted - self.failed) as f64 / self.attempted as f64
    }
}

/// The catalogue a run prints from.
pub fn catalogue(trace: bool) -> &'static [(&'static str, &'static str)] {
    if trace {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// Render the result line: one JSON object with `correct`, `attempted`,
/// `failed` and every catalogue metric. A per-layer metric the workload
/// did not set reads 0; an unset end-to-end metric or a non-finite value
/// is a benchmark bug and makes the run incorrect.
pub fn result_line(outcome: &Outcome, trace: bool) -> String {
    let mut correct = outcome.failed == 0 && outcome.attempted > 0;
    let mut metrics = Vec::new();
    for &(name, unit) in catalogue(trace) {
        let value = match outcome.values.get(name) {
            Some(v) if v.is_finite() => *v,
            Some(_) => {
                correct = false;
                0.0
            }
            None if trace => 0.0,
            None => {
                correct = false;
                0.0
            }
        };
        metrics.push(format!(
            "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
        ));
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        outcome.attempted.max(1),
        if outcome.attempted == 0 {
            1
        } else {
            outcome.failed
        },
        metrics.join(", ")
    )
}

/// Human-readable table of the catalogue's values.
pub fn human_lines(outcome: &Outcome, trace: bool) -> Vec<String> {
    catalogue(trace)
        .iter()
        .map(|&(name, unit)| {
            let v = outcome.values.get(name).copied().unwrap_or(0.0);
            format!("  {name:<32} {v:>16.6} {unit}")
        })
        .collect()
}

/// A `kB` field of `/proc/self/status`, or 0 when the kernel does not
/// report it.
fn status_kb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix(field))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .unwrap_or(0.0)
}

/// Peak resident set of this process in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// The host's CPU time so far, in clock ticks from the first line of
/// `/proc/stat`: `(stolen, total)`. Stolen time is time the hypervisor
/// gave the guest's CPUs to someone else; `None` when the kernel does not
/// report it.
pub fn host_ticks() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .strip_prefix("cpu ")?
        .split_whitespace()
        .filter_map(|f| f.parse().ok())
        .collect();
    // user nice system idle iowait irq softirq steal guest guest_nice;
    // guest time is already counted in user and nice.
    let steal = *fields.get(7)?;
    Some((steal, fields.iter().take(8).sum()))
}

/// Current resident set of this process in kB (`VmRSS`).
pub fn rss_kb() -> f64 {
    status_kb("VmRSS:")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn names_in(json: &str, key: &str) -> Vec<(String, String)> {
        let v: serde::Value = serde_json::from_str(json).expect("BENCHMARK.json parses");
        let Some(serde::Value::Array(items)) = v.get(key) else {
            panic!("BENCHMARK.json has no {key} list");
        };
        items
            .iter()
            .map(|m| {
                let s = |k: &str| match m.get(k) {
                    Some(serde::Value::Str(s)) => s.clone(),
                    other => panic!("{key} entry {k} is {other:?}"),
                };
                (s("name"), s("unit"))
            })
            .collect()
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json readable");
        let own = |c: &[(&str, &str)]| {
            c.iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect::<Vec<_>>()
        };
        assert_eq!(names_in(&json, "end_to_end"), own(END_TO_END));
        assert_eq!(names_in(&json, "per_layer"), own(PER_LAYER));
    }

    #[test]
    fn missing_or_non_finite_end_to_end_metric_is_incorrect() {
        let mut o = Outcome::default();
        o.count_op(true);
        for &(name, _) in END_TO_END {
            o.set(name, 1.0);
        }
        assert!(result_line(&o, false).starts_with("{\"correct\": true"));
        o.set("p50_ms", f64::NAN);
        assert!(result_line(&o, false).starts_with("{\"correct\": false"));
        o.values.remove("p50_ms");
        assert!(result_line(&o, false).starts_with("{\"correct\": false"));
    }

    #[test]
    fn a_failed_op_lowers_success_and_correctness() {
        let mut o = Outcome::default();
        o.count_op(true);
        o.count_op(false);
        assert_eq!(o.success_frac(), 0.5);
        assert!(result_line(&o, true).starts_with("{\"correct\": false"));
    }
}
