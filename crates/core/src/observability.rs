//! Self-observability of a study run (`fx8-trace`, study layer).
//!
//! The simulator's trace layer ([`fx8_sim::trace`]) collects per-cluster
//! metrics and events; this module pools them across the sessions of a
//! [`crate::study::Study`] and adds the third pillar the machine cannot
//! see: wall-clock self-profiling of `Study::run`. The session runners in
//! [`crate::experiment`] capture one [`SessionObservability`] per session;
//! [`crate::study::Study::run`] assembles them into a
//! [`StudyObservability`], which renders as the `observability` section of
//! `reproduce run`, serializes to the `reproduce metrics` JSON, and
//! exports the `reproduce trace` Chrome `trace_event` file.

use crate::cache::CacheStats;
use fx8_sim::trace::{ChromeTraceBuilder, EngineCycles, MetricsSnapshot, TraceEvent};
use fx8_sim::Cluster;
use serde::Serialize;
use std::fmt::Write as _;
use std::time::Instant;

/// Everything one session's cluster observed about itself, plus the wall
/// clock the session consumed. Deliberately *not* part of
/// [`crate::experiment::SessionResult`]: wall time differs run to run,
/// and the determinism suite compares results bit-for-bit.
#[derive(Debug, Clone)]
pub struct SessionObservability {
    /// Which session ("random 3", "triggered 0", "transition 1", ...).
    pub label: String,
    /// Wall-clock seconds the session took to simulate.
    pub wall_s: f64,
    /// The cluster's metrics registry at session end.
    pub metrics: MetricsSnapshot,
    /// The retained event trace (empty unless `TraceConfig::events`).
    pub events: Vec<TraceEvent>,
    /// Events evicted by the bounded ring.
    pub events_dropped: u64,
    /// Whether the session was answered by the result cache instead of
    /// being stepped (metrics are then empty: no cluster existed).
    pub cache_hit: bool,
}

impl SessionObservability {
    /// Snapshot a finished session's cluster.
    pub fn capture(label: String, started: Instant, cluster: &Cluster) -> Self {
        SessionObservability {
            label,
            wall_s: started.elapsed().as_secs_f64(),
            metrics: cluster.metrics(),
            events: cluster.trace_events(),
            events_dropped: cluster.trace_dropped_events(),
            cache_hit: false,
        }
    }

    /// The observability slice of a session answered from the result
    /// cache: no cluster ever existed, so the metrics registry is empty
    /// and only the (tiny) lookup wall clock is real.
    pub fn cached(label: String, started: Instant) -> Self {
        SessionObservability {
            label,
            wall_s: started.elapsed().as_secs_f64(),
            metrics: MetricsSnapshot::default(),
            events: Vec::new(),
            events_dropped: 0,
            cache_hit: true,
        }
    }
}

/// Observability of a whole run, a study or a width sweep: one slice per
/// session plus the run's own wall clock. Session order matches
/// [`crate::study::Study`]: random sessions first, then triggered, then
/// transition; a sweep repeats that plan once per width, and its labels
/// carry the width (`"w16 random 0"`).
#[derive(Debug, Clone, Default)]
pub struct StudyObservability {
    /// Per-session slices.
    pub sessions: Vec<SessionObservability>,
    /// Wall-clock seconds for the whole run (parallel sessions overlap,
    /// so this is typically far less than the sum of session wall times).
    pub study_wall_s: f64,
    /// Result-cache counters for this run alone (all zero when the run
    /// was uncached).
    pub cache: CacheStats,
}

impl StudyObservability {
    /// Per-engine cycle split pooled over every session. The engines
    /// partition each session's timeline, so the pooled split partitions
    /// the pooled total.
    pub fn pooled_engine(&self) -> EngineCycles {
        let mut acc = EngineCycles {
            scalar: 0,
            dense: 0,
            skipped: 0,
            total: 0,
        };
        for s in &self.sessions {
            acc.add(&s.metrics.cycles);
        }
        acc
    }

    /// Total simulated cycles across every session.
    pub fn total_cycles(&self) -> u64 {
        self.pooled_engine().total
    }

    /// Export every session's event trace as one Chrome `trace_event`
    /// document: one process per session, named after its label.
    pub fn chrome_trace(&self, ns_per_cycle: u64) -> String {
        let mut b = ChromeTraceBuilder::new();
        for (pid, s) in self.sessions.iter().enumerate() {
            b.add_process(pid as u32, &s.label, &s.events, ns_per_cycle);
        }
        b.finish()
    }

    /// The serializable metrics report behind `reproduce metrics --json`.
    pub fn metrics_report(&self) -> MetricsReport {
        MetricsReport {
            study_wall_s: self.study_wall_s,
            total_cycles: self.total_cycles(),
            engine: self.pooled_engine(),
            cache: self.cache,
            sessions: self
                .sessions
                .iter()
                .map(|s| SessionMetrics {
                    label: s.label.clone(),
                    wall_s: s.wall_s,
                    cache_hit: s.cache_hit,
                    metrics: s.metrics.clone(),
                })
                .collect(),
        }
    }

    /// Human-readable summary: the `observability` section of the study
    /// report. Wall-clock figures vary run to run; everything else is
    /// deterministic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        let eng = self.pooled_engine();
        let _ = writeln!(out, "## Observability (fx8-trace)");
        let _ = writeln!(
            out,
            "study wall clock: {:.3} s over {} sessions",
            self.study_wall_s,
            self.sessions.len()
        );
        if self.cache.lookups() > 0 {
            let _ = writeln!(
                out,
                "result cache: {} hits / {} lookups ({:.0}%), {} stored, {} invalid entries skipped",
                self.cache.hits,
                self.cache.lookups(),
                100.0 * self.cache.hit_rate(),
                self.cache.stores,
                self.cache.invalid_entries,
            );
        }
        let pct = |part: u64| {
            if eng.total == 0 {
                0.0
            } else {
                100.0 * part as f64 / eng.total as f64
            }
        };
        let _ = writeln!(
            out,
            "engine residency: {} cycles total — scalar {} ({:.1}%), dense {} ({:.1}%), fast-forward {} ({:.1}%)",
            eng.total,
            eng.scalar,
            pct(eng.scalar),
            eng.dense,
            pct(eng.dense),
            eng.skipped,
            pct(eng.skipped),
        );
        for s in &self.sessions {
            let m = &s.metrics;
            let _ = writeln!(
                out,
                "  {:<14} {:>9.3} s  {:>14} cycles  {:>12} instrs  xbar {}g/{}d  faults {}u/{}s{}",
                s.label,
                s.wall_s,
                m.cycles.total,
                m.instrs,
                m.crossbar_grants,
                m.crossbar_retries,
                m.vm_user_faults,
                m.vm_system_faults,
                if s.cache_hit { "  [cached]" } else { "" },
            );
            if m.ccb_grant_latency.count > 0 {
                let _ = writeln!(
                    out,
                    "  {:<14} ccb grants {} (mean wait {:.1} cyc, max {})",
                    "",
                    m.ccb_grant_latency.count,
                    m.ccb_grant_latency.mean(),
                    m.ccb_grant_latency.max,
                );
            }
            if m.events_recorded > 0 {
                let _ = writeln!(
                    out,
                    "  {:<14} events {} recorded, {} dropped",
                    "", m.events_recorded, m.events_dropped,
                );
            }
        }
        out
    }
}

/// Serializable form of a study's metrics registry (the
/// `reproduce metrics --json` payload).
#[derive(Debug, Clone, Serialize)]
pub struct MetricsReport {
    /// Wall-clock seconds for the whole study.
    pub study_wall_s: f64,
    /// Simulated cycles pooled over every session.
    pub total_cycles: u64,
    /// Pooled per-engine split; partitions `total_cycles`.
    pub engine: EngineCycles,
    /// Result-cache counters for this study alone.
    pub cache: CacheStats,
    /// Per-session registries.
    pub sessions: Vec<SessionMetrics>,
}

/// One session's slice of the metrics report.
#[derive(Debug, Clone, Serialize)]
pub struct SessionMetrics {
    /// Session label ("random 0", ...).
    pub label: String,
    /// Wall-clock seconds for the session.
    pub wall_s: f64,
    /// Whether the session was answered by the result cache.
    pub cache_hit: bool,
    /// The session cluster's full registry snapshot.
    pub metrics: MetricsSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(total: u64, dense: u64) -> MetricsSnapshot {
        MetricsSnapshot {
            cycles: EngineCycles {
                scalar: total - dense,
                dense,
                skipped: 0,
                total,
            },
            instrs: 10,
            iters_completed: 2,
            crossbar_grants: 5,
            crossbar_retries: 1,
            crossbar_grants_by_bank: vec![5, 0, 0, 0],
            membus_busy_cycles: 3,
            membus_ops_by_kind: vec![1, 2],
            cache_ce_accesses: 9,
            cache_ce_misses: 1,
            ccb_grants_by_ce: vec![1; 8],
            ccb_grant_wait_cycles: 4,
            ccb_sync_wait_cycles: 0,
            ccb_grant_latency: Default::default(),
            vm_user_faults: 0,
            vm_system_faults: 0,
            events_recorded: 0,
            events_dropped: 0,
        }
    }

    fn obs() -> StudyObservability {
        StudyObservability {
            sessions: vec![
                SessionObservability {
                    label: "random 0".into(),
                    wall_s: 0.5,
                    metrics: snap(100, 40),
                    events: vec![TraceEvent::Mount {
                        at: 1,
                        kind: fx8_sim::trace::MountKind::Loop,
                    }],
                    events_dropped: 0,
                    cache_hit: false,
                },
                SessionObservability {
                    label: "triggered 0".into(),
                    wall_s: 0.25,
                    metrics: snap(50, 0),
                    events: vec![],
                    events_dropped: 0,
                    cache_hit: true,
                },
            ],
            study_wall_s: 0.6,
            cache: CacheStats {
                hits: 1,
                misses: 1,
                stores: 1,
                invalid_entries: 0,
            },
        }
    }

    #[test]
    fn pooled_engine_partitions_total() {
        let o = obs();
        let e = o.pooled_engine();
        assert_eq!(e.total, 150);
        assert_eq!(e.dense, 40);
        assert!(e.consistent());
        assert_eq!(o.total_cycles(), 150);
    }

    #[test]
    fn chrome_trace_emits_one_process_per_session() {
        let json = obs().chrome_trace(170);
        assert!(json.contains("\"name\":\"random 0\""));
        assert!(json.contains("\"name\":\"triggered 0\""));
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn metrics_report_serializes() {
        let rep = obs().metrics_report();
        let json = serde_json::to_string(&rep).expect("report serializes");
        assert!(json.contains("\"total_cycles\""));
        assert!(json.contains("\"random 0\""));
        assert!(json.contains("\"engine\""));
        assert!(json.contains("\"cache\""));
        assert!(json.contains("\"cache_hit\":true"));
    }

    #[test]
    fn render_mentions_every_session() {
        let text = obs().render();
        assert!(text.contains("Observability"));
        assert!(text.contains("random 0"));
        assert!(text.contains("triggered 0"));
        assert!(text.contains("engine residency"));
        assert!(text.contains("result cache: 1 hits / 2 lookups (50%)"));
        assert!(text.contains("[cached]"));
    }
}
