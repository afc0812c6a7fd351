//! Cross-crate tests of the `fx8-trace` observability layer.
//!
//! Two properties are load-bearing for the whole layer:
//!
//! * the Chrome `trace_event` export is real JSON that a trace viewer can
//!   load: it parses back, every record is well-formed, spans nest, and
//!   each session appears as a named process;
//! * the metrics registry agrees with the simulator's own ground-truth
//!   counters (CCB grant statistics, cache access counts) — the tracer
//!   observes the machine, it does not keep a parallel version of it.

use fx8_study::core::experiment::run_random_session;
use fx8_study::prelude::*;
use proptest::prelude::*;
use serde::Value;
use std::collections::BTreeMap;

/// The mini study used across core's own tests: every session type, short
/// horizons, a fully concurrent mix so the CCB and crossbar stay busy —
/// fully traced.
fn traced_mini() -> StudyConfig {
    StudyConfig {
        machine: MachineConfig {
            trace: TraceConfig::full(),
            ..MachineConfig::fx8()
        },
        n_random: 2,
        session_hours: vec![0.12, 0.12],
        n_triggered: 1,
        captures_per_triggered: 2,
        n_transition: 1,
        captures_per_transition: 2,
        mix: WorkloadMix::all_concurrent(),
        ..StudyConfig::paper()
    }
}

/// Validate and run a study, returning its observability.
fn observe(cfg: StudyConfig) -> StudyObservability {
    cfg.validate().expect("mini study config validates");
    Study::run(cfg, None, &RunHooks::default())
        .expect("uncancellable")
        .1
}

fn as_str<'v>(v: &'v Value, what: &str) -> &'v str {
    match v {
        Value::Str(s) => s,
        other => panic!("{what}: expected string, got {other:?}"),
    }
}

fn as_num(v: &Value, what: &str) -> f64 {
    match v {
        Value::Num(s) => s.parse().unwrap_or_else(|e| panic!("{what}: {e}")),
        other => panic!("{what}: expected number, got {other:?}"),
    }
}

/// Export a fully traced mini study as Chrome JSON, parse it back, and
/// check the event stream a viewer would rely on: phases are known, every
/// record carries `name`/`ph`/`pid` (`ts` unless metadata, `dur` on
/// spans), spans on one (pid, tid) lane are ordered and non-overlapping,
/// and every session is announced as a named process.
#[test]
fn chrome_trace_round_trips_and_spans_nest() {
    let cfg = traced_mini();
    let ns_per_cycle = cfg.machine.ns_per_cycle;
    let obs = observe(cfg);
    let json = obs.chrome_trace(ns_per_cycle);

    let doc: Value = serde_json::from_str(&json).expect("export is valid JSON");
    let Some(Value::Array(events)) = doc.get("traceEvents") else {
        panic!("export lacks a traceEvents array");
    };
    assert!(!events.is_empty(), "a traced study emits events");

    let mut process_names = Vec::new();
    let mut spans: BTreeMap<(String, String), Vec<(f64, f64)>> = BTreeMap::new();
    for (i, ev) in events.iter().enumerate() {
        let name = as_str(ev.get("name").expect("every event has a name"), "name");
        let ph = as_str(ev.get("ph").expect("every event has a phase"), "ph");
        let pid = as_num(ev.get("pid").expect("every event has a pid"), "pid");
        assert!(
            matches!(ph, "M" | "C" | "i" | "X"),
            "event {i}: unknown phase {ph:?}"
        );
        if ph != "M" {
            let ts = as_num(ev.get("ts").expect("timed events carry ts"), "ts");
            assert!(ts >= 0.0, "event {i}: negative timestamp");
        }
        if ph == "M" && name == "process_name" {
            let args = ev.get("args").expect("metadata carries args");
            process_names
                .push(as_str(args.get("name").expect("args.name"), "args.name").to_string());
        }
        if ph == "X" {
            let tid = as_num(ev.get("tid").expect("spans carry tid"), "tid");
            let ts = as_num(ev.get("ts").unwrap(), "ts");
            let dur = as_num(ev.get("dur").expect("spans carry dur"), "dur");
            assert!(dur >= 0.0, "event {i}: negative duration");
            spans
                .entry((format!("{pid}"), format!("{tid}")))
                .or_default()
                .push((ts, dur));
        }
    }

    for label in ["random 0", "random 1", "triggered 0", "transition 0"] {
        assert!(
            process_names.iter().any(|n| n == label),
            "session {label:?} missing from process metadata {process_names:?}"
        );
    }
    // Spans on a lane are emitted in machine-time order and describe
    // disjoint windows (dense batches): each one ends
    // before the next begins.
    for ((pid, tid), lane) in &spans {
        for w in lane.windows(2) {
            let (t0, d0) = w[0];
            let (t1, _) = w[1];
            assert!(
                t1 >= t0 + d0 - 1e-6,
                "lane ({pid},{tid}): span at {t1} overlaps span {t0}+{d0}"
            );
        }
    }
}

/// The exporter output also satisfies the standalone `trace_check`
/// well-formedness contract when written through `std::fmt` consumers —
/// cheap guard that the file ends exactly where the JSON does.
#[test]
fn chrome_trace_has_no_trailing_garbage() {
    let cfg = StudyConfig {
        n_random: 1,
        session_hours: vec![0.05],
        n_triggered: 0,
        n_transition: 0,
        ..traced_mini()
    };
    let ns = cfg.machine.ns_per_cycle;
    let obs = observe(cfg);
    let json = obs.chrome_trace(ns);
    assert!(json.starts_with('{') && json.trim_end().ends_with("]}"));
    serde_json::from_str::<Value>(json.trim_end()).expect("whole file is one JSON value");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    /// Metrics equal ground truth on short random-sampling sessions, for
    /// arbitrary seeds: the grant-latency histogram saw exactly the grants
    /// the CCB hardware counters recorded, per-bank crossbar grants
    /// partition the total, every crossbar grant was a CE cache access,
    /// the engine split partitions the stepped timeline — and arming the
    /// metrics registry never steers the simulation.
    #[test]
    fn metrics_agree_with_ground_truth_counters(seed in 0u64..1024) {
        let mut cfg = fx8_study::core::experiment::SessionConfig::quick(seed);
        cfg.hours = 0.05;
        cfg.machine.trace = TraceConfig::metrics_only();
        cfg.validate().unwrap();

        let (result, cluster) = run_random_session(&cfg, 0);
        let m = &cluster.metrics();
        prop_assert!(m.cycles.consistent(), "engine split must partition total");
        prop_assert!(m.cycles.total > 0, "the session stepped cycles");
        prop_assert_eq!(
            m.ccb_grant_latency.count,
            m.ccb_grants_by_ce.iter().sum::<u64>(),
            "histogram saw every CCB grant"
        );
        prop_assert_eq!(
            m.crossbar_grants_by_bank.iter().sum::<u64>(),
            m.crossbar_grants,
            "per-bank grants partition the total"
        );
        prop_assert_eq!(
            m.crossbar_grants, m.cache_ce_accesses,
            "every crossbar grant is one CE cache access"
        );
        prop_assert_eq!(m.events_recorded, 0, "metrics-only mode records no events");
        prop_assert!(cluster.trace_events().is_empty());

        // Tracing never steers: a plain untraced run is bit-identical.
        let mut plain_cfg = cfg.clone();
        plain_cfg.machine.trace = TraceConfig::off();
        let (plain, _) = run_random_session(&plain_cfg, 0);
        prop_assert_eq!(&result, &plain, "metrics must be a pure observer");
    }
}

/// A traced quick study's engine track accounts for every cycle the
/// engines report, in one event per dense window: per session, the
/// quiet stretches the dense windows jumped sum to the skipped cycles,
/// and the dense windows' stepped cycles to the dense cycles.
#[test]
fn engine_track_agrees_with_engine_cycles() {
    use fx8_study::sim::trace::TraceEvent;
    let cfg = StudyConfig {
        machine: MachineConfig {
            trace: TraceConfig {
                event_capacity: 1 << 18,
                ..TraceConfig::full()
            },
            ..MachineConfig::fx8()
        },
        ..StudyConfig::quick()
    };
    let obs = observe(cfg);
    let mut skipped = 0u64;
    for s in &obs.sessions {
        assert_eq!(s.events_dropped, 0, "{}: the ring dropped events", s.label);
        let (mut jumped, mut dense) = (0u64, 0u64);
        for ev in &s.events {
            if let TraceEvent::DenseWindow {
                cycles,
                skipped: quiet,
                ..
            } = *ev
            {
                assert!(quiet <= cycles, "{}: window jumped past its end", s.label);
                jumped += quiet;
                dense += cycles - quiet;
            }
        }
        let e = s.metrics.cycles;
        assert!(e.consistent(), "{}: engine split must partition", s.label);
        assert_eq!(
            jumped, e.skipped,
            "{}: skipped cycles on the track",
            s.label
        );
        assert_eq!(dense, e.dense, "{}: dense cycles on the track", s.label);
        skipped += e.skipped;
    }
    if !cfg!(feature = "audit") {
        assert!(skipped > 0, "the quick study skipped nothing");
    }
}

/// Engine windows cost one event each — a dense window's jumped quiet
/// stretches ride in its own event — so the default event ring holds a
/// whole traced quick study.
#[test]
fn default_ring_holds_the_whole_quick_study() {
    let cfg = StudyConfig {
        machine: MachineConfig {
            trace: TraceConfig::full(),
            ..MachineConfig::fx8()
        },
        ..StudyConfig::quick()
    };
    let obs = observe(cfg);
    let dropped: u64 = obs.sessions.iter().map(|s| s.events_dropped).sum();
    assert_eq!(
        dropped, 0,
        "the default ring dropped events of a traced quick study"
    );
}
