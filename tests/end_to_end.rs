//! Cross-crate integration: the full measurement pipeline end to end.

use fx8_study::core::api::RunHooks;
use fx8_study::core::study::{Study, StudyConfig};
use fx8_study::core::{report, tables};
use fx8_study::workload::WorkloadMix;
use std::sync::OnceLock;

fn run(cfg: StudyConfig) -> Study {
    Study::run(cfg, None, &RunHooks::default())
        .expect("an uncancellable run completes")
        .0
}

fn quick_cfg() -> StudyConfig {
    StudyConfig {
        n_random: 2,
        session_hours: vec![0.2, 0.2],
        n_triggered: 1,
        captures_per_triggered: 3,
        n_transition: 1,
        captures_per_transition: 3,
        mix: WorkloadMix::all_concurrent(),
        ..StudyConfig::paper()
    }
}

/// One shared study for the read-only assertions (built once per process).
fn shared_study() -> &'static Study {
    static STUDY: OnceLock<Study> = OnceLock::new();
    STUDY.get_or_init(|| run(quick_cfg()))
}

#[test]
fn full_pipeline_produces_report_and_comparison() {
    let study = shared_study();
    let report_text = report::render_full_report(study);
    assert!(report_text.contains("TABLE 2"));
    assert!(report_text.contains("Figure B.10") || report_text.contains("Figure B.9"));
    let rows = report::comparison(study);
    assert!(rows.len() >= 10);
    // Every measured value is finite (NaN would mean a broken pipeline
    // stage, except P_c-band medians that can legitimately be empty on a
    // tiny study).
    for r in &rows {
        if r.id != "Figure 10" && r.id != "Figure 11" {
            assert!(
                r.measured.is_finite(),
                "{} / {} is not finite",
                r.id,
                r.metric
            );
        }
    }
}

fn tiny_cfg() -> StudyConfig {
    StudyConfig {
        n_random: 1,
        session_hours: vec![0.1],
        n_triggered: 0,
        n_transition: 1,
        captures_per_transition: 2,
        mix: WorkloadMix::all_concurrent(),
        ..StudyConfig::paper()
    }
}

#[test]
fn study_is_deterministic_across_runs() {
    let a = run(tiny_cfg());
    let b = run(tiny_cfg());
    assert_eq!(a.pooled_num(), b.pooled_num());
    assert_eq!(a.pooled_transition_counts(), b.pooled_transition_counts());
}

#[test]
fn different_seeds_give_different_data() {
    let a = run(tiny_cfg());
    let mut cfg = tiny_cfg();
    cfg.base_seed += 1;
    let b = run(cfg);
    assert_ne!(a.pooled_num(), b.pooled_num());
}

#[test]
fn study_serializes_and_round_trips() {
    let study = shared_study();
    let json = serde_json::to_string(study).expect("serialize");
    let back: Study = serde_json::from_str(&json).expect("deserialize");
    assert_eq!(back.pooled_num(), study.pooled_num());
    assert_eq!(back.random_sessions.len(), study.random_sessions.len());
}

#[test]
fn record_conservation_holds_through_every_stage() {
    let study = shared_study();
    let cfg = &study.config;
    // Each sample holds exactly snapshots x buffer-depth records.
    for session in &study.random_sessions {
        for s in &session.samples {
            assert_eq!(s.counts.records, 5 * 512);
            assert_eq!(s.counts.num.iter().sum::<u64>(), s.counts.records);
            for j in 0..8 {
                assert!(s.counts.prof[j] <= s.counts.records);
            }
            assert_eq!(s.counts.ceop.iter().sum::<u64>(), s.counts.records * 8);
            assert_eq!(s.counts.membop.iter().sum::<u64>(), s.counts.records);
        }
    }
    // Triggered/transition buffers hold exactly one buffer of records.
    for bufs in study.triggered.iter().chain(study.transitions.iter()) {
        for b in bufs {
            assert_eq!(b.counts.records, 512);
        }
    }
    let _ = cfg;
}

#[test]
fn serial_only_workload_yields_zero_concurrency_everywhere() {
    let cfg = StudyConfig {
        n_random: 1,
        session_hours: vec![0.2],
        n_triggered: 0,
        n_transition: 0,
        mix: WorkloadMix::all_serial(),
        ..StudyConfig::paper()
    };
    let study = run(cfg);
    let m = study.overall_measures();
    assert_eq!(m.workload_concurrency, 0.0);
    assert_eq!(m.mean_concurrency_level, None);
    // Table 2 renders the undefined case without panicking.
    let rendered = tables::table2(&study).render();
    assert!(rendered.contains("undefined"));
}

#[test]
fn quick_study_config_is_self_consistent() {
    let cfg = StudyConfig::quick();
    assert!(cfg.n_random <= cfg.session_hours.len());
    let study = run(cfg);
    assert!(study.pooled_counts().records > 0);
}
