//! The invariant auditor's own suite: with the `audit` feature compiled
//! in, every way the stack drives the machine — raw acquisitions, the
//! three session protocols, the full quick study — must come back with
//! zero violations. A violation here is a simulator bug by definition:
//! either a machine invariant broke, or the probe stream disagreed with
//! the simulator's own ground-truth counters.
//!
//! The whole file is gated: `cargo test --features audit` runs it,
//! a plain `cargo test` compiles it to nothing.
#![cfg(feature = "audit")]

use fx8_study::core::api::RunHooks;
use fx8_study::core::experiment::{
    run_random_session, run_transition_session, run_triggered_session, SessionConfig,
};
use fx8_study::core::study::{Study, StudyConfig};
use fx8_study::monitor::{DasConfig, DasMonitor, EventCounts, Trigger};
use fx8_study::sim::audit::MAX_RECORDED_VIOLATIONS;
use fx8_study::sim::{Cluster, MachineConfig};
use fx8_study::workload::{kernels, WorkloadMix};
use proptest::prelude::*;

fn render(report: &fx8_study::sim::audit::AuditReport) -> String {
    report
        .violations
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join("; ")
}

/// The PR's acceptance criterion: the quick study completes with zero
/// violations across all three session types.
#[test]
fn audited_quick_study_is_clean() {
    let cfg = StudyConfig::quick();
    // The fast-forward knob stays *on*: audit builds disable skipping
    // internally, so the auditor checks the same per-cycle trajectory the
    // skipping build claims to reproduce.
    assert!(cfg.machine.fast_forward, "audit runs with the knob enabled");
    let (study, _) = Study::run(cfg, None, &RunHooks::default()).expect("uncancellable");
    let report = study.audit_report();
    assert!(report.checked_cycles > 0, "auditor saw every stepped cycle");
    assert!(report.is_clean(), "{}", report.render());
    // Every session contributed a report: 3 random + 2 triggered + 2
    // transition in the quick configuration.
    assert_eq!(report.sessions.len(), 3 + 2 + 2);
    for s in &study.random_sessions {
        assert!(s.audit.checked_cycles > 0, "per-session auditing ran");
    }
}

/// Each session runner, driven alone on a concurrent mix, audits clean
/// and actually checked cycles.
#[test]
fn session_runners_report_clean_audits() {
    let mut cfg = SessionConfig::paper(11);
    cfg.hours = 0.12;
    cfg.warmup_cycles = 1024;
    cfg.mix = WorkloadMix::all_concurrent();
    cfg.validate().expect("test config is legal");

    let (r, _) = run_random_session(&cfg, 0);
    assert!(r.audit.checked_cycles > 0);
    assert!(r.audit.is_clean(), "random: {}", render(&r.audit));

    let (caps, cluster) = run_triggered_session(&cfg, 0, 2);
    let audit = cluster.audit_report();
    assert!(!caps.is_empty(), "concurrent mix must trigger");
    assert!(audit.is_clean(), "triggered: {}", render(&audit));

    let (caps, cluster) = run_transition_session(&cfg, 0, 2);
    let audit = cluster.audit_report();
    assert!(!caps.is_empty(), "loops must drain");
    assert!(audit.is_clean(), "transition: {}", render(&audit));
}

/// Violations are recorded with their context, capped per session, and
/// counted past the cap rather than silently dropped.
#[test]
fn violations_are_recorded_and_capped() {
    let mut c = Cluster::new(MachineConfig::fx8(), 1);
    for i in 0..(MAX_RECORDED_VIOLATIONS + 36) {
        c.audit_note_violation("test", format!("invariant {i}"), "broken".to_string());
    }
    let report = c.audit_report();
    assert!(!report.is_clean());
    assert_eq!(report.violations.len(), MAX_RECORDED_VIOLATIONS);
    assert_eq!(report.dropped_violations, 36);
    assert_eq!(
        report.total_violations(),
        (MAX_RECORDED_VIOLATIONS + 36) as u64
    );
    let first = &report.violations[0];
    assert_eq!(first.component, "test");
    assert!(first.to_string().contains("invariant 0"));
}

proptest! {
    // Each case simulates up to ~100k cycles; two dozen cases keep the
    // suite under control while sweeping kernel × seed × depth × trigger.
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Across kernels, seeds, buffer depths and all three trigger types,
    /// a mounted-loop acquisition audits clean (timeouts included: the
    /// auditor checks every stepped cycle whether or not the trigger
    /// fires).
    #[test]
    fn loop_acquisitions_audit_clean(
        kernel_idx in 0usize..6,
        seed in 0u64..1_000,
        depth_idx in 0usize..3,
        trig_idx in 0usize..3,
    ) {
        let depth = [32usize, 128, 512][depth_idx];
        let kernel = match kernel_idx {
            0 => kernels::sor_sweep(258),
            1 => kernels::matmul(24),
            2 => kernels::vector_triad(64),
            3 => kernels::recurrence(512),
            4 => kernels::reduction(64),
            _ => kernels::fine_grain_loop(512),
        };
        let trigger = [
            Trigger::Immediate,
            Trigger::AllCesActive,
            Trigger::TransitionFromFull,
        ][trig_idx];
        let mut c = Cluster::new(MachineConfig::fx8(), seed);
        c.set_ip_intensity(0.1);
        c.mount_loop(
            kernel.instantiate(1),
            0,
            5_000,
            kernels::glue_serial().instantiate(1),
            1,
        );
        let das = DasMonitor::new(DasConfig {
            buffer_depth: depth,
            trigger,
            timeout_cycles: 100_000,
        });
        // Both public paths, back to back: each runs the monitor's
        // cross-check against ground truth.
        let _ = das.acquire(&mut c);
        let _ = das.acquire_reduced_into(&mut c, &mut EventCounts::empty(8));
        let report = c.audit_report();
        prop_assert!(report.checked_cycles > 0);
        prop_assert!(report.is_clean(), "{}", render(&report));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Short random-sampling sessions across workload mixes audit clean —
    /// this path exercises macro/micro clock hand-offs (advance_to between
    /// captures), which the auditor must tolerate via its external-change
    /// notifications without false positives.
    #[test]
    fn short_sessions_audit_clean(seed in 0u64..100, mix_idx in 0usize..3) {
        let mut cfg = SessionConfig::paper(seed);
        cfg.hours = 0.05;
        cfg.warmup_cycles = 2_048;
        cfg.mix = match mix_idx {
            0 => WorkloadMix::csrd_production(),
            1 => WorkloadMix::all_concurrent(),
            _ => WorkloadMix::all_serial(),
        };
        let (r, _) = run_random_session(&cfg, 0);
        prop_assert!(r.audit.checked_cycles > 0);
        prop_assert!(r.audit.is_clean(), "{}", render(&r.audit));
    }
}
