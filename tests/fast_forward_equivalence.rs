//! Differential proof that the `fast_forward` knob is invisible. The knob
//! switches the dense kernel's jumps over quiet stretches; every protocol
//! in the stack — raw cluster runs over arbitrary kernels, and all three
//! of the study's session types — must produce bit-identical results with
//! the jumps on (the default) and off.
//!
//! Compiled away under `--features audit`: audit builds disable skipping
//! internally so the per-cycle auditor stays an independent oracle, which
//! would make the on/off comparison here trivially equal.
#![cfg(not(feature = "audit"))]

use fx8_study::core::experiment::{
    run_random_session, run_transition_session, run_triggered_session, Capture, SessionConfig,
};
use fx8_study::sim::audit::AuditReport;
use fx8_study::sim::{Cluster, MachineConfig};
use fx8_study::workload::kernels::{self, LoopKernel};
use fx8_study::workload::WorkloadMix;
use proptest::prelude::*;

fn with_ff(mut cfg: SessionConfig, on: bool) -> SessionConfig {
    cfg.machine.fast_forward = on;
    cfg
}

/// A capture session's deterministic output: its captures and audit.
fn captured((captures, cluster): (Vec<Capture>, Cluster)) -> (Vec<Capture>, AuditReport) {
    (captures, cluster.audit_report())
}

fn small_cfg(seed: u64) -> SessionConfig {
    SessionConfig {
        hours: 0.05,
        warmup_cycles: 1024,
        ..SessionConfig::paper(seed)
    }
}

/// All three session protocols on fixed seeds: sample counts, event
/// counts, kernel counters, captures and trigger cycles must all agree.
#[test]
fn session_protocols_are_ff_invariant() {
    let cfg = small_cfg(7);
    assert_eq!(
        run_random_session(&with_ff(cfg.clone(), true), 0).0,
        run_random_session(&with_ff(cfg, false), 0).0,
        "random session diverged"
    );
    let cfg = SessionConfig {
        mix: WorkloadMix::all_concurrent(),
        ..small_cfg(8)
    };
    assert_eq!(
        captured(run_triggered_session(&with_ff(cfg.clone(), true), 1, 2)),
        captured(run_triggered_session(&with_ff(cfg.clone(), false), 1, 2)),
        "triggered session diverged"
    );
    assert_eq!(
        captured(run_transition_session(&with_ff(cfg.clone(), true), 2, 2)),
        captured(run_transition_session(&with_ff(cfg, false), 2, 2)),
        "transition session diverged"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random-sampling sessions across seeds and sampling cadences. The
    /// three regimes cover the study's five-minute cadence, a short
    /// interval yielding several samples, and the degenerate interval of a
    /// handful of cycles where the snapshot spacing floors to zero and the
    /// snapshots run back-to-back.
    #[test]
    fn random_sessions_are_ff_invariant(seed in 0u64..10_000, regime in 0usize..3) {
        let (interval_s, hours) = match regime {
            0 => (300.0, 0.06),
            1 => (2.0, 0.002),
            _ => (8.5e-7, 1e-8), // ~5 cycles: snapshot spacing floors to 0
        };
        let cfg = SessionConfig {
            sample_interval_s: interval_s,
            hours,
            warmup_cycles: 256,
            buffer_depth: 96,
            ..SessionConfig::paper(seed)
        };
        let on = run_random_session(&with_ff(cfg.clone(), true), 0).0;
        let off = run_random_session(&with_ff(cfg, false), 0).0;
        prop_assert_eq!(on, off);
    }

    /// Triggered and transition sessions across seeds, including the
    /// degenerate horizon where the capture spacing floors to one cycle
    /// and the session gives up without a single armed acquisition.
    #[test]
    fn triggered_sessions_are_ff_invariant(seed in 0u64..10_000, degenerate in any::<bool>()) {
        let cfg = SessionConfig {
            mix: WorkloadMix::all_concurrent(),
            hours: if degenerate { 1e-10 } else { 0.02 },
            warmup_cycles: 1024,
            ..SessionConfig::paper(seed)
        };
        prop_assert_eq!(
            captured(run_triggered_session(&with_ff(cfg.clone(), true), 0, 2)),
            captured(run_triggered_session(&with_ff(cfg.clone(), false), 0, 2))
        );
        prop_assert_eq!(
            captured(run_transition_session(&with_ff(cfg.clone(), true), 0, 1)),
            captured(run_transition_session(&with_ff(cfg, false), 0, 1))
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Arbitrary loop kernels driven straight on the cluster: after a
    /// quiet run and a probed capture, the full observable state digest,
    /// the captured words, and the clock must match per-cycle stepping.
    #[test]
    fn random_loop_kernels_are_ff_invariant(
        iters in 1u64..96,
        panel_lines in 1u64..256,
        panel_refs in 1u32..48,
        compute in 1u32..256,
        dependence in prop::option::of(0.2f64..0.8),
        seed in 0u64..1_000,
        ip_on in any::<bool>(),
    ) {
        let kernel = LoopKernel {
            name: "prop".into(),
            iters,
            panel_lines,
            panel_refs,
            stream_lines: 2,
            store_lines: 1,
            compute,
            code_bytes: 512,
            dependence,
            variance: 0.1,
        };
        let drive = |ff: bool| {
            let mut cfg = MachineConfig::fx8();
            cfg.fast_forward = ff;
            let mut c = Cluster::new(cfg, seed);
            c.set_ip_intensity(if ip_on { 0.1 } else { 0.0 });
            c.mount_loop(
                kernel.instantiate(1),
                0,
                kernel.iters,
                kernels::glue_serial().instantiate(1),
                1,
            );
            c.run(40_000);
            let words = c.capture(128);
            (c.state_digest(), words, c.now(), c.engine_cycles().skipped)
        };
        let (d_on, w_on, n_on, _) = drive(true);
        let (d_off, w_off, n_off, sk_off) = drive(false);
        prop_assert_eq!(sk_off, 0, "knob off must never skip");
        prop_assert_eq!(n_on, n_off);
        prop_assert_eq!(d_on, d_off);
        prop_assert_eq!(w_on, w_off);
    }
}
