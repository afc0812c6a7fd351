//! Differential tests for the dense SoA batch stepper.
//!
//! The `dense_stepping` knob must be a pure performance switch: with it on
//! the simulator takes the lane-packed fast path through fully-concurrent
//! loop windows, with it off every cycle goes through the scalar stepper —
//! and the two trajectories must be **bit-identical**: same machine-state
//! digest, same probe-word stream, same RNG draw order, and therefore the
//! same study results across all three measurement protocols of § 3.5.

use fx8_core::experiment::{
    run_random_session, run_transition_session, run_triggered_session, SessionConfig,
};
use fx8_sim::addr::VAddr;
use fx8_sim::stream::{CodeRegion, LoopBody, SerialCode, StridedLoop, StridedSerial};
use fx8_sim::{Cluster, MachineConfig};

fn serial_code(asid: fx8_sim::Asid) -> Box<dyn SerialCode> {
    Box::new(StridedSerial::new(
        CodeRegion {
            base: VAddr::new(asid, 0),
            footprint_bytes: 512,
            bytes_per_instr: 4,
        },
        VAddr::new(asid, 0x10_0000),
        8,
        4096,
        3,
    ))
}

fn loop_body(asid: fx8_sim::Asid) -> Box<dyn LoopBody> {
    Box::new(StridedLoop {
        region: CodeRegion {
            base: VAddr::new(asid, 0x1000),
            footprint_bytes: 256,
            bytes_per_instr: 4,
        },
        src: VAddr::new(asid, 0x20_0000),
        dst: VAddr::new(asid, 0x30_0000),
        elem: 8,
        compute: 120,
    })
}

fn machine(dense: bool) -> MachineConfig {
    let mut cfg = MachineConfig::fx8();
    cfg.dense_stepping = dense;
    cfg
}

/// Drive a loop workload with dense stepping on and off through an
/// interleaved run/capture schedule and assert the trajectories are
/// bit-identical. Returns the dense-stepped cycle count of the on-run.
fn assert_dense_identical(run_cycles: u64) -> u64 {
    let drive = |cfg: MachineConfig| {
        let mut c = Cluster::new(cfg, 42);
        c.set_ip_intensity(0.12);
        c.mount_loop(loop_body(1), 0, 50_000, serial_code(1), 1);
        let mut words = Vec::new();
        // Interleave quiet runs with captures so dense windows both open
        // (run) and get cut short by probe deadlines (capture).
        for _ in 0..4 {
            c.run(run_cycles / 4);
            words.extend(c.capture(100));
        }
        let dense = c.engine_cycles().dense;
        (c.state_digest(), words, dense)
    };
    let (d_on, w_on, dense_on) = drive(machine(true));
    let (d_off, w_off, dense_off) = drive(machine(false));
    assert_eq!(dense_off, 0, "knob off must never dense-step");
    assert_eq!(d_on, d_off, "dense stepping diverged the machine state");
    assert_eq!(w_on, w_off, "dense stepping diverged the probe stream");
    dense_on
}

#[test]
fn cluster_trajectory_bit_identical_with_dense_stepping() {
    let dense = assert_dense_identical(40_000);
    if cfg!(feature = "audit") {
        assert_eq!(dense, 0, "audit builds never dense-step");
    } else {
        assert!(dense > 20_000, "loop barely dense-stepped: {dense}");
    }
}

/// Same differential under bank contention: a slow cache service time
/// makes denied CEs spin in retry windows the dense kernel must hand back
/// to the fast-forward engine without consuming them.
#[test]
fn cluster_trajectory_bit_identical_under_contention() {
    let drive = |dense: bool| {
        let mut cfg = machine(dense);
        cfg.cache_hit_cycles = 9;
        let mut c = Cluster::new(cfg, 7);
        c.set_ip_intensity(0.12);
        c.mount_loop(loop_body(1), 0, 5_000, serial_code(1), 1);
        c.run(60_000);
        (c.state_digest(), c.capture(200))
    };
    assert_eq!(drive(true), drive(false));
}

/// Sweep every crossbar arbitration discipline under bank contention.
/// The SWAR arbiter resolves winners through the same policy scan but
/// defers denial accounting to a window-exit flush, so each discipline's
/// rotor movement and counter totals must match the scalar per-cycle path
/// exactly — and the denial path must actually fire, or the flush is
/// untested.
#[test]
fn dense_stepping_identical_across_arbitration_disciplines() {
    use fx8_sim::config::Arbitration;
    for arb in [
        Arbitration::FixedLowFirst,
        Arbitration::EndsFirst,
        Arbitration::CenterFirst,
        Arbitration::RoundRobin,
    ] {
        let drive = |dense: bool| {
            let mut cfg = machine(dense);
            cfg.crossbar_arbitration = arb;
            // Slow banks + a tight loop body: many lanes collide on the
            // same bank, so the deferred-denial flush carries real weight.
            cfg.cache_hit_cycles = 6;
            let mut c = Cluster::new(cfg, 21);
            c.set_ip_intensity(0.12);
            let body = Box::new(StridedLoop {
                region: CodeRegion {
                    base: VAddr::new(1, 0x1000),
                    footprint_bytes: 256,
                    bytes_per_instr: 4,
                },
                src: VAddr::new(1, 0x20_0000),
                dst: VAddr::new(1, 0x30_0000),
                elem: 8,
                compute: 6,
            });
            c.mount_loop(body, 0, 20_000, serial_code(1), 1);
            c.run(50_000);
            (c.state_digest(), c.crossbar_stats().clone())
        };
        let (d_on, x_on) = drive(true);
        let (d_off, x_off) = drive(false);
        assert_eq!(d_on, d_off, "{arb:?}: dense stepping diverged the state");
        assert_eq!(x_on, x_off, "{arb:?}: crossbar counters diverged");
        assert!(
            x_on.denials > 0,
            "{arb:?}: contention run recorded no denials — flush untested"
        );
    }
}

/// The width-generic tentpole: the dense SoA, fast-forward, and scalar
/// engines must stay bit-identical at every scaling-study width, not just
/// on the measured 8-CE machine. Each width runs the scaled preset with a
/// little bank contention so the packed-counter group chunking (one SWAR
/// word per 8 lanes) carries real weight above width 8.
#[test]
fn cluster_trajectory_bit_identical_at_sampled_widths() {
    for width in [2usize, 8, 16, 32, 64] {
        let drive = |dense: bool, ff: bool| {
            let mut cfg = MachineConfig::scaled(width);
            cfg.dense_stepping = dense;
            cfg.fast_forward = ff;
            cfg.cache_hit_cycles = 3;
            let mut c = Cluster::new(cfg, 42 + width as u64);
            c.set_ip_intensity(0.12);
            c.mount_loop(loop_body(1), 0, 20_000, serial_code(1), 1);
            let mut words = Vec::new();
            for _ in 0..3 {
                c.run(12_000);
                words.extend(c.capture(100));
            }
            (c.state_digest(), words)
        };
        let all_on = drive(true, true);
        let scalar = drive(false, false);
        assert_eq!(
            all_on, scalar,
            "width {width}: dense+fast-forward diverged from scalar"
        );
        let ff_only = drive(false, true);
        assert_eq!(ff_only, scalar, "width {width}: fast-forward diverged");
        let dense_only = drive(true, false);
        assert_eq!(dense_only, scalar, "width {width}: dense diverged");
    }
}

fn quick_cfg(seed: u64, dense: bool) -> SessionConfig {
    SessionConfig {
        machine: machine(dense),
        ..SessionConfig::quick(seed)
    }
}

#[test]
fn random_sessions_bit_identical_with_dense_stepping() {
    let (on, _) = run_random_session(&quick_cfg(11, true), 0);
    let (off, _) = run_random_session(&quick_cfg(11, false), 0);
    assert_eq!(on, off, "random-sampling protocol diverged");
}

#[test]
fn triggered_sessions_bit_identical_with_dense_stepping() {
    let (on, _, _) = run_triggered_session(&quick_cfg(12, true), 0, 3);
    let (off, _, _) = run_triggered_session(&quick_cfg(12, false), 0, 3);
    assert!(!on.is_empty(), "triggered session captured nothing");
    assert_eq!(on, off, "all-active-triggered protocol diverged");
}

#[test]
fn transition_sessions_bit_identical_with_dense_stepping() {
    let (on, _, _) = run_transition_session(&quick_cfg(13, true), 0, 3);
    let (off, _, _) = run_transition_session(&quick_cfg(13, false), 0, 3);
    assert!(!on.is_empty(), "transition session captured nothing");
    assert_eq!(on, off, "transition-triggered protocol diverged");
}

/// Audit builds force the scalar stepper regardless of the knob; a session
/// run with `dense_stepping` left on must still audit clean, proving the
/// knob cannot smuggle the fast path past the invariant checks.
#[cfg(feature = "audit")]
#[test]
fn audited_session_with_dense_stepping_on_is_clean() {
    let (r, _) = run_random_session(&quick_cfg(14, true), 0);
    assert!(
        r.audit.is_clean(),
        "audited session reported violations: {:?}",
        r.audit
    );
}

/// The invariant auditor at a width the real machine never had: a full
/// quick session on a scaled 32-CE cluster must audit clean, so the
/// width-generic model satisfies the same probe/CCB/crossbar invariants
/// the 8-CE machine does.
#[cfg(feature = "audit")]
#[test]
fn audited_session_at_width_32_is_clean() {
    let cfg = SessionConfig {
        machine: MachineConfig::scaled(32),
        ..SessionConfig::quick(15)
    };
    let (r, _) = run_random_session(&cfg, 0);
    assert!(
        r.audit.is_clean(),
        "audited 32-CE session reported violations: {:?}",
        r.audit
    );
}
