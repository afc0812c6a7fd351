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

/// Drive the load `mount` places with dense stepping on and off through
/// an interleaved run/capture schedule and assert the trajectories are
/// bit-identical. Returns the on-run's cluster for the caller's
/// non-vacuity checks.
fn assert_dense_identical(mount: impl Fn(&mut Cluster), run_cycles: u64) -> Cluster {
    assert_dense_identical_on(MachineConfig::fx8(), mount, run_cycles)
}

/// [`assert_dense_identical`] on the machine `base` describes.
fn assert_dense_identical_on(
    base: MachineConfig,
    mount: impl Fn(&mut Cluster),
    run_cycles: u64,
) -> Cluster {
    let drive = |dense: bool| {
        let cfg = MachineConfig {
            dense_stepping: dense,
            ..base.clone()
        };
        let mut c = Cluster::new(cfg, 42);
        c.set_ip_intensity(0.12);
        mount(&mut c);
        let mut words = Vec::new();
        // Interleave quiet runs with captures so dense windows both open
        // (run) and get cut short by probe deadlines (capture).
        for _ in 0..4 {
            c.run(run_cycles / 4);
            words.extend(c.capture(100));
        }
        (c.state_digest(), words, c)
    };
    let (d_on, w_on, on) = drive(true);
    let (d_off, w_off, off) = drive(false);
    assert_eq!(
        off.engine_cycles().dense,
        0,
        "knob off must never dense-step"
    );
    assert_eq!(d_on, d_off, "dense stepping diverged the machine state");
    assert_eq!(w_on, w_off, "dense stepping diverged the probe stream");
    on
}

#[test]
fn cluster_trajectory_bit_identical_with_dense_stepping() {
    let on = assert_dense_identical(
        |c| c.mount_loop(loop_body(1), 0, 50_000, serial_code(1), 1),
        40_000,
    );
    let dense = on.engine_cycles().dense;
    if cfg!(feature = "audit") {
        assert_eq!(dense, 0, "audit builds never dense-step");
    } else {
        assert!(dense > 20_000, "loop barely dense-stepped: {dense}");
    }
}

/// A busy independent loop that touches a cold page every iteration, on
/// a machine whose page faults stall for two cycles: lanes fault and wake
/// again inside one dense window, so the dense kernel's own fault-wake
/// path carries the trajectory.
#[test]
fn fault_stalls_expiring_inside_dense_windows_are_bit_identical() {
    let base = MachineConfig {
        fault_stall_cycles: 2,
        ..MachineConfig::fx8()
    };
    let mount = |c: &mut Cluster| {
        let body = Box::new(StridedLoop {
            region: CodeRegion {
                base: VAddr::new(1, 0x1000),
                footprint_bytes: 256,
                bytes_per_instr: 4,
            },
            src: VAddr::new(1, 0x20_0000),
            dst: VAddr::new(1, 0x30_0000),
            elem: 4096,
            compute: 8,
        });
        c.mount_loop(body, 0, 50_000, serial_code(1), 1);
    };
    let on = assert_dense_identical_on(base, mount, 40_000);
    let faults = on.vm().total_faults().total();
    assert!(faults > 1000, "the loop faulted only {faults} times");
    let dense = on.engine_cycles().dense;
    if cfg!(feature = "audit") {
        assert_eq!(dense, 0, "audit builds never dense-step");
    } else {
        assert!(dense > 0, "the loop never dense-stepped");
    }
}

/// Mount a dependent loop: each iteration parks on the CCB sync register
/// (`AwaitSync`) and ends by posting to it (`PostSync`), and its streams
/// touch cold pages.
fn mount_dependent_loop(c: &mut Cluster) {
    use fx8_workload::kernels::{glue_serial, LoopKernel};
    let kernel = LoopKernel {
        name: "dependent".into(),
        iters: 1_000_000,
        panel_lines: 64,
        panel_refs: 12,
        stream_lines: 4,
        store_lines: 2,
        // Fewer compute instructions than panel references: the body
        // ends on its stores, so the post follows a grant or a miss
        // wake inside a running window.
        compute: 8,
        code_bytes: 512,
        dependence: Some(0.5),
        variance: 0.0,
    };
    let (body, after) = (kernel.instantiate(1), glue_serial().instantiate(1));
    c.mount_loop(body, 0, 1_000_000, after, 1);
}

/// A dependent loop on a cold machine: lanes park on the sync register,
/// post to it while higher lanes wait in the same window (seen the same
/// cycle) and take page faults (with their kernel charge), all on
/// stretches the dense kernel steps or jumps.
#[test]
fn dependent_loop_bit_identical_with_dense_stepping() {
    let on = assert_dense_identical(mount_dependent_loop, 40_000);
    let sync_waits = on.ccb_stats().sync_wait_cycles;
    let faults = on.vm().total_faults().total();
    assert!(sync_waits > 0, "the loop never waited on the sync register");
    assert!(faults > 0, "the loop never faulted");
    let dense = on.engine_cycles().dense;
    if cfg!(feature = "audit") {
        assert_eq!(dense, 0, "audit builds never dense-step");
    } else {
        assert!(dense > 0, "the dependent loop never dense-stepped");
    }
}

/// Same differential under bank contention: a slow cache service time
/// makes denied CEs spin in retry windows the dense kernel must carry as
/// request segments or jump as quiet stretches.
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
/// The dense kernel's arbiter resolves winners through the same policy
/// scan but accrues denials as request segments flushed at window exit, so
/// each discipline's rotor movement and counter totals must match the
/// scalar per-cycle path exactly — and the denial path must actually fire,
/// or the flush is untested.
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

/// The width-generic tentpole: the dense kernel, with and without its
/// jumps, must stay bit-identical to the scalar stepper at every
/// scaling-study width, not just on the measured 8-CE machine. Each width
/// runs the scaled preset with a little bank contention so request
/// segments on lanes above 8 carry real weight, under both an independent
/// and a dependent loop (at width 64 the top lane's post builds its mask
/// of higher lanes at the edge of the lane word).
#[test]
fn cluster_trajectory_bit_identical_at_sampled_widths() {
    let strided: fn(&mut Cluster) = |c| c.mount_loop(loop_body(1), 0, 20_000, serial_code(1), 1);
    for (load, mount) in [("strided", strided), ("dependent", mount_dependent_loop)] {
        for width in [2usize, 8, 16, 32, 64] {
            let drive = |dense: bool, ff: bool| {
                let mut cfg = MachineConfig::scaled(width);
                cfg.dense_stepping = dense;
                cfg.fast_forward = ff;
                cfg.cache_hit_cycles = 3;
                let mut c = Cluster::new(cfg, 42 + width as u64);
                c.set_ip_intensity(0.12);
                mount(&mut c);
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
                "{load} width {width}: dense with jumps diverged from scalar"
            );
            let dense_only = drive(true, false);
            assert_eq!(dense_only, scalar, "{load} width {width}: dense diverged");
        }
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
    let (on, _) = run_triggered_session(&quick_cfg(12, true), 0, 3);
    let (off, _) = run_triggered_session(&quick_cfg(12, false), 0, 3);
    assert!(!on.is_empty(), "triggered session captured nothing");
    assert_eq!(on, off, "all-active-triggered protocol diverged");
}

#[test]
fn transition_sessions_bit_identical_with_dense_stepping() {
    let (on, _) = run_transition_session(&quick_cfg(13, true), 0, 3);
    let (off, _) = run_transition_session(&quick_cfg(13, false), 0, 3);
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

/// The engine split of `c` must show dense stepping, except in audit
/// builds, which never dense-step.
fn assert_dense_stepped(c: &Cluster, what: &str) {
    let dense = c.engine_cycles().dense;
    if cfg!(feature = "audit") {
        assert_eq!(dense, 0, "audit builds never dense-step");
    } else {
        assert!(dense > 0, "{what} never dense-stepped");
    }
}

/// A serial section marching a page per load over a 4 MB footprint, on a
/// machine whose page faults stall for three cycles: the dense kernel
/// carries the one serial lane through its faults, misses and bursts.
#[test]
fn serial_load_with_page_faults_is_bit_identical() {
    let base = MachineConfig {
        fault_stall_cycles: 3,
        ..MachineConfig::fx8()
    };
    let mount = |c: &mut Cluster| {
        let code = StridedSerial::new(
            CodeRegion {
                base: VAddr::new(1, 0),
                footprint_bytes: 1024,
                bytes_per_instr: 4,
            },
            VAddr::new(1, 0x100_0000),
            4096,
            4 << 20,
            5,
        );
        c.mount_serial(Box::new(code), 1, Some(3));
    };
    let on = assert_dense_identical_on(base, mount, 40_000);
    let faults = on.vm().total_faults().total();
    assert!(faults > 500, "the serial march faulted only {faults} times");
    assert_dense_stepped(&on, "the serial section");
}

/// A short loop drains early in the run and its serial continuation runs
/// on the last-iteration CE for the rest of it, next to the unmounted
/// lanes the drain left behind.
#[test]
fn serial_continuation_after_a_loop_drain_is_bit_identical() {
    let on = assert_dense_identical(
        |c| c.mount_loop(loop_body(1), 0, 300, serial_code(1), 1),
        40_000,
    );
    assert_eq!(
        on.load_kind(),
        fx8_sim::cluster::LoadKind::Drained,
        "the loop must drain inside the run"
    );
    assert_eq!(on.active_count(), 1, "only the serial continuation runs");
    assert_dense_stepped(&on, "the serial continuation");
}

/// With `fast_forward` off the dense kernel never jumps a quiet stretch;
/// it steps it. Both must land on the same machine, for a serial section
/// and for a loop that drains into its continuation.
#[test]
fn dense_kernel_jumps_are_bit_identical_to_stepping_the_stretch() {
    let serial: fn(&mut Cluster) = |c| c.mount_serial(serial_code(1), 1, None);
    let draining: fn(&mut Cluster) = |c| c.mount_loop(loop_body(1), 0, 2_000, serial_code(1), 1);
    for (name, mount) in [("serial", serial), ("draining loop", draining)] {
        let drive = |ff: bool| {
            let cfg = MachineConfig {
                fast_forward: ff,
                ..MachineConfig::fx8()
            };
            let mut c = Cluster::new(cfg, 42);
            c.set_ip_intensity(0.12);
            mount(&mut c);
            let mut words = Vec::new();
            for _ in 0..4 {
                c.run(15_000);
                words.extend(c.capture(100));
            }
            (c.state_digest(), words, c.engine_cycles())
        };
        let (d_on, w_on, e_on) = drive(true);
        let (d_off, w_off, e_off) = drive(false);
        assert_eq!(e_off.skipped, 0, "{name}: fast_forward off never skips");
        assert_eq!(d_on, d_off, "{name}: jumps diverged the machine state");
        assert_eq!(w_on, w_off, "{name}: jumps diverged the probe stream");
        if !cfg!(feature = "audit") {
            assert!(e_on.skipped > 0, "{name}: nothing was jumped");
            assert!(
                e_off.dense > e_on.dense,
                "{name}: the jumps took no dense cycles"
            );
        }
    }
}

/// Serial code that misses on every load: a line-strided march over 1 MB.
fn missing_code(asid: fx8_sim::Asid) -> Box<dyn SerialCode> {
    Box::new(StridedSerial::new(
        CodeRegion {
            base: VAddr::new(asid, 0),
            footprint_bytes: 512,
            bytes_per_instr: 4,
        },
        VAddr::new(asid, 0x10_0000),
        32,
        1 << 20,
        3,
    ))
}

/// In the dense kernel, an idle machine under an armed probe deadline,
/// detached lanes beside a loop and beside a serial section, and a
/// remount while a detached lane is stalled on a miss land where the
/// scalar stepper does, with both knobs off as the oracle, at widths 2, 8
/// and 64.
#[test]
fn idle_and_detached_machines_are_bit_identical_at_widths_2_8_64() {
    let idle: fn(&mut Cluster, &mut Vec<fx8_sim::ProbeWord>) = |c, words| {
        for _ in 0..4 {
            c.set_next_probe_at(Some(c.now() + 3_001));
            c.run(4_000);
            c.set_next_probe_at(None);
            c.run(2_000);
            words.extend(c.capture(50));
        }
    };
    let beside_loop: fn(&mut Cluster, &mut Vec<fx8_sim::ProbeWord>) = |c, words| {
        c.mount_detached(1, serial_code(9), 9);
        c.mount_loop(loop_body(1), 0, 3_000, serial_code(1), 1);
        for _ in 0..4 {
            c.run(8_000);
            words.extend(c.capture(50));
        }
    };
    let beside_serial: fn(&mut Cluster, &mut Vec<fx8_sim::ProbeWord>) = |c, words| {
        c.mount_detached(1, missing_code(9), 9);
        c.mount_serial(serial_code(1), 1, None);
        c.run(5_000);
        words.extend(c.capture(50));
        // A miss charges its whole stall on the cycle it is taken; the
        // lane stays stalled through the next cycle at least.
        let missed = c.ce_stats(1).miss_stall_cycles;
        while c.ce_stats(1).miss_stall_cycles == missed {
            assert!(c.now() < 50_000, "the detached lane never missed");
            c.step();
        }
        c.mount_loop(loop_body(1), 0, 2_000, serial_code(1), 1);
        for _ in 0..3 {
            c.run(8_000);
            words.extend(c.capture(50));
        }
    };
    for (name, drive_load) in [
        ("idle", idle),
        ("detached beside a loop", beside_loop),
        ("detached beside a serial section", beside_serial),
    ] {
        for width in [2usize, 8, 64] {
            let drive = |engines: bool| {
                let cfg = MachineConfig {
                    dense_stepping: engines,
                    fast_forward: engines,
                    ..MachineConfig::scaled(width)
                };
                let mut c = Cluster::new(cfg, 42 + width as u64);
                c.set_ip_intensity(0.12);
                let mut words = Vec::new();
                drive_load(&mut c, &mut words);
                (c.state_digest(), words, c.engine_cycles())
            };
            let (d_on, w_on, e_on) = drive(true);
            let (d_off, w_off, _) = drive(false);
            assert_eq!(d_on, d_off, "{name} width {width}: machine state diverged");
            assert_eq!(w_on, w_off, "{name} width {width}: probe stream diverged");
            if !cfg!(feature = "audit") {
                assert!(
                    e_on.dense + e_on.skipped > e_on.scalar,
                    "{name} width {width}: the kernel did not take it: {e_on:?}"
                );
            }
        }
    }
}

/// With `dense_stepping` off every cycle is scalar: `fast_forward` is the
/// kernel's jump switch and jumps nothing on its own.
#[test]
fn dense_stepping_off_skips_nothing_even_with_fast_forward_on() {
    let idle: fn(&mut Cluster) = |_| {};
    let serial: fn(&mut Cluster) = |c| c.mount_serial(serial_code(1), 1, None);
    let looping: fn(&mut Cluster) = |c| c.mount_loop(loop_body(1), 0, 2_000, serial_code(1), 1);
    for mount in [idle, serial, looping] {
        let cfg = MachineConfig {
            fast_forward: true,
            ..machine(false)
        };
        let mut c = Cluster::new(cfg, 42);
        mount(&mut c);
        c.run(20_000);
        let e = c.engine_cycles();
        assert_eq!((e.scalar, e.total), (20_000, 20_000), "{e:?}");
    }
}
