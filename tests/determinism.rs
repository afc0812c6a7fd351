//! Golden-sequence determinism tests.
//!
//! The cycle stepper is the repository's hot loop and gets optimized
//! (scratch-buffer reuse, allocation-free arbitration, a quiet fast path
//! when no analyzer is armed). These tests pin an FNV-1a hash of the
//! complete probe-word sequence for 100k+ cycles of each machine state,
//! so any behavioral drift in a perf refactor — including divergence
//! between `Cluster::run` (quiet) and `Cluster::capture` (probed) — is
//! caught bit-for-bit.

use fx8_sim::{Cluster, MachineConfig, ProbeWord};
use fx8_workload::{kernels, WorkloadMix};

const CYCLES: usize = 100_000;

/// FNV-1a over the packed probe words, framed at the measured machine's
/// 8 lanes. The probe word physically carries a lane per `LaneWord` bit,
/// but these golden machines are all 8-CE FX/8s: hashing only the lanes
/// the machine has keeps the pinned constants stable across probe-word
/// capacity changes while still covering every signal these sequences can
/// produce.
fn fnv1a(words: &[ProbeWord]) -> u64 {
    const N_CES: usize = 8;
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    };
    for w in words {
        for b in w.cycle.to_le_bytes() {
            eat(b);
        }
        for op in &w.ce_ops[..N_CES] {
            eat(*op as u8);
        }
        eat(w.mem_op as u8);
        eat(w.active_mask as u8);
        debug_assert!(w.check_wellformed(N_CES).is_ok(), "lanes beyond the hash");
    }
    h
}

fn idle_cluster(seed: u64) -> Cluster {
    let mut c = Cluster::new(MachineConfig::fx8(), seed);
    c.set_ip_intensity(WorkloadMix::csrd_production().ip_intensity);
    c
}

fn serial_cluster(seed: u64) -> Cluster {
    let mut c = idle_cluster(seed);
    c.mount_serial(kernels::scalar_serial().instantiate(1), 1, None);
    c.run(5_000);
    c
}

fn loop_cluster(seed: u64) -> Cluster {
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

/// A fully dependent loop: most CEs park on the CCB sync register while
/// one runs the critical section and posts to it.
fn recurrence_cluster(seed: u64) -> Cluster {
    let mut c = idle_cluster(seed);
    c.mount_loop(
        kernels::recurrence(1_000_000_000).instantiate(1),
        0,
        1_000_000_000,
        kernels::glue_serial().instantiate(1),
        1,
    );
    c
}

/// FNV-1a over the counters no probe word carries: every CE's `CeStats`,
/// the CCB's sync and grant waits, crossbar grants and denials, and the
/// user and system page faults.
fn counters_hash(c: &Cluster) -> u64 {
    let mut fields = Vec::new();
    for ce in 0..c.config().n_ces {
        let s = c.ce_stats(ce);
        fields.extend([
            s.instrs,
            s.bus_busy_cycles,
            s.active_cycles,
            s.iters_completed,
            s.miss_stall_cycles,
            s.fault_stall_cycles,
        ]);
    }
    let (ccb, xbar, faults) = (c.ccb_stats(), c.crossbar_stats(), c.vm().total_faults());
    fields.extend([
        ccb.sync_wait_cycles,
        ccb.grant_wait_cycles,
        xbar.grants,
        xbar.denials,
        faults.user,
        faults.system,
    ]);
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in fields.iter().flat_map(|f| f.to_le_bytes()) {
        h ^= b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Hashes pinned before the zero-allocation stepper refactor; the
/// sequences must never change.
const GOLDEN_IDLE: u64 = 0x5df3dd129ea63612;
const GOLDEN_SERIAL: u64 = 0x62f3fedbeaedc38c;
const GOLDEN_LOOP: u64 = 0x6f7c2dbd33cdd1d1;

#[test]
fn idle_probe_sequence_matches_golden() {
    let words = idle_cluster(11).capture(CYCLES);
    assert_eq!(fnv1a(&words), GOLDEN_IDLE, "actual {:#018x}", fnv1a(&words));
}

#[test]
fn serial_probe_sequence_matches_golden() {
    let words = serial_cluster(12).capture(CYCLES);
    assert_eq!(
        fnv1a(&words),
        GOLDEN_SERIAL,
        "actual {:#018x}",
        fnv1a(&words)
    );
}

#[test]
fn loop_probe_sequence_matches_golden() {
    let words = loop_cluster(13).capture(CYCLES);
    assert_eq!(fnv1a(&words), GOLDEN_LOOP, "actual {:#018x}", fnv1a(&words));
}

/// The quiet path (`run`, no analyzer armed) must advance the machine
/// bit-identically to the probed path (`capture`): running N quiet cycles
/// then capturing must equal capturing through the same span and keeping
/// the tail.
#[test]
fn quiet_run_and_probed_capture_advance_identically() {
    for build in [idle_cluster, serial_cluster, loop_cluster] {
        let mut quiet = build(29);
        quiet.run(40_000);
        let tail_quiet = quiet.capture(4_096);

        let mut probed = build(29);
        let mut all = probed.capture(40_000 + 4_096);
        let tail_probed = all.split_off(40_000);
        assert_eq!(tail_quiet, tail_probed);
    }
}

/// Counter hashes of the idle, serial, loop and recurrence machines after
/// a quiet `run` through all three engines, recorded before the CE's
/// per-cycle behaviour moved into the one lane module the engines share.
/// They pin what the probe hashes cannot see, such as an instruction a
/// `PostSync` retires.
const GOLDEN_COUNTERS: [u64; 4] = [
    0xe120542310fbb4e5,
    0x6d372b43df4c6f68,
    0x7c2350ec2320ac6a,
    0x896436c0f9326536,
];

#[test]
fn engine_counters_match_golden() {
    let builds: [fn(u64) -> Cluster; 4] = [
        idle_cluster,
        serial_cluster,
        loop_cluster,
        recurrence_cluster,
    ];
    let actual: Vec<u64> = builds
        .iter()
        .zip(31..)
        .map(|(build, seed)| {
            let mut c = build(seed);
            c.run(CYCLES as u64);
            counters_hash(&c)
        })
        .collect();
    assert_eq!(actual, GOLDEN_COUNTERS, "actual {actual:#018x?}");
}
