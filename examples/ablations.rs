//! Ablations of the design choices DESIGN.md § 8 calls out.
//!
//! Each ablation runs the affected experiment under the default and the
//! ablated configuration and prints the resulting statistic. The printed
//! comparisons document *why* the machine model is wired the way it is:
//!
//! * priority — CCB grant daisy chain: ends-first vs fair round-robin.
//!   Ends-first reproduces Figure 7's CE0/CE7-heavy transition activity;
//!   round-robin flattens it.
//! * locality — cross-CE panel sharing on vs off. Shared panels make
//!   Missrate insensitive to the number of active CEs (§ 5.1); private
//!   panels make it grow with width.
//! * variance — per-iteration body variance on vs off. Variance stretches
//!   the intermediate (3..7-active) transition states.
//! * iters — iteration counts ≡ 2 (mod 8) vs multiples of 8. The residue
//!   drives Figure 6's 2-active dominance.
//!
//! Run with: `cargo run --release --example ablations`

use fx8_study::monitor::{DasConfig, DasMonitor, EventCounts, Trigger};
use fx8_study::sim::config::Arbitration;
use fx8_study::sim::stream::{CodeRegion, LoopBody, Op, SerialCode};
use fx8_study::sim::{CeId, Cluster, MachineConfig};
use fx8_study::workload::kernels::{self, LoopKernel};

/// A detached placeholder that occupies a CE without bus traffic.
struct QuietSerial(CodeRegion);

impl SerialCode for QuietSerial {
    fn code(&self) -> CodeRegion {
        self.0
    }
    fn gen_block(&mut self, _ce: CeId, out: &mut Vec<Op>) {
        out.push(Op::Compute(64));
    }
}

/// Wraps a kernel body, relocating panel references per CE so no line is
/// shared across processors (the "locality off" machine).
struct PrivatePanels {
    inner: Box<dyn LoopBody>,
}

impl LoopBody for PrivatePanels {
    fn code(&self) -> CodeRegion {
        self.inner.code()
    }
    fn gen_iteration(&mut self, iter: u64, ce: CeId, out: &mut Vec<Op>) {
        let mut ops = Vec::new();
        self.inner.gen_iteration(iter, ce, &mut ops);
        // Panel region sits below the streaming region; shift it into a
        // per-CE window so CEs never reuse each other's lines.
        const STREAM_BASE: u64 = 0x2000_0000;
        const CE_SHIFT: u64 = 0x0040_0000;
        for op in &mut ops {
            if let Op::Load(a) | Op::Store(a) = op {
                if a.offset() < STREAM_BASE {
                    *a = a.wrapping_add(ce as u64 * CE_SHIFT);
                }
            }
        }
        out.extend(ops);
    }
}

/// Capture `n` transition buffers for a loop of `iters` iterations under
/// the given CCB arbitration; returns pooled counts.
fn transition_counts(arb: Arbitration, kernel: &LoopKernel, iters: u64, n: usize) -> EventCounts {
    let mut cfg = MachineConfig::fx8();
    cfg.ccb_arbitration = arb;
    let das = DasMonitor::new(DasConfig {
        buffer_depth: 512,
        trigger: Trigger::TransitionFromFull,
        timeout_cycles: 5_000_000,
    });
    let mut pooled = EventCounts::empty(cfg.n_ces);
    for seed in 0..n as u64 {
        let mut cl = Cluster::new(cfg.clone(), seed);
        cl.set_ip_intensity(0.01);
        // Warm the caches on a long run of the same kernel first (a cold
        // panel desynchronizes the iteration lockstep and smears the
        // drain), then remount the tail: cache contents persist across
        // mounts, and the remount restores the loop's leftover structure
        // (remaining ≡ iters mod 8 on a dispatch-round boundary).
        cl.mount_loop(
            kernel.instantiate(1),
            0,
            1_000_000,
            kernels::glue_serial().instantiate(1),
            1,
        );
        cl.run(60_000);
        let first = iters.saturating_sub(48) & !7;
        cl.mount_loop(
            kernel.instantiate(1),
            first,
            iters,
            kernels::glue_serial().instantiate(1),
            1,
        );
        if let Ok(acq) = das.acquire(&mut cl) {
            pooled.accumulate(&acq.records);
        }
    }
    pooled
}

fn ends_to_middle_ratio(counts: &EventCounts) -> f64 {
    let ends = (counts.prof[0] + counts.prof[7]) as f64 / 2.0;
    let middle: f64 = (1..7).map(|j| counts.prof[j] as f64).sum::<f64>() / 6.0;
    ends / middle.max(1.0)
}

fn two_active_share(counts: &EventCounts) -> f64 {
    let transition: u64 = (2..8).map(|j| counts.num[j]).sum();
    counts.num[2] as f64 / transition.max(1) as f64
}

fn middle_state_share(counts: &EventCounts) -> f64 {
    let transition: u64 = (2..8).map(|j| counts.num[j]).sum();
    (3..8).map(|j| counts.num[j]).sum::<u64>() as f64 / transition.max(1) as f64
}

fn ablation_priority() {
    let kernel = kernels::sor_sweep(258);
    let ends = transition_counts(Arbitration::EndsFirst, &kernel, 258, 8);
    let fair = transition_counts(Arbitration::RoundRobin, &kernel, 258, 8);
    println!(
        "ablation_priority: ends/middle activity ratio — ends-first {:.2}, round-robin {:.2}",
        ends_to_middle_ratio(&ends),
        ends_to_middle_ratio(&fair)
    );
}

/// Missrate of a width-limited run (detached quiet jobs pin down CEs).
fn missrate_at_width(kernel_body: Box<dyn LoopBody>, width: usize, seed: u64) -> f64 {
    let mut cl = Cluster::new(MachineConfig::fx8(), seed);
    cl.set_ip_intensity(0.0);
    let region = CodeRegion::test_region(9);
    for ce in width..8 {
        cl.mount_detached(ce, Box::new(QuietSerial(region)), 9);
    }
    cl.mount_loop(
        kernel_body,
        0,
        1_000_000,
        kernels::glue_serial().instantiate(1),
        1,
    );
    cl.run(30_000);
    let words = cl.capture(4_096);
    EventCounts::reduce(&words, 8).missrate() / width as f64
}

fn ablation_locality() {
    let kernel = kernels::matmul(258);
    let shared_wide = missrate_at_width(kernel.instantiate(1), 8, 1) * 8.0;
    let shared_narrow = missrate_at_width(kernel.instantiate(1), 2, 1) * 2.0;
    let private_wide = missrate_at_width(
        Box::new(PrivatePanels {
            inner: kernel.instantiate(1),
        }),
        8,
        1,
    ) * 8.0;
    let private_narrow = missrate_at_width(
        Box::new(PrivatePanels {
            inner: kernel.instantiate(1),
        }),
        2,
        1,
    ) * 2.0;
    println!(
        "ablation_locality: missrate growth 2->8 CEs — shared panels {:.2}x, private panels {:.2}x",
        shared_wide / shared_narrow.max(1e-9),
        private_wide / private_narrow.max(1e-9),
    );
}

fn ablation_variance() {
    let mut smooth = kernels::sor_sweep(258);
    smooth.variance = 0.0;
    let mut jittery = kernels::sor_sweep(258);
    jittery.variance = 0.30;
    let s = transition_counts(Arbitration::EndsFirst, &smooth, 258, 8);
    let j = transition_counts(Arbitration::EndsFirst, &jittery, 258, 8);
    println!(
        "ablation_variance: middle (3..7-active) share of transitions — variance 0.0: {:.2}, 0.3: {:.2}",
        middle_state_share(&s),
        middle_state_share(&j)
    );
}

fn ablation_iters() {
    let kernel = kernels::sor_sweep(258);
    let residue2 = transition_counts(Arbitration::EndsFirst, &kernel, 258, 8);
    let residue0 = transition_counts(Arbitration::EndsFirst, &kernel, 256, 8);
    println!(
        "ablation_iters: 2-active share of transition states — n=258 (8k+2): {:.2}, n=256 (8k): {:.2}",
        two_active_share(&residue2),
        two_active_share(&residue0)
    );
}

fn main() {
    ablation_priority();
    ablation_locality();
    ablation_variance();
    ablation_iters();
}
