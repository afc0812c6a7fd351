//! The host's speed, measured by a fixed reference kernel in short bursts
//! between the workload's timed work.
//!
//! The benchmark runs on a few vCPUs of a shared host whose speed moves by
//! up to a factor of two over minutes (stolen time, busy sibling cores),
//! so raw times of the same code spread past any useful bound. Every
//! end-to-end timing is therefore reported at the reference speed: the
//! measured time divided by the phase's *slowdown*, the median burst time
//! over [`NOMINAL_BURST_MS`]. The kernel is the benchmark's own code, so a
//! change to the program moves the timings and never the slowdown.

use crate::stats::median;
use std::time::{Duration, Instant};

/// A burst's time at the reference speed: a round figure for what it
/// takes on the 2-vCPU runner the README's figures come from in a calm
/// phase (17-20 ms). Only ratios to it are reported.
pub const NOMINAL_BURST_MS: f64 = 20.0;

/// Kernel iterations per thread in one burst.
const BURST_ITERS: u64 = 2_000_000;

/// Bursts before, between and after the set-ups of a run.
pub const PHASE_BURSTS: usize = 5;

/// A timed phase runs in windows of about this long, with a burst before
/// each, so the bursts sample the host all through it.
pub const WINDOW: Duration = Duration::from_millis(250);

/// Reference-kernel bursts taken during one phase of a run.
#[derive(Debug, Default)]
pub struct HostSpeed {
    /// Each burst's mean per-thread time, ms.
    bursts_ms: Vec<f64>,
    /// Wall time spent in bursts.
    spent: Duration,
}

impl HostSpeed {
    /// Run one burst: the kernel on every host CPU at once, each thread
    /// timing its own share. Records the mean per-thread time.
    pub fn burst(&mut self) {
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get());
        let t = Instant::now();
        let per_thread: Vec<f64> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads as u64)
                .map(|k| {
                    scope.spawn(move || {
                        let t = Instant::now();
                        std::hint::black_box(kernel(std::hint::black_box(k + 1), BURST_ITERS));
                        t.elapsed().as_secs_f64() * 1e3
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference kernel thread panicked"))
                .collect()
        });
        self.bursts_ms
            .push(per_thread.iter().sum::<f64>() / per_thread.len() as f64);
        self.spent += t.elapsed();
    }

    /// Run `n` bursts.
    pub fn bursts(&mut self, n: usize) {
        for _ in 0..n {
            self.burst();
        }
    }

    /// Median burst time over the nominal one: 2 means the host ran at
    /// half the reference speed. 1 before any burst.
    pub fn slowdown(&self) -> f64 {
        if self.bursts_ms.is_empty() {
            return 1.0;
        }
        median(&self.bursts_ms) / NOMINAL_BURST_MS
    }

    /// Wall time spent in bursts.
    pub fn spent(&self) -> Duration {
        self.spent
    }

    /// A one-line account of the bursts, for a run's notes.
    pub fn describe(&self, phase: &str) -> String {
        format!(
            "host speed ({phase}): slowdown {:.4} = median of {} reference bursts {:.3} ms / nominal {NOMINAL_BURST_MS} ms",
            self.slowdown(),
            self.bursts_ms.len(),
            self.slowdown() * NOMINAL_BURST_MS,
        )
    }
}

/// The reference kernel: xorshift-driven reads and writes over a 256 KiB
/// table with a data-dependent branch, the mix of integer work, cache
/// traffic and branches the simulator and the serde code are made of.
fn kernel(seed: u64, iters: u64) -> u64 {
    const SLOTS: usize = 1 << 16;
    let mut table = vec![0u32; SLOTS];
    let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut acc = 0u64;
    for i in 0..iters {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let j = (x as usize) & (SLOTS - 1);
        let v = table[j];
        if v & 1 == 0 {
            table[j] = v.wrapping_add(x as u32 | 1);
        } else {
            table[j] = v >> 1;
            acc = acc.wrapping_add(u64::from(v) ^ i);
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slowdown_is_the_median_burst_over_the_nominal() {
        let mut h = HostSpeed::default();
        assert_eq!(h.slowdown(), 1.0);
        h.bursts(3);
        assert_eq!(h.bursts_ms.len(), 3);
        assert!(h.slowdown() > 0.0 && h.slowdown().is_finite());
        assert!(h.spent() > Duration::ZERO);
    }

    #[test]
    fn the_kernel_does_its_work() {
        assert_eq!(kernel(3, 10_000), kernel(3, 10_000));
        assert_ne!(kernel(3, 10_000), kernel(3, 20_000));
    }
}
