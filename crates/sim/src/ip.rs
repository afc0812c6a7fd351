//! Interactive Processors.
//!
//! "Interactive Processors (IPs) handle interactive traffic, operating
//! system functions, and I/O" (§ 3.1). For this study their relevance is
//! the background load they put on the shared memory bus and the coherence
//! traffic between the IP cache and the CE cache. Modeled as a stochastic
//! reference stream over a hot OS working set plus a colder interactive
//! region, with a configurable intensity that the workload layer scales
//! with session load.

use crate::addr::{VAddr, KERNEL_ASID};
use crate::coherence::{BusTxn, CacheSystem};
use crate::membus::MemBusSystem;
use crate::opcode::MemBusOp;
use crate::Cycle;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Background activity generated by the Interactive Processors.
#[derive(Debug)]
pub struct IpSubsystem {
    /// Probability an IP issues a cacheable reference in a given cycle.
    intensity: f64,
    /// Fraction of references that are writes.
    write_fraction: f64,
    /// Hot OS working set size in bytes.
    hot_bytes: u64,
    /// Cold interactive region size in bytes.
    cold_bytes: u64,
    /// Probability a reference goes to the cold region.
    cold_fraction: f64,
    rng: SmallRng,
    issued: u64,
}

impl IpSubsystem {
    /// Build with a deterministic seed.
    pub fn new(seed: u64) -> Self {
        IpSubsystem {
            intensity: 0.02,
            write_fraction: 0.3,
            hot_bytes: 16 * 1024,
            cold_bytes: 8 * 1024 * 1024,
            cold_fraction: 0.05,
            rng: SmallRng::seed_from_u64(seed ^ 0x1b_5ee7),
            issued: 0,
        }
    }

    /// Scale the per-cycle reference probability (session load).
    pub fn set_intensity(&mut self, intensity: f64) {
        self.intensity = intensity.clamp(0.0, 1.0);
    }

    /// Current per-cycle reference probability.
    pub fn intensity(&self) -> f64 {
        self.intensity
    }

    /// References issued so far.
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// One cycle of IP activity: possibly issue a reference through the IP
    /// cache, scheduling any implied memory-bus transactions.
    pub fn step(&mut self, now: Cycle, caches: &mut CacheSystem, bus: &mut MemBusSystem) {
        if !self.rng.gen_bool(self.intensity) {
            return;
        }
        self.issue(now, caches, bus);
    }

    /// Replay `k` cycles of background traffic in one call — the dense
    /// kernel's per-cycle IP loop over a jump, kept tight because every
    /// skipped cycle still consumes exactly one RNG draw (the stream
    /// position is architecturally observable).
    pub fn replay(
        &mut self,
        from: Cycle,
        k: u64,
        caches: &mut CacheSystem,
        bus: &mut MemBusSystem,
    ) {
        for t in from..from + k {
            if self.rng.gen_bool(self.intensity) {
                self.issue(t, caches, bus);
            }
        }
    }

    fn issue(&mut self, now: Cycle, caches: &mut CacheSystem, bus: &mut MemBusSystem) {
        self.issued += 1;
        let line_bytes = caches.geometry().line_bytes;
        let offset = if self.rng.gen_bool(self.cold_fraction) {
            self.hot_bytes + self.rng.gen_range(0..self.cold_bytes)
        } else {
            self.rng.gen_range(0..self.hot_bytes)
        };
        let addr = VAddr::new(KERNEL_ASID, offset);
        let is_write = self.rng.gen_bool(self.write_fraction);
        let line = addr.line(line_bytes);
        let outcome = caches.ip_access(line, is_write);
        for txn in outcome.bus {
            let op = match txn {
                BusTxn::Fetch | BusTxn::IpFetch => MemBusOp::IpTraffic,
                BusTxn::WriteBack => MemBusOp::WriteBack,
                BusTxn::Coherence => MemBusOp::Coherence,
            };
            bus.schedule(now, op, line);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MachineConfig;

    fn parts() -> (CacheSystem, MemBusSystem) {
        let cfg = MachineConfig::fx8();
        (
            CacheSystem::new(cfg.cache, 32 * 1024),
            MemBusSystem::new(
                cfg.mem_buses,
                cfg.mem_interleave,
                cfg.mem_latency_cycles,
                cfg.line_transfer_cycles,
            ),
        )
    }

    #[test]
    fn zero_intensity_generates_nothing() {
        let (mut c, mut b) = parts();
        let mut ip = IpSubsystem::new(1);
        ip.set_intensity(0.0);
        for t in 0..10_000 {
            ip.step(t, &mut c, &mut b);
        }
        assert_eq!(ip.issued(), 0);
        assert_eq!(c.stats().ip_accesses, 0);
    }

    #[test]
    fn intensity_controls_issue_rate() {
        let (mut c, mut b) = parts();
        let mut ip = IpSubsystem::new(2);
        ip.set_intensity(0.1);
        for t in 0..50_000 {
            ip.step(t, &mut c, &mut b);
        }
        let rate = ip.issued() as f64 / 50_000.0;
        assert!((rate - 0.1).abs() < 0.01, "rate {rate} far from 0.1");
    }

    #[test]
    fn hot_set_mostly_hits_after_warmup() {
        let (mut c, mut b) = parts();
        let mut ip = IpSubsystem::new(3);
        ip.set_intensity(0.5);
        for t in 0..100_000 {
            ip.step(t, &mut c, &mut b);
        }
        let s = c.stats();
        let miss_ratio = s.ip_misses as f64 / s.ip_accesses as f64;
        assert!(
            miss_ratio < 0.25,
            "IP miss ratio {miss_ratio} too high for a hot OS set"
        );
        assert!(miss_ratio > 0.0, "cold region must generate some misses");
    }

    #[test]
    fn ip_traffic_lands_on_the_memory_bus() {
        let (mut c, mut b) = parts();
        let mut ip = IpSubsystem::new(4);
        ip.set_intensity(0.5);
        for t in 0..5_000 {
            ip.step(t, &mut c, &mut b);
        }
        assert!(b.stats().by_op[MemBusOp::IpTraffic.index()] > 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = |seed| {
            let (mut c, mut b) = parts();
            let mut ip = IpSubsystem::new(seed);
            ip.set_intensity(0.3);
            for t in 0..10_000 {
                ip.step(t, &mut c, &mut b);
            }
            (ip.issued(), c.stats().ip_misses)
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
    }
}
