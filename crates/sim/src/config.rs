//! Machine configuration.
//!
//! Geometry and latency parameters of the measured FX/8, taken from
//! Appendix C of the thesis and Alliant's FX/Series documentation:
//! eight CEs, a 128 KB shared cache split over two CPC modules with four-way
//! interleaving and 32-byte lines, per-CE 16 KB instruction caches, two
//! 64-bit memory buses to four-way-interleaved main memory, 4 KB pages.
//! Everything is configurable so tests can shrink the machine and ablation
//! benches can rewire arbitration.

use serde::{Deserialize, Serialize};

/// Widest crossbar: cache banks a machine may have. The dense kernel's
/// per-bank requester masks are this wide, and [`MachineConfig::scaled`]
/// saturates at it.
pub const MAX_BANKS: usize = 16;

/// A configuration validation failure.
///
/// Every `validate()` in the config chain (`CacheGeometry`,
/// [`MachineConfig`], and the session/study/monitor configs built on top)
/// reports through this enum instead of a bare `String`, so callers can
/// match on the failure, and diagnostics always name the offending field
/// and its value. Hand-rolled `Display`/`Error` impls keep the vendored
/// build free of a `thiserror` dependency.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConfigError {
    /// A field's value fell outside its legal range; `constraint`
    /// describes the bound it broke.
    OutOfRange {
        /// Dotted path of the offending field (e.g. `cache.line_bytes`).
        field: &'static str,
        /// The rejected value, rendered.
        value: String,
        /// Human-readable statement of the violated constraint.
        constraint: String,
    },
    /// A field that must be a nonzero power of two was not.
    NotPowerOfTwo {
        /// Dotted path of the offending field.
        field: &'static str,
        /// The rejected value.
        value: u64,
    },
    /// A field that must be nonzero was zero.
    Zero {
        /// Dotted path of the offending field.
        field: &'static str,
    },
}

impl ConfigError {
    /// Shorthand constructor for [`ConfigError::OutOfRange`].
    pub fn out_of_range(
        field: &'static str,
        value: impl std::fmt::Display,
        constraint: impl Into<String>,
    ) -> Self {
        ConfigError::OutOfRange {
            field,
            value: value.to_string(),
            constraint: constraint.into(),
        }
    }

    /// Dotted path of the field that failed validation.
    pub fn field(&self) -> &'static str {
        match self {
            ConfigError::OutOfRange { field, .. }
            | ConfigError::NotPowerOfTwo { field, .. }
            | ConfigError::Zero { field } => field,
        }
    }
}

impl std::fmt::Display for ConfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ConfigError::OutOfRange {
                field,
                value,
                constraint,
            } => write!(f, "invalid {field}: {value} ({constraint})"),
            ConfigError::NotPowerOfTwo { field, value } => {
                write!(
                    f,
                    "invalid {field}: {value} (expected a nonzero power of two)"
                )
            }
            ConfigError::Zero { field } => {
                write!(f, "invalid {field}: 0 (expected a nonzero value)")
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// Which CE wins when several contend for the same shared resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Arbitration {
    /// Fixed priority by CE index (CE 0 always wins).
    FixedLowFirst,
    /// Fixed priority wired from both ends of the backplane inward:
    /// 0, 7, 1, 6, 2, 5, 3, 4 (the CCB grant-chain default).
    EndsFirst,
    /// Fixed priority wired from the center of the backplane outward:
    /// the exact reverse of [`Arbitration::EndsFirst`]. As the crossbar
    /// default this disfavours CEs 0 and 7 under contention, so they run
    /// slightly slower and trail at the end of concurrent loops — the
    /// thesis's own hypothesis for Figure 7 ("if priority schemes favor
    /// particular processors, [the others] will suffer greater delay,
    /// increasing the probability that they will trail other processors
    /// in execution at the end of the loop").
    CenterFirst,
    /// Round-robin starting after the previous winner (the "fair" ablation).
    RoundRobin,
}

impl Arbitration {
    /// The CE holding priority rank `k` (0 = highest) among `n` CEs.
    /// Closed form so arbiters can walk the priority order without
    /// materializing it — arbitration runs every bus cycle.
    #[inline]
    pub fn nth(self, n: usize, rotor: usize, k: usize) -> usize {
        debug_assert!(k < n);
        match self {
            Arbitration::FixedLowFirst => k,
            // Ends inward: 0, n-1, 1, n-2, ... — even ranks from the low
            // end, odd ranks from the high end.
            Arbitration::EndsFirst => {
                if k.is_multiple_of(2) {
                    k / 2
                } else {
                    n - 1 - k / 2
                }
            }
            Arbitration::CenterFirst => Arbitration::EndsFirst.nth(n, rotor, n - 1 - k),
            Arbitration::RoundRobin => (rotor + 1 + k) % n,
        }
    }

    /// Priority order as an allocation-free iterator; earlier items win
    /// ties. For `RoundRobin` the order rotates with `rotor`.
    #[inline]
    pub fn order_iter(self, n: usize, rotor: usize) -> impl Iterator<Item = usize> {
        (0..n).map(move |k| self.nth(n, rotor, k))
    }

    /// Priority permutation for `n` CEs, materialized (tests, tools).
    pub fn order(self, n: usize, rotor: usize) -> Vec<usize> {
        self.order_iter(n, rotor).collect()
    }
}

/// Geometry of the shared CE cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheGeometry {
    /// Total capacity in bytes (128 KB on the measured machine).
    pub total_bytes: u64,
    /// Line size in bytes.
    pub line_bytes: u64,
    /// Number of interleaved banks (4: two CPC modules × 2 banks each).
    pub banks: usize,
    /// Associativity of each bank.
    pub assoc: usize,
}

impl CacheGeometry {
    /// Number of sets per bank.
    pub fn sets_per_bank(&self) -> usize {
        (self.total_bytes / self.line_bytes) as usize / self.banks / self.assoc
    }

    /// Bank servicing a given line (low-order line-interleaving).
    /// `banks` is a validated power of two, so the modulo is a mask.
    #[inline]
    pub fn bank_of(&self, line: u64) -> usize {
        let b = self.banks as u64;
        if b.is_power_of_two() {
            (line & (b - 1)) as usize
        } else {
            (line % b) as usize
        }
    }

    /// Set index within the bank for a given line.
    pub fn set_of(&self, line: u64) -> usize {
        ((line / self.banks as u64) % self.sets_per_bank() as u64) as usize
    }

    /// Check internal consistency (all powers of two, nonzero, at most
    /// [`MAX_BANKS`] banks).
    pub fn validate(&self) -> Result<(), ConfigError> {
        if !self.line_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                field: "cache.line_bytes",
                value: self.line_bytes,
            });
        }
        if self.banks == 0 || !self.banks.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                field: "cache.banks",
                value: self.banks as u64,
            });
        }
        if self.banks > MAX_BANKS {
            return Err(ConfigError::out_of_range(
                "cache.banks",
                self.banks,
                format!("expected at most {MAX_BANKS}"),
            ));
        }
        if self.assoc == 0 {
            return Err(ConfigError::Zero {
                field: "cache.assoc",
            });
        }
        let lines = self.total_bytes / self.line_bytes;
        if lines == 0 || !lines.is_multiple_of((self.banks * self.assoc) as u64) {
            return Err(ConfigError::out_of_range(
                "cache.total_bytes",
                self.total_bytes,
                format!(
                    "{} lines must divide evenly into {} banks x {} ways",
                    lines, self.banks, self.assoc
                ),
            ));
        }
        if !self.sets_per_bank().is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                field: "cache.sets_per_bank",
                value: self.sets_per_bank() as u64,
            });
        }
        Ok(())
    }
}

/// Observability knobs for the `fx8-trace` layer.
///
/// Both pillars default **off**, and a disabled tracer costs the simulator
/// nothing: [`crate::Cluster`] only carries an unarmed `Option` and every
/// hook sits outside the dense stepper's lane loop (see DESIGN.md §11).
/// The knobs are pure observers — turning them on never changes machine
/// trajectories, RNG draws, or state digests.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TraceConfig {
    /// Record the metrics registry (per-engine cycle split, crossbar
    /// per-bank grants and retries, membus busy cycles, CCB
    /// dispatch-to-grant latency histogram, VM fault counts), sampled at
    /// window granularity.
    pub metrics: bool,
    /// Record the structured event trace (concurrency transitions, CCB
    /// edges, probe triggers, dense windows) into a bounded ring buffer,
    /// exportable as Chrome `trace_event` JSON.
    pub events: bool,
    /// Capacity of the event ring buffer; on overflow the oldest records
    /// are dropped and counted. Pre-allocated once, so steady-state
    /// tracing stays allocation-free.
    pub event_capacity: usize,
}

impl TraceConfig {
    /// Default ring capacity: enough for the quick study's busiest
    /// session without pushing resident memory past a few MB.
    pub const DEFAULT_EVENT_CAPACITY: usize = 64 * 1024;

    /// Everything disabled (the default): zero-cost observability.
    pub fn off() -> Self {
        TraceConfig {
            metrics: false,
            events: false,
            event_capacity: Self::DEFAULT_EVENT_CAPACITY,
        }
    }

    /// Metrics registry only — no event ring.
    pub fn metrics_only() -> Self {
        TraceConfig {
            metrics: true,
            ..Self::off()
        }
    }

    /// Both pillars on.
    pub fn full() -> Self {
        TraceConfig {
            metrics: true,
            events: true,
            event_capacity: Self::DEFAULT_EVENT_CAPACITY,
        }
    }

    /// Is any instrumentation requested?
    pub fn enabled(&self) -> bool {
        self.metrics || self.events
    }

    /// Validate: an enabled event trace needs a nonzero ring.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.events && self.event_capacity == 0 {
            return Err(ConfigError::Zero {
                field: "trace.event_capacity",
            });
        }
        Ok(())
    }
}

impl Default for TraceConfig {
    fn default() -> Self {
        TraceConfig::off()
    }
}

/// Full machine configuration.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineConfig {
    /// Number of Computing Elements in the cluster (8 on the measured FX/8).
    pub n_ces: usize,
    /// Number of Interactive Processors.
    pub n_ips: usize,
    /// Per-CE internal instruction cache capacity in bytes (16 KB).
    pub icache_bytes: u64,
    /// Per-CE instruction-cache line size in bytes.
    pub icache_line_bytes: u64,
    /// Shared CE cache geometry.
    pub cache: CacheGeometry,
    /// Cycles for a shared-cache hit to return data to the CE.
    pub cache_hit_cycles: u64,
    /// Main-memory access latency in cycles, before bus transfer.
    pub mem_latency_cycles: u64,
    /// Number of 64-bit memory buses (2 on the FX/8).
    pub mem_buses: usize,
    /// Cycles to move one cache line over a memory bus (32 B over 64 bits = 4).
    pub line_transfer_cycles: u64,
    /// Interleave factor of main memory modules.
    pub mem_interleave: usize,
    /// Cycles for the CCB to grant one iteration request.
    pub ccb_grant_cycles: u64,
    /// Arbitration discipline on the CCB iteration-grant daisy chain.
    pub ccb_arbitration: Arbitration,
    /// Grant propagation delay per daisy-chain hop: a grant reaches CE `j`
    /// after `ccb_chain_hop_cycles * min(j, n-1-j)` extra cycles (0 = no
    /// propagation modeling; available for ablations).
    pub ccb_chain_hop_cycles: u64,
    /// Arbitration discipline at each crossbar cache bank.
    pub crossbar_arbitration: Arbitration,
    /// Cycles a CE stalls when it takes a page fault inside a captured
    /// window (fault service itself proceeds on an IP).
    pub fault_stall_cycles: u64,
    /// Total physical memory in bytes (up to 64 MB on the FX/8).
    pub phys_mem_bytes: u64,
    /// Nanoseconds per bus cycle, used to convert wall time to cycles.
    pub ns_per_cycle: u64,
    /// The dense kernel's jump switch: a stretch in which no lane can act
    /// before its event horizon (the earliest stall, fault or burst end,
    /// bank release or CCB grant-channel release) is jumped in one pass
    /// instead of stepped cycle by cycle. Bit-identical to per-cycle
    /// stepping (a pure optimization), so this stays on by default; the
    /// knob exists so differential tests can compare both paths and
    /// ablations can measure the win. It does nothing while
    /// [`Self::dense_stepping`] is off, and builds with the `audit` feature
    /// ignore it.
    pub fast_forward: bool,
    /// Dense-window batch stepping: every stretch no analyzer observes —
    /// idle, serial, a loop or its drain, detached processes beside them —
    /// runs in a fused structure-of-arrays kernel that steps lane-packed
    /// CE state, leaving only the CCB-resolution cycles (grants,
    /// exhaustion, join) to the scalar stepper. Bit-identical to per-cycle
    /// stepping (a pure optimization), so it stays on by default; the knob
    /// exists so differential tests can compare both paths. Off, every
    /// cycle is scalar. Builds with the `audit` feature ignore it and
    /// always step every cycle, keeping the auditor an independent
    /// per-cycle oracle.
    pub dense_stepping: bool,
    /// `fx8-trace` observability: metrics registry and structured event
    /// trace, both off by default and free when off.
    pub trace: TraceConfig,
}

impl MachineConfig {
    /// The measured machine: a full FX/8 as described in Appendix C.
    pub fn fx8() -> Self {
        MachineConfig {
            n_ces: 8,
            n_ips: 3,
            icache_bytes: 16 * 1024,
            icache_line_bytes: 32,
            cache: CacheGeometry {
                total_bytes: 128 * 1024,
                line_bytes: 32,
                banks: 4,
                assoc: 2,
            },
            cache_hit_cycles: 1,
            mem_latency_cycles: 10,
            mem_buses: 2,
            line_transfer_cycles: 4,
            mem_interleave: 4,
            // The hardware self-scheduler hands out one iteration per
            // grant period; ~2 us of dispatch overhead per iteration on the
            // real machine corresponds to roughly a dozen bus cycles. The
            // serialized channel preserves the EndsFirst start order
            // through lockstep loop rounds, which is what hands the
            // leftover iterations to CEs 0 and 7 at loop ends (Figure 7).
            ccb_grant_cycles: 12,
            ccb_arbitration: Arbitration::EndsFirst,
            ccb_chain_hop_cycles: 0,
            crossbar_arbitration: Arbitration::FixedLowFirst,
            fault_stall_cycles: 400,
            phys_mem_bytes: 32 * 1024 * 1024,
            ns_per_cycle: 170,
            fast_forward: true,
            dense_stepping: true,
            trace: TraceConfig::off(),
        }
    }

    /// Extra grant-propagation cycles for CE `ce` (distance from the
    /// nearer end of the daisy chain). Lanes at or beyond the cluster
    /// width have no chain position; they are clamped to distance zero
    /// instead of underflowing `n_ces - 1 - ce` (which used to wrap to a
    /// ~2^64-cycle stall in release builds).
    pub fn ccb_chain_delay(&self, ce: usize) -> u64 {
        debug_assert!(ce < self.n_ces, "CE {ce} outside a {}-CE chain", self.n_ces);
        let from_high_end = self.n_ces.saturating_sub(1).saturating_sub(ce);
        self.ccb_chain_hop_cycles * ce.min(from_high_end) as u64
    }

    /// A hypothetical FX/8-derived cluster of `n_ces` CEs — the machine
    /// the paper could not measure. Shared resources scale with width in
    /// the FX/8's own proportions (16 KB of shared cache per CE, one cache
    /// bank per two CEs, one memory bus per four CEs), so the scaling
    /// curves isolate the concurrency effects of width rather than of
    /// starving the cache. Bank count and memory interleave saturate at 16
    /// (the widest crossbar the dense kernel's conflict masks carry), which
    /// is itself a measured effect: past 32 CEs the interleave stops
    /// scaling and bank contention climbs. Latencies, CCB behaviour and IP
    /// background load stay at the measured machine's values. `n_ces` is
    /// rounded up to a power of two for the geometry computations, so every
    /// width in `1..=64` validates.
    pub fn scaled(n_ces: usize) -> Self {
        let p = n_ces.next_power_of_two().max(2);
        let banks = (p / 2).clamp(2, MAX_BANKS);
        MachineConfig {
            n_ces,
            cache: CacheGeometry {
                total_bytes: 16 * 1024 * p as u64,
                line_bytes: 32,
                banks,
                assoc: 2,
            },
            mem_buses: (p / 4).max(1),
            mem_interleave: banks,
            ..MachineConfig::fx8()
        }
    }

    /// A deliberately tiny machine for unit tests: 2 CEs, 4 KB cache.
    pub fn tiny() -> Self {
        MachineConfig {
            n_ces: 2,
            n_ips: 1,
            icache_bytes: 1024,
            icache_line_bytes: 32,
            cache: CacheGeometry {
                total_bytes: 4 * 1024,
                line_bytes: 32,
                banks: 2,
                assoc: 2,
            },
            cache_hit_cycles: 1,
            mem_latency_cycles: 4,
            mem_buses: 1,
            line_transfer_cycles: 4,
            mem_interleave: 2,
            ccb_grant_cycles: 1,
            ccb_arbitration: Arbitration::EndsFirst,
            ccb_chain_hop_cycles: 0,
            crossbar_arbitration: Arbitration::FixedLowFirst,
            fault_stall_cycles: 50,
            phys_mem_bytes: 1024 * 1024,
            ns_per_cycle: 170,
            fast_forward: true,
            dense_stepping: true,
            trace: TraceConfig::off(),
        }
    }

    /// Convert seconds of machine time to bus cycles.
    pub fn seconds_to_cycles(&self, secs: f64) -> u64 {
        (secs * 1e9 / self.ns_per_cycle as f64) as u64
    }

    /// Physical page frames available for resident pages.
    pub fn phys_frames(&self) -> u64 {
        self.phys_mem_bytes / crate::addr::PAGE_BYTES
    }

    /// Validate geometry invariants.
    pub fn validate(&self) -> Result<(), ConfigError> {
        // One CE per LaneWord bit: the probe word, the dense kernel and the
        // crossbar's requester masks are all lane-mask native up to this
        // width.
        let max = crate::probe::MAX_CES;
        if self.n_ces == 0 || self.n_ces > max {
            return Err(ConfigError::out_of_range(
                "n_ces",
                self.n_ces,
                format!("expected 1..={max}"),
            ));
        }
        self.cache.validate()?;
        if !self.icache_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                field: "icache_bytes",
                value: self.icache_bytes,
            });
        }
        if !self.icache_line_bytes.is_power_of_two() {
            return Err(ConfigError::NotPowerOfTwo {
                field: "icache_line_bytes",
                value: self.icache_line_bytes,
            });
        }
        if self.mem_buses == 0 {
            return Err(ConfigError::Zero { field: "mem_buses" });
        }
        self.trace.validate()?;
        Ok(())
    }
}

impl Default for MachineConfig {
    fn default() -> Self {
        MachineConfig::fx8()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fx8_config_is_valid_and_matches_appendix_c() {
        let c = MachineConfig::fx8();
        c.validate().unwrap();
        assert_eq!(c.n_ces, 8);
        assert_eq!(c.cache.total_bytes, 128 * 1024);
        assert_eq!(c.cache.banks, 4);
        assert_eq!(c.icache_bytes, 16 * 1024);
        assert_eq!(c.mem_buses, 2);
        // 32-byte line over a 64-bit bus takes four transfers.
        assert_eq!(c.line_transfer_cycles, 4);
    }

    #[test]
    fn tiny_config_is_valid() {
        MachineConfig::tiny().validate().unwrap();
    }

    #[test]
    fn cache_geometry_partitions_lines() {
        let g = MachineConfig::fx8().cache;
        // 128 KB / 32 B = 4096 lines; 4 banks x 2 ways -> 512 sets/bank.
        assert_eq!(g.sets_per_bank(), 512);
        // Adjacent lines hit different banks (interleaving).
        assert_ne!(g.bank_of(0), g.bank_of(1));
        assert_eq!(g.bank_of(0), g.bank_of(4));
    }

    #[test]
    fn geometry_validation_rejects_bad_shapes() {
        let mut g = MachineConfig::fx8().cache;
        g.line_bytes = 33;
        assert!(g.validate().is_err());
        let mut g2 = MachineConfig::fx8().cache;
        g2.banks = 3;
        assert!(g2.validate().is_err());
        let mut g3 = MachineConfig::fx8().cache;
        g3.assoc = 0;
        assert!(g3.validate().is_err());
    }

    #[test]
    fn ends_first_order_is_0_7_1_6_2_5_3_4() {
        assert_eq!(
            Arbitration::EndsFirst.order(8, 0),
            vec![0, 7, 1, 6, 2, 5, 3, 4]
        );
        assert_eq!(Arbitration::EndsFirst.order(3, 0), vec![0, 2, 1]);
        assert_eq!(Arbitration::EndsFirst.order(1, 0), vec![0]);
    }

    #[test]
    fn center_first_is_reverse_of_ends_first() {
        assert_eq!(
            Arbitration::CenterFirst.order(8, 0),
            vec![4, 3, 5, 2, 6, 1, 7, 0]
        );
    }

    #[test]
    fn chain_delay_is_distance_from_nearer_end() {
        // Disabled by default (the serialized grant channel is the modeled
        // dispatch cost)...
        let c = MachineConfig::fx8();
        assert_eq!(c.ccb_chain_hop_cycles, 0);
        assert_eq!(c.ccb_chain_delay(3), 0);
        // ...but the ablation knob scales with chain distance when set.
        let mut hopped = MachineConfig::fx8();
        hopped.ccb_chain_hop_cycles = 2;
        assert_eq!(hopped.ccb_chain_delay(0), 0);
        assert_eq!(hopped.ccb_chain_delay(7), 0);
        assert_eq!(hopped.ccb_chain_delay(1), 2);
        assert_eq!(hopped.ccb_chain_delay(6), 2);
        assert_eq!(hopped.ccb_chain_delay(3), 6);
        assert_eq!(hopped.ccb_chain_delay(4), 6);
    }

    /// Regression: `ce >= n_ces` underflowed `n_ces - 1 - ce` and returned
    /// a delay of ~u64::MAX hops. Debug builds now trap on the misuse;
    /// release builds saturate the distance to zero.
    #[test]
    fn chain_delay_out_of_range_ce_does_not_underflow() {
        let mut c = MachineConfig::fx8();
        c.ccb_chain_hop_cycles = 2;
        if cfg!(debug_assertions) {
            let r = std::panic::catch_unwind(|| c.ccb_chain_delay(8));
            assert!(r.is_err(), "debug builds must trap on ce >= n_ces");
        } else {
            assert_eq!(c.ccb_chain_delay(8), 0);
            assert_eq!(c.ccb_chain_delay(usize::MAX), 0);
        }
    }

    #[test]
    fn scaled_presets_validate_at_every_study_width() {
        for w in [2usize, 4, 8, 16, 32, 64] {
            let c = MachineConfig::scaled(w);
            assert!(c.validate().is_ok(), "scaled({w}) must validate");
            assert_eq!(c.n_ces, w);
            // Per-CE cache share stays at the FX/8's 16 KB.
            assert_eq!(c.cache.total_bytes, 16 * 1024 * w as u64);
        }
        // At the measured width the preset IS the measured machine's
        // shared-resource geometry.
        let eight = MachineConfig::scaled(8);
        assert_eq!(eight.cache, MachineConfig::fx8().cache);
        assert_eq!(eight.mem_buses, MachineConfig::fx8().mem_buses);
        assert_eq!(eight.mem_interleave, MachineConfig::fx8().mem_interleave);
        // Bank count saturates at the 16-bank crossbar ceiling.
        assert_eq!(MachineConfig::scaled(64).cache.banks, 16);
        assert_eq!(MachineConfig::scaled(64).mem_buses, 16);
        // Odd widths round geometry up to the next power of two and still
        // validate.
        for w in [1usize, 3, 7, 33, 63] {
            assert!(MachineConfig::scaled(w).validate().is_ok(), "scaled({w})");
        }
    }

    #[test]
    fn round_robin_rotates() {
        assert_eq!(Arbitration::RoundRobin.order(4, 1), vec![2, 3, 0, 1]);
        assert_eq!(Arbitration::RoundRobin.order(4, 3), vec![0, 1, 2, 3]);
    }

    #[test]
    fn orders_are_permutations() {
        for arb in [
            Arbitration::FixedLowFirst,
            Arbitration::EndsFirst,
            Arbitration::CenterFirst,
            Arbitration::RoundRobin,
        ] {
            for n in [1, 2, 3, 8, 16, 33, 64] {
                for rotor in 0..n {
                    let mut o = arb.order(n, rotor);
                    o.sort_unstable();
                    assert_eq!(o, (0..n).collect::<Vec<_>>(), "{arb:?} n={n} rotor={rotor}");
                }
            }
        }
    }

    #[test]
    fn seconds_to_cycles_uses_cycle_time() {
        let c = MachineConfig::fx8();
        assert_eq!(c.seconds_to_cycles(1.0), 1_000_000_000 / 170);
    }

    #[test]
    fn fast_forward_defaults_on() {
        assert!(MachineConfig::fx8().fast_forward);
        assert!(MachineConfig::tiny().fast_forward);
        let mut off = MachineConfig::fx8();
        off.fast_forward = false;
        assert!(off.validate().is_ok(), "the knob is never a validity error");
    }

    #[test]
    fn dense_stepping_defaults_on() {
        assert!(MachineConfig::fx8().dense_stepping);
        assert!(MachineConfig::tiny().dense_stepping);
        let mut off = MachineConfig::fx8();
        off.dense_stepping = false;
        assert!(off.validate().is_ok(), "the knob is never a validity error");
    }

    #[test]
    fn configs_are_cloneable_and_comparable() {
        let c = MachineConfig::fx8();
        assert_eq!(c.clone(), c);
        assert_ne!(MachineConfig::tiny(), c);
    }

    #[test]
    fn trace_defaults_off_and_costs_nothing_to_validate() {
        let c = MachineConfig::fx8();
        assert!(!c.trace.enabled());
        assert_eq!(c.trace, TraceConfig::off());
        assert!(TraceConfig::metrics_only().enabled());
        assert!(TraceConfig::full().events);
        let mut bad = MachineConfig::fx8();
        bad.trace = TraceConfig::full();
        bad.trace.event_capacity = 0;
        assert_eq!(bad.validate().unwrap_err().field(), "trace.event_capacity");
    }

    #[test]
    fn config_errors_name_field_and_value() {
        let mut c = MachineConfig::fx8();
        c.n_ces = 65;
        let e = c.validate().unwrap_err();
        assert_eq!(e.field(), "n_ces");
        assert!(e.to_string().contains("n_ces"));
        assert!(e.to_string().contains("65"));

        let mut g = MachineConfig::fx8().cache;
        g.line_bytes = 33;
        let e = g.validate().unwrap_err();
        assert_eq!(
            e,
            ConfigError::NotPowerOfTwo {
                field: "cache.line_bytes",
                value: 33
            }
        );
        assert!(e.to_string().contains("33"));

        let c = MachineConfig {
            mem_buses: 0,
            ..MachineConfig::tiny()
        };
        assert_eq!(
            c.validate().unwrap_err(),
            ConfigError::Zero { field: "mem_buses" }
        );
    }
}
