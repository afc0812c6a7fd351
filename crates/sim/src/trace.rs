//! `fx8-trace`: zero-cost-when-off observability for the simulator.
//!
//! The thesis instruments the *measured* machine with a DAS 9100; this
//! module instruments the *simulator itself*, so that perf work on the
//! steppers targets measured numbers instead of guesses. Two pillars,
//! both driven by [`crate::config::TraceConfig`] and both free when
//! disabled (the cluster carries only an unarmed `Option<Box<Tracer>>`
//! and every hook sits outside the dense stepper's lane loop):
//!
//! * a **metrics registry** — monotonic counters sampled on demand into a
//!   [`MetricsSnapshot`]: cycles retired per engine (scalar / dense /
//!   jumped), crossbar grants per bank and retries, membus busy
//!   cycles, the CCB dispatch-to-grant [`LatencyHistogram`], and VM fault
//!   counts. Most counters already exist in the subsystems; the registry
//!   reads them at window granularity so the dense stepper's flush path
//!   stays branch-light.
//! * a **structured event trace** — a bounded drop-oldest ring of typed
//!   [`TraceEvent`] records (concurrency transitions, CCB edges, probe
//!   triggers, dense windows), exportable as Chrome
//!   `trace_event` JSON via [`ChromeTraceBuilder`] and loadable in
//!   Perfetto.
//!
//! Tracing is a pure observer: enabling it never changes machine
//! trajectories, RNG draws, or `state_digest()` output, and the
//! equivalence tests in `cluster.rs` hold with it on or off.

use crate::config::TraceConfig;
use crate::Cycle;
use serde::Serialize;
use std::collections::VecDeque;

/// Which load a [`TraceEvent::Mount`] installed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MountKind {
    /// All CEs idle.
    Idle,
    /// One CE running serial code.
    Serial,
    /// A self-scheduled concurrent loop.
    Loop,
    /// Detached (non-concurrency) jobs on individual CEs.
    Detached,
}

impl MountKind {
    /// Stable lowercase name (used as the Chrome event name suffix).
    pub fn name(self) -> &'static str {
        match self {
            MountKind::Idle => "idle",
            MountKind::Serial => "serial",
            MountKind::Loop => "loop",
            MountKind::Detached => "detached",
        }
    }
}

/// Which DAS trigger fired a [`TraceEvent::ProbeTrigger`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerKind {
    /// Immediate capture (random sampling).
    Immediate,
    /// All CEs concurrent-active.
    AllCesActive,
    /// First drop below full concurrency.
    TransitionFromFull,
}

impl TriggerKind {
    /// Stable lowercase name (used as the Chrome event name suffix).
    pub fn name(self) -> &'static str {
        match self {
            TriggerKind::Immediate => "immediate",
            TriggerKind::AllCesActive => "all-active",
            TriggerKind::TransitionFromFull => "transition",
        }
    }
}

/// One structured record in the event trace.
///
/// Cycle-stamped and `Copy`; the ring buffer never allocates per event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// Hardware concurrency changed: `to` CEs are now CCB-active.
    Transition {
        /// Cycle of the change.
        at: Cycle,
        /// Active count before.
        from: u32,
        /// Active count after.
        to: u32,
    },
    /// A load was mounted on the cluster.
    Mount {
        /// Cycle of the mount.
        at: Cycle,
        /// Which load.
        kind: MountKind,
    },
    /// A concurrent loop started: `total` iterations self-scheduled over
    /// `lanes` worker CEs.
    LoopStart {
        /// Cycle of the mount.
        at: Cycle,
        /// Worker CEs attached to the CCB.
        lanes: u32,
        /// Total iterations in the loop.
        total: u64,
    },
    /// The CCB granted iteration `iter` to CE `ce`, `waited` cycles after
    /// the CE entered its iteration wait (dispatch-to-grant latency).
    CcbGrant {
        /// Cycle of the grant.
        at: Cycle,
        /// Receiving CE.
        ce: u32,
        /// Iteration index granted.
        iter: u64,
        /// Cycles from dispatch request to grant.
        waited: u64,
    },
    /// CE `ce` drained out of the loop: the CCB had no iterations left.
    CeDrained {
        /// Cycle of the promotion.
        at: Cycle,
        /// Drained CE.
        ce: u32,
    },
    /// The DAS monitor's trigger fired and an acquisition began.
    ProbeTrigger {
        /// Cycle of the trigger.
        at: Cycle,
        /// Which trigger condition fired.
        trigger: TriggerKind,
    },
    /// The dense SoA stepper retired a window.
    DenseWindow {
        /// First cycle of the window.
        from: Cycle,
        /// Window length.
        cycles: u64,
        /// Cycles of the window spent in quiet stretches the kernel
        /// jumped (counted as skipped); the rest were stepped.
        skipped: u64,
    },
}

impl TraceEvent {
    /// The cycle the event is stamped at (window events: their start).
    pub fn at(&self) -> Cycle {
        match *self {
            TraceEvent::Transition { at, .. }
            | TraceEvent::Mount { at, .. }
            | TraceEvent::LoopStart { at, .. }
            | TraceEvent::CcbGrant { at, .. }
            | TraceEvent::CeDrained { at, .. }
            | TraceEvent::ProbeTrigger { at, .. } => at,
            TraceEvent::DenseWindow { from, .. } => from,
        }
    }
}

/// Power-of-two-bucketed latency histogram (CCB dispatch-to-grant).
///
/// Bucket `i` counts samples whose value has `i` significant bits:
/// bucket 0 holds zeros, bucket 1 holds `1`, bucket 2 holds `2..=3`, and
/// so on; the last bucket absorbs everything wider. Fixed-size storage so
/// recording never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize)]
pub struct LatencyHistogram {
    /// Per-bucket sample counts.
    pub buckets: [u64; Self::NUM_BUCKETS],
    /// Total samples recorded.
    pub count: u64,
    /// Sum of all samples (for the mean).
    pub sum: u64,
    /// Largest sample seen.
    pub max: u64,
}

impl LatencyHistogram {
    /// Number of power-of-two buckets; covers waits up to `2^14` cycles
    /// exactly, with a catch-all final bucket.
    pub const NUM_BUCKETS: usize = 16;

    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [0; Self::NUM_BUCKETS],
            count: 0,
            sum: 0,
            max: 0,
        }
    }

    /// Record one sample.
    #[inline]
    pub fn record(&mut self, v: u64) {
        let idx = (64 - v.leading_zeros() as usize).min(Self::NUM_BUCKETS - 1);
        self.buckets[idx] += 1;
        self.count += 1;
        self.sum += v;
        self.max = self.max.max(v);
    }

    /// Mean sample value (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum as f64 / self.count as f64
        }
    }
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Cycles retired by each stepping engine: stepped by the scalar
/// stepper, stepped by the dense kernel, or jumped by it. The three
/// partition the timeline, so `scalar + dense + skipped == total` always holds
/// (asserted by [`EngineCycles::consistent`] and the metrics proptest).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct EngineCycles {
    /// Cycles stepped one at a time by `step_cycle`.
    pub scalar: u64,
    /// Cycles stepped by the dense SoA batch stepper.
    pub dense: u64,
    /// Cycles the dense kernel jumped in quiet stretches of two or more.
    pub skipped: u64,
    /// All cycles the cluster has retired.
    pub total: u64,
}

impl EngineCycles {
    /// Do the per-engine counts partition the total?
    pub fn consistent(&self) -> bool {
        self.scalar + self.dense + self.skipped == self.total
    }

    /// Element-wise sum (pooling across sessions).
    pub fn add(&mut self, other: &EngineCycles) {
        self.scalar += other.scalar;
        self.dense += other.dense;
        self.skipped += other.skipped;
        self.total += other.total;
    }
}

/// One sample of the metrics registry, assembled on demand by
/// `Cluster::metrics` from the subsystems' monotonic counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize)]
pub struct MetricsSnapshot {
    /// Per-engine cycle split.
    pub cycles: EngineCycles,
    /// Instructions retired, summed over CEs.
    pub instrs: u64,
    /// Loop iterations completed, summed over CEs.
    pub iters_completed: u64,
    /// Crossbar grants (total).
    pub crossbar_grants: u64,
    /// Crossbar denials (retry cycles spent by CEs).
    pub crossbar_retries: u64,
    /// Crossbar grants per cache bank.
    pub crossbar_grants_by_bank: Vec<u64>,
    /// Cycles at least one memory bus was busy.
    pub membus_busy_cycles: u64,
    /// Memory-bus operations started, by kind ordinal.
    pub membus_ops_by_kind: Vec<u64>,
    /// Shared-cache CE-side accesses.
    pub cache_ce_accesses: u64,
    /// Shared-cache CE-side misses.
    pub cache_ce_misses: u64,
    /// CCB iteration grants per CE.
    pub ccb_grants_by_ce: Vec<u64>,
    /// Cycles CEs spent waiting on the serialized grant channel.
    pub ccb_grant_wait_cycles: u64,
    /// Cycles CEs spent blocked on concurrency syncs.
    pub ccb_sync_wait_cycles: u64,
    /// Dispatch-to-grant latency histogram (empty unless
    /// `TraceConfig::metrics` was on for the whole run).
    pub ccb_grant_latency: LatencyHistogram,
    /// Demand faults taken by user pages.
    pub vm_user_faults: u64,
    /// Demand faults taken by system pages.
    pub vm_system_faults: u64,
    /// Trace events recorded (0 when the event trace is off).
    pub events_recorded: u64,
    /// Trace events dropped by the bounded ring.
    pub events_dropped: u64,
}

/// The armed tracer carried by a cluster when any `TraceConfig` knob is
/// on. Crate-internal: the cluster calls the hooks, consumers read the
/// results through `Cluster::metrics` / `Cluster::trace_events`.
#[derive(Debug, Clone)]
pub(crate) struct Tracer {
    /// Metrics registry armed (grant-latency histogram records).
    pub(crate) metrics_on: bool,
    /// Event ring armed.
    pub(crate) events_on: bool,
    /// Last concurrency level recorded, for transition edges.
    pub(crate) last_active: u32,
    /// Cycle each CE last entered its iteration wait.
    pub(crate) iter_wait_since: [Cycle; crate::probe::MAX_CES],
    /// Dispatch-to-grant latency samples.
    pub(crate) grant_latency: LatencyHistogram,
    ring: VecDeque<TraceEvent>,
    cap: usize,
    recorded: u64,
    dropped: u64,
}

impl Tracer {
    /// Arm a tracer for the given knobs. The ring is allocated up front
    /// at full capacity so steady-state tracing never allocates.
    pub(crate) fn new(cfg: &TraceConfig) -> Self {
        let cap = if cfg.events { cfg.event_capacity } else { 0 };
        Tracer {
            metrics_on: cfg.metrics,
            events_on: cfg.events,
            last_active: 0,
            iter_wait_since: [0; crate::probe::MAX_CES],
            grant_latency: LatencyHistogram::new(),
            ring: VecDeque::with_capacity(cap),
            cap,
            recorded: 0,
            dropped: 0,
        }
    }

    /// Append an event, dropping the oldest record when full.
    #[inline]
    pub(crate) fn push(&mut self, ev: TraceEvent) {
        if !self.events_on {
            return;
        }
        if self.ring.len() == self.cap {
            self.ring.pop_front();
            self.dropped += 1;
        }
        self.ring.push_back(ev);
        self.recorded += 1;
    }

    /// Snapshot the retained events in record order.
    pub(crate) fn events(&self) -> Vec<TraceEvent> {
        self.ring.iter().copied().collect()
    }

    /// Events appended over the tracer's lifetime.
    pub(crate) fn recorded(&self) -> u64 {
        self.recorded
    }

    /// Events evicted by the bounded ring.
    pub(crate) fn dropped(&self) -> u64 {
        self.dropped
    }
}

/// Virtual thread lanes the Chrome exporter sorts events onto.
mod tid {
    /// Machine-level lane: concurrency counter, mounts, loop edges.
    pub const MACHINE: u32 = 0;
    /// Stepping-engine lane: dense window spans.
    pub const ENGINE: u32 = 1;
    /// CCB lane: iteration grants and drains.
    pub const CCB: u32 = 2;
    /// Monitor lane: probe triggers.
    pub const MONITOR: u32 = 3;
}

/// Streaming builder for Chrome `trace_event` JSON (the "JSON array
/// format" with a `traceEvents` wrapper, loadable in Perfetto and
/// `chrome://tracing`).
///
/// Each call to [`ChromeTraceBuilder::add_process`] emits one session's
/// events under its own `pid`, with named thread lanes for the machine,
/// the stepping engines, the CCB, and the monitor. Timestamps convert
/// cycles to microseconds via the machine's `ns_per_cycle`.
#[derive(Debug)]
pub struct ChromeTraceBuilder {
    out: String,
    first: bool,
}

impl ChromeTraceBuilder {
    /// Start an empty trace document.
    pub fn new() -> Self {
        ChromeTraceBuilder {
            out: String::from("{\"traceEvents\":["),
            first: true,
        }
    }

    fn raw(&mut self, record: &str) {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push_str(record);
    }

    fn meta(&mut self, pid: u32, tid: u32, what: &str, name: &str) {
        self.raw(&format!(
            "{{\"name\":\"{what}\",\"ph\":\"M\",\"pid\":{pid},\"tid\":{tid},\
             \"args\":{{\"name\":\"{name}\"}}}}"
        ));
    }

    fn instant(&mut self, pid: u32, tid: u32, name: &str, ts: f64, args: &str) {
        self.raw(&format!(
            "{{\"name\":\"{name}\",\"ph\":\"i\",\"s\":\"t\",\"ts\":{ts},\
             \"pid\":{pid},\"tid\":{tid},\"args\":{{{args}}}}}"
        ));
    }

    /// Emit one session's events as process `pid` named `name`.
    pub fn add_process(&mut self, pid: u32, name: &str, events: &[TraceEvent], ns_per_cycle: u64) {
        self.meta(pid, tid::MACHINE, "process_name", name);
        self.meta(pid, tid::MACHINE, "thread_name", "machine");
        self.meta(pid, tid::ENGINE, "thread_name", "engine");
        self.meta(pid, tid::CCB, "thread_name", "ccb");
        self.meta(pid, tid::MONITOR, "thread_name", "monitor");
        let us = |c: Cycle| c as f64 * ns_per_cycle as f64 / 1000.0;
        for ev in events {
            match *ev {
                TraceEvent::Transition { at, to, .. } => {
                    self.raw(&format!(
                        "{{\"name\":\"concurrency\",\"ph\":\"C\",\"ts\":{},\
                         \"pid\":{pid},\"tid\":{},\"args\":{{\"active\":{to}}}}}",
                        us(at),
                        tid::MACHINE,
                    ));
                }
                TraceEvent::Mount { at, kind } => {
                    let name = format!("mount:{}", kind.name());
                    self.instant(pid, tid::MACHINE, &name, us(at), "");
                }
                TraceEvent::LoopStart { at, lanes, total } => {
                    let args = format!("\"lanes\":{lanes},\"total\":{total}");
                    self.instant(pid, tid::MACHINE, "loop:start", us(at), &args);
                }
                TraceEvent::CcbGrant {
                    at,
                    ce,
                    iter,
                    waited,
                } => {
                    let args = format!("\"ce\":{ce},\"iter\":{iter},\"waited\":{waited}");
                    self.instant(pid, tid::CCB, "ccb:grant", us(at), &args);
                }
                TraceEvent::CeDrained { at, ce } => {
                    let args = format!("\"ce\":{ce}");
                    self.instant(pid, tid::CCB, "ccb:drained", us(at), &args);
                }
                TraceEvent::ProbeTrigger { at, trigger } => {
                    let name = format!("probe:{}", trigger.name());
                    self.instant(pid, tid::MONITOR, &name, us(at), "");
                }
                TraceEvent::DenseWindow {
                    from,
                    cycles,
                    skipped,
                } => {
                    self.raw(&format!(
                        "{{\"name\":\"dense\",\"ph\":\"X\",\"ts\":{},\
                         \"dur\":{},\"pid\":{pid},\"tid\":{},\
                         \"args\":{{\"cycles\":{cycles},\"skipped\":{skipped}}}}}",
                        us(from),
                        cycles as f64 * ns_per_cycle as f64 / 1000.0,
                        tid::ENGINE,
                    ));
                }
            }
        }
    }

    /// Close the document and return the JSON text.
    pub fn finish(mut self) -> String {
        self.out.push_str("]}");
        self.out
    }
}

impl Default for ChromeTraceBuilder {
    fn default() -> Self {
        ChromeTraceBuilder::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_buckets_by_significant_bits() {
        let mut h = LatencyHistogram::new();
        for v in [0, 1, 2, 3, 4, 7, 8, 1 << 20] {
            h.record(v);
        }
        assert_eq!(h.count, 8);
        assert_eq!(h.buckets[0], 1); // 0
        assert_eq!(h.buckets[1], 1); // 1
        assert_eq!(h.buckets[2], 2); // 2, 3
        assert_eq!(h.buckets[3], 2); // 4, 7
        assert_eq!(h.buckets[4], 1); // 8
        assert_eq!(h.buckets[LatencyHistogram::NUM_BUCKETS - 1], 1); // 2^20
        assert_eq!(h.max, 1 << 20);
        assert!(h.mean() > 0.0);
    }

    #[test]
    fn ring_drops_oldest_and_counts() {
        let cfg = TraceConfig {
            metrics: false,
            events: true,
            event_capacity: 4,
        };
        let mut t = Tracer::new(&cfg);
        for i in 0..10u64 {
            t.push(TraceEvent::Transition {
                at: i,
                from: 0,
                to: 1,
            });
        }
        assert_eq!(t.recorded(), 10);
        assert_eq!(t.dropped(), 6);
        let evs = t.events();
        assert_eq!(evs.len(), 4);
        assert_eq!(evs[0].at(), 6, "oldest records evicted first");
        assert_eq!(evs[3].at(), 9);
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(&TraceConfig::metrics_only());
        t.push(TraceEvent::Mount {
            at: 1,
            kind: MountKind::Serial,
        });
        assert_eq!(t.recorded(), 0);
        assert!(t.events().is_empty());
    }

    #[test]
    fn chrome_export_is_wellformed() {
        let events = [
            TraceEvent::Mount {
                at: 0,
                kind: MountKind::Loop,
            },
            TraceEvent::Transition {
                at: 5,
                from: 0,
                to: 8,
            },
            TraceEvent::DenseWindow {
                from: 10,
                cycles: 100,
                skipped: 40,
            },
            TraceEvent::CcbGrant {
                at: 110,
                ce: 3,
                iter: 7,
                waited: 12,
            },
            TraceEvent::ProbeTrigger {
                at: 120,
                trigger: TriggerKind::AllCesActive,
            },
        ];
        let mut b = ChromeTraceBuilder::new();
        b.add_process(0, "fx8", &events, 170);
        let json = b.finish();
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.ends_with("]}"));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ph\":\"C\""));
        assert!(json.contains("probe:all-active"));
        // Balanced braces (cheap structural sanity; the full parse-back
        // round trip lives in tests/observability.rs).
        let opens = json.matches('{').count();
        let closes = json.matches('}').count();
        assert_eq!(opens, closes);
    }

    #[test]
    fn engine_cycles_consistency() {
        let e = EngineCycles {
            scalar: 10,
            dense: 20,
            skipped: 30,
            total: 60,
        };
        assert!(e.consistent());
        let mut sum = e;
        sum.add(&e);
        assert_eq!(sum.total, 120);
        assert!(sum.consistent());
    }
}
