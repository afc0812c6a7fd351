//! The assembled Computational Cluster.
//!
//! Wires the CEs, the shared cache system, the crossbar, the memory buses,
//! the Concurrency Control Bus, the paging layer and the IP background load
//! into one machine. [`Cluster::step`] advances a single bus cycle and
//! returns the [`ProbeWord`] a logic analyzer probing the machine would
//! capture in that cycle — the entire measurement methodology sits on top
//! of this function.
//!
//! This module holds the machine's state, its mounts and the run loop that
//! picks a stepping engine per stretch of cycles. What one CE does on one
//! cycle is written once, in `lane`; the two engines share it and differ
//! only in scheduling:
//!
//! * `scalar` — [`Cluster::step`]'s per-cycle stepper, the oracle, which
//!   also owns the CCB-resolution cycles (grants, exhaustion, join);
//! * `dense` — the SoA batch kernel for every stretch no analyzer
//!   observes, idle or loaded, which jumps its own quiet stretches.

mod dense;
mod lane;
mod scalar;

use crate::addr::KERNEL_ASID;
use crate::ccb::Ccb;
use crate::ce::{Ce, CeRole, CeState};
use crate::coherence::CacheSystem;
use crate::config::MachineConfig;
use crate::crossbar::Crossbar;
use crate::ip::IpSubsystem;
use crate::membus::MemBusSystem;
use crate::probe::ProbeWord;
use crate::stream::{LoopBody, SerialCode};
use crate::vm::Vm;
use crate::{Asid, CeId, Cycle, LaneWord};

/// What is mounted on the cluster.
enum Load {
    /// Nothing scheduled on the cluster.
    Idle,
    /// A serial program section.
    Serial {
        code: Box<dyn SerialCode>,
        asid: Asid,
    },
    /// A concurrent loop; `after` is the serial continuation the
    /// last-iteration CE executes once the loop drains.
    Loop {
        body: Box<dyn LoopBody>,
        after: Box<dyn SerialCode>,
        asid: Asid,
    },
    /// The loop drained inside a window; its serial continuation runs.
    Drained {
        code: Box<dyn SerialCode>,
        asid: Asid,
    },
}

/// Coarse answer to "what is the cluster doing?" for the macro layer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoadKind {
    /// Nothing mounted.
    Idle,
    /// Serial section executing.
    Serial,
    /// Concurrent loop executing.
    Loop,
    /// Loop drained; serial continuation executing.
    Drained,
}

/// Action to finish when a miss stall expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResumeAction {
    /// Install the fetched instruction line.
    FillIFetch(crate::addr::LineId),
    /// Complete the current operand op.
    FinishOp,
}

/// The machine.
pub struct Cluster {
    cfg: MachineConfig,
    now: Cycle,
    pub(crate) ces: Vec<Ce>,
    resume_actions: Vec<Option<ResumeAction>>,
    /// Per-CE bit: the current op's VM check has been performed.
    vm_checked: LaneWord,
    /// Per-CE bit: the current op's instruction fetch has been performed.
    op_fetched: LaneWord,
    pub(crate) caches: CacheSystem,
    pub(crate) crossbar: Crossbar,
    pub(crate) membus: MemBusSystem,
    pub(crate) ccb: Ccb,
    vm: Vm,
    ip: IpSubsystem,
    load: Load,
    detached: Vec<Option<(Box<dyn SerialCode>, Asid)>>,
    fault_seq: u64,
    /// Earliest future cycle an armed analyzer needs to observe; the
    /// dense kernel never runs up to or past it, so a monitor can
    /// thread its probe/timeout deadline through [`Cluster::set_next_probe_at`]
    /// and still see every cycle it cares about stepped individually.
    next_probe_at: Option<Cycle>,
    /// Cycles the dense kernel jumped in quiet stretches of two or more (a
    /// subset of `cycles_total`). Intentionally absent from
    /// [`Cluster::state_digest`]: the skip ratio is the one piece of state
    /// that differs by design between the jumping and per-cycle
    /// trajectories.
    cycles_skipped: u64,
    /// Cycles the dense SoA batch stepper stepped (a subset of
    /// `cycles_total`, disjoint from `cycles_skipped`). Like the skip
    /// counter, this is bookkeeping about *how* the machine advanced and
    /// is excluded from [`Cluster::state_digest`].
    cycles_dense: u64,
    /// Total cycles advanced, stepped or skipped.
    cycles_total: u64,
    /// `fx8-trace` observability. `None` unless `cfg.trace` arms it, so a
    /// disabled tracer costs one predictable branch at the non-hot hook
    /// sites and nothing inside the dense lane loop. Pure observer: its
    /// state never feeds back into stepping and is excluded from
    /// [`Cluster::state_digest`], like the engine residency counters.
    tracer: Option<Box<crate::trace::Tracer>>,
    /// Per-cycle invariant checker (compiled in under the `audit` feature).
    #[cfg(feature = "audit")]
    auditor: crate::audit::Auditor,
}

impl Cluster {
    /// Build a machine from `cfg`, deterministic under `seed`.
    pub fn new(cfg: MachineConfig, seed: u64) -> Self {
        cfg.validate().expect("valid machine configuration");
        let n = cfg.n_ces;
        let ces = (0..n)
            .map(|i| Ce::new(i, cfg.icache_bytes, cfg.icache_line_bytes))
            .collect();
        let tracer = if cfg.trace.enabled() {
            Some(Box::new(crate::trace::Tracer::new(&cfg.trace)))
        } else {
            None
        };
        Cluster {
            caches: CacheSystem::new(cfg.cache, 32 * 1024),
            crossbar: Crossbar::new(n, cfg.cache.banks, cfg.crossbar_arbitration),
            membus: MemBusSystem::new(
                cfg.mem_buses,
                cfg.mem_interleave,
                cfg.mem_latency_cycles,
                cfg.line_transfer_cycles,
            ),
            ccb: Ccb::new(n, cfg.ccb_arbitration, cfg.ccb_grant_cycles),
            vm: Vm::new(cfg.phys_frames(), n),
            ip: IpSubsystem::new(seed),
            load: Load::Idle,
            detached: (0..n).map(|_| None).collect(),
            resume_actions: vec![None; n],
            vm_checked: 0,
            op_fetched: 0,
            ces,
            now: 0,
            cfg,
            fault_seq: 0,
            next_probe_at: None,
            cycles_skipped: 0,
            cycles_dense: 0,
            cycles_total: 0,
            tracer,
            #[cfg(feature = "audit")]
            auditor: crate::audit::Auditor::default(),
        }
    }

    /// The machine configuration.
    pub fn config(&self) -> &MachineConfig {
        &self.cfg
    }

    /// Current simulated cycle.
    pub fn now(&self) -> Cycle {
        self.now
    }

    /// Jump the machine clock forward (macro-level time passing between
    /// captured windows). Panics if moving backwards.
    pub fn advance_clock(&mut self, to: Cycle) {
        assert!(to >= self.now, "clock cannot move backwards");
        self.now = to;
        #[cfg(feature = "audit")]
        self.auditor.note_external_change();
    }

    /// Snapshot of the invariant auditor's findings for this machine.
    /// With the `audit` feature off this is always the empty report.
    pub fn audit_report(&self) -> crate::audit::AuditReport {
        #[cfg(feature = "audit")]
        return self.auditor.report().clone();
        #[cfg(not(feature = "audit"))]
        crate::audit::AuditReport::default()
    }

    /// File a violation detected by an external cross-check (the monitor
    /// comparing reduced probe counts against ground-truth counters).
    #[cfg(feature = "audit")]
    pub fn audit_note_violation(&mut self, component: &str, expected: String, actual: String) {
        self.auditor
            .external_violation(self.now, component, expected, actual);
    }

    /// What the cluster is currently doing.
    pub fn load_kind(&self) -> LoadKind {
        match self.load {
            Load::Idle => LoadKind::Idle,
            Load::Serial { .. } => LoadKind::Serial,
            Load::Loop { .. } => LoadKind::Loop,
            Load::Drained { .. } => LoadKind::Drained,
        }
    }

    /// Iterations not yet handed out by the CCB.
    pub fn loop_remaining(&self) -> u64 {
        self.ccb.remaining()
    }

    /// Paging layer (fault counters, residency).
    pub fn vm(&self) -> &Vm {
        &self.vm
    }

    /// Mutable paging layer (macro fault accounting).
    pub fn vm_mut(&mut self) -> &mut Vm {
        &mut self.vm
    }

    /// Shared cache system statistics.
    pub fn cache_stats(&self) -> crate::coherence::SystemStats {
        self.caches.stats()
    }

    /// CCB dispatch statistics.
    pub fn ccb_stats(&self) -> &crate::ccb::CcbStats {
        self.ccb.stats()
    }

    /// Crossbar contention statistics.
    pub fn crossbar_stats(&self) -> &crate::crossbar::CrossbarStats {
        self.crossbar.stats()
    }

    /// Per-CE counters.
    pub fn ce_stats(&self, ce: CeId) -> crate::ce::CeStats {
        self.ces[ce].stats
    }

    /// Scale the IP background load (session-level interactive intensity).
    pub fn set_ip_intensity(&mut self, intensity: f64) {
        self.ip.set_intensity(intensity);
    }

    #[inline]
    fn reset_op_flags(&mut self, ce: CeId) {
        let keep = !(1 << ce);
        self.vm_checked &= keep;
        self.op_fetched &= keep;
    }

    /// Unmount everything from the cluster (detached jobs stay).
    pub fn mount_idle(&mut self) {
        #[cfg(feature = "audit")]
        self.auditor.note_external_change();
        self.load = Load::Idle;
        self.ccb.clear();
        for i in 0..self.ces.len() {
            // A detached CE keeps running through the remount, mid-miss
            // or mid-op included.
            if self.detached[i].is_none() {
                self.ces[i].unmount();
                self.resume_actions[i] = None;
                self.reset_op_flags(i);
            }
        }
        let now = self.now;
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.push(crate::trace::TraceEvent::Mount {
                at: now,
                kind: crate::trace::MountKind::Idle,
            });
        }
    }

    /// CEs not occupied by detached processes.
    fn free_ces(&self) -> Vec<CeId> {
        (0..self.ces.len())
            .filter(|&i| self.detached[i].is_none())
            .collect()
    }

    /// Mount a serial cluster section on `ce` (or the first free CE).
    pub fn mount_serial(&mut self, code: Box<dyn SerialCode>, asid: Asid, ce: Option<CeId>) {
        self.mount_idle();
        let free = self.free_ces();
        assert!(!free.is_empty(), "no free CE for serial work");
        let leader = ce.filter(|c| free.contains(c)).unwrap_or(free[0]);
        self.ces[leader].set_code(code.code());
        self.ces[leader].role = CeRole::ClusterSerial;
        self.ces[leader].state = CeState::Ready;
        self.load = Load::Serial { code, asid };
        let now = self.now;
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.push(crate::trace::TraceEvent::Mount {
                at: now,
                kind: crate::trace::MountKind::Serial,
            });
        }
    }

    /// Mount a concurrent loop: iterations `first..total` remain to run
    /// (macro progress already consumed `0..first`), with `after` as the
    /// serial continuation for the last-iteration CE.
    pub fn mount_loop(
        &mut self,
        body: Box<dyn LoopBody>,
        first: u64,
        total: u64,
        after: Box<dyn SerialCode>,
        asid: Asid,
    ) {
        self.mount_idle();
        let free = self.free_ces();
        assert!(!free.is_empty(), "no free CE for loop work");
        self.ccb.start_loop(first, total);
        let region = body.code();
        for &i in &free {
            self.ces[i].set_code(region);
            self.ces[i].role = CeRole::Worker;
            self.ces[i].state = CeState::AwaitIter;
        }
        self.load = Load::Loop { body, after, asid };
        let now = self.now;
        if let Some(tr) = self.tracer.as_deref_mut() {
            for &i in &free {
                tr.iter_wait_since[i] = now;
            }
            tr.push(crate::trace::TraceEvent::Mount {
                at: now,
                kind: crate::trace::MountKind::Loop,
            });
            tr.push(crate::trace::TraceEvent::LoopStart {
                at: now,
                lanes: free.len() as u32,
                total: total.saturating_sub(first),
            });
        }
    }

    /// Mount a detached, exclusively-serial process on CE `ce`. It will
    /// execute whenever the cluster has not claimed that CE and never
    /// asserts the CCB activity line.
    pub fn mount_detached(&mut self, ce: CeId, code: Box<dyn SerialCode>, asid: Asid) {
        #[cfg(feature = "audit")]
        self.auditor.note_external_change();
        self.ces[ce].unmount();
        self.ces[ce].set_code(code.code());
        self.ces[ce].role = CeRole::Detached;
        self.ces[ce].state = CeState::Ready;
        self.detached[ce] = Some((code, asid));
        self.resume_actions[ce] = None;
        self.reset_op_flags(ce);
        let now = self.now;
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.push(crate::trace::TraceEvent::Mount {
                at: now,
                kind: crate::trace::MountKind::Detached,
            });
        }
    }

    /// Remove the detached process from CE `ce`.
    pub fn clear_detached(&mut self, ce: CeId) {
        #[cfg(feature = "audit")]
        self.auditor.note_external_change();
        self.detached[ce] = None;
        if self.ces[ce].role == CeRole::Detached {
            self.ces[ce].unmount();
        }
    }

    /// Run `n` cycles, discarding the probe words. Takes the quiet fast
    /// path: the machine advances bit-identically to [`Cluster::step`],
    /// but the memory-bus probe decode is skipped since no analyzer is
    /// armed to read it. Every stretch the dense kernel can take goes
    /// through [`Cluster::advance_unobserved`]; the cycles it cannot fall
    /// back to the scalar per-cycle stepper.
    pub fn run(&mut self, n: u64) {
        let end = self.now + n;
        while self.now < end {
            if self.advance_unobserved(end - self.now) == 0 {
                self.step_cycle(false);
            }
        }
    }

    /// Advance one stretch of at most `limit` cycles that no analyzer
    /// observes, as one window of the dense kernel (which jumps the
    /// stretch's quiet cycles when `fast_forward` is on).
    /// Returns the cycles advanced, bit-identically to that many
    /// [`Cluster::step`] calls with the probe words discarded; 0 means
    /// the next cycle must be stepped by the scalar stepper. Never runs
    /// into the cycle [`Cluster::set_next_probe_at`] names.
    ///
    /// CCB activity is role-derived and roles only change on scalar
    /// cycles, so [`Cluster::active_count`] is constant across every
    /// stretch this returns: an armed analyzer whose trigger is dormant
    /// at that count can let the stretch pass unseen.
    pub fn advance_unobserved(&mut self, limit: u64) -> u64 {
        if self.dense_eligible() {
            self.step_dense(limit)
        } else {
            0
        }
    }

    /// Run `n` cycles, collecting the probe words.
    pub fn capture(&mut self, n: usize) -> Vec<ProbeWord> {
        (0..n).map(|_| self.step()).collect()
    }

    /// Promote the drained loop's serial continuation onto CE `ce`.
    fn promote_to_drained(&mut self, ce: CeId) {
        let load = std::mem::replace(&mut self.load, Load::Idle);
        if let Load::Loop { after, asid, .. } = load {
            self.ces[ce].set_code(after.code());
            self.ces[ce].role = CeRole::ClusterSerial;
            self.ces[ce].state = CeState::Ready;
            self.reset_op_flags(ce);
            self.load = Load::Drained { code: after, asid };
            let now = self.now;
            if let Some(tr) = self.tracer.as_deref_mut() {
                tr.push(crate::trace::TraceEvent::CeDrained {
                    at: now,
                    ce: ce as u32,
                });
            }
        } else {
            // Not a loop (should not happen): restore.
            self.load = load;
        }
    }

    /// The address space of the cluster program currently mounted, or the
    /// kernel ASID when idle. Detached per-CE ASIDs are tracked separately.
    pub fn current_asid(&self) -> Asid {
        match &self.load {
            Load::Serial { asid, .. } | Load::Loop { asid, .. } | Load::Drained { asid, .. } => {
                *asid
            }
            Load::Idle => KERNEL_ASID,
        }
    }

    /// Advance one bus cycle; returns the record the probes capture.
    pub fn step(&mut self) -> ProbeWord {
        self.step_cycle(true)
    }

    /// Tell the dense kernel the earliest future cycle
    /// an armed analyzer must observe. [`Cluster::advance_unobserved`]
    /// will stop short of it so the monitor steps that cycle itself; pass
    /// `None` to lift the cap.
    pub fn set_next_probe_at(&mut self, at: Option<Cycle>) {
        self.next_probe_at = at;
    }

    /// Cycles retired per stepping engine. Scalar cycles are the remainder
    /// once the dense kernel accounts for its stepped and jumped ones, so the
    /// split always partitions `cycles_total`. This is bookkeeping about
    /// *how* the machine was advanced, not machine state — it is excluded
    /// from [`Cluster::state_digest`] on purpose.
    pub fn engine_cycles(&self) -> crate::trace::EngineCycles {
        crate::trace::EngineCycles {
            scalar: self.cycles_total - self.cycles_dense - self.cycles_skipped,
            dense: self.cycles_dense,
            skipped: self.cycles_skipped,
            total: self.cycles_total,
        }
    }

    /// Sample the `fx8-trace` metrics registry: one consistent snapshot of
    /// every subsystem's monotonic counters. Always available — the
    /// subsystem counters exist regardless of [`crate::config::TraceConfig`] — but
    /// the dispatch-to-grant histogram only fills when `trace.metrics` was
    /// armed at construction.
    pub fn metrics(&self) -> crate::trace::MetricsSnapshot {
        let cache = self.caches.stats();
        let faults = self.vm.total_faults();
        let ccb = self.ccb.stats();
        let xbar = self.crossbar.stats();
        let bus = self.membus.stats();
        crate::trace::MetricsSnapshot {
            cycles: self.engine_cycles(),
            instrs: self.ces.iter().map(|ce| ce.stats.instrs).sum(),
            iters_completed: self.ces.iter().map(|ce| ce.stats.iters_completed).sum(),
            crossbar_grants: xbar.grants,
            crossbar_retries: xbar.denials,
            crossbar_grants_by_bank: xbar.grants_by_bank.clone(),
            membus_busy_cycles: bus.busy_cycles,
            membus_ops_by_kind: bus.by_op.to_vec(),
            cache_ce_accesses: cache.ce_accesses,
            cache_ce_misses: cache.ce_misses,
            ccb_grants_by_ce: ccb.grants_by_ce.clone(),
            ccb_grant_wait_cycles: ccb.grant_wait_cycles,
            ccb_sync_wait_cycles: ccb.sync_wait_cycles,
            ccb_grant_latency: self
                .tracer
                .as_deref()
                .map(|t| t.grant_latency)
                .unwrap_or_default(),
            vm_user_faults: faults.user,
            vm_system_faults: faults.system,
            events_recorded: self.tracer.as_deref().map_or(0, |t| t.recorded()),
            events_dropped: self.tracer.as_deref().map_or(0, |t| t.dropped()),
        }
    }

    /// Snapshot of the retained event trace, oldest first. Empty unless
    /// `trace.events` was armed at construction.
    pub fn trace_events(&self) -> Vec<crate::trace::TraceEvent> {
        self.tracer
            .as_deref()
            .map(|t| t.events())
            .unwrap_or_default()
    }

    /// Events evicted by the bounded trace ring so far.
    pub fn trace_dropped_events(&self) -> u64 {
        self.tracer.as_deref().map_or(0, |t| t.dropped())
    }

    /// Record a probe-trigger event on behalf of an armed analyzer (the
    /// DAS monitor calls this when its trigger condition fires). A no-op
    /// unless the event trace is armed.
    pub fn note_probe_trigger(&mut self, trigger: crate::trace::TriggerKind) {
        let now = self.now;
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.push(crate::trace::TraceEvent::ProbeTrigger { at: now, trigger });
        }
    }

    /// Number of CEs currently concurrency-active: the population count the
    /// next probe word's `active_mask` would report. Armed monitors use
    /// this to decide whether their trigger is dormant (and the machine can
    /// advance unobserved) without stepping a cycle.
    pub fn active_count(&self) -> u32 {
        self.ces.iter().filter(|ce| ce.is_ccb_active()).count() as u32
    }

    /// Render every architecturally observable piece of machine state into
    /// a deterministic string, so differential tests can assert that the
    /// scalar stepper and the dense kernel, with or without its jumps,
    /// give bit-identical trajectories. Excludes the engine counters
    /// (they differ by design); the IP issue count stands in
    /// for the RNG stream position (equal draws => equal position).
    pub fn state_digest(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = write!(
            s,
            "now={} load={:?} asid={} fault_seq={} faults={:?} ip_issued={}",
            self.now,
            self.load_kind(),
            self.current_asid(),
            self.fault_seq,
            self.vm.total_faults(),
            self.ip.issued(),
        );
        for (i, ce) in self.ces.iter().enumerate() {
            let _ = write!(
                s,
                "\nce{}={:?} resume={:?} vm_checked={} op_fetched={}",
                i,
                ce,
                self.resume_actions[i],
                self.vm_checked >> i & 1 != 0,
                self.op_fetched >> i & 1 != 0,
            );
        }
        let _ = write!(
            s,
            "\nccb: progress={:?} sync={} stats={:?}",
            self.ccb.progress(),
            self.ccb.sync_value(),
            self.ccb.stats(),
        );
        let _ = write!(s, "\ncrossbar={:?}", self.crossbar.stats());
        let _ = write!(s, "\nmembus={:?}", self.membus.stats());
        let _ = write!(s, "\ncaches={:?}", self.caches.stats());
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VAddr;
    use crate::opcode::MemBusOp;
    use crate::stream::Op;
    use crate::stream::{CodeRegion, StridedLoop, StridedSerial};

    fn serial_code(asid: Asid) -> Box<dyn SerialCode> {
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

    fn loop_body(asid: Asid) -> Box<dyn LoopBody> {
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

    fn cluster() -> Cluster {
        let mut c = Cluster::new(MachineConfig::fx8(), 42);
        c.set_ip_intensity(0.0);
        c
    }

    #[test]
    fn idle_cluster_produces_idle_records() {
        let mut c = cluster();
        for w in c.capture(100) {
            assert_eq!(w.active_count(), 0);
            assert!(w.ce_ops.iter().all(|op| !op.is_busy()));
        }
    }

    #[test]
    fn serial_section_shows_exactly_one_active_ce() {
        let mut c = cluster();
        c.mount_serial(serial_code(1), 1, Some(2));
        let words = c.capture(500);
        for w in &words {
            assert_eq!(w.active_count(), 1, "serial = 1-active");
            assert!(w.is_active(2));
        }
        // It actually executes: some bus activity appears.
        assert!(words.iter().any(|w| w.ce_ops[2].is_busy()));
    }

    #[test]
    fn long_loop_reaches_full_concurrency() {
        let mut c = cluster();
        c.mount_loop(loop_body(1), 0, 100_000, serial_code(1), 1);
        c.run(200); // let dispatch ramp up
        let words = c.capture(500);
        let full = words.iter().filter(|w| w.active_count() == 8).count();
        assert!(full > 450, "only {full}/500 records at 8-active");
    }

    #[test]
    fn loop_drains_and_serial_continuation_takes_over() {
        let mut c = cluster();
        c.mount_loop(loop_body(1), 0, 40, serial_code(1), 1);
        let mut kinds = Vec::new();
        for _ in 0..10_000 {
            c.step();
            kinds.push(c.load_kind());
            if c.load_kind() == LoadKind::Drained {
                break;
            }
        }
        assert_eq!(c.load_kind(), LoadKind::Drained, "loop must drain");
        // After draining, exactly one CE is active (the serial successor).
        c.run(10);
        let w = c.step();
        assert_eq!(w.active_count(), 1, "post-loop serial continuation");
    }

    #[test]
    fn transition_passes_through_decreasing_activity() {
        let mut c = cluster();
        c.mount_loop(loop_body(1), 0, 200, serial_code(1), 1);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..50_000 {
            let w = c.step();
            seen.insert(w.active_count());
            if c.load_kind() == LoadKind::Drained {
                break;
            }
        }
        // The drain must pass through intermediate concurrency levels.
        assert!(seen.contains(&8));
        assert!(seen.contains(&1));
        assert!(
            seen.iter().any(|&k| (2..8).contains(&k)),
            "no intermediate levels observed: {seen:?}"
        );
    }

    #[test]
    fn iterations_complete_exactly_once() {
        let mut c = cluster();
        let total = 137;
        c.mount_loop(loop_body(1), 0, total, serial_code(1), 1);
        for _ in 0..100_000 {
            c.step();
            if c.load_kind() == LoadKind::Drained {
                break;
            }
        }
        let done: u64 = (0..8).map(|i| c.ce_stats(i).iters_completed).sum();
        assert_eq!(done, total);
    }

    #[test]
    fn resumed_loop_executes_only_remaining_iterations() {
        let mut c = cluster();
        c.mount_loop(loop_body(1), 95, 100, serial_code(1), 1);
        for _ in 0..50_000 {
            c.step();
            if c.load_kind() == LoadKind::Drained {
                break;
            }
        }
        let done: u64 = (0..8).map(|i| c.ce_stats(i).iters_completed).sum();
        assert_eq!(done, 5, "only the 5 remaining iterations run");
    }

    #[test]
    fn detached_process_is_never_ccb_active() {
        let mut c = cluster();
        c.mount_detached(5, serial_code(9), 9);
        let words = c.capture(300);
        for w in &words {
            assert_eq!(
                w.active_count(),
                0,
                "detached work must not assert CCB lines"
            );
        }
        // But it does generate bus traffic.
        assert!(words.iter().any(|w| w.ce_ops[5].is_busy()));
    }

    #[test]
    fn detached_ce_excluded_from_loop_scheduling() {
        let mut c = cluster();
        c.mount_detached(0, serial_code(9), 9);
        c.mount_loop(loop_body(1), 0, 50_000, serial_code(1), 1);
        c.run(200);
        let words = c.capture(300);
        for w in &words {
            assert!(!w.is_active(0), "detached CE0 must not join the loop");
        }
        let full = words.iter().filter(|w| w.active_count() == 7).count();
        assert!(full > 200, "remaining 7 CEs should run the loop: {full}");
    }

    #[test]
    fn misses_generate_memory_bus_fetches() {
        let mut c = cluster();
        c.mount_serial(serial_code(1), 1, None);
        let words = c.capture(3_000);
        let fetches = words.iter().filter(|w| w.mem_op == MemBusOp::Fetch).count();
        assert!(fetches > 0, "strided serial march must miss sometimes");
    }

    #[test]
    fn page_faults_are_counted_and_stall() {
        let mut c = cluster();
        c.mount_serial(serial_code(1), 1, None);
        c.run(5_000);
        assert!(c.vm().total_faults().total() > 0, "cold pages must fault");
    }

    #[test]
    fn dependent_loop_obeys_sync_order() {
        // A loop whose iterations post in order: iteration i awaits i, posts i+1.
        struct DepLoop {
            region: CodeRegion,
            log: std::sync::Arc<parking_lot_free::Log>,
        }
        // Minimal shared log without external deps.
        mod parking_lot_free {
            use std::sync::Mutex;
            #[derive(Default)]
            pub struct Log(pub Mutex<Vec<u64>>);
        }
        impl LoopBody for DepLoop {
            fn code(&self) -> CodeRegion {
                self.region
            }
            fn gen_iteration(&mut self, iter: u64, _ce: CeId, out: &mut Vec<Op>) {
                out.push(Op::Compute(3));
                out.push(Op::AwaitSync(iter));
                out.push(Op::PostSync(iter + 1));
                self.log.0.lock().unwrap().push(iter);
            }
        }
        let log = std::sync::Arc::new(parking_lot_free::Log::default());
        let body = DepLoop {
            region: CodeRegion {
                base: VAddr::new(1, 0),
                footprint_bytes: 128,
                bytes_per_instr: 4,
            },
            log: log.clone(),
        };
        let mut c = cluster();
        c.mount_loop(Box::new(body), 0, 40, serial_code(1), 1);
        for _ in 0..200_000 {
            c.step();
            if c.load_kind() == LoadKind::Drained {
                break;
            }
        }
        assert_eq!(
            c.load_kind(),
            LoadKind::Drained,
            "dependent loop must not deadlock"
        );
        let done: u64 = (0..8).map(|i| c.ce_stats(i).iters_completed).sum();
        assert_eq!(done, 40);
        assert!(
            c.ccb_stats().sync_wait_cycles > 0,
            "dependence must cause waiting"
        );
    }

    #[test]
    fn determinism_same_seed_same_trace() {
        let run = |seed| {
            let mut c = Cluster::new(MachineConfig::fx8(), seed);
            c.set_ip_intensity(0.05);
            c.mount_loop(loop_body(1), 0, 10_000, serial_code(1), 1);
            c.capture(2_000)
        };
        assert_eq!(run(7), run(7));
    }

    #[test]
    fn advance_clock_moves_time_forward_only() {
        let mut c = cluster();
        c.advance_clock(1_000);
        assert_eq!(c.now(), 1_000);
        let w = c.step();
        assert_eq!(w.cycle, 1_000);
    }

    #[test]
    #[should_panic(expected = "clock cannot move backwards")]
    fn advance_clock_rejects_backwards() {
        let mut c = cluster();
        c.advance_clock(10);
        c.advance_clock(5);
    }

    fn ff_off_config() -> MachineConfig {
        let mut cfg = MachineConfig::fx8();
        cfg.fast_forward = false;
        cfg
    }

    /// Drive a workload with fast-forward on and off and assert the
    /// trajectories are bit-identical: same digest of all observable state
    /// and same probe words captured afterwards. Returns the cycles the
    /// fast-forward run actually skipped.
    #[cfg(not(feature = "audit"))]
    fn assert_ff_identical(mount: impl Fn(&mut Cluster), run_cycles: u64) -> u64 {
        let drive = |cfg: MachineConfig| {
            let mut c = Cluster::new(cfg, 42);
            c.set_ip_intensity(0.12);
            mount(&mut c);
            c.run(run_cycles);
            let words = c.capture(200);
            let skipped = c.engine_cycles().skipped;
            (c.state_digest(), words, skipped)
        };
        let (d_on, w_on, sk_on) = drive(MachineConfig::fx8());
        let (d_off, w_off, sk_off) = drive(ff_off_config());
        assert_eq!(sk_off, 0, "knob off must never skip");
        assert_eq!(d_on, d_off, "fast-forward diverged the machine state");
        assert_eq!(w_on, w_off, "fast-forward diverged the probe stream");
        sk_on
    }

    #[cfg(not(feature = "audit"))]
    #[test]
    fn fast_forward_bit_identical_on_idle() {
        let skipped = assert_ff_identical(|_| {}, 20_000);
        assert!(skipped > 15_000, "idle machine barely skipped: {skipped}");
    }

    #[cfg(not(feature = "audit"))]
    #[test]
    fn fast_forward_bit_identical_on_serial() {
        let skipped = assert_ff_identical(|c| c.mount_serial(serial_code(1), 1, None), 30_000);
        assert!(skipped > 5_000, "serial kernel barely skipped: {skipped}");
    }

    #[cfg(not(feature = "audit"))]
    #[test]
    fn fast_forward_bit_identical_on_loop() {
        let skipped = assert_ff_identical(
            |c| c.mount_loop(loop_body(1), 0, 5_000, serial_code(1), 1),
            60_000,
        );
        assert!(skipped > 5_000, "loop kernel barely skipped: {skipped}");
    }

    #[cfg(not(feature = "audit"))]
    #[test]
    fn fast_forward_bit_identical_with_detached_and_drain() {
        let skipped = assert_ff_identical(
            |c| {
                c.mount_detached(5, serial_code(9), 9);
                c.mount_loop(loop_body(1), 0, 60, serial_code(1), 1);
            },
            40_000,
        );
        assert!(skipped > 0);
    }

    /// Exercise the crossbar-retry horizon: with a slow cache service time
    /// every grant parks its bank for 9 cycles, so denied CEs spin in
    /// pure-retry windows that the fast-forward engine must skip — and
    /// account (denials, bus-busy cycles) — bit-identically.
    #[cfg(not(feature = "audit"))]
    #[test]
    fn fast_forward_bit_identical_under_bank_contention() {
        let slow = |ff: bool| {
            let mut cfg = MachineConfig::fx8();
            cfg.cache_hit_cycles = 9;
            cfg.fast_forward = ff;
            cfg
        };
        let drive = |cfg: MachineConfig| {
            let mut c = Cluster::new(cfg, 42);
            c.set_ip_intensity(0.12);
            c.mount_loop(loop_body(1), 0, 5_000, serial_code(1), 1);
            c.run(60_000);
            let words = c.capture(200);
            let skipped = c.engine_cycles().skipped;
            (c.state_digest(), words, skipped)
        };
        let (d_on, w_on, sk_on) = drive(slow(true));
        let (d_off, w_off, sk_off) = drive(slow(false));
        assert_eq!(sk_off, 0);
        assert_eq!(d_on, d_off, "retry skipping diverged the machine state");
        assert_eq!(w_on, w_off, "retry skipping diverged the probe stream");
        assert!(sk_on > 5_000, "contended loop barely skipped: {sk_on}");
    }

    #[cfg(not(feature = "audit"))]
    #[test]
    fn next_probe_at_caps_skipping() {
        let mut c = cluster();
        c.set_next_probe_at(Some(10));
        assert_eq!(c.advance_unobserved(1_000), 10, "skip stops at the probe");
        assert_eq!(c.now(), 10);
        assert_eq!(
            c.advance_unobserved(1_000),
            0,
            "the probe cycle itself must be stepped, not skipped"
        );
        c.set_next_probe_at(None);
        assert_eq!(c.advance_unobserved(1_000), 1_000, "cap lifted");
    }

    #[test]
    fn fast_forward_knob_off_disables_skipping() {
        let mut c = Cluster::new(ff_off_config(), 42);
        c.set_ip_intensity(0.0);
        c.run(1_000);
        let e = c.engine_cycles();
        assert_eq!((e.skipped, e.total), (0, 1_000));
    }

    /// A remount leaves a detached CE's in-flight miss alone: the CE wakes
    /// to fill its line or finish its op, not to issue the request again.
    #[test]
    fn a_remount_keeps_a_detached_miss_in_flight() {
        let mut c = cluster();
        c.mount_detached(5, serial_code(9), 9);
        while c.resume_actions[5].is_none() {
            assert!(c.now() < 10_000, "the detached CE never missed");
            c.step();
        }
        let in_flight = (c.resume_actions[5], c.vm_checked, c.op_fetched);
        c.mount_serial(serial_code(1), 1, None);
        assert_eq!((c.resume_actions[5], c.vm_checked, c.op_fetched), in_flight);
    }

    /// The dense kernel carries a drain whose successor awaits the join,
    /// accruing its active cycles, and leaves the join to the scalar
    /// stepper on the cycle after the last iteration completes.
    #[cfg(not(feature = "audit"))]
    #[test]
    fn a_parked_join_runs_dense_and_resolves_on_the_scalar_cycle() {
        /// A loop whose last iteration is its shortest, so the serial
        /// successor finishes first and parks in `AwaitJoin` while the other
        /// workers drain.
        struct ShortTail(u64);

        impl LoopBody for ShortTail {
            fn code(&self) -> CodeRegion {
                CodeRegion {
                    base: VAddr::new(1, 0x1000),
                    footprint_bytes: 256,
                    bytes_per_instr: 4,
                }
            }
            fn gen_iteration(&mut self, iter: u64, _ce: CeId, out: &mut Vec<Op>) {
                out.push(Op::Load(VAddr::new(1, 0x20_0000 + 64 * iter)));
                out.push(Op::Compute(if iter + 1 < self.0 { 600 } else { 20 }));
            }
        }

        let drive = |engines: bool| {
            let mut cfg = MachineConfig::fx8();
            cfg.dense_stepping = engines;
            cfg.fast_forward = engines;
            let mut c = Cluster::new(cfg, 42);
            c.set_ip_intensity(0.12);
            c.mount_loop(Box::new(ShortTail(40)), 0, 40, serial_code(1), 1);
            let mut joined_dense = 0;
            while c.load_kind() == LoadKind::Loop {
                let joined = c.ces.iter().any(|ce| ce.state == CeState::AwaitJoin);
                match c.advance_unobserved(500) {
                    0 => _ = c.step_cycle(false),
                    k if joined => joined_dense += k,
                    _ => {}
                }
                assert!(c.now() < 200_000, "the loop never drained");
            }
            c.run(2_000);
            let words = c.capture(200);
            (c.state_digest(), words, joined_dense)
        };
        let (d_on, w_on, joined_dense) = drive(true);
        let (d_off, w_off, _) = drive(false);
        assert!(joined_dense > 0, "no window ran beside the parked join");
        assert_eq!(d_on, d_off, "the drain diverged the machine state");
        assert_eq!(w_on, w_off, "the drain diverged the probe stream");
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audit_builds_never_skip() {
        // The auditor must stay an independent per-cycle oracle: even with
        // the knob on (the default), audit builds step every cycle.
        let mut c = cluster();
        c.run(1_000);
        let e = c.engine_cycles();
        assert_eq!((e.skipped, e.total), (0, 1_000));
    }

    #[cfg(feature = "audit")]
    #[test]
    fn audit_builds_never_dense_step() {
        // Same oracle-independence for the dense batch kernel: it retires
        // whole loop windows without ever calling the per-cycle auditor,
        // so `dense_eligible` is compile-time false under the feature and
        // a concurrent loop — the kernel's home turf — must run entirely
        // through the audited scalar stepper, and audit clean.
        let mut c = cluster();
        c.mount_loop(loop_body(1), 0, 10_000, serial_code(1), 1);
        c.run(20_000);
        assert_eq!(c.engine_cycles().dense, 0, "audit build dense-stepped");
        let report = c.audit_report();
        assert!(report.is_clean(), "audit violations: {report:?}");
    }

    #[test]
    fn tiny_machine_also_runs_loops() {
        let mut c = Cluster::new(MachineConfig::tiny(), 1);
        c.set_ip_intensity(0.0);
        c.mount_loop(loop_body(1), 0, 30, serial_code(1), 1);
        for _ in 0..100_000 {
            c.step();
            if c.load_kind() == LoadKind::Drained {
                break;
            }
        }
        assert_eq!(c.load_kind(), LoadKind::Drained);
        let done: u64 = (0..2).map(|i| c.ce_stats(i).iters_completed).sum();
        assert_eq!(done, 30);
    }

    /// Arming the tracer must be a pure observation: identical machine
    /// trajectory, digest and probe stream with it on or off.
    #[test]
    fn tracing_never_perturbs_the_machine() {
        let drive = |trace: crate::config::TraceConfig| {
            let mut cfg = MachineConfig::fx8();
            cfg.trace = trace;
            let mut c = Cluster::new(cfg, 42);
            c.set_ip_intensity(0.12);
            c.mount_loop(loop_body(1), 0, 2_000, serial_code(1), 1);
            c.run(30_000);
            let words = c.capture(200);
            (c.state_digest(), words)
        };
        let (d_off, w_off) = drive(crate::config::TraceConfig::off());
        let (d_on, w_on) = drive(crate::config::TraceConfig::full());
        assert_eq!(d_on, d_off, "tracing diverged the machine state");
        assert_eq!(w_on, w_off, "tracing diverged the probe stream");
    }

    #[test]
    fn armed_tracer_records_loop_lifecycle_and_metrics() {
        use crate::trace::TraceEvent as E;
        let mut cfg = MachineConfig::fx8();
        cfg.trace = crate::config::TraceConfig::full();
        let mut c = Cluster::new(cfg, 7);
        c.set_ip_intensity(0.0);
        c.mount_loop(loop_body(1), 0, 200, serial_code(1), 1);
        c.run(100_000);
        let events = c.trace_events();
        assert!(events.iter().any(|e| matches!(e, E::Mount { .. })));
        assert!(events.iter().any(|e| matches!(e, E::LoopStart { .. })));
        assert!(events.iter().any(|e| matches!(e, E::CcbGrant { .. })));
        assert!(events.iter().any(|e| matches!(e, E::Transition { .. })));
        let m = c.metrics();
        assert!(m.cycles.consistent(), "engine split must partition total");
        assert_eq!(m.cycles.total, 100_000);
        // Every CCB grant passed through the latency histogram (grants
        // only ever land in the scalar stepper).
        assert_eq!(
            m.ccb_grant_latency.count,
            m.ccb_grants_by_ce.iter().sum::<u64>()
        );
        // Per-bank grants partition total crossbar grants.
        assert_eq!(
            m.crossbar_grants_by_bank.iter().sum::<u64>(),
            m.crossbar_grants
        );
        assert_eq!(
            m.events_recorded,
            events.len() as u64 + c.trace_dropped_events()
        );
    }

    #[test]
    fn disabled_tracer_reports_empty_observability() {
        let mut c = cluster();
        c.mount_loop(loop_body(1), 0, 50, serial_code(1), 1);
        c.run(10_000);
        assert!(c.trace_events().is_empty());
        let m = c.metrics();
        assert!(m.cycles.consistent());
        assert_eq!(m.events_recorded, 0);
        assert_eq!(m.ccb_grant_latency.count, 0);
    }
}
