//! The assembled Computational Cluster.
//!
//! Wires the CEs, the shared cache system, the crossbar, the memory buses,
//! the Concurrency Control Bus, the paging layer and the IP background load
//! into one machine. [`Cluster::step`] advances a single bus cycle and
//! returns the [`ProbeWord`] a logic analyzer probing the machine would
//! capture in that cycle — the entire measurement methodology sits on top
//! of this function.

use crate::addr::KERNEL_ASID;
use crate::ccb::{Ccb, IterGrant};
use crate::ce::{Ce, CeRole, CeState};
use crate::coherence::{BusTxn, CacheSystem};
use crate::config::MachineConfig;
use crate::crossbar::Crossbar;
use crate::ip::IpSubsystem;
use crate::membus::MemBusSystem;
use crate::opcode::{CeBusOp, MemBusOp};
use crate::probe::{ProbeWord, MAX_CES};
use crate::stream::{LoopBody, Op, SerialCode};
use crate::vm::{FaultMode, Vm};
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

/// A memory request a CE wants to issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    Read,
    Write,
    IFetch,
}

impl ReqKind {
    fn bus_op(self) -> CeBusOp {
        match self {
            ReqKind::Read => CeBusOp::Read,
            ReqKind::Write => CeBusOp::Write,
            ReqKind::IFetch => CeBusOp::IFetch,
        }
    }

    fn is_write(self) -> bool {
        matches!(self, ReqKind::Write)
    }
}

/// Action to finish when a miss stall expires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ResumeAction {
    /// Install the fetched instruction line.
    FillIFetch(crate::addr::LineId),
    /// Complete the current operand op.
    FinishOp,
}

/// Everything a quiescent window's bulk application needs, computed by
/// [`Cluster::skippable`] in its single pass over the CEs so
/// [`Cluster::advance_bulk`] never rescans them. `k == 0` means the next
/// cycle must be stepped normally (the other fields are then meaningless).
#[derive(Debug, Clone, Copy)]
struct SkipPlan {
    /// Window length in cycles (0 = not skippable).
    k: u64,
    /// Bit per CE frozen retrying a crossbar request against a busy bank.
    retry_mask: u64,
    /// Bit per CE retiring a compute burst inside its probed icache line.
    burst_mask: u64,
    /// Bit per CCB-active CE (accrues `active_cycles`).
    active_mask: u64,
    /// CEs blocked in `AwaitSync` (accrue CCB sync-wait cycles).
    sync_waiters: u64,
    /// CEs blocked in `AwaitIter` (accrue CCB grant-wait cycles).
    iter_requesters: u64,
}

impl SkipPlan {
    fn empty() -> Self {
        SkipPlan {
            k: 0,
            retry_mask: 0,
            burst_mask: 0,
            active_mask: 0,
            sync_waiters: 0,
            iter_requesters: 0,
        }
    }
}

/// Widest cache-bank geometry the dense stepper's fixed-size per-bank
/// requester masks cover; wider (unvalidated, test-only) geometries fall
/// back to the scalar stepper.
const DENSE_MAX_BANKS: usize = 16;

/// How the next stretch of cycles should be advanced, as decided by
/// [`Cluster::step_verdict`]: a provably-quiescent window applied in
/// closed form, a dense loop window run through the SoA batch kernel, or
/// a single scalar cycle.
enum StepVerdict {
    /// Quiescent window: apply [`Cluster::advance_bulk`].
    Bulk(SkipPlan),
    /// Busy concurrent-loop window: run [`Cluster::step_dense`].
    Dense,
    /// Anything else: one [`Cluster::step_cycle`].
    Step,
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
    /// fast-forward engine never skips up to or past it, so a monitor can
    /// thread its probe/timeout deadline through [`Cluster::set_next_probe_at`]
    /// and still see every cycle it cares about stepped individually.
    next_probe_at: Option<Cycle>,
    /// Cycles advanced by the fast-forward engine (a subset of
    /// `cycles_total`). Intentionally absent from [`Cluster::state_digest`]:
    /// the skip ratio is the one piece of state that differs by design
    /// between the fast-forward and per-cycle trajectories.
    cycles_skipped: u64,
    /// Cycles advanced by the dense SoA batch stepper (a subset of
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
            if self.detached[i].is_none() {
                self.ces[i].unmount();
            }
            self.resume_actions[i] = None;
            self.reset_op_flags(i);
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
    /// armed to read it. Each iteration picks the cheapest legal stepper:
    /// quiescent stretches are bulk-skipped, busy loop windows run through
    /// the dense SoA kernel (`Cluster::step_dense`), and everything else
    /// falls back to the scalar per-cycle stepper.
    pub fn run(&mut self, n: u64) {
        let end = self.now + n;
        while self.now < end {
            match self.step_verdict(end - self.now) {
                StepVerdict::Bulk(plan) => self.advance_bulk(plan),
                StepVerdict::Dense => {
                    if self.step_dense(end - self.now) == 0 {
                        self.step_cycle(false);
                    }
                }
                StepVerdict::Step => {
                    self.step_cycle(false);
                }
            }
        }
    }

    /// Decide how the next stretch of cycles should be advanced. Bulk
    /// skipping is preferred (it is pure closed-form accounting), then the
    /// dense kernel, then the scalar stepper. All three produce
    /// bit-identical machine state.
    fn step_verdict(&self, limit: u64) -> StepVerdict {
        let plan = self.skippable(limit);
        if plan.k > 0 {
            return StepVerdict::Bulk(plan);
        }
        if self.dense_eligible() {
            StepVerdict::Dense
        } else {
            StepVerdict::Step
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

    /// Refill CE `ce`'s op queue from its mounted stream. Returns false if
    /// there is nothing to execute (worker finished its iteration, or no
    /// stream mounted).
    fn refill_ops(&mut self, ce: CeId) -> bool {
        const REFILL_ATTEMPTS: usize = 4;
        let id = ce;
        // Only ever called with a drained queue, so the generators append
        // straight into the queue's backing storage — no staging copy.
        debug_assert!(self.ces[id].ops.is_empty());
        match self.ces[id].role {
            CeRole::Worker => false, // iteration boundary handled by caller
            CeRole::ClusterSerial => {
                for _ in 0..REFILL_ATTEMPTS {
                    match &mut self.load {
                        Load::Serial { code, .. } | Load::Drained { code, .. } => {
                            code.gen_block(id, self.ces[id].ops.append_buf());
                        }
                        _ => return false,
                    }
                    if !self.ces[id].ops.is_empty() {
                        return true;
                    }
                }
                false
            }
            CeRole::Detached => {
                for _ in 0..REFILL_ATTEMPTS {
                    if let Some((code, _)) = &mut self.detached[id] {
                        code.gen_block(id, self.ces[id].ops.append_buf());
                    } else {
                        return false;
                    }
                    if !self.ces[id].ops.is_empty() {
                        return true;
                    }
                }
                false
            }
            CeRole::Inactive => false,
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

    /// Tell the fast-forward engine the earliest future cycle an armed
    /// analyzer must observe. [`Cluster::skip_quiescent`] will stop short
    /// of it so the monitor steps that cycle itself; pass `None` to lift
    /// the cap.
    pub fn set_next_probe_at(&mut self, at: Option<Cycle>) {
        self.next_probe_at = at;
    }

    /// Cycles retired per stepping engine. Scalar cycles are the remainder
    /// once the dense and fast-forward engines account for theirs, so the
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
    /// fast-forward) without stepping a cycle.
    pub fn active_count(&self) -> u32 {
        self.ces.iter().filter(|ce| ce.is_ccb_active()).count() as u32
    }

    /// If CE `id` would issue a crossbar request this cycle whose *denial*
    /// has no architectural effect beyond the denial counters and the CE's
    /// bus-busy cycle, return the requested line. That covers a pending
    /// instruction fetch and a Load/Store whose ifetch and paging check
    /// already happened (`op_fetched && vm_checked`): re-dispatching such
    /// an op recomputes the same line from the same operand every cycle
    /// until granted. Anything else (first dispatch, paging touch, burst)
    /// either mutates state on dispatch or makes no request at all.
    fn pure_retry_line(&self, id: CeId) -> Option<crate::addr::LineId> {
        let ce = &self.ces[id];
        if ce.state != CeState::Ready {
            return None;
        }
        if let Some(line) = ce.pending_ifetch {
            return Some(line);
        }
        if ce.compute_left > 0 {
            return None; // burst path: no crossbar request while in-line
        }
        match ce.cur_op {
            Some(Op::Load(a)) | Some(Op::Store(a))
                if self.op_fetched & self.vm_checked & (1 << id) != 0 =>
            {
                Some(a.line(self.cfg.cache.line_bytes))
            }
            _ => None,
        }
    }

    /// Fast-forward through quiescent cycles: if the machine is provably
    /// inert for `k` cycles (`1 <= k <= limit`), advance it `k` cycles in
    /// one bulk pass — bit-identical to `k` calls of [`Cluster::step`] with
    /// the probe words discarded — and return `k`. Returns 0 when the very
    /// next cycle could change observable state (or fast-forward is
    /// disabled), in which case the caller must step normally.
    pub fn skip_quiescent(&mut self, limit: u64) -> u64 {
        let plan = self.skippable(limit);
        if plan.k > 0 {
            self.advance_bulk(plan);
        }
        plan.k
    }

    /// Conservative event horizon: how many cycles (at most `limit`) can be
    /// bulk-advanced because no component can change architecturally
    /// observable state before then. Every term is a *lower bound proof*:
    ///
    /// - a stalled CE cannot act before its `until` stamp;
    /// - an `AwaitSync`/`AwaitJoin` CE cannot unblock unless some Ready CE
    ///   posts/completes — and any CE that could is itself a 0 term;
    /// - `AwaitIter` CEs are frozen exactly while the CCB grant channel is
    ///   busy ([`Ccb::grant_horizon`]);
    /// - a Ready CE mid-compute-burst is inert for as long as its fetches
    ///   stay inside the already-probed icache line
    ///   ([`Ce::compute_burst_horizon`]);
    /// - a Ready CE retrying a request against a busy cache bank cannot be
    ///   granted before [`Crossbar::bank_free_at`], and its denials mutate
    ///   nothing but the denial counters ([`Cluster::pure_retry_line`]);
    /// - any other Ready CE forces 0.
    ///
    /// Stamp-based components contribute no terms: the membus and crossbar
    /// only mutate when a request reaches them (which forces 0 above), and
    /// the caches are purely reactive. The IP subsystem and the membus
    /// start-ring do act every cycle, but deterministically and without
    /// reading CE state — [`Cluster::advance_bulk`] replays them per cycle.
    ///
    /// Returns 0 unconditionally when `fast_forward` is off and under the
    /// `audit` feature, which keeps the per-cycle auditor an independent
    /// oracle rather than a check of the skip logic by itself.
    /// Returns the horizon as described above, plus everything
    /// [`Cluster::advance_bulk`] needs to apply the window without
    /// rescanning the CEs (windows are often a handful of cycles, so a
    /// second scan is a real share of the skip cost).
    fn skippable(&self, limit: u64) -> SkipPlan {
        if cfg!(feature = "audit") || !self.cfg.fast_forward || limit == 0 {
            return SkipPlan::empty();
        }
        let now = self.now;
        let mut end = now.saturating_add(limit);
        if let Some(probe) = self.next_probe_at {
            if probe <= now {
                return SkipPlan::empty();
            }
            end = end.min(probe);
        }
        let mut plan = SkipPlan::empty();
        let mut await_iter = false;
        for (id, ce) in self.ces.iter().enumerate() {
            match ce.state {
                CeState::Stalled { until, .. } | CeState::FaultStalled { until } => {
                    if until <= now {
                        return SkipPlan::empty(); // resume handshake runs this cycle
                    }
                    end = end.min(until);
                }
                CeState::AwaitSync { target } => {
                    if self.ccb.sync_reached(target) {
                        return SkipPlan::empty(); // unblocks this cycle
                    }
                    // Blocked: only a Ready CE's PostSync can move the sync
                    // register, and that CE forces 0 below.
                    plan.sync_waiters += 1;
                }
                CeState::AwaitIter => await_iter = true,
                CeState::AwaitJoin => {
                    if self.ccb.all_complete() {
                        return SkipPlan::empty(); // serial successor promotes this cycle
                    }
                    // Completions come from Ready workers, which force 0.
                }
                CeState::Ready => {
                    if let Some(line) = self.pure_retry_line(id) {
                        // A crossbar request whose denial changes nothing
                        // but the denial counters: the requester is frozen
                        // until its target bank frees up, at which point
                        // the grant cycle must be stepped normally.
                        let free = self.crossbar.bank_free_at(self.caches.bank_of(line));
                        if free <= now {
                            return SkipPlan::empty(); // the bank can grant this cycle
                        }
                        end = end.min(free);
                        plan.retry_mask |= 1 << id;
                    } else {
                        // pending_ifetch is always a pure retry, so from
                        // here on the CE makes no crossbar request.
                        if ce.compute_left > 0 {
                            let burst = ce.compute_burst_horizon();
                            if burst == 0 {
                                return SkipPlan::empty(); // next fetch probes the icache
                            }
                            end = end.min(now + burst);
                            plan.burst_mask |= 1 << id;
                        } else if ce.cur_op.is_some() || !ce.ops.is_empty() {
                            return SkipPlan::empty(); // dispatches an op this cycle
                        } else if ce.role != CeRole::Inactive {
                            // Worker: completes its iteration this cycle.
                            // Serial/detached: refills from its stream
                            // (which mutates generator state) this cycle.
                            return SkipPlan::empty();
                        }
                    }
                }
            }
            if ce.is_ccb_active() {
                plan.active_mask |= 1 << id;
            }
        }
        if await_iter {
            match self.ccb.grant_horizon(now) {
                None => return SkipPlan::empty(), // a grant or Exhausted lands this cycle
                Some(free) => end = end.min(free),
            }
            plan.iter_requesters = self
                .ces
                .iter()
                .filter(|ce| ce.state == CeState::AwaitIter)
                .count() as u64;
        }
        plan.k = end.saturating_sub(now);
        plan
    }

    /// Bulk-advance `k` cycles previously authorized by
    /// [`Cluster::skippable`]. Applies exactly the state changes `k` calls
    /// to [`Cluster::step_cycle`] would have made on a quiescent machine:
    ///
    /// - the IP subsystem steps every cycle (its RNG consumes one draw per
    ///   cycle regardless of intensity, so it must be replayed, not
    ///   jumped);
    /// - the membus start-ring gc runs once at the window end: gc is a
    ///   monotone threshold-pop and `schedule`'s insertion search never
    ///   lands on stale entries, so deferring it is invisible (see the
    ///   `deferred_gc_matches_per_cycle_gc` membus test);
    /// - blocked `AwaitSync` CEs and `AwaitIter` requesters accrue their
    ///   per-cycle wait statistics in closed form;
    /// - Ready CEs mid-burst retire `k` instructions in one pass;
    /// - Ready CEs retrying against a busy bank (flagged in the plan's
    ///   `retry_mask`, as computed by [`Cluster::skippable`] for this same
    ///   window) accrue `k` crossbar denials and `k` bus-busy cycles, the
    ///   only effects of a denial;
    /// - CCB-active CEs accrue `k` active cycles (roles cannot change
    ///   inside a quiescent window).
    ///
    /// Everything else is provably untouched per the horizon argument.
    fn advance_bulk(&mut self, plan: SkipPlan) {
        let k = plan.k;
        debug_assert!(k > 0);
        self.ip
            .replay(self.now, k, &mut self.caches, &mut self.membus);
        self.membus.gc(self.now + k - 1);
        if plan.sync_waiters > 0 {
            self.ccb.note_sync_waits(k * plan.sync_waiters);
        }
        if plan.iter_requesters > 0 {
            self.ccb.note_grant_waits(k * plan.iter_requesters);
        }
        let mut retry = plan.retry_mask;
        while retry != 0 {
            let id = retry.trailing_zeros() as usize;
            retry &= retry - 1;
            // The denied request occupies the CE bus every cycle.
            self.ces[id].stats.bus_busy_cycles += k;
            self.crossbar.note_denied_retries(id, k);
        }
        let mut burst = plan.burst_mask;
        while burst != 0 {
            let id = burst.trailing_zeros() as usize;
            burst &= burst - 1;
            self.ces[id].advance_compute_burst(k);
        }
        let mut active = plan.active_mask;
        while active != 0 {
            let id = active.trailing_zeros() as usize;
            active &= active - 1;
            self.ces[id].stats.active_cycles += k;
        }
        let from = self.now;
        self.now += k;
        self.cycles_total += k;
        // Only genuine bulk advancement counts toward the skip ratio: a
        // single-cycle "window" did the same work a scalar step would have
        // (the horizon scan just proved it inert first), so reporting it
        // as skipped would overstate how much the fast-forward engine
        // actually saved.
        if k >= 2 {
            self.cycles_skipped += k;
            if let Some(tr) = self.tracer.as_deref_mut() {
                tr.push(crate::trace::TraceEvent::FastForward { from, cycles: k });
            }
        }
    }

    /// Whether the machine is in the dense stepper's domain: a mounted
    /// concurrent loop whose CEs are all either workers or fully inert
    /// unmounted lanes. In that regime every per-cycle effect is one the
    /// SoA kernel replicates inline — the CCB-resolution cycles it cannot
    /// (grants, exhaustion, promotion) make it bail back to the scalar
    /// stepper. Forced off under the `audit` feature so the per-cycle
    /// auditor keeps observing every cycle, and by the `dense_stepping`
    /// config knob.
    fn dense_eligible(&self) -> bool {
        if cfg!(feature = "audit") || !self.cfg.dense_stepping {
            return false;
        }
        if !matches!(self.load, Load::Loop { .. }) {
            return false;
        }
        // The kernel's bank-conflict masks are fixed-width.
        if self.cfg.cache.banks > DENSE_MAX_BANKS {
            return false;
        }
        self.ces.iter().all(|ce| match ce.role {
            CeRole::Worker => true,
            // An unmounted lane is eligible only when provably inert: it
            // then contributes nothing to any cycle, so the kernel can
            // ignore it entirely.
            CeRole::Inactive => {
                ce.state == CeState::Ready
                    && ce.cur_op.is_none()
                    && ce.ops.is_empty()
                    && ce.compute_left == 0
                    && ce.pending_ifetch.is_none()
            }
            CeRole::ClusterSerial | CeRole::Detached => false,
        })
    }

    /// The dense SoA batch stepper: run up to `limit` cycles of a busy
    /// concurrent-loop window in one fused pass, bit-identically to the
    /// same number of [`Cluster::step_cycle`] calls (probe words
    /// discarded). Returns how many cycles were advanced; 0 means the very
    /// next cycle is a CCB-resolution cycle the scalar stepper must run.
    ///
    /// Where the scalar stepper re-derives every CE's situation from its
    /// state enum each cycle, this kernel packs the lane structure once at
    /// window entry — ready/await-iter/await-sync/stalled/fault lanes as
    /// [`LaneWord`] bitmasks, wake stamps and sync targets in fixed
    /// per-lane arrays — and then advances the masks as whole-word boolean
    /// algebra, spending per-lane scalar work only on the cycles where a
    /// lane *acts* (dispatches an op, wakes from a stall, crosses an
    /// icache line, parks or posts a sync):
    ///
    /// * a lane whose crossbar request was denied is not revisited: the
    ///   request (line, kind, bank) is invariant until granted, so the
    ///   lane sits in a persistent `pending` word and a persistent
    ///   bank×word requester table that [`Crossbar::arbitrate_masks_swar`]
    ///   resolves by scanning only occupied banks;
    /// * a lane retiring a compute burst inside its probed icache line is
    ///   not revisited: its pure-retirement segment is bounded by
    ///   [`Ce::compute_burst_horizon`] and applied in closed form at the
    ///   segment end ([`Ce::advance_compute_burst`]), exactly as the
    ///   fast-forward engine does across quiescent windows;
    /// * sync waiters are revisited only on cycles adjacent to a
    ///   `PostSync` (the sync register cannot otherwise move), with the
    ///   same-cycle lower-to-higher lane visibility of the scalar loop
    ///   preserved by re-arming the visit word mid-pass;
    /// * per-cycle classification — who issues, who is denied, who waits —
    ///   is mask expressions (`pending & !won`, popcounts), not branches.
    ///
    /// Per-lane counters that move by +1 per masked lane per cycle
    /// (bus-busy occupancy, crossbar denials) accumulate via SWAR masked
    /// adds ([`crate::swar::packed_add`]) into packed byte-lane words,
    /// flushed into the real `u64` counters at window exit or before any
    /// byte lane could saturate. The membus start-ring gc is deferred to
    /// the window end (legal per the deferred-gc membus proof), and the
    /// denial counters flush through [`Crossbar::note_denied_retries`] —
    /// the same closed-form movement the fast-forward engine uses.
    ///
    /// The window ends at `limit`, at the armed-probe deadline, or at the
    /// first cycle where the CCB would resolve an iteration request (grant
    /// or exhaustion): those cycles run iteration generation, daisy-chain
    /// stalls, unmounting and serial promotion, which stay scalar.
    fn step_dense(&mut self, mut limit: u64) -> u64 {
        debug_assert!(self.dense_eligible());
        let mut now = self.now;
        if let Some(probe) = self.next_probe_at {
            // Never run into a cycle an armed analyzer must observe.
            if probe <= now {
                return 0;
            }
            limit = limit.min(probe - now);
        }
        let n = self.ces.len();
        debug_assert!(n <= MAX_CES);

        // --- Pack the lane structure.
        let mut ready_mask: LaneWord = 0;
        let mut iter_mask: LaneWord = 0;
        let mut sync_mask: LaneWord = 0;
        let mut stall_mask: LaneWord = 0;
        let mut fault_mask: LaneWord = 0;
        let mut active_lanes: LaneWord = 0;
        let mut until_arr = [0u64; MAX_CES];
        let mut stall_resume = [CeBusOp::Idle; MAX_CES];
        let mut sync_target_arr = [0u64; MAX_CES];
        let mut next_wake = u64::MAX;
        for (id, ce) in self.ces.iter().enumerate() {
            if ce.role != CeRole::Worker {
                continue; // inert unmounted lane (checked by eligibility)
            }
            let bit: LaneWord = 1 << id;
            active_lanes |= bit;
            match ce.state {
                CeState::Ready => ready_mask |= bit,
                CeState::AwaitIter => iter_mask |= bit,
                CeState::AwaitSync { target } => {
                    sync_mask |= bit;
                    sync_target_arr[id] = target;
                }
                // A worker only parks in AwaitJoin on a CCB-resolution
                // cycle, which the scalar stepper owns.
                CeState::AwaitJoin => return 0,
                CeState::Stalled { until, resume_op } => {
                    stall_mask |= bit;
                    until_arr[id] = until;
                    stall_resume[id] = resume_op;
                    next_wake = next_wake.min(until);
                }
                CeState::FaultStalled { until } => {
                    fault_mask |= bit;
                    until_arr[id] = until;
                    next_wake = next_wake.min(until);
                }
            }
        }

        // --- Persistent request state. A lane that has materialized a
        // crossbar request keeps it — line, kind, and bank are invariant
        // across denials — so denied lanes are never revisited; they live
        // in `pending_mask` and in the bank×word requester table that
        // `arbitrate_masks_swar` scans via the `occupied` bank bitmask.
        let mut pending_mask: LaneWord = 0;
        let mut bank_req: [LaneWord; DENSE_MAX_BANKS] = [0; DENSE_MAX_BANKS];
        let mut occupied = 0u32;
        let mut req_line = [crate::addr::LineId(0); MAX_CES];
        let mut req_kind = [ReqKind::Read; MAX_CES];
        let mut req_bank = [0usize; MAX_CES];

        // --- Pure compute-burst segments. A lane retiring inside its
        // probed icache line is inert (one retirement per cycle, no shared
        // state): it parks in `burst_mask` with its segment end in
        // `until_arr` and the retirements are applied in closed form when
        // the segment ends or the window exits.
        let mut burst_mask: LaneWord = 0;
        let mut burst_from = [0u64; MAX_CES];

        // --- Per-window accumulators, flushed once at exit. Bus-busy
        // occupancy and crossbar denials move by +1 per masked lane per
        // cycle, so they accumulate as SWAR packed byte lanes; the rest
        // see at most a handful of scalar adds per cycle.
        let mut instrs_acc = [0u64; MAX_CES];
        let mut busbusy_acc = [0u64; MAX_CES];
        let mut deny_acc = [0u64; MAX_CES];
        // One packed word per 8-lane group: the measured 8-CE machine pays
        // for exactly one word; a 64-CE cluster carries eight.
        let pk_groups = crate::swar::lane_groups(n);
        let mut busbusy_pk = [0u64; crate::swar::lane_groups(MAX_CES)];
        let mut deny_pk = [0u64; crate::swar::lane_groups(MAX_CES)];
        let mut pk_budget = crate::swar::PACKED_MAX;
        let mut sync_wait_acc = 0u64;
        let mut grant_wait_acc = 0u64;
        // Sync waiters re-check the register only when it can have moved:
        // at window entry and on cycles adjacent to a PostSync.
        let mut sync_dirty = sync_mask != 0;
        let line_bytes = self.cfg.cache.line_bytes;
        let hit_cycles = self.cfg.cache_hit_cycles;
        let mut done = 0u64;

        while done < limit {
            // A pending iteration request resolves (grant or exhaustion)
            // the moment the grant channel is idle: that cycle runs the
            // scalar stepper. While the channel is busy, requesters only
            // accrue wait cycles — exactly what the scalar arbitration
            // would have recorded.
            if iter_mask != 0 && self.ccb.grant_horizon(now).is_none() {
                break;
            }

            // Interactive processors: one RNG draw per cycle, replayed in
            // lockstep with the scalar stepper.
            self.ip.step(now, &mut self.caches, &mut self.membus);

            if iter_mask != 0 {
                grant_wait_acc += iter_mask.count_ones() as u64;
            }

            // Which stalled/fault lanes wake this cycle; burst segments
            // ending now materialize their retirements and rejoin the
            // per-lane pass as ordinary Ready lanes.
            let mut due: LaneWord = 0;
            if now >= next_wake {
                next_wake = u64::MAX;
                let mut m = stall_mask | fault_mask | burst_mask;
                while m != 0 {
                    let id = m.trailing_zeros() as usize;
                    m &= m - 1;
                    if until_arr[id] <= now {
                        let bit: LaneWord = 1 << id;
                        if burst_mask & bit != 0 {
                            self.ces[id].advance_compute_burst(now - burst_from[id]);
                            burst_mask &= !bit;
                        } else {
                            due |= bit;
                        }
                    } else {
                        next_wake = next_wake.min(until_arr[id]);
                    }
                }
            }

            // --- Lane pass over the lanes that can *act* this cycle,
            // ascending id (same order as the scalar per-CE loop: VM touch
            // stamps and same-cycle PostSync → AwaitSync visibility depend
            // on it). Denied requesters, mid-segment bursts and (on clean
            // cycles) parked sync waiters are excluded: their per-cycle
            // effects are pure accrual, applied as word-wide mask
            // arithmetic below. `impure` records whether any visited lane
            // did more than pure waiting; a cycle that stays pure with no
            // grant means the machine has gone quiescent, and the run
            // loop's horizon scan can bulk-advance it far more cheaply
            // than this kernel can step it.
            let mut impure = false;
            let sync_check: LaneWord = if sync_dirty { sync_mask } else { 0 };
            sync_dirty = false;
            let mut sync_handled: LaneWord = 0;
            let mut visit = (ready_mask & !pending_mask & !burst_mask) | due | sync_check;
            while visit != 0 {
                let id = visit.trailing_zeros() as usize;
                visit &= visit - 1;
                let bit: LaneWord = 1 << id;

                if due & bit != 0 {
                    impure = true;
                    if stall_mask & bit != 0 {
                        // Completion handshake cycle.
                        if stall_resume[id].is_busy() {
                            busbusy_acc[id] += 1;
                        }
                        match self.resume_actions[id].take() {
                            Some(ResumeAction::FillIFetch(line)) => {
                                self.ces[id].ifetch_fill(line);
                            }
                            Some(ResumeAction::FinishOp) => {
                                self.ces[id].cur_op = None;
                                instrs_acc[id] += 1;
                                self.reset_op_flags(id);
                            }
                            None => {}
                        }
                        stall_mask &= !bit;
                    } else {
                        fault_mask &= !bit;
                    }
                    self.ces[id].state = CeState::Ready;
                    ready_mask |= bit;
                    continue;
                }

                if sync_mask & bit != 0 {
                    sync_handled |= bit;
                    if self.ccb.sync_reached(sync_target_arr[id]) {
                        impure = true;
                        self.ces[id].state = CeState::Ready;
                        sync_mask &= !bit;
                        ready_mask |= bit;
                    } else {
                        sync_wait_acc += 1;
                    }
                    continue;
                }

                // Ready lane. Pending instruction fetch first (window
                // entry, or re-entry after a stall fill).
                if let Some(line) = self.ces[id].pending_ifetch {
                    let b = self.caches.bank_of(line);
                    pending_mask |= bit;
                    req_line[id] = line;
                    req_kind[id] = ReqKind::IFetch;
                    req_bank[id] = b;
                    bank_req[b] |= bit;
                    occupied |= 1 << b;
                    continue;
                }

                // Continue a compute burst: one instruction per cycle.
                // Reached only at segment boundaries (window entry, line
                // crossing, post-fill) — pure in-line retirement parks the
                // lane in `burst_mask` below.
                if self.ces[id].compute_left > 0 {
                    if let Some(line) = self.ces[id].ifetch_step() {
                        impure = true;
                        self.ces[id].pending_ifetch = Some(line);
                        let b = self.caches.bank_of(line);
                        pending_mask |= bit;
                        req_line[id] = line;
                        req_kind[id] = ReqKind::IFetch;
                        req_bank[id] = b;
                        bank_req[b] |= bit;
                        occupied |= 1 << b;
                    } else {
                        self.ces[id].compute_left -= 1;
                        instrs_acc[id] += 1;
                        let h = self.ces[id].compute_burst_horizon();
                        if h > 0 {
                            burst_mask |= bit;
                            burst_from[id] = now + 1;
                            until_arr[id] = now + 1 + h;
                            next_wake = next_wake.min(until_arr[id]);
                        }
                    }
                    continue;
                }

                // Need a current op.
                if self.ces[id].cur_op.is_none() {
                    impure = true;
                    if let Some(op) = self.ces[id].ops.pop_front() {
                        self.ces[id].cur_op = Some(op);
                        self.reset_op_flags(id);
                    } else {
                        // Worker iteration boundary: request the next one.
                        // (Inactive lanes never enter the masks.)
                        self.ccb.complete_iter();
                        self.ces[id].stats.iters_completed += 1;
                        self.ces[id].state = CeState::AwaitIter;
                        if let Some(tr) = self.tracer.as_deref_mut() {
                            tr.iter_wait_since[id] = now;
                        }
                        ready_mask &= !bit;
                        iter_mask |= bit;
                        continue;
                    }
                }

                let Some(op) = self.ces[id].cur_op else {
                    continue;
                };
                match op {
                    Op::Compute(c) => {
                        impure = true;
                        if let Some(line) = self.ces[id].ifetch_step() {
                            self.ces[id].pending_ifetch = Some(line);
                            let b = self.caches.bank_of(line);
                            pending_mask |= bit;
                            req_line[id] = line;
                            req_kind[id] = ReqKind::IFetch;
                            req_bank[id] = b;
                            bank_req[b] |= bit;
                            occupied |= 1 << b;
                            continue;
                        }
                        instrs_acc[id] += 1;
                        self.ces[id].compute_left = c.saturating_sub(1);
                        self.ces[id].cur_op = None;
                        let h = self.ces[id].compute_burst_horizon();
                        if h > 0 {
                            burst_mask |= bit;
                            burst_from[id] = now + 1;
                            until_arr[id] = now + 1 + h;
                            next_wake = next_wake.min(until_arr[id]);
                        }
                    }
                    Op::Load(a) | Op::Store(a) => {
                        let kind = if matches!(op, Op::Store(_)) {
                            ReqKind::Write
                        } else {
                            ReqKind::Read
                        };
                        if self.op_fetched & bit == 0 {
                            impure = true;
                            self.op_fetched |= bit;
                            if let Some(line) = self.ces[id].ifetch_step() {
                                self.ces[id].pending_ifetch = Some(line);
                                let b = self.caches.bank_of(line);
                                pending_mask |= bit;
                                req_line[id] = line;
                                req_kind[id] = ReqKind::IFetch;
                                req_bank[id] = b;
                                bank_req[b] |= bit;
                                occupied |= 1 << b;
                                continue;
                            }
                        }
                        if self.vm_checked & bit == 0 {
                            impure = true;
                            self.vm_checked |= bit;
                            let mode = if a.asid() == KERNEL_ASID {
                                FaultMode::System
                            } else {
                                FaultMode::User
                            };
                            if !self.vm.touch(id, a.page(), mode) {
                                self.fault_seq += 1;
                                if self.fault_seq.is_multiple_of(4) {
                                    self.vm.charge_faults(id, 0, 1);
                                }
                                let until = now + self.cfg.fault_stall_cycles;
                                self.ces[id].state = CeState::FaultStalled { until };
                                self.ces[id].stats.fault_stall_cycles +=
                                    self.cfg.fault_stall_cycles;
                                ready_mask &= !bit;
                                fault_mask |= bit;
                                until_arr[id] = until;
                                next_wake = next_wake.min(until);
                                continue;
                            }
                        }
                        let line = a.line(line_bytes);
                        let b = self.caches.bank_of(line);
                        pending_mask |= bit;
                        req_line[id] = line;
                        req_kind[id] = kind;
                        req_bank[id] = b;
                        bank_req[b] |= bit;
                        occupied |= 1 << b;
                    }
                    Op::AwaitSync(t) => {
                        impure = true;
                        self.ces[id].cur_op = None;
                        if self.ccb.sync_reached(t) {
                            // Proceeds next cycle; the check costs this one.
                        } else {
                            self.ces[id].state = CeState::AwaitSync { target: t };
                            ready_mask &= !bit;
                            sync_mask |= bit;
                            sync_target_arr[id] = t;
                            // No wait accrues on the parking cycle.
                            sync_handled |= bit;
                        }
                    }
                    Op::PostSync(v) => {
                        impure = true;
                        self.ccb.post_sync(v);
                        instrs_acc[id] += 1;
                        self.ces[id].cur_op = None;
                        // Scalar same-cycle visibility: parked lanes with a
                        // *higher* id see the new value this cycle (they
                        // come later in the per-CE order); lower ids were
                        // already passed and re-check next cycle.
                        visit |= sync_mask & !((bit << 1) - 1);
                        sync_dirty = true;
                    }
                }
            }

            // Parked sync waiters not individually visited this cycle all
            // stayed blocked (the register cannot have moved for them):
            // accrue their wait in one popcount.
            sync_wait_acc += (sync_mask & !sync_handled).count_ones() as u64;

            // --- Crossbar arbitration over the persistent bank table and
            // cache access for the winners, mask-native.
            let mut won: LaneWord = 0;
            if pending_mask != 0 {
                won = self
                    .crossbar
                    .arbitrate_masks_swar(now, &bank_req, occupied, hit_cycles);
                // Every requester occupies its CE bus this cycle, granted
                // or not; the denied set is exactly `pending & !won`. Both
                // accrue as SWAR masked adds, flushed before any packed
                // byte lane could saturate.
                if pk_budget == 0 {
                    for id in 0..n {
                        let (g, l) = (
                            id / crate::swar::PACKED_LANES,
                            id % crate::swar::PACKED_LANES,
                        );
                        busbusy_acc[id] += crate::swar::packed_lane(busbusy_pk[g], l);
                        deny_acc[id] += crate::swar::packed_lane(deny_pk[g], l);
                    }
                    busbusy_pk = [0; crate::swar::lane_groups(MAX_CES)];
                    deny_pk = [0; crate::swar::lane_groups(MAX_CES)];
                    pk_budget = crate::swar::PACKED_MAX;
                }
                pk_budget -= 1;
                let denied_mask = pending_mask & !won;
                for g in 0..pk_groups {
                    busbusy_pk[g] = crate::swar::packed_add(
                        busbusy_pk[g],
                        crate::swar::group_mask(pending_mask, g),
                        1,
                    );
                    deny_pk[g] = crate::swar::packed_add(
                        deny_pk[g],
                        crate::swar::group_mask(denied_mask, g),
                        1,
                    );
                }

                let mut m = won;
                while m != 0 {
                    let id = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let bit: LaneWord = 1 << id;
                    // The grant consumes the request: retire it from the
                    // persistent table.
                    pending_mask &= !bit;
                    let b = req_bank[id];
                    bank_req[b] &= !bit;
                    if bank_req[b] == 0 {
                        occupied &= !(1u32 << b);
                    }
                    let line = req_line[id];
                    let kind = req_kind[id];
                    let outcome = self.caches.ce_access(line, kind.is_write());
                    let mut fetch_complete: Option<Cycle> = None;
                    for txn in &outcome.bus {
                        let op = match txn {
                            BusTxn::Fetch => MemBusOp::Fetch,
                            BusTxn::WriteBack => MemBusOp::WriteBack,
                            BusTxn::Coherence => MemBusOp::Coherence,
                            BusTxn::IpFetch => MemBusOp::IpTraffic,
                        };
                        let ticket = self.membus.schedule(now, op, line);
                        if *txn == BusTxn::Fetch {
                            fetch_complete = Some(ticket.complete);
                        }
                    }
                    if outcome.hit {
                        match kind {
                            ReqKind::IFetch => self.ces[id].ifetch_fill(line),
                            ReqKind::Read | ReqKind::Write => {
                                self.ces[id].cur_op = None;
                                instrs_acc[id] += 1;
                                self.reset_op_flags(id);
                            }
                        }
                    } else {
                        let until = fetch_complete.unwrap_or(now + self.cfg.mem_latency_cycles);
                        self.ces[id].stats.miss_stall_cycles += until.saturating_sub(now);
                        self.ces[id].state = CeState::Stalled {
                            until,
                            resume_op: CeBusOp::MissWait,
                        };
                        self.resume_actions[id] = Some(match kind {
                            ReqKind::IFetch => ResumeAction::FillIFetch(line),
                            ReqKind::Read | ReqKind::Write => ResumeAction::FinishOp,
                        });
                        ready_mask &= !bit;
                        stall_mask |= bit;
                        until_arr[id] = until;
                        stall_resume[id] = CeBusOp::MissWait;
                        next_wake = next_wake.min(until);
                    }
                }
            }

            now += 1;
            done += 1;

            // Quiescent cycle: nothing beyond pure waits, in-segment burst
            // retirement, or all-denied retry requests happened (a grant
            // mutates the caches, so `won != 0` keeps the kernel going).
            // Hand back to the run loop so the closed-form fast-forward
            // engine can take the stretch from here.
            if won == 0 && !impure {
                break;
            }
        }

        if done == 0 {
            return 0;
        }
        // --- Window-exit flush: the per-cycle effects accrued in closed
        // form. The start-ring gc is deferred to the window end (the same
        // legality argument as `advance_bulk`'s).
        let mut m = burst_mask;
        while m != 0 {
            let id = m.trailing_zeros() as usize;
            m &= m - 1;
            // Open burst segments: `now` is the first unexecuted cycle, so
            // `now - from` retirements happened (capped by the horizon
            // that armed the segment).
            self.ces[id].advance_compute_burst(now - burst_from[id]);
        }
        self.membus.gc(now - 1);
        if sync_wait_acc > 0 {
            self.ccb.note_sync_waits(sync_wait_acc);
        }
        if grant_wait_acc > 0 {
            self.ccb.note_grant_waits(grant_wait_acc);
        }
        for id in 0..n {
            let stats = &mut self.ces[id].stats;
            stats.instrs += instrs_acc[id];
            let (g, l) = (
                id / crate::swar::PACKED_LANES,
                id % crate::swar::PACKED_LANES,
            );
            stats.bus_busy_cycles += busbusy_acc[id] + crate::swar::packed_lane(busbusy_pk[g], l);
            let denied = deny_acc[id] + crate::swar::packed_lane(deny_pk[g], l);
            if denied > 0 {
                self.crossbar.note_denied_retries(id, denied);
            }
        }
        let mut m = active_lanes;
        while m != 0 {
            let id = m.trailing_zeros() as usize;
            m &= m - 1;
            // Roles only change on the scalar CCB-resolution cycles, so
            // every worker was CCB-active for the whole window.
            self.ces[id].stats.active_cycles += done;
        }
        let from = self.now;
        self.now = now;
        self.cycles_total += done;
        self.cycles_dense += done;
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.push(crate::trace::TraceEvent::DenseWindow { from, cycles: done });
        }
        done
    }

    /// Render every architecturally observable piece of machine state into
    /// a deterministic string, so differential tests can assert that
    /// fast-forward on/off trajectories are bit-identical. Excludes the
    /// skip counters (they differ by design); the IP issue count stands in
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

    /// One bus cycle. `probed` selects whether the memory-bus probe is
    /// decoded into the returned word; everything that advances machine
    /// state (and every statistic) is identical on both paths, so quiet
    /// `run` and probed `capture` produce bit-identical trajectories.
    fn step_cycle(&mut self, probed: bool) -> ProbeWord {
        let now = self.now;
        let n = self.ces.len();
        debug_assert!(n <= MAX_CES);
        let mut word = ProbeWord::idle(now);

        // --- Interactive processors: background cache/bus traffic.
        self.ip.step(now, &mut self.caches, &mut self.membus);

        // --- CCB: self-scheduled iteration dispatch.
        let mut requesting = [false; MAX_CES];
        for (req, ce) in requesting.iter_mut().zip(&self.ces) {
            *req = ce.state == CeState::AwaitIter;
        }
        let requesting = &requesting[..n];
        if requesting.iter().any(|&r| r) {
            let mut grants = [IterGrant::Wait; MAX_CES];
            self.ccb.arbitrate_into(now, requesting, &mut grants[..n]);
            for (id, &grant) in grants[..n].iter().enumerate() {
                match grant {
                    IterGrant::Wait => {}
                    IterGrant::Iter(i) => {
                        // A worker only requests at an iteration boundary,
                        // i.e. with a drained queue: the body generates
                        // straight into the queue's backing storage.
                        debug_assert!(self.ces[id].ops.is_empty());
                        if let Load::Loop { body, .. } = &mut self.load {
                            body.gen_iteration(i, id, self.ces[id].ops.append_buf());
                        }
                        // The grant propagates down the daisy chain before
                        // the CE can begin (middle CEs are farther from
                        // either chain driver).
                        let delay = self.cfg.ccb_chain_delay(id);
                        self.ces[id].state = if delay > 0 {
                            CeState::Stalled {
                                until: now + delay,
                                resume_op: CeBusOp::Idle,
                            }
                        } else {
                            CeState::Ready
                        };
                        self.reset_op_flags(id);
                        // Grants only ever land in the scalar stepper (the
                        // dense kernel bails on grant cycles and bulk
                        // windows never contain one), so this is the single
                        // dispatch-to-grant measurement point.
                        if let Some(tr) = self.tracer.as_deref_mut() {
                            let waited = now.saturating_sub(tr.iter_wait_since[id]);
                            if tr.metrics_on {
                                tr.grant_latency.record(waited);
                            }
                            tr.push(crate::trace::TraceEvent::CcbGrant {
                                at: now,
                                ce: id as u32,
                                iter: i,
                                waited,
                            });
                        }
                    }
                    IterGrant::Exhausted => {
                        if self.ccb.serial_successor() == Some(id) {
                            if self.ccb.all_complete() {
                                self.promote_to_drained(id);
                            } else {
                                self.ces[id].state = CeState::AwaitJoin;
                            }
                        } else if self.ccb.serial_successor().is_none()
                            && self.ccb.all_complete()
                            && matches!(self.load, Load::Loop { .. })
                        {
                            // The loop was mounted with no iterations left
                            // (macro progress consumed them all): no CE ever
                            // took a "last iteration", so the first CE to
                            // observe exhaustion continues serially.
                            self.promote_to_drained(id);
                        } else {
                            // Out of iterations: this CE leaves concurrent
                            // operation (its CCB line drops).
                            self.ces[id].unmount();
                        }
                    }
                }
            }
        }
        // Join completion for the serial successor.
        for id in 0..n {
            if self.ces[id].state == CeState::AwaitJoin && self.ccb.all_complete() {
                self.promote_to_drained(id);
            }
        }

        // --- Per-CE execution: figure out who wants the crossbar.
        let mut req_bank = [None::<usize>; MAX_CES];
        let mut req_info = [None::<(crate::addr::LineId, ReqKind)>; MAX_CES];
        for id in 0..n {
            match self.ces[id].state {
                CeState::Stalled { until, resume_op } => {
                    if now >= until {
                        // Completion handshake cycle.
                        word.ce_ops[id] = resume_op;
                        match self.resume_actions[id].take() {
                            Some(ResumeAction::FillIFetch(line)) => {
                                self.ces[id].ifetch_fill(line);
                            }
                            Some(ResumeAction::FinishOp) => {
                                self.ces[id].cur_op = None;
                                self.ces[id].stats.instrs += 1;
                                self.reset_op_flags(id);
                            }
                            None => {}
                        }
                        self.ces[id].state = CeState::Ready;
                    }
                    continue;
                }
                CeState::FaultStalled { until } => {
                    if now >= until {
                        self.ces[id].state = CeState::Ready;
                    }
                    continue;
                }
                CeState::AwaitSync { target } => {
                    if self.ccb.sync_reached(target) {
                        self.ces[id].state = CeState::Ready;
                    } else {
                        self.ccb.note_sync_wait();
                    }
                    continue;
                }
                CeState::AwaitIter | CeState::AwaitJoin => continue,
                CeState::Ready => {}
            }

            // Pending instruction fetch takes priority over everything.
            if let Some(line) = self.ces[id].pending_ifetch {
                req_bank[id] = Some(self.caches.bank_of(line));
                req_info[id] = Some((line, ReqKind::IFetch));
                continue;
            }

            // Continue a compute burst: one instruction per cycle.
            if self.ces[id].compute_left > 0 {
                if let Some(line) = self.ces[id].ifetch_step() {
                    self.ces[id].pending_ifetch = Some(line);
                    req_bank[id] = Some(self.caches.bank_of(line));
                    req_info[id] = Some((line, ReqKind::IFetch));
                } else {
                    self.ces[id].compute_left -= 1;
                    self.ces[id].stats.instrs += 1;
                }
                continue;
            }

            // Need a current op.
            if self.ces[id].cur_op.is_none() {
                if let Some(op) = self.ces[id].ops.pop_front() {
                    self.ces[id].cur_op = Some(op);
                    self.reset_op_flags(id);
                } else {
                    match self.ces[id].role {
                        CeRole::Worker => {
                            // Iteration complete: request the next one.
                            self.ccb.complete_iter();
                            self.ces[id].stats.iters_completed += 1;
                            self.ces[id].state = CeState::AwaitIter;
                            if let Some(tr) = self.tracer.as_deref_mut() {
                                tr.iter_wait_since[id] = now;
                            }
                            continue;
                        }
                        _ => {
                            if !self.refill_ops(id) {
                                continue; // nothing to do this cycle
                            }
                            self.ces[id].cur_op = self.ces[id].ops.pop_front();
                            self.reset_op_flags(id);
                        }
                    }
                }
            }

            let Some(op) = self.ces[id].cur_op else {
                continue;
            };
            match op {
                Op::Compute(c) => {
                    // Fetch check for the first instruction of the burst.
                    if let Some(line) = self.ces[id].ifetch_step() {
                        self.ces[id].pending_ifetch = Some(line);
                        req_bank[id] = Some(self.caches.bank_of(line));
                        req_info[id] = Some((line, ReqKind::IFetch));
                        // Burst starts after the fetch completes; rewind the
                        // cursor effect by leaving cur_op in place.
                        continue;
                    }
                    self.ces[id].stats.instrs += 1;
                    self.ces[id].compute_left = c.saturating_sub(1);
                    self.ces[id].cur_op = None;
                }
                Op::Load(a) | Op::Store(a) => {
                    let kind = if matches!(op, Op::Store(_)) {
                        ReqKind::Write
                    } else {
                        ReqKind::Read
                    };
                    // Instruction fetch for this operand instruction.
                    if self.op_fetched & (1 << id) == 0 {
                        self.op_fetched |= 1 << id;
                        if let Some(line) = self.ces[id].ifetch_step() {
                            self.ces[id].pending_ifetch = Some(line);
                            req_bank[id] = Some(self.caches.bank_of(line));
                            req_info[id] = Some((line, ReqKind::IFetch));
                            continue;
                        }
                    }
                    // Paging: first touch of the op.
                    if self.vm_checked & (1 << id) == 0 {
                        self.vm_checked |= 1 << id;
                        let mode = if a.asid() == KERNEL_ASID {
                            FaultMode::System
                        } else {
                            FaultMode::User
                        };
                        if !self.vm.touch(id, a.page(), mode) {
                            // Page fault: CE stalls while an IP services it.
                            self.fault_seq += 1;
                            // Fault handling itself occasionally faults in
                            // the kernel (handler paths, page tables).
                            if self.fault_seq.is_multiple_of(4) {
                                self.vm.charge_faults(id, 0, 1);
                            }
                            let until = now + self.cfg.fault_stall_cycles;
                            self.ces[id].state = CeState::FaultStalled { until };
                            self.ces[id].stats.fault_stall_cycles += self.cfg.fault_stall_cycles;
                            continue;
                        }
                    }
                    let line = a.line(self.cfg.cache.line_bytes);
                    req_bank[id] = Some(self.caches.bank_of(line));
                    req_info[id] = Some((line, kind));
                }
                Op::AwaitSync(t) => {
                    self.ces[id].cur_op = None;
                    if self.ccb.sync_reached(t) {
                        // Proceeds immediately; the check itself costs this cycle.
                    } else {
                        self.ces[id].state = CeState::AwaitSync { target: t };
                    }
                }
                Op::PostSync(v) => {
                    self.ccb.post_sync(v);
                    self.ces[id].stats.instrs += 1;
                    self.ces[id].cur_op = None;
                }
            }
        }

        // --- Crossbar arbitration and cache access. With no requester the
        // arbiter is a no-op (no grants, denials, rotor or busy-window
        // changes), so skip its banks×CEs scan entirely.
        let mut granted = [false; MAX_CES];
        let any_request = req_bank[..n].iter().any(|r| r.is_some());
        if any_request {
            self.crossbar.arbitrate_into(
                now,
                &req_bank[..n],
                self.cfg.cache_hit_cycles,
                &mut granted[..n],
            );
        }
        for id in 0..n {
            let Some((line, kind)) = req_info[id] else {
                continue;
            };
            // The request occupies the CE bus whether or not it wins.
            word.ce_ops[id] = kind.bus_op();
            if !granted[id] {
                continue; // retry next cycle
            }
            let outcome = self.caches.ce_access(line, kind.is_write());
            let mut fetch_complete: Option<Cycle> = None;
            for txn in &outcome.bus {
                let op = match txn {
                    BusTxn::Fetch => MemBusOp::Fetch,
                    BusTxn::WriteBack => MemBusOp::WriteBack,
                    BusTxn::Coherence => MemBusOp::Coherence,
                    BusTxn::IpFetch => MemBusOp::IpTraffic,
                };
                let ticket = self.membus.schedule(now, op, line);
                if *txn == BusTxn::Fetch {
                    fetch_complete = Some(ticket.complete);
                }
            }
            if outcome.hit {
                // Data returns within the hit latency; the op completes.
                match kind {
                    ReqKind::IFetch => self.ces[id].ifetch_fill(line),
                    ReqKind::Read | ReqKind::Write => {
                        self.ces[id].cur_op = None;
                        self.ces[id].stats.instrs += 1;
                        self.reset_op_flags(id);
                    }
                }
            } else {
                let until = fetch_complete.unwrap_or(now + self.cfg.mem_latency_cycles);
                self.ces[id].stats.miss_stall_cycles += until.saturating_sub(now);
                self.ces[id].state = CeState::Stalled {
                    until,
                    resume_op: CeBusOp::MissWait,
                };
                self.resume_actions[id] = Some(match kind {
                    ReqKind::IFetch => ResumeAction::FillIFetch(line),
                    ReqKind::Read | ReqKind::Write => ResumeAction::FinishOp,
                });
            }
        }

        // --- Probe assembly.
        for id in 0..n {
            if self.ces[id].is_ccb_active() {
                word.active_mask |= 1 << id;
                self.ces[id].stats.active_cycles += 1;
            }
            if word.ce_ops[id].is_busy() {
                self.ces[id].stats.bus_busy_cycles += 1;
            }
        }
        // Concurrency-transition edges. Activity is role-derived, so it is
        // constant inside dense and bulk-skipped windows — every change is
        // observable from a scalar cycle (or a mount, handled there).
        if let Some(tr) = self.tracer.as_deref_mut() {
            if tr.events_on {
                let active = word.active_mask.count_ones();
                if active != tr.last_active {
                    tr.push(crate::trace::TraceEvent::Transition {
                        at: now,
                        from: tr.last_active,
                        to: active,
                    });
                    tr.last_active = active;
                }
            }
        }
        if probed {
            word.mem_op = self.membus.probe_op(now);
        } else {
            // No analyzer armed: skip the probe decode, but still bound
            // the start-record ring (the probe normally collects it).
            self.membus.gc(now);
        }

        // --- Invariant audit (compiled out without the `audit` feature).
        // The auditor is taken out of `self` so it can borrow the rest of
        // the machine; the swapped-in default is heap-free.
        #[cfg(feature = "audit")]
        {
            let mut aud = std::mem::take(&mut self.auditor);
            aud.check_cycle(self, &word, &req_bank[..n], &granted[..n]);
            self.auditor = aud;
        }

        self.now += 1;
        self.cycles_total += 1;
        word
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VAddr;
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
        assert_eq!(c.skip_quiescent(1_000), 10, "skip stops at the probe");
        assert_eq!(c.now(), 10);
        assert_eq!(
            c.skip_quiescent(1_000),
            0,
            "the probe cycle itself must be stepped, not skipped"
        );
        c.set_next_probe_at(None);
        assert_eq!(c.skip_quiescent(1_000), 1_000, "cap lifted");
    }

    #[test]
    fn fast_forward_knob_off_disables_skipping() {
        let mut c = Cluster::new(ff_off_config(), 42);
        c.set_ip_intensity(0.0);
        c.run(1_000);
        let e = c.engine_cycles();
        assert_eq!((e.skipped, e.total), (0, 1_000));
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
        // Same oracle-independence for the SWAR batch kernel: it retires
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

#[cfg(test)]
mod ff_profile {
    use super::*;
    use crate::config::MachineConfig;

    #[test]
    #[ignore]
    fn classify_serial_stepped_cycles() {
        let mut c = Cluster::new(MachineConfig::fx8(), 2);
        c.set_ip_intensity(0.015);
        // Approximates the bench's scalar-serial kernel: ~5 compute per
        // memory ref over a 64 KB hot set and a 48 KB code footprint.
        c.mount_serial(
            Box::new(crate::stream::StridedSerial::new(
                crate::stream::CodeRegion {
                    base: crate::addr::VAddr::new(1, 0),
                    footprint_bytes: 48 * 1024,
                    bytes_per_instr: 4,
                },
                crate::addr::VAddr::new(1, 0x10_0000),
                96,
                64 * 1024,
                5,
            )),
            1,
            None,
        );
        c.run(5_000);
        let mut stepped = 0u64;
        let mut skipped = 0u64;
        let mut windows = std::collections::BTreeMap::new();
        let mut classes = std::collections::BTreeMap::new();
        let end = c.now + 500_000;
        while c.now < end {
            let plan = c.skippable(end - c.now);
            if plan.k > 0 {
                let k = plan.k;
                skipped += k;
                *windows.entry(k.min(16)).or_insert(0u64) += 1;
                c.advance_bulk(plan);
            } else {
                stepped += 1;
                let ce = &c.ces[0];
                let class = match ce.state {
                    CeState::Stalled { until, .. } if until <= c.now => "resume",
                    CeState::Stalled { .. } => "stall-other",
                    CeState::Ready if ce.pending_ifetch.is_some() => "ifetch-retry",
                    CeState::Ready if ce.compute_left > 0 => "burst-boundary",
                    CeState::Ready if ce.cur_op.is_some() => "cur-op",
                    CeState::Ready if !ce.ops.is_empty() => "dispatch",
                    CeState::Ready => "refill",
                    _ => "other",
                };
                *classes.entry(class).or_insert(0u64) += 1;
                c.step_cycle(false);
            }
        }
        eprintln!("stepped={stepped} skipped={skipped}");
        eprintln!("window sizes (capped 16): {windows:?}");
        eprintln!("stepped classes: {classes:?}");
    }
}
