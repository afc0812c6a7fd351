//! What one CE does on one bus cycle, written once for every engine.
//!
//! The scalar stepper and the dense kernel differ only in *which* lanes
//! they visit on a cycle and how they account the pure per-cycle effects
//! (waits, denials, bus occupancy). What a visited lane does is here:
//! waking from a miss stall ([`Cluster::lane_wake`]), stepping a Ready
//! lane's op stream ([`Cluster::lane_step`]) and completing a granted
//! crossbar request ([`Cluster::lane_grant`]).

use super::{Cluster, Load, ResumeAction};
use crate::addr::{LineId, KERNEL_ASID};
use crate::ce::{CeRole, CeState};
use crate::coherence::BusTxn;
use crate::opcode::{CeBusOp, MemBusOp};
use crate::stream::Op;
use crate::vm::FaultMode;
use crate::{CeId, Cycle, LaneWord};

/// A memory request a CE wants to issue this cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum ReqKind {
    Read,
    Write,
    IFetch,
}

impl ReqKind {
    pub(super) fn bus_op(self) -> CeBusOp {
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

/// What a Ready lane did on its cycle ([`Cluster::lane_step`]). The CE's
/// own state already reflects it; the outcome tells the calling engine
/// which of its scheduling structures the lane moves between.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) enum LaneStep {
    /// Wants the crossbar for this line this cycle.
    Request(LineId, ReqKind),
    /// Retired a compute instruction without a request: a burst step, or
    /// the first instruction of a `Compute` op.
    Retired,
    /// Parked in `AwaitSync` on this unreached target.
    Parked(u64),
    /// Posted to the sync register (and retired the post).
    Posted,
    /// Took a page fault: fault-stalled until this cycle.
    Faulted(Cycle),
    /// Finished its iteration: now waits for the CCB to grant the next.
    AwaitIter,
    /// Nothing further: a reached sync check, or no work to refill.
    Idle,
}

impl Cluster {
    /// Wake lane `id` from a stall that has expired: finish whatever the
    /// miss held up (install the fetched line, or complete the operand op)
    /// and return to Ready. A daisy-chain grant stall has no resume action.
    #[inline(always)]
    pub(super) fn lane_wake(&mut self, id: CeId) {
        match self.resume_actions[id].take() {
            Some(ResumeAction::FillIFetch(line)) => self.ces[id].ifetch_fill(line),
            Some(ResumeAction::FinishOp) => self.finish_op(id),
            None => {}
        }
        self.ces[id].state = CeState::Ready;
    }

    /// Retire lane `id`'s completed operand op.
    fn finish_op(&mut self, id: CeId) {
        self.ces[id].cur_op = None;
        self.ces[id].stats.instrs += 1;
        self.reset_op_flags(id);
    }

    /// One cycle of Ready lane `id`, in order: the pending instruction
    /// fetch, the compute burst, taking the next op (or marking the
    /// iteration boundary), then the op itself.
    ///
    /// The lane functions are inlined into both steppers, and an
    /// unmounted lane returns before the out-of-line refill: on a serial
    /// load seven of eight lanes are unmounted, and a call per such lane
    /// per cycle cost the scalar stepper about 8%.
    #[inline(always)]
    pub(super) fn lane_step(&mut self, id: CeId, now: Cycle) -> LaneStep {
        let bit: LaneWord = 1 << id;
        // Pending instruction fetch takes priority over everything.
        if let Some(line) = self.ces[id].pending_ifetch {
            return LaneStep::Request(line, ReqKind::IFetch);
        }

        // Continue a compute burst: one instruction per cycle.
        if self.ces[id].compute_left > 0 {
            if let Some(line) = self.ces[id].ifetch_step() {
                self.ces[id].pending_ifetch = Some(line);
                return LaneStep::Request(line, ReqKind::IFetch);
            }
            self.ces[id].compute_left -= 1;
            self.ces[id].stats.instrs += 1;
            return LaneStep::Retired;
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
                        return LaneStep::AwaitIter;
                    }
                    // An unmounted lane has no stream to refill from.
                    CeRole::Inactive => return LaneStep::Idle,
                    CeRole::ClusterSerial | CeRole::Detached => {
                        if !self.refill_ops(id) {
                            return LaneStep::Idle; // nothing to do this cycle
                        }
                        self.ces[id].cur_op = self.ces[id].ops.pop_front();
                        self.reset_op_flags(id);
                    }
                }
            }
        }

        let Some(op) = self.ces[id].cur_op else {
            return LaneStep::Idle;
        };
        match op {
            Op::Compute(c) => {
                // Fetch check for the first instruction of the burst.
                if let Some(line) = self.ces[id].ifetch_step() {
                    // Burst starts after the fetch completes; rewind the
                    // cursor effect by leaving cur_op in place.
                    self.ces[id].pending_ifetch = Some(line);
                    return LaneStep::Request(line, ReqKind::IFetch);
                }
                self.ces[id].stats.instrs += 1;
                self.ces[id].compute_left = c.saturating_sub(1);
                self.ces[id].cur_op = None;
                LaneStep::Retired
            }
            Op::Load(a) | Op::Store(a) => {
                let kind = if matches!(op, Op::Store(_)) {
                    ReqKind::Write
                } else {
                    ReqKind::Read
                };
                // Instruction fetch for this operand instruction.
                if self.op_fetched & bit == 0 {
                    self.op_fetched |= bit;
                    if let Some(line) = self.ces[id].ifetch_step() {
                        self.ces[id].pending_ifetch = Some(line);
                        return LaneStep::Request(line, ReqKind::IFetch);
                    }
                }
                // Paging: first touch of the op.
                if self.vm_checked & bit == 0 {
                    self.vm_checked |= bit;
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
                        return LaneStep::Faulted(until);
                    }
                }
                let line = a.line(self.cfg.cache.line_bytes);
                LaneStep::Request(line, kind)
            }
            Op::AwaitSync(t) => {
                self.ces[id].cur_op = None;
                if self.ccb.sync_reached(t) {
                    // Proceeds next cycle; the check itself costs this one.
                    return LaneStep::Idle;
                }
                self.ces[id].state = CeState::AwaitSync { target: t };
                LaneStep::Parked(t)
            }
            Op::PostSync(v) => {
                self.ccb.post_sync(v);
                self.ces[id].stats.instrs += 1;
                self.ces[id].cur_op = None;
                LaneStep::Posted
            }
        }
    }

    /// Complete lane `id`'s granted request for `line`: the shared-cache
    /// access and the memory-bus transactions it causes, then either the
    /// hit completion or a miss stall. Returns the stall's wake cycle on a
    /// miss.
    #[inline(always)]
    pub(super) fn lane_grant(
        &mut self,
        id: CeId,
        now: Cycle,
        line: LineId,
        kind: ReqKind,
    ) -> Option<Cycle> {
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
                ReqKind::Read | ReqKind::Write => self.finish_op(id),
            }
            return None;
        }
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
        Some(until)
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
}
