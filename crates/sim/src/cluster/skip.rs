//! The fast-forward engine: closed-form advance over provably quiescent
//! windows. [`Cluster::skippable`] proves how many cycles nothing can act
//! in; [`Cluster::advance_bulk`] applies their pure per-cycle effects
//! (waits, denials, burst retirement, IP replay) in one pass.

use super::Cluster;
use crate::ce::{CeRole, CeState};
use crate::stream::Op;
use crate::CeId;

/// Everything a quiescent window's bulk application needs, computed by
/// [`Cluster::skippable`] in its single pass over the CEs so
/// [`Cluster::advance_bulk`] never rescans them. `k == 0` means the next
/// cycle must be stepped normally (the other fields are then meaningless).
#[derive(Debug, Clone, Copy)]
pub(super) struct SkipPlan {
    /// Window length in cycles (0 = not skippable).
    pub(super) k: u64,
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

impl Cluster {
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
    /// The dense kernel jumps the quiet stretches inside its own windows
    /// on the same terms, read from its lane masks (`Cluster::step_dense`);
    /// a term added here must be added there.
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
    pub(super) fn skippable(&self, limit: u64) -> SkipPlan {
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
    pub(super) fn advance_bulk(&mut self, plan: SkipPlan) {
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
}
