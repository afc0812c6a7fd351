//! The dense batch kernel: the one fast engine. Windows of whatever the
//! cluster holds — an idle machine, a serial section, a concurrent loop or
//! its drain, detached processes beside any of them — are stepped as
//! whole-word lane masks, with quiet stretches jumped. It schedules; each
//! lane it visits acts through the shared [`Cluster::lane_step`],
//! [`Cluster::lane_wake`] and [`Cluster::lane_grant`], so only *when* a
//! lane is visited and how its pure per-cycle effects are accrued differ
//! from the scalar stepper.

use super::lane::{LaneStep, ReqKind};
use super::Cluster;
use crate::ce::{CeRole, CeState};
use crate::config::MAX_BANKS;
use crate::opcode::CeBusOp;
use crate::probe::MAX_CES;
use crate::LaneWord;

impl Cluster {
    /// Whether the dense kernel may take the machine: every unmounted lane
    /// is provably inert, so the kernel can ignore it entirely. Every other
    /// lane — worker, serial, detached — is packed, and the cycles the
    /// kernel cannot replicate inline (CCB grants, exhaustion, join and
    /// promotion) end its window and run on the scalar stepper. Forced off
    /// under the `audit` feature so the per-cycle auditor keeps observing
    /// every cycle, and by the `dense_stepping` config knob.
    pub(super) fn dense_eligible(&self) -> bool {
        if cfg!(feature = "audit") || !self.cfg.dense_stepping {
            return false;
        }
        self.ces.iter().all(|ce| {
            ce.role != CeRole::Inactive
                || (ce.state == CeState::Ready
                    && ce.cur_op.is_none()
                    && ce.ops.is_empty()
                    && ce.compute_left == 0
                    && ce.pending_ifetch.is_none())
        })
    }

    /// The dense SoA batch stepper: run up to `limit` cycles in one fused
    /// pass, bit-identically to the same number of [`Cluster::step_cycle`]
    /// calls (probe words discarded). Returns how many cycles were
    /// advanced; 0 means the very next cycle is a CCB-resolution cycle the
    /// scalar stepper must run.
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
    ///   bank×word requester table that [`Crossbar::arbitrate_masks`]
    ///   resolves by scanning only occupied banks. Its wait is one segment
    ///   stamped at the request cycle and closed in closed form at the
    ///   grant (or at window exit): every cycle of it occupies the CE bus,
    ///   and every cycle but the granted one is a denial, charged through
    ///   [`Crossbar::note_denied_retries`];
    /// * a lane retiring a compute burst inside its probed icache line is
    ///   not revisited: its pure-retirement segment is bounded by
    ///   [`Ce::compute_burst_horizon`] and applied in closed form at the
    ///   segment end ([`Ce::advance_compute_burst`]);
    /// * sync waiters are revisited only when the register can have moved
    ///   for them — at entry if some target is already reached, then on
    ///   cycles adjacent to a `PostSync` — with the same-cycle
    ///   lower-to-higher lane visibility of the scalar loop preserved by
    ///   re-arming the visit word mid-pass;
    /// * a serial successor parked in `AwaitJoin` is inert until the last
    ///   iteration completes; its worker then awaits an iteration the
    ///   exhausted CCB cannot grant, which ends the window, and the join
    ///   resolves on the next (scalar) cycle;
    /// * per-cycle classification — who issues, who is granted, who waits —
    ///   is mask expressions and popcounts, not branches;
    /// * a cycle that opens with no lane to visit — none ready outside a
    ///   request or burst segment, no wake due, no sync waiter to re-check —
    ///   starts a quiet stretch, and (with `fast_forward` on) the kernel
    ///   jumps it to its event horizon, read straight from the masks: the
    ///   earliest stall, fault or burst stamp, the release of a bank a
    ///   pending lane waits on ([`Crossbar::bank_free_at`]), the CCB
    ///   grant channel's release while a lane awaits an iteration, the
    ///   window limit. Nothing else can act first: the membus and crossbar
    ///   only change when a request reaches them and the caches only react.
    ///   The IP subsystem acts every cycle but never reads CE state, so
    ///   the stretch replays its RNG draw for draw; sync and grant waits
    ///   accrue as `k ×` popcounts. An idle machine packs no lane, so its
    ///   whole window is one jump. A jump of two or more cycles counts as
    ///   skipped.
    ///
    /// The membus start-ring gc is deferred to the window end: gc is a
    /// monotone threshold-pop and `schedule`'s insertion search never lands
    /// on stale entries (the `deferred_gc_matches_per_cycle_gc` membus
    /// test).
    ///
    /// The window ends at `limit`, at the armed-probe deadline, or at the
    /// first cycle where the CCB would resolve an iteration request (grant
    /// or exhaustion): those cycles run iteration generation, daisy-chain
    /// stalls, unmounting, the join and serial promotion, which stay
    /// scalar.
    pub(super) fn step_dense(&mut self, mut limit: u64) -> u64 {
        debug_assert!(self.dense_eligible());
        let mut now = self.now;
        if let Some(probe) = self.next_probe_at {
            // Never run into a cycle an armed analyzer must observe.
            if probe <= now {
                return 0;
            }
            limit = limit.min(probe - now);
        }
        debug_assert!(self.ces.len() <= MAX_CES);

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

        // --- Pure compute-burst segments. A lane retiring inside its
        // probed icache line is inert (one retirement per cycle, no shared
        // state): it parks in `burst_mask` with its segment end in
        // `until_arr` and the retirements are applied in closed form when
        // the segment ends or the window exits. A segment opens wherever a
        // Ready lane's next cycles are such retirements: at window entry,
        // after a retirement, and once a fetch fill or a stall wake hands
        // a mid-burst lane back.
        let mut burst_mask: LaneWord = 0;
        let mut burst_from = [0u64; MAX_CES];
        macro_rules! open_burst {
            ($id:expr, $from:expr) => {{
                let h = self.ces[$id].compute_burst_horizon();
                if h > 0 {
                    burst_mask |= 1 << $id;
                    burst_from[$id] = $from;
                    until_arr[$id] = $from + h;
                    next_wake = next_wake.min(until_arr[$id]);
                }
            }};
        }

        // Sync waiters re-check the register only when it can have moved:
        // at entry if some waiter's target is already reached, then on
        // cycles adjacent to a PostSync.
        let mut sync_dirty = false;
        for (id, ce) in self.ces.iter().enumerate() {
            if ce.role == CeRole::Inactive {
                continue; // inert unmounted lane (checked by eligibility)
            }
            let bit: LaneWord = 1 << id;
            // A detached lane steps like any other but never asserts CCB
            // activity.
            if ce.is_ccb_active() {
                active_lanes |= bit;
            }
            match ce.state {
                CeState::Ready => {
                    ready_mask |= bit;
                    open_burst!(id, now);
                }
                CeState::AwaitIter => iter_mask |= bit,
                CeState::AwaitSync { target } => {
                    sync_mask |= bit;
                    sync_target_arr[id] = target;
                    sync_dirty |= self.ccb.sync_reached(target);
                }
                // A serial successor parked on the join is inert. The
                // cycle that completes the loop's last iteration leaves
                // its worker awaiting an iteration the exhausted CCB
                // cannot grant, which ends the window at the next cycle:
                // the join resolves there, on the scalar stepper.
                CeState::AwaitJoin => {}
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
        // `arbitrate_masks` scans via the `occupied` bank bitmask. The
        // wait is a segment from `req_from`, closed at the grant or at
        // window exit.
        let mut pending_mask: LaneWord = 0;
        let mut bank_req: [LaneWord; MAX_BANKS] = [0; MAX_BANKS];
        let mut occupied = 0u32;
        let mut req_line = [crate::addr::LineId(0); MAX_CES];
        let mut req_kind = [ReqKind::Read; MAX_CES];
        let mut req_bank = [0usize; MAX_CES];
        let mut req_from = [0u64; MAX_CES];

        // --- Per-window wait accumulators, flushed once at exit.
        let mut sync_wait_acc = 0u64;
        let mut grant_wait_acc = 0u64;
        let hit_cycles = self.cfg.cache_hit_cycles;
        let jump = self.cfg.fast_forward;
        let mut done = 0u64;
        // Cycles jumped in stretches of two or more.
        let mut skipped = 0u64;

        while done < limit {
            // A pending iteration request resolves (grant or exhaustion)
            // the moment the grant channel is idle: that cycle runs the
            // scalar stepper. While the channel is busy, requesters only
            // accrue wait cycles — exactly what the scalar arbitration
            // would have recorded.
            if iter_mask != 0 && self.ccb.grant_horizon(now).is_none() {
                break;
            }

            // A quiet stretch: no lane can act until the earliest wake,
            // bank release or grant-channel release (the channel is busy
            // whenever `iter_mask` is set, by the check above). Parked
            // sync waiters and join lanes wait on a Ready lane, which
            // would be visitable.
            if jump
                && !sync_dirty
                && now < next_wake
                && ready_mask & !pending_mask & !burst_mask == 0
            {
                let mut end = next_wake.min(now + (limit - done));
                let mut banks = occupied;
                while banks != 0 {
                    let b = banks.trailing_zeros() as usize;
                    banks &= banks - 1;
                    end = end.min(self.crossbar.bank_free_at(b));
                }
                if iter_mask != 0 {
                    end = end.min(self.ccb.grant_horizon(now).unwrap_or(now));
                }
                let k = end.saturating_sub(now);
                if k >= 2 {
                    self.ip.replay(now, k, &mut self.caches, &mut self.membus);
                    sync_wait_acc += k * sync_mask.count_ones() as u64;
                    grant_wait_acc += k * iter_mask.count_ones() as u64;
                    now += k;
                    done += k;
                    skipped += k;
                    continue;
                }
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
            // arithmetic below.
            let sync_check: LaneWord = if sync_dirty { sync_mask } else { 0 };
            sync_dirty = false;
            let mut sync_handled: LaneWord = 0;
            let mut visit = (ready_mask & !pending_mask & !burst_mask) | due | sync_check;
            while visit != 0 {
                let id = visit.trailing_zeros() as usize;
                visit &= visit - 1;
                let bit: LaneWord = 1 << id;

                if due & bit != 0 {
                    if stall_mask & bit != 0 {
                        // Completion handshake cycle.
                        if stall_resume[id].is_busy() {
                            self.ces[id].stats.bus_busy_cycles += 1;
                        }
                        self.lane_wake(id);
                        stall_mask &= !bit;
                    } else {
                        self.ces[id].state = CeState::Ready;
                        fault_mask &= !bit;
                    }
                    ready_mask |= bit;
                    open_burst!(id, now + 1);
                    continue;
                }

                if sync_mask & bit != 0 {
                    sync_handled |= bit;
                    if self.ccb.sync_reached(sync_target_arr[id]) {
                        self.ces[id].state = CeState::Ready;
                        sync_mask &= !bit;
                        ready_mask |= bit;
                    } else {
                        sync_wait_acc += 1;
                    }
                    continue;
                }

                // Ready lane: the shared per-cycle step, then move the lane
                // between the kernel's masks by what it did.
                match self.lane_step(id, now) {
                    LaneStep::Request(line, kind) => {
                        let b = self.caches.bank_of(line);
                        pending_mask |= bit;
                        req_line[id] = line;
                        req_kind[id] = kind;
                        req_bank[id] = b;
                        req_from[id] = now;
                        bank_req[b] |= bit;
                        occupied |= 1 << b;
                    }
                    LaneStep::Retired => open_burst!(id, now + 1),
                    LaneStep::Parked(t) => {
                        ready_mask &= !bit;
                        sync_mask |= bit;
                        sync_target_arr[id] = t;
                        // No wait accrues on the parking cycle.
                        sync_handled |= bit;
                    }
                    LaneStep::Posted => {
                        // Scalar same-cycle visibility: parked lanes with a
                        // *higher* id see the new value this cycle (they
                        // come later in the per-CE order); lower ids were
                        // already passed and re-check next cycle. The mask
                        // of this lane and those below it is `bit | (bit -
                        // 1)`, which cannot overflow at lane 63.
                        visit |= sync_mask & !(bit | (bit - 1));
                        sync_dirty = true;
                    }
                    LaneStep::Faulted(until) => {
                        ready_mask &= !bit;
                        fault_mask |= bit;
                        until_arr[id] = until;
                        next_wake = next_wake.min(until);
                    }
                    // Inactive lanes never enter the masks and detached
                    // ones refill, so a lane that runs out of ops is a
                    // worker at its iteration boundary.
                    LaneStep::AwaitIter => {
                        ready_mask &= !bit;
                        iter_mask |= bit;
                    }
                    LaneStep::Idle => {}
                }
            }

            // Parked sync waiters not individually visited this cycle all
            // stayed blocked (the register cannot have moved for them):
            // accrue their wait in one popcount.
            sync_wait_acc += (sync_mask & !sync_handled).count_ones() as u64;

            // --- Crossbar arbitration over the persistent bank table and
            // cache access for the winners, mask-native.
            if pending_mask != 0 {
                let mut m = self
                    .crossbar
                    .arbitrate_masks(now, &bank_req, occupied, hit_cycles);
                while m != 0 {
                    let id = m.trailing_zeros() as usize;
                    m &= m - 1;
                    let bit: LaneWord = 1 << id;
                    // The grant consumes the request and closes its
                    // segment: `now - from` denied cycles, then this one.
                    let waited = now - req_from[id];
                    self.ces[id].stats.bus_busy_cycles += waited + 1;
                    self.crossbar.note_denied_retries(id, waited);
                    pending_mask &= !bit;
                    let b = req_bank[id];
                    bank_req[b] &= !bit;
                    if bank_req[b] == 0 {
                        occupied &= !(1u32 << b);
                    }
                    if let Some(until) = self.lane_grant(id, now, req_line[id], req_kind[id]) {
                        ready_mask &= !bit;
                        stall_mask |= bit;
                        until_arr[id] = until;
                        stall_resume[id] = CeBusOp::MissWait;
                        next_wake = next_wake.min(until);
                    } else {
                        open_burst!(id, now + 1);
                    }
                }
            }

            now += 1;
            done += 1;
        }

        if done == 0 {
            return 0;
        }
        // --- Window-exit flush: the per-cycle effects accrued in closed
        // form, and the deferred start-ring gc.
        let mut m = burst_mask;
        while m != 0 {
            let id = m.trailing_zeros() as usize;
            m &= m - 1;
            // Open burst segments: `now` is the first unexecuted cycle, so
            // `now - from` retirements happened (capped by the horizon
            // that armed the segment).
            self.ces[id].advance_compute_burst(now - burst_from[id]);
        }
        let mut m = pending_mask;
        while m != 0 {
            let id = m.trailing_zeros() as usize;
            m &= m - 1;
            // Open request segments: every cycle from the request through
            // `now - 1` was denied.
            let waited = now - req_from[id];
            self.ces[id].stats.bus_busy_cycles += waited;
            self.crossbar.note_denied_retries(id, waited);
        }
        self.membus.gc(now - 1);
        if sync_wait_acc > 0 {
            self.ccb.note_sync_waits(sync_wait_acc);
        }
        if grant_wait_acc > 0 {
            self.ccb.note_grant_waits(grant_wait_acc);
        }
        let mut m = active_lanes;
        while m != 0 {
            let id = m.trailing_zeros() as usize;
            m &= m - 1;
            // Roles only change on the scalar CCB-resolution cycles, so
            // every CCB-active lane was active for the whole window.
            self.ces[id].stats.active_cycles += done;
        }
        let from = self.now;
        self.now = now;
        self.cycles_total += done;
        self.cycles_dense += done - skipped;
        self.cycles_skipped += skipped;
        if let Some(tr) = self.tracer.as_deref_mut() {
            tr.push(crate::trace::TraceEvent::DenseWindow {
                from,
                cycles: done,
                skipped,
            });
        }
        done
    }
}
