//! The scalar stepper: one bus cycle at a time, the oracle the dense
//! kernel must match bit for bit. It owns what happens *around* the lanes
//! — CCB iteration dispatch and join, the crossbar's request vectors, the
//! probe word and the per-cycle audit hook — and leaves each lane's own
//! behaviour to [`Cluster::lane_step`] and its siblings.

use super::lane::{LaneStep, ReqKind};
use super::{Cluster, Load};
use crate::ccb::IterGrant;
use crate::ce::CeState;
use crate::opcode::CeBusOp;
use crate::probe::{ProbeWord, MAX_CES};

impl Cluster {
    /// One bus cycle. `probed` selects whether the memory-bus probe is
    /// decoded into the returned word; everything that advances machine
    /// state (and every statistic) is identical on both paths, so quiet
    /// `run` and probed `capture` produce bit-identical trajectories.
    pub(super) fn step_cycle(&mut self, probed: bool) -> ProbeWord {
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
                        // dense kernel ends its window before a grant
                        // cycle), so this is the single dispatch-to-grant
                        // measurement point.
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
                        self.lane_wake(id);
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
            if let LaneStep::Request(line, kind) = self.lane_step(id, now) {
                req_bank[id] = Some(self.caches.bank_of(line));
                req_info[id] = Some((line, kind));
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
            self.lane_grant(id, now, line, kind);
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
        // constant inside dense windows, jumps included — every change is
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
