//! The Concurrency Control Bus.
//!
//! Concurrency on the FX/8 is dispatched in hardware: a special instruction
//! starts concurrent operation, "iterations of the DO loop are assigned to
//! CEs in a self-scheduled fashion", and "the processor which executes the
//! last iteration will continue serial execution after all iterations are
//! complete" (§ 3.2). Synchronization between dependent iterations also
//! rides this physically separate bus, so dependence waiting generates no
//! cache-bus traffic (§ 5.1).
//!
//! The grant daisy chain arbitrates simultaneous iteration requests. Its
//! default wiring ([`Arbitration::EndsFirst`]) favours the CEs at the ends
//! of the backplane — the mechanism this reproduction uses to explain the
//! paper's observation that CEs 7 and 0 stay busiest through concurrency
//! transitions (leftover iterations keep landing on them).

use crate::config::Arbitration;
use crate::{CeId, Cycle};
use serde::{Deserialize, Serialize};

/// Response to an iteration request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IterGrant {
    /// Keep waiting — the grant channel is occupied this cycle.
    Wait,
    /// Execute this iteration.
    Iter(u64),
    /// No iterations remain.
    Exhausted,
}

/// Dispatch counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CcbStats {
    /// Iterations granted, by CE.
    pub grants_by_ce: Vec<u64>,
    /// Cycles CEs spent waiting for the grant channel.
    pub grant_wait_cycles: u64,
    /// Cycles CEs spent blocked on the synchronization register.
    pub sync_wait_cycles: u64,
}

/// State of the in-flight concurrent loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct LoopState {
    /// Next iteration index to hand out.
    next: u64,
    /// One past the last iteration index.
    total: u64,
    /// Iterations completed (including those done before this window).
    done: u64,
    /// CE granted the final iteration, if assigned yet.
    last_iter_ce: Option<CeId>,
}

/// The Concurrency Control Bus.
#[derive(Debug)]
pub struct Ccb {
    arb: Arbitration,
    grant_cycles: u64,
    /// Cycle at which the grant channel frees up.
    channel_free: Cycle,
    rotor: usize,
    state: Option<LoopState>,
    sync_value: u64,
    stats: CcbStats,
}

impl Ccb {
    /// Build a CCB for `n_ces` CEs.
    pub fn new(n_ces: usize, arb: Arbitration, grant_cycles: u64) -> Self {
        Ccb {
            arb,
            grant_cycles: grant_cycles.max(1),
            channel_free: 0,
            rotor: 0,
            state: None,
            sync_value: 0,
            stats: CcbStats {
                grants_by_ce: vec![0; n_ces],
                ..Default::default()
            },
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> &CcbStats {
        &self.stats
    }

    /// Begin (or resume, at macro progress `first`) a concurrent loop of
    /// `total` iterations. Resets the sync register to `first` so dependent
    /// loops resumed mid-way do not deadlock.
    pub fn start_loop(&mut self, first: u64, total: u64) {
        assert!(first <= total, "progress beyond loop end");
        self.state = Some(LoopState {
            next: first,
            total,
            done: first,
            last_iter_ce: None,
        });
        self.sync_value = first;
    }

    /// Tear down loop state (cluster unmount).
    pub fn clear(&mut self) {
        self.state = None;
    }

    /// Iterations not yet handed out.
    pub fn remaining(&self) -> u64 {
        self.state.map_or(0, |s| s.total - s.next)
    }

    /// Whether every iteration has completed.
    pub fn all_complete(&self) -> bool {
        self.state.is_none_or(|s| s.done == s.total)
    }

    /// The CE that must continue serial execution after the loop, if the
    /// final iteration has been assigned.
    pub fn serial_successor(&self) -> Option<CeId> {
        self.state.and_then(|s| s.last_iter_ce)
    }

    /// Arbitrate one cycle of iteration requests into a caller-owned
    /// buffer — the per-cycle path, free of heap allocation. `requesting[ce]`
    /// is true if CE `ce` needs an iteration this cycle; every slot of `out`
    /// is overwritten. At most one grant per `grant_cycles`; once iterations
    /// run out every requester immediately learns `Exhausted`.
    pub fn arbitrate_into(&mut self, now: Cycle, requesting: &[bool], out: &mut [IterGrant]) {
        let n = self.stats.grants_by_ce.len();
        debug_assert_eq!(requesting.len(), n);
        debug_assert_eq!(out.len(), n);
        out.fill(IterGrant::Wait);
        let Some(state) = &mut self.state else {
            // No loop mounted: nothing to grant.
            for (ce, &req) in requesting.iter().enumerate() {
                if req {
                    out[ce] = IterGrant::Exhausted;
                }
            }
            return;
        };

        if state.next == state.total {
            for (ce, &req) in requesting.iter().enumerate() {
                if req {
                    out[ce] = IterGrant::Exhausted;
                }
            }
            return;
        }

        if self.channel_free > now {
            self.stats.grant_wait_cycles += requesting.iter().filter(|&&r| r).count() as u64;
            return;
        }

        let winner = self
            .arb
            .order_iter(n, self.rotor)
            .find(|&ce| requesting[ce]);
        if let Some(w) = winner {
            let iter = state.next;
            state.next += 1;
            if state.next == state.total {
                state.last_iter_ce = Some(w);
            }
            out[w] = IterGrant::Iter(iter);
            self.stats.grants_by_ce[w] += 1;
            self.rotor = w;
            self.channel_free = now + self.grant_cycles;
            // Losers wait for the channel.
            let losers = requesting
                .iter()
                .enumerate()
                .filter(|&(ce, &r)| r && ce != w)
                .count();
            self.stats.grant_wait_cycles += losers as u64;
        }
    }

    /// Record that a CE finished an iteration.
    pub fn complete_iter(&mut self) {
        if let Some(state) = &mut self.state {
            debug_assert!(state.done < state.total, "more completions than iterations");
            state.done += 1;
        }
    }

    /// Check the synchronization register against an `AwaitSync` target.
    pub fn sync_reached(&self, target: u64) -> bool {
        self.sync_value >= target
    }

    /// Count a cycle spent blocked on synchronization (for stats).
    pub fn note_sync_wait(&mut self) {
        self.stats.sync_wait_cycles += 1;
    }

    /// Bulk form of [`Ccb::note_sync_wait`]: the dense kernel charges a
    /// whole window of blocked cycles at once.
    pub(crate) fn note_sync_waits(&mut self, cycles: u64) {
        self.stats.sync_wait_cycles += cycles;
    }

    /// Bulk grant-channel wait accounting for the dense kernel: while
    /// the channel is busy, [`Ccb::arbitrate_into`] charges one
    /// `grant_wait_cycles` per requester per cycle and mutates nothing
    /// else, so a skipped window of `cycles` with `requesters` CEs in
    /// `AwaitIter` owes exactly `cycles * requesters`.
    pub(crate) fn note_grant_waits(&mut self, cycles: u64) {
        self.stats.grant_wait_cycles += cycles;
    }

    /// Event horizon of the grant channel for CEs waiting in `AwaitIter`:
    /// `Some(c)` means nothing can be granted before cycle `c` (the channel
    /// is busy and only time frees it), so every cycle until then is a pure
    /// `Wait` with stat-only effects. `None` means arbitration resolves
    /// *this* cycle — a grant lands, or the requesters learn `Exhausted`
    /// (both the no-loop and the handed-out-everything cases bypass the
    /// channel-busy check in [`Ccb::arbitrate_into`]) — and the stepper
    /// must run it.
    pub(crate) fn grant_horizon(&self, now: Cycle) -> Option<Cycle> {
        match self.state {
            Some(s) if s.next < s.total && self.channel_free > now => Some(self.channel_free),
            _ => None,
        }
    }

    /// Apply a `PostSync` advance.
    pub fn post_sync(&mut self, value: u64) {
        self.sync_value = self.sync_value.max(value);
    }

    /// Loop progress `(next, done, total)` of the mounted loop, if any —
    /// the ground truth the invariant auditor checks dispatch against.
    pub fn progress(&self) -> Option<(u64, u64, u64)> {
        self.state.map(|s| (s.next, s.done, s.total))
    }

    /// Current value of the synchronization register.
    pub fn sync_value(&self) -> u64 {
        self.sync_value
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn all_requesting(n: usize) -> Vec<bool> {
        vec![true; n]
    }

    /// One cycle through the stepper's arbiter, grants collected for
    /// comparison.
    fn grants(ccb: &mut Ccb, now: Cycle, requesting: &[bool]) -> Vec<IterGrant> {
        let mut out = vec![IterGrant::Wait; requesting.len()];
        ccb.arbitrate_into(now, requesting, &mut out);
        out
    }

    #[test]
    fn iterations_hand_out_in_order_and_exhaust() {
        let mut ccb = Ccb::new(2, Arbitration::FixedLowFirst, 1);
        ccb.start_loop(0, 3);
        let mut granted = Vec::new();
        let mut t = 0;
        while granted.len() < 3 {
            for g in grants(&mut ccb, t, &all_requesting(2)) {
                if let IterGrant::Iter(i) = g {
                    granted.push(i);
                }
            }
            t += 1;
        }
        assert_eq!(granted, vec![0, 1, 2]);
        let g = grants(&mut ccb, t, &all_requesting(2));
        assert!(g.iter().all(|x| *x == IterGrant::Exhausted));
    }

    #[test]
    fn one_grant_per_grant_period() {
        let mut ccb = Ccb::new(4, Arbitration::FixedLowFirst, 2);
        ccb.start_loop(0, 100);
        let g0 = grants(&mut ccb, 0, &all_requesting(4));
        assert_eq!(
            g0.iter()
                .filter(|g| matches!(g, IterGrant::Iter(_)))
                .count(),
            1
        );
        // Channel busy at cycle 1 (grant_cycles = 2).
        let g1 = grants(&mut ccb, 1, &all_requesting(4));
        assert!(g1.iter().all(|g| *g == IterGrant::Wait));
        let g2 = grants(&mut ccb, 2, &all_requesting(4));
        assert_eq!(
            g2.iter()
                .filter(|g| matches!(g, IterGrant::Iter(_)))
                .count(),
            1
        );
    }

    #[test]
    fn ends_first_gives_leftovers_to_ce0_and_ce7() {
        let mut ccb = Ccb::new(8, Arbitration::EndsFirst, 1);
        ccb.start_loop(0, 2); // two leftover iterations, everyone asks
        let g0 = grants(&mut ccb, 0, &all_requesting(8));
        assert_eq!(g0[0], IterGrant::Iter(0), "CE0 wins first leftover");
        // CE0 is now busy executing; the rest keep requesting.
        let mut req = all_requesting(8);
        req[0] = false;
        let g1 = grants(&mut ccb, 1, &req);
        assert_eq!(g1[7], IterGrant::Iter(1), "CE7 wins second leftover");
    }

    #[test]
    fn last_iteration_ce_becomes_serial_successor() {
        let mut ccb = Ccb::new(2, Arbitration::FixedLowFirst, 1);
        ccb.start_loop(0, 2);
        assert_eq!(ccb.serial_successor(), None);
        grants(&mut ccb, 0, &[true, false]); // CE0 takes iter 0
        grants(&mut ccb, 1, &[false, true]); // CE1 takes iter 1 (the last)
        assert_eq!(ccb.serial_successor(), Some(1));
    }

    #[test]
    fn completion_tracking_resumes_from_macro_progress() {
        let mut ccb = Ccb::new(2, Arbitration::FixedLowFirst, 1);
        ccb.start_loop(10, 12); // 10 done at macro level, 2 to go
        assert!(!ccb.all_complete());
        assert_eq!(ccb.remaining(), 2);
        grants(&mut ccb, 0, &[true, false]);
        grants(&mut ccb, 1, &[false, true]);
        ccb.complete_iter();
        assert!(!ccb.all_complete());
        ccb.complete_iter();
        assert!(ccb.all_complete());
    }

    #[test]
    fn sync_register_orders_dependent_iterations() {
        let mut ccb = Ccb::new(2, Arbitration::FixedLowFirst, 1);
        ccb.start_loop(5, 10);
        // Resumed at iteration 5: awaiting 5 passes, awaiting 6 blocks.
        assert!(ccb.sync_reached(5));
        assert!(!ccb.sync_reached(6));
        ccb.post_sync(6);
        assert!(ccb.sync_reached(6));
        // Posts never move the register backwards.
        ccb.post_sync(2);
        assert!(ccb.sync_reached(6));
    }

    #[test]
    fn no_loop_means_immediate_exhausted() {
        let mut ccb = Ccb::new(2, Arbitration::FixedLowFirst, 1);
        let g = grants(&mut ccb, 0, &[true, true]);
        assert!(g.iter().all(|x| *x == IterGrant::Exhausted));
        assert!(ccb.all_complete());
    }

    #[test]
    fn grant_horizon_tracks_channel_occupancy() {
        let mut ccb = Ccb::new(2, Arbitration::FixedLowFirst, 4);
        // No loop mounted: requests resolve immediately (Exhausted).
        assert_eq!(ccb.grant_horizon(0), None);
        ccb.start_loop(0, 2);
        // Channel free: a grant would land this cycle.
        assert_eq!(ccb.grant_horizon(0), None);
        grants(&mut ccb, 0, &[true, false]);
        // Channel busy until cycle 4: nothing can change before then.
        assert_eq!(ccb.grant_horizon(1), Some(4));
        assert_eq!(ccb.grant_horizon(3), Some(4));
        assert_eq!(ccb.grant_horizon(4), None);
        // Last iteration handed out: Exhausted resolves immediately even
        // while the channel is still cooling down.
        grants(&mut ccb, 4, &[true, false]);
        assert_eq!(ccb.remaining(), 0);
        assert_eq!(ccb.grant_horizon(5), None);
    }

    #[test]
    fn grant_stats_accumulate_per_ce() {
        let mut ccb = Ccb::new(3, Arbitration::FixedLowFirst, 1);
        ccb.start_loop(0, 6);
        let mut t = 0;
        while ccb.remaining() > 0 {
            grants(&mut ccb, t, &all_requesting(3));
            t += 1;
        }
        let total: u64 = ccb.stats().grants_by_ce.iter().sum();
        assert_eq!(total, 6);
        // Fixed-low-first with everyone always requesting: CE0 gets them all.
        assert_eq!(ccb.stats().grants_by_ce[0], 6);
    }
}
