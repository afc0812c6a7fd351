//! The CE↔cache crossbar switch.
//!
//! "Connection to these cache modules is accomplished through a crossbar
//! switch which routes both address and data between cache and CE"
//! (Appendix C). Each cache bank can service one CE request per cycle;
//! when several CEs address the same bank in the same cycle the crossbar
//! arbitrates and the losers retry, their buses showing the pending opcode
//! — which is how shared-resource contention becomes visible in the
//! CE-bus-busy measure.

use crate::config::Arbitration;
use crate::{CeId, Cycle, LaneWord};
use serde::{Deserialize, Serialize};

/// Contention counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CrossbarStats {
    /// Requests granted.
    pub grants: u64,
    /// Requests denied (lost arbitration or bank busy) — each denial costs
    /// the requesting CE at least one retry cycle.
    pub denials: u64,
    /// Denials broken down by requesting CE.
    pub denials_by_ce: Vec<u64>,
    /// Grants broken down by cache bank (the `fx8-trace` contention view:
    /// a skewed distribution means the interleave is not spreading lines).
    pub grants_by_bank: Vec<u64>,
}

/// The crossbar arbiter.
#[derive(Debug)]
pub struct Crossbar {
    arb: Arbitration,
    n_ces: usize,
    /// Per-bank cycle until which the bank is servicing a prior request.
    bank_busy_until: Vec<Cycle>,
    /// Per-bank round-robin rotor (last winner).
    rotor: Vec<usize>,
    /// Per-bank requester bitmask, rebuilt each arbitration cycle (owned
    /// buffer so the per-cycle path stays allocation-free).
    req_mask: Vec<LaneWord>,
    /// Priority permutation for the fixed (rotor-independent) disciplines,
    /// materialized once; empty for `RoundRobin`, whose order rotates.
    prio: Vec<u8>,
    stats: CrossbarStats,
}

impl Crossbar {
    /// Build an arbiter for `n_ces` CEs and `banks` cache banks.
    pub fn new(n_ces: usize, banks: usize, arb: Arbitration) -> Self {
        let prio = match arb {
            Arbitration::RoundRobin => Vec::new(),
            fixed => fixed.order(n_ces, 0).into_iter().map(|c| c as u8).collect(),
        };
        Crossbar {
            arb,
            n_ces,
            bank_busy_until: vec![0; banks],
            rotor: vec![0; banks],
            req_mask: vec![0; banks],
            prio,
            stats: CrossbarStats {
                denials_by_ce: vec![0; n_ces],
                grants_by_bank: vec![0; banks],
                ..Default::default()
            },
        }
    }

    /// Highest-priority requester in `mask` under the current discipline.
    /// `mask` must be nonzero.
    #[inline]
    pub(crate) fn winner_of(&self, mask: LaneWord, rotor: usize) -> usize {
        // A lone requester wins under every discipline, so the policy scan
        // below runs only when two or more CEs contend for one bank in the
        // same cycle (the FX/8's eight CEs share four banks).
        if mask & (mask - 1) == 0 {
            return mask.trailing_zeros() as usize;
        }
        match self.arb {
            Arbitration::FixedLowFirst => mask.trailing_zeros() as usize,
            Arbitration::RoundRobin => {
                let n = self.n_ces;
                (0..n)
                    .map(|k| (rotor + 1 + k) % n)
                    .find(|&ce| mask & (1 << ce) != 0)
                    .expect("nonzero mask has a winner")
            }
            _ => self
                .prio
                .iter()
                .map(|&ce| ce as usize)
                .find(|&ce| mask & (1 << ce) != 0)
                .expect("nonzero mask has a winner"),
        }
    }

    /// Charge a denial to every CE set in `mask`.
    #[inline]
    fn deny_mask(&mut self, mut mask: LaneWord) {
        self.stats.denials += mask.count_ones() as u64;
        while mask != 0 {
            let ce = mask.trailing_zeros() as usize;
            self.stats.denials_by_ce[ce] += 1;
            mask &= mask - 1;
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> &CrossbarStats {
        &self.stats
    }

    /// Arbitrate one cycle into a caller-owned grant buffer — the per-cycle
    /// path, free of heap allocation. `requests[ce] = Some(bank)` if CE `ce`
    /// wants `bank` this cycle; every slot of `granted` is overwritten. A
    /// granted bank is then busy for `service_cycles` (hit-service
    /// occupancy).
    pub fn arbitrate_into(
        &mut self,
        now: Cycle,
        requests: &[Option<usize>],
        service_cycles: u64,
        granted: &mut [bool],
    ) {
        debug_assert_eq!(requests.len(), self.n_ces);
        debug_assert_eq!(granted.len(), self.n_ces);
        granted.fill(false);
        // One pass over the CEs builds per-bank requester bitmasks; the
        // per-bank work below is then mask arithmetic instead of rescanning
        // the request slice twice per bank.
        let banks = self.bank_busy_until.len();
        self.req_mask[..banks].fill(0);
        for (ce, req) in requests.iter().enumerate() {
            if let Some(b) = *req {
                if b < banks {
                    self.req_mask[b] |= 1 << ce;
                }
            }
        }
        let mut won = self.arbitrate_staged(now, service_cycles);
        while won != 0 {
            let ce = won.trailing_zeros() as usize;
            granted[ce] = true;
            won &= won - 1;
        }
    }

    /// Arbitrate one cycle from per-bank requester bitmasks, returning the
    /// granted CEs as a bitmask, through the same staged resolver (and so
    /// the same counter movement) as [`Crossbar::arbitrate_into`]. The
    /// reference resolver for the dense kernel's differential tests:
    /// `arbitrate_masks` must grant and count identically.
    #[cfg(test)]
    pub(crate) fn arbitrate_masks_staged(
        &mut self,
        now: Cycle,
        bank_req: &[LaneWord],
        service_cycles: u64,
    ) -> LaneWord {
        let banks = self.bank_busy_until.len();
        debug_assert!(bank_req.len() >= banks);
        self.req_mask[..banks].copy_from_slice(&bank_req[..banks]);
        self.arbitrate_staged(now, service_cycles)
    }

    /// The dense kernel's resolver, twin of the test-only
    /// `arbitrate_masks_staged`: resolve one cycle over a caller-maintained
    /// persistent bank×word requester table, visiting only the banks
    /// flagged in `occupied` (a bank bitmask the dense kernel keeps
    /// incrementally as requests enter and are granted). Two deliberate asymmetries against the staged resolver,
    /// both invisible at window granularity:
    ///
    /// * empty banks are never scanned — the occupancy word is the scan
    ///   list, so an idle 16-bank geometry costs nothing;
    /// * **denials are not charged here.** A denied request stays pending
    ///   unchanged until it is granted, so the dense kernel accrues its
    ///   denials as one request segment, closed at the grant or at window
    ///   exit, and flushes them through [`Crossbar::note_denied_retries`].
    ///   Grants, the per-bank rotor, and bank service occupancy move
    ///   per-grant, identically to the staged path.
    #[inline]
    pub(crate) fn arbitrate_masks(
        &mut self,
        now: Cycle,
        bank_req: &[LaneWord],
        occupied: u32,
        service_cycles: u64,
    ) -> LaneWord {
        let mut won: LaneWord = 0;
        let mut banks = occupied;
        while banks != 0 {
            let bank = banks.trailing_zeros() as usize;
            banks &= banks - 1;
            let mask = bank_req[bank];
            debug_assert!(mask != 0, "occupied bank {bank} has no requesters");
            if self.bank_busy_until[bank] > now {
                continue; // busy: denial accrued by the caller's segment
            }
            let w: CeId = self.winner_of(mask, self.rotor[bank]);
            won |= 1 << w;
            self.stats.grants += 1;
            self.stats.grants_by_bank[bank] += 1;
            self.bank_busy_until[bank] = now + service_cycles;
            self.rotor[bank] = w;
        }
        won
    }

    /// Resolve one cycle's conflicts over the staged `req_mask` buffers.
    /// Returns the winners as a CE bitmask.
    fn arbitrate_staged(&mut self, now: Cycle, service_cycles: u64) -> LaneWord {
        let banks = self.bank_busy_until.len();
        let mut won: LaneWord = 0;
        for bank in 0..banks {
            let mask = self.req_mask[bank];
            if mask == 0 {
                continue;
            }
            if self.bank_busy_until[bank] > now {
                // Bank still servicing: everyone aiming at it is denied.
                self.deny_mask(mask);
                continue;
            }
            let w: CeId = self.winner_of(mask, self.rotor[bank]);
            won |= 1 << w;
            self.stats.grants += 1;
            self.stats.grants_by_bank[bank] += 1;
            self.bank_busy_until[bank] = now + service_cycles;
            self.rotor[bank] = w;
            self.deny_mask(mask & !(1 << w));
        }
        won
    }

    /// The cycle at which `bank` can next grant a request; a value at or
    /// before the current cycle means the bank is free now. The dense
    /// kernel's jump horizon leans on this: a request denied because its
    /// bank is busy cannot be granted — and a denial mutates nothing but
    /// the denial counters — before this cycle.
    pub fn bank_free_at(&self, bank: usize) -> Cycle {
        self.bank_busy_until[bank]
    }

    /// Account `k` denied retry cycles for CE `ce` in closed form: exactly
    /// the counter movement `k` busy-bank [`Crossbar::arbitrate_into`]
    /// cycles would record for that CE (a busy-bank denial touches no
    /// other arbiter state — the rotor only moves on grants).
    pub fn note_denied_retries(&mut self, ce: CeId, k: u64) {
        self.stats.denials += k;
        self.stats.denials_by_ce[ce] += k;
    }

    /// Capacity invariants over one cycle's arbitration outcome: a grant
    /// implies a request, at most one grant per bank, and the granted bank
    /// was claimed for service. Allocation-free (nested scan over ≤ 8 CEs).
    #[cfg(feature = "audit")]
    pub(crate) fn audit_check(
        &self,
        now: Cycle,
        requests: &[Option<usize>],
        granted: &[bool],
    ) -> Result<(), String> {
        for (ce, &g) in granted.iter().enumerate() {
            if !g {
                continue;
            }
            let Some(bank) = requests[ce] else {
                return Err(format!("CE{ce} granted without a request"));
            };
            if self.bank_busy_until[bank] < now {
                return Err(format!(
                    "CE{ce} granted bank {bank} but the bank was never claimed \
                     (busy_until {} < now {now})",
                    self.bank_busy_until[bank]
                ));
            }
            for (other, &g2) in granted.iter().enumerate() {
                if other != ce && g2 && requests[other] == Some(bank) {
                    return Err(format!(
                        "bank {bank} granted to CE{ce} and CE{other} in the same cycle"
                    ));
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One cycle through the stepper's arbiter, grants collected for
    /// comparison.
    fn grants(
        x: &mut Crossbar,
        now: Cycle,
        requests: &[Option<usize>],
        service_cycles: u64,
    ) -> Vec<bool> {
        let mut granted = vec![false; requests.len()];
        x.arbitrate_into(now, requests, service_cycles, &mut granted);
        granted
    }

    #[test]
    fn sole_requester_is_granted() {
        let mut x = Crossbar::new(4, 2, Arbitration::FixedLowFirst);
        let g = grants(&mut x, 0, &[None, Some(1), None, None], 1);
        assert_eq!(g, vec![false, true, false, false]);
        assert_eq!(x.stats().grants, 1);
        assert_eq!(x.stats().denials, 0);
    }

    #[test]
    fn conflict_resolved_by_priority() {
        let mut x = Crossbar::new(4, 1, Arbitration::FixedLowFirst);
        let g = grants(&mut x, 0, &[Some(0), Some(0), None, Some(0)], 1);
        assert_eq!(g, vec![true, false, false, false]);
        assert_eq!(x.stats().denials, 2);
        assert_eq!(x.stats().denials_by_ce, vec![0, 1, 0, 1]);
    }

    #[test]
    fn busy_bank_denies_everyone() {
        let mut x = Crossbar::new(2, 1, Arbitration::FixedLowFirst);
        assert_eq!(grants(&mut x, 0, &[Some(0), None], 3), vec![true, false]);
        // Cycles 1 and 2: bank busy.
        assert_eq!(grants(&mut x, 1, &[None, Some(0)], 3), vec![false, false]);
        assert_eq!(grants(&mut x, 2, &[None, Some(0)], 3), vec![false, false]);
        // Cycle 3: free again.
        assert_eq!(grants(&mut x, 3, &[None, Some(0)], 3), vec![false, true]);
    }

    #[test]
    fn distinct_banks_grant_in_parallel() {
        let mut x = Crossbar::new(4, 4, Arbitration::FixedLowFirst);
        let g = grants(&mut x, 0, &[Some(0), Some(1), Some(2), Some(3)], 1);
        assert_eq!(g, vec![true; 4]);
    }

    #[test]
    fn bulk_denial_accounting_matches_per_cycle_retries() {
        let mk = || Crossbar::new(2, 1, Arbitration::FixedLowFirst);
        let (mut a, mut b) = (mk(), mk());
        // Claim the bank for 5 cycles at t=0 on both arbiters.
        assert_eq!(grants(&mut a, 0, &[Some(0), None], 5), vec![true, false]);
        assert_eq!(grants(&mut b, 0, &[Some(0), None], 5), vec![true, false]);
        // Per-cycle: CE1 retries cycles 1..5, denied each time.
        for t in 1..5 {
            assert_eq!(grants(&mut a, t, &[None, Some(0)], 5), vec![false, false]);
        }
        // Bulk: the horizon says the bank frees at cycle 5; account the
        // 4 skipped retry cycles in closed form.
        assert_eq!(b.bank_free_at(0), 5);
        b.note_denied_retries(1, 4);
        assert_eq!(a.stats(), b.stats());
        // Both arbiters then grant identically at the horizon cycle.
        let ga = grants(&mut a, 5, &[None, Some(0)], 5);
        let gb = grants(&mut b, 5, &[None, Some(0)], 5);
        assert_eq!(ga, gb);
        assert_eq!(ga, vec![false, true]);
        assert_eq!(a.stats(), b.stats());
    }

    #[test]
    fn round_robin_shares_a_contended_bank() {
        let mut x = Crossbar::new(2, 1, Arbitration::RoundRobin);
        let mut wins = [0u32; 2];
        for t in 0..10 {
            let g = grants(&mut x, t, &[Some(0), Some(0)], 1);
            for (ce, got) in g.iter().enumerate() {
                if *got {
                    wins[ce] += 1;
                }
            }
        }
        assert_eq!(wins[0], wins[1], "round robin must alternate: {wins:?}");
    }

    #[test]
    fn fixed_priority_starves_low_priority_under_saturation() {
        let mut x = Crossbar::new(2, 1, Arbitration::FixedLowFirst);
        for t in 0..10 {
            let g = grants(&mut x, t, &[Some(0), Some(0)], 1);
            assert!(g[0] && !g[1]);
        }
        assert_eq!(x.stats().denials_by_ce[1], 10);
    }

    mod masks_vs_staged {
        use super::*;
        use proptest::prelude::*;

        /// Cluster widths the differential suite samples: narrower than
        /// the measured machine, the machine itself, and the scaling-study
        /// widths up to the full `LaneWord`.
        const WIDTHS: [usize; 5] = [2, 8, 16, 32, 64];

        /// Bank count for a width, mirroring the scaled preset's geometry
        /// (one bank per two CEs, saturating at the 16-bank crossbar).
        fn banks_for(n_ces: usize) -> usize {
            (n_ces / 2).clamp(2, 16)
        }

        /// Drive both resolvers through the same random request
        /// trajectory; after the mask side's deferred-denial flush every
        /// observable — winners each cycle, rotor state (via future
        /// winners), and the full counter set — must agree.
        fn check_equivalence(arb: Arbitration, n_ces: usize, cycles: &[(Vec<LaneWord>, u64)]) {
            let banks = banks_for(n_ces);
            let mut staged = Crossbar::new(n_ces, banks, arb);
            let mut masks = Crossbar::new(n_ces, banks, arb);
            // Mask-side deferred denial bookkeeping, per CE — the dense
            // kernel closes it as request segments; here the request
            // table itself says who asked and lost.
            let mut denied = vec![0u64; n_ces];
            for (t, (bank_req, service)) in cycles.iter().enumerate() {
                let now = t as Cycle;
                let want = staged.arbitrate_masks_staged(now, bank_req, *service);
                let occupied =
                    bank_req
                        .iter()
                        .enumerate()
                        .fold(0u32, |o, (b, &m)| if m != 0 { o | 1 << b } else { o });
                let got = masks.arbitrate_masks(now, bank_req, occupied, *service);
                prop_assert_eq!(
                    want,
                    got,
                    "winners diverged at cycle {} (width {})",
                    t,
                    n_ces
                );
                let requesters = bank_req.iter().fold(0, |a, &m| a | m);
                let mut lost = requesters & !got;
                while lost != 0 {
                    let ce = lost.trailing_zeros() as usize;
                    denied[ce] += 1;
                    lost &= lost - 1;
                }
            }
            for (ce, &k) in denied.iter().enumerate() {
                masks.note_denied_retries(ce, k);
            }
            prop_assert_eq!(staged.stats(), masks.stats());
        }

        /// Random per-bank requester masks with disjoint lanes (a CE
        /// requests at most one bank per cycle, as the cluster guarantees).
        /// Only the first `n_ces` drawn bytes participate.
        fn split_lanes(raw: &[u8], n_ces: usize, banks: usize) -> Vec<LaneWord> {
            let mut req = vec![0 as LaneWord; banks];
            for (ce, &r) in raw.iter().take(n_ces).enumerate() {
                // 0..=banks encodes "no request" as banks.
                let choice = (r as usize) % (banks + 1);
                if choice < banks {
                    req[choice] |= 1 << ce;
                }
            }
            req
        }

        proptest! {
            /// One byte per possible lane is drawn each cycle; the sampled
            /// width decides how many take part, so the same trajectory
            /// shape exercises 2-lane and 64-lane arbitration alike.
            #[test]
            fn mask_resolver_matches_staged_resolver(
                arb_pick in 0usize..4,
                width_pick in 0usize..WIDTHS.len(),
                raw in prop::collection::vec(
                    (prop::collection::vec(any::<u8>(), 64..65), 1u64..=3),
                    1..60,
                ),
            ) {
                let arb = [
                    Arbitration::FixedLowFirst,
                    Arbitration::RoundRobin,
                    Arbitration::EndsFirst,
                    Arbitration::CenterFirst,
                ][arb_pick];
                let n_ces = WIDTHS[width_pick];
                let banks = banks_for(n_ces);
                let cycles: Vec<(Vec<LaneWord>, u64)> = raw
                    .iter()
                    .map(|(lanes, service)| (split_lanes(lanes, n_ces, banks), *service))
                    .collect();
                check_equivalence(arb, n_ces, &cycles);
            }

            /// The lone-requester fast path in `winner_of` must pick the
            /// same winner as the policy scan for every discipline and
            /// every single-bit mask, across the full lane range.
            #[test]
            fn lone_requester_fast_path_is_policy_invariant(
                arb_pick in 0usize..4,
                width_pick in 0usize..WIDTHS.len(),
                lane_seed in 0usize..64,
                rotor_seed in 0usize..64,
            ) {
                let arb = [
                    Arbitration::FixedLowFirst,
                    Arbitration::RoundRobin,
                    Arbitration::EndsFirst,
                    Arbitration::CenterFirst,
                ][arb_pick];
                let n_ces = WIDTHS[width_pick];
                let ce = lane_seed % n_ces;
                let rotor = rotor_seed % n_ces;
                let x = Crossbar::new(n_ces, banks_for(n_ces), arb);
                prop_assert_eq!(x.winner_of(1 << ce, rotor), ce);
            }
        }
    }
}
