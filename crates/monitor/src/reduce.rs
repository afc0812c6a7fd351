//! Reduction of acquisition buffers to event counts.
//!
//! § 3.4, Table 1 — "The programs have the ability to ... reduce the
//! acquired data to appropriate event counts":
//!
//! | name | event |
//! |---|---|
//! | `num_j`    | number of records with `j` processors active |
//! | `prof_j`   | number of records with processor `j` active |
//! | `ceop_j`   | number of records with CE bus opcode = `j` |
//! | `membop_j` | number of records with memory bus opcode = `j` |
//!
//! The derived system measures of Chapter 5 come straight from these:
//! *CE Bus Busy* is the non-idle fraction of CE-bus cycles averaged over
//! the eight buses, and *Missrate* is the fraction of total bus cycles
//! corresponding to cache misses (memory-bus `Fetch` starts per record).

use fx8_sim::opcode::{CeBusOp, MemBusOp};
use fx8_sim::ProbeWord;
use serde::{Deserialize, Serialize};

/// The reduced event counts of one or more acquisition buffers.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct EventCounts {
    /// `num[j]`: records with exactly `j` processors active, `j = 0..=P`.
    pub num: Vec<u64>,
    /// `prof[j]`: records in which processor `j` was active.
    pub prof: Vec<u64>,
    /// `ceop[op]`: CE-bus cycles (summed over all CE buses) with opcode `op`.
    pub ceop: [u64; CeBusOp::COUNT],
    /// `membop[op]`: records with memory-bus opcode `op`.
    pub membop: [u64; MemBusOp::COUNT],
    /// Records reduced.
    pub records: u64,
    /// CEs in the monitored cluster.
    pub n_ces: usize,
}

impl EventCounts {
    /// An empty accumulator for a cluster of `n_ces` CEs.
    pub fn empty(n_ces: usize) -> Self {
        EventCounts {
            num: vec![0; n_ces + 1],
            prof: vec![0; n_ces],
            ceop: [0; CeBusOp::COUNT],
            membop: [0; MemBusOp::COUNT],
            records: 0,
            n_ces,
        }
    }

    /// Reduce a buffer of records.
    pub fn reduce(records: &[ProbeWord], n_ces: usize) -> Self {
        let mut out = Self::empty(n_ces);
        out.accumulate(records);
        out
    }

    /// Fold more records into the counts, one word at a time through
    /// [`EventCounts::accumulate_word`].
    pub fn accumulate(&mut self, records: &[ProbeWord]) {
        for w in records {
            self.accumulate_word(w);
        }
    }

    /// Fold a single record into the counts — the one fold every path
    /// uses. Streaming acquisition calls it as each record is captured,
    /// instead of materializing a buffer first.
    #[inline]
    pub fn accumulate_word(&mut self, w: &ProbeWord) {
        let active = w.active_count() as usize;
        debug_assert!(active <= self.n_ces, "more active CEs than the cluster has");
        self.num[active.min(self.n_ces)] += 1;
        for j in 0..self.n_ces {
            if w.is_active(j) {
                self.prof[j] += 1;
            }
            self.ceop[w.ce_ops[j].index()] += 1;
        }
        self.membop[w.mem_op.index()] += 1;
        self.records += 1;
    }

    /// Merge another reduction (same cluster width) into this one.
    pub fn merge(&mut self, other: &EventCounts) {
        assert_eq!(self.n_ces, other.n_ces, "cluster widths differ");
        for (a, b) in self.num.iter_mut().zip(&other.num) {
            *a += b;
        }
        for (a, b) in self.prof.iter_mut().zip(&other.prof) {
            *a += b;
        }
        for (a, b) in self.ceop.iter_mut().zip(&other.ceop) {
            *a += b;
        }
        for (a, b) in self.membop.iter_mut().zip(&other.membop) {
            *a += b;
        }
        self.records += other.records;
    }

    /// CE-bus cycles carrying a non-idle opcode, summed over all buses —
    /// the numerator of [`EventCounts::ce_bus_busy`] and the quantity the
    /// audit cross-check compares against per-CE ground-truth counters.
    pub fn busy_ce_cycles(&self) -> u64 {
        CeBusOp::ALL
            .iter()
            .filter(|op| op.is_busy())
            .map(|op| self.ceop[op.index()])
            .sum()
    }

    /// *CE Bus Busy*: "the fraction of processor-to-cache bus cycles that
    /// are not idle ... the average value of this fraction over all eight
    /// busses" (§ 5). Zero for an empty reduction — the whole denominator
    /// is guarded, so a degenerate zero-width accumulator yields 0, not NaN.
    pub fn ce_bus_busy(&self) -> f64 {
        let denom = self.records * self.n_ces as u64;
        if denom == 0 {
            return 0.0;
        }
        self.busy_ce_cycles() as f64 / denom as f64
    }

    /// *Missrate*: "the fraction of total bus cycles corresponding to
    /// cache misses" — memory-bus fetch starts per record.
    pub fn missrate(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        self.membop[MemBusOp::Fetch.index()] as f64 / self.records as f64
    }

    /// Memory-bus utilization (non-idle memory-bus record fraction).
    pub fn mem_bus_busy(&self) -> f64 {
        if self.records == 0 {
            return 0.0;
        }
        let busy: u64 = MemBusOp::ALL
            .iter()
            .filter(|op| op.is_busy())
            .map(|op| self.membop[op.index()])
            .sum();
        busy as f64 / self.records as f64
    }

    /// Check the conservation laws that tie the reduced counts together.
    /// Every well-formed reduction of `records` probe words satisfies:
    /// `Σ num[j] == records`, `Σ ceop == records·n_ces`, `Σ membop ==
    /// records`, and `Σ j·num[j] == Σ prof[j]` (each record with `j`
    /// processors active contributes `j` profile counts), with every
    /// `prof[j] ≤ records`. Counts read back from outside may be crafted
    /// to overflow these sums; any that does is an error, never a panic
    /// or a wrapped value that happens to match.
    pub fn validate(&self) -> Result<(), String> {
        let overflow = |what: &str| format!("{what} overflows u64");
        let bins = self
            .n_ces
            .checked_add(1)
            .ok_or_else(|| overflow("n_ces + 1"))?;
        if self.num.len() != bins {
            return Err(format!(
                "num has {} bins, expected n_ces + 1 = {bins}",
                self.num.len()
            ));
        }
        if self.prof.len() != self.n_ces {
            return Err(format!(
                "prof has {} slots, expected n_ces = {}",
                self.prof.len(),
                self.n_ces
            ));
        }
        let num_sum = checked_sum(&self.num).ok_or_else(|| overflow("Σ num[j]"))?;
        if num_sum != self.records {
            return Err(format!(
                "Σ num[j] = {num_sum} != records = {}",
                self.records
            ));
        }
        let ceop_sum = checked_sum(&self.ceop).ok_or_else(|| overflow("Σ ceop"))?;
        let ceop_expect = u64::try_from(self.n_ces)
            .ok()
            .and_then(|n| self.records.checked_mul(n))
            .ok_or_else(|| overflow("records·n_ces"))?;
        if ceop_sum != ceop_expect {
            return Err(format!(
                "Σ ceop = {ceop_sum} != records·n_ces = {ceop_expect}"
            ));
        }
        let membop_sum = checked_sum(&self.membop).ok_or_else(|| overflow("Σ membop"))?;
        if membop_sum != self.records {
            return Err(format!(
                "Σ membop = {membop_sum} != records = {}",
                self.records
            ));
        }
        let weighted = self
            .num
            .iter()
            .enumerate()
            .try_fold(0u64, |acc, (j, &k)| {
                acc.checked_add((j as u64).checked_mul(k)?)
            })
            .ok_or_else(|| overflow("Σ j·num[j]"))?;
        let prof_sum = checked_sum(&self.prof).ok_or_else(|| overflow("Σ prof[j]"))?;
        if weighted != prof_sum {
            return Err(format!("Σ j·num[j] = {weighted} != Σ prof[j] = {prof_sum}"));
        }
        for (j, &p) in self.prof.iter().enumerate() {
            if p > self.records {
                return Err(format!(
                    "prof[{j}] = {p} exceeds records = {}",
                    self.records
                ));
            }
        }
        Ok(())
    }
}

/// `Σ xs`, or `None` if it overflows `u64`.
fn checked_sum(xs: &[u64]) -> Option<u64> {
    xs.iter().try_fold(0u64, |acc, &x| acc.checked_add(x))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx8_sim::LaneWord;

    fn word(mask: LaneWord, ce_op: CeBusOp, mem_op: MemBusOp) -> ProbeWord {
        let mut w = ProbeWord::idle(0);
        w.active_mask = mask;
        for j in 0..fx8_sim::probe::MAX_CES {
            if mask & (1 << j) != 0 {
                w.ce_ops[j] = ce_op;
            }
        }
        w.mem_op = mem_op;
        w
    }

    #[test]
    fn num_counts_by_active_processors() {
        let records = vec![
            word(0, CeBusOp::Idle, MemBusOp::Idle),
            word(0b11, CeBusOp::Read, MemBusOp::Idle),
        ];
        let c = EventCounts::reduce(&records, 8);
        assert_eq!(c.num[0], 1);
        assert_eq!(c.num[2], 1);
        assert_eq!(c.records, 2);
        // Conservation: Σ num_j = records.
        assert_eq!(c.num.iter().sum::<u64>(), c.records);
    }

    #[test]
    fn prof_counts_per_processor() {
        let records = vec![
            word(0b0000_0001, CeBusOp::Read, MemBusOp::Idle),
            word(0b1000_0001, CeBusOp::Read, MemBusOp::Idle),
        ];
        let c = EventCounts::reduce(&records, 8);
        assert_eq!(c.prof[0], 2);
        assert_eq!(c.prof[7], 1);
        assert_eq!(c.prof[3], 0);
    }

    /// Regression: lanes above bit 8 used to be truncated by the `u8`
    /// probe mask before the monitor ever saw them.
    #[test]
    fn wide_cluster_lanes_reach_the_reduction() {
        let records = vec![word(
            (1 << 9) | (1 << 40) | (1 << 63),
            CeBusOp::Read,
            MemBusOp::Idle,
        )];
        let c = EventCounts::reduce(&records, 64);
        assert_eq!(c.num[3], 1);
        assert_eq!(c.prof[9], 1);
        assert_eq!(c.prof[40], 1);
        assert_eq!(c.prof[63], 1);
        assert_eq!(c.prof[8], 0);
        assert!(c.validate().is_ok());
    }

    #[test]
    fn ceop_sums_over_all_buses() {
        let records = vec![word(0b11, CeBusOp::Write, MemBusOp::Idle)];
        let c = EventCounts::reduce(&records, 8);
        assert_eq!(c.ceop[CeBusOp::Write.index()], 2);
        assert_eq!(c.ceop[CeBusOp::Idle.index()], 6);
        // Conservation: Σ ceop = records * n_ces.
        assert_eq!(c.ceop.iter().sum::<u64>(), c.records * 8);
    }

    #[test]
    fn ce_bus_busy_is_per_bus_average() {
        // One record, 2 of 8 buses busy: busy = 0.25.
        let records = vec![word(0b11, CeBusOp::Read, MemBusOp::Idle)];
        let c = EventCounts::reduce(&records, 8);
        assert!((c.ce_bus_busy() - 0.25).abs() < 1e-12);
    }

    #[test]
    fn missrate_counts_fetch_starts_per_record() {
        let records = vec![
            word(0, CeBusOp::Idle, MemBusOp::Fetch),
            word(0, CeBusOp::Idle, MemBusOp::Idle),
            word(0, CeBusOp::Idle, MemBusOp::WriteBack),
            word(0, CeBusOp::Idle, MemBusOp::Fetch),
        ];
        let c = EventCounts::reduce(&records, 8);
        assert!((c.missrate() - 0.5).abs() < 1e-12);
        assert!((c.mem_bus_busy() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn merge_adds_everything() {
        let a = EventCounts::reduce(&[word(0b1, CeBusOp::Read, MemBusOp::Fetch)], 8);
        let mut b = EventCounts::reduce(&[word(0b11, CeBusOp::Write, MemBusOp::Idle)], 8);
        b.merge(&a);
        assert_eq!(b.records, 2);
        assert_eq!(b.num[1], 1);
        assert_eq!(b.num[2], 1);
        assert_eq!(b.prof[0], 2);
        assert_eq!(b.membop[MemBusOp::Fetch.index()], 1);
    }

    #[test]
    #[should_panic(expected = "cluster widths differ")]
    fn merge_rejects_width_mismatch() {
        let a = EventCounts::empty(8);
        let mut b = EventCounts::empty(4);
        b.merge(&a);
    }

    #[test]
    fn empty_reduction_yields_zero_measures() {
        let c = EventCounts::empty(8);
        assert_eq!(c.ce_bus_busy(), 0.0);
        assert_eq!(c.missrate(), 0.0);
        assert_eq!(c.mem_bus_busy(), 0.0);
    }

    #[test]
    fn zero_width_accumulator_has_finite_rates() {
        // Regression: a zero-CE accumulator with records folded in used to
        // compute ce_bus_busy as 0/0 = NaN (records > 0, n_ces == 0 slips
        // past a records-only guard).
        let mut c = EventCounts::empty(0);
        c.accumulate_word(&ProbeWord::idle(0));
        assert_eq!(c.records, 1);
        assert!(c.ce_bus_busy().is_finite());
        assert_eq!(c.ce_bus_busy(), 0.0);
        assert!(c.validate().is_ok());
    }

    mod one_fold {
        use super::*;
        use fx8_sim::probe::MAX_CES;
        use proptest::prelude::*;

        /// A well-formed record for an `n_ces`-wide cluster from raw draws:
        /// activity lines and busy opcodes only on in-width lanes. The mask
        /// draw is a full `LaneWord`, so wide clusters really get records
        /// with lanes above bit 8 set.
        fn make_word(n_ces: usize, mask: LaneWord, ops: &[usize], mem: usize) -> ProbeWord {
            let width_mask = fx8_sim::lane_mask(n_ces);
            let mut w = ProbeWord::idle(0);
            w.active_mask = mask & width_mask;
            for (j, &op) in ops.iter().enumerate().take(n_ces.min(MAX_CES)) {
                w.ce_ops[j] = CeBusOp::ALL[op];
            }
            w.mem_op = MemBusOp::ALL[mem];
            w
        }

        proptest! {
            /// Folding any slice of well-formed records gives counts that
            /// obey every conservation law of [`EventCounts::validate`],
            /// at every cluster width up to the full lane word; each
            /// lane's profile count and the busy CE-bus total match a
            /// direct recount of the records.
            #[test]
            fn the_one_fold_obeys_validate_at_every_width(
                n_ces in 1usize..=MAX_CES,
                raw in prop::collection::vec(
                    (
                        any::<LaneWord>(),
                        prop::collection::vec(0..CeBusOp::COUNT, MAX_CES..MAX_CES + 1),
                        0..MemBusOp::COUNT,
                    ),
                    0..200,
                ),
            ) {
                let words: Vec<ProbeWord> = raw
                    .iter()
                    .map(|(mask, ops, mem)| make_word(n_ces, *mask, ops, *mem))
                    .collect();
                let c = EventCounts::reduce(&words, n_ces);
                prop_assert_eq!(c.records, words.len() as u64);
                prop_assert_eq!(c.num.len(), n_ces + 1);
                prop_assert_eq!(c.prof.len(), n_ces);
                prop_assert_eq!(c.validate(), Ok(()));
                for j in 0..n_ces {
                    let active = words.iter().filter(|w| w.is_active(j)).count();
                    prop_assert_eq!(c.prof[j], active as u64, "lane {}", j);
                }
                let busy = words
                    .iter()
                    .flat_map(|w| &w.ce_ops[..n_ces])
                    .filter(|op| op.is_busy())
                    .count();
                prop_assert_eq!(c.busy_ce_cycles(), busy as u64);
            }
        }
    }

    #[test]
    fn validate_accepts_real_reductions_and_rejects_corruption() {
        let records = vec![
            word(0, CeBusOp::Idle, MemBusOp::Idle),
            word(0b11, CeBusOp::Read, MemBusOp::Fetch),
            word(0b1000_0001, CeBusOp::Write, MemBusOp::Idle),
        ];
        let mut c = EventCounts::reduce(&records, 8);
        assert!(c.validate().is_ok());
        c.prof[0] += 1; // break Σ j·num[j] == Σ prof[j]
        assert!(c.validate().is_err());
    }

    /// Counts at their types' maxima overflow each sum `validate` takes;
    /// every one is an error, never an overflow panic or a wrapped match.
    #[test]
    fn validate_rejects_overflowing_counts() {
        let max = u64::MAX;
        // One idle record on a 1-CE machine, then one field pushed over.
        let base = EventCounts::reduce(&[word(0, CeBusOp::Idle, MemBusOp::Idle)], 1);
        assert!(base.validate().is_ok());
        let err = |edit: &dyn Fn(&mut EventCounts)| {
            let mut c = base.clone();
            edit(&mut c);
            c.validate().unwrap_err()
        };
        assert_eq!(err(&|c| c.n_ces = usize::MAX), "n_ces + 1 overflows u64");
        assert_eq!(err(&|c| c.num = vec![max, 1]), "Σ num[j] overflows u64");
        assert_eq!(
            err(&|c| c.ceop[CeBusOp::Read.index()] = max),
            "Σ ceop overflows u64"
        );
        assert_eq!(
            err(&|c| c.membop[MemBusOp::Fetch.index()] = max),
            "Σ membop overflows u64"
        );
        assert_eq!(
            err(&|c| {
                c.n_ces = 2;
                c.num = vec![max, 0, 0];
                c.records = max;
                c.prof = vec![0, 0];
            }),
            "records·n_ces overflows u64"
        );
        assert_eq!(
            err(&|c| c.prof = vec![max, 1]),
            "prof has 2 slots, expected n_ces = 1"
        );
        let mut two = EventCounts::reduce(&[word(0, CeBusOp::Idle, MemBusOp::Idle)], 2);
        two.prof = vec![max, 1];
        assert_eq!(two.validate().unwrap_err(), "Σ prof[j] overflows u64");
    }
}
