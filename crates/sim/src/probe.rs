//! The logic-analyzer probe word.
//!
//! The DAS 9100 acquired the state of up to 80 signals per record. The
//! study's probes decoded to: one bus opcode per CE bus (8 × a few bits),
//! the memory-bus opcode, and one concurrent-activity line per CE from the
//! Concurrency Control Bus. A [`ProbeWord`] is exactly one such record.

use crate::opcode::{CeBusOp, MemBusOp};
use crate::{Cycle, LaneWord};
use serde::{Deserialize, Serialize};

/// Maximum cluster size the probe word supports: one lane per bit of a
/// [`LaneWord`]. The measured FX/8 used 8 of these lanes; the scaling
/// study sweeps the full range.
pub const MAX_CES: usize = LaneWord::BITS as usize;

/// One captured record: the probed signal state at a single bus cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbeWord {
    /// Bus cycle at which this record was captured.
    pub cycle: Cycle,
    /// Opcode on each CE↔cache bus.
    pub ce_ops: [CeBusOp; MAX_CES],
    /// Opcode on the shared memory bus.
    pub mem_op: MemBusOp,
    /// CCB activity lines: bit `j` set iff CE `j` is active in concurrent
    /// (or cluster-serial) operation. Detached, exclusively-serial processes
    /// do not assert their line — the thesis's footnote 1. One bit per
    /// possible lane ([`LaneWord`] wide), so no lane of a wide cluster is
    /// ever truncated.
    pub active_mask: LaneWord,
}

impl ProbeWord {
    /// An all-idle record.
    pub fn idle(cycle: Cycle) -> Self {
        ProbeWord {
            cycle,
            ce_ops: [CeBusOp::Idle; MAX_CES],
            mem_op: MemBusOp::Idle,
            active_mask: 0,
        }
    }

    /// Number of CEs whose CCB activity line is asserted.
    #[inline]
    pub fn active_count(&self) -> u32 {
        self.active_mask.count_ones()
    }

    /// Whether CE `j`'s activity line is asserted.
    #[inline]
    pub fn is_active(&self, j: usize) -> bool {
        debug_assert!(j < MAX_CES);
        self.active_mask & (1 << j) != 0
    }

    /// Whether the record shows concurrency (two or more CEs active).
    #[inline]
    pub fn is_concurrent(&self) -> bool {
        self.active_count() >= 2
    }

    /// Structural well-formedness for a cluster of `n_ces` CEs: no activity
    /// lines or CE-bus opcodes above the cluster width. The invariant
    /// auditor applies this to every stepped cycle; tests may use it on
    /// captured buffers.
    pub fn check_wellformed(&self, n_ces: usize) -> Result<(), String> {
        debug_assert!((1..=MAX_CES).contains(&n_ces));
        let width_mask = crate::lane_mask(n_ces);
        if self.active_mask & !width_mask != 0 {
            return Err(format!(
                "active_mask {:#b} asserts lines beyond the {n_ces}-CE cluster",
                self.active_mask
            ));
        }
        for (j, op) in self.ce_ops.iter().enumerate().skip(n_ces) {
            if *op != CeBusOp::Idle {
                return Err(format!(
                    "ce_ops[{j}] = {op:?} beyond the {n_ces}-CE cluster"
                ));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn idle_record_has_no_activity() {
        let w = ProbeWord::idle(42);
        assert_eq!(w.cycle, 42);
        assert_eq!(w.active_count(), 0);
        assert!(!w.is_concurrent());
        assert!(w.ce_ops.iter().all(|op| !op.is_busy()));
    }

    #[test]
    fn active_mask_counts_and_tests_bits() {
        let mut w = ProbeWord::idle(0);
        w.active_mask = 0b1000_0001;
        assert_eq!(w.active_count(), 2);
        assert!(w.is_active(0));
        assert!(w.is_active(7));
        assert!(!w.is_active(3));
        assert!(w.is_concurrent());
        w.active_mask = 0b0000_0100;
        assert!(!w.is_concurrent());
    }

    /// Regression: `active_mask` was a `u8`, so lanes 8..64 of a wide
    /// cluster were silently dropped by every monitor-path reduction.
    #[test]
    fn lanes_beyond_eight_are_not_truncated() {
        let mut w = ProbeWord::idle(0);
        w.active_mask = (1 << 8) | (1 << 31) | (1 << 63);
        assert_eq!(w.active_count(), 3);
        assert!(w.is_active(8));
        assert!(w.is_active(31));
        assert!(w.is_active(63));
        assert!(w.is_concurrent());
    }

    #[test]
    fn wellformed_bounds_scale_with_width() {
        let mut w = ProbeWord::idle(0);
        w.active_mask = 1 << 31;
        assert!(w.check_wellformed(32).is_ok());
        assert!(w.check_wellformed(31).is_err());
        w.active_mask = u64::MAX;
        assert!(w.check_wellformed(64).is_ok());
        w.ce_ops[63] = CeBusOp::Read;
        assert!(w.check_wellformed(64).is_ok());
        assert!(w.check_wellformed(63).is_err());
    }
}
