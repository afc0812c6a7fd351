//! The Computing Element.
//!
//! A CE executes an operation stream one bus cycle at a time: compute
//! instructions retire internally, operand references go through the shared
//! cache (stalling on misses), instruction fetches filter through the
//! internal 16 KB icache, and CCB operations (iteration requests,
//! synchronization) interact with the cluster's concurrency hardware.
//! The cluster orchestrates the shared resources; this module holds the
//! per-CE state machine and its bookkeeping.

use crate::addr::LineId;
use crate::icache::ICache;
use crate::opcode::CeBusOp;
use crate::stream::{CodeRegion, Op};
use crate::{CeId, Cycle};
use serde::{Deserialize, Serialize};

/// FIFO operation queue: a flat `Vec` plus a head cursor.
///
/// The stream generators (loop-iteration bodies, serial block code) append
/// straight into the backing vector via [`OpQueue::append_buf`], so a
/// refill is a single template copy with no staging buffer in between, and
/// `pop_front` is an index bump instead of a ring-buffer rotation. The
/// buffer rewinds when it drains, so one iteration's capacity is reused by
/// the next.
#[derive(Debug, Default)]
pub struct OpQueue {
    buf: Vec<Op>,
    head: usize,
}

impl OpQueue {
    /// Next queued op, if any.
    #[inline]
    pub fn pop_front(&mut self) -> Option<Op> {
        if self.head < self.buf.len() {
            let op = self.buf[self.head];
            self.head += 1;
            if self.head == self.buf.len() {
                self.buf.clear();
                self.head = 0;
            }
            Some(op)
        } else {
            None
        }
    }

    /// Whether no ops are queued.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// Queued ops not yet popped.
    pub fn len(&self) -> usize {
        self.buf.len() - self.head
    }

    /// Drop all queued ops.
    pub fn clear(&mut self) {
        self.buf.clear();
        self.head = 0;
    }

    /// Append one op.
    pub fn push_back(&mut self, op: Op) {
        self.buf.push(op);
    }

    /// Append-only access to the backing storage, for stream generators
    /// that fill a `Vec<Op>`: anything they push lands at the queue tail.
    pub fn append_buf(&mut self) -> &mut Vec<Op> {
        &mut self.buf
    }
}

/// What the CE is executing on behalf of the cluster.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CeRole {
    /// Nothing mounted on this CE (idle with respect to concurrent mode).
    Inactive,
    /// The serial portion of the cluster program.
    ClusterSerial,
    /// A self-scheduled loop iteration.
    Worker,
    /// A detached, exclusively-serial process. Detached processes do not
    /// assert the CCB activity line (thesis footnote 1).
    Detached,
}

/// Fine-grained execution state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CeState {
    /// Executing operations.
    Ready,
    /// Requesting the next loop iteration from the CCB.
    AwaitIter,
    /// Blocked on the CCB synchronization register.
    AwaitSync {
        /// Register value required to proceed.
        target: u64,
    },
    /// Took the final iteration; waiting for all iterations to complete
    /// before continuing serial execution.
    AwaitJoin,
    /// Waiting for a cache miss to fill.
    Stalled {
        /// Resume cycle.
        until: Cycle,
        /// Opcode shown on the CE bus during the resume handshake cycle.
        resume_op: CeBusOp,
    },
    /// Waiting for page-fault service.
    FaultStalled {
        /// Resume cycle.
        until: Cycle,
    },
}

/// Per-CE counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CeStats {
    /// Instructions retired.
    pub instrs: u64,
    /// Cycles the CE bus was busy.
    pub bus_busy_cycles: u64,
    /// Cycles asserted active on the CCB.
    pub active_cycles: u64,
    /// Loop iterations completed.
    pub iters_completed: u64,
    /// Cycles stalled on cache misses.
    pub miss_stall_cycles: u64,
    /// Cycles stalled on page faults.
    pub fault_stall_cycles: u64,
}

/// A Computing Element.
#[derive(Debug)]
pub struct Ce {
    /// This CE's index in the cluster.
    pub id: CeId,
    /// Internal instruction cache.
    pub icache: ICache,
    /// Current role.
    pub role: CeRole,
    /// Current execution state.
    pub state: CeState,
    /// Queued operations (refilled from the mounted streams).
    pub ops: OpQueue,
    /// Operation currently in progress (e.g. a load awaiting crossbar grant).
    pub cur_op: Option<Op>,
    /// Remaining instructions of the current `Compute` burst.
    pub compute_left: u32,
    /// Code region of the mounted stream, if any.
    pub code: Option<CodeRegion>,
    /// Instruction-fetch cursor: byte offset within the code footprint.
    pub fetch_cursor: u64,
    /// Last instruction line checked against the icache.
    pub last_fetch_line: Option<LineId>,
    /// Instruction line that must be fetched from the shared cache before
    /// execution proceeds.
    pub pending_ifetch: Option<LineId>,
    /// Counters.
    pub stats: CeStats,
}

impl Ce {
    /// Build CE `id` with an icache of the given geometry.
    pub fn new(id: CeId, icache_bytes: u64, icache_line_bytes: u64) -> Self {
        Ce {
            id,
            icache: ICache::new(icache_bytes, icache_line_bytes),
            role: CeRole::Inactive,
            state: CeState::Ready,
            ops: OpQueue::default(),
            cur_op: None,
            compute_left: 0,
            code: None,
            fetch_cursor: 0,
            last_fetch_line: None,
            pending_ifetch: None,
            stats: CeStats::default(),
        }
    }

    /// Mount a new code region (phase change): resets the fetch cursor and
    /// in-flight work, keeps the icache warm (same address space reuse is
    /// real; unrelated jobs should call [`Self::flush_icache`] too).
    pub fn set_code(&mut self, code: CodeRegion) {
        self.code = Some(code);
        self.fetch_cursor = 0;
        self.last_fetch_line = None;
        self.pending_ifetch = None;
        self.ops.clear();
        self.cur_op = None;
        self.compute_left = 0;
    }

    /// Drop all mounted work and go inactive.
    pub fn unmount(&mut self) {
        self.role = CeRole::Inactive;
        self.state = CeState::Ready;
        self.code = None;
        self.ops.clear();
        self.cur_op = None;
        self.compute_left = 0;
        self.pending_ifetch = None;
        self.last_fetch_line = None;
    }

    /// Invalidate the internal icache (context switch to an unrelated job).
    pub fn flush_icache(&mut self) {
        self.icache.flush();
    }

    /// Whether this CE asserts its CCB activity line: it is participating
    /// in the cluster program (serially or concurrently). Detached and
    /// inactive CEs do not.
    pub fn is_ccb_active(&self) -> bool {
        matches!(self.role, CeRole::ClusterSerial | CeRole::Worker)
    }

    /// Whether the CE has queued or in-progress work.
    pub fn has_work(&self) -> bool {
        self.cur_op.is_some() || !self.ops.is_empty() || self.compute_left > 0
    }

    /// Advance the instruction-fetch cursor by one instruction and probe
    /// the icache when crossing into a new fetch line. Returns the line to
    /// fetch from the shared cache on an icache miss.
    pub fn ifetch_step(&mut self) -> Option<LineId> {
        let code = self.code?;
        let line_bytes = self.icache.line_bytes();
        let addr = code.base.wrapping_add(self.fetch_cursor);
        let line = addr.line(line_bytes);
        // The cursor stays below the footprint, so the wrap is a compare
        // in the common case — this runs once per compute cycle per CE and
        // the footprint is not a compile-time constant.
        let next = self.fetch_cursor + code.bytes_per_instr;
        let footprint = code.footprint_bytes.max(1);
        self.fetch_cursor = if next >= footprint {
            next % footprint
        } else {
            next
        };
        if self.last_fetch_line == Some(line) {
            return None;
        }
        self.last_fetch_line = Some(line);
        if self.icache.probe(line) {
            None
        } else {
            Some(line)
        }
    }

    /// Complete an instruction fetch: install the line.
    pub fn ifetch_fill(&mut self, line: LineId) {
        self.icache.fill(line);
        if self.pending_ifetch == Some(line) {
            self.pending_ifetch = None;
        }
    }

    /// How many steps of the current compute burst are guaranteed to be
    /// pure retirement — no icache probe, no shared-cache traffic, no state
    /// change beyond the fetch cursor and the instruction counter — so the
    /// dense kernel may take them in one closed-form segment.
    ///
    /// Conservative by construction: it only counts steps where
    /// [`Self::ifetch_step`] would early-return on the `last_fetch_line`
    /// check, i.e. consecutive fetches within the line already probed. The
    /// count is capped at the line boundary (the next line crossing must
    /// probe the icache, mutating hit/miss stats), at the footprint wrap
    /// (so the bulk cursor update `(c + k*b) % F` matches the iterated
    /// per-step modulo exactly), and at the remaining burst length. Returns
    /// 0 whenever the next per-cycle step could do anything else.
    pub(crate) fn compute_burst_horizon(&self) -> u64 {
        if self.compute_left == 0 || self.pending_ifetch.is_some() {
            return 0;
        }
        let Some(code) = self.code else {
            // No code region: ifetch_step is a no-op, every step is pure
            // retirement.
            return self.compute_left as u64;
        };
        let line_bytes = self.icache.line_bytes();
        let addr = code.base.wrapping_add(self.fetch_cursor);
        if self.last_fetch_line != Some(addr.line(line_bytes)) {
            // The next step crosses into an unprobed line: it must consult
            // the icache (and may miss out to the shared cache).
            return 0;
        }
        // Steps that stay within the already-probed line and short of the
        // footprint wrap, so the bulk cursor update `(c + k*b) % F` matches
        // the iterated per-step modulo exactly; 0 for degenerate geometry.
        let steps = code.fetch_steps_in_line(self.fetch_cursor, line_bytes);
        (self.compute_left as u64).min(steps)
    }

    /// Bulk-apply `k` compute-burst steps previously authorized by
    /// [`Self::compute_burst_horizon`]: advance the fetch cursor, retire
    /// `k` instructions, and shrink the burst — bit-identical to `k`
    /// iterations of the per-cycle dispatch path.
    pub(crate) fn advance_compute_burst(&mut self, k: u64) {
        debug_assert!(k <= self.compute_left as u64);
        if let Some(code) = self.code {
            let footprint = code.footprint_bytes.max(1);
            self.fetch_cursor = (self.fetch_cursor + k * code.bytes_per_instr) % footprint;
        }
        self.compute_left -= k as u32;
        self.stats.instrs += k;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::VAddr;

    fn region(footprint: u64) -> CodeRegion {
        CodeRegion {
            base: VAddr::new(1, 0),
            footprint_bytes: footprint,
            bytes_per_instr: 4,
        }
    }

    #[test]
    fn small_loop_body_stops_missing_after_first_pass() {
        let mut ce = Ce::new(0, 1024, 32);
        ce.set_code(region(256)); // 8 icache lines, 64 instructions
        let mut misses = 0;
        for _ in 0..64 {
            if let Some(line) = ce.ifetch_step() {
                misses += 1;
                ce.ifetch_fill(line);
            }
        }
        assert_eq!(misses, 8, "first pass: one miss per line");
        for _ in 0..64 {
            assert!(ce.ifetch_step().is_none(), "second pass must hit");
        }
    }

    #[test]
    fn huge_code_footprint_keeps_missing() {
        let mut ce = Ce::new(0, 256, 32); // 8-line icache
        ce.set_code(region(4096)); // 128 lines > capacity
        let mut misses = 0;
        for _ in 0..2048 {
            if let Some(line) = ce.ifetch_step() {
                misses += 1;
                ce.ifetch_fill(line);
            }
        }
        // Two passes over 128 lines through an 8-line direct-mapped cache:
        // nearly every line crossing misses.
        assert!(misses > 200, "only {misses} misses");
    }

    #[test]
    fn set_code_resets_cursor_but_keeps_icache() {
        let mut ce = Ce::new(0, 1024, 32);
        ce.set_code(region(64));
        while let Some(l) = ce.ifetch_step() {
            ce.ifetch_fill(l);
        }
        ce.set_code(region(64)); // same region again (same job)
                                 // Warm icache: no miss on re-entry.
        assert!(ce.ifetch_step().is_none());
        ce.flush_icache();
        ce.set_code(region(64));
        assert!(ce.ifetch_step().is_some(), "flushed icache must miss");
    }

    #[test]
    fn ccb_activity_follows_role() {
        let mut ce = Ce::new(3, 1024, 32);
        assert!(!ce.is_ccb_active());
        ce.role = CeRole::Worker;
        assert!(ce.is_ccb_active());
        ce.role = CeRole::ClusterSerial;
        assert!(ce.is_ccb_active());
        ce.role = CeRole::Detached;
        assert!(
            !ce.is_ccb_active(),
            "detached processes are not concurrent-active"
        );
    }

    /// Drive a compute burst to completion, either per-step (mirroring the
    /// cluster's dispatch path, with instant ifetch fills) or letting the
    /// burst horizon bulk-advance whenever it authorizes a skip. Returns
    /// the CE and the number of simulated cycles consumed.
    fn drain_burst(mut ce: Ce, bulk: bool) -> (Ce, u64) {
        let mut cycles = 0u64;
        while ce.compute_left > 0 {
            let k = if bulk { ce.compute_burst_horizon() } else { 0 };
            if k > 0 {
                ce.advance_compute_burst(k);
                cycles += k;
            } else if let Some(line) = ce.ifetch_step() {
                ce.ifetch_fill(line); // cluster would stall here; fill instantly
                cycles += 1;
            } else {
                ce.compute_left -= 1;
                ce.stats.instrs += 1;
                cycles += 1;
            }
        }
        (ce, cycles)
    }

    #[test]
    fn compute_burst_bulk_matches_per_step() {
        // Awkward geometry on purpose: 6-byte instructions against 32-byte
        // lines and a footprint that is not a multiple of either, so the
        // wrap cap and the line cap both bite at odd offsets.
        let code = CodeRegion {
            base: VAddr::new(1, 0),
            footprint_bytes: 200,
            bytes_per_instr: 6,
        };
        let build = || {
            let mut ce = Ce::new(0, 1024, 32);
            ce.set_code(code);
            ce.compute_left = 500;
            ce
        };
        let (a, ca) = drain_burst(build(), true);
        let (b, cb) = drain_burst(build(), false);
        assert_eq!(a.fetch_cursor, b.fetch_cursor);
        assert_eq!(a.last_fetch_line, b.last_fetch_line);
        assert_eq!(a.stats, b.stats);
        assert_eq!(ca, cb, "bulk skipping must not change the cycle count");
        assert!(ca > 0);
    }

    #[test]
    fn compute_burst_horizon_edge_cases() {
        let mut ce = Ce::new(0, 1024, 32);
        assert_eq!(ce.compute_burst_horizon(), 0, "no burst pending");
        ce.compute_left = 7;
        assert_eq!(
            ce.compute_burst_horizon(),
            7,
            "no code region: every step is pure retirement"
        );
        ce.set_code(region(256));
        ce.compute_left = 7;
        assert_eq!(
            ce.compute_burst_horizon(),
            0,
            "first fetch must probe the icache"
        );
        if let Some(line) = ce.ifetch_step() {
            ce.ifetch_fill(line);
        }
        ce.compute_left -= 1;
        // Cursor is now at byte 4 of a probed 32-byte line: 7 fetches left
        // in-line but only 6 instructions left in the burst.
        assert_eq!(ce.compute_burst_horizon(), 6);
        ce.pending_ifetch = Some(LineId(99));
        assert_eq!(ce.compute_burst_horizon(), 0, "pending ifetch blocks");
    }

    #[test]
    fn unmount_clears_work() {
        let mut ce = Ce::new(0, 1024, 32);
        ce.set_code(region(64));
        ce.ops.push_back(Op::Compute(5));
        ce.cur_op = Some(Op::Compute(1));
        ce.compute_left = 3;
        ce.unmount();
        assert!(!ce.has_work());
        assert_eq!(ce.role, CeRole::Inactive);
    }
}
