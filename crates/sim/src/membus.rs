//! Memory buses and interleaved main memory.
//!
//! "Traffic between caches and main memory is over two 64-bit wide data
//! busses... The main memory has an interleaving factor of four"
//! (Appendix C). A transaction picks the earliest-free bus, waits for its
//! target memory module, transfers its line, and completes after the module
//! latency. The per-cycle opcode visible to the monitor's memory-bus probe
//! is the opcode of the transaction *starting* in that cycle (at most one
//! start per cycle — the arbitration the probe decodes).

use crate::addr::LineId;
use crate::opcode::MemBusOp;
use crate::Cycle;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;

/// A scheduled transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ticket {
    /// Cycle the transaction wins the bus.
    pub start: Cycle,
    /// Cycle its data is available (what a stalled CE waits for).
    pub complete: Cycle,
    /// Bus it was routed to.
    pub bus: usize,
}

/// Utilization counters.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MemBusStats {
    /// Transactions scheduled, by opcode index.
    pub by_op: [u64; MemBusOp::COUNT],
    /// Total bus-occupied cycles across all buses.
    pub busy_cycles: u64,
}

/// The memory-bus subsystem.
#[derive(Debug)]
pub struct MemBusSystem {
    /// Per-bus earliest free cycle.
    bus_free: Vec<Cycle>,
    /// Per-memory-module earliest free cycle.
    module_free: Vec<Cycle>,
    latency: u64,
    transfer: u64,
    /// Opcode that starts at a given cycle (for the probe), sorted by
    /// cycle. Transactions schedule in near-monotonic order and the probe
    /// garbage-collects from the front, so a ring buffer reaches a small
    /// steady-state capacity and stays allocation-free — a `BTreeMap`
    /// here would allocate nodes on the per-cycle path.
    starts: VecDeque<(Cycle, MemBusOp)>,
    stats: MemBusStats,
}

impl MemBusSystem {
    /// Build with `buses` buses, `modules` memory modules, module `latency`
    /// and per-line `transfer` cycles.
    pub fn new(buses: usize, modules: usize, latency: u64, transfer: u64) -> Self {
        assert!(buses > 0 && modules > 0);
        MemBusSystem {
            bus_free: vec![0; buses],
            module_free: vec![0; modules],
            latency,
            transfer,
            starts: VecDeque::with_capacity(16),
            stats: MemBusStats::default(),
        }
    }

    /// Counter snapshot.
    pub fn stats(&self) -> &MemBusStats {
        &self.stats
    }

    /// Schedule a transaction no earlier than `now`. Line transfers
    /// (fetch / write-back) occupy a bus for the transfer time and their
    /// module for latency; coherence-only traffic is a short address cycle.
    pub fn schedule(&mut self, now: Cycle, op: MemBusOp, line: LineId) -> Ticket {
        debug_assert!(op != MemBusOp::Idle, "cannot schedule an idle transaction");
        let module = (line.0 % self.module_free.len() as u64) as usize;
        // Earliest-free bus.
        let (bus, bus_free) = self
            .bus_free
            .iter()
            .copied()
            .enumerate()
            .min_by_key(|&(i, t)| (t, i))
            .expect("at least one bus");
        let (occupy, complete_after) = match op {
            MemBusOp::Coherence => (1, 2),
            MemBusOp::Fetch | MemBusOp::WriteBack | MemBusOp::IpTraffic => {
                (self.transfer, self.latency + self.transfer)
            }
            MemBusOp::Idle => unreachable!(),
        };
        let start = now.max(bus_free).max(self.module_free[module]);
        // Only one transaction may *start* per cycle machine-wide: the
        // probe decodes a single start opcode. Push to the next free slot.
        let (start, slot) = self.next_free_start(start);
        self.bus_free[bus] = start + occupy;
        self.module_free[module] = start + complete_after;
        self.starts.insert(slot, (start, op));
        self.stats.by_op[op.index()] += 1;
        self.stats.busy_cycles += occupy;
        Ticket {
            start,
            complete: start + complete_after,
            bus,
        }
    }

    /// First free start cycle at or after `t`, with the sorted insertion
    /// slot for it. Occupied cycles form a contiguous run from the
    /// insertion point, so one binary search plus a forward walk finds it.
    fn next_free_start(&self, mut t: Cycle) -> (Cycle, usize) {
        // Fast path: `t` lies past every recorded start (the common case
        // for a request landing on an idle bus), so the insertion slot is
        // the back of the ring and no binary search is needed.
        match self.starts.back() {
            Some(&(c, _)) if c >= t => {}
            _ => return (t, self.starts.len()),
        }
        let mut slot = self.starts.partition_point(|&(c, _)| c < t);
        while self.starts.get(slot).is_some_and(|&(c, _)| c == t) {
            t += 1;
            slot += 1;
        }
        (t, slot)
    }

    /// Drop recorded starts older than `now` (the probe never looks back).
    /// The quiet stepping path calls this directly so the record stays
    /// bounded even when no probe reads it.
    pub fn gc(&mut self, now: Cycle) {
        while self.starts.front().is_some_and(|&(t, _)| t < now) {
            self.starts.pop_front();
        }
    }

    /// The opcode the memory-bus probe sees at `now`; garbage-collects
    /// entries older than `now`.
    pub fn probe_op(&mut self, now: Cycle) -> MemBusOp {
        self.gc(now);
        match self.starts.front() {
            Some(&(t, op)) if t == now => op,
            _ => MemBusOp::Idle,
        }
    }

    /// The one-start-per-cycle arbitration rule the probe decodes: the
    /// start record must be strictly increasing in cycle. Allocation-free.
    #[cfg(feature = "audit")]
    pub(crate) fn audit_check(&self) -> Result<(), String> {
        let mut prev: Option<Cycle> = None;
        for &(t, _) in &self.starts {
            if let Some(p) = prev {
                if t <= p {
                    return Err(format!("start records out of order: cycle {p} then {t}"));
                }
            }
            prev = Some(t);
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bus() -> MemBusSystem {
        MemBusSystem::new(2, 4, 10, 4)
    }

    #[test]
    fn single_fetch_completes_after_latency_and_transfer() {
        let mut m = bus();
        let t = m.schedule(100, MemBusOp::Fetch, LineId(0));
        assert_eq!(t.start, 100);
        assert_eq!(t.complete, 114);
    }

    #[test]
    fn two_buses_overlap_two_transactions() {
        let mut m = bus();
        let a = m.schedule(0, MemBusOp::Fetch, LineId(0));
        let b = m.schedule(0, MemBusOp::Fetch, LineId(1));
        // Different modules, different buses: starts staggered only by the
        // one-start-per-cycle rule.
        assert_eq!(a.start, 0);
        assert_eq!(b.start, 1);
        assert_ne!(a.bus, b.bus);
    }

    #[test]
    fn third_transaction_queues_behind_busy_buses() {
        let mut m = bus();
        m.schedule(0, MemBusOp::Fetch, LineId(0));
        m.schedule(0, MemBusOp::Fetch, LineId(1));
        let c = m.schedule(0, MemBusOp::Fetch, LineId(2));
        // Both buses occupied for 4 cycles from their starts (0 and 1).
        assert!(c.start >= 4, "third fetch must wait for a bus: {c:?}");
    }

    #[test]
    fn same_module_serializes_on_module_latency() {
        let mut m = bus();
        let a = m.schedule(0, MemBusOp::Fetch, LineId(0));
        // Same module (line 4 % 4 == 0), other bus free.
        let b = m.schedule(0, MemBusOp::Fetch, LineId(4));
        assert!(
            b.start >= a.complete,
            "module must finish first: {a:?} {b:?}"
        );
    }

    #[test]
    fn probe_sees_start_opcode_then_idle() {
        let mut m = bus();
        m.schedule(5, MemBusOp::WriteBack, LineId(3));
        assert_eq!(m.probe_op(4), MemBusOp::Idle);
        assert_eq!(m.probe_op(5), MemBusOp::WriteBack);
        assert_eq!(m.probe_op(6), MemBusOp::Idle);
    }

    #[test]
    fn probe_gc_is_monotonic() {
        let mut m = bus();
        m.schedule(1, MemBusOp::Fetch, LineId(0));
        m.schedule(3, MemBusOp::Coherence, LineId(1));
        assert_eq!(m.probe_op(1), MemBusOp::Fetch);
        assert_eq!(m.probe_op(2), MemBusOp::Idle);
        assert_eq!(m.probe_op(3), MemBusOp::Coherence);
    }

    /// The bulk stepper replaces the per-cycle `gc(t)` of a skipped window
    /// with one `gc(window_end)`: gc is a monotone threshold-pop from the
    /// sorted front and `next_free_start`'s partition point never lands on
    /// stale (past) entries, so schedules, stats, and the surviving start
    /// record are identical either way.
    #[test]
    fn deferred_gc_matches_per_cycle_gc() {
        let run = |deferred: bool| {
            let mut m = MemBusSystem::new(2, 4, 10, 4);
            let mut tickets = Vec::new();
            for t in 0..40u64 {
                if t % 3 == 0 {
                    tickets.push(m.schedule(t, MemBusOp::IpTraffic, LineId(t)));
                }
                if !deferred {
                    m.gc(t);
                }
            }
            if deferred {
                m.gc(39);
            }
            (tickets, m.stats().clone(), m.probe_op(40))
        };
        assert_eq!(run(false), run(true));
    }

    #[test]
    fn coherence_is_short() {
        let mut m = bus();
        let t = m.schedule(0, MemBusOp::Coherence, LineId(9));
        assert_eq!(t.complete - t.start, 2);
    }

    #[test]
    fn stats_count_ops_and_busy_cycles() {
        let mut m = bus();
        m.schedule(0, MemBusOp::Fetch, LineId(0));
        m.schedule(0, MemBusOp::IpTraffic, LineId(1));
        m.schedule(20, MemBusOp::Coherence, LineId(2));
        let s = m.stats();
        assert_eq!(s.by_op[MemBusOp::Fetch.index()], 1);
        assert_eq!(s.by_op[MemBusOp::IpTraffic.index()], 1);
        assert_eq!(s.by_op[MemBusOp::Coherence.index()], 1);
        assert_eq!(s.busy_cycles, 4 + 4 + 1);
    }

    #[test]
    fn starts_are_unique_cycles() {
        let mut m = MemBusSystem::new(4, 8, 10, 4);
        let mut starts = Vec::new();
        for i in 0..8 {
            starts.push(m.schedule(0, MemBusOp::Fetch, LineId(i)).start);
        }
        let mut sorted = starts.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(
            sorted.len(),
            starts.len(),
            "duplicate start cycles: {starts:?}"
        );
    }
}
