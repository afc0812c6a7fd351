//! One workload sample.
//!
//! § 3.5: "Five snapshots of the system were taken and grouped together in
//! a five-minute interval. ... Software measurements were taken
//! simultaneously with the hardware measurements." A [`Sample`] is that
//! grouped unit: the merged event counts of its snapshots, the kernel
//! counter delta over the interval, and every derived measure the analysis
//! chapters use. A `Point` is one sample reduced to those measures once,
//! the row the analysis reads.

use fx8_monitor::{EventCounts, KernelCounters};
use fx8_sim::Cycle;
use fx8_stats::measures::cw_pc;
use serde::{Deserialize, Serialize};

/// One five-minute sample of the workload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sample {
    /// Session index the sample belongs to.
    pub session: usize,
    /// Machine time at the start of the sample interval.
    pub at_cycle: Cycle,
    /// Merged event counts over the sample's snapshots.
    pub counts: EventCounts,
    /// Kernel counter delta over the interval.
    pub kernel: KernelCounters,
}

impl Sample {
    /// Workload Concurrency `C_w` (eq. 4.2).
    pub fn workload_concurrency(&self) -> f64 {
        cw_pc(&self.counts.num).0
    }

    /// Mean Concurrency Level `P_c` (eq. 4.4), when defined.
    pub fn mean_concurrency_level(&self) -> Option<f64> {
        cw_pc(&self.counts.num).1
    }

    /// Cache miss rate over the sample's records.
    pub fn missrate(&self) -> f64 {
        self.counts.missrate()
    }

    /// CE bus busy fraction over the sample's records.
    pub fn ce_bus_busy(&self) -> f64 {
        self.counts.ce_bus_busy()
    }

    /// Page Fault Rate: total CE page faults in the measurement interval
    /// (the paper reports raw per-interval counts).
    pub fn page_fault_rate(&self) -> f64 {
        self.kernel.total_faults() as f64
    }
}

/// One sample reduced to the five numbers Chapter 5 analyzes, derived
/// once from borrowed counts: the row every figure, table and comparison
/// reads instead of re-deriving them from the [`Sample`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Point {
    /// Workload Concurrency `C_w` (eq. 4.2).
    pub cw: f64,
    /// Mean Concurrency Level `P_c` (eq. 4.4), when defined.
    pub pc: Option<f64>,
    /// Cache miss rate.
    pub miss: f64,
    /// CE bus busy fraction.
    pub busy: f64,
    /// Page Fault Rate (zero for triggered buffers, which carry no
    /// kernel counters).
    pub faults: f64,
}

impl Point {
    /// The row of one reduced buffer and its interval's page faults.
    pub(crate) fn new(counts: &EventCounts, faults: u64) -> Self {
        let (cw, pc) = cw_pc(&counts.num);
        Point {
            cw,
            pc,
            miss: counts.missrate(),
            busy: counts.ce_bus_busy(),
            faults: faults as f64,
        }
    }
}

impl From<&Sample> for Point {
    fn from(s: &Sample) -> Self {
        Point::new(&s.counts, s.kernel.total_faults())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx8_sim::opcode::MemBusOp;

    fn sample_with(num: Vec<u64>, fetches: u64, records: u64, faults: u64) -> Sample {
        let mut counts = EventCounts::empty(8);
        counts.num = num;
        counts.records = records;
        counts.membop[MemBusOp::Fetch.index()] = fetches;
        Sample {
            session: 0,
            at_cycle: 0,
            counts,
            kernel: KernelCounters {
                page_faults_user: faults,
                page_faults_system: 0,
            },
        }
    }

    #[test]
    fn derived_measures_flow_through() {
        let s = sample_with(vec![10, 10, 0, 0, 0, 0, 0, 0, 20], 4, 40, 1234);
        assert!((s.workload_concurrency() - 0.5).abs() < 1e-12);
        assert!((s.mean_concurrency_level().unwrap() - 8.0).abs() < 1e-12);
        assert!((s.missrate() - 0.1).abs() < 1e-12);
        assert_eq!(s.page_fault_rate(), 1234.0);
    }

    #[test]
    fn pc_points_drop_undefined_samples() {
        let concurrent = sample_with(vec![0, 0, 0, 0, 0, 0, 0, 0, 10], 0, 10, 0);
        let serial = sample_with(vec![5, 5, 0, 0, 0, 0, 0, 0, 0], 0, 10, 7);
        let (c, s) = (Point::from(&concurrent), Point::from(&serial));
        assert_eq!(c.pc, Some(8.0));
        assert_eq!(s.pc, None, "serial sample has undefined P_c");
        assert_eq!((s.cw, s.faults), (0.0, 7.0));
        for (sample, row) in [(&concurrent, c), (&serial, s)] {
            assert_eq!(row.cw, sample.workload_concurrency());
            assert_eq!(row.pc, sample.mean_concurrency_level());
            assert_eq!(row.miss, sample.missrate());
            assert_eq!(row.busy, sample.ce_bus_busy());
            assert_eq!(row.faults, sample.page_fault_rate());
        }
    }
}
