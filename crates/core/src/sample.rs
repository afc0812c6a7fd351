//! One workload sample.
//!
//! § 3.5: "Five snapshots of the system were taken and grouped together in
//! a five-minute interval. ... Software measurements were taken
//! simultaneously with the hardware measurements." A [`Sample`] is that
//! grouped unit: the merged event counts of its snapshots, the kernel
//! counter delta over the interval, and every derived measure the analysis
//! chapters use.

use fx8_monitor::{EventCounts, KernelCounters};
use fx8_sim::Cycle;
use fx8_stats::measures::ConcurrencyMeasures;
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
    /// Concurrency measures of this sample's record distribution.
    pub fn measures(&self) -> ConcurrencyMeasures {
        ConcurrencyMeasures::from_counts(&self.counts.num)
    }

    /// Workload Concurrency `C_w` (eq. 4.2).
    pub fn workload_concurrency(&self) -> f64 {
        self.measures().workload_concurrency
    }

    /// Mean Concurrency Level `P_c` (eq. 4.4), when defined.
    pub fn mean_concurrency_level(&self) -> Option<f64> {
        self.measures().mean_concurrency_level
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

/// Extract `(C_w, y)` points from samples via a selector.
pub fn points_vs_cw<'s>(
    samples: impl IntoIterator<Item = &'s Sample>,
    y: impl Fn(&Sample) -> f64,
) -> Vec<(f64, f64)> {
    samples
        .into_iter()
        .map(|s| (s.workload_concurrency(), y(s)))
        .collect()
}

/// Extract `(P_c, y)` points from samples (only samples where `P_c` is
/// defined, exactly as the thesis's plots drop them).
pub fn points_vs_pc<'s>(
    samples: impl IntoIterator<Item = &'s Sample>,
    y: impl Fn(&Sample) -> f64,
) -> Vec<(f64, f64)> {
    samples
        .into_iter()
        .filter_map(|s| s.mean_concurrency_level().map(|pc| (pc, y(s))))
        .collect()
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
        let serial = sample_with(vec![5, 5, 0, 0, 0, 0, 0, 0, 0], 0, 10, 0);
        let samples = vec![concurrent, serial];
        let pts = points_vs_pc(&samples, Sample::missrate);
        assert_eq!(pts.len(), 1, "serial sample has undefined P_c");
        let pts_cw = points_vs_cw(&samples, Sample::missrate);
        assert_eq!(pts_cw.len(), 2);
    }
}
