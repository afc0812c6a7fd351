//! # fx8-study — reproduction of McGuire (1987)
//!
//! *A Measurement-Based Study of Concurrency in a Multiprocessor* measured
//! loop-level concurrency in the production workload of an Alliant FX/8 and
//! related it to cache miss rate, CE bus activity, and page fault rate.
//! This workspace rebuilds the whole measurement environment in Rust:
//!
//! * [`sim`] — the FX/8 machine (CEs, shared cache, crossbar, memory buses,
//!   Concurrency Control Bus, demand paging, IP background load);
//! * [`workload`] — a stochastic CSRD-style production workload;
//! * [`monitor`] — the DAS 9100-style hardware monitor and kernel counters;
//! * [`stats`] — concurrency measures, distributions, charts, regression;
//! * [`core`] — the paper's methodology: sessions, sampling protocol, and
//!   every table and figure of the evaluation.
//!
//! See `DESIGN.md` for the system inventory and `EXPERIMENTS.md` for
//! paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use fx8_study::prelude::*;
//! use fx8_study::workload::kernels;
//!
//! // Build the measured machine and mount a concurrent loop on it.
//! let mut cluster = Cluster::new(MachineConfig::fx8(), 42);
//! # cluster.set_ip_intensity(0.0);
//! let kernel = kernels::sor_sweep(258);
//! cluster.mount_loop(
//!     kernel.instantiate(1),
//!     0,
//!     kernel.iters,
//!     kernels::glue_serial().instantiate(1),
//!     1,
//! );
//! cluster.run(2_000); // let dispatch ramp up
//!
//! // Capture a 512-record buffer exactly as the logic analyzer did.
//! let records = cluster.capture(512);
//! let counts = EventCounts::reduce(&records, 8);
//! let m = ConcurrencyMeasures::from_counts(&counts.num);
//! assert!(m.workload_concurrency > 0.9, "a running loop is concurrent");
//! if let Some(pc) = m.mean_concurrency_level {
//!     assert!(pc > 7.0, "all eight CEs participate");
//! }
//! ```

pub use fx8_core as core;
pub use fx8_monitor as monitor;
pub use fx8_sim as sim;
pub use fx8_stats as stats;
pub use fx8_workload as workload;

/// The names most programs want in scope.
///
/// Re-exports [`fx8_core::prelude`] (Study, configs, observability,
/// [`fx8_core::prelude::ConfigError`], …) plus the machine- and
/// statistics-level types a direct simulation driver needs.
pub mod prelude {
    pub use fx8_core::prelude::*;
    pub use fx8_sim::{Cluster, ProbeWord};
    pub use fx8_stats::measures::ConcurrencyMeasures;
    pub use fx8_workload::mix::WorkloadMix;
}
