//! # fx8-core — the study's methodology
//!
//! Everything above the machine/workload/monitor substrates: the two
//! experiment protocols of § 3.5 (random workload sampling and
//! triggered high-concurrency capture), the full multi-session study, and
//! generators for every table and figure in the thesis's evaluation.
//!
//! * [`sample`] — one five-minute sample: merged snapshot event counts,
//!   kernel counter deltas, and the derived measures (`C_w`, `P_c`,
//!   Missrate, CE Bus Busy, Page Fault Rate);
//! * [`experiment`] — session runners for the three session types;
//! * [`study`] — the complete study (9 random + 10 triggered + 5
//!   transition sessions), run in parallel across sessions;
//! * [`scale`] — the width sweep the paper couldn't run: one study per
//!   cluster width, reduced to C_w/P_c/missrate/bus-utilization curves,
//!   run incrementally against the result cache;
//! * [`api`] — the unified job API: versioned `JobRequest`/`JobResult`
//!   wire types, stable error codes, and the single execution entry
//!   point shared by the `reproduce` CLI and the `fx8-serve` server;
//! * [`cache`] — determinism-backed memoization of session results: an
//!   in-process map over an optional content-addressed on-disk store;
//! * [`executor`] — the longest-task-first work-stealing pool the study
//!   and the width sweep share;
//! * [`analysis`] — the shared input of Chapter 5: every sample reduced
//!   to a row once, and each § 5.2 regression model fitted once;
//! * [`tables`] — Tables 1–4 and A.1;
//! * [`figures`] — Figures 3–14, A.1–A.5 and B.1–B.10;
//! * [`report`] — the full text report and the paper-vs-measured
//!   comparison behind EXPERIMENTS.md;
//! * [`observability`] — `fx8-trace` at study granularity: per-session
//!   metrics/events pooled across the run, plus wall-clock
//!   self-profiling of `Study::run`.

pub mod analysis;
pub mod api;
pub mod cache;
pub mod executor;
pub mod experiment;
pub mod figures;
pub mod observability;
pub mod report;
pub mod sample;
pub mod scale;
pub mod study;
pub mod tables;

pub use api::{ApiError, JobRequest, JobResult, JobSpec, API_VERSION};
pub use cache::{CacheStats, SessionCache};
pub use sample::Sample;
pub use scale::{ScaleConfig, ScalePoint, ScaleStudy};
pub use study::{SessionAudit, Study, StudyAuditReport, StudyConfig};

/// The types most programs need, importable in one line:
/// `use fx8_core::prelude::*;`.
pub mod prelude {
    pub use crate::api::{
        ApiError, CancelToken, JobRequest, JobResult, JobSpec, JobState, JobStatus, RunHooks,
        SessionDone, API_VERSION,
    };
    pub use crate::cache::{CacheStats, CachedSession, SessionCache, SessionKind};
    pub use crate::experiment::{Capture, SessionConfig, SessionResult};
    pub use crate::observability::{
        MetricsReport, SessionMetrics, SessionObservability, StudyObservability,
    };
    pub use crate::report::CompRow;
    pub use crate::sample::Sample;
    pub use crate::scale::{ScaleConfig, ScalePoint, ScaleStudy};
    pub use crate::study::{Study, StudyAuditReport, StudyConfig};
    pub use fx8_monitor::EventCounts;
    pub use fx8_sim::{ConfigError, MachineConfig, TraceConfig};
}
