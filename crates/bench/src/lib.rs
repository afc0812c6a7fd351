//! # fx8-bench — the reproduce harness and the one measurement harness
//!
//! The `reproduce` binary regenerates every table and figure at paper
//! scale and serves the study over HTTP. [`throughput`] is the single
//! CoV-adaptive timing harness and keyed bench schema behind
//! `BENCH_throughput.json`; [`hammer`] load-tests the job server and
//! records its serve-layer rows through the same schema.

pub mod hammer;
pub mod throughput;
