//! # fx8-stats — the study's statistical toolkit
//!
//! McGuire processed the measured data "with the Statistical Analysis
//! System (SAS) package on an IBM 4381" (§ 3.5). This crate is the
//! SAS-equivalent the reproduction needs:
//!
//! * [`measures`] — the concurrency measures of § 4.1 (equations 4.1–4.4):
//!   j-concurrency `c_j`, Workload Concurrency `C_w`, conditional
//!   j-concurrency `c_{j|c}`, and Mean Concurrency Level `P_c`;
//! * [`summary`] — means, medians and quantiles;
//! * [`freq`] — midpoint-binned frequency distributions with the
//!   FREQ / CUM FREQ / PERCENT / CUM PERCENT columns of the thesis listings;
//! * [`chart`] — SAS-style ASCII bar charts and letter-coded scatter plots,
//!   so regenerated figures are visually comparable to the originals;
//! * [`regression`] — second-order linear least squares with R², plus the
//!   paper's median-binning procedure (§ 5.2);
//! * [`text`] — the fixed-width fields and fixed-precision floats every
//!   chart and table is written with, byte for byte what `core::fmt`
//!   writes.

pub mod chart;
pub mod freq;
pub mod measures;
pub mod regression;
pub mod summary;
pub mod text;

pub use measures::ConcurrencyMeasures;
pub use regression::QuadModel;
