//! The shared input of the Chapter 5 analysis.
//!
//! Chapter 5 studies three system measures (missrate, CE bus busy, page
//! fault rate) against the two concurrency measures of § 4.1 (`C_w`,
//! `P_c`) three ways: scatter plots,
//! band-binned distributions and the median regression models of § 5.2.
//! Tables 3/4 and the paper-vs-measured comparison read the same models.
//! An [`Analysis`] reduces every sample of a study to a row once,
//! straight from the borrowed counts, and fits each of the six models at
//! most once, on first use. The full report renders every table and
//! figure from one `Analysis`; each public `&Study` entry point builds its
//! own.

use crate::figures::{CW_BANDS, PC_BANDS};
use crate::sample::Point;
use crate::study::Study;
use crate::tables::{cw_midpoints, pc_midpoints};
use fx8_stats::regression::{fit_median_model, FitError, QuadModel};
use std::cell::OnceCell;

/// A concurrency measure on the x axis of Chapter 5.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Axis {
    /// Workload Concurrency `C_w` (defined for every row).
    Cw,
    /// Mean Concurrency Level `P_c` (rows where it is undefined drop out,
    /// exactly as the thesis's plots drop them).
    Pc,
}

impl Axis {
    /// The row's value on this axis, if defined.
    pub(crate) fn of(self, p: &Point) -> Option<f64> {
        match self {
            Axis::Cw => Some(p.cw),
            Axis::Pc => p.pc,
        }
    }

    /// The measure's symbol as the tables and scatter plots print it.
    pub(crate) fn symbol(self) -> &'static str {
        match self {
            Axis::Cw => "C_w",
            Axis::Pc => "P_c",
        }
    }

    /// The thesis's band boundaries on this axis.
    pub(crate) fn bands(self) -> &'static [(f64, f64); 3] {
        match self {
            Axis::Cw => &CW_BANDS,
            Axis::Pc => &PC_BANDS,
        }
    }

    /// The § 5.2 median-binning midpoints on this axis.
    fn midpoints(self) -> Vec<f64> {
        match self {
            Axis::Cw => cw_midpoints(),
            Axis::Pc => pc_midpoints(),
        }
    }
}

/// A system measure of Tables 3 and 4, in row order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Measure {
    /// Cache miss rate (hardware rows).
    MissRate,
    /// CE bus busy fraction (hardware rows).
    CeBusBusy,
    /// Page Fault Rate (random rows only: the kernel counters exist only
    /// there).
    PageFaultRate,
}

impl Measure {
    /// Every measure, in table row order.
    pub(crate) const ALL: [Measure; 3] = [
        Measure::MissRate,
        Measure::CeBusBusy,
        Measure::PageFaultRate,
    ];

    /// The row's value of this measure.
    pub(crate) fn of(self, p: &Point) -> f64 {
        match self {
            Measure::MissRate => p.miss,
            Measure::CeBusBusy => p.busy,
            Measure::PageFaultRate => p.faults,
        }
    }

    /// The row name Tables 3 and 4 print.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Measure::MissRate => "Median Miss Rate",
            Measure::CeBusBusy => "Median CE Bus Busy",
            Measure::PageFaultRate => "Median Page Fault Rate",
        }
    }
}

/// One study's rows and lazily fitted models (see the module docs).
pub struct Analysis<'s> {
    /// The study the rows were derived from.
    pub study: &'s Study,
    /// The random samples' rows, then the all-active-triggered buffers'.
    rows: Vec<Point>,
    /// How many leading `rows` are random samples.
    n_random: usize,
    /// The six § 5.2 models, indexed by measure, then axis.
    fits: [OnceCell<Result<QuadModel, FitError>>; 6],
}

impl<'s> Analysis<'s> {
    /// Reduce every random sample and triggered buffer of `study` to a row.
    /// Triggered buffers carry no kernel counters (those sessions "dealt
    /// with hardware measurements only"), so their page-fault rate is 0.
    pub fn new(study: &'s Study) -> Self {
        let random = study.random_sessions.iter().flat_map(|s| &s.samples);
        let mut rows: Vec<Point> = random.map(Point::from).collect();
        let n_random = rows.len();
        let triggered = study.triggered.iter().flatten();
        rows.extend(triggered.map(|c| Point::new(&c.counts, 0)));
        Analysis {
            study,
            rows,
            n_random,
            fits: Default::default(),
        }
    }

    /// The random samples' rows, in session then sample order.
    pub(crate) fn random(&self) -> &[Point] {
        &self.rows[..self.n_random]
    }

    /// The rows of the hardware measures: the random samples then the
    /// all-active-triggered buffers ("the combination of random sampling
    /// and high concurrency measurement periods").
    pub(crate) fn hardware(&self) -> &[Point] {
        &self.rows
    }

    /// The rows `measure` is analyzed over.
    pub(crate) fn rows(&self, measure: Measure) -> &[Point] {
        match measure {
            Measure::MissRate | Measure::CeBusBusy => self.hardware(),
            Measure::PageFaultRate => self.random(),
        }
    }

    /// `(x, y)` points of `measure` against `axis`, in row order.
    pub(crate) fn points(&self, measure: Measure, axis: Axis) -> Vec<(f64, f64)> {
        self.rows(measure)
            .iter()
            .filter_map(|p| axis.of(p).map(|x| (x, measure.of(p))))
            .collect()
    }

    /// The `measure` values of the rows whose `axis` value lies in `band`,
    /// `(lo, hi]` (a band starting at 0 includes 0), in row order.
    pub(crate) fn band(&self, measure: Measure, axis: Axis, band: (f64, f64)) -> Vec<f64> {
        let inside = |x: f64| (x > band.0 || band.0 == 0.0) && x <= band.1;
        self.rows(measure)
            .iter()
            .filter(|p| axis.of(p).is_some_and(inside))
            .map(|p| measure.of(p))
            .collect()
    }

    /// The § 5.2 median regression model of `measure` against `axis`,
    /// fitted on first use.
    pub(crate) fn fit(&self, measure: Measure, axis: Axis) -> &Result<QuadModel, FitError> {
        self.fits[measure as usize + 3 * axis as usize]
            .get_or_init(|| fit_median_model(&self.points(measure, axis), &axis.midpoints()))
    }
}
