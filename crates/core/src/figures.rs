//! Figures 3–14, A.1–A.5 and B.1–B.10, rendered in the thesis's SAS style.
//!
//! Every public function takes the study and produces the text listing the
//! corresponding figure shows. The figures drawn from the samples read an
//! [`Analysis`]: each has one body over it (`*_of`), which the full report
//! calls with its one shared `Analysis`, and a `&Study` entry point that
//! builds its own.

use crate::analysis::{Analysis, Axis, Measure};
use crate::study::Study;
use fx8_stats::chart::{hbar, hbar_labeled, model_curve, scatter};
use fx8_stats::freq::{midpoints, FreqDist};
use std::ops::RangeInclusive;

const PLOT_W: usize = 72;
const PLOT_H: usize = 24;

/// Histogram of records by active-processor count over `states`, in
/// descending order as in the thesis (Figures 3, A.1, A.2, 6). A state
/// past the end of `num` saw no records.
fn activity_histogram(title: &str, num: &[u64], states: RangeInclusive<usize>) -> String {
    let labels: Vec<String> = states.clone().rev().map(|j| format!("{j}")).collect();
    let freq: Vec<u64> = states
        .rev()
        .map(|j| num.get(j).copied().unwrap_or(0))
        .collect();
    let mut s = format!("NUMBER OF PROCESSORS / {title}\n");
    s.push_str(&hbar_labeled("", &labels, &freq));
    s
}

/// Figure 3: records with N processors active, all random sessions.
pub fn fig3(study: &Study) -> String {
    let num = study.pooled_num();
    activity_histogram("All Sessions", &num, 0..=num.len() - 1)
}

/// Figure 4 data: distribution of samples by Workload Concurrency.
pub(crate) fn fig4_dist(a: &Analysis) -> FreqDist {
    let cw: Vec<f64> = a.random().iter().map(|p| p.cw).collect();
    FreqDist::from_values(&cw, &midpoints(0.0, 0.125, 9))
}

/// Figure 4: distribution of samples by Workload Concurrency.
pub fn fig4(study: &Study) -> String {
    fig4_of(&Analysis::new(study))
}

pub(crate) fn fig4_of(a: &Analysis) -> String {
    hbar(
        &fig4_dist(a),
        "Figure 4. Distribution of Samples by Workload Concurrency / All Sessions",
        3,
    )
}

/// Figure 5: distribution of samples by Mean Concurrency Level (samples
/// with `C_w = 0` are excluded — `P_c` is undefined there).
pub fn fig5(study: &Study) -> String {
    fig5_of(&Analysis::new(study))
}

pub(crate) fn fig5_of(a: &Analysis) -> String {
    let pc: Vec<f64> = a.random().iter().filter_map(|p| p.pc).collect();
    hbar(
        &FreqDist::from_values(&pc, &midpoints(2.0, 1.0, 7)),
        "Figure 5. Distribution of Samples by Mean Concurrency Level / All Sessions",
        1,
    )
}

/// The transition states of Figure 6: partial concurrency, from 2 CEs up
/// to one short of all of them (2..=7 on the 8-CE FX/8; none below 3 CEs).
pub(crate) fn transition_states(study: &Study) -> RangeInclusive<usize> {
    2..=study.config.machine.n_ces.saturating_sub(1)
}

/// Figure 6: N-active histogram over concurrency transition periods,
/// restricted to the transition states `2..=n_ces-1` as in the thesis.
pub fn fig6(study: &Study) -> String {
    let num = study.pooled_transition_counts().num;
    activity_histogram(
        "Concurrency Transition Periods",
        &num,
        transition_states(study),
    )
}

/// Figure 7: records active by processor number, transition periods.
pub fn fig7(study: &Study) -> String {
    let prof = study.pooled_transition_counts().prof;
    let labels: Vec<String> = (0..prof.len()).rev().map(|j| format!("CE {j}")).collect();
    let freq: Vec<u64> = prof.iter().rev().copied().collect();
    let mut s =
        String::from("Figure 7. Number of Records Active by Processor Number / Transitions\n");
    s.push_str(&hbar_labeled("", &labels, &freq));
    s
}

/// A letter-coded scatter of `measure` against `axis` (Figures 8, 9 and
/// B.1, B.2, B.5, B.6).
fn scatter_of(a: &Analysis, title: &str, measure: Measure, axis: Axis, y_label: &str) -> String {
    let pts = a.points(measure, axis);
    scatter(title, &pts, axis.symbol(), y_label, PLOT_W, PLOT_H)
}

/// Figure 8: scatter of Missrate vs Workload Concurrency.
pub fn fig8(study: &Study) -> String {
    fig8_of(&Analysis::new(study))
}

pub(crate) fn fig8_of(a: &Analysis) -> String {
    let title = "Figure 8. Missrate vs. Workload Concurrency";
    scatter_of(a, title, Measure::MissRate, Axis::Cw, "MISSRATE")
}

/// Figure 9: scatter of Missrate vs Mean Concurrency Level.
pub fn fig9(study: &Study) -> String {
    fig9_of(&Analysis::new(study))
}

pub(crate) fn fig9_of(a: &Analysis) -> String {
    let title = "Figure 9. Missrate vs. Mean Concurrency Level";
    scatter_of(a, title, Measure::MissRate, Axis::Pc, "MISSRATE")
}

/// Band boundaries the thesis used for `C_w` (Figures 10, B.3, B.7).
pub const CW_BANDS: [(f64, f64); 3] = [(0.0, 0.4), (0.4, 0.8), (0.8, f64::INFINITY)];
/// Band boundaries the thesis used for `P_c` (Figures 11, B.4, B.8).
pub const PC_BANDS: [(f64, f64); 3] = [(0.0, 6.0), (6.0, 7.5), (7.5, f64::INFINITY)];

/// Distributions of `measure` within each of `axis`'s bands, `(lo, hi]`
/// (the first band includes 0).
fn bands_of(
    a: &Analysis,
    fig: &str,
    measure_name: &str,
    measure: Measure,
    axis: Axis,
    mids: &[f64],
    label_decimals: usize,
) -> String {
    let mut out = String::new();
    let x_name = match axis {
        Axis::Cw => "Cw",
        Axis::Pc => "Pc",
    };
    for (i, &band) in axis.bands().iter().enumerate() {
        let label = (b'a' + i as u8) as char;
        let hi = if band.1.is_infinite() {
            format!("{x_name} > {}", band.0)
        } else if band.0 == 0.0 {
            format!("{x_name} <= {}", band.1)
        } else {
            format!("{} < {x_name} <= {}", band.0, band.1)
        };
        let dist = FreqDist::from_values(&a.band(measure, axis, band), mids);
        out.push_str(&hbar(
            &dist,
            &format!("Figure {fig} ({label}). Distribution of {measure_name}, {hi}"),
            label_decimals,
        ));
        out.push('\n');
    }
    out
}

/// Midpoints for miss-rate distributions (0.00..0.10 step 0.01).
pub fn missrate_midpoints() -> Vec<f64> {
    midpoints(0.0, 0.01, 11)
}

/// Figure 10 (a–c): Missrate distributions binned by `C_w` band.
pub fn fig10(study: &Study) -> String {
    fig10_of(&Analysis::new(study))
}

pub(crate) fn fig10_of(a: &Analysis) -> String {
    let mids = missrate_midpoints();
    bands_of(a, "10", "Miss Rate", Measure::MissRate, Axis::Cw, &mids, 2)
}

/// Figure 11 (a–c): Missrate distributions binned by `P_c` band.
pub fn fig11(study: &Study) -> String {
    fig11_of(&Analysis::new(study))
}

pub(crate) fn fig11_of(a: &Analysis) -> String {
    let mids = missrate_midpoints();
    bands_of(a, "11", "Miss Rate", Measure::MissRate, Axis::Pc, &mids, 2)
}

/// The fitted model curve of `measure` against `axis`, over `C_w` in
/// `[0, 1]` or `P_c` in `[2, 8]`, or a notice when the fit degenerated
/// (Figures 12–14, B.9 and B.10).
fn model_of(a: &Analysis, fig: &str, vs: &str, measure: Measure, axis: Axis) -> String {
    let (x0, x1) = match axis {
        Axis::Cw => (0.0, 1.0),
        Axis::Pc => (2.0, 8.0),
    };
    match a.fit(measure, axis) {
        Ok(m) => model_curve(
            &format!("Figure {fig}. Plot of Regression Model, {vs}"),
            m,
            x0,
            x1,
            PLOT_W,
            16,
        ),
        Err(_) => format!("Figure {fig}: model degenerate (insufficient occupied bins)\n"),
    }
}

/// Figure 12: the fitted Missrate-vs-`C_w` model curve.
pub fn fig12(study: &Study) -> String {
    fig12_of(&Analysis::new(study))
}

pub(crate) fn fig12_of(a: &Analysis) -> String {
    model_of(a, "12", "Missrate vs. Cw", Measure::MissRate, Axis::Cw)
}

/// Figure 13: the fitted CE-Bus-Busy-vs-`C_w` model curve.
pub fn fig13(study: &Study) -> String {
    fig13_of(&Analysis::new(study))
}

pub(crate) fn fig13_of(a: &Analysis) -> String {
    model_of(a, "13", "CE Bus Busy vs. Cw", Measure::CeBusBusy, Axis::Cw)
}

/// Figure 14: the fitted CE-Bus-Busy-vs-`P_c` model curve.
pub fn fig14(study: &Study) -> String {
    fig14_of(&Analysis::new(study))
}

pub(crate) fn fig14_of(a: &Analysis) -> String {
    model_of(a, "14", "CE Bus Busy vs. Pc", Measure::CeBusBusy, Axis::Pc)
}

/// Figures A.1/A.2: per-session activity histograms over `0..=n_ces`
/// (the thesis shows sessions 1 and 9 to illustrate day-to-day variation).
pub fn fig_a1_a2(study: &Study, session: usize) -> String {
    let s = &study.random_sessions[session];
    let states = 0..=study.config.machine.n_ces;
    activity_histogram(&format!("Session {}", session + 1), &s.pooled_num(), states)
}

/// A distribution of the random samples by `measure` (Figures A.3–A.5).
fn random_dist_of(
    a: &Analysis,
    title: &str,
    measure: Measure,
    mids: &[f64],
    label_decimals: usize,
) -> String {
    let vals: Vec<f64> = a.random().iter().map(|p| measure.of(p)).collect();
    hbar(&FreqDist::from_values(&vals, mids), title, label_decimals)
}

/// Figure A.3: distribution of samples by CE Bus Busy.
pub fn fig_a3(study: &Study) -> String {
    fig_a3_of(&Analysis::new(study))
}

pub(crate) fn fig_a3_of(a: &Analysis) -> String {
    let title = "Figure A.3. Distribution of Samples by CE Bus Busy";
    let mids = midpoints(0.0, 0.05, 11);
    random_dist_of(a, title, Measure::CeBusBusy, &mids, 2)
}

/// Figure A.4: distribution of samples by Miss Rate.
pub fn fig_a4(study: &Study) -> String {
    fig_a4_of(&Analysis::new(study))
}

pub(crate) fn fig_a4_of(a: &Analysis) -> String {
    let title = "Figure A.4. Distribution of Samples by Miss Rate";
    let mids = missrate_midpoints();
    random_dist_of(a, title, Measure::MissRate, &mids, 2)
}

/// Figure A.5: distribution of samples by Page Fault Rate.
pub fn fig_a5(study: &Study) -> String {
    fig_a5_of(&Analysis::new(study))
}

pub(crate) fn fig_a5_of(a: &Analysis) -> String {
    let title = "Figure A.5. Distribution of Samples by Page Fault Rate";
    let mids = midpoints(0.0, 1000.0, 25);
    random_dist_of(a, title, Measure::PageFaultRate, &mids, 0)
}

/// Figure B.1: scatter of CE Bus Busy vs Workload Concurrency.
pub fn fig_b1(study: &Study) -> String {
    fig_b1_of(&Analysis::new(study))
}

pub(crate) fn fig_b1_of(a: &Analysis) -> String {
    let title = "Figure B.1. CE Bus Busy vs. Workload Concurrency";
    scatter_of(a, title, Measure::CeBusBusy, Axis::Cw, "CE BUS BUSY")
}

/// Figure B.2: scatter of CE Bus Busy vs Mean Concurrency Level.
pub fn fig_b2(study: &Study) -> String {
    fig_b2_of(&Analysis::new(study))
}

pub(crate) fn fig_b2_of(a: &Analysis) -> String {
    let title = "Figure B.2. CE Bus Busy vs. Mean Concurrency Level";
    scatter_of(a, title, Measure::CeBusBusy, Axis::Pc, "CE BUS BUSY")
}

/// Midpoints for CE-bus-busy distributions (0.0..1.0 step 0.1).
pub fn busy_midpoints() -> Vec<f64> {
    midpoints(0.0, 0.1, 11)
}

/// Figure B.3 (a–c): CE Bus Busy distributions binned by `C_w` band.
pub fn fig_b3(study: &Study) -> String {
    fig_b3_of(&Analysis::new(study))
}

pub(crate) fn fig_b3_of(a: &Analysis) -> String {
    let mids = busy_midpoints();
    bands_of(
        a,
        "B.3",
        "CE Bus Busy",
        Measure::CeBusBusy,
        Axis::Cw,
        &mids,
        1,
    )
}

/// Figure B.4 (a–c): CE Bus Busy distributions binned by `P_c` band.
pub fn fig_b4(study: &Study) -> String {
    fig_b4_of(&Analysis::new(study))
}

pub(crate) fn fig_b4_of(a: &Analysis) -> String {
    let mids = busy_midpoints();
    bands_of(
        a,
        "B.4",
        "CE Bus Busy",
        Measure::CeBusBusy,
        Axis::Pc,
        &mids,
        1,
    )
}

/// Figure B.5: scatter of Page Fault Rate vs Workload Concurrency
/// (random samples only — the kernel counters exist only there).
pub fn fig_b5(study: &Study) -> String {
    fig_b5_of(&Analysis::new(study))
}

pub(crate) fn fig_b5_of(a: &Analysis) -> String {
    let title = "Figure B.5. Page Fault Rate vs. Workload Concurrency";
    scatter_of(a, title, Measure::PageFaultRate, Axis::Cw, "CE PAGE FAULT")
}

/// Figure B.6: scatter of Page Fault Rate vs Mean Concurrency Level.
pub fn fig_b6(study: &Study) -> String {
    fig_b6_of(&Analysis::new(study))
}

pub(crate) fn fig_b6_of(a: &Analysis) -> String {
    let title = "Figure B.6. Page Fault Rate vs. Mean Concurrency Level";
    scatter_of(a, title, Measure::PageFaultRate, Axis::Pc, "CE PAGE FAULT")
}

/// Midpoints for page-fault-rate distributions.
pub fn pfr_midpoints() -> Vec<f64> {
    midpoints(0.0, 2000.0, 13)
}

/// Figure B.7 (a–c): Page Fault Rate distributions binned by `C_w` band.
pub fn fig_b7(study: &Study) -> String {
    fig_b7_of(&Analysis::new(study))
}

pub(crate) fn fig_b7_of(a: &Analysis) -> String {
    let (measure, mids) = (Measure::PageFaultRate, pfr_midpoints());
    bands_of(a, "B.7", "Page Fault Rate", measure, Axis::Cw, &mids, 0)
}

/// Figure B.8 (a–c): Page Fault Rate distributions binned by `P_c` band.
pub fn fig_b8(study: &Study) -> String {
    fig_b8_of(&Analysis::new(study))
}

pub(crate) fn fig_b8_of(a: &Analysis) -> String {
    let (measure, mids) = (Measure::PageFaultRate, pfr_midpoints());
    bands_of(a, "B.8", "Page Fault Rate", measure, Axis::Pc, &mids, 0)
}

/// Figure B.9: the fitted Page-Fault-Rate-vs-`C_w` model curve.
pub fn fig_b9(study: &Study) -> String {
    fig_b9_of(&Analysis::new(study))
}

pub(crate) fn fig_b9_of(a: &Analysis) -> String {
    let vs = "Page Fault Rate vs. Cw";
    model_of(a, "B.9", vs, Measure::PageFaultRate, Axis::Cw)
}

/// Figure B.10: the fitted Page-Fault-Rate-vs-`P_c` model curve.
pub fn fig_b10(study: &Study) -> String {
    fig_b10_of(&Analysis::new(study))
}

pub(crate) fn fig_b10_of(a: &Analysis) -> String {
    let vs = "Page Fault Rate vs. Pc";
    model_of(a, "B.10", vs, Measure::PageFaultRate, Axis::Pc)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;
    use fx8_workload::WorkloadMix;
    use std::sync::OnceLock;

    fn mini_study() -> &'static Study {
        static STUDY: OnceLock<Study> = OnceLock::new();
        STUDY.get_or_init(|| {
            let cfg = StudyConfig {
                n_random: 2,
                session_hours: vec![0.15, 0.15],
                n_triggered: 1,
                captures_per_triggered: 3,
                n_transition: 1,
                captures_per_transition: 3,
                mix: WorkloadMix::all_concurrent(),
                ..StudyConfig::paper()
            };
            Study::run(cfg, None, &crate::api::RunHooks::default())
                .expect("uncancellable")
                .0
        })
    }

    #[test]
    fn every_figure_renders_nonempty() {
        let study = mini_study();
        let figs: Vec<(&str, String)> = vec![
            ("fig3", fig3(study)),
            ("fig4", fig4(study)),
            ("fig5", fig5(study)),
            ("fig6", fig6(study)),
            ("fig7", fig7(study)),
            ("fig8", fig8(study)),
            ("fig9", fig9(study)),
            ("fig10", fig10(study)),
            ("fig11", fig11(study)),
            ("fig12", fig12(study)),
            ("fig13", fig13(study)),
            ("fig14", fig14(study)),
            ("figA1", fig_a1_a2(study, 0)),
            ("figA2", fig_a1_a2(study, 1)),
            ("figA3", fig_a3(study)),
            ("figA4", fig_a4(study)),
            ("figA5", fig_a5(study)),
            ("figB1", fig_b1(study)),
            ("figB2", fig_b2(study)),
            ("figB3", fig_b3(study)),
            ("figB4", fig_b4(study)),
            ("figB5", fig_b5(study)),
            ("figB6", fig_b6(study)),
            ("figB7", fig_b7(study)),
            ("figB8", fig_b8(study)),
            ("figB9", fig_b9(study)),
            ("figB10", fig_b10(study)),
        ];
        for (name, text) in figs {
            // Model-curve figures may legitimately degenerate on a mini
            // study whose P_c values occupy fewer than three bins.
            if text.contains("model degenerate") {
                continue;
            }
            assert!(text.lines().count() >= 3, "{name} too short:\n{text}");
        }
    }

    #[test]
    fn fig4_distribution_covers_all_samples() {
        let study = mini_study();
        let d = fig4_dist(&Analysis::new(study));
        assert_eq!(d.total() as usize, study.all_samples().len());
    }

    #[test]
    fn fig6_shows_only_transition_states() {
        let study = mini_study();
        let text = fig6(study);
        // Histogram rows run 7 down to 2.
        assert!(text.contains("\n7 "));
        assert!(text.contains("\n2 "));
        assert!(!text.contains("\n8 "));
    }

    #[test]
    fn banded_distributions_partition_hw_samples() {
        let a = Analysis::new(mini_study());
        for m in Measure::ALL {
            let total: usize = CW_BANDS.iter().map(|&b| a.band(m, Axis::Cw, b).len()).sum();
            assert_eq!(total, a.rows(m).len(), "C_w bands must partition");
        }
    }

    #[test]
    fn pc_bands_cover_only_defined_samples() {
        let a = Analysis::new(mini_study());
        for m in Measure::ALL {
            let total: usize = PC_BANDS.iter().map(|&b| a.band(m, Axis::Pc, b).len()).sum();
            let defined = a.rows(m).iter().filter(|p| p.pc.is_some()).count();
            assert_eq!(total, defined);
            assert_eq!(a.points(m, Axis::Pc).len(), defined);
            assert_eq!(a.points(m, Axis::Cw).len(), a.rows(m).len());
        }
    }
}
