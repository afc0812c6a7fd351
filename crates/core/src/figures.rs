//! Figures 3–14, A.1–A.5 and B.1–B.10, rendered in the thesis's SAS style.
//!
//! Every function takes the study's data and produces the text listing the
//! corresponding figure shows; structured variants return the underlying
//! distributions so tests and EXPERIMENTS.md can assert on the numbers.

use crate::sample::{points_vs_cw, points_vs_pc, Sample};
use crate::study::Study;
use crate::tables::{analysis_samples, table3, table4};
use fx8_stats::chart::{hbar, hbar_labeled, model_curve, scatter};
use fx8_stats::freq::{midpoints, FreqDist};
use fx8_stats::regression::QuadModel;

const PLOT_W: usize = 72;
const PLOT_H: usize = 24;

/// Histogram of records by active-processor count, descending order as in
/// the thesis (Figures 3, A.1, A.2, 6).
fn activity_histogram(title: &str, num: &[u64], lo: usize, hi: usize) -> String {
    let labels: Vec<String> = (lo..=hi).rev().map(|j| format!("{j}")).collect();
    let freq: Vec<u64> = (lo..=hi).rev().map(|j| num[j]).collect();
    let mut s = format!("NUMBER OF PROCESSORS / {title}\n");
    s.push_str(&hbar_labeled("", &labels, &freq));
    s
}

/// Figure 3: records with N processors active, all random sessions.
pub fn fig3(study: &Study) -> String {
    let num = study.pooled_num();
    activity_histogram("All Sessions", &num, 0, num.len() - 1)
}

/// Figure 4 data: distribution of samples by Workload Concurrency.
pub fn fig4_dist(study: &Study) -> FreqDist {
    let cw: Vec<f64> = study
        .all_samples()
        .iter()
        .map(|s| s.workload_concurrency())
        .collect();
    FreqDist::from_values(&cw, &midpoints(0.0, 0.125, 9))
}

/// Figure 4: distribution of samples by Workload Concurrency.
pub fn fig4(study: &Study) -> String {
    hbar(
        &fig4_dist(study),
        "Figure 4. Distribution of Samples by Workload Concurrency / All Sessions",
        |m| format!("{m:.3}"),
    )
}

/// Figure 5 data: distribution of samples by Mean Concurrency Level
/// (samples with `C_w = 0` are excluded — `P_c` is undefined there).
pub fn fig5_dist(study: &Study) -> FreqDist {
    let pc: Vec<f64> = study
        .all_samples()
        .iter()
        .filter_map(|s| s.mean_concurrency_level())
        .collect();
    FreqDist::from_values(&pc, &midpoints(2.0, 1.0, 7))
}

/// Figure 5: distribution of samples by Mean Concurrency Level.
pub fn fig5(study: &Study) -> String {
    hbar(
        &fig5_dist(study),
        "Figure 5. Distribution of Samples by Mean Concurrency Level / All Sessions",
        |m| format!("{m:.1}"),
    )
}

/// Figure 6 data: transition-period records with N processors active,
/// restricted to the transition states 2..=7 as in the thesis.
pub fn fig6_counts(study: &Study) -> Vec<u64> {
    study.pooled_transition_counts().num
}

/// Figure 6: N-active histogram over concurrency transition periods.
pub fn fig6(study: &Study) -> String {
    let num = fig6_counts(study);
    activity_histogram("Concurrency Transition Periods", &num, 2, 7)
}

/// Figure 7 data: per-processor activity during transition periods.
pub fn fig7_counts(study: &Study) -> Vec<u64> {
    study.pooled_transition_counts().prof
}

/// Figure 7: records active by processor number, transition periods.
pub fn fig7(study: &Study) -> String {
    let prof = fig7_counts(study);
    let labels: Vec<String> = (0..prof.len()).rev().map(|j| format!("CE {j}")).collect();
    let freq: Vec<u64> = (0..prof.len()).rev().map(|j| prof[j]).collect();
    let mut s =
        String::from("Figure 7. Number of Records Active by Processor Number / Transitions\n");
    s.push_str(&hbar_labeled("", &labels, &freq));
    s
}

/// The hardware samples Chapter 5 analyzes: random samples, then the
/// all-active-triggered buffers (see [`analysis_samples`]).
pub(crate) fn hw_samples(study: &Study) -> Vec<Sample> {
    let (random, triggered) = analysis_samples(study);
    let mut all = random;
    all.extend(triggered);
    all
}

/// Figure 8: scatter of Missrate vs Workload Concurrency.
pub fn fig8(study: &Study) -> String {
    let pts = points_vs_cw(&hw_samples(study), Sample::missrate);
    scatter(
        "Figure 8. Missrate vs. Workload Concurrency",
        &pts,
        "C_w",
        "MISSRATE",
        PLOT_W,
        PLOT_H,
    )
}

/// Figure 9: scatter of Missrate vs Mean Concurrency Level.
pub fn fig9(study: &Study) -> String {
    let pts = points_vs_pc(&hw_samples(study), Sample::missrate);
    scatter(
        "Figure 9. Missrate vs. Mean Concurrency Level",
        &pts,
        "P_c",
        "MISSRATE",
        PLOT_W,
        PLOT_H,
    )
}

/// Band boundaries the thesis used for `C_w` (Figures 10, B.3, B.7).
pub const CW_BANDS: [(f64, f64); 3] = [(0.0, 0.4), (0.4, 0.8), (0.8, f64::INFINITY)];
/// Band boundaries the thesis used for `P_c` (Figures 11, B.4, B.8).
pub const PC_BANDS: [(f64, f64); 3] = [(0.0, 6.0), (6.0, 7.5), (7.5, f64::INFINITY)];

/// The `y` values of the samples whose `x` lies in `band`, `(lo, hi]` (a
/// band starting at 0 includes 0), in sample order; samples with no
/// defined `x` are dropped. The one band filter behind the banded figures
/// and the comparison's band medians.
pub(crate) fn band_values(
    samples: &[Sample],
    band: (f64, f64),
    x: impl Fn(&Sample) -> Option<f64>,
    y: impl Fn(&Sample) -> f64,
) -> Vec<f64> {
    samples
        .iter()
        .filter(|s| x(s).is_some_and(|x| (x > band.0 || band.0 == 0.0) && x <= band.1))
        .map(y)
        .collect()
}

/// `C_w` as a band axis (always defined).
pub(crate) fn cw_axis(s: &Sample) -> Option<f64> {
    Some(s.workload_concurrency())
}

/// Distribution of a system measure within samples whose `C_w` lies in
/// `(lo, hi]` (first band includes 0).
pub fn banded_by_cw(
    samples: &[Sample],
    band: (f64, f64),
    y: impl Fn(&Sample) -> f64,
    mids: &[f64],
) -> FreqDist {
    FreqDist::from_values(&band_values(samples, band, cw_axis, y), mids)
}

/// Distribution of a system measure within samples whose `P_c` lies in
/// `(lo, hi]` (samples without a defined `P_c` are dropped).
pub fn banded_by_pc(
    samples: &[Sample],
    band: (f64, f64),
    y: impl Fn(&Sample) -> f64,
    mids: &[f64],
) -> FreqDist {
    let pc = Sample::mean_concurrency_level;
    FreqDist::from_values(&band_values(samples, band, pc, y), mids)
}

fn render_bands(
    samples: &[Sample],
    fig: &str,
    measure_name: &str,
    by_cw: bool,
    y: impl Fn(&Sample) -> f64 + Copy,
    mids: &[f64],
    fmt: impl Fn(f64) -> String + Copy,
) -> String {
    let mut out = String::new();
    let (bands, x_name): (&[(f64, f64)], &str) = if by_cw {
        (&CW_BANDS, "Cw")
    } else {
        (&PC_BANDS, "Pc")
    };
    for (i, &band) in bands.iter().enumerate() {
        let label = (b'a' + i as u8) as char;
        let hi = if band.1.is_infinite() {
            format!("{x_name} > {}", band.0)
        } else if band.0 == 0.0 {
            format!("{x_name} <= {}", band.1)
        } else {
            format!("{} < {x_name} <= {}", band.0, band.1)
        };
        let dist = if by_cw {
            banded_by_cw(samples, band, y, mids)
        } else {
            banded_by_pc(samples, band, y, mids)
        };
        out.push_str(&hbar(
            &dist,
            &format!("Figure {fig} ({label}). Distribution of {measure_name}, {hi}"),
            fmt,
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
    render_bands(
        &hw_samples(study),
        "10",
        "Miss Rate",
        true,
        Sample::missrate,
        &missrate_midpoints(),
        |m| format!("{m:.2}"),
    )
}

/// Figure 11 (a–c): Missrate distributions binned by `P_c` band.
pub fn fig11(study: &Study) -> String {
    render_bands(
        &hw_samples(study),
        "11",
        "Miss Rate",
        false,
        Sample::missrate,
        &missrate_midpoints(),
        |m| format!("{m:.2}"),
    )
}

/// A fitted model's curve over `[x0, x1]`, or a notice when the fit
/// degenerated (Figures 12–14, B.9 and B.10).
fn model_figure(fig: &str, vs: &str, model: Option<&QuadModel>, x0: f64, x1: f64) -> String {
    match model {
        Some(m) => model_curve(
            &format!("Figure {fig}. Plot of Regression Model, {vs}"),
            m,
            x0,
            x1,
            PLOT_W,
            16,
        ),
        None => format!("Figure {fig}: model degenerate (insufficient occupied bins)\n"),
    }
}

/// Figure 12: the fitted Missrate-vs-`C_w` model curve.
pub fn fig12(study: &Study) -> String {
    let table = table3(study);
    model_figure(
        "12",
        "Missrate vs. Cw",
        table.model("Median Miss Rate"),
        0.0,
        1.0,
    )
}

/// Figure 13: the fitted CE-Bus-Busy-vs-`C_w` model curve.
pub fn fig13(study: &Study) -> String {
    let table = table3(study);
    model_figure(
        "13",
        "CE Bus Busy vs. Cw",
        table.model("Median CE Bus Busy"),
        0.0,
        1.0,
    )
}

/// Figure 14: the fitted CE-Bus-Busy-vs-`P_c` model curve.
pub fn fig14(study: &Study) -> String {
    let table = table4(study);
    model_figure(
        "14",
        "CE Bus Busy vs. Pc",
        table.model("Median CE Bus Busy"),
        2.0,
        8.0,
    )
}

/// Figures A.1/A.2: per-session activity histograms (the thesis shows
/// sessions 1 and 9 to illustrate day-to-day variation).
pub fn fig_a1_a2(study: &Study, session: usize) -> String {
    let s = &study.random_sessions[session];
    activity_histogram(&format!("Session {}", session + 1), &s.pooled_num(), 0, 8)
}

/// Figure A.3: distribution of samples by CE Bus Busy.
pub fn fig_a3(study: &Study) -> String {
    let vals: Vec<f64> = study
        .all_samples()
        .iter()
        .map(|s| s.ce_bus_busy())
        .collect();
    let d = FreqDist::from_values(&vals, &midpoints(0.0, 0.05, 11));
    hbar(
        &d,
        "Figure A.3. Distribution of Samples by CE Bus Busy",
        |m| format!("{m:.2}"),
    )
}

/// Figure A.4: distribution of samples by Miss Rate.
pub fn fig_a4(study: &Study) -> String {
    let vals: Vec<f64> = study.all_samples().iter().map(|s| s.missrate()).collect();
    let d = FreqDist::from_values(&vals, &missrate_midpoints());
    hbar(
        &d,
        "Figure A.4. Distribution of Samples by Miss Rate",
        |m| format!("{m:.2}"),
    )
}

/// Figure A.5: distribution of samples by Page Fault Rate.
pub fn fig_a5(study: &Study) -> String {
    let vals: Vec<f64> = study
        .all_samples()
        .iter()
        .map(|s| s.page_fault_rate())
        .collect();
    let d = FreqDist::from_values(&vals, &midpoints(0.0, 1000.0, 25));
    hbar(
        &d,
        "Figure A.5. Distribution of Samples by Page Fault Rate",
        |m| format!("{m:.0}"),
    )
}

/// Figure B.1: scatter of CE Bus Busy vs Workload Concurrency.
pub fn fig_b1(study: &Study) -> String {
    let pts = points_vs_cw(&hw_samples(study), Sample::ce_bus_busy);
    scatter(
        "Figure B.1. CE Bus Busy vs. Workload Concurrency",
        &pts,
        "C_w",
        "CE BUS BUSY",
        PLOT_W,
        PLOT_H,
    )
}

/// Figure B.2: scatter of CE Bus Busy vs Mean Concurrency Level.
pub fn fig_b2(study: &Study) -> String {
    let pts = points_vs_pc(&hw_samples(study), Sample::ce_bus_busy);
    scatter(
        "Figure B.2. CE Bus Busy vs. Mean Concurrency Level",
        &pts,
        "P_c",
        "CE BUS BUSY",
        PLOT_W,
        PLOT_H,
    )
}

/// Midpoints for CE-bus-busy distributions (0.0..1.0 step 0.1).
pub fn busy_midpoints() -> Vec<f64> {
    midpoints(0.0, 0.1, 11)
}

/// Figure B.3 (a–c): CE Bus Busy distributions binned by `C_w` band.
pub fn fig_b3(study: &Study) -> String {
    render_bands(
        &hw_samples(study),
        "B.3",
        "CE Bus Busy",
        true,
        Sample::ce_bus_busy,
        &busy_midpoints(),
        |m| format!("{m:.1}"),
    )
}

/// Figure B.4 (a–c): CE Bus Busy distributions binned by `P_c` band.
pub fn fig_b4(study: &Study) -> String {
    render_bands(
        &hw_samples(study),
        "B.4",
        "CE Bus Busy",
        false,
        Sample::ce_bus_busy,
        &busy_midpoints(),
        |m| format!("{m:.1}"),
    )
}

/// Figure B.5: scatter of Page Fault Rate vs Workload Concurrency
/// (random samples only — the kernel counters exist only there).
pub fn fig_b5(study: &Study) -> String {
    let (random, _) = analysis_samples(study);
    let pts = points_vs_cw(&random, Sample::page_fault_rate);
    scatter(
        "Figure B.5. Page Fault Rate vs. Workload Concurrency",
        &pts,
        "C_w",
        "CE PAGE FAULT",
        PLOT_W,
        PLOT_H,
    )
}

/// Figure B.6: scatter of Page Fault Rate vs Mean Concurrency Level.
pub fn fig_b6(study: &Study) -> String {
    let (random, _) = analysis_samples(study);
    let pts = points_vs_pc(&random, Sample::page_fault_rate);
    scatter(
        "Figure B.6. Page Fault Rate vs. Mean Concurrency Level",
        &pts,
        "P_c",
        "CE PAGE FAULT",
        PLOT_W,
        PLOT_H,
    )
}

/// Midpoints for page-fault-rate distributions.
pub fn pfr_midpoints() -> Vec<f64> {
    midpoints(0.0, 2000.0, 13)
}

/// Figure B.7 (a–c): Page Fault Rate distributions binned by `C_w` band.
pub fn fig_b7(study: &Study) -> String {
    render_bands(
        &analysis_samples(study).0,
        "B.7",
        "Page Fault Rate",
        true,
        Sample::page_fault_rate,
        &pfr_midpoints(),
        |m| format!("{m:.0}"),
    )
}

/// Figure B.8 (a–c): Page Fault Rate distributions binned by `P_c` band.
pub fn fig_b8(study: &Study) -> String {
    render_bands(
        &analysis_samples(study).0,
        "B.8",
        "Page Fault Rate",
        false,
        Sample::page_fault_rate,
        &pfr_midpoints(),
        |m| format!("{m:.0}"),
    )
}

/// Figure B.9: the fitted Page-Fault-Rate-vs-`C_w` model curve.
pub fn fig_b9(study: &Study) -> String {
    let table = table3(study);
    model_figure(
        "B.9",
        "Page Fault Rate vs. Cw",
        table.model("Median Page Fault Rate"),
        0.0,
        1.0,
    )
}

/// Figure B.10: the fitted Page-Fault-Rate-vs-`P_c` model curve.
pub fn fig_b10(study: &Study) -> String {
    let table = table4(study);
    model_figure(
        "B.10",
        "Page Fault Rate vs. Pc",
        table.model("Median Page Fault Rate"),
        2.0,
        8.0,
    )
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
        let d = fig4_dist(study);
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
        let study = mini_study();
        let samples = hw_samples(study);
        let mids = missrate_midpoints();
        let total: u64 = CW_BANDS
            .iter()
            .map(|&b| banded_by_cw(&samples, b, Sample::missrate, &mids).total())
            .sum();
        assert_eq!(total as usize, samples.len(), "C_w bands must partition");
    }

    #[test]
    fn pc_bands_cover_only_defined_samples() {
        let study = mini_study();
        let samples = hw_samples(study);
        let mids = missrate_midpoints();
        let total: u64 = PC_BANDS
            .iter()
            .map(|&b| banded_by_pc(&samples, b, Sample::missrate, &mids).total())
            .sum();
        let defined = samples
            .iter()
            .filter(|s| s.mean_concurrency_level().is_some())
            .count();
        assert_eq!(total as usize, defined);
    }
}
