//! The full report and the paper-vs-measured comparison.
//!
//! [`render_full_report`] regenerates every table and figure as one text
//! document; [`comparison`] extracts the quantitative claims of the thesis
//! and pairs each with the value measured by this reproduction — the data
//! behind EXPERIMENTS.md. Reproduction targets *shape*, not absolute
//! numbers: the substrate is a simulator, not the CSRD machine.

use crate::figures;
use crate::sample::Sample;
use crate::study::Study;
use crate::tables;
use fx8_stats::summary::median;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// One compared quantity.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CompRow {
    /// Table/figure the value comes from.
    pub id: String,
    /// What is being compared.
    pub metric: String,
    /// The thesis's value (None for qualitative claims).
    pub paper: Option<f64>,
    /// This reproduction's value.
    pub measured: f64,
    /// What "agreement" means for this row.
    pub note: String,
}

fn band_median(
    samples: &[Sample],
    band: (f64, f64),
    x: impl Fn(&Sample) -> Option<f64>,
    y: impl Fn(&Sample) -> f64,
) -> f64 {
    median(&figures::band_values(samples, band, x, y)).unwrap_or(f64::NAN)
}

/// Extract every quantitative claim and its measured counterpart.
pub fn comparison(study: &Study) -> Vec<CompRow> {
    let mut rows = Vec::new();
    let m = study.overall_measures();

    // --- Table 2 / Chapter 4 headline numbers.
    rows.push(CompRow {
        id: "Table 2".into(),
        metric: "Workload Concurrency C_w".into(),
        paper: Some(0.35),
        measured: m.workload_concurrency,
        note: "fraction of records with >= 2 CEs active".into(),
    });
    rows.push(CompRow {
        id: "Table 2".into(),
        metric: "Mean Concurrency Level P_c".into(),
        paper: Some(7.66),
        measured: m.mean_concurrency_level.unwrap_or(f64::NAN),
        note: "average CEs active during concurrency".into(),
    });
    rows.push(CompRow {
        id: "Table 2".into(),
        metric: "c_{8|c} (8-active share of concurrent records)".into(),
        paper: Some(0.9278),
        measured: m.c_j_given_concurrent(8),
        note: "concurrent periods typically use all CEs".into(),
    });

    // --- Figure 4: burstiness of the sample-level C_w distribution.
    let samples: Vec<Sample> = study.all_samples().into_iter().cloned().collect();
    let zero = samples
        .iter()
        .filter(|s| s.workload_concurrency() == 0.0)
        .count();
    rows.push(CompRow {
        id: "Figure 4".into(),
        metric: "% of samples with C_w = 0".into(),
        paper: Some(44.62),
        measured: 100.0 * zero as f64 / samples.len().max(1) as f64,
        note: "44.62% of 5-minute samples saw no concurrency".into(),
    });

    // --- Figure 5: concentration of P_c near full concurrency.
    let defined: Vec<f64> = samples
        .iter()
        .filter_map(|s| s.mean_concurrency_level())
        .collect();
    let high = defined.iter().filter(|&&pc| pc > 6.5).count();
    rows.push(CompRow {
        id: "Figure 5".into(),
        metric: "% of concurrent samples with P_c > 6.5".into(),
        paper: Some(94.0),
        measured: 100.0 * high as f64 / defined.len().max(1) as f64,
        note: "'greater than 94% of samples have a Mean Concurrency Level higher than 6.5'".into(),
    });

    // --- Figure 6: the 2-active dominance of transitions.
    let tnum = study.pooled_transition_counts().num;
    let transition_total: u64 = (2..8).map(|j| tnum[j]).sum();
    rows.push(CompRow {
        id: "Figure 6".into(),
        metric: "% of transition states at 2-active".into(),
        paper: Some(52.43),
        measured: 100.0 * tnum[2] as f64 / transition_total.max(1) as f64,
        note: "2-concurrency dominates the drain of concurrent loops".into(),
    });

    // --- Figure 7: CE0/CE7 trail the drain.
    let prof = study.pooled_transition_counts().prof;
    if prof.len() == 8 {
        let ends = (prof[0] + prof[7]) as f64 / 2.0;
        let middle: f64 = (1..7).map(|j| prof[j] as f64).sum::<f64>() / 6.0;
        rows.push(CompRow {
            id: "Figure 7".into(),
            metric: "transition activity, ends/middle CE ratio".into(),
            paper: None,
            measured: ends / middle.max(1.0),
            note: "qualitative in the thesis: CEs 7 and 0 'active significantly more often'; ratio > 1 reproduces it".into(),
        });
    }

    // --- Figure 10: missrate medians by C_w band.
    let hw = figures::hw_samples(study);
    for (band, paper) in figures::CW_BANDS.iter().zip([0.001, 0.008, 0.023]) {
        rows.push(CompRow {
            id: "Figure 10".into(),
            metric: format!(
                "median Missrate, C_w band ({:.1}, {:.1}]",
                band.0,
                band.1.min(1.0)
            ),
            paper: Some(paper),
            measured: band_median(&hw, *band, figures::cw_axis, Sample::missrate),
            note: "median rises steeply with C_w".into(),
        });
    }

    // --- Figure 11: missrate medians by P_c band (flat).
    for (band, paper) in figures::PC_BANDS.iter().zip([0.004, 0.017, 0.017]) {
        rows.push(CompRow {
            id: "Figure 11".into(),
            metric: format!(
                "median Missrate, P_c band ({:.1}, {:.1}]",
                band.0,
                band.1.min(8.0)
            ),
            paper: Some(paper),
            measured: band_median(&hw, *band, Sample::mean_concurrency_level, Sample::missrate),
            note: "little sensitivity to P_c between the upper bands".into(),
        });
    }

    // --- Tables 3/4: model quality and predictions.
    let t3 = tables::table3(study);
    let t4 = tables::table4(study);
    if let Some(miss) = t3.model("Median Miss Rate") {
        rows.push(CompRow {
            id: "Table 3".into(),
            metric: "R^2, Missrate vs C_w".into(),
            paper: Some(0.74),
            measured: miss.r2,
            note: "moderately strong fit".into(),
        });
        rows.push(CompRow {
            id: "Figure 12".into(),
            metric: "model Missrate at C_w = 0.5".into(),
            paper: Some(0.007),
            measured: miss.predict(0.5),
            note: "the 300% headline: 0.007 -> 0.024 as C_w doubles".into(),
        });
        rows.push(CompRow {
            id: "Figure 12".into(),
            metric: "model Missrate at C_w = 1.0".into(),
            paper: Some(0.024),
            measured: miss.predict(1.0),
            note: "the 300% headline: 0.007 -> 0.024 as C_w doubles".into(),
        });
        rows.push(CompRow {
            id: "Figure 12".into(),
            metric: "Missrate ratio, C_w 1.0 / 0.5".into(),
            paper: Some(0.024 / 0.007),
            measured: miss.predict(1.0) / miss.predict(0.5).max(1e-9),
            note: "'greater than triple increase'".into(),
        });
    }
    if let Some(busy) = t3.model("Median CE Bus Busy") {
        rows.push(CompRow {
            id: "Table 3".into(),
            metric: "R^2, CE Bus Busy vs C_w".into(),
            paper: Some(0.89),
            measured: busy.r2,
            note: "near-linear growth with the fraction of parallel code".into(),
        });
        rows.push(CompRow {
            id: "Figure 13".into(),
            metric: "model CE Bus Busy at C_w = 1.0".into(),
            paper: Some(0.34),
            measured: busy.predict(1.0),
            note: "Figure 13 tops out near 0.33".into(),
        });
    }
    if let Some(pfr) = t3.model("Median Page Fault Rate") {
        rows.push(CompRow {
            id: "Table 3".into(),
            metric: "R^2, Page Fault Rate vs C_w".into(),
            paper: Some(0.65),
            measured: pfr.r2,
            note: "concave growth with C_w".into(),
        });
    }
    if let Some(miss4) = t4.model("Median Miss Rate") {
        rows.push(CompRow {
            id: "Table 4".into(),
            metric: "R^2, Missrate vs P_c".into(),
            paper: Some(0.07),
            measured: miss4.r2,
            note: "the key negative result: Missrate barely depends on P_c".into(),
        });
    }
    if let Some(busy4) = t4.model("Median CE Bus Busy") {
        rows.push(CompRow {
            id: "Table 4".into(),
            metric: "R^2, CE Bus Busy vs P_c".into(),
            paper: Some(0.66),
            measured: busy4.r2,
            note: "busy grows with P_c but saturates".into(),
        });
        rows.push(CompRow {
            id: "Figure 14".into(),
            metric: "CE Bus Busy saturation: model(8) - model(6)".into(),
            paper: Some(0.03),
            measured: busy4.predict(8.0) - busy4.predict(6.0),
            note: "'relatively constant bus activity after P_c = 6.0'".into(),
        });
    }
    if let Some(pfr4) = t4.model("Median Page Fault Rate") {
        rows.push(CompRow {
            id: "Table 4".into(),
            metric: "R^2, Page Fault Rate vs P_c".into(),
            paper: Some(0.61),
            measured: pfr4.r2,
            note: "moderate".into(),
        });
    }
    rows
}

/// Render the comparison as a markdown table (EXPERIMENTS.md body).
pub fn render_comparison(rows: &[CompRow]) -> String {
    let mut s = String::new();
    s.push_str("| id | metric | paper | measured | note |\n");
    s.push_str("|---|---|---:|---:|---|\n");
    for r in rows {
        let paper = r
            .paper
            .map_or("(qualitative)".into(), |p| format!("{p:.4}"));
        let _ = writeln!(
            s,
            "| {} | {} | {} | {:.4} | {} |",
            r.id, r.metric, paper, r.measured, r.note
        );
    }
    s
}

/// Renders one section for a study; `None` when the study has no data
/// for it (the per-session figures of a study without random sessions).
pub type SectionRender = fn(&Study) -> Option<String>;

/// Every table and figure of the evaluation, in report order: the ID
/// `reproduce run` accepts (matched case-insensitively) and its renderer.
/// The one list behind both [`render_full_report`] and the CLI.
pub const SECTIONS: &[(&str, SectionRender)] = &[
    ("table1", |_| Some(tables::table1())),
    ("table2", |s| Some(tables::table2(s).render())),
    ("table3", |s| Some(tables::table3(s).render())),
    ("table4", |s| Some(tables::table4(s).render())),
    ("tableA1", |s| {
        Some(tables::render_table_a1(&tables::table_a1(s)))
    }),
    ("fig3", |s| Some(figures::fig3(s))),
    ("fig4", |s| Some(figures::fig4(s))),
    ("fig5", |s| Some(figures::fig5(s))),
    ("fig6", |s| Some(figures::fig6(s))),
    ("fig7", |s| Some(figures::fig7(s))),
    ("fig8", |s| Some(figures::fig8(s))),
    ("fig9", |s| Some(figures::fig9(s))),
    ("fig10", |s| Some(figures::fig10(s))),
    ("fig11", |s| Some(figures::fig11(s))),
    ("fig12", |s| Some(figures::fig12(s))),
    ("fig13", |s| Some(figures::fig13(s))),
    ("fig14", |s| Some(figures::fig14(s))),
    ("figA1", |s| {
        (!s.random_sessions.is_empty()).then(|| figures::fig_a1_a2(s, 0))
    }),
    ("figA2", |s| {
        let last = s.random_sessions.len().checked_sub(1)?;
        Some(figures::fig_a1_a2(s, last))
    }),
    ("figA3", |s| Some(figures::fig_a3(s))),
    ("figA4", |s| Some(figures::fig_a4(s))),
    ("figA5", |s| Some(figures::fig_a5(s))),
    ("figB1", |s| Some(figures::fig_b1(s))),
    ("figB2", |s| Some(figures::fig_b2(s))),
    ("figB3", |s| Some(figures::fig_b3(s))),
    ("figB4", |s| Some(figures::fig_b4(s))),
    ("figB5", |s| Some(figures::fig_b5(s))),
    ("figB6", |s| Some(figures::fig_b6(s))),
    ("figB7", |s| Some(figures::fig_b7(s))),
    ("figB8", |s| Some(figures::fig_b8(s))),
    ("figB9", |s| Some(figures::fig_b9(s))),
    ("figB10", |s| Some(figures::fig_b10(s))),
];

/// Regenerate every table and figure as one document.
pub fn render_full_report(study: &Study) -> String {
    let mut s = String::new();
    for block in SECTIONS.iter().filter_map(|(_, render)| render(study)) {
        s.push_str(&block);
        s.push('\n');
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;
    use fx8_workload::WorkloadMix;

    fn mini_study() -> Study {
        // Four random sessions, not two: the comparison's regression rows
        // need samples in at least three distinct C_w bins, and two
        // five-minute samples can land in as few as one.
        let cfg = StudyConfig {
            n_random: 4,
            session_hours: vec![0.15, 0.15, 0.15, 0.15],
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
    }

    #[test]
    fn comparison_covers_the_headline_claims() {
        let study = mini_study();
        let rows = comparison(&study);
        let ids: Vec<&str> = rows.iter().map(|r| r.id.as_str()).collect();
        for id in [
            "Table 2",
            "Figure 4",
            "Figure 5",
            "Figure 6",
            "Figure 10",
            "Figure 11",
        ] {
            assert!(ids.contains(&id), "missing {id}");
        }
        assert!(rows.len() >= 15);
    }

    #[test]
    fn comparison_renders_as_markdown() {
        let study = mini_study();
        let rows = comparison(&study);
        let md = render_comparison(&rows);
        assert!(md.starts_with("| id |"));
        assert_eq!(md.lines().count(), rows.len() + 2);
    }

    #[test]
    fn section_ids_are_unique_and_cover_the_evaluation() {
        let ids: Vec<String> = SECTIONS
            .iter()
            .map(|(id, _)| id.to_ascii_lowercase())
            .collect();
        let unique: std::collections::BTreeSet<&String> = ids.iter().collect();
        assert_eq!(unique.len(), ids.len(), "IDs must be unique ignoring case");
        // Tables 1-4 and A.1, Figures 3-14, A.1-A.5 and B.1-B.10.
        assert_eq!(SECTIONS.len(), 5 + 12 + 5 + 10);
    }

    #[test]
    fn full_report_contains_every_table_and_figure() {
        let study = mini_study();
        let r = render_full_report(&study);
        for needle in [
            "TABLE 1",
            "TABLE 2",
            "Regression Models: System Measure vs. C_w",
            "Regression Models: System Measure vs. P_c",
            "Table A.1",
            "All Sessions",
            "Figure 4",
            "Figure 5",
            "Transition",
            "Figure 8",
            "Figure 10 (a)",
            "Figure 11 (c)",
            "Figure B.3 (b)",
            "Figure B.7 (a)",
        ] {
            assert!(r.contains(needle), "report missing {needle}");
        }
    }
}
