//! The full report and the paper-vs-measured comparison.
//!
//! [`render_full_report`] regenerates every table and figure as one text
//! document; [`comparison`] extracts the quantitative claims of the thesis
//! and pairs each with the value measured by this reproduction — the data
//! behind EXPERIMENTS.md. Reproduction targets *shape*, not absolute
//! numbers: the substrate is a simulator, not the CSRD machine.

use crate::analysis::{Analysis, Axis, Measure};
use crate::figures;
use crate::study::Study;
use crate::tables;
use fx8_stats::summary::median;
use fx8_stats::text::push_fixed;
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

/// Extract every quantitative claim and its measured counterpart.
pub fn comparison(study: &Study) -> Vec<CompRow> {
    let a = Analysis::new(study);
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
    let samples = a.random();
    let zero = samples.iter().filter(|p| p.cw == 0.0).count();
    rows.push(CompRow {
        id: "Figure 4".into(),
        metric: "% of samples with C_w = 0".into(),
        paper: Some(44.62),
        measured: 100.0 * zero as f64 / samples.len().max(1) as f64,
        note: "44.62% of 5-minute samples saw no concurrency".into(),
    });

    // --- Figure 5: concentration of P_c near full concurrency.
    let defined: Vec<f64> = samples.iter().filter_map(|p| p.pc).collect();
    let high = defined.iter().filter(|&&pc| pc > 6.5).count();
    rows.push(CompRow {
        id: "Figure 5".into(),
        metric: "% of concurrent samples with P_c > 6.5".into(),
        paper: Some(94.0),
        measured: 100.0 * high as f64 / defined.len().max(1) as f64,
        note: "'greater than 94% of samples have a Mean Concurrency Level higher than 6.5'".into(),
    });

    // --- Figure 6: the 2-active dominance of transitions.
    let transitions = study.pooled_transition_counts();
    let states = figures::transition_states(study);
    let tnum = &transitions.num;
    let transition_total: u64 = states.clone().map(|j| tnum[j]).sum();
    let two_active = if states.contains(&2) { tnum[2] } else { 0 };
    rows.push(CompRow {
        id: "Figure 6".into(),
        metric: "% of transition states at 2-active".into(),
        paper: Some(52.43),
        measured: 100.0 * two_active as f64 / transition_total.max(1) as f64,
        note: "2-concurrency dominates the drain of concurrent loops".into(),
    });

    // --- Figure 7: CE0/CE7 trail the drain.
    let prof = &transitions.prof;
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
    for (band, paper) in Axis::Cw.bands().iter().zip([0.001, 0.008, 0.023]) {
        rows.push(CompRow {
            id: "Figure 10".into(),
            metric: format!(
                "median Missrate, C_w band ({:.1}, {:.1}]",
                band.0,
                band.1.min(1.0)
            ),
            paper: Some(paper),
            measured: median(&a.band(Measure::MissRate, Axis::Cw, *band)).unwrap_or(f64::NAN),
            note: "median rises steeply with C_w".into(),
        });
    }

    // --- Figure 11: missrate medians by P_c band (flat).
    for (band, paper) in Axis::Pc.bands().iter().zip([0.004, 0.017, 0.017]) {
        rows.push(CompRow {
            id: "Figure 11".into(),
            metric: format!(
                "median Missrate, P_c band ({:.1}, {:.1}]",
                band.0,
                band.1.min(8.0)
            ),
            paper: Some(paper),
            measured: median(&a.band(Measure::MissRate, Axis::Pc, *band)).unwrap_or(f64::NAN),
            note: "little sensitivity to P_c between the upper bands".into(),
        });
    }

    // --- Tables 3/4: model quality and predictions.
    let model = |measure, axis| a.fit(measure, axis).as_ref().ok();
    if let Some(miss) = model(Measure::MissRate, Axis::Cw) {
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
    if let Some(busy) = model(Measure::CeBusBusy, Axis::Cw) {
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
    if let Some(pfr) = model(Measure::PageFaultRate, Axis::Cw) {
        rows.push(CompRow {
            id: "Table 3".into(),
            metric: "R^2, Page Fault Rate vs C_w".into(),
            paper: Some(0.65),
            measured: pfr.r2,
            note: "concave growth with C_w".into(),
        });
    }
    if let Some(miss4) = model(Measure::MissRate, Axis::Pc) {
        rows.push(CompRow {
            id: "Table 4".into(),
            metric: "R^2, Missrate vs P_c".into(),
            paper: Some(0.07),
            measured: miss4.r2,
            note: "the key negative result: Missrate barely depends on P_c".into(),
        });
    }
    if let Some(busy4) = model(Measure::CeBusBusy, Axis::Pc) {
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
    if let Some(pfr4) = model(Measure::PageFaultRate, Axis::Pc) {
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
        let _ = write!(s, "| {} | {} | ", r.id, r.metric);
        match r.paper {
            Some(p) => push_fixed(&mut s, p, 4),
            None => s.push_str("(qualitative)"),
        }
        s.push_str(" | ");
        push_fixed(&mut s, r.measured, 4);
        let _ = writeln!(s, " | {} |", r.note);
    }
    s
}

/// Renders one section from a study's shared [`Analysis`]; `None` when
/// the study has no data for it (the per-session figures of a study
/// without random sessions).
pub type SectionRender = fn(&Analysis) -> Option<String>;

/// Every table and figure of the evaluation, in report order: the ID
/// `reproduce run` accepts (matched case-insensitively) and its renderer.
/// The one list behind both [`render_full_report`] and the CLI.
pub const SECTIONS: &[(&str, SectionRender)] = &[
    ("table1", |_| Some(tables::table1())),
    ("table2", |a| Some(tables::table2(a.study).render())),
    ("table3", |a| {
        Some(tables::regression_table(a, Axis::Cw).render())
    }),
    ("table4", |a| {
        Some(tables::regression_table(a, Axis::Pc).render())
    }),
    ("tableA1", |a| {
        Some(tables::render_table_a1(&tables::table_a1(a.study)))
    }),
    ("fig3", |a| Some(figures::fig3(a.study))),
    ("fig4", |a| Some(figures::fig4_of(a))),
    ("fig5", |a| Some(figures::fig5_of(a))),
    ("fig6", |a| Some(figures::fig6(a.study))),
    ("fig7", |a| Some(figures::fig7(a.study))),
    ("fig8", |a| Some(figures::fig8_of(a))),
    ("fig9", |a| Some(figures::fig9_of(a))),
    ("fig10", |a| Some(figures::fig10_of(a))),
    ("fig11", |a| Some(figures::fig11_of(a))),
    ("fig12", |a| Some(figures::fig12_of(a))),
    ("fig13", |a| Some(figures::fig13_of(a))),
    ("fig14", |a| Some(figures::fig14_of(a))),
    ("figA1", |a| {
        (!a.study.random_sessions.is_empty()).then(|| figures::fig_a1_a2(a.study, 0))
    }),
    ("figA2", |a| {
        let last = a.study.random_sessions.len().checked_sub(1)?;
        Some(figures::fig_a1_a2(a.study, last))
    }),
    ("figA3", |a| Some(figures::fig_a3_of(a))),
    ("figA4", |a| Some(figures::fig_a4_of(a))),
    ("figA5", |a| Some(figures::fig_a5_of(a))),
    ("figB1", |a| Some(figures::fig_b1_of(a))),
    ("figB2", |a| Some(figures::fig_b2_of(a))),
    ("figB3", |a| Some(figures::fig_b3_of(a))),
    ("figB4", |a| Some(figures::fig_b4_of(a))),
    ("figB5", |a| Some(figures::fig_b5_of(a))),
    ("figB6", |a| Some(figures::fig_b6_of(a))),
    ("figB7", |a| Some(figures::fig_b7_of(a))),
    ("figB8", |a| Some(figures::fig_b8_of(a))),
    ("figB9", |a| Some(figures::fig_b9_of(a))),
    ("figB10", |a| Some(figures::fig_b10_of(a))),
];

/// Regenerate every table and figure as one document, all from one
/// shared [`Analysis`].
pub fn render_full_report(study: &Study) -> String {
    let a = Analysis::new(study);
    let mut s = String::new();
    for block in SECTIONS.iter().filter_map(|(_, render)| render(&a)) {
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

    /// The report's shared `Analysis` renders every section exactly as
    /// the section's own `&Study` entry point does.
    #[test]
    fn shared_sections_match_their_study_entry_points() {
        let study = mini_study();
        let s = &study;
        let last = s.random_sessions.len() - 1;
        let blocks = [
            tables::table1(),
            tables::table2(s).render(),
            tables::table3(s).render(),
            tables::table4(s).render(),
            tables::render_table_a1(&tables::table_a1(s)),
            figures::fig3(s),
            figures::fig4(s),
            figures::fig5(s),
            figures::fig6(s),
            figures::fig7(s),
            figures::fig8(s),
            figures::fig9(s),
            figures::fig10(s),
            figures::fig11(s),
            figures::fig12(s),
            figures::fig13(s),
            figures::fig14(s),
            figures::fig_a1_a2(s, 0),
            figures::fig_a1_a2(s, last),
            figures::fig_a3(s),
            figures::fig_a4(s),
            figures::fig_a5(s),
            figures::fig_b1(s),
            figures::fig_b2(s),
            figures::fig_b3(s),
            figures::fig_b4(s),
            figures::fig_b5(s),
            figures::fig_b6(s),
            figures::fig_b7(s),
            figures::fig_b8(s),
            figures::fig_b9(s),
            figures::fig_b10(s),
        ];
        assert_eq!(blocks.len(), SECTIONS.len());
        let a = Analysis::new(s);
        for ((id, render), block) in SECTIONS.iter().zip(&blocks) {
            assert_eq!(render(&a).as_ref(), Some(block), "section {id}");
        }
        let joined: String = blocks.iter().map(|b| format!("{b}\n")).collect();
        assert_eq!(render_full_report(s), joined);
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
