//! Tables 1–4 and A.1.

use crate::analysis::{Analysis, Axis, Measure};
use crate::study::Study;
use fx8_stats::freq::midpoints;
use fx8_stats::measures::{cw_pc, ConcurrencyMeasures};
use fx8_stats::regression::{FitError, QuadModel};
use fx8_stats::text::{pad_right, push_fixed, push_fixed_right, push_uint, push_uint_right};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Table 1: the hardware event counts the monitor reduces buffers to.
/// Static by construction — reproduced for completeness of the index.
pub fn table1() -> String {
    let mut s = String::new();
    s.push_str("TABLE 1. Hardware Event Counts.\n");
    s.push_str("  Name      Event\n");
    s.push_str("  num_j     number of records with j processors active\n");
    s.push_str("  prof_j    number of records with processor j active\n");
    s.push_str("  ceop_j    number of records with CE bus opcode = j\n");
    s.push_str("  membop_j  number of records with mem bus opcode = j\n");
    s
}

/// Table 2: overall concurrency measures pooled over all random sessions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2 {
    /// The pooled measures (eqns 4.1–4.4).
    pub measures: ConcurrencyMeasures,
}

/// Compute Table 2 from a study.
pub fn table2(study: &Study) -> Table2 {
    Table2 {
        measures: study.overall_measures(),
    }
}

impl Table2 {
    /// Render in the thesis's layout: `c_j` row, then conditional row.
    pub fn render(&self) -> String {
        let m = &self.measures;
        let mut s = String::new();
        s.push_str("TABLE 2. Overall Concurrency Measures for All Sessions.\n");
        s.push_str("  j:        ");
        for j in 0..m.c.len() {
            push_uint_right(&mut s, j as u64, 9);
        }
        s.push('\n');
        s.push_str("  c_j:      ");
        for &c in &m.c {
            push_fixed_right(&mut s, c, 4, 9);
        }
        s.push_str("   C_w = ");
        push_fixed(&mut s, m.workload_concurrency, 4);
        s.push('\n');
        s.push_str("  c_j|c:    ");
        if m.conditional.is_empty() {
            s.push_str("(undefined: no concurrency observed)");
        } else {
            for &c in &m.conditional {
                push_fixed_right(&mut s, c, 4, 9);
            }
            match m.mean_concurrency_level {
                Some(pc) => {
                    s.push_str("   P_c = ");
                    push_fixed(&mut s, pc, 2);
                }
                None => s.push_str("   P_c undefined"),
            }
        }
        s.push('\n');
        s.push_str("  total records: ");
        push_uint(&mut s, m.total_records);
        s.push('\n');
        s
    }
}

/// One fitted model row of Tables 3/4.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ModelRow {
    /// System measure name.
    pub measure: String,
    /// The fit (or why it degenerated).
    pub model: Result<QuadModel, FitError>,
}

/// A regression table (Table 3 or 4).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegressionTable {
    /// Name of the concurrency measure on the x axis.
    pub vs: String,
    /// Fitted rows.
    pub rows: Vec<ModelRow>,
}

impl RegressionTable {
    /// Fetch a row's model by measure name.
    pub fn model(&self, measure: &str) -> Option<&QuadModel> {
        self.rows
            .iter()
            .find(|r| r.measure == measure)
            .and_then(|r| r.model.as_ref().ok())
    }

    /// Render in the thesis's layout.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let _ = writeln!(s, "Regression Models: System Measure vs. {}", self.vs);
        s.push_str("  ");
        pad_right(&mut s, "System Measure", 26);
        s.push_str("           B1           B2            C    R^2\n");
        for row in &self.rows {
            s.push_str("  ");
            pad_right(&mut s, &row.measure, 26);
            match &row.model {
                Ok(m) => {
                    let _ = write!(s, " {:>12.3e} {:>12.3e} {:>12.3e} ", m.b1, m.b2, m.c);
                    push_fixed_right(&mut s, m.r2, 2, 6);
                    s.push('\n');
                }
                Err(e) => {
                    let _ = writeln!(s, " (no fit: {e})");
                }
            }
        }
        s
    }
}

/// Midpoints the thesis used for `C_w` (0.0, 0.1, ..., 1.0).
pub fn cw_midpoints() -> Vec<f64> {
    midpoints(0.0, 0.1, 11)
}

/// Midpoints the thesis used for `P_c` (2.0, 3.0, ..., 8.0).
pub fn pc_midpoints() -> Vec<f64> {
    midpoints(2.0, 1.0, 7)
}

/// A regression table: the three § 5.2 models against `axis`.
pub(crate) fn regression_table(a: &Analysis, axis: Axis) -> RegressionTable {
    RegressionTable {
        vs: axis.symbol().into(),
        rows: Measure::ALL
            .map(|m| ModelRow {
                measure: m.name().into(),
                model: a.fit(m, axis).clone(),
            })
            .to_vec(),
    }
}

/// Table 3: median regression models vs Workload Concurrency.
pub fn table3(study: &Study) -> RegressionTable {
    regression_table(&Analysis::new(study), Axis::Cw)
}

/// Table 4: median regression models vs Mean Concurrency Level.
pub fn table4(study: &Study) -> RegressionTable {
    regression_table(&Analysis::new(study), Axis::Pc)
}

/// One row of Table A.1: a session's mean concurrency measures.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionMeans {
    /// Session index.
    pub session: usize,
    /// Session-pooled Workload Concurrency.
    pub cw: f64,
    /// Session-pooled Mean Concurrency Level (None if never concurrent).
    pub pc: Option<f64>,
    /// Samples in the session.
    pub samples: usize,
}

/// Table A.1: per-session concurrency measures.
pub fn table_a1(study: &Study) -> Vec<SessionMeans> {
    study
        .random_sessions
        .iter()
        .map(|s| {
            let (cw, pc) = cw_pc(&s.pooled_num());
            SessionMeans {
                session: s.session,
                cw,
                pc,
                samples: s.samples.len(),
            }
        })
        .collect()
}

/// Render Table A.1.
pub fn render_table_a1(rows: &[SessionMeans]) -> String {
    let mut s = String::new();
    s.push_str("Table A.1. Mean Concurrency Measures for Random Samples.\n");
    s.push_str("   SESSION        C_w        P_c   SAMPLES\n");
    for r in rows {
        s.push_str("  ");
        push_uint_right(&mut s, r.session as u64 + 1, 8);
        s.push(' ');
        push_fixed_right(&mut s, r.cw, 4, 10);
        s.push(' ');
        match r.pc {
            Some(p) => push_fixed_right(&mut s, p, 2, 10),
            None => s.push_str("        --"),
        }
        s.push(' ');
        push_uint_right(&mut s, r.samples as u64, 9);
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
        let cfg = StudyConfig {
            n_random: 2,
            session_hours: vec![0.15, 0.15],
            n_triggered: 1,
            captures_per_triggered: 3,
            n_transition: 0,
            mix: WorkloadMix::all_concurrent(),
            ..StudyConfig::paper()
        };
        Study::run(cfg, None, &crate::api::RunHooks::default())
            .expect("uncancellable")
            .0
    }

    #[test]
    fn table1_lists_all_counts() {
        let t = table1();
        for name in ["num_j", "prof_j", "ceop_j", "membop_j"] {
            assert!(t.contains(name));
        }
    }

    #[test]
    fn table2_renders_and_is_consistent() {
        let study = mini_study();
        let t = table2(&study);
        let s = t.render();
        assert!(s.contains("C_w ="));
        assert!(s.contains("total records"));
        let sum: f64 = t.measures.c.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn regression_tables_have_three_rows_each() {
        let study = mini_study();
        for t in [table3(&study), table4(&study)] {
            assert_eq!(t.rows.len(), 3);
            let s = t.render();
            assert!(s.contains("Median Miss Rate"));
            assert!(s.contains("Median CE Bus Busy"));
            assert!(s.contains("Median Page Fault Rate"));
        }
    }

    #[test]
    fn analysis_samples_split_random_and_triggered() {
        let study = mini_study();
        let a = Analysis::new(&study);
        let samples = study.all_samples();
        assert_eq!(a.random().len(), samples.len());
        for (row, sample) in a.random().iter().zip(samples) {
            assert_eq!(*row, crate::sample::Point::from(sample));
        }
        let triggered = &a.hardware()[a.random().len()..];
        assert_eq!(
            triggered.len(),
            study.triggered.iter().map(Vec::len).sum::<usize>()
        );
        // Triggered buffers are concentrated near full concurrency and
        // carry no kernel counters.
        for t in triggered {
            assert!(t.cw > 0.5, "cw {}", t.cw);
            assert_eq!(t.faults, 0.0);
        }
        assert_eq!(a.rows(Measure::PageFaultRate), a.random());
        assert_eq!(a.rows(Measure::MissRate), a.hardware());
    }

    #[test]
    fn table_a1_has_one_row_per_session() {
        let study = mini_study();
        let rows = table_a1(&study);
        assert_eq!(rows.len(), 2);
        let s = render_table_a1(&rows);
        assert!(s.contains("SESSION"));
        assert_eq!(s.lines().count(), 2 + rows.len());
    }

    #[test]
    fn midpoints_match_the_paper() {
        assert_eq!(cw_midpoints().len(), 11);
        assert_eq!(pc_midpoints(), vec![2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]);
    }
}
