//! The scaling study the measured machine could not run.
//!
//! The thesis measured concurrency on the one cluster that existed — an
//! 8-CE FX/8 — and could only speculate how its measures move with
//! cluster width. With the width-generic machine model
//! ([`MachineConfig::scaled`]) the same study protocol runs at any width
//! up to the full lane word, so this module sweeps it: one complete
//! [`Study`] per width, each reduced to a single point on the
//! C_w / P_c / Missrate / bus-utilization curves. Every width shares the
//! workload mix, session plan, and base seed, so the curves isolate the
//! machine's width from everything else.

use crate::api::{ApiError, RunHooks};
use crate::cache::SessionCache;
use crate::observability::StudyObservability;
use crate::study::{run_sessions, Study, StudyConfig};
use fx8_sim::{ConfigError, MachineConfig};
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// Widths the sweep visits by default: the measured machine (8) bracketed
/// by halvings and doublings out to the full `LaneWord`.
pub const DEFAULT_WIDTHS: [usize; 6] = [2, 4, 8, 16, 32, 64];

/// Configuration of a width sweep: the per-width study template plus the
/// widths to visit. The template's `machine` field is replaced by
/// [`MachineConfig::scaled`] at each width.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleConfig {
    /// Study template every width runs (mix, session plan, seed).
    pub base: StudyConfig,
    /// Cluster widths to sweep, in curve order.
    pub widths: Vec<usize>,
}

impl ScaleConfig {
    /// The sweep at paper session scale — hours of machine time per width.
    pub fn paper() -> Self {
        ScaleConfig {
            base: StudyConfig::paper(),
            widths: DEFAULT_WIDTHS.to_vec(),
        }
    }

    /// The sweep at quick scale (minutes of machine time per width):
    /// coarse but complete curves, suitable for smoke tests.
    pub fn quick() -> Self {
        ScaleConfig {
            base: StudyConfig::quick(),
            widths: DEFAULT_WIDTHS.to_vec(),
        }
    }

    /// Validate the template at every requested width before any session
    /// runs, so a bad width fails fast instead of hours in.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.widths.is_empty() {
            return Err(ConfigError::out_of_range(
                "widths",
                "[]",
                "expected at least one cluster width",
            ));
        }
        for &w in &self.widths {
            self.study_for_width(w).validate()?;
        }
        Ok(())
    }

    /// The complete per-width study configuration.
    fn study_for_width(&self, width: usize) -> StudyConfig {
        StudyConfig {
            machine: MachineConfig::scaled(width),
            ..self.base.clone()
        }
    }
}

/// One point on the scaling curves: a full study's pooled measures at one
/// cluster width.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScalePoint {
    /// Cluster width the study ran at.
    pub n_ces: usize,
    /// Workload Concurrency `C_w` (eq. 4.2) pooled over random sessions.
    pub c_w: f64,
    /// Mean Concurrency Level `P_c` (eq. 4.4); `None` when no concurrency
    /// was observed at this width.
    pub p_c: Option<f64>,
    /// Cache missrate: memory-bus `Fetch` starts per record.
    pub missrate: f64,
    /// Memory-bus utilization (non-idle fraction of records).
    pub mem_bus_busy: f64,
    /// CE-bus utilization averaged over this width's buses.
    pub ce_bus_busy: f64,
    /// Records behind the point.
    pub records: u64,
}

impl ScalePoint {
    fn from_study(n_ces: usize, study: &Study) -> Self {
        let m = study.overall_measures();
        let counts = study.pooled_counts();
        ScalePoint {
            n_ces,
            c_w: m.workload_concurrency,
            p_c: m.mean_concurrency_level,
            missrate: counts.missrate(),
            mem_bus_busy: counts.mem_bus_busy(),
            ce_bus_busy: counts.ce_bus_busy(),
            records: m.total_records,
        }
    }
}

/// The finished sweep: one [`ScalePoint`] per requested width.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScaleStudy {
    /// Points in the configured width order.
    pub points: Vec<ScalePoint>,
}

impl ScaleStudy {
    /// Run the sweep: a complete [`Study`] per width, widths in order, as
    /// an *incremental* fan-out. Every width's session tasks are flattened
    /// into one longest-first pool (so widths overlap on the host instead
    /// of running one study at a time), and each task consults the result
    /// cache before stepping. Re-running a sweep with one added width
    /// therefore recomputes only that width's sessions — every
    /// previously-computed (width, session) point loads. `hooks` work as
    /// in [`Study::run`] across the whole pool; progress labels carry the
    /// width (`"w16 random 0"`), and so do the slices of the returned
    /// observability, whose wall clock and cache counters cover the whole
    /// sweep. A bad width fails validation before any session runs.
    pub fn run(
        cfg: &ScaleConfig,
        cache: Option<&SessionCache>,
        hooks: &RunHooks<'_>,
    ) -> Result<(ScaleStudy, StudyObservability), ApiError> {
        cfg.validate()?;
        let studies: Vec<StudyConfig> =
            cfg.widths.iter().map(|&w| cfg.study_for_width(w)).collect();
        let tasks: Vec<_> = studies
            .iter()
            .flat_map(StudyConfig::session_tasks)
            .collect();
        let (data, observability) = run_sessions(
            &tasks,
            |t| format!("w{} {}", t.cfg.machine.n_ces, t.label()),
            cfg.base.parallel,
            cache,
            hooks,
        )?;
        // Outputs come back in task order, which enumerates widths in
        // order with the same session plan at every width.
        let per_width = tasks.len() / studies.len();
        let mut outputs = tasks.iter().zip(data);
        let points = studies
            .into_iter()
            .map(|sc| {
                let study = Study::assemble(sc, outputs.by_ref().take(per_width));
                ScalePoint::from_study(study.config.machine.n_ces, &study)
            })
            .collect();
        Ok((ScaleStudy { points }, observability))
    }

    /// Render the curves as a text table plus an ASCII C_w curve — the
    /// scaling analogue of the thesis's Table 2.
    pub fn render(&self) -> String {
        let mut s = String::new();
        s.push_str("SCALING STUDY. Concurrency measures vs cluster width.\n");
        s.push_str("  width       C_w       P_c  Missrate  MemBusBusy  CEBusBusy    records\n");
        for p in &self.points {
            let pc = match p.p_c {
                Some(pc) => format!("{pc:>9.2}"),
                None => format!("{:>9}", "—"),
            };
            let _ = writeln!(
                s,
                "  {:>5}  {:>8.4}  {pc}  {:>8.4}  {:>10.4}  {:>9.4}  {:>9}",
                p.n_ces, p.c_w, p.missrate, p.mem_bus_busy, p.ce_bus_busy, p.records
            );
        }
        s.push_str("\n  C_w curve (fraction of records concurrent):\n");
        for p in &self.points {
            let bar = "#".repeat((p.c_w.clamp(0.0, 1.0) * 40.0).round() as usize);
            let _ = writeln!(s, "  {:>5} |{bar:<40}| {:.4}", p.n_ces, p.c_w);
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate_at_every_default_width() {
        assert!(ScaleConfig::quick().validate().is_ok());
        assert!(ScaleConfig::paper().validate().is_ok());
    }

    #[test]
    fn empty_width_list_is_rejected() {
        let mut cfg = ScaleConfig::quick();
        cfg.widths.clear();
        assert_eq!(cfg.validate().unwrap_err().field(), "widths");
    }

    #[test]
    fn invalid_width_fails_before_any_session_runs() {
        let mut cfg = ScaleConfig::quick();
        cfg.widths = vec![8, 65];
        assert!(cfg.validate().is_err());
        let err = ScaleStudy::run(&cfg, None, &RunHooks::default()).unwrap_err();
        assert_eq!(err.code, "config/range-n-ces");
    }

    /// A two-point micro sweep end to end: points come back in width
    /// order, carry that width's record pool, and render as curves.
    #[test]
    fn micro_sweep_produces_ordered_finite_points() {
        let mut cfg = ScaleConfig::quick();
        cfg.base.n_random = 1;
        cfg.base.session_hours = vec![0.02];
        cfg.base.n_triggered = 0;
        cfg.base.n_transition = 0;
        cfg.widths = vec![2, 16];
        let (s, obs) = ScaleStudy::run(&cfg, None, &RunHooks::default()).unwrap();
        // One observability slice per session, labeled with its width.
        let labels: Vec<&str> = obs.sessions.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(labels, ["w2 random 0", "w16 random 0"]);
        assert_eq!(s.points.len(), 2);
        assert_eq!(s.points[0].n_ces, 2);
        assert_eq!(s.points[1].n_ces, 16);
        for p in &s.points {
            assert!(p.records > 0, "width {} captured no records", p.n_ces);
            assert!(p.c_w.is_finite() && (0.0..=1.0).contains(&p.c_w));
            assert!(p.missrate.is_finite());
            assert!(p.ce_bus_busy.is_finite());
        }
        let txt = s.render();
        assert!(txt.contains("SCALING STUDY"));
        assert!(txt.contains("C_w curve"));
        // JSON round-trip for the report file the CLI writes.
        let json = serde_json::to_string(&s).unwrap();
        let back: ScaleStudy = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }
}
