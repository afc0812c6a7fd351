//! `disk_warm`: a re-run of `reproduce run` against a populated disk
//! cache.
//!
//! Set-up runs the paper study cold into an empty directory, as a first
//! `reproduce run` does (`cold_study`). Each op then opens a fresh
//! `SessionCache::at_dir` (nothing in memory), runs `api::execute`, which
//! decodes every session from disk, renders the full report and
//! serializes the result. No HTTP, no simulation: cache reads, serde and
//! analysis are the cost of the op, and simulation the cost of set-up.

use crate::checks::{self, Expected};
use crate::cold_study::{self, ColdRun};
use crate::host_speed::{HostSpeed, PHASE_BURSTS, WINDOW};
use crate::plan::Plan;
use crate::report::{Outcome, COVERAGE_TOLERANCE};
use crate::stats::{median, ms, quantile, tail_is_resolved};
use fx8_core::api::{self, JobRequest, JobResult};
use fx8_core::cache::{CacheStats, SessionCache};
use fx8_core::report as study_report;
use fx8_core::study::Study;
use fx8_core::{figures, tables};
use std::path::Path;
use std::time::Instant;

/// One warm re-run's output.
pub struct Rerun {
    /// The fresh cache's counters after the run.
    pub stats: CacheStats,
    /// Serialized `JobResult`.
    pub result_json: String,
    /// `render_full_report` of the study.
    pub report: String,
}

/// Run `req` cold into an emptied `dir`, returning what every warm
/// re-run must reproduce and the cold study itself.
pub fn populate(req: &JobRequest, dir: &Path) -> Result<(Expected, ColdRun), String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("cache dir: {e}"))?;
    let cold = cold_study::run(req, dir)?;
    let expected = Expected {
        result_json: cold.result_json.clone(),
        report: study_report::render_full_report(&cold.study),
        sessions: cold.obs.cache.lookups(),
    };
    Ok((expected, cold))
}

/// One op: fresh cache over `dir`, execute, render, serialize.
pub fn rerun(req: &JobRequest, dir: &Path) -> Result<Rerun, String> {
    let cache = SessionCache::at_dir(dir);
    let out = api::execute(req, Some(&cache)).map_err(|e| e.to_string())?;
    let report = study_report::render_full_report(study_of(&out.result)?);
    let result_json = serde_json::to_string(&out.result).map_err(|e| e.to_string())?;
    Ok(Rerun {
        stats: cache.stats(),
        result_json,
        report,
    })
}

fn study_of(result: &JobResult) -> Result<&Study, String> {
    match result {
        JobResult::Study { study, .. } => Ok(study),
        _ => Err("a study request returned a non-study result".into()),
    }
}

/// Per-call times of one traced op, in ms.
struct Traced {
    /// The fresh cache's counters after the op.
    stats: CacheStats,
    /// The traced op, start to end.
    op: f64,
    /// `api::execute` on the fresh cache (reads every entry from disk).
    execute_fresh: f64,
    /// `api::execute` again on the same cache, now warm in memory.
    execute_warm: f64,
    comparison: f64,
    tables: f64,
    figures: f64,
    serialize: f64,
    parse: f64,
}

/// The op with each call timed. The report is rendered by
/// `render_full_report` inside the op; its tables and figures are timed
/// again one call at a time after the op, so the layer sum is a claim the
/// untraced op time can refute.
fn traced_rerun(req: &JobRequest, wire: &str, dir: &Path) -> Result<(Rerun, Traced), String> {
    let t0 = Instant::now();
    let cache = SessionCache::at_dir(dir);
    let t = Instant::now();
    let out = api::execute(req, Some(&cache)).map_err(|e| e.to_string())?;
    let execute_fresh = ms(t.elapsed());
    let stats = cache.stats();
    let study = study_of(&out.result)?;
    let report = study_report::render_full_report(study);
    let t = Instant::now();
    let result_json = serde_json::to_string(&out.result).map_err(|e| e.to_string())?;
    let serialize = ms(t.elapsed());
    let op = ms(t0.elapsed());

    let t = Instant::now();
    std::hint::black_box(api::execute(req, Some(&cache)).map_err(|e| e.to_string())?);
    let execute_warm = ms(t.elapsed());
    let t = Instant::now();
    std::hint::black_box(study_report::comparison(study));
    let comparison = ms(t.elapsed());
    let t = Instant::now();
    std::hint::black_box(render_tables(study));
    let tables = ms(t.elapsed());
    let t = Instant::now();
    std::hint::black_box(render_figures(study));
    let figures = ms(t.elapsed());
    let t = Instant::now();
    let parsed = JobRequest::from_json(wire).and_then(|r| r.validate().map(|()| r));
    std::hint::black_box(parsed.is_ok());
    let parse = ms(t.elapsed());
    Ok((
        Rerun {
            stats,
            result_json,
            report,
        },
        Traced {
            stats,
            op,
            execute_fresh,
            execute_warm,
            comparison,
            tables,
            figures,
            serialize,
            parse,
        },
    ))
}

/// Median of a cache counter over the traced ops.
fn m_stats(traced: &[Traced], f: fn(&CacheStats) -> u64) -> f64 {
    median(
        &traced
            .iter()
            .map(|t| f(&t.stats) as f64)
            .collect::<Vec<_>>(),
    )
}

/// Every table `render_full_report` renders.
fn render_tables(s: &Study) -> usize {
    [
        tables::table1(),
        tables::table2(s).render(),
        tables::table3(s).render(),
        tables::table4(s).render(),
        tables::render_table_a1(&tables::table_a1(s)),
    ]
    .iter()
    .map(String::len)
    .sum()
}

/// Every figure `render_full_report` renders.
fn render_figures(s: &Study) -> usize {
    let mut blocks = vec![
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
    ];
    if !s.random_sessions.is_empty() {
        blocks.push(figures::fig_a1_a2(s, 0));
        blocks.push(figures::fig_a1_a2(s, s.random_sessions.len() - 1));
    }
    blocks.extend([
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
    ]);
    blocks.iter().map(String::len).sum()
}

/// Run the workload.
pub fn run(plan: &Plan, work: &Path, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let req = JobRequest::study(plan.study.clone());
    let dir = work.join("cache");
    // Set-up is `populates` cold paper studies, each into an emptied
    // directory; `setup_s` is their median at the reference speed, from
    // reference bursts before, between and after them. The ops re-run the
    // last.
    let mut setup_host = HostSpeed::default();
    let mut setups = Vec::new();
    let mut cold_layers = Vec::new();
    let mut setup_ok = true;
    let mut expected: Option<Expected> = None;
    for _ in 0..plan.populates.max(1) {
        setup_host.bursts(PHASE_BURSTS);
        let t = Instant::now();
        let (exp, cold) = populate(&req, &dir)?;
        setups.push(t.elapsed().as_secs_f64());
        let mut failed = cold_study::check(plan, &cold);
        if expected
            .as_ref()
            .is_some_and(|e| e.result_json != exp.result_json)
        {
            failed = Some("a second cold study gave other result bytes".into());
        }
        if let Some(why) = failed {
            out.note(format!("CHECK FAILED disk_warm set-up: {why}"));
            setup_ok = false;
        }
        out.note(format!(
            "disk_warm set-up: base_seed {} | cold paper study {:.3} s | sim.cycles_total {} | {} sessions | digest {}",
            cold.study.config.base_seed,
            cold.execute.as_secs_f64(),
            cold.obs.total_cycles(),
            cold.obs.sessions.len(),
            checks::digest(cold.result_json.as_bytes()),
        ));
        if trace {
            cold_layers.push(cold_study::layers(&cold, &dir)?);
        }
        expected = Some(exp);
    }
    setup_host.bursts(PHASE_BURSTS);
    let expected = expected.ok_or("no set-up ran")?;
    let setup_raw = median(&setups);
    out.set("setup_s", setup_raw / setup_host.slowdown());
    out.note(setup_host.describe("set-up"));
    let wire = serde_json::to_string(&req).map_err(|e| e.to_string())?;

    let mut plain = Vec::new();
    let mut traced = Vec::new();
    let mut host = HostSpeed::default();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < plan.seconds || plain.is_empty() {
        host.burst();
        let window = Instant::now();
        while window.elapsed() < WINDOW {
            // The traced run alternates untraced and traced ops, so drift
            // hits both alike.
            let t = Instant::now();
            let r = rerun(&req, &dir)?;
            plain.push(ms(t.elapsed()));
            let ok =
                setup_ok && checks::warm_rerun_ok(&expected, &r.stats, &r.result_json, &r.report);
            out.count_op(ok);
            if !ok {
                out.note(format!(
                    "CHECK FAILED disk_warm: op {} ({} hits, {} misses, {} invalid)",
                    out.attempted, r.stats.hits, r.stats.misses, r.stats.invalid_entries
                ));
            }
            if trace {
                let (r, tr) = traced_rerun(&req, &wire, &dir)?;
                let ok = setup_ok
                    && checks::warm_rerun_ok(&expected, &r.stats, &r.result_json, &r.report);
                out.count_op(ok);
                traced.push(tr);
            }
        }
    }
    // Ops ran in the wall time the bursts left them.
    let wall = (started.elapsed() - host.spent()).as_secs_f64();
    let p50 = median(&plain);
    let slowdown = host.slowdown();
    out.set("p50_ms", p50 / slowdown);
    out.note(host.describe("timed phase"));
    out.note(format!(
        "disk_warm: base_seed {} | {} ops in {wall:.3} s | raw: setup_s {setup_raw:.3}, ops_per_s {:.3}, p50_ms {p50:.3}, p90_ms {} | result {} B, report {} B",
        plan.study.base_seed,
        out.attempted,
        out.attempted as f64 / wall,
        if tail_is_resolved(plain.len(), 0.9) {
            format!("{:.3}", quantile(&plain, 0.9))
        } else {
            "unresolved (fewer than 100 ops)".to_string()
        },
        expected.result_json.len(),
        expected.report.len(),
    ));
    if trace {
        // The cold studies' layers; their own layer sum is a note, since
        // `trace.coverage` and `trace.overhead` belong to the timed op.
        let mut cold = cold_study::median_layers(&cold_layers);
        let (coverage, overhead) = (
            cold.remove("trace.coverage").unwrap_or(0.0),
            cold.remove("trace.overhead").unwrap_or(0.0),
        );
        out.note(format!(
            "disk_warm set-up: cold study trace.coverage {coverage:.4} (session span / execute), trace.overhead {overhead:.6}"
        ));
        if (coverage - 1.0).abs() > COVERAGE_TOLERANCE {
            out.note(format!(
                "FLAG disk_warm set-up: trace.coverage {coverage:.3} is outside 1 ± {COVERAGE_TOLERANCE}"
            ));
        }
        out.values.extend(cold);
        out.set("host.slowdown", slowdown);
        let m = |f: fn(&Traced) -> f64| median(&traced.iter().map(f).collect::<Vec<_>>());
        let (fresh, warm) = (m(|t| t.execute_fresh), m(|t| t.execute_warm));
        let (tables, figs, ser) = (m(|t| t.tables), m(|t| t.figures), m(|t| t.serialize));
        let per_op = |f: fn(&CacheStats) -> u64| m_stats(&traced, f);
        out.set("cache.hits", per_op(|s| s.hits));
        out.set("cache.misses", per_op(|s| s.misses));
        out.set("cache.invalid", per_op(|s| s.invalid_entries));
        out.set(
            "cache.hit_frac",
            median(
                &traced
                    .iter()
                    .map(|t| t.stats.hit_rate())
                    .collect::<Vec<_>>(),
            ),
        );
        out.set("cache.disk_read_ms", fresh - warm);
        out.set("core.execute_warm_ms", warm);
        out.set("api.parse_ms", m(|t| t.parse));
        out.set("analysis.comparison_ms", m(|t| t.comparison));
        out.set("analysis.tables_ms", tables);
        out.set("analysis.figures_ms", figs);
        out.set("analysis.report_bytes", expected.report.len() as f64);
        out.set("serialize.result_ms", ser);
        out.set("serialize.result_bytes", expected.result_json.len() as f64);
        out.set("op.samples", plain.len() as f64);
        if tail_is_resolved(plain.len(), 0.9) {
            out.set("op.p90_ms", quantile(&plain, 0.9));
        }
        out.set("trace.coverage", (fresh + tables + figs + ser) / p50);
        out.set("trace.overhead", m(|t| t.op) / p50);
    }
    Ok(out)
}
