//! The complete study.
//!
//! § 3.5: nine random-sampling sessions on seven midweek days, ten
//! all-active-triggered sessions, and five transition-triggered sessions.
//! Sessions are independent measurements (different days, different
//! seeds), so the study runs them in parallel with scoped threads — the
//! results are bit-identical to a serial run.

use crate::api::{ApiError, RunHooks};
use crate::cache::{CacheStats, CachedSession, SessionCache, SessionKind};
use crate::executor;
use crate::experiment::{
    run_random_session, run_transition_session, run_triggered_session, Capture, SessionConfig,
    SessionResult,
};
use crate::observability::{SessionObservability, StudyObservability};
use crate::sample::Sample;
use fx8_monitor::EventCounts;
use fx8_sim::audit::{AuditReport, Violation};
use fx8_sim::{ConfigError, MachineConfig};
use fx8_stats::measures::ConcurrencyMeasures;
use fx8_workload::WorkloadMix;
use serde::{Deserialize, Serialize};

/// Session length used when [`StudyConfig::session_hours`] is empty: the
/// paper's typical session ("each session lasted between four and eight
/// hours"; six is the study's midpoint and modal length).
pub const DEFAULT_SESSION_HOURS: f64 = 6.0;

/// Configuration of the whole study.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StudyConfig {
    /// Machine configuration shared by all sessions.
    pub machine: MachineConfig,
    /// Workload mix shared by all sessions.
    pub mix: WorkloadMix,
    /// Number of random-sampling sessions (9 in the study).
    pub n_random: usize,
    /// Random-session lengths in hours, cycled across sessions
    /// ("each session lasted between four and eight hours").
    pub session_hours: Vec<f64>,
    /// Number of all-active-triggered sessions (10 in the study).
    pub n_triggered: usize,
    /// Buffers captured per triggered session.
    pub captures_per_triggered: usize,
    /// Number of transition-triggered sessions (5 in the study).
    pub n_transition: usize,
    /// Buffers captured per transition session.
    pub captures_per_transition: usize,
    /// Base RNG seed; session `i` uses `base_seed + i`.
    pub base_seed: u64,
    /// Run sessions on parallel threads.
    pub parallel: bool,
}

impl StudyConfig {
    /// The study at paper scale.
    pub fn paper() -> Self {
        StudyConfig {
            machine: MachineConfig::fx8(),
            mix: WorkloadMix::csrd_production(),
            n_random: 9,
            session_hours: vec![4.0, 5.0, 6.0, 8.0, 4.5, 7.0, 5.5, 6.5, 6.0],
            n_triggered: 10,
            captures_per_triggered: 40,
            n_transition: 5,
            captures_per_transition: 40,
            base_seed: 1987,
            parallel: true,
        }
    }

    /// A scaled-down study for tests and examples (minutes, not hours).
    pub fn quick() -> Self {
        StudyConfig {
            n_random: 3,
            session_hours: vec![0.35, 0.35, 0.35],
            n_triggered: 2,
            captures_per_triggered: 6,
            n_transition: 2,
            captures_per_transition: 6,
            ..StudyConfig::paper()
        }
    }

    /// Length of random session `i`: the configured hours cycled across
    /// sessions, or [`DEFAULT_SESSION_HOURS`] when none were given. An
    /// empty `session_hours` used to panic in [`Study::run`] with an
    /// index-out-of-bounds on `session_hours[0]`.
    pub fn hours_for_session(&self, i: usize) -> f64 {
        self.session_hours
            .get(i % self.session_hours.len().max(1))
            .copied()
            .unwrap_or(DEFAULT_SESSION_HOURS)
    }

    /// Reject configurations the study cannot run: every session length
    /// must be a finite non-negative number of hours, and the per-session
    /// configuration they produce must itself validate.
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (i, &h) in self.session_hours.iter().enumerate() {
            if !h.is_finite() || h < 0.0 {
                return Err(ConfigError::out_of_range(
                    "session_hours",
                    format!("{h} (index {i})"),
                    "expected a finite non-negative number of hours",
                ));
            }
        }
        self.session_cfg(0, DEFAULT_SESSION_HOURS).validate()
    }

    fn session_cfg(&self, seed_offset: u64, hours: f64) -> SessionConfig {
        SessionConfig {
            machine: self.machine.clone(),
            mix: self.mix.clone(),
            hours,
            ..SessionConfig::paper(self.base_seed + seed_offset)
        }
    }

    /// The study's full session plan, in result order: random sessions
    /// first, then triggered, then transition. This is the unit the
    /// executor schedules and the cache keys.
    pub(crate) fn session_tasks(&self) -> Vec<SessionTask> {
        let mut tasks = Vec::new();
        for i in 0..self.n_random {
            let hours = self.hours_for_session(i);
            tasks.push(SessionTask {
                kind: SessionKind::Random,
                idx: i,
                cfg: self.session_cfg(i as u64, hours),
                captures: 0,
            });
        }
        for i in 0..self.n_triggered {
            tasks.push(SessionTask {
                kind: SessionKind::Triggered,
                idx: i,
                cfg: self.session_cfg(1000 + i as u64, 1.0),
                captures: self.captures_per_triggered,
            });
        }
        for i in 0..self.n_transition {
            tasks.push(SessionTask {
                kind: SessionKind::Transition,
                idx: i,
                cfg: self.session_cfg(2000 + i as u64, 1.0),
                captures: self.captures_per_transition,
            });
        }
        tasks
    }
}

/// One schedulable session of a study: the protocol, the session's index
/// within that protocol, its full config, and (for triggered kinds) the
/// capture budget. The cache key is derived from exactly these fields.
pub(crate) struct SessionTask {
    pub(crate) kind: SessionKind,
    pub(crate) idx: usize,
    pub(crate) cfg: SessionConfig,
    pub(crate) captures: usize,
}

impl SessionTask {
    /// Estimated session cost, for longest-task-first scheduling. Random
    /// sessions simulate one 512-record buffer per snapshot; triggered
    /// and transition captures pay an extra trigger-seek on top of each
    /// buffer (transitions seek much longer for a falling edge). Only
    /// wall time depends on this estimate — results are keyed by task
    /// index and each task owns its seeds, so order never changes output.
    pub(crate) fn weight(&self) -> f64 {
        match self.kind {
            SessionKind::Random => {
                let samples = (self.cfg.hours * 3600.0 / self.cfg.sample_interval_s).max(1.0);
                samples * self.cfg.snapshots_per_sample as f64
            }
            SessionKind::Triggered => 2.0 * self.captures as f64,
            SessionKind::Transition => 4.0 * self.captures as f64,
        }
    }

    pub(crate) fn label(&self) -> String {
        self.kind.label(self.idx)
    }

    /// Run the session, consulting the cache first when one is given. A
    /// hit returns the memoized payload as stored, bit-identical to a fresh
    /// run, under an observability slice flagged `cache_hit` (empty
    /// metrics: no cycles were stepped). A miss computes, stores, and
    /// returns.
    pub(crate) fn run(
        &self,
        cache: Option<&SessionCache>,
    ) -> (CachedSession, SessionObservability) {
        let Some(cache) = cache else {
            return self.compute();
        };
        let started = std::time::Instant::now();
        let key = cache.key(self.kind, &self.cfg, self.idx, self.captures);
        if let Some(hit) = cache.lookup(&key) {
            // A payload of the other shape under an identical key can only
            // mean a fingerprint collision or a tampered store; recompute.
            if matches!(hit, CachedSession::Random { .. }) == (self.kind == SessionKind::Random) {
                return (hit, SessionObservability::cached(self.label(), started));
            }
        }
        let (data, obs) = self.compute();
        cache.store(&key, &data);
        (data, obs)
    }

    fn compute(&self) -> (CachedSession, SessionObservability) {
        let (cfg, idx) = (&self.cfg, self.idx);
        let (captures, audit, obs) = match self.kind {
            SessionKind::Random => {
                let (result, obs) = run_random_session(cfg, idx);
                return (CachedSession::Random { result }, obs);
            }
            SessionKind::Triggered => run_triggered_session(cfg, idx, self.captures),
            SessionKind::Transition => run_transition_session(cfg, idx, self.captures),
        };
        (CachedSession::Captures { captures, audit }, obs)
    }
}

/// The study's complete data set.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Study {
    /// The configuration that produced it.
    pub config: StudyConfig,
    /// Random-sampling sessions, in session order.
    pub random_sessions: Vec<SessionResult>,
    /// Per-buffer captures of the all-active-triggered sessions.
    pub triggered: Vec<Vec<Capture>>,
    /// Per-buffer captures of the transition-triggered sessions.
    pub transitions: Vec<Vec<Capture>>,
    /// Audit report of each all-active-triggered session, in session order
    /// (empty and clean unless the `audit` feature is enabled).
    pub triggered_audits: Vec<AuditReport>,
    /// Audit report of each transition-triggered session, in session order.
    pub transition_audits: Vec<AuditReport>,
}

/// Run session tasks through the longest-first pool, each consulting
/// `cache` first when one is given. Cancellation is checked before each
/// session starts (running sessions are never torn). Each finished
/// session's observability slice is relabeled `label(task)`, and `hooks`
/// hears about it under that same label. Returns the payloads and slices
/// in task order plus this run's cache-counter delta.
pub(crate) fn run_sessions(
    tasks: &[SessionTask],
    label: impl Fn(&SessionTask) -> String + Sync,
    parallel: bool,
    cache: Option<&SessionCache>,
    hooks: &RunHooks<'_>,
) -> Result<(Vec<(CachedSession, SessionObservability)>, CacheStats), ApiError> {
    let done = std::sync::atomic::AtomicUsize::new(0);
    let before = cache.map(SessionCache::stats);
    // Work queue: a pool sized to the host pulls the heaviest remaining
    // session first, so total wall time is bounded by the single heaviest
    // session instead of by thread oversubscription. A cancelled session
    // leaves `None` in its slot.
    let outputs = executor::run_longest_first(
        tasks,
        SessionTask::weight,
        |t| {
            if hooks.is_cancelled() {
                return None;
            }
            let (data, mut obs) = t.run(cache);
            obs.label = label(t);
            hooks.session_done(&done, tasks.len(), &obs.label, obs.cache_hit);
            Some((data, obs))
        },
        parallel,
    );
    let outputs = outputs
        .into_iter()
        .collect::<Option<Vec<_>>>()
        .ok_or_else(ApiError::cancelled)?;
    let stats = match (cache, before) {
        (Some(c), Some(b)) => c.stats().since(&b),
        _ => CacheStats::default(),
    };
    Ok((outputs, stats))
}

impl Study {
    /// Run the whole study against an optional session result cache,
    /// returning the data set and its observability: per-session trace
    /// metrics/events, wall-clock self-profiling and this run's cache
    /// counters. Each session consults the cache before stepping a single
    /// cycle and stores its output on completion. `hooks` carries an
    /// optional cancellation token, checked before each session starts
    /// (the only error is [`ApiError::cancelled`]), and a per-session
    /// completion callback for progress streaming.
    ///
    /// Because the simulator is bit-deterministic, the returned [`Study`]
    /// is bit-identical whether sessions hit, missed or ran in parallel,
    /// and whatever the trace knobs or hooks: wall time and cache counters
    /// live only in the [`StudyObservability`], so the determinism suite
    /// keeps comparing studies whole. The config is not validated here;
    /// [`crate::api::execute`] validates before it runs.
    pub fn run(
        config: StudyConfig,
        cache: Option<&SessionCache>,
        hooks: &RunHooks<'_>,
    ) -> Result<(Study, StudyObservability), ApiError> {
        let started = std::time::Instant::now();
        let tasks = config.session_tasks();
        let (outputs, cache_stats) =
            run_sessions(&tasks, SessionTask::label, config.parallel, cache, hooks)?;
        let (data, sessions): (Vec<_>, Vec<_>) = outputs.into_iter().unzip();
        let study = Study::assemble(config, tasks.iter().zip(data));
        let observability = StudyObservability {
            sessions,
            study_wall_s: started.elapsed().as_secs_f64(),
            cache: cache_stats,
        };
        Ok((study, observability))
    }

    /// Assemble finished session payloads, each paired with its task, into
    /// the study's data set. The pairs come in task order (random, then
    /// triggered, then transition, each by index), so pushing each payload
    /// onto its kind's list puts every session at its index.
    pub(crate) fn assemble<'a>(
        config: StudyConfig,
        outputs: impl IntoIterator<Item = (&'a SessionTask, CachedSession)>,
    ) -> Study {
        let mut study = Study {
            random_sessions: Vec::with_capacity(config.n_random),
            triggered: Vec::with_capacity(config.n_triggered),
            transitions: Vec::with_capacity(config.n_transition),
            triggered_audits: Vec::with_capacity(config.n_triggered),
            transition_audits: Vec::with_capacity(config.n_transition),
            config,
        };
        for (task, data) in outputs {
            match (task.kind, data) {
                (SessionKind::Random, CachedSession::Random { result }) => {
                    study.random_sessions.push(result);
                }
                (SessionKind::Triggered, CachedSession::Captures { captures, audit }) => {
                    study.triggered.push(captures);
                    study.triggered_audits.push(audit);
                }
                (SessionKind::Transition, CachedSession::Captures { captures, audit }) => {
                    study.transitions.push(captures);
                    study.transition_audits.push(audit);
                }
                _ => unreachable!("SessionTask::run returns its kind's payload"),
            }
        }
        study
    }

    /// Every sample of every random session, session order then time order.
    pub fn all_samples(&self) -> Vec<&Sample> {
        self.random_sessions
            .iter()
            .flat_map(|s| s.samples.iter())
            .collect()
    }

    /// Pooled `num[j]` distribution over all random sessions (Figure 3).
    /// Sized to the widest session so no high-concurrency bin is silently
    /// truncated (the old bounds check dropped records beyond
    /// `machine.n_ces` instead of widening the histogram).
    pub fn pooled_num(&self) -> Vec<u64> {
        let per: Vec<Vec<u64>> = self
            .random_sessions
            .iter()
            .map(|s| s.pooled_num())
            .collect();
        let width = per
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
            .max(self.config.machine.n_ces + 1);
        let mut num = vec![0u64; width];
        for p in &per {
            for (j, &k) in p.iter().enumerate() {
                num[j] += k;
            }
        }
        num
    }

    /// Pooled event counts over all random sessions (Table 2).
    pub fn pooled_counts(&self) -> EventCounts {
        let mut acc = EventCounts::empty(self.config.machine.n_ces);
        for s in &self.random_sessions {
            acc.merge(&s.pooled_counts());
        }
        acc
    }

    /// Overall concurrency measures (Table 2).
    pub fn overall_measures(&self) -> ConcurrencyMeasures {
        ConcurrencyMeasures::from_counts(&self.pooled_num())
    }

    /// Pooled counts over all transition-triggered buffers (Figures 6–7).
    pub fn pooled_transition_counts(&self) -> EventCounts {
        let mut acc = EventCounts::empty(self.config.machine.n_ces);
        for session in &self.transitions {
            for b in session {
                acc.merge(&b.counts);
            }
        }
        acc
    }

    /// Pool every session's audit report into one study-wide summary.
    pub fn audit_report(&self) -> StudyAuditReport {
        let mut out = StudyAuditReport::default();
        for (i, s) in self.random_sessions.iter().enumerate() {
            out.add_session(SessionKind::Random.label(i), &s.audit);
        }
        for (i, a) in self.triggered_audits.iter().enumerate() {
            out.add_session(SessionKind::Triggered.label(i), a);
        }
        for (i, a) in self.transition_audits.iter().enumerate() {
            out.add_session(SessionKind::Transition.label(i), a);
        }
        out
    }
}

/// One session's slice of the study-wide audit summary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SessionAudit {
    /// Which session the report came from ("random 3", "triggered 0", ...).
    pub label: String,
    /// Cycles the per-cycle auditor checked in that session.
    pub checked_cycles: u64,
    /// The violations it recorded (capped per session; see
    /// [`fx8_sim::audit::MAX_RECORDED_VIOLATIONS`]).
    pub violations: Vec<Violation>,
}

/// All sessions' audit reports pooled, with a text rendering for the
/// `reproduce audit` command line.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StudyAuditReport {
    /// Per-session slices, in random/triggered/transition order.
    pub sessions: Vec<SessionAudit>,
    /// Total cycles checked across every session.
    pub checked_cycles: u64,
    /// Total violations recorded (excluding those dropped past the cap).
    pub violations: u64,
    /// Violations dropped once per-session caps were hit.
    pub dropped_violations: u64,
}

impl StudyAuditReport {
    fn add_session(&mut self, label: String, rep: &AuditReport) {
        self.checked_cycles += rep.checked_cycles;
        self.violations += rep.violations.len() as u64;
        self.dropped_violations += rep.dropped_violations;
        self.sessions.push(SessionAudit {
            label,
            checked_cycles: rep.checked_cycles,
            violations: rep.violations.clone(),
        });
    }

    /// No violations anywhere (including dropped ones)?
    pub fn is_clean(&self) -> bool {
        self.total_violations() == 0
    }

    /// Recorded plus dropped violations.
    pub fn total_violations(&self) -> u64 {
        self.violations + self.dropped_violations
    }

    /// Human-readable summary, one line per violation.
    pub fn render(&self) -> String {
        use std::fmt::Write;
        let mut s = String::new();
        let _ = writeln!(
            s,
            "audit: {} cycles checked across {} sessions",
            self.checked_cycles,
            self.sessions.len()
        );
        if self.is_clean() {
            let _ = writeln!(s, "audit: clean — zero invariant violations");
        } else {
            let _ = writeln!(
                s,
                "audit: {} violations ({} dropped past the per-session cap)",
                self.total_violations(),
                self.dropped_violations
            );
            for sess in &self.sessions {
                for v in &sess.violations {
                    let _ = writeln!(s, "  [{}] {v}", sess.label);
                }
            }
        }
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(cfg: StudyConfig) -> Study {
        Study::run(cfg, None, &RunHooks::default())
            .expect("an uncancellable run completes")
            .0
    }

    fn mini() -> StudyConfig {
        StudyConfig {
            n_random: 2,
            session_hours: vec![0.12, 0.12],
            n_triggered: 1,
            captures_per_triggered: 2,
            n_transition: 1,
            captures_per_transition: 2,
            mix: WorkloadMix::all_concurrent(),
            ..StudyConfig::paper()
        }
    }

    #[test]
    fn study_runs_all_session_types() {
        let s = run(mini());
        assert_eq!(s.random_sessions.len(), 2);
        assert_eq!(s.triggered.len(), 1);
        assert_eq!(s.transitions.len(), 1);
        assert!(s.pooled_counts().records > 0);
    }

    #[test]
    fn parallel_and_serial_runs_agree() {
        let mut cfg = mini();
        cfg.parallel = true;
        let par = run(cfg.clone());
        cfg.parallel = false;
        let ser = run(cfg);
        assert_eq!(par.random_sessions, ser.random_sessions);
        assert_eq!(par.triggered, ser.triggered);
        assert_eq!(par.transitions, ser.transitions);
    }

    #[test]
    fn parallel_schedules_never_leak_into_results() {
        // Work-stealing makes task completion order nondeterministic;
        // results must not depend on it. Repeated parallel runs must agree
        // with each other and with the serial reference — here under the
        // production mix, which also exercises the trigger-timeout path.
        let mut cfg = mini();
        cfg.mix = WorkloadMix::csrd_production();
        cfg.parallel = true;
        let first = run(cfg.clone());
        for _ in 0..2 {
            assert_eq!(first, run(cfg.clone()), "parallel run must be reproducible");
        }
        cfg.parallel = false;
        let serial = run(cfg);
        assert_eq!(first.random_sessions, serial.random_sessions);
        assert_eq!(first.triggered, serial.triggered);
        assert_eq!(first.transitions, serial.transitions);
    }

    /// The fast-forward opt-out knob on `MachineConfig` flows through
    /// `StudyConfig.machine` into every session of the study; a full run
    /// with the engine on (the default) must be bit-identical to one with
    /// it off.
    #[test]
    fn fast_forward_on_and_off_studies_are_bit_identical() {
        let mut cfg = mini();
        cfg.mix = WorkloadMix::csrd_production();
        assert!(cfg.machine.fast_forward, "fast-forward is on by default");
        let on = run(cfg.clone());
        cfg.machine.fast_forward = false;
        let off = run(cfg);
        assert_eq!(on.random_sessions, off.random_sessions);
        assert_eq!(on.triggered, off.triggered);
        assert_eq!(on.transitions, off.transitions);
    }

    #[test]
    fn pooling_conserves_records() {
        let s = run(mini());
        let pooled = s.pooled_counts();
        let by_session: u64 = s
            .random_sessions
            .iter()
            .map(|r| r.pooled_counts().records)
            .sum();
        assert_eq!(pooled.records, by_session);
        assert_eq!(s.pooled_num().iter().sum::<u64>(), pooled.records);
    }

    #[test]
    fn empty_session_hours_falls_back_to_paper_default() {
        // Regression: Study::run indexed session_hours[0] unconditionally,
        // so an empty vector panicked before the first session even ran.
        // Use the tiny machine and skip triggered/transition sessions to
        // keep the fallback 6-hour random session affordable.
        let cfg = StudyConfig {
            machine: MachineConfig::tiny(),
            n_random: 1,
            session_hours: Vec::new(),
            n_triggered: 0,
            n_transition: 0,
            parallel: false,
            ..StudyConfig::paper()
        };
        assert!((cfg.hours_for_session(0) - DEFAULT_SESSION_HOURS).abs() < 1e-12);
        assert!(cfg.validate().is_ok(), "empty session_hours is legal");
        let s = run(cfg);
        assert_eq!(s.random_sessions.len(), 1);
        assert!(!s.random_sessions[0].samples.is_empty());
    }

    #[test]
    fn study_config_validate_rejects_bad_hours() {
        let mut cfg = mini();
        cfg.session_hours = vec![4.0, f64::NAN];
        assert_eq!(cfg.validate().unwrap_err().field(), "session_hours");
        cfg.session_hours = vec![-1.0];
        assert!(cfg.validate().is_err());
        assert!(StudyConfig::paper().validate().is_ok());
        assert!(StudyConfig::quick().validate().is_ok());
    }

    #[test]
    fn observed_run_is_bit_identical_and_labeled() {
        let base = mini();
        let traced = StudyConfig {
            machine: MachineConfig {
                trace: fx8_sim::TraceConfig::full(),
                ..base.machine.clone()
            },
            ..base.clone()
        };
        traced.validate().expect("mini study config validates");
        let (study, obs) = Study::run(traced, None, &RunHooks::default()).unwrap();
        // Tracing never steers: the study equals an untraced plain run.
        let plain = run(base);
        assert_eq!(study.random_sessions, plain.random_sessions);
        assert_eq!(study.triggered, plain.triggered);
        assert_eq!(study.transitions, plain.transitions);
        // One observability slice per session, in documented order.
        let labels: Vec<&str> = obs.sessions.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            ["random 0", "random 1", "triggered 0", "transition 0"]
        );
        let eng = obs.pooled_engine();
        assert!(eng.total > 0, "sessions stepped cycles");
        assert!(eng.consistent(), "engines partition the timeline");
        for s in &obs.sessions {
            assert!(s.metrics.cycles.consistent(), "{}: engine split", s.label);
            assert!(s.wall_s >= 0.0);
        }
        assert!(
            obs.sessions.iter().any(|s| !s.events.is_empty()),
            "the event trace captured something"
        );
        let json = obs.chrome_trace(study.config.machine.ns_per_cycle);
        assert!(json.contains("random 0"));
        assert!(json.ends_with("]}"));
    }

    #[test]
    fn audit_report_pools_every_session() {
        let s = run(mini());
        let rep = s.audit_report();
        assert_eq!(rep.sessions.len(), 2 + 1 + 1);
        // Without the audit feature the reports are empty-but-clean; with
        // it they must be clean too (the dedicated audit suite asserts the
        // stronger property on larger runs).
        assert!(rep.is_clean(), "{}", rep.render());
        if cfg!(feature = "audit") {
            assert!(rep.checked_cycles > 0, "auditor saw every stepped cycle");
        } else {
            assert_eq!(rep.checked_cycles, 0);
        }
        assert!(rep.render().contains("clean"));
    }
}
