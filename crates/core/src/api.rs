//! The unified job API: one typed request/result surface shared by the
//! `reproduce` CLI and the `fx8-serve` HTTP server.
//!
//! Every way of asking this repo a question — "run the study", "sweep the
//! widths", "bench the cache" — is a [`JobRequest`]: a versioned wire
//! envelope (`"api": 1`) around a [`JobSpec`]. Both transports build the
//! same request, validate it through the same [`ConfigError`] chain, and
//! execute it through the same entry point ([`execute`] /
//! [`execute_with`]), so every CLI capability is automatically a service
//! capability and vice versa.
//!
//! Failures surface as [`ApiError`]: a *stable machine-readable code*
//! (`config/zero-mem-buses`, `request/bad-json`, `server/queue-full`, ...)
//! plus a human message, serialized into one uniform envelope
//! (`{"api":1,"error":{"code":...,"message":...}}`) on the wire and
//! printed as `error[CODE]: message` by the CLI. The
//! [`ConfigError`] → code mapping is an exhaustive match: adding a
//! `ConfigError` variant without assigning it a code is a compile error.
//!
//! Long-running callers (the server's job workers) pass [`RunHooks`] into
//! [`execute_with`]: a [`CancelToken`] checked before each session starts,
//! and an `on_session` callback fired as each session finishes — the PR-5
//! observability events turned into streamable progress.

use crate::cache::SessionCache;
use crate::observability::StudyObservability;
use crate::report::{self, CompRow};
use crate::scale::{ScaleConfig, ScaleStudy, SweepStats};
use crate::study::{Study, StudyConfig};
use fx8_sim::ConfigError;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

/// Wire protocol version. Requests carrying any other `"api"` value are
/// rejected with [`codes::UNSUPPORTED_API`] before validation; responses
/// echo it so clients can refuse envelopes from the future. Bumped only
/// on breaking changes to the request/response shapes (additive fields
/// ride on the back-compat deserializers instead).
pub const API_VERSION: u32 = 1;

/// The stable machine-readable error codes of the uniform envelope.
///
/// Codes are contracts: once shipped they never change meaning, and
/// clients may match on them. Configuration failures use
/// `config/<kind>-<field>` (derived mechanically from [`ConfigError`] by
/// [`ApiError::from`]); transport and lifecycle failures use the
/// constants here.
pub mod codes {
    /// The request body was not parseable JSON of the expected shape.
    pub const BAD_JSON: &str = "request/bad-json";
    /// The request's `"api"` version is not [`super::API_VERSION`].
    pub const UNSUPPORTED_API: &str = "request/unsupported-api";
    /// The request body exceeded the server's size limit.
    pub const TOO_LARGE: &str = "request/too-large";
    /// The client dribbled or stalled past the server's read timeout.
    pub const TIMEOUT: &str = "request/timeout";
    /// No route matches the request path.
    pub const NOT_FOUND: &str = "request/not-found";
    /// The route exists but not under this HTTP method.
    pub const BAD_METHOD: &str = "request/bad-method";
    /// A requested table, figure or report section ID does not exist.
    pub const UNKNOWN_ID: &str = "request/unknown-id";
    /// The bounded job queue is full; retry after a beat.
    pub const QUEUE_FULL: &str = "server/queue-full";
    /// The server is draining for shutdown and accepts no new jobs.
    pub const SHUTTING_DOWN: &str = "server/shutting-down";
    /// An internal invariant broke while serving the request.
    pub const INTERNAL: &str = "server/internal";
    /// No job with the requested id exists.
    pub const JOB_NOT_FOUND: &str = "job/not-found";
    /// The job was cancelled before it completed.
    pub const JOB_CANCELLED: &str = "job/cancelled";
}

/// A typed failure with a stable machine-readable `code` and a human
/// `message`, the single error currency of both transports.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ApiError {
    /// Stable code (`config/...`, `request/...`, `server/...`, `job/...`).
    pub code: String,
    /// Human-readable diagnostic.
    pub message: String,
}

impl ApiError {
    /// Build an error from a code and message.
    pub fn new(code: impl Into<String>, message: impl Into<String>) -> Self {
        ApiError {
            code: code.into(),
            message: message.into(),
        }
    }

    /// The uniform wire envelope: `{"api":1,"error":{...}}`.
    pub fn envelope_json(&self) -> String {
        let v = Value::Object(vec![
            ("api".to_string(), API_VERSION.to_value()),
            ("error".to_string(), self.to_value()),
        ]);
        serde_json::to_string(&v).expect("error envelope serializes")
    }

    /// Parse an error envelope back into the typed error (for clients).
    pub fn from_envelope_json(json: &str) -> Option<ApiError> {
        let v: Value = serde_json::from_str(json).ok()?;
        ApiError::from_value(v.get("error")?).ok()
    }

    /// The HTTP status this error maps to. Shared by the server (response
    /// status lines) and the tests that pin the contract.
    pub fn http_status(&self) -> u16 {
        match self.code.as_str() {
            codes::QUEUE_FULL => 429,
            codes::TOO_LARGE => 413,
            codes::TIMEOUT => 408,
            codes::NOT_FOUND | codes::JOB_NOT_FOUND => 404,
            codes::BAD_METHOD => 405,
            codes::SHUTTING_DOWN => 503,
            codes::INTERNAL => 500,
            c if c.starts_with("config/") => 422,
            // Remaining request/* shapes, job/cancelled, and any future
            // client-side code default to a plain bad request.
            _ => 400,
        }
    }

    /// A job-cancelled error.
    pub fn cancelled() -> Self {
        ApiError::new(codes::JOB_CANCELLED, "job was cancelled before completion")
    }
}

impl std::fmt::Display for ApiError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "error[{}]: {}", self.code, self.message)
    }
}

impl std::error::Error for ApiError {}

/// Dotted/underscored field paths become code-safe slugs:
/// `cache.line_bytes` → `cache-line-bytes`.
fn field_slug(field: &str) -> String {
    field.replace(['.', '_'], "-")
}

impl From<ConfigError> for ApiError {
    /// The stable `ConfigError` → code mapping. The match is exhaustive
    /// *by variant* on purpose: adding a `ConfigError` variant without
    /// deciding its code fails to compile here.
    fn from(e: ConfigError) -> Self {
        let message = e.to_string();
        let code = match &e {
            ConfigError::Zero { field } => format!("config/zero-{}", field_slug(field)),
            ConfigError::NotPowerOfTwo { field, .. } => {
                format!("config/pow2-{}", field_slug(field))
            }
            ConfigError::OutOfRange { field, .. } => {
                format!("config/range-{}", field_slug(field))
            }
        };
        ApiError { code, message }
    }
}

/// What a job asks for. Each variant carries the full validated-later
/// config; the wire also accepts the preset strings `"quick"` and
/// `"paper"` in place of a config object (resolved at parse time), so
/// `{"api":1,"job":{"study":"quick"}}` is a complete request.
#[derive(Debug, Clone, PartialEq)]
pub enum JobSpec {
    /// Run the full study ([`Study::run`]).
    Study {
        /// The study to run.
        config: StudyConfig,
    },
    /// Run the width sweep ([`ScaleStudy::run`]).
    Scale {
        /// The sweep to run.
        config: ScaleConfig,
    },
    /// Run the study twice against a fresh in-process cache and report
    /// cold/warm walls — the cache benchmark as a service job.
    Bench {
        /// The study the benchmark runs.
        config: StudyConfig,
    },
}

/// The versioned request envelope both transports build and execute.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct JobRequest {
    /// Wire protocol version; must equal [`API_VERSION`].
    pub api: u32,
    /// What to run.
    pub job: JobSpec,
}

impl JobRequest {
    /// A study request at the current API version.
    pub fn study(config: StudyConfig) -> Self {
        JobRequest {
            api: API_VERSION,
            job: JobSpec::Study { config },
        }
    }

    /// A width-sweep request at the current API version.
    pub fn scale(config: ScaleConfig) -> Self {
        JobRequest {
            api: API_VERSION,
            job: JobSpec::Scale { config },
        }
    }

    /// A cache-bench request at the current API version.
    pub fn bench(config: StudyConfig) -> Self {
        JobRequest {
            api: API_VERSION,
            job: JobSpec::Bench { config },
        }
    }

    /// Check the version and run the config validation chain, mapping
    /// failures to the uniform typed error.
    pub fn validate(&self) -> Result<(), ApiError> {
        if self.api != API_VERSION {
            return Err(ApiError::new(
                codes::UNSUPPORTED_API,
                format!(
                    "unsupported api version {} (this build speaks {API_VERSION})",
                    self.api
                ),
            ));
        }
        match &self.job {
            JobSpec::Study { config } | JobSpec::Bench { config } => {
                config.validate().map_err(ApiError::from)
            }
            JobSpec::Scale { config } => config.validate().map_err(ApiError::from),
        }
    }

    /// How many sessions this request will schedule — the denominator of
    /// its progress stream.
    pub fn sessions_total(&self) -> usize {
        let study_sessions = |c: &StudyConfig| c.n_random + c.n_triggered + c.n_transition;
        match &self.job {
            JobSpec::Study { config } => study_sessions(config),
            // Cold pass plus warm pass.
            JobSpec::Bench { config } => 2 * study_sessions(config),
            JobSpec::Scale { config } => config.widths.len() * study_sessions(&config.base),
        }
    }

    /// Parse a request from wire JSON, mapping every parse failure to the
    /// typed [`codes::BAD_JSON`] error.
    pub fn from_json(json: &str) -> Result<JobRequest, ApiError> {
        serde_json::from_str::<JobRequest>(json)
            .map_err(|e| ApiError::new(codes::BAD_JSON, format!("bad request body: {e}")))
    }
}

/// Resolve a study payload: a full config object, or a preset name.
fn study_payload(v: &Value) -> Result<StudyConfig, SerdeError> {
    match v {
        Value::Str(preset) => match preset.as_str() {
            "quick" => Ok(StudyConfig::quick()),
            "paper" => Ok(StudyConfig::paper()),
            other => Err(SerdeError::custom(format!(
                "unknown study preset {other:?} (expected \"quick\" or \"paper\")"
            ))),
        },
        other => StudyConfig::from_value(other),
    }
}

/// Resolve a scale payload: a full config object, or a preset name.
fn scale_payload(v: &Value) -> Result<ScaleConfig, SerdeError> {
    match v {
        Value::Str(preset) => match preset.as_str() {
            "quick" => Ok(ScaleConfig::quick()),
            "paper" => Ok(ScaleConfig::paper()),
            other => Err(SerdeError::custom(format!(
                "unknown scale preset {other:?} (expected \"quick\" or \"paper\")"
            ))),
        },
        other => ScaleConfig::from_value(other),
    }
}

impl Serialize for JobSpec {
    fn to_value(&self) -> Value {
        let (tag, payload) = match self {
            JobSpec::Study { config } => ("study", config.to_value()),
            JobSpec::Scale { config } => ("scale", config.to_value()),
            JobSpec::Bench { config } => ("bench", config.to_value()),
        };
        Value::Object(vec![(tag.to_string(), payload)])
    }
}

impl Deserialize for JobSpec {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let Value::Object(entries) = v else {
            return Err(SerdeError::invalid_type("job object", v));
        };
        if entries.len() != 1 {
            return Err(SerdeError::custom(
                "job must carry exactly one of \"study\", \"scale\", \"bench\"",
            ));
        }
        let (tag, payload) = &entries[0];
        match tag.as_str() {
            "study" => Ok(JobSpec::Study {
                config: study_payload(payload)?,
            }),
            "scale" => Ok(JobSpec::Scale {
                config: scale_payload(payload)?,
            }),
            "bench" => Ok(JobSpec::Bench {
                config: study_payload(payload)?,
            }),
            other => Err(SerdeError::unknown_variant(other)),
        }
    }
}

/// The cold/warm walls of a [`JobSpec::Bench`] run. Wall clocks vary run
/// to run, so bench results — unlike study and scale results — are not
/// bit-comparable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchRun {
    /// Wall seconds of the cold pass (every session computed).
    pub cold_wall_s: f64,
    /// Wall seconds of the warm pass (every session from cache).
    pub warm_wall_s: f64,
    /// `cold_wall_s / warm_wall_s`.
    pub warm_speedup: f64,
    /// Sessions per pass.
    pub sessions: u64,
    /// Cache hits the warm pass recorded (equals `sessions` when the
    /// cache behaved).
    pub warm_hits: u64,
}

/// A finished job's deterministic payload. For study and scale jobs this
/// is bit-identical across transports, caches, and parallelism — the e2e
/// suite compares serialized results byte for byte.
// One JobResult exists per finished job (never collections of them), so
// the Study variant's inline size buys moves-not-allocs at no real cost.
#[allow(clippy::large_enum_variant)]
#[derive(Debug, Clone, PartialEq)]
pub enum JobResult {
    /// A study's full data set plus the paper-vs-measured comparison.
    Study {
        /// The complete study.
        study: Study,
        /// The comparison rows of [`report::comparison`].
        comparison: Vec<CompRow>,
    },
    /// The width sweep's curves.
    Scale {
        /// The finished sweep.
        study: ScaleStudy,
    },
    /// The cache benchmark's walls.
    Bench {
        /// Cold/warm measurement.
        bench: BenchRun,
    },
}

impl Serialize for JobResult {
    fn to_value(&self) -> Value {
        let (tag, payload) = match self {
            JobResult::Study { study, comparison } => (
                "study",
                Value::Object(vec![
                    ("study".to_string(), study.to_value()),
                    ("comparison".to_string(), comparison.to_value()),
                ]),
            ),
            JobResult::Scale { study } => ("scale", study.to_value()),
            JobResult::Bench { bench } => ("bench", bench.to_value()),
        };
        Value::Object(vec![(tag.to_string(), payload)])
    }
}

impl Deserialize for JobResult {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let Value::Object(entries) = v else {
            return Err(SerdeError::invalid_type("result object", v));
        };
        if entries.len() != 1 {
            return Err(SerdeError::custom("result must carry exactly one variant"));
        }
        let (tag, payload) = &entries[0];
        match tag.as_str() {
            "study" => Ok(JobResult::Study {
                study: Deserialize::from_value(
                    payload
                        .get("study")
                        .ok_or_else(|| SerdeError::missing_field("result.study"))?,
                )?,
                comparison: Deserialize::from_value(
                    payload
                        .get("comparison")
                        .ok_or_else(|| SerdeError::missing_field("result.comparison"))?,
                )?,
            }),
            "scale" => Ok(JobResult::Scale {
                study: Deserialize::from_value(payload)?,
            }),
            "bench" => Ok(JobResult::Bench {
                bench: Deserialize::from_value(payload)?,
            }),
            other => Err(SerdeError::unknown_variant(other)),
        }
    }
}

/// A job's lifecycle state, as it appears on the wire (lowercase).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobState {
    /// Accepted, waiting in the bounded queue.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished with a result.
    Done,
    /// Finished with an error.
    Failed,
    /// Cancelled before completion.
    Cancelled,
}

impl JobState {
    /// The wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
            JobState::Cancelled => "cancelled",
        }
    }

    /// Parse the wire spelling.
    pub fn parse(s: &str) -> Option<JobState> {
        Some(match s {
            "queued" => JobState::Queued,
            "running" => JobState::Running,
            "done" => JobState::Done,
            "failed" => JobState::Failed,
            "cancelled" => JobState::Cancelled,
            _ => return None,
        })
    }

    /// Whether the job will never change state again.
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobState::Done | JobState::Failed | JobState::Cancelled
        )
    }
}

impl Serialize for JobState {
    fn to_value(&self) -> Value {
        Value::Str(self.as_str().to_string())
    }
}

impl Deserialize for JobState {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match v {
            Value::Str(s) => JobState::parse(s).ok_or_else(|| SerdeError::unknown_variant(s)),
            other => Err(SerdeError::invalid_type("job state string", other)),
        }
    }
}

/// One job's full status: what `GET /v1/jobs/{id}` returns and what the
/// NDJSON progress stream emits per line. `result`/`error` appear only in
/// terminal states (absent fields are omitted from the wire, and the
/// hand-written deserializer tolerates their absence).
#[derive(Debug, Clone, PartialEq)]
pub struct JobStatus {
    /// Echoed wire version.
    pub api: u32,
    /// Server-assigned job id.
    pub id: u64,
    /// Lifecycle state.
    pub state: JobState,
    /// Sessions finished so far.
    pub sessions_done: u64,
    /// Sessions the job schedules in total.
    pub sessions_total: u64,
    /// Wall seconds from execution start (0 until the job runs).
    pub wall_s: f64,
    /// The deterministic payload, once `state == done`.
    pub result: Option<JobResult>,
    /// The typed failure, once `state == failed` or `cancelled`.
    pub error: Option<ApiError>,
}

impl Serialize for JobStatus {
    fn to_value(&self) -> Value {
        let mut fields = vec![
            ("api".to_string(), self.api.to_value()),
            ("id".to_string(), self.id.to_value()),
            ("state".to_string(), self.state.to_value()),
            ("sessions_done".to_string(), self.sessions_done.to_value()),
            ("sessions_total".to_string(), self.sessions_total.to_value()),
            ("wall_s".to_string(), self.wall_s.to_value()),
        ];
        if let Some(r) = &self.result {
            fields.push(("result".to_string(), r.to_value()));
        }
        if let Some(e) = &self.error {
            fields.push(("error".to_string(), e.to_value()));
        }
        Value::Object(fields)
    }
}

impl Deserialize for JobStatus {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        let req = |name: &str| {
            v.get(name)
                .ok_or_else(|| SerdeError::missing_field(&format!("JobStatus.{name}")))
        };
        Ok(JobStatus {
            api: Deserialize::from_value(req("api")?)?,
            id: Deserialize::from_value(req("id")?)?,
            state: Deserialize::from_value(req("state")?)?,
            sessions_done: Deserialize::from_value(req("sessions_done")?)?,
            sessions_total: Deserialize::from_value(req("sessions_total")?)?,
            wall_s: Deserialize::from_value(req("wall_s")?)?,
            result: match v.get("result") {
                Some(r) => Some(Deserialize::from_value(r)?),
                None => None,
            },
            error: match v.get("error") {
                Some(e) => Some(Deserialize::from_value(e)?),
                None => None,
            },
        })
    }
}

/// A shared cancellation flag: cloned into the worker, flipped by the
/// canceller, checked by the study executor before each session starts.
/// Sessions already stepping run to completion (they are short relative
/// to a study), so cancellation is prompt but never tears a session.
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, uncancelled token.
    pub fn new() -> Self {
        CancelToken::default()
    }

    /// Request cancellation (idempotent, thread-safe).
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Has cancellation been requested?
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// One finished session, as reported to [`RunHooks::on_session`].
#[derive(Debug, Clone)]
pub struct SessionDone {
    /// Session label ("random 3", "triggered 0", ...).
    pub label: String,
    /// Whether the result cache answered it.
    pub cache_hit: bool,
    /// Sessions finished so far (including this one). Completion order,
    /// not task order: parallel sessions finish as they finish.
    pub done: usize,
    /// Sessions the run schedules in total.
    pub total: usize,
}

/// Service hooks threaded through a run: optional cancellation and an
/// optional per-session completion callback. [`RunHooks::default`] is a
/// plain uncancellable, unobserved run.
#[derive(Default, Clone, Copy)]
pub struct RunHooks<'a> {
    /// Checked before each session starts.
    pub cancel: Option<&'a CancelToken>,
    /// Fired as each session finishes (from worker threads — must be
    /// `Sync`).
    pub on_session: Option<&'a (dyn Fn(SessionDone) + Sync)>,
}

impl RunHooks<'_> {
    /// Has the (optional) token been cancelled?
    pub fn is_cancelled(&self) -> bool {
        self.cancel.is_some_and(CancelToken::is_cancelled)
    }

    /// Count a finished session and fire the callback.
    pub(crate) fn session_done(
        &self,
        counter: &AtomicUsize,
        total: usize,
        label: &str,
        cache_hit: bool,
    ) {
        let done = counter.fetch_add(1, Ordering::Relaxed) + 1;
        if let Some(f) = self.on_session {
            f(SessionDone {
                label: label.to_string(),
                cache_hit,
                done,
                total,
            });
        }
    }
}

/// Everything [`execute_with`] returns: the wire payload plus the
/// side-band observability the CLI renders (wall clocks and metrics are
/// deliberately not part of the deterministic [`JobResult`]).
#[derive(Debug)]
pub struct JobOutcome {
    /// The deterministic result payload.
    pub result: JobResult,
    /// Study observability (study and bench jobs; the bench's warm pass).
    pub study_obs: Option<StudyObservability>,
    /// Sweep accounting (scale jobs).
    pub sweep: Option<SweepStats>,
}

/// Execute a request with default hooks (no cancellation, no progress).
pub fn execute(req: &JobRequest, cache: Option<&SessionCache>) -> Result<JobOutcome, ApiError> {
    execute_with(req, cache, &RunHooks::default())
}

/// The single execution entry point behind both transports: validate,
/// then run the requested job against the (optional) session cache,
/// honoring cancellation and streaming per-session progress through
/// `hooks`.
pub fn execute_with(
    req: &JobRequest,
    cache: Option<&SessionCache>,
    hooks: &RunHooks<'_>,
) -> Result<JobOutcome, ApiError> {
    req.validate()?;
    match &req.job {
        JobSpec::Study { config } => {
            let (study, obs) = Study::run(config.clone(), cache, hooks)?;
            let comparison = report::comparison(&study);
            Ok(JobOutcome {
                result: JobResult::Study { study, comparison },
                study_obs: Some(obs),
                sweep: None,
            })
        }
        JobSpec::Scale { config } => {
            let (study, sweep) = ScaleStudy::run(config, cache, hooks)?;
            Ok(JobOutcome {
                result: JobResult::Scale { study },
                study_obs: None,
                sweep: Some(sweep),
            })
        }
        JobSpec::Bench { config } => {
            // The bench ignores the caller's cache on purpose: it measures
            // a cold pass then a warm pass against its own fresh store, so
            // a pre-warmed shared cache cannot fake the cold number.
            let bench_cache = SessionCache::in_memory();
            let total = req.sessions_total();
            let per_pass = total / 2;
            let offset = |base: usize| {
                move |mut s: SessionDone| {
                    s.done += base;
                    s.total = total;
                    if let Some(f) = hooks.on_session {
                        f(s);
                    }
                }
            };
            let cold_hook = offset(0);
            let cold_hooks = RunHooks {
                cancel: hooks.cancel,
                on_session: Some(&cold_hook),
            };
            let (cold_study, cold_obs) =
                Study::run(config.clone(), Some(&bench_cache), &cold_hooks)?;
            let warm_hook = offset(per_pass);
            let warm_hooks = RunHooks {
                cancel: hooks.cancel,
                on_session: Some(&warm_hook),
            };
            let (warm_study, warm_obs) =
                Study::run(config.clone(), Some(&bench_cache), &warm_hooks)?;
            debug_assert_eq!(cold_study, warm_study, "cache broke determinism");
            let cold_wall_s = cold_obs.study_wall_s;
            let warm_wall_s = warm_obs.study_wall_s;
            Ok(JobOutcome {
                result: JobResult::Bench {
                    bench: BenchRun {
                        cold_wall_s,
                        warm_wall_s,
                        warm_speedup: cold_wall_s / warm_wall_s.max(1e-12),
                        sessions: per_pass as u64,
                        warm_hits: warm_obs.cache.hits,
                    },
                },
                study_obs: Some(warm_obs),
                sweep: None,
            })
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `ConfigError` variant maps to its documented stable code.
    /// The `match` inside `ApiError::from` has no wildcard arm, so adding
    /// a `ConfigError` variant without assigning a code fails to compile;
    /// this test pins the code *strings* so they can never drift either.
    #[test]
    fn config_error_codes_are_stable_and_exhaustive() {
        let zero = ConfigError::Zero { field: "mem_buses" };
        assert_eq!(ApiError::from(zero).code, "config/zero-mem-buses");

        let pow2 = ConfigError::NotPowerOfTwo {
            field: "cache.line_bytes",
            value: 3,
        };
        assert_eq!(ApiError::from(pow2).code, "config/pow2-cache-line-bytes");

        let range = ConfigError::out_of_range("session_hours", "NaN", "finite");
        let mapped = ApiError::from(range);
        assert_eq!(mapped.code, "config/range-session-hours");
        // The human message is the ConfigError's Display, verbatim.
        assert!(mapped.message.contains("invalid session_hours"));
    }

    #[test]
    fn error_envelope_round_trips() {
        let e = ApiError::new(codes::QUEUE_FULL, "queue is full");
        let json = e.envelope_json();
        assert!(json.contains("\"api\":1"));
        assert!(json.contains("server/queue-full"));
        let back = ApiError::from_envelope_json(&json).expect("envelope parses");
        assert_eq!(back, e);
    }

    #[test]
    fn http_status_mapping_is_pinned() {
        let status = |code: &str| ApiError::new(code, "x").http_status();
        assert_eq!(status(codes::QUEUE_FULL), 429);
        assert_eq!(status(codes::TOO_LARGE), 413);
        assert_eq!(status(codes::TIMEOUT), 408);
        assert_eq!(status(codes::JOB_NOT_FOUND), 404);
        assert_eq!(status(codes::BAD_METHOD), 405);
        assert_eq!(status(codes::SHUTTING_DOWN), 503);
        assert_eq!(status(codes::BAD_JSON), 400);
        assert_eq!(status(codes::UNSUPPORTED_API), 400);
        assert_eq!(status("config/zero-mem-buses"), 422);
    }

    #[test]
    fn job_request_presets_parse_and_round_trip() {
        let req = JobRequest::from_json(r#"{"api":1,"job":{"study":"quick"}}"#)
            .expect("preset request parses");
        assert_eq!(req, JobRequest::study(StudyConfig::quick()));
        assert!(req.validate().is_ok());

        // The canonical serialized form (full config) parses back equal.
        let json = serde_json::to_string(&req).unwrap();
        let back = JobRequest::from_json(&json).expect("canonical form parses");
        assert_eq!(back, req);

        let scale = JobRequest::from_json(r#"{"api":1,"job":{"scale":"paper"}}"#).unwrap();
        assert_eq!(scale, JobRequest::scale(ScaleConfig::paper()));
        let bench = JobRequest::from_json(r#"{"api":1,"job":{"bench":"quick"}}"#).unwrap();
        assert_eq!(bench, JobRequest::bench(StudyConfig::quick()));
    }

    #[test]
    fn bad_requests_map_to_typed_errors() {
        // Truncated JSON.
        let e = JobRequest::from_json(r#"{"api":1,"job":{"study""#).unwrap_err();
        assert_eq!(e.code, codes::BAD_JSON);
        // Unknown preset.
        let e = JobRequest::from_json(r#"{"api":1,"job":{"study":"enormous"}}"#).unwrap_err();
        assert_eq!(e.code, codes::BAD_JSON);
        // Unknown job kind.
        let e = JobRequest::from_json(r#"{"api":1,"job":{"fuzz":"quick"}}"#).unwrap_err();
        assert_eq!(e.code, codes::BAD_JSON);
        // Wrong api version parses but fails validation with its own code.
        let req = JobRequest::from_json(r#"{"api":2,"job":{"study":"quick"}}"#).unwrap();
        let e = req.validate().unwrap_err();
        assert_eq!(e.code, codes::UNSUPPORTED_API);
        // Invalid config validates to its config code.
        let mut cfg = StudyConfig::quick();
        cfg.session_hours = vec![f64::NAN];
        let e = JobRequest::study(cfg).validate().unwrap_err();
        assert_eq!(e.code, "config/range-session-hours");
    }

    #[test]
    fn job_status_serialization_omits_absent_result() {
        let status = JobStatus {
            api: API_VERSION,
            id: 7,
            state: JobState::Running,
            sessions_done: 3,
            sessions_total: 7,
            wall_s: 0.25,
            result: None,
            error: None,
        };
        let json = serde_json::to_string(&status).unwrap();
        assert!(json.contains("\"state\":\"running\""));
        assert!(!json.contains("\"result\""));
        let back: JobStatus = serde_json::from_str(&json).expect("status parses");
        assert_eq!(back, status);

        let failed = JobStatus {
            state: JobState::Failed,
            error: Some(ApiError::new(codes::JOB_CANCELLED, "gone")),
            ..status
        };
        let json = serde_json::to_string(&failed).unwrap();
        let back: JobStatus = serde_json::from_str(&json).expect("failed status parses");
        assert_eq!(back, failed);
        assert!(back.state.is_terminal());
    }

    #[test]
    fn execute_runs_a_mini_study_and_honors_cancellation() {
        let mut cfg = StudyConfig::quick();
        cfg.n_random = 1;
        cfg.session_hours = vec![0.05];
        cfg.n_triggered = 1;
        cfg.captures_per_triggered = 2;
        cfg.n_transition = 0;
        let req = JobRequest::study(cfg);
        assert_eq!(req.sessions_total(), 2);

        let done = std::sync::Mutex::new(Vec::new());
        let on_session = |s: SessionDone| done.lock().unwrap().push((s.done, s.total));
        let hooks = RunHooks {
            cancel: None,
            on_session: Some(&on_session),
        };
        let outcome = execute_with(&req, None, &hooks).expect("mini study runs");
        let JobResult::Study { study, comparison } = &outcome.result else {
            panic!("study request returns a study result");
        };
        assert_eq!(study.random_sessions.len(), 1);
        assert!(!comparison.is_empty());
        let progress = done.lock().unwrap();
        assert_eq!(progress.len(), 2);
        assert!(progress.iter().all(|&(_, total)| total == 2));
        assert!(progress.iter().any(|&(done, _)| done == 2));
        drop(progress);

        // A pre-cancelled token stops the run before any session.
        let token = CancelToken::new();
        token.cancel();
        let hooks = RunHooks {
            cancel: Some(&token),
            on_session: None,
        };
        let err = execute_with(&req, None, &hooks).unwrap_err();
        assert_eq!(err.code, codes::JOB_CANCELLED);
    }

    #[test]
    fn execute_bench_reports_warm_speedup() {
        let mut cfg = StudyConfig::quick();
        cfg.n_random = 1;
        cfg.session_hours = vec![0.05];
        cfg.n_triggered = 0;
        cfg.n_transition = 1;
        cfg.captures_per_transition = 2;
        let outcome = execute(&JobRequest::bench(cfg), None).expect("bench runs");
        let JobResult::Bench { bench } = &outcome.result else {
            panic!("bench request returns a bench result");
        };
        assert_eq!(bench.sessions, 2);
        assert_eq!(bench.warm_hits, 2, "warm pass is all cache hits");
        assert!(bench.warm_speedup > 1.0, "warm pass is faster than cold");
    }
}
