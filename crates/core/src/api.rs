//! The unified job API: one typed request/result surface shared by the
//! `reproduce` CLI and the `fx8-serve` HTTP server.
//!
//! Every way of asking this repo a question — "run the study", "sweep the
//! widths" — is a [`JobRequest`]: a versioned wire
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
use crate::scale::{ScaleConfig, ScaleStudy};
use crate::study::{Study, StudyConfig};
use fx8_sim::ConfigError;
use serde::{Deserialize, Deserializer, Error as SerdeError, Serialize};
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
    /// The job finished and has since been dropped from the server's
    /// bounded record of finished jobs.
    pub const JOB_EXPIRED: &str = "job/expired";
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
        let mut out = String::from("{\"api\":");
        API_VERSION.serialize(&mut out);
        out.push_str(",\"error\":");
        self.serialize(&mut out);
        out.push('}');
        out
    }

    /// Parse an error envelope back into the typed error (for clients).
    pub fn from_envelope_json(json: &str) -> Option<ApiError> {
        serde_json::from_str::<ErrorEnvelope>(json).ok()?.0
    }

    /// The HTTP status this error maps to. Shared by the server (response
    /// status lines) and the tests that pin the contract.
    pub fn http_status(&self) -> u16 {
        match self.code.as_str() {
            codes::QUEUE_FULL => 429,
            codes::TOO_LARGE => 413,
            codes::TIMEOUT => 408,
            codes::NOT_FOUND | codes::JOB_NOT_FOUND => 404,
            codes::JOB_EXPIRED => 410,
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

/// The `error` member of an envelope, when it has one; every other key is
/// skipped.
struct ErrorEnvelope(Option<ApiError>);

impl Deserialize for ErrorEnvelope {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, SerdeError> {
        let mut error = None;
        de.object(|de, key| match key {
            "error" if error.is_none() => {
                error = Some(ApiError::deserialize(de)?);
                Ok(())
            }
            _ => de.skip(),
        })?;
        Ok(ErrorEnvelope(error))
    }
}

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
            JobSpec::Study { config } => config.validate().map_err(ApiError::from),
            JobSpec::Scale { config } => config.validate().map_err(ApiError::from),
        }
    }

    /// How many sessions this request will schedule — the denominator of
    /// its progress stream.
    pub fn sessions_total(&self) -> usize {
        let study_sessions = |c: &StudyConfig| c.n_random + c.n_triggered + c.n_transition;
        match &self.job {
            JobSpec::Study { config } => study_sessions(config),
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

/// Read a job payload: a full config object, or the name of a preset
/// (`kind` names the job kind in the error for an unknown name).
fn payload<C: Deserialize>(
    de: &mut Deserializer<'_>,
    kind: &str,
    quick: fn() -> C,
    paper: fn() -> C,
) -> Result<C, SerdeError> {
    if de.peek()? != b'"' {
        return C::deserialize(de);
    }
    match &*de.str()? {
        "quick" => Ok(quick()),
        "paper" => Ok(paper()),
        other => Err(SerdeError::custom(format!(
            "unknown {kind} preset {other:?} (expected \"quick\" or \"paper\")"
        ))),
    }
}

impl Serialize for JobSpec {
    fn serialize(&self, out: &mut String) {
        match self {
            JobSpec::Study { config } => {
                out.push_str("{\"study\":");
                config.serialize(out);
            }
            JobSpec::Scale { config } => {
                out.push_str("{\"scale\":");
                config.serialize(out);
            }
        }
        out.push('}');
    }
}

impl Deserialize for JobSpec {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, SerdeError> {
        de.variant("job object", |de, tag| match tag {
            "study" => Ok(JobSpec::Study {
                config: payload(de, "study", StudyConfig::quick, StudyConfig::paper)?,
            }),
            "scale" => Ok(JobSpec::Scale {
                config: payload(de, "scale", ScaleConfig::quick, ScaleConfig::paper)?,
            }),
            other => Err(SerdeError::unknown_variant(other)),
        })
    }
}

/// A finished job's deterministic payload: bit-identical across
/// transports, caches, and parallelism — the e2e suite compares
/// serialized results byte for byte.
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
}

impl Serialize for JobResult {
    fn serialize(&self, out: &mut String) {
        match self {
            JobResult::Study { study, comparison } => {
                out.push_str("{\"study\":{\"study\":");
                study.serialize(out);
                out.push_str(",\"comparison\":");
                comparison.serialize(out);
                out.push_str("}}");
            }
            JobResult::Scale { study } => {
                out.push_str("{\"scale\":");
                study.serialize(out);
                out.push('}');
            }
        }
    }
}

impl Deserialize for JobResult {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, SerdeError> {
        de.variant("result object", |de, tag| match tag {
            "study" => {
                let (mut study, mut comparison) = (None, None);
                de.object(|de, key| {
                    match key {
                        "study" if study.is_none() => study = Some(Study::deserialize(de)?),
                        "comparison" if comparison.is_none() => {
                            comparison = Some(Vec::<CompRow>::deserialize(de)?)
                        }
                        _ => de.skip()?,
                    }
                    Ok(())
                })?;
                Ok(JobResult::Study {
                    study: study.ok_or_else(|| SerdeError::missing_field("result.study"))?,
                    comparison: comparison
                        .ok_or_else(|| SerdeError::missing_field("result.comparison"))?,
                })
            }
            "scale" => Ok(JobResult::Scale {
                study: ScaleStudy::deserialize(de)?,
            }),
            other => Err(SerdeError::unknown_variant(other)),
        })
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
    fn serialize(&self, out: &mut String) {
        serde::write_str(self.as_str(), out);
    }
}

impl Deserialize for JobState {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, SerdeError> {
        let s = de.str()?;
        JobState::parse(&s).ok_or_else(|| SerdeError::unknown_variant(&s))
    }
}

/// One job's full status, as a client reads it: what `GET /v1/jobs/{id}`
/// returns and what the NDJSON progress stream emits per line. The server
/// writes those lines itself (`fx8_serve`'s `Job::render`); this type only
/// parses them. `result`/`error` appear only in terminal states, and the
/// hand-written deserializer tolerates their absence.
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

impl Deserialize for JobStatus {
    fn deserialize(de: &mut Deserializer<'_>) -> Result<Self, SerdeError> {
        let (mut api, mut id, mut state) = (None, None, None);
        let (mut sessions_done, mut sessions_total, mut wall_s) = (None, None, None);
        let (mut result, mut error) = (None, None);
        de.object(|de, key| {
            match key {
                "api" if api.is_none() => api = Some(u32::deserialize(de)?),
                "id" if id.is_none() => id = Some(u64::deserialize(de)?),
                "state" if state.is_none() => state = Some(JobState::deserialize(de)?),
                "sessions_done" if sessions_done.is_none() => {
                    sessions_done = Some(u64::deserialize(de)?)
                }
                "sessions_total" if sessions_total.is_none() => {
                    sessions_total = Some(u64::deserialize(de)?)
                }
                "wall_s" if wall_s.is_none() => wall_s = Some(f64::deserialize(de)?),
                "result" if result.is_none() => result = Some(JobResult::deserialize(de)?),
                "error" if error.is_none() => error = Some(ApiError::deserialize(de)?),
                _ => de.skip()?,
            }
            Ok(())
        })?;
        let req = |name: &str| SerdeError::missing_field(&format!("JobStatus.{name}"));
        Ok(JobStatus {
            api: api.ok_or_else(|| req("api"))?,
            id: id.ok_or_else(|| req("id"))?,
            state: state.ok_or_else(|| req("state"))?,
            sessions_done: sessions_done.ok_or_else(|| req("sessions_done"))?,
            sessions_total: sessions_total.ok_or_else(|| req("sessions_total"))?,
            wall_s: wall_s.ok_or_else(|| req("wall_s"))?,
            result,
            error,
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
    /// The run's observability: one slice per session, the run's wall
    /// clock and its cache counters (every job kind fills it).
    pub study_obs: Option<StudyObservability>,
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
    let (result, obs) = match &req.job {
        JobSpec::Study { config } => {
            let (study, obs) = Study::run(config.clone(), cache, hooks)?;
            let comparison = report::comparison(&study);
            (JobResult::Study { study, comparison }, obs)
        }
        JobSpec::Scale { config } => {
            let (study, obs) = ScaleStudy::run(config, cache, hooks)?;
            (JobResult::Scale { study }, obs)
        }
    };
    Ok(JobOutcome {
        result,
        study_obs: Some(obs),
    })
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
        assert_eq!(status(codes::JOB_EXPIRED), 410);
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
        // `bench` is not a job kind (`reproduce bench` is a CLI harness).
        let e = JobRequest::from_json(r#"{"api":1,"job":{"bench":"quick"}}"#).unwrap_err();
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

    /// A body at fx8-serve's default 1 MiB limit made of empty arrays is
    /// parsed when they sit under an unknown key (skipped, allocating
    /// nothing) and rejected at the first one in a typed field.
    #[test]
    fn an_empty_array_flood_parses_or_fails_typed() {
        let flood = |head: &str, tail: &str| {
            let n = ((1 << 20) - head.len() - tail.len() - 1) / 3;
            format!("{head}[{}[]]{tail}", "[],".repeat(n - 1))
        };
        let skipped = flood(r#"{"api":1,"extra":"#, r#","job":{"study":"quick"}}"#);
        assert!(skipped.len() <= 1 << 20 && skipped.len() > (1 << 20) - 3);
        let req = JobRequest::from_json(&skipped).expect("unknown key skipped");
        assert_eq!(req, JobRequest::study(StudyConfig::quick()));

        let typed = flood(r#"{"api":1,"job":{"study":{"session_hours":"#, "}}}");
        let e = JobRequest::from_json(&typed).unwrap_err();
        assert_eq!(e.code, codes::BAD_JSON);
        assert!(
            e.message.contains("expected f64, found array"),
            "{}",
            e.message
        );
    }

    /// Status lines in the server's shape (integral `wall_s` written
    /// without a fraction, absent `result`/`error` omitted) parse.
    #[test]
    fn job_status_reads_the_server_lines() {
        let running = r#"{"api":1,"id":7,"state":"running","sessions_done":3,"sessions_total":7,"wall_s":0.25}"#;
        let status: JobStatus = serde_json::from_str(running).expect("status parses");
        assert_eq!(
            status,
            JobStatus {
                api: API_VERSION,
                id: 7,
                state: JobState::Running,
                sessions_done: 3,
                sessions_total: 7,
                wall_s: 0.25,
                result: None,
                error: None,
            }
        );

        let cancelled = r#"{"api":1,"id":7,"state":"cancelled","sessions_done":3,"sessions_total":7,"wall_s":12,"error":{"code":"job/cancelled","message":"gone"}}"#;
        let back: JobStatus = serde_json::from_str(cancelled).expect("cancelled status parses");
        assert_eq!(
            back,
            JobStatus {
                state: JobState::Cancelled,
                wall_s: 12.0,
                error: Some(ApiError::new(codes::JOB_CANCELLED, "gone")),
                ..status
            }
        );
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
}
