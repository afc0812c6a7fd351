//! The job registry: a bounded queue of [`Job`]s in front of the core
//! executor, with condvar-backed progress streaming.
//!
//! Every accepted request becomes an `Arc<Job>` visible both to the
//! worker running it and to every connection polling or streaming it.
//! Status is rendered to JSON *at mutation time* (one line per state
//! change or finished session), so pollers and the NDJSON stream read
//! prerendered strings instead of reserializing multi-megabyte results
//! per request — the terminal result is serialized once and spliced in.

use fx8_core::api::{self, ApiError, JobRequest, JobState, RunHooks, API_VERSION};
use fx8_core::cache::SessionCache;
use serde::Serialize;
use std::collections::{HashMap, VecDeque};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// The mutable half of a job, guarded by its mutex.
#[derive(Debug)]
struct JobInner {
    state: JobState,
    sessions_done: u64,
    wall_s: f64,
    error: Option<ApiError>,
    /// Every status line this job has emitted, in order — the NDJSON
    /// stream replays these and then follows the tail. The terminal `done`
    /// line is the only copy of the serialized result.
    events: Vec<Arc<String>>,
}

/// One accepted job: the request, its lifecycle, and its progress stream.
#[derive(Debug)]
pub struct Job {
    /// Server-assigned id.
    pub id: u64,
    /// The validated request being executed.
    pub request: JobRequest,
    /// Sessions the request schedules (the progress denominator).
    pub sessions_total: u64,
    cancel: api::CancelToken,
    inner: Mutex<JobInner>,
    cv: Condvar,
}

impl Job {
    fn new(id: u64, request: JobRequest) -> Arc<Job> {
        let sessions_total = request.sessions_total() as u64;
        let job = Arc::new(Job {
            id,
            request,
            sessions_total,
            cancel: api::CancelToken::new(),
            inner: Mutex::new(JobInner {
                state: JobState::Queued,
                sessions_done: 0,
                wall_s: 0.0,
                error: None,
                events: Vec::new(),
            }),
            cv: Condvar::new(),
        });
        let mut inner = job.lock();
        let line = job.render(&inner, None);
        inner.events.push(line);
        drop(inner);
        job
    }

    /// The job's mutable half. A panic while it was held (see [`guarded`])
    /// leaves whole status lines behind, so a poisoned lock is taken as is.
    fn lock(&self) -> MutexGuard<'_, JobInner> {
        self.inner.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Render the current status as one JSON line. The terminal `result`
    /// is spliced in preserialized, so this never walks the study tree.
    fn render(&self, inner: &JobInner, result: Option<&str>) -> Arc<String> {
        let mut s = String::with_capacity(160 + result.map_or(0, str::len));
        let _ = write!(
            s,
            "{{\"api\":{},\"id\":{},\"state\":\"{}\",\"sessions_done\":{},\"sessions_total\":{},\"wall_s\":{}",
            API_VERSION,
            self.id,
            inner.state.as_str(),
            inner.sessions_done,
            self.sessions_total,
            inner.wall_s,
        );
        if let Some(r) = result {
            s.push_str(",\"result\":");
            s.push_str(r);
        }
        if let Some(e) = &inner.error {
            s.push_str(",\"error\":");
            e.serialize(&mut s);
        }
        s.push('}');
        Arc::new(s)
    }

    /// Apply a mutation, emit its status line (with `result` spliced in,
    /// for the terminal `done` line), and wake every waiter.
    fn mutate(&self, result: Option<&str>, f: impl FnOnce(&mut JobInner)) {
        let mut inner = self.lock();
        f(&mut inner);
        let line = self.render(&inner, result);
        inner.events.push(line);
        drop(inner);
        self.cv.notify_all();
    }

    /// The latest status line (what `GET /v1/jobs/{id}` returns).
    pub fn status_json(&self) -> Arc<String> {
        self.lock()
            .events
            .last()
            .expect("jobs are born with a line")
            .clone()
    }

    /// Current lifecycle state.
    pub fn state(&self) -> JobState {
        self.lock().state
    }

    /// Ask the job to stop. Queued jobs cancel before running; running
    /// jobs stop scheduling new sessions and finish `cancelled`.
    pub fn request_cancel(&self) {
        self.cancel.cancel();
    }

    /// Block until the job is terminal or `timeout` passes; returns
    /// whether it is terminal.
    pub fn wait_terminal(&self, timeout: Duration) -> bool {
        let (inner, _) = self
            .cv
            .wait_timeout_while(self.lock(), timeout, |i| !i.state.is_terminal())
            .unwrap_or_else(PoisonError::into_inner);
        inner.state.is_terminal()
    }

    /// Status lines after index `from`, blocking up to `timeout` for a
    /// new one. Returns `(lines, next_index, terminal)`.
    pub fn events_after(&self, from: usize, timeout: Duration) -> (Vec<Arc<String>>, usize, bool) {
        let (inner, _) = self
            .cv
            .wait_timeout_while(self.lock(), timeout, |i| {
                i.events.len() <= from && !i.state.is_terminal()
            })
            .unwrap_or_else(PoisonError::into_inner);
        let lines: Vec<Arc<String>> = inner.events.get(from..).unwrap_or(&[]).to_vec();
        (lines, inner.events.len(), inner.state.is_terminal())
    }
}

/// Run one job to a terminal state against the shared cache.
///
/// Called from a worker thread with the job already marked `running` (or
/// directly marked `cancelled` if the token fired while it queued).
pub fn run(job: &Job, cache: Option<&SessionCache>) {
    if job.cancel.is_cancelled() {
        job.mutate(None, |i| {
            i.state = JobState::Cancelled;
            i.error = Some(ApiError::cancelled());
        });
        return;
    }
    let started = Instant::now();
    job.mutate(None, |i| i.state = JobState::Running);
    let on_session = |s: api::SessionDone| {
        job.mutate(None, |i| {
            i.sessions_done = s.done as u64;
            i.wall_s = started.elapsed().as_secs_f64();
        });
    };
    let hooks = RunHooks {
        cancel: Some(&job.cancel),
        on_session: Some(&on_session),
    };
    let outcome = api::execute_with(&job.request, cache, &hooks);
    let wall_s = started.elapsed().as_secs_f64();
    match outcome {
        Ok(outcome) => {
            let result = serde_json::to_string(&outcome.result).expect("job result serializes");
            job.mutate(Some(&result), |i| {
                i.state = JobState::Done;
                i.wall_s = wall_s;
            });
        }
        Err(e) => {
            let state = if e.code == api::codes::JOB_CANCELLED {
                JobState::Cancelled
            } else {
                JobState::Failed
            };
            job.mutate(None, |i| {
                i.state = state;
                i.wall_s = wall_s;
                i.error = Some(e);
            });
        }
    }
}

/// Run `exec` on `job` behind an unwind guard. A panic inside it ends
/// the job `failed` with [`api::codes::INTERNAL`] instead of leaving it
/// `running` for good, and the calling worker lives on to run the next.
pub fn guarded(job: &Job, exec: impl FnOnce(&Job)) {
    let Err(panic) = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| exec(job))) else {
        return;
    };
    let what = panic
        .downcast_ref::<&str>()
        .copied()
        .or_else(|| panic.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("no message");
    let error = ApiError::new(
        api::codes::INTERNAL,
        format!("job execution panicked: {what}"),
    );
    job.mutate(None, |i| {
        i.state = JobState::Failed;
        i.error = Some(error);
    });
}

/// Finished jobs kept for polling. Past this many, the oldest finished job
/// is dropped and its id answers [`api::codes::JOB_EXPIRED`].
pub const MAX_FINISHED_JOBS: usize = 1024;

/// The bounded registry: accepted jobs by id plus the FIFO feeding the
/// workers. `queue_depth` bounds *waiting* jobs only — with `w` workers,
/// at most `queue_depth + w` jobs are admitted-but-unfinished — and
/// [`MAX_FINISHED_JOBS`] bounds the finished ones kept.
pub struct JobStore {
    jobs: Mutex<HashMap<u64, Arc<Job>>>,
    /// Ids of the finished jobs still in `jobs`, oldest first.
    finished: Mutex<VecDeque<u64>>,
    queue: Mutex<VecDeque<Arc<Job>>>,
    queue_cv: Condvar,
    next_id: AtomicU64,
    queue_depth: usize,
    accepting: AtomicBool,
}

impl JobStore {
    /// A store admitting at most `queue_depth` waiting jobs.
    pub fn new(queue_depth: usize) -> JobStore {
        JobStore {
            jobs: Mutex::new(HashMap::new()),
            finished: Mutex::new(VecDeque::new()),
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            next_id: AtomicU64::new(1),
            queue_depth,
            accepting: AtomicBool::new(true),
        }
    }

    /// Admit a validated request, or reject with the typed backpressure /
    /// shutdown error.
    pub fn submit(&self, request: JobRequest) -> Result<Arc<Job>, ApiError> {
        let mut queue = self.queue.lock().unwrap();
        if !self.accepting.load(Ordering::Acquire) {
            return Err(ApiError::new(
                api::codes::SHUTTING_DOWN,
                "server is draining for shutdown and accepts no new jobs",
            ));
        }
        if queue.len() >= self.queue_depth {
            return Err(ApiError::new(
                api::codes::QUEUE_FULL,
                format!(
                    "job queue is full ({} waiting); retry after a beat",
                    queue.len()
                ),
            ));
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Job::new(id, request);
        self.jobs.lock().unwrap().insert(id, job.clone());
        queue.push_back(job.clone());
        drop(queue);
        self.queue_cv.notify_one();
        Ok(job)
    }

    /// Look up an accepted job by id. Ids are handed out in order and
    /// never reused, so an issued id that is no longer held belongs to a
    /// finished job that [`JobStore::retire`] dropped.
    pub fn get(&self, id: u64) -> Result<Arc<Job>, ApiError> {
        if let Some(job) = self.jobs.lock().unwrap().get(&id) {
            return Ok(job.clone());
        }
        if id > 0 && id < self.next_id.load(Ordering::Relaxed) {
            return Err(ApiError::new(
                api::codes::JOB_EXPIRED,
                format!(
                    "job {id} finished and was dropped; the server keeps the last {MAX_FINISHED_JOBS} finished jobs"
                ),
            ));
        }
        Err(ApiError::new(
            api::codes::JOB_NOT_FOUND,
            format!("no job with id {id}"),
        ))
    }

    /// Record that `job` reached a terminal state, dropping the oldest
    /// finished job once more than [`MAX_FINISHED_JOBS`] are kept.
    pub fn retire(&self, job: &Job) {
        let mut finished = self.finished.lock().unwrap();
        finished.push_back(job.id);
        if finished.len() > MAX_FINISHED_JOBS {
            let oldest = finished.pop_front().expect("over the bound, so not empty");
            self.jobs.lock().unwrap().remove(&oldest);
        }
    }

    /// Waiting jobs right now.
    pub fn queue_len(&self) -> usize {
        self.queue.lock().unwrap().len()
    }

    /// Block for the next job to run. Returns `None` only after
    /// [`JobStore::close`] once the queue has drained — the workers'
    /// signal to exit, which is what makes shutdown graceful.
    pub fn next_job(&self) -> Option<Arc<Job>> {
        let mut queue = self.queue.lock().unwrap();
        loop {
            if let Some(job) = queue.pop_front() {
                return Some(job);
            }
            if !self.accepting.load(Ordering::Acquire) {
                return None;
            }
            queue = self.queue_cv.wait(queue).unwrap();
        }
    }

    /// Stop admitting jobs and wake every idle worker so it can drain
    /// and exit.
    pub fn close(&self) {
        self.accepting.store(false, Ordering::Release);
        self.queue_cv.notify_all();
    }

    /// Is the store still admitting jobs?
    pub fn is_accepting(&self) -> bool {
        self.accepting.load(Ordering::Acquire)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx8_core::study::StudyConfig;

    fn tiny_request() -> JobRequest {
        let mut cfg = StudyConfig::quick();
        cfg.n_random = 1;
        cfg.session_hours = vec![0.05];
        cfg.n_triggered = 0;
        cfg.n_transition = 0;
        JobRequest::study(cfg)
    }

    #[test]
    fn queue_depth_bounds_waiting_jobs() {
        let store = JobStore::new(1);
        store.submit(tiny_request()).expect("first job admitted");
        let err = store.submit(tiny_request()).unwrap_err();
        assert_eq!(err.code, api::codes::QUEUE_FULL);
        // Draining one slot readmits.
        let job = store.next_job().expect("job queued");
        assert_eq!(job.id, 1);
        store.submit(tiny_request()).expect("slot freed");
    }

    #[test]
    fn closed_store_rejects_and_releases_workers() {
        let store = JobStore::new(4);
        store.submit(tiny_request()).unwrap();
        store.close();
        let err = store.submit(tiny_request()).unwrap_err();
        assert_eq!(err.code, api::codes::SHUTTING_DOWN);
        // The queued job still drains; then workers get their exit signal.
        assert!(store.next_job().is_some());
        assert!(store.next_job().is_none());
    }

    #[test]
    fn run_produces_terminal_status_lines() {
        let store = JobStore::new(4);
        let job = store.submit(tiny_request()).unwrap();
        assert_eq!(job.state(), JobState::Queued);
        run(&job, None);
        assert_eq!(job.state(), JobState::Done);
        let status = job.status_json();
        assert!(status.contains("\"state\":\"done\""));
        assert!(status.contains("\"result\":{\"study\":"));
        let (lines, _, terminal) = job.events_after(0, Duration::from_millis(1));
        assert!(terminal);
        // queued, running, one session, done.
        assert_eq!(lines.len(), 4);
        assert!(lines[0].contains("\"state\":\"queued\""));
        assert!(lines[1].contains("\"state\":\"running\""));

        // The rendered line parses back as a JobStatus.
        let parsed: api::JobStatus = serde_json::from_str(&status).expect("status parses");
        assert_eq!(parsed.id, job.id);
        assert!(parsed.result.is_some());
    }

    /// Status lines are a wire contract and `render` is their one writer:
    /// these bytes were recorded on earlier builds, so a writer change that
    /// moves one byte fails here.
    #[test]
    fn status_line_bytes_are_pinned() {
        let job = Job::new(9, tiny_request());
        let mut inner = job.inner.lock().unwrap();
        let queued =
            r#"{"api":1,"id":9,"state":"queued","sessions_done":0,"sessions_total":1,"wall_s":0}"#;
        assert_eq!(*job.render(&inner, None), queued);
        inner.state = JobState::Failed;
        inner.sessions_done = 1;
        inner.wall_s = 0.5;
        inner.error = Some(ApiError::new(
            "config/zero-mem-buses",
            "invalid \"mem_buses\":\t0",
        ));
        let failed = r#"{"api":1,"id":9,"state":"failed","sessions_done":1,"sessions_total":1,"wall_s":0.5,"error":{"code":"config/zero-mem-buses","message":"invalid \"mem_buses\":\t0"}}"#;
        assert_eq!(*job.render(&inner, None), failed);
        inner.state = JobState::Cancelled;
        inner.sessions_done = 0;
        inner.wall_s = 12.0;
        inner.error = Some(ApiError::cancelled());
        let cancelled = r#"{"api":1,"id":9,"state":"cancelled","sessions_done":0,"sessions_total":1,"wall_s":12,"error":{"code":"job/cancelled","message":"job was cancelled before completion"}}"#;
        assert_eq!(*job.render(&inner, None), cancelled);
        inner.sessions_done = 1;
        inner.state = JobState::Done;
        inner.wall_s = 1e-7;
        inner.error = None;
        let done = r#"{"api":1,"id":9,"state":"done","sessions_done":1,"sessions_total":1,"wall_s":0.0000001,"result":{"scale":{"x":[1,2.5]}}}"#;
        assert_eq!(
            *job.render(&inner, Some(r#"{"scale":{"x":[1,2.5]}}"#)),
            done
        );
    }

    #[test]
    fn a_panic_inside_the_guard_fails_the_job() {
        let job = Job::new(1, tiny_request());
        guarded(&job, |job| {
            job.mutate(None, |i| i.state = JobState::Running);
            panic!("boom");
        });
        assert_eq!(job.state(), JobState::Failed);
        let status: api::JobStatus = serde_json::from_str(&job.status_json()).unwrap();
        let error = status.error.expect("a failed job carries its error");
        assert_eq!(error.code, api::codes::INTERNAL);
        assert!(error.message.contains("boom"), "{}", error.message);

        // A panic while the job's own lock is held poisons it; the guard
        // still gets the job to its terminal line.
        let job = Job::new(2, tiny_request());
        guarded(&job, |job| job.mutate(None, |_| panic!("inside the lock")));
        assert_eq!(job.state(), JobState::Failed);
        assert!(job.wait_terminal(Duration::from_millis(1)));
    }

    #[test]
    fn finished_jobs_past_the_bound_expire_oldest_first() {
        let store = JobStore::new(MAX_FINISHED_JOBS + 2);
        let jobs: Vec<Arc<Job>> = (0..MAX_FINISHED_JOBS + 2)
            .map(|_| store.submit(tiny_request()).unwrap())
            .collect();
        // Finish all but the first, newest first, then the first.
        for job in jobs[1..].iter().rev().chain(&jobs[..1]) {
            store.retire(job);
        }
        let code = |id| store.get(id).map(|j| j.id).map_err(|e| e.code);
        // The two finished first (the last two ids) were dropped.
        let last = jobs.len() as u64;
        assert_eq!(code(last), Err(api::codes::JOB_EXPIRED.to_string()));
        assert_eq!(code(last - 1), Err(api::codes::JOB_EXPIRED.to_string()));
        assert_eq!(code(last - 2), Ok(last - 2));
        assert_eq!(code(1), Ok(1));
        assert_eq!(code(0), Err(api::codes::JOB_NOT_FOUND.to_string()));
        assert_eq!(code(last + 1), Err(api::codes::JOB_NOT_FOUND.to_string()));
        assert_eq!(store.jobs.lock().unwrap().len(), MAX_FINISHED_JOBS);
    }

    #[test]
    fn cancelled_while_queued_never_runs() {
        let store = JobStore::new(4);
        let job = store.submit(tiny_request()).unwrap();
        job.request_cancel();
        run(&job, None);
        assert_eq!(job.state(), JobState::Cancelled);
        let status = job.status_json();
        assert!(status.contains(api::codes::JOB_CANCELLED));
        assert!(job.wait_terminal(Duration::from_millis(1)));
    }
}
