//! # fx8-serve — the study as a service
//!
//! A std-only HTTP/1.1 job server over the shared session cache: no
//! async runtime, no external HTTP crate — `std::net::TcpListener`,
//! connection threads that are reused (a thread that finished its
//! connection parks for the next one; a new thread starts only when none
//! is parked), and a fixed pool of job workers draining a **bounded**
//! queue into `fx8_core::executor` via the unified [`fx8_core::api`]
//! entry point. Every capability of the `reproduce`
//! CLI is a wire capability because both build the same
//! [`JobRequest`] and execute it through the
//! same [`fx8_core::api::execute_with`].
//!
//! ## Endpoints
//!
//! | route | behavior |
//! |---|---|
//! | `POST /v1/jobs` | submit a `JobRequest`; `202` with the queued status, `429 + Retry-After` when the queue is full |
//! | `GET /v1/jobs/{id}` | poll status; `?wait=1` long-polls until terminal; `410 job/expired` once the job has left the bounded record of finished jobs |
//! | `GET /v1/jobs/{id}/events` | NDJSON stream: every status line as it happens |
//! | `POST /v1/jobs/{id}/cancel`, `DELETE /v1/jobs/{id}` | request cancellation |
//! | `GET /v1/metrics` | request/job/cache counters, connection threads started |
//! | `GET /v1/healthz` | liveness + accepting flag |
//! | `POST /v1/shutdown` | graceful drain: stop accepting, finish queued jobs, exit |
//!
//! Every failure, on every route, is the same envelope the CLI prints:
//! `{"api":1,"error":{"code":"server/queue-full","message":...}}`.

pub mod http;
pub mod jobs;

use fx8_core::api::{self, codes, ApiError, JobRequest, JobState};
use fx8_core::cache::SessionCache;
use jobs::JobStore;
use std::collections::VecDeque;
use std::io::Write;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
use std::thread::JoinHandle;
use std::time::Duration;

/// How long a connection thread that finished its connection waits for
/// the next accepted one before it exits.
const CONN_IDLE: Duration = Duration::from_secs(10);

/// Everything tunable about a server.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Bind address. Port 0 picks a free port (tests do this).
    pub addr: String,
    /// Waiting jobs admitted before `POST /v1/jobs` answers 429.
    pub queue_depth: usize,
    /// Job worker threads draining the queue.
    pub workers: usize,
    /// Request body cap (bytes) before a 413.
    pub max_body_bytes: usize,
    /// Socket read timeout (ms); a dribbling client gets a 408.
    pub read_timeout_ms: u64,
    /// Long-poll (`?wait=1`) and event-stream tail timeout (ms).
    pub wait_timeout_ms: u64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:4808".to_string(),
            queue_depth: 16,
            workers: 2,
            max_body_bytes: 1024 * 1024,
            read_timeout_ms: 10_000,
            wait_timeout_ms: 30_000,
        }
    }
}

/// Monotonic counters behind `GET /v1/metrics`.
#[derive(Debug, Default)]
struct Metrics {
    http_requests: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_done: AtomicU64,
    jobs_failed: AtomicU64,
    jobs_cancelled: AtomicU64,
    rejected_busy: AtomicU64,
    responses_4xx: AtomicU64,
    responses_5xx: AtomicU64,
}

/// Shared server state: config, job store, cache, counters.
struct ServerState {
    cfg: ServeConfig,
    addr: SocketAddr,
    store: JobStore,
    cache: Option<SessionCache>,
    metrics: Metrics,
    /// Connection threads parked between connections.
    conns: Parked<TcpStream>,
    /// Set only after the queue has drained; tells the accept loop to
    /// exit. Until then HTTP stays up so pollers can collect results.
    accept_done: AtomicBool,
}

impl ServerState {
    /// Begin a graceful drain: refuse new jobs, let queued ones finish.
    /// HTTP keeps serving (submissions get 503, polls still answer)
    /// until the drain completes.
    fn begin_shutdown(&self) {
        self.store.close();
    }

    fn metrics_json(&self) -> String {
        let m = &self.metrics;
        let get = |c: &AtomicU64| c.load(Ordering::Relaxed);
        let cache_json = match &self.cache {
            Some(cache) => serde_json::to_string(&cache.stats()).expect("cache stats serialize"),
            None => "null".to_string(),
        };
        format!(
            "{{\"api\":{},\"http_requests\":{},\"jobs_submitted\":{},\"jobs_done\":{},\
             \"jobs_failed\":{},\"jobs_cancelled\":{},\"rejected_busy\":{},\
             \"responses_4xx\":{},\"responses_5xx\":{},\"queue_len\":{},\
             \"accepting\":{},\"connection_threads\":{},\"cache\":{}}}",
            api::API_VERSION,
            get(&m.http_requests),
            get(&m.jobs_submitted),
            get(&m.jobs_done),
            get(&m.jobs_failed),
            get(&m.jobs_cancelled),
            get(&m.rejected_busy),
            get(&m.responses_4xx),
            get(&m.responses_5xx),
            self.store.queue_len(),
            self.store.is_accepting(),
            self.conns.spawned.load(Ordering::Relaxed),
            cache_json,
        )
    }
}

/// A handle for talking to a running server from another thread: its
/// address and the graceful-shutdown switch.
#[derive(Clone)]
pub struct ServerHandle {
    state: Arc<ServerState>,
}

impl ServerHandle {
    /// The bound address (resolved port included).
    pub fn addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// Trigger the graceful drain from outside the accept loop.
    pub fn shutdown(&self) {
        self.state.begin_shutdown();
    }
}

/// A bound, not-yet-serving job server. [`Server::bind`] starts the
/// worker pool; [`Server::run`] enters the accept loop and returns after
/// a graceful drain.
pub struct Server {
    listener: TcpListener,
    state: Arc<ServerState>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Bind the listener and start the job workers. `cache` is the shared
    /// session store every job consults (None disables memoization).
    pub fn bind(cfg: ServeConfig, cache: Option<SessionCache>) -> std::io::Result<Server> {
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        let workers_n = cfg.workers.max(1);
        let state = Arc::new(ServerState {
            store: JobStore::new(cfg.queue_depth.max(1)),
            cfg,
            addr,
            cache,
            metrics: Metrics::default(),
            conns: Parked::new(CONN_IDLE),
            accept_done: AtomicBool::new(false),
        });
        let workers = (0..workers_n)
            .map(|_| {
                let state = state.clone();
                std::thread::spawn(move || {
                    worker_loop(&state, |job| jobs::run(job, state.cache.as_ref()));
                })
            })
            .collect();
        Ok(Server {
            listener,
            state,
            workers,
        })
    }

    /// The bound address (resolved port included).
    pub fn local_addr(&self) -> SocketAddr {
        self.state.addr
    }

    /// A clonable handle usable from other threads while `run` serves.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            state: self.state.clone(),
        }
    }

    /// Serve until shutdown, drain the queue, then return.
    ///
    /// The accept loop runs on its own thread so `run` can block on the
    /// workers: once [`ServerHandle::shutdown`] (or `POST /v1/shutdown`)
    /// closes the store, the workers finish every queued job and exit —
    /// HTTP stays up through the drain so clients can still poll — and
    /// only then is the accept loop told to stop.
    pub fn run(self) -> std::io::Result<()> {
        let state = self.state.clone();
        let listener = self.listener;
        let accept = std::thread::spawn(move || {
            for stream in listener.incoming() {
                if state.accept_done.load(Ordering::Acquire) {
                    break;
                }
                let Ok(stream) = stream else { continue };
                if let Some(stream) = state.conns.hand_off(stream) {
                    let state = state.clone();
                    std::thread::spawn(move || {
                        state
                            .conns
                            .serve(stream, |stream| handle_connection(&state, stream));
                    });
                }
            }
        });
        for w in self.workers {
            let _ = w.join();
        }
        self.state.accept_done.store(true, Ordering::Release);
        // The accept loop blocks in `accept()`; a throwaway connection
        // wakes it to observe the flag.
        let _ = TcpStream::connect(self.state.addr);
        let _ = accept.join();
        self.state.conns.close();
        Ok(())
    }
}

/// One worker: pull jobs and `exec` each until the store closes and
/// drains. A job whose execution panics ends `failed`; the worker goes
/// on to the next.
fn worker_loop(state: &ServerState, exec: impl Fn(&jobs::Job)) {
    while let Some(job) = state.store.next_job() {
        jobs::guarded(&job, &exec);
        let counter = match job.state() {
            JobState::Done => &state.metrics.jobs_done,
            JobState::Cancelled => &state.metrics.jobs_cancelled,
            _ => &state.metrics.jobs_failed,
        };
        counter.fetch_add(1, Ordering::Relaxed);
        state.store.retire(&job);
    }
}

/// Threads that finished one item (a connection) and wait for the next.
/// [`Parked::hand_off`] gives an item to a parked thread and returns it
/// only when none is parked, for the caller to start a thread on. So a
/// thread starts only when every thread is busy, an item never waits
/// behind a busy one, and how many run at once stays unbounded.
struct Parked<T> {
    state: Mutex<ParkedState<T>>,
    cv: Condvar,
    /// How long a parked thread waits for an item before it exits.
    idle: Duration,
    /// Threads started so far (every item `hand_off` returned).
    spawned: AtomicU64,
}

struct ParkedState<T> {
    /// Parked threads not yet promised an item.
    waiting: usize,
    /// Items handed to parked threads and not yet taken.
    handed: VecDeque<T>,
    /// Set once no more items come; parked threads exit.
    closed: bool,
}

impl<T> Parked<T> {
    fn new(idle: Duration) -> Self {
        Parked {
            state: Mutex::new(ParkedState {
                waiting: 0,
                handed: VecDeque::new(),
                closed: false,
            }),
            cv: Condvar::new(),
            idle,
            spawned: AtomicU64::new(0),
        }
    }

    /// A panicking item handler holds no lock, so a poisoned one is whole.
    fn lock(&self) -> MutexGuard<'_, ParkedState<T>> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Give `item` to a parked thread, or count a thread start and return
    /// the item for the caller to run [`Parked::serve`] on, on a new
    /// thread.
    fn hand_off(&self, item: T) -> Option<T> {
        let mut state = self.lock();
        if state.waiting == 0 {
            drop(state);
            self.spawned.fetch_add(1, Ordering::Relaxed);
            return Some(item);
        }
        state.waiting -= 1;
        state.handed.push_back(item);
        drop(state);
        self.cv.notify_one();
        None
    }

    /// Run `handle` on `item`, then on every item handed to this thread,
    /// until it has waited `idle` for one or the pool is closed. If
    /// `handle` panics the thread ends before it parks again, so it is
    /// never counted as waiting.
    fn serve(&self, mut item: T, handle: impl Fn(&mut T)) {
        loop {
            handle(&mut item);
            match self.park(item) {
                Some(next) => item = next,
                None => return,
            }
        }
    }

    /// Count this thread as waiting, drop the finished item (for a
    /// connection, its close is what the peer sees, so a client that
    /// sends its next request at once finds this thread parked), and wait
    /// for the next item.
    fn park(&self, done: T) -> Option<T> {
        let mut state = self.lock();
        if state.closed {
            return None;
        }
        state.waiting += 1;
        drop(state);
        drop(done);
        let (mut state, _) = self
            .cv
            .wait_timeout_while(self.lock(), self.idle, |s| s.handed.is_empty() && !s.closed)
            .unwrap_or_else(PoisonError::into_inner);
        let next = state.handed.pop_front();
        if next.is_none() {
            state.waiting -= 1;
        }
        next
    }

    /// Release every parked thread: each serves what it was already
    /// handed, then exits.
    fn close(&self) {
        self.lock().closed = true;
        self.cv.notify_all();
    }
}

/// Count a response's class and send it.
fn send(
    state: &ServerState,
    stream: &mut TcpStream,
    status: u16,
    extra: &[(&str, String)],
    body: &str,
) {
    match status {
        400..=499 => state.metrics.responses_4xx.fetch_add(1, Ordering::Relaxed),
        500..=599 => state.metrics.responses_5xx.fetch_add(1, Ordering::Relaxed),
        _ => 0,
    };
    let _ = http::respond(stream, status, "application/json", extra, body.as_bytes());
}

/// Send an [`ApiError`] as its envelope at its mapped status.
fn send_error(state: &ServerState, stream: &mut TcpStream, e: &ApiError) {
    let mut extra: Vec<(&str, String)> = Vec::new();
    if e.code == codes::QUEUE_FULL {
        state.metrics.rejected_busy.fetch_add(1, Ordering::Relaxed);
        extra.push(("retry-after", "1".to_string()));
    }
    send(state, stream, e.http_status(), &extra, &e.envelope_json());
}

/// How long [`drain`] waits for the peer's next bytes.
const DRAIN_QUIET: Duration = Duration::from_millis(250);
/// The most time [`drain`] spends on one connection, however the peer
/// paces its bytes.
const DRAIN_DEADLINE: Duration = Duration::from_secs(1);
/// The most bytes [`drain`] discards from one connection.
const DRAIN_MAX_BYTES: usize = 64 * 1024;

/// Discard whatever the peer is still sending, briefly, so closing the
/// socket after an early error response doesn't RST the response away
/// (a close with unread input makes TCP reset, and the reset discards
/// the peer's receive buffer — including the error envelope we just
/// sent). Stops at the first quiet gap, at [`DRAIN_DEADLINE`] or after
/// [`DRAIN_MAX_BYTES`], whichever comes first: a peer that keeps
/// dribbling bytes cannot hold the connection and its thread.
fn drain(stream: &mut TcpStream) {
    use std::io::Read;
    let deadline = std::time::Instant::now() + DRAIN_DEADLINE;
    let mut sink = [0u8; 4096];
    let chunk = sink.len();
    let mut left = DRAIN_MAX_BYTES;
    while left > 0 {
        let rest = deadline.saturating_duration_since(std::time::Instant::now());
        if rest.is_zero() {
            return;
        }
        let _ = stream.set_read_timeout(Some(rest.min(DRAIN_QUIET)));
        match stream.read(&mut sink[..left.min(chunk)]) {
            Ok(n) if n > 0 => left -= n,
            _ => return,
        }
    }
}

/// Serve one connection: keep-alive loop of read → route → respond.
/// The caller closes the stream.
fn handle_connection(state: &ServerState, stream: &mut TcpStream) {
    let limits = http::Limits {
        max_body_bytes: state.cfg.max_body_bytes,
        read_timeout: Duration::from_millis(state.cfg.read_timeout_ms.max(1)),
        ..http::Limits::default()
    };
    // Bytes read past the current request: a pipelined next request.
    let mut carry = Vec::new();
    loop {
        let req = match http::read_request(stream, &limits, &mut carry) {
            Ok(req) => req,
            Err(http::RecvError::Closed) => return,
            Err(http::RecvError::Timeout { bytes_so_far: 0 }) => return,
            Err(http::RecvError::Timeout { bytes_so_far }) => {
                let e = ApiError::new(
                    codes::TIMEOUT,
                    format!("request stalled after {bytes_so_far} bytes"),
                );
                send_error(state, stream, &e);
                drain(stream);
                return;
            }
            Err(http::RecvError::TooLarge { what, limit }) => {
                let e = ApiError::new(
                    codes::TOO_LARGE,
                    format!("request {what} exceeds the {limit}-byte limit"),
                );
                send_error(state, stream, &e);
                drain(stream);
                return;
            }
            Err(http::RecvError::Malformed(msg)) => {
                let e = ApiError::new(codes::BAD_JSON, format!("malformed request: {msg}"));
                send_error(state, stream, &e);
                drain(stream);
                return;
            }
        };
        state.metrics.http_requests.fetch_add(1, Ordering::Relaxed);
        let close = req.wants_close();
        let streamed = route(state, stream, &req);
        if streamed || close || !state.store.is_accepting() {
            return;
        }
    }
}

/// Dispatch one request. Returns `true` when the response was streamed
/// (NDJSON) and the connection must close.
fn route(state: &ServerState, stream: &mut TcpStream, req: &http::Request) -> bool {
    let segments: Vec<&str> = req.path.split('/').filter(|s| !s.is_empty()).collect();
    match (req.method.as_str(), segments.as_slice()) {
        ("POST", ["v1", "jobs"]) => {
            match submit(state, &req.body) {
                Ok(job) => send(state, stream, 202, &[], &job.status_json()),
                Err(e) => send_error(state, stream, &e),
            }
            false
        }
        ("GET", ["v1", "jobs", id]) => {
            match lookup(state, id) {
                Ok(job) => {
                    if req.query("wait").is_some_and(|v| v != "0") {
                        job.wait_terminal(Duration::from_millis(state.cfg.wait_timeout_ms));
                    }
                    send(state, stream, 200, &[], &job.status_json());
                }
                Err(e) => send_error(state, stream, &e),
            }
            false
        }
        ("GET", ["v1", "jobs", id, "events"]) => match lookup(state, id) {
            Ok(job) => {
                stream_events(state, stream, &job);
                true
            }
            Err(e) => {
                send_error(state, stream, &e);
                false
            }
        },
        ("POST", ["v1", "jobs", id, "cancel"]) | ("DELETE", ["v1", "jobs", id]) => {
            match lookup(state, id) {
                Ok(job) => {
                    job.request_cancel();
                    send(state, stream, 202, &[], &job.status_json());
                }
                Err(e) => send_error(state, stream, &e),
            }
            false
        }
        ("GET", ["v1", "metrics"]) => {
            send(state, stream, 200, &[], &state.metrics_json());
            false
        }
        ("GET", ["v1", "healthz"]) => {
            let body = format!(
                "{{\"api\":{},\"ok\":true,\"accepting\":{}}}",
                api::API_VERSION,
                state.store.is_accepting()
            );
            send(state, stream, 200, &[], &body);
            false
        }
        ("POST", ["v1", "shutdown"]) => {
            let body = format!(
                "{{\"api\":{},\"ok\":true,\"draining\":true}}",
                api::API_VERSION
            );
            send(state, stream, 202, &[], &body);
            state.begin_shutdown();
            false
        }
        // Known routes under other methods get a 405; everything else 404.
        (_, ["v1", "jobs"])
        | (_, ["v1", "jobs", _])
        | (_, ["v1", "jobs", _, "events"])
        | (_, ["v1", "jobs", _, "cancel"])
        | (_, ["v1", "metrics"])
        | (_, ["v1", "healthz"])
        | (_, ["v1", "shutdown"]) => {
            let e = ApiError::new(
                codes::BAD_METHOD,
                format!("{} is not supported on {}", req.method, req.path),
            );
            send_error(state, stream, &e);
            false
        }
        _ => {
            let e = ApiError::new(codes::NOT_FOUND, format!("no route matches {}", req.path));
            send_error(state, stream, &e);
            false
        }
    }
}

/// Parse, validate, and enqueue one job submission.
fn submit(state: &ServerState, body: &[u8]) -> Result<Arc<jobs::Job>, ApiError> {
    let text = std::str::from_utf8(body)
        .map_err(|_| ApiError::new(codes::BAD_JSON, "request body is not UTF-8"))?;
    let request = JobRequest::from_json(text)?;
    request.validate()?;
    let job = state.store.submit(request)?;
    state.metrics.jobs_submitted.fetch_add(1, Ordering::Relaxed);
    Ok(job)
}

/// Resolve a path id segment to its job.
fn lookup(state: &ServerState, id: &str) -> Result<Arc<jobs::Job>, ApiError> {
    let id: u64 = id
        .parse()
        .map_err(|_| ApiError::new(codes::JOB_NOT_FOUND, format!("bad job id {id:?}")))?;
    state.store.get(id)
}

/// Stream a job's status lines as NDJSON until it is terminal. The
/// response has no `Content-Length`; `Connection: close` delimits it.
fn stream_events(state: &ServerState, stream: &mut TcpStream, job: &jobs::Job) {
    let head = "HTTP/1.1 200 OK\r\ncontent-type: application/x-ndjson\r\nconnection: close\r\n\r\n";
    if stream.write_all(head.as_bytes()).is_err() {
        return;
    }
    let tail_wait = Duration::from_millis(state.cfg.wait_timeout_ms.clamp(50, 1000));
    let mut from = 0;
    loop {
        let (lines, next, terminal) = job.events_after(from, tail_wait);
        for line in &lines {
            if stream.write_all(line.as_bytes()).is_err() || stream.write_all(b"\n").is_err() {
                return;
            }
        }
        let _ = stream.flush();
        from = next;
        if terminal && lines.is_empty() {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx8_core::study::StudyConfig;
    use std::sync::mpsc;
    use std::thread::JoinHandle;
    use std::time::Instant;

    /// Poll `cond` until it holds; fail after 10 s.
    fn eventually(what: &str, cond: impl Fn() -> bool) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !cond() {
            assert!(Instant::now() < deadline, "timed out waiting for {what}");
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Hand `item` to `pool`, starting a thread when none is parked. The
    /// handler reports each item on `tx` and panics on 0.
    fn start(pool: &Arc<Parked<u32>>, tx: &mpsc::Sender<u32>, item: u32) -> Option<JoinHandle<()>> {
        let item = pool.hand_off(item)?;
        let (pool, tx) = (pool.clone(), tx.clone());
        Some(std::thread::spawn(move || {
            pool.serve(item, |&mut x| {
                assert_ne!(x, 0, "the test handler panics on item 0");
                tx.send(x).unwrap();
            });
        }))
    }

    fn waiting(pool: &Parked<u32>) -> usize {
        pool.lock().waiting
    }

    #[test]
    fn parked_threads_are_reused_and_a_panic_never_counts_as_waiting() {
        let pool = Arc::new(Parked::new(Duration::from_secs(60)));
        let (tx, rx) = mpsc::channel();
        let first = start(&pool, &tx, 1).expect("nothing parked: a thread starts");
        assert_eq!(rx.recv().unwrap(), 1);
        eventually("the first thread to park", || waiting(&pool) == 1);

        // Handed to the parked thread, whose handler panics on it.
        assert!(start(&pool, &tx, 0).is_none());
        assert!(first.join().is_err(), "the handler panicked");
        assert_eq!(waiting(&pool), 0, "a thread that panicked is not parked");

        let second = start(&pool, &tx, 2).expect("nothing parked: a thread starts");
        assert_eq!(rx.recv().unwrap(), 2);
        eventually("the second thread to park", || waiting(&pool) == 1);
        for item in 3..20 {
            assert!(start(&pool, &tx, item).is_none(), "item {item} reuses");
            assert_eq!(rx.recv().unwrap(), item);
            eventually("the thread to park again", || waiting(&pool) == 1);
        }
        assert_eq!(pool.spawned.load(Ordering::Relaxed), 2);

        pool.close();
        second
            .join()
            .expect("a closed pool releases its parked thread");
        assert_eq!(waiting(&pool), 0);
    }

    #[test]
    fn a_parked_thread_exits_after_its_idle_wait() {
        let pool = Arc::new(Parked::new(Duration::from_millis(20)));
        let (tx, rx) = mpsc::channel();
        let first = start(&pool, &tx, 1).expect("a thread starts");
        assert_eq!(rx.recv().unwrap(), 1);
        first.join().expect("the idle thread exits cleanly");
        assert_eq!(waiting(&pool), 0);
        let second = start(&pool, &tx, 2).expect("nothing parked: a thread starts");
        assert_eq!(rx.recv().unwrap(), 2);
        second.join().unwrap();
        assert_eq!(pool.spawned.load(Ordering::Relaxed), 2);
    }

    /// A panicking execution fails its job with `server/internal`, counts
    /// in `jobs_failed`, and the worker runs the next job.
    #[test]
    fn a_worker_survives_a_panicking_job() {
        let state = ServerState {
            cfg: ServeConfig::default(),
            addr: "127.0.0.1:0".parse().unwrap(),
            store: JobStore::new(4),
            cache: None,
            metrics: Metrics::default(),
            conns: Parked::new(CONN_IDLE),
            accept_done: AtomicBool::new(false),
        };
        let mut cfg = StudyConfig::quick();
        cfg.n_random = 1;
        cfg.session_hours = vec![0.05];
        cfg.n_triggered = 0;
        cfg.n_transition = 0;
        let panics = state.store.submit(JobRequest::study(cfg.clone())).unwrap();
        let runs = state.store.submit(JobRequest::study(cfg)).unwrap();
        state.store.close();
        worker_loop(&state, |job| {
            assert_ne!(job.id, panics.id, "the first job's execution panics");
            jobs::run(job, None);
        });
        assert_eq!(panics.state(), JobState::Failed);
        assert!(panics.status_json().contains(codes::INTERNAL));
        assert_eq!(runs.state(), JobState::Done);
        let m = &state.metrics;
        assert_eq!(m.jobs_failed.load(Ordering::Relaxed), 1);
        assert_eq!(m.jobs_done.load(Ordering::Relaxed), 1);
    }
}

/// A tiny blocking HTTP client for the tests and the bench hammer: one
/// request per connection (`Connection: close`), response read to EOF.
pub mod client {
    use std::io::{Read, Write};
    use std::net::{SocketAddr, TcpStream};

    /// One parsed response.
    #[derive(Debug)]
    pub struct Response {
        /// Status code from the status line.
        pub status: u16,
        /// Headers with lowercased names.
        pub headers: Vec<(String, String)>,
        /// The body bytes.
        pub body: Vec<u8>,
    }

    impl Response {
        /// First header with this (lowercase) name.
        pub fn header(&self, name: &str) -> Option<&str> {
            self.headers
                .iter()
                .find(|(n, _)| n == name)
                .map(|(_, v)| v.as_str())
        }

        /// The body as (lossy) UTF-8.
        pub fn body_str(&self) -> String {
            String::from_utf8_lossy(&self.body).into_owned()
        }
    }

    /// Issue one request and read the full response.
    pub fn request(
        addr: SocketAddr,
        method: &str,
        path: &str,
        body: Option<&str>,
    ) -> std::io::Result<Response> {
        let mut stream = TcpStream::connect(addr)?;
        let body = body.unwrap_or("");
        let head = format!(
            "{method} {path} HTTP/1.1\r\nhost: {addr}\r\nconnection: close\r\n\
             content-length: {}\r\ncontent-type: application/json\r\n\r\n",
            body.len()
        );
        stream.write_all(head.as_bytes())?;
        stream.write_all(body.as_bytes())?;
        stream.flush()?;
        let mut raw = Vec::new();
        stream.read_to_end(&mut raw)?;
        parse_response(&raw)
    }

    fn parse_response(raw: &[u8]) -> std::io::Result<Response> {
        let bad = |msg: &str| std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_string());
        let head_end = raw
            .windows(4)
            .position(|w| w == b"\r\n\r\n")
            .ok_or_else(|| bad("no response head"))?;
        let head = String::from_utf8_lossy(&raw[..head_end]).into_owned();
        let mut lines = head.split("\r\n");
        let status_line = lines.next().unwrap_or_default();
        let status: u16 = status_line
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| bad("bad status line"))?;
        let headers = lines
            .filter_map(|l| l.split_once(':'))
            .map(|(n, v)| (n.trim().to_ascii_lowercase(), v.trim().to_string()))
            .collect();
        Ok(Response {
            status,
            headers,
            body: raw[head_end + 4..].to_vec(),
        })
    }
}
