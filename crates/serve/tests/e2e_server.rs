//! End-to-end: a real server on a real TCP port, exercised through the
//! blocking client, checked against an in-process run of the same
//! `JobRequest` for bit-identical results — the "CLI and wire execute
//! the same entry point" contract, proven over the loopback.

use fx8_core::api::{self, JobRequest, JobState, JobStatus};
use fx8_core::cache::SessionCache;
use fx8_core::study::StudyConfig;
use fx8_serve::client;
use fx8_serve::{ServeConfig, Server};
use serde::Value;
use std::net::SocketAddr;

/// Bind a server on a free port with a fresh in-memory cache and serve
/// it from a background thread; returns its address and shutdown handle.
fn spawn_server(cfg: ServeConfig) -> (SocketAddr, fx8_serve::ServerHandle) {
    let server = Server::bind(cfg, Some(SessionCache::in_memory())).expect("bind on port 0");
    let addr = server.local_addr();
    let handle = server.handle();
    std::thread::spawn(move || server.run().expect("server runs"));
    (addr, handle)
}

fn test_config() -> ServeConfig {
    ServeConfig {
        addr: "127.0.0.1:0".to_string(),
        wait_timeout_ms: 60_000,
        ..ServeConfig::default()
    }
}

fn parse_status(body: &str) -> JobStatus {
    serde_json::from_str(body).expect("response parses as JobStatus")
}

/// Extract the `"result"` subtree of a status body, reserialized. The
/// vendored `Value` keeps exact number lexemes, so reserialization is
/// byte-faithful and the comparison below is bit-for-bit.
fn result_json(body: &str) -> String {
    let v: Value = serde_json::from_str(body).expect("status is JSON");
    serde_json::to_string(v.get("result").expect("status has a result")).unwrap()
}

/// The server's `/v1/metrics` body.
fn metrics(addr: SocketAddr) -> Value {
    let resp = client::request(addr, "GET", "/v1/metrics", None).unwrap();
    assert_eq!(resp.status, 200);
    serde_json::from_str(&resp.body_str()).unwrap()
}

/// The integer at key `k` of a metrics object.
fn num(v: &Value, k: &str) -> u64 {
    match v.get(k) {
        Some(Value::Num(n)) => n.parse().unwrap(),
        other => panic!("metrics {k}: {other:?}"),
    }
}

/// The server's session-cache (hits, misses) so far.
fn cache_counts(addr: SocketAddr) -> (u64, u64) {
    let m = metrics(addr);
    let cache = m.get("cache").expect("metrics expose cache stats");
    (num(cache, "hits"), num(cache, "misses"))
}

#[test]
fn quick_study_over_tcp_matches_in_process_and_rides_the_cache() {
    let (addr, handle) = spawn_server(test_config());

    // Submit the quick study as the preset request.
    let post_body = r#"{"api":1,"job":{"study":"quick"}}"#;
    let resp = client::request(addr, "POST", "/v1/jobs", Some(post_body)).unwrap();
    assert_eq!(resp.status, 202, "submit accepted: {}", resp.body_str());
    let queued = parse_status(&resp.body_str());
    assert_eq!(queued.api, api::API_VERSION);
    assert!(!queued.state.is_terminal());
    assert!(queued.sessions_total > 0);

    // Long-poll to completion.
    let path = format!("/v1/jobs/{}?wait=1", queued.id);
    let resp = client::request(addr, "GET", &path, None).unwrap();
    assert_eq!(resp.status, 200);
    let done_body = resp.body_str();
    let done = parse_status(&done_body);
    assert_eq!(done.state, JobState::Done);
    assert_eq!(done.sessions_done, done.sessions_total);
    assert!(done.result.is_some());
    assert!(done.error.is_none());

    // The same request executed in-process (the CLI path) yields a
    // bit-identical serialized result.
    let req = JobRequest::study(StudyConfig::quick());
    let local_cache = SessionCache::in_memory();
    let outcome = api::execute(&req, Some(&local_cache)).expect("in-process run");
    let local_json = serde_json::to_string(&outcome.result).unwrap();
    assert_eq!(
        result_json(&done_body),
        local_json,
        "wire result and in-process result must be bit-identical"
    );

    // A second identical POST is answered from the session cache: the
    // server's cache counters move by exactly one hit per session and no
    // miss across it, and the server-reported wall is at least 100x below
    // the cold run's.
    let before = cache_counts(addr);
    let resp = client::request(addr, "POST", "/v1/jobs", Some(post_body)).unwrap();
    assert_eq!(resp.status, 202);
    let second = parse_status(&resp.body_str());
    let path = format!("/v1/jobs/{}?wait=1", second.id);
    let resp = client::request(addr, "GET", &path, None).unwrap();
    let warm_body = resp.body_str();
    let warm = parse_status(&warm_body);
    assert_eq!(warm.state, JobState::Done);
    assert_eq!(
        result_json(&warm_body),
        local_json,
        "cached result is the same bytes"
    );
    let after = cache_counts(addr);
    assert_eq!(
        (after.0 - before.0, after.1 - before.1),
        (warm.sessions_total, 0),
        "warm job's (hits, misses) delta"
    );
    assert!(
        warm.wall_s * 100.0 <= done.wall_s,
        "warm wall {}s not >=100x faster than cold {}s",
        warm.wall_s,
        done.wall_s
    );

    // The event stream replays the whole lifecycle as NDJSON.
    let path = format!("/v1/jobs/{}/events", queued.id);
    let resp = client::request(addr, "GET", &path, None).unwrap();
    assert_eq!(resp.status, 200);
    assert_eq!(resp.header("content-type"), Some("application/x-ndjson"));
    let body = resp.body_str();
    let lines: Vec<&str> = body.lines().collect();
    // queued + running + one per session + done.
    assert_eq!(lines.len() as u64, 3 + done.sessions_total);
    assert!(lines[0].contains("\"state\":\"queued\""));
    let last = parse_status(lines.last().unwrap());
    assert_eq!(last.state, JobState::Done);

    // Metrics saw both jobs, no 5xx, and a fully warm second pass.
    let m = metrics(addr);
    assert_eq!(num(&m, "jobs_done"), 2);
    assert_eq!(num(&m, "jobs_failed"), 0);
    assert_eq!(num(&m, "responses_5xx"), 0);
    let cache = m.get("cache").expect("metrics expose cache stats");
    assert_eq!(num(cache, "hits"), done.sessions_total);

    // Health answers while accepting.
    let resp = client::request(addr, "GET", "/v1/healthz", None).unwrap();
    assert_eq!(resp.status, 200);
    assert!(resp.body_str().contains("\"ok\":true"));

    handle.shutdown();
}

#[test]
fn cancel_and_shutdown_are_graceful() {
    let (addr, handle) = spawn_server(test_config());

    // A slow-enough study that cancellation lands while it queues/runs:
    // many sessions so the cancel takes effect between sessions.
    let req = JobRequest::study(StudyConfig::quick());
    let body = serde_json::to_string(&req).unwrap();
    let resp = client::request(addr, "POST", "/v1/jobs", Some(&body)).unwrap();
    assert_eq!(resp.status, 202);
    let job = parse_status(&resp.body_str());

    let path = format!("/v1/jobs/{}/cancel", job.id);
    let resp = client::request(addr, "POST", &path, None).unwrap();
    assert_eq!(resp.status, 202);

    let path = format!("/v1/jobs/{}?wait=1", job.id);
    let resp = client::request(addr, "GET", &path, None).unwrap();
    let ended = parse_status(&resp.body_str());
    assert!(ended.state.is_terminal());
    // Cancellation raced job completion; either outcome is legal, but a
    // cancelled end must carry the typed error.
    if ended.state == JobState::Cancelled {
        assert_eq!(ended.error.unwrap().code, api::codes::JOB_CANCELLED);
    }

    // POST /v1/shutdown drains gracefully: the accepted answer comes
    // back, and afterwards the store refuses new jobs.
    let resp = client::request(addr, "POST", "/v1/shutdown", None).unwrap();
    assert_eq!(resp.status, 202);
    assert!(resp.body_str().contains("\"draining\":true"));

    // During/after the drain, submissions are refused with the typed
    // shutting-down error (503). The accept loop may exit at any point
    // once the queue is dry, so tolerate a refused connection too.
    let refused = client::request(
        addr,
        "POST",
        "/v1/jobs",
        Some(r#"{"api":1,"job":{"study":"quick"}}"#),
    );
    if let Ok(resp) = refused {
        assert_eq!(resp.status, 503, "got: {}", resp.body_str());
        assert!(resp.body_str().contains(api::codes::SHUTTING_DOWN));
    }

    handle.shutdown();
}

/// Connection threads are reused: a client that sends one request per
/// connection, one after another, is served by the thread that served
/// its previous connection, so 50 requests start at most two threads.
#[test]
fn sequential_requests_reuse_connection_threads() {
    let (addr, handle) = spawn_server(test_config());
    let body = r#"{"api":1,"job":{"study":"quick"}}"#;
    let job = parse_status(
        &client::request(addr, "POST", "/v1/jobs", Some(body))
            .unwrap()
            .body_str(),
    );
    let wait = format!("/v1/jobs/{}?wait=1", job.id);
    for i in 2..50 {
        let path = if i % 2 == 0 {
            "/v1/healthz"
        } else {
            wait.as_str()
        };
        let resp = client::request(addr, "GET", path, None).unwrap();
        assert_eq!(resp.status, 200, "{path}: {}", resp.body_str());
    }
    let threads = num(&metrics(addr), "connection_threads");
    assert!(
        (1..=2).contains(&threads),
        "50 sequential requests started {threads} connection threads"
    );
    handle.shutdown();
}
