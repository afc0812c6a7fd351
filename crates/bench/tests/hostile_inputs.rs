//! Hostile-input tests for the decoders of outside bytes this crate feeds:
//! the bench-file loader, the job API's request parser, and the HTTP
//! server behind `reproduce serve`.
//!
//! Each property mutates a real, valid input — the committed
//! `BENCH_throughput.json`, the canonical quick-study request, and that
//! request as a raw `POST /v1/jobs` — by truncating it, splicing a slice
//! of it back in elsewhere, flipping bytes, or inflating it with a long
//! run of one byte (digits lengthen numbers, brackets deepen nesting,
//! quotes and letters stretch strings). Every mutant must decode to a
//! typed error or a valid value; a panic or a stack overflow fails the
//! test. Over HTTP, a mutant must also never draw a 5xx or hang.
//!
//! A hostile *config* is a valid one the defaults never exercise: studies
//! on machines narrower (or wider) than the 8-CE FX/8 must run, report
//! and finish over HTTP like any other. A hostile *id* is one the server
//! issued and has since dropped from its bounded record of finished jobs:
//! it must answer a typed envelope, never a 500.
//!
//! A hostile *cache entry* parses and carries a valid header, but its
//! payload breaks the shape its session produces: the entry must count
//! as invalid and be recomputed, never trusted into the report.

use fx8_bench::throughput;
use fx8_core::api::{self, codes, ApiError, JobRequest, JobResult, JobSpec, JobState, JobStatus};
use fx8_core::cache::{CachedSession, SessionCache};
use fx8_core::figures;
use fx8_core::report::render_full_report;
use fx8_core::study::StudyConfig;
use fx8_monitor::EventCounts;
use fx8_serve::{ServeConfig, Server, ServerHandle};
use fx8_sim::{MachineConfig, ProbeWord};
use proptest::prelude::*;
use serde::{Value, MAX_DEPTH};
use std::fs;
use std::io::{ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::{Path, PathBuf};
use std::process::Command;
use std::thread::JoinHandle;
use std::time::Duration;

const BENCH_FILE: &[u8] = include_bytes!("../../../BENCH_throughput.json");
const QUICK_REQUEST: &[u8] = br#"{"api":1,"job":{"study":"quick"}}"#;

/// Bytes an inflation repeats.
const INFLATE: [u8; 9] = [b'9', b'0', b'-', b'e', b'[', b'{', b'"', b'a', b' '];

/// One mutation of `doc`. `a`, `b`, `c` pick positions; `len` and `byte`
/// shape an inflation.
fn mutate(doc: &[u8], kind: u8, (a, b, c): (u64, u64, u64), len: usize, byte: u8) -> Vec<u8> {
    let at = |x: u64| (x % (doc.len() as u64 + 1)) as usize;
    let mut out = doc.to_vec();
    match kind {
        // Truncate.
        0 => out.truncate(at(a)),
        // Splice a copy of one slice of the document in at another point.
        1 => {
            let (lo, hi) = (at(a).min(at(b)), at(a).max(at(b)));
            out.splice(at(c)..at(c), doc[lo..hi].iter().copied());
        }
        // Flip bits in one or two bytes.
        2 => {
            let n = doc.len();
            out[at(a) % n] ^= (b as u8) | 1;
            if c % 2 == 0 {
                out[at(c) % n] ^= (c >> 8) as u8 | 1;
            }
        }
        // Inflate: insert a long run of one byte.
        _ => {
            let pos = at(a);
            out.splice(pos..pos, std::iter::repeat_n(byte, len));
        }
    }
    out
}

fn positions() -> impl Strategy<Value = (u64, u64, u64)> {
    (any::<u64>(), any::<u64>(), any::<u64>())
}

/// The quick-study request as a raw `POST /v1/jobs`, declaring
/// `content_length` body bytes.
fn raw_post(content_length: u128) -> Vec<u8> {
    let mut req = format!(
        "POST /v1/jobs HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\
         content-length: {content_length}\r\n\r\n"
    )
    .into_bytes();
    req.extend_from_slice(QUICK_REQUEST);
    req
}

/// A mutant of [`raw_post`]: one of [`mutate`]'s byte mutations, or (kind
/// 4) a `Content-Length` of `2^shift` bytes past the body, which leaves
/// the server waiting for bytes that never come or over its body limit.
fn mutate_post(kind: u8, pos: (u64, u64, u64), len: usize, byte: u8, shift: u32) -> Vec<u8> {
    if kind == 4 {
        raw_post(QUICK_REQUEST.len() as u128 + (1u128 << shift))
    } else {
        mutate(&raw_post(QUICK_REQUEST.len() as u128), kind, pos, len, byte)
    }
}

/// Send `bytes` on a fresh loopback connection, leave it open, and read
/// until the server closes it. A server that neither answers nor hangs up
/// within 10 s (fifty times its read timeout) fails the test.
fn exchange(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("loopback connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("read timeout sets");
    // The server may answer and hang up before reading everything (a 413
    // on an oversized head), so a failed write is an outcome, not an error.
    let _ = stream.write_all(bytes);
    let mut out = Vec::new();
    match stream.read_to_end(&mut out) {
        Ok(_) => {}
        // Closing with unread input resets the connection: still a close.
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Err(e) => panic!("server neither answered nor closed: {e}"),
    }
    out
}

/// The first complete response in `raw`: its status, its body, and the
/// bytes it spans. `None` when `raw` holds no complete response.
fn next_response(raw: &[u8]) -> Option<(u16, String, usize)> {
    let head_end = raw.windows(4).position(|w| w == b"\r\n\r\n")?;
    let head = String::from_utf8_lossy(&raw[..head_end]);
    let status: u16 = head.split(' ').nth(1)?.parse().ok()?;
    let length: usize = head
        .split("\r\n")
        .find_map(|l| l.strip_prefix("content-length: "))?
        .parse()
        .ok()?;
    let end = head_end + 4 + length;
    let body = raw.get(head_end + 4..end)?;
    Some((status, String::from_utf8_lossy(body).into_owned(), end))
}

/// The first response's status and, for a 4xx, its typed error envelope.
/// `None` when the server closed without answering.
fn first_response(raw: &[u8]) -> Option<(u16, Option<ApiError>)> {
    let (status, body, _) = next_response(raw)?;
    Some((status, ApiError::from_envelope_json(&body)))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn mutated_bench_files_load_or_fail_typed(
        kind in 0u8..4,
        pos in positions(),
        len in 1usize..65_536,
        byte in prop::sample::select(INFLATE.to_vec()),
    ) {
        let bytes = mutate(BENCH_FILE, kind, pos, len, byte);
        let path = std::env::temp_dir().join(format!("fx8_hostile_{}.json", std::process::id()));
        std::fs::write(&path, &bytes).unwrap();
        let loaded = throughput::load(path.to_str().unwrap());
        let _ = std::fs::remove_file(&path);
        match loaded {
            Ok(file) => {
                // A surviving file is still a valid one: it re-serializes
                // and loads back identically.
                let json = serde_json::to_string(&file).unwrap();
                prop_assert_eq!(serde_json::from_str::<throughput::BenchFile>(&json).unwrap(), file);
            }
            Err(e) => prop_assert!(!e.to_string().is_empty()),
        }
    }

    #[test]
    fn mutated_job_requests_parse_or_fail_typed(
        kind in 0u8..4,
        pos in positions(),
        len in 1usize..65_536,
        byte in prop::sample::select(INFLATE.to_vec()),
    ) {
        let bytes = mutate(QUICK_REQUEST, kind, pos, len, byte);
        match JobRequest::from_json(&String::from_utf8_lossy(&bytes)) {
            // A request that parses must also validate (or be refused)
            // without panicking.
            Ok(req) => {
                let _ = req.validate();
            }
            Err(e) => prop_assert_eq!(e.code, codes::BAD_JSON),
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Mutated job submissions over real TCP, 32 connections at a time
    /// against one server that accepts the unmutated request: each ends in
    /// a 4xx typed envelope, a 2xx (the mutant is still a valid request),
    /// or a closed connection — never a 5xx, a panic that kills the
    /// server, or a hang.
    #[test]
    fn mutated_http_requests_get_4xx_or_close(
        mutants in prop::collection::vec(
            (
                0u8..5,
                positions(),
                1usize..65_536,
                prop::sample::select(INFLATE.to_vec()),
                0u32..64,
            ),
            32..33,
        ),
    ) {
        let server = Server::bind(
            ServeConfig {
                addr: "127.0.0.1:0".to_string(),
                workers: 1,
                max_body_bytes: 4096,
                read_timeout_ms: 200,
                ..ServeConfig::default()
            },
            Some(SessionCache::in_memory()),
        )
        .expect("bind on port 0");
        let (addr, handle) = (server.local_addr(), server.handle());
        let serving = std::thread::spawn(move || server.run());
        let valid = exchange(addr, &raw_post(QUICK_REQUEST.len() as u128));
        prop_assert_eq!(first_response(&valid).map(|(status, _)| status), Some(202));
        let outcomes: Vec<Vec<u8>> = std::thread::scope(|scope| {
            let sent: Vec<_> = mutants
                .iter()
                .map(|&(kind, pos, len, byte, shift)| {
                    let bytes = mutate_post(kind, pos, len, byte, shift);
                    scope.spawn(move || exchange(addr, &bytes))
                })
                .collect();
            sent.into_iter().map(|t| t.join().expect("client thread")).collect()
        });
        for raw in &outcomes {
            let text = String::from_utf8_lossy(raw);
            prop_assert!(!text.contains("HTTP/1.1 5"), "5xx answer: {}", text);
            if let Some((status @ 400.., envelope)) = first_response(raw) {
                prop_assert!(envelope.is_some(), "{} without an envelope: {}", status, text);
            }
        }
        let metrics = fx8_serve::client::request(addr, "GET", "/v1/metrics", None)
            .expect("the server still answers");
        prop_assert!(metrics.body_str().contains("\"responses_5xx\":0"));
        handle.shutdown();
        serving.join().expect("server thread").expect("server drains");
    }
}

#[test]
fn unmutated_inputs_are_valid() {
    let text = std::str::from_utf8(QUICK_REQUEST).unwrap();
    assert!(JobRequest::from_json(text).unwrap().validate().is_ok());
    let bench = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_throughput.json");
    assert!(throughput::load(bench).is_ok());
}

/// The request parser's verdict on `body`: the parsed request, or the
/// code of its typed error.
fn parse(body: &str) -> Result<JobRequest, String> {
    JobRequest::from_json(body).map_err(|e| e.code)
}

/// Numbers follow the RFC 8259 grammar: a leading zero, a lone or inner
/// sign, and a `.` or exponent without digits are malformed JSON, not
/// numbers that `str::parse` happens to accept or reject.
#[test]
fn malformed_numbers_are_bad_json() {
    for api in [
        "01", "-01", "00", "-", "1-2", "1.", "+1", ".5", "1e", "1e+", "1.e3", "--1",
    ] {
        let body = format!(r#"{{"api":{api},"job":{{"study":"quick"}}}}"#);
        assert_eq!(parse(&body).unwrap_err(), codes::BAD_JSON, "{body}");
    }
    for text in ["-", "1-2", "1.", "01", "[1-2]", "{\"a\":1.}"] {
        assert!(
            serde_json::from_str::<Value>(text).is_err(),
            "{text:?} parsed"
        );
    }
    assert_eq!(
        parse(r#"{"api":1e0,"job":{"study":"quick"}}"#).unwrap_err(),
        codes::BAD_JSON
    );
}

/// Unknown keys are skipped, but a skipped value is still parsed: bad
/// syntax or nesting past [`MAX_DEPTH`] inside one fails the document.
#[test]
fn unknown_fields_are_checked_not_ignored() {
    let with_extra =
        |extra: &str| format!(r#"{{"api":1,"extra":{extra},"job":{{"study":"quick"}}}}"#);
    assert!(parse(&with_extra(r#"{"a":[1,2,{"b":null}],"c":"\u0041"}"#)).is_ok());
    for bad in [
        "[1,}",
        "{\"a\" 1}",
        "\"open",
        "tru",
        "01",
        "[1,]",
        "{\"a\":1,}",
        "\"\\x\"",
    ] {
        assert_eq!(
            parse(&with_extra(bad)).unwrap_err(),
            codes::BAD_JSON,
            "{bad}"
        );
    }
    // The request object is one level, so the skipped value may nest
    // MAX_DEPTH - 1 deep and no deeper.
    let nest = |n: usize| "[".repeat(n) + &"]".repeat(n);
    assert!(parse(&with_extra(&nest(MAX_DEPTH - 1))).is_ok());
    assert_eq!(
        parse(&with_extra(&nest(MAX_DEPTH))).unwrap_err(),
        codes::BAD_JSON
    );
    let deep_objects = "{\"k\":".repeat(MAX_DEPTH) + "0" + &"}".repeat(MAX_DEPTH);
    assert_eq!(
        parse(&with_extra(&deep_objects)).unwrap_err(),
        codes::BAD_JSON
    );
}

/// Of duplicate keys the first wins; the later ones are still parsed.
#[test]
fn duplicate_keys_keep_the_first() {
    let req =
        parse(r#"{"api":1,"api":2,"job":{"study":"quick"},"job":{"scale":"paper"}}"#).unwrap();
    assert_eq!(req.api, 1);
    assert_eq!(
        req.job,
        JobSpec::Study {
            config: StudyConfig::quick()
        }
    );
    assert_eq!(
        parse(r#"{"api":1,"api":[,"job":{"study":"quick"}}"#).unwrap_err(),
        codes::BAD_JSON
    );
    let v: Value = serde_json::from_str(r#"{"a":1,"a":2}"#).unwrap();
    assert_eq!(v.get("a"), Some(&Value::Num("1".into())));
}

/// A data-carrying variant is an object with exactly one key.
#[test]
fn variant_objects_need_exactly_one_key() {
    for job in [
        r#"{"study":"quick","scale":"quick"}"#,
        r#"{"study":"quick","study":"quick"}"#,
        "{}",
    ] {
        let body = format!(r#"{{"api":1,"job":{job}}}"#);
        assert_eq!(parse(&body).unwrap_err(), codes::BAD_JSON, "{body}");
    }
    let audit = r#"{"checked_cycles":0,"violations":[],"dropped_violations":0}"#;
    let captures = format!(r#"{{"captures":[],"audit":{audit}}}"#);
    let one = format!(r#"{{"Captures":{captures}}}"#);
    assert!(serde_json::from_str::<CachedSession>(&one).is_ok());
    let two = format!(r#"{{"Captures":{captures},"Captures":{captures}}}"#);
    assert!(serde_json::from_str::<CachedSession>(&two).is_err());
    assert!(serde_json::from_str::<CachedSession>("{}").is_err());
    assert!(serde_json::from_str::<CachedSession>(r#""Captures""#).is_err());
}

/// A valid document followed by anything but whitespace is rejected.
#[test]
fn trailing_bytes_are_rejected() {
    let body = std::str::from_utf8(QUICK_REQUEST).unwrap();
    assert!(parse(&format!("{body} \r\n\t")).is_ok());
    for tail in ["x", "}", "{}", ",", "0", " null"] {
        assert_eq!(
            parse(&format!("{body}{tail}")).unwrap_err(),
            codes::BAD_JSON,
            "{tail:?}"
        );
    }
}

/// A small study on a scaled `n_ces`-wide machine: two short random
/// sessions, one triggered and one transition session.
fn study_of_width(n_ces: usize) -> StudyConfig {
    StudyConfig {
        machine: MachineConfig::scaled(n_ces),
        n_random: 2,
        session_hours: vec![0.02, 0.03],
        n_triggered: 1,
        captures_per_triggered: 2,
        n_transition: 1,
        captures_per_transition: 2,
        ..StudyConfig::quick()
    }
}

/// Every width `MachineConfig::scaled` accepts, narrow ones included,
/// executes and renders its full report; the per-session activity
/// histograms (Figures A.1/A.2) have one row per state `0..=n_ces`.
#[test]
fn studies_of_any_width_execute_and_report() {
    for n_ces in [1, 2, 4, 7, 16] {
        let out = api::execute(&JobRequest::study(study_of_width(n_ces)), None)
            .unwrap_or_else(|e| panic!("{n_ces} CEs: {e}"));
        let JobResult::Study { study, comparison } = out.result else {
            panic!("{n_ces} CEs: a study request returned another result");
        };
        assert!(!comparison.is_empty(), "{n_ces} CEs");
        assert!(render_full_report(&study).contains("Figure B.10"));
        for session in [0, 1] {
            let fig = figures::fig_a1_a2(&study, session);
            let rows = fig.lines().filter(|l| l.contains('|')).count();
            assert_eq!(
                rows,
                n_ces + 1,
                "{n_ces} CEs, Figure A.{}:\n{fig}",
                session + 1
            );
        }
    }
}

/// A crossbar wider than the widest the machine builds (16 banks) is
/// refused with the typed config error before any session runs.
#[test]
fn a_study_with_32_banks_is_refused_unrun() {
    let mut config = study_of_width(8);
    config.machine.cache.banks = 32;
    let sessions = std::sync::atomic::AtomicUsize::new(0);
    let on_session = |_: api::SessionDone| {
        sessions.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    };
    let hooks = api::RunHooks {
        on_session: Some(&on_session),
        ..api::RunHooks::default()
    };
    let Err(err) = api::execute_with(&JobRequest::study(config), None, &hooks) else {
        panic!("a 32-bank machine must be refused");
    };
    assert_eq!(err.code, "config/range-cache-banks", "{err:?}");
    assert_eq!(err.http_status(), 422);
    assert_eq!(sessions.into_inner(), 0, "a session ran");
}

/// A 4-CE study submitted over loopback HTTP runs to `done`.
#[test]
fn a_narrow_study_over_http_reaches_done() {
    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            wait_timeout_ms: 60_000,
            ..ServeConfig::default()
        },
        Some(SessionCache::in_memory()),
    )
    .expect("bind on port 0");
    let (addr, handle) = (server.local_addr(), server.handle());
    let serving = std::thread::spawn(move || server.run());
    let body = serde_json::to_string(&JobRequest::study(study_of_width(4))).unwrap();
    let submitted = fx8_serve::client::request(addr, "POST", "/v1/jobs", Some(&body)).unwrap();
    assert_eq!(submitted.status, 202, "{}", submitted.body_str());
    let id = serde_json::from_str::<JobStatus>(&submitted.body_str())
        .unwrap()
        .id;
    let path = format!("/v1/jobs/{id}?wait=1");
    let done = fx8_serve::client::request(addr, "GET", &path, None).unwrap();
    let status: JobStatus = serde_json::from_str(&done.body_str()).unwrap();
    assert_eq!(status.state, JobState::Done, "{}", done.body_str());
    handle.shutdown();
    serving
        .join()
        .expect("server thread")
        .expect("server drains");
}

/// Polling a job the server has dropped from its bounded record of
/// finished jobs answers a typed `410 job/expired`, on every job route,
/// never a 500; an id never issued stays `404 job/not-found`.
#[test]
fn an_evicted_job_id_answers_expired() {
    let jobs = fx8_serve::jobs::MAX_FINISHED_JOBS + 2;
    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            queue_depth: jobs,
            wait_timeout_ms: 60_000,
            ..ServeConfig::default()
        },
        Some(SessionCache::in_memory()),
    )
    .expect("bind on port 0");
    let (addr, handle) = (server.local_addr(), server.handle());
    let serving = std::thread::spawn(move || server.run());
    let request = |method: &str, path: &str, body: Option<&str>| {
        fx8_serve::client::request(addr, method, path, body).expect("loopback answers")
    };
    let body = serde_json::to_string(&JobRequest::study(StudyConfig {
        n_random: 1,
        session_hours: vec![0.02],
        n_triggered: 0,
        n_transition: 0,
        ..StudyConfig::quick()
    }))
    .unwrap();
    let mut last = 0;
    for _ in 0..jobs {
        let submitted = request("POST", "/v1/jobs", Some(&body));
        assert_eq!(submitted.status, 202, "{}", submitted.body_str());
        last = serde_json::from_str::<JobStatus>(&submitted.body_str())
            .unwrap()
            .id;
    }
    // One worker finishes jobs in id order and retires each before it
    // starts the next, so once the last is done the first is gone.
    let done = request("GET", &format!("/v1/jobs/{last}?wait=1"), None);
    let status: JobStatus = serde_json::from_str(&done.body_str()).unwrap();
    assert_eq!(status.state, JobState::Done, "{}", done.body_str());
    for (method, path) in [
        ("GET", "/v1/jobs/1"),
        ("GET", "/v1/jobs/1?wait=1"),
        ("GET", "/v1/jobs/1/events"),
        ("POST", "/v1/jobs/1/cancel"),
        ("DELETE", "/v1/jobs/1"),
    ] {
        let resp = request(method, path, None);
        assert_eq!(resp.status, 410, "{method} {path}: {}", resp.body_str());
        let e = ApiError::from_envelope_json(&resp.body_str()).expect("typed envelope");
        assert_eq!(e.code, codes::JOB_EXPIRED);
    }
    let resp = request("GET", &format!("/v1/jobs/{}", last + 1), None);
    assert_eq!(resp.status, 404, "{}", resp.body_str());
    // Job 2 goes as the last job retires; job 3 is kept.
    assert_eq!(request("GET", "/v1/jobs/3", None).status, 200);
    handle.shutdown();
    serving
        .join()
        .expect("server thread")
        .expect("server drains");
}

/// A server whose read timeout outlasts every client bound below, so a
/// connection it keeps open shows up as a client timeout, not a close.
fn patient_server() -> (SocketAddr, ServerHandle, JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 1,
            read_timeout_ms: 30_000,
            ..ServeConfig::default()
        },
        Some(SessionCache::in_memory()),
    )
    .expect("bind on port 0");
    let (addr, handle) = (server.local_addr(), server.handle());
    (addr, handle, std::thread::spawn(move || server.run()))
}

/// Send `bytes` in one write and read until the server closes, within
/// 5 s. Returns every complete response (status, body) in order, or
/// panics with what arrived if the server kept the connection open.
fn responses_until_close(addr: SocketAddr, bytes: &[u8]) -> Vec<(u16, String)> {
    let mut stream = TcpStream::connect(addr).expect("loopback connects");
    stream
        .set_read_timeout(Some(Duration::from_secs(5)))
        .expect("read timeout sets");
    stream.write_all(bytes).expect("request writes");
    let mut raw = Vec::new();
    match stream.read_to_end(&mut raw) {
        Ok(_) => {}
        Err(e) if e.kind() == ErrorKind::ConnectionReset => {}
        Err(e) => panic!(
            "server kept the connection open ({e}) after: {}",
            String::from_utf8_lossy(&raw)
        ),
    }
    let mut out = Vec::new();
    let mut rest = &raw[..];
    while let Some((status, body, end)) = next_response(rest) {
        out.push((status, body));
        rest = &rest[end..];
    }
    assert!(
        rest.is_empty(),
        "trailing bytes: {}",
        String::from_utf8_lossy(rest)
    );
    out
}

/// Two requests sent in one write (HTTP/1.1 pipelining) get two
/// responses, in order: the bytes read past the first request are the
/// second request, not garbage to drop.
#[test]
fn pipelined_requests_are_answered_in_order() {
    let (addr, handle, serving) = patient_server();
    let got = responses_until_close(
        addr,
        b"GET /v1/jobs/7 HTTP/1.1\r\nhost: localhost\r\n\r\n\
          GET /v1/healthz HTTP/1.1\r\nhost: localhost\r\nconnection: close\r\n\r\n",
    );
    let statuses: Vec<u16> = got.iter().map(|(status, _)| *status).collect();
    assert_eq!(statuses, [404, 200], "{got:?}");
    let e = ApiError::from_envelope_json(&got[0].1).expect("typed envelope");
    assert_eq!(e.code, codes::JOB_NOT_FOUND);
    assert!(got[1].1.contains("\"ok\":true"), "{}", got[1].1);
    handle.shutdown();
    serving
        .join()
        .expect("server thread")
        .expect("server drains");
}

/// A `Transfer-Encoding: chunked` POST is refused as malformed, then the
/// connection closes: its body is never read as empty, and the request
/// framed inside it is never answered.
#[test]
fn a_chunked_post_is_refused_and_its_body_never_answered() {
    let (addr, handle, serving) = patient_server();
    let inner = "GET /v1/healthz HTTP/1.1\r\nhost: localhost\r\n\r\n";
    let request = format!(
        "POST /v1/jobs HTTP/1.1\r\nhost: localhost\r\ntransfer-encoding: chunked\r\n\r\n\
         {:x}\r\n{inner}\r\n0\r\n\r\n",
        inner.len()
    );
    let got = responses_until_close(addr, request.as_bytes());
    assert_eq!(got.len(), 1, "{got:?}");
    assert_eq!(got[0].0, 400, "{got:?}");
    let e = ApiError::from_envelope_json(&got[0].1).expect("typed envelope");
    assert_eq!(e.code, codes::BAD_JSON);
    assert!(e.message.contains("transfer-encoding"), "{}", e.message);
    handle.shutdown();
    serving
        .join()
        .expect("server thread")
        .expect("server drains");
}

/// A request with two `Content-Length` headers, or one that is not only
/// ASCII digits (`+N`), is refused as malformed and the connection
/// closes: the request framed in the bytes after its head is never
/// answered.
#[test]
fn a_duplicate_or_signed_content_length_is_refused() {
    let inner = "GET /v1/healthz HTTP/1.1\r\nhost: localhost\r\n\r\n";
    for lengths in [
        format!("content-length: 0\r\ncontent-length: {}\r\n", inner.len()),
        format!("content-length: +{}\r\n", inner.len()),
    ] {
        let (addr, handle, serving) = patient_server();
        let request =
            format!("GET /v1/healthz HTTP/1.1\r\nhost: localhost\r\n{lengths}\r\n{inner}");
        let got = responses_until_close(addr, request.as_bytes());
        assert_eq!(got.len(), 1, "{lengths:?}: {got:?}");
        assert_eq!(got[0].0, 400, "{lengths:?}: {got:?}");
        let e = ApiError::from_envelope_json(&got[0].1).expect("typed envelope");
        assert_eq!(e.code, codes::BAD_JSON);
        assert!(e.message.contains("content-length"), "{}", e.message);
        handle.shutdown();
        serving
            .join()
            .expect("server thread")
            .expect("server drains");
    }
}

/// A client that keeps dribbling bytes after its malformed request drew
/// a 400 cannot hold the connection: the server stops discarding its
/// input within a bounded time and closes. The client writes one byte
/// every 100 ms for up to 6 s and never waits more than 100 ms on a read.
#[test]
fn a_dribbling_client_is_closed_after_its_error() {
    use std::time::Instant;
    let (addr, handle, serving) = patient_server();
    let mut stream = TcpStream::connect(addr).expect("loopback connects");
    stream
        .set_read_timeout(Some(Duration::from_millis(100)))
        .expect("read timeout sets");
    stream.write_all(b"BROKEN\r\n\r\n").expect("request writes");
    let started = Instant::now();
    let mut raw = Vec::new();
    let mut buf = [0u8; 4096];
    let closed_after = loop {
        if started.elapsed() > Duration::from_secs(6) {
            break None;
        }
        if stream.write_all(b"x").is_err() {
            break Some(started.elapsed());
        }
        match stream.read(&mut buf) {
            Ok(0) => break Some(started.elapsed()),
            Ok(n) => raw.extend_from_slice(&buf[..n]),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {}
            // A close with our dribble unread resets: still a close.
            Err(_) => break Some(started.elapsed()),
        }
    };
    let status = next_response(&raw).map(|(status, _, _)| status);
    assert_eq!(status, Some(400), "{}", String::from_utf8_lossy(&raw));
    let closed_after = closed_after.expect("the server kept a dribbling client open for 6 s");
    assert!(
        closed_after < Duration::from_secs(3),
        "closed only after {closed_after:?}"
    );
    handle.shutdown();
    serving
        .join()
        .expect("server thread")
        .expect("server drains");
}

/// `reproduce run --quick --cache-stats` against the cache in `dir`: the
/// `cache-stats:` counter line, and the report sections before the
/// wall-clock `observability` block.
fn run_quick_against(dir: &Path) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_reproduce"))
        .args(["run", "--quick", "--cache-stats", "--cache-dir"])
        .arg(dir)
        .output()
        .expect("reproduce runs");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "{stderr}");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 report");
    let (stats, report) = stdout.split_once('\n').expect("a counter line");
    let report = report.split("==================== observability").next();
    (stats.to_string(), report.unwrap_or_default().to_string())
}

/// Rewrite the payload of the first cache entry in `dir` (in file-name
/// order) that `edit` accepts, keeping the entry's header as written.
fn tamper_first(dir: &Path, edit: fn(&mut CachedSession) -> bool) {
    let mut paths: Vec<PathBuf> = fs::read_dir(dir)
        .expect("cache dir")
        .map(|e| e.expect("dir entry").path())
        .collect();
    paths.sort();
    for path in paths {
        let text = fs::read_to_string(&path).expect("entry reads");
        let Ok(Value::Object(mut fields)) = serde_json::from_str::<Value>(&text) else {
            panic!("{} is not an object", path.display());
        };
        let (_, slot) = fields
            .iter_mut()
            .find(|(k, _)| k == "session")
            .expect("entry has a payload");
        let json = serde_json::to_string(&*slot).unwrap();
        let mut session: CachedSession = serde_json::from_str(&json).expect("payload parses");
        if edit(&mut session) {
            *slot = serde_json::from_str(&serde_json::to_string(&session).unwrap()).unwrap();
            fs::write(
                &path,
                serde_json::to_string(&Value::Object(fields)).unwrap(),
            )
            .unwrap();
            return;
        }
    }
    panic!("no entry in {} to edit", dir.display());
}

/// Run the quick study into a clean cache, copy that cache, rewrite one
/// entry of the copy through `edit` (header kept, so it still parses and
/// matches its key) and re-run against the copy. The re-run must count
/// the entry invalid, recompute that one session and print the report of
/// the clean run, byte for byte; the recomputed store overwrites the
/// entry, so a third run hits everywhere.
fn assert_recomputed(name: &str, edit: fn(&mut CachedSession) -> bool) {
    let root = std::env::temp_dir().join(format!("fx8_{name}_{}", std::process::id()));
    let _ = fs::remove_dir_all(&root);
    let (clean, dir) = (root.join("clean"), root.join("edited"));
    let (stats, report) = run_quick_against(&clean);
    assert_eq!(stats, "cache-stats: hits=0 misses=7 stores=7 invalid=0");
    fs::create_dir_all(&dir).unwrap();
    for entry in fs::read_dir(&clean).unwrap() {
        let path = entry.unwrap().path();
        fs::copy(&path, dir.join(path.file_name().unwrap())).unwrap();
    }
    tamper_first(&dir, edit);
    let (stats, rerun) = run_quick_against(&dir);
    assert_eq!(stats, "cache-stats: hits=6 misses=1 stores=1 invalid=1");
    assert!(rerun == report, "the report differs from a clean run's");
    let (stats, _) = run_quick_against(&dir);
    assert_eq!(stats, "cache-stats: hits=7 misses=0 stores=0 invalid=0");
    let _ = fs::remove_dir_all(&root);
}

/// A sample whose `num` histogram is cut from 9 bins to 3.
#[test]
fn a_cache_entry_with_a_cut_histogram_is_recomputed() {
    assert_recomputed("num_cut", |s| match s {
        CachedSession::Random { result } => {
            result.samples[0].counts.num.truncate(3);
            true
        }
        _ => false,
    });
}

/// A sample whose record count no longer matches its histogram.
#[test]
fn a_cache_entry_with_inflated_records_is_recomputed() {
    assert_recomputed("records_inflated", |s| match s {
        CachedSession::Random { result } => {
            result.samples[0].counts.records = 999_999;
            true
        }
        _ => false,
    });
}

/// Captures reduced on a 4-CE machine under an 8-CE session's key: every
/// count is self-consistent, only the width is wrong.
#[test]
fn a_cache_entry_of_the_wrong_width_is_recomputed() {
    assert_recomputed("wrong_width", |s| match s {
        CachedSession::Captures { captures, .. } if !captures.is_empty() => {
            for c in captures {
                c.counts = EventCounts::reduce(&[ProbeWord::idle(c.at_cycle); 512], 4);
            }
            true
        }
        _ => false,
    });
}
