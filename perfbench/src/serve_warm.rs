//! `serve_warm`: an in-process `fx8-serve` on loopback with a warm
//! in-memory cache.
//!
//! A closed loop of one client: it POSTs the quick study, long-polls
//! `?wait=1` for it, then sends the next request, because callers wait
//! for their reply. One client, not one per host CPU: with two on a
//! 2-vCPU host the client and server threads outnumber the CPUs, and the
//! latency follows the hypervisor's stolen time far more than the code
//! (README, "Bounds and noise"). No simulation:
//! the time goes to HTTP, connection threads, the queue and its hand-off
//! to a worker, in-memory cache reads, the comparison and serialization.

use crate::checks;
use crate::host_speed::{HostSpeed, PHASE_BURSTS, WINDOW};
use crate::plan::Plan;
use crate::report::{self, Outcome};
use crate::stats::{median, ms, quantile, tail_is_resolved};
use fx8_core::api::{self, JobRequest, JobResult};
use fx8_core::cache::{CacheStats, SessionCache};
use fx8_core::report as study_report;
use fx8_serve::{client, ServeConfig, Server, ServerHandle};
use serde::Value;
use std::net::SocketAddr;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// A server serving on its own thread.
struct Running {
    handle: ServerHandle,
    join: JoinHandle<std::io::Result<()>>,
}

impl Running {
    fn start() -> Result<Running, String> {
        let cfg = ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            ..ServeConfig::default()
        };
        let server =
            Server::bind(cfg, Some(SessionCache::in_memory())).map_err(|e| format!("bind: {e}"))?;
        let handle = server.handle();
        let join = std::thread::spawn(move || server.run());
        Ok(Running { handle, join })
    }

    fn addr(&self) -> SocketAddr {
        self.handle.addr()
    }

    /// Drain and stop the server, waiting for its accept loop to end.
    fn stop(self) -> Result<(), String> {
        self.handle.shutdown();
        self.join
            .join()
            .map_err(|_| "server thread panicked".to_string())?
            .map_err(|e| format!("server: {e}"))
    }
}

/// One client op: submit, then long-poll for the result.
struct Trip {
    submit: Duration,
    wait: Duration,
    status: u16,
    body: String,
}

impl Trip {
    fn total_ms(&self) -> f64 {
        ms(self.submit + self.wait)
    }
}

fn round_trip(addr: SocketAddr, body: &str) -> Result<Trip, String> {
    let t0 = Instant::now();
    let post = client::request(addr, "POST", "/v1/jobs", Some(body)).map_err(|e| e.to_string())?;
    let submit = t0.elapsed();
    let posted = String::from_utf8(post.body).map_err(|e| e.to_string())?;
    let id = match (post.status, checks::status_id(&posted)) {
        (202, Some(id)) => id,
        (status, _) => {
            return Ok(Trip {
                submit,
                wait: Duration::ZERO,
                status,
                body: posted,
            })
        }
    };
    let t1 = Instant::now();
    let get = client::request(addr, "GET", &format!("/v1/jobs/{id}?wait=1"), None)
        .map_err(|e| e.to_string())?;
    let wait = t1.elapsed();
    Ok(Trip {
        submit,
        wait,
        status: get.status,
        body: String::from_utf8(get.body).map_err(|e| e.to_string())?,
    })
}

/// The server's `GET /v1/metrics` counters.
#[derive(Debug, Default, Clone, Copy)]
struct ServerCounters {
    http_requests: u64,
    responses_4xx: u64,
    responses_5xx: u64,
    rejected_busy: u64,
    cache: CacheStats,
}

fn counters(addr: SocketAddr) -> Result<ServerCounters, String> {
    let r = client::request(addr, "GET", "/v1/metrics", None).map_err(|e| e.to_string())?;
    let v: Value = serde_json::from_str(&r.body_str()).map_err(|e| e.to_string())?;
    let num = |v: &Value, k: &str| -> Result<u64, String> {
        match v.get(k) {
            Some(Value::Num(n)) => n.parse().map_err(|_| format!("metrics {k}: {n}")),
            other => Err(format!("metrics {k}: {other:?}")),
        }
    };
    let cache = v.get("cache").ok_or("metrics without cache")?;
    Ok(ServerCounters {
        http_requests: num(&v, "http_requests")?,
        responses_4xx: num(&v, "responses_4xx")?,
        responses_5xx: num(&v, "responses_5xx")?,
        rejected_busy: num(&v, "rejected_busy")?,
        cache: CacheStats {
            hits: num(cache, "hits")?,
            misses: num(cache, "misses")?,
            stores: num(cache, "stores")?,
            invalid_entries: num(cache, "invalid_entries")?,
        },
    })
}

impl ServerCounters {
    fn since(&self, before: &ServerCounters) -> ServerCounters {
        ServerCounters {
            http_requests: self.http_requests - before.http_requests,
            responses_4xx: self.responses_4xx - before.responses_4xx,
            responses_5xx: self.responses_5xx - before.responses_5xx,
            rejected_busy: self.rejected_busy - before.rejected_busy,
            cache: self.cache.since(&before.cache),
        }
    }
}

/// One finished trip of the closed loop.
struct Done {
    trip: Trip,
    /// Passed its output check.
    ok: bool,
    /// A traced trip: it also read the server-side job wall back.
    traced: bool,
    /// Server-side job wall (ms) of a traced trip.
    server_ms: f64,
}

/// When a client of the closed loop stops.
#[derive(Clone, Copy)]
enum Until {
    /// After this many trips.
    Trips(usize),
    /// At the first trip that ends after this instant, at least one trip.
    Deadline(Instant),
}

impl Until {
    fn done(self, trips: usize) -> bool {
        match self {
            Until::Trips(n) => trips >= n,
            Until::Deadline(at) => trips > 0 && Instant::now() >= at,
        }
    }
}

/// Run the closed loop's one client until `until`. Traced, it alternates
/// plain and traced trips, so drift hits both alike.
fn closed_loop(
    addr: SocketAddr,
    body: &str,
    expected: &str,
    until: Until,
    trace: bool,
) -> Vec<Done> {
    let mut trips = Vec::new();
    while !until.done(trips.len()) {
        let traced = trace && trips.len() % 2 == 1;
        let done = match round_trip(addr, body) {
            Ok(trip) => Done {
                ok: checks::served_job_ok(trip.status, &trip.body, expected),
                server_ms: if traced {
                    checks::status_wall_s(&trip.body).unwrap_or(0.0) * 1e3
                } else {
                    0.0
                },
                trip,
                traced,
            },
            Err(e) => {
                eprintln!("serve_warm: client error: {e}");
                let trip = Trip {
                    submit: Duration::ZERO,
                    wait: Duration::ZERO,
                    status: 0,
                    body: String::new(),
                };
                Done {
                    trip,
                    ok: false,
                    traced,
                    server_ms: 0.0,
                }
            }
        };
        trips.push(done);
    }
    trips
}

/// Run the workload.
pub fn run(plan: &Plan, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let req = JobRequest::study(plan.quick.clone());
    let body = serde_json::to_string(&req).map_err(|e| e.to_string())?;
    let sessions = Plan::sessions(&plan.quick);

    // Set-up: bind a server and populate its cache with one cold job.
    // `setup_s` is the median set-up at the reference speed, from
    // reference bursts before, between and after the set-ups.
    let mut setup_host = HostSpeed::default();
    let mut setups = Vec::new();
    let mut live: Option<(Running, String)> = None;
    for _ in 0..plan.setup_reps {
        if let Some((prev, _)) = live.take() {
            prev.stop()?;
        }
        setup_host.bursts(PHASE_BURSTS);
        let t = Instant::now();
        let server = Running::start()?;
        let cold = round_trip(server.addr(), &body)?;
        setups.push(t.elapsed().as_secs_f64());
        let Some(result) = checks::status_result(&cold.body).filter(|_| cold.status == 200) else {
            server.stop()?;
            return Err(format!("cold job failed: {} {}", cold.status, cold.body));
        };
        live = Some((server, result.to_string()));
    }
    setup_host.bursts(PHASE_BURSTS);
    let (server, expected) = live.ok_or("no set-up ran")?;
    let setup_raw = median(&setups);
    out.set("setup_s", setup_raw / setup_host.slowdown());
    out.note(setup_host.describe("set-up"));
    let addr = server.addr();

    // A fixed number of untimed jobs first. The server keeps every
    // finished job, so memory grows with the jobs served: peak memory is
    // read here, after a fixed amount of work, not after the timed loop,
    // whose job count follows throughput.
    let before = counters(addr)?;
    let warm = closed_loop(addr, &body, &expected, Until::Trips(plan.warm_jobs), false);
    out.set("peak_rss_mb", report::peak_rss_mb());

    // Timed phase. Traced, the loop takes 60% of it and the layers are
    // then timed in-process one call at a time. The loop runs in windows
    // with a reference burst before each, while no job is in flight.
    let loop_s = if trace {
        plan.seconds * 0.6
    } else {
        plan.seconds
    };
    let rss_before = report::rss_kb();
    let mut host = HostSpeed::default();
    let mut trips = Vec::new();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < loop_s || trips.is_empty() {
        host.burst();
        let deadline = Until::Deadline(Instant::now() + WINDOW);
        trips.extend(closed_loop(addr, &body, &expected, deadline, trace));
    }
    // Jobs ran in the wall time the bursts left them.
    let wall = (started.elapsed() - host.spent()).as_secs_f64();
    let slowdown = host.slowdown();
    let delta = counters(addr)?.since(&before);
    let rss_per_job = (report::rss_kb() - rss_before) / trips.len() as f64;
    // Every job is checked, the untimed ones too.
    let jobs = (warm.len() + trips.len()) as u64;
    for d in warm.iter().chain(&trips) {
        out.count_op(d.ok);
    }
    // The counters request itself is one of the server's requests.
    let per_job_requests = (delta.http_requests - 1) as f64 / jobs as f64;
    let unexplained = checks::unexplained_jobs(&delta.cache, jobs, sessions);
    let bad_5xx = delta.responses_5xx.min(jobs);
    out.failed = (out.failed + unexplained.max(bad_5xx)).min(out.attempted);
    if unexplained > 0 || bad_5xx > 0 {
        out.note(format!(
            "CHECK FAILED serve_warm: cache {:?} over {jobs} jobs of {sessions} sessions, {} 5xx",
            delta.cache, delta.responses_5xx
        ));
    }
    let (traced, plain): (Vec<&Done>, Vec<&Done>) = trips.iter().partition(|d| d.traced);
    let lat: Vec<f64> = plain.iter().map(|d| d.trip.total_ms()).collect();
    let p50 = median(&lat);
    out.set("p50_ms", p50 / slowdown);
    out.note(host.describe("timed phase"));
    out.note(format!(
        "serve_warm: base_seed {} | one client | {} untimed jobs, then {} in {wall:.3} s | raw: setup_s {setup_raw:.4}, ops_per_s {:.2}, p50_ms {p50:.3}, p90_ms {} | {} 4xx, {} 5xx, {} busy",
        plan.quick.base_seed,
        warm.len(),
        trips.len(),
        trips.len() as f64 / wall,
        if tail_is_resolved(lat.len(), 0.9) {
            format!("{:.3}", quantile(&lat, 0.9))
        } else {
            "unresolved (fewer than 100 ops)".to_string()
        },
        delta.responses_4xx,
        delta.responses_5xx,
        delta.rejected_busy,
    ));

    if trace {
        let last_id = trips
            .iter()
            .find_map(|d| d.ok.then(|| checks::status_id(&d.trip.body)).flatten())
            .ok_or("no job finished")?;
        let layers = in_process_layers(&req, &body, addr, last_id, plan.seconds * 0.4)?;
        let m = |f: &dyn Fn(&Done) -> f64| median(&traced.iter().map(|d| f(d)).collect::<Vec<_>>());
        let traced_p50 = m(&|d| d.trip.total_ms());
        let server_ms = m(&|d| d.server_ms);
        out.set("serve.submit_ms", m(&|d| ms(d.trip.submit)));
        out.set("serve.wait_ms", m(&|d| ms(d.trip.wait)));
        out.set("serve.job_wall_ms", server_ms);
        out.set("serve.response_bytes", m(&|d| d.trip.body.len() as f64));
        out.set("serve.http_requests_per_job", per_job_requests);
        out.set("serve.responses_4xx", delta.responses_4xx as f64);
        out.set("serve.responses_5xx", delta.responses_5xx as f64);
        out.set("serve.rejected_busy", delta.rejected_busy as f64);
        out.set("serve.rss_kb_per_job", rss_per_job);
        out.set("serve.rtt_ms", layers.rtt);
        out.set("serve.fetch_ms", layers.fetch);
        out.set(
            "serve.overhead_ms",
            p50 - (layers.parse + layers.execute + layers.serialize),
        );
        out.set("cache.hits", delta.cache.hits as f64 / jobs as f64);
        out.set("cache.misses", delta.cache.misses as f64 / jobs as f64);
        out.set(
            "cache.invalid",
            delta.cache.invalid_entries as f64 / jobs as f64,
        );
        out.set("cache.hit_frac", delta.cache.hit_rate());
        out.set("api.parse_ms", layers.parse);
        out.set("core.execute_warm_ms", layers.execute);
        out.set("analysis.comparison_ms", layers.comparison);
        out.set("serialize.result_ms", layers.serialize);
        out.set("serialize.result_bytes", expected.len() as f64);
        out.set("study.base_seed", plan.quick.base_seed as f64);
        out.set("host.slowdown", slowdown);
        out.set("op.samples", lat.len() as f64);
        if tail_is_resolved(lat.len(), 0.9) {
            out.set("op.p90_ms", quantile(&lat, 0.9));
        }
        // The layers of one op: the submit round trip (HTTP plus parse),
        // the job (execute plus serialize), the result fetch. What they
        // leave over is the queue hand-off and the long-poll wake-ups.
        let covered = layers.rtt + layers.parse + layers.execute + layers.serialize + layers.fetch;
        out.set("trace.coverage", covered / p50);
        out.set("trace.overhead", traced_p50 / p50);
        out.note(format!(
            "serve_warm: server-side job wall p50 {server_ms:.3} ms under load vs {:.3} ms execute in-process",
            layers.execute
        ));
    }
    server.stop()?;
    Ok(out)
}

/// Medians of the in-process layer calls, in ms.
struct Layers {
    parse: f64,
    execute: f64,
    comparison: f64,
    serialize: f64,
    rtt: f64,
    fetch: f64,
}

/// Time the job's layers one call at a time: request parsing, execute on
/// a warm in-memory cache, the comparison, serialization, a bare HTTP
/// round trip (`/v1/healthz`) and the fetch of a finished job's status.
fn in_process_layers(
    req: &JobRequest,
    body: &str,
    addr: SocketAddr,
    done_id: u64,
    seconds: f64,
) -> Result<Layers, String> {
    let cache = SessionCache::in_memory();
    api::execute(req, Some(&cache)).map_err(|e| e.to_string())?;
    let (mut parse, mut execute, mut comparison, mut serialize, mut rtt, mut fetch) =
        (vec![], vec![], vec![], vec![], vec![], vec![]);
    let fetch_path = format!("/v1/jobs/{done_id}");
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < seconds || parse.is_empty() {
        let t = Instant::now();
        let parsed = JobRequest::from_json(body).and_then(|r| r.validate().map(|()| r));
        std::hint::black_box(parsed.is_ok());
        parse.push(ms(t.elapsed()));
        let t = Instant::now();
        let out = api::execute(req, Some(&cache)).map_err(|e| e.to_string())?;
        execute.push(ms(t.elapsed()));
        if let JobResult::Study { study, .. } = &out.result {
            let t = Instant::now();
            std::hint::black_box(study_report::comparison(study));
            comparison.push(ms(t.elapsed()));
        }
        let t = Instant::now();
        std::hint::black_box(serde_json::to_string(&out.result).map_err(|e| e.to_string())?);
        serialize.push(ms(t.elapsed()));
        let t = Instant::now();
        client::request(addr, "GET", "/v1/healthz", None).map_err(|e| e.to_string())?;
        rtt.push(ms(t.elapsed()));
        let t = Instant::now();
        client::request(addr, "GET", &fetch_path, None).map_err(|e| e.to_string())?;
        fetch.push(ms(t.elapsed()));
    }
    Ok(Layers {
        parse: median(&parse),
        execute: median(&execute),
        comparison: median(&comparison),
        serialize: median(&serialize),
        rtt: median(&rtt),
        fetch: median(&fetch),
    })
}
