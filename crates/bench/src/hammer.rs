//! `reproduce hammer` — load-test the job server over real TCP.
//!
//! Spawns an in-process [`fx8_serve::Server`] on a loopback port with a
//! fresh in-memory cache, runs one cold job to populate it, then fires
//! concurrent identical requests and measures the *warm-hit* service
//! path end to end: TCP connect, HTTP parse, queue, cache lookup, result
//! splice, response. Reports client-observed p50 latency and request
//! throughput, plus the server's own counters for gating (warm-hit rate,
//! 5xx count, connection threads started). CI's serve-smoke job runs this
//! and fails on a cold-path regression dressed up as a cache, or on a
//! server that starts a thread per connection again.

use crate::throughput::{self, Layer, Row};
use fx8_core::api::{JobState, JobStatus};
use fx8_core::cache::SessionCache;
use fx8_serve::{client, ServeConfig, Server};
use fx8_sim::ConfigError;
use serde::Value;
use std::net::SocketAddr;
use std::time::Instant;

/// Hammer knobs (`reproduce hammer` flags end up here). Every job is the
/// quick study preset.
#[derive(Debug, Clone)]
pub struct HammerOptions {
    /// Warm requests per client thread.
    pub requests: usize,
    /// Concurrent client threads.
    pub concurrency: usize,
}

/// The most client threads one hammer run starts.
pub const MAX_CONCURRENCY: usize = 64;

impl HammerOptions {
    /// Check the knobs before any server starts: at least one warm request
    /// from each of one to [`MAX_CONCURRENCY`] clients, and a warm request
    /// total that fits a `usize`.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.requests == 0 {
            return Err(ConfigError::Zero {
                field: "hammer.requests",
            });
        }
        if self.concurrency == 0 {
            return Err(ConfigError::Zero {
                field: "hammer.concurrency",
            });
        }
        if self.concurrency > MAX_CONCURRENCY {
            return Err(ConfigError::out_of_range(
                "hammer.concurrency",
                self.concurrency,
                format!("at most {MAX_CONCURRENCY} client threads"),
            ));
        }
        if self.requests.checked_mul(self.concurrency).is_none() {
            return Err(ConfigError::out_of_range(
                "hammer.requests",
                self.requests,
                "requests × concurrency must fit a usize",
            ));
        }
        Ok(())
    }
}

impl Default for HammerOptions {
    fn default() -> Self {
        HammerOptions {
            requests: 25,
            concurrency: 4,
        }
    }
}

/// What the hammer measured and what the gates saw.
#[derive(Debug, Clone)]
pub struct HammerReport {
    /// Server-reported wall of the cold (cache-populating) job, seconds.
    pub cold_wall_s: f64,
    /// Client-observed median warm round-trip (POST + long-poll), ms.
    pub warm_p50_ms: f64,
    /// Coefficient of variation of the warm round-trip latencies.
    pub warm_latency_cov: f64,
    /// Warm requests completed per second across all clients.
    pub req_per_s: f64,
    /// Cache hits / cache lookups over the whole run.
    pub warm_hit_rate: f64,
    /// 5xx responses the server counted.
    pub responses_5xx: u64,
    /// Warm requests issued.
    pub warm_requests: usize,
    /// Concurrent client threads.
    pub concurrency: usize,
    /// Connection threads the server started over the whole run.
    pub connection_threads: u64,
}

/// Connection threads the server may start per client thread. Clients
/// send one request per connection and one at a time, so a server that
/// reuses its threads needs about one per client, however many requests
/// they send.
pub const THREADS_PER_CLIENT: u64 = 4;

impl HammerReport {
    /// The CI gate: every warm request served, ≥90% of cache lookups hit,
    /// not a single 5xx, and at most [`THREADS_PER_CLIENT`] connection
    /// threads started per client.
    pub fn gate_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.warm_hit_rate < 0.9 {
            failures.push(format!(
                "warm-hit rate {:.1}% below the 90% gate",
                self.warm_hit_rate * 100.0
            ));
        }
        if self.responses_5xx > 0 {
            failures.push(format!(
                "{} 5xx responses (gate is zero)",
                self.responses_5xx
            ));
        }
        let bound = THREADS_PER_CLIENT * self.concurrency.max(1) as u64;
        if self.connection_threads > bound {
            failures.push(format!(
                "{} connection threads started for {} clients (gate is {bound})",
                self.connection_threads, self.concurrency
            ));
        }
        failures
    }

    /// The serve-layer bench rows: warm p50 over every warm request (with
    /// the latencies' CoV) and the whole warm phase's request rate.
    pub fn rows(&self) -> Vec<Row> {
        let n = u32::try_from(self.warm_requests).unwrap_or(u32::MAX);
        vec![
            Row::new(Layer::Serve, "warm_p50_ms", "ms", self.warm_p50_ms)
                .noise(Some(self.warm_latency_cov), n),
            Row::new(Layer::Serve, "req_per_s", "req/s", self.req_per_s).noise(None, 1),
        ]
    }

    /// Render the human summary.
    pub fn render(&self) -> String {
        format!(
            "hammer: {} warm requests\n  cold job: {:.2} s\n  warm p50: {:.2} ms\n  \
             throughput: {:.0} req/s\n  warm-hit rate: {:.1}%\n  5xx: {}\n  \
             connection threads: {}\n",
            self.warm_requests,
            self.cold_wall_s,
            self.warm_p50_ms,
            self.req_per_s,
            self.warm_hit_rate * 100.0,
            self.responses_5xx,
            self.connection_threads,
        )
    }
}

fn status_of(body: &str) -> Result<JobStatus, String> {
    serde_json::from_str(body).map_err(|e| format!("bad status body: {e}: {body}"))
}

/// POST the request and long-poll it to a terminal state; returns the
/// final status.
fn submit_and_wait(addr: SocketAddr, body: &str) -> Result<JobStatus, String> {
    let resp = client::request(addr, "POST", "/v1/jobs", Some(body))
        .map_err(|e| format!("submit failed: {e}"))?;
    if resp.status != 202 {
        return Err(format!("submit got {}: {}", resp.status, resp.body_str()));
    }
    let queued = status_of(&resp.body_str())?;
    let path = format!("/v1/jobs/{}?wait=1", queued.id);
    loop {
        let resp =
            client::request(addr, "GET", &path, None).map_err(|e| format!("poll failed: {e}"))?;
        let status = status_of(&resp.body_str())?;
        if status.state.is_terminal() {
            if status.state != JobState::Done {
                return Err(format!(
                    "job {} ended {}: {:?}",
                    status.id,
                    status.state.as_str(),
                    status.error
                ));
            }
            return Ok(status);
        }
    }
}

/// Run the hammer against a fresh in-process server. Options that fail
/// [`HammerOptions::validate`] are refused before the server starts.
pub fn run(opts: &HammerOptions) -> Result<HammerReport, String> {
    opts.validate().map_err(|e| e.to_string())?;
    let body = r#"{"api":1,"job":{"study":"quick"}}"#;
    let server = Server::bind(
        ServeConfig {
            addr: "127.0.0.1:0".to_string(),
            workers: 2,
            queue_depth: opts.concurrency.max(4) * 4,
            ..ServeConfig::default()
        },
        Some(SessionCache::in_memory()),
    )
    .map_err(|e| format!("bind failed: {e}"))?;
    let addr = server.local_addr();
    let handle = server.handle();
    let serve_thread = std::thread::spawn(move || server.run());

    let num = |v: &Value, k: &str| -> Result<u64, String> {
        match v.get(k) {
            Some(Value::Num(n)) => n.parse().map_err(|e| format!("bad metrics field {k}: {e}")),
            Some(_) => Err(format!("bad metrics field {k}: not a number")),
            None => Err(format!("metrics lack {k}")),
        }
    };
    let cache_counters = || -> Result<(u64, u64), String> {
        let resp = client::request(addr, "GET", "/v1/metrics", None)
            .map_err(|e| format!("metrics failed: {e}"))?;
        let metrics: Value =
            serde_json::from_str(&resp.body_str()).map_err(|e| format!("bad metrics: {e}"))?;
        let cache = metrics.get("cache").ok_or("metrics lack cache stats")?;
        Ok((num(cache, "hits")?, num(cache, "misses")?))
    };

    // Cold pass populates the cache.
    eprintln!("hammer: cold quick study against {addr}...");
    let cold = submit_and_wait(addr, body)?;
    // Snapshot the cache counters so the hit-rate gate sees only the warm
    // phase — the cold pass's misses are the point, not a failure.
    let (hits_cold, misses_cold) = cache_counters()?;

    // Warm pass: concurrent clients, each timing its own round-trips.
    let total = opts.requests * opts.concurrency;
    eprintln!(
        "hammer: {total} warm requests across {} clients...",
        opts.concurrency
    );
    let t0 = Instant::now();
    let threads: Vec<_> = (0..opts.concurrency)
        .map(|_| {
            let requests = opts.requests;
            std::thread::spawn(move || -> Result<Vec<f64>, String> {
                let mut latencies = Vec::with_capacity(requests);
                for _ in 0..requests {
                    let t = Instant::now();
                    submit_and_wait(addr, body)?;
                    latencies.push(t.elapsed().as_secs_f64() * 1e3);
                }
                Ok(latencies)
            })
        })
        .collect();
    let mut latencies = Vec::with_capacity(total);
    for t in threads {
        latencies.extend(t.join().map_err(|_| "client thread panicked")??);
    }
    let wall = t0.elapsed().as_secs_f64();

    // Server-side counters for the gates: the warm phase's cache delta,
    // the run's 5xx count and its connection threads.
    let resp = client::request(addr, "GET", "/v1/metrics", None)
        .map_err(|e| format!("metrics failed: {e}"))?;
    let metrics: Value =
        serde_json::from_str(&resp.body_str()).map_err(|e| format!("bad metrics: {e}"))?;
    let responses_5xx = num(&metrics, "responses_5xx")?;
    let connection_threads = num(&metrics, "connection_threads")?;
    let (hits_all, misses_all) = cache_counters()?;
    let hits = (hits_all - hits_cold) as f64;
    let misses = (misses_all - misses_cold) as f64;
    let warm_hit_rate = if hits + misses > 0.0 {
        hits / (hits + misses)
    } else {
        0.0
    };

    handle.shutdown();
    let _ = serve_thread.join();

    latencies.sort_by(|a, b| a.partial_cmp(b).expect("latencies are finite"));
    let warm_p50_ms = latencies[latencies.len() / 2];
    Ok(HammerReport {
        cold_wall_s: cold.wall_s,
        warm_p50_ms,
        warm_latency_cov: throughput::cov_of(&latencies),
        req_per_s: total as f64 / wall.max(1e-9),
        warm_hit_rate,
        responses_5xx,
        warm_requests: total,
        concurrency: opts.concurrency,
        connection_threads,
    })
}

/// Upsert the hammer's serve rows into the `current` rows of the bench
/// file at `path`, carrying every other row forward. Requires an existing
/// bench file (run `reproduce bench` first).
pub fn record(path: &str, report: &HammerReport) -> Result<(), String> {
    let mut file = throughput::load(path).map_err(|e| {
        format!("{e}; run `reproduce bench` first so the hammer has a file to update")
    })?;
    throughput::upsert(&mut file.current, report.rows());
    throughput::save(path, &file).map_err(|e| format!("failed to write {path}: {e}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gates_fire_on_bad_hit_rate_and_5xx() {
        let good = HammerReport {
            cold_wall_s: 1.0,
            warm_p50_ms: 2.0,
            warm_latency_cov: 0.1,
            req_per_s: 100.0,
            warm_hit_rate: 0.98,
            responses_5xx: 0,
            warm_requests: 100,
            concurrency: 4,
            connection_threads: 16,
        };
        assert!(good.gate_failures().is_empty());
        let bad = HammerReport {
            warm_hit_rate: 0.5,
            responses_5xx: 3,
            connection_threads: 17,
            ..good
        };
        let failures = bad.gate_failures();
        assert_eq!(failures.len(), 3);
        assert!(failures[0].contains("90%"));
        assert!(failures[1].contains("5xx"));
        assert!(failures[2].contains("17 connection threads"));
    }

    /// Bad knobs are refused by value, before any server or client thread
    /// would start.
    #[test]
    fn options_are_validated_before_anything_starts() {
        let opts = |requests, concurrency| HammerOptions {
            requests,
            concurrency,
        };
        assert_eq!(opts(1, MAX_CONCURRENCY).validate(), Ok(()));
        let field = |o: HammerOptions| o.validate().unwrap_err().field();
        assert_eq!(field(opts(0, 4)), "hammer.requests");
        assert_eq!(field(opts(1, 0)), "hammer.concurrency");
        assert_eq!(field(opts(1, MAX_CONCURRENCY + 1)), "hammer.concurrency");
        assert_eq!(field(opts(usize::MAX / 2, 4)), "hammer.requests");
        assert!(run(&opts(0, 1)).unwrap_err().contains("hammer.requests"));
    }

    #[test]
    fn a_tiny_hammer_run_round_trips_the_server() {
        // One client, two warm requests, against the real server stack.
        // (The e2e suite in fx8-serve covers the protocol; this pins the
        // hammer's own plumbing end to end.)
        let report = run(&HammerOptions {
            requests: 2,
            concurrency: 1,
        })
        .expect("hammer runs");
        assert_eq!(report.warm_requests, 2);
        assert!(report.warm_hit_rate > 0.9, "all-warm rerun should hit");
        assert_eq!(report.responses_5xx, 0);
        assert!(report.warm_p50_ms > 0.0);
        assert!(report.connection_threads >= 1);
        assert!(
            report.gate_failures().is_empty(),
            "{:?}",
            report.gate_failures()
        );
    }

    #[test]
    fn record_upserts_the_serve_rows_and_keeps_the_rest() {
        let report = HammerReport {
            cold_wall_s: 1.0,
            warm_p50_ms: 3.5,
            warm_latency_cov: 0.2,
            req_per_s: 250.0,
            warm_hit_rate: 1.0,
            responses_5xx: 0,
            warm_requests: 40,
            concurrency: 2,
            connection_threads: 2,
        };
        let engine = Row::new(Layer::Engine, "loop_cycles_per_s", "cycles/s", 9.0);
        let stale = Row::new(Layer::Serve, "warm_p50_ms", "ms", 99.0);
        let file = throughput::BenchFile {
            current: vec![engine.clone(), stale],
            ..Default::default()
        };
        let path = std::env::temp_dir().join(format!("fx8_hammer_{}.json", std::process::id()));
        let path = path.to_str().unwrap();
        throughput::save(path, &file).unwrap();
        record(path, &report).unwrap();
        let back = throughput::load(path).unwrap();
        let _ = std::fs::remove_file(path);
        assert_eq!(back.current[0], engine);
        assert_eq!(back.current[1..], report.rows()[..]);
        assert_eq!(back.current[1].name, "serve.warm_p50_ms");
        assert_eq!(back.current[2].name, "serve.req_per_s");
    }
}
