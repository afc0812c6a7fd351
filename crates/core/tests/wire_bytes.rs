//! Byte pins for everything this workspace writes as JSON.
//!
//! The serialized `JobResult`, the error envelope and the session-cache
//! key (which hashes the serialized `SessionConfig`) are contracts:
//! clients compare results byte for byte, and a cache directory written
//! by an earlier build must keep hitting. Each is pinned here as an
//! FNV-1a-128 digest plus its length, so a serializer change that moves a
//! single byte fails `cargo test`. The job status lines have one writer,
//! the server's, and are pinned beside it in `fx8-serve`.
//!
//! Audit builds (`--features audit`) fill the sessions' audit reports and
//! fold the audit flag into the cache key, so those two pins carry a
//! second value for that build.
//!
//! The property tests close the loop the other way: any [`Value`] and any
//! cache payload survive `to_string` → `from_str` unchanged. The rendered
//! report rests on the concurrency measures, so a last property pins the
//! allocation-free `C_w`/`P_c` to the vector-building formula bit for bit.

use fx8_core::api::{self, codes, ApiError, JobRequest, JobResult};
use fx8_core::cache::{CachedSession, SessionCache, SessionKind};
use fx8_core::experiment::{Capture, SessionConfig, SessionResult};
use fx8_core::report::{comparison, render_comparison, render_full_report};
use fx8_core::sample::Sample;
use fx8_core::study::{Study, StudyConfig};
use fx8_monitor::{EventCounts, KernelCounters};
use fx8_sim::audit::{AuditReport, Violation};
use fx8_sim::fingerprint::{CacheKeyHasher, AUDIT_BUILD};
use fx8_sim::MachineConfig;
use fx8_stats::measures::{cw_pc, ConcurrencyMeasures};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use serde::Value;

/// `(length, digest)` of `text`.
fn digest(text: &str) -> (usize, String) {
    let mut h = CacheKeyHasher::new();
    h.write_str(text);
    (text.len(), h.finish().to_hex())
}

/// The plain-build pin, or the audit-build one.
fn pin(plain: (usize, &str), audit: (usize, &str)) -> (usize, String) {
    let (len, hex) = if AUDIT_BUILD { audit } else { plain };
    (len, hex.to_string())
}

/// A study with all three session kinds, small enough for a test.
fn mini_result() -> JobResult {
    let mut cfg = StudyConfig::quick();
    cfg.n_random = 2;
    cfg.session_hours = vec![0.02, 0.03];
    cfg.n_triggered = 1;
    cfg.captures_per_triggered = 2;
    cfg.n_transition = 1;
    cfg.captures_per_transition = 2;
    api::execute(&JobRequest::study(cfg), None)
        .expect("mini study runs")
        .result
}

#[test]
fn job_result_is_pinned() {
    let result = mini_result();
    let json = serde_json::to_string(&result).unwrap();
    assert_eq!(
        digest(&json),
        pin(
            (4919, "464ab00734849a8cc33cfb404178e866"),
            (4938, "04849b286c6a52215c4c9619f5a7e3da"),
        ),
        "serialized JobResult"
    );
}

#[test]
fn error_envelope_is_pinned() {
    let envelope = ApiError::new(codes::QUEUE_FULL, "queue is full \"now\"\n").envelope_json();
    assert_eq!(
        digest(&envelope),
        (82, "185ea0b8a22bd5f221902fa6ad60afd9".to_string()),
        "{envelope}"
    );
}

#[test]
fn session_cache_key_is_pinned() {
    let cache = SessionCache::in_memory();
    let key = cache.key(SessionKind::Random, &SessionConfig::paper(1987), 3, 0);
    let want = if AUDIT_BUILD {
        "917eb726abdde7bd0e37fd9c3b451186"
    } else {
        "427526226ee3249c860d5693fa45706f"
    };
    assert_eq!(key.to_hex(), want);
}

/// The quick study widened to six random sessions, enough for every
/// Table 3 and Table 4 model to fit at the measured width, run on
/// `machine`.
fn six_session_study(machine: MachineConfig) -> Study {
    let mut cfg = StudyConfig::quick();
    cfg.n_random = 6;
    cfg.session_hours = vec![0.35; 6];
    cfg.machine = machine;
    match api::execute(&JobRequest::study(cfg), None)
        .expect("quick study runs")
        .result
    {
        JobResult::Study { study, .. } => study,
        other => panic!("a study request returned {other:?}"),
    }
}

/// The rendered analysis of the six-session quick study: the full
/// report and the paper-vs-measured comparison.
#[test]
fn report_and_comparison_text_are_pinned() {
    let study = six_session_study(MachineConfig::fx8());
    let report = render_full_report(&study);
    assert!(!report.contains("no fit"), "Tables 3/4 must fit:\n{report}");
    assert!(!report.contains("degenerate"), "Figures 12-14 must fit");
    assert_eq!(
        digest(&report),
        (62135, "105cd0460b19278be175883305223c7b".to_string()),
        "render_full_report"
    );
    assert_eq!(
        digest(&render_comparison(&comparison(&study))),
        (2733, "620dd6c7b3b858b14c90bce50c9c3fa6".to_string()),
        "render_comparison"
    );
}

/// The same study on a narrower and a wider machine: other Table 2
/// columns, transition states and histogram rows, so the report's text
/// writer is pinned on shapes the measured width never produces.
#[test]
fn report_and_comparison_text_are_pinned_beyond_8_ces() {
    let pins = [
        (
            4,
            (56699, "5a3841fcec35a12066854aa85e49d61e"),
            (2139, "6a1ff5a822361074ea42336eece52561"),
        ),
        (
            16,
            (62515, "8f501758873f5133181ac14a510cc0c1"),
            (2142, "76fd4e0f4b012368884e976355556edb"),
        ),
    ];
    for (width, report_pin, comparison_pin) in pins {
        let study = six_session_study(MachineConfig::scaled(width));
        let report = render_full_report(&study);
        let text = render_comparison(&comparison(&study));
        assert_eq!(
            (digest(&report), digest(&text)),
            (
                (report_pin.0, report_pin.1.to_string()),
                (comparison_pin.0, comparison_pin.1.to_string())
            ),
            "render_full_report and render_comparison at {width} CEs"
        );
    }
}

/// Characters that stress the string codec: escapes, control bytes, and
/// one- to four-byte UTF-8.
const CHARS: [char; 14] = [
    'a', 'Z', '0', ' ', '"', '\\', '/', '\n', '\t', '\u{0}', '\u{1f}', 'é', '€', '𝄞',
];

fn arb_string(rng: &mut TestRng) -> String {
    (0..rng.below(8))
        .map(|_| CHARS[rng.below(CHARS.len() as u64) as usize])
        .collect()
}

/// A number lexeme as the writer produces them: an unsigned or negative
/// integer, or a finite float's `{:?}`.
fn arb_number(rng: &mut TestRng) -> String {
    match rng.below(3) {
        0 => rng.next_u64().to_string(),
        1 => (-((rng.next_u64() >> 1) as i64)).to_string(),
        _ => {
            let x = f64::from_bits(rng.next_u64());
            format!("{:?}", if x.is_finite() { x } else { rng.unit_f64() })
        }
    }
}

fn arb_value(rng: &mut TestRng, depth: u32) -> Value {
    match rng.below(if depth == 0 { 4 } else { 6 }) {
        0 => Value::Null,
        1 => Value::Bool(rng.below(2) == 1),
        2 => Value::Num(arb_number(rng)),
        3 => Value::Str(arb_string(rng)),
        4 => Value::Array(
            (0..rng.below(4))
                .map(|_| arb_value(rng, depth - 1))
                .collect(),
        ),
        _ => Value::Object(
            (0..rng.below(4))
                .map(|_| (arb_string(rng), arb_value(rng, depth - 1)))
                .collect(),
        ),
    }
}

fn arb_counts(rng: &mut TestRng) -> EventCounts {
    let n_ces = 1 + rng.below(8) as usize;
    let mut counts = EventCounts::empty(n_ces);
    for x in counts.num.iter_mut().chain(&mut counts.prof) {
        *x = rng.next_u64() >> rng.below(64);
    }
    for x in counts.ceop.iter_mut().chain(&mut counts.membop) {
        *x = rng.below(1 << 20);
    }
    counts.records = rng.next_u64();
    counts
}

fn arb_audit(rng: &mut TestRng) -> AuditReport {
    AuditReport {
        checked_cycles: rng.next_u64(),
        violations: (0..rng.below(3))
            .map(|_| Violation {
                cycle: rng.next_u64(),
                component: arb_string(rng),
                expected: arb_string(rng),
                actual: arb_string(rng),
            })
            .collect(),
        dropped_violations: rng.below(100),
    }
}

fn arb_session(rng: &mut TestRng) -> CachedSession {
    if rng.below(2) == 0 {
        CachedSession::Random {
            result: SessionResult {
                session: rng.below(64) as usize,
                samples: (0..rng.below(4))
                    .map(|_| Sample {
                        session: rng.below(64) as usize,
                        at_cycle: rng.next_u64(),
                        counts: arb_counts(rng),
                        kernel: KernelCounters {
                            page_faults_user: rng.next_u64(),
                            page_faults_system: rng.below(1000),
                        },
                    })
                    .collect(),
                jobs_completed: rng.below(1000),
                audit: arb_audit(rng),
            },
        }
    } else {
        CachedSession::Captures {
            captures: (0..rng.below(4))
                .map(|_| Capture {
                    session: rng.below(64) as usize,
                    at_cycle: rng.next_u64(),
                    counts: arb_counts(rng),
                })
                .collect(),
            audit: arb_audit(rng),
        }
    }
}

/// `num[j]` for a machine of 1 to 64 CEs (widths 2..=65): all zero, all
/// serial (only `j = 0, 1`), or arbitrary counts with many empty bins.
fn arb_num(rng: &mut TestRng) -> Vec<u64> {
    let width = 2 + rng.below(64) as usize;
    let kind = rng.below(4);
    (0..width)
        .map(|j| match kind {
            0 => 0,
            1 if j >= 2 => 0,
            _ if rng.below(3) == 0 => 0,
            _ => rng.next_u64() >> (20 + rng.below(44)),
        })
        .collect()
}

/// Equations 4.2 and 4.4 as the vector-building code computed them: the
/// full `c_j` vector, `C_w` summed from it, then the `c_{j|c}` vector and
/// `P_c` summed from that.
fn cw_pc_by_vectors(num: &[u64]) -> (f64, Option<f64>) {
    let total: u64 = num.iter().sum();
    if total == 0 {
        return (0.0, None);
    }
    let c: Vec<f64> = num.iter().map(|&k| k as f64 / total as f64).collect();
    let cw: f64 = c.iter().skip(2).sum();
    if cw <= 0.0 {
        return (cw, None);
    }
    let cond: Vec<f64> = c
        .iter()
        .enumerate()
        .map(|(j, &cj)| if j >= 2 { cj / cw } else { 0.0 })
        .collect();
    (
        cw,
        Some(cond.iter().enumerate().map(|(j, &p)| j as f64 * p).sum()),
    )
}

/// A [`Strategy`] from a sampling function.
struct Sampled<F>(F);

impl<T, F: Fn(&mut TestRng) -> T> Strategy for Sampled<F> {
    type Value = T;

    fn sample(&self, rng: &mut TestRng) -> T {
        (self.0)(rng)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn any_value_round_trips_through_text(v in Sampled(|rng: &mut TestRng| arb_value(rng, 4))) {
        let text = serde_json::to_string(&v).unwrap();
        prop_assert_eq!(serde_json::from_str::<Value>(&text).unwrap(), v);
    }

    #[test]
    fn cache_payloads_round_trip_typed(session in Sampled(arb_session)) {
        let text = serde_json::to_string(&session).unwrap();
        let back: CachedSession = serde_json::from_str(&text).unwrap();
        prop_assert_eq!(serde_json::to_string(&back).unwrap(), text);
        prop_assert_eq!(back, session);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(2048))]

    #[test]
    fn allocation_free_measures_match_the_vectors_bit_for_bit(num in Sampled(arb_num)) {
        let bits = |(cw, pc): (f64, Option<f64>)| (cw.to_bits(), pc.map(f64::to_bits));
        let m = ConcurrencyMeasures::from_counts(&num);
        let fast = bits(cw_pc(&num));
        prop_assert_eq!(fast, bits((m.workload_concurrency, m.mean_concurrency_level)));
        prop_assert_eq!(fast, bits(cw_pc_by_vectors(&num)));
    }
}
