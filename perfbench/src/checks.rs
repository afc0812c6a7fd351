//! Per-op output checks. Every op a workload times is checked here, and a
//! failed check counts the op as failed, which lowers `success_frac`.

use fx8_core::cache::CacheStats;
use fx8_core::observability::StudyObservability;
use fx8_sim::fingerprint::CacheKeyHasher;

/// FNV-1a-128 digest of a serialized result, as hex.
pub fn digest(bytes: &[u8]) -> String {
    let mut h = CacheKeyHasher::new();
    h.write_bytes(bytes);
    h.finish().to_hex()
}

/// Do the per-engine cycle counts partition the total, in every session
/// and pooled over the study?
pub fn engine_split_partitions(obs: &StudyObservability) -> bool {
    let parts = |c: &fx8_sim::trace::EngineCycles| c.scalar + c.dense + c.skipped == c.total;
    obs.sessions.iter().all(|s| parts(&s.metrics.cycles)) && parts(&obs.pooled_engine())
}

/// What a warm re-run must reproduce: the bytes the cold run produced and
/// the number of sessions it must find in the cache.
#[derive(Debug, Clone)]
pub struct Expected {
    /// Serialized `JobResult` of the cold run.
    pub result_json: String,
    /// `render_full_report` of the cold run.
    pub report: String,
    /// Sessions per study: every one must hit.
    pub sessions: u64,
}

/// A warm re-run is good when every session hit, none missed or was
/// rejected, and its result and report bytes equal the cold run's.
pub fn warm_rerun_ok(exp: &Expected, stats: &CacheStats, result_json: &str, report: &str) -> bool {
    stats.hits == exp.sessions
        && stats.misses == 0
        && stats.invalid_entries == 0
        && result_json == exp.result_json
        && report == exp.report
}

/// The result object spliced into a job status line, if any.
pub fn status_result(body: &str) -> Option<&str> {
    let at = body.find(",\"result\":")? + ",\"result\":".len();
    body.get(at..body.len().checked_sub(1)?)
}

/// The job id of a status line.
pub fn status_id(body: &str) -> Option<u64> {
    let at = body.find("\"id\":")? + "\"id\":".len();
    let digits: String = body[at..]
        .chars()
        .take_while(char::is_ascii_digit)
        .collect();
    digits.parse().ok()
}

/// The server-measured `wall_s` of a status line.
pub fn status_wall_s(body: &str) -> Option<f64> {
    let at = body.find("\"wall_s\":")? + "\"wall_s\":".len();
    let end = body[at..].find([',', '}'])? + at;
    body[at..end].parse().ok()
}

/// A served job is good when it finished `done` with exactly the result
/// bytes of the cold job.
pub fn served_job_ok(status: u16, body: &str, expected_result: &str) -> bool {
    status == 200
        && body.contains("\"state\":\"done\"")
        && status_result(body) == Some(expected_result)
}

/// Served jobs the server's cache counters cannot account for: each job
/// must take `sessions` hits and nothing else. Returns how many jobs'
/// worth of lookups went wrong (rounded up), at most `jobs`.
pub fn unexplained_jobs(delta: &CacheStats, jobs: u64, sessions: u64) -> u64 {
    let expected = jobs * sessions;
    let off = delta.hits.abs_diff(expected) + delta.misses + delta.invalid_entries;
    off.div_ceil(sessions.max(1)).min(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::disk_warm;
    use crate::plan::Plan;
    use fx8_core::api::{self, JobRequest};

    fn flip_one_byte(s: &str) -> String {
        let mut b = s.as_bytes().to_vec();
        let i = b.len() / 2;
        b[i] = if b[i] == b'0' { b'1' } else { b'0' };
        String::from_utf8(b).expect("ascii flip keeps utf-8")
    }

    #[test]
    fn a_flipped_result_byte_fails_every_check() {
        let plan = Plan::tiny();
        let req = JobRequest::study(plan.study.clone());
        let out = api::execute(&req, None).expect("tiny study runs");
        let json = serde_json::to_string(&out.result).expect("result serializes");
        let bad = flip_one_byte(&json);
        assert_ne!(digest(json.as_bytes()), digest(bad.as_bytes()));

        let exp = Expected {
            result_json: json.clone(),
            report: String::new(),
            sessions: 3,
        };
        let stats = CacheStats {
            hits: 3,
            ..CacheStats::default()
        };
        assert!(warm_rerun_ok(&exp, &stats, &json, ""));
        assert!(!warm_rerun_ok(&exp, &stats, &bad, ""));

        let status =
            format!("{{\"api\":1,\"id\":7,\"state\":\"done\",\"wall_s\":0.5,\"result\":{json}}}");
        assert_eq!(status_id(&status), Some(7));
        assert_eq!(status_wall_s(&status), Some(0.5));
        assert!(served_job_ok(200, &status, &json));
        assert!(!served_job_ok(200, &status, &bad));
        assert!(!served_job_ok(500, &status, &json));
    }

    #[test]
    fn a_missing_cache_entry_fails_the_disk_rerun() {
        let plan = Plan::tiny();
        let dir = crate::work_dir("checks-missing-entry");
        let req = JobRequest::study(plan.study.clone());
        let (exp, _) = disk_warm::populate(&req, &dir).expect("populate runs");
        let ok = disk_warm::rerun(&req, &dir).expect("warm re-run runs");
        assert!(warm_rerun_ok(&exp, &ok.stats, &ok.result_json, &ok.report));

        let victim = std::fs::read_dir(&dir)
            .expect("cache dir lists")
            .filter_map(Result::ok)
            .map(|e| e.path())
            .find(|p| p.is_file())
            .expect("the cache holds an entry");
        std::fs::remove_file(&victim).expect("entry removable");
        let out = disk_warm::rerun(&req, &dir).expect("re-run still completes");
        assert_eq!(out.stats.misses, 1);
        assert!(!warm_rerun_ok(
            &exp,
            &out.stats,
            &out.result_json,
            &out.report
        ));
        // The re-run recomputed the entry, so its bytes still agree: only
        // the cache counters catch the missing entry.
        assert_eq!(out.result_json, exp.result_json);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn cache_counters_account_for_every_served_job() {
        let sessions = 7;
        let good = CacheStats {
            hits: 70,
            ..CacheStats::default()
        };
        assert_eq!(unexplained_jobs(&good, 10, sessions), 0);
        let one_miss = CacheStats {
            hits: 69,
            misses: 1,
            ..CacheStats::default()
        };
        assert_eq!(unexplained_jobs(&one_miss, 10, sessions), 1);
        let cold = CacheStats {
            misses: 70,
            stores: 70,
            ..CacheStats::default()
        };
        assert_eq!(unexplained_jobs(&cold, 10, sessions), 10);
    }
}
