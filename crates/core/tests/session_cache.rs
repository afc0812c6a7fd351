//! Correctness suite for the content-addressed session result cache.
//!
//! The cache is only sound because the simulator is bit-deterministic: a
//! cached study must be **indistinguishable** from a freshly computed one.
//! These tests drive a mini study cold and warm through a real on-disk
//! store and assert bit-identity, then attack the store — corrupt entries,
//! truncated entries, foreign keys, a bumped engine-version salt — and
//! assert every attack degrades to a recompute, never to a wrong result.

use fx8_core::api::{codes, CancelToken, RunHooks, SessionDone};
use fx8_core::cache::{CachedSession, SessionCache, SessionKind};
use fx8_core::experiment::SessionConfig;
use fx8_core::observability::StudyObservability;
use fx8_core::scale::{ScaleConfig, ScaleStudy};
use fx8_core::study::{Study, StudyConfig};
use fx8_sim::trace::MetricsSnapshot;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Mutex;

/// A unique scratch directory under the system temp dir. Not auto-cleaned
/// (test scratch under tmp), but unique per call so tests never collide.
fn scratch_dir(tag: &str) -> PathBuf {
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .expect("clock before epoch")
        .subsec_nanos();
    let dir = std::env::temp_dir().join(format!(
        "fx8-cache-test-{tag}-{}-{nanos}",
        std::process::id()
    ));
    std::fs::create_dir_all(&dir).expect("scratch dir creates");
    dir
}

/// A study small enough to run in a test, with all three session kinds so
/// every cache payload variant round-trips through disk.
fn mini_study() -> StudyConfig {
    let mut cfg = StudyConfig::quick();
    cfg.n_random = 2;
    cfg.session_hours = vec![0.02, 0.03];
    cfg.n_triggered = 1;
    cfg.captures_per_triggered = 2;
    cfg.n_transition = 1;
    cfg.captures_per_transition = 2;
    cfg
}

const MINI_SESSIONS: u64 = 4;

fn run_against(cache: &SessionCache) -> (Study, StudyObservability) {
    Study::run(mini_study(), Some(cache), &RunHooks::default()).expect("uncancellable")
}

/// The tentpole guarantee: a warm run answered entirely from the on-disk
/// store is bit-identical to the cold run that populated it. The warm run
/// uses a *fresh* `SessionCache`, so every hit must come through the disk
/// layer (JSON round-trip included), not the in-process map.
#[test]
fn warm_disk_run_is_bit_identical_to_cold_run() {
    let dir = scratch_dir("warm");

    let cold_cache = SessionCache::at_dir(&dir);
    let (cold, cold_obs) = run_against(&cold_cache);
    assert_eq!(cold_obs.cache.hits, 0);
    assert_eq!(cold_obs.cache.misses, MINI_SESSIONS);
    assert_eq!(cold_obs.cache.stores, MINI_SESSIONS);

    let warm_cache = SessionCache::at_dir(&dir);
    let (warm, warm_obs) = run_against(&warm_cache);
    assert_eq!(
        warm_obs.cache.hits, MINI_SESSIONS,
        "warm run must fully hit"
    );
    assert_eq!(warm_obs.cache.misses, 0);
    assert_eq!(warm_obs.cache.invalid_entries, 0);
    assert!(warm_obs.sessions.iter().all(|s| s.cache_hit));

    assert_eq!(warm, cold, "cached study diverged from computed study");
    // Bit-identity all the way down to the serialized report payload.
    assert_eq!(
        serde_json::to_string(&warm).unwrap(),
        serde_json::to_string(&cold).unwrap()
    );

    let _ = std::fs::remove_dir_all(&dir);
}

/// Corrupt, truncate, and garbage every stored entry: the next run must
/// notice (counting invalid entries), fall back to recomputing, and still
/// produce the bit-identical study.
#[test]
fn corrupt_entries_recompute_identically() {
    let dir = scratch_dir("corrupt");
    let (cold, _) = run_against(&SessionCache::at_dir(&dir));

    let mut mangled = 0u64;
    for (i, entry) in std::fs::read_dir(&dir)
        .expect("cache dir lists")
        .enumerate()
    {
        let path = entry.expect("dir entry").path();
        if path.extension().and_then(|e| e.to_str()) != Some("json") {
            continue;
        }
        match i % 3 {
            0 => std::fs::write(&path, "{not json").unwrap(), // parse failure
            1 => {
                // Truncate mid-entry: syntactically broken JSON.
                let text = std::fs::read_to_string(&path).unwrap();
                std::fs::write(&path, &text[..text.len() / 2]).unwrap();
            }
            _ => std::fs::write(&path, "").unwrap(), // empty file
        }
        mangled += 1;
    }
    assert_eq!(mangled, MINI_SESSIONS, "expected one entry per session");

    let cache = SessionCache::at_dir(&dir);
    let (redone, obs) = run_against(&cache);
    assert_eq!(redone, cold, "recompute after corruption diverged");
    assert_eq!(obs.cache.hits, 0);
    assert_eq!(obs.cache.misses, MINI_SESSIONS);
    assert_eq!(
        obs.cache.invalid_entries, MINI_SESSIONS,
        "every mangled entry must be counted, not silently missed"
    );
    // And the recompute rewrote good entries: a third run fully hits.
    let (again, obs) = run_against(&SessionCache::at_dir(&dir));
    assert_eq!(again, cold);
    assert_eq!(obs.cache.hits, MINI_SESSIONS);

    let _ = std::fs::remove_dir_all(&dir);
}

/// The disk is the cache's one trust boundary: a corrupt entry is counted
/// invalid once, when it is read, and recomputed. A second run on the same
/// cache answers every session from the in-process map, with the store
/// gone from disk, and checks nothing again.
#[test]
fn a_corrupt_entry_is_checked_once_then_served_from_memory() {
    let dir = scratch_dir("boundary");
    let (cold, _) = run_against(&SessionCache::at_dir(&dir));
    let entry = std::fs::read_dir(&dir)
        .expect("cache dir lists")
        .map(|e| e.expect("dir entry").path())
        .find(|p| p.extension().is_some_and(|e| e == "json"))
        .expect("a stored entry");
    std::fs::write(&entry, "{not json").unwrap();

    let cache = SessionCache::at_dir(&dir);
    let (first, obs) = run_against(&cache);
    assert_eq!(first, cold);
    let c = obs.cache;
    assert_eq!(
        (c.hits, c.misses, c.stores, c.invalid_entries),
        (MINI_SESSIONS - 1, 1, 1, 1)
    );

    std::fs::remove_dir_all(&dir).expect("cache dir removes");
    let (second, obs) = run_against(&cache);
    assert_eq!(second, first);
    let c = obs.cache;
    assert_eq!(
        (c.hits, c.misses, c.stores, c.invalid_entries),
        (MINI_SESSIONS, 0, 0, 0)
    );
}

/// A bumped engine-version salt must invalidate everything: new keys see
/// an empty store, and even a file renamed onto the new key's path is
/// rejected by its header echo.
#[test]
fn engine_salt_bump_invalidates_stored_entries() {
    let dir = scratch_dir("salt");
    let cfg = SessionConfig {
        hours: 0.01,
        ..SessionConfig::paper(7)
    };

    let v1 = SessionCache::at_dir(&dir);
    let k1 = v1.key(SessionKind::Triggered, &cfg, 0, 2);
    v1.store(
        &k1,
        &CachedSession::Captures {
            captures: Vec::new(),
            audit: Default::default(),
        },
    );
    assert!(v1.lookup_disk(&k1, |_| true).is_some());

    // The salt reaches the key, so the v2 cache looks elsewhere entirely.
    let v2 = SessionCache::at_dir(&dir).with_engine_salt(u64::MAX);
    let k2 = v2.key(SessionKind::Triggered, &cfg, 0, 2);
    assert_ne!(k1, k2, "engine salt must reach the fingerprint");
    assert!(v2.lookup_disk(&k2, |_| true).is_none());

    // Adversarial rename: masquerade the v1 entry as the v2 key. The
    // header (engine version + echoed key) must reject it as invalid.
    std::fs::rename(
        dir.join(format!("{}.json", k1.to_hex())),
        dir.join(format!("{}.json", k2.to_hex())),
    )
    .expect("rename stored entry");
    assert!(
        v2.lookup_disk(&k2, |_| true).is_none(),
        "stale-engine entry must not load"
    );
    assert_eq!(v2.stats().invalid_entries, 1);

    let _ = std::fs::remove_dir_all(&dir);
}

/// A re-run on a warm in-process map resolves every session inline: the
/// same bytes as the cold run, one hit per session, and every progress
/// callback on the calling thread (no pool thread was started).
#[test]
fn warm_memory_run_resolves_inline_on_the_calling_thread() {
    let cache = SessionCache::in_memory();
    let (cold, cold_obs) = run_against(&cache);
    assert_eq!(cold_obs.cache.misses, MINI_SESSIONS);

    let threads = Mutex::new(Vec::new());
    let on_session = |_: SessionDone| threads.lock().unwrap().push(std::thread::current().id());
    let hooks = RunHooks {
        cancel: None,
        on_session: Some(&on_session),
    };
    let (warm, warm_obs) = Study::run(mini_study(), Some(&cache), &hooks).expect("uncancelled");
    assert_eq!(
        serde_json::to_string(&warm).unwrap(),
        serde_json::to_string(&cold).unwrap()
    );
    assert_eq!(warm_obs.cache.hits, MINI_SESSIONS);
    assert_eq!(warm_obs.cache.misses, 0);
    let labels: Vec<&str> = warm_obs.sessions.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(
        labels,
        ["random 0", "random 1", "triggered 0", "transition 0"]
    );
    let threads = threads.into_inner().unwrap();
    assert_eq!(threads.len() as u64, MINI_SESSIONS);
    let caller = std::thread::current().id();
    assert!(threads.iter().all(|&t| t == caller), "{threads:?}");
}

/// Half the sessions in the in-process map, the other half only on disk:
/// the inline pass and the pool together still take exactly one hit per
/// session, and the study is unchanged.
#[test]
fn half_warm_run_takes_one_hit_per_session() {
    let dir = scratch_dir("half");
    let (cold, _) = run_against(&SessionCache::at_dir(&dir));

    // A fresh cache over the same store; a study of the random sessions
    // alone promotes exactly those entries into its in-process map.
    let cache = SessionCache::at_dir(&dir);
    let randoms = StudyConfig {
        n_triggered: 0,
        n_transition: 0,
        ..mini_study()
    };
    let (_, obs) = Study::run(randoms, Some(&cache), &RunHooks::default()).expect("uncancelled");
    assert_eq!((obs.cache.hits, obs.cache.misses), (2, 0));

    let (warm, obs) = run_against(&cache);
    assert_eq!(warm, cold);
    assert_eq!(obs.cache.hits, MINI_SESSIONS);
    assert_eq!(obs.cache.misses, 0);
    assert_eq!(obs.cache.invalid_entries, 0);
    assert!(obs.sessions.iter().all(|s| s.cache_hit));

    let _ = std::fs::remove_dir_all(&dir);
}

/// Every path that builds a session slice goes through the one record:
/// a cold run into a disk store (simulated in the pool), a re-run on the
/// same cache (in-process hits, resolved on the calling thread) and a run
/// on a fresh cache over that store (disk hits, resolved in the pool)
/// name the same sessions in the same order, flag hits, leave hit metrics
/// empty and time each session within its run's wall clock. A width
/// sweep's slices carry their width.
#[test]
fn every_session_path_records_one_labeled_timed_slice() {
    let dir = scratch_dir("record");
    let cache = SessionCache::at_dir(&dir);
    let runs = [
        run_against(&cache).1,
        run_against(&cache).1,
        run_against(&SessionCache::at_dir(&dir)).1,
    ];
    let within_wall = |obs: &StudyObservability| {
        obs.sessions
            .iter()
            .all(|s| s.wall_s.is_finite() && s.wall_s >= 0.0 && s.wall_s <= obs.study_wall_s)
    };
    for (obs, hit) in runs.iter().zip([false, true, true]) {
        let labels: Vec<&str> = obs.sessions.iter().map(|s| s.label.as_str()).collect();
        assert_eq!(
            labels,
            ["random 0", "random 1", "triggered 0", "transition 0"]
        );
        for s in &obs.sessions {
            assert_eq!(s.cache_hit, hit, "{}", s.label);
            if hit {
                assert_eq!(s.metrics, MetricsSnapshot::default(), "{}", s.label);
                assert!(s.events.is_empty() && s.events_dropped == 0, "{}", s.label);
            }
        }
        assert!(within_wall(obs), "{:?}", obs.sessions);
    }

    let sweep = ScaleConfig {
        base: mini_study(),
        widths: vec![2, 4],
    };
    let (_, obs) = ScaleStudy::run(&sweep, None, &RunHooks::default()).expect("uncancelled");
    let labels: Vec<&str> = obs.sessions.iter().map(|s| s.label.as_str()).collect();
    assert_eq!(
        labels,
        [
            "w2 random 0",
            "w2 random 1",
            "w2 triggered 0",
            "w2 transition 0",
            "w4 random 0",
            "w4 random 1",
            "w4 triggered 0",
            "w4 transition 0",
        ]
    );
    assert!(within_wall(&obs), "{:?}", obs.sessions);

    let _ = std::fs::remove_dir_all(&dir);
}

/// Cancellation is checked before every session, inline hits included.
#[test]
fn a_cancelled_all_hit_run_is_cancelled() {
    let cache = SessionCache::in_memory();
    run_against(&cache);
    let token = CancelToken::new();
    token.cancel();
    let hooks = RunHooks {
        cancel: Some(&token),
        on_session: None,
    };
    let err = Study::run(mini_study(), Some(&cache), &hooks).unwrap_err();
    assert_eq!(err.code, codes::JOB_CANCELLED);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Key sensitivity: every input that can steer a session result must
    /// reach the fingerprint. Perturbing any one of seed, session length,
    /// sampling cadence, machine width, kind, index, or capture budget
    /// must produce a different key; identical inputs must collide.
    #[test]
    fn every_steering_input_reaches_the_key(
        seed in 0u64..1_000_000,
        idx in 0usize..32,
        captures in 0usize..16,
        width_shift in 1usize..6,
    ) {
        let cache = SessionCache::in_memory();
        let cfg = SessionConfig { hours: 0.01, ..SessionConfig::paper(seed) };
        let base = cache.key(SessionKind::Random, &cfg, idx, captures);

        // Same inputs, fresh key computation: stable.
        prop_assert_eq!(base, cache.key(SessionKind::Random, &cfg, idx, captures));

        // Seed.
        let mut c = cfg.clone();
        c.seed = seed.wrapping_add(1);
        prop_assert_ne!(base, cache.key(SessionKind::Random, &c, idx, captures));

        // Session length.
        let mut c = cfg.clone();
        c.hours += 0.01;
        prop_assert_ne!(base, cache.key(SessionKind::Random, &c, idx, captures));

        // Sampling cadence.
        let mut c = cfg.clone();
        c.sample_interval_s += 1.0;
        prop_assert_ne!(base, cache.key(SessionKind::Random, &c, idx, captures));

        // Machine width.
        let mut c = cfg.clone();
        c.machine = fx8_sim::MachineConfig::scaled(1 << width_shift);
        if c.machine != cfg.machine {
            prop_assert_ne!(base, cache.key(SessionKind::Random, &c, idx, captures));
        }

        // Kind, index, capture budget.
        prop_assert_ne!(base, cache.key(SessionKind::Transition, &cfg, idx, captures));
        prop_assert_ne!(base, cache.key(SessionKind::Random, &cfg, idx + 1, captures));
        prop_assert_ne!(base, cache.key(SessionKind::Random, &cfg, idx, captures + 1));
    }
}
