//! Determinism-backed session result memoization.
//!
//! PRs 1–7 proved the simulator bit-deterministic: a session's result is a
//! pure function of its validated [`SessionConfig`], its session index,
//! its capture budget, and the build's stepping semantics. That makes
//! session results *content-addressable* — this module caches them under a
//! stable fingerprint of exactly those inputs, so re-running a study, a
//! bench, or a width sweep recomputes only sessions it has never seen.
//!
//! Two layers share one key space:
//!
//! * an **in-process map**, so repeated sessions inside one process (warm
//!   bench reruns, overlapping sweep widths) hit without touching disk;
//! * an optional **on-disk store** (one JSON file per key, under
//!   `~/.cache/fx8` or an explicit `--cache-dir`), written atomically via
//!   write-then-rename so a crashed or concurrent writer can never leave a
//!   half-entry where a reader expects a whole one.
//!
//! The disk is the cache's one trust boundary. Every disk entry carries a
//! versioned header (format version, engine version, its own key echoed
//! back), and a disk read checks the payload against the shape its
//! session produces before it counts a hit. Anything unexpected —
//! truncated file, failed parse, header mismatch, foreign key, a payload
//! that fails its check — is treated as a *miss* and recomputed; the
//! cache can degrade but never corrupt a study. The in-process map is
//! not checked again: its only writers are a store of what this process
//! just computed and the promotion of a disk entry that passed. See
//! DESIGN.md §13 for the full correctness argument.

use crate::experiment::{Capture, SessionConfig, SessionResult};
use fx8_sim::audit::AuditReport;
use fx8_sim::fingerprint::{CacheKeyHasher, Fingerprint, AUDIT_BUILD, ENGINE_VERSION};
use fx8_sim::{MachineConfig, TraceConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// On-disk entry layout version. Bumped when the serialized entry shape
/// changes; old-format entries then read as misses.
pub const CACHE_FORMAT: u32 = 1;

/// The three session protocols, as they appear in cache keys. Keying the
/// kind keeps a random session and a triggered session with coincidentally
/// equal configs from ever sharing an entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SessionKind {
    /// Random workload sampling (§ 3.5 protocol 1).
    Random,
    /// All-active-triggered capture.
    Triggered,
    /// Transition-triggered capture.
    Transition,
}

impl SessionKind {
    fn tag(self) -> &'static str {
        match self {
            SessionKind::Random => "random",
            SessionKind::Triggered => "triggered",
            SessionKind::Transition => "transition",
        }
    }

    /// The label of session `idx` of this kind ("random 3", "triggered 0",
    /// ...), as progress hooks, observability slices and audit reports
    /// show it.
    pub fn label(self, idx: usize) -> String {
        format!("{} {idx}", self.tag())
    }
}

/// One memoized session output: everything the study keeps from a session
/// run. Integer-only payloads (plus config floats serialized with
/// shortest-round-trip lexemes), so the JSON round-trip is bit-exact.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum CachedSession {
    /// A random-sampling session's full result.
    Random {
        /// The session result, exactly as the runner returned it.
        result: SessionResult,
    },
    /// A triggered or transition session's captures plus audit report.
    Captures {
        /// Captured buffers, in capture order.
        captures: Vec<Capture>,
        /// The session's invariant-audit report.
        audit: AuditReport,
    },
}

/// Hit/miss/store counters, readable at any time and diffable across a
/// study so per-study rates can be reported from a shared cache.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize)]
pub struct CacheStats {
    /// Lookups answered from the cache (either layer).
    pub hits: u64,
    /// Lookups that fell through to a fresh computation.
    pub misses: u64,
    /// Entries stored after a miss computed.
    pub stores: u64,
    /// Disk entries rejected as corrupt, truncated, or version-mismatched
    /// (each also counts as a miss).
    pub invalid_entries: u64,
}

impl CacheStats {
    /// Total lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// Fraction of lookups that hit; 0 when nothing was looked up.
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            0.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }

    /// Counter deltas since an earlier snapshot of the same cache.
    pub fn since(&self, earlier: &CacheStats) -> CacheStats {
        CacheStats {
            hits: self.hits.saturating_sub(earlier.hits),
            misses: self.misses.saturating_sub(earlier.misses),
            stores: self.stores.saturating_sub(earlier.stores),
            invalid_entries: self.invalid_entries.saturating_sub(earlier.invalid_entries),
        }
    }
}

/// Versioned wrapper around every on-disk entry, as read back.
#[derive(Debug, Deserialize)]
struct DiskEntry {
    /// [`CACHE_FORMAT`] at write time.
    format: u32,
    /// Engine-version salt the entry was keyed under.
    engine: u64,
    /// The entry's own key, echoed so a renamed file cannot masquerade.
    key: String,
    /// The memoized session.
    session: CachedSession,
}

/// [`DiskEntry`] as written: the same fields, the session borrowed.
#[derive(Serialize)]
struct DiskEntryRef<'a> {
    format: u32,
    engine: u64,
    key: String,
    session: &'a CachedSession,
}

/// The content-addressed session cache: an in-process map over an
/// optional persistent directory. Shared by reference across the study
/// executor's worker threads.
#[derive(Debug)]
pub struct SessionCache {
    dir: Option<PathBuf>,
    engine_salt: u64,
    mem: Mutex<HashMap<Fingerprint, CachedSession>>,
    hits: AtomicU64,
    misses: AtomicU64,
    stores: AtomicU64,
    invalid: AtomicU64,
    tmp_seq: AtomicU64,
}

impl SessionCache {
    fn new(dir: Option<PathBuf>) -> Self {
        SessionCache {
            dir,
            engine_salt: ENGINE_VERSION,
            mem: Mutex::new(HashMap::new()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            stores: AtomicU64::new(0),
            invalid: AtomicU64::new(0),
            tmp_seq: AtomicU64::new(0),
        }
    }

    /// A process-local cache with no disk layer: repeated sessions inside
    /// this process hit, nothing persists.
    pub fn in_memory() -> Self {
        SessionCache::new(None)
    }

    /// A cache persisted under `dir` (created on first store).
    pub fn at_dir(dir: impl Into<PathBuf>) -> Self {
        SessionCache::new(Some(dir.into()))
    }

    /// The conventional persistent location: `$XDG_CACHE_HOME/fx8`, or
    /// `$HOME/.cache/fx8`; `None` when neither variable resolves.
    pub fn default_dir() -> Option<PathBuf> {
        if let Some(x) = std::env::var_os("XDG_CACHE_HOME") {
            if !x.is_empty() {
                return Some(PathBuf::from(x).join("fx8"));
            }
        }
        let home = std::env::var_os("HOME")?;
        if home.is_empty() {
            return None;
        }
        Some(PathBuf::from(home).join(".cache").join("fx8"))
    }

    /// Override the engine-version salt (normally
    /// [`ENGINE_VERSION`]). For tests and ablations: a bumped salt must
    /// invalidate every previously stored entry.
    pub fn with_engine_salt(mut self, salt: u64) -> Self {
        self.engine_salt = salt;
        self
    }

    /// The persistent directory, when this cache has one.
    pub fn dir(&self) -> Option<&Path> {
        self.dir.as_deref()
    }

    /// Counter snapshot (monotonic over the cache's lifetime; diff with
    /// [`CacheStats::since`] for per-study rates).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            stores: self.stores.load(Ordering::Relaxed),
            invalid_entries: self.invalid.load(Ordering::Relaxed),
        }
    }

    /// The content fingerprint of one session's full input: engine
    /// version, audit-build flag, session kind, the *canonical* session
    /// config (trace knobs zeroed and engine knobs at their defaults —
    /// neither steers results, so all such runs share entries), session
    /// index, and capture budget.
    pub fn key(
        &self,
        kind: SessionKind,
        cfg: &SessionConfig,
        session_idx: usize,
        captures: usize,
    ) -> Fingerprint {
        let mut canon = cfg.clone();
        // Trace knobs never steer the simulation (asserted by the
        // pure-observer suite), and the dense kernel, with or without its
        // jumps, is bit-identical to the scalar stepper (asserted by the
        // differential suites), so all three knobs are canonicalized out
        // of the key.
        let defaults = MachineConfig::default();
        canon.machine.trace = TraceConfig::off();
        canon.machine.fast_forward = defaults.fast_forward;
        canon.machine.dense_stepping = defaults.dense_stepping;
        let json = serde_json::to_string(&canon).expect("session config serializes");
        let mut h = CacheKeyHasher::new();
        h.write_str("fx8-session-cache");
        h.write_u64(CACHE_FORMAT as u64);
        h.write_u64(self.engine_salt);
        h.write_bool(AUDIT_BUILD);
        h.write_str(kind.tag());
        h.write_str(&json);
        h.write_usize(session_idx);
        h.write_usize(captures);
        h.finish()
    }

    /// Look a key up in the in-process map. A hit is trusted as held: the
    /// map's only writers are [`SessionCache::store`], with what this
    /// process computed under the key, and [`SessionCache::lookup_disk`],
    /// with an entry that passed its check. A hit counts; an absent key
    /// counts nothing, so a caller that then takes `lookup_disk` still
    /// counts exactly one hit or miss.
    pub fn lookup_memory(&self, key: &Fingerprint) -> Option<CachedSession> {
        let hit = self
            .mem
            .lock()
            .expect("cache map poisoned")
            .get(key)
            .cloned()?;
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(hit)
    }

    /// Read a key's entry from the disk layer, the cache's one trust
    /// boundary: the entry's header must match this cache and key, and
    /// `fits`, the caller's check of the shape its session produces, must
    /// accept the payload. An entry that passes is promoted into the
    /// in-process map and counts as a hit. Anything else counts as a miss:
    /// no directory, an absent file, and an entry that is unreadable or
    /// fails either check, which also counts as invalid and is overwritten
    /// by the caller's recomputed store.
    pub fn lookup_disk(
        &self,
        key: &Fingerprint,
        fits: impl Fn(&CachedSession) -> bool,
    ) -> Option<CachedSession> {
        let entry = self.dir.as_ref().and_then(|dir| {
            // An absent file is a plain miss, not corruption.
            let bytes = std::fs::read_to_string(self.entry_path(dir, key)).ok()?;
            let valid = serde_json::from_str::<DiskEntry>(&bytes).ok().filter(|e| {
                e.format == CACHE_FORMAT
                    && e.engine == self.engine_salt
                    && e.key == key.to_hex()
                    && fits(&e.session)
            });
            if valid.is_none() {
                self.invalid.fetch_add(1, Ordering::Relaxed);
            }
            valid
        });
        let Some(DiskEntry { session, .. }) = entry else {
            self.misses.fetch_add(1, Ordering::Relaxed);
            return None;
        };
        self.mem
            .lock()
            .expect("cache map poisoned")
            .insert(*key, session.clone());
        self.hits.fetch_add(1, Ordering::Relaxed);
        Some(session)
    }

    /// Store a computed session under its key in both layers. Disk I/O
    /// failures degrade the cache to in-memory silently — a cache must
    /// never fail a study.
    pub fn store(&self, key: &Fingerprint, session: &CachedSession) {
        self.mem
            .lock()
            .expect("cache map poisoned")
            .insert(*key, session.clone());
        self.stores.fetch_add(1, Ordering::Relaxed);
        let Some(dir) = &self.dir else { return };
        let entry = DiskEntryRef {
            format: CACHE_FORMAT,
            engine: self.engine_salt,
            key: key.to_hex(),
            session,
        };
        let json = serde_json::to_string(&entry).expect("cache entry serializes");
        // Atomic publish: write a unique temp file, then rename it over
        // the final path. Readers either see the whole entry or no entry;
        // concurrent writers of the same key race benignly (identical
        // contents, last rename wins).
        let _ = std::fs::create_dir_all(dir);
        let seq = self.tmp_seq.fetch_add(1, Ordering::Relaxed);
        let tmp = dir.join(format!(
            ".tmp-{}-{}-{}",
            key.to_hex(),
            std::process::id(),
            seq
        ));
        let written = std::fs::File::create(&tmp)
            .and_then(|mut f| f.write_all(json.as_bytes()).and_then(|()| f.sync_all()));
        if written.is_ok() {
            let _ = std::fs::rename(&tmp, self.entry_path(dir, key));
        } else {
            let _ = std::fs::remove_file(&tmp);
        }
    }

    fn entry_path(&self, dir: &Path, key: &Fingerprint) -> PathBuf {
        dir.join(format!("{}.json", key.to_hex()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> SessionConfig {
        SessionConfig {
            hours: 0.01,
            ..SessionConfig::paper(42)
        }
    }

    fn sample_entry() -> CachedSession {
        CachedSession::Captures {
            captures: Vec::new(),
            audit: AuditReport::default(),
        }
    }

    #[test]
    fn in_memory_round_trip_counts_hits_and_misses() {
        let c = SessionCache::in_memory();
        let k = c.key(SessionKind::Random, &cfg(), 0, 0);
        assert!(c.lookup_disk(&k, |_| true).is_none());
        c.store(&k, &sample_entry());
        assert_eq!(c.lookup_memory(&k), Some(sample_entry()));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stores), (1, 1, 1));
        assert!((s.hit_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn kind_and_index_and_captures_reach_the_key() {
        let c = SessionCache::in_memory();
        let base = c.key(SessionKind::Random, &cfg(), 0, 0);
        assert_ne!(base, c.key(SessionKind::Triggered, &cfg(), 0, 0));
        assert_ne!(base, c.key(SessionKind::Random, &cfg(), 1, 0));
        assert_ne!(base, c.key(SessionKind::Random, &cfg(), 0, 1));
        let mut other = cfg();
        other.seed += 1;
        assert_ne!(base, c.key(SessionKind::Random, &other, 0, 0));
    }

    #[test]
    fn trace_knobs_are_canonicalized_out_of_the_key() {
        let c = SessionCache::in_memory();
        let plain = cfg();
        let mut traced = cfg();
        traced.machine.trace = TraceConfig::full();
        assert_eq!(
            c.key(SessionKind::Random, &plain, 0, 0),
            c.key(SessionKind::Random, &traced, 0, 0),
            "tracing is a pure observer and must share cache entries"
        );
        let mut scalar = cfg();
        scalar.machine.fast_forward = false;
        scalar.machine.dense_stepping = false;
        assert_eq!(
            c.key(SessionKind::Random, &plain, 0, 0),
            c.key(SessionKind::Random, &scalar, 0, 0),
            "the stepping engines are bit-identical and must share cache entries"
        );
    }

    /// The payload JSON is the on-disk format under [`CACHE_FORMAT`] 1:
    /// entries written by earlier builds must keep reading back. Changing
    /// these literals means bumping the format.
    #[test]
    fn payload_json_is_pinned() {
        use crate::sample::Sample;
        use fx8_monitor::{EventCounts, KernelCounters};
        let mut counts = EventCounts::empty(2);
        counts.num = vec![1, 2, 3];
        counts.prof = vec![5, 3];
        counts.ceop[0] = 4;
        counts.membop[1] = 2;
        counts.records = 6;
        let random = CachedSession::Random {
            result: SessionResult {
                session: 1,
                samples: vec![Sample {
                    session: 1,
                    at_cycle: 300,
                    counts: counts.clone(),
                    kernel: KernelCounters {
                        page_faults_user: 7,
                        page_faults_system: 2,
                    },
                }],
                jobs_completed: 3,
                audit: AuditReport::default(),
            },
        };
        let captures = CachedSession::Captures {
            captures: vec![Capture {
                session: 0,
                at_cycle: 42,
                counts,
            }],
            audit: AuditReport {
                checked_cycles: 9,
                violations: Vec::new(),
                dropped_violations: 1,
            },
        };
        let random_json = r#"{"Random":{"result":{"session":1,"samples":[{"session":1,"at_cycle":300,"counts":{"num":[1,2,3],"prof":[5,3],"ceop":[4,0,0,0,0],"membop":[0,2,0,0,0],"records":6,"n_ces":2},"kernel":{"page_faults_user":7,"page_faults_system":2}}],"jobs_completed":3,"audit":{"checked_cycles":0,"violations":[],"dropped_violations":0}}}}"#;
        let captures_json = r#"{"Captures":{"captures":[{"session":0,"at_cycle":42,"counts":{"num":[1,2,3],"prof":[5,3],"ceop":[4,0,0,0,0],"membop":[0,2,0,0,0],"records":6,"n_ces":2}}],"audit":{"checked_cycles":9,"violations":[],"dropped_violations":1}}}"#;
        for (entry, json) in [(random, random_json), (captures, captures_json)] {
            assert_eq!(serde_json::to_string(&entry).unwrap(), json);
            let back: CachedSession = serde_json::from_str(json).unwrap();
            assert_eq!(back, entry);
        }
    }

    #[test]
    fn stats_delta_isolates_one_study() {
        let c = SessionCache::in_memory();
        let k = c.key(SessionKind::Random, &cfg(), 0, 0);
        assert!(c.lookup_disk(&k, |_| true).is_none());
        c.store(&k, &sample_entry());
        let before = c.stats();
        assert!(c.lookup_memory(&k).is_some());
        let d = c.stats().since(&before);
        assert_eq!((d.hits, d.misses, d.stores), (1, 0, 0));
    }

    #[test]
    fn a_memory_lookup_counts_hits_but_never_misses() {
        let c = SessionCache::in_memory();
        let k = c.key(SessionKind::Random, &cfg(), 0, 0);
        assert!(c.lookup_memory(&k).is_none());
        assert_eq!(
            c.stats(),
            CacheStats::default(),
            "an absent key counts nothing"
        );
        c.store(&k, &sample_entry());
        assert_eq!(c.lookup_memory(&k), Some(sample_entry()));
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.stores), (1, 0, 1));
    }

    /// The disk lookup reads the disk alone: on a cache with no directory
    /// it misses even a key the map holds.
    #[test]
    fn a_disk_lookup_never_reads_the_map() {
        let c = SessionCache::in_memory();
        let k = c.key(SessionKind::Random, &cfg(), 0, 0);
        c.store(&k, &sample_entry());
        assert!(c.lookup_disk(&k, |_| true).is_none());
        let s = c.stats();
        assert_eq!((s.hits, s.misses, s.invalid_entries), (0, 1, 0));
    }

    #[test]
    fn a_payload_that_fails_the_check_is_never_a_hit() {
        let dir = std::env::temp_dir().join(format!("fx8_cache_fits_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let c = SessionCache::at_dir(&dir);
        let k = c.key(SessionKind::Triggered, &cfg(), 0, 0);
        c.store(&k, &sample_entry());
        // A fresh process reads the disk entry: invalid, and a miss.
        let fresh = SessionCache::at_dir(&dir);
        assert!(fresh.lookup_disk(&k, |_| false).is_none());
        let s = fresh.stats();
        assert_eq!((s.hits, s.misses, s.invalid_entries), (0, 1, 1));
        assert_eq!(fresh.lookup_disk(&k, |_| true), Some(sample_entry()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn default_dir_honors_xdg_then_home() {
        // Serialized against other env-reading tests by the env lock? No
        // such lock exists; read-only assertion instead: whatever the
        // environment, a resolved dir must end with "fx8".
        if let Some(d) = SessionCache::default_dir() {
            assert!(d.ends_with("fx8") || d.to_string_lossy().ends_with("fx8"));
        }
    }
}
