//! Workload inputs generated from `--seed`.
//!
//! The seed selects the study's `base_seed` from [`STUDY_SEEDS`]; the
//! program only ever sees the resulting `StudyConfig`. Entry 0 is the
//! presets' own 1987. The table holds base seeds whose paper study runs
//! every transition-triggered session to its captures well before the
//! seek deadline, and whose cost sits in the middle of the screened bases
//! in every timed phase: the cold paper study (`disk_warm`'s set-up), the
//! disk re-run, and the cold and warm quick study (`serve_warm`'s set-up
//! and op). `README.md` ("Seeds") gives the measurements behind that
//! choice.

use fx8_core::study::StudyConfig;

/// One entry of the seed table, pinned by a cold paper study.
#[derive(Debug, Clone, Copy)]
pub struct StudySeed {
    /// The study's `base_seed`.
    pub base_seed: u64,
    /// Digest (FNV-1a-128 hex) of the serialized paper-study `JobResult`.
    pub paper_digest: &'static str,
    /// Simulated cycles of the paper study, all sessions.
    pub paper_cycles: u64,
}

/// The seed table: `--seed n` selects entry `n % len`.
pub const STUDY_SEEDS: &[StudySeed] = &[
    StudySeed {
        base_seed: 1987,
        paper_digest: "6b35cf8918ba1d75f588b6d9d9b3930d",
        paper_cycles: 160_439_337,
    },
    StudySeed {
        base_seed: 100987,
        paper_digest: "f8f44af36a62397953153bbb66b89aba",
        paper_cycles: 125_978_934,
    },
    StudySeed {
        base_seed: 106987,
        paper_digest: "79a65083cfe72388a411372bdbf5bc73",
        paper_cycles: 131_654_371,
    },
    StudySeed {
        base_seed: 154987,
        paper_digest: "0a817ec128fb0e2794747a33246f042f",
        paper_cycles: 134_735_098,
    },
    StudySeed {
        base_seed: 166987,
        paper_digest: "b1fd733b74e36f19687d68663f31fe21",
        paper_cycles: 111_942_139,
    },
];

/// Everything a workload run needs to know.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The large study: `disk_warm` runs it cold in set-up and re-runs it
    /// from disk.
    pub study: StudyConfig,
    /// The small study: `serve_warm`'s job.
    pub quick: StudyConfig,
    /// How long the timed phase runs.
    pub seconds: f64,
    /// Set-ups per run of `serve_warm`; `setup_s` is their median.
    pub setup_reps: usize,
    /// Cold paper studies in each run's set-up of `disk_warm`; `setup_s`
    /// is their median.
    pub populates: usize,
    /// Untimed `serve_warm` jobs before the timed loop; peak memory is
    /// read after them.
    pub warm_jobs: usize,
    /// Pinned expectations for `study`, when it is a table entry.
    pub pinned: Option<StudySeed>,
}

impl Plan {
    /// The inputs for `--seed seed`.
    pub fn for_seed(seed: u64, seconds: f64) -> Plan {
        let entry = STUDY_SEEDS[(seed % STUDY_SEEDS.len() as u64) as usize];
        let with_seed = |mut cfg: StudyConfig| {
            cfg.base_seed = entry.base_seed;
            cfg
        };
        Plan {
            study: with_seed(StudyConfig::paper()),
            quick: with_seed(StudyConfig::quick()),
            seconds,
            setup_reps: 5,
            populates: 3,
            warm_jobs: 256,
            pinned: Some(entry),
        }
    }

    /// A tiny plan for the benchmark's own tests: three short sessions,
    /// a fraction of a second timed, nothing pinned.
    #[cfg(test)]
    pub fn tiny() -> Plan {
        let study = StudyConfig {
            n_random: 1,
            session_hours: vec![0.05],
            n_triggered: 1,
            captures_per_triggered: 2,
            n_transition: 1,
            captures_per_transition: 2,
            ..StudyConfig::paper()
        };
        Plan {
            quick: study.clone(),
            study,
            seconds: 0.3,
            setup_reps: 1,
            populates: 2,
            warm_jobs: 4,
            pinned: None,
        }
    }

    /// Sessions in one run of `cfg`.
    pub fn sessions(cfg: &StudyConfig) -> u64 {
        (cfg.n_random + cfg.n_triggered + cfg.n_transition) as u64
    }
}
