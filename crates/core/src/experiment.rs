//! The three experiment protocols of § 3.5.
//!
//! * **Random sampling** — nine sessions of 4–8 hours on midweek days;
//!   every five minutes, five snapshots are captured, condensed to event
//!   counts, and stored together with the kernel counters.
//! * **All-active triggering** — ten sessions capturing buffers whenever
//!   all eight CEs were concurrent-active.
//! * **Transition triggering** — five sessions capturing buffers at the
//!   transition from eight active processors to fewer (the end of
//!   concurrent loops).

use crate::cache::SessionKind;
use crate::observability::SessionObservability;
use crate::sample::Sample;
use fx8_monitor::{DasConfig, DasMonitor, EventCounts, KernelStats, Trigger};
use fx8_sim::audit::AuditReport;
use fx8_sim::{Cluster, ConfigError, Cycle, MachineConfig};
use fx8_workload::arrival::arrival_times;
use fx8_workload::{SessionDriver, WorkloadMix};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration for one measurement session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionConfig {
    /// Machine configuration (the measured FX/8 by default).
    pub machine: MachineConfig,
    /// Workload mix driving the session.
    pub mix: WorkloadMix,
    /// Session length in hours (4–8 in the study).
    pub hours: f64,
    /// Sample interval in seconds (300 = five minutes).
    pub sample_interval_s: f64,
    /// Snapshots grouped per sample (5 in the study).
    pub snapshots_per_sample: usize,
    /// Cycles of cache warm-up simulated before each capture (the machine
    /// ran continuously between the monitor's snapshots; this re-warms the
    /// caches the macro layer does not simulate).
    pub warmup_cycles: u64,
    /// Analyzer buffer depth (512 on the DAS 9100).
    pub buffer_depth: usize,
    /// RNG seed for arrivals and job parameters.
    pub seed: u64,
}

impl SessionConfig {
    /// The study's configuration: full FX/8, production mix, 6-hour
    /// session, five 512-record snapshots per 5 minutes.
    pub fn paper(seed: u64) -> Self {
        SessionConfig {
            machine: MachineConfig::fx8(),
            mix: WorkloadMix::csrd_production(),
            hours: 6.0,
            sample_interval_s: 300.0,
            snapshots_per_sample: 5,
            warmup_cycles: 20_480,
            buffer_depth: 512,
            seed,
        }
    }

    /// A scaled-down session for tests and quick runs.
    pub fn quick(seed: u64) -> Self {
        SessionConfig {
            hours: 0.5,
            ..SessionConfig::paper(seed)
        }
    }

    /// Reject configurations the session runners cannot execute sanely:
    /// a sample interval that rounds to zero cycles used to reach
    /// [`run_random_session`] as a division by zero.
    pub fn validate(&self) -> Result<(), ConfigError> {
        self.machine.validate()?;
        if !self.hours.is_finite() || self.hours < 0.0 {
            return Err(ConfigError::out_of_range(
                "session.hours",
                self.hours,
                "expected a finite non-negative number of hours",
            ));
        }
        if !self.sample_interval_s.is_finite() || self.sample_interval_s <= 0.0 {
            return Err(ConfigError::out_of_range(
                "session.sample_interval_s",
                self.sample_interval_s,
                "expected a finite positive number of seconds",
            ));
        }
        if self.machine.seconds_to_cycles(self.sample_interval_s) == 0 {
            return Err(ConfigError::out_of_range(
                "session.sample_interval_s",
                self.sample_interval_s,
                "rounds to zero cycles on this machine",
            ));
        }
        if self.snapshots_per_sample == 0 {
            return Err(ConfigError::Zero {
                field: "session.snapshots_per_sample",
            });
        }
        if self.buffer_depth == 0 {
            return Err(ConfigError::Zero {
                field: "session.buffer_depth",
            });
        }
        Ok(())
    }

    fn interval_cycles(&self) -> u64 {
        self.machine.seconds_to_cycles(self.sample_interval_s)
    }

    fn horizon_cycles(&self) -> u64 {
        self.machine.seconds_to_cycles(self.hours * 3600.0)
    }

    /// Build the driver: machine + arrival schedule.
    fn make_driver(&self) -> SessionDriver {
        let mut cluster = Cluster::new(self.machine.clone(), self.seed);
        cluster.set_ip_intensity(self.mix.ip_intensity);
        let mut rng = SmallRng::seed_from_u64(self.seed.wrapping_mul(0x9e37_79b9));
        let times = arrival_times(&self.mix.profile, self.horizon_cycles(), &mut rng);
        let arrivals = times
            .into_iter()
            .map(|t| (t, self.mix.sample_program(&mut rng)))
            .collect();
        SessionDriver::new(cluster, arrivals)
    }
}

/// The result of one random-sampling session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionResult {
    /// Session index (set by the caller).
    pub session: usize,
    /// The per-interval samples, in time order.
    pub samples: Vec<Sample>,
    /// Jobs completed during the session.
    pub jobs_completed: u64,
    /// The simulator's invariant-audit report for the session (empty and
    /// clean unless the `audit` feature is enabled).
    pub audit: AuditReport,
}

impl SessionResult {
    /// Pool this session's record distribution. Sized to the widest sample
    /// rather than a hardwired nine bins: a session on a machine with more
    /// CEs than the FX/8's eight used to index out of bounds here.
    pub fn pooled_num(&self) -> Vec<u64> {
        let width = self
            .samples
            .iter()
            .map(|s| s.counts.num.len())
            .max()
            .unwrap_or(9);
        let mut num = vec![0u64; width];
        for s in &self.samples {
            for (j, &k) in s.counts.num.iter().enumerate() {
                num[j] += k;
            }
        }
        num
    }

    /// Pool all event counts of the session.
    pub fn pooled_counts(&self) -> EventCounts {
        let n_ces = self.samples.first().map_or(8, |s| s.counts.n_ces);
        let mut acc = EventCounts::empty(n_ces);
        for s in &self.samples {
            acc.merge(&s.counts);
        }
        acc
    }
}

/// One captured buffer of a triggered or transition session, reduced to
/// event counts at acquisition time.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Capture {
    /// Session index (set by the caller).
    pub session: usize,
    /// Cycle of the trigger record within the session.
    pub at_cycle: Cycle,
    /// Reduced counts of the captured buffer.
    pub counts: EventCounts,
}

impl Capture {
    /// Arm `das` on `cluster` and reduce one buffer as it is captured;
    /// `None` when the trigger timed out.
    fn acquire(das: &DasMonitor, cluster: &mut Cluster, session: usize) -> Option<Capture> {
        let mut counts = EventCounts::empty(cluster.config().n_ces);
        let at_cycle = das.acquire_reduced_into(cluster, &mut counts).ok()?;
        Some(Capture {
            session,
            at_cycle,
            counts,
        })
    }
}

/// Run one random-sampling session (§ 3.5, first measurement type),
/// also returning the session's observability slice (trace metrics,
/// events, wall clock). Observation never steers the simulated trajectory.
pub fn run_random_session(
    cfg: &SessionConfig,
    session_idx: usize,
) -> (SessionResult, SessionObservability) {
    let started = std::time::Instant::now();
    let mut driver = cfg.make_driver();
    let das = DasMonitor::new(DasConfig {
        buffer_depth: cfg.buffer_depth,
        trigger: Trigger::Immediate,
        timeout_cycles: u64::MAX,
    });
    let mut kstats = KernelStats::new(driver.cluster());
    // Floor the interval at one cycle: a sub-cycle sample_interval_s rounds
    // to zero and used to divide by zero below. `advance_to` clamps to the
    // current clock, so a one-cycle interval degenerates to back-to-back
    // snapshots rather than a backwards clock.
    let interval = cfg.interval_cycles().max(1);
    let n_samples = (cfg.horizon_cycles() / interval).max(1);
    let snap_spacing = interval / (cfg.snapshots_per_sample as u64 + 1);
    let mut samples = Vec::with_capacity(n_samples as usize);

    for k in 0..n_samples {
        let t0 = k * interval;
        let mut counts = EventCounts::empty(cfg.machine.n_ces);
        for s in 0..cfg.snapshots_per_sample {
            let t = t0 + (s as u64 + 1) * snap_spacing;
            driver.advance_to(t);
            // Re-warm the caches by running the mounted state briefly: the
            // real machine executed continuously between snapshots, which
            // the macro layer does not simulate. Phases are long relative
            // to the warm-up, so the consumed slice is negligible.
            driver.cluster_mut().run(cfg.warmup_cycles);
            // Streaming acquisition: each record folds straight into the
            // sample's accumulator; the 512-record buffer never exists.
            das.acquire_reduced_into(driver.cluster_mut(), &mut counts)
                .expect("immediate trigger cannot time out");
        }
        // Software measurements are recorded when the hardware sample is
        // stored (§ 3.5): advance to the interval end first.
        driver.advance_to(t0 + interval);
        let kernel = kstats.interval(driver.cluster());
        samples.push(Sample {
            session: session_idx,
            at_cycle: t0,
            counts,
            kernel,
        });
    }

    let obs = SessionObservability::capture(
        SessionKind::Random.label(session_idx),
        started,
        driver.cluster(),
    );
    (
        SessionResult {
            session: session_idx,
            samples,
            jobs_completed: driver.completed_jobs(),
            audit: driver.cluster().audit_report(),
        },
        obs,
    )
}

/// Run one all-active-triggered session (§ 3.5, second measurement type).
/// Returns the reduced counts of each captured buffer, tagged with the
/// session index and trigger cycle, plus the session's audit report and
/// observability slice.
pub fn run_triggered_session(
    cfg: &SessionConfig,
    session_idx: usize,
    captures: usize,
) -> (Vec<Capture>, AuditReport, SessionObservability) {
    let started = std::time::Instant::now();
    let mut driver = cfg.make_driver();
    let das = DasMonitor::new(DasConfig {
        buffer_depth: cfg.buffer_depth,
        trigger: Trigger::AllCesActive,
        timeout_cycles: 300_000,
    });
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xfeed);
    let horizon = cfg.horizon_cycles();
    let mut out = Vec::with_capacity(captures);
    // Degenerate horizons (shorter than the capture count) would give a
    // zero spacing: `t` would never advance and the jitter range below
    // would be empty. Clamp to one cycle so the loop still terminates via
    // its attempt budget.
    let spacing = (horizon / (captures as u64 + 1)).max(1);
    let mut t = spacing;
    let mut attempts = 0usize;
    while out.len() < captures && attempts < captures * 50 {
        attempts += 1;
        driver.advance_to(t);
        // Jitter so captures do not phase-lock with sample spacing.
        t += spacing / 2 + rng.gen_range(0..spacing.max(2) / 2);
        if t > horizon * 4 {
            break;
        }
        // The trigger can only fire during a concurrent loop; skip cheaply
        // (no micro simulation) when something else is mounted.
        if driver.cluster().load_kind() != fx8_sim::cluster::LoadKind::Loop {
            continue;
        }
        driver.cluster_mut().run(cfg.warmup_cycles);
        out.extend(Capture::acquire(&das, driver.cluster_mut(), session_idx));
    }
    let audit = driver.cluster().audit_report();
    let obs = SessionObservability::capture(
        SessionKind::Triggered.label(session_idx),
        started,
        driver.cluster(),
    );
    (out, audit, obs)
}

/// Run one transition-triggered session (§ 3.5, the 8-to-fewer trigger).
/// Returns the captures plus the session's audit report and observability
/// slice.
pub fn run_transition_session(
    cfg: &SessionConfig,
    session_idx: usize,
    captures: usize,
) -> (Vec<Capture>, AuditReport, SessionObservability) {
    let started = std::time::Instant::now();
    let mut driver = cfg.make_driver();
    // A tight trigger timeout: if the drain slipped past during warm-up the
    // fastest recovery is rearming at the next loop end, not waiting here.
    let das = DasMonitor::new(DasConfig {
        buffer_depth: cfg.buffer_depth,
        trigger: Trigger::TransitionFromFull,
        timeout_cycles: 400_000,
    });
    let mut rng = SmallRng::seed_from_u64(cfg.seed ^ 0xdead);
    let mut out = Vec::with_capacity(captures);
    let deadline = cfg.horizon_cycles() * 8;
    let mut attempts = 0usize;
    // Short warm-up: a drain window needs the loop's panel resident, which
    // a couple of thousand cycles of execution provides, and longer warm-up
    // risks consuming the tail before the analyzer arms.
    let warmup = cfg.warmup_cycles.min(2_048);
    while out.len() < captures && attempts < captures * 50 {
        attempts += 1;
        // Position a mounted loop close to its end so the falling edge
        // arrives within the analyzer's patience; the tail must outlive
        // the warm-up.
        let tail = rng.gen_range(24..64);
        match driver.seek_transition(tail, deadline) {
            Some(_) => {
                driver.cluster_mut().run(warmup);
                out.extend(Capture::acquire(&das, driver.cluster_mut(), session_idx));
            }
            None => break,
        }
    }
    let audit = driver.cluster().audit_report();
    let obs = SessionObservability::capture(
        SessionKind::Transition.label(session_idx),
        started,
        driver.cluster(),
    );
    (out, audit, obs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_cfg(seed: u64) -> SessionConfig {
        SessionConfig {
            hours: 0.12,
            warmup_cycles: 1024,
            ..SessionConfig::paper(seed)
        }
    }

    #[test]
    fn random_session_produces_expected_sample_count() {
        let cfg = tiny_cfg(1);
        let (r, _) = run_random_session(&cfg, 3);
        // 0.12 h = 432 s -> 1 interval of 300 s fits once.
        assert_eq!(r.samples.len(), 1);
        let s = &r.samples[0];
        assert_eq!(s.session, 3);
        assert_eq!(
            s.counts.records,
            (cfg.buffer_depth * cfg.snapshots_per_sample) as u64
        );
        // Conservation through the whole pipeline.
        assert_eq!(s.counts.num.iter().sum::<u64>(), s.counts.records);
    }

    #[test]
    fn random_session_is_deterministic() {
        let a = run_random_session(&tiny_cfg(7), 0).0;
        let b = run_random_session(&tiny_cfg(7), 0).0;
        assert_eq!(a, b);
        let c = run_random_session(&tiny_cfg(8), 0).0;
        assert_ne!(a.samples[0].counts, c.samples[0].counts);
    }

    #[test]
    fn triggered_session_captures_full_concurrency() {
        let mut cfg = tiny_cfg(2);
        cfg.mix = WorkloadMix::all_concurrent();
        let (buffers, _, _) = run_triggered_session(&cfg, 7, 3);
        assert!(!buffers.is_empty(), "concurrent mix must trigger");
        let mut last_trigger = 0;
        for b in &buffers {
            // The trigger record has all 8 active; most of the buffer stays
            // at high concurrency.
            assert!(
                b.counts.num[8] > 0,
                "captured buffer contains 8-active records"
            );
            assert_eq!(b.session, 7, "captures carry the session index");
            assert!(b.at_cycle > last_trigger, "trigger cycles are increasing");
            last_trigger = b.at_cycle;
        }
    }

    #[test]
    fn transition_session_captures_drains() {
        let mut cfg = tiny_cfg(3);
        cfg.mix = WorkloadMix::all_concurrent();
        let (buffers, _, _) = run_transition_session(&cfg, 4, 3);
        assert!(!buffers.is_empty(), "loops must drain");
        assert!(
            buffers.iter().all(|b| b.session == 4),
            "captures carry the session index"
        );
        let mut pooled = EventCounts::empty(8);
        for b in &buffers {
            pooled.merge(&b.counts);
        }
        // Drain windows are dominated by sub-full concurrency records.
        let partial: u64 = (1..8).map(|j| pooled.num[j]).sum();
        assert!(
            partial > 0,
            "transition buffers show partial concurrency: {:?}",
            pooled.num
        );
    }

    #[test]
    fn triggered_session_survives_degenerate_horizon() {
        // A horizon shorter than the capture count makes the nominal
        // spacing zero; the clamp keeps the probe loop advancing so the
        // session terminates (returning whatever it managed to capture).
        let mut cfg = tiny_cfg(5);
        cfg.hours = 0.0;
        let _ = run_triggered_session(&cfg, 0, 4);
    }

    #[test]
    fn serial_mix_never_triggers_all_active() {
        let mut cfg = tiny_cfg(4);
        cfg.mix = WorkloadMix::all_serial();
        let (buffers, _, _) = run_triggered_session(&cfg, 0, 2);
        assert!(
            buffers.is_empty(),
            "serial-only workload cannot reach 8-active"
        );
    }

    #[test]
    fn pooled_num_handles_wider_than_fx8_samples() {
        // Regression: pooled_num hardwired nine bins, so a sample reduced
        // on a hypothetical machine with more than eight CEs (a 13-wide
        // `num` histogram) indexed out of bounds.
        use fx8_monitor::KernelCounters;
        let mut counts = EventCounts::empty(12);
        counts.num[12] = 5;
        counts.num[0] = 2;
        counts.records = 7;
        let r = SessionResult {
            session: 0,
            samples: vec![Sample {
                session: 0,
                at_cycle: 0,
                counts,
                kernel: KernelCounters::default(),
            }],
            jobs_completed: 0,
            audit: AuditReport::default(),
        };
        let num = r.pooled_num();
        assert_eq!(num.len(), 13);
        assert_eq!(num[12], 5);
        assert_eq!(num[0], 2);
    }

    #[test]
    fn zero_cycle_interval_is_floored_not_divided_by() {
        // Regression: a sample_interval_s that rounds to zero cycles used
        // to panic with a division by zero in run_random_session. The
        // runner floors the interval at one cycle instead.
        let mut cfg = tiny_cfg(6);
        cfg.hours = 1e-12;
        cfg.sample_interval_s = 1e-12;
        cfg.warmup_cycles = 0;
        cfg.snapshots_per_sample = 1;
        cfg.buffer_depth = 8;
        assert!(cfg.validate().is_err(), "validate flags the rounding");
        let (r, _) = run_random_session(&cfg, 0);
        assert_eq!(r.samples.len(), 1);
    }

    #[test]
    fn session_config_validate_accepts_paper_and_rejects_nonsense() {
        assert!(SessionConfig::paper(1).validate().is_ok());
        let mut bad = SessionConfig::paper(1);
        bad.hours = f64::NAN;
        assert!(bad.validate().is_err());
        let mut bad = SessionConfig::paper(1);
        bad.sample_interval_s = 0.0;
        assert!(bad.validate().is_err());
        let mut bad = SessionConfig::paper(1);
        bad.snapshots_per_sample = 0;
        assert!(bad.validate().is_err());
        let mut bad = SessionConfig::paper(1);
        bad.buffer_depth = 0;
        assert!(bad.validate().is_err());
    }
}
