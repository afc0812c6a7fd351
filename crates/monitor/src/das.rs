//! The logic analyzer.
//!
//! The DAS 9100 "acquires the state of up to 80 signals... and stores this
//! data in a 512-deep buffer memory. The DAS is fully controllable through
//! an i/o port" (§ 3.3). [`DasMonitor::acquire`] arms the instrument
//! against a live cluster: it steps the machine until the configured
//! trigger fires (or a timeout elapses, the failure mode a real experiment
//! script must handle), then fills the buffer with consecutive records.
//! [`DasMonitor::acquire_reduced_into`] runs the same capture loop but
//! folds each record into [`EventCounts`] as it is captured — the study's
//! bulk path, which never materializes the 512-record buffer.

use crate::reduce::EventCounts;
use crate::trigger::{Trigger, TriggerState};
use fx8_sim::{Cluster, ConfigError, Cycle, ProbeWord};
use serde::{Deserialize, Serialize};

/// Analyzer configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct DasConfig {
    /// Records per acquisition (512 on the unit used).
    pub buffer_depth: usize,
    /// Trigger condition.
    pub trigger: Trigger,
    /// Give up arming after this many cycles without a trigger.
    pub timeout_cycles: u64,
}

impl DasConfig {
    /// The instrument as used in the study: 512-deep buffer.
    pub fn das9100(trigger: Trigger) -> Self {
        DasConfig {
            buffer_depth: 512,
            trigger,
            timeout_cycles: 2_000_000,
        }
    }

    /// Check the configuration for degenerate values. The acquisition
    /// paths assume `buffer_depth >= 1` (the trigger record itself is
    /// always captured); [`DasMonitor::new`] floors the depth the same way
    /// the session layer floors a zero sample interval, so a zero here is
    /// reported rather than silently misbehaving.
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.buffer_depth == 0 {
            return Err(ConfigError::Zero {
                field: "das.buffer_depth",
            });
        }
        Ok(())
    }
}

/// The trigger condition as the trace layer names it.
fn trigger_kind(trigger: Trigger) -> fx8_sim::trace::TriggerKind {
    match trigger {
        Trigger::Immediate => fx8_sim::trace::TriggerKind::Immediate,
        Trigger::AllCesActive => fx8_sim::trace::TriggerKind::AllCesActive,
        Trigger::TransitionFromFull => fx8_sim::trace::TriggerKind::TransitionFromFull,
    }
}

/// A completed acquisition.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Acquisition {
    /// The captured records, trigger record first.
    pub records: Vec<ProbeWord>,
    /// Cycle of the trigger record.
    pub triggered_at: Cycle,
}

/// Acquisition failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum AcquireError {
    /// The trigger never fired within the timeout.
    TriggerTimeout {
        /// Cycles waited before giving up.
        waited: u64,
    },
}

impl std::fmt::Display for AcquireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AcquireError::TriggerTimeout { waited } => {
                write!(f, "trigger did not fire within {waited} cycles")
            }
        }
    }
}

impl std::error::Error for AcquireError {}

/// The analyzer.
#[derive(Debug, Clone)]
pub struct DasMonitor {
    cfg: DasConfig,
}

/// Σ per-CE (active_cycles, bus_busy_cycles) — the simulator's own counters,
/// incremented by the stepper independently of probe-word assembly. Over a
/// captured window their deltas must equal what the reduced probe stream
/// claims, which is exactly what the audit cross-check verifies.
#[cfg(feature = "audit")]
fn ground_truth(cluster: &Cluster) -> (u64, u64) {
    let mut active = 0u64;
    let mut busy = 0u64;
    for ce in 0..cluster.config().n_ces {
        let s = cluster.ce_stats(ce);
        active += s.active_cycles;
        busy += s.bus_busy_cycles;
    }
    (active, busy)
}

impl DasMonitor {
    /// Build a monitor with the given configuration. A zero `buffer_depth`
    /// is floored to 1: the trigger record is captured unconditionally by
    /// both acquisition paths, so depth 0 would silently behave as depth 1
    /// while the config (and the audit cross-check's expected record
    /// count) claimed otherwise.
    pub fn new(mut cfg: DasConfig) -> Self {
        cfg.buffer_depth = cfg.buffer_depth.max(1);
        DasMonitor { cfg }
    }

    /// The configuration.
    pub fn config(&self) -> DasConfig {
        self.cfg
    }

    /// Compare a captured window's counts against the cluster's
    /// ground-truth counters over the same window, and run the
    /// accumulator's conservation laws. Any mismatch is filed as a violation
    /// on the cluster's audit report (component `"monitor"`): the probe
    /// stream and the simulator disagreeing about how many cycles each CE
    /// was active/driving its bus means one of them is lying.
    #[cfg(feature = "audit")]
    fn cross_check(&self, cluster: &mut Cluster, window: &EventCounts, truth_before: (u64, u64)) {
        let (active0, bus0) = truth_before;
        let (active1, bus1) = ground_truth(cluster);
        let d_prof = window.prof.iter().sum::<u64>();
        let d_busy = window.busy_ce_cycles();
        // The trigger record is always captured, so even a degenerate
        // zero-depth buffer yields one record.
        let expect_records = self.cfg.buffer_depth.max(1) as u64;
        if window.records != expect_records {
            cluster.audit_note_violation(
                "monitor",
                format!("{expect_records} records in the window"),
                format!("{}", window.records),
            );
        }
        if d_prof != active1 - active0 {
            cluster.audit_note_violation(
                "monitor",
                format!("Δ prof = Δ active_cycles = {}", active1 - active0),
                format!("{d_prof}"),
            );
        }
        if d_busy != bus1 - bus0 {
            cluster.audit_note_violation(
                "monitor",
                format!("Δ busy ceop = Δ bus_busy_cycles = {}", bus1 - bus0),
                format!("{d_busy}"),
            );
        }
        if let Err(e) = window.validate() {
            cluster.audit_note_violation("monitor", "accumulator conservation laws".to_string(), e);
        }
    }

    /// While armed and dormant, let the cluster advance unobserved — dense
    /// windows, quiet stretches jumped ([`Cluster::advance_unobserved`]) —
    /// instead of evaluating records one by one. CCB activity is constant
    /// inside each such window, so a trigger dormant at the window's
    /// activity cannot fire inside it ([`TriggerState::dormant`]), and the
    /// timeout deadline is threaded to the cluster as the next-probe hint
    /// so a window never overshoots the cycle on which the per-cycle loop
    /// would have given up. Returns `Some(err)` when the wait timed out
    /// inside a window; `Ok` progress and trigger evaluation stay with the
    /// caller's per-cycle loop.
    ///
    /// Bit-identical to the per-cycle wait: every record inside a window
    /// would have been discarded with `fire == false`, and a timeout
    /// reached inside one stops at exactly `armed_at + timeout_cycles`,
    /// the cycle the per-cycle loop reports.
    fn skip_dormant_wait(
        &self,
        cluster: &mut Cluster,
        trig: &mut TriggerState,
        armed_at: Cycle,
        deadline: Cycle,
    ) -> Option<AcquireError> {
        while trig.dormant(cluster.active_count()) {
            let budget = deadline.saturating_sub(cluster.now());
            if cluster.advance_unobserved(budget) == 0 {
                break;
            }
            trig.note_skipped(cluster.active_count());
            if cluster.now() - armed_at >= self.cfg.timeout_cycles {
                return Some(AcquireError::TriggerTimeout {
                    waited: cluster.now() - armed_at,
                });
            }
        }
        None
    }

    /// Arm against `cluster`, wait for the trigger, fill the buffer.
    /// The cluster advances by however many cycles the wait plus the
    /// capture take (hardware monitoring is non-intrusive: the machine
    /// does not know it is being observed).
    pub fn acquire(&self, cluster: &mut Cluster) -> Result<Acquisition, AcquireError> {
        let mut records = Vec::with_capacity(self.cfg.buffer_depth);
        let triggered_at = self.capture(cluster, |w| records.push(*w))?;
        Ok(Acquisition {
            records,
            triggered_at,
        })
    }

    /// Streaming acquisition into a caller-owned accumulator: each
    /// captured record is folded straight into `counts` instead of being
    /// materialized in a record vector. The cluster advances exactly as
    /// under [`DasMonitor::acquire`], so trajectories (and therefore
    /// everything downstream) are bit-identical between the two paths.
    /// Random sampling pools several snapshots into one sample's counts;
    /// the triggered protocols pass a fresh accumulator per capture.
    /// Returns the trigger cycle; on timeout `counts` is untouched.
    pub fn acquire_reduced_into(
        &self,
        cluster: &mut Cluster,
        counts: &mut EventCounts,
    ) -> Result<Cycle, AcquireError> {
        debug_assert_eq!(
            counts.n_ces,
            cluster.config().n_ces,
            "accumulator width must match the cluster"
        );
        self.capture(cluster, |w| counts.accumulate_word(w))
    }

    /// The capture loop behind both public paths: arm, wait for the
    /// trigger (advancing unobserved while dormant), then hand the trigger
    /// record and the `buffer_depth - 1` records after it to `sink`.
    /// Generic rather than `dyn` because it runs on every simulated cycle
    /// of a trigger wait. `sink` sees nothing when the wait times out.
    fn capture(
        &self,
        cluster: &mut Cluster,
        mut sink: impl FnMut(&ProbeWord),
    ) -> Result<Cycle, AcquireError> {
        let mut trig = TriggerState::new(self.cfg.trigger, cluster.config().n_ces);
        let armed_at = cluster.now();
        let deadline = armed_at.saturating_add(self.cfg.timeout_cycles);
        cluster.set_next_probe_at(Some(deadline));
        let result = loop {
            if let Some(err) = self.skip_dormant_wait(cluster, &mut trig, armed_at, deadline) {
                break Err(err);
            }
            #[cfg(feature = "audit")]
            let truth0 = ground_truth(cluster);
            let w = cluster.step();
            if trig.fire(&w) {
                cluster.note_probe_trigger(trigger_kind(self.cfg.trigger));
                #[cfg(feature = "audit")]
                let mut window = EventCounts::empty(cluster.config().n_ces);
                let mut take = |w: &ProbeWord| {
                    #[cfg(feature = "audit")]
                    window.accumulate_word(w);
                    sink(w);
                };
                take(&w);
                for _ in 1..self.cfg.buffer_depth {
                    take(&cluster.step());
                }
                #[cfg(feature = "audit")]
                self.cross_check(cluster, &window, truth0);
                break Ok(w.cycle);
            }
            if cluster.now() - armed_at >= self.cfg.timeout_cycles {
                break Err(AcquireError::TriggerTimeout {
                    waited: cluster.now() - armed_at,
                });
            }
        };
        cluster.set_next_probe_at(None);
        result
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use fx8_sim::addr::VAddr;
    use fx8_sim::stream::{CodeRegion, LoopBody, SerialCode, StridedLoop, StridedSerial};
    use fx8_sim::MachineConfig;

    fn serial_code() -> Box<dyn SerialCode> {
        Box::new(StridedSerial::new(
            CodeRegion {
                base: VAddr::new(1, 0),
                footprint_bytes: 512,
                bytes_per_instr: 4,
            },
            VAddr::new(1, 0x10_0000),
            8,
            4096,
            3,
        ))
    }

    fn loop_body() -> Box<dyn LoopBody> {
        Box::new(StridedLoop {
            region: CodeRegion {
                base: VAddr::new(1, 0x1000),
                footprint_bytes: 256,
                bytes_per_instr: 4,
            },
            src: VAddr::new(1, 0x20_0000),
            dst: VAddr::new(1, 0x30_0000),
            elem: 8,
            compute: 6,
        })
    }

    fn cluster() -> Cluster {
        let mut c = Cluster::new(MachineConfig::fx8(), 11);
        c.set_ip_intensity(0.0);
        c
    }

    #[test]
    fn immediate_acquisition_fills_buffer() {
        let mut c = cluster();
        let das = DasMonitor::new(DasConfig::das9100(Trigger::Immediate));
        let acq = das.acquire(&mut c).unwrap();
        assert_eq!(acq.records.len(), 512);
        // Consecutive cycles.
        for (i, w) in acq.records.iter().enumerate() {
            assert_eq!(w.cycle, acq.triggered_at + i as u64);
        }
    }

    #[test]
    fn all_active_trigger_waits_for_full_concurrency() {
        let mut c = cluster();
        c.mount_loop(loop_body(), 0, 1_000_000, serial_code(), 1);
        let das = DasMonitor::new(DasConfig::das9100(Trigger::AllCesActive));
        let acq = das.acquire(&mut c).unwrap();
        assert_eq!(
            acq.records[0].active_count(),
            8,
            "first record is the trigger"
        );
    }

    #[test]
    fn transition_trigger_captures_the_drain() {
        let mut c = cluster();
        // Long enough to reach full concurrency, short enough to drain.
        c.mount_loop(loop_body(), 0, 2_000, serial_code(), 1);
        let das = DasMonitor::new(DasConfig::das9100(Trigger::TransitionFromFull));
        let acq = das.acquire(&mut c).unwrap();
        let first = acq.records[0].active_count();
        assert!(
            first < 8,
            "trigger record is below full concurrency: {first}"
        );
        assert!(first >= 1, "the drain starts with some CEs still running");
    }

    #[test]
    fn trigger_timeout_on_idle_machine() {
        let mut c = cluster();
        let das = DasMonitor::new(DasConfig {
            buffer_depth: 512,
            trigger: Trigger::AllCesActive,
            timeout_cycles: 5_000,
        });
        let err = das.acquire(&mut c).unwrap_err();
        assert!(matches!(err, AcquireError::TriggerTimeout { waited } if waited >= 5_000));
    }

    #[test]
    fn serial_work_never_fires_all_active() {
        let mut c = cluster();
        c.mount_serial(serial_code(), 1, None);
        let das = DasMonitor::new(DasConfig {
            buffer_depth: 64,
            trigger: Trigger::AllCesActive,
            timeout_cycles: 10_000,
        });
        assert!(das.acquire(&mut c).is_err());
    }

    #[test]
    fn acquire_reduced_matches_buffered_reduction() {
        use crate::reduce::EventCounts;
        // Two identical machines, one per acquisition path; the streaming
        // reduction must equal reducing the materialized buffer, and both
        // clusters must land on the same cycle.
        for trigger in [
            Trigger::Immediate,
            Trigger::AllCesActive,
            Trigger::TransitionFromFull,
        ] {
            let machine = || {
                let mut c = cluster();
                c.mount_loop(loop_body(), 0, 3_000, serial_code(), 1);
                c
            };
            let das = DasMonitor::new(DasConfig::das9100(trigger));
            let (mut a, mut b) = (machine(), machine());
            let buffered = das.acquire(&mut a).unwrap();
            let mut streamed = EventCounts::empty(8);
            let triggered_at = das.acquire_reduced_into(&mut b, &mut streamed).unwrap();
            assert_eq!(triggered_at, buffered.triggered_at, "{trigger:?}");
            assert_eq!(
                streamed,
                EventCounts::reduce(&buffered.records, 8),
                "{trigger:?}"
            );
            assert_eq!(a.now(), b.now(), "{trigger:?}: paths advance identically");
        }
    }

    #[test]
    fn acquire_reduced_into_pools_and_preserves_counts_on_timeout() {
        use crate::reduce::EventCounts;
        let mut c = cluster();
        let das = DasMonitor::new(DasConfig {
            buffer_depth: 64,
            trigger: Trigger::Immediate,
            timeout_cycles: 1_000,
        });
        let mut counts = EventCounts::empty(8);
        das.acquire_reduced_into(&mut c, &mut counts).unwrap();
        das.acquire_reduced_into(&mut c, &mut counts).unwrap();
        assert_eq!(
            counts.records, 128,
            "two snapshots pool into one accumulator"
        );
        // A timeout must not corrupt the pooled counts.
        let strict = DasMonitor::new(DasConfig {
            buffer_depth: 64,
            trigger: Trigger::AllCesActive,
            timeout_cycles: 2_000,
        });
        let before = counts.clone();
        assert!(strict.acquire_reduced_into(&mut c, &mut counts).is_err());
        assert_eq!(counts, before);
    }

    #[test]
    fn zero_buffer_depth_is_rejected_by_validate_and_floored_by_new() {
        let cfg = DasConfig {
            buffer_depth: 0,
            trigger: Trigger::Immediate,
            timeout_cycles: 100,
        };
        assert!(cfg.validate().is_err());
        assert!(DasConfig::das9100(Trigger::Immediate).validate().is_ok());
        let das = DasMonitor::new(cfg);
        assert_eq!(
            das.config().buffer_depth,
            1,
            "floored: the trigger record is always captured"
        );
        let mut c = cluster();
        let acq = das.acquire(&mut c).unwrap();
        assert_eq!(acq.records.len(), 1);
    }

    /// The horizon-aware wait must be invisible: acquisitions (records,
    /// trigger cycle) and the full machine trajectory agree bit-for-bit
    /// with the per-cycle wait, for every trigger kind.
    #[test]
    fn fast_forward_wait_matches_per_cycle_wait() {
        for trigger in [
            Trigger::Immediate,
            Trigger::AllCesActive,
            Trigger::TransitionFromFull,
        ] {
            let run = |ff: bool| {
                let mut m = MachineConfig::fx8();
                m.fast_forward = ff;
                let mut c = Cluster::new(m, 11);
                c.set_ip_intensity(0.015);
                c.mount_loop(loop_body(), 0, 2_000, serial_code(), 1);
                let das = DasMonitor::new(DasConfig {
                    buffer_depth: 64,
                    trigger,
                    timeout_cycles: 50_000,
                });
                let res = das.acquire(&mut c);
                (res, c.now(), c.state_digest())
            };
            let (ra, na, da) = run(true);
            let (rb, nb, db) = run(false);
            assert_eq!(ra, rb, "{trigger:?}: acquisition differs");
            assert_eq!(na, nb, "{trigger:?}: clocks differ");
            assert_eq!(da, db, "{trigger:?}: machine state differs");
        }
    }

    /// A timeout reached by skipping stops at exactly the cycle the
    /// per-cycle loop reports, with the same error payload — and the
    /// next-probe hint is cleared so later skips are uncapped.
    #[test]
    fn fast_forward_timeout_matches_per_cycle_timeout() {
        let run = |ff: bool| {
            let mut m = MachineConfig::fx8();
            m.fast_forward = ff;
            let mut c = Cluster::new(m, 11);
            c.set_ip_intensity(0.0);
            let das = DasMonitor::new(DasConfig {
                buffer_depth: 512,
                trigger: Trigger::AllCesActive,
                timeout_cycles: 7_331,
            });
            let err = das.acquire(&mut c).unwrap_err();
            (err, c.now(), c)
        };
        let (ea, na, mut ca) = run(true);
        let (eb, nb, _) = run(false);
        assert_eq!(ea, eb);
        assert_eq!(na, nb);
        assert!(matches!(ea, AcquireError::TriggerTimeout { waited: 7_331 }));
        if !cfg!(feature = "audit") {
            assert!(
                ca.engine_cycles().skipped > 0,
                "the idle wait should fast-forward"
            );
            assert!(
                ca.advance_unobserved(100) > 0,
                "stale next-probe hint left behind by the acquisition"
            );
        }
    }

    /// A wait that can never fire — on a drained loop's serial
    /// continuation, a serial section, an idle cluster — runs dormant to
    /// its timeout on the engines and ends exactly where the per-cycle
    /// wait on the scalar stepper does: same error, same cycle, same
    /// machine.
    #[test]
    fn dormant_wait_timeout_matches_the_per_cycle_wait() {
        let drained: fn(&mut Cluster) = |c| {
            c.mount_loop(loop_body(), 0, 200, serial_code(), 1);
            for _ in 0..200_000 {
                if c.load_kind() == fx8_sim::cluster::LoadKind::Drained {
                    break;
                }
                c.step();
            }
            assert_eq!(c.load_kind(), fx8_sim::cluster::LoadKind::Drained);
        };
        let serial: fn(&mut Cluster) = |c| c.mount_serial(serial_code(), 1, None);
        let idle: fn(&mut Cluster) = |_| {};
        for (name, mount) in [("drained", drained), ("serial", serial), ("idle", idle)] {
            for trigger in [Trigger::AllCesActive, Trigger::TransitionFromFull] {
                let run = |engines: bool| {
                    let mut m = MachineConfig::fx8();
                    m.fast_forward = engines;
                    m.dense_stepping = engines;
                    let mut c = Cluster::new(m, 11);
                    c.set_ip_intensity(0.015);
                    mount(&mut c);
                    let stepped = c.engine_cycles().scalar;
                    let das = DasMonitor::new(DasConfig {
                        buffer_depth: 64,
                        trigger,
                        timeout_cycles: 30_000,
                    });
                    let err = das.acquire(&mut c).unwrap_err();
                    let stepped = c.engine_cycles().scalar - stepped;
                    (err, c.now(), c.state_digest(), stepped)
                };
                let (ea, na, da, stepped) = run(true);
                let (eb, nb, db, _) = run(false);
                assert_eq!(ea, AcquireError::TriggerTimeout { waited: 30_000 });
                assert_eq!(ea, eb, "{name} {trigger:?}: error differs");
                assert_eq!(na, nb, "{name} {trigger:?}: clocks differ");
                assert_eq!(da, db, "{name} {trigger:?}: machine state differs");
                if !cfg!(feature = "audit") {
                    assert!(
                        stepped < 1_000,
                        "{name} {trigger:?}: {stepped} of 30000 waited cycles were scalar"
                    );
                }
            }
        }
    }

    /// A zero timeout still steps and evaluates the one cycle every wait
    /// observes: a trigger that cannot fire times out after exactly that
    /// cycle.
    #[test]
    fn zero_timeout_steps_one_cycle() {
        let mut c = cluster();
        c.mount_serial(serial_code(), 1, None);
        let das = DasMonitor::new(DasConfig {
            buffer_depth: 8,
            trigger: Trigger::AllCesActive,
            timeout_cycles: 0,
        });
        let before = c.now();
        let err = das.acquire(&mut c).unwrap_err();
        assert_eq!(err, AcquireError::TriggerTimeout { waited: 1 });
        assert_eq!(c.now(), before + 1);
    }

    #[test]
    fn acquisition_is_nonintrusive_to_machine_progress() {
        // Two identical machines; one observed, one not. Same trace.
        let trace = |observe: bool| {
            let mut c = Cluster::new(MachineConfig::fx8(), 3);
            c.set_ip_intensity(0.0);
            c.mount_loop(loop_body(), 0, 5_000, serial_code(), 1);
            if observe {
                let das = DasMonitor::new(DasConfig {
                    buffer_depth: 256,
                    trigger: Trigger::Immediate,
                    timeout_cycles: 1_000,
                });
                let _ = das.acquire(&mut c).unwrap();
                c.run(1_000 - 256);
            } else {
                c.run(1_000);
            }
            c.capture(100)
        };
        assert_eq!(trace(true), trace(false));
    }
}
