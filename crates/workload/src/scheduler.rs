//! The session driver: Concentrix-like macro scheduling.
//!
//! Concentrix gang-schedules the Computational Cluster: a cluster job owns
//! all eight CEs while it runs; other jobs queue. The driver advances
//! *macro* time — job arrivals, job completions, page-fault accounting —
//! in O(events), then mounts the exact machine state (phase, loop
//! progress) onto the [`Cluster`] so a captured window starts from the
//! right place. Everything inside a window is then cycle-level simulation.

use crate::program::{PhaseSpec, ProgramSpec, MACRO_P};
use fx8_sim::vm::FaultMode;
use fx8_sim::{Asid, Cluster, Cycle};
use std::collections::VecDeque;

/// A job waiting to run.
#[derive(Debug, Clone)]
struct QueuedJob {
    arrival: Cycle,
    program: ProgramSpec,
}

/// The job occupying the cluster.
struct RunningJob {
    program: ProgramSpec,
    asid: Asid,
    start: Cycle,
}

/// Drives one measurement session's workload on a cluster.
pub struct SessionDriver {
    cluster: Cluster,
    /// Future arrivals, ascending.
    pending: VecDeque<QueuedJob>,
    /// Arrived jobs waiting for the cluster (FCFS).
    ready: VecDeque<QueuedJob>,
    running: Option<RunningJob>,
    mac_now: Cycle,
    next_asid: Asid,
    /// Fractional fault accumulation from the drift model.
    drift_carry: f64,
    /// Round-robin CE index for charging drift faults.
    drift_rr: usize,
    /// Jobs completed so far.
    completed: u64,
}

impl SessionDriver {
    /// Build a driver over `cluster` with a pre-generated arrival schedule.
    pub fn new(cluster: Cluster, arrivals: Vec<(Cycle, ProgramSpec)>) -> Self {
        let mut sorted = arrivals;
        sorted.sort_by_key(|a| a.0);
        SessionDriver {
            mac_now: cluster.now(),
            cluster,
            pending: sorted
                .into_iter()
                .map(|(arrival, program)| QueuedJob { arrival, program })
                .collect(),
            ready: VecDeque::new(),
            running: None,
            next_asid: 1,
            drift_carry: 0.0,
            drift_rr: 0,
            completed: 0,
        }
    }

    /// The machine (mutable, for the monitor to step).
    pub fn cluster_mut(&mut self) -> &mut Cluster {
        &mut self.cluster
    }

    /// The machine (read-only).
    pub fn cluster(&self) -> &Cluster {
        &self.cluster
    }

    /// End the session and hand back the machine it drove.
    pub fn into_cluster(self) -> Cluster {
        self.cluster
    }

    /// Current macro time.
    pub fn now(&self) -> Cycle {
        self.mac_now
    }

    /// Name of the running job, if any.
    pub fn running_job(&self) -> Option<&str> {
        self.running.as_ref().map(|r| r.program.name.as_str())
    }

    /// Jobs completed so far.
    pub fn completed_jobs(&self) -> u64 {
        self.completed
    }

    /// Advance macro time to `t` (or the cluster clock, whichever is
    /// later — captured windows may have stepped the machine forward), then
    /// mount the machine state executing at that instant.
    pub fn advance_to(&mut self, t: Cycle) {
        let t = t.max(self.cluster.now()).max(self.mac_now);
        self.advance_events(t);
        self.mount();
    }

    fn advance_events(&mut self, t: Cycle) {
        self.mac_now = self.mac_now.max(self.cluster.now());
        loop {
            // Promote arrivals up to now.
            while self
                .pending
                .front()
                .is_some_and(|j| j.arrival <= self.mac_now)
            {
                let j = self.pending.pop_front().expect("checked non-empty");
                self.ready.push_back(j);
            }
            // Dispatch if the cluster is free; at `t` this is the final
            // dispatch.
            if self.running.is_none() {
                if let Some(j) = self.ready.pop_front() {
                    self.start_job(j.program);
                    continue;
                }
            }
            if self.mac_now >= t {
                return;
            }
            // Next event: job end, next arrival, or the target.
            let run_end = self
                .running
                .as_ref()
                .map(|r| r.start + r.program.total_cycles());
            let next_arrival = self.pending.front().map(|j| j.arrival);
            let step_to = [run_end, next_arrival, Some(t)]
                .into_iter()
                .flatten()
                .filter(|&e| e > self.mac_now)
                .min()
                .unwrap_or(t)
                .min(t.max(self.mac_now));
            let dt = step_to - self.mac_now;
            if dt > 0 {
                self.charge_drift(dt);
            }
            self.mac_now = step_to;
            if run_end == Some(self.mac_now) {
                self.running = None;
                self.completed += 1;
            }
        }
    }

    fn start_job(&mut self, program: ProgramSpec) {
        let asid = self.next_asid;
        // ASID 0 is the kernel; wrap well below the 16-bit limit.
        self.next_asid = if self.next_asid >= 4095 {
            1
        } else {
            self.next_asid + 1
        };
        // First-touch fault burst: the job's working set pages in.
        let ws = program.working_set(asid);
        self.cluster.vm_mut().install_set(0, ws, FaultMode::User);
        self.running = Some(RunningJob {
            program,
            asid,
            start: self.mac_now,
        });
    }

    /// Steady-state paging drift while a job runs (locality churn between
    /// the job and interactive work), charged round-robin across CEs.
    fn charge_drift(&mut self, dt: Cycle) {
        let Some(r) = &self.running else { return };
        let rate = r.program.mean_drift_per_mcycle();
        self.drift_carry += rate * dt as f64 / 1e6;
        let whole = self.drift_carry as u64;
        if whole > 0 {
            self.drift_carry -= whole as f64;
            let n = self.cluster.config().n_ces;
            // System-mode share: roughly a fifth of drift faults occur in
            // kernel paths (buffer cache, page tables).
            let sys = whole / 5;
            let user = whole - sys;
            let ce = self.drift_rr % n;
            self.drift_rr = self.drift_rr.wrapping_add(1);
            self.cluster.vm_mut().charge_faults(ce, user, sys);
        }
    }

    /// Mount the machine state for the current macro instant.
    fn mount(&mut self) {
        if self.mac_now > self.cluster.now() {
            self.cluster.advance_clock(self.mac_now);
        }
        let Some(r) = &self.running else {
            self.cluster.mount_idle();
            return;
        };
        let pos = r.program.locate(self.mac_now - r.start);
        let phase = r.program.phase_at(pos).clone();
        let asid = r.asid;
        match phase {
            PhaseSpec::Serial { kernel, .. } => {
                self.cluster
                    .mount_serial(kernel.instantiate(asid), asid, None);
            }
            PhaseSpec::Loop { kernel } => {
                let per_iter_wall = (kernel.est_cycles_per_iter() / MACRO_P).max(1);
                // Align progress to a dispatch-round boundary (multiple of
                // the cluster width): the loop ran from iteration 0 on the
                // real machine, so the leftover structure at its end is
                // `iters mod n_ces`; resuming off-boundary would fabricate
                // a different tail. The macro timeline itself stays in
                // `MACRO_P` units (the duration model's fixed width); only
                // the round boundary tracks the mounted cluster.
                let width = self.cluster.config().n_ces as u64;
                let rounds = pos.offset / per_iter_wall / width;
                let progress = (rounds * width).min(kernel.iters.saturating_sub(1));
                let after = crate::kernels::glue_serial().instantiate(asid);
                self.cluster.mount_loop(
                    kernel.instantiate(asid),
                    progress,
                    kernel.iters,
                    after,
                    asid,
                );
            }
        }
    }

    /// Position the machine a little before the next concurrent loop's end
    /// so a transition-triggered capture fires quickly: the mounted loop
    /// has about `tail_iters` iterations left. Returns the mount time, or
    /// `None` if no loop end exists before `deadline`.
    pub fn seek_transition(&mut self, tail_iters: u64, deadline: Cycle) -> Option<Cycle> {
        loop {
            if self.mac_now >= deadline {
                return None;
            }
            let Some(r) = &self.running else {
                // Idle: jump to the next arrival (or give up).
                let next = self.pending.front().map(|j| j.arrival)?;
                if next >= deadline {
                    return None;
                }
                self.advance_to(next + 1);
                continue;
            };
            let offset = self.mac_now - r.start;
            match r.program.next_loop_end_after(offset) {
                Some(end_off) => {
                    let end_abs = r.start + end_off;
                    // Identify the loop phase ending there to size the tail.
                    let pos = r.program.locate(end_off - 1);
                    let PhaseSpec::Loop { kernel } = r.program.phase_at(pos) else {
                        // Cost model mismatch; skip past this end.
                        self.advance_to(end_abs + 1);
                        continue;
                    };
                    let per_iter_wall = (kernel.est_cycles_per_iter() / MACRO_P).max(1);
                    let tail = tail_iters * per_iter_wall;
                    let mount_at = end_abs.saturating_sub(tail);
                    if mount_at <= self.mac_now {
                        // Too close to catch; try the next loop end.
                        self.advance_to(end_abs + 1);
                        continue;
                    }
                    if mount_at >= deadline {
                        return None;
                    }
                    self.advance_to(mount_at);
                    // Confirm a loop actually mounted (the job may have
                    // ended in between under the event model).
                    if matches!(self.cluster.load_kind(), fx8_sim::cluster::LoadKind::Loop) {
                        return Some(mount_at);
                    }
                }
                None => {
                    // No more loops in this job: run it out.
                    let end = r.start + r.program.total_cycles();
                    self.advance_to(end.min(deadline) + 1);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mix::WorkloadMix;
    use crate::program;
    use fx8_sim::cluster::LoadKind;
    use fx8_sim::MachineConfig;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn cluster() -> Cluster {
        let mut c = Cluster::new(MachineConfig::fx8(), 5);
        c.set_ip_intensity(0.0);
        c
    }

    fn one_job_driver(p: ProgramSpec, at: Cycle) -> SessionDriver {
        SessionDriver::new(cluster(), vec![(at, p)])
    }

    #[test]
    fn idle_before_first_arrival() {
        let mut d = one_job_driver(program::development(1.0), 1_000_000);
        d.advance_to(500);
        assert_eq!(d.cluster().load_kind(), LoadKind::Idle);
        assert!(d.running_job().is_none());
    }

    #[test]
    fn serial_job_mounts_serially() {
        let mut d = one_job_driver(program::development(1.0), 100);
        d.advance_to(10_000);
        assert_eq!(d.cluster().load_kind(), LoadKind::Serial);
        assert_eq!(d.running_job(), Some("development"));
    }

    #[test]
    fn loop_phase_mounts_with_progress() {
        let p = program::matrix_benchmark(128, 50);
        let k = crate::kernels::matmul(128);
        let mut d = one_job_driver(p, 0);
        // Land in the middle of the first loop.
        let mid = k.est_cycles(8) / 2;
        d.advance_to(mid);
        assert_eq!(d.cluster().load_kind(), LoadKind::Loop);
        let remaining = d.cluster().loop_remaining();
        assert!(
            remaining > 0 && remaining < k.iters,
            "remaining {remaining} of {}",
            k.iters
        );
    }

    #[test]
    fn job_completes_and_machine_goes_idle() {
        let p = program::development(0.01); // ~0.6 s of machine time
        let total = p.total_cycles();
        let mut d = one_job_driver(p, 0);
        d.advance_to(total + 10);
        assert_eq!(d.cluster().load_kind(), LoadKind::Idle);
        assert_eq!(d.completed_jobs(), 1);
    }

    #[test]
    fn fcfs_queueing_runs_jobs_in_arrival_order() {
        let a = program::development(0.01);
        let dur_a = a.total_cycles();
        let b = program::matrix_benchmark(128, 10);
        let mut d = SessionDriver::new(cluster(), vec![(0, a), (10, b)]);
        // While A runs, B waits.
        d.advance_to(dur_a / 2);
        assert_eq!(d.running_job(), Some("development"));
        // After A ends, B runs.
        d.advance_to(dur_a + 1_000);
        assert!(d.running_job().unwrap().starts_with("matrix-benchmark"));
    }

    #[test]
    fn working_set_install_charges_faults() {
        let p = program::matrix_benchmark(256, 5);
        let mut d = one_job_driver(p, 0);
        d.advance_to(10);
        assert!(
            d.cluster().vm().total_faults().user > 0,
            "job start must page in"
        );
    }

    #[test]
    fn drift_faults_accumulate_over_macro_time() {
        let p = program::matrix_benchmark(256, 2_000);
        let mut d = one_job_driver(p, 0);
        d.advance_to(100);
        let before = d.cluster().vm().total_faults().total();
        d.advance_to(200_000_000); // ~34 ms of machine time? (200 Mcycle)
        let after = d.cluster().vm().total_faults().total();
        assert!(after > before, "drift must add faults: {before} -> {after}");
    }

    #[test]
    fn seek_transition_mounts_a_nearly_drained_loop() {
        let p = program::structural_mechanics(258, 5_000);
        let mut d = one_job_driver(p, 0);
        let at = d
            .seek_transition(16, u64::MAX / 2)
            .expect("must find a loop end");
        assert_eq!(d.cluster().load_kind(), LoadKind::Loop);
        let remaining = d.cluster().loop_remaining();
        assert!(
            (1..=40).contains(&remaining),
            "expected a short tail, got {remaining} (mounted at {at})"
        );
    }

    #[test]
    fn seek_transition_respects_deadline() {
        let mut d = one_job_driver(program::development(5.0), 0);
        assert_eq!(d.seek_transition(16, 1_000_000), None);
    }

    #[test]
    fn seek_transition_skips_serial_jobs_to_find_loops() {
        let serial = program::development(0.02);
        let dur = serial.total_cycles();
        let loopy = program::matrix_benchmark(130, 2_000);
        let mut d = SessionDriver::new(cluster(), vec![(0, serial), (dur / 2, loopy)]);
        let at = d
            .seek_transition(16, u64::MAX / 2)
            .expect("loop job follows serial job");
        assert!(
            at > dur,
            "transition found only after the serial job: {at} vs {dur}"
        );
        assert_eq!(d.cluster().load_kind(), LoadKind::Loop);
    }

    #[test]
    fn session_from_mix_runs_and_samples() {
        let mix = WorkloadMix::csrd_production();
        let mut rng = SmallRng::seed_from_u64(7);
        let horizon = (20.0 * 60.0 * 1e9 / 170.0) as u64; // 20 minutes
        let times = crate::arrival::arrival_times(&mix.profile, horizon, &mut rng);
        let arrivals: Vec<_> = times
            .into_iter()
            .map(|t| (t, mix.sample_program(&mut rng)))
            .collect();
        let mut d = SessionDriver::new(cluster(), arrivals);
        // Walk through the session in 5-minute hops, mounting each time.
        let five_min = (5.0 * 60.0 * 1e9 / 170.0) as u64;
        let mut kinds = Vec::new();
        for s in 1..=4 {
            d.advance_to(s * five_min);
            kinds.push(d.cluster().load_kind());
        }
        assert_eq!(kinds.len(), 4);
    }

    #[test]
    fn advance_is_monotonic_even_after_micro_steps() {
        let p = program::matrix_benchmark(128, 100);
        let mut d = one_job_driver(p, 0);
        d.advance_to(1_000);
        // Micro-step the machine past the macro clock.
        d.cluster_mut().run(5_000);
        // Advancing to an earlier target must not panic (clamps forward).
        d.advance_to(2_000);
        assert!(d.now() >= 6_000);
    }
}
