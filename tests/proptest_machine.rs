//! Property-based tests at the machine and workload level: arbitrary kernel
//! parameters and schedules must never violate the cluster's invariants.

use fx8_study::monitor::{DasConfig, DasMonitor, EventCounts, Trigger};
use fx8_study::sim::ccb::{Ccb, IterGrant};
use fx8_study::sim::cluster::LoadKind;
use fx8_study::sim::config::Arbitration;
use fx8_study::sim::{Cluster, MachineConfig};
use fx8_study::workload::kernels::LoopKernel;
use proptest::prelude::*;

fn arb_kernel() -> impl Strategy<Value = LoopKernel> {
    (
        1u64..64,  // iters
        1u64..512, // panel lines
        1u32..64,  // panel refs
        0u32..8,   // stream lines
        0u32..4,   // store lines
        1u32..256, // compute
        prop::option::of(0.1f64..0.9),
        0.0f64..0.3,
    )
        .prop_map(|(iters, pl, pr, sl, st, comp, dep, var)| LoopKernel {
            name: "prop".into(),
            iters,
            panel_lines: pl,
            panel_refs: pr,
            stream_lines: sl,
            store_lines: st,
            compute: comp,
            code_bytes: 512,
            dependence: dep,
            variance: var,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any loop kernel mounted on the cluster drains with exactly its
    /// iteration count completed, and every probe record is well-formed.
    #[test]
    fn every_kernel_drains_with_exact_iterations(kernel in arb_kernel(), seed in 0u64..32) {
        let mut c = Cluster::new(MachineConfig::fx8(), seed);
        c.set_ip_intensity(0.01);
        c.mount_loop(
            kernel.instantiate(1),
            0,
            kernel.iters,
            fx8_study::workload::kernels::glue_serial().instantiate(1),
            1,
        );
        let mut counts = EventCounts::empty(8);
        let mut steps = 0u64;
        while c.load_kind() != LoadKind::Drained {
            let w = c.step();
            prop_assert!(w.active_count() <= 8);
            counts.accumulate(&[w]);
            steps += 1;
            prop_assert!(steps < 30_000_000, "kernel did not drain");
        }
        let done: u64 = (0..8).map(|i| c.ce_stats(i).iters_completed).sum();
        prop_assert_eq!(done, kernel.iters);
        // Probe-side conservation held throughout.
        prop_assert_eq!(counts.num.iter().sum::<u64>(), counts.records);
        // Narrow loops never activate more CEs than they have iterations,
        // beyond the brief cstart transient in which every CE asserts its
        // line while the serialized grant chain resolves (at most one grant
        // period per CE).
        let width = kernel.iters.min(8) as usize;
        let transient: u64 = ((width + 1)..=8).map(|j| counts.num[j]).sum();
        let transient_bound = 8 * c.config().ccb_grant_cycles + 16;
        prop_assert!(
            transient <= transient_bound,
            "steady records above width {}: {} (bound {})",
            width,
            transient,
            transient_bound
        );
    }

    /// The CCB hands out every iteration exactly once, whatever the
    /// request pattern.
    #[test]
    fn ccb_grants_each_iteration_exactly_once(
        total in 1u64..200,
        pattern in proptest::collection::vec(0u8..=255, 1..64),
        arb in prop::sample::select(vec![
            Arbitration::FixedLowFirst,
            Arbitration::EndsFirst,
            Arbitration::CenterFirst,
            Arbitration::RoundRobin,
        ]),
    ) {
        let mut ccb = Ccb::new(8, arb, 1);
        ccb.start_loop(0, total);
        let mut granted = Vec::new();
        let mut t = 0u64;
        let mut pat = pattern.iter().cycle();
        // Drive with a pseudo-random request mask; ensure progress by
        // forcing all-request once the pattern mask goes quiet.
        while granted.len() < total as usize {
            let mask = *pat.next().expect("cycled");
            let mut requesting = [false; 8];
            for (j, r) in requesting.iter_mut().enumerate() {
                *r = mask & (1 << j) != 0;
            }
            if mask == 0 {
                requesting = [true; 8];
            }
            let mut grants = [IterGrant::Wait; 8];
            ccb.arbitrate_into(t, &requesting, &mut grants);
            for g in grants {
                if let IterGrant::Iter(i) = g {
                    granted.push(i);
                }
            }
            t += 1;
            prop_assert!(t < 100_000, "grants stalled");
        }
        granted.sort_unstable();
        let expect: Vec<u64> = (0..total).collect();
        prop_assert_eq!(granted, expect);
    }

    /// Streaming acquisition equals reducing a materialized buffer: for any
    /// kernel, seed, buffer depth, and trigger, `acquire_reduced_into` matches
    /// `EventCounts::reduce(acquire(..).records)` and both paths advance
    /// the machine identically (including the timeout path).
    #[test]
    fn acquire_reduced_equals_buffered_reduce(
        kernel in arb_kernel(),
        seed in 0u64..16,
        depth in 1usize..600,
        trigger in prop::sample::select(vec![
            Trigger::Immediate,
            Trigger::AllCesActive,
            Trigger::TransitionFromFull,
        ]),
    ) {
        let machine = || {
            let mut c = Cluster::new(MachineConfig::fx8(), seed);
            c.set_ip_intensity(0.02);
            c.mount_loop(
                kernel.instantiate(1),
                0,
                kernel.iters,
                fx8_study::workload::kernels::glue_serial().instantiate(1),
                1,
            );
            c
        };
        let das = DasMonitor::new(DasConfig {
            buffer_depth: depth,
            trigger,
            timeout_cycles: 200_000,
        });
        let (mut a, mut b) = (machine(), machine());
        let buffered = das.acquire(&mut a);
        let mut counts = EventCounts::empty(8);
        let streamed = das.acquire_reduced_into(&mut b, &mut counts);
        match (buffered, streamed) {
            (Ok(acq), Ok(triggered_at)) => {
                prop_assert_eq!(triggered_at, acq.triggered_at);
                prop_assert_eq!(counts, EventCounts::reduce(&acq.records, 8));
            }
            (Err(e1), Err(e2)) => prop_assert_eq!(e1, e2),
            (b1, s1) => prop_assert!(false, "paths disagree: {:?} vs {:?}", b1, s1),
        }
        prop_assert_eq!(a.now(), b.now());
    }

    /// CCB activity is role-derived and roles only change on scalar
    /// cycles: over random loads and widths, `active_count()` is the same
    /// at both ends of every window `advance_unobserved` takes, and it
    /// never rises across `run` while nothing is mounted (the role edges
    /// the auditor's `legal_edge` admits). The first is what the
    /// analyzer's dormant trigger wait rests on.
    #[test]
    fn activity_is_constant_in_unobserved_windows_and_never_rises(
        kernel in arb_kernel(),
        seed in 0u64..16,
        width in prop::sample::select(vec![2usize, 4, 8, 16, 64]),
        load in 0u8..3,
    ) {
        use fx8_study::workload::kernels;
        let mount = |c: &mut Cluster| match load {
            0 => c.mount_serial(kernels::scalar_serial().instantiate(1), 1, None),
            _ => {
                if load == 2 {
                    // A detached process keeps its CE off the CCB lines.
                    c.mount_detached(width - 1, kernels::glue_serial().instantiate(9), 9);
                }
                c.mount_loop(
                    kernel.instantiate(1),
                    0,
                    kernel.iters,
                    kernels::glue_serial().instantiate(1),
                    1,
                );
            }
        };
        let machine = || {
            let mut c = Cluster::new(MachineConfig::scaled(width), seed);
            c.set_ip_intensity(0.01);
            mount(&mut c);
            c
        };
        const CYCLES: u64 = 40_000;

        // Window by window, as the run loop and the analyzer take them.
        let mut c = machine();
        let mut windows = 0u64;
        while c.now() < CYCLES {
            let before = c.active_count();
            let k = c.advance_unobserved(CYCLES - c.now());
            if k == 0 {
                c.step();
            } else {
                windows += 1;
            }
            let after = c.active_count();
            prop_assert!(after <= before, "activity rose {} -> {} at {}", before, after, c.now());
            prop_assert!(
                k == 0 || after == before,
                "a {}-cycle window moved activity {} -> {}", k, before, after
            );
        }
        if !cfg!(feature = "audit") {
            prop_assert!(windows > 0, "no window was ever taken");
        }

        // Through `run`, in uneven chunks.
        let mut c = machine();
        let mut last = c.active_count();
        for chunk in [1u64, 7, 300, 5_000, 34_692] {
            c.run(chunk);
            let now = c.active_count();
            prop_assert!(now <= last, "activity rose {} -> {} across run", last, now);
            last = now;
        }
    }

    /// Cluster execution is deterministic for any kernel/seed pair.
    #[test]
    fn cluster_trace_is_deterministic(kernel in arb_kernel(), seed in 0u64..16) {
        let run = || {
            let mut c = Cluster::new(MachineConfig::fx8(), seed);
            c.set_ip_intensity(0.02);
            c.mount_loop(
                kernel.instantiate(1),
                0,
                kernel.iters,
                fx8_study::workload::kernels::glue_serial().instantiate(1),
                1,
            );
            c.capture(800)
        };
        prop_assert_eq!(run(), run());
    }
}
