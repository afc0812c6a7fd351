//! Proof that the steady-state cycle stepper never touches the heap.
//!
//! A counting global allocator wraps the system allocator; after warming a
//! cluster past its transient growth (op queues, the memory-bus start ring,
//! refill scratch buffers reaching their high-water capacity), stepping
//! must perform zero allocations. The simulator is deterministic, so this
//! is a stable property, not a flaky timing assertion.
//!
//! The counting flag and the counter are per thread: the test harness runs
//! these tests in parallel, and another thread's cluster warm-up must not
//! be counted against the window a test is measuring.

use fx8_sim::{Cluster, MachineConfig, TraceConfig};
use fx8_workload::{kernels, WorkloadMix};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

struct CountingAlloc;

thread_local! {
    // Const-initialized `Cell`s of `Copy` types: reading them never
    // allocates and they register no destructor, so the allocator may
    // touch them from any thread at any point of its life.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static COUNTING: Cell<bool> = const { Cell::new(false) };
}

/// Count one allocation if this thread is inside a measured window.
fn note_allocation() {
    if COUNTING.with(Cell::get) {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
    }
}

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_allocation();
        unsafe { System.alloc(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_allocation();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: CountingAlloc = CountingAlloc;

/// Count allocations performed by `f` on the calling thread.
fn allocations_during<R>(f: impl FnOnce() -> R) -> (u64, R) {
    ALLOCATIONS.with(|n| n.set(0));
    COUNTING.with(|c| c.set(true));
    let r = f();
    COUNTING.with(|c| c.set(false));
    (ALLOCATIONS.with(Cell::get), r)
}

fn cluster(seed: u64) -> Cluster {
    let mut c = Cluster::new(MachineConfig::fx8(), seed);
    c.set_ip_intensity(WorkloadMix::csrd_production().ip_intensity);
    c
}

#[test]
fn step_allocations_idle_steady_state_is_zero() {
    let mut c = cluster(21);
    c.run(50_000);
    let (allocs, _) = allocations_during(|| c.run(10_000));
    assert_eq!(allocs, 0, "idle stepping allocated {allocs} times");
}

#[test]
fn step_allocations_serial_steady_state_is_zero() {
    let mut c = cluster(22);
    c.mount_serial(kernels::scalar_serial().instantiate(1), 1, None);
    c.run(50_000);
    let (allocs, _) = allocations_during(|| c.run(10_000));
    assert_eq!(allocs, 0, "serial stepping allocated {allocs} times");
}

#[test]
fn step_allocations_loop_steady_state_is_zero() {
    let mut c = cluster(23);
    let k = kernels::sor_sweep(1026);
    c.mount_loop(
        k.instantiate(1),
        0,
        1_000_000_000,
        kernels::glue_serial().instantiate(1),
        1,
    );
    c.run(50_000);
    let (allocs, _) = allocations_during(|| c.run(10_000));
    assert_eq!(allocs, 0, "loop stepping allocated {allocs} times");
}

#[test]
fn step_allocations_traced_loop_steady_state_is_zero() {
    // An armed tracer must not re-introduce heap traffic: the event ring is
    // pre-allocated, overflow evicts in place, and metrics are plain
    // counters. Warm past the point where the ring first fills so eviction
    // (the steady state for a busy loop) is what gets measured.
    let mut cfg = MachineConfig::fx8();
    cfg.trace = TraceConfig {
        metrics: true,
        events: true,
        event_capacity: 4096,
    };
    let mut c = Cluster::new(cfg, 24);
    c.set_ip_intensity(WorkloadMix::csrd_production().ip_intensity);
    let k = kernels::sor_sweep(1026);
    c.mount_loop(
        k.instantiate(1),
        0,
        1_000_000_000,
        kernels::glue_serial().instantiate(1),
        1,
    );
    c.run(50_000);
    let (allocs, _) = allocations_during(|| c.run(10_000));
    assert_eq!(allocs, 0, "traced loop stepping allocated {allocs} times");
    assert!(
        c.metrics().events_recorded > 0,
        "the tracer was armed and recording"
    );
}
