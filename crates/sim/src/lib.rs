//! # fx8-sim — a cycle-approximate Alliant FX/8 simulator
//!
//! This crate models the machine that McGuire instrumented in *A
//! Measurement-Based Study of Concurrency in a Multiprocessor* (1987): the
//! Alliant FX/8 "Computational Cluster" of eight Computing Elements (CEs)
//! sharing a 128 KB four-way-interleaved cache through a crossbar switch,
//! backed by interleaved main memory over two 64-bit buses, with loop-level
//! concurrency dispatched in hardware over a dedicated Concurrency Control
//! Bus (CCB), and demand-paged virtual memory serviced by Interactive
//! Processors (IPs).
//!
//! The original study probed the machine with a logic analyzer: each probe
//! *record* is the state of the CE↔cache bus opcodes, the memory-bus opcode,
//! and the CCB activity lines at one bus cycle. This simulator is therefore
//! organized around a cycle stepper: [`Cluster::step`] advances one bus cycle
//! and yields a [`probe::ProbeWord`] describing exactly the signals the DAS
//! 9100 probes observed.
//!
//! ## Two-level time
//!
//! A measurement session covers 4–8 hours of machine time, but the monitor
//! only ever captured 512-record buffers. Simulating every one of the ~10¹¹
//! bus cycles in a session is both impossible and unnecessary: the paper's
//! data only ever sees the captured windows plus continuously-integrated
//! kernel counters. The stack therefore runs at two levels:
//!
//! * **micro** — [`Cluster::step`] is a genuine cycle-level simulation of
//!   the machine state (cache contents, crossbar arbitration, CCB iteration
//!   self-scheduling, memory-bus contention, page faults);
//! * **macro** — between captured windows, the workload layer advances phase
//!   *progress* analytically (iterations completed, instructions retired)
//!   using the same cost model, and the VM layer integrates page-fault
//!   counters continuously.
//!
//! Everything a captured record can show is produced by the micro level.
//!
//! ## Crate layout
//!
//! | module | hardware being modeled |
//! |---|---|
//! | [`config`] | machine geometry and latencies (Appendix C of the thesis) |
//! | [`addr`] | virtual addresses: ASID + segment/page/offset |
//! | [`opcode`] | bus opcodes visible to the probes |
//! | [`icache`] | per-CE 16 KB internal instruction cache |
//! | [`cache`] | the shared CE cache (two CPC modules, four banks) |
//! | [`coherence`] | unique-copy-before-modify ownership between CPC and IPC |
//! | [`crossbar`] | CE↔cache-bank routing and arbitration |
//! | [`membus`] | two 64-bit memory buses + interleaved main memory |
//! | [`ccb`] | the Concurrency Control Bus: cstart, self-scheduling, sync |
//! | [`vm`] | segmented demand paging and fault accounting |
//! | [`ip`] | Interactive Processor background traffic and fault service |
//! | [`ce`] | the Computing Element state machine |
//! | [`stream`] | the abstract operation stream a CE executes |
//! | [`cluster`] | the assembled machine |
//! | [`probe`] | the logic-analyzer probe word |
//! | [`trace`] | `fx8-trace`: zero-cost-when-off self-observability |
//! | [`fingerprint`] | stable content fingerprints for the session cache |

pub mod addr;
pub mod audit;
pub mod cache;
pub mod ccb;
pub mod ce;
pub mod cluster;
pub mod coherence;
pub mod config;
pub mod crossbar;
pub mod fingerprint;
pub mod icache;
pub mod ip;
pub mod membus;
pub mod opcode;
pub mod probe;
pub mod stream;
pub mod trace;
pub mod vm;

pub use cluster::Cluster;
pub use config::{ConfigError, MachineConfig, TraceConfig};
pub use probe::ProbeWord;

/// Simulated time in bus cycles.
pub type Cycle = u64;

/// The lane-mask word: one bit per CE lane in the dense SoA kernel, the
/// crossbar's per-bank requester masks, and the probe word's CCB activity
/// lines. Every width-dependent structure is sized off this word, so the
/// machine model is width-generic up to [`probe::MAX_CES`] = 64 lanes: the
/// measured FX/8 uses 8 of them, the scaling study
/// ([`MachineConfig::scaled`]) sweeps the rest.
pub type LaneWord = u64;

/// Bitmask selecting the lanes of an `n_ces`-wide cluster: the width mask
/// every lane-word computation must confine itself to. Saturates at the
/// full [`LaneWord`].
#[inline]
pub const fn lane_mask(n_ces: usize) -> LaneWord {
    if n_ces >= LaneWord::BITS as usize {
        LaneWord::MAX
    } else {
        (1 << n_ces) - 1
    }
}

/// Index of a Computing Element within the cluster (0..=7 on the measured
/// FX/8; up to 0..=63 for scaled hypothetical clusters).
pub type CeId = usize;

/// Address-space identifier: one per job, plus [`addr::KERNEL_ASID`] for the OS.
pub type Asid = u16;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lane_mask_covers_every_width() {
        assert_eq!(lane_mask(1), 0b1);
        assert_eq!(lane_mask(8), 0xff);
        assert_eq!(lane_mask(9), 0x1ff);
        assert_eq!(lane_mask(63), u64::MAX >> 1);
        assert_eq!(lane_mask(64), u64::MAX);
    }
}
