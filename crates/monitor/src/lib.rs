//! # fx8-monitor — hardware and software instrumentation
//!
//! The study instrumented the FX/8 non-intrusively (§ 3.3): a Tektronix
//! DAS 9100 logic analyzer captured 512-record buffers of probe state
//! (per-CE bus opcodes, the memory-bus opcode, and the Concurrency Control
//! Bus activity lines), controllable and transferable through an I/O port;
//! simultaneously, the Concentrix kernel's continuously-logged event
//! counters (page faults generated by the CEs) were read by a CSRD tool.
//!
//! * [`trigger`] — the three acquisition triggers used in the experiments:
//!   immediate (random sampling), all-eight-active, and
//!   transition-from-full;
//! * [`das`] — the analyzer: arm, wait for trigger, fill the buffer;
//! * [`reduce`] — reduction of a buffer to the event counts of Table 1
//!   (`num_j`, `prof_j`, `ceop_j`, `membop_j`) and the derived system
//!   measures (CE Bus Busy, Missrate);
//! * [`kernel_stats`] — the software-side counters and interval deltas.

pub mod das;
pub mod kernel_stats;
pub mod reduce;
pub mod trigger;

pub use das::{AcquireError, Acquisition, DasConfig, DasMonitor};
pub use kernel_stats::{KernelCounters, KernelStats};
pub use reduce::EventCounts;
pub use trigger::Trigger;
