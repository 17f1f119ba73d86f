//! # cohort-engine — the Cohort engine
//!
//! The paper's primary hardware contribution: a coherence-connected unit
//! that bridges software shared-memory SPSC queues to latency-insensitive
//! accelerator interfaces (paper §4.2, Figure 6). See [`engine::CohortEngine`]
//! for the component and [`cohort_accel::timing::TimedAccel`] for the valid/ready
//! accelerator wrapper.
//!
//! The engine is programmed through the uncached register bank defined in
//! [`cohort_os::driver::regs`] by the Cohort kernel driver; user code never
//! touches it (§4.4).

#![forbid(unsafe_code)]

pub mod engine;

pub use cohort_accel::timing::TimedAccel;
pub use engine::{CohortEngine, EngineCounters};
