//! # cohort — Software-Oriented Acceleration
//!
//! The public face of the Cohort reproduction (ASPLOS 2023): software talks
//! to accelerators through ordinary shared-memory SPSC queues; a Cohort
//! engine (or, natively, an accelerator thread) sits on the other side.
//!
//! Two runtimes share one programming model:
//!
//! * [`native`] — Software-Oriented Acceleration on the host machine:
//!   [`native::cohort_register`] connects an accelerator implementation to
//!   a pair of real lock-free queues and runs it on its own thread, exactly
//!   like replacing a software pipeline stage (paper Fig. 4/5). Supports
//!   transparent chaining and runtime reconfiguration.
//! * [`system`] + [`scenarios`] — the cycle-level SoC reproduction: build a
//!   simulated OpenPiton-style multicore with Cohort engines and MAPLE
//!   baselines, run the paper's benchmarks, and read back latency/IPC
//!   counters. This is what regenerates every figure and table of §6.
//!
//! ## Paper API mapping (Table 1)
//!
//! | Paper C API | This crate |
//! |---|---|
//! | `fifo_init(elem_size, len)` | [`cohort_queue::spsc_channel`] |
//! | `push(e, q)` | [`cohort_queue::Producer::push`] / [`native::push_blocking`] |
//! | `pop(q)` | [`cohort_queue::Consumer::pop`] / [`native::pop_blocking`] |
//! | `fifo_deinit(q)` | dropping both halves |
//! | `cohort_register(acc, in, out)` | [`native::cohort_register`] (native) / [`cohort_os::CohortDriver::register_ops`] (sim) |
//! | `cohort_unregister(...)` | [`native::CohortHandle::unregister`] / [`cohort_os::CohortDriver::unregister_ops`] |
//!
//! ## Quickstart (native runtime)
//!
//! ```
//! use cohort::native::{cohort_register, pop_blocking, push_blocking};
//! use cohort_accel::sha256::{sha256_raw_block, Sha256Accel};
//! use cohort_queue::spsc_channel;
//!
//! // Two ordinary SPSC queues...
//! let (mut to_acc, acc_in) = spsc_channel::<u64>(64);
//! let (acc_out, mut from_acc) = spsc_channel::<u64>(64);
//! // ...and an accelerator where a consumer thread would be.
//! let handle = cohort_register(Box::new(Sha256Accel::new()), acc_in, acc_out, None);
//!
//! let block = [0x42u8; 64];
//! for chunk in block.chunks_exact(8) {
//!     push_blocking(&mut to_acc, u64::from_le_bytes(chunk.try_into().unwrap()));
//! }
//! let mut digest = Vec::new();
//! for _ in 0..4 {
//!     digest.extend_from_slice(&pop_blocking(&mut from_acc).to_le_bytes());
//! }
//! assert_eq!(digest, sha256_raw_block(&block).to_vec());
//! handle.unregister();
//! ```

#![forbid(unsafe_code)]

pub mod native;
pub mod scenarios;
pub mod system;

pub use native::{cohort_register, CohortHandle};
pub use scenarios::{RunResult, Scenario, Workload};
