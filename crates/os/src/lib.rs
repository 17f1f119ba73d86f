//! # cohort-os — guest operating system model
//!
//! The Cohort paper boots SMP Linux on its FPGA SoC and ships a kernel
//! driver (§4.4) that registers queues, keeps the engine's MMU coherent via
//! MMU notifiers, and resolves the engine's page faults from an interrupt.
//! This crate models that software stack against the simulated SoC:
//!
//! * [`sv39`] — RISC-V Sv39 page-table encoding, building and walking, with
//!   4 KiB, 2 MiB and 1 GiB page support (the paper's huge-page claim,
//!   §4.1);
//! * [`frame`] — a physical frame allocator for guest DRAM;
//! * [`addrspace`] — per-process virtual address spaces with a
//!   `malloc`-style bump allocator (eager or demand-paged) and a
//!   [`cohort_sim::translate::Translator`] for core-side accesses;
//! * [`mmu`] — the device MMU model shared by the Cohort engine and the
//!   MAPLE baseline: a small fully-associative TLB (16 entries, §5) plus an
//!   incremental Sv39 walk state machine;
//! * [`mte`] — the memory transaction engine channel both devices reach
//!   memory through: it splits an access at line boundaries, translates
//!   each piece (driving the walk with timed coherent PTE reads) and
//!   moves it through the device's coherent port;
//! * [`driver`] — the Cohort kernel driver: the engine's register map
//!   (uapi), `cohort_register`/`cohort_unregister` syscall cost models that
//!   expand into MMIO programming sequences, TLB-shootdown (MMU notifier)
//!   flushes;
//! * [`kernel`] — the one value behind the SoC's OS entry points
//!   ([`cohort_sim::os::Os`]): the process's mm, the swap map of
//!   storm-evicted pages, and the driver's interrupt actions (page-fault
//!   resolution, bounded retry with software fallback, failover).

#![forbid(unsafe_code)]

pub mod addrspace;
pub mod driver;
pub mod frame;
pub mod kernel;
pub mod mmu;
pub mod mte;
pub mod sv39;

pub use addrspace::AddressSpace;
pub use driver::{CohortDriver, Placement, ShardAssignment, ShardError, ShardPool};
pub use frame::FrameAllocator;
