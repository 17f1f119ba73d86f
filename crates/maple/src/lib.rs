//! # cohort-maple — the MAPLE-based baselines (paper §5.1)
//!
//! The paper repurposes a MAPLE decoupling unit \[61\] to host the same
//! accelerators behind the two conventional invocation interfaces Cohort is
//! compared against:
//!
//! * **MMIO** — the core feeds the accelerator one 64-bit word at a time
//!   through uncached, side-effectful register accesses. Each access is a
//!   full non-speculative NoC round trip; pops of pending results block
//!   until the accelerator produces them ("the core cannot achieve
//!   memory-level parallelism and so must receive the accelerator's output
//!   word by word before passing the next input word", §5.3).
//! * **Coherent DMA** — the core programs a block transfer (source,
//!   destination, length — several MMIO writes per 256-byte block, §5.3 /
//!   Table 2), and the unit fetches the data coherently through its own
//!   RISC-V MMU, streams it through the accelerator, stores results
//!   coherently (the P-Mesh TRI path) and reports completion through a
//!   blocking `DONE` read.
//!
//! Both modes live in one [`MapleUnit`] component, selected per run.

#![forbid(unsafe_code)]

pub mod unit;

pub use unit::{MapleCounters, MapleUnit, DEAD_SENTINEL};

/// The MAPLE unit's MMIO register map (byte offsets from its base).
pub mod regs {
    /// Write a 64-bit input word (blocks while the accelerator is
    /// back-pressuring).
    pub const PUSH: u64 = 0x08;
    /// Read a 64-bit output word (blocks until one is available).
    pub const POP: u64 = 0x10;
    /// Append 8 bytes to the CSR staging buffer.
    pub const CSR_DATA: u64 = 0x18;
    /// Commit the CSR staging buffer to the accelerator.
    pub const CSR_COMMIT: u64 = 0x20;
    /// DMA: source virtual address.
    pub const DMA_SRC: u64 = 0x28;
    /// DMA: destination virtual address.
    pub const DMA_DST: u64 = 0x30;
    /// DMA: transfer length in bytes (input side).
    pub const DMA_LEN: u64 = 0x38;
    /// DMA: page-table root physical address.
    pub const DMA_PTROOT: u64 = 0x40;
    /// DMA: start the programmed transfer.
    pub const DMA_START: u64 = 0x48;
    /// DMA: blocking read, returns the number of output bytes written once
    /// the transfer has fully completed.
    pub const DMA_DONE: u64 = 0x50;
    /// Reset the accelerator and all unit state.
    pub const RESET: u64 = 0x58;
    /// Register bank size in bytes.
    pub const BANK_BYTES: u64 = 0x100;
}
