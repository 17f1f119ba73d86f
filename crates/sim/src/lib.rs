//! # cohort-sim — cycle-level SoC substrate
//!
//! This crate is the hardware substrate for the Cohort reproduction: a
//! cycle-level simulator of a small tile-based system-on-chip in the style of
//! OpenPiton + Ariane, the platform the Cohort paper prototypes on (ASPLOS
//! 2023). It provides:
//!
//! * a sparse [`mem::PhysMem`] physical memory holding *real data* — the
//!   benchmarks push real bytes through real accelerator implementations and
//!   check the results;
//! * a 2-D mesh [`noc::Noc`] with per-hop latency and flit serialization;
//! * a MESI-style directory protocol ([`directory::Directory`]) with an
//!   inclusive shared L2, invalidations, downgrades and DRAM fills;
//! * a private-cache agent ([`port::CoherentPort`]) reused by cores, the
//!   Cohort engine's memory transaction engine, and the MAPLE baseline unit;
//! * an in-order core model ([`core::InOrderCore`]) executing abstract
//!   instruction streams ([`program::Op`]) with a store buffer, blocking
//!   MMIO semantics, spin-wait loops and interrupt handlers;
//! * the [`soc::Soc`] top level that owns components, routes messages and
//!   advances time.
//!
//! The fidelity notes live in `DESIGN.md` at the workspace root: the
//! simulator models the microarchitectural mechanisms that produce the
//! paper's latency/IPC numbers (coherence round trips, invalidation-driven
//! signalling, MMIO stalls, DMA programming overhead, cache capacity), with
//! latency constants collected in [`config::TimingConfig`].
//!
//! ## Example
//!
//! ```
//! use cohort_sim::config::SocConfig;
//! use cohort_sim::soc::Soc;
//! use cohort_sim::core::InOrderCore;
//! use cohort_sim::directory::Directory;
//! use cohort_sim::component::TileCoord;
//! use cohort_sim::mem::MemAccess;
//! use cohort_sim::program::{Op, Program};
//!
//! let cfg = SocConfig::default();
//! let mut soc = Soc::new(cfg.clone());
//! let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
//! let mut program = Program::new();
//! program.push(Op::Store { va: 0x1000, value: 42 });
//! program.push(Op::Fence);
//! let core = InOrderCore::new(dir, &cfg, program);
//! let core_id = soc.add_component(TileCoord::new(1, 0), Box::new(core));
//! let outcome = soc.run(1_000_000);
//! assert!(outcome.quiescent);
//! assert_eq!(soc.mem.read_u64(0x1000), 42);
//! # let _ = core_id;
//! ```

#![forbid(unsafe_code)]

pub mod cache;
pub mod component;
pub mod config;
pub mod core;
pub mod directory;
pub mod dram;
pub mod faultinject;
pub(crate) mod hash;
pub mod mem;
pub mod msg;
pub mod noc;
pub mod os;
pub mod port;
pub mod program;
pub mod soc;
pub mod stage;
pub mod stats;
pub mod trace;
pub mod translate;

/// Bytes per cache line across the simulated SoC.
pub const LINE_BYTES: u64 = 64;

/// Returns the line-aligned address containing `pa`.
#[inline]
pub fn line_of(pa: u64) -> u64 {
    pa & !(LINE_BYTES - 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn line_of_masks_low_bits() {
        assert_eq!(line_of(0), 0);
        assert_eq!(line_of(63), 0);
        assert_eq!(line_of(64), 64);
        assert_eq!(line_of(0x1234), 0x1200);
    }
}
