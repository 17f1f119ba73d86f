//! The operating system's entry points into the simulated SoC.
//!
//! Like [`crate::translate::Translator`], this is a trait the sim crate
//! calls and the OS layer (`cohort-os`) implements: the sim crate owns no
//! page tables. A [`crate::soc::Soc`] holds one implementation and lends
//! it to the stepping component as [`crate::component::Ctx::os`]; only
//! the core and the fault injector call it. Each entry point runs host
//! logic against the caller's staged memory, so its writes commit at the
//! cycle barrier like any other write of that step, and the caller
//! announces them ([`crate::faultinject::FaultState::announce_bypass_write`]).
//!
//! Every method has a default that does what a SoC without an OS does,
//! which is what [`NoOs`], the SoC's own value, is: a core-side page
//! fault or an interrupt finds no handler (the core panics), and a
//! page-fault storm finds no evictor.

use crate::mem::MemAccess;

/// What an interrupt handler costs and does.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trap {
    /// Trap entry + handler body cost in cycles.
    pub cycles: u64,
    /// Instructions attributed to the handler for IPC accounting.
    pub insts: u64,
    /// Blocking MMIO writes `(pa, value)` issued after the entry cost,
    /// strictly in order: each waits for the previous response (the
    /// failover rebind sequence relies on it).
    pub writes: Vec<(u64, u64)>,
}

/// The kernel as the hardware sees it.
pub trait Os {
    /// A core's own access to `va` found no translation: map the page and
    /// return true (the core retries the op), or return false if demand
    /// paging is not armed.
    fn core_fault(&mut self, mem: &mut dyn MemAccess, va: u64) -> bool {
        let _ = (mem, va);
        false
    }

    /// Interrupt `irq` with `payload` reached a core at `cycle`: run its
    /// handler, or return `None` if none is installed.
    fn interrupt(
        &mut self,
        mem: &mut dyn MemAccess,
        irq: u32,
        payload: u64,
        cycle: u64,
    ) -> Option<Trap> {
        let _ = (mem, irq, payload, cycle);
        None
    }

    /// A page-fault storm asks for `pages` evictions: returns how many
    /// pages were evicted, or `None` if the kernel keeps no evictor.
    fn storm(&mut self, mem: &mut dyn MemAccess, pages: u64) -> Option<u64> {
        let _ = (mem, pages);
        None
    }
}

/// No operating system: every entry point takes its default.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoOs;

impl Os for NoOs {}
