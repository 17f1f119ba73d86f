//! Address translation hook for core-side accesses.
//!
//! Cores translate through a [`Translator`] at zero modelled cost (their
//! MMUs are not the object of study); the Cohort engine and MAPLE unit
//! model their MMUs explicitly (TLB + page-table walks with real timing)
//! in their own crates.

use crate::mem::MemAccess;

/// Virtual-to-physical translation for core memory operations.
///
/// Takes memory as `&dyn MemAccess` so walkers read page tables through
/// the calling component's staged view (own same-cycle PTE writes
/// visible, other components' staged writes not).
///
/// A translator must be a pure function of that memory and `va`: no
/// cache of its own, no state that moves between calls. Translations are
/// page-granular (4 KiB): every address of a page maps into one frame at
/// the same offset. A core relies on both — it remembers its last few
/// page translations, and asleep in a spin loop
/// ([`crate::component::Component::quiescent_for`], the held-line rule)
/// it trusts the address it polls to translate where it did — for as
/// long as nobody edits memory, and whoever edits page tables announces
/// it ([`crate::faultinject::FaultState::announce_bypass_write`]). Page
/// tables are edited by host logic only (the entry points of
/// [`crate::os::Os`]), never by
/// a simulated store: translation reads `PhysMem` directly, so a core
/// would not hear of such a store through its cache.
pub trait Translator {
    /// Translates `va`; `None` denotes a fault (the core takes it to
    /// [`crate::os::Os::core_fault`]).
    fn translate(&self, mem: &dyn MemAccess, va: u64) -> Option<u64>;
}

/// The identity mapping, used when programs address physical memory
/// directly.
#[derive(Debug, Clone, Copy, Default)]
pub struct Identity;

impl Translator for Identity {
    fn translate(&self, _mem: &dyn MemAccess, va: u64) -> Option<u64> {
        Some(va)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_identity() {
        let mem = crate::mem::PhysMem::new();
        assert_eq!(Identity.translate(&mem, 0xabc), Some(0xabc));
    }
}
