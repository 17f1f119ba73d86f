//! The device MMU model (paper §4.2.4).
//!
//! "The Cohort MMU features a TLB and page table walker to maximise its
//! independence from the cores in the SoC." This module provides the
//! ISA-native (Sv39) MMU used by both the Cohort engine and the MAPLE
//! baseline unit: a small fully-associative TLB with LRU replacement and
//! superpage entries, plus an incremental walk state machine. The
//! [`crate::mte::MteChannel`] drives the walk by issuing *timed, coherent*
//! reads of each PTE (so walks cost real cycles and real coherence
//! traffic) and feeding the values back.

use crate::sv39::{self, PageSize};
use cohort_sim::stats::Counter;

/// One TLB entry.
#[derive(Debug, Clone, Copy)]
struct TlbEntry {
    va_base: u64,
    pa_base: u64,
    size: PageSize,
    lru: u64,
}

/// TLB lookup result.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TlbResult {
    /// Translation found.
    Hit {
        /// Translated physical address.
        pa: u64,
    },
    /// Walk required.
    Miss,
}

/// Counters for the MMU: registry [`Counter`] cells an owner may adopt.
#[derive(Debug, Default, Clone)]
pub struct MmuCounters {
    /// TLB hits.
    pub hits: Counter,
    /// TLB misses (walks started).
    pub misses: Counter,
    /// Page faults raised.
    pub faults: Counter,
    /// TLB flushes (MMU-notifier shootdowns).
    pub flushes: Counter,
}

/// A fully-associative, LRU TLB with a page-table-walk state machine.
#[derive(Debug)]
pub struct DeviceMmu {
    entries: Vec<Option<TlbEntry>>,
    tick: u64,
    root_pa: Option<u64>,
    counters: MmuCounters,
}

impl DeviceMmu {
    /// Creates an MMU with `entries` TLB slots (paper: 16).
    pub fn new(entries: usize) -> Self {
        Self {
            entries: vec![None; entries.max(1)],
            tick: 0,
            root_pa: None,
            counters: MmuCounters::default(),
        }
    }

    /// Sets the page-table root (the driver writes this at registration).
    pub fn set_root(&mut self, root_pa: u64) {
        self.root_pa = Some(root_pa);
        self.entries.fill(None); // not a shootdown: no flush counted
    }

    /// The configured root, if any.
    pub fn root_pa(&self) -> Option<u64> {
        self.root_pa
    }

    /// Flushes the whole TLB (MMU-notifier shootdown, §4.4).
    pub fn flush(&mut self) {
        self.entries.fill(None);
        self.counters.flushes.inc();
    }

    /// Counter snapshot.
    pub fn counters(&self) -> &MmuCounters {
        &self.counters
    }

    /// Looks up `va`; a hit refreshes LRU.
    pub fn lookup(&mut self, va: u64) -> TlbResult {
        self.tick += 1;
        let tick = self.tick;
        for e in self.entries.iter_mut().flatten() {
            let bytes = e.size.bytes();
            if va >= e.va_base && va < e.va_base + bytes {
                e.lru = tick;
                self.counters.hits.inc();
                return TlbResult::Hit {
                    pa: e.pa_base + (va - e.va_base),
                };
            }
        }
        self.counters.misses.inc();
        TlbResult::Miss
    }

    /// Inserts a translation (after a successful walk, or directly by the
    /// OS through the "write the PTE into the TLB" fault-resolution
    /// register, §4.2.4).
    pub fn insert(&mut self, va: u64, pa: u64, size: PageSize) {
        self.tick += 1;
        let bytes = size.bytes();
        let entry = TlbEntry {
            va_base: va / bytes * bytes,
            pa_base: pa / bytes * bytes,
            size,
            lru: self.tick,
        };
        // Reuse an existing entry for the same page, then a free slot,
        // then evict LRU.
        if let Some(e) = self
            .entries
            .iter_mut()
            .flatten()
            .find(|e| e.va_base == entry.va_base && e.size == entry.size)
        {
            *e = entry;
            return;
        }
        if let Some(slot) = self.entries.iter_mut().find(|s| s.is_none()) {
            *slot = Some(entry);
            return;
        }
        let victim = self
            .entries
            .iter_mut()
            .min_by_key(|s| s.as_ref().map_or(u64::MAX, |e| e.lru))
            .expect("nonempty TLB");
        *victim = Some(entry);
    }

    /// Begins a hardware walk for `va`.
    ///
    /// # Panics
    /// Panics if no root has been configured.
    pub(crate) fn begin_walk(&mut self, va: u64) -> WalkMachine {
        let root = self.root_pa.expect("MMU root not configured");
        WalkMachine {
            va,
            level: 2,
            table_pa: root,
        }
    }

    /// Records a fault (for counters) — called when a walk ends in
    /// [`WalkStep::Fault`].
    pub(crate) fn note_fault(&mut self) {
        self.counters.faults.inc();
    }
}

/// Incremental page-table walk driven by an [`crate::mte::MteChannel`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct WalkMachine {
    va: u64,
    level: u32,
    table_pa: u64,
}

/// What the walk needs or produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum WalkStep {
    /// The walker must read the PTE at [`WalkMachine::pte_pa`] and feed
    /// its value back via [`WalkMachine::feed`].
    NeedPte,
    /// Walk finished: install `va -> pa` and retry the access.
    Done {
        /// Page base virtual address.
        va_page: u64,
        /// Page base physical address.
        pa_page: u64,
        /// Page size found.
        size: PageSize,
    },
    /// Page fault: the component raises the Cohort interrupt (§4.4).
    Fault,
}

impl WalkMachine {
    /// The virtual address being walked.
    pub(crate) fn va(&self) -> u64 {
        self.va
    }

    /// Physical address of the next PTE to fetch.
    pub(crate) fn pte_pa(&self) -> u64 {
        sv39::pte_addr(self.table_pa, self.va, self.level)
    }

    /// Feeds the fetched PTE value; returns the next step.
    pub(crate) fn feed(&mut self, pte: u64) -> WalkStep {
        match sv39::classify_pte(pte) {
            sv39::PteKind::Invalid => WalkStep::Fault,
            sv39::PteKind::Branch { next_table_pa } => {
                if self.level == 0 {
                    return WalkStep::Fault;
                }
                self.level -= 1;
                self.table_pa = next_table_pa;
                WalkStep::NeedPte
            }
            sv39::PteKind::Leaf { page_pa, .. } => {
                let size = match self.level {
                    0 => PageSize::Base,
                    1 => PageSize::Mega,
                    2 => PageSize::Giga,
                    _ => unreachable!(),
                };
                if page_pa % size.bytes() != 0 {
                    return WalkStep::Fault;
                }
                WalkStep::Done {
                    va_page: self.va & !(size.bytes() - 1),
                    pa_page: page_pa,
                    size,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frame::FrameAllocator;
    use crate::sv39::pte_flags;
    use cohort_sim::mem::{MemAccess, PhysMem};

    fn mapped_space() -> (PhysMem, u64, u64) {
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(0x100_0000, 0x200_0000);
        let root = frames.alloc();
        let va = 0x4000_0000u64;
        let pa = 0x180_0000u64;
        sv39::map(
            &mut mem,
            root,
            va,
            pa,
            PageSize::Base,
            pte_flags::DATA,
            || frames.alloc(),
        );
        (mem, root, va)
    }

    fn drive_walk(mmu: &mut DeviceMmu, mem: &PhysMem, va: u64) -> WalkStep {
        let mut walk = mmu.begin_walk(va);
        let mut step = WalkStep::NeedPte;
        let mut reads = 0;
        loop {
            match step {
                WalkStep::NeedPte => {
                    reads += 1;
                    assert!(reads <= 3, "walk must terminate in 3 reads");
                    step = walk.feed(mem.read_u64(walk.pte_pa()));
                }
                other => return other,
            }
        }
    }

    #[test]
    fn miss_walk_hit_sequence() {
        let (mem, root, va) = mapped_space();
        let mut mmu = DeviceMmu::new(16);
        mmu.set_root(root);
        assert_eq!(mmu.lookup(va), TlbResult::Miss);
        match drive_walk(&mut mmu, &mem, va + 0x123) {
            WalkStep::Done {
                va_page,
                pa_page,
                size,
            } => {
                assert_eq!((va_page, pa_page), (va, 0x180_0000));
                mmu.insert(va_page, pa_page, size);
            }
            other => panic!("walk failed: {other:?}"),
        }
        assert_eq!(mmu.lookup(va + 0x456), TlbResult::Hit { pa: 0x180_0456 });
        assert_eq!(mmu.counters().hits.get(), 1);
        assert_eq!(mmu.counters().misses.get(), 1);
    }

    #[test]
    fn unmapped_va_faults() {
        let (mem, root, _) = mapped_space();
        let mut mmu = DeviceMmu::new(16);
        mmu.set_root(root);
        assert_eq!(drive_walk(&mut mmu, &mem, 0xdead_0000), WalkStep::Fault);
    }

    #[test]
    fn flush_drops_entries() {
        let (mem, root, va) = mapped_space();
        let mut mmu = DeviceMmu::new(16);
        mmu.set_root(root);
        if let WalkStep::Done {
            va_page,
            pa_page,
            size,
            ..
        } = drive_walk(&mut mmu, &mem, va)
        {
            mmu.insert(va_page, pa_page, size);
        }
        assert!(matches!(mmu.lookup(va), TlbResult::Hit { .. }));
        mmu.flush();
        assert_eq!(mmu.lookup(va), TlbResult::Miss);
        assert_eq!(mmu.counters().flushes.get(), 1);
    }

    #[test]
    fn lru_eviction_in_small_tlb() {
        let mut mmu = DeviceMmu::new(2);
        mmu.insert(0x1000, 0xa000, PageSize::Base);
        mmu.insert(0x2000, 0xb000, PageSize::Base);
        let _ = mmu.lookup(0x1000); // refresh first
        mmu.insert(0x3000, 0xc000, PageSize::Base); // evicts 0x2000
        assert!(matches!(mmu.lookup(0x1000), TlbResult::Hit { .. }));
        assert_eq!(mmu.lookup(0x2000), TlbResult::Miss);
        assert!(matches!(mmu.lookup(0x3000), TlbResult::Hit { .. }));
    }

    #[test]
    fn superpage_entry_covers_whole_range() {
        let mut mmu = DeviceMmu::new(4);
        mmu.insert(0x4000_0000, 0x8000_0000, PageSize::Mega);
        assert_eq!(
            mmu.lookup(0x4000_0000 + 0x1f_0000),
            TlbResult::Hit {
                pa: 0x8000_0000 + 0x1f_0000
            }
        );
    }
}
