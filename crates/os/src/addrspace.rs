//! Per-process virtual address spaces.
//!
//! Cohort's headline programmability claim is that "queues are allocatable
//! with malloc" (§4.2.4): no special allocation routines, no pinning, no
//! physical addressing in user space. [`AddressSpace`] models exactly that:
//! a bump `malloc` over the process's virtual range, backed by Sv39 tables
//! built in guest memory, with eager or demand (lazy) mapping and optional
//! 2 MiB huge pages.

use crate::frame::FrameAllocator;
use crate::sv39::{self, pte_flags, PageSize, PAGE_BYTES};
use cohort_sim::mem::MemAccess;
use cohort_sim::translate::Translator;

/// Mapping policy for freshly allocated memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum MapPolicy {
    /// Map every page at allocation time (no engine page faults).
    #[default]
    Eager,
    /// Leave pages unmapped; the Cohort page-fault path maps on demand.
    Lazy,
    /// Back allocations with 2 MiB huge pages (paper §4.1: the Cohort MMU
    /// transparently benefits).
    HugePages,
}

/// A process's virtual address space and its Sv39 tables.
///
/// `Clone` produces a handle onto the *same* page tables (they live in
/// guest memory); callers must not allocate through diverged clones.
#[derive(Debug, Clone)]
pub struct AddressSpace {
    root_pa: u64,
    brk: u64,
    policy: MapPolicy,
}

impl AddressSpace {
    /// Default base of the `malloc` arena.
    pub const HEAP_BASE: u64 = 0x0000_0040_0000_0000 >> 9; // 0x2000_0000

    /// Creates an address space with a fresh root table.
    pub fn new(frames: &mut FrameAllocator, policy: MapPolicy) -> Self {
        let root_pa = frames.alloc();
        Self {
            root_pa,
            brk: Self::HEAP_BASE,
            policy,
        }
    }

    /// Physical address of the root page table (the engine's `PT_ROOT`).
    pub fn root_pa(&self) -> u64 {
        self.root_pa
    }

    /// The configured mapping policy.
    pub fn policy(&self) -> MapPolicy {
        self.policy
    }

    /// Maps one 4 KiB page `va -> pa`.
    pub fn map_page(
        &mut self,
        mem: &mut dyn MemAccess,
        frames: &mut FrameAllocator,
        va: u64,
        pa: u64,
    ) {
        sv39::map(
            mem,
            self.root_pa,
            va,
            pa,
            PageSize::Base,
            pte_flags::DATA,
            || frames.alloc(),
        );
    }

    /// Maps one 2 MiB huge page `va -> pa`.
    pub fn map_huge(
        &mut self,
        mem: &mut dyn MemAccess,
        frames: &mut FrameAllocator,
        va: u64,
        pa: u64,
    ) {
        sv39::map(
            mem,
            self.root_pa,
            va,
            pa,
            PageSize::Mega,
            pte_flags::DATA,
            || frames.alloc(),
        );
    }

    /// Allocates `bytes` of heap, aligned to `align` (power of two), and
    /// backs it according to the policy. Returns the virtual address.
    ///
    /// # Panics
    /// Panics if `align` is not a power of two.
    pub fn malloc(
        &mut self,
        mem: &mut dyn MemAccess,
        frames: &mut FrameAllocator,
        bytes: u64,
        align: u64,
    ) -> u64 {
        assert!(align.is_power_of_two(), "alignment must be a power of two");
        let va = self.brk.div_ceil(align) * align;
        self.brk = va + bytes;
        match self.policy {
            MapPolicy::Eager => {
                let start = va / PAGE_BYTES * PAGE_BYTES;
                let end = (va + bytes).div_ceil(PAGE_BYTES) * PAGE_BYTES;
                let mut page = start;
                while page < end {
                    if sv39::walk(mem, self.root_pa, page).is_none() {
                        let pa = frames.alloc();
                        self.map_page(mem, frames, page, pa);
                    }
                    page += PAGE_BYTES;
                }
            }
            MapPolicy::Lazy => { /* mapped by the fault handler */ }
            MapPolicy::HugePages => {
                let huge = PageSize::Mega.bytes();
                let start = va / huge * huge;
                let end = (va + bytes).div_ceil(huge) * huge;
                let mut page = start;
                while page < end {
                    if sv39::walk(mem, self.root_pa, page).is_none() {
                        let pa = frames.alloc_aligned(huge / PAGE_BYTES, huge);
                        self.map_huge(mem, frames, page, pa);
                    }
                    page += huge;
                }
            }
        }
        va
    }

    /// Resolves a demand fault at `va`: maps the containing 4 KiB page.
    /// Returns the new physical page. (The driver's fault handler calls
    /// this, then pokes the engine's resolve register.)
    pub fn handle_fault(
        &mut self,
        mem: &mut dyn MemAccess,
        frames: &mut FrameAllocator,
        va: u64,
    ) -> u64 {
        let page_va = va / PAGE_BYTES * PAGE_BYTES;
        let pa = frames.alloc();
        self.map_page(mem, frames, page_va, pa);
        pa
    }

    /// Functionally translates `va`.
    pub fn translate(&self, mem: &dyn MemAccess, va: u64) -> Option<u64> {
        sv39::walk(mem, self.root_pa, va).map(|r| r.pa)
    }

    /// Removes the mapping containing `va` (an `munmap`-style operation
    /// that must be paired with an engine TLB flush via the MMU notifier).
    pub fn unmap(&mut self, mem: &mut dyn MemAccess, va: u64) -> bool {
        sv39::unmap(mem, self.root_pa, va)
    }

    /// Maps the physical pages backing `[src_va, src_va + bytes)` of
    /// `other` into this address space (shared memory / `mmap` of the same
    /// object — the substrate of the paper's §4.5 inter-process queues).
    /// Returns the corresponding VA in this space.
    ///
    /// # Panics
    /// Panics if any source page is unmapped, or if the source range is
    /// not page aligned in a way that can be aliased page-by-page.
    pub fn map_shared(
        &mut self,
        mem: &mut dyn MemAccess,
        frames: &mut FrameAllocator,
        other: &AddressSpace,
        src_va: u64,
        bytes: u64,
    ) -> u64 {
        let page_off = src_va % PAGE_BYTES;
        let first_page = src_va - page_off;
        let end = (src_va + bytes).div_ceil(PAGE_BYTES) * PAGE_BYTES;
        let n_pages = (end - first_page) / PAGE_BYTES;
        // Reserve a page-aligned VA window in this space.
        let dst_base = {
            let va = self.brk.div_ceil(PAGE_BYTES) * PAGE_BYTES;
            self.brk = va + n_pages * PAGE_BYTES;
            va
        };
        for i in 0..n_pages {
            let pa = other
                .translate(mem, first_page + i * PAGE_BYTES)
                .unwrap_or_else(|| panic!("map_shared: source page {i} unmapped"));
            self.map_page(mem, frames, dst_base + i * PAGE_BYTES, pa);
        }
        dst_base + page_off
    }

    /// A `Copy` translator handle for core-side accesses: just the root.
    pub fn translator(&self) -> SpaceTranslator {
        SpaceTranslator {
            root_pa: self.root_pa,
        }
    }
}

/// Translator walking a fixed root table (for [`cohort_sim::core`] cores).
#[derive(Debug, Clone, Copy)]
pub struct SpaceTranslator {
    root_pa: u64,
}

impl Translator for SpaceTranslator {
    fn translate(&self, mem: &dyn MemAccess, va: u64) -> Option<u64> {
        sv39::walk(mem, self.root_pa, va).map(|r| r.pa)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cohort_sim::mem::PhysMem;

    fn setup() -> (PhysMem, FrameAllocator) {
        (PhysMem::new(), FrameAllocator::new(0x100_0000, 0x4000_0000))
    }

    #[test]
    fn eager_malloc_is_mapped() {
        let (mut mem, mut frames) = setup();
        let mut space = AddressSpace::new(&mut frames, MapPolicy::Eager);
        let va = space.malloc(&mut mem, &mut frames, 10_000, 64);
        for off in [0u64, 4096, 9999] {
            assert!(space.translate(&mem, va + off).is_some(), "offset {off}");
        }
    }

    #[test]
    fn lazy_malloc_faults_then_maps() {
        let (mut mem, mut frames) = setup();
        let mut space = AddressSpace::new(&mut frames, MapPolicy::Lazy);
        let va = space.malloc(&mut mem, &mut frames, 4096, 4096);
        assert!(space.translate(&mem, va).is_none(), "lazy: unmapped");
        space.handle_fault(&mut mem, &mut frames, va + 100);
        assert!(space.translate(&mem, va).is_some());
    }

    #[test]
    fn huge_pages_are_megapages() {
        let (mut mem, mut frames) = setup();
        let mut space = AddressSpace::new(&mut frames, MapPolicy::HugePages);
        let va = space.malloc(&mut mem, &mut frames, 3 << 20, 64);
        let r = sv39::walk(&mem, space.root_pa(), va).expect("mapped");
        assert_eq!(r.size, PageSize::Mega);
        assert_eq!(r.levels, 2);
    }

    #[test]
    fn distinct_allocations_do_not_overlap() {
        let (mut mem, mut frames) = setup();
        let mut space = AddressSpace::new(&mut frames, MapPolicy::Eager);
        let a = space.malloc(&mut mem, &mut frames, 100, 64);
        let b = space.malloc(&mut mem, &mut frames, 100, 64);
        assert!(b >= a + 100);
        // Writing through one VA must not alias the other.
        let pa_a = space.translate(&mem, a).unwrap();
        let pa_b = space.translate(&mem, b).unwrap();
        mem.write_u64(pa_a, 1);
        mem.write_u64(pa_b, 2);
        assert_eq!(mem.read_u64(pa_a), 1);
    }

    #[test]
    fn translator_handle_walks() {
        let (mut mem, mut frames) = setup();
        let mut space = AddressSpace::new(&mut frames, MapPolicy::Eager);
        let va = space.malloc(&mut mem, &mut frames, 64, 64);
        let t = space.translator();
        assert_eq!(t.translate(&mem, va), space.translate(&mem, va));
    }

    #[test]
    fn unmap_revokes_translation() {
        let (mut mem, mut frames) = setup();
        let mut space = AddressSpace::new(&mut frames, MapPolicy::Eager);
        let va = space.malloc(&mut mem, &mut frames, 4096, 4096);
        assert!(space.unmap(&mut mem, va));
        assert!(space.translate(&mem, va).is_none());
    }
}
