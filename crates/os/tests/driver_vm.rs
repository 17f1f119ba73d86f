//! Tests of the kernel's demand paging across both fault paths.

use cohort_os::addrspace::{AddressSpace, MapPolicy};
use cohort_os::driver::regs;
use cohort_os::frame::FrameAllocator;
use cohort_os::kernel::Kernel;
use cohort_os::CohortDriver;
use cohort_sim::mem::PhysMem;
use cohort_sim::os::Os;

const ENGINE_MMIO: u64 = 0x4000_0000;
const IRQ: u32 = 5;

#[test]
fn one_kernel_maps_exactly_once_across_paths() {
    let mut mem = PhysMem::new();
    let mut frames = FrameAllocator::new(0x100_0000, 0x200_0000);
    let mut space = AddressSpace::new(&mut frames, MapPolicy::Lazy);
    let va = space.malloc(&mut mem, &mut frames, 4096, 4096);
    let view = space.clone();
    let mut kernel = Kernel::new(space, frames);
    kernel.arm_paging(&[CohortDriver::new(ENGINE_MMIO, IRQ)]);

    // Engine-path fault resolution.
    assert!(view.translate(&mem, va).is_none());
    let trap = kernel
        .interrupt(&mut mem, IRQ, va, 0)
        .expect("fault IRQ armed");
    assert_eq!(trap.writes, vec![(ENGINE_MMIO + regs::FAULT_RESOLVE, 0)]);
    let pa1 = view.translate(&mem, va).unwrap();
    // Core-path "fault" on the same page must observe the mapping and not
    // double-allocate.
    assert!(kernel.core_fault(&mut mem, va));
    assert_eq!(view.translate(&mem, va).unwrap(), pa1);
}

#[test]
fn fault_paths_share_one_frame_pool() {
    let mut mem = PhysMem::new();
    let mut frames = FrameAllocator::new(0x100_0000, 0x200_0000);
    let mut space = AddressSpace::new(&mut frames, MapPolicy::Lazy);
    let va_a = space.malloc(&mut mem, &mut frames, 4096, 4096);
    let va_b = space.malloc(&mut mem, &mut frames, 4096, 4096);
    let view = space.clone();
    let mut kernel = Kernel::new(space, frames);
    kernel.arm_paging(&[CohortDriver::new(ENGINE_MMIO, IRQ)]);
    kernel
        .interrupt(&mut mem, IRQ, va_a, 0)
        .expect("fault IRQ armed");
    assert!(kernel.core_fault(&mut mem, va_b));
    let (pa_a, pa_b) = (view.translate(&mem, va_a), view.translate(&mem, va_b));
    assert_ne!(pa_a, pa_b, "distinct pages come from distinct frames");
}

#[test]
fn an_unarmed_kernel_serves_no_fault() {
    let mut mem = PhysMem::new();
    let mut frames = FrameAllocator::new(0x100_0000, 0x200_0000);
    let mut space = AddressSpace::new(&mut frames, MapPolicy::Lazy);
    let va = space.malloc(&mut mem, &mut frames, 4096, 4096);
    let mut kernel = Kernel::new(space, frames);
    assert!(!kernel.core_fault(&mut mem, va), "paging is not armed");
    assert!(kernel.interrupt(&mut mem, IRQ, va, 0).is_none());
    assert_eq!(kernel.storm(&mut mem, 2), None, "no evictor");
}
