//! Tests of the driver's shared-VM demand paging across both fault paths.

use cohort_os::addrspace::{AddressSpace, MapPolicy};
use cohort_os::driver::CohortDriver;
use cohort_os::frame::FrameAllocator;
use cohort_sim::mem::PhysMem;

#[test]
fn shared_vm_maps_exactly_once_across_paths() {
    let mut mem = PhysMem::new();
    let mut frames = FrameAllocator::new(0x100_0000, 0x200_0000);
    let mut space = AddressSpace::new(&mut frames, MapPolicy::Lazy);
    let va = space.malloc(&mut mem, &mut frames, 4096, 4096);
    let vm = CohortDriver::shared_vm(space, frames);

    // Engine-path fault resolution.
    {
        let (space, frames) = &mut *vm.borrow_mut();
        assert!(space.translate(&mem, va).is_none());
        space.handle_fault(&mut mem, frames, va);
        let pa1 = space.translate(&mem, va).unwrap();
        // Core-path "fault" on the same page must observe the mapping and
        // not double-allocate.
        if space.translate(&mem, va).is_none() {
            space.handle_fault(&mut mem, frames, va);
        }
        assert_eq!(space.translate(&mem, va).unwrap(), pa1);
    }
}

#[test]
fn fault_handlers_share_one_frame_pool() {
    let mut mem = PhysMem::new();
    let mut frames = FrameAllocator::new(0x100_0000, 0x200_0000);
    let mut space = AddressSpace::new(&mut frames, MapPolicy::Lazy);
    let va_a = space.malloc(&mut mem, &mut frames, 4096, 4096);
    let va_b = space.malloc(&mut mem, &mut frames, 4096, 4096);
    let vm = CohortDriver::shared_vm(space, frames);
    let (pa_a, pa_b) = {
        let (space, frames) = &mut *vm.borrow_mut();
        let a = space.handle_fault(&mut mem, frames, va_a);
        let b = space.handle_fault(&mut mem, frames, va_b);
        (a, b)
    };
    assert_ne!(pa_a, pa_b, "distinct pages come from distinct frames");
}
