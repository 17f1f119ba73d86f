//! Inter-process communication through a Cohort engine on the simulated
//! SoC (paper §4.5): process A (core 1) produces into the accelerator's
//! input queue; process B (core 2) consumes the output queue through its
//! *own* mapping of the same physical pages. The engine translates through
//! process A's page tables; coherence is physical, so everyone agrees.

use cohort_accel::nullfifo::NullFifo;
use cohort_engine::CohortEngine;
use cohort_os::addrspace::{AddressSpace, MapPolicy};
use cohort_os::driver::regs;
use cohort_os::frame::FrameAllocator;
use cohort_os::CohortDriver;
use cohort_queue::QueueLayout;
use cohort_sim::component::TileCoord;
use cohort_sim::config::SocConfig;
use cohort_sim::core::InOrderCore;
use cohort_sim::directory::Directory;
use cohort_sim::program::{Op, Program};
use cohort_sim::soc::Soc;

const ENGINE_MMIO: u64 = 0x1000_0000;

#[test]
fn two_processes_share_queues_around_an_engine() {
    let cfg = SocConfig::default();
    let mut soc = Soc::new(cfg.clone());
    let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
    let mut frames = FrameAllocator::new(0x8000_0000, 0x9000_0000);

    // Process A owns the queues.
    let mut space_a = AddressSpace::new(&mut frames, MapPolicy::Eager);
    let n = 64u32;
    let q_bytes = QueueLayout::standard(0, 8, n).region_bytes;
    let in_va = space_a.malloc(&mut soc.mem, &mut frames, q_bytes, 4096);
    let out_va = space_a.malloc(&mut soc.mem, &mut frames, q_bytes, 4096);
    let in_q = QueueLayout::standard(in_va, 8, n);
    let out_q = QueueLayout::standard(out_va, 8, n);

    // Process B maps the output queue's physical pages at its own VAs.
    let mut space_b = AddressSpace::new(&mut frames, MapPolicy::Eager);
    let out_vb = space_b.map_shared(&mut soc.mem, &mut frames, &space_a, out_va, q_bytes);
    let out_q_b = QueueLayout::standard(out_vb, 8, n);
    assert_ne!(out_vb, out_va, "distinct virtual views");
    assert_eq!(
        space_b.translate(&soc.mem, out_vb),
        space_a.translate(&soc.mem, out_va),
        "same physical page"
    );

    // Process A: register (engine translates through A's tables) and push.
    let driver = CohortDriver::new(ENGINE_MMIO, 7);
    let mut prog_a = driver.register_ops(
        space_a.root_pa(),
        &in_q.descriptor,
        &out_q.descriptor,
        None,
        64,
    );
    for i in 0..u64::from(n) {
        prog_a.push(Op::Store {
            va: in_q.descriptor.element_va(i),
            value: 0x1_0000 + i,
        });
    }
    prog_a.push(Op::Fence);
    prog_a.push(Op::Store {
        va: in_q.descriptor.write_index_va,
        value: u64::from(n),
    });

    // Process B: pop through its own mapping and release the read index.
    let mut prog_b = Program::new();
    for j in 0..u64::from(n) {
        prog_b.push(Op::WaitGe {
            va: out_q_b.descriptor.write_index_va,
            value: j + 1,
        });
        prog_b.push(Op::Load {
            va: out_q_b.descriptor.element_va(j),
            record: true,
        });
    }
    prog_b.push(Op::Store {
        va: out_q_b.descriptor.read_index_va,
        value: u64::from(n),
    });
    prog_b.push(Op::Fence);

    let mut core_a = InOrderCore::new(dir, &cfg, prog_a);
    core_a.set_translator(Box::new(space_a.translator()));
    let core_a = soc.add_component(TileCoord::new(0, 1), Box::new(core_a));
    let mut core_b = InOrderCore::new(dir, &cfg, prog_b);
    core_b.set_translator(Box::new(space_b.translator()));
    let core_b = soc.add_component(TileCoord::new(0, 2), Box::new(core_b));

    let engine = CohortEngine::new(dir, &cfg, ENGINE_MMIO, core_a, 7, Box::new(NullFifo::new()));
    let engine = soc.add_component(TileCoord::new(1, 0), Box::new(engine));
    soc.map_mmio(ENGINE_MMIO..ENGINE_MMIO + regs::BANK_BYTES, engine);

    let out = soc.run(10_000_000);
    assert!(out.quiescent, "stuck at cycle {}", out.cycle);
    let b = soc.component::<InOrderCore>(core_b).unwrap();
    let expect: Vec<u64> = (0..u64::from(n)).map(|i| 0x1_0000 + i).collect();
    assert_eq!(
        b.recorded(),
        &expect[..],
        "process B sees A's data via the engine"
    );
    let a = soc.component::<InOrderCore>(core_a).unwrap();
    assert!(a.is_done());
}
