//! Focused behavioural tests of the Cohort engine as a hardware component:
//! registration, CSR delivery, queue-coherent streaming, disable/flush, and
//! counter semantics — driven by hand-built core programs rather than the
//! full benchmark harness.

use cohort_accel::nullfifo::NullFifo;
use cohort_accel::sha256::{sha256_raw_block, Sha256Accel};
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
use cohort_sim::faultinject::FOREVER;
use cohort_sim::mem::MemAccess;
use cohort_sim::os::{Os, Trap};
use cohort_sim::program::{Op, Program};
use cohort_sim::soc::Soc;

const ENGINE_MMIO: u64 = 0x1000_0000;
const IRQ: u32 = 7;

struct Rig {
    soc: Soc,
    core: cohort_sim::component::CompId,
    engine: cohort_sim::component::CompId,
    space: AddressSpace,
    frames: FrameAllocator,
    driver: CohortDriver,
}

fn rig(accel: Box<dyn cohort_accel::Accelerator>) -> Rig {
    rig_with(SocConfig::default(), accel)
}

fn rig_with(cfg: SocConfig, accel: Box<dyn cohort_accel::Accelerator>) -> Rig {
    let mut soc = Soc::new(cfg.clone());
    let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
    let mut frames = FrameAllocator::new(0x8000_0000, 0x9000_0000);
    let space = AddressSpace::new(&mut frames, MapPolicy::Eager);
    let mut core = InOrderCore::new(dir, &cfg, Program::new());
    core.set_translator(Box::new(space.translator()));
    let core = soc.add_component(TileCoord::new(0, 1), Box::new(core));
    let engine = CohortEngine::new(dir, &cfg, ENGINE_MMIO, core, IRQ, accel);
    let engine = soc.add_component(TileCoord::new(1, 0), Box::new(engine));
    soc.map_mmio(ENGINE_MMIO..ENGINE_MMIO + regs::BANK_BYTES, engine);
    Rig {
        soc,
        core,
        engine,
        space,
        frames,
        driver: CohortDriver::new(ENGINE_MMIO, IRQ),
    }
}

impl Rig {
    fn alloc_queue(&mut self, elem: u32, len: u32) -> QueueLayout {
        let bytes = QueueLayout::standard(0, elem, len).region_bytes;
        let va = self
            .space
            .malloc(&mut self.soc.mem, &mut self.frames, bytes, 64);
        QueueLayout::standard(va, elem, len)
    }

    fn load(&mut self, p: Program) {
        self.soc
            .component_mut::<InOrderCore>(self.core)
            .unwrap()
            .load_program(p);
    }

    fn run(&mut self) {
        let out = self.soc.run(10_000_000);
        let core = self.soc.component::<InOrderCore>(self.core).unwrap();
        assert!(
            core.is_done(),
            "program stuck: quiescent={} cycle={}",
            out.quiescent,
            out.cycle
        );
    }

    fn engine_counter(&self, name: &str) -> u64 {
        let e = self.soc.component::<CohortEngine>(self.engine).unwrap();
        match name {
            "consumed" => e.engine_counters().consumed.get(),
            "produced" => e.engine_counters().produced.get(),
            "rcm" => e.engine_counters().rcm_invalidations.get(),
            "tlb_flushes" => e.mmu_counters().flushes.get(),
            "tlb_misses" => e.mmu_counters().misses.get(),
            "backoffs" => e.engine_counters().backoffs.get(),
            "watchdog_trips" => e.engine_counters().watchdog_trips.get(),
            "error_irqs" => e.engine_counters().error_irqs.get(),
            "resumes" => e.engine_counters().resumes.get(),
            other => panic!("unknown counter {other}"),
        }
    }

    fn error_status(&self) -> u64 {
        self.soc
            .component::<CohortEngine>(self.engine)
            .unwrap()
            .error_status()
    }

    /// Absorbs the engine's error IRQ without kernel-side action, so tests
    /// can inspect the halted engine directly.
    fn install_noop_error_handler(&mut self) {
        self.soc.set_os(Box::new(AbsorbErrors));
    }
}

/// A kernel whose only action is to take the engine's error IRQ and do
/// nothing about it.
struct AbsorbErrors;

impl Os for AbsorbErrors {
    fn interrupt(&mut self, _: &mut dyn MemAccess, irq: u32, _: u64, _: u64) -> Option<Trap> {
        (irq == IRQ + regs::ERROR_IRQ_OFFSET).then(|| Trap {
            cycles: 10,
            insts: 5,
            writes: Vec::new(),
        })
    }
}

/// The driver's register-programming sequence, but with one register
/// overridden — the hand-rolled path for feeding the engine a descriptor
/// the (validating) driver would refuse to write.
fn raw_register_program(
    root: u64,
    in_q: &QueueLayout,
    out_q: &QueueLayout,
    override_reg: (u64, u64),
) -> Program {
    let i = &in_q.descriptor;
    let o = &out_q.descriptor;
    let mut p = Program::new();
    for (off, value) in [
        (regs::IN_WR_VA, i.write_index_va),
        (regs::IN_RD_VA, i.read_index_va),
        (regs::IN_BASE_VA, i.base_va),
        (regs::IN_ELEM, u64::from(i.element_bytes)),
        (regs::IN_LEN, u64::from(i.length)),
        (regs::OUT_WR_VA, o.write_index_va),
        (regs::OUT_RD_VA, o.read_index_va),
        (regs::OUT_BASE_VA, o.base_va),
        (regs::OUT_ELEM, u64::from(o.element_bytes)),
        (regs::OUT_LEN, u64::from(o.length)),
        (regs::PT_ROOT_PA, root),
        (regs::BACKOFF, 32),
        (regs::ENABLE, 1),
    ] {
        let value = if off == override_reg.0 {
            override_reg.1
        } else {
            value
        };
        p.push(Op::MmioStore {
            pa: ENGINE_MMIO + off,
            value,
        });
    }
    p
}

fn stream_program(
    driver: &CohortDriver,
    root: u64,
    in_q: &QueueLayout,
    out_q: &QueueLayout,
    words: &[u64],
    out_words: u64,
) -> Program {
    let mut p = driver.register_ops(root, &in_q.descriptor, &out_q.descriptor, None, 32);
    p.append(stream_ops(in_q, out_q, words, out_words));
    p.append(driver.unregister_ops());
    p
}

/// Feeds `words` to an enabled engine and records `out_words` results.
fn stream_ops(in_q: &QueueLayout, out_q: &QueueLayout, words: &[u64], out_words: u64) -> Program {
    let mut p = Program::new();
    for (i, &w) in words.iter().enumerate() {
        p.push(Op::Store {
            va: in_q.descriptor.element_va(i as u64),
            value: w,
        });
    }
    p.push(Op::Fence);
    p.push(Op::Store {
        va: in_q.descriptor.write_index_va,
        value: words.len() as u64,
    });
    for j in 0..out_words {
        p.push(Op::WaitGe {
            va: out_q.descriptor.write_index_va,
            value: j + 1,
        });
        p.push(Op::Load {
            va: out_q.descriptor.element_va(j),
            record: true,
        });
    }
    p.push(Op::Store {
        va: out_q.descriptor.read_index_va,
        value: out_words,
    });
    p.push(Op::Fence);
    p
}

#[test]
fn null_accelerator_streams_words_in_order() {
    let mut rig = rig(Box::new(NullFifo::new()));
    let in_q = rig.alloc_queue(8, 32);
    let out_q = rig.alloc_queue(8, 32);
    let words: Vec<u64> = (100..132).collect();
    let root = rig.space.root_pa();
    let p = stream_program(&rig.driver, root, &in_q, &out_q, &words, 32);
    rig.load(p);
    rig.run();
    let core = rig.soc.component::<InOrderCore>(rig.core).unwrap();
    assert_eq!(core.recorded(), &words[..]);
    assert_eq!(rig.engine_counter("consumed"), 32);
    assert_eq!(rig.engine_counter("produced"), 32);
}

/// `SPILL_PA` points into guest memory, so the two counts the enable
/// sequence reads there are outside input. Counts whose sum wraps are not
/// a spill image: the enable must ignore them, not restore 2^64 words.
#[test]
fn garbage_spill_image_is_ignored_on_enable() {
    let mut rig = rig(Box::new(NullFifo::new()));
    let in_q = rig.alloc_queue(8, 8);
    let out_q = rig.alloc_queue(8, 8);
    let spill_pa = rig.frames.alloc();
    rig.soc.mem.write_u64(spill_pa, u64::MAX);
    rig.soc.mem.write_u64(spill_pa + 8, 2);
    let words = [11, 22, 33, 44];
    let root = rig.space.root_pa();
    let mut p = rig.driver.spill_ops(spill_pa);
    p.append(stream_program(&rig.driver, root, &in_q, &out_q, &words, 4));
    rig.load(p);
    rig.run();
    let core = rig.soc.component::<InOrderCore>(rig.core).unwrap();
    assert_eq!(core.recorded(), &words[..]);
    assert_eq!(rig.engine_counter("consumed"), 4);
    assert_eq!(rig.engine_counter("produced"), 4);
}

#[test]
fn sha_engine_digest_is_correct() {
    let mut rig = rig(Box::new(Sha256Accel::new()));
    let in_q = rig.alloc_queue(8, 8);
    let out_q = rig.alloc_queue(8, 4);
    let words: Vec<u64> = (0..8u64).map(|i| i * 0x0101_0101).collect();
    let root = rig.space.root_pa();
    let p = stream_program(&rig.driver, root, &in_q, &out_q, &words, 4);
    rig.load(p);
    rig.run();
    let mut block = [0u8; 64];
    for (i, w) in words.iter().enumerate() {
        block[i * 8..i * 8 + 8].copy_from_slice(&w.to_le_bytes());
    }
    let expect: Vec<u64> = sha256_raw_block(&block)
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    let core = rig.soc.component::<InOrderCore>(rig.core).unwrap();
    assert_eq!(core.recorded(), &expect[..]);
}

#[test]
fn csr_is_delivered_before_data() {
    // Null FIFO accepts any CSR; the point is that a CSR read happens and
    // the stream still works.
    let mut rig = rig(Box::new(NullFifo::new()));
    let in_q = rig.alloc_queue(8, 8);
    let out_q = rig.alloc_queue(8, 8);
    let csr_va = rig.space.malloc(&mut rig.soc.mem, &mut rig.frames, 16, 64);
    let pa = rig.space.translate(&rig.soc.mem, csr_va).unwrap();
    rig.soc.mem.write_bytes(pa, b"sixteen byte cfg");
    let root = rig.space.root_pa();
    let mut p = rig.driver.register_ops(
        root,
        &in_q.descriptor,
        &out_q.descriptor,
        Some((csr_va, 16)),
        32,
    );
    for i in 0..8u64 {
        p.push(Op::Store {
            va: in_q.descriptor.element_va(i),
            value: i,
        });
    }
    p.push(Op::Fence);
    p.push(Op::Store {
        va: in_q.descriptor.write_index_va,
        value: 8,
    });
    p.push(Op::WaitGe {
        va: out_q.descriptor.write_index_va,
        value: 8,
    });
    p.append(rig.driver.unregister_ops());
    rig.load(p);
    rig.run();
    assert_eq!(rig.engine_counter("produced"), 8);
}

#[test]
fn wraparound_ring_reuses_slots() {
    // Push 3 rounds through a tiny 8-deep ring: indices wrap twice.
    let mut rig = rig(Box::new(NullFifo::new()));
    let in_q = rig.alloc_queue(8, 8);
    let out_q = rig.alloc_queue(8, 8);
    let root = rig.space.root_pa();
    let mut p = rig
        .driver
        .register_ops(root, &in_q.descriptor, &out_q.descriptor, None, 32);
    let mut expect = Vec::new();
    for round in 0..3u64 {
        for i in 0..8u64 {
            let idx = round * 8 + i;
            let value = 0xbeef_0000 + idx;
            expect.push(value);
            p.push(Op::Store {
                va: in_q.descriptor.element_va(idx),
                value,
            });
        }
        p.push(Op::Fence);
        p.push(Op::Store {
            va: in_q.descriptor.write_index_va,
            value: (round + 1) * 8,
        });
        for j in 0..8u64 {
            let idx = round * 8 + j;
            p.push(Op::WaitGe {
                va: out_q.descriptor.write_index_va,
                value: idx + 1,
            });
            p.push(Op::Load {
                va: out_q.descriptor.element_va(idx),
                record: true,
            });
        }
        p.push(Op::Store {
            va: out_q.descriptor.read_index_va,
            value: (round + 1) * 8,
        });
        p.push(Op::Fence);
    }
    p.append(rig.driver.unregister_ops());
    rig.load(p);
    rig.run();
    let core = rig.soc.component::<InOrderCore>(rig.core).unwrap();
    assert_eq!(core.recorded(), &expect[..]);
    assert_eq!(rig.engine_counter("consumed"), 24);
}

#[test]
fn tlb_flush_mid_stream_is_transparent() {
    let mut rig = rig(Box::new(NullFifo::new()));
    let in_q = rig.alloc_queue(8, 16);
    let out_q = rig.alloc_queue(8, 16);
    let root = rig.space.root_pa();
    let mut p = rig
        .driver
        .register_ops(root, &in_q.descriptor, &out_q.descriptor, None, 32);
    for i in 0..8u64 {
        p.push(Op::Store {
            va: in_q.descriptor.element_va(i),
            value: i,
        });
    }
    p.push(Op::Fence);
    p.push(Op::Store {
        va: in_q.descriptor.write_index_va,
        value: 8,
    });
    p.push(Op::WaitGe {
        va: out_q.descriptor.write_index_va,
        value: 8,
    });
    // MMU-notifier shootdown between the two halves.
    p.append(rig.driver.tlb_flush_ops());
    for i in 8..16u64 {
        p.push(Op::Store {
            va: in_q.descriptor.element_va(i),
            value: i,
        });
    }
    p.push(Op::Fence);
    p.push(Op::Store {
        va: in_q.descriptor.write_index_va,
        value: 16,
    });
    p.push(Op::WaitGe {
        va: out_q.descriptor.write_index_va,
        value: 16,
    });
    for j in 0..16u64 {
        p.push(Op::Load {
            va: out_q.descriptor.element_va(j),
            record: true,
        });
    }
    p.append(rig.driver.unregister_ops());
    rig.load(p);
    rig.run();
    let core = rig.soc.component::<InOrderCore>(rig.core).unwrap();
    let expect: Vec<u64> = (0..16).collect();
    assert_eq!(core.recorded(), &expect[..]);
    assert!(rig.engine_counter("tlb_flushes") >= 1);
    // The flush forces fresh walks afterwards.
    assert!(rig.engine_counter("tlb_misses") >= 2);
}

#[test]
fn disable_then_reenable_runs_again() {
    let mut rig = rig(Box::new(NullFifo::new()));
    let in_q = rig.alloc_queue(8, 8);
    let out_q = rig.alloc_queue(8, 8);
    let root = rig.space.root_pa();
    // First session.
    let mut p = rig
        .driver
        .register_ops(root, &in_q.descriptor, &out_q.descriptor, None, 32);
    for i in 0..4u64 {
        p.push(Op::Store {
            va: in_q.descriptor.element_va(i),
            value: i + 1,
        });
    }
    p.push(Op::Fence);
    p.push(Op::Store {
        va: in_q.descriptor.write_index_va,
        value: 4,
    });
    p.push(Op::WaitGe {
        va: out_q.descriptor.write_index_va,
        value: 4,
    });
    p.append(rig.driver.unregister_ops());
    // Second session on fresh queues.
    let in2 = rig.alloc_queue(8, 8);
    let out2 = rig.alloc_queue(8, 8);
    let mut p2 = rig
        .driver
        .register_ops(root, &in2.descriptor, &out2.descriptor, None, 32);
    for i in 0..4u64 {
        p2.push(Op::Store {
            va: in2.descriptor.element_va(i),
            value: i + 100,
        });
    }
    p2.push(Op::Fence);
    p2.push(Op::Store {
        va: in2.descriptor.write_index_va,
        value: 4,
    });
    p2.push(Op::WaitGe {
        va: out2.descriptor.write_index_va,
        value: 4,
    });
    for j in 0..4u64 {
        p2.push(Op::Load {
            va: out2.descriptor.element_va(j),
            record: true,
        });
    }
    p2.append(rig.driver.unregister_ops());
    p.append(p2);
    rig.load(p);
    rig.run();
    let core = rig.soc.component::<InOrderCore>(rig.core).unwrap();
    assert_eq!(core.recorded(), &[100, 101, 102, 103]);
    assert_eq!(rig.engine_counter("consumed"), 8, "both sessions consumed");
}

#[test]
fn engine_reports_status_over_mmio() {
    let mut rig = rig(Box::new(NullFifo::new()));
    let in_q = rig.alloc_queue(8, 8);
    let out_q = rig.alloc_queue(8, 8);
    let root = rig.space.root_pa();
    let mut p = rig
        .driver
        .register_ops(root, &in_q.descriptor, &out_q.descriptor, None, 32);
    for i in 0..8u64 {
        p.push(Op::Store {
            va: in_q.descriptor.element_va(i),
            value: i,
        });
    }
    p.push(Op::Fence);
    p.push(Op::Store {
        va: in_q.descriptor.write_index_va,
        value: 8,
    });
    p.push(Op::WaitGe {
        va: out_q.descriptor.write_index_va,
        value: 8,
    });
    p.push(Op::MmioLoad {
        pa: ENGINE_MMIO + regs::CONSUMED,
        record: true,
    });
    p.push(Op::MmioLoad {
        pa: ENGINE_MMIO + regs::PRODUCED,
        record: true,
    });
    p.append(rig.driver.unregister_ops());
    rig.load(p);
    rig.run();
    let core = rig.soc.component::<InOrderCore>(rig.core).unwrap();
    assert_eq!(core.recorded(), &[8, 8]);
}

#[test]
fn bad_descriptor_sets_sticky_error_instead_of_panicking() {
    let mut rig = rig(Box::new(NullFifo::new()));
    let in_q = rig.alloc_queue(8, 8);
    let out_q = rig.alloc_queue(8, 8);
    rig.install_noop_error_handler();
    let root = rig.space.root_pa();
    // A length of 48 is not a power of two: the engine must refuse it at
    // configure time, halt, and latch the sticky bit — never touch memory.
    let mut p = raw_register_program(root, &in_q, &out_q, (regs::IN_LEN, 48));
    p.push(Op::MmioLoad {
        pa: ENGINE_MMIO + regs::ERROR_STATUS,
        record: true,
    });
    rig.load(p);
    rig.run();
    let core = rig.soc.component::<InOrderCore>(rig.core).unwrap();
    assert_eq!(core.recorded(), &[regs::ERR_BAD_DESCRIPTOR]);
    assert_eq!(rig.engine_counter("error_irqs"), 1);
    assert_eq!(
        rig.engine_counter("consumed"),
        0,
        "no memory traffic on a bad config"
    );
}

#[test]
fn error_status_write_resumes_engine_after_software_fix() {
    let mut rig = rig(Box::new(NullFifo::new()));
    let in_q = rig.alloc_queue(8, 8);
    let out_q = rig.alloc_queue(8, 8);
    rig.install_noop_error_handler();
    let root = rig.space.root_pa();
    // Enable with a broken input length: engine halts with the sticky bit.
    let mut p = raw_register_program(root, &in_q, &out_q, (regs::IN_LEN, 48));
    // Kernel repair path: fix the register, then clear ERROR_STATUS. The
    // clear re-runs the enable sequence against in-memory queue state.
    p.push(Op::MmioStore {
        pa: ENGINE_MMIO + regs::IN_LEN,
        value: 8,
    });
    p.push(Op::MmioStore {
        pa: ENGINE_MMIO + regs::ERROR_STATUS,
        value: 0,
    });
    for i in 0..4u64 {
        p.push(Op::Store {
            va: in_q.descriptor.element_va(i),
            value: i + 1,
        });
    }
    p.push(Op::Fence);
    p.push(Op::Store {
        va: in_q.descriptor.write_index_va,
        value: 4,
    });
    p.push(Op::WaitGe {
        va: out_q.descriptor.write_index_va,
        value: 4,
    });
    for j in 0..4u64 {
        p.push(Op::Load {
            va: out_q.descriptor.element_va(j),
            record: true,
        });
    }
    p.push(Op::MmioLoad {
        pa: ENGINE_MMIO + regs::ERROR_STATUS,
        record: true,
    });
    p.append(rig.driver.unregister_ops());
    rig.load(p);
    rig.run();
    let core = rig.soc.component::<InOrderCore>(rig.core).unwrap();
    assert_eq!(
        core.recorded(),
        &[1, 2, 3, 4, 0],
        "stream works after resume, status clear"
    );
    assert_eq!(rig.engine_counter("resumes"), 1);
}

/// An abort leaves the aborted channels' tokens joined on the line their
/// port is still waiting for, and the restarted channels join it again.
/// With a 20 000-cycle DRAM fill, all four abort/restart rounds land
/// before the first page-walk read is granted. Both channels' walks wait
/// on the root page-table line, so if each round added its two tokens the
/// second restart would pass the port's `MAX_JOINED`; the stream must
/// instead run once the grant arrives.
#[test]
fn restarts_while_a_walk_read_is_in_flight_rejoin_its_line() {
    let mut cfg = SocConfig::default();
    cfg.timing.dram = 20_000;
    let mut rig = rig_with(cfg, Box::new(NullFifo::new()));
    let in_q = rig.alloc_queue(8, 8);
    let out_q = rig.alloc_queue(8, 8);
    rig.install_noop_error_handler();
    let root = rig.space.root_pa();
    let mut p = rig
        .driver
        .register_ops(root, &in_q.descriptor, &out_q.descriptor, None, 32);
    for _ in 0..4 {
        // Rewriting a descriptor register of a running engine aborts it;
        // clearing the error re-runs the enable sequence.
        p.push(Op::MmioStore {
            pa: ENGINE_MMIO + regs::IN_LEN,
            value: 8,
        });
        p.push(Op::MmioStore {
            pa: ENGINE_MMIO + regs::ERROR_STATUS,
            value: 0,
        });
    }
    let words = [5, 6, 7, 8];
    p.append(stream_ops(&in_q, &out_q, &words, 4));
    p.append(rig.driver.unregister_ops());
    rig.load(p);
    rig.run();
    let core = rig.soc.component::<InOrderCore>(rig.core).unwrap();
    assert_eq!(core.recorded(), &words[..]);
    assert_eq!(rig.engine_counter("resumes"), 4);
    assert_eq!(rig.engine_counter("error_irqs"), 4);
}

#[test]
fn watchdog_trips_on_stalled_accelerator() {
    let mut rig = rig(Box::new(NullFifo::new()));
    let in_q = rig.alloc_queue(8, 8);
    let out_q = rig.alloc_queue(8, 8);
    rig.install_noop_error_handler();
    // Wedge the accelerator for the whole run.
    rig.soc.fault_state().stall_accel(FOREVER);
    let root = rig.space.root_pa();
    let mut p = rig
        .driver
        .register_ops(root, &in_q.descriptor, &out_q.descriptor, None, 32);
    p.append(rig.driver.watchdog_ops(3_000));
    for i in 0..8u64 {
        p.push(Op::Store {
            va: in_q.descriptor.element_va(i),
            value: i,
        });
    }
    p.push(Op::Fence);
    p.push(Op::Store {
        va: in_q.descriptor.write_index_va,
        value: 8,
    });
    // No WaitGe: the output never comes. The watchdog must detect the
    // wedge, halt the engine and let the SoC quiesce — no deadlock.
    rig.load(p);
    rig.run();
    assert_eq!(rig.engine_counter("watchdog_trips"), 1);
    assert_ne!(
        rig.error_status() & regs::ERR_WATCHDOG_CONS,
        0,
        "consumer flagged"
    );
    assert_eq!(rig.engine_counter("error_irqs"), 1);
}

#[test]
fn kill_landing_on_a_sleeping_engine_matches_forced_stepping() {
    // The engine streams four words and then idles, enabled, with both
    // endpoints in benign waits — under `Auto` it is asleep when the kill
    // lands at cycle 12 000. The books it closes for the cycles it slept
    // (occupancy samples, the benign watchdog restarts) must be settled
    // against the pre-kill switches, so that the dead-man's handle trips
    // one budget after the kill exactly as if it had been stepped all
    // along.
    use cohort_sim::config::Lookahead;
    use cohort_sim::faultinject::{FaultInjector, FaultKind, FaultPlan};
    let run = |lookahead: Lookahead| {
        let cfg = SocConfig::default().with_lookahead(lookahead);
        let mut rig = rig_with(cfg, Box::new(NullFifo::new()));
        let plan = FaultPlan::default().at(12_000, FaultKind::KillEngine { engine: 0 });
        let faults = rig.soc.fault_state().clone();
        rig.soc.add_component(
            TileCoord::new(1, 1),
            Box::new(FaultInjector::new(&plan, faults)),
        );
        rig.install_noop_error_handler();
        let in_q = rig.alloc_queue(8, 8);
        let out_q = rig.alloc_queue(8, 8);
        let root = rig.space.root_pa();
        let mut p = rig
            .driver
            .register_ops(root, &in_q.descriptor, &out_q.descriptor, None, 32);
        p.append(rig.driver.watchdog_ops(3_000));
        for i in 0..4u64 {
            p.push(Op::Store {
                va: in_q.descriptor.element_va(i),
                value: i,
            });
        }
        p.push(Op::Fence);
        p.push(Op::Store {
            va: in_q.descriptor.write_index_va,
            value: 4,
        });
        p.push(Op::WaitGe {
            va: out_q.descriptor.write_index_va,
            value: 4,
        });
        // Outlive the kill and the watchdog budget behind it.
        p.push(Op::Alu(30_000));
        rig.load(p);
        rig.run();
        assert_eq!(rig.engine_counter("produced"), 4);
        assert_eq!(rig.engine_counter("watchdog_trips"), 1);
        assert_ne!(rig.error_status() & regs::ERR_ENGINE_DEAD, 0);
        let sleeps = rig.soc.kernel_counter("kernel.slot_sleeps");
        (rig.soc.cycle, rig.soc.stats_json(), sleeps)
    };
    let (f1_cycle, f1_stats, _) = run(Lookahead::Force1);
    let (auto_cycle, auto_stats, sleeps) = run(Lookahead::Auto);
    assert_eq!(f1_cycle, auto_cycle);
    assert_eq!(f1_stats, auto_stats);
    assert!(sleeps > 0);
    // Detected one budget (+1) after the first dead cycle, 12 001.
    assert!(
        f1_stats.contains("\"engine#0.failover_detect\": {\"count\": 1, \"sum\": 3000,"),
        "{f1_stats}"
    );
}

#[test]
fn kill_inside_a_one_cycle_sleep_matches_forced_stepping() {
    // A hint of exactly 1 puts the engine to sleep for one cycle. With a
    // base back-off window of 2 every publication the engine hears of
    // ends in one (enter `Backoff` at c, sleep c + 1, re-read at c + 2),
    // and a kill three cycles before a wedged consumer's watchdog trip
    // makes another (latch the fail-stop at trip - 2, sleep, trip). The
    // kill is placed on the cycle before and on the very cycle of every
    // one-cycle sleep forced stepping can point at, and on every cycle
    // around the trip: the slept cycle's occupancy samples must be taken
    // against the pre-kill switches and the wake-up must land where
    // forced stepping acts. (`AccessHit` never hints 1 here: the engine's
    // port answers a hit on the next cycle, so its hint is 0 at every
    // step. Nor can a one-cycle sleep hide a benign endpoint's watchdog
    // restart: the other endpoint's timer was running and trips first.)
    use cohort_sim::component::Component as _;
    use cohort_sim::config::Lookahead;
    use cohort_sim::faultinject::{FaultInjector, FaultKind, FaultPlan};
    let build = |lookahead: Lookahead, wedged: bool, kill_at: Option<u64>| {
        let cfg = SocConfig::default().with_lookahead(lookahead);
        let mut rig = rig_with(cfg, Box::new(NullFifo::new()));
        if let Some(at) = kill_at {
            let plan = FaultPlan::default().at(at, FaultKind::KillEngine { engine: 0 });
            let faults = rig.soc.fault_state().clone();
            rig.soc.add_component(
                TileCoord::new(1, 1),
                Box::new(FaultInjector::new(&plan, faults)),
            );
        }
        if wedged {
            rig.soc.fault_state().stall_accel(FOREVER);
        }
        rig.install_noop_error_handler();
        let in_q = rig.alloc_queue(8, 8);
        let out_q = rig.alloc_queue(8, 8);
        let root = rig.space.root_pa();
        let mut p = rig
            .driver
            .register_ops(root, &in_q.descriptor, &out_q.descriptor, None, 2);
        p.append(rig.driver.watchdog_ops(300));
        // One publication per word, spaced so that each finds the engine
        // waiting and sends it through a back-off of its own.
        for i in 0..8u64 {
            p.push(Op::Store {
                va: in_q.descriptor.element_va(i),
                value: i,
            });
            p.push(Op::Fence);
            p.push(Op::Store {
                va: in_q.descriptor.write_index_va,
                value: i + 1,
            });
            p.push(Op::Alu(150));
        }
        // Outlive the kill and the watchdog budget behind it.
        p.push(Op::Alu(1_000));
        rig.load(p);
        rig
    };
    // Scout under forced stepping, one cycle per `run`: the cycles the
    // engine would sleep through on a hint of exactly 1 while it streams,
    // and the cycle its watchdog trips.
    let scout = |wedged: bool| {
        let mut rig = build(Lookahead::Force1, wedged, None);
        let (mut ones, mut trip) = (Vec::new(), None);
        while !rig.soc.run(1).quiescent {
            let e = rig.soc.component::<CohortEngine>(rig.engine).unwrap();
            let consumed = e.engine_counters().consumed.get();
            if (1..8).contains(&consumed) && e.quiescent_for(rig.soc.cycle) == 1 {
                ones.push(rig.soc.cycle);
            }
            if trip.is_none() && e.engine_counters().watchdog_trips.get() == 1 {
                trip = Some(rig.soc.cycle - 1);
            }
        }
        (ones, trip)
    };
    let (ones, no_trip) = scout(false);
    assert!(ones.len() >= 7, "a back-off per publication: {ones:?}");
    assert_eq!(no_trip, None, "the fault-free stream never trips");
    let trip = scout(true).1.expect("the wedged consumer trips");
    let run = |wedged: bool, kill_at: u64, lookahead: Lookahead| {
        let mut rig = build(lookahead, wedged, Some(kill_at));
        rig.run();
        assert_eq!(rig.engine_counter("watchdog_trips"), 1);
        (rig.soc.cycle, rig.soc.stats_json())
    };
    let around_sleeps = ones.iter().flat_map(|&c| [(false, c - 1), (false, c)]);
    let around_trip = (trip - 6..=trip + 1).map(|at| (true, at));
    for (wedged, kill_at) in around_sleeps.chain(around_trip) {
        assert_eq!(
            run(wedged, kill_at, Lookahead::Force1),
            run(wedged, kill_at, Lookahead::Auto),
            "kill at {kill_at} (wedged: {wedged}, sleeps {ones:?}, trip {trip})"
        );
    }
}

#[test]
fn producer_blocked_on_a_full_stage_sleeps_and_matches_forced_stepping() {
    // 256 words go through a one-cycle FIFO: the accelerator hands back a
    // word per cycle while the producer endpoint publishes one element
    // per coherent write, so its four-line stage fills and stays full
    // with a write in flight. Output buffered behind a full stage is no
    // event: the engine must sleep through those waits, and the per-cycle
    // occupancy samples it reconciles must equal forced stepping's.
    use cohort_sim::config::Lookahead;
    let run = |lookahead: Lookahead| {
        let cfg = SocConfig::default().with_lookahead(lookahead);
        let mut rig = rig_with(cfg, Box::new(NullFifo::new()));
        let in_q = rig.alloc_queue(8, 512);
        let out_q = rig.alloc_queue(8, 512);
        let root = rig.space.root_pa();
        let mut p = rig
            .driver
            .register_ops(root, &in_q.descriptor, &out_q.descriptor, None, 32);
        for i in 0..256u64 {
            p.push(Op::Store {
                va: in_q.descriptor.element_va(i),
                value: i,
            });
        }
        p.push(Op::Fence);
        p.push(Op::Store {
            va: in_q.descriptor.write_index_va,
            value: 256,
        });
        p.push(Op::WaitGe {
            va: out_q.descriptor.write_index_va,
            value: 256,
        });
        rig.load(p);
        rig.run();
        assert_eq!(rig.engine_counter("produced"), 256);
        (
            rig.soc.cycle,
            rig.soc.stats_json(),
            rig.soc.kernel_counter("kernel.silent_steps.engine"),
            rig.soc.kernel_counter("kernel.barrier_activations"),
        )
    };
    let (f1_cycle, f1_stats, _, f1_barriers) = run(Lookahead::Force1);
    let (auto_cycle, auto_stats, silent, barriers) = run(Lookahead::Auto);
    assert_eq!(f1_cycle, auto_cycle);
    assert_eq!(f1_stats, auto_stats);
    assert!(
        f1_stats.contains("\"engine#0.out_queue_occupancy\": {\"count\""),
        "{f1_stats}"
    );
    assert!(
        silent * 10 < barriers && barriers * 2 < f1_barriers,
        "the engine stepped silently on {silent} of {barriers} stepped cycles \
         ({f1_barriers} simulated)"
    );
}

#[test]
fn backoff_grows_exponentially_while_starved() {
    let mut rig = rig(Box::new(NullFifo::new()));
    let in_q = rig.alloc_queue(8, 8);
    let out_q = rig.alloc_queue(8, 8);
    let root = rig.space.root_pa();
    // Base window 16, then ~20k cycles with an empty input queue: a fixed
    // window would re-poll ~1200 times; the capped exponential window
    // (16 -> 256) stays far below that.
    let mut p = rig
        .driver
        .register_ops(root, &in_q.descriptor, &out_q.descriptor, None, 16);
    p.push(Op::Alu(1));
    p.push(Op::KernelCost {
        cycles: 20_000,
        insts: 10,
    });
    for i in 0..4u64 {
        p.push(Op::Store {
            va: in_q.descriptor.element_va(i),
            value: i + 7,
        });
    }
    p.push(Op::Fence);
    p.push(Op::Store {
        va: in_q.descriptor.write_index_va,
        value: 4,
    });
    p.push(Op::WaitGe {
        va: out_q.descriptor.write_index_va,
        value: 4,
    });
    for j in 0..4u64 {
        p.push(Op::Load {
            va: out_q.descriptor.element_va(j),
            record: true,
        });
    }
    p.append(rig.driver.unregister_ops());
    rig.load(p);
    rig.run();
    let core = rig.soc.component::<InOrderCore>(rig.core).unwrap();
    assert_eq!(
        core.recorded(),
        &[7, 8, 9, 10],
        "stream still correct after deep backoff"
    );
    let backoffs = rig.engine_counter("backoffs");
    assert!(backoffs > 0, "the starved engine must have backed off");
    assert!(
        backoffs < 600,
        "exponential growth: got {backoffs} polls, fixed would be ~1200"
    );
    assert!(
        rig.soc.stats_json().contains("backoff_window"),
        "window histogram registered in stats"
    );
}

/// Deterministic splitmix64 generator for the epoch property loops
/// (mirrors `tests/proptests.rs`: fixed seed, reproducible case set).
struct Rng(u64);

impl Rng {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }
}

#[test]
fn epoch_fence_rejects_every_stale_configure() {
    // Property: for ANY fence F and ANY binding epoch e < F, enabling the
    // engine latches ERR_STALE_EPOCH and the binding never runs — even
    // after a later attempt to lower the fence (it is monotonic). This is
    // the exactly-once half of queue migration: a stale engine waking
    // late can never republish indices for a migrated queue.
    let mut rng = Rng(0xEF0C_FE4C_E500_0001);
    for case in 0..64u32 {
        let fence = rng.range(2, 1 << 40);
        let stale = rng.range(0, fence);
        let rollback = rng.range(0, fence);
        let mut rig = rig(Box::new(NullFifo::new()));
        rig.install_noop_error_handler();
        let in_q = rig.alloc_queue(8, 16);
        let out_q = rig.alloc_queue(8, 16);
        let root = rig.space.root_pa();
        let mut p = Program::new();
        p.push(Op::MmioStore {
            pa: ENGINE_MMIO + regs::EPOCH_FENCE,
            value: fence,
        });
        // A smaller later write must not lower the fence.
        p.push(Op::MmioStore {
            pa: ENGINE_MMIO + regs::EPOCH_FENCE,
            value: rollback,
        });
        p.append(rig.driver.register_ops(
            root,
            &in_q.descriptor.with_epoch(stale),
            &out_q.descriptor.with_epoch(stale),
            None,
            32,
        ));
        p.append(rig.driver.unregister_ops());
        rig.load(p);
        rig.run();
        assert_ne!(
            rig.error_status() & regs::ERR_STALE_EPOCH,
            0,
            "case {case}: fence {fence}, stale epoch {stale} must be rejected"
        );
        assert_eq!(
            rig.engine_counter("consumed"),
            0,
            "a fenced-out binding must never run"
        );
    }
}

#[test]
fn epoch_at_or_above_fence_is_accepted() {
    // Dual property: any epoch >= the fence enables cleanly and streams.
    let mut rng = Rng(0xEF0C_ACCE_0000_0002);
    for case in 0..16u32 {
        let fence = rng.range(1, 1 << 40);
        let epoch = rng.range(fence, fence + (1 << 20));
        let mut rig = rig(Box::new(NullFifo::new()));
        let in_q = rig.alloc_queue(8, 16);
        let out_q = rig.alloc_queue(8, 16);
        let root = rig.space.root_pa();
        let mut p = Program::new();
        p.push(Op::MmioStore {
            pa: ENGINE_MMIO + regs::EPOCH_FENCE,
            value: fence,
        });
        p.append(rig.driver.register_ops(
            root,
            &in_q.descriptor.with_epoch(epoch),
            &out_q.descriptor.with_epoch(epoch),
            None,
            32,
        ));
        for i in 0..4u64 {
            p.push(Op::Store {
                va: in_q.descriptor.element_va(i),
                value: 50 + i,
            });
        }
        p.push(Op::Fence);
        p.push(Op::Store {
            va: in_q.descriptor.write_index_va,
            value: 4,
        });
        p.push(Op::WaitGe {
            va: out_q.descriptor.write_index_va,
            value: 4,
        });
        p.append(rig.driver.unregister_ops());
        rig.load(p);
        rig.run();
        assert_eq!(
            rig.error_status(),
            0,
            "case {case}: epoch {epoch} >= fence {fence} is valid"
        );
        assert_eq!(
            rig.engine_counter("consumed"),
            4,
            "the binding streams normally"
        );
    }
}
