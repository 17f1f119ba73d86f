//! Behavioural tests of the MAPLE baseline unit: blocking MMIO push/pop,
//! CSR configuration, and coherent DMA transfers through its RISC-V MMU.

use cohort_accel::aes128::{Aes128, Aes128Accel};
use cohort_accel::nullfifo::NullFifo;
use cohort_accel::sha256::{sha256_raw_block, Sha256Accel};
use cohort_maple::{regs, MapleUnit};
use cohort_os::addrspace::{AddressSpace, MapPolicy};
use cohort_os::frame::FrameAllocator;
use cohort_sim::component::TileCoord;
use cohort_sim::config::{Lookahead, SocConfig};
use cohort_sim::core::InOrderCore;
use cohort_sim::directory::Directory;
use cohort_sim::faultinject::FOREVER;
use cohort_sim::program::{Op, Program};
use cohort_sim::soc::Soc;

const MAPLE_MMIO: u64 = 0x1100_0000;

struct Rig {
    soc: Soc,
    core: cohort_sim::component::CompId,
    space: AddressSpace,
    frames: FrameAllocator,
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
    let maple = MapleUnit::new(dir, &cfg, MAPLE_MMIO, accel);
    let maple = soc.add_component(TileCoord::new(1, 1), Box::new(maple));
    soc.map_mmio(MAPLE_MMIO..MAPLE_MMIO + regs::BANK_BYTES, maple);
    Rig {
        soc,
        core,
        space,
        frames,
    }
}

impl Rig {
    fn run_program(&mut self, p: Program) -> Vec<u64> {
        self.soc
            .component_mut::<InOrderCore>(self.core)
            .unwrap()
            .load_program(p);
        let out = self.soc.run(10_000_000);
        let core = self.soc.component::<InOrderCore>(self.core).unwrap();
        assert!(
            core.is_done(),
            "stuck: quiescent={} cycle={}",
            out.quiescent,
            out.cycle
        );
        core.recorded().to_vec()
    }
}

#[test]
fn mmio_push_pop_roundtrip() {
    let mut rig = rig(Box::new(NullFifo::new()));
    let mut p = Program::new();
    for i in 0..16u64 {
        p.push(Op::MmioStore {
            pa: MAPLE_MMIO + regs::PUSH,
            value: 0xf00d + i,
        });
        p.push(Op::MmioLoad {
            pa: MAPLE_MMIO + regs::POP,
            record: true,
        });
    }
    let got = rig.run_program(p);
    let expect: Vec<u64> = (0..16).map(|i| 0xf00d + i).collect();
    assert_eq!(got, expect);
}

#[test]
fn mmio_pop_blocks_until_compute_finishes() {
    let mut rig = rig(Box::new(Sha256Accel::new()));
    let mut p = Program::new();
    for i in 0..8u64 {
        p.push(Op::MmioStore {
            pa: MAPLE_MMIO + regs::PUSH,
            value: i,
        });
    }
    for _ in 0..4 {
        p.push(Op::MmioLoad {
            pa: MAPLE_MMIO + regs::POP,
            record: true,
        });
    }
    let got = rig.run_program(p);
    let mut block = [0u8; 64];
    for (i, chunk) in block.chunks_exact_mut(8).enumerate() {
        chunk.copy_from_slice(&(i as u64).to_le_bytes());
    }
    let expect: Vec<u64> = sha256_raw_block(&block)
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(got, expect);
    // The blocking pop must have stalled the core for the pipeline latency.
    let core = rig.soc.component::<InOrderCore>(rig.core).unwrap();
    assert!(core.core_counters().mmio_stall_cycles.get() as i64 >= 66);
}

#[test]
fn csr_configures_the_accelerator_over_mmio() {
    let key = *b"maple aes key 16";
    let mut rig = rig(Box::new(Aes128Accel::new()));
    let mut p = Program::new();
    for chunk in key.chunks_exact(8) {
        p.push(Op::MmioStore {
            pa: MAPLE_MMIO + regs::CSR_DATA,
            value: u64::from_le_bytes(chunk.try_into().unwrap()),
        });
    }
    p.push(Op::MmioStore {
        pa: MAPLE_MMIO + regs::CSR_COMMIT,
        value: 16,
    });
    let pt = [0x61u8; 16];
    for chunk in pt.chunks_exact(8) {
        p.push(Op::MmioStore {
            pa: MAPLE_MMIO + regs::PUSH,
            value: u64::from_le_bytes(chunk.try_into().unwrap()),
        });
    }
    p.push(Op::MmioLoad {
        pa: MAPLE_MMIO + regs::POP,
        record: true,
    });
    p.push(Op::MmioLoad {
        pa: MAPLE_MMIO + regs::POP,
        record: true,
    });
    let got = rig.run_program(p);
    let ct = Aes128::new(&key).encrypt_block(&pt);
    let expect: Vec<u64> = ct
        .chunks_exact(8)
        .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
        .collect();
    assert_eq!(got, expect);
}

#[test]
fn injected_stall_holds_a_blocking_push() {
    // The unit reads the SoC's fault switches, which it gets on joining
    // the SoC: a stall holds valid/ready low across the accelerator
    // interface, so the core's blocking push waits until it is lifted.
    let mut rig = rig(Box::new(NullFifo::new()));
    let maple = cohort_sim::component::CompId(2);
    let mut p = Program::new();
    p.push(Op::MmioStore {
        pa: MAPLE_MMIO + regs::PUSH,
        value: 1,
    });
    rig.soc
        .component_mut::<InOrderCore>(rig.core)
        .unwrap()
        .load_program(p);
    let pushes = |soc: &Soc| {
        let unit = soc.component::<MapleUnit>(maple).unwrap();
        unit.maple_counters().mmio_pushes.get()
    };
    rig.soc.fault_state().stall_maple(FOREVER);
    let out = rig.soc.run(10_000);
    assert!(!out.quiescent, "the push is held, not served");
    assert_eq!(pushes(&rig.soc), 0);
    let core = rig.soc.component::<InOrderCore>(rig.core).unwrap();
    assert!(!core.is_done());

    rig.soc.fault_state().stall_maple(0);
    let out = rig.soc.run(10_000);
    assert!(out.quiescent, "lifting the stall releases the push");
    assert_eq!(pushes(&rig.soc), 1);
    let core = rig.soc.component::<InOrderCore>(rig.core).unwrap();
    assert!(core.is_done());
}

#[test]
fn dma_transfer_through_mmu() {
    let mut rig = rig(Box::new(NullFifo::new()));
    let src = rig.space.malloc(&mut rig.soc.mem, &mut rig.frames, 256, 64);
    let dst = rig.space.malloc(&mut rig.soc.mem, &mut rig.frames, 256, 64);
    let root = rig.space.root_pa();
    let mut p = Program::new();
    p.push(Op::MmioStore {
        pa: MAPLE_MMIO + regs::DMA_PTROOT,
        value: root,
    });
    // The core stages source data through normal cached stores.
    for i in 0..32u64 {
        p.push(Op::Store {
            va: src + i * 8,
            value: 0xaa00 + i,
        });
    }
    p.push(Op::Fence);
    p.push(Op::MmioStore {
        pa: MAPLE_MMIO + regs::DMA_SRC,
        value: src,
    });
    p.push(Op::MmioStore {
        pa: MAPLE_MMIO + regs::DMA_DST,
        value: dst,
    });
    p.push(Op::MmioStore {
        pa: MAPLE_MMIO + regs::DMA_LEN,
        value: 256,
    });
    p.push(Op::MmioStore {
        pa: MAPLE_MMIO + regs::DMA_START,
        value: 1,
    });
    p.push(Op::MmioLoad {
        pa: MAPLE_MMIO + regs::DMA_DONE,
        record: true,
    });
    for i in 0..32u64 {
        p.push(Op::Load {
            va: dst + i * 8,
            record: true,
        });
    }
    let got = rig.run_program(p);
    assert_eq!(got[0], 256, "DONE reports output bytes");
    let expect: Vec<u64> = (0..32).map(|i| 0xaa00 + i).collect();
    assert_eq!(&got[1..], &expect[..]);
    let maple = rig
        .soc
        .component::<MapleUnit>(cohort_sim::component::CompId(2))
        .unwrap();
    assert_eq!(maple.maple_counters().dma_transfers.get(), 1);
    assert_eq!(maple.maple_counters().dma_in_bytes.get(), 256);
}

#[test]
fn back_to_back_dma_transfers() {
    let mut rig = rig(Box::new(Sha256Accel::new()));
    let src = rig.space.malloc(&mut rig.soc.mem, &mut rig.frames, 128, 64);
    let dst = rig.space.malloc(&mut rig.soc.mem, &mut rig.frames, 64, 64);
    let root = rig.space.root_pa();
    let mut p = Program::new();
    p.push(Op::MmioStore {
        pa: MAPLE_MMIO + regs::DMA_PTROOT,
        value: root,
    });
    for i in 0..16u64 {
        p.push(Op::Store {
            va: src + i * 8,
            value: i.wrapping_mul(0x1234_5678),
        });
    }
    p.push(Op::Fence);
    // Two 64-byte transfers = two SHA blocks, each a separate invocation.
    for b in 0..2u64 {
        p.push(Op::MmioStore {
            pa: MAPLE_MMIO + regs::DMA_SRC,
            value: src + b * 64,
        });
        p.push(Op::MmioStore {
            pa: MAPLE_MMIO + regs::DMA_DST,
            value: dst + b * 32,
        });
        p.push(Op::MmioStore {
            pa: MAPLE_MMIO + regs::DMA_LEN,
            value: 64,
        });
        p.push(Op::MmioStore {
            pa: MAPLE_MMIO + regs::DMA_START,
            value: 1,
        });
        p.push(Op::MmioLoad {
            pa: MAPLE_MMIO + regs::DMA_DONE,
            record: false,
        });
    }
    for j in 0..8u64 {
        p.push(Op::Load {
            va: dst + j * 8,
            record: true,
        });
    }
    let got = rig.run_program(p);
    let mut expect = Vec::new();
    for b in 0..2u64 {
        let mut block = [0u8; 64];
        for i in 0..8u64 {
            let w = (b * 8 + i).wrapping_mul(0x1234_5678);
            block[(i * 8) as usize..(i * 8 + 8) as usize].copy_from_slice(&w.to_le_bytes());
        }
        expect.extend(
            sha256_raw_block(&block)
                .chunks_exact(8)
                .map(|c| u64::from_le_bytes(c.try_into().unwrap())),
        );
    }
    assert_eq!(got, expect);
}

#[test]
fn reset_abandons_an_in_flight_dma_access() {
    // A DMA is started and reset while its first access is still walking
    // the page table; a fresh DMA then must see none of the abandoned
    // transfer's data.
    let mut rig = rig(Box::new(NullFifo::new()));
    let [old_src, old_dst, src, dst] = [(); 4].map(|_| {
        rig.space
            .malloc(&mut rig.soc.mem, &mut rig.frames, 256, 4096)
    });
    let mut p = Program::new();
    let mmio = |reg: u64, value: u64| Op::MmioStore {
        pa: MAPLE_MMIO + reg,
        value,
    };
    p.push(mmio(regs::DMA_PTROOT, rig.space.root_pa()));
    for (va, value) in [(old_src, 0xbb00), (src, 0xaa00)] {
        for i in 0..32u64 {
            p.push(Op::Store {
                va: va + i * 8,
                value: value + i,
            });
        }
    }
    p.push(Op::Fence);
    for (from, to) in [(old_src, old_dst), (src, dst)] {
        p.push(mmio(regs::DMA_SRC, from));
        p.push(mmio(regs::DMA_DST, to));
        p.push(mmio(regs::DMA_LEN, 256));
        p.push(mmio(regs::DMA_START, 1));
        if from == old_src {
            p.push(mmio(regs::RESET, 1));
        }
    }
    p.push(Op::MmioLoad {
        pa: MAPLE_MMIO + regs::DMA_DONE,
        record: true,
    });
    for i in 0..32u64 {
        p.push(Op::Load {
            va: dst + i * 8,
            record: true,
        });
    }
    let got = rig.run_program(p);
    assert_eq!(got[0], 256, "DONE reports the fresh transfer's bytes");
    let expect: Vec<u64> = (0..32).map(|i| 0xaa00 + i).collect();
    assert_eq!(&got[1..], &expect[..]);
    let maple = rig
        .soc
        .component::<MapleUnit>(cohort_sim::component::CompId(2))
        .unwrap();
    // Only the fresh transfer moved data: the reset access never landed.
    assert_eq!(maple.maple_counters().dma_in_bytes.get(), 256);
    assert_eq!(maple.maple_counters().dma_transfers.get(), 1);
}

/// Runs `program` under forced stepping and under `Auto`, asserts that
/// everything simulated is equal, and returns `(cycles, Auto slot-steps)`.
fn auto_matches_force1(
    accel: fn() -> Box<dyn cohort_accel::Accelerator>,
    program: impl Fn(&mut Rig) -> Program,
) -> (u64, u64) {
    let run = |lookahead: Lookahead| {
        let mut rig = rig_with(SocConfig::default().with_lookahead(lookahead), accel());
        let p = program(&mut rig);
        let recorded = rig.run_program(p);
        let steps = rig.soc.kernel_counter("kernel.slot_steps");
        ((rig.soc.cycle, recorded, rig.soc.stats_json()), steps)
    };
    let (f1, f1_steps) = run(Lookahead::Force1);
    let (auto, auto_steps) = run(Lookahead::Auto);
    assert_eq!(f1, auto);
    assert_eq!(f1_steps, 3 * auto.0, "force-1 steps three slots a cycle");
    (auto.0, auto_steps)
}

#[test]
fn mmio_run_sleeps_through_compute_and_matches_forced_stepping() {
    // Eight SHA blocks pushed and popped over MMIO: with no request held
    // nobody can take a buffered digest word, and a held pop waits for
    // the retire — the unit acts only when a message or that timer says.
    let (cycles, steps) = auto_matches_force1(
        || Box::new(Sha256Accel::new()),
        |_| {
            let mut p = Program::new();
            for b in 0..8u64 {
                for i in 0..8u64 {
                    p.push(Op::MmioStore {
                        pa: MAPLE_MMIO + regs::PUSH,
                        value: b * 8 + i,
                    });
                }
                p.push(Op::KernelCost {
                    cycles: 200,
                    insts: 1,
                });
                for _ in 0..4 {
                    p.push(Op::MmioLoad {
                        pa: MAPLE_MMIO + regs::POP,
                        record: true,
                    });
                }
            }
            p
        },
    );
    assert!(
        steps * 4 <= cycles,
        "{steps} slot-steps over {cycles} cycles"
    );
}

#[test]
fn dma_run_sleeps_while_back_pressured_and_matches_forced_stepping() {
    // A 16-block SHA transfer: the prefetch buffer fills in a few line
    // reads, then the DMA loop waits 66 cycles per block with a word
    // ready to feed and the accelerator not ready to take it.
    let (cycles, steps) = auto_matches_force1(
        || Box::new(Sha256Accel::new()),
        |rig| {
            let src = rig
                .space
                .malloc(&mut rig.soc.mem, &mut rig.frames, 1024, 64);
            let dst = rig.space.malloc(&mut rig.soc.mem, &mut rig.frames, 512, 64);
            let root = rig.space.root_pa();
            let mut p = Program::new();
            for i in 0..128u64 {
                p.push(Op::Store {
                    va: src + i * 8,
                    value: i.wrapping_mul(0x9e37_79b9),
                });
            }
            p.push(Op::Fence);
            for (reg, value) in [
                (regs::DMA_PTROOT, root),
                (regs::DMA_SRC, src),
                (regs::DMA_DST, dst),
                (regs::DMA_LEN, 1024),
                (regs::DMA_START, 1),
            ] {
                p.push(Op::MmioStore {
                    pa: MAPLE_MMIO + reg,
                    value,
                });
            }
            p.push(Op::MmioLoad {
                pa: MAPLE_MMIO + regs::DMA_DONE,
                record: true,
            });
            for j in 0..64u64 {
                p.push(Op::Load {
                    va: dst + j * 8,
                    record: true,
                });
            }
            p
        },
    );
    assert!(
        steps * 4 <= cycles,
        "{steps} slot-steps over {cycles} cycles"
    );
}
