//! Simulated SoC assembly: directory + cores + Cohort engines + MAPLE.
//!
//! Mirrors the paper's four-tile FPGA prototype (Fig. 2): Ariane cores and
//! accelerator tiles around a shared L2/directory, with the OS structures
//! (frames, address space, page tables) built in guest memory.

use cohort_engine::CohortEngine;
use cohort_maple::MapleUnit;
use cohort_os::addrspace::{AddressSpace, MapPolicy};
use cohort_os::driver::regs;
use cohort_os::frame::FrameAllocator;
use cohort_os::CohortDriver;
use cohort_queue::QueueLayout;
use cohort_sim::component::{CompId, TileCoord};
use cohort_sim::config::SocConfig;
use cohort_sim::core::InOrderCore;
use cohort_sim::directory::Directory;
use cohort_sim::faultinject::FaultInjector;
use cohort_sim::mem::MemAccess;
use cohort_sim::program::Program;
use cohort_sim::soc::Soc;

/// MMIO base of the first Cohort engine's register bank.
pub const ENGINE_MMIO_BASE: u64 = 0x1000_0000;
/// Stride between successive engines' register banks.
pub const ENGINE_MMIO_STRIDE: u64 = 0x1_0000;
/// MMIO base of the MAPLE unit's register bank.
pub const MAPLE_MMIO_BASE: u64 = 0x1100_0000;
/// Interrupt number of the first Cohort engine (engine `i` uses `IRQ + i`).
pub const COHORT_IRQ: u32 = 7;
/// Guest DRAM managed by the frame allocator.
pub const DRAM_BASE: u64 = 0x8000_0000;
/// End of guest DRAM.
pub const DRAM_END: u64 = 0xc000_0000;

/// A simulated Cohort SoC under construction / in operation.
pub struct SimSystem {
    /// The simulated SoC.
    pub soc: Soc,
    /// Directory/L2 component id.
    pub dir: CompId,
    /// The benchmark core's id.
    pub core: CompId,
    /// Cohort engine ids, in registration order.
    pub engines: Vec<CompId>,
    /// The MAPLE baseline unit, if built.
    pub maple: Option<CompId>,
    /// Additional (interference) cores.
    pub extra_cores: Vec<CompId>,
    /// The fault injector, when the config carries a non-empty plan.
    pub injector: Option<CompId>,
    /// Physical frame allocator (guest DRAM).
    pub frames: FrameAllocator,
    /// The benchmark process's address space.
    pub space: AddressSpace,
    /// Drivers, one per engine.
    pub drivers: Vec<CohortDriver>,
}

impl std::fmt::Debug for SimSystem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SimSystem")
            .field("engines", &self.engines.len())
            .field("maple", &self.maple.is_some())
            .finish()
    }
}

/// What accelerator-hosting hardware to instantiate.
#[derive(Default)]
pub struct SystemSpec {
    /// SoC configuration.
    pub cfg: SocConfig,
    /// Memory mapping policy for the benchmark process.
    pub policy: MapPolicy,
    /// Accelerators hosted behind Cohort engines (each gets its own tile,
    /// register bank and interrupt).
    pub engine_accels: Vec<Box<dyn cohort_accel::Accelerator>>,
    /// Accelerator hosted behind the MAPLE baseline unit, if any.
    pub maple_accel: Option<Box<dyn cohort_accel::Accelerator>>,
    /// Additional cores (the platform's second Ariane, used for
    /// interference studies and shard producers), built with empty
    /// programs that harnesses load later. They share the benchmark
    /// address space.
    pub extra_cores: usize,
}

impl SimSystem {
    /// Builds the SoC: directory at (0,0), the benchmark core at (0,1),
    /// Cohort engines at (1,0), (1,1), ... and MAPLE at (1,1) or beyond.
    /// Every core starts with an empty program
    /// ([`InOrderCore::load_program`] gives it one).
    pub fn build(spec: SystemSpec) -> Self {
        let SystemSpec {
            cfg,
            policy,
            engine_accels,
            maple_accel,
            extra_cores,
        } = spec;
        let mut soc = Soc::new(cfg.clone());
        let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));

        let mut frames = FrameAllocator::new(DRAM_BASE, DRAM_END);
        let space = AddressSpace::new(&mut frames, policy);

        let mut core_model = InOrderCore::new(dir, &cfg, Program::new());
        core_model.set_translator(Box::new(space.translator()));
        let core = soc.add_component(TileCoord::new(0, 1), Box::new(core_model));

        let mut engines = Vec::new();
        let mut drivers = Vec::new();
        for (i, accel) in engine_accels.into_iter().enumerate() {
            let mmio = ENGINE_MMIO_BASE + (i as u64) * ENGINE_MMIO_STRIDE;
            let irq = COHORT_IRQ + i as u32;
            let mut engine = CohortEngine::new(dir, &cfg, mmio, core, irq, accel);
            engine.set_engine_index(i as u64);
            let tile = TileCoord::new(1, i as u16);
            let id = soc.add_component(tile, Box::new(engine));
            soc.map_mmio(mmio..mmio + regs::BANK_BYTES, id);
            engines.push(id);
            drivers.push(CohortDriver::new(mmio, irq));
        }

        let extra_cores = (0..extra_cores)
            .map(|i| {
                let mut c = InOrderCore::new(dir, &cfg, Program::new());
                c.set_translator(Box::new(space.translator()));
                soc.add_component(TileCoord::new(0, 2 + i as u16), Box::new(c))
            })
            .collect();

        // Fault injector rides on its own tile so its MMIO pokes traverse
        // the NoC like any other agent's. Descriptor corruption targets
        // engine 0's IN_BASE_VA register with a misaligned garbage value —
        // the hardened engine must reject it, not wedge on it.
        let injector = (!cfg.faults.is_empty()).then(|| {
            let mut inj = FaultInjector::new(&cfg.faults, soc.fault_state().clone());
            inj.set_tlb_flush_pa(ENGINE_MMIO_BASE + regs::TLB_FLUSH);
            inj.set_corrupt_writes(vec![(ENGINE_MMIO_BASE + regs::IN_BASE_VA, 0x1234_5677)]);
            soc.add_component(TileCoord::new(2, 0), Box::new(inj))
        });

        let maple = maple_accel.map(|accel| {
            let unit = MapleUnit::new(dir, &cfg, MAPLE_MMIO_BASE, accel);
            let id = soc.add_component(TileCoord::new(1, 1), Box::new(unit));
            soc.map_mmio(
                MAPLE_MMIO_BASE..MAPLE_MMIO_BASE + cohort_maple::regs::BANK_BYTES,
                id,
            );
            id
        });

        Self {
            soc,
            dir,
            core,
            engines,
            maple,
            extra_cores,
            injector,
            frames,
            space,
            drivers,
        }
    }

    /// Allocates a standard-layout queue in the benchmark process's heap
    /// (cache-line aligned; `malloc`-style, paper §4.2.4). The requested
    /// length is rounded up to a power of two — the capacity the hardened
    /// engine's descriptor validation accepts.
    pub fn alloc_queue(&mut self, element_bytes: u32, length: u32) -> QueueLayout {
        let length = length.next_power_of_two();
        let bytes = QueueLayout::standard(0, element_bytes, length).region_bytes;
        let va = self
            .space
            .malloc(&mut self.soc.mem, &mut self.frames, bytes, 64);
        QueueLayout::standard(va, element_bytes, length)
    }

    /// Allocates a plain buffer in the heap, returning its VA.
    pub fn alloc_buffer(&mut self, bytes: u64, align: u64) -> u64 {
        self.space
            .malloc(&mut self.soc.mem, &mut self.frames, bytes, align)
    }

    /// Host-side write through the guest's page tables (used to prepare
    /// CSR buffers and reference data before the run).
    ///
    /// # Panics
    /// Panics if `va` is unmapped.
    pub fn write_guest(&mut self, va: u64, data: &[u8]) {
        // Writes may cross page boundaries; translate page by page.
        let mut off = 0usize;
        while off < data.len() {
            let cur = va + off as u64;
            let pa = self
                .space
                .translate(&self.soc.mem, cur)
                .unwrap_or_else(|| panic!("write_guest: unmapped va {cur:#x}"));
            let in_page = (4096 - (cur % 4096)) as usize;
            let n = in_page.min(data.len() - off);
            self.soc.mem.write_bytes(pa, &data[off..off + n]);
            off += n;
        }
    }

    /// Host-side read through the guest's page tables.
    ///
    /// # Panics
    /// Panics if `va` is unmapped.
    pub fn read_guest(&self, va: u64, len: usize) -> Vec<u8> {
        let mut out = vec![0u8; len];
        let mut off = 0usize;
        while off < len {
            let cur = va + off as u64;
            let pa = self
                .space
                .translate(&self.soc.mem, cur)
                .unwrap_or_else(|| panic!("read_guest: unmapped va {cur:#x}"));
            let in_page = (4096 - (cur % 4096)) as usize;
            let n = in_page.min(len - off);
            self.soc.mem.read_bytes(pa, &mut out[off..off + n]);
            off += n;
        }
        out
    }

    /// Immutable access to the benchmark core.
    pub fn core(&self) -> &InOrderCore {
        self.soc
            .component::<InOrderCore>(self.core)
            .expect("core present")
    }

    /// Immutable access to engine `i`.
    pub fn engine(&self, i: usize) -> &CohortEngine {
        self.soc
            .component::<CohortEngine>(self.engines[i])
            .expect("engine present")
    }

    /// Immutable access to the MAPLE unit.
    pub fn maple_unit(&self) -> &MapleUnit {
        self.soc
            .component::<MapleUnit>(self.maple.expect("maple built"))
            .expect("maple present")
    }
}
