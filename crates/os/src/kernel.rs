//! The kernel behind the SoC's OS entry points ([`cohort_sim::os::Os`]).
//!
//! One [`Kernel`] value owns the benchmark process's memory management —
//! its address space, the frame pool and the swap map of storm-evicted
//! pages — and the table of interrupt actions the driver installed, so
//! the engine's page-fault interrupt, a core's own page fault, a
//! page-fault storm and the recovery paths all see one mm, as in the real
//! kernel. The actions are data ([`IrqAction`]): they are the complete
//! list of host logic that writes guest memory behind the coherence
//! protocol from an interrupt.

use crate::addrspace::AddressSpace;
use crate::driver::{binding_writes, regs, CohortDriver};
use crate::frame::FrameAllocator;
use crate::sv39::PAGE_BYTES;
use cohort_queue::QueueDescriptor;
use cohort_sim::mem::MemAccess;
use cohort_sim::os::{Os, Trap};
use cohort_sim::stats::Counter;
use std::collections::{BTreeMap, HashMap};

/// Trap entry + handler body cost of every driver interrupt handler, in
/// cycles and instructions.
const IRQ_ENTRY: (u64, u64) = (400, 300);

/// Everything the failover orchestrator needs to migrate a victim
/// engine's queues onto a spare: both drivers, the page-table root, the
/// descriptors, and the spare's runtime knobs.
#[derive(Debug, Clone)]
pub struct FailoverConfig {
    /// Driver of the engine being failed over.
    pub victim: CohortDriver,
    /// Driver of the healthy spare engine to rebind onto.
    pub spare: CohortDriver,
    /// Physical address of the process's page-table root.
    pub root_pa: u64,
    /// The victim's input-queue descriptor: each migration stamps both
    /// descriptors with the epoch after the higher of theirs.
    pub input: QueueDescriptor,
    /// The victim's output-queue descriptor.
    pub output: QueueDescriptor,
    /// Optional CSR configuration buffer `(va, len)`.
    pub csr: Option<(u64, u64)>,
    /// RCM backoff window for the spare.
    pub backoff: u64,
    /// Watchdog budget for the spare (0 = leave disarmed).
    pub watchdog: u64,
    /// Physical address of the victim's checkpoint spill area (0 = none).
    /// The spare's [`regs::SPILL_PA`] is pointed here so it restores the
    /// victim's spilled datapath residue on its failover enable.
    pub spill_pa: u64,
}

/// What the kernel does on one interrupt line: the actions the runners
/// install, each with the state it keeps between interrupts.
#[derive(Debug)]
pub enum IrqAction {
    /// The engine's page-fault interrupt (§4.2.4/§4.4): map the faulting
    /// page, then write the engine's [`regs::FAULT_RESOLVE`].
    ResolveFault(CohortDriver),
    /// The engine's error interrupt under a bounded retry budget: clear
    /// [`regs::ERROR_STATUS`] (the engine resumes from the in-memory
    /// queue indices) up to `budget` times; past that, publish the
    /// precomputed output stream in software — §4.4's graceful
    /// degradation — and disable the engine. The budget starts afresh when
    /// the `progress` counters (consumed + produced + drained) moved since
    /// the previous error: that recovery worked, so this fault is a new one.
    Retry {
        /// The engine whose errors this handles.
        engine: CohortDriver,
        /// Retries before the software fallback.
        budget: u64,
        /// Retries spent on the current fault (0 to begin with).
        tries: u64,
        /// The progress total at the previous error interrupt (`None` to
        /// begin with).
        last_progress: Option<u64>,
        /// Counters whose sum strictly grows while the engine moves elements.
        progress: Vec<Counter>,
        /// The output queue the fallback publishes into.
        output: QueueDescriptor,
        /// The whole output stream, recomputed in software: publishing all
        /// of it keeps the fallback idempotent over partial progress.
        stream: Vec<u64>,
    },
    /// The victim engine's error interrupt under failover. A recoverable
    /// error is retried in place by clearing [`regs::ERROR_STATUS`]. An
    /// error carrying [`regs::ERR_ENGINE_DEAD`] migrates the queues:
    ///
    /// 1. **Quiesce**: the victim's watchdog already aborted and drained
    ///    staged elements to memory before raising the IRQ; the handler
    ///    disables the victim and writes an [`regs::EPOCH_FENCE`] so the
    ///    old binding can never republish indices.
    /// 2. **Checkpoint**: re-read the authoritative read/write indices
    ///    from coherent memory and sanity-check them — memory, not the
    ///    dead engine, is the source of truth.
    /// 3. **Rebind**: re-register the same descriptors, stamped with a
    ///    bumped epoch, on the spare engine, and stamp
    ///    [`regs::FAILOVER_T0`] with the detection cycle so the spare
    ///    publishes rebind/first-element latency histograms.
    /// 4. **Resume**: enable the spare; it re-reads the indices from
    ///    memory and continues with no lost or duplicated elements.
    Failover(FailoverConfig),
}

impl IrqAction {
    /// Runs the action for an interrupt carrying `payload` at `cycle`,
    /// returning the handler's ordered register writes.
    fn run(
        &mut self,
        vm: &mut Vm,
        mem: &mut dyn MemAccess,
        payload: u64,
        cycle: u64,
    ) -> Vec<(u64, u64)> {
        match self {
            IrqAction::ResolveFault(engine) => {
                vm.fault_in(mem, payload);
                vec![(engine.reg(regs::FAULT_RESOLVE), 0)]
            }
            IrqAction::Retry {
                engine,
                budget,
                tries,
                last_progress,
                progress,
                output,
                stream,
            } => {
                let now = progress.iter().map(Counter::get).sum();
                if last_progress.is_some_and(|prev| now > prev) {
                    *tries = 0;
                }
                *last_progress = Some(now);
                if *tries < *budget {
                    *tries += 1;
                    return vec![(engine.reg(regs::ERROR_STATUS), 0)];
                }
                let words = stream.iter().enumerate();
                let stores = words.map(|(j, &w)| (output.element_va(j as u64), w));
                let publish = (output.write_index_va, stream.len() as u64);
                for (va, value) in stores.chain([publish]) {
                    let pa = vm.fault_in(mem, va);
                    mem.write_u64(pa, value);
                }
                vec![(engine.reg(regs::ENABLE), 0)]
            }
            IrqAction::Failover(cfg) => {
                if payload & regs::ERR_ENGINE_DEAD == 0 {
                    return vec![(cfg.victim.reg(regs::ERROR_STATUS), 0)];
                }
                // Checkpoint: the indices in coherent memory are the
                // authoritative queue state (the watchdog drain
                // republished everything the victim had staged).
                for q in [&cfg.input, &cfg.output] {
                    let [wr, rd] = [q.write_index_va, q.read_index_va].map(|va| {
                        let pa = vm.fault_in(mem, va);
                        mem.read_u64(pa)
                    });
                    assert!(
                        wr.wrapping_sub(rd) <= u64::from(q.length),
                        "checkpointed indices inconsistent: wr={wr} rd={rd} len={}",
                        q.length
                    );
                }
                let epoch = cfg.input.epoch.max(cfg.output.epoch) + 1;
                cfg.input = cfg.input.with_epoch(epoch);
                cfg.output = cfg.output.with_epoch(epoch);
                // Quiesce and fence the victim, rebind on the spare, and
                // enable it last.
                let victim = &cfg.victim;
                let mut writes = vec![
                    (victim.reg(regs::ENABLE), 0),
                    (victim.reg(regs::EPOCH_FENCE), epoch),
                ];
                let binding =
                    binding_writes(cfg.root_pa, &cfg.input, &cfg.output, cfg.csr, cfg.backoff);
                let stamps = [
                    (regs::IN_EPOCH, epoch),
                    (regs::OUT_EPOCH, epoch),
                    (regs::SPILL_PA, cfg.spill_pa),
                    (regs::FAILOVER_T0, cycle),
                ];
                let spare = &cfg.spare;
                let rebind = binding.into_iter().chain(stamps);
                writes.extend(rebind.map(|(off, value)| (spare.reg(off), value)));
                if cfg.watchdog > 0 {
                    writes.push((spare.reg(regs::WATCHDOG), cfg.watchdog));
                }
                writes.push((spare.reg(regs::ENABLE), 1));
                writes
            }
        }
    }
}

/// The process's memory management: address space, frame pool, and the
/// parked frame of each storm-evicted page, keyed by page-aligned VA.
///
/// Eviction is a translation drop, not a relocation: the frame keeps
/// holding the page, and the next fault maps the same frame back in.
/// Parking the frame (rather than snapshotting its bytes) is what makes
/// storms lossless against agents that race the shootdown: an engine
/// channel mid-DMA or a core store-buffer entry holds a pre-translated
/// physical address and keeps writing the old frame during the flush
/// window. With a byte snapshot those late writes would be rolled back on
/// page-in — observed as a consumer spinning forever on a write index that
/// went backwards.
#[derive(Debug)]
struct Vm {
    space: AddressSpace,
    frames: FrameAllocator,
    swap: HashMap<u64, u64>,
}

impl Vm {
    /// The fault path: maps the page of `va` if it is not mapped —
    /// remapping its parked frame if a storm evicted it, else a fresh zero
    /// frame — and returns the physical address of `va`.
    fn fault_in(&mut self, mem: &mut dyn MemAccess, va: u64) -> u64 {
        if let Some(pa) = self.space.translate(mem, va) {
            return pa;
        }
        let page_va = va & !(PAGE_BYTES - 1);
        match self.swap.remove(&page_va) {
            Some(pa) => self.space.map_page(mem, &mut self.frames, page_va, pa),
            None => {
                self.space.handle_fault(mem, &mut self.frames, va);
            }
        }
        self.space.translate(mem, va).expect("mapped")
    }
}

/// The Cohort kernel: one owner for the process's mm, the interrupt
/// table, the storm's eviction list and the demand-paging switch.
#[derive(Debug)]
pub struct Kernel {
    vm: Vm,
    /// Whether a core's own page fault is served (lazy mapping, or storms
    /// that unmap pages under any policy); unarmed, it is fatal.
    paging: bool,
    /// One table for the SoC: only the benchmark core takes engine
    /// interrupts.
    irqs: BTreeMap<u32, IrqAction>,
    /// Pages a storm evicts, round-robin from `next_evict`; none, the
    /// kernel keeps no evictor.
    storm: Vec<u64>,
    next_evict: usize,
}

impl Kernel {
    /// A kernel owning `space` and `frames`, with paging unarmed, no
    /// interrupt action and no evictor.
    pub fn new(space: AddressSpace, frames: FrameAllocator) -> Self {
        Self {
            vm: Vm {
                space,
                frames,
                swap: HashMap::new(),
            },
            paging: false,
            irqs: BTreeMap::new(),
            storm: Vec::new(),
            next_evict: 0,
        }
    }

    /// Arms demand paging: every core's own page faults, and each of
    /// `engines`' page-fault interrupts ([`IrqAction::ResolveFault`]).
    pub fn arm_paging(&mut self, engines: &[CohortDriver]) {
        self.paging = true;
        for engine in engines {
            let action = IrqAction::ResolveFault(engine.clone());
            self.install(engine.irq(), action);
        }
    }

    /// Installs `action` on interrupt line `irq`, replacing any other.
    pub fn install(&mut self, irq: u32, action: IrqAction) {
        self.irqs.insert(irq, action);
    }

    /// Makes storms evict the data pages of `queues`, round-robin, parking
    /// each page's frame for its next fault.
    pub fn evict_on_storm(&mut self, queues: &[QueueDescriptor]) {
        for q in queues {
            let first = q.base_va & !(PAGE_BYTES - 1);
            let pages = (first..q.base_va + q.data_bytes()).step_by(PAGE_BYTES as usize);
            self.storm.extend(pages);
        }
    }
}

impl Os for Kernel {
    fn core_fault(&mut self, mem: &mut dyn MemAccess, va: u64) -> bool {
        if self.paging {
            self.vm.fault_in(mem, va);
        }
        self.paging
    }

    fn interrupt(
        &mut self,
        mem: &mut dyn MemAccess,
        irq: u32,
        payload: u64,
        cycle: u64,
    ) -> Option<Trap> {
        let action = self.irqs.get_mut(&irq)?;
        let writes = action.run(&mut self.vm, mem, payload, cycle);
        let (cycles, insts) = IRQ_ENTRY;
        Some(Trap {
            cycles,
            insts,
            writes,
        })
    }

    fn storm(&mut self, mem: &mut dyn MemAccess, pages: u64) -> Option<u64> {
        if self.storm.is_empty() {
            return None;
        }
        let mut evicted = 0;
        for _ in 0..pages {
            let va = self.storm[self.next_evict % self.storm.len()];
            self.next_evict += 1;
            if let Some(pa) = self.vm.space.translate(mem, va) {
                self.vm.swap.insert(va, pa & !(PAGE_BYTES - 1));
                evicted += u64::from(self.vm.space.unmap(mem, va));
            }
        }
        Some(evicted)
    }
}
