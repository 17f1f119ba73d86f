//! The paper's benchmark scenarios (§5.3) as simulated programs.
//!
//! Each runner describes, as data, a [`crate::system::SimSystem`] and its
//! core programs for one of the three communication APIs — Cohort, MMIO,
//! coherent DMA — over a deterministic input stream. One body runs every
//! such description and verifies the results against a host-side reference.
//!
//! Benchmark structure follows §5.3 exactly: "to hash 1 block of text we
//! push 64 bits of data 8 times and fetch the corresponding hash with 4
//! pops. For AES, there are 2 pushes and 2 pops ... we encapsulate these
//! movements into batches and run applications until queue size is
//! reached."

use crate::system::{SimSystem, SystemSpec, MAPLE_MMIO_BASE};
use cohort_accel::aes128::{Aes128, Aes128Accel};
use cohort_accel::sha256::{sha256_raw_block, Sha256Accel};
use cohort_accel::Accelerator;
use cohort_maple::regs as maple_regs;
use cohort_os::addrspace::MapPolicy;
use cohort_os::driver::{Placement, ShardError, ShardPool};
use cohort_os::kernel::{FailoverConfig, IrqAction, Kernel};
use cohort_os::sv39::PAGE_BYTES;
use cohort_queue::{QueueDescriptor, SeqMerge};
use cohort_sim::component::CompId;
use cohort_sim::config::SocConfig;
use cohort_sim::core::InOrderCore;
use cohort_sim::faultinject::{splitmix64, FaultKind, FaultPlan};
use cohort_sim::program::{Op, Program};
use cohort_sim::soc::Soc;
use cohort_sim::stats::HistogramSummary;
use std::collections::VecDeque;
use std::iter::once;
use std::ops::Range;
use std::rc::Rc;

/// The two accelerators of interest (Table 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Workload {
    /// SHA-256: 8 pushes, 4 pops per 512-bit block, 66-cycle latency.
    Sha,
    /// AES-128: 2 pushes, 2 pops per 128-bit block, 41-cycle latency,
    /// key via CSR.
    Aes,
}

/// The AES benchmark key (any fixed key; delivered through the CSR path).
pub const AES_KEY: [u8; 16] = *b"cohort-aes-key!!";

impl Workload {
    /// Instantiates the accelerator.
    pub fn make_accel(&self) -> Box<dyn cohort_accel::Accelerator> {
        match self {
            Workload::Sha => Box::new(Sha256Accel::new()),
            Workload::Aes => Box::new(Aes128Accel::new()),
        }
    }

    /// CSR configuration bytes, if the workload needs them.
    pub fn csr(&self) -> Option<Vec<u8>> {
        match self {
            Workload::Sha => None,
            Workload::Aes => Some(AES_KEY.to_vec()),
        }
    }

    /// 64-bit words pushed per accelerator block.
    pub fn words_in_per_block(&self) -> u64 {
        match self {
            Workload::Sha => 8,
            Workload::Aes => 2,
        }
    }

    /// 64-bit words popped per accelerator block.
    pub fn words_out_per_block(&self) -> u64 {
        match self {
            Workload::Sha => 4,
            Workload::Aes => 2,
        }
    }

    /// Host-side reference computation of the output word stream.
    pub fn reference_outputs(&self, input: &[u64]) -> Vec<u64> {
        let bytes: Vec<u8> = input.iter().flat_map(|w| w.to_le_bytes()).collect();
        let mut out = Vec::new();
        match self {
            Workload::Sha => {
                for block in bytes.chunks_exact(64) {
                    out.extend_from_slice(&sha256_raw_block(block.try_into().expect("64B")));
                }
            }
            Workload::Aes => {
                let aes = Aes128::new(&AES_KEY);
                for block in bytes.chunks_exact(16) {
                    out.extend_from_slice(&aes.encrypt_block(block.try_into().expect("16B")));
                }
            }
        }
        out.chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8B")))
            .collect()
    }
}

/// Cost constants for the software sides of the three APIs. Loop-overhead
/// values model index arithmetic and branches; `dma_api_alu` models the
/// per-block "special API functions" of the coherent-DMA baseline (§5.3) —
/// the paper does not publish this software cost, so it is calibrated to
/// reproduce the paper's DMA/MMIO ratio (see EXPERIMENTS.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BaselineCosts {
    /// ALU instructions per push-loop iteration.
    pub push_loop_alu: u32,
    /// ALU instructions per pop-loop iteration.
    pub pop_loop_alu: u32,
    /// ALU instructions around each MMIO access.
    pub mmio_loop_alu: u32,
    /// DMA granularity in bytes (Table 2: 256).
    pub dma_block_bytes: u64,
    /// Per-DMA-block software API cost in instructions (calibrated).
    pub dma_api_alu: u32,
}

impl Default for BaselineCosts {
    fn default() -> Self {
        Self {
            push_loop_alu: 2,
            pop_loop_alu: 2,
            mmio_loop_alu: 10,
            dma_block_bytes: 256,
            dma_api_alu: 9000,
        }
    }
}

/// RCM backoff window in cycles a [`Scenario`] or [`CustomRun`] starts
/// with.
pub const DEFAULT_BACKOFF: u64 = 700;

/// Full configuration of one benchmark run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Which accelerator.
    pub workload: Workload,
    /// Total input elements pushed == input queue length (Table 2:
    /// 64..8192).
    pub queue_size: u64,
    /// Pointer-update batching factor (Table 2: 2..64).
    pub batch: u64,
    /// SoC configuration.
    pub soc: SocConfig,
    /// Page mapping policy.
    pub policy: MapPolicy,
    /// RCM backoff window in cycles.
    pub backoff: u64,
    /// Input data seed.
    pub seed: u64,
    /// Software cost constants.
    pub costs: BaselineCosts,
    /// When true, the SoC's structured event trace is enabled for the run
    /// and the Chrome `trace_event` JSON lands in [`RunResult::trace_json`].
    pub trace: bool,
    /// Engine forward-progress watchdog budget in cycles (0 = disabled;
    /// the runners that arm a recovery stack substitute
    /// [`CHAOS_DEFAULT_WATCHDOG`] when left at 0).
    pub watchdog: u64,
}

impl Scenario {
    /// A scenario with default platform parameters.
    pub fn new(workload: Workload, queue_size: u64, batch: u64) -> Self {
        Self {
            workload,
            queue_size,
            batch: batch.max(1),
            soc: SocConfig::default(),
            policy: MapPolicy::Eager,
            backoff: DEFAULT_BACKOFF,
            seed: 0x5eed,
            costs: BaselineCosts::default(),
            trace: false,
            watchdog: 0,
        }
    }

    /// Deterministic input words (splitmix64 over the seed).
    pub fn input_words(&self) -> Vec<u64> {
        let mut state = self.seed;
        (0..self.queue_size)
            .map(|_| splitmix64(&mut state))
            .collect()
    }

    /// Output element count for this input size.
    pub fn output_words(&self) -> u64 {
        self.queue_size * self.workload.words_out_per_block() / self.workload.words_in_per_block()
    }
}

/// The outcome of one simulated benchmark run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// End-to-end program latency in cycles (what Figs. 8/9 plot).
    pub cycles: u64,
    /// Instructions the benchmark core retired.
    pub instret: u64,
    /// The output words the core observed.
    pub recorded: Vec<u64>,
    /// True if `recorded` matches the host-side reference — every run is
    /// functionally verified end to end.
    pub verified: bool,
    /// Named counters gathered from all components.
    pub counters: Vec<(String, Vec<(String, u64)>)>,
    /// Histogram summaries from the stats registry under their scoped
    /// names (`engine#0.in_queue_occupancy`, …), so callers can assert on
    /// percentiles without parsing [`RunResult::stats_json`].
    pub histograms: Vec<(String, HistogramSummary)>,
    /// Stats-registry snapshot (counters + histogram summaries) as JSON.
    pub stats_json: String,
    /// Order-sensitive checksum over the run's observable payload (final
    /// cycle plus every recorded word). This is the value the determinism
    /// contract pins down: for a given scenario and seed it is
    /// bit-identical under either `Lookahead` mode and any component
    /// registration order.
    pub checksum: u64,
    /// Chrome `trace_event` JSON, present when the scenario enabled
    /// tracing. Loadable in Perfetto / `chrome://tracing`.
    pub trace_json: Option<String>,
    /// Cycles the step kernel actually executed (and so paid the commit
    /// barrier for). With `Lookahead::Force1` this equals [`Self::cycles`];
    /// under `Auto` the difference is covered by [`Self::ff_cycles`].
    /// Host-side kernel telemetry: excluded from `stats_json` and
    /// `checksum` by construction, so it may vary freely with the batching
    /// mode while the simulated results stay bit-identical.
    pub barrier_activations: u64,
    /// Cycles the conservative lookahead proved no-ops and skipped.
    pub ff_cycles: u64,
    /// Component steps the kernel really executed, summed over the
    /// stepped cycles. Under `Force1` this is slots × barriers.
    pub slot_steps: u64,
    /// Component steps a stepped cycle skipped because the slot was
    /// asleep (per-slot sleep/wake); host-side telemetry like the two
    /// above.
    pub slot_sleeps: u64,
    /// Of [`Self::slot_steps`], the steps that consumed no message, staged
    /// nothing and left the component hinting "awake" again — what a
    /// tighter `quiescent_for` could still put to sleep — per component
    /// class (`core`, `engine`, …), classes that never stepped silently
    /// left out.
    pub silent_by_class: Vec<(String, u64)>,
}

impl RunResult {
    /// Instructions per cycle of the benchmark core (§6.2).
    pub fn ipc(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.instret as f64 / self.cycles as f64
        }
    }

    /// Silent steps of all classes ([`Self::silent_by_class`]).
    pub fn silent_steps(&self) -> u64 {
        self.silent_by_class.iter().map(|(_, n)| n).sum()
    }

    /// Looks up one counter by component prefix and name.
    pub fn counter(&self, comp_prefix: &str, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(c, _)| c.starts_with(comp_prefix))
            .and_then(|(_, list)| list.iter().find(|(n, _)| n == name).map(|(_, v)| *v))
    }

    /// Looks up one histogram summary by its scoped registry name.
    pub fn histogram(&self, scoped_name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == scoped_name)
            .map(|(_, h)| h)
    }
}

/// Budget generous enough for the slowest (MMIO, 8192-element) runs.
fn cycle_budget(queue_size: u64) -> u64 {
    20_000_000 + queue_size * 10_000
}

/// Computes [`RunResult::checksum`]: splitmix64-mixed over the final
/// cycle count and the recorded output words, order-sensitive.
fn payload_checksum(cycles: u64, recorded: &[u64]) -> u64 {
    let mut state = 0x9e37_79b9_7f4a_7c15u64 ^ cycles;
    let mut acc = splitmix64(&mut state);
    for &w in recorded {
        state ^= w;
        acc = acc.rotate_left(7) ^ splitmix64(&mut state);
    }
    acc
}

/// Computes [`RunResult::silent_by_class`] from the kernel registry.
fn silent_by_class(soc: &Soc) -> Vec<(String, u64)> {
    let counters = soc.kernel_stats().counter_values();
    let classes = counters.into_iter().filter_map(|(name, v)| {
        let class = name.strip_prefix("kernel.silent_steps.")?;
        (v > 0).then(|| (class.to_string(), v))
    });
    classes.collect()
}

// How a run is assembled. Every runner, the MMIO and DMA baselines and
// `CustomRun` included, states its run as a `Topology` and hands it to
// `run_topology`, the one body, which runs these stages in this order:
// build the system (engines, the MAPLE unit, extra cores); allocate the
// plain buffers if they come first, the queues, the CSR buffer, the
// failover spill page and the plain buffers if they come last; compose
// the benchmark core's program (register each binding, the watched
// engine's watchdog and spill registers, the topology's loop, then, if
// anything was registered, a fence and the unregisters) and each extra
// core's; `arm` (program load, the run's one kernel, demand paging) and
// the recovery actions, after which the SoC owns the kernel; run, verify
// and collect. Allocation order and the emitted `Op` sequence are
// observable — they fix physical addresses, cache-set conflicts and
// therefore cycles — so a runner says only what its topology holds, never
// in which order it is built.

/// `cohort_register(engine, queues[input], queues[output])`, with the
/// CSR buffer when the flag is set: `(engine, input, output, csr)`.
type Binding = (usize, usize, usize, bool);

/// What [`run_topology`] allocated for a topology, which its programs
/// and verifier address.
struct Allocated {
    /// In the topology's queue order.
    queues: Vec<QueueDescriptor>,
    /// The VA of each plain buffer, in the topology's order.
    buffers: Vec<u64>,
    /// The page-table root (what MAPLE's `DMA_PTROOT` takes).
    root_pa: u64,
}

/// A core's program, made from what was allocated.
type Emit = Box<dyn FnOnce(&Allocated) -> Program>;

/// A run's verifier: sees the finished system, what was allocated and the
/// words the benchmark core recorded.
type Verify = Box<dyn FnOnce(&SimSystem, &Allocated, &[u64]) -> bool>;

/// The recovery a topology arms on the benchmark core.
enum Recovery {
    None,
    /// The [`Runner::Chaos`] stack around binding 0, whose software
    /// fallback publishes this output stream.
    Chaos(Vec<u64>),
    /// Fail-stop migration of binding `victim`'s queues onto the cold
    /// spare engine `spare` (see [`Runner::Failover`]).
    Failover {
        victim: usize,
        spare: usize,
    },
}

/// A run as data: what [`run_topology`] builds, besides the platform a
/// [`Scenario`] gives it.
struct Topology {
    /// One accelerator per Cohort engine, in engine order.
    accels: Vec<Box<dyn Accelerator>>,
    /// The accelerator behind the SoC's MAPLE unit, if it has one.
    maple: Option<Box<dyn Accelerator>>,
    /// Queue lengths in 8-byte elements, in allocation order.
    queues: Vec<u64>,
    csr: Option<Vec<u8>>,
    /// Registered in this order.
    bindings: Vec<Binding>,
    /// Plain buffer sizes in bytes (64-byte aligned), in allocation order.
    buffers: Vec<u64>,
    /// Before the queues, instead of after everything (spill page too).
    buffers_first: bool,
    recovery: Recovery,
    /// The benchmark core's loop, after the registers and before the
    /// fence and unregisters, if there are bindings.
    bench: Emit,
    /// One program per extra core.
    cores: Vec<Emit>,
    /// Unregister the bindings last to first (after the spare, if any).
    unregister_reversed: bool,
    verify: Verify,
}

impl Topology {
    /// `accels` behind engines and nothing else; runners set the rest.
    fn new(accels: Vec<Box<dyn Accelerator>>, bench: Emit, verify: Verify) -> Self {
        Self {
            accels,
            maple: None,
            queues: Vec::new(),
            csr: None,
            bindings: Vec::new(),
            buffers: Vec::new(),
            buffers_first: false,
            recovery: Recovery::None,
            bench,
            cores: Vec::new(),
            unregister_reversed: false,
            verify,
        }
    }

    /// One engine hosting `accel` from queue 0 into queue 1 with the CSR,
    /// no extra core and no recovery, verified against `expected`.
    fn single(
        accel: Box<dyn Accelerator>,
        queues: [u64; 2],
        csr: Option<Vec<u8>>,
        bench: Emit,
        expected: Vec<u64>,
    ) -> Self {
        let verify: Verify = Box::new(move |_, _, recorded| recorded == expected);
        Self {
            queues: queues.to_vec(),
            csr,
            bindings: vec![(0, 0, 1, true)],
            ..Self::new(vec![accel], bench, verify)
        }
    }
}

/// A program of one generated stream.
fn streamed(ops: impl Iterator<Item = Op> + 'static) -> Program {
    let mut program = Program::new();
    program.stream(ops);
    program
}

/// A program of one generated stream, then a fence.
fn fenced(ops: impl Iterator<Item = Op> + 'static) -> Program {
    let mut program = streamed(ops);
    program.push(Op::Fence);
    program
}

/// Maps whatever pages of `[va, va + len)` the policy left unmapped, so
/// the host can seed them or an engine can address them physically. A
/// no-op unless the policy is lazy.
fn host_fault_in(sys: &mut SimSystem, va: u64, len: u64) {
    let mut page = va & !(PAGE_BYTES - 1);
    while page < va + len {
        if sys.space.translate(&sys.soc.mem, page).is_none() {
            sys.space
                .handle_fault(&mut sys.soc.mem, &mut sys.frames, page);
        }
        page += PAGE_BYTES;
    }
}

/// Stage 2: allocates the CSR / key buffer in the guest heap and seeds it,
/// returning the `(va, len)` pair `cohort_register` takes. Under lazy
/// mapping the page would only fault on the engine's first touch, but the
/// host writes the contents now, so it is faulted in now.
fn stage_csr(sys: &mut SimSystem, bytes: Option<&[u8]>) -> Option<(u64, u64)> {
    let bytes = bytes?;
    let len = bytes.len() as u64;
    let va = sys.alloc_buffer(len, 64);
    host_fault_in(sys, va, len);
    sys.write_guest(va, bytes);
    Some((va, len))
}

/// One store to a MAPLE register.
fn maple_store(reg: u64, value: u64) -> Op {
    Op::MmioStore {
        pa: MAPLE_MMIO_BASE + reg,
        value,
    }
}

/// Stage 2 for the MAPLE baselines: the CSR travels over MMIO, a word at
/// a time, then a commit of its byte length.
fn maple_csr_ops(program: &mut Program, workload: Workload) {
    let Some(csr) = workload.csr() else { return };
    for chunk in csr.chunks(8) {
        let mut word = [0u8; 8];
        word[..chunk.len()].copy_from_slice(chunk);
        program.push(maple_store(maple_regs::CSR_DATA, u64::from_le_bytes(word)));
    }
    program.push(maple_store(maple_regs::CSR_COMMIT, csr.len() as u64));
}

// Stage 3's building blocks: the §5.3 loop, written once. Each is a
// lazily generated op stream (`Program::stream`), so no program holds its
// loop's ops in memory.

/// A software loop over `body`: each op after the loop's `alu`
/// instructions of index arithmetic and branching. A struct rather than a
/// `flat_map` into pairs, which takes twice the host time per op.
fn looped<I: Iterator<Item = Op>>(alu: u32, body: I) -> Looped<I> {
    let held = None;
    Looped { alu, body, held }
}

struct Looped<I> {
    alu: u32,
    body: I,
    /// The body op due after the ALU op just yielded.
    held: Option<Op>,
}

impl<I: Iterator<Item = Op>> Iterator for Looped<I> {
    type Item = Op;

    fn next(&mut self) -> Option<Op> {
        self.held.take().or_else(|| {
            self.held = Some(self.body.next()?);
            Some(Op::Alu(self.alu))
        })
    }
}

/// `slots` cut into consecutive runs of `len` (the last may be shorter).
fn runs(slots: Range<u64>, len: u64) -> impl Iterator<Item = Range<u64>> {
    let end = slots.end;
    slots
        .step_by(len as usize)
        .map(move |s| s..(s + len).min(end))
}

/// The words of `data` at `range`.
fn words(data: &Rc<[u64]>, range: Range<u64>) -> impl Iterator<Item = u64> {
    let data = Rc::clone(data);
    range.map(move |i| data[i as usize])
}

/// The push loop: `words` into `q`'s slots from `first` on.
fn push(
    q: QueueDescriptor,
    alu: u32,
    first: u64,
    words: impl Iterator<Item = u64>,
) -> impl Iterator<Item = Op> {
    let stores = (first..).zip(words).map(move |(i, value)| Op::Store {
        va: q.element_va(i),
        value,
    });
    looped(alu, stores)
}

/// Publishes write index `pushed` of `q`: a release fence orders the data
/// before it (§4.2.3), then one ALU instruction of index arithmetic and
/// the store.
fn publish(q: QueueDescriptor, pushed: u64) -> [Op; 3] {
    let (va, value) = (q.write_index_va, pushed);
    [Op::Fence, Op::Alu(1), Op::Store { va, value }]
}

/// The pop loop: waits until `q`'s write index covers `slots`, then pops
/// them, recording each word.
fn gate_pop(q: QueueDescriptor, alu: u32, slots: Range<u64>) -> impl Iterator<Item = Op> {
    let (va, value) = (q.write_index_va, slots.end);
    let loads = slots.map(move |j| Op::Load {
        va: q.element_va(j),
        record: true,
    });
    once(Op::WaitGe { va, value }).chain(looped(alu, loads))
}

/// Hands `q`'s slots before `popped` back to the producer: one ALU
/// instruction of index arithmetic, then the read-index store.
fn release(q: QueueDescriptor, popped: u64) -> [Op; 2] {
    let (va, value) = (q.read_index_va, popped);
    [Op::Alu(1), Op::Store { va, value }]
}

/// Mutable access to core `id` (the benchmark core or an extra one).
fn core_mut(soc: &mut Soc, id: CompId) -> &mut InOrderCore {
    soc.component_mut::<InOrderCore>(id).expect("core present")
}

/// Default watchdog budget the recovery stacks arm when the scenario
/// leaves [`Scenario::watchdog`] at 0. Long enough that healthy backoff
/// idling never trips it, short enough that a wedged engine is detected
/// well inside the cycle budget.
pub const CHAOS_DEFAULT_WATCHDOG: u64 = 150_000;

fn armed_watchdog(scenario: &Scenario) -> u64 {
    if scenario.watchdog == 0 {
        CHAOS_DEFAULT_WATCHDOG
    } else {
        scenario.watchdog
    }
}

/// Stage 4: loads the benchmark core's program and makes the run's one
/// kernel, which owns a snapshot of the benchmark process's memory
/// management. It copies the frame allocator, so it comes after the last
/// host-side allocation. Demand paging is armed — every engine's
/// page-fault interrupt and every core's own faults, extra cores included,
/// since under lazy mapping each of them can be first to touch a page —
/// when the policy is lazy or the run brings storms (`chaos`: they unmap
/// pages under any policy).
fn arm(sys: &mut SimSystem, program: Program, chaos: bool) -> Kernel {
    core_mut(&mut sys.soc, sys.core).load_program(program);
    let mut kernel = Kernel::new(sys.space.clone(), sys.frames.clone());
    if sys.space.policy() == MapPolicy::Lazy || chaos {
        kernel.arm_paging(&sys.drivers);
    }
    kernel
}

/// The one body of every run: `topo` on the platform of `scenario` (its
/// SoC, map policy, backoff, watchdog, trace switch and the cycle budget
/// its queue size sets), in the stages and order the comment above
/// [`Topology`] gives; the one place a [`RunResult`] is made.
///
/// # Panics
/// Panics if the benchmark core has not retired its program within the
/// cycle budget. A dead MAPLE answers blocking MMIO with the sentinel and
/// a dead engine is failed over, so a fault plan is no excuse to hang.
fn run_topology(scenario: &Scenario, topo: Topology) -> RunResult {
    let mut sys = SimSystem::build(SystemSpec {
        cfg: scenario.soc.clone(),
        policy: scenario.policy,
        engine_accels: topo.accels,
        maple_accel: topo.maple,
        extra_cores: topo.cores.len(),
    });
    let (sizes, mut buffers) = (topo.buffers, Vec::new());
    let mut alloc_buffers = |sys: &mut SimSystem| {
        buffers.extend(sizes.iter().map(|&bytes| sys.alloc_buffer(bytes, 64)));
    };
    if topo.buffers_first {
        alloc_buffers(&mut sys);
    }
    let queues = topo.queues.iter();
    let queues = queues.map(|&len| sys.alloc_queue(8, len as u32).descriptor);
    let queues: Vec<QueueDescriptor> = queues.collect();
    let csr = stage_csr(&mut sys, topo.csr.as_deref());
    // The watched binding, and for failover the spill page, which the
    // engine addresses physically: resolved (and, under lazy mapping,
    // faulted in) up front.
    let bindings = topo.bindings;
    let (watched, chaos, failover) = match topo.recovery {
        Recovery::None => (None, None, None),
        Recovery::Chaos(expected) => (Some(bindings[0]), Some(expected), None),
        Recovery::Failover { victim, spare } => {
            let va = sys.alloc_buffer(PAGE_BYTES, PAGE_BYTES);
            host_fault_in(&mut sys, va, PAGE_BYTES);
            let spill_pa = sys
                .space
                .translate(&sys.soc.mem, va)
                .expect("spill page mapped");
            (Some(bindings[victim]), None, Some((spare, spill_pa)))
        }
    };
    if !topo.buffers_first {
        alloc_buffers(&mut sys);
    }
    let alloc = Allocated {
        queues,
        buffers,
        root_pa: sys.space.root_pa(),
    };

    let (queues, root_pa, backoff) = (&alloc.queues, alloc.root_pa, scenario.backoff);
    let mut program = Program::new();
    for &(engine, input, output, with_csr) in &bindings {
        let (input, output, csr) = (&queues[input], &queues[output], csr.filter(|_| with_csr));
        let driver = &sys.drivers[engine];
        program.append(driver.register_ops(root_pa, input, output, csr, backoff));
    }
    // Only the watched engine gets a watchdog: its healthy neighbours
    // legitimately sit in states the watchdog does not treat as benign (a
    // producer between batches, an upstream engine spinning on a full
    // queue during an outage).
    let watchdog = armed_watchdog(scenario);
    if let Some((engine, ..)) = watched {
        program.append(sys.drivers[engine].watchdog_ops(watchdog));
        if let Some((_, spill_pa)) = failover {
            program.append(sys.drivers[engine].spill_ops(spill_pa));
        }
    }
    program.append((topo.bench)(&alloc));
    // With nothing to unregister, no fence: it would retire an instruction.
    if !bindings.is_empty() {
        program.push(Op::Fence);
    }
    let mut engines: Vec<usize> = bindings.iter().map(|b| b.0).collect();
    if topo.unregister_reversed {
        engines.reverse();
    }
    for e in failover.map(|(spare, _)| spare).into_iter().chain(engines) {
        program.append(sys.drivers[e].unregister_ops());
    }
    for (emit, id) in topo.cores.into_iter().zip(sys.extra_cores.clone()) {
        core_mut(&mut sys.soc, id).load_program(emit(&alloc));
    }

    let mut kernel = arm(&mut sys, program, chaos.is_some());
    if let Some((engine, input, output, with_csr)) = watched {
        let (input, output) = (alloc.queues[input], alloc.queues[output]);
        let victim = sys.drivers[engine].clone();
        let irq = victim.error_irq();
        if let Some(expected) = chaos {
            // Storms evict the queues' data pages round-robin.
            kernel.evict_on_storm(&[input, output]);
            // Two retries, then the kernel publishes the whole output
            // stream; progress is what the engine moved.
            let ec = sys.engine(engine).engine_counters();
            let progress = [&ec.consumed, &ec.produced, &ec.drained_elems];
            let retry = IrqAction::Retry {
                engine: victim,
                budget: 2,
                tries: 0,
                last_progress: None,
                progress: progress.map(Clone::clone).into(),
                output,
                stream: expected,
            };
            kernel.install(irq, retry);
        } else if let Some((spare, spill_pa)) = failover {
            // The orchestrator on the victim's error IRQ rebinds its
            // queues on the spare.
            let config = FailoverConfig {
                victim,
                spare: sys.drivers[spare].clone(),
                root_pa,
                input,
                output,
                csr: csr.filter(|_| with_csr),
                backoff,
                watchdog,
                spill_pa,
            };
            kernel.install(irq, IrqAction::Failover(config));
        }
    }
    sys.soc.set_os(Box::new(kernel));

    let trace = scenario.trace;
    sys.soc.set_tracing(trace);
    let outcome = sys.soc.run(cycle_budget(scenario.queue_size));
    let core = sys.core();
    assert!(
        core.is_done(),
        "scenario did not complete: quiescent={} cycle={} core={core:?}",
        outcome.quiescent,
        outcome.cycle,
    );
    let recorded = core.recorded().to_vec();
    let verified = (topo.verify)(&sys, &alloc, &recorded);
    RunResult {
        cycles: core.core_counters().done_at,
        instret: core.core_counters().instret.get(),
        checksum: payload_checksum(core.core_counters().done_at, &recorded),
        recorded,
        verified,
        counters: sys.soc.all_counters(),
        histograms: sys.soc.stats().histogram_summaries(),
        stats_json: sys.soc.stats_json(),
        barrier_activations: sys.soc.kernel_counter("kernel.barrier_activations"),
        ff_cycles: sys.soc.kernel_counter("kernel.ff_cycles"),
        slot_steps: sys.soc.kernel_counter("kernel.slot_steps"),
        slot_sleeps: sys.soc.kernel_counter("kernel.slot_sleeps"),
        silent_by_class: silent_by_class(&sys.soc),
        trace_json: trace.then(|| sys.soc.trace_json()),
    }
}

/// The [`Runner::Cohort`] topology. Its loop (§5.3), per batch: push it
/// and publish the write index, pop every output block it completes,
/// then release what has been popped.
fn cohort(scenario: &Scenario) -> Topology {
    let (n, m, batch, costs) = (
        scenario.queue_size,
        scenario.output_words(),
        scenario.batch,
        scenario.costs,
    );
    let workload = scenario.workload;
    let wpb_in = workload.words_in_per_block();
    let wpb_out = workload.words_out_per_block();
    // The output words the first `pushed` input words complete.
    let done = move |pushed: u64| (pushed * wpb_out / wpb_in).min(m);
    let data: Rc<[u64]> = scenario.input_words().into();
    let expected = workload.reference_outputs(&data);
    let bench: Emit = Box::new(move |alloc| {
        let (in_q, out_q) = (alloc.queues[0], alloc.queues[1]);
        streamed(runs(0..n, batch).flat_map(move |batch| {
            let popped = done(batch.end);
            let blocks = runs(done(batch.start)..popped, wpb_out);
            let input = words(&data, batch.clone());
            let released = (popped > 0).then(|| release(out_q, popped));
            push(in_q, costs.push_loop_alu, batch.start, input)
                .chain(publish(in_q, batch.end))
                .chain(blocks.flat_map(move |b| gate_pop(out_q, costs.pop_loop_alu, b)))
                .chain(released.into_iter().flatten())
        }))
    });
    let accel = workload.make_accel();
    Topology::single(accel, [n, m], workload.csr(), bench, expected)
}

/// The [`Runner::Interfered`] topology: [`Runner::Cohort`]'s, with one
/// extra core storing through a noise working set of twice the L2,
/// allocated before the queues, pass after pass.
fn interfered(scenario: &Scenario) -> Topology {
    let passes = (scenario.queue_size / 64).max(2);
    let noise_bytes = 2 * scenario.soc.l2.capacity_bytes;
    let noise: Emit = Box::new(move |alloc| {
        let (buf, lines) = (alloc.buffers[0], noise_bytes / 64);
        let stores = (0..passes).flat_map(move |p| {
            (0..lines).map(move |line| Op::Store {
                va: buf + line * 64,
                value: p ^ line,
            })
        });
        fenced(stores)
    });
    let mut topo = cohort(scenario);
    topo.buffers = vec![noise_bytes];
    topo.buffers_first = true;
    topo.cores.push(noise);
    topo
}

/// The [`Runner::Chaos`] topology: [`Runner::Cohort`]'s, with the chaos
/// recovery stack.
fn chaos(scenario: &Scenario) -> Topology {
    let expected = scenario.workload.reference_outputs(&scenario.input_words());
    let mut topo = cohort(scenario);
    topo.recovery = Recovery::Chaos(expected);
    topo
}

/// The [`Runner::Mmio`] topology: MAPLE fed a word at a time, each
/// block's outputs read back before the next block's inputs.
fn mmio(scenario: &Scenario) -> Topology {
    let workload = scenario.workload;
    let data: Rc<[u64]> = scenario.input_words().into();
    let expected = workload.reference_outputs(&data);
    let (n, alu) = (scenario.queue_size, scenario.costs.mmio_loop_alu);
    let wpb_out = workload.words_out_per_block() as usize;
    let (pa, record) = (MAPLE_MMIO_BASE + maple_regs::POP, true);
    let pop = Op::MmioLoad { pa, record };
    let bench: Emit = Box::new(move |_| {
        let mut program = Program::new();
        maple_csr_ops(&mut program, workload);
        let blocks = runs(0..n, workload.words_in_per_block());
        program.stream(blocks.flat_map(move |block| {
            let pushes = words(&data, block).map(|w| maple_store(maple_regs::PUSH, w));
            looped(alu, pushes.chain(std::iter::repeat_n(pop, wpb_out)))
        }));
        program
    });
    let verify: Verify = Box::new(move |_, _, recorded| recorded == expected);
    Topology {
        maple: Some(workload.make_accel()),
        ..Topology::new(Vec::new(), bench, verify)
    }
}

/// The [`Runner::Dma`] topology: MAPLE moves DMA blocks from an input
/// buffer to an output buffer. `hardened` ([`Runner::DmaChaos`]) records
/// each block's `DMA_DONE` word (where a dead unit's sentinel shows) and
/// verifies the output buffer in guest memory, not the core's read-back.
fn dma(scenario: &Scenario, hardened: bool) -> Topology {
    let workload = scenario.workload;
    let (n, m, costs) = (scenario.queue_size, scenario.output_words(), scenario.costs);
    let out_bytes = m.max(1) * 8;
    let data: Rc<[u64]> = scenario.input_words().into();
    let expected = workload.reference_outputs(&data);
    // One programmed transfer per DMA block; every block but the last is
    // full, so block `k`'s output lands `k` blocks' worth of output in.
    let block = costs.dma_block_bytes;
    let out_per_block = block * workload.words_out_per_block() / workload.words_in_per_block();
    let cycles = u64::from(costs.dma_api_alu);
    let insts = cycles / 5;
    let (pa, record) = (MAPLE_MMIO_BASE + maple_regs::DMA_DONE, hardened);
    let bench: Emit = Box::new(move |alloc| {
        let (in_va, out_va) = (alloc.buffers[0], alloc.buffers[1]);
        let mut program = Program::new();
        program.push(maple_store(maple_regs::DMA_PTROOT, alloc.root_pa));
        maple_csr_ops(&mut program, workload);
        // Stage the input (cached stores, like the Cohort push loop).
        let staged = (0..n)
            .zip(words(&data, 0..n))
            .map(move |(i, value)| Op::Store {
                va: in_va + i * 8,
                value,
            });
        program.stream(looped(costs.push_loop_alu, staged));
        program.push(Op::Fence);
        let transfers = runs(0..n * 8, block).zip(0..).flat_map(move |(src, k)| {
            [
                Op::KernelCost { cycles, insts },
                maple_store(maple_regs::DMA_SRC, in_va + src.start),
                maple_store(maple_regs::DMA_DST, out_va + k * out_per_block),
                maple_store(maple_regs::DMA_LEN, src.end - src.start),
                maple_store(maple_regs::DMA_START, 1),
                Op::MmioLoad { pa, record },
            ]
        });
        program.stream(transfers);
        if !hardened {
            let reads = (0..m).map(move |j| Op::Load {
                va: out_va + j * 8,
                record: true,
            });
            program.stream(looped(costs.pop_loop_alu, reads));
        }
        program
    });
    let verify: Verify = Box::new(move |sys, alloc, recorded| {
        if !hardened {
            return recorded == expected;
        }
        let out = sys.read_guest(alloc.buffers[1], out_bytes as usize);
        let outputs = out
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8B")));
        !recorded.contains(&cohort_maple::DEAD_SENTINEL) && outputs.eq(expected.iter().copied())
    });
    Topology {
        maple: Some(workload.make_accel()),
        buffers: vec![n * 8, out_bytes],
        ..Topology::new(Vec::new(), bench, verify)
    }
}

/// Cycle at which a [`Runner::Failover`] run kills the victim engine
/// when the scenario carries no explicit fault plan: late enough that
/// registration finished and the pipeline is mid-flight, early enough
/// that plenty of elements remain to migrate.
pub const DEFAULT_CHAIN_KILL_CYCLE: u64 = 20_000;

/// The [`Runner::Chain`] topology, and with `failover` the
/// [`Runner::Failover`] one: the AES→SHA chain on engines 0 and 1; with
/// `failover`, engine 2 is the cold SHA spare the victim (engine 1)
/// migrates onto.
fn chain(scenario: &Scenario, failover: bool) -> Topology {
    let mut accels: Vec<Box<dyn Accelerator>> =
        vec![Box::new(Aes128Accel::new()), Box::new(Sha256Accel::new())];
    if failover {
        accels.push(Box::new(Sha256Accel::new()));
    }
    let (n, batch, costs) = (scenario.queue_size, scenario.batch, scenario.costs);
    let m = n / 2; // AES keeps the size; SHA turns 8 words in into 4 out.
    let data: Rc<[u64]> = scenario.input_words().into();
    // Host reference: AES-ECB then raw-block SHA-256.
    let expected = Workload::Sha.reference_outputs(&Workload::Aes.reference_outputs(&data));
    let bench: Emit = Box::new(move |alloc| {
        let (encrypt, result) = (alloc.queues[0], alloc.queues[2]);
        let producer = runs(0..n, batch).flat_map(move |batch| {
            let input = words(&data, batch.clone());
            push(encrypt, costs.push_loop_alu, batch.start, input)
                .chain(publish(encrypt, batch.end))
        });
        // Every digest word is popped behind its own gate, and the result
        // queue is released once, after the last pop, with no index
        // arithmetic: the chain's recorded numbers pin this sequence.
        let consumer = (0..m).flat_map(move |j| gate_pop(result, costs.pop_loop_alu, j..j + 1));
        let (va, value) = (result.read_index_va, m);
        let mut program = streamed(producer.chain(consumer));
        program.push(Op::Store { va, value });
        program
    });
    // Fig. 5: cohort_register(encrypt_acc, encrypt_fifo, hash_fifo);
    //         cohort_register(hash_acc, hash_fifo, result_fifo);
    let bindings = vec![(0, 0, 1, true), (1, 1, 2, false)];
    let recovery = match failover {
        true => Recovery::Failover {
            victim: 1,
            spare: 2,
        },
        false => Recovery::None,
    };
    let verify: Verify = Box::new(move |_, _, recorded| recorded == expected);
    Topology {
        queues: vec![n, n, m],
        csr: Some(AES_KEY.to_vec()),
        bindings,
        recovery,
        unregister_reversed: true,
        ..Topology::new(accels, bench, verify)
    }
}

/// How a [`Runner::Sharded`] run splits the logical stream and steers the
/// pieces onto engines.
#[derive(Debug, Clone, Copy)]
pub struct ShardSpec {
    /// Number of shards (engines the pool binds). The SoC must be
    /// configured with at least this many engines
    /// ([`SocConfig::engines`]), plus one spare when the fault plan kills
    /// a shard.
    pub shards: usize,
    /// Placement policy.
    pub placement: Placement,
    /// When true, element runs have splitmix64-skewed sizes (mostly
    /// small, occasionally large) instead of uniform ones — the variant
    /// where occupancy-aware placement pulls ahead of round-robin.
    pub skewed: bool,
    /// Extra "LITTLE" cores added to the mesh beyond the shard
    /// producers. Each streams stores through its slice of a 2x-L2
    /// working set — background memory traffic that contends for the
    /// shared cache without participating in the benchmark. The noise
    /// programs are deterministic, so results stay bit-identical for a
    /// given spec.
    pub background_cores: usize,
}

impl ShardSpec {
    /// A spec with `shards` shards, round-robin placement, uniform runs.
    pub fn new(shards: usize) -> Self {
        Self {
            shards,
            placement: Placement::RoundRobin,
            skewed: false,
            background_cores: 0,
        }
    }

    /// Builder-style placement override.
    pub fn with_placement(mut self, placement: Placement) -> Self {
        self.placement = placement;
        self
    }

    /// Builder-style skew toggle.
    pub fn with_skew(mut self, skewed: bool) -> Self {
        self.skewed = skewed;
        self
    }

    /// Builder-style background ("LITTLE") core count.
    pub fn with_background_cores(mut self, n: usize) -> Self {
        self.background_cores = n;
        self
    }
}

/// The 16-core big.LITTLE-style mesh configuration: one benchmark core
/// and 4 "big" producer cores feed 4 sharded engines, while 11 "LITTLE"
/// cores stream background stores through the shared L2 — 16 in-order
/// cores total, placed on the mesh alongside the directory, the engines
/// and the MAPLE unit. This is the standard many-component workload for
/// the step kernel (`results/kernel.md`, the determinism suite and CI all
/// run it).
pub fn mesh16_scenario(queue_size: u64, batch: u64) -> (Scenario, ShardSpec) {
    let mut scenario = Scenario::new(Workload::Aes, queue_size, batch);
    scenario.soc = SocConfig::default().with_engines(MESH16_SHARDS);
    let spec = ShardSpec::new(MESH16_SHARDS).with_background_cores(11);
    (scenario, spec)
}

/// Blocks per element run in the uniform (non-skewed) sharded scenario.
const UNIFORM_CHUNK_BLOCKS: u64 = 4;

/// One contiguous run of accelerator blocks after placement: where its
/// words start in the logical stream, where its input lands in its shard's
/// input ring and where its output appears in the shard's output ring. The
/// index of the chunk in the plan vector is its global sequence number.
#[derive(Debug, Clone, Copy)]
struct ShardChunk {
    shard: usize,
    data_off: u64,
    in_off: u64,
    in_words: u64,
    out_off: u64,
    out_words: u64,
}

/// Splits the scenario's stream into element runs (sizes in accelerator
/// blocks). Uniform: fixed [`UNIFORM_CHUNK_BLOCKS`]-block runs. Skewed:
/// splitmix64-jittered sizes with every fourth run heavy (8–16 blocks,
/// the rest 1–3) — the I-frame-like periodic burst that is the classic
/// adversarial input for blind round-robin: whenever the period is a
/// multiple of the shard count, every heavy run collides on one engine,
/// while load-aware placement keeps shard totals level.
fn shard_chunk_blocks(scenario: &Scenario, skewed: bool) -> Vec<u64> {
    let total = scenario.queue_size / scenario.workload.words_in_per_block();
    let mut out = Vec::new();
    let mut left = total;
    let mut state = scenario.seed ^ 0x5eed_c0ff_ee01_d00d;
    while left > 0 {
        let blocks = if skewed {
            let z = splitmix64(&mut state);
            if out.len().is_multiple_of(4) {
                8 + z % 9
            } else {
                1 + z % 3
            }
        } else {
            UNIFORM_CHUNK_BLOCKS
        };
        let blocks = blocks.min(left);
        out.push(blocks);
        left -= blocks;
    }
    out
}

/// The [`Runner::Sharded`] topology, and the [`Runner::Mesh16`] one under
/// its fixed spec.
fn sharded(scenario: &Scenario, spec: &ShardSpec) -> Topology {
    let wpb_in = scenario.workload.words_in_per_block();
    let wpb_out = scenario.workload.words_out_per_block();

    // A kill fault aimed at a shard engine requires a spare to heal onto.
    let shards = spec.shards;
    let victim = shard_victim(&scenario.soc.faults, shards);
    let engines = scenario.soc.engines;
    let spares = usize::from(victim.is_some());
    let mut pool =
        ShardPool::bind(engines, shards, spares, spec.placement).expect("admitted pools bind");

    // Split, then place every run through the pool (this is where the
    // policies differ), accumulating per-shard ring offsets.
    let mut chunks: Vec<ShardChunk> = Vec::new();
    let mut in_totals = vec![0u64; shards];
    let mut out_totals = vec![0u64; shards];
    for blocks in shard_chunk_blocks(scenario, spec.skewed) {
        let in_words = blocks * wpb_in;
        let out_words = blocks * wpb_out;
        let placed = pool.place(in_words);
        chunks.push(ShardChunk {
            shard: placed.shard,
            data_off: chunks.last().map_or(0, |c| c.data_off + c.in_words),
            in_off: in_totals[placed.shard],
            in_words,
            out_off: out_totals[placed.shard],
            out_words,
        });
        in_totals[placed.shard] += in_words;
        out_totals[placed.shard] += out_words;
    }

    // Producer programs: shard `s`'s core streams its runs in shard-FIFO
    // order, publishing the write index once `batch` words have gathered
    // since the last publication, and at end of stream. Data stores always
    // precede the index publication (fence) — the data-before-pointer
    // contract, per shard.
    let data: Rc<[u64]> = scenario.input_words().into();
    let (costs, batch) = (scenario.costs, scenario.batch);
    let mut cores: Vec<Emit> = Vec::new();
    for (s, &total) in in_totals.iter().enumerate() {
        let mine: Vec<ShardChunk> = chunks.iter().filter(|c| c.shard == s).copied().collect();
        let data = Rc::clone(&data);
        cores.push(Box::new(move |alloc| {
            let q = alloc.queues[s];
            let mut published = 0;
            let pushes = mine.into_iter().flat_map(move |c| {
                let pushed = c.in_off + c.in_words;
                let due = pushed - published >= batch || pushed == total;
                if due {
                    published = pushed;
                }
                let input = words(&data, c.data_off..c.data_off + c.in_words);
                let publication = due.then(|| publish(q, pushed)).into_iter().flatten();
                push(q, costs.push_loop_alu, c.in_off, input).chain(publication)
            });
            fenced(pushes)
        }));
    }

    // Background ("LITTLE") cores: each streams stores through its own
    // slice of a noise working set of twice the L2, twice over — cache
    // contention that runs alongside the benchmark without feeding it.
    let background = spec.background_cores as u64;
    let noise_bytes = 2 * scenario.soc.l2.capacity_bytes;
    for b in 0..background {
        cores.push(Box::new(move |alloc| {
            let (buf, lines) = (alloc.buffers[0], noise_bytes / 64);
            let span = lines / background;
            let first = b * span;
            let stores = (0..2u64).flat_map(move |pass| {
                (first..first + span.max(1)).map(move |line| Op::Store {
                    va: buf + (line % lines) * 64,
                    value: b << 32 | pass << 24 | line,
                })
            });
            fenced(stores)
        }));
    }

    // The benchmark core pops in global sequence order — the merge,
    // realised as WaitGe gates against each shard's cumulative output
    // index — then releases every output ring.
    let queues: Vec<u64> = in_totals.iter().chain(&out_totals).copied().collect();
    let plan = chunks.clone();
    let bench: Emit = Box::new(move |alloc| {
        let outs: Vec<QueueDescriptor> = alloc.queues[shards..].to_vec();
        let releases = outs.clone().into_iter().zip(out_totals);
        let gates = plan.into_iter().flat_map(move |c| {
            let slots = c.out_off..c.out_off + c.out_words;
            gate_pop(outs[c.shard], costs.pop_loop_alu, slots)
        });
        let mut program = streamed(gates);
        for (q, popped) in releases {
            program.extend(release(q, popped));
        }
        program
    });

    let expected = scenario.workload.reference_outputs(&data);
    let verify: Verify = Box::new(move |sys, alloc, recorded| {
        // Reassembly cross-check through the merge structure. Shards race
        // each other in reality; feeding the merge one run per shard in
        // turn exercises maximal cross-shard interleaving while preserving
        // each shard's FIFO order.
        let mut per_shard = vec![VecDeque::new(); shards];
        for (seq, c) in chunks.iter().enumerate() {
            per_shard[c.shard].push_back((seq as u64, *c));
        }
        let mut merge = SeqMerge::new();
        let mut merged = Vec::new();
        while per_shard.iter().any(|q| !q.is_empty()) {
            for (s, pending) in per_shard.iter_mut().enumerate() {
                if let Some((seq, c)) = pending.pop_front() {
                    let words: Vec<u64> = (0..c.out_words)
                        .map(|w| {
                            let va = alloc.queues[shards + s].element_va(c.out_off + w);
                            let bytes = sys.read_guest(va, 8);
                            u64::from_le_bytes(bytes.try_into().expect("8B"))
                        })
                        .collect();
                    merge.push(seq, (s, c.in_words, words)).expect("unique seq");
                }
            }
            for (_, (shard, in_words, words)) in merge.drain_ready() {
                pool.complete(shard, in_words);
                merged.extend(words);
            }
        }
        let mirror_drained = (0..shards).all(|s| pool.occupancy(s) == 0);
        recorded == expected && merged == expected && merge.is_drained() && mirror_drained
    });

    // Per-shard rings sized for the whole per-shard stream: producers
    // never wrap or block, and an outage confines loss to its shard. Every
    // shard engine registers (and unregisters) in shard order; a kill
    // arms the victim with the spare as its failover target.
    let bindings = (0..shards).map(|s| (s, s, shards + s, true));
    let recovery = victim.map_or(Recovery::None, |victim| Recovery::Failover {
        victim,
        spare: shards,
    });
    let accels = (0..engines).map(|_| scenario.workload.make_accel());
    Topology {
        queues,
        csr: scenario.workload.csr(),
        bindings: bindings.collect(),
        // The noise working set, after everything else.
        buffers: vec![noise_bytes; usize::from(background > 0)],
        recovery,
        cores,
        ..Topology::new(accels.collect(), bench, verify)
    }
}

/// A fully custom single-engine run: any accelerator, any input stream,
/// any expected output — used by the ablation benches and the STFT / null
/// accelerator experiments.
pub struct CustomRun {
    /// The accelerator to host behind the Cohort engine.
    pub accel: Box<dyn cohort_accel::Accelerator>,
    /// Optional CSR configuration buffer.
    pub csr: Option<Vec<u8>>,
    /// Input words the core pushes.
    pub input: Vec<u64>,
    /// Expected output words (verified against what the core pops).
    pub expected: Vec<u64>,
    /// Pointer-update batching factor.
    pub batch: u64,
    /// RCM backoff window.
    pub backoff: u64,
    /// SoC configuration.
    pub soc: SocConfig,
    /// Mapping policy.
    pub policy: MapPolicy,
    /// When true, the run records the structured event trace.
    pub trace: bool,
}

impl CustomRun {
    /// Builds a custom run with platform defaults.
    pub fn new(
        accel: Box<dyn cohort_accel::Accelerator>,
        input: Vec<u64>,
        expected: Vec<u64>,
    ) -> Self {
        Self {
            accel,
            csr: None,
            input,
            expected,
            batch: 64,
            backoff: DEFAULT_BACKOFF,
            soc: SocConfig::default(),
            policy: MapPolicy::Eager,
            trace: false,
        }
    }

    /// Executes the run on the simulated SoC.
    ///
    /// # Panics
    /// Panics if the benchmark does not complete within the cycle budget.
    pub fn run(self) -> RunResult {
        let (n, m) = (self.input.len() as u64, self.expected.len() as u64);
        // The platform `run_topology` reads; its workload goes unread.
        let platform = Scenario {
            soc: self.soc,
            policy: self.policy,
            backoff: self.backoff,
            trace: self.trace,
            ..Scenario::new(Workload::Sha, n, self.batch)
        };
        let (batch, costs) = (platform.batch, platform.costs);
        let input: Rc<[u64]> = self.input.into();
        // A custom run stores its indices with no index arithmetic, and
        // pops and releases its output a batch at a time: the recorded
        // custom rows of `scenario_golden` pin this sequence.
        let bench: Emit = Box::new(move |alloc| {
            let (in_q, out_q) = (alloc.queues[0], alloc.queues[1]);
            let producer = runs(0..n, batch).flat_map(move |run| {
                let (va, value) = (in_q.write_index_va, run.end);
                let publication = [Op::Fence, Op::Store { va, value }];
                let data = words(&input, run.clone());
                push(in_q, costs.push_loop_alu, run.start, data).chain(publication)
            });
            let consumer = runs(0..m, batch).flat_map(move |run| {
                let (va, value) = (out_q.read_index_va, run.end);
                gate_pop(out_q, costs.pop_loop_alu, run).chain([Op::Store { va, value }])
            });
            streamed(producer.chain(consumer))
        });
        let topo = Topology::single(self.accel, [n, m], self.csr, bench, self.expected);
        run_topology(&platform, topo)
    }
}

/// Which scenario runner [`run_scenario`] executes a [`Scenario`] with: the
/// declarative name shared by `socrun --mode` and the fleet spec's
/// `runner =` key, so every scenario is *constructed from parameters*
/// instead of being a one-off hand-written function call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Runner {
    /// The Cohort-API benchmark (paper §5.3 "Benchmark Implementation in
    /// Cohort"): SPSC queues + `cohort_register`, pushes with batched
    /// write-index publication, pops with batched read-index release.
    Cohort,
    /// The MMIO baseline (§5.1): word-at-a-time, fully blocking accesses,
    /// output received before the next block's input ("the core cannot
    /// achieve memory-level parallelism").
    Mmio,
    /// The coherent-DMA baseline (§5.1): the core stages input in memory,
    /// then programs MAPLE per 256-byte block (MMIO writes + API software
    /// cost) and waits for completion; results are stored coherently and
    /// read back at the end.
    Dma,
    /// Transparent accelerator chaining (paper Fig. 5 / §4.5): the core
    /// pushes plaintext into `encrypt_fifo`; an AES Cohort engine produces
    /// ciphertext into `hash_fifo`; a SHA Cohort engine consumes it — engine
    /// to engine, with no software in between — and the core pops digests
    /// from `result_fifo`. Verified against host-side AES-then-SHA, so
    /// `queue_size` must be whole SHA blocks whatever the workload says.
    Chain,
    /// The Cohort benchmark while a second Ariane core (the platform has
    /// two, Fig. 2) thrashes the shared L2 with streaming stores — a
    /// multicore-interference study beyond the paper's single-tenant
    /// numbers. Same benchmark program as [`Runner::Cohort`]; compare the two
    /// results' cycles for the slowdown, and read the noise core's stores
    /// from [`RunResult::counters`].
    Interfered,
    /// The Cohort benchmark under the fault-injection plan carried in
    /// `scenario.soc.faults`, with the full recovery stack armed:
    ///
    /// * the engine forward-progress watchdog ([`Scenario::watchdog`], or
    ///   [`CHAOS_DEFAULT_WATCHDOG`] when 0);
    /// * demand paging whose swap map parks each storm-evicted page's
    ///   frame, so it comes back with its contents;
    /// * storms that evict the queues' data pages round-robin;
    /// * the error-interrupt action with bounded retry (2) and a software
    ///   fallback that recomputes the whole output stream and publishes the
    ///   final write index — the graceful-degradation contract.
    ///
    /// The run must still record the exact fault-free output: chaos is
    /// allowed to cost cycles, never correctness.
    Chaos,
    /// The [`Runner::Chain`] scenario with a fail-stop fault killing the
    /// middle (SHA, engine 1) engine mid-pipeline and the failover stack
    /// armed: a third, cold-spare SHA engine; the victim's forward-progress
    /// watchdog (quiesce + drain + spill on trip); and the failover
    /// orchestrator on the victim's error IRQ, which checkpoints the
    /// authoritative queue indices from coherent memory, fences the victim
    /// behind a bumped epoch, and rebinds the same descriptors on the spare.
    ///
    /// The run must record the exact fault-free digest stream — failover is
    /// allowed to cost cycles, never elements.
    ///
    /// When `scenario.soc.faults` is empty a single
    /// `kill@`[`DEFAULT_CHAIN_KILL_CYCLE`]`:1` fault is injected; pass an
    /// explicit plan to control timing.
    Failover,
    /// The coherent-DMA (decoupled access-execute) baseline of
    /// [`Runner::Dma`] under the fault plan in `scenario.soc.faults`,
    /// hardened for MAPLE faults: every `DMA_DONE` completion word is
    /// recorded, and the final outputs are read back from guest memory after
    /// the run.
    ///
    /// An injected stall only delays completion, so a stalled run still
    /// verifies. A fail-stopped MAPLE answers its blocking MMIO with
    /// [`cohort_maple::DEAD_SENTINEL`] instead of holding the core forever —
    /// the run always terminates, and the sentinel in the recorded `DMA_DONE`
    /// stream is the clean error report software acts on (`verified` is then
    /// false and `maple.fail_stops` counts the abort).
    DmaChaos,
    /// Multi-engine sharded throughput: one logical stream, split at
    /// element-run granularity by a driver-level [`ShardPool`] onto the
    /// [`ShardSpec`]'s `shards` engines, reassembled in global order by a
    /// sequence-tagged merge.
    ///
    /// Faithful to how the paper scales (§6: one software thread per engine),
    /// each shard gets a dedicated producer core that streams its assigned runs
    /// into the shard's private input ring; the benchmark core registers every
    /// engine, then pops all output rings *in global sequence order* — the
    /// program realisation of the merge — so `recorded` is the logical stream
    /// and latency includes reassembly. Rings are sized for the whole per-shard
    /// stream, so producers never block and a dead shard can stall only its own
    /// elements.
    ///
    /// Failover composes: when the fault plan fail-stops a shard engine, that
    /// shard is armed (watchdog + checkpoint spill) and its queues migrate onto
    /// the spare engine (index `shards`) via the epoch-fenced failover path;
    /// the merge then drains the spare's output with the digest unchanged.
    ///
    /// Verification is twofold: the benchmark core's in-order pops against the
    /// host reference, and an explicitly reassembled copy — per-shard FIFO
    /// streams read back from guest memory are fed through the sequence-tagged
    /// merge ([`cohort_queue::merge`]) in a worst-case cross-shard interleaving
    /// and must reproduce the same logical stream. The pool's occupancy mirror
    /// is drained with each merged run and must return to zero.
    Sharded,
    /// 16-core big.LITTLE mesh: the [`Runner::Sharded`] run over 4 shards
    /// plus 11 noise cores ([`mesh16_scenario`]).
    Mesh16,
}

impl Runner {
    /// Every runner, in declaration order.
    pub const ALL: [Runner; 10] = [
        Runner::Cohort,
        Runner::Mmio,
        Runner::Dma,
        Runner::Chain,
        Runner::Interfered,
        Runner::Chaos,
        Runner::Failover,
        Runner::DmaChaos,
        Runner::Sharded,
        Runner::Mesh16,
    ];

    /// The declarative name (`socrun --mode`, fleet `runner =`).
    pub fn name(&self) -> &'static str {
        match self {
            Runner::Cohort => "cohort",
            Runner::Mmio => "mmio",
            Runner::Dma => "dma",
            Runner::Chain => "chain",
            Runner::Interfered => "interfered",
            Runner::Chaos => "chaos",
            Runner::Failover => "failover",
            Runner::DmaChaos => "dma-chaos",
            Runner::Sharded => "shard",
            Runner::Mesh16 => "mesh16",
        }
    }

    /// Parses a runner name.
    pub fn parse(s: &str) -> Option<Runner> {
        Runner::ALL.iter().copied().find(|r| r.name() == s)
    }

    /// True for runners that host the workload behind Cohort engines at
    /// all (false for the MMIO/DMA baselines, which use MAPLE).
    pub fn uses_cohort_engines(&self) -> bool {
        !matches!(self, Runner::Mmio | Runner::Dma | Runner::DmaChaos)
    }
}

impl std::fmt::Display for Runner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The shard engine a run's fault plan kills, if any: the first kill
/// aimed below `shards`.
fn shard_victim(faults: &FaultPlan, shards: usize) -> Option<usize> {
    faults.schedule().iter().find_map(|ev| match ev.kind {
        FaultKind::KillEngine { engine } if (engine as usize) < shards => Some(engine as usize),
        _ => None,
    })
}

/// Engines the SoC must instantiate for a sharded run: one per shard,
/// plus one spare when the fault plan kills a shard engine (the failover
/// target). What `socrun --shards` and the fleet loader size the pool
/// with when no explicit engine count is given.
pub fn sharded_engines_for(faults: &FaultPlan, shards: usize) -> usize {
    shards + usize::from(shard_victim(faults, shards).is_some())
}

/// Why [`admit`] refused a run: one variant per rule, carrying the facts
/// that broke it. The caller knows (and says) which runner was asked.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Refusal {
    /// A size that is not a whole number of accelerator blocks.
    Granularity {
        /// Which size: `"queue"` or `"batch"`.
        what: &'static str,
        /// The size asked for.
        value: u64,
        /// Required multiple.
        multiple: u64,
    },
    /// A mapping policy the runner cannot run under.
    Policy(MapPolicy),
    /// A fault the runner has no recovery story for — it would wedge or
    /// trivially fail the run.
    Fault {
        /// The fault label (`kill`, `maple-kill`, …).
        fault: &'static str,
        /// Why the combination is refused.
        why: &'static str,
    },
    /// A kill fault aimed at an engine the run does not bind as a shard.
    KillTarget {
        /// Requested engine index.
        engine: u64,
        /// Shard engines the run binds.
        engines: usize,
    },
    /// The shard pool cannot bind: no shards, or fewer engines than shards
    /// plus the failover spare a shard kill needs.
    Pool(ShardError),
}

impl std::fmt::Display for Refusal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match *self {
            Refusal::Granularity {
                what,
                value,
                multiple,
            } => write!(
                f,
                "{what} {value} is not a multiple of {multiple} (whole accelerator blocks)"
            ),
            Refusal::Policy(policy) => write!(
                f,
                "cannot run under {policy:?} mapping (MAPLE's DMA has no demand-paging path)"
            ),
            Refusal::Fault { fault, why } => write!(f, "{fault} fault is not supported: {why}"),
            Refusal::KillTarget { engine, engines } => write!(
                f,
                "kill targets engine {engine} but the run binds {engines} shard engine(s)"
            ),
            Refusal::Pool(err) => err.fmt(f),
        }
    }
}

impl std::error::Error for Refusal {}

/// Shard engines of the [`Runner::Mesh16`] geometry.
const MESH16_SHARDS: usize = 4;

/// The admission check: may `runner` run `scenario` (under `shard`, for
/// [`Runner::Sharded`])? Each rule names an input that would otherwise
/// burn its whole cycle budget and die in "scenario did not complete",
/// wedge behind a dead engine, or fail verification by construction.
/// [`run_scenario`] asks first and returns the answer. Outside input
/// (`socrun`, the fleet loader) is refused through this same function,
/// with its own context attached.
///
/// # Errors
/// The first broken rule, in the order policy, queue, batch, faults, pool.
pub fn admit(
    runner: Runner,
    scenario: &Scenario,
    shard: Option<&ShardSpec>,
) -> Result<(), Refusal> {
    // MAPLE's DMA has no demand-paging path (and no engine interrupt to
    // carry one), so a lazily mapped buffer is a guaranteed wedge, fault
    // plan or not. Every Cohort-engine runner demand-pages, and MMIO
    // touches no memory.
    if scenario.policy == MapPolicy::Lazy && matches!(runner, Runner::Dma | Runner::DmaChaos) {
        return Err(Refusal::Policy(scenario.policy));
    }
    // An accelerator answers whole blocks only; the words of a partial one
    // are never popped. The chains run AES into SHA whatever the
    // scenario's workload says, so they need whole SHA blocks.
    let multiple = match runner {
        Runner::Chain | Runner::Failover => Workload::Sha.words_in_per_block(),
        _ => scenario.workload.words_in_per_block(),
    };
    let whole_blocks = |what, value: u64| {
        if value.is_multiple_of(multiple) {
            return Ok(());
        }
        Err(Refusal::Granularity {
            what,
            value,
            multiple,
        })
    };
    whole_blocks("queue", scenario.queue_size)?;
    // The single-engine program pops what a batch produced before it
    // pushes the next, so a batch that ends mid-block waits forever (one
    // that covers the whole queue ends with it). The other programs
    // publish per batch but pop per block or per run.
    let pops_per_batch = matches!(runner, Runner::Cohort | Runner::Interfered | Runner::Chaos);
    if pops_per_batch && scenario.batch < scenario.queue_size {
        whole_blocks("batch", scenario.batch)?;
    }

    let shards = match runner {
        Runner::Sharded => shard.map_or(1, |s| s.shards),
        Runner::Mesh16 => MESH16_SHARDS,
        _ => 0,
    };
    let mut spares = 0;
    // Kills and MAPLE faults are explicit-only (the random schedule never
    // draws them), so the explicit events are all there is to check.
    for ev in &scenario.soc.faults.events {
        let why = match (ev.kind, runner) {
            (FaultKind::KillEngine { engine }, Runner::Sharded | Runner::Mesh16) => {
                if engine as usize >= shards {
                    let engines = shards;
                    return Err(Refusal::KillTarget { engine, engines });
                }
                spares = 1;
                continue;
            }
            (FaultKind::KillEngine { engine: 1 }, Runner::Failover) => continue,
            (FaultKind::KillEngine { .. }, Runner::Failover) => {
                "the failover chain arms only the middle (SHA, engine 1) \
                 engine; kill@C:1 is the survivable fault"
            }
            (FaultKind::KillEngine { .. }, _) => {
                "no failover stack is armed; a fail-stop would wedge the run"
            }
            (FaultKind::MapleStall { .. } | FaultKind::KillMaple, r) if r != Runner::DmaChaos => {
                "only the dma-chaos runner reads back MAPLE's dead-unit \
                 sentinel instead of hanging"
            }
            _ => continue,
        };
        let fault = ev.kind.label();
        return Err(Refusal::Fault { fault, why });
    }
    // The mesh sizes its own pool; a sharded run brings `soc.engines`.
    if runner == Runner::Sharded {
        let engines = scenario.soc.engines;
        if shards == 0 {
            return Err(Refusal::Pool(ShardError::NoShards));
        }
        if engines < shards + spares {
            return Err(Refusal::Pool(ShardError::NotEnoughEngines {
                requested: shards,
                engines,
                spares,
            }));
        }
    }
    Ok(())
}

/// Runs `scenario` through `runner` — the one way into a run, behind
/// `socrun`, the fleet runner, the figure sweep and every test. `shard` parameterises
/// the sharded runner (ignored elsewhere); [`Runner::Mesh16`] builds its
/// own 4-shard, 11-noise-core spec and forces the engine count the mesh
/// needs.
///
/// # Errors
/// Whatever [`admit`] refuses, before anything is built.
///
/// # Panics
/// Panics if an admitted run exceeds its cycle budget.
pub fn run_scenario(
    runner: Runner,
    scenario: &Scenario,
    shard: Option<&ShardSpec>,
) -> Result<RunResult, Refusal> {
    admit(runner, scenario, shard)?;
    let mut scenario = scenario.clone();
    let topology = match runner {
        Runner::Mmio => mmio(&scenario),
        Runner::Dma | Runner::DmaChaos => dma(&scenario, runner == Runner::DmaChaos),
        Runner::Cohort => cohort(&scenario),
        Runner::Interfered => interfered(&scenario),
        Runner::Chaos => chaos(&scenario),
        Runner::Chain => chain(&scenario, false),
        Runner::Failover => {
            if scenario.soc.faults.is_empty() {
                let kill = FaultKind::KillEngine { engine: 1 };
                scenario.soc.faults = FaultPlan::default().at(DEFAULT_CHAIN_KILL_CYCLE, kill);
            }
            chain(&scenario, true)
        }
        Runner::Sharded => sharded(&scenario, shard.unwrap_or(&ShardSpec::new(1))),
        Runner::Mesh16 => {
            let (_, spec) = mesh16_scenario(scenario.queue_size, scenario.batch);
            // A kill fault on a mesh shard needs the failover spare on
            // top of the mesh's fixed 4-engine pool; fault-free meshes
            // keep exactly the canonical geometry (and its baselines).
            // `admit` refused any kill outside the 4 shards, so this count
            // is the one its pool rule asks of a sharded run.
            scenario.soc.engines = sharded_engines_for(&scenario.soc.faults, spec.shards);
            sharded(&scenario, &spec)
        }
    };
    Ok(run_topology(&scenario, topology))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// An admitted run through the one door.
    fn run(runner: Runner, scenario: &Scenario) -> RunResult {
        run_scenario(runner, scenario, None).expect("admitted")
    }

    /// A virtual address no allocation maps.
    const UNMAPPED: u64 = 0x3f00_0000;

    /// Runs the program `emit` makes on an eager one-engine system armed as
    /// [`run_topology`] arms a run without storms.
    fn run_eager_without_storms(emit: impl FnOnce(&mut SimSystem) -> Program) {
        let mut sys = SimSystem::build(SystemSpec {
            engine_accels: vec![Workload::Aes.make_accel()],
            ..SystemSpec::default()
        });
        let program = emit(&mut sys);
        let kernel = arm(&mut sys, program, false);
        sys.soc.set_os(Box::new(kernel));
        sys.soc.run(1_000_000);
    }

    #[test]
    #[should_panic(expected = "with no handler")]
    fn an_eager_run_without_storms_still_panics_on_a_core_page_fault() {
        run_eager_without_storms(|_| {
            let mut program = Program::new();
            let (va, value) = (UNMAPPED, 1);
            program.push(Op::Store { va, value });
            program
        });
    }

    #[test]
    #[should_panic(expected = "no handler for irq")]
    fn an_irq_with_no_installed_action_still_panics() {
        // The engine faults on the queues' first touch and interrupts the
        // core, which waits on a word nobody writes.
        run_eager_without_storms(|sys| {
            let q = cohort_queue::QueueLayout::standard(UNMAPPED, 8, 64).descriptor;
            let flag = sys.alloc_buffer(8, 64);
            let mut program = sys.drivers[0].register_ops(sys.space.root_pa(), &q, &q, None, 0);
            program.push(Op::WaitGe { va: flag, value: 1 });
            program
        });
    }

    #[test]
    fn cohort_sha_small_end_to_end() {
        let scenario = Scenario::new(Workload::Sha, 64, 8);
        let r = run(Runner::Cohort, &scenario);
        assert!(r.verified, "digest mismatch");
        assert_eq!(r.recorded.len(), 32);
        assert!(r.cycles > 0);
    }

    #[test]
    fn cohort_aes_small_end_to_end() {
        let scenario = Scenario::new(Workload::Aes, 64, 4);
        let r = run(Runner::Cohort, &scenario);
        assert!(r.verified, "ciphertext mismatch");
        assert_eq!(r.recorded.len(), 64);
    }

    #[test]
    fn mmio_sha_small_end_to_end() {
        let scenario = Scenario::new(Workload::Sha, 64, 8);
        let r = run(Runner::Mmio, &scenario);
        assert!(r.verified, "digest mismatch");
    }

    #[test]
    fn dma_aes_small_end_to_end() {
        let scenario = Scenario::new(Workload::Aes, 64, 8);
        let r = run(Runner::Dma, &scenario);
        assert!(r.verified, "ciphertext mismatch");
    }

    #[test]
    fn chained_aes_sha_engines_end_to_end() {
        let scenario = Scenario::new(Workload::Sha, 64, 16);
        let r = run(Runner::Chain, &scenario);
        assert!(r.verified, "chained digest mismatch");
        assert_eq!(r.recorded.len(), 32);
    }

    #[test]
    fn sharded_aes_small_end_to_end() {
        let mut scenario = Scenario::new(Workload::Aes, 64, 4);
        scenario.soc = SocConfig::default().with_engines(2);
        let r =
            run_scenario(Runner::Sharded, &scenario, Some(&ShardSpec::new(2))).expect("pool binds");
        assert!(r.verified, "sharded ciphertext mismatch");
        assert_eq!(r.recorded.len(), 64);
    }

    #[test]
    fn sharded_sha_handles_non_unit_block_ratio() {
        let mut scenario = Scenario::new(Workload::Sha, 64, 8);
        scenario.soc = SocConfig::default().with_engines(2);
        let r =
            run_scenario(Runner::Sharded, &scenario, Some(&ShardSpec::new(2))).expect("pool binds");
        assert!(r.verified, "sharded digest mismatch");
        assert_eq!(r.recorded.len(), 32);
    }

    #[test]
    fn mesh16_big_little_end_to_end() {
        let (scenario, _) = mesh16_scenario(64, 4);
        let r = run(Runner::Mesh16, &scenario);
        assert!(r.verified, "mesh16 ciphertext mismatch");
        assert_eq!(r.recorded.len(), 64);
    }

    #[test]
    fn sharded_run_rejects_oversubscribed_pool() {
        let mut scenario = Scenario::new(Workload::Aes, 64, 4);
        scenario.soc = SocConfig::default().with_engines(2);
        let err = run_scenario(Runner::Sharded, &scenario, Some(&ShardSpec::new(3))).unwrap_err();
        assert!(matches!(
            err,
            Refusal::Pool(ShardError::NotEnoughEngines {
                requested: 3,
                engines: 2,
                spares: 0
            })
        ));
    }

    /// The refusal table at the first door: one inadmissible input per
    /// row, and `run_scenario` must return the rule that names it (the
    /// fleet loader and `socrun` are driven over the same inputs in
    /// `crates/bench/tests/socrun_cli.rs`).
    #[test]
    fn run_scenario_refuses_inadmissible_inputs_by_rule() {
        use Runner::*;
        use Workload::{Aes, Sha};
        let size = |what, value, multiple| Refusal::Granularity {
            what,
            value,
            multiple,
        };
        let fault = |fault| Refusal::Fault { fault, why: "" };
        let faulty = |wl, spec| {
            let mut s = Scenario::new(wl, 64, 8);
            s.soc.faults = FaultPlan::parse(spec).expect("fault grammar");
            s
        };
        let mut lazy = Scenario::new(Aes, 64, 8);
        lazy.policy = MapPolicy::Lazy;
        let mut rows: Vec<(Runner, Scenario, Refusal)> = Vec::new();
        for r in [Cohort, Mmio, Dma, Interfered, Chaos, DmaChaos] {
            rows.push((r, Scenario::new(Sha, 60, 8), size("queue", 60, 8)));
            rows.push((r, Scenario::new(Aes, 63, 2), size("queue", 63, 2)));
        }
        for r in [Chain, Failover] {
            rows.push((r, Scenario::new(Aes, 60, 2), size("queue", 60, 8)));
        }
        for r in [Cohort, Interfered, Chaos] {
            rows.push((r, Scenario::new(Sha, 64, 4), size("batch", 4, 8)));
            rows.push((r, Scenario::new(Aes, 64, 3), size("batch", 3, 2)));
        }
        for r in [Cohort, Chain, Mmio] {
            rows.push((r, faulty(Sha, "kill@2000:0"), fault("kill")));
        }
        rows.push((Failover, faulty(Sha, "kill@2000:0"), fault("kill")));
        for r in [Cohort, Mmio, Dma, Chaos, Sharded] {
            rows.push((r, faulty(Aes, "maple-kill@100"), fault("maple-kill")));
            rows.push((r, faulty(Aes, "maple-stall@100:50"), fault("maple-stall")));
        }
        let target = |engine, engines| Refusal::KillTarget { engine, engines };
        let mut two_shards = faulty(Aes, "kill@2000:5");
        two_shards.soc.engines = 2;
        rows.push((Sharded, two_shards.clone(), target(5, 2)));
        rows.push((Mesh16, faulty(Aes, "kill@2000:4"), target(4, 4)));
        two_shards.soc.faults = FaultPlan::parse("kill@2000:1").expect("fault grammar");
        let no_spare = ShardError::NotEnoughEngines {
            requested: 2,
            engines: 2,
            spares: 1,
        };
        rows.push((Sharded, two_shards, Refusal::Pool(no_spare)));
        for r in [Dma, DmaChaos] {
            rows.push((r, lazy.clone(), Refusal::Policy(MapPolicy::Lazy)));
        }

        for (runner, scenario, want) in rows {
            let got = run_scenario(runner, &scenario, Some(&ShardSpec::new(2)))
                .expect_err("must be refused before anything is simulated");
            let same_rule = match (got, want) {
                (Refusal::Fault { fault: a, .. }, Refusal::Fault { fault: b, .. }) => a == b,
                _ => got == want,
            };
            assert!(same_rule, "{runner}: got {got:?} ({got}), want {want:?}");
        }
    }

    #[test]
    fn runner_names_round_trip() {
        for r in Runner::ALL {
            assert_eq!(Runner::parse(r.name()), Some(r), "{r} must round-trip");
        }
        assert_eq!(Runner::parse("sharded"), None);
        assert_eq!(Runner::parse("nope"), None);
    }

    #[test]
    fn run_scenario_dispatch_matches_direct_call() {
        let scenario = Scenario::new(Workload::Aes, 64, 8);
        let direct = run_topology(&scenario, cohort(&scenario));
        let dispatched = run_scenario(Runner::Cohort, &scenario, None).expect("no shard binding");
        assert_eq!(direct.cycles, dispatched.cycles);
        assert_eq!(direct.checksum, dispatched.checksum);
    }

    #[test]
    fn sharded_engines_add_a_spare_only_for_shard_kills() {
        let none = FaultPlan::default();
        assert_eq!(sharded_engines_for(&none, 4), 4);
        let shard_kill = FaultPlan::default().at(10_000, FaultKind::KillEngine { engine: 1 });
        assert_eq!(sharded_engines_for(&shard_kill, 4), 5);
        let off_pool = FaultPlan::default().at(10_000, FaultKind::KillEngine { engine: 9 });
        assert_eq!(sharded_engines_for(&off_pool, 4), 4);
    }

    #[test]
    fn cohort_beats_mmio_at_batch_64() {
        let scenario = Scenario::new(Workload::Sha, 256, 64);
        let c = run(Runner::Cohort, &scenario);
        let m = run(Runner::Mmio, &scenario);
        assert!(c.verified && m.verified);
        assert!(
            m.cycles > c.cycles,
            "MMIO ({}) should be slower than Cohort ({})",
            m.cycles,
            c.cycles
        );
    }

    #[test]
    fn batching_improves_cohort_latency() {
        let small = run(Runner::Cohort, &Scenario::new(Workload::Aes, 256, 2));
        let large = run(Runner::Cohort, &Scenario::new(Workload::Aes, 256, 64));
        assert!(small.verified && large.verified);
        assert!(
            small.cycles > large.cycles,
            "batch=2 ({}) should be slower than batch=64 ({})",
            small.cycles,
            large.cycles
        );
    }
}
