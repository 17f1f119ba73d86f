//! The paper's benchmark scenarios (§5.3) as simulated programs.
//!
//! Each scenario assembles a [`crate::system::SimSystem`], generates a
//! deterministic input stream, builds the core program for one of the three
//! communication APIs — Cohort, MMIO, coherent DMA — runs to completion and
//! verifies the popped results against a host-side reference computation.
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
use cohort_os::driver::{
    fault_in, swap_store, FailoverConfig, Placement, ProgressProbe, ShardError, ShardPool,
    SharedVm, SoftwareFallback, SwapStore,
};
use cohort_os::sv39::PAGE_BYTES;
use cohort_os::CohortDriver;
use cohort_queue::{QueueDescriptor, QueueLayout, SeqMerge};
use cohort_sim::component::CompId;
use cohort_sim::config::SocConfig;
use cohort_sim::core::InOrderCore;
use cohort_sim::faultinject::{splitmix64, FaultInjector, FaultKind, FaultPlan, StormHook};
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

// The assembly pipeline. Every runner below is these stages, in this
// order, and says only what differs between runners:
//
//   1. build system    — `build_system`: engines / MAPLE / extra cores
//   2. stage CSR/key   — `stage_csr` (guest buffer), `maple_csr_ops` (MMIO)
//   3. emit program(s) — driver ops as literal segments, the loop as a
//                        stream composed of `push`, `publish`, `gate_pop`
//                        and `release` (`single_engine_program`, and the
//                        chain, sharded and custom runners); the MMIO and
//                        DMA baselines stream their own MMIO loops
//   4. arm recovery    — `arm_failover`, then `arm` (program load + demand
//                        paging; there is no way to load the benchmark
//                        program that skips the paging hook)
//   5. run, 6. collect — `run_and_collect`, the one place a `RunResult`
//                        is made; the runner supplies the verifier
//
// Allocation order and the emitted `Op` sequence are observable — they
// fix physical addresses, cache-set conflicts and therefore cycles — so
// the order in which a runner calls into the stages is deliberate.

/// Stage 1: the SoC and its accelerator hosts — one Cohort engine per
/// entry of `engine_accels`, the MAPLE unit if any, and `extra_cores`
/// idle cores whose programs are loaded later.
fn build_system_with(
    cfg: SocConfig,
    policy: MapPolicy,
    engine_accels: Vec<Box<dyn Accelerator>>,
    maple_accel: Option<Box<dyn Accelerator>>,
    extra_cores: usize,
) -> SimSystem {
    let spec = SystemSpec {
        cfg,
        policy,
        engine_accels,
        maple_accel,
        extra_cores,
    };
    SimSystem::build(spec)
}

/// [`build_system_with`] the scenario's SoC configuration and map policy.
fn build_system(
    scenario: &Scenario,
    engine_accels: Vec<Box<dyn Accelerator>>,
    maple_accel: Option<Box<dyn Accelerator>>,
    extra_cores: usize,
) -> SimSystem {
    let (cfg, policy) = (scenario.soc.clone(), scenario.policy);
    build_system_with(cfg, policy, engine_accels, maple_accel, extra_cores)
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

/// The single-engine Cohort loop (§5.3): per batch, push it and publish
/// the write index, pop every output block it completes, then release
/// what has been popped.
fn push_pop_body(
    scenario: &Scenario,
    data: &Rc<[u64]>,
    in_q: QueueDescriptor,
    out_q: QueueDescriptor,
) -> impl Iterator<Item = Op> {
    let (m, costs) = (scenario.output_words(), scenario.costs);
    let wpb_in = scenario.workload.words_in_per_block();
    let wpb_out = scenario.workload.words_out_per_block();
    // The output words the first `pushed` input words complete.
    let done = move |pushed: u64| (pushed * wpb_out / wpb_in).min(m);
    let data = Rc::clone(data);
    runs(0..scenario.queue_size, scenario.batch).flat_map(move |batch| {
        let popped = done(batch.end);
        let blocks = runs(done(batch.start)..popped, wpb_out);
        let input = words(&data, batch.clone());
        let released = (popped > 0).then(|| release(out_q, popped));
        push(in_q, costs.push_loop_alu, batch.start, input)
            .chain(publish(in_q, batch.end))
            .chain(blocks.flat_map(move |b| gate_pop(out_q, costs.pop_loop_alu, b)))
            .chain(released.into_iter().flatten())
    })
}

/// Stages 2–3 of the single-engine Cohort runners: the queue pair and the
/// CSR, then `cohort_register` → watchdog (when the runner arms one) →
/// the push/pop loop → `cohort_unregister`, all on engine 0.
fn single_engine_program(
    sys: &mut SimSystem,
    scenario: &Scenario,
    data: &Rc<[u64]>,
    watchdog: Option<u64>,
) -> (Program, QueueLayout, QueueLayout) {
    let in_q = sys.alloc_queue(8, scenario.queue_size as u32);
    let out_q = sys.alloc_queue(8, scenario.output_words().max(1) as u32);
    let csr = stage_csr(sys, scenario.workload.csr().as_deref());
    let driver = sys.drivers[0].clone();
    let mut program = driver.register_ops(
        sys.space.root_pa(),
        &in_q.descriptor,
        &out_q.descriptor,
        csr,
        scenario.backoff,
    );
    if let Some(cycles) = watchdog {
        program.append(driver.watchdog_ops(cycles));
    }
    program.stream(push_pop_body(
        scenario,
        data,
        in_q.descriptor,
        out_q.descriptor,
    ));
    program.push(Op::Fence);
    program.append(driver.unregister_ops());
    (program, in_q, out_q)
}

/// Mutable access to core `id` (the benchmark core or an extra one).
fn core_mut(soc: &mut Soc, id: CompId) -> &mut InOrderCore {
    soc.component_mut::<InOrderCore>(id).expect("core present")
}

/// The kernel's view of the benchmark process's memory management, shared
/// by every handler of one run. It snapshots the frame allocator, so it
/// must be taken after the last host-side allocation that consumes frames.
fn kernel_vm(sys: &SimSystem) -> SharedVm {
    CohortDriver::shared_vm(sys.space.clone(), sys.frames.clone())
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

/// Stage 4, failover: arms engine `victim` for fail-stop migration onto
/// the cold spare `spare` — a checkpoint spill page, the victim's
/// watchdog and spill registers appended to `program`, and the failover
/// orchestrator on the victim's error IRQ, rebinding `input`/`output`.
/// Only the victim is watchdogged: its healthy neighbours legitimately
/// sit in states the watchdog does not treat as benign (a producer
/// between batches, an upstream engine spinning on a full queue during
/// the outage). Returns the kernel vm the orchestrator checkpoints
/// through, for [`arm`] to share with the paging handlers.
fn arm_failover(
    sys: &mut SimSystem,
    program: &mut Program,
    scenario: &Scenario,
    (victim, spare): (usize, usize),
    (input, output): (&QueueLayout, &QueueLayout),
    csr: Option<(u64, u64)>,
) -> SharedVm {
    // The engine addresses the spill page physically, so resolve (and,
    // under lazy mapping, fault in) the page-aligned buffer up front.
    let spill_va = sys.alloc_buffer(PAGE_BYTES, PAGE_BYTES);
    host_fault_in(sys, spill_va, PAGE_BYTES);
    let spill_pa = sys
        .space
        .translate(&sys.soc.mem, spill_va)
        .expect("spill page mapped");
    let watchdog = armed_watchdog(scenario);
    let driver = sys.drivers[victim].clone();
    program.append(driver.watchdog_ops(watchdog));
    program.append(driver.spill_ops(spill_pa));
    let vm = kernel_vm(sys);
    driver.install_failover_handler(
        core_mut(&mut sys.soc, sys.core),
        FailoverConfig {
            spare: sys.drivers[spare].clone(),
            vm: Rc::clone(&vm),
            root_pa: sys.space.root_pa(),
            input: input.descriptor,
            output: output.descriptor,
            csr,
            backoff: scenario.backoff,
            watchdog,
            spill_pa,
        },
    );
    vm
}

/// Stage 4: loads the benchmark core's program and arms demand paging —
/// every engine's page-fault interrupt handler on the benchmark core and
/// the kernel fault path of every core, extra ones included, because
/// under lazy mapping each of them can be first to touch a page. Armed
/// when the policy is lazy, or when the runner brings a `swap` store
/// (storms unmap pages under any policy). `vm` is the kernel view other
/// handlers of this run already share, if any.
fn arm(sys: &mut SimSystem, program: Program, vm: Option<SharedVm>, swap: Option<&SwapStore>) {
    core_mut(&mut sys.soc, sys.core).load_program(program);
    if sys.space.policy() != MapPolicy::Lazy && swap.is_none() {
        return;
    }
    let vm = vm.unwrap_or_else(|| kernel_vm(sys));
    let core = core_mut(&mut sys.soc, sys.core);
    for driver in &sys.drivers {
        driver.install_fault_handler(core, Rc::clone(&vm), swap.cloned());
    }
    for &id in &sys.extra_cores {
        let (vm, swap) = (Rc::clone(&vm), swap.cloned());
        core_mut(&mut sys.soc, id).set_fault_hook(Box::new(move |mem, va| {
            fault_in(mem, &vm, swap.as_ref(), va);
            true
        }));
    }
}

/// Stages 5 and 6: runs to completion, then collects — the one place a
/// [`RunResult`] is made. `verify` sees the finished system and the words
/// the benchmark core recorded.
///
/// # Panics
/// Panics if the benchmark core has not retired its program within the
/// cycle budget. A dead MAPLE answers blocking MMIO with the sentinel and
/// a dead engine is failed over, so a fault plan is no excuse to hang.
fn run_and_collect(
    mut sys: SimSystem,
    trace: bool,
    queue_size: u64,
    verify: impl FnOnce(&SimSystem, &[u64]) -> bool,
) -> RunResult {
    sys.soc.set_tracing(trace);
    let outcome = sys.soc.run(cycle_budget(queue_size));
    let core = sys.core();
    assert!(
        core.is_done(),
        "scenario did not complete: quiescent={} cycle={} core={core:?}",
        outcome.quiescent,
        outcome.cycle,
    );
    let recorded = core.recorded().to_vec();
    let verified = verify(&sys, &recorded);
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

/// [`run_and_collect`] with the usual verifier: the recorded words equal
/// `expected`, the workload's host-side reference.
fn finish(sys: SimSystem, scenario: &Scenario, expected: &[u64]) -> RunResult {
    run_and_collect(sys, scenario.trace, scenario.queue_size, |_, recorded| {
        recorded == expected
    })
}

/// Runs the Cohort-API benchmark (paper §5.3 "Benchmark Implementation in
/// Cohort"): SPSC queues + `cohort_register`, pushes with batched
/// write-index publication, pops with batched read-index release.
pub fn run_cohort(scenario: &Scenario) -> RunResult {
    assert_admitted(Runner::Cohort, scenario);
    let data: Rc<[u64]> = scenario.input_words().into();
    let mut sys = build_system(scenario, vec![scenario.workload.make_accel()], None, 0);
    let (program, ..) = single_engine_program(&mut sys, scenario, &data, None);
    arm(&mut sys, program, None, None);
    finish(sys, scenario, &scenario.workload.reference_outputs(&data))
}

/// Runs the Cohort benchmark while a second Ariane core (the platform has
/// two, Fig. 2) thrashes the shared L2 with streaming stores — a
/// multicore-interference study beyond the paper's single-tenant numbers.
/// Same benchmark program as [`run_cohort`]; compare the two results'
/// cycles for the slowdown, and read the noise core's stores from
/// [`RunResult::counters`].
pub fn run_cohort_interfered(scenario: &Scenario) -> RunResult {
    assert_admitted(Runner::Interfered, scenario);
    let mut sys = build_system(scenario, vec![scenario.workload.make_accel()], None, 1);

    // The interference working set: 2x the L2, streamed repeatedly. It is
    // allocated before the queues.
    let footprint = 2 * sys.soc.config().l2.capacity_bytes;
    let buf = sys.alloc_buffer(footprint, 64);
    let passes = (scenario.queue_size / 64).max(2);
    let mut noise = Program::new();
    noise.stream((0..passes).flat_map(move |p| {
        (0..footprint / 64).map(move |line| Op::Store {
            va: buf + line * 64,
            value: p ^ line,
        })
    }));
    noise.push(Op::Fence);
    core_mut(&mut sys.soc, sys.extra_cores[0]).load_program(noise);

    let data: Rc<[u64]> = scenario.input_words().into();
    let (program, ..) = single_engine_program(&mut sys, scenario, &data, None);
    arm(&mut sys, program, None, None);
    finish(sys, scenario, &scenario.workload.reference_outputs(&data))
}

/// Runs the Cohort benchmark under the fault-injection plan carried in
/// `scenario.soc.faults`, with the full recovery stack armed:
///
/// * the engine forward-progress watchdog ([`Scenario::watchdog`], or
///   [`CHAOS_DEFAULT_WATCHDOG`] when 0);
/// * the page-fault interrupt handler with a swap backing store, so
///   storm-evicted pages come back with their contents;
/// * a storm hook that evicts queue data pages round-robin through that
///   swap store;
/// * the error-interrupt handler with bounded retry (2) and a software
///   fallback that recomputes the whole output stream and publishes the
///   final write index — the graceful-degradation contract.
///
/// The run must still record the exact fault-free output: chaos is allowed
/// to cost cycles, never correctness.
pub fn run_cohort_chaos(scenario: &Scenario) -> RunResult {
    assert_admitted(Runner::Chaos, scenario);
    let data: Rc<[u64]> = scenario.input_words().into();
    let mut sys = build_system(scenario, vec![scenario.workload.make_accel()], None, 0);
    let watchdog = Some(armed_watchdog(scenario));
    let (program, in_q, out_q) = single_engine_program(&mut sys, scenario, &data, watchdog);

    // One kernel mm view shared by every recovery path, plus the swap
    // store that keeps storm evictions lossless.
    let vm = kernel_vm(&sys);
    let swap = swap_store();

    // Storm hook: evict queue data pages round-robin, parking each page's
    // frame in the swap store so the next fault maps the same frame back
    // in — writes racing the shootdown are never lost (see `SwapStore`).
    if let Some(inj_id) = sys.injector {
        let mut candidates: Vec<u64> = Vec::new();
        for q in [&in_q, &out_q] {
            let d = &q.descriptor;
            let mut page = d.base_va & !(PAGE_BYTES - 1);
            while page < d.base_va + d.data_bytes() {
                candidates.push(page);
                page += PAGE_BYTES;
            }
        }
        let storm_vm = Rc::clone(&vm);
        let storm_swap = swap.clone();
        let mut next = 0usize;
        let hook: StormHook = Box::new(move |mem, pages| {
            let mut evicted = 0u64;
            let (space, _frames) = &mut *storm_vm.borrow_mut();
            for _ in 0..pages {
                if candidates.is_empty() {
                    break;
                }
                let va = candidates[next % candidates.len()];
                next += 1;
                if let Some(pa) = space.translate(mem, va) {
                    storm_swap.borrow_mut().insert(va, pa & !(PAGE_BYTES - 1));
                    if space.unmap(mem, va) {
                        evicted += 1;
                    }
                }
            }
            evicted
        });
        sys.soc
            .component_mut::<FaultInjector>(inj_id)
            .expect("injector present")
            .set_storm_hook(hook);
    }

    // Software fallback for exhausted retries: the kernel recomputes the
    // entire output stream and publishes the final write index. Recomputing
    // from scratch keeps the path idempotent — partial hardware progress
    // before the failure is simply overwritten.
    let expected: Rc<[u64]> = scenario.workload.reference_outputs(&data).into();
    let fb_expected = Rc::clone(&expected);
    let fb_vm = Rc::clone(&vm);
    let fb_swap = swap.clone();
    let out_desc = out_q.descriptor;
    let fallback: SoftwareFallback = Box::new(move |mem| {
        let words = fb_expected.iter().enumerate();
        let stores = words.map(|(j, &w)| (out_desc.element_va(j as u64), w));
        let publish = (out_desc.write_index_va, fb_expected.len() as u64);
        for (va, value) in stores.chain([publish]) {
            fault_in(mem, &fb_vm, Some(&fb_swap), va);
            let pa = fb_vm.borrow().0.translate(mem, va).expect("mapped");
            mem.write_u64(pa, value);
        }
    });

    // Forward-progress probe: strictly grows while the engine moves
    // elements, so the error handler can reset its bounded-retry budget
    // after a recovery demonstrably succeeded.
    let ec = sys.engine(0).engine_counters();
    let (consumed, produced, drained) = (
        ec.consumed.clone(),
        ec.produced.clone(),
        ec.drained_elems.clone(),
    );
    let probe: ProgressProbe = Box::new(move || consumed.get() + produced.get() + drained.get());

    arm(&mut sys, program, Some(vm), Some(&swap));
    let driver = sys.drivers[0].clone();
    let core = core_mut(&mut sys.soc, sys.core);
    driver.install_error_handler(core, 2, fallback, probe);
    finish(sys, scenario, &expected)
}

/// Runs the MMIO baseline (§5.1): word-at-a-time, fully blocking accesses,
/// output received before the next block's input ("the core cannot achieve
/// memory-level parallelism").
pub fn run_mmio(scenario: &Scenario) -> RunResult {
    assert_admitted(Runner::Mmio, scenario);
    let mut sys = build_system(
        scenario,
        Vec::new(),
        Some(scenario.workload.make_accel()),
        0,
    );
    let mut program = Program::new();
    maple_csr_ops(&mut program, scenario.workload);
    let data: Rc<[u64]> = scenario.input_words().into();
    let alu = scenario.costs.mmio_loop_alu;
    let wpb_out = scenario.workload.words_out_per_block() as usize;
    let (pa, record) = (MAPLE_MMIO_BASE + maple_regs::POP, true);
    let pop = Op::MmioLoad { pa, record };
    let wpb_in = scenario.workload.words_in_per_block();
    let blocks = runs(0..scenario.queue_size, wpb_in);
    let block_data = Rc::clone(&data);
    program.stream(blocks.flat_map(move |block| {
        let pushes = words(&block_data, block).map(|w| maple_store(maple_regs::PUSH, w));
        looped(alu, pushes.chain(std::iter::repeat_n(pop, wpb_out)))
    }));

    arm(&mut sys, program, None, None);
    finish(sys, scenario, &scenario.workload.reference_outputs(&data))
}

/// Runs the coherent-DMA baseline (§5.1): the core stages input in memory,
/// then programs MAPLE per 256-byte block (MMIO writes + API software
/// cost) and waits for completion; results are stored coherently and read
/// back at the end.
pub fn run_dma(scenario: &Scenario) -> RunResult {
    dma_baseline(scenario, Runner::Dma)
}

/// The coherent-DMA (decoupled access-execute) baseline of [`run_dma`]
/// under the fault plan in `scenario.soc.faults`, hardened for MAPLE
/// faults: every `DMA_DONE` completion word is recorded, and the final
/// outputs are read back from guest memory after the run.
///
/// An injected stall only delays completion, so a stalled run still
/// verifies. A fail-stopped MAPLE answers its blocking MMIO with
/// [`cohort_maple::DEAD_SENTINEL`] instead of holding the core forever —
/// the run always terminates, and the sentinel in the recorded `DMA_DONE`
/// stream is the clean error report software acts on (`verified` is then
/// false and `maple.fail_stops` counts the abort).
pub fn run_dma_chaos(scenario: &Scenario) -> RunResult {
    dma_baseline(scenario, Runner::DmaChaos)
}

/// The DMA baseline. Hardened ([`Runner::DmaChaos`]), it records each
/// block's `DMA_DONE` word (what software checks for the dead-unit
/// sentinel) and verifies the output buffer from guest memory; otherwise
/// the core reads the results back.
fn dma_baseline(scenario: &Scenario, runner: Runner) -> RunResult {
    assert_admitted(runner, scenario);
    let hardened = runner == Runner::DmaChaos;
    let mut sys = build_system(
        scenario,
        Vec::new(),
        Some(scenario.workload.make_accel()),
        0,
    );
    let n = scenario.queue_size;
    let m = scenario.output_words();
    let in_va = sys.alloc_buffer(n * 8, 64);
    let out_va = sys.alloc_buffer(m.max(1) * 8, 64);

    let mut program = Program::new();
    program.push(maple_store(maple_regs::DMA_PTROOT, sys.space.root_pa()));
    maple_csr_ops(&mut program, scenario.workload);

    // Stage the input in memory (cached stores, like the Cohort push loop).
    let data: Rc<[u64]> = scenario.input_words().into();
    let costs = scenario.costs;
    let staged = (0..n)
        .zip(words(&data, 0..n))
        .map(move |(i, value)| Op::Store {
            va: in_va + i * 8,
            value,
        });
    program.stream(looped(costs.push_loop_alu, staged));
    program.push(Op::Fence);

    // One programmed transfer per DMA block; every block but the last is
    // full, so block `k`'s output lands `k` blocks' worth of output in.
    let block = costs.dma_block_bytes;
    let wpb_in = scenario.workload.words_in_per_block();
    let out_per_block = block * scenario.workload.words_out_per_block() / wpb_in;
    let (cycles, insts) = (
        u64::from(costs.dma_api_alu),
        u64::from(costs.dma_api_alu) / 5,
    );
    let (pa, record) = (MAPLE_MMIO_BASE + maple_regs::DMA_DONE, hardened);
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

    arm(&mut sys, program, None, None);
    let expected = scenario.workload.reference_outputs(&data);
    if !hardened {
        return finish(sys, scenario, &expected);
    }
    run_and_collect(sys, scenario.trace, n, |sys, recorded| {
        let out_bytes = sys.read_guest(out_va, (m.max(1) * 8) as usize);
        let outputs = out_bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().expect("8B")));
        !recorded.contains(&cohort_maple::DEAD_SENTINEL) && outputs.eq(expected.iter().copied())
    })
}

/// Runs the transparent accelerator-chaining scenario (paper Fig. 5 /
/// §4.5): the core pushes plaintext into `encrypt_fifo`; an AES Cohort
/// engine produces ciphertext into `hash_fifo`; a SHA Cohort engine
/// consumes it — engine to engine, with no software in between — and the
/// core pops digests from `result_fifo`. Verified against host-side
/// AES-then-SHA.
///
/// # Panics
/// Panics if [`admit`] refuses the scenario (`queue_size` must be whole
/// SHA blocks) or the run fails.
pub fn run_cohort_chain(scenario: &Scenario) -> RunResult {
    chain(scenario, Runner::Chain)
}

/// Cycle at which [`run_cohort_chain_failover`] kills the victim engine
/// when the scenario carries no explicit fault plan: late enough that
/// registration finished and the pipeline is mid-flight, early enough
/// that plenty of elements remain to migrate.
pub const DEFAULT_CHAIN_KILL_CYCLE: u64 = 20_000;

/// The chained AES→SHA scenario of [`run_cohort_chain`] with a fail-stop
/// fault killing the middle (SHA, engine 1) engine mid-pipeline and the
/// failover stack armed: a third, cold-spare SHA engine; the victim's
/// forward-progress watchdog (quiesce + drain + spill on trip); and the
/// failover orchestrator on the victim's error IRQ, which checkpoints the
/// authoritative queue indices from coherent memory, fences the victim
/// behind a bumped epoch, and rebinds the same descriptors on the spare.
///
/// The run must record the exact fault-free digest stream — failover is
/// allowed to cost cycles, never elements.
///
/// When `scenario.soc.faults` is empty a single
/// `kill@`[`DEFAULT_CHAIN_KILL_CYCLE`]`:1` fault is injected; pass an
/// explicit plan to control timing.
///
/// # Panics
/// Panics if [`admit`] refuses the scenario or the run wedges.
pub fn run_cohort_chain_failover(scenario: &Scenario) -> RunResult {
    let mut scenario = scenario.clone();
    if scenario.soc.faults.is_empty() {
        scenario.soc.faults = FaultPlan::default().at(
            DEFAULT_CHAIN_KILL_CYCLE,
            FaultKind::KillEngine { engine: 1 },
        );
    }
    chain(&scenario, Runner::Failover)
}

/// The AES→SHA chain on engines 0 and 1; for [`Runner::Failover`], engine
/// 2 is the cold SHA spare the victim (engine 1) migrates onto.
fn chain(scenario: &Scenario, runner: Runner) -> RunResult {
    assert_admitted(runner, scenario);
    let failover = runner == Runner::Failover;
    let mut accels: Vec<Box<dyn Accelerator>> =
        vec![Box::new(Aes128Accel::new()), Box::new(Sha256Accel::new())];
    if failover {
        accels.push(Box::new(Sha256Accel::new()));
    }
    let mut sys = build_system(scenario, accels, None, 0);

    let n = scenario.queue_size;
    let m = n / 2; // AES keeps the size; SHA turns 8 words in into 4 out.
    let encrypt_q = sys.alloc_queue(8, n as u32);
    let hash_q = sys.alloc_queue(8, n as u32);
    let result_q = sys.alloc_queue(8, m as u32);
    let key = stage_csr(&mut sys, Some(&AES_KEY));
    let aes_driver = sys.drivers[0].clone();
    let sha_driver = sys.drivers[1].clone();
    let root_pa = sys.space.root_pa();

    // Fig. 5: cohort_register(encrypt_acc, encrypt_fifo, hash_fifo);
    //         cohort_register(hash_acc, hash_fifo, result_fifo);
    let mut program = aes_driver.register_ops(
        root_pa,
        &encrypt_q.descriptor,
        &hash_q.descriptor,
        key,
        scenario.backoff,
    );
    program.append(sha_driver.register_ops(
        root_pa,
        &hash_q.descriptor,
        &result_q.descriptor,
        None,
        scenario.backoff,
    ));
    let vm = failover.then(|| {
        let queues = (&hash_q, &result_q);
        arm_failover(&mut sys, &mut program, scenario, (1, 2), queues, None)
    });

    let costs = scenario.costs;
    let data: Rc<[u64]> = scenario.input_words().into();
    let (encrypt, result) = (encrypt_q.descriptor, result_q.descriptor);
    let plaintext = Rc::clone(&data);
    let producer = runs(0..n, scenario.batch).flat_map(move |batch| {
        let input = words(&plaintext, batch.clone());
        push(encrypt, costs.push_loop_alu, batch.start, input).chain(publish(encrypt, batch.end))
    });
    // Every digest word is popped behind its own gate, and the result
    // queue is released once, after the last pop, with no index
    // arithmetic: the chain's recorded numbers pin this sequence.
    let consumer = (0..m).flat_map(move |j| gate_pop(result, costs.pop_loop_alu, j..j + 1));
    program.stream(producer.chain(consumer));
    let (va, value) = (result.read_index_va, m);
    program.extend([Op::Store { va, value }, Op::Fence]);
    if failover {
        program.append(sys.drivers[2].unregister_ops());
    }
    program.append(sha_driver.unregister_ops());
    program.append(aes_driver.unregister_ops());

    arm(&mut sys, program, vm, None);
    // Host reference: AES-ECB then raw-block SHA-256.
    let ct_words = Workload::Aes.reference_outputs(&data);
    let expected = Workload::Sha.reference_outputs(&ct_words);
    run_and_collect(sys, scenario.trace, n, |_, recorded| recorded == expected)
}

/// How [`run_cohort_sharded`] splits the logical stream and steers the
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

/// Runs the multi-engine sharded throughput scenario: one logical stream,
/// split at element-run granularity by a driver-level [`ShardPool`] onto
/// `spec.shards` engines, reassembled in global order by a sequence-tagged
/// merge.
///
/// Faithful to how the paper scales (§6: one software thread per engine),
/// each shard gets a dedicated producer core that streams its assigned
/// runs into the shard's private input ring; the benchmark core registers
/// every engine, then pops all output rings *in global sequence order* —
/// the program realisation of the merge — so `recorded` is the logical
/// stream and latency includes reassembly. Rings are sized for the whole
/// per-shard stream, so producers never block and a dead shard can stall
/// only its own elements.
///
/// Failover composes: when the fault plan fail-stops a shard engine, that
/// shard is armed (watchdog + checkpoint spill) and its queues migrate
/// onto the spare engine `spec.shards` via the PR-3 epoch-fenced path; the
/// merge then drains the spare's output with the digest unchanged.
///
/// Verification is twofold: the benchmark core's in-order pops against the
/// host reference, and an explicitly reassembled copy — per-shard FIFO
/// streams read back from guest memory are fed through the sequence-tagged
/// merge ([`cohort_queue::merge`]) in a worst-case cross-shard
/// interleaving and must reproduce the same logical stream. The pool's
/// occupancy mirror is drained with each merged run and must return to
/// zero.
///
/// # Errors
/// Whatever [`admit`] refuses for [`Runner::Sharded`]: among the rest,
/// zero shards, or more shards (plus the failover spare, when a kill fault
/// targets one) than [`SocConfig::engines`] provides.
pub fn run_cohort_sharded(scenario: &Scenario, spec: &ShardSpec) -> Result<RunResult, Refusal> {
    admit(Runner::Sharded, scenario, Some(spec))?;
    let wpb_in = scenario.workload.words_in_per_block();
    let wpb_out = scenario.workload.words_out_per_block();

    // A kill fault aimed at a shard engine requires a spare to heal onto.
    let faults = scenario.soc.faults.schedule();
    let victim = faults.iter().find_map(|ev| match ev.kind {
        FaultKind::KillEngine { engine } if (engine as usize) < spec.shards => {
            Some(engine as usize)
        }
        _ => None,
    });
    let spares = usize::from(victim.is_some());

    let accels = (0..scenario.soc.engines).map(|_| scenario.workload.make_accel());
    let extra_cores = spec.shards + spec.background_cores;
    let mut sys = build_system(scenario, accels.collect(), None, extra_cores);
    let mut pool = ShardPool::bind(&sys.drivers, spec.shards, spares, spec.placement)
        .expect("admitted pools bind");
    let shards = pool.shards();

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

    // Per-shard rings sized for the whole per-shard stream: producers
    // never wrap or block, and an outage confines loss to its shard.
    let mut ring = |words: &u64| sys.alloc_queue(8, (*words).max(1) as u32);
    let in_qs: Vec<QueueLayout> = in_totals.iter().map(&mut ring).collect();
    let out_qs: Vec<QueueLayout> = out_totals.iter().map(&mut ring).collect();
    let csr = stage_csr(&mut sys, scenario.workload.csr().as_deref());

    // Producer programs: shard `s`'s core streams its runs in shard-FIFO
    // order, publishing the write index once `batch` words have gathered
    // since the last publication, and at end of stream. Data stores always
    // precede the index publication (fence) — the data-before-pointer
    // contract, per shard.
    let data: Rc<[u64]> = scenario.input_words().into();
    let (costs, batch) = (scenario.costs, scenario.batch);
    for s in 0..shards {
        let (q, total) = (in_qs[s].descriptor, in_totals[s]);
        let mine: Vec<ShardChunk> = chunks.iter().filter(|c| c.shard == s).copied().collect();
        let data = Rc::clone(&data);
        let mut published = 0;
        let mut producer = Program::new();
        producer.stream(mine.into_iter().flat_map(move |c| {
            let pushed = c.in_off + c.in_words;
            let due = pushed - published >= batch || pushed == total;
            if due {
                published = pushed;
            }
            let input = words(&data, c.data_off..c.data_off + c.in_words);
            let publication = due.then(|| publish(q, pushed)).into_iter().flatten();
            push(q, costs.push_loop_alu, c.in_off, input).chain(publication)
        }));
        producer.push(Op::Fence);
        core_mut(&mut sys.soc, sys.extra_cores[s]).load_program(producer);
    }

    // Benchmark-core program: register every shard engine, arm the victim
    // (when a kill is scheduled) with the spare as its failover target,
    // then pop in global sequence order — the merge, realised as WaitGe
    // gates against each shard's cumulative output index.
    let root_pa = sys.space.root_pa();
    let mut program = Program::new();
    for s in 0..shards {
        program.append(pool.driver(s).register_ops(
            root_pa,
            &in_qs[s].descriptor,
            &out_qs[s].descriptor,
            csr,
            scenario.backoff,
        ));
    }
    let vm = victim.map(|v| {
        let queues = (&in_qs[v], &out_qs[v]);
        arm_failover(&mut sys, &mut program, scenario, (v, shards), queues, csr)
    });

    let outs: Vec<QueueDescriptor> = out_qs.iter().map(|q| q.descriptor).collect();
    let gates = chunks.clone().into_iter().flat_map(move |c| {
        let slots = c.out_off..c.out_off + c.out_words;
        gate_pop(outs[c.shard], costs.pop_loop_alu, slots)
    });
    program.stream(gates);
    for (q, &popped) in out_qs.iter().zip(&out_totals) {
        program.extend(release(q.descriptor, popped));
    }
    program.push(Op::Fence);
    if victim.is_some() {
        program.append(sys.drivers[shards].unregister_ops());
    }
    for s in 0..shards {
        program.append(pool.driver(s).unregister_ops());
    }

    // Background ("LITTLE") cores: each streams stores through its own
    // slice of a 2x-L2 working set, twice over — cache contention that
    // runs alongside the benchmark without feeding it.
    if spec.background_cores > 0 {
        let footprint = 2 * sys.soc.config().l2.capacity_bytes;
        let buf = sys.alloc_buffer(footprint, 64);
        let lines = footprint / 64;
        let span = lines / spec.background_cores as u64;
        for b in 0..spec.background_cores {
            let first = b as u64 * span;
            let mut noise = Program::new();
            noise.stream((0..2u64).flat_map(move |pass| {
                (first..first + span.max(1)).map(move |line| Op::Store {
                    va: buf + (line % lines) * 64,
                    value: (b as u64) << 32 | pass << 24 | line,
                })
            }));
            noise.push(Op::Fence);
            core_mut(&mut sys.soc, sys.extra_cores[spec.shards + b]).load_program(noise);
        }
    }

    arm(&mut sys, program, vm, None);

    let expected = scenario.workload.reference_outputs(&data);
    let verify = move |sys: &SimSystem, recorded: &[u64]| {
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
            for s in 0..shards {
                if let Some((seq, c)) = per_shard[s].pop_front() {
                    let words: Vec<u64> = (0..c.out_words)
                        .map(|w| {
                            let va = out_qs[s].descriptor.element_va(c.out_off + w);
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
    };
    Ok(run_and_collect(
        sys,
        scenario.trace,
        scenario.queue_size,
        verify,
    ))
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
        let CustomRun {
            accel,
            csr,
            input,
            expected,
            batch,
            backoff,
            soc,
            policy,
            trace,
        } = self;
        let mut sys = build_system_with(soc, policy, vec![accel], None, 0);
        let input: Rc<[u64]> = input.into();
        let n = input.len() as u64;
        let m = expected.len() as u64;
        let in_q = sys.alloc_queue(8, n.max(1) as u32);
        let out_q = sys.alloc_queue(8, m.max(1) as u32);
        let csr = stage_csr(&mut sys, csr.as_deref());
        let driver = sys.drivers[0].clone();
        let root_pa = sys.space.root_pa();
        let mut program =
            driver.register_ops(root_pa, &in_q.descriptor, &out_q.descriptor, csr, backoff);
        let (in_q, out_q) = (in_q.descriptor, out_q.descriptor);
        let (batch, costs) = (batch.max(1), BaselineCosts::default());
        // A custom run stores its indices with no index arithmetic, and
        // pops and releases its output a batch at a time: the recorded
        // custom rows of `scenario_golden` pin this sequence.
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
        program.stream(producer.chain(consumer));
        program.push(Op::Fence);
        program.append(driver.unregister_ops());
        arm(&mut sys, program, None, None);
        run_and_collect(sys, trace, n, |_, recorded| recorded == expected)
    }
}

/// Which scenario runner executes a [`Scenario`]: the declarative name
/// shared by `socrun --mode` and the fleet spec's `runner =` key, so every
/// scenario is *constructed from parameters* instead of being a one-off
/// hand-written function call site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Runner {
    /// Cohort engine + SPSC queues ([`run_cohort`]).
    Cohort,
    /// MMIO word-at-a-time baseline ([`run_mmio`]).
    Mmio,
    /// Coherent-DMA baseline ([`run_dma`]).
    Dma,
    /// AES→SHA engine chain ([`run_cohort_chain`]).
    Chain,
    /// Cohort run with an L2-thrashing second core ([`run_cohort_interfered`]).
    Interfered,
    /// Cohort run with the full recovery stack armed ([`run_cohort_chaos`]).
    Chaos,
    /// Chained run with a mid-pipeline kill and a cold spare
    /// ([`run_cohort_chain_failover`]).
    Failover,
    /// DMA baseline hardened for MAPLE faults ([`run_dma_chaos`]).
    DmaChaos,
    /// Multi-engine sharded stream ([`run_cohort_sharded`]).
    Sharded,
    /// 16-core big.LITTLE mesh: 4 shards + 11 noise cores
    /// ([`mesh16_scenario`]).
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

    /// Parses a runner name (`shard` and `sharded` both accepted).
    pub fn parse(s: &str) -> Option<Runner> {
        match s {
            "sharded" => Some(Runner::Sharded),
            _ => Runner::ALL.iter().copied().find(|r| r.name() == s),
        }
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

/// Engines the SoC must instantiate for a sharded run: one per shard,
/// plus one spare when the fault plan kills a shard engine (the failover
/// target). What `socrun --shards` and the fleet loader size the pool
/// with when no explicit engine count is given.
pub fn sharded_engines_for(faults: &FaultPlan, shards: usize) -> usize {
    let kill_targets_shard = faults
        .schedule()
        .iter()
        .any(|e| matches!(e.kind, FaultKind::KillEngine { engine } if (engine as usize) < shards));
    shards + usize::from(kill_targets_shard)
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
/// [`run_scenario`] asks first and returns the answer; the `run_*`
/// constructors assert it. Outside input (`socrun`, the fleet loader) is
/// refused through this same function, with its own context attached.
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

/// What the `run_*` constructors do with [`admit`]'s answer: a refused
/// input is the caller's bug, reported in one line before anything is
/// simulated.
fn assert_admitted(runner: Runner, scenario: &Scenario) {
    if let Err(e) = admit(runner, scenario, None) {
        panic!("runner {runner} refused the scenario: {e}");
    }
}

/// Runs `scenario` through `runner` — the single dispatch point behind
/// `socrun`, the fleet runner and the figure sweep. `shard` parameterises
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
    match runner {
        Runner::Cohort => Ok(run_cohort(scenario)),
        Runner::Mmio => Ok(run_mmio(scenario)),
        Runner::Dma => Ok(run_dma(scenario)),
        Runner::Chain => Ok(run_cohort_chain(scenario)),
        Runner::Interfered => Ok(run_cohort_interfered(scenario)),
        Runner::Chaos => Ok(run_cohort_chaos(scenario)),
        Runner::Failover => Ok(run_cohort_chain_failover(scenario)),
        Runner::DmaChaos => Ok(run_dma_chaos(scenario)),
        Runner::Sharded => run_cohort_sharded(scenario, shard.unwrap_or(&ShardSpec::new(1))),
        Runner::Mesh16 => {
            let (_, spec) = mesh16_scenario(scenario.queue_size, scenario.batch);
            let mut scenario = scenario.clone();
            // A kill fault on a mesh shard needs the failover spare on
            // top of the mesh's fixed 4-engine pool; fault-free meshes
            // keep exactly the canonical geometry (and its baselines).
            scenario.soc.engines = sharded_engines_for(&scenario.soc.faults, spec.shards);
            run_cohort_sharded(&scenario, &spec)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cohort_sha_small_end_to_end() {
        let scenario = Scenario::new(Workload::Sha, 64, 8);
        let r = run_cohort(&scenario);
        assert!(r.verified, "digest mismatch");
        assert_eq!(r.recorded.len(), 32);
        assert!(r.cycles > 0);
    }

    #[test]
    fn cohort_aes_small_end_to_end() {
        let scenario = Scenario::new(Workload::Aes, 64, 4);
        let r = run_cohort(&scenario);
        assert!(r.verified, "ciphertext mismatch");
        assert_eq!(r.recorded.len(), 64);
    }

    #[test]
    fn mmio_sha_small_end_to_end() {
        let scenario = Scenario::new(Workload::Sha, 64, 8);
        let r = run_mmio(&scenario);
        assert!(r.verified, "digest mismatch");
    }

    #[test]
    fn dma_aes_small_end_to_end() {
        let scenario = Scenario::new(Workload::Aes, 64, 8);
        let r = run_dma(&scenario);
        assert!(r.verified, "ciphertext mismatch");
    }

    #[test]
    fn chained_aes_sha_engines_end_to_end() {
        let scenario = Scenario::new(Workload::Sha, 64, 16);
        let r = run_cohort_chain(&scenario);
        assert!(r.verified, "chained digest mismatch");
        assert_eq!(r.recorded.len(), 32);
    }

    #[test]
    fn sharded_aes_small_end_to_end() {
        let mut scenario = Scenario::new(Workload::Aes, 64, 4);
        scenario.soc = SocConfig::default().with_engines(2);
        let r = run_cohort_sharded(&scenario, &ShardSpec::new(2)).expect("pool binds");
        assert!(r.verified, "sharded ciphertext mismatch");
        assert_eq!(r.recorded.len(), 64);
    }

    #[test]
    fn sharded_sha_handles_non_unit_block_ratio() {
        let mut scenario = Scenario::new(Workload::Sha, 64, 8);
        scenario.soc = SocConfig::default().with_engines(2);
        let r = run_cohort_sharded(&scenario, &ShardSpec::new(2)).expect("pool binds");
        assert!(r.verified, "sharded digest mismatch");
        assert_eq!(r.recorded.len(), 32);
    }

    #[test]
    fn mesh16_big_little_end_to_end() {
        let (scenario, spec) = mesh16_scenario(64, 4);
        let r = run_cohort_sharded(&scenario, &spec).expect("pool binds");
        assert!(r.verified, "mesh16 ciphertext mismatch");
        assert_eq!(r.recorded.len(), 64);
    }

    #[test]
    fn sharded_run_rejects_oversubscribed_pool() {
        let mut scenario = Scenario::new(Workload::Aes, 64, 4);
        scenario.soc = SocConfig::default().with_engines(2);
        let err = run_cohort_sharded(&scenario, &ShardSpec::new(3)).unwrap_err();
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
    #[should_panic(
        expected = "runner cohort refused the scenario: queue 60 is not a multiple of 8"
    )]
    fn constructors_assert_admission() {
        run_cohort(&Scenario::new(Workload::Sha, 60, 8));
    }

    #[test]
    fn runner_names_round_trip() {
        for r in Runner::ALL {
            assert_eq!(Runner::parse(r.name()), Some(r), "{r} must round-trip");
        }
        assert_eq!(Runner::parse("sharded"), Some(Runner::Sharded));
        assert_eq!(Runner::parse("nope"), None);
    }

    #[test]
    fn run_scenario_dispatch_matches_direct_call() {
        let scenario = Scenario::new(Workload::Aes, 64, 8);
        let direct = run_cohort(&scenario);
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
        let c = run_cohort(&scenario);
        let m = run_mmio(&scenario);
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
        let small = run_cohort(&Scenario::new(Workload::Aes, 256, 2));
        let large = run_cohort(&Scenario::new(Workload::Aes, 256, 64));
        assert!(small.verified && large.verified);
        assert!(
            small.cycles > large.cycles,
            "batch=2 ({}) should be slower than batch=64 ({})",
            small.cycles,
            large.cycles
        );
    }
}
