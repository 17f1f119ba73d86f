//! The Cohort engine (paper §4.2, Figure 6).
//!
//! One engine bridges a pair of software SPSC queues to one accelerator:
//!
//! * **Uncached configuration registers** — the only MMIO part of Cohort;
//!   programmed exclusively by the kernel driver
//!   ([`cohort_os::driver::regs`]).
//! * **Memory transaction engine (MTE)** — two
//!   [`cohort_os::mte::MteChannel`]s (consumer, producer) sharing one
//!   device MMU and one coherent line buffer; a walk that faults raises
//!   the page-fault interrupt.
//! * **Consumer endpoint** with the *Reader Coherency Manager*: after
//!   reading the input queue's write index it holds (pins) that line
//!   shared; a directory invalidation of the line means the producer
//!   published — the RCM backs off a configurable window, re-reads the
//!   index, and streams the new elements to the accelerator (§4.2.1,
//!   §4.2.3).
//! * **Producer endpoint** with the *Write Coherency Manager*: collects
//!   accelerator output words, writes data elements, and only then updates
//!   the output queue's write index — data-before-pointer ordering, at
//!   data-block granularity to reduce coherence traffic (§4.2.2, §4.3).
//!
//! Both endpoints are one build, `Endpoint` — an MTE channel, the queue
//! registers, a coherency-manager monitor, a back-off window and a watchdog
//! stamp — instantiated twice under the two state machines (`ConsState`,
//! `ProdState`), which is all that differs. Each side monitors the index
//! its peer publishes: the consumer the input queue's write index, the
//! producer the output queue's read index.

use cohort_os::driver::regs;
use cohort_os::mmu::{DeviceMmu, TlbResult};
use cohort_os::mte::{self, MteChannel, Stall};
use cohort_os::sv39;
use cohort_queue::QueueDescriptor;
use cohort_sim::component::{CompId, Component, Ctx, Observability};
use cohort_sim::config::SocConfig;
use cohort_sim::faultinject::FaultState;
use cohort_sim::line_of;
use cohort_sim::mem::MemAccess;
use cohort_sim::msg::Msg;
use cohort_sim::port::{CoherentPort, PortEvent};
use cohort_sim::stats::{Counter, Histogram};
use cohort_sim::trace::Trace;
use cohort_sim::LINE_BYTES;

use cohort_accel::timing::TimedAccel;

const CH_CONS: usize = 0;
const CH_PROD: usize = 1;

/// The little-endian word at byte `off` of an MTE buffer.
fn word_at(buf: &[u8], off: usize) -> u64 {
    u64::from_le_bytes(buf[off..off + 8].try_into().expect("8-byte word"))
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ConsState {
    Off,
    /// Reading the CSR configuration buffer.
    Csr,
    /// Reading the input queue's read index.
    InitRd,
    /// Reading the input queue's write index.
    InitWr,
    /// Deciding what to do next.
    Judge,
    /// Armed: RCM watches the write-index line for invalidations.
    Waiting,
    /// Invalidations observed; waiting out the backoff window.
    Backoff {
        until: u64,
    },
    /// Re-reading the write index after backoff.
    ReadWr,
    /// Fetching `n` elements of data.
    Fetch {
        n: u64,
    },
    /// Streaming fetched words into the accelerator.
    Feed {
        fed: usize,
        n: u64,
    },
    /// Publishing the updated read index.
    UpdateRd,
    /// Stopped by a sticky error (bad descriptor, CSR rejection or
    /// watchdog trip); resumes when software clears `ERROR_STATUS`.
    Halted,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProdState {
    Off,
    /// Reading the output queue's read index.
    InitRd,
    /// Reading the output queue's write index.
    InitWr,
    /// Collecting accelerator output / waiting for a flushable block.
    Collect,
    /// Output queue looked full; waiting out the backoff window after a
    /// read-index invalidation.
    BackoffFull {
        until: u64,
    },
    /// Re-reading the read index.
    ReadRd,
    /// Writing `n` elements of data.
    WriteData {
        n: u64,
    },
    /// WCM ordering drain between data write and index publication.
    WcmDrain {
        n: u64,
        until: u64,
    },
    /// Publishing the updated write index.
    UpdateWr,
    /// Stopped by a sticky error; resumes when software clears
    /// `ERROR_STATUS`.
    Halted,
}

/// Runtime view of one registered queue.
#[derive(Debug, Clone, Copy, Default)]
struct QueueRegs {
    wr_va: u64,
    rd_va: u64,
    base_va: u64,
    elem: u64,
    len: u64,
}

impl QueueRegs {
    fn slot_va(&self, index: u64) -> u64 {
        self.base_va + (index % self.len) * self.elem
    }

    /// Elements contiguous in the ring starting at `index`.
    fn contig(&self, index: u64) -> u64 {
        self.len - (index % self.len)
    }
}

/// What the consumer and the producer endpoint are both built from
/// (Fig. 6); held as `ep[CH_CONS]` / `ep[CH_PROD]`.
#[derive(Debug, Default)]
struct Endpoint {
    /// This side's MTE channel.
    ch: MteChannel,
    /// The queue this side is bound to (input / output).
    q: QueueRegs,
    /// RCM monitored line: the index the peer publishes (input write
    /// index / output read index).
    rcm_line: Option<u64>,
    rcm_dirty: bool,
    /// Current backoff window (capped exponential, resets on progress).
    backoff: u64,
    /// Last cycle this endpoint demonstrably made progress.
    progress_at: u64,
    /// Last observed progress signature (state label, elements moved,
    /// channel offset, staged bytes — 0 on the consumer side).
    sig: (&'static str, u64, usize, usize),
    /// Cycle this endpoint entered its current state (trace spans).
    since: u64,
}

/// Performance counters of the engine (paper §5.1: "performance counter
/// data comes from each Cohort Engine"). Fields are registry-backed
/// [`Counter`] handles: once the engine is attached to a SoC the same
/// cells are visible through the [`cohort_sim::stats::Stats`] registry.
#[derive(Debug, Default, Clone)]
pub struct EngineCounters {
    /// Elements consumed from the input queue.
    pub consumed: Counter,
    /// Elements produced into the output queue.
    pub produced: Counter,
    /// Write-index line invalidations the RCM observed.
    pub rcm_invalidations: Counter,
    /// Backoff windows taken.
    pub backoffs: Counter,
    /// Page faults raised to the core.
    pub faults: Counter,
    /// Read-index re-reads because the output ring looked full.
    pub full_stalls: Counter,
    /// Forward-progress watchdog trips (each halts the engine).
    pub watchdog_trips: Counter,
    /// Error interrupts raised to the core.
    pub error_irqs: Counter,
    /// Elements rescued by the watchdog drain (staged/accelerator output
    /// written back to the output queue during an abort).
    pub drained_elems: Counter,
    /// Times software cleared `ERROR_STATUS` and the engine resumed.
    pub resumes: Counter,
    /// Failover rebinds onto this engine (enables with `FAILOVER_T0` set).
    pub rebinds: Counter,
}

/// The Cohort engine component. Construct with [`CohortEngine::new`], map
/// its register bank with [`cohort_sim::soc::Soc::map_mmio`], and program
/// it through [`cohort_os::CohortDriver`].
pub struct CohortEngine {
    mmio_base: u64,
    irq_target: CompId,
    irq_num: u32,
    port: CoherentPort,
    mmu: DeviceMmu,
    accel: TimedAccel,
    raw_regs: std::collections::HashMap<u64, u64>,
    enabled: bool,
    /// The two endpoints, indexed by `CH_CONS` / `CH_PROD`.
    ep: [Endpoint; 2],
    cons: ConsState,
    prod: ProdState,
    rd: u64,
    known_wr: u64,
    wr: u64,
    known_rd: u64,
    /// Programmed base backoff window (`regs::BACKOFF`).
    backoff: u64,
    wcm_turnaround: u64,
    mte_shared: bool,
    mmio_latency: u64,
    /// Producer-side staging buffer (accelerator words awaiting a flush).
    stage: Vec<u8>,
    counters: EngineCounters,
    in_occupancy: Histogram,
    out_occupancy: Histogram,
    trace: Option<Trace>,
    tid: u64,
    irq_outstanding: bool,
    /// A CSR-buffer read is outstanding on the consumer channel.
    csr_pending: bool,
    /// Sticky error bits (`regs::ERR_*`); nonzero halts both endpoints.
    error_status: u64,
    /// Cycle the current error condition began (trace span start).
    error_since: u64,
    /// An error interrupt is in flight / unacknowledged.
    err_irq_outstanding: bool,
    /// Forward-progress budget in cycles (0 = watchdog disabled).
    watchdog_cycles: u64,
    /// Distribution of backoff windows actually taken (log2 buckets via
    /// the histogram's own bucketing).
    backoff_window: Histogram,
    /// SoC-wide fault switches, from [`Component::attach`]: injected
    /// accelerator stalls and fail-stops are read from them, and the
    /// watchdog checkpoint announces its protocol-bypassing writes
    /// through them.
    fault_state: FaultState,
    /// This engine's index in the SoC-wide fail-stop kill mask.
    engine_index: u64,
    /// Lowest queue-binding epoch this engine may run (`EPOCH_FENCE`).
    /// Monotonic; survives disable — the exactly-once fence.
    min_epoch: u64,
    /// Epoch of the currently bound descriptors.
    bound_epoch: u64,
    /// First cycle the frozen datapath was observed (fail-stop fault).
    dead_since: Option<u64>,
    /// Armed after a failover enable: `(detect_cycle, produced_then)` —
    /// the first element produced past the baseline closes the
    /// detect→first-element latency measurement.
    resume_watch: Option<(u64, u64)>,
    /// Fault latch → error-IRQ handler completion, in cycles.
    error_irq_latency: Histogram,
    /// Fail-stop onset → watchdog detection, in cycles.
    failover_detect: Histogram,
    /// Detection → spare rebind (its failover enable), in cycles.
    failover_rebind: Histogram,
    /// Detection → first element produced by the spare, in cycles.
    failover_resume: Histogram,
}

impl std::fmt::Debug for CohortEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("CohortEngine")
            .field("enabled", &self.enabled)
            .field("cons", &self.cons)
            .field("prod", &self.prod)
            .field("consumed", &self.counters.consumed.get())
            .field("produced", &self.counters.produced.get())
            .finish()
    }
}

impl CohortEngine {
    /// Creates an engine.
    ///
    /// * `dir` — the directory component;
    /// * `mmio_base` — base physical address of the register bank (map
    ///   `mmio_base..mmio_base + regs::BANK_BYTES`);
    /// * `irq_target`/`irq_num` — where page-fault interrupts go;
    /// * `accel` — the hosted accelerator.
    pub fn new(
        dir: CompId,
        cfg: &SocConfig,
        mmio_base: u64,
        irq_target: CompId,
        irq_num: u32,
        accel: Box<dyn cohort_accel::Accelerator>,
    ) -> Self {
        let (port, mmu) = mte::memory(dir, cfg);
        Self {
            mmio_base,
            irq_target,
            irq_num,
            port,
            mmu,
            accel: TimedAccel::new(accel),
            raw_regs: std::collections::HashMap::new(),
            enabled: false,
            // Channel `side` tags its port requests `4 * side` (data) and
            // `4 * side + 1` (PTE reads).
            ep: [0, 4].map(|token| Endpoint {
                ch: MteChannel::new(token),
                ..Endpoint::default()
            }),
            cons: ConsState::Off,
            prod: ProdState::Off,
            rd: 0,
            known_wr: 0,
            wr: 0,
            known_rd: 0,
            backoff: 16,
            wcm_turnaround: cfg.timing.wcm_turnaround,
            mte_shared: cfg.timing.mte_shared,
            mmio_latency: cfg.timing.mmio_device,
            stage: Vec::new(),
            counters: EngineCounters::default(),
            in_occupancy: Histogram::new(),
            out_occupancy: Histogram::new(),
            trace: None,
            tid: 0,
            irq_outstanding: false,
            csr_pending: false,
            error_status: 0,
            error_since: 0,
            err_irq_outstanding: false,
            watchdog_cycles: 0,
            backoff_window: Histogram::new(),
            fault_state: FaultState::default(),
            engine_index: 0,
            min_epoch: 0,
            bound_epoch: 0,
            dead_since: None,
            resume_watch: None,
            error_irq_latency: Histogram::new(),
            failover_detect: Histogram::new(),
            failover_rebind: Histogram::new(),
            failover_resume: Histogram::new(),
        }
    }

    /// Sets this engine's index in the SoC-wide fail-stop kill mask, so a
    /// `kill@C:E` fault wedges exactly engine `E`.
    pub fn set_engine_index(&mut self, index: u64) {
        self.engine_index = index;
    }

    /// True once a fail-stop fault has permanently frozen the datapath.
    /// The register file and the watchdog survive (the dead-man's-handle
    /// model): MMIO stays serviceable so software can fence and disable
    /// the victim, and the watchdog detects the wedge.
    fn killed(&self) -> bool {
        self.fault_state.engine_killed(self.engine_index)
    }

    /// This engine's index in the SoC (assigned at build time).
    pub fn engine_index(&self) -> u64 {
        self.engine_index
    }

    /// Current sticky error bits (`regs::ERR_*`; 0 = healthy).
    pub fn error_status(&self) -> u64 {
        self.error_status
    }

    /// True while the accelerator is held stalled by fault injection.
    fn stalled(&self, cycle: u64) -> bool {
        self.fault_state.accel_stalled(cycle)
    }

    /// Emits a "fault"-category trace instant when tracing is on.
    fn trace_fault(&self, name: &'static str, cycle: u64, args: Vec<(&'static str, String)>) {
        if let Some(trace) = self.trace.as_ref().filter(|t| t.is_enabled()) {
            trace.instant(self.tid, "fault", name, cycle, args);
        }
    }

    /// Counter snapshot.
    pub fn engine_counters(&self) -> &EngineCounters {
        &self.counters
    }

    /// MMU counter snapshot (TLB hits/misses/faults/flushes).
    pub fn mmu_counters(&self) -> &cohort_os::mmu::MmuCounters {
        self.mmu.counters()
    }

    /// The register bank base address.
    pub fn mmio_base(&self) -> u64 {
        self.mmio_base
    }

    fn reg(&self, off: u64) -> u64 {
        self.raw_regs.get(&off).copied().unwrap_or(0)
    }

    /// Validates the programmed queue geometry — the configure-time checks
    /// of the hardened engine. A failure must NOT panic (a misprogrammed
    /// device register is an error condition, not a model bug): it sets
    /// the sticky `ERR_BAD_DESCRIPTOR` bit instead.
    ///
    /// `bank` is `regs::IN_WR_VA` or `regs::OUT_WR_VA`: the two register
    /// banks are laid out alike.
    fn validated_queue(&self, bank: u64) -> Option<QueueRegs> {
        let [wr_va, rd_va, base_va, elem, len] = [
            regs::IN_WR_VA,
            regs::IN_RD_VA,
            regs::IN_BASE_VA,
            regs::IN_ELEM,
            regs::IN_LEN,
        ]
        .map(|r| self.reg(bank + (r - regs::IN_WR_VA)));
        let (Ok(elem32), Ok(len32)) = (u32::try_from(elem), u32::try_from(len)) else {
            return None;
        };
        QueueDescriptor::try_new(wr_va, rd_va, base_va, elem32, len32).ok()?;
        Some(QueueRegs {
            wr_va,
            rd_va,
            base_va,
            elem,
            len,
        })
    }

    fn enable(&mut self, ctx: &mut Ctx<'_>) {
        self.enabled = true;
        if self.killed() {
            // The datapath is fail-stopped: re-enabling cannot revive it.
            self.raise_error(ctx, regs::ERR_ENGINE_DEAD);
            return;
        }
        let epoch = self.reg(regs::IN_EPOCH).min(self.reg(regs::OUT_EPOCH));
        if epoch < self.min_epoch {
            // A binding older than the fence: after queue migration this
            // engine must never touch (or republish) those indices again.
            self.raise_error(ctx, regs::ERR_STALE_EPOCH);
            return;
        }
        let queues = [regs::IN_WR_VA, regs::OUT_WR_VA].map(|bank| self.validated_queue(bank));
        let [Some(in_q), Some(out_q)] = queues else {
            self.raise_error(ctx, regs::ERR_BAD_DESCRIPTOR);
            return;
        };
        self.bound_epoch = epoch;
        self.mmu.set_root(self.reg(regs::PT_ROOT_PA));
        self.backoff = self.reg(regs::BACKOFF);
        self.watchdog_cycles = self.reg(regs::WATCHDOG);
        // Field by field, not `Endpoint::default()`: the channel and the
        // trace stamp carry over an enable.
        for (ep, q) in self.ep.iter_mut().zip([in_q, out_q]) {
            ep.q = q;
            ep.rcm_line = None;
            ep.rcm_dirty = false;
            ep.backoff = self.backoff;
            ep.progress_at = ctx.cycle;
            ep.sig = ("", 0, 0, 0);
        }
        self.accel.reset();
        self.stage.clear();
        self.rd = 0;
        self.known_wr = 0;
        self.wr = 0;
        self.known_rd = 0;
        self.cons = if self.reg(regs::CSR_LEN) > 0 {
            ConsState::Csr
        } else {
            ConsState::InitRd
        };
        self.prod = ProdState::InitRd;
        // Restore any checkpoint spill (a consume-once no-op when empty),
        // so datapath residue an abort rescued is processed exactly once.
        self.restore_spill(ctx);
        let t0 = self.reg(regs::FAILOVER_T0);
        if t0 > 0 {
            // This is a failover rebind: consume the detection stamp and
            // publish the detect→rebind / detect→first-element latencies.
            self.raw_regs.insert(regs::FAILOVER_T0, 0);
            self.counters.rebinds.inc();
            self.failover_rebind.record(ctx.cycle.saturating_sub(t0));
            self.resume_watch = Some((t0, self.counters.produced.get()));
            let args = vec![("epoch", format!("{epoch}"))];
            self.trace_fault("failover_rebind", ctx.cycle, args);
        }
    }

    /// Consumes the checkpoint spill area (`[n_in, n_out, words…]`): the
    /// partial input block a dead engine's abort path rescued is pushed
    /// back into the accelerator ratchet, unwritten output words back
    /// into the staging buffer. The counts are zeroed afterwards so the
    /// restore happens exactly once.
    fn restore_spill(&mut self, ctx: &mut Ctx<'_>) {
        let pa = self.reg(regs::SPILL_PA);
        if pa == 0 {
            return;
        }
        let n_in = ctx.mem.read_u64(pa);
        let n_out = ctx.mem.read_u64(pa + 8);
        // Both counts come from guest memory: the sum saturates, so
        // garbage cannot wrap around the bound.
        let total = n_in.saturating_add(n_out);
        if total == 0 || total > 510 {
            return; // empty, or not a spill image this engine wrote
        }
        for i in 0..n_in {
            self.accel.push_word(ctx.mem.read_u64(pa + 16 + i * 8));
        }
        for i in 0..n_out {
            let w = ctx.mem.read_u64(pa + 16 + (n_in + i) * 8);
            self.stage.extend_from_slice(&w.to_le_bytes());
        }
        // Engine-private memory: no core reads the spill page, so this
        // plain write needs no announcement.
        ctx.mem.write_u64(pa, 0);
        ctx.mem.write_u64(pa + 8, 0);
    }

    /// Latches `bits` into the sticky error register, halts both
    /// endpoints (aborting any in-flight channel operation) and raises
    /// the error interrupt. Idempotent for an already-halted engine.
    fn raise_error(&mut self, ctx: &mut Ctx<'_>, bits: u64) {
        if self.error_status == 0 {
            self.error_since = ctx.cycle;
        }
        self.error_status |= bits;
        self.cons = ConsState::Halted;
        self.prod = ProdState::Halted;
        self.csr_pending = false;
        for ep in &mut self.ep {
            ep.ch.cancel();
        }
        let args = vec![("status", format!("{:#x}", self.error_status))];
        self.trace_fault("error_irq", ctx.cycle, args);
        if !self.err_irq_outstanding {
            self.err_irq_outstanding = true;
            self.counters.error_irqs.inc();
            ctx.send(
                self.irq_target,
                Msg::Irq {
                    irq: self.irq_num + regs::ERROR_IRQ_OFFSET,
                    payload: self.error_status,
                },
            );
        }
    }

    /// `ERROR_STATUS` write: clear the sticky bits and resume a halted
    /// engine by re-running the enable sequence — queue indices are
    /// re-read from memory, which stays authoritative across the abort.
    fn clear_error(&mut self, ctx: &mut Ctx<'_>) {
        let was_halted = self.error_status != 0;
        self.error_status = 0;
        self.err_irq_outstanding = false;
        if !was_halted {
            return;
        }
        self.counters.resumes.inc();
        // Latch → IRQ delivery → handler completion: this write IS the
        // handler's completion, so the span closes here.
        self.error_irq_latency
            .record(ctx.cycle.saturating_sub(self.error_since));
        if let Some(trace) = self.trace.as_ref().filter(|t| t.is_enabled()) {
            trace.complete(
                self.tid,
                "fault",
                "error",
                self.error_since,
                ctx.cycle.saturating_sub(self.error_since).max(1),
                vec![("resumed", "true".into())],
            );
        }
        if self.enabled {
            self.enable(ctx);
        }
    }

    fn disable(&mut self, ctx: &mut Ctx<'_>) {
        self.enabled = false;
        if self.err_irq_outstanding {
            // Handler completed by disabling the engine (fallback or
            // failover path): close the latency span here instead.
            self.error_irq_latency
                .record(ctx.cycle.saturating_sub(self.error_since));
            self.err_irq_outstanding = false;
        }
        self.cons = ConsState::Off;
        self.prod = ProdState::Off;
        for ep in &mut self.ep {
            if let Some(l) = ep.rcm_line.take() {
                self.port.unpin(l);
                self.port.relinquish(ctx, l);
            }
        }
        self.port.unpin_all();
    }

    /// True for registers that describe the queues / translation setup:
    /// rewriting one while the engine runs invalidates its working state
    /// (this is also the path a corrupted-descriptor fault injection
    /// takes — the write lands, then the engine flags it).
    fn is_config_reg(off: u64) -> bool {
        matches!(
            off,
            regs::IN_WR_VA
                | regs::IN_RD_VA
                | regs::IN_BASE_VA
                | regs::IN_ELEM
                | regs::IN_LEN
                | regs::OUT_WR_VA
                | regs::OUT_RD_VA
                | regs::OUT_BASE_VA
                | regs::OUT_ELEM
                | regs::OUT_LEN
                | regs::PT_ROOT_PA
                | regs::CSR_BASE_VA
                | regs::CSR_LEN
                | regs::IN_EPOCH
                | regs::OUT_EPOCH
        )
    }

    fn on_mmio_write(&mut self, ctx: &mut Ctx<'_>, pa: u64, value: u64) {
        let off = pa - self.mmio_base;
        match off {
            regs::ENABLE => {
                self.raw_regs.insert(off, value);
                if value != 0 {
                    self.enable(ctx);
                } else {
                    self.disable(ctx);
                }
            }
            regs::TLB_FLUSH => {
                self.mmu.flush();
                // The flush is also an RCM rebind barrier: the armed
                // monitor lines were chosen through now-stale
                // translations, and after a page migration the publisher
                // writes a different physical line. Marking both sides
                // dirty forces a pointer re-read, which re-arms each
                // monitor on the freshly translated line.
                self.ep.iter_mut().for_each(|ep| ep.rcm_dirty = true);
            }
            regs::FAULT_RESOLVE => {
                self.irq_outstanding = false;
                self.ep.iter_mut().for_each(|ep| ep.ch.resolve_fault());
            }
            regs::BACKOFF => {
                self.backoff = value;
                self.ep.iter_mut().for_each(|ep| ep.backoff = value);
                self.raw_regs.insert(off, value);
            }
            regs::WATCHDOG => {
                self.watchdog_cycles = value;
                self.ep.iter_mut().for_each(|ep| ep.progress_at = ctx.cycle);
                self.raw_regs.insert(off, value);
            }
            regs::ERROR_STATUS => self.clear_error(ctx),
            regs::EPOCH_FENCE => {
                // Monotonic: a smaller fence value is ignored, and the
                // fence survives disable — a stale engine waking late can
                // never re-run (or republish indices for) an old binding.
                let fence = value.max(self.min_epoch);
                self.min_epoch = fence;
                self.raw_regs.insert(off, fence);
                if self.enabled && self.bound_epoch < fence {
                    self.raise_error(ctx, regs::ERR_STALE_EPOCH);
                }
            }
            _ => {
                self.raw_regs.insert(off, value);
                if self.enabled && Self::is_config_reg(off) {
                    // A descriptor register changed under a running
                    // engine: its cached geometry is no longer
                    // trustworthy. Stop before touching memory with it.
                    self.raise_error(ctx, regs::ERR_BAD_DESCRIPTOR);
                }
            }
        }
    }

    fn on_mmio_read(&self, pa: u64) -> u64 {
        let off = pa - self.mmio_base;
        match off {
            regs::CONSUMED => self.counters.consumed.get(),
            regs::PRODUCED => self.counters.produced.get(),
            regs::ERROR_STATUS => self.error_status,
            regs::WATCHDOG => self.watchdog_cycles,
            _ => self.reg(off),
        }
    }

    fn route_event(&mut self, ctx: &mut Ctx<'_>, ev: PortEvent) {
        match ev {
            PortEvent::Completed { token } => {
                let side = (token / 4) as usize;
                let r = self.ep[side]
                    .ch
                    .completed(ctx, &mut self.port, &mut self.mmu, token);
                self.on_stall(ctx, r);
            }
            PortEvent::Invalidated { line } => {
                for (side, ep) in self.ep.iter_mut().enumerate() {
                    if ep.rcm_line == Some(line) {
                        ep.rcm_dirty = true;
                        if side == CH_CONS {
                            // Input side only: see `EngineCounters`.
                            self.counters.rcm_invalidations.inc();
                        }
                    }
                }
            }
            PortEvent::Downgraded { .. } => {}
        }
    }

    /// Pushes `side`'s MTE channel forward.
    fn advance(&mut self, ctx: &mut Ctx<'_>, side: usize) {
        let r = self.ep[side].ch.advance(ctx, &mut self.port, &mut self.mmu);
        self.on_stall(ctx, r);
    }

    /// A channel's page fault raises the Cohort interrupt (§4.4); a
    /// retried request translates again on the next step.
    fn on_stall(&mut self, ctx: &mut Ctx<'_>, r: Result<(), Stall>) {
        let Err(Stall::Fault { va }) = r else { return };
        self.counters.faults.inc();
        if !self.irq_outstanding {
            self.irq_outstanding = true;
            let irq = Msg::Irq {
                irq: self.irq_num,
                payload: va,
            };
            ctx.send(self.irq_target, irq);
        }
    }

    /// Arms `side`'s RCM on the line of the index read that has just
    /// completed, and clears the signal that read answered.
    fn arm_rcm(&mut self, side: usize) {
        let ep = &mut self.ep[side];
        let line = line_of(ep.ch.last_pa());
        if ep.rcm_line != Some(line) {
            if let Some(old) = ep.rcm_line {
                self.port.unpin(old);
            }
            self.port.pin(line);
            ep.rcm_line = Some(line);
        }
        ep.rcm_dirty = false;
    }

    /// True when `side`'s RCM has a pending (or missed) signal. The
    /// second term closes the arming race: if the line was invalidated (or
    /// evicted) between the pointer-read grant and the arm, the writer's
    /// signal already passed — an absent line counts as pending rather
    /// than being waited on forever.
    fn rcm_pending(&self, side: usize) -> bool {
        let ep = &self.ep[side];
        ep.rcm_dirty || ep.rcm_line.is_some_and(|l| self.port.state_of(l).is_none())
    }

    /// Takes one backoff window on `side`: records it in the
    /// `backoff_window` histogram, then doubles the next window up to
    /// 16× the programmed base (capped exponential; reset to the base
    /// whenever data actually moves). Returns the window's end cycle.
    fn take_backoff(&mut self, side: usize, cycle: u64) -> u64 {
        let win = self.ep[side].backoff;
        self.backoff_window.record(win);
        let cap = self.backoff.saturating_mul(16).max(self.backoff);
        self.ep[side].backoff = win.saturating_mul(2).max(1).min(cap);
        cycle + win
    }

    /// MTE arbitration (Fig. 6): with a shared MTE an endpoint may only
    /// start a new operation when the other endpoint's is complete;
    /// otherwise one operation per endpoint may be in flight.
    fn mte_free(&self, me: usize) -> bool {
        !self.mte_shared || self.ep[1 - me].ch.idle()
    }

    /// Starts an MTE read of `len` bytes at `va` on `side`'s channel.
    fn mte_read(&mut self, ctx: &mut Ctx<'_>, side: usize, va: u64, len: usize, transient: bool) {
        self.ep[side].ch.start(va, false, transient).resize(len, 0);
        self.advance(ctx, side);
    }

    /// One 8-byte queue-index read on `side`'s channel: yields the value
    /// once the read has completed; until then starts it as soon as the
    /// channel and the MTE are free.
    fn poll_index(
        &mut self,
        ctx: &mut Ctx<'_>,
        side: usize,
        va: u64,
        transient: bool,
    ) -> Option<u64> {
        if self.ep[side].ch.finish() {
            return Some(word_at(self.ep[side].ch.buf(), 0));
        }
        if self.ep[side].ch.idle() && self.mte_free(side) {
            self.mte_read(ctx, side, va, 8, transient);
        }
        None
    }

    /// Publishes the index `side` owns — the consumer's read index, the
    /// producer's write index — from the engine's internal view. Every
    /// MTE write streams (data block or own index): the line is not kept.
    fn publish_index(&mut self, ctx: &mut Ctx<'_>, side: usize) {
        let ep = &mut self.ep[side];
        let (va, index) = if side == CH_CONS {
            (ep.q.rd_va, self.rd)
        } else {
            (ep.q.wr_va, self.wr)
        };
        ep.ch
            .start(va, true, true)
            .extend_from_slice(&index.to_le_bytes());
        self.advance(ctx, side);
    }

    /// Elements the consumer moves per accelerator data block.
    fn in_chunk_elems(&self) -> u64 {
        (self.accel.descriptor().input_block_bytes as u64 / self.ep[CH_CONS].q.elem).max(1)
    }

    /// Elements the producer publishes per flush (§4.3: pointer updates at
    /// data-block granularity, bounded by the endpoint's staging buffer —
    /// a hardware FIFO of a few cache lines).
    fn out_chunk_elems(&self) -> u64 {
        let elem = self.ep[CH_PROD].q.elem;
        let stage_cap = (4 * LINE_BYTES) / elem;
        (self.accel.descriptor().output_block_bytes as u64 / elem).clamp(1, stage_cap.max(1))
    }

    fn step_consumer(&mut self, ctx: &mut Ctx<'_>) {
        let q = self.ep[CH_CONS].q;
        match self.cons {
            ConsState::Off => {}
            ConsState::Csr => {
                if self.ep[CH_CONS].ch.idle() && self.mte_free(CH_CONS) {
                    let va = self.reg(regs::CSR_BASE_VA);
                    let len = self.reg(regs::CSR_LEN) as usize;
                    self.mte_read(ctx, CH_CONS, va, len, true);
                    self.csr_pending = true;
                    self.cons = ConsState::InitRd; // continues after completion
                }
            }
            ConsState::InitRd => {
                // The CSR buffer comes off the channel before the read
                // index goes on it.
                if self.csr_pending {
                    if !self.ep[CH_CONS].ch.finish() {
                        return;
                    }
                    self.csr_pending = false;
                    if self.accel.configure(self.ep[CH_CONS].ch.buf()).is_err() {
                        // A bad CSR buffer is user error, not a model
                        // bug: latch it and wait for software.
                        self.raise_error(ctx, regs::ERR_CSR_REJECTED);
                        return;
                    }
                }
                if let Some(rd) = self.poll_index(ctx, CH_CONS, q.rd_va, true) {
                    self.rd = rd;
                    self.cons = ConsState::InitWr;
                }
            }
            ConsState::InitWr | ConsState::ReadWr => {
                if let Some(wr) = self.poll_index(ctx, CH_CONS, q.wr_va, false) {
                    self.known_wr = wr;
                    self.arm_rcm(CH_CONS);
                    self.cons = ConsState::Judge;
                    self.step_consumer(ctx);
                }
            }
            ConsState::Judge => {
                let available = self.known_wr.wrapping_sub(self.rd);
                if available > 0 {
                    if !self.mte_free(CH_CONS) {
                        return; // shared MTE busy with the producer side
                    }
                    let n = self.in_chunk_elems().min(available).min(q.contig(self.rd));
                    let len = (n * q.elem) as usize;
                    self.mte_read(ctx, CH_CONS, q.slot_va(self.rd), len, true);
                    self.ep[CH_CONS].backoff = self.backoff; // progress: reset backoff
                    self.cons = ConsState::Fetch { n };
                } else if self.rcm_pending(CH_CONS) {
                    // Missed publications while busy: re-read after backoff.
                    self.counters.backoffs.inc();
                    let until = self.take_backoff(CH_CONS, ctx.cycle);
                    self.cons = ConsState::Backoff { until };
                } else {
                    self.cons = ConsState::Waiting;
                }
            }
            ConsState::Waiting => {
                if self.rcm_pending(CH_CONS) {
                    self.counters.backoffs.inc();
                    let until = self.take_backoff(CH_CONS, ctx.cycle);
                    self.cons = ConsState::Backoff { until };
                }
            }
            ConsState::Backoff { until } => {
                if ctx.cycle >= until {
                    self.ep[CH_CONS].rcm_dirty = false;
                    self.cons = ConsState::ReadWr;
                    self.step_consumer(ctx);
                }
            }
            ConsState::Fetch { n } => {
                // The fetched data stays in the channel buffer for feeding.
                if self.ep[CH_CONS].ch.finish() {
                    self.cons = ConsState::Feed { fed: 0, n };
                }
            }
            ConsState::Feed { mut fed, n } => {
                let data = self.ep[CH_CONS].ch.buf();
                let len = data.len();
                // A stalled accelerator holds ready low: nothing is fed.
                if fed < len && !self.stalled(ctx.cycle) && self.accel.ready(ctx.cycle) {
                    self.accel.push_word(word_at(data, fed));
                    fed += 8;
                }
                self.cons = ConsState::Feed { fed, n };
                if fed >= len && self.mte_free(CH_CONS) {
                    self.rd += n;
                    self.counters.consumed.add(n);
                    self.publish_index(ctx, CH_CONS);
                    self.cons = ConsState::UpdateRd;
                }
            }
            ConsState::UpdateRd => {
                if self.ep[CH_CONS].ch.finish() {
                    self.cons = ConsState::Judge;
                    self.step_consumer(ctx);
                }
            }
            ConsState::Halted => {}
        }
    }

    /// True while the producer endpoint takes accelerator output: it is
    /// not halted and its staging FIFO (four lines) has room.
    fn stage_ready(&self) -> bool {
        !matches!(self.prod, ProdState::Halted) && self.stage.len() < 4 * LINE_BYTES as usize
    }

    fn step_producer(&mut self, ctx: &mut Ctx<'_>) {
        // Collect accelerator output continuously (up to one word/cycle).
        // An injected accelerator stall holds valid low: no words emerge.
        if self.enabled && !self.stalled(ctx.cycle) && self.stage_ready() {
            if let Some(w) = self.accel.pop_word(ctx.cycle) {
                self.stage.extend_from_slice(&w.to_le_bytes());
            }
        }
        let q = self.ep[CH_PROD].q;
        if matches!(self.prod, ProdState::BackoffFull { until } if ctx.cycle >= until) {
            // The window is over: go on to the re-read in this same step
            // (below, not by re-entering — the top pops a word).
            self.ep[CH_PROD].rcm_dirty = false;
            self.prod = ProdState::ReadRd;
        }
        match self.prod {
            ProdState::Off | ProdState::BackoffFull { .. } | ProdState::Halted => {}
            ProdState::InitRd | ProdState::ReadRd => {
                if let Some(rd) = self.poll_index(ctx, CH_PROD, q.rd_va, false) {
                    self.known_rd = rd;
                    self.arm_rcm(CH_PROD);
                    self.prod = if self.prod == ProdState::InitRd {
                        ProdState::InitWr
                    } else {
                        ProdState::Collect
                    };
                }
            }
            ProdState::InitWr => {
                if let Some(wr) = self.poll_index(ctx, CH_PROD, q.wr_va, true) {
                    self.wr = wr;
                    self.prod = ProdState::Collect;
                }
            }
            ProdState::Collect => {
                let elem = q.elem as usize;
                let staged_elems = (self.stage.len() / elem) as u64;
                if staged_elems == 0 {
                    return;
                }
                let free = q.len - self.wr.wrapping_sub(self.known_rd);
                if free == 0 {
                    // Ring full by our view: wait for the consumer to move
                    // its read index (invalidation on the pinned rd line).
                    self.counters.full_stalls.inc();
                    if self.rcm_pending(CH_PROD) {
                        let until = self.take_backoff(CH_PROD, ctx.cycle);
                        self.prod = ProdState::BackoffFull { until };
                    }
                    return;
                }
                let want = self.out_chunk_elems();
                if staged_elems < want && self.accel.output_len() >= 8 {
                    return; // let the data block accumulate
                }
                if !self.mte_free(CH_PROD) {
                    return; // shared MTE busy with the consumer side
                }
                // Pointer updates happen at data-block granularity (§4.3).
                let n = staged_elems
                    .min(want.max(1))
                    .min(free)
                    .min(q.contig(self.wr));
                let bytes = (n as usize) * elem;
                let va = q.slot_va(self.wr);
                self.ep[CH_PROD]
                    .ch
                    .start(va, true, true)
                    .extend(self.stage.drain(..bytes));
                self.advance(ctx, CH_PROD);
                self.ep[CH_PROD].backoff = self.backoff; // progress: reset backoff
                self.prod = ProdState::WriteData { n };
            }
            ProdState::WriteData { n } => {
                if self.ep[CH_PROD].ch.finish() {
                    // WCM ordering: the data write completed coherently;
                    // wait out the ordering drain, then publish the index.
                    self.prod = ProdState::WcmDrain {
                        n,
                        until: ctx.cycle + self.wcm_turnaround,
                    };
                }
            }
            ProdState::WcmDrain { n, until } => {
                if ctx.cycle >= until && self.mte_free(CH_PROD) {
                    self.wr += n;
                    self.counters.produced.add(n);
                    self.publish_index(ctx, CH_PROD);
                    self.prod = ProdState::UpdateWr;
                }
            }
            ProdState::UpdateWr => {
                if self.ep[CH_PROD].ch.finish() {
                    self.prod = ProdState::Collect;
                }
            }
        }
    }

    /// Functional (untimed) translation for the abort drain: TLB hit, or
    /// a page-table walk executed in place with direct PTE reads. Returns
    /// `None` on an unmapped page — the drain skips, it never faults.
    fn translate_now(&mut self, ctx: &Ctx<'_>, va: u64) -> Option<u64> {
        if let TlbResult::Hit { pa } = self.mmu.lookup(va) {
            return Some(pa);
        }
        let root = self.mmu.root_pa()?;
        let walk = sv39::walk(&ctx.mem, root, va)?;
        self.mmu.insert(va, walk.pa, walk.size);
        match self.mmu.lookup(va) {
            TlbResult::Hit { pa } => Some(pa),
            TlbResult::Miss => None,
        }
    }

    /// The graceful-drain half of a watchdog abort — the quiesce and
    /// checkpoint steps of failover. Runs functionally (the timed
    /// datapath is what hung); data lives in `PhysMem` so every write is
    /// immediately visible, and the data-before-pointer order still
    /// holds. The steps, in order:
    ///
    /// 1. finish the producer's in-flight transaction (a half-written
    ///    data block is rewritten idempotently; a pending index
    ///    publication is completed);
    /// 2. finish the consumer's in-flight feed, so every byte in the
    ///    accelerator's staging ratchet is input the read index covers;
    /// 3. drain the accelerator (in-flight block + staged blocks) and
    ///    flush complete elements into the output ring;
    /// 4. spill datapath residue — the partial input block and output
    ///    that did not fit — to the checkpoint area (if configured) for
    ///    the resuming engine to restore;
    /// 5. republish **both** queue indices from the engine's
    ///    authoritative internal views, covering in-flight `UpdateRd` /
    ///    `UpdateWr` publications that were lost with the datapath.
    ///
    /// Together with the epoch fence this makes migration exactly-once:
    /// memory afterwards accounts for every element precisely once.
    /// "Functionally" also means behind the coherence protocol's back —
    /// no line is acquired, so a core spinning on the write index keeps
    /// its copy — and the drain ends by announcing that
    /// ([`FaultState::announce_bypass_write`]). Returns elements flushed
    /// into the ring.
    fn watchdog_drain(&mut self, ctx: &mut Ctx<'_>) -> u64 {
        // The internal index views are only authoritative once the
        // endpoint's init reads completed; before that, memory already
        // holds the truth and must not be overwritten with zeros.
        let rd_valid = !matches!(
            self.cons,
            ConsState::Off | ConsState::Csr | ConsState::InitRd | ConsState::Halted
        );
        let wr_valid = !matches!(
            self.prod,
            ProdState::Off | ProdState::InitRd | ProdState::InitWr | ProdState::Halted
        );
        match self.prod {
            ProdState::WriteData { .. } => {
                // The data block was (partially) written at slot_va(wr)
                // with wr unpublished. Put it back in front of the stage:
                // the flush below rewrites the same slots with the same
                // bytes, so the completed prefix is rewritten harmlessly.
                let buf = self.ep[CH_PROD].ch.buf().iter().copied();
                self.stage.splice(0..0, buf);
            }
            ProdState::WcmDrain { n, .. } => {
                // Data fully written, publication pending: finish it.
                self.wr += n;
                self.counters.produced.add(n);
            }
            _ => {}
        }
        let spill_pa = self.reg(regs::SPILL_PA);
        if spill_pa != 0 {
            if let ConsState::Feed { fed, n } = self.cons {
                // Part of this fetch is already in the ratchet; the rest
                // is in the channel buffer. Finish the feed and account
                // it, so the ratchet holds only input the read index
                // covers — the spill below preserves any partial block.
                // Without a spill area the feed is abandoned instead: the
                // read index stays unadvanced and a resuming binding
                // refetches the whole chunk (a resume resets the ratchet,
                // so rescued words could not survive it).
                for word in self.ep[CH_CONS].ch.buf()[fed..].chunks_exact(8) {
                    self.accel.push_word(word_at(word, 0));
                }
                self.rd += n;
                self.counters.consumed.add(n);
            }
        }
        for w in self.accel.drain_words() {
            self.stage.extend_from_slice(&w.to_le_bytes());
        }
        // Refresh the consumer's published read index so the ring-full
        // check below uses fresh state, not a stale snapshot.
        let [in_q, out_q] = [self.ep[CH_CONS].q, self.ep[CH_PROD].q];
        if out_q.len > 0 {
            if let Some(pa) = self.translate_now(ctx, out_q.rd_va) {
                self.known_rd = ctx.mem.read_u64(pa);
            }
        }
        let elem = out_q.elem.max(8) as usize;
        let mut drained = 0u64;
        while wr_valid && self.stage.len() >= elem {
            if out_q.len <= self.wr.wrapping_sub(self.known_rd) {
                break; // ring full: the rest spills below
            }
            let va = out_q.slot_va(self.wr);
            let data: Vec<u8> = self.stage.drain(..elem).collect();
            if let Some(pa) = self.translate_now(ctx, va) {
                ctx.mem.write_bytes(pa, &data);
                self.wr += 1;
                drained += 1;
            }
        }
        if drained > 0 {
            self.counters.produced.add(drained);
            self.counters.drained_elems.add(drained);
        }
        if spill_pa != 0 {
            // Checkpoint the residue: the partial input block (already
            // covered by rd — un-consuming is unsound once the producer
            // saw the published index) and output that found no ring
            // space. `[n_in, n_out, in_words…, out_words…]`.
            let residue = self.accel.take_staged_words();
            let leftovers: Vec<u8> = self.stage.drain(..).collect();
            ctx.mem.write_u64(spill_pa, residue.len() as u64);
            ctx.mem
                .write_u64(spill_pa + 8, (leftovers.len() / 8) as u64);
            let mut pa = spill_pa + 16;
            for w in &residue {
                ctx.mem.write_u64(pa, *w);
                pa += 8;
            }
            for chunk in leftovers.chunks_exact(8) {
                ctx.mem.write_u64(pa, word_at(chunk, 0));
                pa += 8;
            }
        }
        // Republish both indices: an UpdateRd/UpdateWr that died in
        // flight is functionally completed here, and memory becomes the
        // single source of truth for the checkpoint.
        if rd_valid && in_q.len > 0 {
            if let Some(pa) = self.translate_now(ctx, in_q.rd_va) {
                ctx.mem.write_u64(pa, self.rd);
            }
        }
        if wr_valid && out_q.len > 0 {
            if let Some(pa) = self.translate_now(ctx, out_q.wr_va) {
                ctx.mem.write_u64(pa, self.wr);
            }
        }
        // Every write above is a plain store with no grant behind it: a
        // core spinning on the write index keeps its S copy of the line.
        self.fault_state.announce_bypass_write();
        drained
    }

    /// The state labels of the two machines, by side (trace span names).
    fn labels(&self) -> [&'static str; 2] {
        [self.cons.label(), self.prod.label()]
    }

    /// True while `side` waits on software, not hardware: such a wait
    /// restarts the watchdog timer at every step.
    fn benign(&self, side: usize, dead: bool) -> bool {
        !dead
            && if side == CH_CONS {
                matches!(
                    self.cons,
                    ConsState::Off | ConsState::Waiting | ConsState::Halted
                )
            } else {
                matches!(self.prod, ProdState::Off | ProdState::Halted)
                    || (matches!(self.prod, ProdState::Collect)
                        && self.stage.len() < self.ep[CH_PROD].q.elem as usize)
            }
    }

    /// The per-direction forward-progress watchdog. "Progress" is a
    /// change in the endpoint's observable signature (state label, element
    /// counter, channel offset, staged bytes); benign waiting states reset
    /// the timer. A budget overrun aborts the in-flight transaction, drains
    /// staged output, and latches the direction's watchdog error bit.
    fn check_watchdog(&mut self, ctx: &mut Ctx<'_>) {
        if self.watchdog_cycles == 0 || self.error_status != 0 {
            return;
        }
        // A fail-stopped datapath makes no state benign: even an idle
        // wait is a wedge once the engine is dead, so the dead-man's
        // handle always fires within one budget of the kill.
        let dead = self.killed();
        let labels = self.labels();
        let moved = [self.counters.consumed.get(), self.counters.produced.get()];
        let staged = [0, self.stage.len()];
        let mut bits = 0;
        for side in [CH_CONS, CH_PROD] {
            let offset = self.ep[side].ch.offset();
            let sig = (labels[side], moved[side], offset, staged[side]);
            if self.benign(side, dead) || sig != self.ep[side].sig {
                self.ep[side].sig = sig;
                self.ep[side].progress_at = ctx.cycle;
            }
            if ctx.cycle.saturating_sub(self.ep[side].progress_at) > self.watchdog_cycles {
                bits |= [regs::ERR_WATCHDOG_CONS, regs::ERR_WATCHDOG_PROD][side];
            }
        }
        if bits == 0 {
            return;
        }
        self.counters.watchdog_trips.inc();
        let args = vec![
            ("cons", labels[CH_CONS].into()),
            ("prod", labels[CH_PROD].into()),
        ];
        self.trace_fault("watchdog_trip", ctx.cycle, args);
        self.watchdog_drain(ctx);
        if dead {
            bits |= regs::ERR_ENGINE_DEAD;
            if let Some(at) = self.dead_since {
                self.failover_detect.record(ctx.cycle.saturating_sub(at));
            }
        }
        self.raise_error(ctx, bits);
    }
}

impl ConsState {
    fn label(&self) -> &'static str {
        match self {
            ConsState::Off => "cons:Off",
            ConsState::Csr => "cons:Csr",
            ConsState::InitRd => "cons:InitRd",
            ConsState::InitWr => "cons:InitWr",
            ConsState::Judge => "cons:Judge",
            ConsState::Waiting => "cons:Waiting",
            ConsState::Backoff { .. } => "cons:Backoff",
            ConsState::ReadWr => "cons:ReadWr",
            ConsState::Fetch { .. } => "cons:Fetch",
            ConsState::Feed { .. } => "cons:Feed",
            ConsState::UpdateRd => "cons:UpdateRd",
            ConsState::Halted => "cons:Halted",
        }
    }
}

impl ProdState {
    fn label(&self) -> &'static str {
        match self {
            ProdState::Off => "prod:Off",
            ProdState::InitRd => "prod:InitRd",
            ProdState::InitWr => "prod:InitWr",
            ProdState::Collect => "prod:Collect",
            ProdState::BackoffFull { .. } => "prod:BackoffFull",
            ProdState::ReadRd => "prod:ReadRd",
            ProdState::WriteData { .. } => "prod:WriteData",
            ProdState::WcmDrain { .. } => "prod:WcmDrain",
            ProdState::UpdateWr => "prod:UpdateWr",
            ProdState::Halted => "prod:Halted",
        }
    }
}

impl CohortEngine {
    /// Emits a state-residency span for each state machine that changed
    /// label this step, and advances the enter stamps (also with tracing
    /// off, so spans are correct once it is enabled).
    fn trace_state_spans(&mut self, cycle: u64, prev: [&'static str; 2]) {
        let now = self.labels();
        for side in [CH_CONS, CH_PROD] {
            if now[side] == prev[side] {
                continue;
            }
            let since = std::mem::replace(&mut self.ep[side].since, cycle);
            if let Some(trace) = self.trace.as_ref().filter(|t| t.is_enabled()) {
                let dur = cycle.saturating_sub(since).max(1);
                let args = vec![("next", now[side].into())];
                trace.complete(self.tid, "engine", prev[side], since, dur, args);
            }
        }
    }
}

impl Component for CohortEngine {
    fn name(&self) -> &str {
        "engine"
    }

    // Scope by engine index, not component slot: slot numbers depend on
    // how many components precede the engines in build order, while the
    // engine index is the stable hardware identity ([`set_engine_index`]
    // runs before the engine joins the SoC). Two engines therefore get
    // `engine#0` / `engine#1` regardless of mesh assembly order, and a
    // shard sweep's per-engine stats line up across configurations.
    fn scope(&self, _id: CompId) -> String {
        format!("engine#{}", self.engine_index)
    }

    fn attach(&mut self, obs: &Observability) {
        let c = &self.counters;
        for (name, counter) in [
            ("consumed", &c.consumed),
            ("produced", &c.produced),
            ("rcm_invalidations", &c.rcm_invalidations),
            ("backoffs", &c.backoffs),
            ("faults", &c.faults),
            ("full_stalls", &c.full_stalls),
            ("tlb_hits", &self.mmu.counters().hits),
            ("tlb_misses", &self.mmu.counters().misses),
            ("watchdog_trips", &c.watchdog_trips),
            ("error_irqs", &c.error_irqs),
            ("drained_elems", &c.drained_elems),
            ("resumes", &c.resumes),
            ("rebinds", &c.rebinds),
        ] {
            obs.adopt_counter(name, counter);
        }
        obs.adopt_histogram("in_queue_occupancy", &self.in_occupancy);
        obs.adopt_histogram("out_queue_occupancy", &self.out_occupancy);
        obs.adopt_histogram("backoff_window", &self.backoff_window);
        obs.adopt_histogram("error_irq_latency", &self.error_irq_latency);
        obs.adopt_histogram("failover_detect", &self.failover_detect);
        obs.adopt_histogram("failover_rebind", &self.failover_rebind);
        obs.adopt_histogram("failover_resume", &self.failover_resume);
        self.port.port_counters().register(obs, "mte");
        self.trace = Some(obs.trace.clone());
        self.tid = obs.tid;
        self.fault_state = obs.faults.clone();
    }

    fn step(&mut self, ctx: &mut Ctx<'_>) {
        let dead = self.killed();
        while let Some(env) = ctx.recv() {
            match &env.msg {
                m if CoherentPort::wants(m) => {
                    // Service the coherence protocol either way (the port
                    // must keep answering the directory), but a dead
                    // datapath drops the completions on the floor.
                    let events = self.port.handle(&env, ctx);
                    if !dead {
                        for ev in events {
                            self.route_event(ctx, ev);
                        }
                    }
                }
                Msg::MmioWrite { pa, value, tag } => {
                    let (pa, value, tag) = (*pa, *value, *tag);
                    self.on_mmio_write(ctx, pa, value);
                    ctx.send_delayed(env.src, Msg::MmioWriteResp { tag }, self.mmio_latency);
                }
                Msg::MmioRead { pa, tag } => {
                    let value = self.on_mmio_read(*pa);
                    ctx.send_delayed(
                        env.src,
                        Msg::MmioReadResp { tag: *tag, value },
                        self.mmio_latency,
                    );
                }
                other => panic!("engine received unexpected message {other:?}"),
            }
        }
        if !self.enabled {
            return;
        }
        if dead {
            // Fail-stop: the datapath is frozen solid — no channel
            // advance, no accelerator cycle, no endpoint steps. Only the
            // register file (serviced above) and the watchdog survive,
            // and the watchdog is what detects the wedge.
            if self.dead_since.is_none() {
                self.dead_since = Some(ctx.cycle);
                self.trace_fault("fail_stop", ctx.cycle, vec![]);
            }
            self.check_watchdog(ctx);
            return;
        }
        // Advance hit-path channel completions.
        for side in [CH_CONS, CH_PROD] {
            self.advance(ctx, side);
        }
        // An injected stall freezes the accelerator pipeline entirely: no
        // launches, no retirements, valid/ready both held low.
        if !self.stalled(ctx.cycle) {
            self.accel.step(ctx.cycle);
        }
        let prev = self.labels();
        self.step_consumer(ctx);
        self.step_producer(ctx);
        self.check_watchdog(ctx);
        self.trace_state_spans(ctx.cycle, prev);
        if let Some((t0, base)) = self.resume_watch {
            if self.counters.produced.get() > base {
                self.failover_resume.record(ctx.cycle.saturating_sub(t0));
                self.resume_watch = None;
            }
        }
        // Sample queue occupancy as seen by the engine.
        self.in_occupancy
            .record(self.known_wr.saturating_sub(self.rd));
        self.out_occupancy
            .record(self.wr.saturating_sub(self.known_rd));
    }

    fn quiescent_for(&self, now: u64) -> u64 {
        if !self.enabled {
            // A disabled engine services only MMIO, and MMIO arrives as
            // messages — delivery already forces a stepped cycle.
            return u64::MAX;
        }
        let dead = self.killed();
        let mut k = if dead {
            if self.dead_since.is_none() {
                return 0; // the next step latches dead_since and traces it
            }
            u64::MAX // frozen datapath: only the watchdog (below) can act
        } else {
            // An endpoint mid-transfer is frozen until its channel either
            // completes (consumed next step) or frees up.
            let actionable = |i: usize| self.ep[i].ch.settled();
            let cons = match self.cons {
                ConsState::Off | ConsState::Halted => u64::MAX,
                ConsState::Waiting => {
                    if self.rcm_pending(CH_CONS) {
                        0
                    } else {
                        // Wakes only when the pinned rd line is touched,
                        // and invalidations arrive as port messages.
                        u64::MAX
                    }
                }
                ConsState::Backoff { until } => until.saturating_sub(now),
                ConsState::Feed { fed, .. } => {
                    if fed < self.ep[CH_CONS].ch.buf().len() {
                        if self.stalled(now) {
                            // Frozen feed; the injector re-hints everyone
                            // when the stall window closes.
                            u64::MAX
                        } else if self.accel.ready(now) {
                            0 // a word goes in this coming cycle
                        } else {
                            // Back-pressured mid-chunk: ready rises when
                            // the in-flight block retires.
                            self.accel.next_event(now, self.stage_ready())
                        }
                    } else {
                        0 // finalise: publish the read index
                    }
                }
                ConsState::Csr
                | ConsState::InitRd
                | ConsState::InitWr
                | ConsState::ReadWr
                | ConsState::Fetch { .. }
                | ConsState::UpdateRd => {
                    if actionable(CH_CONS) {
                        0
                    } else {
                        u64::MAX
                    }
                }
                ConsState::Judge => 0,
            };
            let prod = match self.prod {
                ProdState::Off | ProdState::Halted => u64::MAX,
                ProdState::Collect => {
                    // A full element acts (or counts a full-stall) every
                    // cycle; a partial one waits on accelerator output,
                    // which the accel bound below covers.
                    if self.stage.len() >= self.ep[CH_PROD].q.elem as usize {
                        0
                    } else {
                        u64::MAX
                    }
                }
                ProdState::BackoffFull { until } | ProdState::WcmDrain { until, .. } => {
                    until.saturating_sub(now)
                }
                ProdState::InitRd
                | ProdState::InitWr
                | ProdState::ReadRd
                | ProdState::WriteData { .. }
                | ProdState::UpdateWr => {
                    if actionable(CH_PROD) {
                        0
                    } else {
                        u64::MAX
                    }
                }
            };
            let accel = if self.stalled(now) {
                // A stalled pipeline is frozen solid; the injector
                // re-hints everyone when the stall window closes.
                u64::MAX
            } else {
                // A buffered output word is an event only while the
                // producer's stage can take it.
                self.accel.next_event(now, self.stage_ready())
            };
            self.ep[CH_CONS]
                .ch
                .hint(now)
                .min(self.ep[CH_PROD].ch.hint(now))
                .min(cons)
                .min(prod)
                .min(accel)
        };
        if self.watchdog_cycles != 0 && self.error_status == 0 {
            // Bound the skip to the trip cycle of any non-benign endpoint
            // (benign sides reset their timer at every stepped cycle and
            // can never trip).
            for side in [CH_CONS, CH_PROD] {
                if !self.benign(side, dead) {
                    let trip = self.ep[side].progress_at + self.watchdog_cycles + 1;
                    k = k.min(trip.saturating_sub(now));
                }
            }
        }
        k
    }

    fn fast_forward(&mut self, skipped: u64) {
        // Reconcile the per-cycle occupancy samples the skipped steps
        // would have taken; the disabled and dead paths return before
        // sampling, so they reconcile nothing.
        if !self.enabled || self.killed() {
            return;
        }
        self.in_occupancy
            .record_n(self.known_wr.saturating_sub(self.rd), skipped);
        self.out_occupancy
            .record_n(self.wr.saturating_sub(self.known_rd), skipped);
        // Each skipped step would also have restarted the watchdog timer
        // of a benign endpoint (see `check_watchdog`). The engine may be
        // killed in its sleep and must then trip one budget after its
        // last benign cycle, not after the last cycle it was stepped.
        if self.watchdog_cycles != 0 && self.error_status == 0 {
            for side in [CH_CONS, CH_PROD] {
                if self.benign(side, false) {
                    self.ep[side].progress_at += skipped;
                }
            }
        }
    }

    fn is_idle(&self) -> bool {
        if !self.enabled {
            return true;
        }
        if self.killed() && self.error_status == 0 {
            // Dead but not yet detected: keep cycles flowing so the
            // dead-man's handle can fire.
            return false;
        }
        // A halted engine is quiescent: it does nothing until software
        // clears ERROR_STATUS, regardless of residual staged data.
        let halted =
            matches!(self.cons, ConsState::Halted) && matches!(self.prod, ProdState::Halted);
        self.ep.iter().all(|ep| ep.ch.idle())
            && self.port.is_idle()
            && (halted
                || (matches!(self.cons, ConsState::Waiting | ConsState::Off)
                    && matches!(self.prod, ProdState::Collect | ProdState::Off)
                    && !self.rcm_pending(CH_CONS)
                    && self.stage.len() < self.ep[CH_PROD].q.elem as usize
                    && self.accel.is_idle()))
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let c = &self.counters;
        let m = self.mmu.counters();
        vec![
            ("consumed".into(), c.consumed.get()),
            ("produced".into(), c.produced.get()),
            ("rcm_invalidations".into(), c.rcm_invalidations.get()),
            ("backoffs".into(), c.backoffs.get()),
            ("faults".into(), c.faults.get()),
            ("full_stalls".into(), c.full_stalls.get()),
            ("tlb_hits".into(), m.hits.get()),
            ("tlb_misses".into(), m.misses.get()),
            ("tlb_flushes".into(), m.flushes.get()),
            ("watchdog_trips".into(), c.watchdog_trips.get()),
            ("error_irqs".into(), c.error_irqs.get()),
            ("drained_elems".into(), c.drained_elems.get()),
            ("resumes".into(), c.resumes.get()),
            ("rebinds".into(), c.rebinds.get()),
        ]
    }
}
