//! The MAPLE unit component: MMIO and coherent-DMA accelerator hosting.

use cohort_accel::ratchet::pop_le_word;
use cohort_accel::timing::TimedAccel;
use cohort_os::mmu::DeviceMmu;
use cohort_os::mte::{self, MteChannel, Stall};
use cohort_sim::component::{CompId, Component, Ctx, Observability};
use cohort_sim::config::SocConfig;
use cohort_sim::faultinject::FaultState;
use cohort_sim::msg::Msg;
use cohort_sim::port::{CoherentPort, PortEvent};
use cohort_sim::stats::Counter;
use cohort_sim::LINE_BYTES;
use std::collections::VecDeque;

use crate::regs;

/// A held (blocking) MMIO request.
#[derive(Debug, Clone, Copy)]
enum HeldMmio {
    Push { src: CompId, tag: u64, value: u64 },
    Pop { src: CompId, tag: u64 },
    Done { src: CompId, tag: u64 },
}

/// DMA engine state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DmaState {
    Idle,
    Running,
}

/// The error sentinel a fail-stopped MAPLE unit returns for blocking
/// reads (`POP`, `DMA_DONE`): no legal word count or output value is
/// all-ones, so software can detect the fault instead of hanging.
pub const DEAD_SENTINEL: u64 = u64::MAX;

/// Performance counters of the MAPLE unit. Registry-backed: after
/// [`Component::attach`] the same cells are visible through the SoC's
/// [`cohort_sim::stats::Stats`] registry.
#[derive(Debug, Default, Clone)]
pub struct MapleCounters {
    /// MMIO words pushed.
    pub mmio_pushes: Counter,
    /// MMIO words popped.
    pub mmio_pops: Counter,
    /// DMA transfers completed.
    pub dma_transfers: Counter,
    /// Input bytes moved by DMA.
    pub dma_in_bytes: Counter,
    /// Output bytes moved by DMA.
    pub dma_out_bytes: Counter,
    /// Fail-stop aborts taken (blocking requests flushed with the error
    /// sentinel, in-flight DMA abandoned).
    pub fail_stops: Counter,
}

/// The MAPLE baseline unit. Map `mmio_base..mmio_base + regs::BANK_BYTES`.
pub struct MapleUnit {
    mmio_base: u64,
    port: CoherentPort,
    mmu: DeviceMmu,
    accel: TimedAccel,
    held: VecDeque<HeldMmio>,
    csr_stage: Vec<u8>,
    // DMA programming registers.
    dma_src: u64,
    dma_dst: u64,
    dma_len: u64,
    dma_state: DmaState,
    // DMA runtime.
    src_off: u64,
    in_buf: VecDeque<u8>,
    fed: u64,
    out_stage: Vec<u8>,
    dst_off: u64,
    /// The DMA's MTE channel: one access in flight at a time.
    mte: MteChannel,
    mmio_latency: u64,
    counters: MapleCounters,
    /// SoC-wide fault switches, from [`Component::attach`]: injected
    /// stalls gate the accelerator/DMA datapath, and a fail-stop fault
    /// aborts cleanly instead of hanging the core's blocking accesses.
    fault_state: FaultState,
    /// The fail-stop abort already ran (flush once, stay dead).
    dead_latched: bool,
}

impl std::fmt::Debug for MapleUnit {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MapleUnit")
            .field("dma_state", &self.dma_state)
            .field("held", &self.held.len())
            .finish()
    }
}

impl MapleUnit {
    /// Creates a MAPLE unit hosting `accel`, talking to directory `dir`,
    /// with its registers at `mmio_base`.
    pub fn new(
        dir: CompId,
        cfg: &SocConfig,
        mmio_base: u64,
        accel: Box<dyn cohort_accel::Accelerator>,
    ) -> Self {
        let (port, mmu) = mte::memory(dir, cfg);
        Self {
            mmio_base,
            port,
            mmu,
            accel: TimedAccel::new(accel),
            held: VecDeque::new(),
            csr_stage: Vec::new(),
            dma_src: 0,
            dma_dst: 0,
            dma_len: 0,
            dma_state: DmaState::Idle,
            src_off: 0,
            in_buf: VecDeque::new(),
            fed: 0,
            out_stage: Vec::new(),
            dst_off: 0,
            mte: MteChannel::new(0),
            mmio_latency: cfg.timing.mmio_device,
            counters: MapleCounters::default(),
            fault_state: FaultState::default(),
            dead_latched: false,
        }
    }

    /// Counter snapshot.
    pub fn maple_counters(&self) -> &MapleCounters {
        &self.counters
    }

    /// True while an injected stall holds the accelerator datapath.
    fn stalled(&self, cycle: u64) -> bool {
        self.fault_state.maple_stalled(cycle)
    }

    /// True once a fail-stop fault permanently killed the unit.
    fn dead(&self) -> bool {
        self.fault_state.maple_killed()
    }

    /// The fail-stop abort: run once when the kill is first observed.
    /// Every held (blocking) request is answered with [`DEAD_SENTINEL`]
    /// so the core unblocks and software sees a clean error; the
    /// in-flight DMA is abandoned. The accelerator datapath stays dead.
    fn abort_dead(&mut self, ctx: &mut Ctx<'_>) {
        self.counters.fail_stops.inc();
        while let Some(h) = self.held.pop_front() {
            match h {
                HeldMmio::Push { src, tag, .. } => {
                    ctx.send_delayed(src, Msg::MmioWriteResp { tag }, self.mmio_latency);
                }
                HeldMmio::Pop { src, tag } | HeldMmio::Done { src, tag } => {
                    ctx.send_delayed(
                        src,
                        Msg::MmioReadResp {
                            tag,
                            value: DEAD_SENTINEL,
                        },
                        self.mmio_latency,
                    );
                }
            }
        }
        self.dma_state = DmaState::Idle;
        self.mte.cancel();
        self.in_buf.clear();
        self.out_stage.clear();
    }

    fn on_mmio_write(&mut self, ctx: &mut Ctx<'_>, src: CompId, pa: u64, value: u64, tag: u64) {
        let off = pa - self.mmio_base;
        if self.dead_latched {
            // A fail-stopped unit acknowledges every write without acting
            // on it, so the core never hangs on a dead device. Software
            // detects the fault through the [`DEAD_SENTINEL`] read paths.
            ctx.send_delayed(src, Msg::MmioWriteResp { tag }, self.mmio_latency);
            return;
        }
        match off {
            regs::PUSH => return self.arrive(ctx, HeldMmio::Push { src, tag, value }),
            regs::CSR_DATA => {
                self.csr_stage.extend_from_slice(&value.to_le_bytes());
            }
            regs::CSR_COMMIT => {
                // `value` is the meaningful CSR byte count.
                let len = (value as usize).min(self.csr_stage.len());
                let buf: Vec<u8> = self.csr_stage.drain(..).collect();
                self.accel
                    .configure(&buf[..len])
                    .expect("accelerator rejected CSR configuration");
            }
            regs::DMA_SRC => self.dma_src = value,
            regs::DMA_DST => self.dma_dst = value,
            regs::DMA_LEN => self.dma_len = value,
            regs::DMA_PTROOT => self.mmu.set_root(value),
            regs::DMA_START => {
                assert_eq!(self.dma_state, DmaState::Idle, "DMA already running");
                self.dma_state = DmaState::Running;
                self.src_off = 0;
                self.dst_off = 0;
                self.fed = 0;
                self.in_buf.clear();
                self.out_stage.clear();
            }
            regs::RESET => {
                self.accel.reset();
                self.dma_state = DmaState::Idle;
                self.mte.cancel();
                self.in_buf.clear();
                self.out_stage.clear();
                self.csr_stage.clear();
            }
            other => panic!("MAPLE write to unknown register offset {other:#x}"),
        }
        ctx.send_delayed(src, Msg::MmioWriteResp { tag }, self.mmio_latency);
    }

    fn on_mmio_read(&mut self, ctx: &mut Ctx<'_>, src: CompId, pa: u64, tag: u64) {
        let off = pa - self.mmio_base;
        if self.dead_latched {
            ctx.send_delayed(
                src,
                Msg::MmioReadResp {
                    tag,
                    value: DEAD_SENTINEL,
                },
                self.mmio_latency,
            );
            return;
        }
        match off {
            regs::POP => self.arrive(ctx, HeldMmio::Pop { src, tag }),
            regs::DMA_DONE => self.arrive(ctx, HeldMmio::Done { src, tag }),
            other => panic!("MAPLE read of unknown register offset {other:#x}"),
        }
    }

    /// One handshake of a blocking request: a push needs the accelerator
    /// ready, a pop needs an output word, a completion poll needs the DMA
    /// idle. Answers it and returns true, or returns false with nothing
    /// changed — the response is held and the core stalls (§2.1 semantics).
    fn try_serve(&mut self, ctx: &mut Ctx<'_>, h: HeldMmio) -> bool {
        let (src, resp) = match h {
            HeldMmio::Push { src, tag, value } => {
                if !self.accel.ready(ctx.cycle) {
                    return false;
                }
                self.accel.push_word(value);
                self.counters.mmio_pushes.inc();
                (src, Msg::MmioWriteResp { tag })
            }
            HeldMmio::Pop { src, tag } => {
                let Some(value) = self.accel.pop_word(ctx.cycle) else {
                    return false;
                };
                self.counters.mmio_pops.inc();
                (src, Msg::MmioReadResp { tag, value })
            }
            HeldMmio::Done { src, tag } => {
                if self.dma_state != DmaState::Idle {
                    return false;
                }
                let value = self.dst_off;
                (src, Msg::MmioReadResp { tag, value })
            }
        };
        ctx.send_delayed(src, resp, self.mmio_latency);
        true
    }

    /// A blocking request arrives: served at once if it can be, else held.
    /// An injected stall holds valid/ready low across the accelerator
    /// interface, so a push or pop waits it out; `DMA_DONE` does not cross
    /// that interface and is answered whenever the DMA is idle.
    fn arrive(&mut self, ctx: &mut Ctx<'_>, h: HeldMmio) {
        let gated = !matches!(h, HeldMmio::Done { .. }) && self.stalled(ctx.cycle);
        if gated || !self.try_serve(ctx, h) {
            self.held.push_back(h);
        }
    }

    /// Serves held (blocking) MMIO requests that can now complete; the
    /// rest stay held in arrival order.
    fn serve_held(&mut self, ctx: &mut Ctx<'_>) {
        let mut held = std::mem::take(&mut self.held);
        held.retain(|&h| !self.try_serve(ctx, h));
        self.held = held;
    }

    /// Starts a coherent access of `len` bytes at `va`; a write stores
    /// the head of the result stage, which drains when it completes.
    fn start_access(&mut self, ctx: &mut Ctx<'_>, va: u64, len: usize, write: bool) {
        let buf = self.mte.start(va, write, false);
        if write {
            buf.extend_from_slice(&self.out_stage[..len]);
        } else {
            buf.resize(len, 0);
        }
        let r = self.mte.advance(ctx, &mut self.port, &mut self.mmu);
        self.settle(r);
    }

    /// Takes the channel's outcome: a retry frees the slot for the DMA loop
    /// to pick afresh next step, and a completed access moves its bytes.
    fn settle(&mut self, r: Result<(), Stall>) {
        match r {
            Ok(()) => {}
            Err(Stall::Retry) => self.mte.cancel(),
            Err(Stall::Fault { va }) => {
                panic!("MAPLE DMA page fault at va {va:#x} (memory must be mapped)")
            }
        }
        if !self.mte.finish() {
            return;
        }
        let n = self.mte.buf().len();
        if self.mte.writing() {
            self.out_stage.drain(..n);
            self.dst_off += n as u64;
            self.counters.dma_out_bytes.add(n as u64);
        } else {
            self.in_buf.extend(self.mte.buf());
            self.src_off += n as u64;
            self.counters.dma_in_bytes.add(n as u64);
        }
    }

    /// The DMA writer wants the access slot: a full result line is staged,
    /// or the tail of the transfer is.
    fn dma_wants_flush(&self) -> bool {
        self.out_stage.len() >= LINE_BYTES as usize
            || (!self.out_stage.is_empty()
                && self.fed * 8 >= self.dma_len
                && self.accel.output_len() < 8)
    }

    /// The DMA reader wants the access slot: input remains and the
    /// two-line prefetch buffer has room.
    fn dma_wants_fetch(&self) -> bool {
        self.src_off < self.dma_len && self.in_buf.len() < 2 * LINE_BYTES as usize
    }

    /// The DMA datapath takes accelerator output while its four-line
    /// staging buffer has room.
    fn dma_stage_ready(&self) -> bool {
        self.out_stage.len() < 4 * LINE_BYTES as usize
    }

    /// Everything was read, fed, computed and written back.
    fn dma_finished(&self) -> bool {
        self.src_off >= self.dma_len
            && self.in_buf.is_empty()
            && self.fed * 8 >= self.dma_len
            && self.accel.is_idle()
            && self.out_stage.is_empty()
            && self.mte.idle()
    }

    fn step_dma(&mut self, ctx: &mut Ctx<'_>) {
        if self.dma_state != DmaState::Running {
            return;
        }
        // Writer has priority: drain results into the destination buffer a
        // line at a time (the coherent TRI store path).
        if self.mte.idle() {
            if self.dma_wants_flush() {
                let va = self.dma_dst + self.dst_off;
                let contig = (LINE_BYTES - (va % LINE_BYTES)) as usize;
                let len = self.out_stage.len().min(contig);
                self.start_access(ctx, va, len, true);
            } else if self.dma_wants_fetch() {
                // Prefetch the next input line.
                let va = self.dma_src + self.src_off;
                let contig = (LINE_BYTES - (va % LINE_BYTES)) as usize;
                let len = contig.min((self.dma_len - self.src_off) as usize);
                self.start_access(ctx, va, len, false);
            }
        }
        // Feed the accelerator one word per cycle.
        if self.accel.ready(ctx.cycle) {
            if let Some(word) = pop_le_word(&mut self.in_buf) {
                self.accel.push_word(word);
                self.fed += 1;
            }
        }
        // Collect output.
        if self.dma_stage_ready() {
            if let Some(w) = self.accel.pop_word(ctx.cycle) {
                self.out_stage.extend_from_slice(&w.to_le_bytes());
            }
        }
        if self.dma_finished() {
            self.dma_state = DmaState::Idle;
            self.counters.dma_transfers.inc();
        }
    }
}

impl Component for MapleUnit {
    fn name(&self) -> &str {
        "maple"
    }

    fn step(&mut self, ctx: &mut Ctx<'_>) {
        // A fail-stop fault latches once: flush every blocking request
        // with the error sentinel and abandon the in-flight DMA, so the
        // SoC observes a clean device error instead of a hang.
        if !self.dead_latched && self.dead() {
            self.dead_latched = true;
            self.abort_dead(ctx);
        }
        while let Some(env) = ctx.recv() {
            match &env.msg {
                m if CoherentPort::wants(m) => {
                    for ev in self.port.handle(&env, ctx) {
                        if let PortEvent::Completed { token } = ev {
                            let r = self
                                .mte
                                .completed(ctx, &mut self.port, &mut self.mmu, token);
                            self.settle(r);
                        }
                    }
                }
                Msg::MmioWrite { pa, value, tag } => {
                    let (pa, value, tag) = (*pa, *value, *tag);
                    self.on_mmio_write(ctx, env.src, pa, value, tag);
                }
                Msg::MmioRead { pa, tag } => {
                    let (pa, tag) = (*pa, *tag);
                    self.on_mmio_read(ctx, env.src, pa, tag);
                }
                other => panic!("MAPLE received unexpected message {other:?}"),
            }
        }
        if self.dead_latched {
            // Datapath frozen; the coherence port above still answers
            // protocol traffic, but nothing computes or moves.
            return;
        }
        // Hit-path access completion.
        let r = self.mte.advance(ctx, &mut self.port, &mut self.mmu);
        self.settle(r);
        if self.stalled(ctx.cycle) {
            // Injected stall: valid/ready low across the accelerator
            // interface — held requests and the DMA datapath wait it out.
            return;
        }
        self.accel.step(ctx.cycle);
        self.step_dma(ctx);
        self.serve_held(ctx);
    }

    fn quiescent_for(&self, now: u64) -> u64 {
        if !self.dead_latched && self.dead() {
            return 0; // the next step latches the fail-stop and aborts
        }
        if self.dead_latched {
            // Frozen datapath: only incoming messages (serviced at
            // delivery, which forces a stepped cycle) do anything.
            return u64::MAX;
        }
        // The hit-path completion runs even while stalled, so its bound
        // applies unconditionally.
        let k = self.mte.hint(now);
        if self.stalled(now) {
            // Injected stall: the datapath below is frozen, and the
            // injector re-hints everyone when the stall window closes.
            return k;
        }
        // A buffered word is an event only if its sink can take it this
        // cycle: the DMA loop needs the access slot free, a word to feed
        // or one to collect; a held request needs the accelerator's side
        // of its handshake. Otherwise the unit waits on the hit-path
        // completion above, the accelerator's retire, or a message.
        let running = self.dma_state == DmaState::Running;
        let mut sink_ready = false;
        if running {
            let slot_free = self.mte.idle();
            if (slot_free && (self.dma_wants_flush() || self.dma_wants_fetch()))
                || (self.in_buf.len() >= 8 && self.accel.ready(now))
                || self.dma_finished()
            {
                return 0;
            }
            sink_ready = self.dma_stage_ready();
        }
        for h in &self.held {
            match h {
                HeldMmio::Push { .. } if self.accel.ready(now) => return 0,
                HeldMmio::Done { .. } if !running => return 0,
                HeldMmio::Pop { .. } => sink_ready = true,
                _ => {}
            }
        }
        k.min(self.accel.next_event(now, sink_ready))
    }

    fn is_idle(&self) -> bool {
        self.held.is_empty()
            && self.dma_state == DmaState::Idle
            && self.mte.idle()
            && self.port.is_idle()
    }

    fn attach(&mut self, obs: &Observability) {
        let c = &self.counters;
        for (name, counter) in [
            ("mmio_pushes", &c.mmio_pushes),
            ("mmio_pops", &c.mmio_pops),
            ("dma_transfers", &c.dma_transfers),
            ("dma_in_bytes", &c.dma_in_bytes),
            ("dma_out_bytes", &c.dma_out_bytes),
            ("fail_stops", &c.fail_stops),
        ] {
            obs.adopt_counter(name, counter);
        }
        self.port.port_counters().register(obs, "port");
        self.fault_state = obs.faults.clone();
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let c = &self.counters;
        let m = self.mmu.counters();
        vec![
            ("mmio_pushes".into(), c.mmio_pushes.get()),
            ("mmio_pops".into(), c.mmio_pops.get()),
            ("dma_transfers".into(), c.dma_transfers.get()),
            ("dma_in_bytes".into(), c.dma_in_bytes.get()),
            ("dma_out_bytes".into(), c.dma_out_bytes.get()),
            ("fail_stops".into(), c.fail_stops.get()),
            ("tlb_hits".into(), m.hits.get()),
            ("tlb_misses".into(), m.misses.get()),
        ]
    }
}
