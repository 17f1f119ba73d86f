//! An in-order core model in the spirit of Ariane (6-stage, single-issue).
//!
//! The core executes an abstract [`Program`]: cached loads/stores through a
//! [`CoherentPort`] private cache, a draining store buffer that gives
//! store-side memory-level parallelism within a line, blocking MMIO
//! accesses (the §2.1 semantics that make MMIO invocation slow), spin-wait
//! polling, release fences, and modelled interrupt handlers for the Cohort
//! page-fault path. It retires at most one instruction per cycle and
//! reports the counters the paper's IPC analysis (§6.2) needs.

use crate::component::{CompId, Component, Ctx, Observability};
use crate::config::SocConfig;
use crate::faultinject::FaultState;
use crate::mem::{MemAccess, PAGE_SHIFT};
use crate::msg::Msg;
use crate::port::{CoherentPort, Outcome, PortEvent, PortEvents};
use crate::program::{Op, Program};
use crate::stats::Counter;
use crate::translate::{Identity, Translator};
use std::collections::VecDeque;

const LOAD_TOKEN: u64 = 1;
const SB_TOKEN: u64 = 2;

/// The core's last few translations, VA page -> PA page, replaced
/// round-robin. Translations are page-granular ([`Translator`]) and page
/// tables change only under an announced write, so the memo stands until
/// the core is told to forget memory, gets a new translator or takes a
/// page fault.
#[derive(Debug, Default)]
struct PageMemo {
    pages: [Option<(u64, u64)>; 4],
    next: usize,
}

impl PageMemo {
    fn get(&self, va: u64) -> Option<u64> {
        let page = va >> PAGE_SHIFT;
        let (_, pa_page) = self.pages.iter().flatten().find(|e| e.0 == page)?;
        Some(pa_page << PAGE_SHIFT | va & ((1 << PAGE_SHIFT) - 1))
    }

    fn insert(&mut self, va: u64, pa: u64) {
        self.pages[self.next] = Some((va >> PAGE_SHIFT, pa >> PAGE_SHIFT));
        self.next = (self.next + 1) % self.pages.len();
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum CState {
    Ready,
    /// A cached load hit; finishes at the embedded cycle.
    LoadDone {
        at: u64,
        pa: u64,
        record: bool,
    },
    /// A cached load missed; waiting for the port.
    WaitLoad {
        pa: u64,
        record: bool,
    },
    /// Spin-wait load in flight (hit path, finishes at cycle).
    SpinDone {
        at: u64,
        pa: u64,
        value: u64,
    },
    /// Spin-wait load missed; waiting for the port.
    WaitSpin {
        pa: u64,
        value: u64,
    },
    /// Waiting for an MMIO response.
    WaitMmio {
        record: bool,
    },
    /// Waiting for the MMIO write issued by an interrupt handler.
    WaitHandlerMmio,
    Done,
}

/// Performance counters for one core. Event counts are registry-backed
/// [`Counter`] handles ([`crate::stats::Stats`]); `done_at` is a cycle
/// stamp, not a count, and stays a plain integer.
#[derive(Debug, Default, Clone)]
pub struct CoreCounters {
    /// Retired instructions.
    pub instret: Counter,
    /// Cycle at which the program finished (0 if still running).
    pub done_at: u64,
    /// Cached loads issued.
    pub loads: Counter,
    /// Stores issued.
    pub stores: Counter,
    /// MMIO operations issued.
    pub mmio_ops: Counter,
    /// Cycles stalled waiting for MMIO responses.
    pub mmio_stall_cycles: Counter,
    /// Cycles stalled waiting for cache misses.
    pub mem_stall_cycles: Counter,
    /// Spin-loop iterations executed.
    pub spin_iters: Counter,
    /// Cycles the store buffer was full and blocked a store.
    pub sb_full_stalls: Counter,
    /// Interrupts taken.
    pub irqs: Counter,
    /// Core-side demand page faults taken.
    pub core_faults: Counter,
}

impl CoreCounters {
    fn reset(&mut self) {
        let Self {
            instret,
            done_at,
            loads,
            stores,
            mmio_ops,
            mmio_stall_cycles,
            mem_stall_cycles,
            spin_iters,
            sb_full_stalls,
            irqs,
            core_faults,
        } = self;
        for c in [
            instret,
            loads,
            stores,
            mmio_ops,
            mmio_stall_cycles,
            mem_stall_cycles,
            spin_iters,
            sb_full_stalls,
            irqs,
            core_faults,
        ] {
            c.reset();
        }
        *done_at = 0;
    }
}

/// The in-order core component.
pub struct InOrderCore {
    port: CoherentPort,
    /// The op at the program counter (`None` past the end of the program),
    /// and the rest of the program, pulled one op at a time.
    op: Option<Op>,
    program: Program,
    state: CState,
    busy_until: u64,
    sb: VecDeque<(u64, u64)>, // (pa, value)
    sb_limit: usize,
    sb_mshrs: usize,
    sb_waiting: bool,
    /// First cycle this core has neither stepped nor reconciled yet, so
    /// `fast_forward` can tell which skipped cycles lie past `busy_until`.
    next_cycle: u64,
    spin_alu: u64,
    spin_insts: u64,
    /// Physical address the current `WaitGe` last issued its load to, if
    /// the line was held and the word was below target at that moment,
    /// while nothing this core knows of can have changed either since (see
    /// [`InOrderCore::parked`]).
    spin_memo: Option<u64>,
    /// The SoC's fault switches, from [`Component::attach`] (nothing steps
    /// a core before it joins a SoC).
    faults: FaultState,
    translator: Box<dyn Translator>,
    page_memo: PageMemo,
    recorded: Vec<u64>,
    mmio_tag: u64,
    /// Remaining blocking MMIO writes queued by an interrupt handler,
    /// issued one at a time through `WaitHandlerMmio`.
    handler_writes: VecDeque<(u64, u64)>,
    irq_pending: VecDeque<(u32, u64)>,
    trap_cost: u64,
    trap_insts: u64,
    counters: CoreCounters,
}

impl std::fmt::Debug for InOrderCore {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InOrderCore")
            .field("op", &self.op)
            .field("state", &self.state)
            .field("instret", &self.counters.instret.get())
            .finish()
    }
}

impl InOrderCore {
    /// Creates a core attached to directory `dir`, executing `program`.
    pub fn new(dir: CompId, cfg: &SocConfig, mut program: Program) -> Self {
        Self {
            port: CoherentPort::new(dir, cfg.l1, cfg.timing.l1_hit),
            op: program.next(),
            program,
            state: CState::Ready,
            busy_until: 0,
            sb: VecDeque::new(),
            sb_limit: cfg.timing.store_buffer,
            sb_mshrs: cfg.timing.sb_mshrs,
            sb_waiting: false,
            next_cycle: 0,
            spin_alu: cfg.timing.spin_alu,
            spin_insts: cfg.timing.spin_insts,
            spin_memo: None,
            faults: FaultState::default(),
            translator: Box::new(Identity),
            page_memo: PageMemo::default(),
            recorded: Vec::new(),
            mmio_tag: 0,
            handler_writes: VecDeque::new(),
            irq_pending: VecDeque::new(),
            trap_cost: cfg.timing.trap_cost,
            trap_insts: cfg.timing.trap_insts,
            counters: CoreCounters::default(),
        }
    }

    /// Installs a virtual-memory translator for this core's accesses.
    pub fn set_translator(&mut self, t: Box<dyn Translator>) {
        self.translator = t;
        self.page_memo = PageMemo::default();
    }

    /// Replaces the program and resets execution state and counters
    /// (the translator is retained). Used by harnesses that
    /// assemble the SoC before the benchmark program is known.
    pub fn load_program(&mut self, mut program: Program) {
        self.op = program.next();
        self.program = program;
        self.state = CState::Ready;
        self.busy_until = 0;
        self.sb.clear();
        self.sb_waiting = false;
        self.spin_memo = None;
        self.recorded.clear();
        self.handler_writes.clear();
        self.irq_pending.clear();
        self.counters.reset();
    }

    /// True once the program has fully retired and drained.
    pub fn is_done(&self) -> bool {
        self.state == CState::Done
    }

    /// Counter snapshot.
    pub fn core_counters(&self) -> &CoreCounters {
        &self.counters
    }

    /// Values recorded by `record`-flagged loads, in program order.
    pub fn recorded(&self) -> &[u64] {
        &self.recorded
    }

    /// Translates `va`; on a miss takes the kernel's fault path
    /// ([`crate::os::Os::core_fault`]: charges trap cost, maps the page,
    /// and the caller retries the op next cycle by returning `None`).
    fn translate(&mut self, ctx: &mut Ctx<'_>, va: u64) -> Option<u64> {
        if let Some(pa) = self.page_memo.get(va) {
            debug_assert!(
                self.translator.translate(&ctx.mem, va) == Some(pa),
                "the page memo maps {va:#x} to {pa:#x}, the translator no longer does: an edit \
                 of page tables must announce itself (FaultState::announce_bypass_write)"
            );
            return Some(pa);
        }
        if let Some(pa) = self.translator.translate(&ctx.mem, va) {
            self.page_memo.insert(va, pa);
            return Some(pa);
        }
        assert!(
            ctx.os.core_fault(&mut ctx.mem, va),
            "core-side page fault at va {va:#x} with no handler"
        );
        // The kernel edits page tables behind every cache, this core's
        // memo included.
        self.page_memo = PageMemo::default();
        self.faults.announce_bypass_write();
        self.counters.core_faults.inc();
        self.counters.instret.add(self.trap_insts);
        self.busy_until = ctx.cycle + self.trap_cost;
        None
    }

    fn sb_forward(&self, pa: u64) -> Option<u64> {
        self.sb
            .iter()
            .rev()
            .find(|(spa, _)| *spa == pa)
            .map(|(_, v)| *v)
    }

    /// The lines the background drain prefetches write permission for:
    /// the first `mshrs - 1` distinct lines buffered behind the head that
    /// no earlier entry (the head included) already covers.
    fn sb_prefetch_lines(
        sb: &VecDeque<(u64, u64)>,
        mshrs: usize,
    ) -> impl Iterator<Item = u64> + '_ {
        let fresh = move |i: usize| {
            let line = crate::line_of(sb[i].0);
            let seen = sb.range(..i).any(|&(pa, _)| crate::line_of(pa) == line);
            (!seen).then_some(line)
        };
        (1..sb.len())
            .filter_map(fresh)
            .take(mshrs.saturating_sub(1))
    }

    /// True when the background drain can only wait: the head's grant is
    /// in flight (it arrives as a message) and every prefetch behind it
    /// would send nothing.
    fn sb_drain_blocked(&self) -> bool {
        self.sb_waiting
            && Self::sb_prefetch_lines(&self.sb, self.sb_mshrs)
                .all(|line| self.port.prefetch_is_noop(line))
    }

    /// True when `exec` could only stall on the current op, cycle after
    /// cycle, until the store buffer moves.
    fn exec_stalls(&self) -> bool {
        let draining = !self.sb.is_empty() || self.sb_waiting;
        match self.op {
            None | Some(Op::Fence) => draining,
            Some(Op::Store { .. }) => self.sb.len() >= self.sb_limit,
            Some(_) => false,
        }
    }

    /// The spin park. `Some((va, pa, value))` while the core is inside a
    /// `WaitGe` loop on a word of a line it holds in its own cache, seen
    /// below target when the loop last issued its load, with nothing else
    /// to do: the store buffer is empty and no interrupt is pending. Such
    /// a loop cannot end by itself — the word changes only behind an
    /// invalidation of the line or an announced protocol-bypassing edit —
    /// so it is a timer pattern that [`InOrderCore::replay_spin`]
    /// reproduces in closed form.
    fn parked(&self) -> Option<(u64, u64, u64)> {
        let pa = self.spin_memo?;
        let Op::WaitGe { va, value } = self.op? else {
            return None;
        };
        let in_loop = match self.state {
            CState::Ready => true,
            CState::SpinDone { pa: polled, .. } => polled == pa,
            _ => false,
        };
        let parked = in_loop
            && self.port.state_of(pa).is_some()
            && self.sb.is_empty()
            && !self.sb_waiting
            && self.irq_pending.is_empty();
        parked.then_some((va, pa, value))
    }

    /// What stepping a parked core through cycles `next_cycle ..
    /// next_cycle + skipped` would have done, every check failing: the
    /// loop issues its load, checks `max(l1_hit, 1)` cycles later and
    /// re-issues `spin_alu` cycles after that (in the same step if 0).
    /// Per check one `spin_iters` and `spin_insts` retired, per issue one
    /// `l1.hits` and an LRU touch; `state`/`busy_until` are left in the
    /// phase of the last event before the window's end.
    fn replay_spin(&mut self, pa: u64, value: u64, skipped: u64) {
        let (from, to) = (self.next_cycle, self.next_cycle + skipped);
        let hit = self.port.hit_latency();
        let to_check = hit.max(1);
        let period = to_check + self.spin_alu;
        // The issue that opens the first iteration: the next one, or the
        // one that already led to `SpinDone` (it lies before `from`).
        let first_issue = match self.state {
            CState::SpinDone { at, .. } => at.max(from) - to_check,
            _ => self.busy_until.max(from),
        };
        let first_check = first_issue + to_check;
        // How many of `first`, `first + period`, ... lie below `x`.
        let below = |first: u64, x: u64| x.saturating_sub(first).div_ceil(period);
        let issues = below(first_issue, to) - below(first_issue, from);
        let checks = below(first_check, to) - below(first_check, from);
        if issues + checks == 0 {
            return;
        }
        self.counters.spin_iters.add(checks);
        self.counters.instret.add(checks * self.spin_insts);
        self.port.replay_read_hits(pa, issues);
        // A check precedes the issue of its own step (`spin_alu == 0`).
        let last = |first: u64| first + (below(first, to) - 1) * period;
        let last_issue = last(first_issue);
        if below(first_check, to) > 0 && last(first_check) > last_issue {
            self.state = CState::Ready;
            self.busy_until = last(first_check) + self.spin_alu;
        } else {
            let at = last_issue + hit;
            self.state = CState::SpinDone { at, pa, value };
        }
    }

    fn drain_sb(&mut self, ctx: &mut Ctx<'_>) {
        if self.sb.is_empty() {
            return;
        }
        // Miss-level parallelism: grab write permission for the next few
        // distinct lines buffered behind the head (MSHR-style). The head's
        // own line is handled below with precise bookkeeping.
        for line in Self::sb_prefetch_lines(&self.sb, self.sb_mshrs) {
            self.port.prefetch_m(ctx, line);
        }
        if self.sb_waiting {
            return;
        }
        if let Some(&(pa, value)) = self.sb.front() {
            match self.port.request(ctx, pa, true, SB_TOKEN) {
                Outcome::Hit { .. } => self.retire_store(ctx, pa, value),
                Outcome::Pending => self.sb_waiting = true,
                Outcome::Retry => {}
            }
        }
    }

    /// Writes the store buffer's head, `(pa, value)`, to memory and pops
    /// it. The one writer that changes a line this core goes on holding
    /// is the core itself: a spin loop on that line must look again.
    fn retire_store(&mut self, ctx: &mut Ctx<'_>, pa: u64, value: u64) {
        ctx.mem.write_u64(pa, value);
        self.sb.pop_front();
        if self
            .spin_memo
            .is_some_and(|polled| crate::line_of(polled) == crate::line_of(pa))
        {
            self.spin_memo = None;
        }
    }

    fn handle_events(&mut self, ctx: &mut Ctx<'_>, events: PortEvents) {
        for ev in events {
            if let PortEvent::Completed { token } = ev {
                match token {
                    SB_TOKEN => {
                        self.sb_waiting = false;
                        // Write through immediately; the grant is the
                        // serialization point.
                        if let Some(&(pa, value)) = self.sb.front() {
                            self.retire_store(ctx, pa, value);
                        }
                    }
                    LOAD_TOKEN => match self.state {
                        CState::WaitLoad { pa, record } => {
                            self.finish_load(ctx, pa, record);
                        }
                        CState::WaitSpin { pa, value } => {
                            self.spin_check(ctx, pa, value);
                        }
                        _ => {}
                    },
                    _ => {}
                }
            }
        }
    }

    fn finish_load(&mut self, ctx: &mut Ctx<'_>, pa: u64, record: bool) {
        let v = ctx.mem.read_u64(pa);
        if record {
            self.recorded.push(v);
        }
        self.counters.instret.inc();
        self.op = self.program.next();
        self.state = CState::Ready;
        self.busy_until = ctx.cycle;
    }

    fn spin_check(&mut self, ctx: &mut Ctx<'_>, pa: u64, value: u64) {
        self.counters.spin_iters.inc();
        self.counters.instret.add(self.spin_insts); // load + compare + branch
        let v = ctx.mem.read_u64(pa);
        if v >= value {
            self.op = self.program.next();
            self.state = CState::Ready;
            self.busy_until = ctx.cycle + 1;
            self.spin_memo = None; // the wait it described is over
        } else {
            self.state = CState::Ready;
            self.busy_until = ctx.cycle + self.spin_alu; // loop back edge
                                                         // op unchanged: the WaitGe re-issues.
        }
    }

    fn take_irq(&mut self, ctx: &mut Ctx<'_>) -> bool {
        let Some(&(irq, payload)) = self.irq_pending.front() else {
            return false;
        };
        let Some(trap) = ctx.os.interrupt(&mut ctx.mem, irq, payload, ctx.cycle) else {
            panic!("core has no handler for irq {irq}");
        };
        self.irq_pending.pop_front();
        self.counters.irqs.inc();
        self.counters.instret.add(trap.insts);
        // Host logic stores to guest memory with no grant behind it (the
        // chaos software fallback publishes the very index this core
        // polls).
        self.faults.announce_bypass_write();
        self.handler_writes.extend(trap.writes);
        // The handler's register writes are issued after its entry cost;
        // model by delaying our own readiness.
        self.busy_until = ctx.cycle + trap.cycles;
        if let Some((pa, value)) = self.handler_writes.pop_front() {
            self.send_mmio_write(ctx, pa, value);
            self.state = CState::WaitHandlerMmio;
        }
        true
    }

    fn send_mmio_write(&mut self, ctx: &mut Ctx<'_>, pa: u64, value: u64) {
        let dst = ctx
            .mmio_target(pa)
            .unwrap_or_else(|| panic!("no MMIO device at {pa:#x}"));
        self.mmio_tag += 1;
        self.counters.mmio_ops.inc();
        ctx.send(
            dst,
            Msg::MmioWrite {
                pa,
                value,
                tag: self.mmio_tag,
            },
        );
    }

    fn exec(&mut self, ctx: &mut Ctx<'_>) {
        let Some(op) = self.op else {
            if self.sb.is_empty() && !self.sb_waiting {
                self.state = CState::Done;
                self.counters.done_at = ctx.cycle;
            }
            return;
        };
        match op {
            Op::Alu(n) => {
                self.counters.instret.add(u64::from(n));
                self.busy_until = ctx.cycle + u64::from(n);
                self.op = self.program.next();
            }
            Op::Load { va, record } => {
                let Some(pa) = self.translate(ctx, va) else {
                    return;
                };
                self.counters.loads.inc();
                if let Some(v) = self.sb_forward(pa) {
                    if record {
                        self.recorded.push(v);
                    }
                    self.counters.instret.inc();
                    self.busy_until = ctx.cycle + 1;
                    self.op = self.program.next();
                    return;
                }
                match self.port.request(ctx, pa, false, LOAD_TOKEN) {
                    Outcome::Hit { ready_at } => {
                        self.state = CState::LoadDone {
                            at: ready_at,
                            pa,
                            record,
                        };
                    }
                    Outcome::Pending => self.state = CState::WaitLoad { pa, record },
                    Outcome::Retry => self.busy_until = ctx.cycle + 1,
                }
            }
            Op::Store { va, value } => {
                if self.sb.len() >= self.sb_limit {
                    self.counters.sb_full_stalls.inc();
                    self.busy_until = ctx.cycle + 1;
                    return;
                }
                let Some(pa) = self.translate(ctx, va) else {
                    return;
                };
                self.counters.stores.inc();
                self.counters.instret.inc();
                self.sb.push_back((pa, value));
                self.busy_until = ctx.cycle + 1;
                self.op = self.program.next();
            }
            Op::WaitGe { va, value } => {
                // What this issue finds replaces what the last one saw.
                self.spin_memo = None;
                let Some(pa) = self.translate(ctx, va) else {
                    return;
                };
                match self.port.request(ctx, pa, false, LOAD_TOKEN) {
                    Outcome::Hit { ready_at } => {
                        self.state = CState::SpinDone {
                            at: ready_at,
                            pa,
                            value,
                        };
                        // Taken here, where translation and word are read
                        // from the same memory: while the memo stands, the
                        // check this load leads to can only fail.
                        self.spin_memo = (ctx.mem.read_u64(pa) < value).then_some(pa);
                    }
                    Outcome::Pending => self.state = CState::WaitSpin { pa, value },
                    Outcome::Retry => self.busy_until = ctx.cycle + 1,
                }
            }
            Op::Fence => {
                if self.sb.is_empty() && !self.sb_waiting {
                    self.counters.instret.inc();
                    self.busy_until = ctx.cycle + 1;
                    self.op = self.program.next();
                } else {
                    self.busy_until = ctx.cycle + 1;
                }
            }
            Op::MmioLoad { pa, record } => {
                let dst = ctx
                    .mmio_target(pa)
                    .unwrap_or_else(|| panic!("no MMIO device at {pa:#x}"));
                self.mmio_tag += 1;
                self.counters.mmio_ops.inc();
                ctx.send(
                    dst,
                    Msg::MmioRead {
                        pa,
                        tag: self.mmio_tag,
                    },
                );
                self.state = CState::WaitMmio { record };
            }
            Op::MmioStore { pa, value } => {
                self.send_mmio_write(ctx, pa, value);
                self.state = CState::WaitMmio { record: false };
            }
            Op::KernelCost { cycles, insts } => {
                self.counters.instret.add(insts);
                self.busy_until = ctx.cycle + cycles;
                self.op = self.program.next();
            }
        }
    }
}

impl Component for InOrderCore {
    fn name(&self) -> &str {
        "core"
    }

    fn attach(&mut self, obs: &Observability) {
        let c = &self.counters;
        for (name, counter) in [
            ("instret", &c.instret),
            ("loads", &c.loads),
            ("stores", &c.stores),
            ("mmio_ops", &c.mmio_ops),
            ("mmio_stall_cycles", &c.mmio_stall_cycles),
            ("mem_stall_cycles", &c.mem_stall_cycles),
            ("spin_iters", &c.spin_iters),
            ("sb_full_stalls", &c.sb_full_stalls),
            ("irqs", &c.irqs),
            ("core_faults", &c.core_faults),
        ] {
            obs.adopt_counter(name, counter);
        }
        self.port.port_counters().register(obs, "l1");
        self.faults = obs.faults.clone();
    }

    fn step(&mut self, ctx: &mut Ctx<'_>) {
        // A parked core relies on every writer that bypasses the protocol
        // announcing itself. Under `Force1` this looks every cycle, so it
        // fires on the cycle after an unannounced edit committed.
        #[cfg(debug_assertions)]
        if let Some((va, pa, value)) = self.parked() {
            let (now_pa, word) = (
                self.translator.translate(&ctx.mem, va),
                ctx.mem.read_u64(pa),
            );
            assert!(
                now_pa == Some(pa) && word < value,
                "core parked on {va:#x} -> {pa:#x} below {value} finds {now_pa:x?} holding {word} \
                 at cycle {} with the line still held: a write that bypasses the coherence \
                 protocol must announce itself (FaultState::announce_bypass_write)",
                ctx.cycle
            );
        }
        self.next_cycle = ctx.cycle + 1;
        // 1. Messages.
        while let Some(env) = ctx.recv() {
            match &env.msg {
                m if CoherentPort::wants(m) => {
                    let events = self.port.handle(&env, ctx);
                    self.handle_events(ctx, events);
                }
                Msg::MmioReadResp { value, .. } => {
                    if let CState::WaitMmio { record } = self.state {
                        if record {
                            self.recorded.push(*value);
                        }
                        self.counters.instret.inc();
                        self.op = self.program.next();
                        self.state = CState::Ready;
                        self.busy_until = ctx.cycle + 1;
                    }
                }
                Msg::MmioWriteResp { .. } => match self.state {
                    CState::WaitMmio { .. } => {
                        self.counters.instret.inc();
                        self.op = self.program.next();
                        self.state = CState::Ready;
                        self.busy_until = ctx.cycle + 1;
                    }
                    CState::WaitHandlerMmio => {
                        if let Some((pa, value)) = self.handler_writes.pop_front() {
                            // Next write of the handler's ordered sequence.
                            self.send_mmio_write(ctx, pa, value);
                        } else {
                            self.state = CState::Ready;
                            self.busy_until = ctx.cycle + 1;
                        }
                    }
                    _ => {}
                },
                Msg::Irq { irq, payload } => {
                    self.irq_pending.push_back((*irq, *payload));
                }
                other => panic!("core received unexpected message {other:?}"),
            }
        }

        // 2. Background store-buffer drain.
        self.drain_sb(ctx);

        // 3. Stall accounting.
        match self.state {
            CState::WaitMmio { .. } | CState::WaitHandlerMmio => {
                self.counters.mmio_stall_cycles.inc()
            }
            CState::WaitLoad { .. } | CState::WaitSpin { .. } => {
                self.counters.mem_stall_cycles.inc()
            }
            _ => {}
        }

        // 4. Finish hit-path accesses.
        match self.state {
            CState::LoadDone { at, pa, record } if ctx.cycle >= at => {
                self.finish_load(ctx, pa, record);
            }
            CState::SpinDone { at, pa, value } if ctx.cycle >= at => {
                self.spin_check(ctx, pa, value);
            }
            _ => {}
        }

        // 5. Execute.
        if self.state == CState::Ready && ctx.cycle >= self.busy_until {
            if !self.irq_pending.is_empty() && self.take_irq(ctx) {
                return;
            }
            self.exec(ctx);
        }
    }

    fn is_idle(&self) -> bool {
        self.state == CState::Done && self.irq_pending.is_empty()
    }

    fn quiescent_for(&self, now: u64) -> u64 {
        // A pending IRQ traps on the very next step. A buffered store is
        // an event only if its sink can take it: unless the drain is
        // blocked it issues a request or retires the head next step.
        if !self.irq_pending.is_empty() || (!self.sb.is_empty() && !self.sb_drain_blocked()) {
            return 0;
        }
        // Polling a held line is not polling memory: only a message (Inv,
        // recall, an evicting fill, an IRQ) or an announced edit, which
        // re-hints everyone, ends the loop.
        if self.parked().is_some() {
            return u64::MAX;
        }
        match self.state {
            // Only an inbound message (a load of a Done core's flag, an
            // IRQ) can wake these; the SoC's inbox/NoC bounds cover that.
            CState::Done
            | CState::WaitLoad { .. }
            | CState::WaitSpin { .. }
            | CState::WaitMmio { .. }
            | CState::WaitHandlerMmio => u64::MAX,
            // Hit-path completions fire exactly at their stamp.
            CState::LoadDone { at, .. } | CState::SpinDone { at, .. } => at.saturating_sub(now),
            // Back-pressured by the store buffer: `exec` stalls every
            // cycle until a grant (a message) moves the head.
            CState::Ready if self.exec_stalls() => u64::MAX,
            // An ALU/trap busy window ends exactly at busy_until.
            CState::Ready => self.busy_until.saturating_sub(now),
        }
    }

    fn fast_forward(&mut self, skipped: u64) {
        if let Some((_, pa, value)) = self.parked() {
            self.replay_spin(pa, value, skipped);
            self.next_cycle += skipped;
            return;
        }
        // Reconcile the per-cycle stall accounting (step phase 3) for the
        // skipped window. The waking step processes its message *before*
        // that accounting runs, so a wait window [enter+1, wake) under
        // forced stepping increments exactly once per skipped cycle —
        // `add(skipped)` is bit-exact. The other skippable states
        // (LoadDone/SpinDone pending, Done) record nothing per cycle.
        match self.state {
            CState::WaitMmio { .. } | CState::WaitHandlerMmio => {
                self.counters.mmio_stall_cycles.add(skipped);
            }
            CState::WaitLoad { .. } | CState::WaitSpin { .. } => {
                self.counters.mem_stall_cycles.add(skipped);
            }
            // `exec` ran on every skipped cycle at or after `busy_until`
            // and could only stall; a store held off a full buffer counts
            // each. (`busy_until` itself, which a stalled `exec` re-arms
            // to the next cycle, may stay behind: nothing reads how far.)
            CState::Ready => {
                let busy = self.busy_until.saturating_sub(self.next_cycle);
                let stalled = skipped.saturating_sub(busy);
                debug_assert!(
                    stalled == 0 || self.exec_stalls(),
                    "slept over a runnable op"
                );
                if matches!(self.op, Some(Op::Store { .. })) {
                    self.counters.sb_full_stalls.add(stalled);
                }
            }
            _ => {}
        }
        // Every skipped cycle polled the blocked drain's prefetches.
        debug_assert!(self.sb.is_empty() || self.sb_drain_blocked());
        for line in Self::sb_prefetch_lines(&self.sb, self.sb_mshrs) {
            self.port.replay_prefetch_polls(line, skipped);
        }
        self.next_cycle += skipped;
    }

    fn forget_memory(&mut self) {
        self.spin_memo = None;
        self.page_memo = PageMemo::default();
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let c = &self.counters;
        let l1 = self.port.port_counters();
        vec![
            ("l1_hits".into(), l1.hits.get()),
            ("l1_misses".into(), l1.misses.get()),
            ("instret".into(), c.instret.get()),
            ("done_at".into(), c.done_at),
            ("loads".into(), c.loads.get()),
            ("stores".into(), c.stores.get()),
            ("mmio_ops".into(), c.mmio_ops.get()),
            ("mmio_stall_cycles".into(), c.mmio_stall_cycles.get()),
            ("mem_stall_cycles".into(), c.mem_stall_cycles.get()),
            ("spin_iters".into(), c.spin_iters.get()),
            ("sb_full_stalls".into(), c.sb_full_stalls.get()),
            ("irqs".into(), c.irqs.get()),
            ("core_faults".into(), c.core_faults.get()),
        ]
    }
}
