//! The SoC top level: owns components, functional memory and the NoC, and
//! advances simulated time.
//!
//! # Cycle structure and the determinism contract
//!
//! Each cycle has two phases:
//!
//! 1. **Step** — every component is stepped against a write-staged view of
//!    memory ([`crate::stage::StagedMem`]): reads see *committed* memory
//!    plus the component's own writes from this cycle; writes and outgoing
//!    messages are staged per-slot, so no step can see another's effects.
//! 2. **Commit** — in slot order: write logs are applied to [`PhysMem`],
//!    outboxes are injected into the NoC, staged fault-switch flips are
//!    applied, and the cycle advances.
//!
//! Because cross-component visibility is pinned to the commit barrier,
//! simulated behaviour is a function of the architecture alone: results
//! are bit-identical for any order the slots are stepped in, and so for
//! any component registration order (see `docs/architecture.md`, "Step
//! kernel & determinism contract"). The whole kernel is one loop on the
//! calling thread ([`Soc::run`]).
//!
//! # The wake table
//!
//! `Soc::wake` holds, per slot, the first cycle at which the slot must
//! be stepped, and is the single answer to "who is stepped at cycle `c`".
//! A step at `c` sets the entry to `c + 1` plus the component's fresh
//! [`Component::quiescent_for`] hint (0 = acts at once, so `c + 1`), or
//! to its next NoC delivery if sooner; injecting a message lowers its
//! destination's entry to the delivery cycle, and a slot takes its due
//! mail ([`Noc::deliver_to`]) just before it steps. Each iteration of the
//! run loop makes one pass over the table that yields the awake list
//! (ascending slot index) and the earliest later wake time. If the list
//! is empty, the loop jumps to the earlier of that time and the deadline
//! — be it one cycle away — with no step and no commit. Otherwise it
//! steps the list and commits the list, so a barrier costs O(awake
//! slots) and every barrier steps somebody. The
//! cycles a slot slept through are reconciled with one
//! [`Component::fast_forward`] call when it next steps. Hints read the
//! fault switches, so every slot is re-hinted at every staged flip
//! (sleepers are reconciled against the *pre-flip* state first) and at
//! run-loop entry (harness code may have changed anything in between).
//! Two flips move no switch: a fault window's close, which the injector
//! that opened the window times itself, and a write that bypasses the
//! coherence protocol ([`FaultState::announce_bypass_write`]), which a
//! core asleep in a spin loop on its own copy hears of in no other way.
//! At each of these points every component is told to forget what it
//! remembered of memory ([`Component::forget_memory`]). Under
//! [`Lookahead::Force1`] the table stays at 0 and nobody ever sleeps; it
//! is the reference.

use std::any::Any;
use std::collections::VecDeque;

use crate::component::{CompId, Component, Ctx, MmioMap, Observability, Outgoing, TileCoord};
use crate::config::{Lookahead, SocConfig};
use crate::faultinject::FaultState;
use crate::mem::PhysMem;
use crate::msg::Envelope;
use crate::noc::Noc;
use crate::stage::{StagedMem, WriteLog};
use crate::stats::{Counter, Stats};
use crate::trace::Trace;

struct Slot {
    comp: Box<dyn Component>,
    inbox: VecDeque<Envelope>,
    /// Messages staged during this cycle's step, injected at commit.
    outbox: Vec<Outgoing>,
    /// Memory writes staged during this cycle's step, applied at commit.
    log: WriteLog,
    /// First cycle this component has not accounted for yet: every
    /// earlier cycle was stepped or reconciled by `fast_forward`.
    synced_to: u64,
    /// `kernel.silent_steps.<name>`, shared by every slot of the class.
    silent_class: Counter,
}

impl Slot {
    /// Reconciles the cycles `synced_to..upto` the slot slept through.
    fn sync(&mut self, upto: u64) {
        if self.synced_to < upto {
            self.comp.fast_forward(upto - self.synced_to);
            self.synced_to = upto;
        }
    }

    /// The slot's wake-table entry as of `now`: `now` if mail is waiting,
    /// else `now` plus a fresh hint.
    fn wake_from(&self, now: u64) -> u64 {
        if self.inbox.is_empty() {
            now.saturating_add(self.comp.quiescent_for(now))
        } else {
            now
        }
    }
}

/// The simulation kernel's own instrumentation. Lives in a registry
/// *separate* from the SoC's architectural [`Stats`] so that
/// [`Soc::stats_json`] — part of the determinism contract — is
/// bit-identical whether or not cycle batching is enabled (batching
/// changes how the kernel reaches a state, never the state itself).
struct KernelStats {
    stats: Stats,
    /// Stepped cycles: commit barriers executed.
    barriers: Counter,
    /// Cycles skipped by conservative-lookahead fast-forward.
    ff_cycles: Counter,
    /// Slots really stepped, summed over stepped cycles.
    slot_steps: Counter,
    /// Slots a stepped cycle skipped because they were asleep.
    slot_sleeps: Counter,
    /// Steps that received nothing, staged nothing and were followed by
    /// a hint of 0 again: the hint's missed sleeps. Also kept per
    /// component class as `kernel.silent_steps.<name>`.
    silent_steps: Counter,
}

impl KernelStats {
    fn new() -> Self {
        let stats = Stats::new();
        let barriers = stats.counter("kernel.barrier_activations");
        let ff_cycles = stats.counter("kernel.ff_cycles");
        let slot_steps = stats.counter("kernel.slot_steps");
        let slot_sleeps = stats.counter("kernel.slot_sleeps");
        let silent_steps = stats.counter("kernel.silent_steps");
        Self {
            stats,
            barriers,
            ff_cycles,
            slot_steps,
            slot_sleeps,
            silent_steps,
        }
    }
}

/// Why [`Soc::run_loop`] stopped.
enum LoopExit {
    /// The caller's predicate fired.
    Pred,
    /// The SoC went quiescent (and the predicate, if any, stayed false).
    Quiescent,
    /// The cycle budget was exhausted.
    Deadline,
}

/// Result of [`Soc::run`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunOutcome {
    /// Cycle at which the run stopped.
    pub cycle: u64,
    /// True if the SoC went quiescent (all components idle, no messages in
    /// flight); false if the cycle budget was exhausted first.
    pub quiescent: bool,
}

/// The simulated system-on-chip.
pub struct Soc {
    /// Current cycle.
    pub cycle: u64,
    /// Functional physical memory.
    pub mem: PhysMem,
    noc: Noc,
    slots: Vec<Slot>,
    /// Each slot's tile, for routing.
    tiles: Vec<TileCoord>,
    /// The wake table: per slot, the first cycle at which it must be
    /// stepped (see the module docs). All 0 under [`Lookahead::Force1`].
    wake: Vec<u64>,
    /// The slots the current cycle steps, ascending; refilled from `wake`
    /// by [`Soc::scan_wake`].
    awake: Vec<usize>,
    mmio_map: MmioMap,
    cfg: SocConfig,
    stats: Stats,
    trace: Trace,
    faults: FaultState,
    kernel: KernelStats,
}

impl std::fmt::Debug for Soc {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Soc")
            .field("cycle", &self.cycle)
            .field("components", &self.slots.len())
            .finish()
    }
}

impl Soc {
    /// Creates an empty SoC with configuration `cfg`.
    pub fn new(cfg: SocConfig) -> Self {
        let stats = Stats::new();
        let trace = Trace::default();
        let faults = FaultState::default();
        let mut noc = Noc::new(&cfg.timing, faults.clone());
        if let Some(dram) = &cfg.dram {
            noc.set_ejection_width(dram.noc_ejection);
        }
        noc.attach(&stats, &trace);
        Self {
            cycle: 0,
            mem: PhysMem::new(),
            noc,
            slots: Vec::new(),
            tiles: Vec::new(),
            wake: Vec::new(),
            awake: Vec::new(),
            mmio_map: MmioMap::default(),
            cfg,
            stats,
            trace,
            faults,
            kernel: KernelStats::new(),
        }
    }

    /// The SoC-wide fault switches. Cloning shares the cells: components
    /// get a clone in [`Component::attach`] (`Observability::faults`), and
    /// a [`crate::faultinject::FaultInjector`] built on another clone
    /// perturbs them live.
    pub fn fault_state(&self) -> &FaultState {
        &self.faults
    }

    /// The configuration this SoC was built with.
    pub fn config(&self) -> &SocConfig {
        &self.cfg
    }

    /// The SoC-wide stats registry. Components register into it when added;
    /// harness code may also snapshot it mid-run.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The SoC-wide event trace (disabled until
    /// [`Soc::set_tracing`] turns it on).
    pub fn trace(&self) -> &Trace {
        &self.trace
    }

    /// Enables or disables structured event tracing. Cheap to toggle; with
    /// tracing off the emit paths reduce to one atomic load.
    pub fn set_tracing(&self, on: bool) {
        self.trace.set_enabled(on);
    }

    /// Adds a component at `tile`, returning its id. The component's
    /// [`Component::attach`] hook runs here with scope `name#id`, so its
    /// counters are registered before its first step.
    pub fn add_component(&mut self, tile: TileCoord, mut comp: Box<dyn Component>) -> CompId {
        let id = CompId(self.slots.len());
        let scope = comp.scope(id);
        self.trace.name_thread(id.0 as u64, &scope);
        let obs = Observability {
            stats: self.stats.clone(),
            trace: self.trace.clone(),
            faults: self.faults.clone(),
            scope,
            tid: id.0 as u64,
        };
        comp.attach(&obs);
        let silent_class = self
            .kernel
            .stats
            .counter(&format!("kernel.silent_steps.{}", comp.name()));
        self.slots.push(Slot {
            comp,
            inbox: VecDeque::new(),
            outbox: Vec::new(),
            log: WriteLog::new(),
            synced_to: self.cycle,
            silent_class,
        });
        self.tiles.push(tile);
        self.wake.push(0);
        id
    }

    /// Routes the MMIO physical-address `range` to `comp`.
    pub fn map_mmio(&mut self, range: std::ops::Range<u64>, comp: CompId) {
        self.mmio_map.map(range, comp);
    }

    /// Advances the SoC by one cycle (step phase + commit), stepping every
    /// slot whether or not it is asleep.
    pub fn step(&mut self) {
        for (slot, wake) in self.slots.iter_mut().zip(&mut self.wake) {
            // The caller owns `mem` between calls, as between runs.
            slot.sync(self.cycle);
            slot.comp.forget_memory();
            *wake = (*wake).min(self.cycle);
        }
        self.scan_wake();
        self.step_awake();
    }

    /// One pass over the wake table: lists the slots due this cycle in
    /// `awake` and returns the earliest wake time of the others.
    fn scan_wake(&mut self) -> u64 {
        self.awake.clear();
        let mut next = u64::MAX;
        for (i, &at) in self.wake.iter().enumerate() {
            if at <= self.cycle {
                self.awake.push(i);
            } else {
                next = next.min(at);
            }
        }
        next
    }

    /// One stepped cycle: steps the awake list against the read-only
    /// memory image, then commits it. A slot first reconciles the cycles
    /// it slept through and takes its due mail, and afterwards, under
    /// [`Lookahead::Auto`], takes its next wake time from a fresh hint and
    /// its next delivery. All effects land in the slot's own staging
    /// buffers, so the order of the steps is free: debug builds go back to
    /// front on odd cycles to witness it.
    fn step_awake(&mut self) {
        let (cycle, auto) = (self.cycle, self.cfg.lookahead == Lookahead::Auto);
        let reversed = cfg!(debug_assertions) && cycle % 2 == 1;
        let mut silent = 0;
        let n = self.awake.len();
        for k in 0..n {
            let i = self.awake[if reversed { n - 1 - k } else { k }];
            let slot = &mut self.slots[i];
            slot.sync(cycle);
            self.noc
                .deliver_to(CompId(i), cycle, |env| slot.inbox.push_back(env));
            let had_mail = !slot.inbox.is_empty();
            let mut ctx = Ctx {
                cycle,
                self_id: CompId(i),
                mem: StagedMem::new(&self.mem, &mut slot.log),
                inbox: &mut slot.inbox,
                outbox: &mut slot.outbox,
                mmio_map: &self.mmio_map,
            };
            slot.comp.step(&mut ctx);
            slot.synced_to = cycle + 1;
            if auto {
                let hinted = slot.wake_from(cycle + 1);
                self.wake[i] = hinted.min(self.noc.next_delivery_to(CompId(i)));
                // Judged on the hint alone: mail on its way is no missed sleep.
                let staged = !slot.outbox.is_empty() || !slot.log.is_empty();
                if !had_mail && !staged && hinted == cycle + 1 {
                    silent += 1;
                    slot.silent_class.inc();
                }
            }
        }
        self.kernel.silent_steps.add(silent);
        self.commit_cycle();
    }

    /// The cycle barrier: applies the stepped slots' staged writes to
    /// memory and staged messages to the NoC in slot order (each lowering
    /// its destination's wake entry to its delivery cycle), commits staged
    /// fault-switch flips, and advances the cycle.
    fn commit_cycle(&mut self) {
        let stepped = self.awake.len() as u64;
        debug_assert!(
            stepped > 0 || self.slots.is_empty(),
            "a barrier stepped nobody"
        );
        self.kernel.barriers.inc();
        self.kernel.slot_steps.add(stepped);
        self.kernel
            .slot_sleeps
            .add(self.slots.len() as u64 - stepped);
        let (mem, noc, tiles, wake) = (&mut self.mem, &mut self.noc, &self.tiles, &mut self.wake);
        for &i in &self.awake {
            let slot = &mut self.slots[i];
            slot.log.commit(mem);
            for out in slot.outbox.drain(..) {
                let (src, dst) = (tiles[i], tiles[out.dst.0]);
                let at =
                    noc.inject_delayed(self.cycle, src, dst, out.dst, out.env, out.extra_delay);
                wake[out.dst.0] = wake[out.dst.0].min(at);
            }
        }
        if self.faults.has_staged() {
            // A flip changes what hints and `fast_forward` read, and an
            // announced write what a sleeper assumed of memory: close
            // every sleeper's books against the pre-flip state, then take
            // everyone's hint again under the new one.
            for slot in &mut self.slots {
                slot.sync(self.cycle + 1);
            }
            self.faults.commit_staged();
            self.cycle += 1;
            self.rehint_all();
        } else {
            self.cycle += 1;
        }
    }

    /// Brings every slot's books up to the current cycle, has it forget
    /// what it remembers of memory and, under [`Lookahead::Auto`], retakes
    /// its hint. Called whenever something hints rest on has changed
    /// outside the slots' own steps: a staged flip (a fault switch, a
    /// window's close, an announced protocol-bypassing write), or harness
    /// code between runs.
    fn rehint_all(&mut self) {
        let now = self.cycle;
        for (i, (slot, wake)) in self.slots.iter_mut().zip(&mut self.wake).enumerate() {
            slot.sync(now);
            slot.comp.forget_memory();
            if self.cfg.lookahead == Lookahead::Auto {
                *wake = slot
                    .wake_from(now)
                    .min(self.noc.next_delivery_to(CompId(i)));
            }
        }
    }

    fn is_quiescent(&self) -> bool {
        self.noc.is_empty()
            && self.slots.iter().all(|s| {
                s.inbox.is_empty() && s.outbox.is_empty() && s.log.is_empty() && s.comp.is_idle()
            })
    }

    /// The conservative lookahead horizon from the current cycle: the
    /// number of upcoming cycles (≥ 1) in which provably no slot has
    /// anything to do, i.e. the distance to the earliest wake-table entry
    /// or to the cycle budget (`deadline`), whichever comes first. NoC
    /// deliveries are in the table, and fault windows open and close on
    /// the injector's own wake times. It asks no component anything: the
    /// table was filled from the [`Component::quiescent_for`] hints when
    /// the slots last stepped, and a message in flight holds its
    /// destination's entry at or below its delivery cycle. A horizon of
    /// `k ≥ 2` means cycles `now .. now + k - 1` may be skipped; 1 says only
    /// that the current cycle cannot be proved idle from here. Under
    /// [`Lookahead::Force1`] this is constantly 1. The run loop does not use
    /// it (its own pass over the table also yields the awake list); it is
    /// public so the horizon-soundness property tests can probe it
    /// directly.
    pub fn lookahead_horizon(&self, deadline: u64) -> u64 {
        let wake = self.wake.iter().copied().min().unwrap_or(u64::MAX);
        (wake.min(deadline).saturating_sub(self.cycle)).max(1)
    }

    /// Debug builds' shadow audit, a full walk: a sleeper has nothing
    /// staged and no mail, wakes no later than its next delivery (so the
    /// wake table alone gives the next event), and a fresh hint still
    /// covers its standing wake time — it reads only the component and the
    /// fault switches, and neither has changed.
    fn audit_sleepers(&self) {
        for (i, (slot, &wake)) in self.slots.iter().zip(&self.wake).enumerate() {
            if wake <= self.cycle {
                continue;
            }
            assert!(slot.inbox.is_empty() && slot.outbox.is_empty() && slot.log.is_empty());
            let mail = self.noc.next_delivery_to(CompId(i));
            assert!(
                wake <= mail,
                "{} sleeps past its mail at {mail}",
                slot.comp.name()
            );
            let hint = slot.comp.quiescent_for(self.cycle);
            assert!(
                self.cycle.saturating_add(hint) >= wake,
                "{} promised to sleep until {wake} but at {} hints {hint}",
                slot.comp.name(),
                self.cycle
            );
        }
    }

    /// What the run loop does before stepping a cycle: scan the wake table
    /// and, if nobody is awake, jump to the next cycle somebody is (or to
    /// the budget's end) — only the cycle counter moves, no step, no
    /// commit; each slot reconciles its bookkeeping when it next steps.
    /// Returns true if it jumped (the caller re-checks its exits), false if
    /// `awake` is ready to be stepped.
    fn skip_idle_cycles(&mut self, deadline: u64) -> bool {
        let wake = self.scan_wake();
        if cfg!(debug_assertions) {
            self.audit_sleepers();
        }
        if !self.awake.is_empty() {
            return false;
        }
        let to = wake.min(deadline);
        debug_assert!(to > self.cycle, "an idle cycle with an event due");
        self.kernel.ff_cycles.add(to - self.cycle);
        self.cycle = to;
        true
    }

    /// Runs until the SoC is quiescent or `max_cycles` elapse. A budget of
    /// `u64::MAX` means "no budget" (the deadline saturates rather than
    /// wrapping).
    pub fn run(&mut self, max_cycles: u64) -> RunOutcome {
        match self.run_loop(max_cycles, None) {
            LoopExit::Quiescent => RunOutcome {
                cycle: self.cycle,
                quiescent: true,
            },
            _ => RunOutcome {
                cycle: self.cycle,
                quiescent: self.is_quiescent(),
            },
        }
    }

    /// Runs until `pred` on the SoC becomes true, quiescence, or the budget
    /// is exhausted (saturating, like [`Soc::run`]). Returns true if the
    /// predicate fired.
    pub fn run_until(&mut self, max_cycles: u64, mut pred: impl FnMut(&Soc) -> bool) -> bool {
        matches!(self.run_loop(max_cycles, Some(&mut pred)), LoopExit::Pred)
    }

    /// The run loop behind [`Soc::run`] and [`Soc::run_until`]. Per
    /// iteration: the exit checks ([`Soc::loop_exit`]), then either a jump
    /// over idle cycles or one stepped cycle.
    fn run_loop(
        &mut self,
        max_cycles: u64,
        mut pred: Option<&mut dyn FnMut(&Soc) -> bool>,
    ) -> LoopExit {
        let deadline = self.cycle.saturating_add(max_cycles);
        // Harness code may have touched components, memory or the fault
        // switches since the last run: nobody's old hint can be trusted.
        self.rehint_all();
        let exit = loop {
            if let Some(exit) = self.loop_exit(deadline, &mut pred) {
                break exit;
            }
            if !self.skip_idle_cycles(deadline) {
                self.step_awake();
            }
        };
        // Close the sleepers' books so the caller reads final counters.
        for slot in &mut self.slots {
            slot.sync(self.cycle);
        }
        exit
    }

    /// The exits the run loop checks before every cycle, in this order:
    /// deadline, predicate, quiescence — re-asking the predicate, which
    /// may hold on the quiescent state. `None` means "step on".
    fn loop_exit(
        &self,
        deadline: u64,
        pred: &mut Option<&mut dyn FnMut(&Soc) -> bool>,
    ) -> Option<LoopExit> {
        if self.cycle >= deadline {
            return Some(LoopExit::Deadline);
        }
        if let Some(p) = pred.as_deref_mut() {
            if p(self) {
                return Some(LoopExit::Pred);
            }
        }
        if !self.is_quiescent() {
            return None;
        }
        if let Some(p) = pred.as_deref_mut() {
            if p(self) {
                return Some(LoopExit::Pred);
            }
        }
        Some(LoopExit::Quiescent)
    }

    /// Immutable typed access to a component; `None` if `id` is out of
    /// range or the component is not a `T`.
    pub fn component<T: 'static>(&self, id: CompId) -> Option<&T> {
        self.slots
            .get(id.0)
            .and_then(|s| (s.comp.as_ref() as &dyn Any).downcast_ref::<T>())
    }

    /// Mutable typed access to a component; `None` if `id` is out of range
    /// or the component is not a `T`.
    pub fn component_mut<T: 'static>(&mut self, id: CompId) -> Option<&mut T> {
        self.slots
            .get_mut(id.0)
            .and_then(|s| (s.comp.as_mut() as &mut dyn Any).downcast_mut::<T>())
    }

    /// Name and counters of every component, for diagnostics.
    pub fn all_counters(&self) -> Vec<(String, Vec<(String, u64)>)> {
        self.slots
            .iter()
            .enumerate()
            .map(|(i, s)| (s.comp.scope(CompId(i)), s.comp.counters()))
            .collect()
    }

    /// The stats registry rendered as JSON (see [`Stats::to_json`]).
    pub fn stats_json(&self) -> String {
        self.stats.to_json()
    }

    /// The simulation kernel's own instrumentation
    /// (`kernel.barrier_activations`, `kernel.ff_cycles`,
    /// `kernel.slot_steps`, `kernel.slot_sleeps`, `kernel.silent_steps`
    /// and its per-class `kernel.silent_steps.<name>`). Deliberately a
    /// registry separate from
    /// [`Soc::stats`]: kernel counters describe how the host executed the
    /// simulation, not what the simulated SoC did, so they must never
    /// leak into [`Soc::stats_json`] (which the determinism contract pins
    /// across batching modes).
    pub fn kernel_stats(&self) -> &Stats {
        &self.kernel.stats
    }

    /// One kernel counter by name (see [`Soc::kernel_stats`]); 0 if absent.
    pub fn kernel_counter(&self, name: &str) -> u64 {
        self.kernel
            .stats
            .counter_values()
            .into_iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| v)
            .unwrap_or(0)
    }

    /// The event trace rendered as Chrome `trace_event` JSON, loadable in
    /// Perfetto / `chrome://tracing`.
    pub fn trace_json(&self) -> String {
        self.trace.to_chrome_json()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::component::TileCoord;
    use crate::core::InOrderCore;
    use crate::directory::Directory;
    use crate::mem::MemAccess;
    use crate::program::{Op, Program};

    fn build(program: Program) -> (Soc, CompId) {
        let cfg = SocConfig::default();
        let mut soc = Soc::new(cfg.clone());
        let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
        let core = InOrderCore::new(dir, &cfg, program);
        let core_id = soc.add_component(TileCoord::new(1, 0), Box::new(core));
        (soc, core_id)
    }

    #[test]
    fn empty_program_quiesces_immediately() {
        let (mut soc, _) = build(Program::new());
        let out = soc.run(1000);
        assert!(out.quiescent);
        assert!(out.cycle < 10);
    }

    #[test]
    fn store_reaches_memory() {
        let mut p = Program::new();
        p.push(Op::Store {
            va: 0x1000,
            value: 0xdead,
        });
        p.push(Op::Fence);
        let (mut soc, core) = build(p);
        let out = soc.run(100_000);
        assert!(out.quiescent, "stalled at cycle {}", out.cycle);
        assert_eq!(soc.mem.read_u64(0x1000), 0xdead);
        let c = soc.component::<InOrderCore>(core).unwrap();
        assert!(c.is_done());
        assert!(c.core_counters().instret.get() >= 2);
    }

    #[test]
    fn load_records_value() {
        let mut p = Program::new();
        p.push(Op::Store { va: 0x40, value: 7 });
        p.push(Op::Fence);
        p.push(Op::Load {
            va: 0x40,
            record: true,
        });
        let (mut soc, core) = build(p);
        assert!(soc.run(100_000).quiescent);
        let c = soc.component::<InOrderCore>(core).unwrap();
        assert_eq!(c.recorded(), &[7]);
    }

    #[test]
    fn store_to_load_forwarding() {
        // Load issued while the store is still buffered must see the value.
        let mut p = Program::new();
        p.push(Op::Store {
            va: 0x80,
            value: 99,
        });
        p.push(Op::Load {
            va: 0x80,
            record: true,
        });
        let (mut soc, core) = build(p);
        assert!(soc.run(100_000).quiescent);
        let c = soc.component::<InOrderCore>(core).unwrap();
        assert_eq!(c.recorded(), &[99]);
    }

    #[test]
    fn wait_ge_spins_until_satisfied() {
        // Core 1 publishes a flag; core 2 spins on it.
        let cfg = SocConfig::default();
        let mut soc = Soc::new(cfg.clone());
        let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
        let mut producer = Program::new();
        producer.push(Op::Alu(200)); // delay
        producer.push(Op::Store {
            va: 0x2000,
            value: 5,
        });
        producer.push(Op::Fence);
        let mut consumer = Program::new();
        consumer.push(Op::WaitGe {
            va: 0x2000,
            value: 5,
        });
        consumer.push(Op::Load {
            va: 0x2000,
            record: true,
        });
        let p = InOrderCore::new(dir, &cfg, producer);
        let c = InOrderCore::new(dir, &cfg, consumer);
        soc.add_component(TileCoord::new(1, 0), Box::new(p));
        let cid = soc.add_component(TileCoord::new(0, 1), Box::new(c));
        let out = soc.run(1_000_000);
        assert!(out.quiescent, "deadlock at {}", out.cycle);
        assert!(out.cycle >= 200, "consumer cannot finish before producer");
        let cc = soc.component::<InOrderCore>(cid).unwrap();
        assert_eq!(cc.recorded(), &[5]);
        assert!(cc.core_counters().spin_iters.get() > 1);
    }

    #[test]
    fn two_cores_contend_on_one_line() {
        let cfg = SocConfig::default();
        let mut soc = Soc::new(cfg.clone());
        let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
        let mut a = Program::new();
        let mut b = Program::new();
        for i in 0..20 {
            a.push(Op::Store {
                va: 0x3000,
                value: i,
            });
            a.push(Op::Fence);
            b.push(Op::Store {
                va: 0x3000,
                value: 1000 + i,
            });
            b.push(Op::Fence);
        }
        soc.add_component(
            TileCoord::new(1, 0),
            Box::new(InOrderCore::new(dir, &cfg, a)),
        );
        soc.add_component(
            TileCoord::new(0, 1),
            Box::new(InOrderCore::new(dir, &cfg, b)),
        );
        let out = soc.run(1_000_000);
        assert!(out.quiescent, "coherence deadlock at {}", out.cycle);
        let v = soc.mem.read_u64(0x3000);
        assert!(
            v == 19 || v == 1019,
            "final value from one of the cores, got {v}"
        );
        let d = soc
            .component::<Directory>(CompId(0))
            .unwrap()
            .dir_counters()
            .clone();
        assert!(
            d.inv_sent.get() > 0,
            "ping-pong must generate invalidations"
        );
    }

    #[test]
    fn capacity_misses_beyond_l2() {
        // Touch far more lines than L2 capacity; re-touching them must miss
        // again (the Figs. 8/9 capacity effect at queue size 8192).
        let cfg = SocConfig::default();
        let lines = 2 * cfg.l2.capacity_bytes / crate::LINE_BYTES;
        let mut p = Program::new();
        for pass in 0..2 {
            for i in 0..lines {
                p.push(Op::Store {
                    va: i * crate::LINE_BYTES,
                    value: i + pass,
                });
            }
        }
        p.push(Op::Fence);
        let (mut soc, _) = build(p);
        let out = soc.run(10_000_000);
        assert!(out.quiescent, "stuck at {}", out.cycle);
        let d = soc.component::<Directory>(CompId(0)).unwrap();
        assert!(
            d.dir_counters().fills.get() > lines,
            "second pass must refill: fills={} lines={lines}",
            d.dir_counters().fills.get()
        );
        assert_eq!(soc.mem.read_u64((lines - 1) * crate::LINE_BYTES), lines);
    }

    #[test]
    fn three_readers_one_writer_invalidation_storm() {
        // Three cores read a line; a writer's GetM must invalidate all of
        // them and the final value must win.
        let cfg = SocConfig::default();
        let mut soc = Soc::new(cfg.clone());
        let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
        let mut writer = Program::new();
        writer.push(Op::Alu(500)); // let the readers cache the line first
        writer.push(Op::Store {
            va: 0x9000,
            value: 77,
        });
        writer.push(Op::Fence);
        soc.add_component(
            TileCoord::new(1, 0),
            Box::new(InOrderCore::new(dir, &cfg, writer)),
        );
        let mut readers = Vec::new();
        for i in 0..3u16 {
            let mut p = Program::new();
            p.push(Op::Load {
                va: 0x9000,
                record: true,
            }); // warm S copy
            p.push(Op::WaitGe {
                va: 0x9000,
                value: 77,
            });
            p.push(Op::Load {
                va: 0x9000,
                record: true,
            });
            let id = soc.add_component(
                TileCoord::new(0, 1 + i),
                Box::new(InOrderCore::new(dir, &cfg, p)),
            );
            readers.push(id);
        }
        let out = soc.run(1_000_000);
        assert!(out.quiescent, "stuck at {}", out.cycle);
        for id in readers {
            let c = soc.component::<InOrderCore>(id).unwrap();
            assert_eq!(c.recorded()[1], 77, "all readers observe the write");
        }
        let d = soc.component::<Directory>(CompId(0)).unwrap();
        assert!(
            d.dir_counters().inv_sent.get() >= 3,
            "all shared copies invalidated"
        );
    }

    #[test]
    fn store_buffer_acquires_lines_in_parallel() {
        // With MSHR-style prefetching, back-to-back stores to distinct
        // lines should be faster than serialized line acquisitions.
        let mut fast_cfg = SocConfig::default();
        fast_cfg.timing.sb_mshrs = 4;
        let mut slow_cfg = SocConfig::default();
        slow_cfg.timing.sb_mshrs = 1;
        let mk = || {
            let mut p = Program::new();
            for i in 0..64u64 {
                p.push(Op::Store {
                    va: 0x4000 + i * crate::LINE_BYTES,
                    value: i,
                });
            }
            p.push(Op::Fence);
            p
        };
        let run = |cfg: SocConfig| {
            let mut soc = Soc::new(cfg.clone());
            let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
            let core = soc.add_component(
                TileCoord::new(1, 0),
                Box::new(InOrderCore::new(dir, &cfg, mk())),
            );
            assert!(soc.run(1_000_000).quiescent);
            soc.component::<InOrderCore>(core)
                .unwrap()
                .core_counters()
                .done_at
        };
        let fast = run(fast_cfg);
        let slow = run(slow_cfg);
        assert!(fast < slow, "mshr=4 ({fast}) must beat mshr=1 ({slow})");
    }

    #[test]
    fn full_line_write_skips_dram() {
        // A no-fetch GetM should complete without the DRAM fill penalty.
        use crate::msg::Msg;
        use crate::port::{CoherentPort, Outcome};
        // Drive the protocol directly through a tiny probe component.
        struct Probe {
            port: CoherentPort,
            issued: bool,
            done_at: Option<u64>,
            full_line: bool,
        }
        impl Component for Probe {
            fn name(&self) -> &str {
                "probe"
            }
            fn step(&mut self, ctx: &mut crate::component::Ctx<'_>) {
                while let Some(env) = ctx.recv() {
                    if CoherentPort::wants(&env.msg) {
                        for ev in self.port.handle(&env, ctx) {
                            if matches!(ev, crate::port::PortEvent::Completed { .. }) {
                                self.done_at = Some(ctx.cycle);
                            }
                        }
                    } else if !matches!(env.msg, Msg::MmioWriteResp { .. }) {
                        panic!("unexpected {:?}", env.msg);
                    }
                }
                if !self.issued {
                    self.issued = true;
                    match self.port.request_opts(ctx, 0xa000, true, 1, self.full_line) {
                        Outcome::Pending => {}
                        other => panic!("expected a miss, got {other:?}"),
                    }
                }
            }
            fn is_idle(&self) -> bool {
                self.done_at.is_some()
            }
        }
        let time = |full_line: bool| {
            let cfg = SocConfig::default();
            let mut soc = Soc::new(cfg.clone());
            let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
            let probe = Probe {
                port: CoherentPort::new(dir, cfg.l1, cfg.timing.l1_hit),
                issued: false,
                done_at: None,
                full_line,
            };
            let id = soc.add_component(TileCoord::new(1, 0), Box::new(probe));
            assert!(soc.run(100_000).quiescent);
            soc.component::<Probe>(id).unwrap().done_at.unwrap()
        };
        let with_fetch = time(false);
        let no_fetch = time(true);
        assert!(
            with_fetch >= no_fetch + SocConfig::default().timing.dram,
            "no-fetch {no_fetch} vs fetch {with_fetch}"
        );
    }

    #[test]
    fn inclusive_eviction_recalls_holders() {
        // An L2 smaller than the private cache forces inclusive evictions
        // of lines the core still holds: the directory must recall them.
        use crate::config::CacheConfig;
        // 4 lines of L2 total.
        let cfg = SocConfig {
            l2: CacheConfig::new(4 * crate::LINE_BYTES, 2),
            ..SocConfig::default()
        };
        let mut p = Program::new();
        for i in 0..32u64 {
            p.push(Op::Store {
                va: i * crate::LINE_BYTES,
                value: i,
            });
            p.push(Op::Fence);
        }
        // Read everything back to also exercise recalled-line refetches.
        for i in 0..32u64 {
            p.push(Op::Load {
                va: i * crate::LINE_BYTES,
                record: true,
            });
        }
        let mut soc = Soc::new(cfg.clone());
        let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
        let core = InOrderCore::new(dir, &cfg, p);
        let core_id = soc.add_component(TileCoord::new(1, 0), Box::new(core));
        let out = soc.run(10_000_000);
        assert!(out.quiescent, "stuck at {}", out.cycle);
        let d = soc.component::<Directory>(CompId(0)).unwrap();
        assert!(
            d.dir_counters().recalls.get() > 0,
            "must observe inclusive recalls"
        );
        let c = soc.component::<InOrderCore>(core_id).unwrap();
        let expect: Vec<u64> = (0..32).collect();
        assert_eq!(c.recorded(), &expect[..], "recalled data must survive");
    }

    #[test]
    fn budget_u64_max_saturates_instead_of_wrapping() {
        // `cycle + max_cycles` used to overflow for unbounded budgets once
        // the SoC had advanced past cycle 0; the deadline now saturates.
        let mut p = Program::new();
        p.push(Op::Store {
            va: 0x1000,
            value: 1,
        });
        p.push(Op::Fence);
        let (mut soc, _) = build(p);
        let out = soc.run(u64::MAX);
        assert!(out.quiescent);
        assert!(out.cycle > 0);
        // Second unbounded run from a nonzero cycle: the old code wrapped
        // the deadline to `cycle - 1` and returned without stepping.
        assert!(soc.run(u64::MAX).quiescent);
        assert!(soc.run_until(u64::MAX, |s| s.cycle >= out.cycle));
    }

    #[test]
    fn zero_budget_never_consults_predicate() {
        let (mut soc, _) = build(Program::new());
        let mut calls = 0;
        assert!(!soc.run_until(0, |_| {
            calls += 1;
            true
        }));
        assert_eq!(calls, 0, "deadline is checked before the predicate");
    }

    #[test]
    fn component_accessors_are_total() {
        // Documented as returning Option, these used to panic on an
        // out-of-range id via direct indexing.
        let (mut soc, core) = build(Program::new());
        assert!(soc.component::<InOrderCore>(CompId(99)).is_none());
        assert!(soc.component_mut::<InOrderCore>(CompId(99)).is_none());
        assert!(soc.component::<Directory>(core).is_none(), "wrong type");
        assert!(soc.component_mut::<Directory>(core).is_none(), "wrong type");
        assert!(soc.component::<InOrderCore>(core).is_some());
    }

    /// A component that writes a word at a fixed cycle.
    struct Writer;
    /// A component that polls a word every cycle and records when it first
    /// observes the written value.
    struct Reader {
        seen_at: Option<u64>,
    }
    impl Component for Writer {
        fn name(&self) -> &str {
            "writer"
        }
        fn step(&mut self, ctx: &mut Ctx<'_>) {
            if ctx.cycle == 5 {
                ctx.mem.write_u64(0x100, 42);
            }
        }
        fn is_idle(&self) -> bool {
            true
        }
    }
    impl Component for Reader {
        fn name(&self) -> &str {
            "reader"
        }
        fn step(&mut self, ctx: &mut Ctx<'_>) {
            if self.seen_at.is_none() && ctx.mem.read_u64(0x100) == 42 {
                self.seen_at = Some(ctx.cycle);
            }
        }
        fn is_idle(&self) -> bool {
            true
        }
    }

    #[test]
    fn same_cycle_visibility_is_order_independent() {
        // Whatever the registration order, a write staged at cycle 5
        // becomes visible to other components at cycle 6 — the barrier,
        // not the step loop, defines visibility.
        for writer_first in [true, false] {
            let mut soc = Soc::new(SocConfig::default());
            let reader = if writer_first {
                soc.add_component(TileCoord::new(0, 0), Box::new(Writer));
                soc.add_component(TileCoord::new(1, 0), Box::new(Reader { seen_at: None }))
            } else {
                let r = soc.add_component(TileCoord::new(1, 0), Box::new(Reader { seen_at: None }));
                soc.add_component(TileCoord::new(0, 0), Box::new(Writer));
                r
            };
            for _ in 0..10 {
                soc.step();
            }
            let r = soc.component::<Reader>(reader).unwrap();
            assert_eq!(
                r.seen_at,
                Some(6),
                "writer_first={writer_first}: visibility pinned to the barrier"
            );
        }
    }

    /// Runs the producer/consumer hand-off with the two cores registered
    /// in the given order; returns (final cycle, consumer record, memory
    /// word) for bit-identity comparison.
    fn handoff(consumer_first: bool, lookahead: Lookahead) -> (u64, Vec<u64>, u64) {
        let cfg = SocConfig::default().with_lookahead(lookahead);
        let mut soc = Soc::new(cfg.clone());
        let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
        let mut producer = Program::new();
        producer.push(Op::Alu(200));
        producer.push(Op::Store {
            va: 0x2000,
            value: 5,
        });
        producer.push(Op::Fence);
        let mut consumer = Program::new();
        consumer.push(Op::WaitGe {
            va: 0x2000,
            value: 5,
        });
        consumer.push(Op::Load {
            va: 0x2000,
            record: true,
        });
        // Tiles stay fixed; only the slot (registration) order changes.
        let p = InOrderCore::new(dir, &cfg, producer);
        let c = InOrderCore::new(dir, &cfg, consumer);
        let cid = if consumer_first {
            let cid = soc.add_component(TileCoord::new(0, 1), Box::new(c));
            soc.add_component(TileCoord::new(1, 0), Box::new(p));
            cid
        } else {
            soc.add_component(TileCoord::new(1, 0), Box::new(p));
            soc.add_component(TileCoord::new(0, 1), Box::new(c))
        };
        let out = soc.run(1_000_000);
        assert!(out.quiescent);
        let rec = soc
            .component::<InOrderCore>(cid)
            .unwrap()
            .recorded()
            .to_vec();
        (out.cycle, rec, soc.mem.read_u64(0x2000))
    }

    #[test]
    fn registration_order_does_not_change_results() {
        assert_eq!(
            handoff(false, Lookahead::Auto),
            handoff(true, Lookahead::Auto)
        );
    }

    #[test]
    fn lookahead_does_not_change_results() {
        // The heart of the batching contract: cycle-for-cycle stepping and
        // conservative fast-forwarding are observationally identical.
        assert_eq!(
            handoff(false, Lookahead::Force1),
            handoff(false, Lookahead::Auto)
        );
    }

    #[test]
    fn lookahead_actually_skips_cycles() {
        // The hand-off spends most of its time in an ALU delay and a spin
        // wait — lookahead must convert those into fast-forward gaps, and
        // the barrier/ff split must account for every simulated cycle.
        let run = |lookahead| {
            let cfg = SocConfig::default().with_lookahead(lookahead);
            let mut soc = Soc::new(cfg.clone());
            let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
            let mut producer = Program::new();
            producer.push(Op::Alu(500));
            producer.push(Op::Store {
                va: 0x2000,
                value: 5,
            });
            producer.push(Op::Fence);
            let mut consumer = Program::new();
            consumer.push(Op::WaitGe {
                va: 0x2000,
                value: 5,
            });
            soc.add_component(
                TileCoord::new(1, 0),
                Box::new(InOrderCore::new(dir, &cfg, producer)),
            );
            soc.add_component(
                TileCoord::new(0, 1),
                Box::new(InOrderCore::new(dir, &cfg, consumer)),
            );
            let out = soc.run(1_000_000);
            assert!(out.quiescent);
            (
                out.cycle,
                soc.kernel_counter("kernel.barrier_activations"),
                soc.kernel_counter("kernel.ff_cycles"),
            )
        };
        let (cycles_f1, barriers_f1, ff_f1) = run(Lookahead::Force1);
        let (cycles_auto, barriers_auto, ff_auto) = run(Lookahead::Auto);
        assert_eq!(cycles_f1, cycles_auto, "batching must not change timing");
        assert_eq!(ff_f1, 0, "force-1 never fast-forwards");
        assert_eq!(barriers_f1, cycles_f1, "force-1 steps every cycle");
        assert!(ff_auto > 0, "the ALU delay must fast-forward");
        assert_eq!(
            barriers_auto + ff_auto,
            cycles_auto,
            "every cycle is either stepped or skipped"
        );
        assert!(
            barriers_auto * 2 <= cycles_auto,
            "most of this workload is skippable: {barriers_auto} barriers \
             over {cycles_auto} cycles"
        );
    }

    /// A component that never acts on its own: only a message (which none
    /// arrives) could wake it, so only the deadline bounds the horizon.
    struct Dormant;
    impl Component for Dormant {
        fn name(&self) -> &str {
            "dormant"
        }
        fn step(&mut self, _ctx: &mut Ctx<'_>) {}
        fn is_idle(&self) -> bool {
            false // keeps `run` from declaring quiescence
        }
        fn quiescent_for(&self, _now: u64) -> u64 {
            u64::MAX
        }
    }

    /// A probe for the wake rules. It acts every `period` cycles (never,
    /// if 0) unless the shared accelerator-stall switch holds it, pings
    /// `peer` at each cycle in `pings`, logs the cycle of everything it
    /// does, and counts one `ticks` per cycle it is stepped or
    /// reconciled for — the stand-in for a stall counter.
    struct Napper {
        period: u64,
        next_at: u64,
        pings: VecDeque<u64>,
        peer: CompId,
        faults: FaultState,
        ticks: Counter,
        acted_at: Vec<u64>,
        received_at: Vec<u64>,
    }

    impl Napper {
        fn new(period: u64, pings: &[u64], peer: CompId, faults: &FaultState) -> Self {
            Self {
                period,
                next_at: period,
                pings: pings.iter().copied().collect(),
                peer,
                faults: faults.clone(),
                ticks: Counter::new(),
                acted_at: Vec::new(),
                received_at: Vec::new(),
            }
        }

        fn timer_due(&self, now: u64) -> bool {
            self.period != 0 && now >= self.next_at && !self.faults.accel_stalled(now)
        }
    }

    impl Component for Napper {
        fn name(&self) -> &str {
            "napper"
        }
        fn attach(&mut self, obs: &Observability) {
            obs.adopt_counter("ticks", &self.ticks);
        }
        fn step(&mut self, ctx: &mut Ctx<'_>) {
            while ctx.recv().is_some() {
                self.received_at.push(ctx.cycle);
            }
            self.ticks.inc();
            if self.timer_due(ctx.cycle) {
                self.acted_at.push(ctx.cycle);
                self.next_at = ctx.cycle + self.period;
            }
            while self.pings.front().is_some_and(|&c| c <= ctx.cycle) {
                self.pings.pop_front();
                ctx.send(self.peer, crate::msg::Msg::MmioWriteResp { tag: 0 });
            }
        }
        fn is_idle(&self) -> bool {
            false
        }
        fn quiescent_for(&self, now: u64) -> u64 {
            // While stalled the timer is frozen; the injector that opened
            // the window stages its close, and that barrier re-hints.
            let timer = if self.period == 0 || self.faults.accel_stalled(now) {
                u64::MAX
            } else {
                self.next_at.saturating_sub(now)
            };
            let ping = self
                .pings
                .front()
                .map_or(u64::MAX, |&c| c.saturating_sub(now));
            timer.min(ping)
        }
        fn fast_forward(&mut self, skipped: u64) {
            self.ticks.add(skipped);
        }
    }

    /// Everything observable about a two-napper run, for `Force1` ≡ `Auto`
    /// comparisons: stop cycle, per-napper (ticks, acted_at, received_at),
    /// and the stats registry.
    type NapperRun = (u64, Vec<(u64, Vec<u64>, Vec<u64>)>, String);

    /// Runs `build`'s SoC for `budget` cycles; returns what it showed and
    /// its `[barrier_activations, ff_cycles, slot_steps, slot_sleeps]`.
    fn napper_run(
        lookahead: Lookahead,
        budget: u64,
        build: impl Fn(&mut Soc),
    ) -> (NapperRun, [u64; 4]) {
        let mut soc = Soc::new(SocConfig::default().with_lookahead(lookahead));
        build(&mut soc);
        let out = soc.run(budget);
        let nappers = (0..soc.slots.len())
            .filter_map(|i| soc.component::<Napper>(CompId(i)))
            .map(|n| (n.ticks.get(), n.acted_at.clone(), n.received_at.clone()))
            .collect();
        let kernel = [
            "barrier_activations",
            "ff_cycles",
            "slot_steps",
            "slot_sleeps",
        ]
        .map(|name| soc.kernel_counter(&format!("kernel.{name}")));
        ((out.cycle, nappers, soc.stats_json()), kernel)
    }

    #[test]
    fn message_mid_sleep_wakes_the_slot_that_cycle() {
        // Slot 0 would sleep to the deadline; slot 1 pings it at 300 and
        // 301. Each ping must be consumed on its delivery cycle and the
        // sleeper's per-cycle counter must not notice it ever slept.
        let build = |soc: &mut Soc| {
            let f = soc.fault_state().clone();
            soc.add_component(
                TileCoord::new(0, 0),
                Box::new(Napper::new(0, &[], CompId(1), &f)),
            );
            soc.add_component(
                TileCoord::new(1, 0),
                Box::new(Napper::new(0, &[300, 301], CompId(0), &f)),
            );
        };
        let (f1, [.., f1_sleeps]) = napper_run(Lookahead::Force1, 1_000, build);
        let (auto, [.., auto_sleeps]) = napper_run(Lookahead::Auto, 1_000, build);
        assert_eq!(f1, auto);
        let (ticks, _, received_at) = &auto.1[0];
        assert_eq!(received_at.len(), 2);
        assert_eq!(received_at[1], received_at[0] + 1);
        assert_eq!(*ticks, 1_000, "one tick per cycle, stepped or slept");
        assert_eq!(f1_sleeps, 0, "force-1 never lets a slot sleep");
        assert!(auto_sleeps > 0, "the sender's barriers skip the sleeper");
    }

    #[test]
    fn run_exit_flushes_sleepers() {
        // The deadline falls mid-sleep for both slots, and mid-way between
        // two timer periods for slot 1: `run` must hand back counters
        // that already include the slept cycles, and a second `run` must
        // carry on from there without double counting.
        let build = |soc: &mut Soc| {
            let f = soc.fault_state().clone();
            soc.add_component(
                TileCoord::new(0, 0),
                Box::new(Napper::new(0, &[], CompId(1), &f)),
            );
            soc.add_component(
                TileCoord::new(1, 0),
                Box::new(Napper::new(400, &[], CompId(0), &f)),
            );
        };
        let two_runs = |lookahead| {
            let mut soc = Soc::new(SocConfig::default().with_lookahead(lookahead));
            build(&mut soc);
            soc.run(1_000);
            let mid = soc.stats_json();
            soc.run(1_000);
            (mid, soc.stats_json(), soc.cycle)
        };
        let f1 = two_runs(Lookahead::Force1);
        assert_eq!(f1, two_runs(Lookahead::Auto));
        assert!(f1.0.contains("\"napper#0.ticks\": 1000"), "{}", f1.0);
        assert!(f1.1.contains("\"napper#1.ticks\": 2000"), "{}", f1.1);
    }

    #[test]
    fn stall_window_close_wakes_a_sleeper_exactly_at_the_edge() {
        // An injector holds the stall switch over cycles 101..=350 (the
        // flip commits at the end of cycle 100). The napper's 64-cycle
        // timer is frozen for the window and must fire on the very cycle
        // the window closes — a cycle only the injector's close marks:
        // it steps on the window's last cycle, 350, and that barrier
        // re-hints everyone.
        use crate::faultinject::{FaultInjector, FaultKind, FaultPlan};
        let build = |soc: &mut Soc| {
            let f = soc.fault_state().clone();
            let plan = FaultPlan::default().at(100, FaultKind::AccelStall { cycles: 251 });
            soc.add_component(
                TileCoord::new(0, 0),
                Box::new(Napper::new(64, &[], CompId(0), &f)),
            );
            soc.add_component(TileCoord::new(1, 0), Box::new(FaultInjector::new(&plan, f)));
        };
        let (f1, _) = napper_run(Lookahead::Force1, 600, build);
        let (auto, kernel) = napper_run(Lookahead::Auto, 600, build);
        assert_eq!(f1, auto);
        assert_eq!(auto.1[0].1, [64, 351, 415, 479, 543]);
        // Seven barriers of one step each: the napper's five and the
        // injector's open (100) and close (350).
        assert_eq!(kernel, [7, 593, 7, 7]);
        let barriers_by = |budget| napper_run(Lookahead::Auto, budget, build).1[0];
        assert_eq!(
            (barriers_by(350), barriers_by(351)),
            (2, 3),
            "the close is at 350"
        );
    }

    #[test]
    fn period_two_timer_is_stepped_on_exactly_every_second_cycle() {
        // A hint of 1 is a sleep of one cycle, not "awake": the timer is
        // stepped at 2, 4, …, 998 and every odd cycle is a one-cycle jump.
        let build = |soc: &mut Soc| {
            let f = soc.fault_state().clone();
            soc.add_component(
                TileCoord::new(0, 0),
                Box::new(Napper::new(2, &[], CompId(0), &f)),
            );
        };
        let (f1, _) = napper_run(Lookahead::Force1, 1_000, build);
        let (auto, [barriers, ff, steps, _]) = napper_run(Lookahead::Auto, 1_000, build);
        assert_eq!(f1, auto);
        let (ticks, acted_at, _) = &auto.1[0];
        assert_eq!(*acted_at, (1..500).map(|k| 2 * k).collect::<Vec<u64>>());
        assert_eq!(*ticks, 1_000, "one tick per cycle, stepped or slept");
        assert_eq!((barriers, steps, ff), (499, 499, 501));
    }

    #[test]
    fn mail_on_the_one_slept_cycle_is_read_on_that_cycle() {
        // Slot 0 acts on even cycles and sleeps through each odd one on a
        // hint of 1; two pings on consecutive cycles put one delivery on a
        // slept cycle, which must step the slot then and there without
        // moving its timer.
        let build = |soc: &mut Soc| {
            let f = soc.fault_state().clone();
            soc.add_component(
                TileCoord::new(0, 0),
                Box::new(Napper::new(2, &[], CompId(1), &f)),
            );
            soc.add_component(
                TileCoord::new(1, 0),
                Box::new(Napper::new(0, &[300, 301], CompId(0), &f)),
            );
        };
        let (f1, _) = napper_run(Lookahead::Force1, 1_000, build);
        let (auto, [barriers, _, steps, _]) = napper_run(Lookahead::Auto, 1_000, build);
        assert_eq!(f1, auto);
        let (_, acted_at, received_at) = &auto.1[0];
        assert_eq!(received_at.len(), 2);
        assert_eq!(received_at[1], received_at[0] + 1);
        assert!(acted_at.iter().all(|at| at % 2 == 0), "{acted_at:?}");
        // 499 timer steps, the odd delivery's, and the sender's two (the
        // one at 300 shares the timer's barrier).
        assert_eq!((barriers, steps), (501, 502));
    }

    #[test]
    fn work_one_cycle_away_is_a_jump_not_a_barrier() {
        // The only pending work is a send at cycle 1: cycle 0 is skipped
        // (one `ff_cycles`), not stepped to find nothing to do.
        let build = |soc: &mut Soc| {
            let f = soc.fault_state().clone();
            soc.add_component(
                TileCoord::new(0, 0),
                Box::new(Napper::new(0, &[1], CompId(0), &f)),
            );
        };
        let (f1, _) = napper_run(Lookahead::Force1, 2, build);
        let (auto, [barriers, ff, steps, _]) = napper_run(Lookahead::Auto, 2, build);
        assert_eq!(f1, auto);
        assert_eq!((barriers, ff, steps), (1, 1, 1));
    }

    #[test]
    fn back_pressured_store_stream_sleeps_and_matches_forced_stepping() {
        // Two cores stream stores with no fence in between, every other
        // one onto a line they fight over and the rest onto lines of
        // their own: the store buffer fills, its head waits for the
        // contended line and the drain keeps polling the private lines it
        // already holds in M. All of that is waiting, and its per-cycle
        // books (`sb_full_stalls`, one `l1.hits` per polled line) must
        // come out of `fast_forward` exactly as forced stepping counts
        // them.
        let run = |lookahead: Lookahead| {
            let cfg = SocConfig::default().with_lookahead(lookahead);
            let mut soc = Soc::new(cfg.clone());
            let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
            let mut cores = Vec::new();
            for c in 0..2u64 {
                let mut p = Program::new();
                for i in 0..96u64 {
                    if i == 40 {
                        // A busy window that ends inside the stall: only
                        // the cycles past it count as store-buffer stalls.
                        p.push(Op::Alu(30));
                    }
                    let private = 0x10_0000 * (c + 1) + (i % 6) * crate::LINE_BYTES;
                    p.push(Op::Store {
                        va: if i % 2 == 0 { 0x3000 } else { private },
                        value: c * 1000 + i,
                    });
                }
                p.push(Op::Fence);
                p.push(Op::Alu(50));
                let tile = TileCoord::new(1 + c as u16, 0);
                cores.push(soc.add_component(tile, Box::new(InOrderCore::new(dir, &cfg, p))));
            }
            let out = soc.run(10_000_000);
            assert!(out.quiescent, "stuck at {}", out.cycle);
            let per_core: Vec<_> = cores
                .iter()
                .map(|&id| {
                    let c = soc.component::<InOrderCore>(id).unwrap().core_counters();
                    (c.done_at, c.instret.get(), c.sb_full_stalls.get())
                })
                .collect();
            (
                (out.cycle, per_core, soc.stats_json()),
                soc.kernel_counter("kernel.slot_steps"),
            )
        };
        let (f1, f1_steps) = run(Lookahead::Force1);
        let (auto, auto_steps) = run(Lookahead::Auto);
        assert_eq!(f1, auto);
        let (cycles, per_core, stats) = &auto;
        assert!(
            per_core.iter().all(|&(_, _, stalls)| stalls > 100),
            "{per_core:?}"
        );
        assert!(stats.contains("\"core#1.l1.hits\""), "{stats}");
        assert_eq!(f1_steps, 3 * cycles, "force-1 steps every slot every cycle");
        assert!(
            auto_steps * 2 < *cycles,
            "three slots, {cycles} cycles, {auto_steps} slot-steps: the cores must sleep"
        );
    }

    /// The word the spin-park tests poll, the value that ends the wait,
    /// and the slot of the core that waits (right behind the directory).
    const FLAG: u64 = 0x2000;
    const FLAG_TARGET: u64 = 5;
    const SPINNER: CompId = CompId(1);

    /// A probe that acts at fixed cycles: each entry of `sends` goes to
    /// the spinner on its cycle, and at `write.0` the probe stores
    /// `write.2` to `write.1` with a plain `ctx.mem` write — behind the
    /// back of any cache holding the line — announcing it if `announce`.
    struct Meddler {
        sends: VecDeque<(u64, crate::msg::Msg)>,
        write: Option<(u64, u64, u64)>,
        announce: bool,
        faults: FaultState,
    }

    impl Meddler {
        fn new() -> Self {
            Self {
                sends: VecDeque::new(),
                write: None,
                announce: true,
                faults: FaultState::default(),
            }
        }
    }

    impl Component for Meddler {
        fn name(&self) -> &str {
            "meddler"
        }
        fn attach(&mut self, obs: &Observability) {
            self.faults = obs.faults.clone();
        }
        fn step(&mut self, ctx: &mut Ctx<'_>) {
            while ctx.recv().is_some() {}
            while self.sends.front().is_some_and(|s| s.0 <= ctx.cycle) {
                let (_, msg) = self.sends.pop_front().expect("peeked");
                ctx.send(SPINNER, msg);
            }
            if let Some((_, pa, value)) = self.write.take_if(|w| w.0 <= ctx.cycle) {
                ctx.mem.write_u64(pa, value);
                if self.announce {
                    self.faults.announce_bypass_write();
                }
            }
        }
        fn is_idle(&self) -> bool {
            self.sends.is_empty() && self.write.is_none()
        }
        fn quiescent_for(&self, now: u64) -> u64 {
            let next = self.sends.front().map(|s| s.0);
            let next = next.into_iter().chain(self.write.map(|w| w.0)).min();
            next.map_or(u64::MAX, |at| at.saturating_sub(now))
        }
    }

    /// Everything observable about a spin-park run, for `Force1` ≡ `Auto`
    /// comparisons: stop cycle, the spinner's `(done_at, spin_iters,
    /// instret, l1.hits, recorded)`, and the stats registry.
    type SpinRun = (u64, (u64, u64, u64, u64, Vec<u64>), String);

    /// Runs a SoC of a directory, a core that executes `prologue`, spins
    /// on [`FLAG`] and records it (tuned by `tune` before it joins), and
    /// whatever `rest` adds. Returns the run and its slot-steps.
    fn spin_run(
        cfg: &SocConfig,
        prologue: &[Op],
        tune: impl FnOnce(&mut InOrderCore),
        rest: impl FnOnce(&mut Soc, CompId),
    ) -> (SpinRun, u64) {
        let mut soc = Soc::new(cfg.clone());
        let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(cfg)));
        let mut program = Program::new();
        program.extend(prologue.iter().copied());
        program.push(Op::WaitGe {
            va: FLAG,
            value: FLAG_TARGET,
        });
        program.push(Op::Load {
            va: FLAG,
            record: true,
        });
        let mut spinner = InOrderCore::new(dir, cfg, program);
        tune(&mut spinner);
        let id = soc.add_component(TileCoord::new(0, 1), Box::new(spinner));
        assert_eq!(id, SPINNER);
        rest(&mut soc, dir);
        let out = soc.run(200_000);
        let core = soc.component::<InOrderCore>(SPINNER).expect("the spinner");
        assert!(core.is_done(), "still spinning at {}", out.cycle);
        let c = core.core_counters();
        let hits = core.counters().into_iter().find(|(n, _)| n == "l1_hits");
        let books = (
            c.done_at,
            c.spin_iters.get(),
            c.instret.get(),
            hits.expect("l1_hits").1,
            core.recorded().to_vec(),
        );
        (
            (out.cycle, books, soc.stats_json()),
            soc.kernel_counter("kernel.slot_steps"),
        )
    }

    /// [`spin_run`] under both modes: asserts that they agree and returns
    /// the run with the slot-steps `Auto` took.
    fn spin_run_both(
        cfg: &SocConfig,
        what: &str,
        prologue: &[Op],
        tune: impl Fn(&mut InOrderCore),
        rest: impl Fn(&mut Soc, CompId),
    ) -> (SpinRun, u64) {
        let run = |lookahead| {
            let cfg = cfg.clone().with_lookahead(lookahead);
            spin_run(&cfg, prologue, &tune, &rest)
        };
        let (f1, _) = run(Lookahead::Force1);
        let (auto, steps) = run(Lookahead::Auto);
        assert_eq!(f1, auto, "{what}: Auto diverged from Force1");
        (auto, steps)
    }

    /// The `(l1_hit, spin_alu)` grid of the spin-park tests with each
    /// one's period: every shape of the iteration, `l1_hit <= 1` (the
    /// check is the very next step) and `spin_alu == 0` (check and
    /// re-issue share a step) included.
    fn spin_timings() -> impl Iterator<Item = (SocConfig, u64)> {
        let hits = [0u64, 1, 2, 3].into_iter();
        let grid = hits.flat_map(|hit| [0u64, 1, 4].map(|alu| (hit, alu)));
        grid.map(|(l1_hit, spin_alu)| {
            let mut cfg = SocConfig::default();
            cfg.timing.l1_hit = l1_hit;
            cfg.timing.spin_alu = spin_alu;
            (cfg, l1_hit.max(1) + spin_alu)
        })
    }

    /// A producer core that publishes [`FLAG_TARGET`] after `delay` cycles.
    fn publisher(dir: CompId, cfg: &SocConfig, delay: u64) -> Box<InOrderCore> {
        let mut p = Program::new();
        p.push(Op::Alu(delay as u32));
        p.push(Op::Store {
            va: FLAG,
            value: FLAG_TARGET,
        });
        p.push(Op::Fence);
        Box::new(InOrderCore::new(dir, cfg, p))
    }

    #[test]
    fn spinning_core_sleeps_until_the_invalidation_whatever_its_phase() {
        // The producer's store invalidates the spinner's copy at every
        // offset into the iteration, for every shape of iteration: the
        // replayed checks, retired instructions, hits and the phase the
        // spinner wakes in must be exactly forced stepping's. And it
        // sleeps through the wait: the run costs the same few dozen
        // slot-steps however long the producer takes.
        for (cfg, period) in spin_timings() {
            let mut steps_by_delay = Vec::new();
            for delay in (3_000..3_000 + period).chain([30_000]) {
                let what = format!("{:?} delay {delay}", cfg.timing);
                let rest = |soc: &mut Soc, dir| {
                    soc.add_component(TileCoord::new(1, 0), publisher(dir, &cfg, delay));
                };
                let (run, steps) = spin_run_both(&cfg, &what, &[], |_| {}, rest);
                let (_, (_, spin_iters, ..), _) = run;
                // All but the first fetch of the wait is spent in the loop.
                let least = (delay - 100) / period;
                assert!(spin_iters >= least, "{what}: {spin_iters} checks");
                steps_by_delay.push(steps);
            }
            assert!(
                steps_by_delay.iter().all(|&steps| steps < 60),
                "slot-steps must not grow with the wait: {steps_by_delay:?}"
            );
        }
    }

    #[test]
    fn interrupt_wakes_a_spinning_core_in_every_phase_and_announces_its_handler() {
        // Nobody publishes the flag coherently: the interrupt's handler
        // writes it through `ctx.mem`, as the chaos software fallback
        // publishes the index its own core is polling. The core must wake
        // on the IRQ in whatever phase it lands, charge the handler where
        // forced stepping does, and announce the handler's write so that
        // it does not trust its memo afterwards. Two ignored messages
        // before it force settles in mid-sleep.
        use crate::core::IrqHandler;
        use crate::msg::Msg;
        for (cfg, period) in spin_timings() {
            for at in 2_000..2_000 + period {
                let what = format!("{:?} irq at {at}", cfg.timing);
                let tune = |core: &mut InOrderCore| {
                    let handler = IrqHandler {
                        entry_cycles: 40,
                        entry_insts: 12,
                        action: Box::new(|mem, _, _| {
                            mem.write_u64(FLAG, FLAG_TARGET);
                            Vec::new()
                        }),
                    };
                    core.register_irq_handler(3, handler);
                };
                let rest = |soc: &mut Soc, _| {
                    let mut meddler = Meddler::new();
                    let ignored = Msg::MmioWriteResp { tag: 0 };
                    meddler.sends = [
                        (at - 700, ignored.clone()),
                        (at - 3, ignored),
                        (at, Msg::Irq { irq: 3, payload: 0 }),
                    ]
                    .into();
                    soc.add_component(TileCoord::new(1, 0), Box::new(meddler));
                };
                let (_, steps) = spin_run_both(&cfg, &what, &[], tune, rest);
                assert!(steps < 120, "{what}: {steps} slot-steps");
            }
        }
    }

    #[test]
    fn own_store_to_the_polled_word_ends_the_wait() {
        // The one writer that never invalidates the core's copy is the
        // core: it loads the flag (a shared copy), buffers the store that
        // satisfies its own wait, and starts polling before the upgrade is
        // granted. The loop's first load sees the old word; the store
        // retires under it; the next check must see the new one.
        let prologue = [
            Op::Load {
                va: FLAG,
                record: false,
            },
            Op::Store {
                va: FLAG,
                value: FLAG_TARGET,
            },
        ];
        let cfg = SocConfig::default();
        let (run, _) = spin_run_both(&cfg, "own store", &prologue, |_| {}, |_, _| {});
        let (_, (_, spin_iters, ..), _) = run;
        assert!(
            spin_iters >= 2,
            "the wait must begin before the store lands"
        );
    }

    #[test]
    fn fill_that_evicts_the_polled_line_ends_the_park() {
        // A direct-mapped L1 and a store buffer that drains one line at a
        // time: the spinner starts polling while four of its stores are
        // still buffered, and the last of them lands in the flag's set.
        // Its fill evicts the polled line in mid-spin — the memo stands,
        // the store buffer is empty, but the line is gone, so the core
        // must go and fetch it again rather than sleep on a copy it no
        // longer has (it would miss the producer's invalidation).
        use crate::config::CacheConfig;
        let mut cfg = SocConfig {
            l1: CacheConfig::new(8 * crate::LINE_BYTES, 1),
            ..SocConfig::default()
        };
        cfg.timing.sb_mshrs = 1;
        let same_set = FLAG + 8 * crate::LINE_BYTES;
        let prologue: Vec<Op> = [0x10040, 0x10080, 0x100c0, same_set]
            .into_iter()
            .map(|va| Op::Store { va, value: 1 })
            .collect();
        let rest = |soc: &mut Soc, dir| {
            soc.add_component(TileCoord::new(1, 0), publisher(dir, &cfg, 5_000));
        };
        let (run, steps) = spin_run_both(&cfg, "evicted", &prologue, |_| {}, rest);
        let stats = run.2;
        assert!(
            stats.contains("\"core#1.l1.evictions\": 2"),
            "the flag's line must go and come back: {stats}"
        );
        assert!(steps < 200, "{steps} slot-steps");
    }

    /// A translator that is a pure function of memory, as the park
    /// requires: every address is offset by the word at `SWITCH` (whole
    /// pages in every test, so it is page-granular too).
    struct Switched;
    const SWITCH: u64 = 0x8000;
    impl crate::translate::Translator for Switched {
        fn translate(&self, mem: &dyn crate::mem::MemAccess, va: u64) -> Option<u64> {
            Some(va + mem.read_u64(SWITCH))
        }
    }

    #[test]
    fn announced_bypass_write_wakes_the_spinner_like_forced_stepping() {
        // Two edits no protocol message accompanies, each at every offset
        // into the iteration — between a load's issue and its check too:
        // the polled word itself, and the translation of the polled
        // address (the flag's new home already holds the target). The
        // writer announces them, so the sleeping core is settled against
        // the old memory and stepped against the new.
        for (cfg, period) in spin_timings() {
            for at in 2_000..2_000 + period {
                for edit in [(FLAG, FLAG_TARGET), (SWITCH, 0x1000)] {
                    let what = format!("{:?} write {edit:x?} at {at}", cfg.timing);
                    let tune = |core: &mut InOrderCore| core.set_translator(Box::new(Switched));
                    let rest = |soc: &mut Soc, _| {
                        soc.mem.write_u64(FLAG + 0x1000, FLAG_TARGET);
                        let mut meddler = Meddler::new();
                        meddler.write = Some((at, edit.0, edit.1));
                        soc.add_component(TileCoord::new(1, 0), Box::new(meddler));
                    };
                    let (_, steps) = spin_run_both(&cfg, &what, &[], tune, rest);
                    assert!(steps < 120, "{what}: {steps} slot-steps");
                }
            }
        }
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "must announce itself")]
    fn unannounced_bypass_write_trips_the_wake_assertion() {
        // The same edit of the polled word, not announced. Under `Auto`
        // the spinner would sleep on for ever; forced stepping looks
        // every cycle and names the cycle after the writer's.
        let cfg = SocConfig::default().with_lookahead(Lookahead::Force1);
        let rest = |soc: &mut Soc, _| {
            let mut meddler = Meddler::new();
            meddler.write = Some((2_000, FLAG, FLAG_TARGET));
            meddler.announce = false;
            soc.add_component(TileCoord::new(1, 0), Box::new(meddler));
        };
        spin_run(&cfg, &[], |_| {}, rest);
    }

    /// A word the remap tests load twice: it holds 1 in its first frame
    /// and 2 in the frame a `SWITCH` of one page moves it to.
    const DATA: u64 = 0x5000;

    /// Runs a core that loads [`DATA`], computes for 3,000 cycles and
    /// loads it again, while a meddler remaps every page by one at cycle
    /// 2,000 (the flag's new home holds the target, so the wait after the
    /// loads ends at once). Returns the run.
    fn remap_run(cfg: &SocConfig, announce: bool) -> SpinRun {
        let load = Op::Load {
            va: DATA,
            record: true,
        };
        let prologue = [load, Op::Alu(3_000), load];
        let tune = |core: &mut InOrderCore| core.set_translator(Box::new(Switched));
        let rest = |soc: &mut Soc, _| {
            soc.mem.write_u64(DATA, 1);
            soc.mem.write_u64(DATA + 0x1000, 2);
            soc.mem.write_u64(FLAG + 0x1000, FLAG_TARGET);
            let mut meddler = Meddler::new();
            meddler.write = Some((2_000, SWITCH, 0x1000));
            meddler.announce = announce;
            soc.add_component(TileCoord::new(1, 0), Box::new(meddler));
        };
        if announce {
            spin_run_both(cfg, "remap", &prologue, tune, rest).0
        } else {
            spin_run(cfg, &prologue, tune, rest).0
        }
    }

    #[test]
    fn announced_remap_moves_the_next_load_to_the_new_frame() {
        // The core remembers the page's translation from the first load;
        // the announced remap makes it forget, so the second load reads
        // the new frame, under `Auto` exactly as under forced stepping.
        let (_, (.., recorded), _) = remap_run(&SocConfig::default(), true);
        assert_eq!(recorded, [1, 2, FLAG_TARGET]);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "the page memo maps 0x5000 to 0x5000")]
    fn unannounced_remap_trips_the_page_memo_assertion() {
        remap_run(&SocConfig::default(), false);
    }

    #[test]
    fn mail_to_a_slot_that_sleeps_forever_steps_it_on_each_delivery_cycle() {
        // Slot 0 hints `u64::MAX`: only mail wakes it. Slot 1 pings it at
        // 300 and 600 and sleeps in between, so right after a send the
        // delivery is the next event of the whole SoC. Each of the four
        // barriers steps one slot — the two sends, the two deliveries, on
        // their cycles — and the run jumps over everything else.
        let (from, to) = (TileCoord::new(2, 1), TileCoord::new(0, 0));
        let build = |soc: &mut Soc| {
            let f = soc.fault_state().clone();
            soc.add_component(to, Box::new(Napper::new(0, &[], CompId(1), &f)));
            soc.add_component(from, Box::new(Napper::new(0, &[300, 600], CompId(0), &f)));
        };
        let (f1, _) = napper_run(Lookahead::Force1, 1_000, build);
        let (auto, kernel) = napper_run(Lookahead::Auto, 1_000, build);
        assert_eq!(f1, auto);
        let ping = crate::msg::Msg::MmioWriteResp { tag: 0 };
        let noc = Noc::new(&SocConfig::default().timing, FaultState::default());
        let lat = noc.latency(from, to, ping.payload_bytes());
        assert_eq!(auto.1[0].2, [300 + lat, 600 + lat]);
        assert_eq!(kernel, [4, 996, 4, 4]);
        let mut soc = Soc::new(SocConfig::default());
        build(&mut soc);
        soc.run(301);
        assert_eq!(soc.lookahead_horizon(u64::MAX), 300 + lat - 301);
    }

    #[test]
    fn lookahead_jumps_straight_to_the_deadline() {
        let mut soc = Soc::new(SocConfig::default());
        soc.add_component(TileCoord::new(0, 0), Box::new(Dormant));
        let out = soc.run(100_000);
        assert!(!out.quiescent);
        assert_eq!(out.cycle, 100_000, "budget exhausted exactly");
        assert!(
            soc.kernel_counter("kernel.barrier_activations") < 16,
            "a dormant SoC must not step per cycle"
        );
        assert!(soc.kernel_counter("kernel.ff_cycles") > 99_000);
    }
}
