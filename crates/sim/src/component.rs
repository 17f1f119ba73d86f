//! Component plumbing: identifiers, tile placement, the [`Component`] trait
//! and the per-step context handed to components.

use std::collections::VecDeque;

use crate::faultinject::FaultState;
use crate::msg::{Envelope, Msg};
use crate::os::Os;
use crate::stage::StagedMem;
use crate::stats::{Counter, Histogram, Stats};
use crate::trace::Trace;

/// Index of a component within its [`crate::soc::Soc`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct CompId(pub usize);

impl std::fmt::Display for CompId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "comp{}", self.0)
    }
}

/// Position of a component's tile in the 2-D mesh, used for hop counts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct TileCoord {
    /// Column.
    pub x: u16,
    /// Row.
    pub y: u16,
}

impl TileCoord {
    /// Creates a coordinate.
    pub fn new(x: u16, y: u16) -> Self {
        Self { x, y }
    }

    /// Manhattan distance to `other` in hops.
    pub fn hops_to(&self, other: TileCoord) -> u64 {
        (self.x.abs_diff(other.x) + self.y.abs_diff(other.y)) as u64
    }
}

/// An outgoing message staged during a component's step.
#[derive(Debug, Clone)]
pub struct Outgoing {
    /// Destination component.
    pub dst: CompId,
    /// Routed payload (the source is filled in by [`Ctx::send`]).
    pub env: Envelope,
    /// Extra sender-side delay before NoC injection (device processing
    /// time, e.g. an MMIO register file's access latency).
    pub extra_delay: u64,
}

/// Mapping from MMIO physical-address ranges to the owning device.
#[derive(Debug, Default, Clone)]
pub struct MmioMap {
    ranges: Vec<(std::ops::Range<u64>, CompId)>,
}

impl MmioMap {
    /// Registers `range` as belonging to `comp`.
    ///
    /// # Panics
    /// Panics if the range overlaps an existing mapping.
    pub fn map(&mut self, range: std::ops::Range<u64>, comp: CompId) {
        for (r, _) in &self.ranges {
            assert!(
                range.end <= r.start || range.start >= r.end,
                "MMIO range {range:?} overlaps {r:?}"
            );
        }
        self.ranges.push((range, comp));
    }

    /// Looks up the device owning physical address `pa`.
    pub fn target(&self, pa: u64) -> Option<CompId> {
        self.ranges
            .iter()
            .find(|(r, _)| r.contains(&pa))
            .map(|(_, c)| *c)
    }
}

/// Per-step context: simulated time, the component's inbox, an outbox, and
/// functional memory.
pub struct Ctx<'a> {
    /// Current cycle.
    pub cycle: u64,
    /// The stepping component's own id.
    pub self_id: CompId,
    /// The component's write-staged view of functional memory: reads see
    /// committed memory plus the component's own writes from this cycle;
    /// writes become visible to *other* components only at the cycle
    /// barrier (see [`crate::stage`]).
    pub mem: StagedMem<'a>,
    /// The SoC's operating system, for the core's page faults and
    /// interrupts and the injector's storms (see [`crate::os`]).
    pub os: &'a mut dyn Os,
    pub(crate) inbox: &'a mut VecDeque<Envelope>,
    pub(crate) outbox: &'a mut Vec<Outgoing>,
    pub(crate) mmio_map: &'a MmioMap,
}

impl<'a> Ctx<'a> {
    /// Takes the next delivered message, if any.
    pub fn recv(&mut self) -> Option<Envelope> {
        self.inbox.pop_front()
    }

    /// Sends `msg` to `dst`; it will be injected into the NoC when the step
    /// completes and delivered after the routing latency.
    pub fn send(&mut self, dst: CompId, msg: Msg) {
        let env = Envelope {
            src: self.self_id,
            msg,
        };
        self.outbox.push(Outgoing {
            dst,
            env,
            extra_delay: 0,
        });
    }

    /// Sends `msg` to `dst` after an extra `delay` cycles of sender-side
    /// processing (used for MMIO device latency).
    pub fn send_delayed(&mut self, dst: CompId, msg: Msg, delay: u64) {
        let env = Envelope {
            src: self.self_id,
            msg,
        };
        self.outbox.push(Outgoing {
            dst,
            env,
            extra_delay: delay,
        });
    }

    /// Looks up the device owning MMIO physical address `pa`.
    pub fn mmio_target(&self, pa: u64) -> Option<CompId> {
        self.mmio_map.target(pa)
    }
}

/// Runs `f` as one step of component `me` at `cycle`, outside any SoC:
/// memory is empty, `inbox` is what was delivered, and the return value
/// is what the step sent. Unit tests drive a single agent with it.
#[cfg(test)]
pub(crate) fn step_alone(
    me: CompId,
    cycle: u64,
    inbox: &mut VecDeque<Envelope>,
    f: impl FnOnce(&mut Ctx<'_>),
) -> Vec<Outgoing> {
    let mem = crate::mem::PhysMem::new();
    let mut log = crate::stage::WriteLog::new();
    let mut outbox = Vec::new();
    let mut ctx = Ctx {
        cycle,
        self_id: me,
        mem: StagedMem::new(&mem, &mut log),
        os: &mut crate::os::NoOs,
        inbox,
        outbox: &mut outbox,
        mmio_map: &MmioMap::default(),
    };
    f(&mut ctx);
    outbox
}

/// The context handed to a component when it joins a SoC
/// ([`Component::attach`]): the shared [`Stats`] registry, the shared
/// [`Trace`] handle, the shared fault switches, and the component's
/// scope (`name#id`).
///
/// Helper methods create registry entries under the component's scope, so
/// two engines never collide on counter names.
#[derive(Debug, Clone)]
pub struct Observability {
    /// The SoC-wide stats registry.
    pub stats: Stats,
    /// The SoC-wide event trace.
    pub trace: Trace,
    /// The SoC-wide fault switches (a clone shares the cells): what a
    /// component's hint may read besides the component itself.
    pub faults: FaultState,
    /// Scope prefix (`name#id`) for registry names.
    pub scope: String,
    /// Trace thread id (the component's [`CompId`] index).
    pub tid: u64,
}

impl Observability {
    /// Gets or creates the scoped counter `scope.name`.
    pub fn counter(&self, name: &str) -> Counter {
        self.stats.counter(&format!("{}.{name}", self.scope))
    }

    /// Registers an existing counter handle as `scope.name`.
    pub fn adopt_counter(&self, name: &str, counter: &Counter) {
        self.stats
            .adopt_counter(&format!("{}.{name}", self.scope), counter);
    }

    /// Gets or creates the scoped histogram `scope.name`.
    pub fn histogram(&self, name: &str) -> Histogram {
        self.stats.histogram(&format!("{}.{name}", self.scope))
    }

    /// Registers an existing histogram handle as `scope.name`.
    pub fn adopt_histogram(&self, name: &str, histogram: &Histogram) {
        self.stats
            .adopt_histogram(&format!("{}.{name}", self.scope), histogram);
    }
}

/// A simulated hardware component: a core, the directory, the Cohort engine,
/// a MAPLE unit, ...
///
/// Components are stepped after NoC deliveries for that cycle have been
/// placed in their inbox — every cycle, or only on the cycles they are
/// awake for (see [`Component::quiescent_for`]). A component should drain
/// its inbox every step even when otherwise idle.
///
/// A SoC lives and dies on the thread that built it: components hold
/// `Rc` handles onto the stats, trace and fault cells, so neither they
/// nor the [`crate::soc::Soc`] can be moved to or shared with another
/// thread. Harness code reaches a concrete component through the `Any`
/// supertrait ([`crate::soc::Soc::component`]).
pub trait Component: std::any::Any {
    /// Short human-readable name, used in stats dumps.
    fn name(&self) -> &str;

    /// Stats/trace scope for this component once it holds slot `id`.
    ///
    /// The default (`name#<slot>`) is unique by construction. Components
    /// with a stable identity of their own — e.g. a Cohort engine knows
    /// its engine index — override this so the scope survives slot-order
    /// changes and two instances can never alias (`engine#0`, `engine#1`).
    fn scope(&self, id: CompId) -> String {
        format!("{}#{}", self.name(), id.0)
    }

    /// Called once when the component is added to a SoC
    /// ([`crate::soc::Soc::add_component`]). Implementations register
    /// their counters/histograms in `obs.stats` and keep a clone of
    /// `obs.trace` for event emission. The default does nothing, so
    /// simple probe components need not care.
    fn attach(&mut self, obs: &Observability) {
        let _ = obs;
    }

    /// Advances the component by one cycle.
    fn step(&mut self, ctx: &mut Ctx<'_>);

    /// True when the component has no pending internal work. The SoC stops
    /// when every component is idle and no messages are in flight.
    fn is_idle(&self) -> bool;

    /// Lookahead hint: the exact distance from `now` to the component's
    /// next own action, **assuming its inbox stays empty — whatever other
    /// components commit to memory or send to each other meanwhile.** 0
    /// means it acts at `now`; `N` means stepping it at `now..now + N - 1`
    /// would be a provable no-op and it acts at `now + N`; `u64::MAX`
    /// means only an inbound message can wake it. The SoC adds the hint to
    /// `now` to get the slot's entry in its wake table and does not step
    /// the component again until that cycle, or until a message arrives
    /// for it, while the rest of the SoC keeps running
    /// ([`crate::config::Lookahead`]).
    ///
    /// The contract: if `quiescent_for(now)` returns `N`, then stepping
    /// the component at cycles `now..now + N - 1` (empty inbox) must not
    /// change any observable state — no sends, no memory writes, no
    /// state-machine transitions — *except* pure per-cycle bookkeeping
    /// (stall counters, occupancy histograms) which
    /// [`Component::fast_forward`] must then reconcile exactly. So every
    /// state that reports `N > 0` must be waiting on a timer of the
    /// component's own or on a message: a component that polls memory
    /// must report 0 while it polls (but see the held-line rule below:
    /// polling one's own coherent copy is not polling memory). The hint
    /// may read the component
    /// itself, `now`, and the shared [`crate::faultinject::FaultState`]
    /// switches (the SoC retakes every hint at each staged flip, a window's
    /// close included) — nothing else. It must also be consistent over
    /// time: while the component is not stepped and no switch changes,
    /// `t + quiescent_for(t)` must not decrease (debug builds assert it
    /// on every slept cycle). All five implementations hold to this: the
    /// core waits on its busy/hit timers or on a port, MMIO or IRQ
    /// message; the directory on its delayed-event heap (DRAM completions
    /// included) or on a request/ack; the engine on channel, back-off,
    /// accelerator and watchdog timers or on port messages — the RCM
    /// learns of an index write from an invalidation, not by polling; the
    /// MAPLE unit on its hit and accelerator timers or on MMIO and port
    /// messages; the fault injector on its schedule and window closes.
    ///
    /// **The sink rule.** Holding data is not an event: a buffered word
    /// is one only if its sink can take it this cycle. A back-pressured
    /// agent waits on whatever unblocks the sink, which by the rule above
    /// is a message or a timer of its own. The three agents apply it as
    /// follows. The engine counts accelerator output as an event only
    /// while the producer endpoint is not halted and its four-line stage
    /// has room (`TimedAccel::next_event`'s `sink_ready`); otherwise the
    /// accelerator contributes its retire or launch. The core sleeps on a
    /// non-empty store buffer when the head's grant is in flight, every
    /// line the drain prefetches is held in M or already pending, and
    /// `exec` is inside a wait/busy/hit window or could only stall (a
    /// store on a full buffer, a fence or the program's end with the
    /// buffer draining). The MAPLE unit counts output as an event only
    /// for a held pop or a running DMA whose stage has room, and a
    /// running DMA as one only if the access slot is free and wanted, a
    /// word can be fed, or the transfer is complete.
    ///
    /// **The held-line rule.** Polling a word of a line the agent holds in
    /// its own coherent cache is not polling memory. The directory
    /// invalidates that copy before it lets anyone write the line, and the
    /// NoC delivers messages about one line between one pair in the order
    /// sent, so every held copy is one the directory lists.
    /// The outcome of the poll can change only behind a message — the
    /// invalidation, an inclusive recall, a fill that evicts the line, an
    /// interrupt whose handler writes the word — or behind an *announced*
    /// edit (next paragraph). Until then the loop is a timer pattern, and
    /// [`Component::fast_forward`] replays it in closed form. The core
    /// applies it to `WaitGe`: when the loop issues its load to a line it
    /// holds and finds the word below target, it remembers the address;
    /// while that memo stands, the state is `Ready`/`SpinDone` with the
    /// `WaitGe` still at `pc`, the line is still held, the store buffer
    /// is empty and no interrupt is pending, it reports `u64::MAX`. The
    /// memo is taken afresh by every issue and dropped by a successful
    /// check, by one of the core's own stores retiring into the polled
    /// line (the one writer that keeps the copy), by loading a program
    /// and by [`Component::forget_memory`].
    ///
    /// **The announce rule.** A write that bypasses the protocol stages a
    /// flip. Some code stores to memory with a plain `ctx.mem.write_*`
    /// and no grant behind it, so a cache may go on holding the line:
    /// the kernel's entry points, handed the staged memory through
    /// [`Ctx::os`] — [`crate::os::Os::storm`] and
    /// [`crate::os::Os::core_fault`] (they edit page tables, and a polled
    /// address may stop translating) and [`crate::os::Os::interrupt`] (the
    /// chaos software fallback publishes the very index its core polls) —
    /// and the engine's watchdog checkpoint (it republishes the queue
    /// indices a core may be spinning on). The component that calls an
    /// entry point or checkpoints calls
    /// [`crate::faultinject::FaultState::announce_bypass_write`] in the
    /// step that stages the write: at that cycle's barrier the SoC
    /// settles every sleeper against the memory the skipped cycles ran
    /// under, has it forget what it remembered of memory, and takes its
    /// hint again — the path a fault flip takes, with no switch moved. A
    /// new bypassing writer that forgets to announce is caught in debug
    /// builds: the core asserts on entry to every step that, if it is
    /// still parked, its address still translates where it did and the
    /// word is still below target, which under `Lookahead::Force1` looks
    /// on the very cycle after the write committed.
    ///
    /// Under-reporting is always sound (the SoC may step anywhere inside
    /// the window, and a timer's own hint is a plain `due - now`, no
    /// clamp); only an overshoot — returning `N` when the component would
    /// have acted at `now + j`, `j < N` — breaks determinism. The default
    /// of 0 makes unported components correct by construction: they are
    /// stepped every cycle.
    fn quiescent_for(&self, now: u64) -> u64 {
        let _ = now;
        0
    }

    /// Reconciles per-cycle bookkeeping for `skipped` consecutive cycles
    /// the component slept through inside a window it declared quiescent
    /// via [`Component::quiescent_for`]. Called once when the component
    /// next steps (before that step), when a fault switch is about to
    /// flip (so it still sees the switches those cycles ran under), and
    /// when a run returns. Implementations must apply *exactly* what
    /// `skipped` individual steps would have recorded or restarted (e.g.
    /// `stall_cycles += skipped`, `occupancy.record_n(frozen_depth,
    /// skipped)`, a timer that every idle step re-arms) and nothing else.
    /// The default does nothing, matching the default hint of 0 (a
    /// component that is stepped every cycle never sleeps).
    ///
    /// What the agents reconcile per skipped cycle. Core: one
    /// `mmio_stall_cycles` or `mem_stall_cycles` in the matching wait
    /// state; one `sb_full_stalls` for a store held off a full buffer,
    /// counted only from `busy_until` on (the core keeps its own next
    /// cycle for this); one `l1.hits` per line the blocked drain
    /// prefetches and holds in M, plus one LRU touch of each such line —
    /// touches only order lines, so any number of identical rounds
    /// leaves the order of one. A core parked in a spin loop owes whole
    /// iterations instead, computed from the period `max(l1_hit, 1) +
    /// spin_alu` and never looped over: per check that fell in the window
    /// one `spin_iters` and `spin_insts` retired, per issue one `l1.hits`
    /// and the LRU touch, nothing for `loads` (a `WaitGe` counts none), and
    /// `state`/`busy_until` left in the phase of the window's last event,
    /// so that the step that follows — wherever in the iteration the
    /// window ends — does what forced stepping does on that cycle.
    /// Engine: one sample of each occupancy
    /// histogram and the benign endpoints' watchdog restart. MAPLE:
    /// nothing — it keeps no per-cycle books.
    fn fast_forward(&mut self, skipped: u64) {
        let _ = skipped;
    }

    /// Drops whatever the component remembers about the *contents* of
    /// memory (the core's "this word was below target" memo). The SoC
    /// calls it on every component, after settling it and before taking
    /// its hint again, whenever memory may have been edited outside the
    /// coherence protocol: a staged flip at the barrier (an announced
    /// edit, a fault switch, a window's close), run-loop entry and
    /// [`crate::soc::Soc::step`] (harness code owns `soc.mem` between
    /// calls). The default does nothing: a component that keeps no such
    /// memory has nothing to forget.
    fn forget_memory(&mut self) {}

    /// Performance counters exposed by this component.
    fn counters(&self) -> Vec<(String, u64)> {
        Vec::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn manhattan_hops() {
        let a = TileCoord::new(0, 0);
        let b = TileCoord::new(2, 3);
        assert_eq!(a.hops_to(b), 5);
        assert_eq!(b.hops_to(a), 5);
        assert_eq!(a.hops_to(a), 0);
    }

    #[test]
    fn mmio_map_lookup() {
        let mut m = MmioMap::default();
        m.map(0x1000..0x2000, CompId(3));
        m.map(0x2000..0x3000, CompId(4));
        assert_eq!(m.target(0x1000), Some(CompId(3)));
        assert_eq!(m.target(0x1fff), Some(CompId(3)));
        assert_eq!(m.target(0x2000), Some(CompId(4)));
        assert_eq!(m.target(0x3000), None);
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn mmio_map_rejects_overlap() {
        let mut m = MmioMap::default();
        m.map(0x1000..0x2000, CompId(0));
        m.map(0x1800..0x2800, CompId(1));
    }
}
