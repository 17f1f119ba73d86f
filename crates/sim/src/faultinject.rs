//! Deterministic, seed-driven fault injection.
//!
//! A [`FaultPlan`] describes *when* and *what* to perturb: explicit
//! [`FaultEvent`]s pinned to cycles, plus an optional splitmix64-seeded
//! [`RandomFaults`] schedule resolved deterministically by
//! [`FaultPlan::schedule`]. The same seed and configuration always yield
//! the same schedule, so chaos runs are exactly reproducible.
//!
//! Four fault classes are modelled:
//!
//! * **Accelerator stalls** ([`FaultKind::AccelStall`]) — the accelerator's
//!   valid/ready interface is held low for N cycles (or [`FOREVER`]); the
//!   engine's endpoints observe this through the shared [`FaultState`].
//! * **NoC latency spikes** ([`FaultKind::LatencySpike`]) — every message
//!   injected during the window takes `factor`× its modelled latency
//!   (congestion, thermal throttling, a misbehaving neighbour).
//! * **Page-fault storms** ([`FaultKind::PageFaultStorm`]) — lazily-mapped
//!   pages are forcibly evicted mid-burst by the SoC's operating system
//!   ([`crate::os::Os::storm`]: the OS layer owns the page tables; the
//!   sim crate does not), followed by an engine TLB flush so the
//!   evictions are observed.
//! * **Corrupted descriptor writes** ([`FaultKind::CorruptDescriptor`]) —
//!   garbage MMIO writes land in the engine's configuration registers
//!   while it is enabled, exercising the sticky `ERROR_STATUS` path.
//!
//! The [`FaultInjector`] component owns the resolved schedule, applies
//! each event on its due cycle and times the close of each window it
//! opens; injections are counted in the stats registry and emitted as
//! trace instants so Perfetto shows each fault next to recovery spans.

use std::cell::{Cell, RefCell};
use std::collections::VecDeque;
use std::rc::Rc;

use crate::component::{Component, Ctx, Observability};
use crate::msg::Msg;
use crate::stats::Counter;
use crate::trace::Trace;

/// Stall duration meaning "until the end of the run" (never self-clears).
pub const FOREVER: u64 = u64::MAX;

/// Largest cycle a fault spec may name. Far beyond any run's cycle budget
/// (the slowest 8192-element MMIO run stays under ~10^8 cycles), so a
/// bigger value is a typo, not a plan — rejected at parse time instead of
/// silently never firing.
pub const MAX_FAULT_CYCLE: u64 = 1 << 40;

/// Largest engine index a `kill@C:E` spec may target. [`FaultState`]
/// tracks fail-stops in a 64-bit mask, so indices past 63 would alias a
/// lower engine — rejected at parse time.
pub const MAX_ENGINE_ID: u64 = 63;

/// A structured parse/validation error for the `--faults` grammar and the
/// fleet-spec fault sections. Every variant names the offending token, so
/// tooling can point at the exact entry instead of echoing a prose blob.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultSpecError {
    /// An entry had no `@` separator (`kind@cycle` expected).
    MissingAt {
        /// The malformed entry.
        entry: String,
    },
    /// A field that must be a `u64` (cycle, duration, factor, …) was not.
    NotANumber {
        /// The offending token.
        token: String,
    },
    /// The fault kind before the `@` is not in the grammar.
    UnknownKind {
        /// The malformed entry.
        entry: String,
    },
    /// A known kind received the wrong number of `:`-separated arguments.
    BadArity {
        /// The malformed entry.
        entry: String,
        /// The expected shape, e.g. `stall@C:D`.
        expected: &'static str,
    },
    /// A `random:` entry held a token that is not `key=value`.
    ExpectedKeyValue {
        /// The offending token.
        token: String,
    },
    /// A `random:` entry named an unknown key.
    UnknownRandomKey {
        /// The offending key.
        key: String,
    },
    /// A `random:` window was empty (`to <= from`).
    EmptyWindow {
        /// Window start (inclusive).
        from: u64,
        /// Window end (exclusive).
        to: u64,
    },
    /// A `kill@C:E` engine index past [`MAX_ENGINE_ID`] — it would alias
    /// a lower engine in the 64-bit kill mask.
    EngineOutOfRange {
        /// The requested engine index.
        engine: u64,
    },
    /// A cycle, window length or random-window bound past [`MAX_FAULT_CYCLE`].
    CycleOutOfRange {
        /// The requested cycle.
        cycle: u64,
    },
}

impl std::fmt::Display for FaultSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultSpecError::MissingAt { entry } => {
                write!(f, "fault spec: expected kind@cycle in {entry:?}")
            }
            FaultSpecError::NotANumber { token } => {
                write!(f, "fault spec: {token:?} is not a number")
            }
            FaultSpecError::UnknownKind { entry } => write!(
                f,
                "fault spec: unknown kind in {entry:?} (see `stall@C:D`, \
                 `spike@C:D:F`, `storm@C:P`, `corrupt@C`, `kill@C[:E]`, \
                 `maple-stall@C:D`, `maple-kill@C`, `random:...`)"
            ),
            FaultSpecError::BadArity { entry, expected } => {
                write!(f, "fault spec: bad entry {entry:?} (expected {expected})")
            }
            FaultSpecError::ExpectedKeyValue { token } => {
                write!(f, "fault spec: expected key=value in {token:?}")
            }
            FaultSpecError::UnknownRandomKey { key } => {
                write!(f, "fault spec: unknown random key {key:?}")
            }
            FaultSpecError::EmptyWindow { from, to } => {
                write!(f, "fault spec: empty window {from}..{to}")
            }
            FaultSpecError::EngineOutOfRange { engine } => write!(
                f,
                "fault spec: engine {engine} out of range (kill mask holds \
                 engines 0..={MAX_ENGINE_ID})"
            ),
            FaultSpecError::CycleOutOfRange { cycle } => write!(
                f,
                "fault spec: cycle {cycle} out of range (max {MAX_FAULT_CYCLE})"
            ),
        }
    }
}

impl std::error::Error for FaultSpecError {}

/// The splitmix64 step: a tiny, high-quality, seedable PRNG used for every
/// randomised schedule in the repo (same generator as the benches).
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// One fault class with its parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Hold the accelerator's valid/ready interface low for `cycles`
    /// (use [`FOREVER`] for a wedged accelerator).
    AccelStall {
        /// Stall duration in cycles.
        cycles: u64,
    },
    /// Multiply every NoC message latency by `factor` for `cycles`.
    LatencySpike {
        /// Window length in cycles.
        cycles: u64,
        /// Multiplicative latency factor (≥ 1).
        factor: u64,
    },
    /// Forcibly evict up to `pages` lazily-mapped pages and flush the
    /// engine TLB, provoking page-fault recovery mid-burst.
    PageFaultStorm {
        /// Pages to evict.
        pages: u64,
    },
    /// Write garbage into the engine's queue-descriptor registers while it
    /// is enabled.
    CorruptDescriptor,
    /// Fail-stop: permanently wedge engine `engine`'s datapath (the
    /// dead-man's handle trips; the register file and watchdog survive so
    /// the fault is detectable and the engine can be fenced). Only ever
    /// injected explicitly — never drawn by the random schedule, so
    /// existing seeded plans are unchanged.
    KillEngine {
        /// Index of the engine to kill (the `i` of `SimSystem::engine(i)`).
        engine: u64,
    },
    /// Hold the MAPLE unit's accelerator and DMA datapath for `cycles`
    /// (use [`FOREVER`] for a wedge). Explicit-only, like `KillEngine`.
    MapleStall {
        /// Stall duration in cycles.
        cycles: u64,
    },
    /// Fail-stop the MAPLE unit: held MMIO requests complete with the
    /// error sentinel instead of hanging the core. Explicit-only.
    KillMaple,
}

impl FaultKind {
    /// Short label used for trace events and counters.
    pub fn label(&self) -> &'static str {
        match self {
            FaultKind::AccelStall { .. } => "stall",
            FaultKind::LatencySpike { .. } => "spike",
            FaultKind::PageFaultStorm { .. } => "storm",
            FaultKind::CorruptDescriptor => "corrupt",
            FaultKind::KillEngine { .. } => "kill",
            FaultKind::MapleStall { .. } => "maple-stall",
            FaultKind::KillMaple => "maple-kill",
        }
    }
}

/// A fault pinned to a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultEvent {
    /// Cycle at which the fault fires (applied on the first step at or
    /// after this cycle).
    pub at_cycle: u64,
    /// What happens.
    pub kind: FaultKind,
}

/// A seeded random schedule: `count` faults drawn uniformly over
/// `[from, to)` cycles, classes and parameters drawn from splitmix64.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RandomFaults {
    /// PRNG seed; the whole schedule is a pure function of this.
    pub seed: u64,
    /// Number of faults to generate.
    pub count: u64,
    /// First cycle of the injection window (inclusive).
    pub from: u64,
    /// Last cycle of the injection window (exclusive).
    pub to: u64,
}

impl Default for RandomFaults {
    fn default() -> Self {
        Self {
            seed: 0x5eed,
            count: 8,
            from: 0,
            to: 1_000_000,
        }
    }
}

/// A complete fault-injection plan: explicit events plus an optional
/// seeded random schedule. Lives in [`crate::config::SocConfig`]; the
/// default plan is empty (no faults).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// Explicit, cycle-pinned events.
    pub events: Vec<FaultEvent>,
    /// Optional seeded random schedule, merged in by
    /// [`FaultPlan::schedule`].
    pub random: Option<RandomFaults>,
}

impl FaultPlan {
    /// True when the plan injects nothing.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty() && self.random.is_none()
    }

    /// Builder-style: adds one explicit event.
    pub fn at(mut self, at_cycle: u64, kind: FaultKind) -> Self {
        self.events.push(FaultEvent { at_cycle, kind });
        self
    }

    /// Builder-style: sets the random schedule.
    pub fn with_random(mut self, random: RandomFaults) -> Self {
        self.random = Some(random);
        self
    }

    /// Resolves the plan into a concrete schedule, sorted by cycle:
    /// explicit events plus the deterministically generated random ones.
    /// Calling this twice on equal plans yields identical schedules.
    pub fn schedule(&self) -> Vec<FaultEvent> {
        let mut out = self.events.clone();
        if let Some(r) = self.random {
            let span = r.to.saturating_sub(r.from).max(1);
            let mut s = r.seed;
            for _ in 0..r.count {
                let at_cycle = r.from + splitmix64(&mut s) % span;
                let class = splitmix64(&mut s) % 4;
                let p = splitmix64(&mut s);
                let kind = match class {
                    0 => FaultKind::AccelStall {
                        cycles: 200 + p % 2000,
                    },
                    1 => FaultKind::LatencySpike {
                        cycles: 200 + p % 2000,
                        factor: 2 + p % 6,
                    },
                    2 => FaultKind::PageFaultStorm { pages: 1 + p % 4 },
                    _ => FaultKind::CorruptDescriptor,
                };
                out.push(FaultEvent { at_cycle, kind });
            }
        }
        // Stable sort: same-cycle events keep their generation order.
        out.sort_by_key(|e| e.at_cycle);
        out
    }

    /// Parses a `socrun --faults` spec: semicolon-separated entries of
    ///
    /// * `stall@CYCLE:DUR` — `DUR` in cycles, or `forever`;
    /// * `spike@CYCLE:DUR:FACTOR`;
    /// * `storm@CYCLE:PAGES`;
    /// * `corrupt@CYCLE`;
    /// * `kill@CYCLE[:ENGINE]` — fail-stop engine `ENGINE` (default 0);
    /// * `maple-stall@CYCLE:DUR`;
    /// * `maple-kill@CYCLE`;
    /// * `random:seed=S,count=N,from=A,to=B` — all keys optional
    ///   (defaults: seed `0x5eed`, count 8, window `[0, 1000000)`).
    ///
    /// # Errors
    /// Returns a structured [`FaultSpecError`] naming the offending token:
    /// malformed entries, non-numeric fields, engine ids past
    /// [`MAX_ENGINE_ID`] and cycles or lengths past [`MAX_FAULT_CYCLE`] are
    /// all rejected here rather than misbehaving at run time.
    pub fn parse(spec: &str) -> Result<FaultPlan, FaultSpecError> {
        let mut plan = FaultPlan::default();
        for entry in spec.split(';').map(str::trim).filter(|e| !e.is_empty()) {
            if let Some(body) =
                entry
                    .strip_prefix("random:")
                    .or(if entry == "random" { Some("") } else { None })
            {
                let mut r = RandomFaults::default();
                for kv in body.split(',').map(str::trim).filter(|e| !e.is_empty()) {
                    let (key, value) =
                        kv.split_once('=')
                            .ok_or_else(|| FaultSpecError::ExpectedKeyValue {
                                token: kv.to_string(),
                            })?;
                    let n = parse_u64(value)?;
                    match key {
                        "seed" => r.seed = n,
                        "count" => r.count = n,
                        "from" => r.from = n,
                        "to" => r.to = n,
                        other => {
                            return Err(FaultSpecError::UnknownRandomKey {
                                key: other.to_string(),
                            })
                        }
                    }
                }
                if r.to <= r.from {
                    return Err(FaultSpecError::EmptyWindow {
                        from: r.from,
                        to: r.to,
                    });
                }
                if r.to > MAX_FAULT_CYCLE {
                    return Err(FaultSpecError::CycleOutOfRange { cycle: r.to });
                }
                plan.random = Some(r);
                continue;
            }
            let (name, rest) = entry
                .split_once('@')
                .ok_or_else(|| FaultSpecError::MissingAt {
                    entry: entry.to_string(),
                })?;
            let mut parts = rest.split(':');
            let at_cycle = parse_cycles(parts.next().unwrap_or(""))?;
            let args: Vec<&str> = parts.collect();
            let arity = |expected| FaultSpecError::BadArity {
                entry: entry.to_string(),
                expected,
            };
            let kind = match (name, args.as_slice()) {
                ("stall", [d]) => FaultKind::AccelStall {
                    cycles: parse_duration(d)?,
                },
                ("stall", _) => return Err(arity("stall@C:D")),
                ("spike", [d, f]) => FaultKind::LatencySpike {
                    cycles: parse_cycles(d)?,
                    factor: parse_u64(f)?.max(1),
                },
                ("spike", _) => return Err(arity("spike@C:D:F")),
                ("storm", [p]) => FaultKind::PageFaultStorm {
                    pages: parse_u64(p)?.max(1),
                },
                ("storm", _) => return Err(arity("storm@C:P")),
                ("corrupt", []) => FaultKind::CorruptDescriptor,
                ("corrupt", _) => return Err(arity("corrupt@C")),
                ("kill", []) => FaultKind::KillEngine { engine: 0 },
                ("kill", [e]) => {
                    let engine = parse_u64(e)?;
                    if engine > MAX_ENGINE_ID {
                        return Err(FaultSpecError::EngineOutOfRange { engine });
                    }
                    FaultKind::KillEngine { engine }
                }
                ("kill", _) => return Err(arity("kill@C[:E]")),
                ("maple-stall", [d]) => FaultKind::MapleStall {
                    cycles: parse_duration(d)?,
                },
                ("maple-stall", _) => return Err(arity("maple-stall@C:D")),
                ("maple-kill", []) => FaultKind::KillMaple,
                ("maple-kill", _) => return Err(arity("maple-kill@C")),
                _ => {
                    return Err(FaultSpecError::UnknownKind {
                        entry: entry.to_string(),
                    })
                }
            };
            plan.events.push(FaultEvent { at_cycle, kind });
        }
        Ok(plan)
    }
}

fn parse_u64(s: &str) -> Result<u64, FaultSpecError> {
    s.trim()
        .parse::<u64>()
        .map_err(|_| FaultSpecError::NotANumber {
            token: s.to_string(),
        })
}

/// A cycle or a window length: past [`MAX_FAULT_CYCLE`] is a typo.
fn parse_cycles(s: &str) -> Result<u64, FaultSpecError> {
    let cycle = parse_u64(s)?;
    let in_range = (cycle <= MAX_FAULT_CYCLE).then_some(cycle);
    in_range.ok_or(FaultSpecError::CycleOutOfRange { cycle })
}

/// A stall length: [`parse_cycles`], or `forever`.
fn parse_duration(s: &str) -> Result<u64, FaultSpecError> {
    if s.trim() == "forever" {
        Ok(FOREVER)
    } else {
        parse_cycles(s)
    }
}

/// A fault-switch flip staged during a step and applied at the cycle
/// barrier, so every component observes it from the next cycle regardless
/// of step order.
#[derive(Debug, Clone, Copy)]
enum FaultOp {
    StallAccel {
        until: u64,
    },
    LatencySpike {
        until: u64,
        factor: u64,
    },
    KillEngine {
        engine: u64,
    },
    StallMaple {
        until: u64,
    },
    KillMaple,
    /// Moves no switch; the barrier settles, forgets and re-hints everyone.
    /// Staged for a write that bypassed the coherence protocol
    /// ([`FaultState::announce_bypass_write`]) and for a window's close.
    Rehint,
}

/// Live fault switches shared between the injector, the NoC, the engine
/// and the cores. Cloning shares the cells (like [`Counter`]); the default
/// state injects nothing.
///
/// The [`FaultInjector`] *stages* its flips (`stage_*`) and the SoC
/// applies them at the cycle barrier (`FaultState::commit_staged`), a
/// window's close included; harness code running between cycles uses the
/// immediate setters. One entry is staged by others: whoever writes
/// memory behind the coherence protocol's back
/// ([`FaultState::announce_bypass_write`]).
#[derive(Debug, Clone, Default)]
pub struct FaultState(Rc<Switches>);

#[derive(Debug, Default)]
struct Switches {
    /// Flips staged this cycle, applied at the barrier.
    pending: RefCell<Vec<FaultOp>>,
    /// Accelerator valid/ready held low while `cycle < stall_until`.
    stall_until: Cell<u64>,
    /// NoC latency multiplied while `cycle < spike_until`.
    spike_until: Cell<u64>,
    spike_factor: Cell<u64>,
    /// Bitmask of fail-stopped engines (bit `i` = engine `i` is dead).
    kill_mask: Cell<u64>,
    /// MAPLE datapath held while `cycle < maple_stall_until`.
    maple_stall_until: Cell<u64>,
    /// Set once the MAPLE unit is fail-stopped.
    maple_dead: Cell<bool>,
}

impl FaultState {
    /// Holds the accelerator interface low until `until` ([`FOREVER`] for
    /// a permanently wedged accelerator). A finite window set here between
    /// runs closes with no re-hint: only the injector times its closes.
    pub fn stall_accel(&self, until: u64) {
        self.0.stall_until.set(until);
    }

    /// True while the accelerator interface is held low.
    pub fn accel_stalled(&self, cycle: u64) -> bool {
        cycle < self.0.stall_until.get()
    }

    /// Opens a latency-spike window: messages injected before `until`
    /// take `factor`× their modelled latency.
    /// A finite window set here between runs closes with no re-hint.
    pub fn set_latency_spike(&self, until: u64, factor: u64) {
        self.0.spike_factor.set(factor.max(1));
        self.0.spike_until.set(until);
    }

    /// The multiplicative NoC latency factor in effect at `cycle` (1 when
    /// no spike window is open).
    pub fn latency_factor(&self, cycle: u64) -> u64 {
        if cycle < self.0.spike_until.get() {
            self.0.spike_factor.get().max(1)
        } else {
            1
        }
    }

    /// Permanently fail-stops engine `engine` (no un-kill: fail-stop is
    /// by definition terminal; recovery is migration, not revival).
    pub fn kill_engine(&self, engine: u64) {
        let mask = &self.0.kill_mask;
        mask.set(mask.get() | 1u64 << (engine & 63));
    }

    /// True once engine `engine` has been fail-stopped.
    pub fn engine_killed(&self, engine: u64) -> bool {
        self.0.kill_mask.get() & (1u64 << (engine & 63)) != 0
    }

    /// Holds the MAPLE datapath until `until`.
    /// A finite window set here between runs closes with no re-hint.
    pub fn stall_maple(&self, until: u64) {
        self.0.maple_stall_until.set(until);
    }

    /// True while the MAPLE datapath is held.
    pub fn maple_stalled(&self, cycle: u64) -> bool {
        cycle < self.0.maple_stall_until.get()
    }

    /// Permanently fail-stops the MAPLE unit.
    pub fn kill_maple(&self) {
        self.0.maple_dead.set(true);
    }

    /// True once the MAPLE unit has been fail-stopped.
    pub fn maple_killed(&self) -> bool {
        self.0.maple_dead.get()
    }

    /// Announces that the calling component stages, this cycle, a write
    /// to memory some agent may hold in its coherent cache — a plain
    /// `ctx.mem.write_*` with no grant behind it (an entry point of the
    /// SoC's operating system, [`crate::os::Os`], or the engine's
    /// watchdog checkpoint). It
    /// rides the staged-flip path and moves no switch: the barrier
    /// settles every sleeper against the pre-edit memory, has it forget
    /// what it remembered of memory ([`Component::forget_memory`]) and
    /// takes its hint again, so a core asleep in a spin loop on its own
    /// copy of the word wakes exactly as forced stepping would see the
    /// edit.
    pub fn announce_bypass_write(&self) {
        self.stage(FaultOp::Rehint);
    }

    /// Stages `op` for the cycle barrier, which commits it.
    fn stage(&self, op: FaultOp) {
        self.0.pending.borrow_mut().push(op);
    }

    /// True if a flip was staged since the last
    /// [`FaultState::commit_staged`]. The SoC asks at every barrier: a
    /// flip changes what sleeping components' hints were computed
    /// against, so it must settle them before committing it.
    pub(crate) fn has_staged(&self) -> bool {
        !self.0.pending.borrow().is_empty()
    }

    /// Applies every staged flip, in staging order. Called by the SoC at
    /// the cycle barrier when [`FaultState::has_staged`].
    pub(crate) fn commit_staged(&self) {
        for op in self.0.pending.borrow_mut().drain(..) {
            match op {
                FaultOp::StallAccel { until } => self.stall_accel(until),
                FaultOp::LatencySpike { until, factor } => self.set_latency_spike(until, factor),
                FaultOp::KillEngine { engine } => self.kill_engine(engine),
                FaultOp::StallMaple { until } => self.stall_maple(until),
                FaultOp::KillMaple => self.kill_maple(),
                FaultOp::Rehint => {}
            }
        }
    }
}

/// The fault-injection component: owns the resolved schedule and applies
/// each event on its due cycle.
pub struct FaultInjector {
    schedule: VecDeque<FaultEvent>,
    /// The last cycle of each open window this injector will close.
    closes: Vec<u64>,
    state: FaultState,
    /// Engine TLB-flush register (storms flush so evictions are observed).
    tlb_flush_pa: Option<u64>,
    /// MMIO (pa, garbage) writes performed on [`FaultKind::CorruptDescriptor`].
    corrupt_writes: Vec<(u64, u64)>,
    stalls: Counter,
    spikes: Counter,
    storms: Counter,
    corruptions: Counter,
    evicted_pages: Counter,
    kills: Counter,
    trace: Option<Trace>,
    tid: u64,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("pending", &self.schedule.len())
            .field("stalls", &self.stalls.get())
            .field("spikes", &self.spikes.get())
            .field("storms", &self.storms.get())
            .field("corruptions", &self.corruptions.get())
            .finish()
    }
}

impl FaultInjector {
    /// Creates an injector for `plan`, driving the shared `state` (obtain
    /// it from [`crate::soc::Soc::fault_state`] so the NoC and engine see
    /// the same switches).
    pub fn new(plan: &FaultPlan, state: FaultState) -> Self {
        Self {
            schedule: plan.schedule().into(),
            closes: Vec::new(),
            state,
            tlb_flush_pa: None,
            corrupt_writes: Vec::new(),
            stalls: Counter::new(),
            spikes: Counter::new(),
            storms: Counter::new(),
            corruptions: Counter::new(),
            evicted_pages: Counter::new(),
            kills: Counter::new(),
            trace: None,
            tid: 0,
        }
    }

    /// Sets the engine's TLB-flush register address; page-fault storms
    /// write it after evicting so stale translations are dropped.
    pub fn set_tlb_flush_pa(&mut self, pa: u64) {
        self.tlb_flush_pa = Some(pa);
    }

    /// Sets the garbage MMIO writes performed by a corrupt-descriptor
    /// fault (typically the engine's `IN_*`/`OUT_*` registers).
    pub fn set_corrupt_writes(&mut self, writes: Vec<(u64, u64)>) {
        self.corrupt_writes = writes;
    }

    /// Events not yet applied.
    pub fn pending(&self) -> usize {
        self.schedule.len()
    }

    fn emit(&self, cycle: u64, kind: &FaultKind, args: Vec<(&'static str, String)>) {
        if let Some(trace) = self.trace.as_ref().filter(|t| t.is_enabled()) {
            trace.instant(
                self.tid,
                "fault",
                format!("fault:{}", kind.label()),
                cycle,
                args,
            );
        }
    }

    /// The `until` of a window of `cycles` opened at `now`. Hints read its
    /// switch, so a finite window is closed by a [`FaultOp::Rehint`] staged
    /// on its last cycle; one of a cycle or less is already past at the
    /// re-hint of the barrier that opens it.
    fn open_window(&mut self, now: u64, cycles: u64) -> u64 {
        let until = now.saturating_add(cycles);
        if until != FOREVER && until.saturating_sub(1) > now {
            self.closes.push(until - 1);
        }
        until
    }

    fn apply(&mut self, ctx: &mut Ctx<'_>, ev: FaultEvent) {
        match ev.kind {
            FaultKind::AccelStall { cycles } => {
                let until = self.open_window(ctx.cycle, cycles);
                self.state.stage(FaultOp::StallAccel { until });
                self.stalls.inc();
                self.emit(ctx.cycle, &ev.kind, vec![("until", format!("{until}"))]);
            }
            FaultKind::LatencySpike { cycles, factor } => {
                let until = self.open_window(ctx.cycle, cycles);
                self.state.stage(FaultOp::LatencySpike { until, factor });
                self.spikes.inc();
                self.emit(ctx.cycle, &ev.kind, vec![("factor", format!("{factor}"))]);
            }
            FaultKind::PageFaultStorm { pages } => {
                let evicted = ctx.os.storm(&mut ctx.mem, pages);
                if evicted.is_some() {
                    // The kernel edits page tables behind every cache: a
                    // VA some core polls may stop translating.
                    self.state.announce_bypass_write();
                }
                let evicted = evicted.unwrap_or(0);
                self.evicted_pages.add(evicted);
                if let Some(pa) = self.tlb_flush_pa {
                    if let Some(dst) = ctx.mmio_target(pa) {
                        ctx.send(
                            dst,
                            Msg::MmioWrite {
                                pa,
                                value: 1,
                                tag: 0xFA17,
                            },
                        );
                    }
                }
                self.storms.inc();
                self.emit(ctx.cycle, &ev.kind, vec![("evicted", format!("{evicted}"))]);
            }
            FaultKind::CorruptDescriptor => {
                for (pa, value) in self.corrupt_writes.clone() {
                    if let Some(dst) = ctx.mmio_target(pa) {
                        ctx.send(
                            dst,
                            Msg::MmioWrite {
                                pa,
                                value,
                                tag: 0xFA17,
                            },
                        );
                    }
                }
                self.corruptions.inc();
                self.emit(ctx.cycle, &ev.kind, vec![]);
            }
            FaultKind::KillEngine { engine } => {
                self.state.stage(FaultOp::KillEngine { engine });
                self.kills.inc();
                self.emit(ctx.cycle, &ev.kind, vec![("engine", format!("{engine}"))]);
            }
            FaultKind::MapleStall { cycles } => {
                let until = self.open_window(ctx.cycle, cycles);
                self.state.stage(FaultOp::StallMaple { until });
                self.stalls.inc();
                self.emit(ctx.cycle, &ev.kind, vec![("until", format!("{until}"))]);
            }
            FaultKind::KillMaple => {
                self.state.stage(FaultOp::KillMaple);
                self.kills.inc();
                self.emit(ctx.cycle, &ev.kind, vec![]);
            }
        }
    }
}

impl Component for FaultInjector {
    fn name(&self) -> &str {
        "faultinject"
    }

    fn attach(&mut self, obs: &Observability) {
        obs.adopt_counter("stalls", &self.stalls);
        obs.adopt_counter("spikes", &self.spikes);
        obs.adopt_counter("storms", &self.storms);
        obs.adopt_counter("corruptions", &self.corruptions);
        obs.adopt_counter("evicted_pages", &self.evicted_pages);
        obs.adopt_counter("kills", &self.kills);
        self.trace = Some(obs.trace.clone());
        self.tid = obs.tid;
    }

    fn step(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(env) = ctx.recv() {
            match env.msg {
                // Acks for the injector's own MMIO pokes.
                Msg::MmioWriteResp { .. } | Msg::MmioReadResp { .. } => {}
                ref other => panic!("fault injector received unexpected message {other:?}"),
            }
        }
        while self
            .schedule
            .front()
            .is_some_and(|e| e.at_cycle <= ctx.cycle)
        {
            let ev = self.schedule.pop_front().expect("peeked");
            self.apply(ctx, ev);
        }
        let open = self.closes.len();
        self.closes.retain(|&last| last > ctx.cycle);
        if self.closes.len() < open {
            self.state.stage(FaultOp::Rehint);
        }
    }

    fn is_idle(&self) -> bool {
        // A pending close is not work: a window may outlive the workload.
        self.schedule.is_empty()
    }

    fn quiescent_for(&self, now: u64) -> u64 {
        // The schedule is sorted (see `schedule_is_deterministic_and_sorted`),
        // so its head and the earliest pending close bound the injector's
        // next action. Everything else it does is a reaction to inbound
        // acks, which the SoC's inbox check covers. No per-cycle
        // bookkeeping, so the default no-op `fast_forward` is exact.
        let head = self.schedule.front().map(|e| e.at_cycle);
        let next = self.closes.iter().copied().chain(head).min();
        next.map_or(u64::MAX, |at| at.saturating_sub(now))
    }

    fn counters(&self) -> Vec<(String, u64)> {
        vec![
            ("stalls".into(), self.stalls.get()),
            ("spikes".into(), self.spikes.get()),
            ("storms".into(), self.storms.get()),
            ("corruptions".into(), self.corruptions.get()),
            ("evicted_pages".into(), self.evicted_pages.get()),
            ("kills".into(), self.kills.get()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_is_empty() {
        assert!(FaultPlan::default().is_empty());
        assert!(FaultPlan::default().schedule().is_empty());
    }

    #[test]
    fn schedule_is_deterministic_and_sorted() {
        let plan = FaultPlan::default()
            .at(500, FaultKind::CorruptDescriptor)
            .with_random(RandomFaults {
                seed: 42,
                count: 16,
                from: 100,
                to: 10_000,
            });
        let a = plan.schedule();
        let b = plan.clone().schedule();
        assert_eq!(a, b, "same plan, same schedule");
        assert_eq!(a.len(), 17);
        assert!(
            a.windows(2).all(|w| w[0].at_cycle <= w[1].at_cycle),
            "sorted"
        );
        assert!(a.iter().all(|e| e.at_cycle < 10_000));
        let c = FaultPlan::default()
            .with_random(RandomFaults {
                seed: 43,
                count: 16,
                from: 100,
                to: 10_000,
            })
            .schedule();
        assert_ne!(
            a.iter()
                .filter(|e| e.at_cycle != 500)
                .copied()
                .collect::<Vec<_>>(),
            c,
            "different seed, different schedule"
        );
    }

    #[test]
    fn parse_explicit_entries() {
        let plan = FaultPlan::parse("stall@100:forever; spike@200:50:4; storm@300:2; corrupt@400")
            .expect("valid spec");
        assert_eq!(
            plan.events,
            vec![
                FaultEvent {
                    at_cycle: 100,
                    kind: FaultKind::AccelStall { cycles: FOREVER }
                },
                FaultEvent {
                    at_cycle: 200,
                    kind: FaultKind::LatencySpike {
                        cycles: 50,
                        factor: 4
                    }
                },
                FaultEvent {
                    at_cycle: 300,
                    kind: FaultKind::PageFaultStorm { pages: 2 }
                },
                FaultEvent {
                    at_cycle: 400,
                    kind: FaultKind::CorruptDescriptor
                },
            ]
        );
        assert!(plan.random.is_none());
    }

    #[test]
    fn parse_random_with_defaults() {
        let plan = FaultPlan::parse("random:seed=7,count=3").expect("valid spec");
        let r = plan.random.expect("random schedule");
        assert_eq!((r.seed, r.count), (7, 3));
        assert_eq!(
            (r.from, r.to),
            (RandomFaults::default().from, RandomFaults::default().to)
        );
        assert_eq!(plan.schedule().len(), 3);
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!(FaultPlan::parse("stall@oops:1").is_err());
        assert!(FaultPlan::parse("flip@100:1").is_err());
        assert!(
            FaultPlan::parse("spike@100:50").is_err(),
            "spike needs a factor"
        );
        assert!(FaultPlan::parse("random:to=0").is_err(), "empty window");
    }

    #[test]
    fn parse_errors_are_structured() {
        assert_eq!(
            FaultPlan::parse("stall@oops:1"),
            Err(FaultSpecError::NotANumber {
                token: "oops".into()
            })
        );
        assert_eq!(
            FaultPlan::parse("flip@100:1"),
            Err(FaultSpecError::UnknownKind {
                entry: "flip@100:1".into()
            })
        );
        assert_eq!(
            FaultPlan::parse("spike@100:50"),
            Err(FaultSpecError::BadArity {
                entry: "spike@100:50".into(),
                expected: "spike@C:D:F"
            })
        );
        assert_eq!(
            FaultPlan::parse("corrupt"),
            Err(FaultSpecError::MissingAt {
                entry: "corrupt".into()
            })
        );
        assert_eq!(
            FaultPlan::parse("random:to=0"),
            Err(FaultSpecError::EmptyWindow { from: 0, to: 0 })
        );
        assert_eq!(
            FaultPlan::parse("random:speed=3"),
            Err(FaultSpecError::UnknownRandomKey {
                key: "speed".into()
            })
        );
        assert_eq!(
            FaultPlan::parse("random:seed"),
            Err(FaultSpecError::ExpectedKeyValue {
                token: "seed".into()
            })
        );
    }

    #[test]
    fn parse_rejects_out_of_range_targets() {
        // A kill past the 64-bit mask would alias engine (e & 63): the
        // classic silent-wraparound bug, now a load-time error.
        assert_eq!(
            FaultPlan::parse("kill@100:64"),
            Err(FaultSpecError::EngineOutOfRange { engine: 64 })
        );
        assert!(FaultPlan::parse("kill@100:63").is_ok());
        // A cycle past any plausible budget never fires; reject it.
        let too_late = MAX_FAULT_CYCLE + 1;
        assert_eq!(
            FaultPlan::parse(&format!("corrupt@{too_late}")),
            Err(FaultSpecError::CycleOutOfRange { cycle: too_late })
        );
        assert_eq!(
            FaultPlan::parse(&format!("random:to={too_late}")),
            Err(FaultSpecError::CycleOutOfRange { cycle: too_late })
        );
        assert!(FaultPlan::parse(&format!("corrupt@{MAX_FAULT_CYCLE}")).is_ok());
        // Nor may a window length stand in for `forever`: a u64::MAX stall
        // or a permanent x4 NoC is a typo too.
        for spec in [
            format!("stall@100:{}", u64::MAX),
            format!("spike@0:{too_late}:4"),
            format!("maple-stall@100:{too_late}"),
        ] {
            assert!(
                matches!(
                    FaultPlan::parse(&spec),
                    Err(FaultSpecError::CycleOutOfRange { .. })
                ),
                "{spec}"
            );
        }
        assert!(FaultPlan::parse(&format!("spike@0:{MAX_FAULT_CYCLE}:4")).is_ok());
    }

    #[test]
    fn parse_fail_stop_entries() {
        let plan =
            FaultPlan::parse("kill@5000:1; kill@9000; maple-stall@100:forever; maple-kill@200")
                .expect("valid spec");
        assert_eq!(
            plan.events,
            vec![
                FaultEvent {
                    at_cycle: 5_000,
                    kind: FaultKind::KillEngine { engine: 1 }
                },
                FaultEvent {
                    at_cycle: 9_000,
                    kind: FaultKind::KillEngine { engine: 0 }
                },
                FaultEvent {
                    at_cycle: 100,
                    kind: FaultKind::MapleStall { cycles: FOREVER }
                },
                FaultEvent {
                    at_cycle: 200,
                    kind: FaultKind::KillMaple
                },
            ]
        );
        assert!(FaultPlan::parse("kill@x").is_err());
    }

    #[test]
    fn random_schedule_never_draws_fail_stop() {
        // Kills are explicit-only: a seeded schedule must keep drawing
        // from the four recoverable classes so existing seeds reproduce.
        let plan = FaultPlan::default().with_random(RandomFaults {
            seed: 99,
            count: 64,
            from: 0,
            to: 100_000,
        });
        for ev in plan.schedule() {
            assert!(
                !matches!(
                    ev.kind,
                    FaultKind::KillEngine { .. }
                        | FaultKind::KillMaple
                        | FaultKind::MapleStall { .. }
                ),
                "random schedule drew a fail-stop fault: {ev:?}"
            );
        }
    }

    #[test]
    fn kill_and_maple_state() {
        let fs = FaultState::default();
        assert!(!fs.engine_killed(0) && !fs.engine_killed(1));
        fs.kill_engine(1);
        assert!(fs.engine_killed(1), "engine 1 dead");
        assert!(!fs.engine_killed(0), "engine 0 untouched");
        let clone = fs.clone();
        assert!(clone.engine_killed(1), "kill mask shared through clones");

        assert!(!fs.maple_stalled(0));
        fs.stall_maple(50);
        assert!(fs.maple_stalled(49));
        assert!(!fs.maple_stalled(50));
        assert!(!fs.maple_killed());
        fs.kill_maple();
        assert!(clone.maple_killed());
    }

    #[test]
    fn fault_state_windows() {
        let fs = FaultState::default();
        assert!(!fs.accel_stalled(0));
        fs.stall_accel(100);
        assert!(fs.accel_stalled(99));
        assert!(!fs.accel_stalled(100));
        fs.stall_accel(FOREVER);
        assert!(fs.accel_stalled(u64::MAX - 1));

        assert_eq!(fs.latency_factor(0), 1);
        fs.set_latency_spike(50, 8);
        assert_eq!(fs.latency_factor(49), 8);
        assert_eq!(fs.latency_factor(50), 1);
    }

    #[test]
    fn shared_state_is_visible_through_clones() {
        let a = FaultState::default();
        let b = a.clone();
        a.stall_accel(10);
        assert!(b.accel_stalled(5), "clones share the cells");
    }

    #[test]
    fn staged_flips_apply_only_at_commit() {
        let fs = FaultState::default();
        fs.stage(FaultOp::StallAccel { until: 100 });
        fs.stage(FaultOp::KillEngine { engine: 2 });
        fs.stage(FaultOp::LatencySpike {
            until: 50,
            factor: 4,
        });
        assert!(!fs.accel_stalled(0), "staged flips are not yet live");
        assert!(!fs.engine_killed(2));
        assert_eq!(fs.latency_factor(0), 1);
        fs.commit_staged();
        assert!(fs.accel_stalled(99));
        assert!(fs.engine_killed(2));
        assert_eq!(fs.latency_factor(49), 4);
        fs.commit_staged(); // empty commit is a no-op
        assert!(fs.engine_killed(2));
    }
}
