//! Agent-side coherence port: a private cache plus the request/response
//! logic for talking to the directory.
//!
//! Reused by the in-order cores, the Cohort engine's memory transaction
//! engine (with a tiny line buffer instead of a full cache) and the MAPLE
//! baseline unit — all of them participate in coherence the same way, which
//! is exactly the premise of queue coherence.
//!
//! Nothing on a transaction's path allocates: the accesses joined on a
//! pending line and the events one message raises are [`InlineList`]s of
//! at most [`MAX_JOINED`] entries, kept in join order.

use crate::cache::{LineState, TagArray};
use crate::component::Observability;
use crate::component::{CompId, Ctx};
use crate::config::CacheConfig;
use crate::hash::{U64Map, U64Set};
use crate::line_of;
use crate::msg::{Envelope, Msg};
use crate::stats::Counter;

/// Result of issuing an access to the port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// The line is held with sufficient permission; data is available at
    /// `ready_at`.
    Hit {
        /// Cycle at which the access completes.
        ready_at: u64,
    },
    /// A directory transaction was issued (or joined); a
    /// [`PortEvent::Completed`] with the same token will follow.
    Pending,
    /// The access conflicts with an in-flight transaction on the same line
    /// (e.g. a write behind a pending read); retry next cycle.
    Retry,
}

/// Asynchronous notifications from the port.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PortEvent {
    /// A previously `Pending` access with this token now holds the line.
    Completed {
        /// Caller-chosen identifier passed to [`CoherentPort::request`].
        token: u64,
    },
    /// The directory invalidated `line` (another agent is writing it, or an
    /// inclusive eviction recalled it). This is the signal the Cohort
    /// engine's reader coherency manager monitors.
    Invalidated {
        /// The invalidated line address.
        line: u64,
    },
    /// The directory downgraded our exclusive copy of `line` to shared
    /// (another agent is reading it).
    Downgraded {
        /// The downgraded line address.
        line: u64,
    },
}

/// Most tokens one line's transaction can have joined, and so most events
/// one message raises. A token joins a line at most once, so the bound is
/// the number of distinct tokens an agent uses: the Cohort engine's two
/// MTE channels × {PTE read, data access}, a core's load and store-buffer
/// drain, a MAPLE unit's PTE read and data access. An engine channel
/// waits on one token at a time, so only an abort (`raise_error`, the
/// watchdog drain) that restarts the engine before the grant can leave a
/// third or fourth joined; a restart that rejoins its own old token adds
/// nothing.
pub const MAX_JOINED: usize = 4;

/// Up to [`MAX_JOINED`] values held inline and iterated in push order —
/// the tokens joined on a pending line and the events
/// [`CoherentPort::handle`] returns, so neither costs a heap allocation.
#[derive(Debug, Clone, Copy)]
pub struct InlineList<T: Copy> {
    items: [Option<T>; MAX_JOINED],
}

impl<T: Copy> InlineList<T> {
    fn new() -> Self {
        Self {
            items: [None; MAX_JOINED],
        }
    }

    /// Appends `item`.
    ///
    /// # Panics
    /// Panics past [`MAX_JOINED`] entries: a port whose agent joins more
    /// accesses on one line needs a larger cap, not a second path.
    fn push(&mut self, item: T) {
        let Some(slot) = self.items.iter_mut().find(|s| s.is_none()) else {
            panic!("more than MAX_JOINED ({MAX_JOINED}) accesses joined one line");
        };
        *slot = Some(item);
    }
}

impl<T: Copy> IntoIterator for InlineList<T> {
    type Item = T;
    type IntoIter = std::iter::Flatten<std::array::IntoIter<Option<T>, MAX_JOINED>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.into_iter().flatten()
    }
}

/// What [`CoherentPort::handle`] returns: the events of one message, in
/// the order they happened (completions in join order).
pub type PortEvents = InlineList<PortEvent>;

#[derive(Debug)]
struct PendingLine {
    want_m: bool,
    tokens: InlineList<u64>,
}

/// Counters exposed by a port. Fields are registry-backed
/// [`Counter`] handles: cloning shares the cells, and adopting them into a
/// [`crate::stats::Stats`] registry makes them visible in snapshots.
#[derive(Debug, Default, Clone)]
pub struct PortCounters {
    /// Accesses that hit in the private cache.
    pub hits: Counter,
    /// Accesses that required a directory transaction.
    pub misses: Counter,
    /// Invalidations received.
    pub invs: Counter,
    /// Downgrades received.
    pub downgrades: Counter,
    /// Lines evicted (capacity) from the private cache.
    pub evictions: Counter,
}

impl PortCounters {
    /// Registers every counter under `obs`'s scope with a `prefix.` name
    /// (e.g. `l1.hits`); owners call this from their `attach`.
    pub fn register(&self, obs: &Observability, prefix: &str) {
        obs.adopt_counter(&format!("{prefix}.hits"), &self.hits);
        obs.adopt_counter(&format!("{prefix}.misses"), &self.misses);
        obs.adopt_counter(&format!("{prefix}.invs"), &self.invs);
        obs.adopt_counter(&format!("{prefix}.downgrades"), &self.downgrades);
        obs.adopt_counter(&format!("{prefix}.evictions"), &self.evictions);
    }
}

/// A private cache front-end speaking the directory protocol.
#[derive(Debug)]
pub struct CoherentPort {
    dir: CompId,
    cache: TagArray,
    hit_latency: u64,
    pending: U64Map<PendingLine>,
    pinned: U64Set,
    counters: PortCounters,
}

impl CoherentPort {
    /// Creates a port with a private cache of geometry `cache_cfg`, talking
    /// to the directory component `dir`.
    pub fn new(dir: CompId, cache_cfg: CacheConfig, hit_latency: u64) -> Self {
        Self {
            dir,
            cache: TagArray::new(cache_cfg),
            hit_latency,
            pending: U64Map::default(),
            pinned: U64Set::default(),
            counters: PortCounters::default(),
        }
    }

    /// Pins `line`: it will never be chosen as a capacity victim (it may
    /// still be invalidated by the directory). Used by the Cohort engine to
    /// keep its reader-coherency-manager's monitored pointer lines
    /// resident, so a writer's invalidation is guaranteed to be observed.
    pub fn pin(&mut self, line: u64) {
        self.pinned.insert(line);
    }

    /// Removes a pin.
    pub fn unpin(&mut self, line: u64) {
        self.pinned.remove(&line);
    }

    /// Removes all pins.
    pub fn unpin_all(&mut self) {
        self.pinned.clear();
    }

    /// Issues a read (`write == false`) or write (`write == true`) access to
    /// the byte at `pa`. `token` identifies the access in a later
    /// [`PortEvent::Completed`].
    pub fn request(&mut self, ctx: &mut Ctx<'_>, pa: u64, write: bool, token: u64) -> Outcome {
        self.request_opts(ctx, pa, write, token, false)
    }

    /// Like [`CoherentPort::request`], with `full_line` promising that a
    /// write will overwrite the whole cache line (the directory may then
    /// skip fetching stale data from DRAM).
    pub fn request_opts(
        &mut self,
        ctx: &mut Ctx<'_>,
        pa: u64,
        write: bool,
        token: u64,
        full_line: bool,
    ) -> Outcome {
        let line = line_of(pa);
        match self.cache.touch(line) {
            Some(LineState::M) => {
                self.counters.hits.inc();
                Outcome::Hit {
                    ready_at: ctx.cycle + self.hit_latency,
                }
            }
            Some(LineState::S) if !write => {
                self.counters.hits.inc();
                Outcome::Hit {
                    ready_at: ctx.cycle + self.hit_latency,
                }
            }
            held => {
                // Miss, or an S->M upgrade.
                if let Some(p) = self.pending.get_mut(&line) {
                    if write && !p.want_m {
                        return Outcome::Retry;
                    }
                    // A token already joined here belongs to an access its
                    // agent aborted and re-issued before the grant: the one
                    // completion serves both, so a restart never grows the
                    // list.
                    if !p.tokens.into_iter().any(|t| t == token) {
                        p.tokens.push(token);
                    }
                    return Outcome::Pending;
                }
                debug_assert!(held.is_none() || write, "read of held line should have hit");
                self.issue(ctx, line, write, full_line, Some(token));
                Outcome::Pending
            }
        }
    }

    /// Opens a directory transaction on `line`, completing `token` (if
    /// any) when it is granted.
    fn issue(
        &mut self,
        ctx: &mut Ctx<'_>,
        line: u64,
        want_m: bool,
        no_fetch: bool,
        token: Option<u64>,
    ) {
        self.counters.misses.inc();
        let msg = if want_m {
            Msg::GetM { line, no_fetch }
        } else {
            Msg::GetS { line }
        };
        ctx.send(self.dir, msg);
        let mut tokens = InlineList::new();
        if let Some(token) = token {
            tokens.push(token);
        }
        self.pending.insert(line, PendingLine { want_m, tokens });
    }

    /// Fire-and-forget write-permission prefetch of `line`: counts and
    /// sends exactly what a write [`CoherentPort::request`] would, but
    /// joins an in-flight transaction without leaving a token behind, so
    /// the grant raises no [`PortEvent::Completed`] for it. Polling it
    /// every cycle of a miss is free.
    pub fn prefetch_m(&mut self, ctx: &mut Ctx<'_>, line: u64) {
        if self.cache.touch(line) == Some(LineState::M) {
            self.counters.hits.inc();
        } else if !self.pending.contains_key(&line) {
            self.issue(ctx, line, true, false, None);
        }
    }

    /// True if [`CoherentPort::prefetch_m`] of `line` would send nothing:
    /// the line is held in M or a transaction on it is in flight.
    pub fn prefetch_is_noop(&self, line: u64) -> bool {
        self.cache.state(line) == Some(LineState::M) || self.pending.contains_key(&line)
    }

    /// Applies what `polls` consecutive no-op [`CoherentPort::prefetch_m`]
    /// calls on `line` would have left behind (caller checked
    /// [`CoherentPort::prefetch_is_noop`]): one hit per poll of a line
    /// held in M, and the line most recently used — any number of
    /// identical touch rounds orders the set like one.
    pub fn replay_prefetch_polls(&mut self, line: u64, polls: u64) {
        if self.cache.touch(line) == Some(LineState::M) {
            self.counters.hits.add(polls);
        }
    }

    /// Applies what `hits` consecutive read hits on the held line of `pa`
    /// would have left behind (caller checked [`CoherentPort::state_of`]):
    /// one hit each, and the line most recently used — any number of
    /// touches orders the set like one.
    pub fn replay_read_hits(&mut self, pa: u64, hits: u64) {
        if hits > 0 {
            let held = self.cache.touch(line_of(pa));
            debug_assert!(held.is_some(), "replayed hits on a line not held");
            self.counters.hits.add(hits);
        }
    }

    /// True if the port could handle `msg` (coherence traffic).
    pub fn wants(msg: &Msg) -> bool {
        matches!(
            msg,
            Msg::DataS { .. } | Msg::DataM { .. } | Msg::Inv { .. } | Msg::Downgrade { .. }
        )
    }

    /// Processes one coherence message addressed to this agent, emitting
    /// zero or more [`PortEvent`]s.
    pub fn handle(&mut self, env: &Envelope, ctx: &mut Ctx<'_>) -> PortEvents {
        let mut events = PortEvents::new();
        match env.msg {
            Msg::DataS { line } | Msg::DataM { line } => {
                let state = if matches!(env.msg, Msg::DataM { .. }) {
                    LineState::M
                } else {
                    LineState::S
                };
                let pinned = &self.pinned;
                match self
                    .cache
                    .insert_with_victim_filter(line, state, |l| pinned.contains(&l))
                {
                    Ok(Some((vline, vstate))) => {
                        self.counters.evictions.inc();
                        ctx.send(
                            self.dir,
                            Msg::PutLine {
                                line: vline,
                                dirty: vstate == LineState::M,
                            },
                        );
                    }
                    Ok(None) => {}
                    Err(()) => {
                        // Every victim candidate is pinned: complete the
                        // access uncached and immediately relinquish the
                        // permission so the directory state stays tidy.
                        ctx.send(
                            self.dir,
                            Msg::PutLine {
                                line,
                                dirty: state == LineState::M,
                            },
                        );
                    }
                }
                if let Some(p) = self.pending.remove(&line) {
                    for token in p.tokens {
                        events.push(PortEvent::Completed { token });
                    }
                }
            }
            Msg::Inv { line } => {
                self.counters.invs.inc();
                self.cache.remove(line);
                ctx.send(self.dir, Msg::InvAck { line });
                events.push(PortEvent::Invalidated { line });
            }
            Msg::Downgrade { line } => {
                self.counters.downgrades.inc();
                if self.cache.state(line) == Some(LineState::M) {
                    self.cache.set_state(line, LineState::S);
                }
                ctx.send(self.dir, Msg::DowngradeAck { line });
                events.push(PortEvent::Downgraded { line });
            }
            ref other => panic!("port received non-coherence message {other:?}"),
        }
        events
    }

    /// Voluntarily relinquishes a line (used by endpoints that stream data
    /// and will not touch the line again), notifying the directory.
    pub fn relinquish(&mut self, ctx: &mut Ctx<'_>, line: u64) {
        if let Some(st) = self.cache.remove(line) {
            ctx.send(
                self.dir,
                Msg::PutLine {
                    line,
                    dirty: st == LineState::M,
                },
            );
        }
    }

    /// Current cached state of the line containing `pa`.
    pub fn state_of(&self, pa: u64) -> Option<LineState> {
        self.cache.state(line_of(pa))
    }

    /// True when no directory transactions are outstanding.
    pub fn is_idle(&self) -> bool {
        self.pending.is_empty()
    }

    /// Counter snapshot.
    pub fn port_counters(&self) -> &PortCounters {
        &self.counters
    }

    /// The directory this port talks to.
    pub fn dir(&self) -> CompId {
        self.dir
    }

    /// Hit latency in cycles.
    pub fn hit_latency(&self) -> u64 {
        self.hit_latency
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::component::step_alone;

    const DIR: CompId = CompId(0);
    const ME: CompId = CompId(1);
    const LINE: u64 = 0x4000;

    /// Joins a read of `LINE` under each of `tokens`, in order.
    fn join_reads(port: &mut CoherentPort, tokens: &[u64]) -> Vec<crate::component::Outgoing> {
        step_alone(ME, 0, &mut VecDeque::new(), |ctx| {
            for &token in tokens {
                let outcome = port.request(ctx, LINE + token, false, token);
                assert_eq!(outcome, Outcome::Pending, "token {token}");
            }
        })
    }

    /// Delivers the `DataS` for `LINE` and returns the events it raises.
    fn grant(port: &mut CoherentPort) -> Vec<PortEvent> {
        let grant = Envelope {
            src: DIR,
            msg: Msg::DataS { line: LINE },
        };
        let mut events = Vec::new();
        step_alone(ME, 40, &mut VecDeque::new(), |ctx| {
            events.extend(port.handle(&grant, ctx));
        });
        assert!(port.is_idle());
        events
    }

    #[test]
    fn joined_requests_complete_in_join_order() {
        let mut port = CoherentPort::new(DIR, CacheConfig::new(1024, 2), 1);
        let sent = join_reads(&mut port, &[7, 3, 9, 1]);
        assert_eq!(sent.len(), 1, "one GetS serves all four");
        assert!(matches!(sent[0].env.msg, Msg::GetS { line: LINE }));
        assert_eq!(
            grant(&mut port),
            [7, 3, 9, 1].map(|token| PortEvent::Completed { token })
        );
    }

    #[test]
    fn a_rejoined_token_completes_once() {
        // An agent that aborts and re-issues its accesses before the grant
        // (the engine's error path) joins the same tokens again.
        let mut port = CoherentPort::new(DIR, CacheConfig::new(1024, 2), 1);
        let sent = join_reads(&mut port, &[1, 5, 1, 5, 1, 5, 0, 4]);
        assert_eq!(sent.len(), 1);
        assert_eq!(
            grant(&mut port),
            [1, 5, 0, 4].map(|token| PortEvent::Completed { token })
        );
    }

    #[test]
    #[should_panic(expected = "more than MAX_JOINED (4) accesses joined one line")]
    fn a_join_past_the_cap_panics() {
        let mut port = CoherentPort::new(DIR, CacheConfig::new(1024, 2), 1);
        join_reads(&mut port, &[1, 2, 3, 4, 5]);
    }
}
