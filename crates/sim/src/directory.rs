//! The shared L2 cache and MESI directory controller.
//!
//! This component is the coherence home for all of physical memory. It owns
//! an inclusive L2 tag array plus a sharer/owner table for lines that are
//! cached above it, and serializes transactions per line:
//!
//! * `GetS` — grant shared; if another agent owns the line exclusively it is
//!   downgraded first.
//! * `GetM` — grant exclusive; all other holders are invalidated first and
//!   their acknowledgements collected. **These invalidations are the signal
//!   the Cohort engine's reader coherency manager listens for** (paper
//!   §4.2.3).
//! * L2 misses pay a DRAM fill; inclusive evictions recall the line from
//!   every holder before the victim is dropped, which is what produces the
//!   capacity effect at the largest queue sizes in Figs. 8/9.
//!
//! Fills pay a flat [`crate::config::TimingConfig::dram`] latency by
//! default. When [`crate::config::SocConfig::dram`] is set they route
//! through the bank/channel contention model ([`crate::dram`]) instead,
//! and the directory additionally caps concurrent transactions at the
//! configured MSHR count — overflow waits at the ingress, which is how
//! memory saturation propagates back to cores and engines.
//!
//! Nothing on a transaction's path allocates once the run is warm. A
//! line's state is decided and rewritten in place through one map entry;
//! a finished transaction's request queue and a dropped sharer set go back
//! to a spare list the next transaction or `Shared` state takes from.
//! Each spare list keeps at most `SPARE_CAP` (64) buffers, so a burst of
//! recalls cannot grow it for the rest of the run.

use std::cmp::Reverse;
use std::collections::hash_map::Entry;
use std::collections::{BinaryHeap, VecDeque};

use crate::cache::{LineState, TagArray};
use crate::component::{CompId, Component, Ctx, Observability};
use crate::config::SocConfig;
use crate::dram::DramModel;
use crate::hash::U64Map;
use crate::msg::{Envelope, Msg};
use crate::stats::{Counter, Histogram};
use crate::trace::Trace;

/// Directory-side sharing state for a line cached above the L2.
#[derive(Debug)]
enum DirState {
    /// Read-only copies at these agents, in the order they joined.
    Shared(Vec<CompId>),
    /// Exclusive/modified copy at this agent.
    Owned(CompId),
}

impl DirState {
    /// The agents holding a copy (sharers in join order, or the owner).
    fn agents(&self) -> &[CompId] {
        match self {
            DirState::Shared(v) => v,
            DirState::Owned(o) => std::slice::from_ref(o),
        }
    }
}

/// Most emptied buffers one spare list keeps.
const SPARE_CAP: usize = 64;

/// Emptied buffers of one kind, kept for reuse (at most [`SPARE_CAP`]).
#[derive(Debug)]
struct Spares<C>(Vec<C>);

impl<C: Default> Spares<C> {
    /// A spare buffer, or a fresh one if none is left.
    fn take(&mut self) -> C {
        self.0.pop().unwrap_or_default()
    }

    /// Keeps an emptied buffer for reuse; a full list drops it instead.
    fn give(&mut self, buf: C) {
        if self.0.len() < SPARE_CAP {
            self.0.push(buf);
        }
    }
}

impl Spares<Vec<CompId>> {
    /// A sharer set holding `agent` alone.
    fn set_of(&mut self, agent: CompId) -> Vec<CompId> {
        let mut set = self.take();
        set.push(agent);
        set
    }

    /// Keeps the sharer set of a state that is being dropped or replaced.
    fn retire(&mut self, old: DirState) {
        if let DirState::Shared(mut set) = old {
            set.clear();
            self.give(set);
        }
    }
}

/// The directory's handle on the event trace: a field of its own, so
/// `proceed` can trace while it holds a line's state entry.
#[derive(Debug, Default)]
struct CohTrace {
    trace: Option<Trace>,
    tid: u64,
}

impl CohTrace {
    /// Emits a coherence-transition instant event when tracing is on.
    fn instant(&self, cycle: u64, name: &'static str, line: u64, agent: CompId) {
        if let Some(t) = self.trace.as_ref().filter(|t| t.is_enabled()) {
            t.instant(
                self.tid,
                "coherence",
                name,
                cycle,
                vec![("line", format!("{line:#x}")), ("agent", agent.to_string())],
            );
        }
    }
}

/// Kind of an agent request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ReqKind {
    GetS,
    GetM,
}

#[derive(Debug, Clone, Copy)]
struct Req {
    kind: ReqKind,
    from: CompId,
    /// Full-line write: a DRAM fill may be skipped on a miss.
    no_fetch: bool,
}

#[derive(Debug)]
enum Phase {
    /// Waiting for a scheduled tag/fill access to complete.
    WaitAccess,
    /// Waiting for an inclusive-eviction recall to finish (the victim
    /// line's own transaction is `BlockedVictim` on this one).
    WaitVictim { remaining: u32 },
    /// Waiting for invalidation acks before granting exclusive.
    WaitInvAcks { remaining: u32 },
    /// Waiting for the previous exclusive owner to downgrade.
    WaitDowngradeAck { prev_owner: CompId },
    /// This line is being recalled on behalf of a fill of `parent`.
    BlockedVictim { parent: u64 },
}

#[derive(Debug)]
struct Txn {
    queue: VecDeque<Req>,
    phase: Phase,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DelayedKind {
    /// Tag hit: proceed with protocol action.
    Proceed,
    /// DRAM fill completed: install the line, then proceed.
    Fill,
    /// A full DRAM channel queue rejected this fill; re-issue it (the due
    /// cycle is when the channel's oldest entry retires). Only scheduled
    /// when the contention model is enabled.
    DramIssue,
}

#[derive(Debug, PartialEq, Eq)]
struct Delayed {
    at: u64,
    seq: u64,
    line: u64,
    kind: DelayedKind,
}

impl PartialOrd for Delayed {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Delayed {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}

/// Performance counters exposed by the directory. Fields are
/// registry-backed [`crate::stats::Counter`] handles shared with the
/// stats registry once the directory is attached to a SoC.
#[derive(Debug, Default, Clone)]
pub struct DirCounters {
    /// `GetS` requests served.
    pub gets: Counter,
    /// `GetM` requests served.
    pub getm: Counter,
    /// Invalidations sent (GetM + recalls).
    pub inv_sent: Counter,
    /// Downgrades sent.
    pub downgrades: Counter,
    /// L2 tag hits.
    pub l2_hits: Counter,
    /// DRAM fills.
    pub fills: Counter,
    /// Inclusive-eviction recalls.
    pub recalls: Counter,
    /// Full-line-write installs that skipped the DRAM fill.
    pub wc_installs: Counter,
    /// Requests parked at the ingress because every MSHR was busy (only
    /// non-zero when the DRAM contention model caps transactions).
    pub mshr_stalls: Counter,
}

/// The shared L2 + directory component. See module docs.
pub struct Directory {
    l2: TagArray,
    states: U64Map<DirState>,
    txns: U64Map<Txn>,
    delayed: BinaryHeap<Reverse<Delayed>>,
    seq: u64,
    l2_hit: u64,
    dram: u64,
    /// Opt-in contention model; `None` keeps the flat `dram` constant.
    dram_model: Option<DramModel>,
    /// Concurrent transactions before new requests wait at the ingress
    /// (`usize::MAX` when the contention model is off).
    mshr_limit: usize,
    /// Requests admitted only when an MSHR frees, in arrival order. This
    /// is the NoC-ingress backpressure point: requests here occupy their
    /// requester's finite MSHR/MTE slots, so a saturated directory stalls
    /// the cores and engines behind it instead of queueing unboundedly.
    waiting: VecDeque<(u64, Req)>,
    /// Ingress-queue occupancy observed by each stalled request.
    mshr_wait_depth: Histogram,
    /// Request queues of finished transactions.
    spare_queues: Spares<VecDeque<Req>>,
    /// Sharer sets of dropped `Shared` states.
    spare_sets: Spares<Vec<CompId>>,
    counters: DirCounters,
    coh: CohTrace,
}

impl std::fmt::Debug for Directory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Directory")
            .field("active_txns", &self.txns.len())
            .field("tracked_lines", &self.states.len())
            .finish()
    }
}

impl Directory {
    /// Creates a directory with the L2 geometry and timing from `cfg`.
    pub fn new(cfg: &SocConfig) -> Self {
        Self {
            l2: TagArray::new(cfg.l2),
            states: U64Map::default(),
            txns: U64Map::default(),
            delayed: BinaryHeap::new(),
            seq: 0,
            l2_hit: cfg.timing.l2_hit,
            dram: cfg.timing.dram,
            dram_model: cfg.dram.clone().map(DramModel::new),
            mshr_limit: cfg.dram.as_ref().map_or(usize::MAX, |d| d.mshrs),
            waiting: VecDeque::new(),
            mshr_wait_depth: Histogram::new(),
            spare_queues: Spares(Vec::new()),
            spare_sets: Spares(Vec::new()),
            counters: DirCounters::default(),
            coh: CohTrace::default(),
        }
    }

    /// The DRAM contention model, when enabled (test/report introspection).
    pub fn dram_model(&self) -> Option<&DramModel> {
        self.dram_model.as_ref()
    }

    /// Snapshot of the performance counters.
    pub fn dir_counters(&self) -> &DirCounters {
        &self.counters
    }

    fn schedule(&mut self, at: u64, line: u64, kind: DelayedKind) {
        self.seq += 1;
        self.delayed.push(Reverse(Delayed {
            at,
            seq: self.seq,
            line,
            kind,
        }));
    }

    fn on_request(&mut self, ctx: &mut Ctx<'_>, line: u64, req: Req) {
        match req.kind {
            ReqKind::GetS => self.counters.gets.inc(),
            ReqKind::GetM => self.counters.getm.inc(),
        }
        self.admit(ctx, line, req);
    }

    /// Starts (or queues) a counted request. Separate from [`Self::on_request`]
    /// so draining the MSHR ingress queue does not double-count.
    fn admit(&mut self, ctx: &mut Ctx<'_>, line: u64, req: Req) {
        if let Some(txn) = self.txns.get_mut(&line) {
            txn.queue.push_back(req);
            return;
        }
        if self.txns.len() >= self.mshr_limit {
            self.counters.mshr_stalls.inc();
            self.mshr_wait_depth.record(self.waiting.len() as u64 + 1);
            self.waiting.push_back((line, req));
            return;
        }
        let mut queue = self.spare_queues.take();
        queue.push_back(req);
        self.txns.insert(
            line,
            Txn {
                queue,
                phase: Phase::WaitAccess,
            },
        );
        self.start_access(ctx, line, req.no_fetch);
    }

    fn start_access(&mut self, ctx: &mut Ctx<'_>, line: u64, no_fetch: bool) {
        if self.l2.touch(line).is_some() {
            self.counters.l2_hits.inc();
            self.schedule(ctx.cycle + self.l2_hit, line, DelayedKind::Proceed);
        } else if no_fetch {
            // Full-line write: install tags without touching DRAM.
            self.counters.wc_installs.inc();
            self.schedule(ctx.cycle + self.l2_hit, line, DelayedKind::Fill);
        } else {
            self.counters.fills.inc();
            if self.dram_model.is_some() {
                // The miss is known after the tag lookup; issue to DRAM then.
                self.issue_dram(ctx.cycle + self.l2_hit, line);
            } else {
                self.schedule(ctx.cycle + self.l2_hit + self.dram, line, DelayedKind::Fill);
            }
        }
    }

    /// Issues (or re-issues) a fill for `line` to the contention model at
    /// cycle `at`. A full channel queue schedules a retry for the exact
    /// cycle a slot frees — the model reports its next retire cycle, so no
    /// polling and no lost wakeups.
    fn issue_dram(&mut self, at: u64, line: u64) {
        let dram = self.dram_model.as_mut().expect("contention model enabled");
        match dram.enqueue(at, line) {
            Ok(done) => self.schedule(done, line, DelayedKind::Fill),
            Err(retry) => self.schedule(retry, line, DelayedKind::DramIssue),
        }
    }

    fn fill(&mut self, ctx: &mut Ctx<'_>, line: u64) {
        let txns = &self.txns;
        let result = self
            .l2
            .insert_with_victim_filter(line, LineState::S, |l| txns.contains_key(&l));
        match result {
            Err(()) => {
                // every victim candidate is mid-transaction; retry shortly
                self.schedule(ctx.cycle + 1, line, DelayedKind::Fill);
            }
            Ok(None) => self.proceed(ctx, line),
            Ok(Some((vline, _))) => {
                let holders = self.states.get(&vline).map_or(&[][..], DirState::agents);
                if holders.is_empty() {
                    if let Some(old) = self.states.remove(&vline) {
                        self.spare_sets.retire(old);
                    }
                    self.proceed(ctx, line);
                } else {
                    self.counters.recalls.inc();
                    for &h in holders {
                        self.counters.inv_sent.inc();
                        self.coh.instant(ctx.cycle, "Recall", vline, h);
                        ctx.send(h, Msg::Inv { line: vline });
                    }
                    let remaining = holders.len() as u32;
                    let victim = Txn {
                        queue: self.spare_queues.take(),
                        phase: Phase::BlockedVictim { parent: line },
                    };
                    self.txns.insert(vline, victim);
                    self.txns.get_mut(&line).expect("txn").phase = Phase::WaitVictim { remaining };
                }
            }
        }
    }

    /// Serves the request at the head of `line`'s queue: decides through
    /// the line's state entry and rewrites it in place, then grants, or
    /// sends the downgrade or invalidations the grant waits on.
    fn proceed(&mut self, ctx: &mut Ctx<'_>, line: u64) {
        let req = *self
            .txns
            .get(&line)
            .and_then(|t| t.queue.front())
            .expect("proceed with empty queue");
        let from = req.from;
        let wait = match self.states.entry(line) {
            Entry::Vacant(e) => {
                e.insert(match req.kind {
                    ReqKind::GetS => DirState::Shared(self.spare_sets.set_of(from)),
                    ReqKind::GetM => DirState::Owned(from),
                });
                None
            }
            Entry::Occupied(mut e) => {
                let state = e.get_mut();
                match (req.kind, &mut *state) {
                    (ReqKind::GetS, DirState::Shared(set)) => {
                        if !set.contains(&from) {
                            set.push(from);
                        }
                        None
                    }
                    (ReqKind::GetS, DirState::Owned(o)) if *o == from => {
                        *state = DirState::Shared(self.spare_sets.set_of(from));
                        None
                    }
                    (ReqKind::GetS, DirState::Owned(o)) => {
                        let o = *o;
                        self.counters.downgrades.inc();
                        self.coh.instant(ctx.cycle, "Downgrade", line, o);
                        ctx.send(o, Msg::Downgrade { line });
                        Some(Phase::WaitDowngradeAck { prev_owner: o })
                    }
                    (ReqKind::GetM, DirState::Shared(set)) => {
                        let mut remaining = 0;
                        for &t in set.iter().filter(|&&t| t != from) {
                            self.counters.inv_sent.inc();
                            self.coh.instant(ctx.cycle, "Inv", line, t);
                            ctx.send(t, Msg::Inv { line });
                            remaining += 1;
                        }
                        if remaining == 0 {
                            let old = std::mem::replace(state, DirState::Owned(from));
                            self.spare_sets.retire(old);
                            None
                        } else {
                            Some(Phase::WaitInvAcks { remaining })
                        }
                    }
                    (ReqKind::GetM, DirState::Owned(o)) if *o == from => None,
                    (ReqKind::GetM, DirState::Owned(o)) => {
                        let o = *o;
                        self.counters.inv_sent.inc();
                        self.coh.instant(ctx.cycle, "Inv", line, o);
                        ctx.send(o, Msg::Inv { line });
                        Some(Phase::WaitInvAcks { remaining: 1 })
                    }
                }
            }
        };
        match wait {
            Some(phase) => self.txns.get_mut(&line).expect("txn").phase = phase,
            None => {
                let msg = match req.kind {
                    ReqKind::GetS => Msg::DataS { line },
                    ReqKind::GetM => Msg::DataM { line },
                };
                self.grant(ctx, line, req, msg);
            }
        }
    }

    fn grant(&mut self, ctx: &mut Ctx<'_>, line: u64, req: Req, msg: Msg) {
        self.coh.instant(ctx.cycle, msg.kind(), line, req.from);
        ctx.send(req.from, msg);
        let txn = self.txns.get_mut(&line).expect("txn");
        txn.queue.pop_front();
        txn.phase = Phase::WaitAccess;
        if txn.queue.is_empty() {
            let txn = self.txns.remove(&line).expect("txn");
            self.spare_queues.give(txn.queue);
        } else {
            // Serialize back-to-back requests through the tag pipeline.
            self.schedule(ctx.cycle + self.l2_hit, line, DelayedKind::Proceed);
        }
    }

    fn on_inv_ack(&mut self, ctx: &mut Ctx<'_>, line: u64) {
        enum Next {
            GrantM,
            Victim { parent: u64 },
            Pending,
        }
        let next = {
            let txn = match self.txns.get_mut(&line) {
                Some(t) => t,
                None => return, // stale ack (benign)
            };
            match &mut txn.phase {
                Phase::WaitInvAcks { remaining } => {
                    *remaining -= 1;
                    if *remaining == 0 {
                        Next::GrantM
                    } else {
                        Next::Pending
                    }
                }
                Phase::BlockedVictim { parent } => Next::Victim { parent: *parent },
                _ => Next::Pending,
            }
        };
        match next {
            Next::Pending => {}
            Next::GrantM => {
                let req = *self
                    .txns
                    .get(&line)
                    .and_then(|t| t.queue.front())
                    .expect("GetM txn");
                if let Some(old) = self.states.insert(line, DirState::Owned(req.from)) {
                    self.spare_sets.retire(old);
                }
                self.grant(ctx, line, req, Msg::DataM { line });
            }
            Next::Victim { parent } => {
                let done = {
                    let ptxn = self.txns.get_mut(&parent).expect("parent txn");
                    match &mut ptxn.phase {
                        Phase::WaitVictim { remaining } => {
                            *remaining -= 1;
                            *remaining == 0
                        }
                        _ => unreachable!("victim parent in wrong phase"),
                    }
                };
                if done {
                    if let Some(old) = self.states.remove(&line) {
                        self.spare_sets.retire(old);
                    }
                    let mut queue = self.txns.remove(&line).expect("victim txn").queue;
                    self.proceed(ctx, parent);
                    // Requests that queued on the victim while it was being
                    // recalled start over as fresh transactions.
                    while let Some(req) = queue.pop_front() {
                        self.on_request(ctx, line, req);
                    }
                    self.spare_queues.give(queue);
                }
            }
        }
    }

    fn on_downgrade_ack(&mut self, ctx: &mut Ctx<'_>, line: u64) {
        let prev_owner = match self.txns.get(&line) {
            Some(Txn {
                phase: Phase::WaitDowngradeAck { prev_owner },
                ..
            }) => *prev_owner,
            _ => return, // stale ack
        };
        let req = *self
            .txns
            .get(&line)
            .and_then(|t| t.queue.front())
            .expect("GetS txn");
        let mut set = self.spare_sets.set_of(prev_owner);
        if req.from != prev_owner {
            set.push(req.from);
        }
        if let Some(old) = self.states.insert(line, DirState::Shared(set)) {
            self.spare_sets.retire(old);
        }
        self.grant(ctx, line, req, Msg::DataS { line });
    }

    fn on_put(&mut self, line: u64, from: CompId) {
        if self.txns.contains_key(&line) {
            // A transaction is mid-flight on this line; the eviction will be
            // reconciled by the always-ack rule. Dropping the notification
            // leaves at worst a stale sharer, which is benign.
            return;
        }
        match self.states.get_mut(&line) {
            Some(DirState::Shared(set)) => {
                set.retain(|c| *c != from);
                if set.is_empty() {
                    let old = self.states.remove(&line).expect("shared state");
                    self.spare_sets.retire(old);
                }
            }
            Some(DirState::Owned(o)) if *o == from => {
                self.states.remove(&line);
            }
            _ => {}
        }
    }
}

impl Component for Directory {
    fn name(&self) -> &str {
        "directory"
    }

    fn step(&mut self, ctx: &mut Ctx<'_>) {
        while let Some(Envelope { src, msg }) = ctx.recv() {
            match msg {
                Msg::GetS { line } => self.on_request(
                    ctx,
                    line,
                    Req {
                        kind: ReqKind::GetS,
                        from: src,
                        no_fetch: false,
                    },
                ),
                Msg::GetM { line, no_fetch } => self.on_request(
                    ctx,
                    line,
                    Req {
                        kind: ReqKind::GetM,
                        from: src,
                        no_fetch,
                    },
                ),
                Msg::InvAck { line } => self.on_inv_ack(ctx, line),
                Msg::DowngradeAck { line } => self.on_downgrade_ack(ctx, line),
                Msg::PutLine { line, .. } => self.on_put(line, src),
                other => panic!("directory received unexpected message {other:?}"),
            }
        }
        while let Some(Reverse(d)) = self.delayed.peek() {
            if d.at > ctx.cycle {
                break;
            }
            let Reverse(d) = self.delayed.pop().expect("peeked");
            if !self.txns.contains_key(&d.line) {
                continue; // transaction satisfied through another path
            }
            match d.kind {
                DelayedKind::Proceed => self.proceed(ctx, d.line),
                DelayedKind::Fill => self.fill(ctx, d.line),
                DelayedKind::DramIssue => self.issue_dram(ctx.cycle, d.line),
            }
        }
        // Transactions granted this cycle freed MSHRs; admit waiting
        // requests in arrival order. Appending to a still-live transaction
        // does not consume an MSHR, so the loop is bounded by the queue.
        while !self.waiting.is_empty() && self.txns.len() < self.mshr_limit {
            let (line, req) = self.waiting.pop_front().expect("checked non-empty");
            self.admit(ctx, line, req);
        }
    }

    fn is_idle(&self) -> bool {
        self.txns.is_empty() && self.delayed.is_empty() && self.waiting.is_empty()
    }

    fn quiescent_for(&self, now: u64) -> u64 {
        // Everything the directory does is either a reaction to an
        // inbound message (inbox-gated by the SoC) or a delayed action
        // with an explicit due cycle; in-flight transactions waiting on
        // acks carry no per-cycle work. No per-cycle counters, so the
        // default no-op `fast_forward` is exact. DRAM-model events (fill
        // completions, full-queue retries) all live in the same delayed
        // heap, so the hint covers the next bank-ready/queue-drain event
        // too; ingress-parked requests are admitted only when a grant
        // frees an MSHR, and grants are themselves heap- or ack-driven.
        match self.delayed.peek() {
            Some(Reverse(d)) => d.at.saturating_sub(now),
            None => u64::MAX,
        }
    }

    fn attach(&mut self, obs: &Observability) {
        let c = &self.counters;
        for (name, counter) in [
            ("gets", &c.gets),
            ("getm", &c.getm),
            ("inv_sent", &c.inv_sent),
            ("downgrades", &c.downgrades),
            ("l2_hits", &c.l2_hits),
            ("fills", &c.fills),
            ("recalls", &c.recalls),
            ("wc_installs", &c.wc_installs),
        ] {
            obs.adopt_counter(name, counter);
        }
        // Contention-model stats register only when the model is on, so a
        // flat-memory run's stats_json stays byte-identical to before.
        if let Some(dram) = &self.dram_model {
            obs.adopt_counter("mshr_stalls", &c.mshr_stalls);
            obs.adopt_histogram("mshr_wait_depth", &self.mshr_wait_depth);
            dram.attach(obs);
        }
        self.coh = CohTrace {
            trace: Some(obs.trace.clone()),
            tid: obs.tid,
        };
    }

    fn counters(&self) -> Vec<(String, u64)> {
        let c = &self.counters;
        let mut v = vec![
            ("gets".into(), c.gets.get()),
            ("getm".into(), c.getm.get()),
            ("inv_sent".into(), c.inv_sent.get()),
            ("downgrades".into(), c.downgrades.get()),
            ("l2_hits".into(), c.l2_hits.get()),
            ("fills".into(), c.fills.get()),
            ("recalls".into(), c.recalls.get()),
            ("wc_installs".into(), c.wc_installs.get()),
        ];
        if let Some(dram) = &self.dram_model {
            v.push(("mshr_stalls".into(), c.mshr_stalls.get()));
            v.extend(dram.counter_snapshot());
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use std::collections::VecDeque;

    use super::*;
    use crate::component::{step_alone, Outgoing, TileCoord};
    use crate::config::CacheConfig;
    use crate::core::InOrderCore;
    use crate::program::{Op, Program};
    use crate::soc::Soc;

    /// Steps `dir` alone through cycles `start..start + 200`, `mail`
    /// delivered on the first; returns everything it sent, in order.
    fn run_alone(dir: &mut Directory, start: u64, mail: Vec<Envelope>) -> Vec<Outgoing> {
        let mut inbox = VecDeque::from(mail);
        let mut sent = Vec::new();
        for cycle in start..start + 200 {
            sent.extend(step_alone(CompId(0), cycle, &mut inbox, |ctx| {
                dir.step(ctx)
            }));
        }
        sent
    }

    /// Destinations of the sent messages `pick` selects.
    fn sent_to(sent: &[Outgoing], pick: fn(&Msg) -> bool) -> Vec<CompId> {
        sent.iter()
            .filter(|o| pick(&o.env.msg))
            .map(|o| o.dst)
            .collect()
    }

    #[test]
    fn getm_invalidates_sharers_in_join_order() {
        let mut dir = Directory::new(&SocConfig::default());
        let line = 0x8000;
        let sharers = [5, 3, 7].map(CompId);
        let writer = CompId(9);
        let gets = sharers.map(|src| Envelope {
            src,
            msg: Msg::GetS { line },
        });
        let sent = run_alone(&mut dir, 0, gets.to_vec());
        assert_eq!(sent_to(&sent, |m| matches!(m, Msg::DataS { .. })), sharers);

        let getm = Envelope {
            src: writer,
            msg: Msg::GetM {
                line,
                no_fetch: false,
            },
        };
        let sent = run_alone(&mut dir, 1000, vec![getm]);
        assert_eq!(
            sent_to(&sent, |m| matches!(m, Msg::Inv { .. })),
            sharers,
            "Invs go out in the order the sharers joined"
        );

        let acks = sharers.map(|src| Envelope {
            src,
            msg: Msg::InvAck { line },
        });
        let sent = run_alone(&mut dir, 2000, acks.to_vec());
        assert_eq!(sent_to(&sent, |m| matches!(m, Msg::DataM { .. })), [writer]);
        assert!(dir.is_idle());
    }

    #[test]
    fn a_recall_heavy_run_keeps_every_spare_list_within_its_cap() {
        // Two cores write and read back 256 lines each through a 4-line
        // L2: nearly every fill recalls a victim one of them holds.
        let cfg = SocConfig {
            l2: CacheConfig::new(4 * crate::LINE_BYTES, 2),
            ..SocConfig::default()
        };
        let mut soc = Soc::new(cfg.clone());
        let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
        for core in 0..2u64 {
            let va = |i: u64| (core * 256 + i) * crate::LINE_BYTES;
            let mut p = Program::new();
            for i in 0..256 {
                p.push(Op::Store {
                    va: va(i),
                    value: i,
                });
            }
            p.push(Op::Fence);
            for i in 0..256 {
                p.push(Op::Load {
                    va: va(i),
                    record: false,
                });
            }
            let tile = TileCoord::new(1 + core as u16, 0);
            soc.add_component(tile, Box::new(InOrderCore::new(dir, &cfg, p)));
        }
        assert!(soc.run(10_000_000).quiescent);
        let d = soc.component::<Directory>(dir).unwrap();
        let recalls = d.dir_counters().recalls.get();
        assert!(recalls > 4 * SPARE_CAP as u64, "only {recalls} recalls");
        for (name, len) in [
            ("queues", d.spare_queues.0.len()),
            ("sets", d.spare_sets.0.len()),
        ] {
            assert!(
                len <= SPARE_CAP,
                "{len} spare {name} after {recalls} recalls"
            );
        }
    }
}
