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

use std::cmp::Reverse;
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
#[derive(Debug, Clone, PartialEq, Eq)]
enum DirState {
    /// Read-only copies at these agents.
    Shared(Vec<CompId>),
    /// Exclusive/modified copy at this agent.
    Owned(CompId),
}

impl DirState {
    fn holders(&self) -> Vec<CompId> {
        match self {
            DirState::Shared(v) => v.clone(),
            DirState::Owned(o) => vec![*o],
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
    counters: DirCounters,
    trace: Option<Trace>,
    tid: u64,
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
            counters: DirCounters::default(),
            trace: None,
            tid: 0,
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

    /// Emits a coherence-transition instant event when tracing is on.
    fn trace_coh(&self, cycle: u64, name: &'static str, line: u64, agent: CompId) {
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
        let mut queue = VecDeque::new();
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
                let holders = self
                    .states
                    .get(&vline)
                    .map(|s| s.holders())
                    .unwrap_or_default();
                if holders.is_empty() {
                    self.states.remove(&vline);
                    self.proceed(ctx, line);
                } else {
                    self.counters.recalls.inc();
                    self.txns.insert(
                        vline,
                        Txn {
                            queue: VecDeque::new(),
                            phase: Phase::BlockedVictim { parent: line },
                        },
                    );
                    for h in &holders {
                        self.counters.inv_sent.inc();
                        self.trace_coh(ctx.cycle, "Recall", vline, *h);
                        ctx.send(*h, Msg::Inv { line: vline });
                    }
                    self.txns.get_mut(&line).expect("txn").phase = Phase::WaitVictim {
                        remaining: holders.len() as u32,
                    };
                }
            }
        }
    }

    fn proceed(&mut self, ctx: &mut Ctx<'_>, line: u64) {
        let req = *self
            .txns
            .get(&line)
            .and_then(|t| t.queue.front())
            .expect("proceed with empty queue");
        let state = self.states.get(&line).cloned();
        match (req.kind, state) {
            (ReqKind::GetS, None) => {
                self.states.insert(line, DirState::Shared(vec![req.from]));
                self.grant(ctx, line, req, Msg::DataS { line });
            }
            (ReqKind::GetS, Some(DirState::Shared(mut set))) => {
                if !set.contains(&req.from) {
                    set.push(req.from);
                }
                self.states.insert(line, DirState::Shared(set));
                self.grant(ctx, line, req, Msg::DataS { line });
            }
            (ReqKind::GetS, Some(DirState::Owned(o))) if o == req.from => {
                self.states.insert(line, DirState::Shared(vec![req.from]));
                self.grant(ctx, line, req, Msg::DataS { line });
            }
            (ReqKind::GetS, Some(DirState::Owned(o))) => {
                self.counters.downgrades.inc();
                self.trace_coh(ctx.cycle, "Downgrade", line, o);
                ctx.send(o, Msg::Downgrade { line });
                self.txns.get_mut(&line).expect("txn").phase =
                    Phase::WaitDowngradeAck { prev_owner: o };
            }
            (ReqKind::GetM, None) => {
                self.states.insert(line, DirState::Owned(req.from));
                self.grant(ctx, line, req, Msg::DataM { line });
            }
            (ReqKind::GetM, Some(DirState::Shared(set))) => {
                let targets: Vec<CompId> = set.iter().copied().filter(|c| *c != req.from).collect();
                if targets.is_empty() {
                    self.states.insert(line, DirState::Owned(req.from));
                    self.grant(ctx, line, req, Msg::DataM { line });
                } else {
                    for t in &targets {
                        self.counters.inv_sent.inc();
                        self.trace_coh(ctx.cycle, "Inv", line, *t);
                        ctx.send(*t, Msg::Inv { line });
                    }
                    self.txns.get_mut(&line).expect("txn").phase = Phase::WaitInvAcks {
                        remaining: targets.len() as u32,
                    };
                }
            }
            (ReqKind::GetM, Some(DirState::Owned(o))) if o == req.from => {
                self.grant(ctx, line, req, Msg::DataM { line });
            }
            (ReqKind::GetM, Some(DirState::Owned(o))) => {
                self.counters.inv_sent.inc();
                self.trace_coh(ctx.cycle, "Inv", line, o);
                ctx.send(o, Msg::Inv { line });
                self.txns.get_mut(&line).expect("txn").phase = Phase::WaitInvAcks { remaining: 1 };
            }
        }
    }

    fn grant(&mut self, ctx: &mut Ctx<'_>, line: u64, req: Req, msg: Msg) {
        self.trace_coh(ctx.cycle, msg.kind(), line, req.from);
        ctx.send(req.from, msg);
        let txn = self.txns.get_mut(&line).expect("txn");
        txn.queue.pop_front();
        txn.phase = Phase::WaitAccess;
        if txn.queue.is_empty() {
            self.txns.remove(&line);
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
                self.states.insert(line, DirState::Owned(req.from));
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
                    self.states.remove(&line);
                    let vtxn = self.txns.remove(&line).expect("victim txn");
                    self.proceed(ctx, parent);
                    // Requests that queued on the victim while it was being
                    // recalled start over as fresh transactions.
                    for req in vtxn.queue {
                        self.on_request(ctx, line, req);
                    }
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
        let mut set = vec![prev_owner];
        if req.from != prev_owner {
            set.push(req.from);
        }
        self.states.insert(line, DirState::Shared(set));
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
                    self.states.remove(&line);
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
        self.trace = Some(obs.trace.clone());
        self.tid = obs.tid;
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
