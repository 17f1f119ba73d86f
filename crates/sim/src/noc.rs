//! A latency-model 2-D mesh network-on-chip.
//!
//! Latency between two tiles is `noc_base + hops * noc_per_hop +
//! serialization`, where serialization charges one extra cycle per 8-byte
//! flit beyond the head flit. Messages from the same source with equal
//! delivery cycles arrive in injection order (a monotonically increasing
//! sequence number breaks ties), which is what the directory protocol
//! relies on. Across *different* sources, same-cycle ties break on the
//! source tile coordinate — a physical property — rather than on global
//! injection order, so delivery order is invariant under component
//! registration order (part of the determinism contract, see
//! `docs/architecture.md`).
//!
//! The directory protocol also relies on two messages about one line
//! between one pair of components arriving in the order sent, as they do
//! on P-Mesh's dimension-ordered routes. Latency alone would break it: a
//! line grant (eight body flits) is slower than a recall sent within
//! eight cycles of it, and a message sent in the last cycles of a latency
//! spike is slower than the next one. So a coherence message is never
//! due before an earlier one about the same line between the same pair
//! ([`Noc::inject_delayed`]); messages about other lines keep their
//! modelled cycles.
//!
//! Messages in flight wait in one queue per destination, in that
//! `(cycle, src tile, seq)` order. Injection returns the delivery cycle,
//! so the SoC wakes the destination for it and drains its queue
//! ([`Noc::deliver_to`]) just before stepping it.

use std::collections::VecDeque;

use crate::component::{CompId, TileCoord};
use crate::config::TimingConfig;
use crate::faultinject::FaultState;
use crate::hash::U64Map;
use crate::msg::Envelope;
use crate::stats::{Counter, Histogram, Stats};
use crate::trace::Trace;

/// Trace thread id used for NoC flight events (components use their own
/// [`CompId`] index; this is far above any realistic component count).
pub const NOC_TRACE_TID: u64 = 1 << 32;

#[derive(Debug)]
struct InFlight {
    at: u64,
    /// Source tile as a sortable key (`(y, x)`): same-cycle ties across
    /// different sources break on mesh position, not injection order.
    src: (u16, u16),
    seq: u64,
    env: Envelope,
}

impl InFlight {
    fn key(&self) -> (u64, (u16, u16), u64) {
        (self.at, self.src, self.seq)
    }
}

/// Inserts `m` into `queue` by key: a destination's arrivals are almost
/// always in order, so it appends when it can and otherwise walks back
/// from the tail.
fn insert(queue: &mut VecDeque<InFlight>, m: InFlight) {
    let key = m.key();
    if queue.back().is_none_or(|n| n.key() < key) {
        queue.push_back(m);
        return;
    }
    let at = queue
        .iter()
        .rposition(|n| n.key() < key)
        .map_or(0, |p| p + 1);
    queue.insert(at, m);
}

/// The mesh interconnect: computes delivery times and holds in-flight
/// messages.
#[derive(Debug)]
pub struct Noc {
    base: u64,
    per_hop: u64,
    /// In-flight messages per destination slot, in key order.
    queues: Vec<VecDeque<InFlight>>,
    /// Messages in flight over all queues.
    in_flight: usize,
    seq: u64,
    /// Latest delivery cycle of any coherence message injected so far,
    /// per `(src, dst)` pair: a message due no earlier overtakes nothing.
    latest: U64Map<u64>,
    delivered: Counter,
    flits: Counter,
    hop_latency: Histogram,
    hops: Histogram,
    trace: Option<Trace>,
    /// The shared fault switches: messages injected inside a
    /// latency-spike window take `factor`× their modelled latency.
    faults: FaultState,
    /// Messages ejected into one destination per cycle before the rest
    /// slip a cycle (`None` = unlimited, the default). Enabled by the
    /// DRAM contention model so a hot destination (the directory) also
    /// backs traffic up in the mesh instead of draining instantly.
    ejection_width: Option<u64>,
    /// Deliveries deferred by the ejection limit.
    ejection_deferred: Counter,
}

impl Noc {
    /// Creates a NoC using the latency constants from `timing`, reading
    /// the latency-spike switch from `faults`.
    pub fn new(timing: &TimingConfig, faults: FaultState) -> Self {
        Self {
            base: timing.noc_base,
            per_hop: timing.noc_per_hop,
            queues: Vec::new(),
            in_flight: 0,
            seq: 0,
            // Room for a few hundred pairs from the start, so that the
            // table does not regrow among a run's large allocations.
            latest: U64Map::with_capacity_and_hasher(256, Default::default()),
            delivered: Counter::new(),
            flits: Counter::new(),
            hop_latency: Histogram::new(),
            hops: Histogram::new(),
            trace: None,
            faults,
            ejection_width: None,
            ejection_deferred: Counter::new(),
        }
    }

    /// Caps deliveries into a single destination per simulated cycle;
    /// `0` means unlimited. Called by the SoC when the DRAM contention
    /// model is enabled.
    pub fn set_ejection_width(&mut self, width: u64) {
        self.ejection_width = (width > 0).then_some(width);
    }

    /// Registers the NoC's counters and histograms in `stats` and keeps a
    /// trace handle for per-message flight events. Called by the SoC.
    pub fn attach(&mut self, stats: &Stats, trace: &Trace) {
        stats.adopt_counter("noc.delivered", &self.delivered);
        stats.adopt_counter("noc.flits", &self.flits);
        stats.adopt_histogram("noc.hop_latency", &self.hop_latency);
        stats.adopt_histogram("noc.hops", &self.hops);
        // Registered only when the limit is armed so flat-memory runs keep
        // a byte-identical stats_json.
        if self.ejection_width.is_some() {
            stats.adopt_counter("noc.ejection_deferred", &self.ejection_deferred);
        }
        trace.name_thread(NOC_TRACE_TID, "noc");
        self.trace = Some(trace.clone());
    }

    /// Latency in cycles for a message of `payload_bytes` between two tiles.
    pub fn latency(&self, from: TileCoord, to: TileCoord, payload_bytes: u64) -> u64 {
        let serialization = payload_bytes / 8; // one cycle per body flit
        self.base + from.hops_to(to) * self.per_hop + serialization
    }

    /// Injects a message at `cycle` with `extra` cycles of sender-side
    /// delay; it will be delivered after that and the routing latency
    /// (always at least one cycle later). Returns the delivery cycle.
    ///
    /// A coherence message that its modelled latency would deliver ahead
    /// of an earlier one about the same line between the same two
    /// components is held back to that message's cycle, and the
    /// `(cycle, src tile, seq)` key then delivers it second.
    pub fn inject_delayed(
        &mut self,
        cycle: u64,
        from: TileCoord,
        to: TileCoord,
        dst: CompId,
        env: Envelope,
        extra: u64,
    ) -> u64 {
        let spike = self.faults.latency_factor(cycle);
        let modelled = (self.latency(from, to, env.msg.payload_bytes()) + extra)
            .max(1)
            .saturating_mul(spike);
        let mut at = cycle + modelled;
        if self.queues.len() <= dst.0 {
            self.queues.resize_with(dst.0 + 1, VecDeque::new);
        }
        let queue = &mut self.queues[dst.0];
        if let Some(line) = env.msg.line() {
            let latest = self
                .latest
                .entry((env.src.0 as u64) << 32 | dst.0 as u64)
                .or_default();
            if at >= *latest {
                *latest = at;
            } else {
                for m in queue.iter() {
                    if m.env.src == env.src && m.env.msg.line() == Some(line) {
                        at = at.max(m.at);
                    }
                }
            }
        }
        let lat = at - cycle;
        self.seq += 1;
        self.flits.add(1 + env.msg.payload_bytes() / 8);
        self.hop_latency.record(lat);
        self.hops.record(from.hops_to(to));
        if let Some(trace) = self.trace.as_ref().filter(|t| t.is_enabled()) {
            let mut args = vec![
                ("src", env.src.to_string()),
                ("dst", dst.to_string()),
                ("hops", from.hops_to(to).to_string()),
            ];
            if let Some(line) = env.msg.line() {
                args.push(("line", format!("{line:#x}")));
            }
            trace.complete(NOC_TRACE_TID, "noc", env.msg.kind(), cycle, lat, args);
        }
        let src = (from.y, from.x);
        insert(
            queue,
            InFlight {
                at,
                src,
                seq: self.seq,
                env,
            },
        );
        self.in_flight += 1;
        at
    }

    /// Hands `sink` every message for `dst` due at or before `cycle`, in
    /// `(cycle, src tile, seq)` order.
    ///
    /// With an ejection width armed, at most `width` messages per due
    /// cycle reach the destination; the overflow slips one cycle (keeping
    /// its `(src, seq)` tie-break key, so ordering stays deterministic and
    /// source-FIFO). The slipped cycle is visible through
    /// [`Noc::next_delivery_to`], which is what wakes the destination for
    /// it.
    pub fn deliver_to(&mut self, dst: CompId, cycle: u64, mut sink: impl FnMut(Envelope)) {
        let Some(queue) = self.queues.get_mut(dst.0) else {
            return;
        };
        // The due cycle being drained and how many it has ejected.
        let (mut draining_at, mut ejected) = (u64::MAX, 0);
        while queue.front().is_some_and(|m| m.at <= cycle) {
            let m = queue.pop_front().expect("checked");
            if let Some(width) = self.ejection_width {
                if m.at != draining_at {
                    (draining_at, ejected) = (m.at, 0);
                }
                if ejected >= width {
                    self.ejection_deferred.inc();
                    insert(queue, InFlight { at: m.at + 1, ..m });
                    continue;
                }
                ejected += 1;
            }
            self.in_flight -= 1;
            self.delivered.inc();
            sink(m.env);
        }
    }

    /// Cycle of the earliest pending delivery to `dst`, `u64::MAX` if none.
    pub fn next_delivery_to(&self, dst: CompId) -> u64 {
        self.queues
            .get(dst.0)
            .and_then(VecDeque::front)
            .map_or(u64::MAX, |m| m.at)
    }

    /// True when no messages are in flight.
    pub fn is_empty(&self) -> bool {
        self.in_flight == 0
    }

    /// Per-message latency distribution (cycles from injection to
    /// delivery, including sender-side delay).
    pub fn hop_latency(&self) -> &Histogram {
        &self.hop_latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::msg::Msg;

    fn env(line: u64) -> Envelope {
        Envelope {
            src: CompId(0),
            msg: Msg::GetS { line },
        }
    }

    #[test]
    fn latency_grows_with_distance_and_size() {
        let noc = Noc::new(&TimingConfig::default(), FaultState::default());
        let a = TileCoord::new(0, 0);
        let b = TileCoord::new(1, 1);
        assert!(noc.latency(a, b, 0) > noc.latency(a, a, 0));
        assert!(noc.latency(a, b, 64) > noc.latency(a, b, 0));
    }

    #[test]
    fn fifo_between_same_pair() {
        let mut noc = Noc::new(&TimingConfig::default(), FaultState::default());
        let a = TileCoord::new(0, 0);
        noc.inject_delayed(0, a, a, CompId(1), env(0x40), 0);
        noc.inject_delayed(0, a, a, CompId(1), env(0x80), 0);
        let mut seen = Vec::new();
        noc.deliver_to(CompId(1), 100, |e| seen.push(e.msg.line().unwrap()));
        assert_eq!(seen, vec![0x40, 0x80]);
        assert!(noc.is_empty());
    }

    #[test]
    fn one_lines_messages_between_one_pair_arrive_in_the_order_sent() {
        // A line grant carries eight body flits, so a head-flit message
        // sent up to seven cycles behind it would arrive first. About
        // another line, to another component, or in a dead heat (injection
        // order wins) that is the model working as intended, and each
        // message keeps its modelled cycle; about the same line the later
        // message is held back to the earlier one's cycle and goes second.
        let mut noc = Noc::new(&TimingConfig::default(), FaultState::default());
        let (a, b) = (TileCoord::new(0, 0), TileCoord::new(1, 0));
        let mut send = |cycle, dst, msg| {
            let src = CompId(0);
            noc.inject_delayed(cycle, a, b, CompId(dst), Envelope { src, msg }, 0);
        };
        send(0, 1, Msg::DataS { line: 0x40 });
        send(1, 1, Msg::Inv { line: 0x80 });
        send(1, 2, Msg::Inv { line: 0x40 });
        send(8, 1, Msg::Inv { line: 0x40 });
        send(10, 1, Msg::DataM { line: 0xc0 });
        send(11, 1, Msg::Downgrade { line: 0xc0 });
        let mut got = Vec::new();
        for cycle in 0..100 {
            for dst in [1, 2] {
                noc.deliver_to(CompId(dst), cycle, |e| got.push((cycle, dst, e.msg)));
            }
        }
        let (head, grant) = (noc.latency(a, b, 0), noc.latency(a, b, 64));
        assert_eq!(grant, head + 8);
        let want = vec![
            (1 + head, 1, Msg::Inv { line: 0x80 }),
            (1 + head, 2, Msg::Inv { line: 0x40 }),
            (grant, 1, Msg::DataS { line: 0x40 }),
            (grant, 1, Msg::Inv { line: 0x40 }),
            (10 + grant, 1, Msg::DataM { line: 0xc0 }),
            (10 + grant, 1, Msg::Downgrade { line: 0xc0 }),
        ];
        assert_eq!(got, want);
    }

    #[test]
    fn fuzzed_traffic_keeps_each_lines_order_and_otherwise_its_modelled_cycle() {
        // Three components on three tiles send head-flit and line-sized
        // messages about four lines, one ejection per destination per
        // cycle, with or without a latency spike. Consecutive messages on
        // one (src, dst, line) triple are always of different kinds, so a
        // swap shows as a different kind at the front of the triple.
        use crate::faultinject::splitmix64;
        use std::collections::{HashMap, VecDeque};
        const HEAD: [fn(u64) -> Msg; 4] = [
            |line| Msg::Inv { line },
            |line| Msg::Downgrade { line },
            |line| Msg::GetS { line },
            |line| Msg::InvAck { line },
        ];
        const GRANT: [fn(u64) -> Msg; 2] = [|line| Msg::DataS { line }, |line| Msg::DataM { line }];
        #[derive(Default)]
        struct Triple {
            sent: usize,
            /// In injection order: the message, its modelled cycle, and
            /// whether nothing was in flight ahead of it when sent.
            flight: VecDeque<(Msg, u64, bool)>,
        }
        let tiles = [
            TileCoord::new(0, 0),
            TileCoord::new(2, 1),
            TileCoord::new(1, 3),
        ];
        for seed in 0..64 {
            let mut rng = seed;
            let mut draw = |n: u64| splitmix64(&mut rng) % n;
            let faults = FaultState::default();
            if draw(2) == 0 {
                faults.set_latency_spike(100 + draw(200), 2 + draw(3));
            }
            let mut noc = Noc::new(&TimingConfig::default(), faults.clone());
            noc.set_ejection_width(1);
            let mut triples: HashMap<(usize, usize, u64), Triple> = HashMap::new();
            let mut ejected: HashMap<(usize, u64), u64> = HashMap::new();
            let mut cycle: u64 = 0;
            while cycle < 400 || !noc.is_empty() {
                for dst in 0..3 {
                    noc.deliver_to(CompId(dst), cycle, |e| {
                        let line = e.msg.line().expect("coherence traffic only");
                        let key = (e.src.0, dst, line);
                        let triple = triples.get_mut(&key).expect("sent on this triple");
                        let (msg, modelled, alone) = triple.flight.pop_front().expect("in flight");
                        assert_eq!(e.msg, msg, "seed {seed}: {key:?} out of order at {cycle}");
                        assert!(cycle >= modelled, "seed {seed}: {msg:?} early");
                        // Alone on its triple, a message is late only by
                        // cycles its destination spent ejecting another.
                        if alone {
                            for c in modelled..cycle {
                                let n = ejected.get(&(dst, c)).copied().unwrap_or(0);
                                assert_eq!(n, 1, "seed {seed}: {msg:?} held at {c}");
                            }
                        }
                        *ejected.entry((dst, cycle)).or_default() += 1;
                    });
                }
                let sends = if cycle < 400 { draw(3) } else { 0 };
                for _ in 0..sends {
                    let src = draw(3) as usize;
                    let dst = (src + 1 + draw(2) as usize) % 3;
                    let line = 0x40 * (1 + draw(4));
                    let triple = triples.entry((src, dst, line)).or_default();
                    triple.sent += 1;
                    let msg = match draw(2) {
                        0 => HEAD[triple.sent % HEAD.len()](line),
                        _ => GRANT[triple.sent % GRANT.len()](line),
                    };
                    let (from, to) = (tiles[src], tiles[dst]);
                    let lat = noc.latency(from, to, msg.payload_bytes());
                    let modelled = cycle + lat.max(1) * faults.latency_factor(cycle);
                    let alone = triple.flight.is_empty();
                    triple.flight.push_back((msg.clone(), modelled, alone));
                    let env = Envelope {
                        src: CompId(src),
                        msg,
                    };
                    noc.inject_delayed(cycle, from, to, CompId(dst), env, 0);
                }
                cycle += 1;
            }
            assert!(triples.values().all(|t| t.flight.is_empty()));
        }
    }

    #[test]
    fn not_delivered_early() {
        let mut noc = Noc::new(&TimingConfig::default(), FaultState::default());
        let a = TileCoord::new(0, 0);
        let b = TileCoord::new(3, 0);
        noc.inject_delayed(0, a, b, CompId(1), env(0), 0);
        let mut n = 0;
        noc.deliver_to(CompId(1), 1, |_| n += 1);
        assert_eq!(n, 0, "3-hop message cannot arrive after 1 cycle");
        assert_eq!(noc.next_delivery_to(CompId(1)), noc.latency(a, b, 0));
        assert_eq!(noc.next_delivery_to(CompId(0)), u64::MAX, "none for slot 0");
        noc.deliver_to(CompId(1), 1000, |_| n += 1);
        assert_eq!(n, 1);
    }

    #[test]
    fn latency_spike_window_multiplies_and_closes() {
        let fs = FaultState::default();
        let mut noc = Noc::new(&TimingConfig::default(), fs.clone());
        let a = TileCoord::new(0, 0);
        let b = TileCoord::new(1, 0);
        let base = noc.latency(a, b, 0);
        fs.set_latency_spike(100, 4);
        noc.inject_delayed(0, a, b, CompId(1), env(0x40), 0); // inside the window
        assert_eq!(noc.next_delivery_to(CompId(1)), 4 * base);
        noc.inject_delayed(100, a, b, CompId(1), env(0x80), 0); // window closed
        let mut due: Vec<u64> = Vec::new();
        noc.deliver_to(CompId(1), 1_000, |e| due.push(e.msg.line().unwrap()));
        assert_eq!(due.len(), 2);
        assert_eq!(noc.hop_latency().count(), 2);
    }

    #[test]
    fn minimum_one_cycle() {
        let timing = TimingConfig {
            noc_base: 0,
            noc_per_hop: 0,
            ..TimingConfig::default()
        };
        let mut noc = Noc::new(&timing, FaultState::default());
        let a = TileCoord::new(0, 0);
        noc.inject_delayed(5, a, a, CompId(0), env(0), 0);
        let mut n = 0;
        noc.deliver_to(CompId(0), 5, |_| n += 1);
        assert_eq!(n, 0, "same-cycle delivery is not allowed");
    }
}
