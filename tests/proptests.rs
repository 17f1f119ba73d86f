//! Property-style tests over the core data structures and invariants.
//!
//! These were originally written with `proptest`; to keep the workspace
//! building fully offline they now use a deterministic splitmix64 case
//! generator ([`Rng`]) with a fixed seed per property — every run explores
//! the same case set, so failures are trivially reproducible.

use cohort_accel::ratchet::Ratchet;
use cohort_accel::sha256::{sha256, Sha256};
use cohort_os::frame::FrameAllocator;
use cohort_os::sv39::{self, pte_flags, PageSize};
use cohort_queue::{spsc_channel, QueueLayout};
use cohort_sim::mem::{MemAccess, PhysMem};

const CASES: u64 = 64;

/// Deterministic splitmix64 generator used to synthesise test cases.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform value in `[lo, hi)`.
    fn range(&mut self, lo: u64, hi: u64) -> u64 {
        lo + self.next_u64() % (hi - lo)
    }

    fn bytes(&mut self, len: usize) -> Vec<u8> {
        (0..len).map(|_| self.next_u64() as u8).collect()
    }
}

/// The SPSC queue behaves exactly like a FIFO under any interleaving of
/// pushes, pops, staged pushes and publications.
#[test]
fn spsc_matches_model() {
    let mut rng = Rng::new(0x5b5c);
    for _ in 0..CASES {
        let cap = rng.range(1, 16) as usize;
        let n_ops = rng.range(1, 200);
        let (mut tx, mut rx) = spsc_channel::<u64>(cap);
        let mut model: std::collections::VecDeque<u64> = Default::default();
        let mut staged: Vec<u64> = Vec::new();
        let mut next = 0u64;
        for _ in 0..n_ops {
            match rng.range(0, 5) {
                0 => {
                    if tx.stage(next).is_ok() {
                        staged.push(next);
                        next += 1;
                    } else {
                        assert!(model.len() + staged.len() >= cap);
                    }
                }
                1 => {
                    tx.publish();
                    model.extend(staged.drain(..));
                }
                2 => {
                    if tx.push(next).is_ok() {
                        model.extend(staged.drain(..));
                        model.push_back(next);
                        next += 1;
                    }
                }
                _ => {
                    assert_eq!(rx.pop(), model.pop_front());
                }
            }
        }
        tx.publish();
        model.extend(staged.drain(..));
        while let Some(expect) = model.pop_front() {
            assert_eq!(rx.pop(), Some(expect));
        }
        assert_eq!(rx.pop(), None);
    }
}

/// Bytes pushed through a ratchet come out identical in order.
#[test]
fn ratchet_roundtrip() {
    let mut rng = Rng::new(0x4a7c);
    for _ in 0..CASES {
        let len = rng.range(0, 512) as usize;
        let data = rng.bytes(len);
        let block = rng.range(1, 96) as usize;
        let mut r = Ratchet::new(block);
        r.push_bytes(&data);
        let mut out = Vec::new();
        while r.pop_block_with(|b| out.extend_from_slice(b)).is_some() {}
        assert_eq!(&out[..], &data[..out.len()]);
        assert!(
            data.len() - out.len() < block,
            "at most a partial block retained"
        );
        if let Some(tail) = r.flush_padded() {
            assert_eq!(&tail[..data.len() - out.len()], &data[out.len()..]);
        }
    }
}

/// SHA-256 streaming is split-invariant.
#[test]
fn sha_split_invariance() {
    let mut rng = Rng::new(0x5a);
    for _ in 0..CASES {
        let len = rng.range(0, 300) as usize;
        let data = rng.bytes(len);
        let split = (rng.range(0, 300) as usize).min(data.len());
        let mut h = Sha256::new();
        h.update(&data[..split]);
        h.update(&data[split..]);
        assert_eq!(h.finalize(), sha256(&data));
    }
}

/// Sv39: for any set of disjoint 4 KiB mappings, the walker agrees with the
/// mapping and unmapped addresses fault.
#[test]
fn sv39_walk_agrees_with_mappings() {
    let mut rng = Rng::new(0x539);
    for _ in 0..CASES {
        let mut pages = std::collections::BTreeSet::new();
        for _ in 0..rng.range(1, 24) {
            pages.insert(rng.range(0, 512));
        }
        let mut mem = PhysMem::new();
        let mut frames = FrameAllocator::new(0x100_0000, 0x800_0000);
        let root = frames.alloc();
        let mut expect = std::collections::HashMap::new();
        for &p in &pages {
            let va = 0x4000_0000 + p * 4096;
            let pa = frames.alloc();
            sv39::map(
                &mut mem,
                root,
                va,
                pa,
                PageSize::Base,
                pte_flags::DATA,
                || frames.alloc(),
            );
            expect.insert(va, pa);
        }
        for &p in &pages {
            let va = 0x4000_0000 + p * 4096;
            let r = sv39::walk(&mem, root, va + 123).expect("mapped");
            assert_eq!(r.pa, expect[&va] + 123);
        }
        // An address beyond the mapped window faults.
        assert!(sv39::walk(&mem, root, 0x4000_0000 + 600 * 4096).is_none());
    }
}

/// Queue layouts never alias: indices and data are on disjoint lines and
/// the descriptor validates, for any power-of-two geometry; non-power-of-two
/// lengths are rejected by descriptor validation.
#[test]
fn queue_layout_invariants() {
    let mut rng = Rng::new(0x1a07);
    for _ in 0..CASES {
        let elem_words = rng.range(1, 16) as u32;
        let len = 1u32 << rng.range(0, 10);
        let layout = QueueLayout::standard(0x10_000, elem_words * 8, len);
        let d = layout.descriptor;
        assert!(d.validate().is_ok());
        assert!(d.base_va >= layout.region_start);
        assert!(d.base_va + d.data_bytes() <= layout.region_end());
        assert_ne!(d.write_index_va / 64, d.read_index_va / 64);

        // Any non-power-of-two length fails fallible construction.
        let bad_len = rng.range(3, 512) as u32;
        if !bad_len.is_power_of_two() {
            assert!(cohort_queue::QueueDescriptor::try_new(
                0x10_000,
                0x10_040,
                0x10_080,
                elem_words * 8,
                bad_len,
            )
            .is_err());
        }
    }
}

/// The fault grammar is total over arbitrary token soup: `FaultPlan::parse`
/// either accepts or returns a structured [`FaultSpecError`] — it never
/// panics — and every accepted plan schedules deterministically. This is
/// the same parser behind `socrun --faults` and the fleet spec loader's
/// `faults =` key, so a panic here would wedge both front ends.
#[test]
fn fault_grammar_is_total() {
    use cohort_sim::faultinject::FaultPlan;
    let tokens = [
        "stall",
        "spike",
        "storm",
        "corrupt",
        "kill",
        "maple-stall",
        "maple-kill",
        "random",
        "@",
        ":",
        ";",
        ",",
        "=",
        "|",
        "forever",
        "seed",
        "count",
        "from",
        "to",
        "0",
        "1",
        "60000",
        "18446744073709551615",
        "0x10",
        "-3",
        " ",
        "banana",
    ];
    let mut rng = Rng::new(0xfa01);
    for _ in 0..(CASES * 8) {
        let n = rng.range(0, 14) as usize;
        let mut spec = String::new();
        for _ in 0..n {
            spec.push_str(tokens[rng.range(0, tokens.len() as u64) as usize]);
        }
        match FaultPlan::parse(&spec) {
            Ok(plan) => {
                // Scheduling is a pure function of the plan: two calls
                // agree event for event.
                assert_eq!(plan.schedule(), plan.schedule());
            }
            Err(e) => assert!(!e.to_string().is_empty(), "silent error for {spec:?}"),
        }
    }
}

/// Well-formed fault specs generated from the grammar always parse, and
/// the scheduled event count matches what was written (random entries
/// expand to exactly `count` events inside their window).
#[test]
fn fault_grammar_accepts_generated_specs() {
    use cohort_sim::faultinject::FaultPlan;
    let mut rng = Rng::new(0xfa02);
    for _ in 0..CASES {
        let n_events = rng.range(1, 8);
        let mut entries = Vec::new();
        for _ in 0..n_events {
            let c = rng.range(1, 1 << 30);
            entries.push(match rng.range(0, 5) {
                0 => format!("stall@{c}:{}", rng.range(1, 10_000)),
                1 => format!("spike@{c}:{}:{}", rng.range(1, 10_000), rng.range(2, 16)),
                2 => format!("storm@{c}:{}", rng.range(1, 32)),
                3 => format!("corrupt@{c}"),
                _ => format!("kill@{c}:{}", rng.range(0, 4)),
            });
        }
        let count = rng.range(1, 16);
        let from = rng.range(0, 1 << 20);
        let to = from + rng.range(1, 1 << 20);
        let with_random = rng.range(0, 2) == 0;
        if with_random {
            entries.push(format!(
                "random:seed={},count={count},from={from},to={to}",
                rng.next_u64() >> 1
            ));
        }
        let spec = entries.join("; ");
        let plan = FaultPlan::parse(&spec)
            .unwrap_or_else(|e| panic!("generated spec rejected: {spec:?}: {e}"));
        let scheduled = plan.schedule();
        let expect = n_events + if with_random { count } else { 0 };
        assert_eq!(scheduled.len() as u64, expect, "spec {spec:?}");
        // The schedule is sorted by cycle, and random draws respect
        // their window.
        assert!(scheduled.windows(2).all(|w| w[0].at_cycle <= w[1].at_cycle));
        if with_random {
            let fixed: std::collections::HashSet<u64> = (0..n_events)
                .map(|i| entries[i as usize].split('@').nth(1).unwrap())
                .map(|s| s.split([':', '|']).next().unwrap().parse().unwrap())
                .collect();
            for ev in scheduled.iter().filter(|e| !fixed.contains(&e.at_cycle)) {
                assert!(
                    (from..to).contains(&ev.at_cycle),
                    "random event at {} outside [{from}, {to}) in {spec:?}",
                    ev.at_cycle
                );
            }
        }
    }
}

/// Any clause list over the DRAM spec grammar either parses to exactly the
/// numbers written or is refused — `from_spec` never panics and never
/// narrows. It is the parser behind `socrun --dram` and the fleet spec's
/// `dram =` key. Values sit at the edges of the fields' widths: a
/// `channels`/`banks` value above `u32::MAX` must be refused, not wrapped.
#[test]
fn dram_spec_grammar_is_total() {
    use cohort_sim::dram::{DramConfig, DramSpecError};
    const KEYS: [&str; 8] = [
        "channels", "banks", "rowlines", "hit", "miss", "queue", "mshrs", "ejection",
    ];
    let fields = |c: &DramConfig| {
        [
            u64::from(c.channels),
            u64::from(c.banks),
            c.row_lines,
            c.t_row_hit,
            c.t_row_miss,
            c.queue_depth as u64,
            c.mshrs as u64,
            c.noc_ejection,
        ]
    };
    let mut rng = Rng::new(0xd5a7);
    for _ in 0..(CASES * 16) {
        let mut written = fields(&DramConfig::default());
        let (mut garbage, mut too_wide) = (false, false);
        let mut clauses = Vec::new();
        for _ in 0..rng.range(1, 7) {
            let value = match rng.range(0, 7) {
                0 => 0,
                1 => 1,
                2 => rng.range(2, 100),
                3 => u64::from(u32::MAX),
                4 => 1 << 32,
                5 => (1 << 32) + 1,
                _ => u64::MAX,
            };
            clauses.push(match rng.range(0, 10) {
                0 => {
                    garbage = true;
                    ["banana=3", "channels", "=4", ",", "hit=x", "miss=-1"]
                        [rng.range(0, 6) as usize]
                        .to_string()
                }
                _ => {
                    let k = rng.range(0, 8) as usize;
                    too_wide |= k < 2 && value > u64::from(u32::MAX);
                    written[k] = value;
                    format!(" {}={value}", KEYS[k])
                }
            });
        }
        let spec = clauses.join(",");
        // `validate`: every field but miss and ejection nonzero, miss >= hit.
        let valid =
            written[0..4].iter().chain(&written[5..7]).all(|&v| v > 0) && written[4] >= written[3];
        match DramConfig::from_spec(&spec) {
            Ok(cfg) => {
                assert!(!garbage && !too_wide, "accepted {spec:?} as {cfg:?}");
                assert_eq!(fields(&cfg), written, "spec {spec:?}");
            }
            Err(e) => {
                assert!(garbage || too_wide || !valid, "refused {spec:?}: {e}");
                if too_wide && !garbage {
                    assert!(
                        matches!(e, DramSpecError::BadValue { .. }),
                        "{spec:?}: {e:?}"
                    );
                }
            }
        }
    }
}

/// PhysMem reads always return what was last written, across page
/// boundaries.
#[test]
fn physmem_write_read() {
    let mut rng = Rng::new(0x3e3);
    for _ in 0..CASES {
        let mut mem = PhysMem::new();
        let mut model = std::collections::HashMap::new();
        for _ in 0..rng.range(1, 64) {
            let addr = rng.range(0, 20_000) & !7; // aligned words for the model
            let value = rng.next_u64();
            mem.write_u64(addr, value);
            model.insert(addr, value);
        }
        for (&addr, &value) in &model {
            assert_eq!(mem.read_u64(addr), value);
        }
    }
}

/// A probe component that sends a benign message to its peer at each of a
/// pre-scheduled, sorted list of cycles and records the cycle at which
/// every inbound message arrives. Its lookahead hint is exactly the model:
/// quiescent until the next scheduled send.
struct ScheduledSender {
    peer: cohort_sim::component::CompId,
    sends: std::collections::VecDeque<u64>,
    received_at: Vec<u64>,
}

impl cohort_sim::component::Component for ScheduledSender {
    fn name(&self) -> &str {
        "sched-sender"
    }

    fn step(&mut self, ctx: &mut cohort_sim::component::Ctx<'_>) {
        while let Some(env) = ctx.recv() {
            if let cohort_sim::msg::Msg::MmioWriteResp { .. } = env.msg {
                self.received_at.push(ctx.cycle);
            }
        }
        while self.sends.front().is_some_and(|&c| c <= ctx.cycle) {
            let c = self.sends.pop_front().expect("front checked");
            ctx.send(self.peer, cohort_sim::msg::Msg::MmioWriteResp { tag: c });
        }
    }

    fn is_idle(&self) -> bool {
        self.sends.is_empty()
    }

    fn quiescent_for(&self, now: u64) -> u64 {
        self.sends
            .front()
            .map_or(u64::MAX, |&c| c.saturating_sub(now))
    }
}

/// Builds a fuzzed probe SoC: two [`ScheduledSender`]s pinging each other
/// at random cycles plus (sometimes) a fuzzed fault plan driven by a real
/// [`cohort_sim::faultinject::FaultInjector`]. Returns the SoC and the
/// sorted union of *model event cycles*: every scheduled send and every
/// fault-plan entry. Deliveries and component reactions can only occur at
/// or after these cycles, so the lookahead horizon must never jump past
/// the next one.
fn fuzzed_probe_soc(
    rng: &mut Rng,
    lookahead: cohort_sim::config::Lookahead,
) -> (cohort_sim::soc::Soc, Vec<u64>) {
    use cohort_sim::component::{CompId, TileCoord};
    use cohort_sim::faultinject::{FaultInjector, FaultKind, FaultPlan};

    let sched = |rng: &mut Rng| -> std::collections::VecDeque<u64> {
        let n = rng.range(1, 10) as usize;
        let mut v: Vec<u64> = (0..n).map(|_| rng.range(1, 1_500)).collect();
        v.sort_unstable();
        v.dedup();
        v.into()
    };
    let a = sched(rng);
    let b = sched(rng);

    let mut plan = FaultPlan::default();
    for _ in 0..rng.range(0, 4) {
        let at = rng.range(1, 1_500);
        let kind = match rng.range(0, 4) {
            0 => FaultKind::AccelStall {
                cycles: rng.range(1, 400),
            },
            1 => FaultKind::LatencySpike {
                cycles: rng.range(1, 400),
                factor: rng.range(2, 6),
            },
            2 => FaultKind::PageFaultStorm {
                pages: rng.range(1, 4),
            },
            _ => FaultKind::CorruptDescriptor,
        };
        plan = plan.at(at, kind);
    }

    let mut events: Vec<u64> = a.iter().chain(b.iter()).copied().collect();
    events.extend(plan.schedule().iter().map(|e| e.at_cycle));
    events.sort_unstable();
    events.dedup();

    let cfg = cohort_sim::config::SocConfig::default()
        .with_faults(plan.clone())
        .with_lookahead(lookahead);
    let mut soc = cohort_sim::soc::Soc::new(cfg);
    soc.add_component(
        TileCoord::new(0, 0),
        Box::new(ScheduledSender {
            peer: CompId(1),
            sends: a,
            received_at: Vec::new(),
        }),
    );
    soc.add_component(
        TileCoord::new(1, 0),
        Box::new(ScheduledSender {
            peer: CompId(0),
            sends: b,
            received_at: Vec::new(),
        }),
    );
    if !plan.is_empty() {
        let inj = FaultInjector::new(&plan, soc.fault_state().clone());
        soc.add_component(TileCoord::new(2, 0), Box::new(inj));
    }
    (soc, events)
}

/// The DRAM channel queues honour their configured bound under arbitrary
/// request streams: observable occupancy never exceeds `queue_depth`, a
/// rejection's retry cycle is in the future and really has a free slot,
/// and `next_event` agrees exactly with a mirror of the accepted
/// completion set (the hint can never skip a bank event).
#[test]
fn dram_queue_depth_never_exceeds_bound() {
    use cohort_sim::dram::{DramConfig, DramModel};

    let mut rng = Rng::new(0xd7a1);
    for _ in 0..CASES {
        let channels = rng.range(1, 4);
        let queue = rng.range(1, 6) as usize;
        let hit = rng.range(1, 30);
        let miss = hit + rng.range(0, 60);
        let spec = format!(
            "channels={channels},banks={},rowlines={},hit={hit},miss={miss},queue={queue}",
            rng.range(1, 4),
            rng.range(1, 8),
        );
        let mut m = DramModel::new(DramConfig::from_spec(&spec).expect("generated spec parses"));
        let mut outstanding: Vec<u64> = Vec::new();
        let mut at = 0u64;
        for _ in 0..400 {
            at += rng.range(0, 12);
            let line = rng.range(0, 64) * cohort_sim::LINE_BYTES;
            match m.enqueue(at, line) {
                Ok(done) => {
                    assert!(done > at, "completion in the past: at={at} done={done}");
                    outstanding.push(done);
                }
                Err(retry) => {
                    assert!(
                        retry > at,
                        "retry must be in the future: at={at} retry={retry}"
                    );
                    // At the retry cycle one slot is guaranteed free.
                    at = retry;
                    let done = m.enqueue(at, line).expect("slot freed at retry cycle");
                    outstanding.push(done);
                }
            }
            for ch in 0..channels as usize {
                let d = m.depth(ch, at);
                assert!(d <= queue, "channel {ch} depth {d} exceeds bound {queue}");
            }
            let expect = outstanding.iter().copied().filter(|&d| d > at).min();
            assert_eq!(m.next_event(at), expect, "hint diverged from the model");
        }
    }
}

/// A probe that requests read-shared lines from the directory at
/// pre-scheduled cycles and records when the data grants arrive. It also
/// acknowledges invalidations/downgrades so directory recalls never
/// wedge. Like [`ScheduledSender`], its hint is exactly the model.
struct DramRequester {
    dir: cohort_sim::component::CompId,
    /// `(cycle, line)` pairs, sorted by cycle.
    sends: std::collections::VecDeque<(u64, u64)>,
    received_at: Vec<u64>,
}

impl cohort_sim::component::Component for DramRequester {
    fn name(&self) -> &str {
        "dram-requester"
    }

    fn step(&mut self, ctx: &mut cohort_sim::component::Ctx<'_>) {
        use cohort_sim::msg::Msg;
        while let Some(env) = ctx.recv() {
            match env.msg {
                Msg::DataS { .. } | Msg::DataM { .. } => self.received_at.push(ctx.cycle),
                Msg::Inv { line } => ctx.send(self.dir, Msg::InvAck { line }),
                Msg::Downgrade { line } => ctx.send(self.dir, Msg::DowngradeAck { line }),
                _ => {}
            }
        }
        while self.sends.front().is_some_and(|&(c, _)| c <= ctx.cycle) {
            let (_, line) = self.sends.pop_front().expect("front checked");
            ctx.send(self.dir, cohort_sim::msg::Msg::GetS { line });
        }
    }

    fn is_idle(&self) -> bool {
        self.sends.is_empty()
    }

    fn quiescent_for(&self, now: u64) -> u64 {
        self.sends
            .front()
            .map_or(u64::MAX, |&(c, _)| c.saturating_sub(now))
    }
}

/// A deliberately starved DRAM geometry so short fuzzed runs still hit
/// channel-queue rejects, MSHR waits and NoC ejection deferrals.
const DRAM_FUZZ_SPEC: &str = "channels=1,banks=2,queue=2,miss=60,mshrs=4,ejection=1";

/// Builds a fuzzed SoC with the DRAM contention model enabled: a real
/// [`cohort_sim::directory::Directory`] plus two [`DramRequester`]s
/// issuing `GetS` for distinct lines at random cycles. Returns the SoC,
/// the directory's id, and the sorted union of scheduled request cycles.
fn fuzzed_dram_soc(
    rng: &mut Rng,
    lookahead: cohort_sim::config::Lookahead,
) -> (
    cohort_sim::soc::Soc,
    cohort_sim::component::CompId,
    Vec<u64>,
) {
    use cohort_sim::component::TileCoord;

    let dram = cohort_sim::dram::DramConfig::from_spec(DRAM_FUZZ_SPEC).expect("fuzz spec parses");
    let cfg = cohort_sim::config::SocConfig::default()
        .with_dram(dram)
        .with_lookahead(lookahead);
    let mut soc = cohort_sim::soc::Soc::new(cfg.clone());
    let dir = soc.add_component(
        TileCoord::new(0, 0),
        Box::new(cohort_sim::directory::Directory::new(&cfg)),
    );
    let mut all_sends: Vec<u64> = Vec::new();
    let mut next_line = 0u64;
    for p in 0..2u16 {
        let n = rng.range(4, 24) as usize;
        let mut cycles: Vec<u64> = (0..n).map(|_| rng.range(1, 1_200)).collect();
        cycles.sort_unstable();
        cycles.dedup();
        // Distinct lines per request, so every grant needs a DRAM fill.
        let sends: std::collections::VecDeque<(u64, u64)> = cycles
            .iter()
            .map(|&c| {
                let line = next_line * cohort_sim::LINE_BYTES;
                next_line += 1;
                (c, line)
            })
            .collect();
        all_sends.extend(cycles);
        soc.add_component(
            TileCoord::new(1 + p, 0),
            Box::new(DramRequester {
                dir,
                sends,
                received_at: Vec::new(),
            }),
        );
    }
    all_sends.sort_unstable();
    all_sends.dedup();
    (soc, dir, all_sends)
}

/// With the contention model enabled, the lookahead horizon never
/// overshoots the next DRAM bank event: every accepted fill's completion
/// (and every full-queue retry) lives in the directory's delayed heap, so
/// its `quiescent_for` hint — and therefore the global horizon — is
/// bounded by the distance to [`cohort_sim::dram::DramModel::next_event`].
#[test]
fn dram_hints_never_overshoot_bank_events() {
    use cohort_sim::directory::Directory;

    let mut rng = Rng::new(0xd7a3);
    let mut saw_dram_bound = false;
    for _ in 0..CASES {
        let (mut soc, dir, sends) = fuzzed_dram_soc(&mut rng, cohort_sim::config::Lookahead::Auto);
        let deadline = 6_000u64;
        while soc.cycle < deadline {
            let now = soc.cycle;
            let h = soc.lookahead_horizon(deadline);
            assert!(h >= 1, "horizon must always make progress");
            let dram_next = soc
                .component::<Directory>(dir)
                .expect("directory slot")
                .dram_model()
                .expect("dram enabled")
                .next_event(now);
            if let Some(next) = dram_next {
                assert!(
                    h <= next - now,
                    "horizon overshot a bank event: now={now} h={h} next={next}"
                );
                saw_dram_bound = true;
            }
            if let Some(&next) = sends.iter().find(|&&e| e >= now) {
                assert!(
                    h <= (next - now).max(1),
                    "horizon overshot a scheduled request: now={now} h={h} next={next}"
                );
            }
            soc.step();
        }
    }
    assert!(
        saw_dram_bound,
        "no case ever had an outstanding DRAM request — the bound went untested"
    );
}

/// With DRAM enabled, forced cycle-by-cycle stepping and automatic
/// lookahead batching are observationally equivalent: same end state,
/// same per-cycle grant deliveries, same directory/DRAM counters. The
/// kernel invariant `barriers + ff_cycles == cycles` holds on the batched
/// runs, and across the case set the starved geometry must actually
/// exercise fills, channel-queue rejects and MSHR waits.
#[test]
fn dram_lookahead_modes_agree() {
    use cohort_sim::component::{CompId, Component as _};
    use cohort_sim::config::Lookahead;
    use cohort_sim::directory::Directory;

    let run = |seed: u64, lookahead: Lookahead| {
        let mut rng = Rng::new(seed);
        let (mut soc, dir, _) = fuzzed_dram_soc(&mut rng, lookahead);
        let outcome = soc.run(20_000);
        let deliveries: Vec<Vec<u64>> = [CompId(1), CompId(2)]
            .iter()
            .map(|&id| {
                soc.component::<DramRequester>(id)
                    .expect("probe slot")
                    .received_at
                    .clone()
            })
            .collect();
        let d = soc.component::<Directory>(dir).expect("directory slot");
        let counters: Vec<(String, u64)> = d.counters();
        let ff = soc.kernel_counter("kernel.ff_cycles");
        let barriers = soc.kernel_counter("kernel.barrier_activations");
        (outcome, deliveries, counters, ff, barriers, soc.cycle)
    };

    let (mut skipped_any, mut rejected_any, mut stalled_any) = (false, false, false);
    for case in 0..CASES {
        let seed = 0xd7a7 + case;
        let f1 = run(seed, Lookahead::Force1);
        let auto = run(seed, Lookahead::Auto);
        assert_eq!(f1.3, 0, "Force1 must never fast-forward");
        assert_eq!(
            (&f1.0, &f1.1, &f1.2),
            (&auto.0, &auto.1, &auto.2),
            "observable state diverged between modes (seed {seed:#x})"
        );
        assert_eq!(
            auto.4 + auto.3,
            auto.5,
            "barriers + ff_cycles != cycles (seed {seed:#x})"
        );
        let counter = |name: &str| {
            auto.2
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        assert!(
            counter("fills") > 0,
            "no DRAM fills issued (seed {seed:#x})"
        );
        skipped_any |= auto.3 > 0;
        rejected_any |= counter("dram_rejects") > 0;
        stalled_any |= counter("mshr_stalls") > 0;
    }
    assert!(skipped_any, "auto lookahead never batched a single cycle");
    assert!(rejected_any, "no case ever filled a DRAM channel queue");
    assert!(stalled_any, "no case ever exhausted the directory MSHRs");
}

/// The conservative lookahead horizon never overshoots the next model
/// event: for fuzzed send schedules and fault plans, at every cycle the
/// horizon is bounded by the distance to the next scheduled send or fault
/// entry. In-flight NoC deliveries and component hints may only *shrink*
/// the horizon below that bound, never stretch it past an event.
#[test]
fn lookahead_horizon_never_overshoots_model_events() {
    let mut rng = Rng::new(0x10ca);
    for _ in 0..CASES {
        let (mut soc, events) = fuzzed_probe_soc(&mut rng, cohort_sim::config::Lookahead::Auto);
        let deadline = 2_000u64;
        while soc.cycle < deadline {
            let now = soc.cycle;
            let h = soc.lookahead_horizon(deadline);
            assert!(h >= 1, "horizon must always make progress");
            if let Some(&next) = events.iter().find(|&&e| e >= now) {
                let bound = (next - now).max(1);
                assert!(
                    h <= bound,
                    "horizon overshot: now={now} h={h} next model event at {next}"
                );
            }
            soc.step();
        }
    }
}

/// Forced cycle-by-cycle stepping and automatic lookahead batching are
/// observationally equivalent on fuzzed scenarios: same stop cycle, same
/// quiescence verdict, and — the strong claim — every message is
/// delivered at exactly the same simulated cycle.
#[test]
fn lookahead_modes_agree_on_fuzzed_scenarios() {
    use cohort_sim::component::CompId;
    use cohort_sim::config::Lookahead;

    let run = |seed: u64, lookahead: Lookahead| {
        let mut rng = Rng::new(seed);
        let (mut soc, _) = fuzzed_probe_soc(&mut rng, lookahead);
        let outcome = soc.run(4_000);
        let deliveries: Vec<Vec<u64>> = [CompId(0), CompId(1)]
            .iter()
            .map(|&id| {
                soc.component::<ScheduledSender>(id)
                    .expect("probe slot")
                    .received_at
                    .clone()
            })
            .collect();
        let ff = soc.kernel_counter("kernel.ff_cycles");
        let steps = soc.kernel_counter("kernel.slot_steps");
        let barriers = soc.kernel_counter("kernel.barrier_activations");
        assert!(
            steps >= barriers,
            "a barrier stepped nobody (seed {seed:#x}, {lookahead:?}): \
             {steps} slot-steps, {barriers} barriers"
        );
        (outcome, deliveries, ff)
    };

    let mut skipped_any = false;
    for case in 0..CASES {
        let seed = 0xd0d0 + case;
        let (out_f1, del_f1, ff_f1) = run(seed, Lookahead::Force1);
        let (out_auto, del_auto, ff_auto) = run(seed, Lookahead::Auto);
        assert_eq!(ff_f1, 0, "Force1 must never fast-forward");
        assert_eq!(
            out_f1, out_auto,
            "run outcome diverged between lookahead modes (seed {seed:#x})"
        );
        assert_eq!(
            del_f1, del_auto,
            "message delivery cycles diverged between lookahead modes (seed {seed:#x})"
        );
        skipped_any |= ff_auto > 0;
    }
    assert!(
        skipped_any,
        "auto lookahead never skipped a cycle across the whole case set — \
         the batching path went untested"
    );
}

/// A probe with a periodic timer and a per-cycle counter, for the per-slot
/// sleep/wake property below. Every `period` cycles (never, if 0) it
/// writes the cycle into its own memory word and pings `peer`; it logs
/// every arrival; `ticks` counts one per cycle it is stepped or
/// reconciled for, which is what a stall counter does.
struct TimerProbe {
    period: u64,
    next_at: u64,
    word_pa: u64,
    peer: cohort_sim::component::CompId,
    ticks: cohort_sim::stats::Counter,
    received_at: Vec<u64>,
}

impl cohort_sim::component::Component for TimerProbe {
    fn name(&self) -> &str {
        "timer-probe"
    }

    fn attach(&mut self, obs: &cohort_sim::component::Observability) {
        obs.adopt_counter("ticks", &self.ticks);
    }

    fn step(&mut self, ctx: &mut cohort_sim::component::Ctx<'_>) {
        while ctx.recv().is_some() {
            self.received_at.push(ctx.cycle);
        }
        self.ticks.inc();
        if self.period != 0 && ctx.cycle >= self.next_at {
            self.next_at = ctx.cycle + self.period;
            ctx.mem.write_u64(self.word_pa, ctx.cycle);
            ctx.send(self.peer, cohort_sim::msg::Msg::MmioWriteResp { tag: 0 });
        }
    }

    fn is_idle(&self) -> bool {
        false
    }

    fn quiescent_for(&self, now: u64) -> u64 {
        if self.period == 0 {
            u64::MAX
        } else {
            self.next_at.saturating_sub(now)
        }
    }

    fn fast_forward(&mut self, skipped: u64) {
        self.ticks.add(skipped);
    }
}

/// Per-slot sleep/wake is invisible: over SoCs of probes with random
/// timer periods (some never firing, some firing every cycle) that ping
/// random peers, alongside [`ScheduledSender`]s with random one-shot
/// schedules, `Auto` and `Force1` agree on the stop cycle, every
/// delivery cycle, the probes' memory words and the whole stats registry
/// (the per-cycle `ticks` included) — and across the case set stepped
/// cycles really did leave slots asleep.
#[test]
fn per_slot_sleep_is_unobservable_on_fuzzed_probe_socs() {
    use cohort_sim::component::{CompId, TileCoord};
    use cohort_sim::config::{Lookahead, SocConfig};

    let run = |seed: u64, lookahead: Lookahead| {
        let mut rng = Rng::new(seed);
        let cfg = SocConfig::default().with_lookahead(lookahead);
        let mut soc = cohort_sim::soc::Soc::new(cfg);
        let probes = rng.range(2, 6);
        let senders = rng.range(1, 3);
        let slots = probes + senders;
        for i in 0..probes {
            let period = match rng.range(0, 4) {
                0 => 0,
                1 => 1,
                _ => rng.range(2, 300),
            };
            soc.add_component(
                TileCoord::new(i as u16, 0),
                Box::new(TimerProbe {
                    period,
                    next_at: rng.range(0, 300),
                    word_pa: 0x1000 + 8 * i,
                    peer: CompId(rng.range(0, slots) as usize),
                    ticks: cohort_sim::stats::Counter::new(),
                    received_at: Vec::new(),
                }),
            );
        }
        for i in 0..senders {
            let mut sends: Vec<u64> = (0..rng.range(1, 12)).map(|_| rng.range(1, 2_500)).collect();
            sends.sort_unstable();
            sends.dedup();
            soc.add_component(
                TileCoord::new(i as u16, 1),
                Box::new(ScheduledSender {
                    peer: CompId(rng.range(0, probes) as usize),
                    sends: sends.into(),
                    received_at: Vec::new(),
                }),
            );
        }
        let outcome = soc.run(3_000);
        let deliveries: Vec<Vec<u64>> = (0..slots as usize)
            .map(|i| {
                let id = CompId(i);
                match soc.component::<TimerProbe>(id) {
                    Some(p) => p.received_at.clone(),
                    None => soc
                        .component::<ScheduledSender>(id)
                        .expect("probe or sender")
                        .received_at
                        .clone(),
                }
            })
            .collect();
        let words: Vec<u64> = (0..probes)
            .map(|i| soc.mem.read_u64(0x1000 + 8 * i))
            .collect();
        let observable = (outcome, deliveries, words, soc.stats_json());
        let steps = soc.kernel_counter("kernel.slot_steps");
        let sleeps = soc.kernel_counter("kernel.slot_sleeps");
        (observable, steps, sleeps)
    };

    let mut partial_sleep = false;
    for case in 0..CASES {
        let seed = 0x51ee9 + case;
        let (reference, _, f1_sleeps) = run(seed, Lookahead::Force1);
        assert_eq!(f1_sleeps, 0, "Force1 must step every slot every cycle");
        let (observable, steps, sleeps) = run(seed, Lookahead::Auto);
        assert_eq!(
            reference, observable,
            "Auto diverged from Force1 (seed {seed:#x})"
        );
        partial_sleep |= steps > 0 && sleeps > 0;
    }
    assert!(
        partial_sleep,
        "no stepped cycle ever left a slot asleep — per-slot sleep went untested"
    );
}

/// The store-buffer sleep is invisible on real cores: over SoCs of two
/// to four in-order cores behind one directory, each running random
/// bursts of stores (onto a few lines every core fights over and a few
/// of its own), ALU delays, fences and recorded loads, with random
/// store-buffer depth and MSHR count, `Auto` and `Force1` agree on the
/// stop cycle, every core's `done_at` and recorded loads, the contended
/// words and the whole stats registry (the reconciled `sb_full_stalls`
/// and `l1.hits` included) — and across the case set the cores really
/// did sleep.
#[test]
fn store_buffer_sleep_is_unobservable_on_fuzzed_core_socs() {
    use cohort_sim::component::TileCoord;
    use cohort_sim::config::{Lookahead, SocConfig};
    use cohort_sim::core::InOrderCore;
    use cohort_sim::directory::Directory;
    use cohort_sim::program::{Op, Program};
    use cohort_sim::LINE_BYTES;

    const SHARED: u64 = 0x4000;
    let run = |seed: u64, lookahead: Lookahead| {
        let mut rng = Rng::new(seed);
        let mut cfg = SocConfig::default().with_lookahead(lookahead);
        cfg.timing.store_buffer = rng.range(1, 12) as usize;
        cfg.timing.sb_mshrs = rng.range(1, 6) as usize;
        let mut soc = cohort_sim::soc::Soc::new(cfg.clone());
        let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));
        let cores: Vec<_> = (0..rng.range(2, 5))
            .map(|c| {
                let mut p = Program::new();
                for _ in 0..rng.range(4, 16) {
                    match rng.range(0, 8) {
                        0 => p.push(Op::Alu(rng.range(1, 120) as u32)),
                        1 => p.push(Op::Fence),
                        2 => p.push(Op::Load {
                            va: SHARED + rng.range(0, 3) * LINE_BYTES + 8 * rng.range(0, 8),
                            record: true,
                        }),
                        _ => {
                            for _ in 0..rng.range(1, 24) {
                                let line = if rng.range(0, 2) == 0 {
                                    SHARED + rng.range(0, 3) * LINE_BYTES
                                } else {
                                    0x10_0000 * (c + 1) + rng.range(0, 8) * LINE_BYTES
                                };
                                p.push(Op::Store {
                                    va: line + 8 * rng.range(0, 8),
                                    value: rng.next_u64(),
                                });
                            }
                        }
                    }
                }
                let core = InOrderCore::new(dir, &cfg, p);
                soc.add_component(TileCoord::new(1 + c as u16, 0), Box::new(core))
            })
            .collect();
        let outcome = soc.run(2_000_000);
        assert!(
            outcome.quiescent,
            "seed {seed:#x} stuck at {}",
            outcome.cycle
        );
        let per_core: Vec<(u64, Vec<u64>)> = cores
            .iter()
            .map(|&id| {
                let core = soc.component::<InOrderCore>(id).expect("a core");
                (core.core_counters().done_at, core.recorded().to_vec())
            })
            .collect();
        let words: Vec<u64> = (0..3 * LINE_BYTES / 8)
            .map(|i| soc.mem.read_u64(SHARED + 8 * i))
            .collect();
        let observable = (outcome, per_core, words, soc.stats_json());
        let steps = soc.kernel_counter("kernel.slot_steps");
        let sleeps = soc.kernel_counter("kernel.slot_sleeps");
        let barriers = soc.kernel_counter("kernel.barrier_activations");
        (observable, steps, sleeps, barriers)
    };

    let mut slept = false;
    for case in 0..CASES / 2 {
        let seed = 0x5b_51ee9 + case;
        let (reference, ..) = run(seed, Lookahead::Force1);
        let (observable, steps, sleeps, barriers) = run(seed, Lookahead::Auto);
        assert_eq!(
            reference, observable,
            "Auto diverged from Force1 (seed {seed:#x})"
        );
        assert!(
            steps >= barriers,
            "a barrier stepped nobody (seed {seed:#x}): {steps} slot-steps, {barriers} barriers"
        );
        // On average a stepped cycle left more than half of the
        // three-plus slots asleep.
        slept |= steps < sleeps;
    }
    assert!(slept, "no run ever left its cores asleep");
}

/// The spin park is invisible on real cores: over SoCs of one or two
/// producer cores that publish rising values into a few flag words after
/// random delays and one to three consumer cores that `WaitGe` on them
/// between ALU work, recorded loads and stores of their own (so the store
/// buffer is sometimes busy when the wait begins), with random spin-loop
/// timing, store-buffer geometry and, in half the cases, an L1 small
/// enough that the consumers' own stores evict the polled line — and a
/// fault injector flipping switches under them: accelerator stalls, which
/// re-hint every sleeper in mid-park, and latency spikes, under which the
/// NoC holds back messages that would overtake one about their line — `Auto`
/// and `Force1` agree on the stop cycle, every core's `done_at` and
/// recorded loads, the flag words and the whole stats registry (the
/// replayed `spin_iters`, `instret` and `l1.hits` included). Across the
/// case set the consumers really did sleep.
#[test]
fn spin_park_is_unobservable_on_fuzzed_core_socs() {
    use cohort_sim::component::TileCoord;
    use cohort_sim::config::{CacheConfig, Lookahead, SocConfig};
    use cohort_sim::core::InOrderCore;
    use cohort_sim::directory::Directory;
    use cohort_sim::faultinject::{FaultInjector, FaultKind, FaultPlan};
    use cohort_sim::program::{Op, Program};
    use cohort_sim::LINE_BYTES;

    const FLAGS: u64 = 0x4000;
    let run = |seed: u64, lookahead: Lookahead| {
        let mut rng = Rng::new(seed);
        let mut cfg = SocConfig::default().with_lookahead(lookahead);
        cfg.timing.l1_hit = rng.range(0, 4);
        cfg.timing.spin_alu = rng.range(0, 6);
        cfg.timing.spin_insts = rng.range(1, 5);
        cfg.timing.store_buffer = rng.range(1, 10) as usize;
        cfg.timing.sb_mshrs = rng.range(1, 5) as usize;
        if rng.range(0, 2) == 0 {
            cfg.l1 = CacheConfig::new(8 * LINE_BYTES, rng.range(1, 3) as u32);
        }
        let mut soc = cohort_sim::soc::Soc::new(cfg.clone());
        let dir = soc.add_component(TileCoord::new(0, 0), Box::new(Directory::new(&cfg)));

        // Flag `f` lives in one of two lines and counts up to `tops[f]`;
        // producer `f % producers` owns it.
        let flags: Vec<u64> = (0..rng.range(1, 4))
            .map(|f| FLAGS + rng.range(0, 2) * LINE_BYTES + 8 * f)
            .collect();
        let tops: Vec<u64> = flags.iter().map(|_| rng.range(1, 6)).collect();
        let producers = rng.range(1, 3);
        let mut programs = Vec::new();
        for p in 0..producers {
            let mut prog = Program::new();
            let mut next: Vec<u64> = flags.iter().map(|_| 1).collect();
            loop {
                let owned = (0..flags.len()).filter(|&f| f as u64 % producers == p);
                let open: Vec<usize> = owned.filter(|&f| next[f] <= tops[f]).collect();
                if open.is_empty() {
                    break;
                }
                let f = open[rng.range(0, open.len() as u64) as usize];
                prog.push(Op::Alu(rng.range(1, 900) as u32));
                prog.push(Op::Store {
                    va: flags[f],
                    value: next[f],
                });
                next[f] += 1;
                if rng.range(0, 2) == 0 {
                    prog.push(Op::Fence);
                }
            }
            prog.push(Op::Fence);
            programs.push(prog);
        }
        for c in 0..rng.range(1, 4) {
            let mut prog = Program::new();
            for _ in 0..rng.range(2, 9) {
                let f = rng.range(0, flags.len() as u64) as usize;
                match rng.range(0, 6) {
                    0 => prog.push(Op::Alu(rng.range(1, 60) as u32)),
                    1 => prog.push(Op::Load {
                        va: flags[f],
                        record: true,
                    }),
                    2 => {
                        for _ in 0..rng.range(1, 10) {
                            prog.push(Op::Store {
                                va: 0x10_0000 * (c + 1) + rng.range(0, 24) * LINE_BYTES,
                                value: rng.next_u64(),
                            });
                        }
                    }
                    _ => prog.push(Op::WaitGe {
                        va: flags[f],
                        value: rng.range(1, tops[f] + 1),
                    }),
                }
            }
            prog.push(Op::Fence);
            programs.push(prog);
        }
        let cores: Vec<_> = programs
            .into_iter()
            .enumerate()
            .map(|(i, prog)| {
                let core = InOrderCore::new(dir, &cfg, prog);
                soc.add_component(
                    TileCoord::new(1 + i as u16 % 3, i as u16 / 3),
                    Box::new(core),
                )
            })
            .collect();
        let mut plan = FaultPlan::default();
        for _ in 0..rng.range(0, 4) {
            let cycles = rng.range(50, 1_200);
            let kind = if rng.range(0, 2) == 0 {
                FaultKind::AccelStall { cycles }
            } else {
                let factor = rng.range(2, 6);
                FaultKind::LatencySpike { cycles, factor }
            };
            plan = plan.at(rng.range(1, 4_000), kind);
        }
        let injector = FaultInjector::new(&plan, soc.fault_state().clone());
        soc.add_component(TileCoord::new(0, 3), Box::new(injector));

        let outcome = soc.run(2_000_000);
        assert!(
            outcome.quiescent,
            "seed {seed:#x} stuck at {}",
            outcome.cycle
        );
        let per_core: Vec<(u64, Vec<u64>)> = cores
            .iter()
            .map(|&id| {
                let core = soc.component::<InOrderCore>(id).expect("a core");
                (core.core_counters().done_at, core.recorded().to_vec())
            })
            .collect();
        let words: Vec<u64> = flags.iter().map(|&pa| soc.mem.read_u64(pa)).collect();
        assert_eq!(words, tops, "seed {seed:#x}: every flag reaches its top");
        let observable = (outcome, per_core, words, soc.stats_json());
        (observable, soc.kernel_counter("kernel.slot_steps"))
    };

    let (mut f1_steps, mut auto_steps) = (0, 0);
    for case in 0..CASES {
        let seed = 0x5b19_0a2c + case;
        let (reference, steps) = run(seed, Lookahead::Force1);
        f1_steps += steps;
        let (observable, steps) = run(seed, Lookahead::Auto);
        assert_eq!(
            reference, observable,
            "Auto diverged from Force1 (seed {seed:#x})"
        );
        auto_steps += steps;
    }
    // Most of these runs is waiting: a spinning core that is stepped per
    // iteration alone keeps `Auto` above a fifth of forced stepping.
    assert!(
        auto_steps * 20 < f1_steps,
        "{auto_steps} of {f1_steps} slot-steps: the consumers must sleep"
    );
}
