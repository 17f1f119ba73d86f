//! An opt-in DRAM controller model sitting under the L2 directory.
//!
//! The default memory system is flat: every L2 miss pays
//! [`crate::config::TimingConfig::dram`] cycles, no matter how many misses
//! are in flight. That is the right baseline for protocol work, but it can
//! never saturate — a shard sweep over an idealized memory system scales
//! linearly forever and the perf gate cannot tell a genuinely faster hot
//! path from one hiding behind infinite bandwidth.
//!
//! [`DramModel`] replaces the flat constant (only when
//! [`crate::config::SocConfig::dram`] is set) with a bank/channel timing
//! model:
//!
//! * Lines interleave across `channels` at line granularity; each channel
//!   services requests **FCFS, one at a time** — the channel data bus is
//!   the bandwidth limit.
//! * Each channel owns `banks` row buffers. A request to the bank's open
//!   row pays `t_row_hit` (CAS only); any other row pays `t_row_miss`
//!   (precharge + activate + CAS) and replaces the open row. A miss that
//!   evicts another open row is additionally counted as a bank conflict.
//! * Each channel queue holds at most `queue_depth` outstanding requests.
//!   A full queue **rejects** the request and reports the cycle at which
//!   the oldest entry retires, so the caller can retry then — this is the
//!   backpressure edge that propagates saturation upstream instead of
//!   queueing infinitely.
//!
//! Everything is computed at enqueue time from `(cycle, line)` alone, so
//! the model is a pure deterministic function of the request stream: the
//! directory drives it from its (deterministic) message-processing order,
//! and completions ride the directory's existing delayed-event heap, which
//! keeps `quiescent_for` hints exact and lookahead batching sound.

use std::collections::VecDeque;

use crate::component::Observability;
use crate::stats::{Counter, Histogram};

/// Geometry and timing of the opt-in DRAM controller model, plus the two
/// backpressure knobs that live outside the controller proper (directory
/// MSHRs and NoC ejection width). `None` in
/// [`crate::config::SocConfig::dram`] keeps the flat-latency memory
/// system; every existing baseline is bit-identical in that case.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct DramConfig {
    /// Independent DRAM channels; lines interleave across them.
    pub channels: u32,
    /// Row buffers (banks) per channel.
    pub banks: u32,
    /// Consecutive lines per DRAM row (row size / line size).
    pub row_lines: u64,
    /// Cycles for a row-buffer hit (CAS).
    pub t_row_hit: u64,
    /// Cycles for a row-buffer miss (precharge + activate + CAS).
    pub t_row_miss: u64,
    /// Outstanding requests a channel queue holds before rejecting.
    pub queue_depth: usize,
    /// Concurrent directory transactions (MSHRs) before new requests wait
    /// at the directory ingress.
    pub mshrs: usize,
    /// Messages the NoC ejects into one destination per cycle before the
    /// overflow slips a cycle (0 = unlimited).
    pub noc_ejection: u64,
}

impl Default for DramConfig {
    fn default() -> Self {
        Self {
            channels: 2,
            banks: 4,
            // 2 KiB rows of 64-byte lines.
            row_lines: 32,
            t_row_hit: 18,
            t_row_miss: 46,
            queue_depth: 8,
            mshrs: 12,
            noc_ejection: 4,
        }
    }
}

/// Structured parse/validation error for [`DramConfig::from_spec`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DramSpecError {
    /// A clause was not `key=value`.
    Malformed(String),
    /// Unknown key.
    UnknownKey(String),
    /// Value failed to parse as an integer that fits the field.
    BadValue { key: String, value: String },
    /// Parsed fine but violates a structural constraint.
    Invalid(String),
}

impl std::fmt::Display for DramSpecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DramSpecError::Malformed(c) => write!(f, "dram spec clause {c:?} is not key=value"),
            DramSpecError::UnknownKey(k) => write!(
                f,
                "unknown dram spec key {k:?} (expected channels, banks, rowlines, \
                 hit, miss, queue, mshrs, ejection)"
            ),
            DramSpecError::BadValue { key, value } => {
                write!(f, "dram spec {key}={value:?}: out of range or not a number")
            }
            DramSpecError::Invalid(why) => write!(f, "invalid dram spec: {why}"),
        }
    }
}

impl std::error::Error for DramSpecError {}

impl DramConfig {
    /// Parses the `socrun --dram` / fleet `dram =` spec grammar: `default`
    /// (or the empty string) for [`DramConfig::default`], otherwise
    /// comma-separated `key=value` clauses overriding individual fields,
    /// e.g. `channels=1,queue=4,miss=60`.
    ///
    /// # Errors
    /// [`DramSpecError`] on unknown keys, non-integer or out-of-range values,
    /// or degenerate geometry (zero channels/banks/rows/queue/MSHRs, hit > miss).
    pub fn from_spec(spec: &str) -> Result<Self, DramSpecError> {
        let mut cfg = DramConfig::default();
        let spec = spec.trim();
        if !(spec.is_empty() || spec == "default") {
            for clause in spec.split(',') {
                let clause = clause.trim();
                let (key, value) = clause
                    .split_once('=')
                    .ok_or_else(|| DramSpecError::Malformed(clause.to_string()))?;
                let (key, value) = (key.trim(), value.trim());
                let bad = || DramSpecError::BadValue {
                    key: key.to_string(),
                    value: value.to_string(),
                };
                let n: u64 = value.parse().map_err(|_| bad())?;
                match key {
                    "channels" => cfg.channels = u32::try_from(n).map_err(|_| bad())?,
                    "banks" => cfg.banks = u32::try_from(n).map_err(|_| bad())?,
                    "rowlines" | "row" => cfg.row_lines = n,
                    "hit" => cfg.t_row_hit = n,
                    "miss" => cfg.t_row_miss = n,
                    "queue" => cfg.queue_depth = usize::try_from(n).map_err(|_| bad())?,
                    "mshrs" => cfg.mshrs = usize::try_from(n).map_err(|_| bad())?,
                    "ejection" => cfg.noc_ejection = n,
                    _ => return Err(DramSpecError::UnknownKey(key.to_string())),
                }
            }
        }
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), DramSpecError> {
        let nonzero: [(&str, u64); 6] = [
            ("channels", u64::from(self.channels)),
            ("banks", u64::from(self.banks)),
            ("rowlines", self.row_lines),
            ("hit", self.t_row_hit),
            ("queue", self.queue_depth as u64),
            ("mshrs", self.mshrs as u64),
        ];
        for (key, v) in nonzero {
            if v == 0 {
                return Err(DramSpecError::Invalid(format!("{key} must be >= 1")));
            }
        }
        if self.t_row_miss < self.t_row_hit {
            return Err(DramSpecError::Invalid(format!(
                "miss ({}) must be >= hit ({})",
                self.t_row_miss, self.t_row_hit
            )));
        }
        Ok(())
    }
}

/// One DRAM channel: a serial data bus, a bounded request queue, and a set
/// of bank row buffers.
#[derive(Debug)]
struct Channel {
    /// Cycle the channel finishes its newest accepted request.
    busy_until: u64,
    /// Completion cycles of accepted, unretired requests, in FCFS order
    /// (monotonically non-decreasing by construction).
    pending: VecDeque<u64>,
    /// Open row per bank (`None` = closed / never activated).
    open_row: Vec<Option<u64>>,
}

/// Registry-backed observability for the DRAM model. Adopted under the
/// directory's scope (`dir#N.dram_*`) when the model is enabled, so flat
/// runs keep a byte-identical `stats_json`.
#[derive(Debug, Default, Clone)]
pub struct DramCounters {
    /// Requests accepted into a channel queue.
    pub reqs: Counter,
    /// Requests that hit the bank's open row.
    pub row_hits: Counter,
    /// Requests that missed the row buffer (cold or conflict).
    pub row_misses: Counter,
    /// Row misses that evicted another open row (true bank conflicts).
    pub bank_conflicts: Counter,
    /// Requests rejected by a full channel queue (retried later).
    pub rejects: Counter,
    /// Channel queue occupancy observed by each arriving request.
    pub queue_depth: Histogram,
    /// End-to-end service latency (enqueue to data return) per request.
    pub service: Histogram,
}

/// The bank/channel DRAM timing model. See the module docs for the timing
/// rule and the determinism argument.
#[derive(Debug)]
pub struct DramModel {
    cfg: DramConfig,
    channels: Vec<Channel>,
    counters: DramCounters,
}

impl DramModel {
    /// Builds an idle model (all banks closed, all queues empty).
    pub fn new(cfg: DramConfig) -> Self {
        let channels = (0..cfg.channels)
            .map(|_| Channel {
                busy_until: 0,
                pending: VecDeque::new(),
                open_row: vec![None; cfg.banks as usize],
            })
            .collect();
        Self {
            cfg,
            channels,
            counters: DramCounters::default(),
        }
    }

    /// The configuration the model was built from.
    pub fn config(&self) -> &DramConfig {
        &self.cfg
    }

    /// Counter handles (shareable with a stats registry).
    pub fn counters(&self) -> &DramCounters {
        &self.counters
    }

    /// `(channel, bank, row)` for a line address.
    fn map(&self, line_addr: u64) -> (usize, usize, u64) {
        let idx = line_addr / crate::LINE_BYTES;
        let ch = (idx % u64::from(self.cfg.channels)) as usize;
        let row = (idx / u64::from(self.cfg.channels)) / self.cfg.row_lines;
        let bank = (row % u64::from(self.cfg.banks)) as usize;
        (ch, bank, row)
    }

    /// Tries to enqueue a fill for `line_addr` issued at cycle `at`.
    ///
    /// `Ok(done)` is the cycle the data returns. `Err(retry_at)` means the
    /// line's channel queue is full; `retry_at` is the cycle its oldest
    /// entry retires, when one slot is guaranteed free — re-issue then.
    /// Issue cycles must be non-decreasing across calls (the directory's
    /// event order guarantees this).
    ///
    /// # Errors
    /// `Err(retry_at)` on a full channel queue, as above.
    pub fn enqueue(&mut self, at: u64, line_addr: u64) -> Result<u64, u64> {
        let (ch, bank, row) = self.map(line_addr);
        let chan = &mut self.channels[ch];
        while chan.pending.front().is_some_and(|&done| done <= at) {
            chan.pending.pop_front();
        }
        self.counters.queue_depth.record(chan.pending.len() as u64);
        if chan.pending.len() >= self.cfg.queue_depth {
            self.counters.rejects.inc();
            let retry = *chan.pending.front().expect("full queue has a front");
            debug_assert!(retry > at, "retired entries were drained above");
            return Err(retry);
        }
        self.counters.reqs.inc();
        let latency = match chan.open_row[bank] {
            Some(open) if open == row => {
                self.counters.row_hits.inc();
                self.cfg.t_row_hit
            }
            Some(_) => {
                self.counters.row_misses.inc();
                self.counters.bank_conflicts.inc();
                self.cfg.t_row_miss
            }
            None => {
                self.counters.row_misses.inc();
                self.cfg.t_row_miss
            }
        };
        chan.open_row[bank] = Some(row);
        let start = at.max(chan.busy_until);
        let done = start + latency;
        chan.busy_until = done;
        chan.pending.push_back(done);
        self.counters.service.record(done - at);
        Ok(done)
    }

    /// Earliest cycle after `now` at which any channel retires a request
    /// (`None` when fully drained). The directory does not call it: every
    /// accepted request also has a completion event in the directory's
    /// delayed heap, which its `quiescent_for` hint reads. Tests use it as
    /// an oracle that the hint never overshoots the model's own events.
    pub fn next_event(&self, now: u64) -> Option<u64> {
        self.channels
            .iter()
            .flat_map(|c| c.pending.iter().copied())
            .filter(|&done| done > now)
            .min()
    }

    /// Outstanding (unretired as of `now`) requests in `channel`.
    pub fn depth(&self, channel: usize, now: u64) -> usize {
        self.channels[channel]
            .pending
            .iter()
            .filter(|&&done| done > now)
            .count()
    }

    /// Adopts the model's counters and histograms under `obs`'s scope.
    pub fn attach(&self, obs: &Observability) {
        let c = &self.counters;
        for (name, counter) in [
            ("dram_reqs", &c.reqs),
            ("dram_row_hits", &c.row_hits),
            ("dram_row_misses", &c.row_misses),
            ("dram_bank_conflicts", &c.bank_conflicts),
            ("dram_rejects", &c.rejects),
        ] {
            obs.adopt_counter(name, counter);
        }
        obs.adopt_histogram("dram_queue_depth", &c.queue_depth);
        obs.adopt_histogram("dram_service", &c.service);
    }

    /// Counter snapshot for `Component::counters` reporting.
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        let c = &self.counters;
        vec![
            ("dram_reqs".into(), c.reqs.get()),
            ("dram_row_hits".into(), c.row_hits.get()),
            ("dram_row_misses".into(), c.row_misses.get()),
            ("dram_bank_conflicts".into(), c.bank_conflicts.get()),
            ("dram_rejects".into(), c.rejects.get()),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spec_default_round_trips() {
        assert_eq!(DramConfig::from_spec("default"), Ok(DramConfig::default()));
        assert_eq!(DramConfig::from_spec(""), Ok(DramConfig::default()));
    }

    #[test]
    fn spec_overrides_fields() {
        let cfg = DramConfig::from_spec("channels=1, queue=4 ,miss=60").expect("parses");
        assert_eq!(cfg.channels, 1);
        assert_eq!(cfg.queue_depth, 4);
        assert_eq!(cfg.t_row_miss, 60);
        assert_eq!(cfg.banks, DramConfig::default().banks);
    }

    #[test]
    fn spec_rejects_garbage() {
        assert!(matches!(
            DramConfig::from_spec("banana=3"),
            Err(DramSpecError::UnknownKey(_))
        ));
        assert!(matches!(
            DramConfig::from_spec("channels"),
            Err(DramSpecError::Malformed(_))
        ));
        assert!(matches!(
            DramConfig::from_spec("channels=x"),
            Err(DramSpecError::BadValue { .. })
        ));
        assert!(matches!(
            DramConfig::from_spec("channels=0"),
            Err(DramSpecError::Invalid(_))
        ));
        assert!(matches!(
            DramConfig::from_spec("hit=50,miss=20"),
            Err(DramSpecError::Invalid(_))
        ));
    }

    #[test]
    fn spec_refuses_channels_and_banks_wider_than_u32() {
        // Narrowed to `u32`, 2^32 + 1 and 2^32 + 2 would pass as 1 channel
        // and 2 banks.
        for (key, value) in [
            ("channels", "4294967297"),
            ("banks", "4294967298"),
            ("channels", "18446744073709551615"),
        ] {
            assert_eq!(
                DramConfig::from_spec(&format!("{key}={value}")),
                Err(DramSpecError::BadValue {
                    key: key.to_string(),
                    value: value.to_string(),
                })
            );
        }
        let cfg = DramConfig::from_spec("channels=4294967295,banks=4294967295").expect("parses");
        assert_eq!((cfg.channels, cfg.banks), (u32::MAX, u32::MAX));
    }

    #[test]
    fn row_hits_are_cheaper_than_misses() {
        let cfg = DramConfig::from_spec("channels=1,banks=1").expect("parses");
        let mut m = DramModel::new(cfg.clone());
        // Cold miss opens the row, the next access to the same row hits.
        let first = m.enqueue(0, 0).expect("accepted");
        assert_eq!(first, cfg.t_row_miss);
        let second = m.enqueue(first, crate::LINE_BYTES).expect("accepted");
        assert_eq!(second, first + cfg.t_row_hit);
        assert_eq!(m.counters().row_hits.get(), 1);
        assert_eq!(m.counters().row_misses.get(), 1);
        assert_eq!(m.counters().bank_conflicts.get(), 0);
    }

    #[test]
    fn conflicting_rows_count_bank_conflicts() {
        let cfg = DramConfig::from_spec("channels=1,banks=1,rowlines=1").expect("parses");
        let mut m = DramModel::new(cfg);
        let a = m.enqueue(0, 0).expect("accepted");
        let _b = m.enqueue(a, crate::LINE_BYTES).expect("accepted");
        assert_eq!(m.counters().bank_conflicts.get(), 1);
    }

    #[test]
    fn channel_serializes_fcfs() {
        let cfg = DramConfig::from_spec("channels=1,banks=1,queue=8").expect("parses");
        let mut m = DramModel::new(cfg.clone());
        // Two same-cycle requests to the same open row: the second waits
        // for the bus even though it is a row hit.
        let a = m.enqueue(0, 0).expect("accepted");
        let b = m.enqueue(0, crate::LINE_BYTES).expect("accepted");
        assert_eq!(a, cfg.t_row_miss);
        assert_eq!(b, a + cfg.t_row_hit);
    }

    #[test]
    fn full_queue_rejects_with_exact_retry_cycle() {
        let cfg = DramConfig::from_spec("channels=1,banks=1,queue=2").expect("parses");
        let mut m = DramModel::new(cfg);
        let a = m.enqueue(0, 0).expect("accepted");
        let _b = m.enqueue(0, 64).expect("accepted");
        let retry = m.enqueue(0, 128).expect_err("queue full");
        assert_eq!(retry, a, "retry lands when the oldest entry retires");
        assert_eq!(m.counters().rejects.get(), 1);
        // At the retry cycle the slot has freed and the request lands.
        assert!(m.enqueue(retry, 128).is_ok());
    }

    #[test]
    fn next_event_tracks_earliest_unretired_completion() {
        let cfg = DramConfig::from_spec("channels=2,banks=1").expect("parses");
        let mut m = DramModel::new(cfg);
        assert_eq!(m.next_event(0), None);
        let a = m.enqueue(0, 0).expect("accepted"); // channel 0
        let b = m.enqueue(5, 64).expect("accepted"); // channel 1, later issue
        assert!(a < b);
        assert_eq!(m.next_event(0), Some(a));
        assert_eq!(m.next_event(a), Some(b));
        assert_eq!(m.next_event(b), None);
    }

    #[test]
    fn deterministic_for_identical_streams() {
        let cfg = DramConfig::default();
        let mut x = DramModel::new(cfg.clone());
        let mut y = DramModel::new(cfg);
        let mut state = 0x9e37u64;
        let mut at = 0u64;
        for _ in 0..10_000 {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            at += state % 7;
            let line = (state >> 16) % 4096 * crate::LINE_BYTES;
            assert_eq!(x.enqueue(at, line), y.enqueue(at, line));
        }
        assert_eq!(x.counters().row_hits.get(), y.counters().row_hits.get());
    }
}
