//! Valid/ready timing wrapper around a functional accelerator.
//!
//! [`TimedAccel`] models the latency-insensitive interface of §4.3: the
//! consumer endpoint offers 64-bit words when its `ready()` is high; the
//! accelerator computes each input block for `latency_cycles`; results
//! stream out one 64-bit word per cycle. Ratchets adapt the 64-bit
//! endpoint width to the accelerator's native block sizes.

use crate::ratchet::{pop_le_word, Ratchet};
use crate::Accelerator;
use std::collections::VecDeque;

/// A functional accelerator behind a timed valid/ready interface.
pub struct TimedAccel {
    accel: Box<dyn Accelerator>,
    in_ratchet: Ratchet,
    out_bytes: VecDeque<u8>,
    /// Cycle at which the in-flight block completes (0 = idle).
    busy_until: u64,
    /// Output bytes of the in-flight block, released at `busy_until`.
    pending_out: Option<Vec<u8>>,
    blocks_done: u64,
    /// Cycle of the last [`Self::pop_word`] (`None` before the first pop
    /// and after [`Self::reset`]).
    last_pop_cycle: Option<u64>,
}

impl std::fmt::Debug for TimedAccel {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("TimedAccel")
            .field("accel", &self.accel.descriptor().name)
            .field("busy_until", &self.busy_until)
            .field("blocks_done", &self.blocks_done)
            .finish()
    }
}

impl TimedAccel {
    /// Wraps `accel`.
    pub fn new(accel: Box<dyn Accelerator>) -> Self {
        let block = accel.descriptor().input_block_bytes;
        Self {
            accel,
            in_ratchet: Ratchet::new(block),
            out_bytes: VecDeque::new(),
            busy_until: 0,
            pending_out: None,
            blocks_done: 0,
            last_pop_cycle: None,
        }
    }

    /// The wrapped accelerator's descriptor.
    pub fn descriptor(&self) -> crate::AccelDescriptor {
        self.accel.descriptor()
    }

    /// Applies a CSR configuration buffer.
    ///
    /// # Errors
    /// Propagates the accelerator's [`crate::ConfigError`].
    pub fn configure(&mut self, csr: &[u8]) -> Result<(), crate::ConfigError> {
        self.accel.configure(csr)
    }

    /// Ready to accept another input word this cycle? (The consumer
    /// endpoint's `ready` input.) Input is accepted while the staging
    /// ratchet has no complete block waiting on a busy pipeline.
    pub fn ready(&self, cycle: u64) -> bool {
        self.in_ratchet.blocks_available() == 0 || cycle >= self.busy_until
    }

    /// Offers one 64-bit word (caller must have checked [`Self::ready`]).
    pub fn push_word(&mut self, word: u64) {
        self.in_ratchet.push_word(word);
    }

    /// Advances internal state: launches a block if one is staged and the
    /// pipeline is free; retires the in-flight block when its latency
    /// elapses.
    pub fn step(&mut self, cycle: u64) {
        if cycle >= self.busy_until {
            if let Some(out) = self.pending_out.take() {
                self.out_bytes.extend(out);
                self.blocks_done += 1;
            }
            if let Some(out) = self
                .in_ratchet
                .pop_block_with(|b| self.accel.process_block(b))
            {
                self.pending_out = Some(out);
                self.busy_until = cycle + self.accel.descriptor().latency_cycles;
            }
        }
    }

    /// Pops one 64-bit output word if available (at most one per cycle —
    /// the 64-bit producer endpoint width of §5).
    pub fn pop_word(&mut self, cycle: u64) -> Option<u64> {
        if self.out_bytes.len() < 8 || self.last_pop_cycle == Some(cycle) {
            return None;
        }
        self.last_pop_cycle = Some(cycle);
        pop_le_word(&mut self.out_bytes)
    }

    /// Output bytes currently buffered (including sub-word residue).
    pub fn output_len(&self) -> usize {
        self.out_bytes.len()
    }

    /// Cycles until the pipeline next changes state on its own (0 = at
    /// `cycle`), assuming no further input — the accelerator's
    /// contribution to its host's `quiescent_for` lookahead hint.
    /// `sink_ready` is the host's word on whether anyone would call
    /// [`Self::pop_word`] this cycle: a buffered output word is an event
    /// only if its sink can take it. `u64::MAX` means only external action
    /// (a push or a drain) can make anything happen. Always sound to step
    /// sooner.
    pub fn next_event(&self, cycle: u64, sink_ready: bool) -> u64 {
        if sink_ready && self.out_bytes.len() >= 8 {
            return 0; // a word can pop this cycle
        }
        if self.pending_out.is_some() {
            // The in-flight block retires at `busy_until`.
            return self.busy_until.saturating_sub(cycle);
        }
        if self.in_ratchet.blocks_available() > 0 {
            return 0; // a staged block launches at the next step
        }
        u64::MAX
    }

    /// Blocks fully processed.
    pub fn blocks_done(&self) -> u64 {
        self.blocks_done
    }

    /// True when no work is buffered or in flight. A sub-word output
    /// residue (< 8 bytes) or a partial input block still counts as idle —
    /// both wait on external action.
    pub fn is_idle(&self) -> bool {
        self.pending_out.is_none()
            && self.in_ratchet.blocks_available() == 0
            && self.out_bytes.len() < 8
    }

    /// Drains every complete buffered output word at once, ignoring both
    /// the one-word-per-cycle pacing and pipeline latency. Used by the
    /// engine's watchdog abort path to rescue data before halting: the
    /// in-flight block and any fully staged blocks are finished
    /// *functionally* first — their input words were already consumed
    /// from the queue (the read index advanced), so abandoning them would
    /// lose elements across a failover. A partial ratchet block stays
    /// behind untouched: its elements are refetched by whoever resumes.
    /// Sub-word output residue (an incomplete word) also stays behind.
    pub fn drain_words(&mut self) -> Vec<u64> {
        if let Some(out) = self.pending_out.take() {
            self.out_bytes.extend(out);
            self.blocks_done += 1;
            self.busy_until = 0;
        }
        while let Some(out) = self
            .in_ratchet
            .pop_block_with(|b| self.accel.process_block(b))
        {
            self.out_bytes.extend(out);
            self.blocks_done += 1;
        }
        let mut out = Vec::new();
        while let Some(word) = pop_le_word(&mut self.out_bytes) {
            out.push(word);
        }
        out
    }

    /// Removes and returns the partial input block left in the staging
    /// ratchet as 64-bit words. Input always arrives as whole words, so
    /// the residue is word-aligned. Used by the failover checkpoint: the
    /// read index already covers these words, so they must migrate to the
    /// resuming engine rather than be refetched (the producer may lap the
    /// ring during a long outage, so un-consuming them is unsound).
    pub fn take_staged_words(&mut self) -> Vec<u64> {
        let mut words = Vec::new();
        while let Some(w) = self.in_ratchet.pop_word() {
            words.push(w);
        }
        debug_assert!(self.in_ratchet.is_empty(), "input residue is word-aligned");
        self.in_ratchet.clear();
        words
    }

    /// Resets pipeline and buffers (configuration retained).
    pub fn reset(&mut self) {
        self.in_ratchet.clear();
        self.out_bytes.clear();
        self.busy_until = 0;
        self.pending_out = None;
        self.last_pop_cycle = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::nullfifo::NullFifo;
    use crate::sha256::{sha256_raw_block, Sha256Accel};

    #[test]
    fn null_fifo_passthrough_with_latency() {
        let mut t = TimedAccel::new(Box::new(NullFifo::with_geometry(8, 3)));
        assert!(t.ready(0));
        t.push_word(0xabcd);
        t.step(0); // launches, busy until 3
        assert_eq!(t.pop_word(1), None, "still in the pipeline");
        t.step(3); // retires
        assert_eq!(t.pop_word(3), Some(0xabcd));
    }

    #[test]
    fn one_pop_per_cycle_from_cycle_zero() {
        let mut t = TimedAccel::new(Box::new(NullFifo::with_geometry(8, 0)));
        t.push_word(1);
        t.push_word(2);
        for _ in 0..3 {
            t.step(0); // zero latency: launch, then retire, at cycle 0
        }
        assert_eq!(t.output_len(), 16);
        assert_eq!(t.pop_word(0), Some(1));
        assert_eq!(t.pop_word(0), None, "a second word in the same cycle");
        assert_eq!(t.pop_word(1), Some(2));
    }

    #[test]
    fn sha_block_latency_and_digest() {
        let mut t = TimedAccel::new(Box::new(Sha256Accel::new()));
        let mut block = [0u8; 64];
        for (i, w) in (0..8u64).enumerate() {
            block[i * 8..i * 8 + 8].copy_from_slice(&(w * 3).to_le_bytes());
        }
        let mut cycle = 0;
        for w in 0..8u64 {
            assert!(t.ready(cycle));
            t.push_word(w * 3);
            t.step(cycle);
            cycle += 1;
        }
        // Busy for 66 cycles from launch.
        for c in cycle..cycle + 70 {
            t.step(c);
        }
        let mut digest = Vec::new();
        let mut c = cycle + 70;
        while digest.len() < 32 {
            t.step(c);
            if let Some(w) = t.pop_word(c) {
                digest.extend_from_slice(&w.to_le_bytes());
            }
            c += 1;
        }
        assert_eq!(digest, sha256_raw_block(&block).to_vec());
        assert_eq!(t.blocks_done(), 1);
        assert!(t.is_idle());
    }

    #[test]
    fn one_pop_per_cycle() {
        let mut t = TimedAccel::new(Box::new(NullFifo::with_geometry(8, 1)));
        t.push_word(1);
        t.step(0);
        t.step(5);
        t.push_word(2);
        t.step(5);
        t.step(10);
        assert!(t.pop_word(10).is_some());
        assert!(t.pop_word(10).is_none(), "only one word per cycle");
        assert!(t.pop_word(11).is_some());
    }

    #[test]
    fn buffered_output_is_an_event_only_for_a_ready_sink() {
        let mut t = TimedAccel::new(Box::new(NullFifo::with_geometry(8, 50)));
        t.push_word(1);
        t.step(0); // launches, busy until 50
        t.step(50); // retires: one word buffered, nothing in flight
        assert_eq!(t.output_len(), 8);
        assert_eq!(t.next_event(51, true), 0, "a ready sink pops it");
        assert_eq!(
            t.next_event(51, false),
            u64::MAX,
            "blocked sink, idle pipeline: only a drain or a push acts"
        );
        t.push_word(2);
        assert_eq!(t.next_event(51, false), 0, "a staged block launches");
        t.step(51); // launches, busy until 101
        assert_eq!(
            t.next_event(60, false),
            41,
            "blocked sink: the next event is the retire at busy_until"
        );
        assert_eq!(t.next_event(60, true), 0);
        assert_eq!(t.next_event(100, false), 1, "no clamp: 1 is one cycle away");
    }

    #[test]
    fn drain_words_ignores_pacing() {
        let mut t = TimedAccel::new(Box::new(NullFifo::with_geometry(8, 1)));
        t.push_word(1);
        t.step(0);
        t.step(5);
        t.push_word(2);
        t.step(5);
        t.step(10);
        assert_eq!(t.drain_words(), vec![1, 2], "all words in one call");
        assert_eq!(t.output_len(), 0);
    }

    #[test]
    fn drain_words_finishes_in_flight_and_staged_blocks() {
        let mut t = TimedAccel::new(Box::new(Sha256Accel::new()));
        // One block in flight…
        for w in 0..8 {
            t.push_word(w);
        }
        t.step(0); // launch, busy until 66
                   // …and one fully staged behind it. Both consumed input already.
        for w in 0..8 {
            t.push_word(100 + w);
        }
        let words = t.drain_words();
        assert_eq!(words.len(), 8, "two 32-byte digests rescued");
        assert_eq!(t.blocks_done(), 2);
        assert!(t.is_idle(), "nothing left in flight after an abort drain");
        // A partial block must NOT be processed: it migrates to the
        // resuming engine instead via [`TimedAccel::take_staged_words`].
        t.push_word(7);
        assert_eq!(t.drain_words(), vec![], "partial block stays behind");
        assert_eq!(
            t.take_staged_words(),
            vec![7],
            "residue extracted for migration"
        );
        assert!(t.in_ratchet.is_empty());
        t.reset();
    }

    #[test]
    fn not_ready_while_block_staged_and_busy() {
        let mut t = TimedAccel::new(Box::new(Sha256Accel::new()));
        for w in 0..8 {
            t.push_word(w);
        }
        t.step(0); // launch, busy until 66
        for w in 0..8 {
            assert!(t.ready(1), "stage the next block while busy");
            t.push_word(100 + w);
        }
        t.step(1);
        assert!(
            !t.ready(1),
            "second block staged, pipeline busy: back-pressure"
        );
        t.step(66);
        assert!(t.ready(67), "pipeline free again");
    }

    #[test]
    fn non_pipelined_throughput() {
        // Two SHA blocks take ~2 x 66 cycles.
        let mut t = TimedAccel::new(Box::new(Sha256Accel::new()));
        let mut cycle = 0u64;
        let mut produced = 0;
        let mut pushed = 0;
        while produced < 8 {
            t.step(cycle);
            if pushed < 16 && t.ready(cycle) {
                t.push_word(pushed);
                pushed += 1;
            }
            if t.pop_word(cycle).is_some() {
                produced += 1;
            }
            cycle += 1;
            assert!(cycle < 1000, "livelock");
        }
        assert!(
            cycle >= 132,
            "two blocks cannot finish faster than 2x latency"
        );
        assert_eq!(t.blocks_done(), 2);
    }
}
