//! Ratchet width adapters (paper §4.3).
//!
//! Cohort endpoints move data in 64-bit words; accelerators consume and
//! produce blocks of their own native width (512-bit SHA input, 128-bit AES
//! blocks, ...). The ratchet accumulates incoming words until a full block
//! is available and slices outgoing blocks back into words.

use std::collections::VecDeque;

/// Pops the oldest eight bytes of `bytes` as one little-endian 64-bit word
/// (the endpoint interface width), or `None` if fewer are buffered. No
/// allocation: this sits on the per-cycle feed and collect paths.
pub fn pop_le_word(bytes: &mut VecDeque<u8>) -> Option<u64> {
    if bytes.len() < 8 {
        return None;
    }
    let mut word = [0u8; 8];
    for (b, popped) in word.iter_mut().zip(bytes.drain(..8)) {
        *b = popped;
    }
    Some(u64::from_le_bytes(word))
}

/// Accumulates bytes until fixed-size blocks can be popped.
#[derive(Debug, Clone)]
pub struct Ratchet {
    block_bytes: usize,
    buf: VecDeque<u8>,
}

impl Ratchet {
    /// Creates a ratchet producing blocks of `block_bytes`.
    ///
    /// # Panics
    /// Panics if `block_bytes` is zero.
    pub fn new(block_bytes: usize) -> Self {
        assert!(block_bytes > 0, "ratchet block size must be positive");
        Self {
            block_bytes,
            buf: VecDeque::new(),
        }
    }

    /// Block size in bytes.
    pub fn block_bytes(&self) -> usize {
        self.block_bytes
    }

    /// Feeds raw bytes in.
    pub fn push_bytes(&mut self, data: &[u8]) {
        self.buf.extend(data.iter().copied());
    }

    /// Feeds one little-endian 64-bit word in (the endpoint interface
    /// width, paper §5: "producer and consumer endpoint accelerator
    /// interfaces are 64-bit wide").
    pub fn push_word(&mut self, word: u64) {
        self.push_bytes(&word.to_le_bytes());
    }

    /// Pops the oldest full block, handing it to `f` where it lies (no
    /// copy), and returns what `f` made of it. `None`, and `f` not run,
    /// while no full block is buffered.
    pub fn pop_block_with<R>(&mut self, f: impl FnOnce(&[u8]) -> R) -> Option<R> {
        if self.buf.len() < self.block_bytes {
            return None;
        }
        let out = f(&self.buf.make_contiguous()[..self.block_bytes]);
        self.buf.drain(..self.block_bytes);
        Some(out)
    }

    /// Pops one 64-bit word if at least 8 bytes are buffered.
    pub fn pop_word(&mut self) -> Option<u64> {
        pop_le_word(&mut self.buf)
    }

    /// Bytes currently buffered.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Number of complete blocks currently available.
    pub fn blocks_available(&self) -> usize {
        self.buf.len() / self.block_bytes
    }

    /// Drains any trailing partial block, zero-padded to a full block;
    /// `None` if the buffer is empty or holds only whole blocks.
    pub fn flush_padded(&mut self) -> Option<Vec<u8>> {
        let rem = self.buf.len() % self.block_bytes;
        if rem == 0 {
            return None;
        }
        let mut block: Vec<u8> = self.buf.drain(..).collect();
        block.resize(block.len() - rem + self.block_bytes, 0);
        Some(block)
    }

    /// Discards all buffered bytes.
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn words_to_sha_block() {
        // 8 pushes of 64 bits build one 512-bit block (paper §5.3).
        let mut r = Ratchet::new(64);
        for i in 0..7u64 {
            r.push_word(i);
            assert!(r.pop_block_with(<[u8]>::to_vec).is_none());
        }
        r.push_word(7);
        let block = r.pop_block_with(<[u8]>::to_vec).expect("full block");
        assert_eq!(block.len(), 64);
        assert_eq!(&block[..8], &0u64.to_le_bytes());
        assert_eq!(&block[56..], &7u64.to_le_bytes());
        assert!(r.is_empty());
    }

    #[test]
    fn blocks_come_out_in_order_as_the_ring_wraps() {
        // Three words in, one 16-byte block out per round: the head walks
        // around the ring buffer, so some blocks straddle its end.
        let mut r = Ratchet::new(16);
        let mut next_out = 0u64;
        for round in 0..40u64 {
            for w in 0..3 {
                r.push_word(round * 3 + w);
            }
            let expect: Vec<u8> = [next_out, next_out + 1]
                .iter()
                .flat_map(|w| w.to_le_bytes())
                .collect();
            assert_eq!(r.pop_block_with(<[u8]>::to_vec), Some(expect));
            next_out += 2;
            assert_eq!(r.len() as u64, 8 * (round + 1), "one word per round stays");
        }
        let mut r = Ratchet::new(16);
        r.push_word(1);
        assert_eq!(r.pop_block_with(|_| unreachable!()), None::<()>);
        assert_eq!(r.len(), 8, "a partial block stays");
    }

    #[test]
    fn block_to_words_roundtrip() {
        let mut r = Ratchet::new(32);
        let digest: Vec<u8> = (0..32).collect();
        r.push_bytes(&digest);
        let mut words = Vec::new();
        while let Some(w) = r.pop_word() {
            words.push(w);
        }
        assert_eq!(words.len(), 4, "256-bit digest = 4 pops (paper §5.3)");
        let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
        assert_eq!(bytes, digest);
    }

    #[test]
    fn flush_pads_partial_block() {
        let mut r = Ratchet::new(16);
        r.push_bytes(&[1, 2, 3]);
        let block = r.flush_padded().unwrap();
        assert_eq!(block.len(), 16);
        assert_eq!(&block[..3], &[1, 2, 3]);
        assert!(block[3..].iter().all(|&b| b == 0));
        assert!(r.flush_padded().is_none());
    }

    #[test]
    fn blocks_available_counts() {
        let mut r = Ratchet::new(8);
        r.push_bytes(&[0; 20]);
        assert_eq!(r.blocks_available(), 2);
        r.pop_block_with(|_| ()).unwrap();
        assert_eq!(r.blocks_available(), 1);
        assert_eq!(r.len(), 12);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_block_rejected() {
        let _ = Ratchet::new(0);
    }
}
