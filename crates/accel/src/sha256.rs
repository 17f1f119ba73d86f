//! SHA-256 (FIPS 180-4), implemented from scratch.
//!
//! Two layers:
//!
//! * [`Sha256`] — a general streaming hash context (`update`/`finalize`)
//!   plus the [`sha256`] one-shot convenience, usable as an ordinary
//!   software library and as the reference the benchmarks verify against;
//! * [`Sha256Accel`] — the accelerator model matching the paper's
//!   OpenCores-style core: it consumes 512-bit blocks and emits a 256-bit
//!   digest per block with a 66-cycle latency (§6.1). Each block is
//!   compressed against the initial hash state (raw single-block mode,
//!   which is how the paper's benchmark uses the core); no state carries
//!   from one block to the next.

use crate::accelerator::{AccelDescriptor, Accelerator, ConfigError};

/// Initial hash values H(0) (§5.3.3).
const H0: [u32; 8] = [
    0x6a09e667, 0xbb67ae85, 0x3c6ef372, 0xa54ff53a, 0x510e527f, 0x9b05688c, 0x1f83d9ab, 0x5be0cd19,
];

/// Round constants K (§4.2.2).
const K: [u32; 64] = [
    0x428a2f98, 0x71374491, 0xb5c0fbcf, 0xe9b5dba5, 0x3956c25b, 0x59f111f1, 0x923f82a4, 0xab1c5ed5,
    0xd807aa98, 0x12835b01, 0x243185be, 0x550c7dc3, 0x72be5d74, 0x80deb1fe, 0x9bdc06a7, 0xc19bf174,
    0xe49b69c1, 0xefbe4786, 0x0fc19dc6, 0x240ca1cc, 0x2de92c6f, 0x4a7484aa, 0x5cb0a9dc, 0x76f988da,
    0x983e5152, 0xa831c66d, 0xb00327c8, 0xbf597fc7, 0xc6e00bf3, 0xd5a79147, 0x06ca6351, 0x14292967,
    0x27b70a85, 0x2e1b2138, 0x4d2c6dfc, 0x53380d13, 0x650a7354, 0x766a0abb, 0x81c2c92e, 0x92722c85,
    0xa2bfe8a1, 0xa81a664b, 0xc24b8b70, 0xc76c51a3, 0xd192e819, 0xd6990624, 0xf40e3585, 0x106aa070,
    0x19a4c116, 0x1e376c08, 0x2748774c, 0x34b0bcb5, 0x391c0cb3, 0x4ed8aa4a, 0x5b9cca4f, 0x682e6ff3,
    0x748f82ee, 0x78a5636f, 0x84c87814, 0x8cc70208, 0x90befffa, 0xa4506ceb, 0xbef9a3f7, 0xc67178f2,
];

/// Compresses one 512-bit block into `state`.
pub fn compress(state: &mut [u32; 8], block: &[u8; 64]) {
    let mut w = [0u32; 64];
    for (i, chunk) in block.chunks_exact(4).enumerate() {
        w[i] = u32::from_be_bytes(chunk.try_into().expect("4 bytes"));
    }
    for t in 16..64 {
        let s0 = w[t - 15].rotate_right(7) ^ w[t - 15].rotate_right(18) ^ (w[t - 15] >> 3);
        let s1 = w[t - 2].rotate_right(17) ^ w[t - 2].rotate_right(19) ^ (w[t - 2] >> 10);
        w[t] = w[t - 16]
            .wrapping_add(s0)
            .wrapping_add(w[t - 7])
            .wrapping_add(s1);
    }
    let [mut a, mut b, mut c, mut d, mut e, mut f, mut g, mut h] = *state;
    for t in 0..64 {
        let big_s1 = e.rotate_right(6) ^ e.rotate_right(11) ^ e.rotate_right(25);
        let ch = (e & f) ^ (!e & g);
        let t1 = h
            .wrapping_add(big_s1)
            .wrapping_add(ch)
            .wrapping_add(K[t])
            .wrapping_add(w[t]);
        let big_s0 = a.rotate_right(2) ^ a.rotate_right(13) ^ a.rotate_right(22);
        let maj = (a & b) ^ (a & c) ^ (b & c);
        let t2 = big_s0.wrapping_add(maj);
        h = g;
        g = f;
        f = e;
        e = d.wrapping_add(t1);
        d = c;
        c = b;
        b = a;
        a = t1.wrapping_add(t2);
    }
    state[0] = state[0].wrapping_add(a);
    state[1] = state[1].wrapping_add(b);
    state[2] = state[2].wrapping_add(c);
    state[3] = state[3].wrapping_add(d);
    state[4] = state[4].wrapping_add(e);
    state[5] = state[5].wrapping_add(f);
    state[6] = state[6].wrapping_add(g);
    state[7] = state[7].wrapping_add(h);
}

/// A streaming SHA-256 context.
///
/// # Example
/// ```
/// use cohort_accel::sha256::Sha256;
/// let mut h = Sha256::new();
/// h.update(b"abc");
/// assert_eq!(
///     hex(&h.finalize()),
///     "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
/// );
/// fn hex(d: &[u8]) -> String {
///     d.iter().map(|b| format!("{b:02x}")).collect()
/// }
/// ```
#[derive(Debug, Clone)]
pub struct Sha256 {
    state: [u32; 8],
    buf: [u8; 64],
    buf_len: usize,
    total_bytes: u64,
}

impl Default for Sha256 {
    fn default() -> Self {
        Self::new()
    }
}

impl Sha256 {
    /// Creates a fresh context.
    pub fn new() -> Self {
        Self {
            state: H0,
            buf: [0; 64],
            buf_len: 0,
            total_bytes: 0,
        }
    }

    /// Absorbs `data`.
    pub fn update(&mut self, data: &[u8]) {
        self.total_bytes += data.len() as u64;
        let mut data = data;
        if self.buf_len > 0 {
            let take = (64 - self.buf_len).min(data.len());
            self.buf[self.buf_len..self.buf_len + take].copy_from_slice(&data[..take]);
            self.buf_len += take;
            data = &data[take..];
            if self.buf_len == 64 {
                let block = self.buf;
                compress(&mut self.state, &block);
                self.buf_len = 0;
            }
            if data.is_empty() {
                // Everything was absorbed into the partial buffer; the
                // tail below must not clobber buf_len.
                return;
            }
        }
        while data.len() >= 64 {
            compress(&mut self.state, data[..64].try_into().expect("64 bytes"));
            data = &data[64..];
        }
        self.buf[..data.len()].copy_from_slice(data);
        self.buf_len = data.len();
    }

    /// Pads and produces the 32-byte digest, consuming the context.
    pub fn finalize(mut self) -> [u8; 32] {
        let bit_len = self.total_bytes * 8;
        self.update(&[0x80]);
        while self.buf_len != 56 {
            self.update(&[0]);
        }
        // Length is appended without counting toward the message length.
        self.buf[56..64].copy_from_slice(&bit_len.to_be_bytes());
        let block = self.buf;
        compress(&mut self.state, &block);
        let mut out = [0u8; 32];
        for (i, word) in self.state.iter().enumerate() {
            out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
        }
        out
    }
}

/// One-shot SHA-256 of `data`.
pub fn sha256(data: &[u8]) -> [u8; 32] {
    let mut h = Sha256::new();
    h.update(data);
    h.finalize()
}

/// Digest of one raw 512-bit block compressed against the initial state
/// (no padding, no length) — the single-block mode of the RTL core and of
/// the paper's SHA benchmark.
pub fn sha256_raw_block(block: &[u8; 64]) -> [u8; 32] {
    let mut state = H0;
    compress(&mut state, block);
    let mut out = [0u8; 32];
    for (i, word) in state.iter().enumerate() {
        out[i * 4..i * 4 + 4].copy_from_slice(&word.to_be_bytes());
    }
    out
}

/// The SHA-256 accelerator model: 512 bits in, 256 bits out, 66 cycles.
///
/// CSR layout: none, or one mode byte that must be 0 (raw per block).
#[derive(Debug, Clone, Default)]
pub struct Sha256Accel;

impl Sha256Accel {
    /// Pipeline latency of the modelled RTL core (paper §6.1).
    pub const LATENCY: u64 = 66;

    /// Creates the accelerator.
    pub fn new() -> Self {
        Self
    }
}

impl Accelerator for Sha256Accel {
    fn descriptor(&self) -> AccelDescriptor {
        AccelDescriptor {
            name: "sha256",
            input_block_bytes: 64,
            output_block_bytes: 32,
            latency_cycles: Self::LATENCY,
        }
    }

    fn configure(&mut self, csr: &[u8]) -> Result<(), ConfigError> {
        match csr.first() {
            None | Some(0) => Ok(()),
            Some(other) => Err(ConfigError::new(format!("unknown sha256 mode {other}"))),
        }
    }

    fn process_block(&mut self, input: &[u8]) -> Vec<u8> {
        let block: &[u8; 64] = input.try_into().expect("sha256 takes 64-byte blocks");
        sha256_raw_block(block).to_vec()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    // NIST FIPS 180-4 / common test vectors.
    #[test]
    fn empty_string() {
        assert_eq!(
            hex(&sha256(b"")),
            "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
        );
    }

    #[test]
    fn abc() {
        assert_eq!(
            hex(&sha256(b"abc")),
            "ba7816bf8f01cfea414140de5dae2223b00361a396177a9cb410ff61f20015ad"
        );
    }

    #[test]
    fn two_block_message() {
        assert_eq!(
            hex(&sha256(
                b"abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"
            )),
            "248d6a61d20638b8e5c026930c3e6039a33ce45964ff2167f6ecedd419db06c1"
        );
    }

    #[test]
    fn million_a() {
        let data = vec![b'a'; 1_000_000];
        assert_eq!(
            hex(&sha256(&data)),
            "cdc76e5c9914fb9281a1c7e284d73e67f1809a48a497200e046d39ccc7112cd0"
        );
    }

    #[test]
    fn streaming_equals_oneshot() {
        let data: Vec<u8> = (0..1000u32).map(|i| (i % 251) as u8).collect();
        for split in [0usize, 1, 63, 64, 65, 500, 999] {
            let mut h = Sha256::new();
            h.update(&data[..split]);
            h.update(&data[split..]);
            assert_eq!(h.finalize(), sha256(&data), "split at {split}");
        }
    }

    #[test]
    fn raw_block_differs_from_padded() {
        let block = [0x61u8; 64];
        assert_ne!(sha256_raw_block(&block), sha256(&block));
    }

    #[test]
    fn accel_raw_mode_matches_reference() {
        let mut acc = Sha256Accel::new();
        let block = [7u8; 64];
        assert_eq!(acc.process_block(&block), sha256_raw_block(&block).to_vec());
        // Per-block mode is stateless across blocks.
        assert_eq!(acc.process_block(&block), sha256_raw_block(&block).to_vec());
    }

    #[test]
    fn descriptor_matches_paper() {
        let acc = Sha256Accel::new();
        let d = acc.descriptor();
        assert_eq!(d.input_block_bytes, 64);
        assert_eq!(d.output_block_bytes, 32);
        assert_eq!(d.latency_cycles, 66);
    }
}
