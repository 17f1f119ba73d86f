//! AES-128 (FIPS 197), implemented from scratch.
//!
//! Provides the block cipher ([`Aes128`]: key expansion, encrypt, decrypt)
//! and the accelerator model [`Aes128Accel`]: 128-bit blocks in, 128-bit
//! ciphertext out, 41-cycle latency (paper §6.1), with the key delivered
//! via the coherent CSR struct at registration time (paper §5.2).
//!
//! Encryption uses the 32-bit T-table form: the state is four big-endian
//! column words, and each of rounds 1–9 is sixteen lookups into one
//! 256-entry table `TE0` (SubBytes and MixColumns in one step; its byte
//! rotations serve rows 1–3) plus the round key. The last round reads
//! `SBOX`. Both tables are built at compile time. Every AES run
//! encrypts each block twice, in the accelerator model and in the host
//! reference it is verified against, so this is the form on the hot path.
//! The byte-wise rounds (SubBytes, ShiftRows, MixColumns by bit-serial
//! GF(2^8) multiplication) exist only in the unit tests, as the reference
//! the T-table form is checked against block for block.
//!
//! Decryption stays byte-wise: only the accelerator's decrypt direction
//! and the round-trip tests use it, no runner does, and a second table
//! set would buy nothing measurable. Both directions read the same key
//! schedule, the 44 column words.

use crate::accelerator::{AccelDescriptor, Accelerator, ConfigError};

/// The S-box (FIPS 197 figure 7).
const SBOX: [u8; 256] = [
    0x63, 0x7c, 0x77, 0x7b, 0xf2, 0x6b, 0x6f, 0xc5, 0x30, 0x01, 0x67, 0x2b, 0xfe, 0xd7, 0xab, 0x76,
    0xca, 0x82, 0xc9, 0x7d, 0xfa, 0x59, 0x47, 0xf0, 0xad, 0xd4, 0xa2, 0xaf, 0x9c, 0xa4, 0x72, 0xc0,
    0xb7, 0xfd, 0x93, 0x26, 0x36, 0x3f, 0xf7, 0xcc, 0x34, 0xa5, 0xe5, 0xf1, 0x71, 0xd8, 0x31, 0x15,
    0x04, 0xc7, 0x23, 0xc3, 0x18, 0x96, 0x05, 0x9a, 0x07, 0x12, 0x80, 0xe2, 0xeb, 0x27, 0xb2, 0x75,
    0x09, 0x83, 0x2c, 0x1a, 0x1b, 0x6e, 0x5a, 0xa0, 0x52, 0x3b, 0xd6, 0xb3, 0x29, 0xe3, 0x2f, 0x84,
    0x53, 0xd1, 0x00, 0xed, 0x20, 0xfc, 0xb1, 0x5b, 0x6a, 0xcb, 0xbe, 0x39, 0x4a, 0x4c, 0x58, 0xcf,
    0xd0, 0xef, 0xaa, 0xfb, 0x43, 0x4d, 0x33, 0x85, 0x45, 0xf9, 0x02, 0x7f, 0x50, 0x3c, 0x9f, 0xa8,
    0x51, 0xa3, 0x40, 0x8f, 0x92, 0x9d, 0x38, 0xf5, 0xbc, 0xb6, 0xda, 0x21, 0x10, 0xff, 0xf3, 0xd2,
    0xcd, 0x0c, 0x13, 0xec, 0x5f, 0x97, 0x44, 0x17, 0xc4, 0xa7, 0x7e, 0x3d, 0x64, 0x5d, 0x19, 0x73,
    0x60, 0x81, 0x4f, 0xdc, 0x22, 0x2a, 0x90, 0x88, 0x46, 0xee, 0xb8, 0x14, 0xde, 0x5e, 0x0b, 0xdb,
    0xe0, 0x32, 0x3a, 0x0a, 0x49, 0x06, 0x24, 0x5c, 0xc2, 0xd3, 0xac, 0x62, 0x91, 0x95, 0xe4, 0x79,
    0xe7, 0xc8, 0x37, 0x6d, 0x8d, 0xd5, 0x4e, 0xa9, 0x6c, 0x56, 0xf4, 0xea, 0x65, 0x7a, 0xae, 0x08,
    0xba, 0x78, 0x25, 0x2e, 0x1c, 0xa6, 0xb4, 0xc6, 0xe8, 0xdd, 0x74, 0x1f, 0x4b, 0xbd, 0x8b, 0x8a,
    0x70, 0x3e, 0xb5, 0x66, 0x48, 0x03, 0xf6, 0x0e, 0x61, 0x35, 0x57, 0xb9, 0x86, 0xc1, 0x1d, 0x9e,
    0xe1, 0xf8, 0x98, 0x11, 0x69, 0xd9, 0x8e, 0x94, 0x9b, 0x1e, 0x87, 0xe9, 0xce, 0x55, 0x28, 0xdf,
    0x8c, 0xa1, 0x89, 0x0d, 0xbf, 0xe6, 0x42, 0x68, 0x41, 0x99, 0x2d, 0x0f, 0xb0, 0x54, 0xbb, 0x16,
];

/// The inverse S-box, derived from [`SBOX`] at compile time.
const INV_SBOX: [u8; 256] = invert(&SBOX);

/// One encrypt round's SubBytes + MixColumns for a byte in row 0, as a
/// big-endian column word: `TE0[x] = (2·S[x], S[x], S[x], 3·S[x])`. The
/// same byte in row `r` contributes `TE0[x].rotate_right(8 * r)`.
const TE0: [u32; 256] = te0(&SBOX);

const fn invert(sbox: &[u8; 256]) -> [u8; 256] {
    let mut inv = [0u8; 256];
    let mut i = 0;
    while i < 256 {
        inv[sbox[i] as usize] = i as u8;
        i += 1;
    }
    inv
}

const fn te0(sbox: &[u8; 256]) -> [u32; 256] {
    let mut t = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let s = sbox[i];
        let s2 = xtime(s);
        t[i] = u32::from_be_bytes([s2, s, s, s2 ^ s]);
        i += 1;
    }
    t
}

/// Multiplication by 2 in GF(2^8) with the AES polynomial 0x11b.
const fn xtime(a: u8) -> u8 {
    (a << 1) ^ if a & 0x80 != 0 { 0x1b } else { 0 }
}

/// Multiplication in GF(2^8) with the AES polynomial 0x11b.
fn gmul(mut a: u8, mut b: u8) -> u8 {
    let mut p = 0u8;
    for _ in 0..8 {
        if b & 1 != 0 {
            p ^= a;
        }
        a = xtime(a);
        b >>= 1;
    }
    p
}

/// An expanded AES-128 key schedule.
#[derive(Debug, Clone)]
pub struct Aes128 {
    /// The 44 key-schedule words `w[i]` of FIPS 197 §5.2, each a
    /// big-endian column: round `r` uses `w[4r..4r + 4]`.
    round_keys: [u32; 44],
}

impl Aes128 {
    /// Expands a 128-bit key (FIPS 197 §5.2).
    pub fn new(key: &[u8; 16]) -> Self {
        let mut w = [0u32; 44];
        for (i, col) in key.chunks_exact(4).enumerate() {
            w[i] = u32::from_be_bytes(col.try_into().expect("4 bytes"));
        }
        let mut rcon = 1u8;
        for i in 4..44 {
            let mut temp = w[i - 1];
            if i % 4 == 0 {
                // RotWord, SubWord, then Rcon into the top byte.
                let rot = temp.rotate_left(8).to_be_bytes();
                temp = u32::from_be_bytes(rot.map(|b| SBOX[b as usize])) ^ (u32::from(rcon) << 24);
                rcon = xtime(rcon);
            }
            w[i] = w[i - 4] ^ temp;
        }
        Self { round_keys: w }
    }

    /// XORs the round key of `round` (0..=10) into a byte-wise state.
    fn add_round_key(&self, state: &mut [u8; 16], round: usize) {
        let words = &self.round_keys[round * 4..round * 4 + 4];
        for (col, w) in state.chunks_exact_mut(4).zip(words) {
            for (s, k) in col.iter_mut().zip(w.to_be_bytes()) {
                *s ^= k;
            }
        }
    }

    fn inv_sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = INV_SBOX[*b as usize];
        }
    }

    /// State layout: column-major (byte `r + 4c` is row r, column c), i.e.
    /// the natural order of the input block.
    fn inv_shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * ((c + r) % 4)] = s[r + 4 * c];
            }
        }
    }

    fn inv_mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col: [u8; 4] = state[c * 4..c * 4 + 4].try_into().expect("col");
            state[c * 4] = gmul(col[0], 14) ^ gmul(col[1], 11) ^ gmul(col[2], 13) ^ gmul(col[3], 9);
            state[c * 4 + 1] =
                gmul(col[0], 9) ^ gmul(col[1], 14) ^ gmul(col[2], 11) ^ gmul(col[3], 13);
            state[c * 4 + 2] =
                gmul(col[0], 13) ^ gmul(col[1], 9) ^ gmul(col[2], 14) ^ gmul(col[3], 11);
            state[c * 4 + 3] =
                gmul(col[0], 11) ^ gmul(col[1], 13) ^ gmul(col[2], 9) ^ gmul(col[3], 14);
        }
    }

    /// Encrypts one 16-byte block.
    pub fn encrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let rk = &self.round_keys;
        let mut s = [0u32; 4];
        for (c, col) in block.chunks_exact(4).enumerate() {
            s[c] = u32::from_be_bytes(col.try_into().expect("4 bytes")) ^ rk[c];
        }
        // Output column c of ShiftRows takes row r from input column c + r.
        let byte = |w: u32, r: u32| (w >> (24 - 8 * r)) as u8 as usize;
        for round in 1..10 {
            let k = &rk[round * 4..round * 4 + 4];
            s = std::array::from_fn(|c| {
                TE0[byte(s[c], 0)]
                    ^ TE0[byte(s[(c + 1) % 4], 1)].rotate_right(8)
                    ^ TE0[byte(s[(c + 2) % 4], 2)].rotate_right(16)
                    ^ TE0[byte(s[(c + 3) % 4], 3)].rotate_right(24)
                    ^ k[c]
            });
        }
        let mut out = [0u8; 16];
        for (c, col) in out.chunks_exact_mut(4).enumerate() {
            let w = u32::from_be_bytes([
                SBOX[byte(s[c], 0)],
                SBOX[byte(s[(c + 1) % 4], 1)],
                SBOX[byte(s[(c + 2) % 4], 2)],
                SBOX[byte(s[(c + 3) % 4], 3)],
            ]) ^ rk[40 + c];
            col.copy_from_slice(&w.to_be_bytes());
        }
        out
    }

    /// Decrypts one 16-byte block.
    pub fn decrypt_block(&self, block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        self.add_round_key(&mut state, 10);
        for round in (1..10).rev() {
            Self::inv_shift_rows(&mut state);
            Self::inv_sub_bytes(&mut state);
            self.add_round_key(&mut state, round);
            Self::inv_mix_columns(&mut state);
        }
        Self::inv_shift_rows(&mut state);
        Self::inv_sub_bytes(&mut state);
        self.add_round_key(&mut state, 0);
        state
    }
}

/// Direction of [`Aes128Accel`], selected by the CSR struct.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AesDirection {
    /// Encrypt input blocks (the paper's benchmark).
    #[default]
    Encrypt,
    /// Decrypt input blocks.
    Decrypt,
}

/// The AES-128 accelerator: 128-bit blocks, ECB, key via CSR, 41 cycles.
///
/// CSR layout: 16 key bytes, optionally followed by one direction byte
/// (0 = encrypt, 1 = decrypt).
#[derive(Debug, Clone)]
pub struct Aes128Accel {
    cipher: Aes128,
    direction: AesDirection,
}

impl Default for Aes128Accel {
    fn default() -> Self {
        Self::new()
    }
}

impl Aes128Accel {
    /// Pipeline latency of the modelled RTL core (paper §6.1).
    pub const LATENCY: u64 = 41;

    /// Creates the accelerator with an all-zero key (reconfigure via CSR).
    pub fn new() -> Self {
        Self::with_key(&[0u8; 16])
    }

    /// Creates the accelerator with `key`.
    pub fn with_key(key: &[u8; 16]) -> Self {
        Self {
            cipher: Aes128::new(key),
            direction: AesDirection::Encrypt,
        }
    }
}

impl Accelerator for Aes128Accel {
    fn descriptor(&self) -> AccelDescriptor {
        AccelDescriptor {
            name: "aes128",
            input_block_bytes: 16,
            output_block_bytes: 16,
            latency_cycles: Self::LATENCY,
        }
    }

    fn configure(&mut self, csr: &[u8]) -> Result<(), ConfigError> {
        if csr.len() < 16 {
            return Err(ConfigError::new(format!(
                "AES CSR needs at least 16 key bytes, got {}",
                csr.len()
            )));
        }
        let key: &[u8; 16] = csr[..16].try_into().expect("16 bytes");
        self.cipher = Aes128::new(key);
        self.direction = match csr.get(16) {
            None | Some(0) => AesDirection::Encrypt,
            Some(1) => AesDirection::Decrypt,
            Some(other) => {
                return Err(ConfigError::new(format!("unknown AES direction {other}")));
            }
        };
        Ok(())
    }

    fn process_block(&mut self, input: &[u8]) -> Vec<u8> {
        let block: &[u8; 16] = input.try_into().expect("aes takes 16-byte blocks");
        match self.direction {
            AesDirection::Encrypt => self.cipher.encrypt_block(block).to_vec(),
            AesDirection::Decrypt => self.cipher.decrypt_block(block).to_vec(),
        }
    }

    fn reset(&mut self) {}
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hex(d: &[u8]) -> String {
        d.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The byte-wise FIPS 197 §5.1 cipher: the reference the T-table
    /// encrypt is checked against.
    fn encrypt_bytewise(aes: &Aes128, block: &[u8; 16]) -> [u8; 16] {
        let mut state = *block;
        aes.add_round_key(&mut state, 0);
        for round in 1..10 {
            sub_bytes(&mut state);
            shift_rows(&mut state);
            mix_columns(&mut state);
            aes.add_round_key(&mut state, round);
        }
        sub_bytes(&mut state);
        shift_rows(&mut state);
        aes.add_round_key(&mut state, 10);
        state
    }

    fn sub_bytes(state: &mut [u8; 16]) {
        for b in state.iter_mut() {
            *b = SBOX[*b as usize];
        }
    }

    fn shift_rows(state: &mut [u8; 16]) {
        let s = *state;
        for r in 1..4 {
            for c in 0..4 {
                state[r + 4 * c] = s[r + 4 * ((c + r) % 4)];
            }
        }
    }

    fn mix_columns(state: &mut [u8; 16]) {
        for c in 0..4 {
            let col: [u8; 4] = state[c * 4..c * 4 + 4].try_into().expect("col");
            state[c * 4] = gmul(col[0], 2) ^ gmul(col[1], 3) ^ col[2] ^ col[3];
            state[c * 4 + 1] = col[0] ^ gmul(col[1], 2) ^ gmul(col[2], 3) ^ col[3];
            state[c * 4 + 2] = col[0] ^ col[1] ^ gmul(col[2], 2) ^ gmul(col[3], 3);
            state[c * 4 + 3] = gmul(col[0], 3) ^ col[1] ^ col[2] ^ gmul(col[3], 2);
        }
    }

    /// Encrypts `pt` by both paths, checks they agree, returns the hex.
    fn encrypt_hex(aes: &Aes128, pt: &[u8; 16]) -> String {
        let ct = aes.encrypt_block(pt);
        assert_eq!(ct, encrypt_bytewise(aes, pt), "T-table vs byte-wise");
        hex(&ct)
    }

    fn splitmix64(state: &mut u64) -> u64 {
        *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = *state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn random_16(state: &mut u64) -> [u8; 16] {
        let mut out = [0u8; 16];
        out[..8].copy_from_slice(&splitmix64(state).to_le_bytes());
        out[8..].copy_from_slice(&splitmix64(state).to_le_bytes());
        out
    }

    // FIPS 197 appendix B.
    #[test]
    fn fips_appendix_b() {
        let key = [
            0x2b, 0x7e, 0x15, 0x16, 0x28, 0xae, 0xd2, 0xa6, 0xab, 0xf7, 0x15, 0x88, 0x09, 0xcf,
            0x4f, 0x3c,
        ];
        let pt = [
            0x32, 0x43, 0xf6, 0xa8, 0x88, 0x5a, 0x30, 0x8d, 0x31, 0x31, 0x98, 0xa2, 0xe0, 0x37,
            0x07, 0x34,
        ];
        let aes = Aes128::new(&key);
        assert_eq!(encrypt_hex(&aes, &pt), "3925841d02dc09fbdc118597196a0b32");
    }

    // FIPS 197 appendix C.1 (AES-128).
    #[test]
    fn fips_appendix_c1() {
        let key: [u8; 16] = std::array::from_fn(|i| i as u8);
        let pt: [u8; 16] = std::array::from_fn(|i| i as u8 * 0x11);
        let aes = Aes128::new(&key);
        assert_eq!(encrypt_hex(&aes, &pt), "69c4e0d86a7b0430d8cdb78070b4c55a");
        assert_eq!(aes.decrypt_block(&aes.encrypt_block(&pt)), pt);
    }

    #[test]
    fn ttable_encrypt_matches_bytewise() {
        let mut rng = 0x7e0_u64;
        for _ in 0..10_000 {
            let aes = Aes128::new(&random_16(&mut rng));
            let block = random_16(&mut rng);
            assert_eq!(aes.encrypt_block(&block), encrypt_bytewise(&aes, &block));
        }
    }

    #[test]
    fn encrypt_decrypt_roundtrip_many() {
        let aes = Aes128::new(b"sixteen byte key");
        for i in 0..64u8 {
            let block = [i; 16];
            assert_eq!(aes.decrypt_block(&aes.encrypt_block(&block)), block);
        }
    }

    #[test]
    fn gmul_basics() {
        assert_eq!(gmul(0x57, 0x13), 0xfe); // FIPS 197 §4.2 example
        assert_eq!(gmul(1, 0xab), 0xab);
        assert_eq!(gmul(0, 0xff), 0);
    }

    #[test]
    fn accel_csr_key_and_direction() {
        let key = *b"0123456789abcdef";
        let mut enc = Aes128Accel::new();
        enc.configure(&key).unwrap();
        let pt = [0x42u8; 16];
        let ct = enc.process_block(&pt);
        assert_eq!(ct, Aes128::new(&key).encrypt_block(&pt).to_vec());

        let mut dec = Aes128Accel::new();
        let mut csr = key.to_vec();
        csr.push(1);
        dec.configure(&csr).unwrap();
        assert_eq!(dec.process_block(&ct), pt.to_vec());
    }

    #[test]
    fn accel_rejects_short_csr() {
        let mut acc = Aes128Accel::new();
        assert!(acc.configure(&[0u8; 8]).is_err());
        assert!(acc.configure(&[0u8; 16]).is_ok());
    }

    #[test]
    fn descriptor_matches_paper() {
        let d = Aes128Accel::new().descriptor();
        assert_eq!(d.input_block_bytes, 16);
        assert_eq!(d.output_block_bytes, 16);
        assert_eq!(d.latency_cycles, 41);
    }
}
