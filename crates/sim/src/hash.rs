//! A multiplicative hasher for the simulator's `u64`-keyed maps.
//!
//! Frame numbers and line addresses are looked up several times per
//! stepped cycle; the standard library's SipHash is built to resist keys
//! crafted to collide, which addresses issued by simulated programs are
//! not. Nothing may depend on the iteration order of these maps — with
//! the default per-process random hasher nothing could.

use std::collections::{HashMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

/// `HashMap` keyed by a frame number or line address.
pub(crate) type U64Map<V> = HashMap<u64, V, BuildHasherDefault<U64Hasher>>;
/// `HashSet` of line addresses.
pub(crate) type U64Set = HashSet<u64, BuildHasherDefault<U64Hasher>>;

/// Fibonacci hashing: one multiply by 2^64 / phi, then the high half
/// folded into the low half. The fold matters: line addresses are
/// multiples of 64, so the low six bits of the bare product are zero, and
/// the table takes its bucket index from the low bits.
#[derive(Default, Clone, Copy)]
pub(crate) struct U64Hasher(u64);

impl Hasher for U64Hasher {
    #[inline]
    fn write_u64(&mut self, key: u64) {
        let h = (self.0 ^ key).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        self.0 = h ^ (h >> 32);
    }

    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.write_u64(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::hash::BuildHasher;

    #[test]
    fn line_addresses_spread_over_the_low_bits() {
        // 1024 consecutive lines must not pile into a few of 1024 buckets.
        let build = BuildHasherDefault::<U64Hasher>::default();
        let mut buckets = [0u32; 1024];
        for i in 0..1024u64 {
            buckets[(build.hash_one(i * crate::LINE_BYTES) & 1023) as usize] += 1;
        }
        let used = buckets.iter().filter(|&&n| n > 0).count();
        assert!(used > 512, "only {used} of 1024 buckets used");
        assert!(*buckets.iter().max().expect("non-empty") <= 8);
    }

    #[test]
    fn map_round_trips() {
        let mut m: U64Map<u64> = U64Map::default();
        for i in 0..1000u64 {
            m.insert(i << 12, i);
        }
        assert_eq!(m.len(), 1000);
        assert!((0..1000u64).all(|i| m[&(i << 12)] == i));
    }
}
