//! Sparse physical memory.
//!
//! [`PhysMem`] is the single functional copy of memory in the simulation.
//! Caches and directories track *coherence state* (tags, owners, sharers)
//! but not data; data reads and writes always go to `PhysMem` at the cycle
//! the protocol permits them, which keeps the timing model honest while the
//! functional model stays simple. See `DESIGN.md` §5.

use crate::hash::U64Map;

pub(crate) const PAGE_SHIFT: u32 = 12;
const PAGE_BYTES: usize = 1 << PAGE_SHIFT;

/// Byte-addressable memory access, implemented by [`PhysMem`] (direct) and
/// [`crate::stage::StagedMem`] (write-staged, the view components see
/// during a step).
///
/// Hooks and OS-layer helpers that used to take `&mut PhysMem` take
/// `&mut dyn MemAccess` instead, so the same code runs against committed
/// memory (host side, between cycles) and a component's staged view
/// (inside a step, where writes become visible to other components only at
/// the cycle barrier).
pub trait MemAccess {
    /// Reads one byte.
    fn read_u8(&self, pa: u64) -> u8;

    /// Writes one byte.
    fn write_u8(&mut self, pa: u64, value: u8);

    /// Fills `buf` from memory starting at `pa`.
    fn read_bytes(&self, pa: u64, buf: &mut [u8]);

    /// Copies `data` into memory starting at `pa`.
    fn write_bytes(&mut self, pa: u64, data: &[u8]);

    /// Reads a little-endian `u64`. The access may span frames.
    fn read_u64(&self, pa: u64) -> u64 {
        let mut buf = [0u8; 8];
        self.read_bytes(pa, &mut buf);
        u64::from_le_bytes(buf)
    }

    /// Writes a little-endian `u64`. The access may span frames.
    fn write_u64(&mut self, pa: u64, value: u64) {
        self.write_bytes(pa, &value.to_le_bytes());
    }

    /// Reads a little-endian `u32`.
    fn read_u32(&self, pa: u64) -> u32 {
        let mut buf = [0u8; 4];
        self.read_bytes(pa, &mut buf);
        u32::from_le_bytes(buf)
    }

    /// Writes a little-endian `u32`.
    fn write_u32(&mut self, pa: u64, value: u32) {
        self.write_bytes(pa, &value.to_le_bytes());
    }

    /// Reads `len` bytes into a fresh vector.
    fn read_vec(&self, pa: u64, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.read_bytes(pa, &mut v);
        v
    }
}

/// Sparse, byte-addressable physical memory backed by 4 KiB frames.
///
/// Frames are allocated on first touch; reads of untouched memory return
/// zeroes without allocating.
#[derive(Default)]
pub struct PhysMem {
    pages: U64Map<Box<[u8; PAGE_BYTES]>>,
}

impl std::fmt::Debug for PhysMem {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PhysMem")
            .field("resident_pages", &self.pages.len())
            .finish()
    }
}

impl PhysMem {
    /// Creates an empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of frames currently resident.
    pub fn resident_pages(&self) -> usize {
        self.pages.len()
    }

    #[inline]
    fn split(pa: u64) -> (u64, usize) {
        (pa >> PAGE_SHIFT, (pa as usize) & (PAGE_BYTES - 1))
    }

    fn page_mut(&mut self, page: u64) -> &mut [u8; PAGE_BYTES] {
        self.pages
            .entry(page)
            .or_insert_with(|| Box::new([0u8; PAGE_BYTES]))
    }
}

impl MemAccess for PhysMem {
    fn read_u8(&self, pa: u64) -> u8 {
        let (page, off) = Self::split(pa);
        self.pages.get(&page).map_or(0, |p| p[off])
    }

    fn write_u8(&mut self, pa: u64, value: u8) {
        let (page, off) = Self::split(pa);
        self.page_mut(page)[off] = value;
    }

    fn read_u64(&self, pa: u64) -> u64 {
        let (page, off) = Self::split(pa);
        if off > PAGE_BYTES - 8 {
            let mut buf = [0u8; 8];
            self.read_bytes(pa, &mut buf);
            return u64::from_le_bytes(buf);
        }
        self.pages.get(&page).map_or(0, |p| {
            u64::from_le_bytes(p[off..off + 8].try_into().expect("eight bytes"))
        })
    }

    fn read_bytes(&self, pa: u64, buf: &mut [u8]) {
        let mut pa = pa;
        let mut done = 0;
        while done < buf.len() {
            let (page, off) = Self::split(pa);
            let n = (PAGE_BYTES - off).min(buf.len() - done);
            match self.pages.get(&page) {
                Some(p) => buf[done..done + n].copy_from_slice(&p[off..off + n]),
                None => buf[done..done + n].fill(0),
            }
            done += n;
            pa += n as u64;
        }
    }

    fn write_bytes(&mut self, pa: u64, data: &[u8]) {
        let mut pa = pa;
        let mut done = 0;
        while done < data.len() {
            let (page, off) = Self::split(pa);
            let n = (PAGE_BYTES - off).min(data.len() - done);
            self.page_mut(page)[off..off + n].copy_from_slice(&data[done..done + n]);
            done += n;
            pa += n as u64;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zero_before_write() {
        let m = PhysMem::new();
        assert_eq!(m.read_u64(0xdead_beef), 0);
        assert_eq!(m.resident_pages(), 0);
    }

    #[test]
    fn u64_roundtrip() {
        let mut m = PhysMem::new();
        m.write_u64(0x1000, 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u64(0x1000), 0x0123_4567_89ab_cdef);
        assert_eq!(m.read_u8(0x1000), 0xef, "little endian");
    }

    #[test]
    fn cross_page_access() {
        let mut m = PhysMem::new();
        let pa = (1 << PAGE_SHIFT) - 3;
        m.write_u64(pa, u64::MAX);
        assert_eq!(m.read_u64(pa), u64::MAX);
        assert_eq!(m.resident_pages(), 2);
    }

    #[test]
    fn u64_reads_agree_with_byte_reads_near_a_page_end() {
        let mut m = PhysMem::new();
        let data: Vec<u8> = (1..=32).collect();
        m.write_bytes(PAGE_BYTES as u64 - 16, &data);
        for pa in PAGE_BYTES as u64 - 16..PAGE_BYTES as u64 + 8 {
            let bytes: [u8; 8] = m.read_vec(pa, 8).try_into().unwrap();
            assert_eq!(m.read_u64(pa), u64::from_le_bytes(bytes), "at {pa:#x}");
        }
    }

    #[test]
    fn byte_slices_roundtrip() {
        let mut m = PhysMem::new();
        let data: Vec<u8> = (0..=255).collect();
        m.write_bytes(0x3ffe, &data);
        assert_eq!(m.read_vec(0x3ffe, 256), data);
    }

    #[test]
    fn u32_roundtrip() {
        let mut m = PhysMem::new();
        m.write_u32(8, 0xa5a5_5a5a);
        assert_eq!(m.read_u32(8), 0xa5a5_5a5a);
        assert_eq!(m.read_u64(8), 0xa5a5_5a5a);
    }
}
