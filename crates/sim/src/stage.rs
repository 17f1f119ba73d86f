//! Per-cycle write staging: the mechanism behind the determinism contract.
//!
//! Components step against a [`StagedMem`]: reads see committed memory
//! overlaid with the component's *own* writes from the current cycle
//! (read-your-own-writes), while writes land in a per-component
//! [`WriteLog`]. The SoC commits every log to [`PhysMem`] at the cycle
//! barrier, in slot order.
//!
//! Two properties follow:
//!
//! * **Order independence.** A component never observes another
//!   component's same-cycle write — cross-component visibility is defined
//!   by the cycle barrier, not by where a component happens to sit in the
//!   step loop. Permuting registration order cannot change what anyone
//!   reads.
//! * **No aliasing.** During the step phase every component owns its log
//!   exclusively and `PhysMem` is only read, so the step phase borrows
//!   memory immutably and each slot mutably — nothing is shared mutably.
//!
//! Same-cycle writes by *different* components to the same byte commit in
//! slot order (last slot wins). The coherence protocol makes that case a
//! protocol violation — a byte is only writable by the agent holding the
//! line in M state — so honest components never hit it.

use crate::mem::{MemAccess, PhysMem};

/// One staged write: `data[start..start + len]` goes to physical address
/// `pa` at commit time.
#[derive(Debug, Clone, Copy)]
struct Entry {
    pa: u64,
    start: u32,
    len: u32,
}

/// An ordered per-component write log with a shared byte arena. Cleared at
/// every commit; buffers are reused so steady-state staging allocates
/// nothing.
#[derive(Debug, Default)]
pub struct WriteLog {
    entries: Vec<Entry>,
    data: Vec<u8>,
}

impl WriteLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Stages `data` for physical address `pa`.
    pub fn push(&mut self, pa: u64, data: &[u8]) {
        let start = self.data.len() as u32;
        self.data.extend_from_slice(data);
        self.entries.push(Entry {
            pa,
            start,
            len: data.len() as u32,
        });
    }

    /// Applies staged bytes that overlap `buf` (which images memory at
    /// `pa..pa + buf.len()`), in staging order — the component's
    /// read-your-own-writes view.
    pub fn overlay(&self, pa: u64, buf: &mut [u8]) {
        let len = buf.len() as u64;
        for e in &self.entries {
            let e_end = e.pa + u64::from(e.len);
            if e.pa >= pa + len || e_end <= pa {
                continue;
            }
            let from = e.pa.max(pa);
            let to = e_end.min(pa + len);
            let src = e.start as u64 + (from - e.pa);
            buf[(from - pa) as usize..(to - pa) as usize]
                .copy_from_slice(&self.data[src as usize..(src + (to - from)) as usize]);
        }
    }

    /// Applies every staged write to `mem` in staging order, then clears
    /// the log (retaining its buffers).
    pub fn commit(&mut self, mem: &mut PhysMem) {
        for e in &self.entries {
            mem.write_bytes(
                e.pa,
                &self.data[e.start as usize..(e.start + e.len) as usize],
            );
        }
        self.entries.clear();
        self.data.clear();
    }
}

/// A component's view of memory during one step: committed [`PhysMem`]
/// overlaid with the component's own staged writes.
pub struct StagedMem<'a> {
    base: &'a PhysMem,
    log: &'a mut WriteLog,
}

impl std::fmt::Debug for StagedMem<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StagedMem")
            .field("staged_writes", &self.log.entries.len())
            .finish()
    }
}

impl<'a> StagedMem<'a> {
    /// Creates a staged view of `base` logging into `log`.
    pub fn new(base: &'a PhysMem, log: &'a mut WriteLog) -> Self {
        Self { base, log }
    }
}

/// Reads see own staged writes; writes are staged.
impl MemAccess for StagedMem<'_> {
    fn read_u8(&self, pa: u64) -> u8 {
        let mut buf = [0u8; 1];
        self.read_bytes(pa, &mut buf);
        buf[0]
    }

    fn write_u8(&mut self, pa: u64, value: u8) {
        self.log.push(pa, &[value]);
    }

    fn read_u64(&self, pa: u64) -> u64 {
        if self.log.is_empty() {
            return self.base.read_u64(pa);
        }
        let mut buf = [0u8; 8];
        self.read_bytes(pa, &mut buf);
        u64::from_le_bytes(buf)
    }

    fn read_bytes(&self, pa: u64, buf: &mut [u8]) {
        self.base.read_bytes(pa, buf);
        self.log.overlay(pa, buf);
    }

    fn write_bytes(&mut self, pa: u64, data: &[u8]) {
        self.log.push(pa, data);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reads_fall_through_to_base() {
        let mut base = PhysMem::new();
        base.write_u64(0x100, 42);
        let mut log = WriteLog::new();
        let staged = StagedMem::new(&base, &mut log);
        assert_eq!(staged.read_u64(0x100), 42);
        assert_eq!(staged.read_u8(0x100), 42);
    }

    #[test]
    fn writes_stage_without_touching_base() {
        let mut base = PhysMem::new();
        let mut log = WriteLog::new();
        let mut staged = StagedMem::new(&base, &mut log);
        staged.write_u64(0x200, 7);
        assert_eq!(staged.read_u64(0x200), 7, "read-your-own-writes");
        assert_eq!(base.read_u64(0x200), 0, "base untouched until commit");
        log.commit(&mut base);
        assert_eq!(base.read_u64(0x200), 7, "committed at the barrier");
        assert!(log.is_empty());
    }

    #[test]
    fn overlay_handles_partial_overlap_in_order() {
        let base = PhysMem::new();
        let mut log = WriteLog::new();
        let mut staged = StagedMem::new(&base, &mut log);
        staged.write_bytes(0x1000, &[1, 2, 3, 4]);
        staged.write_bytes(0x1002, &[9, 9]);
        let mut buf = [0u8; 6];
        staged.read_bytes(0x0fff, &mut buf);
        assert_eq!(buf, [0, 1, 2, 9, 9, 0], "later stage wins on overlap");
    }

    #[test]
    fn commit_applies_in_staging_order() {
        let mut base = PhysMem::new();
        let mut log = WriteLog::new();
        let mut staged = StagedMem::new(&base, &mut log);
        staged.write_u64(0x40, 1);
        staged.write_u64(0x40, 2);
        log.commit(&mut base);
        assert_eq!(base.read_u64(0x40), 2);
    }

    #[test]
    fn cross_page_staging_roundtrip() {
        let mut base = PhysMem::new();
        let mut log = WriteLog::new();
        let mut staged = StagedMem::new(&base, &mut log);
        let pa = 4096 - 3;
        staged.write_u64(pa, u64::MAX);
        assert_eq!(staged.read_u64(pa), u64::MAX);
        log.commit(&mut base);
        assert_eq!(base.read_u64(pa), u64::MAX);
    }
}
