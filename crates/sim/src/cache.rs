//! Set-associative tag arrays.
//!
//! Caches in this simulator are *tag-only*: they track which lines an agent
//! holds and in what MESI-ish state, while the data lives in
//! [`crate::mem::PhysMem`]. See `DESIGN.md` §5 for why this is sound.

use crate::config::CacheConfig;
use crate::LINE_BYTES;

/// Agent-side coherence state of a cached line.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LineState {
    /// Shared: may read.
    S,
    /// Modified/exclusive: may read and write.
    M,
}

#[derive(Debug, Clone, Copy)]
struct Entry {
    tag: u64,
    state: LineState,
    lru: u64,
}

/// A set-associative, LRU tag array.
#[derive(Debug)]
pub struct TagArray {
    sets: u64,
    ways: usize,
    entries: Vec<Option<Entry>>,
    tick: u64,
}

impl TagArray {
    /// Builds an empty tag array with the given geometry.
    pub fn new(cfg: CacheConfig) -> Self {
        let sets = cfg.sets();
        Self {
            sets,
            ways: cfg.ways as usize,
            entries: vec![None; (sets as usize) * cfg.ways as usize],
            tick: 0,
        }
    }

    fn set_index(&self, line: u64) -> usize {
        ((line / LINE_BYTES) % self.sets) as usize
    }

    fn set_slice(&self, line: u64) -> std::ops::Range<usize> {
        let s = self.set_index(line) * self.ways;
        s..s + self.ways
    }

    /// Current state of `line`, or `None` if not resident.
    pub fn state(&self, line: u64) -> Option<LineState> {
        self.entries[self.set_slice(line)]
            .iter()
            .flatten()
            .find(|e| e.tag == line)
            .map(|e| e.state)
    }

    /// True if `line` is resident in any state.
    pub fn contains(&self, line: u64) -> bool {
        self.state(line).is_some()
    }

    /// Marks `line` most-recently-used and returns its state.
    pub fn touch(&mut self, line: u64) -> Option<LineState> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_slice(line);
        for e in self.entries[range].iter_mut().flatten() {
            if e.tag == line {
                e.lru = tick;
                return Some(e.state);
            }
        }
        None
    }

    /// Changes the state of a resident line. Returns `false` if absent.
    pub fn set_state(&mut self, line: u64, state: LineState) -> bool {
        let range = self.set_slice(line);
        for e in self.entries[range].iter_mut().flatten() {
            if e.tag == line {
                e.state = state;
                return true;
            }
        }
        false
    }

    /// Removes a line (invalidation or recall); returns its former state.
    pub fn remove(&mut self, line: u64) -> Option<LineState> {
        let range = self.set_slice(line);
        for slot in self.entries[range].iter_mut() {
            if let Some(e) = slot {
                if e.tag == line {
                    let st = e.state;
                    *slot = None;
                    return Some(st);
                }
            }
        }
        None
    }

    /// Inserts `line` in `state`, evicting the LRU victim of the set if the
    /// set is full, but never a victim for which `busy` returns true (e.g.
    /// lines with an in-flight directory transaction). Returns the evicted
    /// `(line, state)` if any, or `Err(())` if the set is full of busy
    /// lines; the caller should retry later.
    ///
    /// If the line is already resident its state is overwritten instead.
    #[allow(clippy::result_unit_err)]
    pub fn insert_with_victim_filter(
        &mut self,
        line: u64,
        state: LineState,
        busy: impl Fn(u64) -> bool,
    ) -> Result<Option<(u64, LineState)>, ()> {
        self.tick += 1;
        let tick = self.tick;
        let range = self.set_slice(line);
        // Already resident: update in place.
        for e in self.entries[range.clone()].iter_mut().flatten() {
            if e.tag == line {
                e.state = state;
                e.lru = tick;
                return Ok(None);
            }
        }
        // Free way?
        for slot in self.entries[range.clone()].iter_mut() {
            if slot.is_none() {
                *slot = Some(Entry {
                    tag: line,
                    state,
                    lru: tick,
                });
                return Ok(None);
            }
        }
        // Evict the LRU line that is not busy.
        let victim_idx = self.entries[range.clone()]
            .iter()
            .enumerate()
            .filter(|(_, e)| e.is_some_and(|e| !busy(e.tag)))
            .min_by_key(|(_, e)| e.map(|e| e.lru))
            .map(|(i, _)| i);
        match victim_idx {
            Some(i) => {
                let slot = &mut self.entries[range.start + i];
                let victim = slot.take().map(|e| (e.tag, e.state));
                *slot = Some(Entry {
                    tag: line,
                    state,
                    lru: tick,
                });
                Ok(victim)
            }
            None => Err(()),
        }
    }

    /// Iterates over all resident `(line, state)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (u64, LineState)> + '_ {
        self.entries.iter().flatten().map(|e| (e.tag, e.state))
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.entries.iter().flatten().count()
    }

    /// True if no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> TagArray {
        // 2 sets x 2 ways.
        TagArray::new(CacheConfig::new(4 * LINE_BYTES, 2))
    }

    /// An insert with no busy lines: it can always pick a victim.
    fn insert(t: &mut TagArray, line: u64, state: LineState) -> Option<(u64, LineState)> {
        t.insert_with_victim_filter(line, state, |_| false)
            .expect("no line is busy")
    }

    #[test]
    fn insert_and_lookup() {
        let mut t = tiny();
        assert_eq!(t.state(0x40), None);
        assert_eq!(insert(&mut t, 0x40, LineState::S), None);
        assert_eq!(t.state(0x40), Some(LineState::S));
        assert!(t.set_state(0x40, LineState::M));
        assert_eq!(t.state(0x40), Some(LineState::M));
    }

    #[test]
    fn eviction_is_lru_within_set() {
        let mut t = tiny();
        // Lines 0, 0x80, 0x100 all map to set 0 (stride = sets*64 = 128).
        assert_eq!(insert(&mut t, 0x000, LineState::S), None);
        assert_eq!(insert(&mut t, 0x100, LineState::S), None);
        t.touch(0x000); // make 0x100 the LRU
        let evicted = insert(&mut t, 0x200, LineState::M);
        assert_eq!(evicted, Some((0x100, LineState::S)));
        assert!(t.contains(0x000));
        assert!(t.contains(0x200));
    }

    #[test]
    fn remove_returns_state() {
        let mut t = tiny();
        insert(&mut t, 0x40, LineState::M);
        assert_eq!(t.remove(0x40), Some(LineState::M));
        assert_eq!(t.remove(0x40), None);
    }

    #[test]
    fn reinsert_updates_in_place() {
        let mut t = tiny();
        insert(&mut t, 0x40, LineState::S);
        assert_eq!(insert(&mut t, 0x40, LineState::M), None);
        assert_eq!(t.len(), 1);
        assert_eq!(t.state(0x40), Some(LineState::M));
    }

    #[test]
    fn different_sets_do_not_conflict() {
        let mut t = tiny();
        // 0x00 -> set 0, 0x40 -> set 1 for 2-set geometry.
        insert(&mut t, 0x00, LineState::S);
        insert(&mut t, 0x40, LineState::S);
        insert(&mut t, 0x80, LineState::S); // set 0 again
        assert_eq!(t.len(), 3);
    }
}
