//! Set-associative caches.
//!
//! One generic [`SetAssocCache`] implementation backs the three cache
//! structures of the FX/8: the per-CE internal instruction caches, the
//! shared CE cache (as four interleaved banks — two per CPC module), and
//! the aggregated IP cache. Lines carry a dirty bit and a `unique` bit for
//! the machine's unique-copy-before-modify coherence rule (Appendix C).

use crate::addr::LineId;
use serde::{Deserialize, Serialize};

/// A resident cache line.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry {
    /// Which line is resident.
    pub line: LineId,
    /// Modified relative to memory (write-back on eviction).
    pub dirty: bool,
    /// This cache holds the unique copy (required before modification).
    pub unique: bool,
}

/// A line evicted to make room for a fill.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted {
    /// The displaced line.
    pub line: LineId,
    /// Whether it must be written back.
    pub dirty: bool,
}

/// Running counters, cheap enough to keep always-on.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct CacheStats {
    /// Lookups that hit.
    pub hits: u64,
    /// Lookups that missed.
    pub misses: u64,
    /// Fills performed.
    pub fills: u64,
    /// Lines displaced by fills.
    pub evictions: u64,
    /// Dirty lines displaced (write-backs generated).
    pub writebacks: u64,
    /// Lines removed by coherence invalidations.
    pub invalidations: u64,
}

impl CacheStats {
    /// Miss ratio over all lookups (0 if no lookups yet).
    pub fn miss_ratio(&self) -> f64 {
        let total = self.hits + self.misses;
        if total == 0 {
            0.0
        } else {
            self.misses as f64 / total as f64
        }
    }
}

/// A set-associative cache with true-LRU replacement.
///
/// The mapping from line to set index is the *caller's* responsibility
/// (the shared cache interleaves lines across banks before set-indexing),
/// so every method takes an explicit `set` argument. `debug_assert`s guard
/// against crossed wires in debug builds.
///
/// Storage is a single flat `ways` array with stride `assoc` and a
/// per-set occupancy count: set `s` lives in
/// `ways[s * assoc .. s * assoc + len[s]]`, MRU first. A lookup is then
/// one contiguous scan — no per-set heap allocation, no pointer chase —
/// which matters because every CE and IP reference lands here.
#[derive(Debug, Clone)]
pub struct SetAssocCache {
    /// All ways, flattened; slots at or past a set's `len` are garbage.
    ways: Vec<Entry>,
    /// Resident entries per set (`<= assoc`).
    len: Vec<u8>,
    assoc: usize,
    stats: CacheStats,
}

impl SetAssocCache {
    /// Create a cache with `n_sets` sets of associativity `assoc`.
    pub fn new(n_sets: usize, assoc: usize) -> Self {
        assert!(n_sets > 0 && assoc > 0);
        assert!(assoc <= u8::MAX as usize, "associativity fits the counters");
        let filler = Entry {
            line: LineId(u64::MAX),
            dirty: false,
            unique: false,
        };
        SetAssocCache {
            ways: vec![filler; n_sets * assoc],
            len: vec![0; n_sets],
            assoc,
            stats: CacheStats::default(),
        }
    }

    /// Number of sets.
    pub fn n_sets(&self) -> usize {
        self.len.len()
    }

    /// Associativity.
    pub fn assoc(&self) -> usize {
        self.assoc
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        self.stats
    }

    /// Total lines currently resident.
    pub fn occupancy(&self) -> usize {
        self.len.iter().map(|&l| l as usize).sum()
    }

    /// The live entries of `set`, MRU first.
    #[inline]
    fn set_ways(&self, set: usize) -> &[Entry] {
        &self.ways[set * self.assoc..set * self.assoc + self.len[set] as usize]
    }

    /// Look up `line` in `set`; on hit, promote to MRU and return the entry.
    #[inline]
    pub fn lookup(&mut self, set: usize, line: LineId) -> Option<Entry> {
        let base = set * self.assoc;
        let ways = &mut self.ways[base..base + self.len[set] as usize];
        // MRU fast path: a repeat touch of the most recent line needs no
        // reordering at all.
        if let Some(&e0) = ways.first() {
            if e0.line == line {
                self.stats.hits += 1;
                return Some(e0);
            }
        }
        if let Some(pos) = ways.iter().position(|e| e.line == line) {
            // MRU promotion as one rotate instead of remove + insert: the
            // same permutation without shifting the tail of the set twice.
            // This is the hottest line in the simulator (every CE and IP
            // reference lands here).
            ways[..=pos].rotate_right(1);
            let e = ways[0];
            self.stats.hits += 1;
            Some(e)
        } else {
            self.stats.misses += 1;
            None
        }
    }

    /// Peek without LRU update or stats.
    pub fn contains(&self, set: usize, line: LineId) -> bool {
        self.set_ways(set).iter().any(|e| e.line == line)
    }

    /// Peek at the resident entry for `line` in `set`, without LRU update
    /// or stats side effects (coherence audits).
    pub fn entry(&self, set: usize, line: LineId) -> Option<Entry> {
        self.set_ways(set).iter().find(|e| e.line == line).copied()
    }

    /// Install `line` as MRU in `set`; returns the victim if the set was full.
    /// The line must not already be resident (fill-after-miss discipline).
    pub fn fill(&mut self, set: usize, line: LineId, dirty: bool, unique: bool) -> Option<Evicted> {
        debug_assert!(!self.contains(set, line), "fill of resident line");
        self.stats.fills += 1;
        let base = set * self.assoc;
        let len = self.len[set] as usize;
        let victim = if len == self.assoc {
            // The LRU entry falls off the end; everything shifts down one.
            let v = self.ways[base + len - 1];
            self.stats.evictions += 1;
            if v.dirty {
                self.stats.writebacks += 1;
            }
            Some(Evicted {
                line: v.line,
                dirty: v.dirty,
            })
        } else {
            self.len[set] = (len + 1) as u8;
            None
        };
        let keep = len.min(self.assoc - 1);
        self.ways.copy_within(base..base + keep, base + 1);
        self.ways[base] = Entry {
            line,
            dirty,
            unique,
        };
        victim
    }

    /// Mark a resident line dirty (and unique). Returns false if not resident.
    pub fn mark_dirty(&mut self, set: usize, line: LineId) -> bool {
        let base = set * self.assoc;
        let ways = &mut self.ways[base..base + self.len[set] as usize];
        if let Some(e) = ways.iter_mut().find(|e| e.line == line) {
            e.dirty = true;
            e.unique = true;
            true
        } else {
            false
        }
    }

    /// Coherence invalidation. Returns the entry if it was resident
    /// (the caller decides whether a dirty copy must be flushed).
    pub fn invalidate(&mut self, set: usize, line: LineId) -> Option<Entry> {
        let base = set * self.assoc;
        let len = self.len[set] as usize;
        let ways = &self.ways[base..base + len];
        if let Some(pos) = ways.iter().position(|e| e.line == line) {
            self.stats.invalidations += 1;
            let e = self.ways[base + pos];
            // Close the gap, preserving LRU order of the survivors.
            self.ways
                .copy_within(base + pos + 1..base + len, base + pos);
            self.len[set] = (len - 1) as u8;
            Some(e)
        } else {
            None
        }
    }

    /// Drop everything (used between unrelated test scenarios).
    pub fn flush_all(&mut self) {
        self.len.fill(0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(n: u64) -> LineId {
        LineId(n)
    }

    #[test]
    fn miss_then_fill_then_hit() {
        let mut c = SetAssocCache::new(4, 2);
        assert!(c.lookup(1, line(10)).is_none());
        assert!(c.fill(1, line(10), false, false).is_none());
        let e = c.lookup(1, line(10)).expect("hit after fill");
        assert!(!e.dirty);
        assert_eq!(c.stats().hits, 1);
        assert_eq!(c.stats().misses, 1);
    }

    #[test]
    fn lru_evicts_least_recently_used() {
        let mut c = SetAssocCache::new(1, 2);
        c.fill(0, line(1), false, false);
        c.fill(0, line(2), false, false);
        // Touch line 1 so line 2 becomes LRU.
        assert!(c.lookup(0, line(1)).is_some());
        let v = c.fill(0, line(3), false, false).expect("eviction");
        assert_eq!(v.line, line(2));
        assert!(c.contains(0, line(1)));
        assert!(c.contains(0, line(3)));
        assert!(!c.contains(0, line(2)));
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = SetAssocCache::new(1, 1);
        c.fill(0, line(1), false, false);
        assert!(c.mark_dirty(0, line(1)));
        let v = c.fill(0, line(2), false, false).expect("eviction");
        assert!(v.dirty);
        assert_eq!(c.stats().writebacks, 1);
    }

    #[test]
    fn invalidate_removes_line() {
        let mut c = SetAssocCache::new(2, 2);
        c.fill(0, line(4), true, true);
        let e = c.invalidate(0, line(4)).expect("was resident");
        assert!(e.dirty && e.unique);
        assert!(!c.contains(0, line(4)));
        assert!(c.invalidate(0, line(4)).is_none());
        assert_eq!(c.stats().invalidations, 1);
    }

    #[test]
    fn invalidate_preserves_lru_order_of_survivors() {
        let mut c = SetAssocCache::new(1, 4);
        for n in 1..=4 {
            c.fill(0, line(n), false, false);
        }
        // MRU..LRU is now 4,3,2,1; dropping 3 must leave 4,2,1.
        assert!(c.invalidate(0, line(3)).is_some());
        let v = c.fill(0, line(5), false, false);
        assert!(v.is_none(), "freed way absorbs the fill");
        let evicted = c.fill(0, line(6), false, false).expect("full again");
        assert_eq!(evicted.line, line(1), "line 1 is still the LRU");
    }

    #[test]
    fn mark_dirty_sets_unique() {
        let mut c = SetAssocCache::new(1, 2);
        c.fill(0, line(9), false, false);
        c.mark_dirty(0, line(9));
        let e = c.lookup(0, line(9)).unwrap();
        assert!(e.dirty && e.unique);
    }

    #[test]
    fn occupancy_never_exceeds_capacity() {
        let mut c = SetAssocCache::new(2, 2);
        for i in 0..100u64 {
            let set = (i % 2) as usize;
            if !c.contains(set, line(i)) {
                c.fill(set, line(i), i % 3 == 0, false);
            }
            assert!(c.occupancy() <= 4);
        }
        assert_eq!(c.occupancy(), 4);
    }

    #[test]
    fn miss_ratio_tracks_lookups() {
        let mut c = SetAssocCache::new(1, 1);
        c.lookup(0, line(1)); // miss
        c.fill(0, line(1), false, false);
        c.lookup(0, line(1)); // hit
        assert!((c.stats().miss_ratio() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn flush_all_empties_cache() {
        let mut c = SetAssocCache::new(2, 2);
        c.fill(0, line(1), false, false);
        c.fill(1, line(2), true, true);
        c.flush_all();
        assert_eq!(c.occupancy(), 0);
    }
}
