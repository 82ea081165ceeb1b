//! A generic set-associative cache with LRU replacement.
//!
//! Both cache levels of the Multicube node are instances of
//! [`SetAssocCache`]: the small SRAM processor cache stores plain presence
//! (`M = ()`), while the large DRAM snooping cache stores the protocol's
//! per-line mode enum. The container is protocol-agnostic: coherence
//! semantics live in the `multicube` crate.

use crate::addr::{LineAddr, LineMap};

/// Shape of a set-associative cache.
///
/// Capacity is `sets * ways` lines; a line maps to set `index % sets`.
/// `sets == 1` gives a fully-associative cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheGeometry {
    sets: u32,
    ways: u32,
}

impl CacheGeometry {
    /// Creates a geometry with `sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if either parameter is zero.
    pub fn new(sets: u32, ways: u32) -> Self {
        assert!(sets > 0, "cache needs at least one set");
        assert!(ways > 0, "cache needs at least one way");
        CacheGeometry { sets, ways }
    }

    /// A fully-associative geometry with the given capacity in lines.
    pub fn fully_associative(capacity: u32) -> Self {
        CacheGeometry::new(1, capacity)
    }

    /// Number of sets.
    pub fn sets(self) -> u32 {
        self.sets
    }

    /// Ways per set.
    pub fn ways(self) -> u32 {
        self.ways
    }

    /// Total capacity in lines.
    pub fn capacity(self) -> u32 {
        self.sets * self.ways
    }

    /// The set a line maps to.
    #[inline]
    fn set_of(self, line: LineAddr) -> usize {
        (line.index() % self.sets as u64) as usize
    }
}

/// A line evicted to make room for an insertion.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Evicted<M> {
    /// The evicted line's address.
    pub line: LineAddr,
    /// The metadata the line held when evicted.
    pub meta: M,
}

/// One way of one set.
#[derive(Debug, Clone)]
struct Way<M> {
    line: LineAddr,
    meta: M,
    /// Last-touch stamp for LRU within the set.
    touched: u64,
}

/// A set-associative cache mapping [`LineAddr`] to per-line metadata `M`,
/// with LRU replacement within each set.
///
/// Lookups, insertions and removals are O(ways). Absence of a line means
/// "invalid" — the protocol never stores an explicit invalid mode.
///
/// A per-set occupancy bitmap (one bit per set, set while the set holds
/// any line) lets [`iter`](Self::iter) skip empty sets 64 at a time, so a
/// walk costs O(sets / 64 + resident) rather than O(sets). The coherence
/// checkers and the model cross-validation walk every node's snooping
/// cache at every quiescent point, and those caches are mostly empty.
///
/// The set table and the bitmap are allocated on the first insertion, so
/// building and dropping a cache that is never filled costs nothing — the
/// common case for the thousands of short-lived 2×2 machines the model
/// cross-validation builds.
///
/// # Example
///
/// ```
/// use multicube_mem::{CacheGeometry, LineAddr, SetAssocCache};
///
/// let mut cache: SetAssocCache<&str> = SetAssocCache::new(CacheGeometry::new(2, 2));
/// cache.insert(LineAddr::new(0), "a");
/// cache.insert(LineAddr::new(2), "b"); // same set as line 0
/// cache.insert(LineAddr::new(4), "c"); // evicts LRU of that set: line 0
/// let evicted = cache.insert(LineAddr::new(6), "d").unwrap();
/// assert_eq!(evicted.line, LineAddr::new(2));
/// assert!(cache.get(&LineAddr::new(4)).is_some());
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<M> {
    geometry: CacheGeometry,
    /// One `Vec` per set; empty until the first insertion.
    sets: Vec<Vec<Way<M>>>,
    /// Bit `s % 64` of word `s / 64` is set iff set `s` is non-empty.
    occupied: Vec<u64>,
    clock: u64,
    len: usize,
}

impl<M> SetAssocCache<M> {
    /// Creates an empty cache with the given geometry. Nothing is
    /// allocated until the first insertion.
    pub fn new(geometry: CacheGeometry) -> Self {
        SetAssocCache {
            geometry,
            sets: Vec::new(),
            occupied: Vec::new(),
            clock: 0,
            len: 0,
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn tick(&mut self) -> u64 {
        self.clock += 1;
        self.clock
    }

    /// Looks up a line without affecting recency (a *snoop*, not an access).
    pub fn peek(&self, line: &LineAddr) -> Option<&M> {
        let set = self.sets.get(self.geometry.set_of(*line))?;
        set.iter().find(|w| w.line == *line).map(|w| &w.meta)
    }

    /// Looks up a line, updating LRU recency (a processor-side access).
    pub fn get(&mut self, line: &LineAddr) -> Option<&M> {
        let stamp = self.tick();
        let set_idx = self.geometry.set_of(*line);
        let set = self.sets.get_mut(set_idx)?;
        let way = set.iter_mut().find(|w| w.line == *line)?;
        way.touched = stamp;
        Some(&way.meta)
    }

    /// Mutable lookup, updating LRU recency.
    pub fn get_mut(&mut self, line: &LineAddr) -> Option<&mut M> {
        let stamp = self.tick();
        let set_idx = self.geometry.set_of(*line);
        let set = self.sets.get_mut(set_idx)?;
        let way = set.iter_mut().find(|w| w.line == *line)?;
        way.touched = stamp;
        Some(&mut way.meta)
    }

    /// Mutable lookup without touching recency (snoop-side state change).
    pub fn peek_mut(&mut self, line: &LineAddr) -> Option<&mut M> {
        let set_idx = self.geometry.set_of(*line);
        self.sets
            .get_mut(set_idx)?
            .iter_mut()
            .find(|w| w.line == *line)
            .map(|w| &mut w.meta)
    }

    /// Whether the line is resident.
    pub fn contains(&self, line: &LineAddr) -> bool {
        self.peek(line).is_some()
    }

    /// Inserts or updates a line, returning the evicted victim if the set
    /// was full and the line was not already resident.
    ///
    /// The victim is the least recently used way of the line's set.
    pub fn insert(&mut self, line: LineAddr, meta: M) -> Option<Evicted<M>> {
        let stamp = self.tick();
        let set_idx = self.geometry.set_of(line);
        let ways = self.geometry.ways() as usize;
        if self.sets.is_empty() {
            let sets = self.geometry.sets();
            self.sets = (0..sets).map(|_| Vec::new()).collect();
            self.occupied = vec![0; sets.div_ceil(64) as usize];
        }
        let set = &mut self.sets[set_idx];

        if let Some(way) = set.iter_mut().find(|w| w.line == line) {
            way.meta = meta;
            way.touched = stamp;
            return None;
        }

        let mut evicted = None;
        if set.len() >= ways {
            let lru = set
                .iter()
                .enumerate()
                .min_by_key(|(_, w)| w.touched)
                .map(|(i, _)| i)
                .expect("full set is nonempty");
            let victim = set.swap_remove(lru);
            self.len -= 1;
            evicted = Some(Evicted {
                line: victim.line,
                meta: victim.meta,
            });
        }
        if set.is_empty() {
            self.occupied[set_idx / 64] |= 1 << (set_idx % 64);
        }
        set.push(Way {
            line,
            meta,
            touched: stamp,
        });
        self.len += 1;
        evicted
    }

    /// The line that would be evicted if `line` were inserted now: the LRU
    /// way of the target set, or `None` if there is a free way or the line
    /// is already resident.
    pub fn victim_for(&self, line: &LineAddr) -> Option<(LineAddr, &M)> {
        let set = self.sets.get(self.geometry.set_of(*line))?;
        if set.iter().any(|w| w.line == *line) {
            return None;
        }
        if set.len() < self.geometry.ways() as usize {
            return None;
        }
        set.iter()
            .min_by_key(|w| w.touched)
            .map(|w| (w.line, &w.meta))
    }

    /// Removes a line, returning its metadata if it was resident.
    pub fn remove(&mut self, line: &LineAddr) -> Option<M> {
        let set_idx = self.geometry.set_of(*line);
        let set = self.sets.get_mut(set_idx)?;
        let pos = set.iter().position(|w| w.line == *line)?;
        let way = set.swap_remove(pos);
        if set.is_empty() {
            self.occupied[set_idx / 64] &= !(1 << (set_idx % 64));
        }
        self.len -= 1;
        Some(way.meta)
    }

    /// Iterates over all resident `(line, meta)` pairs, set by set in
    /// ascending set order and, within a set, in way order. The order is
    /// a pure function of the operation history, so snapshots and digests
    /// built from it are reproducible.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &M)> {
        set_bits(&self.occupied).flat_map(|s| self.sets[s].iter().map(|w| (w.line, &w.meta)))
    }

    /// Drains the cache, returning all resident lines in [`iter`](Self::iter)
    /// order.
    pub fn drain(&mut self) -> Vec<(LineAddr, M)> {
        let mut out = Vec::with_capacity(self.len);
        for s in set_bits(&self.occupied) {
            out.extend(self.sets[s].drain(..).map(|way| (way.line, way.meta)));
        }
        self.occupied.fill(0);
        self.len = 0;
        out
    }

    /// Collects the resident lines into a map (for invariant checking).
    pub fn snapshot(&self) -> LineMap<M>
    where
        M: Clone,
    {
        self.iter().map(|(l, m)| (l, m.clone())).collect()
    }
}

/// Indices of the set bits of a bitmap (bit `i % 64` of word `i / 64`),
/// ascending.
fn set_bits(words: &[u64]) -> impl Iterator<Item = usize> + '_ {
    words.iter().enumerate().flat_map(|(w, &word)| {
        let mut bits = word;
        std::iter::from_fn(move || {
            if bits == 0 {
                return None;
            }
            let b = bits.trailing_zeros() as usize;
            bits &= bits - 1;
            Some(w * 64 + b)
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(i: u64) -> LineAddr {
        LineAddr::new(i)
    }

    #[test]
    fn insert_and_lookup() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(4, 2));
        assert!(c.insert(line(1), 10).is_none());
        assert_eq!(c.get(&line(1)), Some(&10));
        assert_eq!(c.peek(&line(1)), Some(&10));
        assert!(c.get(&line(2)).is_none());
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn update_existing_does_not_evict() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 1));
        c.insert(line(1), 10);
        assert!(c.insert(line(1), 20).is_none());
        assert_eq!(c.peek(&line(1)), Some(&20));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn lru_eviction_within_set() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 2));
        c.insert(line(1), 1);
        c.insert(line(2), 2);
        c.get(&line(1)); // line 2 is now LRU
        let ev = c.insert(line(3), 3).unwrap();
        assert_eq!(ev.line, line(2));
        assert_eq!(ev.meta, 2);
        assert!(c.contains(&line(1)) && c.contains(&line(3)));
    }

    #[test]
    fn peek_does_not_affect_lru() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 2));
        c.insert(line(1), 1);
        c.insert(line(2), 2);
        c.peek(&line(1)); // should NOT refresh line 1
        let ev = c.insert(line(3), 3).unwrap();
        assert_eq!(ev.line, line(1));
    }

    #[test]
    fn set_indexing_isolates_sets() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(2, 1));
        c.insert(line(0), 0); // set 0
        c.insert(line(1), 1); // set 1
        assert!(c.insert(line(3), 3).unwrap().line == line(1)); // set 1 again
        assert!(c.contains(&line(0)));
    }

    #[test]
    fn victim_for_predicts_eviction() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 2));
        c.insert(line(1), 1);
        assert!(c.victim_for(&line(9)).is_none()); // free way
        c.insert(line(2), 2);
        assert!(c.victim_for(&line(1)).is_none()); // already resident
        let (victim, _) = c.victim_for(&line(9)).unwrap();
        let ev = c.insert(line(9), 9).unwrap();
        assert_eq!(ev.line, victim);
    }

    #[test]
    fn remove_frees_space() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 1));
        c.insert(line(1), 1);
        assert_eq!(c.remove(&line(1)), Some(1));
        assert_eq!(c.remove(&line(1)), None);
        assert!(c.insert(line(2), 2).is_none());
    }

    #[test]
    fn get_mut_changes_value() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 4));
        c.insert(line(1), 1);
        *c.get_mut(&line(1)).unwrap() = 99;
        assert_eq!(c.peek(&line(1)), Some(&99));
    }

    #[test]
    fn peek_mut_does_not_affect_lru() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1, 2));
        c.insert(line(1), 1);
        c.insert(line(2), 2);
        *c.peek_mut(&line(1)).unwrap() = 11;
        let ev = c.insert(line(3), 3).unwrap();
        assert_eq!(ev.line, line(1)); // still LRU despite peek_mut
    }

    #[test]
    fn iter_and_snapshot_cover_all_lines() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(4, 4));
        for i in 0..10 {
            c.insert(line(i), i as u32);
        }
        assert_eq!(c.iter().count(), 10);
        let snap = c.snapshot();
        assert_eq!(snap.len(), 10);
        assert_eq!(snap[&line(7)], 7);
    }

    #[test]
    fn bitmap_walk_matches_a_full_set_major_scan() {
        // 130 sets: three bitmap words, the last one partial.
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(130, 2));
        let full_scan = |c: &SetAssocCache<u32>| -> Vec<(LineAddr, u32)> {
            c.sets
                .iter()
                .flat_map(|set| set.iter().map(|w| (w.line, w.meta)))
                .collect()
        };
        let walk = |c: &SetAssocCache<u32>| -> Vec<(LineAddr, u32)> {
            c.iter().map(|(l, m)| (l, *m)).collect()
        };
        for i in (0..400).step_by(3) {
            c.insert(line(i), i as u32);
            assert_eq!(walk(&c), full_scan(&c));
        }
        for i in (0..400).step_by(6) {
            c.remove(&line(i));
            assert_eq!(walk(&c), full_scan(&c));
            assert_eq!(c.iter().count(), c.len());
        }
        let expect = full_scan(&c);
        assert_eq!(c.drain(), expect);
        assert!(c.occupied.iter().all(|&w| w == 0));
        assert_eq!(c.iter().count(), 0);
    }

    #[test]
    fn drain_empties() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(2, 2));
        c.insert(line(0), 0);
        c.insert(line(1), 1);
        let drained = c.drain();
        assert_eq!(drained.len(), 2);
        assert!(c.is_empty());
    }

    #[test]
    fn fully_associative_uses_whole_capacity() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::fully_associative(8));
        for i in 0..8 {
            assert!(c.insert(line(i * 100), 0).is_none());
        }
        assert!(c.insert(line(999), 0).is_some());
    }

    #[test]
    #[should_panic(expected = "at least one way")]
    fn zero_ways_panics() {
        let _ = CacheGeometry::new(4, 0);
    }
}
