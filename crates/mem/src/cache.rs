//! A generic set-associative cache with LRU replacement.
//!
//! Both cache levels of the Multicube node are instances of
//! [`SetAssocCache`]: the small SRAM processor cache stores plain presence
//! (`M = ()`), while the large DRAM snooping cache stores the protocol's
//! per-line mode enum. The container is protocol-agnostic: coherence
//! semantics live in the `multicube` crate.

use std::num::NonZeroU64;

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
    /// Last-touch stamp for LRU within the set. Never zero, so an
    /// `Option<Way>` slot costs no more than the way itself.
    touched: NonZeroU64,
}

/// A set-associative cache mapping [`LineAddr`] to per-line metadata `M`,
/// with LRU replacement within each set.
///
/// Lookups, insertions and removals are O(ways). Absence of a line means
/// "invalid" — the protocol never stores an explicit invalid mode.
///
/// Storage is proportional to the sets a cache has *touched*, not to its
/// geometry: a per-set `u32` index points into a slab holding, for each
/// set that has ever held a line, one exactly sized chunk of `ways`
/// slots, in first-touch order. A snooping cache of 1,024 sets that
/// holds a few dozen lines — the usual case in a large grid — keeps a
/// 4 KB index and a few dozen chunks instead of 1,024 way lists.
///
/// A per-set occupancy bitmap (one bit per set, set while the set holds
/// any line) lets [`iter`](Self::iter) skip empty sets 64 at a time, so a
/// walk costs O(sets / 64 + resident) rather than O(sets). The coherence
/// checkers and the model cross-validation walk every node's snooping
/// cache at every quiescent point, and those caches are mostly empty.
///
/// Everything but the geometry is allocated on the first insertion, behind
/// one pointer, so building and dropping a cache that is never filled costs
/// nothing — the common case for the thousands of short-lived 2×2 machines
/// the model cross-validation builds.
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
    /// The set tables and counters; `None` until the first insertion.
    store: Option<Box<Store<M>>>,
}

/// The storage of a cache that has held a line.
#[derive(Debug, Clone)]
struct Store<M> {
    /// Per set: one plus the set's slot in `chunks`, or 0 while the set
    /// has never held a line.
    slot_of: Box<[u32]>,
    /// One chunk of `ways` slots per touched set, in first-touch order. A
    /// set's lines are the `Some` prefix of its chunk, in way order
    /// (insertion appends, removal swaps the last line into the gap). A
    /// set keeps its chunk when it empties.
    chunks: Vec<Box<[Option<Way<M>>]>>,
    /// Bit `s % 64` of word `s / 64` is set iff set `s` is non-empty.
    occupied: Box<[u64]>,
    /// Last-touch stamp source for LRU.
    clock: u64,
    /// Resident lines.
    len: usize,
}

impl<M> Store<M> {
    fn new(geometry: CacheGeometry) -> Self {
        let sets = geometry.sets() as usize;
        Store {
            slot_of: vec![0; sets].into_boxed_slice(),
            chunks: Vec::new(),
            occupied: vec![0; sets.div_ceil(64)].into_boxed_slice(),
            clock: 0,
            len: 0,
        }
    }

    fn tick(&mut self) -> NonZeroU64 {
        self.clock += 1;
        NonZeroU64::new(self.clock).expect("the clock has ticked at least once")
    }

    /// Set `set`'s chunk, if it was ever touched.
    #[inline]
    fn chunk(&self, set: usize) -> Option<&[Option<Way<M>>]> {
        let slot = (self.slot_of[set] as usize).checked_sub(1)?;
        Some(&self.chunks[slot])
    }

    /// Set `set`'s chunk, mutably, if it was ever touched.
    #[inline]
    fn chunk_mut(&mut self, set: usize) -> Option<&mut [Option<Way<M>>]> {
        let slot = (self.slot_of[set] as usize).checked_sub(1)?;
        Some(&mut self.chunks[slot])
    }

    /// Set `set`'s chunk, giving the set `ways` empty slots on first touch.
    fn touch(&mut self, set: usize, ways: usize) -> &mut [Option<Way<M>>] {
        if self.slot_of[set] == 0 {
            self.chunks.push((0..ways).map(|_| None).collect());
            self.slot_of[set] = u32::try_from(self.chunks.len()).expect("touched sets fit u32");
        }
        self.chunk_mut(set).expect("a touched set has a chunk")
    }
}

/// The lines of a chunk, in way order.
fn resident<M>(chunk: &[Option<Way<M>>]) -> impl Iterator<Item = &Way<M>> {
    chunk.iter().map_while(Option::as_ref)
}

/// The lines of a chunk, mutably, in way order.
fn resident_mut<M>(chunk: &mut [Option<Way<M>>]) -> impl Iterator<Item = &mut Way<M>> {
    chunk.iter_mut().map_while(Option::as_mut)
}

/// Removes way `pos` of a chunk holding `len` lines, moving the last line
/// into its place (`Vec::swap_remove` order).
fn swap_remove<M>(chunk: &mut [Option<Way<M>>], pos: usize, len: usize) -> Way<M> {
    chunk.swap(pos, len - 1);
    chunk[len - 1].take().expect("a resident way")
}

impl<M> SetAssocCache<M> {
    /// Creates an empty cache with the given geometry. Nothing is
    /// allocated until the first insertion.
    pub fn new(geometry: CacheGeometry) -> Self {
        SetAssocCache {
            geometry,
            store: None,
        }
    }

    /// The cache's geometry.
    pub fn geometry(&self) -> CacheGeometry {
        self.geometry
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.store.as_ref().map_or(0, |st| st.len)
    }

    /// Whether no lines are resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The chunk `line` maps to, if its set was ever touched.
    #[inline]
    fn chunk_of(&self, line: &LineAddr) -> Option<&[Option<Way<M>>]> {
        self.store.as_ref()?.chunk(self.geometry.set_of(*line))
    }

    /// Looks up a line without affecting recency (a *snoop*, not an access).
    pub fn peek(&self, line: &LineAddr) -> Option<&M> {
        resident(self.chunk_of(line)?)
            .find(|w| w.line == *line)
            .map(|w| &w.meta)
    }

    /// Looks up a line, updating LRU recency (a processor-side access).
    pub fn get(&mut self, line: &LineAddr) -> Option<&M> {
        self.get_mut(line).map(|m| &*m)
    }

    /// Mutable lookup, updating LRU recency.
    pub fn get_mut(&mut self, line: &LineAddr) -> Option<&mut M> {
        let set = self.geometry.set_of(*line);
        let st = self.store.as_mut()?;
        let stamp = st.tick();
        let way = resident_mut(st.chunk_mut(set)?).find(|w| w.line == *line)?;
        way.touched = stamp;
        Some(&mut way.meta)
    }

    /// Mutable lookup without touching recency (snoop-side state change).
    pub fn peek_mut(&mut self, line: &LineAddr) -> Option<&mut M> {
        let set = self.geometry.set_of(*line);
        resident_mut(self.store.as_mut()?.chunk_mut(set)?)
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
        let geometry = self.geometry;
        let (set_idx, ways) = (geometry.set_of(line), geometry.ways() as usize);
        let st = self
            .store
            .get_or_insert_with(|| Box::new(Store::new(geometry)));
        let stamp = st.tick();
        let chunk = st.touch(set_idx, ways);

        // One pass: the line itself, else the first free way and the LRU
        // way (the first of equal stamps, as `min_by_key` picks).
        let mut len = ways;
        let mut lru = (0, u64::MAX);
        for (i, slot) in chunk.iter_mut().enumerate() {
            match slot {
                Some(way) if way.line == line => {
                    way.meta = meta;
                    way.touched = stamp;
                    return None;
                }
                Some(way) if way.touched.get() < lru.1 => lru = (i, way.touched.get()),
                Some(_) => {}
                None => {
                    len = i;
                    break;
                }
            }
        }
        let mut evicted = None;
        if len == ways {
            let victim = swap_remove(chunk, lru.0, len);
            len -= 1;
            evicted = Some(Evicted {
                line: victim.line,
                meta: victim.meta,
            });
        }
        chunk[len] = Some(Way {
            line,
            meta,
            touched: stamp,
        });
        if len == 0 {
            st.occupied[set_idx / 64] |= 1 << (set_idx % 64);
        }
        if evicted.is_none() {
            st.len += 1;
        }
        evicted
    }

    /// The line that would be evicted if `line` were inserted now: the LRU
    /// way of the target set, or `None` if there is a free way or the line
    /// is already resident.
    pub fn victim_for(&self, line: &LineAddr) -> Option<(LineAddr, &M)> {
        let chunk = self.chunk_of(line)?;
        if resident(chunk).any(|w| w.line == *line) || chunk.iter().any(Option::is_none) {
            return None;
        }
        resident(chunk)
            .min_by_key(|w| w.touched)
            .map(|w| (w.line, &w.meta))
    }

    /// Removes a line, returning its metadata if it was resident.
    pub fn remove(&mut self, line: &LineAddr) -> Option<M> {
        let set_idx = self.geometry.set_of(*line);
        let st = self.store.as_mut()?;
        let chunk = st.chunk_mut(set_idx)?;
        let pos = resident(chunk).position(|w| w.line == *line)?;
        let len = pos + 1 + resident(&chunk[pos + 1..]).count();
        let way = swap_remove(chunk, pos, len);
        if len == 1 {
            st.occupied[set_idx / 64] &= !(1 << (set_idx % 64));
        }
        st.len -= 1;
        Some(way.meta)
    }

    /// Iterates over all resident `(line, meta)` pairs, set by set in
    /// ascending set order and, within a set, in way order. The order is
    /// a pure function of the operation history, so snapshots and digests
    /// built from it are reproducible.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &M)> {
        self.store.iter().flat_map(|st| {
            set_bits(&st.occupied).flat_map(move |s| {
                resident(st.chunk(s).expect("an occupied set was touched"))
                    .map(|w| (w.line, &w.meta))
            })
        })
    }

    /// Drains the cache, returning all resident lines in [`iter`](Self::iter)
    /// order.
    pub fn drain(&mut self) -> Vec<(LineAddr, M)> {
        let Some(st) = self.store.as_mut() else {
            return Vec::new();
        };
        let mut out = Vec::with_capacity(st.len);
        for s in set_bits(&st.occupied) {
            let slot = st.slot_of[s] as usize - 1;
            out.extend(
                st.chunks[slot]
                    .iter_mut()
                    .map_while(Option::take)
                    .map(|way| (way.line, way.meta)),
            );
        }
        st.occupied.fill(0);
        st.len = 0;
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
            let st = c.store.as_ref().expect("filled cache has a store");
            (0..st.slot_of.len())
                .filter_map(|s| st.chunk(s))
                .flat_map(|chunk| resident(chunk).map(|w| (w.line, w.meta)))
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
        assert!(c.store.as_ref().unwrap().occupied.iter().all(|&w| w == 0));
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

    #[test]
    fn untouched_cache_allocates_nothing() {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(1024, 4));
        assert!(c.get(&line(3)).is_none());
        assert!(c.remove(&line(3)).is_none());
        assert!(c.drain().is_empty());
        assert!(c.store.is_none());
        c.insert(line(3), 3);
        assert_eq!(c.store.as_ref().unwrap().chunks.len(), 1);
    }

    /// The cache as it was stored before touched-set storage: one `Vec`
    /// of ways per set, every set allocated on the first insertion. Kept
    /// as the oracle the slab layout must match answer for answer.
    struct VecSetsCache {
        geometry: CacheGeometry,
        sets: Vec<Vec<OracleWay>>,
        clock: u64,
    }

    struct OracleWay {
        line: LineAddr,
        meta: u32,
        touched: u64,
    }

    impl VecSetsCache {
        fn new(geometry: CacheGeometry) -> Self {
            VecSetsCache {
                geometry,
                sets: Vec::new(),
                clock: 0,
            }
        }

        fn tick(&mut self) -> u64 {
            self.clock += 1;
            self.clock
        }

        fn peek(&self, line: &LineAddr) -> Option<&u32> {
            let set = self.sets.get(self.geometry.set_of(*line))?;
            set.iter().find(|w| w.line == *line).map(|w| &w.meta)
        }

        fn get(&mut self, line: &LineAddr) -> Option<&u32> {
            let stamp = self.tick();
            let set_idx = self.geometry.set_of(*line);
            let way = self
                .sets
                .get_mut(set_idx)?
                .iter_mut()
                .find(|w| w.line == *line)?;
            way.touched = stamp;
            Some(&way.meta)
        }

        fn insert(&mut self, line: LineAddr, meta: u32) -> Option<Evicted<u32>> {
            let stamp = self.tick();
            let set_idx = self.geometry.set_of(line);
            let ways = self.geometry.ways() as usize;
            if self.sets.is_empty() {
                self.sets = (0..self.geometry.sets()).map(|_| Vec::new()).collect();
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
                evicted = Some(Evicted {
                    line: victim.line,
                    meta: victim.meta,
                });
            }
            set.push(OracleWay {
                line,
                meta,
                touched: stamp,
            });
            evicted
        }

        fn victim_for(&self, line: &LineAddr) -> Option<(LineAddr, &u32)> {
            let set = self.sets.get(self.geometry.set_of(*line))?;
            if set.iter().any(|w| w.line == *line) || set.len() < self.geometry.ways() as usize {
                return None;
            }
            set.iter()
                .min_by_key(|w| w.touched)
                .map(|w| (w.line, &w.meta))
        }

        fn remove(&mut self, line: &LineAddr) -> Option<u32> {
            let set = self.sets.get_mut(self.geometry.set_of(*line))?;
            let pos = set.iter().position(|w| w.line == *line)?;
            Some(set.swap_remove(pos).meta)
        }

        fn iter(&self) -> Vec<(LineAddr, u32)> {
            self.sets
                .iter()
                .flat_map(|set| set.iter().map(|w| (w.line, w.meta)))
                .collect()
        }

        fn drain(&mut self) -> Vec<(LineAddr, u32)> {
            let out = self.iter();
            self.sets.iter_mut().for_each(Vec::clear);
            out
        }
    }

    #[derive(Debug, Clone)]
    enum Op {
        Insert(u64, u32),
        Get(u64),
        Peek(u64),
        VictimFor(u64),
        Remove(u64),
        Drain,
    }

    fn ops() -> impl proptest::strategy::Strategy<Value = Vec<Op>> {
        use proptest::prelude::*;
        prop::collection::vec(
            (0u8..64, 0u64..600, any::<u32>()).prop_map(|(k, l, m)| match k {
                0 => Op::Drain,
                1..=24 => Op::Insert(l, m),
                25..=36 => Op::Get(l),
                37..=44 => Op::Peek(l),
                45..=52 => Op::VictimFor(l),
                _ => Op::Remove(l),
            }),
            0..400,
        )
    }

    /// Replays `ops` on both layouts, comparing every answer and the
    /// iteration order after each step.
    fn matches_oracle(geometry: CacheGeometry, ops: &[Op]) {
        let mut c: SetAssocCache<u32> = SetAssocCache::new(geometry);
        let mut oracle = VecSetsCache::new(geometry);
        for op in ops {
            match *op {
                Op::Insert(l, m) => assert_eq!(c.insert(line(l), m), oracle.insert(line(l), m)),
                Op::Get(l) => assert_eq!(c.get(&line(l)), oracle.get(&line(l))),
                Op::Peek(l) => assert_eq!(c.peek(&line(l)), oracle.peek(&line(l))),
                Op::VictimFor(l) => assert_eq!(c.victim_for(&line(l)), oracle.victim_for(&line(l))),
                Op::Remove(l) => assert_eq!(c.remove(&line(l)), oracle.remove(&line(l))),
                Op::Drain => assert_eq!(c.drain(), oracle.drain()),
            }
            let walk: Vec<(LineAddr, u32)> = c.iter().map(|(l, m)| (l, *m)).collect();
            assert_eq!(walk, oracle.iter());
            assert_eq!(c.len(), walk.len());
        }
    }

    proptest::proptest! {
        #[test]
        fn touched_sets_match_the_vec_per_set_oracle(ops in ops()) {
            // One set, 130 sets (a partial last bitmap word), and a fully
            // associative cache of 64 ways.
            for geometry in [
                CacheGeometry::new(1, 4),
                CacheGeometry::new(130, 2),
                CacheGeometry::fully_associative(64),
            ] {
                matches_oracle(geometry, &ops);
            }
        }
    }
}
