//! Property tests for the memory-hierarchy containers.

use multicube_mem::{
    CacheGeometry, LineAddr, LineGeometry, LineVersion, MemoryBank, MltInsert, ModifiedLineTable,
    SetAssocCache, WordAddr,
};
use proptest::prelude::*;
use std::collections::HashSet;

#[derive(Debug, Clone)]
enum CacheOp {
    Insert(u64, u32),
    Get(u64),
    Remove(u64),
}

fn cache_ops() -> impl Strategy<Value = Vec<CacheOp>> {
    prop::collection::vec(
        prop_oneof![
            (0u64..64, any::<u32>()).prop_map(|(l, m)| CacheOp::Insert(l, m)),
            (0u64..64).prop_map(CacheOp::Get),
            (0u64..64).prop_map(CacheOp::Remove),
        ],
        0..200,
    )
}

/// A step of the iteration property: the cache operations plus `drain`.
#[derive(Debug, Clone)]
enum IterOp {
    Insert(u64, u32),
    Get(u64),
    Remove(u64),
    Drain,
}

/// Mostly inserts, gets and removes over 512 lines; about one step in 32
/// drains.
fn iter_ops() -> impl Strategy<Value = Vec<IterOp>> {
    prop::collection::vec(
        (0u8..32, 0u64..512, any::<u32>()).prop_map(|(k, l, m)| match k {
            0 => IterOp::Drain,
            1..=12 => IterOp::Insert(l, m),
            13..=22 => IterOp::Get(l),
            _ => IterOp::Remove(l),
        }),
        0..300,
    )
}

/// A reference set-associative cache: one `Vec` of `(line, meta, stamp)`
/// per set, LRU by stamp, a victim swap-removed. Its scan visits every
/// set in order, empty or not.
struct ReferenceCache {
    sets: Vec<Vec<(u64, u32, u64)>>,
    ways: usize,
    clock: u64,
}

impl ReferenceCache {
    fn new(sets: u32, ways: u32) -> Self {
        ReferenceCache {
            sets: vec![Vec::new(); sets as usize],
            ways: ways as usize,
            clock: 0,
        }
    }

    fn set(&mut self, line: u64) -> &mut Vec<(u64, u32, u64)> {
        let n = self.sets.len() as u64;
        &mut self.sets[(line % n) as usize]
    }

    fn apply(&mut self, op: &IterOp) {
        match *op {
            IterOp::Insert(l, m) => {
                self.clock += 1;
                let (stamp, ways) = (self.clock, self.ways);
                let set = self.set(l);
                if let Some(w) = set.iter_mut().find(|w| w.0 == l) {
                    *w = (l, m, stamp);
                    return;
                }
                if set.len() >= ways {
                    let lru = (0..set.len()).min_by_key(|&i| set[i].2).unwrap();
                    set.swap_remove(lru);
                }
                set.push((l, m, stamp));
            }
            IterOp::Get(l) => {
                self.clock += 1;
                let stamp = self.clock;
                if let Some(w) = self.set(l).iter_mut().find(|w| w.0 == l) {
                    w.2 = stamp;
                }
            }
            IterOp::Remove(l) => {
                let set = self.set(l);
                if let Some(pos) = set.iter().position(|w| w.0 == l) {
                    set.swap_remove(pos);
                }
            }
            IterOp::Drain => self.sets.iter_mut().for_each(Vec::clear),
        }
    }

    fn scan(&self) -> Vec<(LineAddr, u32)> {
        self.sets
            .iter()
            .flat_map(|set| set.iter().map(|&(l, m, _)| (LineAddr::new(l), m)))
            .collect()
    }
}

proptest! {
    /// `iter` yields exactly a full set-major scan of a reference cache
    /// after every step, `len` agrees with it, and `drain` returns the
    /// same sequence, whatever the geometry (set counts below, at and
    /// across 64-set bitmap words).
    #[test]
    fn iteration_matches_a_full_set_major_scan(
        ops in iter_ops(),
        sets in 1u32..200,
        ways in 1u32..5,
    ) {
        let mut cache: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(sets, ways));
        let mut reference = ReferenceCache::new(sets, ways);
        for op in &ops {
            let expect = reference.scan();
            match *op {
                IterOp::Insert(l, m) => { cache.insert(LineAddr::new(l), m); }
                IterOp::Get(l) => { cache.get(&LineAddr::new(l)); }
                IterOp::Remove(l) => { cache.remove(&LineAddr::new(l)); }
                IterOp::Drain => prop_assert_eq!(cache.drain(), expect),
            }
            reference.apply(op);
            let expect = reference.scan();
            let walked: Vec<(LineAddr, u32)> = cache.iter().map(|(l, m)| (l, *m)).collect();
            prop_assert_eq!(&walked, &expect);
            prop_assert_eq!(cache.len(), expect.len());
        }
    }

    /// The cache never exceeds its capacity and set residency never exceeds
    /// the way count, under arbitrary operation sequences.
    #[test]
    fn cache_capacity_is_never_exceeded(
        ops in cache_ops(),
        sets in 1u32..8,
        ways in 1u32..5,
    ) {
        let geom = CacheGeometry::new(sets, ways);
        let mut cache: SetAssocCache<u32> = SetAssocCache::new(geom);
        for op in ops {
            match op {
                CacheOp::Insert(l, m) => { cache.insert(LineAddr::new(l), m); }
                CacheOp::Get(l) => { cache.get(&LineAddr::new(l)); }
                CacheOp::Remove(l) => { cache.remove(&LineAddr::new(l)); }
            }
            prop_assert!(cache.len() <= geom.capacity() as usize);
            // Per-set residency: group resident lines by set index.
            let mut counts = vec![0u32; sets as usize];
            for (line, _) in cache.iter() {
                counts[(line.index() % sets as u64) as usize] += 1;
            }
            prop_assert!(counts.iter().all(|&c| c <= ways));
        }
    }

    /// A line reported evicted is really gone, and an inserted line is
    /// really resident.
    #[test]
    fn eviction_reports_are_accurate(ops in cache_ops()) {
        let mut cache: SetAssocCache<u32> = SetAssocCache::new(CacheGeometry::new(2, 2));
        for op in ops {
            if let CacheOp::Insert(l, m) = op {
                let line = LineAddr::new(l);
                let evicted = cache.insert(line, m);
                prop_assert!(cache.contains(&line));
                if let Some(ev) = evicted {
                    prop_assert!(!cache.contains(&ev.line));
                    prop_assert_ne!(ev.line, line);
                }
            }
        }
    }

    /// The MLT holds no duplicates and never exceeds capacity; overflow
    /// victims are distinct from the inserted line.
    #[test]
    fn mlt_set_semantics(
        inserts in prop::collection::vec(0u64..32, 0..100),
        capacity in 1usize..8,
    ) {
        let mut mlt = ModifiedLineTable::new(capacity);
        for l in inserts {
            let line = LineAddr::new(l);
            match mlt.insert(line) {
                MltInsert::Inserted => {}
                MltInsert::Overflow(victim) => prop_assert_ne!(victim, line),
            }
            prop_assert!(mlt.contains(&line));
            prop_assert!(mlt.len() <= capacity);
            let set: HashSet<_> = mlt.iter().collect();
            prop_assert_eq!(set.len(), mlt.len());
        }
    }

    /// Memory bank: read-after-write returns the written version; the valid
    /// bit gates reads exactly.
    #[test]
    fn memory_bank_read_your_writes(
        writes in prop::collection::vec((0u64..16, 1u64..1000), 1..50),
    ) {
        let mut bank = MemoryBank::new();
        let mut model = std::collections::HashMap::new();
        for (l, v) in writes {
            let line = LineAddr::new(l);
            bank.write(line, LineVersion::new(v));
            model.insert(line, LineVersion::new(v));
            prop_assert_eq!(bank.read_valid(&line), Some(LineVersion::new(v)));
        }
        for (line, v) in model {
            prop_assert_eq!(bank.read_valid(&line), Some(v));
        }
    }

    /// Line geometry: line_of/first_word/word_offset are mutually consistent
    /// for all block sizes the paper considers.
    #[test]
    fn geometry_consistency(addr in any::<u32>(), shift in 0u32..7) {
        let words = 1u32 << shift; // 1..64
        let g = LineGeometry::new(words).unwrap();
        let w = WordAddr::new(addr as u64);
        let line = g.line_of(w);
        let off = g.word_offset(w);
        prop_assert!(off < words);
        prop_assert_eq!(g.first_word(line).value() + off as u64, w.value());
    }
}
