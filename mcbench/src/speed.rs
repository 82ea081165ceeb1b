//! The host-speed reference: a fixed loop, timed between repetitions, so
//! that changes of the host's speed during and between runs can be
//! divided out of the host times the benchmark reports.
//!
//! The host this benchmark runs on shares its CPUs and memory with other
//! tenants; the same repetition takes up to 2x longer from one minute
//! to the next. Code in this file belongs to the benchmark, not to the
//! program, so a change to the program cannot move the reference: a
//! faster program still reads faster after scaling. For the same reason
//! the loop allocates nothing while it is timed: its buffers are made
//! once, so the state the program leaves the allocator in cannot slow it.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap, HashSet};
use std::time::Instant;

use crate::rep::since;

/// The reference loop's nominal time, in nanoseconds: a round figure at
/// the slow end of its readings on the 2-CPU container this benchmark was
/// written on (22–26 ms in fast stretches, up to 44 ms in slow ones).
/// Scaled host times equal wall-clock times on a host that runs the
/// reference loop in this time.
pub const NOMINAL_NS: f64 = 40e6;

/// Slots of the private-cache table (512 KB).
const TABLE: usize = 1 << 16;
/// States inserted into the state set.
const STATES: u64 = 50_000;
/// Events pending in the event loop.
const PENDING: u64 = 4096;
/// Distinct lines the event loop touches.
const LINES: u64 = 16_384;

/// The reference loop and the buffers it reuses.
pub struct Reference {
    table: Vec<u64>,
    states: HashSet<[u64; 3]>,
    heap: BinaryHeap<Reverse<(u64, u64)>>,
    lines: HashMap<u64, u64>,
}

impl Reference {
    /// Makes the buffers, at their full size.
    pub fn new() -> Self {
        Self {
            table: vec![0; TABLE],
            states: HashSet::with_capacity(STATES as usize),
            heap: BinaryHeap::with_capacity(PENDING as usize + 1),
            lines: HashMap::with_capacity(LINES as usize),
        }
    }

    /// Times one pass of the reference loop, in nanoseconds.
    ///
    /// Three parts, each about a third of the time, each exercising what
    /// some layer of the simulator does: dependent integer arithmetic
    /// with updates to a table that fits in the private cache (the
    /// machine's per-line state), hashing fixed-size states into a set
    /// (the model checker), and a binary-heap event loop over a hash map
    /// (the event queue and caches). A fourth part, random updates to a
    /// 16 MB table, was tried and left out: it slowed less than the
    /// workloads did when the host slowed.
    pub fn sample(&mut self) -> u64 {
        let t = Instant::now();
        std::hint::black_box(self.table_updates());
        std::hint::black_box(self.state_inserts());
        std::hint::black_box(self.event_loop());
        since(t)
    }

    fn table_updates(&mut self) -> u64 {
        let mut x = 1u64;
        for i in 0..10_000_000 {
            x = lcg(x, i);
            let k = (x >> 48) as usize;
            self.table[k] = self.table[k].wrapping_add(x);
        }
        x ^ self.table[7]
    }

    fn state_inserts(&mut self) -> usize {
        self.states.clear();
        let mut x = 7u64;
        for i in 0..STATES {
            x = lcg(x, i);
            self.states.insert([x, i, x >> 3]);
        }
        self.states.len()
    }

    fn event_loop(&mut self) -> u64 {
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        self.heap.clear();
        self.lines.clear();
        for id in 0..PENDING {
            self.heap.push(Reverse((next() % 1000, id)));
        }
        let mut acc = 0u64;
        for _ in 0..150_000 {
            let Reverse((now, id)) = self.heap.pop().expect("the heap never empties");
            let r = next();
            let slot = (r as usize) % TABLE;
            self.table[slot] = self.table[slot].wrapping_add(now ^ id);
            let line = self.lines.entry(r % LINES).or_insert(0);
            if r & 3 == 0 {
                *line = line.wrapping_add(id);
            } else {
                acc = acc.wrapping_add(*line);
            }
            self.heap.push(Reverse((now + 1 + (r >> 40) % 200, id)));
        }
        acc ^ self.table[3]
    }
}

/// A 64-bit linear congruential step.
fn lcg(x: u64, i: u64) -> u64 {
    x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i)
}
