//! Differential testing of the timing wheel against the heap oracle.
//!
//! Both [`TimingWheel`] and [`HeapQueue`] — the original `BinaryHeap`
//! event queue, kept here as the specification — implement the
//! [`QueueImpl`] seam. These properties drive the two with byte-identical
//! schedule programs — including same-instant bursts, zero delays,
//! tier-crossing delays and batched drains — and require identical delivery order,
//! identical clocks and identical lengths at every step. The heap's
//! per-entry sequence comparator is the specification; the wheel's
//! structural FIFO must reproduce it exactly.

use core::cmp::Ordering;
use std::collections::BinaryHeap;

use multicube_sim::{QueueImpl, SimTime, TimingWheel};
use proptest::prelude::*;

/// A future event: its due time, an insertion sequence number for stable
/// FIFO ordering among simultaneous events, and the payload.
struct Entry<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    // Reversed so the *earliest* entry is the max of the BinaryHeap.
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// The original `BinaryHeap` event queue, kept as the oracle for
/// differential testing of the wheel. O(log n) per operation; FIFO among
/// simultaneous events via a per-entry sequence number.
struct HeapQueue<E> {
    heap: BinaryHeap<Entry<E>>,
    now: SimTime,
    seq: u64,
}

impl<E> HeapQueue<E> {
    /// Creates an empty heap queue with the clock at [`SimTime::ZERO`].
    fn new() -> Self {
        HeapQueue {
            heap: BinaryHeap::new(),
            now: SimTime::ZERO,
            seq: 0,
        }
    }
}

impl<E> QueueImpl<E> for HeapQueue<E> {
    fn now(&self) -> SimTime {
        self.now
    }

    fn schedule(&mut self, at: SimTime, event: E) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry { at, seq, event });
    }

    fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = self.heap.pop()?;
        // The heap has no structural guarantee against delivering into the
        // past (unlike the wheel), so the invariant is checked for real —
        // this is the oracle, correctness beats cycles here.
        assert!(
            entry.at >= self.now,
            "heap delivered {} into the past (now {})",
            entry.at,
            self.now
        );
        self.now = entry.at;
        Some((entry.at, entry.event))
    }

    fn pop_batch(&mut self, out: &mut Vec<E>) -> Option<SimTime> {
        let (at, event) = self.pop()?;
        out.push(event);
        while self.heap.peek().map(|e| e.at) == Some(at) {
            let entry = self.heap.pop().expect("peeked entry");
            out.push(entry.event);
        }
        Some(at)
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|e| e.at)
    }

    fn len(&self) -> usize {
        self.heap.len()
    }
}

#[test]
fn heap_oracle_matches_event_queue_semantics() {
    let mut q: HeapQueue<u32> = HeapQueue::new();
    q.schedule(SimTime::from_nanos(5), 1);
    q.schedule(SimTime::from_nanos(5), 2);
    q.schedule(SimTime::from_nanos(3), 0);
    assert_eq!(q.peek_time(), Some(SimTime::from_nanos(3)));
    let got: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
    assert_eq!(got, [0, 1, 2]);
    assert_eq!(QueueImpl::<u32>::now(&q), SimTime::from_nanos(5));
}

#[test]
fn heap_oracle_pop_batch_drains_one_instant() {
    let mut q: HeapQueue<u32> = HeapQueue::new();
    for i in 0..3 {
        q.schedule(SimTime::from_nanos(4), i);
    }
    q.schedule(SimTime::from_nanos(6), 9);
    let mut out = Vec::new();
    assert_eq!(q.pop_batch(&mut out), Some(SimTime::from_nanos(4)));
    assert_eq!(out, [0, 1, 2]);
    assert_eq!(q.len(), 1);
}

/// One step of a schedule program.
#[derive(Debug, Clone, Copy)]
enum Step {
    /// Schedule an event `delay` ns after the current clock.
    Schedule { delay: u64 },
    /// Pop one event.
    Pop,
    /// Drain one instant with `pop_batch`.
    PopBatch,
}

/// Delays biased across the wheel's three tiers: same-instant (0), L0
/// (same 1024-ns page), L1 (same ~1 ms superpage) and far overflow, plus
/// exact tier-boundary values.
fn delay_strategy() -> impl Strategy<Value = u64> {
    prop_oneof![
        Just(0u64),
        1u64..16,
        Just(50u64),
        Just(750u64),
        Just(1023u64),
        Just(1024u64),
        1024u64..10_000,
        Just((1u64 << 20) - 1),
        Just(1u64 << 20),
        (1u64 << 20)..(1u64 << 22),
    ]
}

fn steps(max_len: usize) -> impl Strategy<Value = Vec<Step>> {
    prop::collection::vec(
        prop_oneof![
            delay_strategy().prop_map(|delay| Step::Schedule { delay }),
            Just(Step::Pop),
            Just(Step::Pop),
            Just(Step::PopBatch),
        ],
        1..max_len,
    )
}

/// Runs one program against both backends in lock-step, checking delivery
/// order, clocks, lengths and monotonicity after every step. The vendored
/// proptest's `prop_assert!` family panics like `assert!`, so this helper
/// simply returns on success.
fn run_differential(program: &[Step]) {
    let mut wheel: TimingWheel<u32> = TimingWheel::new();
    let mut heap: HeapQueue<u32> = HeapQueue::new();
    let mut next_id = 0u32;
    let mut last_time = SimTime::ZERO;
    let mut wheel_buf: Vec<u32> = Vec::new();
    let mut heap_buf: Vec<u32> = Vec::new();
    for step in program {
        match *step {
            Step::Schedule { delay } => {
                let at = QueueImpl::<u32>::now(&wheel) + delay;
                wheel.schedule(at, next_id);
                heap.schedule(at, next_id);
                next_id += 1;
            }
            Step::Pop => {
                let w = wheel.pop();
                let h = heap.pop();
                prop_assert_eq!(
                    w.as_ref().map(|(t, e)| (*t, *e)),
                    h.as_ref().map(|(t, e)| (*t, *e)),
                    "pop diverged"
                );
                if let Some((t, _)) = w {
                    prop_assert!(t >= last_time, "clock ran backwards");
                    last_time = t;
                }
            }
            Step::PopBatch => {
                wheel_buf.clear();
                heap_buf.clear();
                let wt = wheel.pop_batch(&mut wheel_buf);
                let ht = heap.pop_batch(&mut heap_buf);
                prop_assert_eq!(wt, ht, "batch instant diverged");
                prop_assert_eq!(&wheel_buf, &heap_buf, "batch contents diverged");
                if let Some(t) = wt {
                    prop_assert!(t >= last_time, "clock ran backwards");
                    last_time = t;
                }
            }
        }
        prop_assert_eq!(QueueImpl::<u32>::len(&wheel), QueueImpl::<u32>::len(&heap));
        prop_assert_eq!(
            QueueImpl::<u32>::now(&wheel),
            QueueImpl::<u32>::now(&heap),
            "clocks diverged"
        );
        prop_assert_eq!(wheel.peek_time(), heap.peek_time(), "peek diverged");
    }
    // Drain what is left: full delivery order must keep matching.
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        prop_assert_eq!(
            w.as_ref().map(|(t, e)| (*t, *e)),
            h.as_ref().map(|(t, e)| (*t, *e)),
            "drain diverged"
        );
        match w {
            Some((t, _)) => {
                prop_assert!(t >= last_time, "clock ran backwards in drain");
                last_time = t;
            }
            None => break,
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Arbitrary schedule/pop/batch programs deliver identically on the
    /// wheel and on the heap oracle.
    #[test]
    fn wheel_matches_heap_oracle(program in steps(400)) {
        run_differential(&program);
    }

    /// Pure same-instant bursts: the structural FIFO must equal the
    /// sequence-number FIFO for any burst size at any tier distance.
    #[test]
    fn same_instant_bursts_stay_fifo(
        burst in 1usize..200,
        delay in delay_strategy(),
        lead in delay_strategy(),
    ) {
        let mut wheel: TimingWheel<u32> = TimingWheel::new();
        let mut heap: HeapQueue<u32> = HeapQueue::new();
        // Advance both clocks off zero first so tier boundaries are not
        // page-aligned by construction.
        wheel.schedule(SimTime::from_nanos(lead), u32::MAX);
        heap.schedule(SimTime::from_nanos(lead), u32::MAX);
        prop_assert_eq!(wheel.pop().map(|(t, _)| t), heap.pop().map(|(t, _)| t));
        let at = QueueImpl::<u32>::now(&wheel) + delay;
        for i in 0..burst as u32 {
            wheel.schedule(at, i);
            heap.schedule(at, i);
        }
        for i in 0..burst as u32 {
            let (wt, we) = wheel.pop().expect("wheel has events");
            let (ht, he) = heap.pop().expect("heap has events");
            prop_assert_eq!((wt, we), (ht, he));
            prop_assert_eq!(we, i, "burst delivered out of schedule order");
        }
        prop_assert!(QueueImpl::<u32>::is_empty(&wheel));
    }
}

/// The causality assert lives in `EventQueue`, in front of either
/// backend: scheduling before `now` must panic with the pinned message.
#[test]
#[should_panic(expected = "cannot schedule event in the past")]
fn event_queue_rejects_past_schedules() {
    let mut q = multicube_sim::EventQueue::new();
    q.schedule(SimTime::from_nanos(2_000), ());
    q.pop().unwrap();
    q.schedule(SimTime::from_nanos(1_999), ());
}
