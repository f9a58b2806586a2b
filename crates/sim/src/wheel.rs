//! The hierarchical timing-wheel event queue of the simulator.
//!
//! The simulation's scheduled-event population is dominated by short-horizon
//! periodic work (heartbeats, reliable-channel ticks, LAN-delay message
//! arrivals), for which a calendar queue beats a binary heap: insertion is
//! an O(1) bucket push instead of an O(log n) sift of a large element, and
//! ordering work is only paid per *occupied* slot, over the handful of
//! events that share it.
//!
//! Layout:
//!
//! * **current** — a descending-sorted `Vec` holding every pending item
//!   whose slot is at or before the cursor; pops come from its back, so the
//!   exact `(time, seq)` total order of the old `BinaryHeap` scheduler is
//!   preserved bit-for-bit (the reference-equivalence property test pins
//!   this). Items pushed *into* the already-drained current slot go to a
//!   small side min-heap instead of a sorted insert — a large fan-out burst
//!   whose arrivals land within the current slot would otherwise pay an
//!   O(len) memmove per insert, which is quadratic in the burst size.
//! * **wheel** — `SLOTS` buckets of `1 << SLOT_SHIFT` nanoseconds each,
//!   covering the near future; unsorted `Vec`s, swapped into `current` and
//!   sorted once when the cursor reaches them.
//! * **overflow** — a binary heap for items beyond the wheel horizon
//!   (long timeouts such as monitoring-class suspicion timers); refilled
//!   into the wheel as the cursor advances.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use gcs_kernel::Time;

/// Log2 of the slot width in nanoseconds: 2^19 ns ≈ 524 µs per slot — a
/// little above the typical LAN one-way delay, so a burst of sends lands in
/// one or two slots and the per-slot ordering heap stays small.
const SLOT_SHIFT: u32 = 19;
/// Number of wheel slots; the wheel horizon is `SLOTS << SLOT_SHIFT`
/// ≈ 67 ms, which covers heartbeat/tick/consensus periods. Power of two so
/// the slot index is a mask. Kept small: each slot owns a reusable `Vec`,
/// and a fresh simulation pays one allocation per slot it touches.
const SLOTS: usize = 128;

/// An entry schedulable on a [`TimingWheel`].
///
/// The `Ord` implementation must order by `(at_nanos, tie-break)` — the
/// wheel relies on it for intra-slot ordering.
pub trait WheelItem: Ord {
    /// Absolute due time in nanoseconds.
    fn at_nanos(&self) -> u64;
}

/// A queue entry: `item`, due at `at`. Entries due at one instant are
/// ordered by `seq`, the order they were scheduled in, whatever they hold —
/// the simulator's queue and each live member's queue alike.
#[derive(Debug)]
pub struct Scheduled<T> {
    /// Due time.
    pub at: Time,
    /// Scheduling order, unique within one queue.
    pub seq: u64,
    /// What comes due.
    pub item: T,
}

impl<T> PartialEq for Scheduled<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for Scheduled<T> {}
impl<T> PartialOrd for Scheduled<T> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for Scheduled<T> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        (self.at, self.seq).cmp(&(other.at, other.seq))
    }
}
impl<T> WheelItem for Scheduled<T> {
    fn at_nanos(&self) -> u64 {
        self.at.as_nanos()
    }
}

/// A timing-wheel priority queue with a heap overflow tier.
///
/// Pops yield items in exactly the order the item type's `Ord` defines,
/// provided no item is ever pushed with a due time before the most recently
/// popped item (the discrete-event invariant: you cannot schedule into the
/// past).
///
/// The *current* tier is a descending-sorted `Vec` rather than a binary
/// heap: slot populations are small, so one `sort_unstable` at slot-drain
/// time plus O(1) back-pops beat per-element sift operations — and draining
/// swaps buffers with the slot, so `Vec` capacities circulate and the
/// steady state allocates nothing.
#[derive(Debug)]
pub struct TimingWheel<T: WheelItem> {
    cur_slot: u64,
    /// Items with slot ≤ cursor, sorted descending (minimum at the back).
    current: Vec<T>,
    /// Items pushed with slot ≤ cursor *after* the slot was drained — the
    /// fan-out-burst tier. A min-heap: O(log n) insert instead of the O(n)
    /// sorted insert into `current`, which collapses quadratically when a
    /// broadcast burst lands thousands of arrivals in the current slot.
    late: BinaryHeap<Reverse<T>>,
    slots: Vec<Vec<T>>,
    wheel_len: usize,
    overflow: BinaryHeap<Reverse<T>>,
    len: usize,
}

impl<T: WheelItem> Default for TimingWheel<T> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T: WheelItem> TimingWheel<T> {
    /// Creates an empty wheel with the cursor at time zero.
    pub fn new() -> Self {
        TimingWheel {
            cur_slot: 0,
            current: Vec::new(),
            late: BinaryHeap::new(),
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
            wheel_len: 0,
            overflow: BinaryHeap::new(),
            len: 0,
        }
    }

    /// Number of pending items.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when nothing is scheduled.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    fn slot_of(at: u64) -> u64 {
        at >> SLOT_SHIFT
    }

    /// Schedules an item.
    pub fn push(&mut self, item: T) {
        let s = Self::slot_of(item.at_nanos());
        self.len += 1;
        if s <= self.cur_slot {
            self.late.push(Reverse(item));
        } else if s < self.cur_slot + SLOTS as u64 {
            self.wheel_len += 1;
            self.slots[(s % SLOTS as u64) as usize].push(item);
        } else {
            self.overflow.push(Reverse(item));
        }
    }

    /// True when the next pop should come from the `late` heap rather than
    /// the sorted `current` tier (strict `Ord`: `(time, seq)` keys are
    /// unique, so ties cannot occur).
    fn late_is_next(&self) -> bool {
        match (self.current.last(), self.late.peek()) {
            (Some(c), Some(Reverse(l))) => l < c,
            (None, Some(_)) => true,
            _ => false,
        }
    }

    /// Removes and returns the earliest item.
    pub fn pop(&mut self) -> Option<T> {
        if self.current.is_empty() && self.late.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
        let item = if self.late_is_next() {
            self.late.pop().expect("peeked").0
        } else {
            self.current.pop().expect("advance fills a tier")
        };
        self.len -= 1;
        Some(item)
    }

    /// Removes and returns the earliest item if `pred` accepts it — one
    /// tier traversal instead of a `peek` followed by a `pop` (the
    /// simulator's run-loop pattern). Returns `None` when the wheel is
    /// empty or the head is rejected.
    pub fn pop_if(&mut self, pred: impl FnOnce(&T) -> bool) -> Option<T> {
        if self.current.is_empty() && self.late.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
        if self.late_is_next() {
            if !pred(&self.late.peek().expect("checked non-empty").0) {
                return None;
            }
            self.len -= 1;
            Some(self.late.pop().expect("peeked").0)
        } else {
            if !pred(self.current.last().expect("advance fills a tier")) {
                return None;
            }
            self.len -= 1;
            self.current.pop()
        }
    }

    /// The earliest pending item, without removing it.
    ///
    /// Takes `&mut self` because peeking may advance the cursor to the next
    /// occupied slot.
    pub fn peek(&mut self) -> Option<&T> {
        if self.current.is_empty() && self.late.is_empty() {
            if self.len == 0 {
                return None;
            }
            self.advance();
        }
        if self.late_is_next() {
            self.late.peek().map(|Reverse(item)| item)
        } else {
            self.current.last()
        }
    }

    /// Moves the cursor forward to the next occupied slot and drains it into
    /// `current`. Precondition: `current` and `late` are empty and `len > 0`.
    fn advance(&mut self) {
        debug_assert!(self.current.is_empty() && self.late.is_empty() && self.len > 0);
        loop {
            if self.wheel_len == 0 {
                // Everything pending lives in the overflow tier: jump the
                // cursor straight to its head instead of scanning slots.
                let head_slot = {
                    let Reverse(head) = self.overflow.peek().expect("len > 0");
                    Self::slot_of(head.at_nanos())
                };
                debug_assert!(head_slot > self.cur_slot);
                self.cur_slot = head_slot - 1;
            }
            self.cur_slot += 1;
            // Pull overflow items that fit the advanced wheel window; ones
            // landing at or before the new cursor join the late heap.
            let window_end = self.cur_slot + SLOTS as u64;
            while let Some(Reverse(head)) = self.overflow.peek() {
                let s = Self::slot_of(head.at_nanos());
                if s >= window_end {
                    break;
                }
                let Reverse(item) = self.overflow.pop().expect("peeked");
                if s <= self.cur_slot {
                    self.late.push(Reverse(item));
                } else {
                    self.wheel_len += 1;
                    self.slots[(s % SLOTS as u64) as usize].push(item);
                }
            }
            let idx = (self.cur_slot % SLOTS as u64) as usize;
            if !self.slots[idx].is_empty() {
                self.wheel_len -= self.slots[idx].len();
                // Swap buffers: the drained slot inherits the empty
                // current's capacity, and vice versa — no copying, no
                // allocation.
                std::mem::swap(&mut self.current, &mut self.slots[idx]);
                self.current.sort_unstable_by(|a, b| b.cmp(a));
            }
            if !self.current.is_empty() || !self.late.is_empty() {
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
    struct Item(u64, u64); // (at, seq)

    impl WheelItem for Item {
        fn at_nanos(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = TimingWheel::new();
        w.push(Item(500, 2));
        w.push(Item(100, 1));
        w.push(Item(100, 0));
        w.push(Item(1 << 20, 3)); // later slot
        assert_eq!(w.len(), 4);
        assert_eq!(w.pop(), Some(Item(100, 0)));
        assert_eq!(w.pop(), Some(Item(100, 1)));
        assert_eq!(w.pop(), Some(Item(500, 2)));
        assert_eq!(w.pop(), Some(Item(1 << 20, 3)));
        assert_eq!(w.pop(), None);
        assert!(w.is_empty());
    }

    #[test]
    fn overflow_events_fire_in_order() {
        let mut w = TimingWheel::new();
        let horizon = (SLOTS as u64) << SLOT_SHIFT;
        w.push(Item(3 * horizon + 17, 1)); // far future: overflow tier
        w.push(Item(10 * horizon, 2)); // even further
        w.push(Item(5, 0)); // now
        assert_eq!(w.pop(), Some(Item(5, 0)));
        assert_eq!(w.pop(), Some(Item(3 * horizon + 17, 1)));
        assert_eq!(w.pop(), Some(Item(10 * horizon, 2)));
        assert_eq!(w.pop(), None);
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        // Simulates the discrete-event pattern: after popping an item at t,
        // push follow-ups at t + delta for assorted deltas, including ones
        // landing in the current slot, other slots, and the overflow.
        let mut w = TimingWheel::new();
        w.push(Item(0, 0));
        let mut seq = 1u64;
        let mut last = (0u64, 0u64);
        let mut popped = 0usize;
        let deltas = [1u64, 60_000, 5_000_000, 80_000_000, 200_000_000];
        while let Some(Item(at, s)) = w.pop() {
            assert!((at, s) > last || popped == 0, "order violated");
            last = (at, s);
            popped += 1;
            if popped < 500 {
                let d = deltas[popped % deltas.len()];
                w.push(Item(at + d, seq));
                seq += 1;
                if popped.is_multiple_of(7) {
                    w.push(Item(at, seq)); // same instant, later seq
                    seq += 1;
                }
            }
        }
        assert!(popped >= 500);
    }

    #[test]
    fn peek_matches_pop() {
        let mut w = TimingWheel::new();
        w.push(Item(70_000, 0)); // next slot over
        w.push(Item(900_000_000, 1)); // overflow tier
        assert_eq!(w.peek(), Some(&Item(70_000, 0)));
        assert_eq!(w.pop(), Some(Item(70_000, 0)));
        assert_eq!(w.peek(), Some(&Item(900_000_000, 1)));
        assert_eq!(w.pop(), Some(Item(900_000_000, 1)));
        assert_eq!(w.peek(), None);
    }

    #[test]
    fn dense_same_slot_burst() {
        let mut w = TimingWheel::new();
        for i in 0..1000u64 {
            w.push(Item(42, i));
        }
        for i in 0..1000u64 {
            assert_eq!(w.pop(), Some(Item(42, i)));
        }
        assert!(w.pop().is_none());
    }

    /// The pin for the BinaryHeap→timing-wheel swap: against a reference
    /// binary heap, random interleavings of pushes (never into the past)
    /// and pops must produce identical sequences — including `(time, seq)`
    /// tie-breaks — so same-seed simulations stay bit-identical.
    mod equivalence {
        use super::*;
        use proptest::prelude::*;
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;

        proptest! {
            #[test]
            fn wheel_matches_reference_heap(
                ops in proptest::collection::vec(
                    (0u64..200_000_000, any::<bool>(), any::<bool>()), 1..400),
            ) {
                let mut wheel = TimingWheel::new();
                let mut heap: BinaryHeap<Reverse<Item>> = BinaryHeap::new();
                let mut now = 0u64;
                for (seq, (delta, same_instant, do_pop)) in ops.into_iter().enumerate() {
                    let seq = seq as u64;
                    let at = if same_instant { now } else { now + delta };
                    wheel.push(Item(at, seq));
                    heap.push(Reverse(Item(at, seq)));
                    if do_pop {
                        let a = wheel.pop();
                        let b = heap.pop().map(|Reverse(x)| x);
                        prop_assert_eq!(&a, &b);
                        now = a.expect("pushed at least one").0;
                    }
                }
                loop {
                    let a = wheel.pop();
                    let b = heap.pop().map(|Reverse(x)| x);
                    prop_assert_eq!(&a, &b);
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }

    #[test]
    fn late_push_into_passed_region_still_orders_with_current() {
        // peek() may advance the cursor; a subsequent push at an earlier
        // (but still >= last popped) time must still come out first.
        let mut w = TimingWheel::new();
        w.push(Item(100 << SLOT_SHIFT, 0));
        assert!(w.peek().is_some()); // cursor advanced to slot 100
        w.push(Item(50 << SLOT_SHIFT, 1)); // earlier slot, never popped past
        assert_eq!(w.pop(), Some(Item(50 << SLOT_SHIFT, 1)));
        assert_eq!(w.pop(), Some(Item(100 << SLOT_SHIFT, 0)));
    }
}
