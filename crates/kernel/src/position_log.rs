//! A log of values by sequence position: the ordered streams of both
//! baselines (Isis's per-view order log, the token ring's sequenced
//! messages), and one sender's lane of every unordered pool ([`IdMap`]:
//! abcast's proposal pool, generic broadcast's records and hold-back,
//! Isis's messages awaiting their order).
//!
//! [`IdMap`]: crate::IdMap

use std::collections::{BTreeMap, VecDeque};

/// How far beyond its dense range, up or down, the log grows to take a new
/// position. A position farther out is kept on its own, at O(1) memory: a
/// corrupt `seq` near `u64::MAX` must not size the log to it.
const REACH: u64 = 4_096;

/// Values by `u64` position, answering as a `BTreeMap<u64, T>` with
/// first-insert-wins `insert` does, for the access pattern of a stream:
/// positions arrive roughly in order, out of order by a few, and are read
/// from a cursor on, or leave roughly in the order they came.
///
/// The positions are a dense run of slots from a movable `base`: an insert
/// inside it, or one that extends it by at most `REACH` (4,096) up or down (a
/// joiner whose stream starts high, a recovery that fills in what lies
/// below it), is an index; a lookup or a removal is an index. A position
/// farther out goes to a small side map, and moves into the slots once they
/// grow over it — so memory follows the positions held and the gaps between
/// them, never the value of a position. A removal trims the emptied slots
/// at either end, and when the slots left are mostly gaps (more than
/// `REACH + 1` per value held) the lowest values move to the side map until
/// they are not: a straggler held while the stream it came with drains
/// keeps O(1) memory, not the span to the newest position.
#[derive(Clone, Debug)]
pub struct PositionLog<T> {
    /// Position of `slots[0]`; `slots` starts and ends with a held slot.
    base: u64,
    slots: VecDeque<Option<T>>,
    /// How many slots hold a value; `slots.len()` is at most `reach + 1`
    /// times this.
    held: usize,
    /// Positions more than `reach` outside the slots when they came (or
    /// moved out of sparse slots), none of them inside the slots' range.
    far: BTreeMap<u64, T>,
    reach: u64,
}

impl<T> Default for PositionLog<T> {
    fn default() -> Self {
        PositionLog::with_reach(REACH)
    }
}

impl<T> PositionLog<T> {
    fn with_reach(reach: u64) -> Self {
        PositionLog {
            base: 0,
            slots: VecDeque::new(),
            held: 0,
            far: BTreeMap::new(),
            reach,
        }
    }

    /// One past the slots' last position.
    fn end(&self) -> u64 {
        self.base.saturating_add(self.slots.len() as u64)
    }

    /// The slot index of `pos`, if the slots' range covers it.
    #[inline]
    fn index(&self, pos: u64) -> Option<usize> {
        let offset = pos.checked_sub(self.base)?;
        (offset < self.slots.len() as u64).then_some(offset as usize)
    }

    /// How many positions the log holds.
    pub fn len(&self) -> usize {
        self.held + self.far.len()
    }

    /// Whether the log holds no position.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `pos`.
    #[inline]
    pub fn get(&self, pos: u64) -> Option<&T> {
        match self.index(pos) {
            Some(i) => self.slots[i].as_ref(),
            None => self.far.get(&pos),
        }
    }

    /// The value at `pos`, to change in place.
    #[inline]
    pub fn get_mut(&mut self, pos: u64) -> Option<&mut T> {
        match self.index(pos) {
            Some(i) => self.slots[i].as_mut(),
            None => self.far.get_mut(&pos),
        }
    }

    /// Whether the log holds `pos`.
    #[inline]
    pub fn contains(&self, pos: u64) -> bool {
        self.get(pos).is_some()
    }

    /// Puts `value` at `pos` unless the log holds `pos` already; false then,
    /// and the value held stays.
    #[inline]
    pub fn insert(&mut self, pos: u64, value: T) -> bool {
        match self.index(pos) {
            Some(i) if self.slots[i].is_some() => false,
            Some(i) => {
                self.slots[i] = Some(value);
                self.held += 1;
                true
            }
            None => self.insert_outside(pos, value),
        }
    }

    /// [`insert`](Self::insert) at a position outside the slots' range.
    fn insert_outside(&mut self, pos: u64, value: T) -> bool {
        if self.far.contains_key(&pos) {
            return false;
        }
        if self.slots.is_empty() {
            self.base = pos;
            self.slots.push_back(Some(value));
        } else if pos >= self.end() && pos - self.end() < self.reach {
            let len = (pos - self.base) as usize;
            self.slots.resize_with(len, || None);
            self.slots.push_back(Some(value));
        } else if pos < self.base && self.base - pos <= self.reach {
            for _ in pos + 1..self.base {
                self.slots.push_front(None);
            }
            self.slots.push_front(Some(value));
            self.base = pos;
        } else {
            self.far.insert(pos, value);
            return true;
        }
        self.held += 1;
        if !self.far.is_empty() {
            self.absorb_far();
        }
        true
    }

    /// Moves the far positions the slots' range now covers into the slots.
    #[cold]
    fn absorb_far(&mut self) {
        let covered: Vec<u64> = self
            .far
            .range(self.base..self.end())
            .map(|(&pos, _)| pos)
            .collect();
        for pos in covered {
            let i = (pos - self.base) as usize;
            self.slots[i] = self.far.remove(&pos);
            self.held += 1;
        }
    }

    /// Takes the value at `pos` out of the log.
    #[inline]
    pub fn remove(&mut self, pos: u64) -> Option<T> {
        let Some(i) = self.index(pos) else {
            return self.far.remove(&pos);
        };
        let value = self.slots[i].take()?;
        self.held -= 1;
        self.trim();
        Some(value)
    }

    /// Keeps only the positions for which `keep` says so, visiting each
    /// once (the slots' in order, then the far ones).
    pub fn retain(&mut self, mut keep: impl FnMut(u64, &mut T) -> bool) {
        let base = self.base;
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if slot.as_mut().is_some_and(|v| !keep(base + i as u64, v)) {
                *slot = None;
                self.held -= 1;
            }
        }
        self.far.retain(|&pos, v| keep(pos, v));
        self.trim();
    }

    /// Restores the slots' shape after values left them: no empty slot at
    /// either end, and at most `reach + 1` slots per value held — the
    /// lowest values move to the side map until that holds.
    #[inline]
    fn trim(&mut self) {
        while let Some(None) = self.slots.back() {
            self.slots.pop_back();
        }
        self.trim_front();
        if self.slots.len() as u64 > (self.reach + 1).saturating_mul(self.held as u64) {
            self.thin();
        }
    }

    /// Drops the empty slots at the front.
    #[inline]
    fn trim_front(&mut self) {
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.base += 1;
        }
    }

    /// Moves the lowest slot values to the side map while the slots are
    /// more than `reach + 1` per value held.
    #[cold]
    fn thin(&mut self) {
        while self.slots.len() as u64 > (self.reach + 1).saturating_mul(self.held as u64) {
            let lowest = self.slots.pop_front().flatten();
            let lowest = lowest.expect("the slots start with a held slot");
            self.far.insert(self.base, lowest);
            self.base += 1;
            self.held -= 1;
            self.trim_front();
        }
    }

    /// The positions held from `from` on, ascending, with their values.
    pub fn iter_from(&self, from: u64) -> impl Iterator<Item = (u64, &T)> + '_ {
        let (base, end) = (self.base, self.end());
        let skip = from.clamp(base, end) - base;
        let dense = self
            .slots
            .range(skip as usize..)
            .enumerate()
            .filter_map(move |(i, slot)| slot.as_ref().map(|v| (base + skip + i as u64, v)));
        // Far positions lie below or above the slots' range, never in it.
        let below = self.far.range(from..base.max(from));
        let above = self.far.range(end.max(from)..);
        below
            .map(|(&pos, v)| (pos, v))
            .chain(dense)
            .chain(above.map(|(&pos, v)| (pos, v)))
    }

    /// The highest position held.
    pub fn last(&self) -> Option<u64> {
        let dense = (!self.slots.is_empty()).then(|| self.base + (self.slots.len() as u64 - 1));
        let far = self.far.last_key_value().map(|(&pos, _)| pos);
        dense.max(far)
    }

    /// Forgets every position, keeping the slots' memory for the next run.
    pub fn clear(&mut self) {
        self.slots.clear();
        self.far.clear();
        self.held = 0;
        self.base = 0;
    }

    /// How many slots the log keeps, a far position counting as one — what
    /// its memory is proportional to.
    pub fn slot_count(&self) -> usize {
        self.slots.len() + self.far.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    #[test]
    fn a_huge_position_does_not_grow_the_log() {
        let mut log = PositionLog::default();
        for pos in 0..10 {
            assert!(log.insert(pos, pos));
        }
        // A corrupt `seq` near the top of the range, and one just past the
        // reach: each kept alone, the slots untouched.
        for pos in [u64::MAX, u64::MAX - 1, 10 + REACH, 1 << 40] {
            assert!(log.insert(pos, pos));
            assert!(!log.insert(pos, 0));
            assert_eq!(log.slots.len(), 10, "inserting {pos} resized the slots");
        }
        assert_eq!(log.get(u64::MAX), Some(&u64::MAX));
        assert_eq!(log.last(), Some(u64::MAX));
        let from_nine: Vec<u64> = log.iter_from(9).map(|(pos, _)| pos).collect();
        assert_eq!(from_nine, [9, 10 + REACH, 1 << 40, u64::MAX - 1, u64::MAX]);
        // The same into an empty log, and below a high base.
        let mut log = PositionLog::default();
        assert!(log.insert(u64::MAX, ()));
        assert!(log.insert(0, ()));
        assert_eq!(log.slots.len(), 1);
        assert_eq!(log.last(), Some(u64::MAX));
        assert_eq!(log.iter_from(0).count(), 2);
        // Once the stream reaches a far position, it joins the slots.
        let mut log = PositionLog::default();
        log.insert(0, 0);
        log.insert(REACH + 5, 1);
        for pos in (REACH..=REACH + 6).step_by(2) {
            log.insert(pos, 2);
        }
        assert!(log.far.is_empty() && log.slots.len() as u64 == REACH + 7);
        assert_eq!(log.get(REACH + 5), Some(&1));
        log.clear();
        assert_eq!((log.last(), log.iter_from(0).count()), (None, 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Each chunk is a stretch of a stream — started anywhere, walked up
        /// or down, over ground an earlier chunk covered or below where the
        /// log started (a joiner's high base, a recovery filling in under
        /// it), now and then at a far position: the log and a
        /// `BTreeMap<u64, _>` with first-insert-wins agree on every insert,
        /// every lookup around it, the iteration from every position and
        /// the last position. A reach of 8 makes the far side map and the
        /// slots absorbing it happen often.
        #[test]
        fn position_log_answers_as_a_btree_map(
            chunks in proptest::collection::vec((0u64..120, 1u64..12, any::<bool>(), 0u8..8), 1..30),
        ) {
            let mut log = PositionLog::with_reach(8);
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for (value, (start, len, reversed, far)) in (0u64..).zip(chunks) {
                let start = match far {
                    0 => u64::MAX - len,
                    1 => 1 << 40,
                    _ => start,
                };
                for step in 0..len {
                    let pos = if reversed { start + len - 1 - step } else { start + step };
                    let fresh = !model.contains_key(&pos);
                    model.entry(pos).or_insert(value);
                    prop_assert_eq!(log.insert(pos, value), fresh);
                    for near in pos.saturating_sub(2)..=pos.saturating_add(2) {
                        prop_assert_eq!(log.get(near), model.get(&near));
                    }
                }
                prop_assert_eq!(log.last(), model.keys().next_back().copied());
                for from in (0..140).chain([1 << 40, u64::MAX - 13, u64::MAX]) {
                    let got: Vec<(u64, u64)> = log.iter_from(from).map(|(p, &v)| (p, v)).collect();
                    let want: Vec<(u64, u64)> = model.range(from..).map(|(&p, &v)| (p, v)).collect();
                    prop_assert_eq!(got, want, "from {}", from);
                }
                // Memory follows what is held: the slots span at most the
                // held positions plus a reach per gap.
                prop_assert!(log.slots.len() <= 9 * model.len());
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Inserts and removals interleaved — a stream taken in roughly in
        /// order and let go out of order, with far positions and values
        /// left behind while the rest drains: the log and a `BTreeMap<u64,
        /// _>` agree on every removal, every lookup around it, the
        /// iteration, the last position and the length, and the slots stay
        /// trimmed (a held slot at either end) and at most `reach + 1` per
        /// value they hold — none once the log is empty.
        #[test]
        fn position_log_removes_as_a_btree_map(
            ops in proptest::collection::vec((0u64..40, 1u64..10, 0u8..12), 1..80),
        ) {
            let mut log = PositionLog::with_reach(8);
            let mut model: BTreeMap<u64, u64> = BTreeMap::new();
            for (value, (start, len, op)) in (0u64..).zip(ops) {
                let start = match op {
                    0 | 10 => u64::MAX - len,
                    1 | 11 => (1 << 40) + start,
                    _ => start,
                };
                for step in 0..len {
                    let pos = match op {
                        0..=4 => {
                            let pos = start + step;
                            let fresh = !model.contains_key(&pos);
                            model.entry(pos).or_insert(value);
                            prop_assert_eq!(log.insert(pos, value), fresh);
                            pos
                        }
                        // Every other position of the stretch, highest first.
                        5 | 6 | 11 if step % 2 == 1 => continue,
                        5 | 6 | 11 => {
                            let pos = start + len - 1 - step;
                            prop_assert_eq!(log.remove(pos), model.remove(&pos));
                            pos
                        }
                        _ => {
                            let pos = start + step;
                            prop_assert_eq!(log.remove(pos), model.remove(&pos));
                            pos
                        }
                    };
                    for near in pos.saturating_sub(2)..=pos.saturating_add(2) {
                        prop_assert_eq!(log.get(near), model.get(&near));
                    }
                }
                prop_assert_eq!(log.len(), model.len());
                prop_assert_eq!(log.last(), model.keys().next_back().copied());
                for from in [0, start, 1 << 40, u64::MAX - 5] {
                    let got: Vec<(u64, u64)> = log.iter_from(from).map(|(p, &v)| (p, v)).collect();
                    let want: Vec<(u64, u64)> = model.range(from..).map(|(&p, &v)| (p, v)).collect();
                    prop_assert_eq!(got, want, "from {}", from);
                }
                let held = log.slots.iter().flatten().count();
                prop_assert_eq!(held, log.held);
                prop_assert!(log.slots.len() <= 9 * held, "{} slots for {} values", log.slots.len(), held);
                let ends = [log.slots.front(), log.slots.back()];
                prop_assert!(ends.iter().all(|end| !matches!(end, Some(None))));
            }
            // What is left, let go of by `retain`, in two halves.
            let odd = |pos: u64| pos % 2 == 1;
            log.retain(|pos, _| odd(pos));
            model.retain(|&pos, _| odd(pos));
            prop_assert_eq!(log.iter_from(0).map(|(p, &v)| (p, v)).collect::<Vec<_>>(), model.clone().into_iter().collect::<Vec<_>>());
            prop_assert!(log.slots.len() <= 9 * log.held);
            log.retain(|_, _| false);
            prop_assert!(log.is_empty() && log.slots.is_empty() && log.far.is_empty());
        }
    }

    #[test]
    fn a_straggler_does_not_keep_the_drained_span() {
        let mut log = PositionLog::default();
        for pos in 0..=3 * REACH {
            log.insert(pos, pos);
        }
        // Everything but the first and the newest position leaves: the
        // straggler at 0 moves to the side map, the slots shrink to the
        // newest one.
        for pos in 1..3 * REACH {
            assert_eq!(log.remove(pos), Some(pos));
        }
        assert_eq!((log.slots.len(), log.far.len()), (1, 1));
        assert_eq!(
            log.iter_from(0).collect::<Vec<_>>(),
            [(0, &0), (3 * REACH, &(3 * REACH))]
        );
        // The stream goes on past it, and the straggler is ordered last.
        for pos in 3 * REACH + 1..4 * REACH {
            log.insert(pos, pos);
            log.remove(pos - 1);
        }
        assert_eq!(log.remove(0), Some(0));
        assert_eq!((log.len(), log.slot_count()), (1, 1));
    }
}
