//! A log of values by sequence position: the ordered streams of both
//! baselines (Isis's per-view order log, the token ring's sequenced
//! messages).

use std::collections::{BTreeMap, VecDeque};

/// How far beyond its dense range, up or down, the log grows to take a new
/// position. A position farther out is kept on its own, at O(1) memory: a
/// corrupt `seq` near `u64::MAX` must not size the log to it.
const REACH: u64 = 4_096;

/// Values by `u64` position, answering as a `BTreeMap<u64, T>` with
/// first-insert-wins `insert` does, for the access pattern of an ordered
/// stream: positions arrive roughly in order, out of order by a few, and
/// are read from a cursor on.
///
/// The positions are a dense run of slots from a movable `base`: an insert
/// inside it, or one that extends it by at most [`REACH`] up or down (a
/// joiner whose stream starts high, a recovery that fills in what lies
/// below it), is an index; a lookup is an index. A position farther out
/// goes to a small side map, and moves into the slots once they grow over
/// it — so memory follows the positions held and the gaps between them,
/// never the value of a position.
#[derive(Clone, Debug)]
pub(crate) struct PositionLog<T> {
    /// Position of `slots[0]`; `slots` starts and ends with a held slot.
    base: u64,
    slots: VecDeque<Option<T>>,
    /// Positions more than `reach` outside the slots when they came, none
    /// of them inside the slots' range.
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
            far: BTreeMap::new(),
            reach,
        }
    }

    /// One past the slots' last position.
    fn end(&self) -> u64 {
        self.base.saturating_add(self.slots.len() as u64)
    }

    /// The slot index of `pos`, if the slots' range covers it.
    fn index(&self, pos: u64) -> Option<usize> {
        let offset = pos.checked_sub(self.base)?;
        (offset < self.slots.len() as u64).then_some(offset as usize)
    }

    /// The value at `pos`.
    pub(crate) fn get(&self, pos: u64) -> Option<&T> {
        match self.index(pos) {
            Some(i) => self.slots[i].as_ref(),
            None => self.far.get(&pos),
        }
    }

    /// The value at `pos`, to change in place.
    pub(crate) fn get_mut(&mut self, pos: u64) -> Option<&mut T> {
        match self.index(pos) {
            Some(i) => self.slots[i].as_mut(),
            None => self.far.get_mut(&pos),
        }
    }

    /// Whether the log holds `pos`.
    pub(crate) fn contains(&self, pos: u64) -> bool {
        self.get(pos).is_some()
    }

    /// Puts `value` at `pos` unless the log holds `pos` already; false then,
    /// and the value held stays.
    pub(crate) fn insert(&mut self, pos: u64, value: T) -> bool {
        match self.index(pos) {
            Some(i) if self.slots[i].is_some() => false,
            Some(i) => {
                self.slots[i] = Some(value);
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
        }
    }

    /// The positions held from `from` on, ascending, with their values.
    pub(crate) fn iter_from(&self, from: u64) -> impl Iterator<Item = (u64, &T)> + '_ {
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
    pub(crate) fn last(&self) -> Option<u64> {
        let dense = (!self.slots.is_empty()).then(|| self.base + (self.slots.len() as u64 - 1));
        let far = self.far.last_key_value().map(|(&pos, _)| pos);
        dense.max(far)
    }

    /// Forgets every position, keeping the slots' memory for the next run.
    pub(crate) fn clear(&mut self) {
        self.slots.clear();
        self.far.clear();
        self.base = 0;
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
}
