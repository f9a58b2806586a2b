//! A map keyed by message id `(sender, per-sender sequence)`: one position
//! log per sender.

use crate::{PositionLog, ProcessId};

/// Values by message id — `(sender, seq)` with `seq` a per-sender sequence
/// number — answering as a `BTreeMap<(ProcessId, u64), T>` does: every
/// lookup, insert and removal, one sender's entries from a sequence number
/// on, and the walk over every entry, all in id order.
///
/// It is the shape of every unordered pool of the three stacks (abcast's
/// proposal pool, generic broadcast's records and hold-back, Isis's
/// messages awaiting their order): each sender numbers its broadcasts
/// 0, 1, 2, …, and a pool holds a window of each sender's stream that
/// moves up as the stream is ordered. So per sender (dense by process
/// index, as in [`IdRuns`](crate::IdRuns)) the map is a [`PositionLog`]:
/// a lookup, an insert and a removal are an index into that sender's
/// slots, and a removal at either end of the window trims it, so a drained
/// sender keeps no slots. A `seq` far from the rest of its sender's (a
/// corrupt or hostile one near `u64::MAX`) is held on its own at O(1)
/// memory.
///
/// Ids are anything that converts into `(ProcessId, u64)`; the methods on
/// the per-message path are `#[inline]`, as they sit in other crates.
#[derive(Clone, Debug)]
pub struct IdMap<T> {
    by_sender: Vec<PositionLog<T>>,
    len: usize,
}

impl<T> Default for IdMap<T> {
    fn default() -> Self {
        IdMap {
            by_sender: Vec::new(),
            len: 0,
        }
    }
}

impl<T> IdMap<T> {
    /// The lane of `sender`, grown into when it is new.
    #[inline]
    fn lane_mut(&mut self, sender: ProcessId) -> &mut PositionLog<T> {
        let sender = sender.index();
        if sender >= self.by_sender.len() {
            self.by_sender.resize_with(sender + 1, PositionLog::default);
        }
        &mut self.by_sender[sender]
    }

    /// How many entries the map holds.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the map holds no entry.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The value of `id`.
    #[inline]
    pub fn get(&self, id: impl Into<(ProcessId, u64)>) -> Option<&T> {
        let (sender, seq) = id.into();
        self.by_sender.get(sender.index())?.get(seq)
    }

    /// The value of `id`, to change in place.
    #[inline]
    pub fn get_mut(&mut self, id: impl Into<(ProcessId, u64)>) -> Option<&mut T> {
        let (sender, seq) = id.into();
        self.by_sender.get_mut(sender.index())?.get_mut(seq)
    }

    /// Whether the map holds `id`.
    #[inline]
    pub fn contains(&self, id: impl Into<(ProcessId, u64)>) -> bool {
        self.get(id).is_some()
    }

    /// Puts `value` under `id`, returning the value it replaces.
    #[inline]
    pub fn insert(&mut self, id: impl Into<(ProcessId, u64)>, value: T) -> Option<T> {
        let (sender, seq) = id.into();
        let lane = self.lane_mut(sender);
        if let Some(held) = lane.get_mut(seq) {
            return Some(std::mem::replace(held, value));
        }
        lane.insert(seq, value);
        self.len += 1;
        None
    }

    /// The value of `id`, put there by `make` first if there is none.
    #[inline]
    pub fn get_or_insert_with(
        &mut self,
        id: impl Into<(ProcessId, u64)>,
        make: impl FnOnce() -> T,
    ) -> &mut T {
        let (sender, seq) = id.into();
        let lane = self.lane_mut(sender);
        if !lane.contains(seq) {
            lane.insert(seq, make());
            self.len += 1;
        }
        self.by_sender[sender.index()]
            .get_mut(seq)
            .expect("just inserted or held")
    }

    /// Takes the value of `id` out of the map.
    #[inline]
    pub fn remove(&mut self, id: impl Into<(ProcessId, u64)>) -> Option<T> {
        let (sender, seq) = id.into();
        let value = self.by_sender.get_mut(sender.index())?.remove(seq)?;
        self.len -= 1;
        Some(value)
    }

    /// The entries of `sender` from sequence number `seq` on, ascending.
    pub fn sender_from(&self, sender: ProcessId, seq: u64) -> impl Iterator<Item = (u64, &T)> + '_ {
        let lane = self.by_sender.get(sender.index());
        lane.into_iter().flat_map(move |lane| lane.iter_from(seq))
    }

    /// Every entry, in id order.
    pub fn iter(&self) -> impl Iterator<Item = ((ProcessId, u64), &T)> + '_ {
        self.by_sender
            .iter()
            .enumerate()
            .flat_map(|(sender, lane)| {
                let sender = ProcessId::new(sender as u32);
                lane.iter_from(0).map(move |(seq, v)| ((sender, seq), v))
            })
    }

    /// Every value, in id order.
    pub fn values(&self) -> impl Iterator<Item = &T> + '_ {
        self.by_sender
            .iter()
            .flat_map(|lane| lane.iter_from(0).map(|(_, v)| v))
    }

    /// Keeps only the entries for which `keep` says so, visiting each once
    /// (in id order, but for the far ones of a sender, which come last).
    pub fn retain(&mut self, mut keep: impl FnMut((ProcessId, u64), &mut T) -> bool) {
        for (sender, lane) in self.by_sender.iter_mut().enumerate() {
            let sender = ProcessId::new(sender as u32);
            lane.retain(|seq, v| keep((sender, seq), v));
        }
        self.len = self.by_sender.iter().map(PositionLog::len).sum();
    }

    /// How many slots the map keeps, a far entry counting as one — what its
    /// memory is proportional to.
    pub fn slot_count(&self) -> usize {
        self.by_sender.iter().map(PositionLog::slot_count).sum()
    }

    /// Removes every entry, keeping each sender's slots for its next run.
    pub fn clear(&mut self) {
        self.by_sender.iter_mut().for_each(PositionLog::clear);
        self.len = 0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::collections::BTreeMap;

    fn id(sender: u32, seq: u64) -> (ProcessId, u64) {
        (ProcessId::new(sender), seq)
    }

    impl<T> IdMap<T> {
        /// Slots kept for `sender`, and far entries of it.
        fn lane_memory(&self, sender: u32) -> usize {
            let lane = self.by_sender.get(sender as usize);
            lane.map_or(0, PositionLog::slot_count)
        }
    }

    #[test]
    fn a_drained_sender_keeps_no_slots() {
        let mut map = IdMap::default();
        // p1's window moves up while p0 holds on to one message; p2 sent a
        // corrupt `seq` and one more.
        assert_eq!(map.insert(id(0, 3), 'a'), None);
        for seq in 0..100 {
            assert_eq!(map.insert(id(1, seq), 'b'), None);
        }
        map.insert(id(2, u64::MAX), 'c');
        map.insert(id(2, 0), 'c');
        assert_eq!(map.len(), 103);
        // Ordered out of the order they came, as decisions batch them.
        for seq in (0..100u64)
            .step_by(2)
            .chain((0..50).rev().map(|i| 2 * i + 1))
        {
            assert_eq!(map.remove(id(1, seq)), Some('b'));
            assert_eq!(map.remove(id(1, seq)), None);
        }
        assert_eq!(map.lane_memory(1), 0, "a drained sender keeps slots");
        // A new stretch of p1 starts where the old one ended.
        map.insert(id(1, 100), 'd');
        assert_eq!(map.lane_memory(1), 1);
        assert_eq!(map.sender_from(ProcessId::new(1), 0).count(), 1);
        map.remove(id(1, 100));
        map.remove(id(2, u64::MAX));
        map.remove(id(2, 0));
        assert_eq!((map.lane_memory(1), map.lane_memory(2)), (0, 0));
        assert_eq!(map.iter().collect::<Vec<_>>(), [(id(0, 3), &'a')]);
        assert_eq!(map.len(), 1);
        map.clear();
        assert!(map.is_empty() && map.lane_memory(0) == 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Each op is a stretch of one sender's ids — inserted, replaced,
        /// changed in place, put there only if absent, or removed; now and
        /// then a `retain` or a `clear`. p3's stream starts high, and p2
        /// now and then sends a `seq` near `u64::MAX`. The map and a
        /// `BTreeMap<(ProcessId, u64), _>` agree on every answer, on one
        /// sender's entries from any `seq` on, and on the walk over every
        /// entry; and the map's memory follows what it holds: a sender
        /// with nothing held keeps no slot, and the slots are at most a
        /// reach per entry.
        #[test]
        fn id_map_answers_as_a_btree_map(
            ops in proptest::collection::vec((0u32..4, 0u64..80, 1u64..12, 0u8..12), 1..40),
        ) {
            let mut map: IdMap<u64> = IdMap::default();
            let mut model: BTreeMap<(ProcessId, u64), u64> = BTreeMap::new();
            for (value, (sender, start, len, op)) in (0u64..).zip(ops) {
                let start = match (sender, op) {
                    (2, 0 | 1) => u64::MAX - len,
                    (3, _) => (1 << 40) + start,
                    _ => start,
                };
                for seq in (0..len).map(|step| start + step) {
                    let key = id(sender, seq);
                    match op {
                        0..=3 => prop_assert_eq!(map.insert(key, value), model.insert(key, value)),
                        4 => {
                            let got = *map.get_or_insert_with(key, || value);
                            prop_assert_eq!(got, *model.entry(key).or_insert(value));
                        }
                        5 => {
                            if let Some(v) = map.get_mut(key) {
                                *v += 1000;
                            }
                            if let Some(v) = model.get_mut(&key) {
                                *v += 1000;
                            }
                        }
                        _ => prop_assert_eq!(map.remove(key), model.remove(&key)),
                    }
                    for near in seq.saturating_sub(2)..=seq.saturating_add(2) {
                        for s in 0..5 {
                            prop_assert_eq!(map.get(id(s, near)), model.get(&id(s, near)));
                            prop_assert_eq!(map.contains(id(s, near)), model.contains_key(&id(s, near)));
                        }
                    }
                }
                match op {
                    10 if value % 4 == 0 => {
                        map.clear();
                        model.clear();
                    }
                    10 => {
                        let keep = |(_, seq): (ProcessId, u64), v: u64| seq.wrapping_add(v) % 3 != 0;
                        map.retain(|id, v| keep(id, *v));
                        model.retain(|&id, v| keep(id, *v));
                    }
                    _ => {}
                }
                prop_assert_eq!(map.len(), model.len());
                prop_assert_eq!(map.is_empty(), model.is_empty());
                let walk: Vec<_> = map.iter().map(|(id, &v)| (id, v)).collect();
                prop_assert_eq!(walk, model.iter().map(|(&id, &v)| (id, v)).collect::<Vec<_>>());
                prop_assert!(map.values().copied().eq(model.values().copied()));
                for s in 0..5 {
                    let p = ProcessId::new(s);
                    for from in [0, start, start + len / 2, 1 << 40, u64::MAX - 3] {
                        let got: Vec<_> = map.sender_from(p, from).map(|(seq, &v)| (seq, v)).collect();
                        let want: Vec<_> = model
                            .range(id(s, from)..=id(s, u64::MAX))
                            .map(|(&(_, seq), &v)| (seq, v))
                            .collect();
                        prop_assert_eq!(got, want, "p{} from {}", s, from);
                    }
                    let held = model.keys().filter(|k| k.0 == p).count();
                    let memory = map.lane_memory(s);
                    prop_assert!(memory <= 4_097 * held, "p{}: {} slots for {} entries", s, memory, held);
                }
            }
        }
    }
}
