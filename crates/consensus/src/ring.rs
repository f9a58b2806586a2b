//! Per-instance state in a window of slots.

use std::collections::VecDeque;

use crate::InstanceId;

/// Values keyed by consensus instance, in a ring of slots covering every
/// instance from the lowest key held to the highest: a lookup is an index,
/// insertion and removal at either end are O(1), and once the ring's
/// capacity covers the window of instances it is used for, nothing
/// allocates.
///
/// Invariants: the slot at position `i` belongs to instance `base + i`; the
/// ring is empty or both of its end slots are filled, so [`last`](Self::last)
/// is the back slot's instance. Keys are meant to be dense — a pipeline
/// window, or decisions from a prune floor on — since the ring also holds a
/// slot for every missing instance between its ends.
#[derive(Debug)]
pub struct InstanceRing<T> {
    /// The instance of the front slot (meaningless while empty).
    base: InstanceId,
    slots: VecDeque<Option<T>>,
}

impl<T> Default for InstanceRing<T> {
    fn default() -> Self {
        InstanceRing {
            base: 0,
            slots: VecDeque::new(),
        }
    }
}

impl<T> InstanceRing<T> {
    /// An empty ring (no allocation).
    pub fn new() -> Self {
        Self::default()
    }

    /// The value of `instance`, if one is held.
    pub fn get(&self, instance: InstanceId) -> Option<&T> {
        let at = instance.checked_sub(self.base)?;
        self.slots.get(usize::try_from(at).ok()?)?.as_ref()
    }

    /// Whether a value of `instance` is held.
    pub fn contains(&self, instance: InstanceId) -> bool {
        self.get(instance).is_some()
    }

    /// The highest instance a value is held for.
    pub fn last(&self) -> Option<InstanceId> {
        (!self.slots.is_empty()).then(|| self.base + self.slots.len() as InstanceId - 1)
    }

    /// Holds `value` for `instance`, returning the value it replaces.
    pub fn insert(&mut self, instance: InstanceId, value: T) -> Option<T> {
        if self.slots.is_empty() {
            self.base = instance;
        }
        while instance < self.base {
            self.slots.push_front(None);
            self.base -= 1;
        }
        let at = (instance - self.base) as usize;
        if at >= self.slots.len() {
            self.slots.resize_with(at + 1, || None);
        }
        self.slots[at].replace(value)
    }

    /// Takes the value of `instance` out of the ring.
    pub fn remove(&mut self, instance: InstanceId) -> Option<T> {
        let at = usize::try_from(instance.checked_sub(self.base)?).ok()?;
        let value = self.slots.get_mut(at)?.take();
        self.trim();
        value
    }

    /// Drops every value of an instance below `floor`.
    pub fn prune_below(&mut self, floor: InstanceId) {
        while self.base < floor && self.slots.pop_front().is_some() {
            self.base += 1;
        }
        self.trim();
    }

    /// Restores the invariant that both end slots are filled.
    fn trim(&mut self) {
        while self.slots.front().is_some_and(Option::is_none) {
            self.slots.pop_front();
            self.base += 1;
        }
        while self.slots.back().is_some_and(Option::is_none) {
            self.slots.pop_back();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// Random inserts, removals and prunes over a window of instances
        /// answer every lookup as a map does, and the ring never spans more
        /// than its lowest to its highest key.
        #[test]
        fn a_ring_answers_as_a_map(
            ops in proptest::collection::vec((0u8..3, 0u64..40), 0..200),
        ) {
            let mut ring = InstanceRing::new();
            let mut map = BTreeMap::new();
            for (op, instance) in ops {
                match op {
                    0 => proptest::prop_assert_eq!(
                        ring.insert(instance, instance * 10),
                        map.insert(instance, instance * 10)
                    ),
                    1 => proptest::prop_assert_eq!(ring.remove(instance), map.remove(&instance)),
                    _ => {
                        ring.prune_below(instance);
                        map = map.split_off(&instance);
                    }
                }
                for k in 0..42 {
                    proptest::prop_assert_eq!(ring.get(k), map.get(&k));
                }
                proptest::prop_assert_eq!(ring.last(), map.last_key_value().map(|(&k, _)| k));
                let span = match (map.first_key_value(), map.last_key_value()) {
                    (Some((&lo, _)), Some((&hi, _))) => (hi - lo + 1) as usize,
                    _ => 0,
                };
                proptest::prop_assert_eq!(ring.slots.len(), span);
            }
        }
    }
}
