//! A set of positions in a member list, as a bitset.

/// A set of positions (indices into a member list: who acked, who is
/// suspected) as a bitset. Positions below 64 live inline, so groups of up
/// to 64 never touch the allocator. The operations are `#[inline]`: they
/// sit on other crates' per-message paths.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PositionSet {
    count: usize,
    low: u64,
    /// Positions 64 and up, 64 per word; empty until one of them is added.
    high: Vec<u64>,
}

impl PositionSet {
    /// The word holding `position` and its bit in it, if the word exists.
    #[inline]
    fn word(&self, position: usize) -> Option<(u64, u64)> {
        let bit = 1u64 << (position % 64);
        match position / 64 {
            0 => Some((self.low, bit)),
            w => self.high.get(w - 1).map(|&word| (word, bit)),
        }
    }

    /// Word `w ≥ 1`, grown into when needed: positions past 64 are rare,
    /// and kept off the inlined path.
    #[cold]
    fn high_word(&mut self, w: usize) -> &mut u64 {
        if self.high.len() < w {
            self.high.resize(w, 0);
        }
        &mut self.high[w - 1]
    }

    /// Adds `position`; false if it was already there.
    #[inline]
    pub fn insert(&mut self, position: usize) -> bool {
        let bit = 1u64 << (position % 64);
        let word = match position / 64 {
            0 => &mut self.low,
            w => self.high_word(w),
        };
        if *word & bit != 0 {
            return false;
        }
        *word |= bit;
        self.count += 1;
        true
    }

    /// Removes `position`; false if it was not there.
    #[inline]
    pub fn remove(&mut self, position: usize) -> bool {
        if !self.contains(position) {
            return false;
        }
        let bit = 1u64 << (position % 64);
        match position / 64 {
            0 => self.low &= !bit,
            w => self.high[w - 1] &= !bit,
        }
        self.count -= 1;
        true
    }

    /// Whether `position` is in the set.
    #[inline]
    pub fn contains(&self, position: usize) -> bool {
        self.word(position)
            .is_some_and(|(word, bit)| word & bit != 0)
    }

    /// How many positions the set holds.
    #[inline]
    pub fn len(&self) -> usize {
        self.count
    }

    /// True when the set holds no position.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The positions in the set, ascending.
    pub fn iter(&self) -> impl Iterator<Item = usize> + '_ {
        std::iter::once(self.low)
            .chain(self.high.iter().copied())
            .enumerate()
            .flat_map(|(w, word)| {
                (0..64)
                    .filter(move |b| word & (1u64 << b) != 0)
                    .map(move |b| 64 * w + b)
            })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_each_position_once_inline_and_beyond() {
        let mut set = PositionSet::default();
        for position in [0, 63, 64, 200, 64, 0] {
            set.insert(position);
        }
        assert_eq!(set.len(), 4);
        assert_eq!(set.iter().collect::<Vec<_>>(), vec![0, 63, 64, 200]);
        assert!(set.contains(200) && !set.contains(201) && !set.contains(9_999));
        assert!(set.remove(64) && !set.remove(64) && !set.remove(9_999));
        assert_eq!(set.len(), 3);
        assert!(!set.contains(64));
    }
}
