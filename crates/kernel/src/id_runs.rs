//! A set of message ids `(sender, per-sender sequence)` as per-sender runs.

use crate::ProcessId;

/// A set of message ids — `(sender, seq)` with `seq` a per-sender sequence
/// number — whose memory follows the *gaps* in what it holds, not the
/// number of ids: per sender (dense by process index) the disjoint,
/// non-adjacent runs `[lo, hi)` of sequence numbers it holds.
///
/// Every stack remembers ids it has seen, committed or delivered, and each
/// sender numbers its broadcasts 0, 1, 2, …, so what a stack remembers of a
/// sender is one run — whatever the length of the stream, and also for a
/// joiner that first hears the sender at sequence 5,000. That run, the
/// sender's highest, is stored inline: an insert that continues it and a
/// lookup at or above its start are O(1) and touch no heap; anything else
/// is a binary search among the runs below it.
///
/// Ids are anything that converts into `(ProcessId, u64)`; the methods on
/// the per-message path are `#[inline]`, as they sit in other crates.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct IdRuns {
    by_sender: Vec<SenderRuns>,
}

#[derive(Clone, Debug, Default, PartialEq, Eq)]
struct SenderRuns {
    /// The highest run; empty (`lo == hi`) until the sender's first id.
    top: (u64, u64),
    /// The runs below `top`, ascending.
    below: Vec<(u64, u64)>,
}

impl SenderRuns {
    /// Adds `seq` strictly below `top`; false if it was already there.
    fn insert_below(&mut self, seq: u64) -> bool {
        let SenderRuns { top, below } = self;
        if seq + 1 == top.0 {
            // Grows `top` downwards, maybe onto the run below it.
            top.0 = match below.last() {
                Some(&(lo, hi)) if hi == seq => {
                    below.pop();
                    lo
                }
                _ => seq,
            };
            return true;
        }
        // Not touching `top`. `at` is the first run that starts beyond
        // `seq`: only the run before it can hold `seq`, only those two can
        // touch it.
        let at = below.partition_point(|run| run.0 <= seq);
        if at > 0 && seq < below[at - 1].1 {
            return false;
        }
        let extends_previous = at > 0 && below[at - 1].1 == seq;
        let extends_next = at < below.len() && below[at].0 == seq + 1;
        match (extends_previous, extends_next) {
            (true, true) => {
                below[at - 1].1 = below[at].1;
                below.remove(at);
            }
            (true, false) => below[at - 1].1 = seq + 1,
            (false, true) => below[at].0 = seq,
            (false, false) => below.insert(at, (seq, seq + 1)),
        }
        true
    }
}

impl IdRuns {
    /// Adds `id`; false if it was already there.
    #[inline]
    pub fn insert(&mut self, id: impl Into<(ProcessId, u64)>) -> bool {
        let (sender, seq) = id.into();
        let sender = sender.index();
        if sender >= self.by_sender.len() {
            self.by_sender.resize_with(sender + 1, SenderRuns::default);
        }
        let runs = &mut self.by_sender[sender];
        let top = &mut runs.top;
        if seq == top.1 {
            top.1 += 1;
            return true;
        }
        if seq > top.1 {
            // A gap above everything held: a new highest run.
            if top.0 < top.1 {
                runs.below.push(*top);
            }
            runs.top = (seq, seq + 1);
            return true;
        }
        if seq >= top.0 {
            return false;
        }
        runs.insert_below(seq)
    }

    /// Whether `id` is in the set.
    #[inline]
    pub fn contains(&self, id: impl Into<(ProcessId, u64)>) -> bool {
        let (sender, seq) = id.into();
        let Some(SenderRuns { top, below }) = self.by_sender.get(sender.index()) else {
            return false;
        };
        if seq >= top.0 {
            return seq < top.1;
        }
        let at = below.partition_point(|run| run.0 <= seq);
        at > 0 && seq < below[at - 1].1
    }

    /// Every id of the set, in `(sender, seq)` order.
    pub fn iter(&self) -> impl Iterator<Item = (ProcessId, u64)> + '_ {
        self.by_sender
            .iter()
            .enumerate()
            .flat_map(|(sender, runs)| {
                let sender = ProcessId::new(sender as u32);
                runs.below
                    .iter()
                    .chain([&runs.top])
                    .flat_map(move |&(lo, hi)| (lo..hi).map(move |seq| (sender, seq)))
            })
    }

    /// Removes every id.
    pub fn clear(&mut self) {
        self.by_sender.clear();
    }

    /// How many runs the set holds — what its memory is proportional to.
    pub fn run_count(&self) -> usize {
        let runs = |s: &SenderRuns| s.below.len() + usize::from(s.top.0 < s.top.1);
        self.by_sender.iter().map(runs).sum()
    }
}

impl<I: Into<(ProcessId, u64)>> FromIterator<I> for IdRuns {
    fn from_iter<T: IntoIterator<Item = I>>(ids: T) -> Self {
        let mut set = IdRuns::default();
        for id in ids {
            set.insert(id);
        }
        set
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn id(sender: u32, seq: u64) -> (ProcessId, u64) {
        (ProcessId::new(sender), seq)
    }

    #[test]
    fn id_runs_merge_as_gaps_fill() {
        let mut set = IdRuns::default();
        // A joiner's view of a sender: the stream starts mid-way.
        assert!(set.insert(id(1, 5_000)));
        assert!(set.insert(id(1, 5_001)));
        assert_eq!(set.run_count(), 1);
        assert!(!set.contains(id(1, 4_999)) && !set.contains(id(1, 5_002)));
        // A gap, a run below, then the ids that close both gaps.
        assert!(set.insert(id(1, 5_003)));
        assert!(set.insert(id(1, 7)));
        assert_eq!(set.run_count(), 3);
        assert!(!set.contains(id(1, 5_002)) && !set.contains(id(1, 8)));
        assert!(set.insert(id(1, 5_002)));
        assert!(!set.insert(id(1, 5_002)));
        assert_eq!(set.run_count(), 2);
        for seq in (8..5_000).rev() {
            assert!(set.insert(id(1, seq)));
        }
        assert_eq!(set.run_count(), 1);
        assert!(!set.contains(id(0, 7)) && !set.contains(id(2, 7)));
        assert_eq!(set.iter().count(), 5_004 - 7);
        set.clear();
        assert!(!set.contains(id(1, 7)) && set.run_count() == 0);
    }

    mod against_a_model {
        use super::*;
        use proptest::prelude::*;
        use std::collections::BTreeSet;

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(512))]

            /// Each chunk is a stretch of one sender's stream — started
            /// anywhere, walked up or down, possibly over ground an earlier
            /// chunk covered or left a gap before: the run set and a
            /// `BTreeSet<(ProcessId, u64)>` agree on every `insert`, on
            /// `contains` around every id touched, and on the sorted
            /// contents.
            #[test]
            fn id_runs_answer_as_a_btree_set(
                chunks in proptest::collection::vec((0u32..3, 0u64..60, 1u64..12, any::<bool>()), 1..40),
            ) {
                let mut runs = IdRuns::default();
                let mut model = BTreeSet::new();
                for (sender, start, len, reversed) in chunks {
                    for step in 0..len {
                        let seq = if reversed { start + len - 1 - step } else { start + step };
                        prop_assert_eq!(runs.insert(id(sender, seq)), model.insert(id(sender, seq)));
                        for near in seq.saturating_sub(2)..=seq + 2 {
                            for s in 0..4 {
                                let probe = id(s, near);
                                prop_assert_eq!(runs.contains(probe), model.contains(&probe), "{:?}", probe);
                            }
                        }
                    }
                    // Runs are maximal: no two of one sender touch.
                    let gaps = model
                        .iter()
                        .zip(model.iter().skip(1))
                        .filter(|(a, b)| a.0 == b.0 && a.1 + 1 != b.1)
                        .count();
                    let senders = model.iter().map(|i| i.0).collect::<BTreeSet<_>>().len();
                    prop_assert_eq!(runs.run_count(), senders + gaps);
                }
                prop_assert_eq!(runs.iter().collect::<Vec<_>>(), model.iter().copied().collect::<Vec<_>>());
                let rebuilt: IdRuns = model.iter().rev().copied().collect();
                prop_assert_eq!(rebuilt, runs);
            }
        }
    }
}
