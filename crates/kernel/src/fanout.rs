//! How many peers a process contacts per round: all of them in a small
//! group, about log₂ of the group in a large one. This is the one rule
//! behind the failure detector's heartbeat probes, the relay of a
//! broadcast message whose origin is suspected, and the echo of a decision
//! whose sender is suspected. Each applies it to the group's current size
//! where it is used, so there is nothing to configure and nothing fixed
//! when a process is built.

use crate::ProcessId;

/// The largest group, in processes, whose members contact every peer per
/// round: all-pairs heartbeats, relay and echo to every member. Above it,
/// one round costs O(n·log n) messages instead of O(n²).
pub const SCALE_THRESHOLD: usize = 16;

/// Peers a member of a group of `group` processes contacts per round:
/// `usize::MAX` (every peer) up to [`SCALE_THRESHOLD`], ⌈log₂(`count` + 1)⌉
/// clamped to at least 2 above it.
///
/// `count` is the caller's own: the failure detector passes its peer count
/// (`group` − 1), relay and echo pass the member count (`group`). At 256
/// members that is 8 probes per tick against 9 relay targets, at 1,024 it
/// is 10 against 11. Passing one count everywhere would change the at-scale
/// runs.
pub fn fanout(group: usize, count: usize) -> usize {
    if group <= SCALE_THRESHOLD {
        usize::MAX
    } else {
        ((usize::BITS - count.leading_zeros()) as usize).max(2)
    }
}

/// The members of `ring` (sorted by id) that follow `me` in ring order,
/// wrapping around, with `me` skipped whether or not it is in `ring`. A
/// bounded relay or echo goes to the first [`fanout`] of them: each
/// process that relays extends a contiguous segment of the ring, so the
/// segments close unless `k` consecutive processes have crashed.
pub fn ring_successors(ring: &[ProcessId], me: ProcessId) -> impl Iterator<Item = ProcessId> + '_ {
    let start = ring.partition_point(|&p| p <= me);
    ring[start..]
        .iter()
        .chain(&ring[..start])
        .copied()
        .filter(move |&p| p != me)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_groups_reach_everyone_large_ones_a_logarithm() {
        assert_eq!(fanout(3, 2), usize::MAX);
        assert_eq!(fanout(SCALE_THRESHOLD, SCALE_THRESHOLD), usize::MAX);
        assert_eq!(fanout(SCALE_THRESHOLD + 1, SCALE_THRESHOLD), 5);
        assert_eq!(fanout(21, 20), 5);
        assert_eq!(fanout(256, 255), 8);
        assert_eq!(fanout(256, 256), 9);
        assert_eq!(fanout(1024, 1023), 10);
        assert_eq!(fanout(1024, 1024), 11);
        // Never below two, whatever the caller counts.
        assert_eq!(fanout(100, 1), 2);
    }

    #[test]
    fn successors_wrap_around_and_skip_me() {
        let ring: Vec<ProcessId> = [1, 3, 5, 7].map(ProcessId::new).to_vec();
        let after = |me| ring_successors(&ring, ProcessId::new(me)).collect::<Vec<_>>();
        assert_eq!(after(5), [7, 1, 3].map(ProcessId::new));
        assert_eq!(after(4), [5, 7, 1, 3].map(ProcessId::new));
        assert_eq!(after(9), [1, 3, 5, 7].map(ProcessId::new));
    }
}
