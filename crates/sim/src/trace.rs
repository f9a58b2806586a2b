//! Application-delivery traces and global property checkers.
//!
//! Every event a component [`output`](gcs_kernel::Context::output)s is
//! recorded here with its process and virtual time. Integration tests project
//! the trace into per-process delivery sequences and check the group
//! communication properties the paper relies on: total order, (uniform)
//! agreement, integrity, and conflict-order consistency.

use std::collections::HashMap;
use std::fmt;
use std::hash::Hash;

use gcs_kernel::{ProcessId, Time};

/// One recorded application delivery.
#[derive(Clone, Debug, PartialEq)]
pub struct TraceEntry<E> {
    /// Virtual time of the delivery.
    pub time: Time,
    /// Process at which the delivery happened.
    pub proc: ProcessId,
    /// The delivered event.
    pub event: E,
}

/// The application-delivery trace of a run, in delivery order.
#[derive(Clone, Debug, Default)]
pub struct Trace<E> {
    entries: Vec<TraceEntry<E>>,
    /// Deliveries per process, so that [`deliveries_of`](Self::deliveries_of)
    /// need not scan the entries.
    counts: Vec<u64>,
}

impl<E> Trace<E> {
    /// Creates an empty trace.
    pub fn new() -> Self {
        Trace {
            entries: Vec::new(),
            counts: Vec::new(),
        }
    }

    pub(crate) fn push(&mut self, time: Time, proc: ProcessId, event: E) {
        let idx = proc.index();
        if idx >= self.counts.len() {
            self.counts.resize(idx + 1, 0);
        }
        self.counts[idx] += 1;
        self.entries.push(TraceEntry { time, proc, event });
    }

    /// All entries in global delivery order.
    pub fn entries(&self) -> &[TraceEntry<E>] {
        &self.entries
    }

    /// Number of recorded deliveries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when nothing was delivered.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Deliveries recorded at `proc`.
    pub fn deliveries_of(&self, proc: ProcessId) -> u64 {
        self.counts.get(proc.index()).copied().unwrap_or(0)
    }

    /// Entries of one process, in delivery order.
    pub fn of_proc(&self, proc: ProcessId) -> impl Iterator<Item = &TraceEntry<E>> {
        self.entries.iter().filter(move |e| e.proc == proc)
    }

    /// Projects the trace into a per-process sequence of keys: entry `i` of
    /// the result is the sequence of `f(event)` values (where `f` returned
    /// `Some`) delivered at process `i`, in order.
    pub fn per_proc<K>(&self, n: usize, f: impl Fn(&E) -> Option<K>) -> Vec<Vec<K>> {
        let mut out: Vec<Vec<K>> = (0..n).map(|_| Vec::new()).collect();
        for e in &self.entries {
            if let Some(k) = f(&e.event) {
                let idx = e.proc.index();
                if idx < n {
                    out[idx].push(k);
                }
            }
        }
        out
    }

    /// Projects the trace into `(time, proc, key)` triples.
    pub fn project<K>(&self, f: impl Fn(&E) -> Option<K>) -> Vec<(Time, ProcessId, K)> {
        self.entries
            .iter()
            .filter_map(|e| f(&e.event).map(|k| (e.time, e.proc, k)))
            .collect()
    }
}

/// A violation of pairwise order consistency found by [`check_total_order`].
#[derive(Clone, Debug, PartialEq)]
pub struct OrderViolation<K> {
    /// Index of the first sequence involved.
    pub seq_a: usize,
    /// Index of the second sequence involved.
    pub seq_b: usize,
    /// The two keys delivered in opposite orders.
    pub pair: (K, K),
}

impl<K: fmt::Debug> fmt::Display for OrderViolation<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "sequences {} and {} deliver {:?} and {:?} in opposite orders",
            self.seq_a, self.seq_b, self.pair.0, self.pair.1
        )
    }
}

/// Checks pairwise **total order**: for every pair of sequences, the elements
/// they have in common appear in the same relative order.
///
/// # Errors
///
/// Returns the first violating pair found.
pub fn check_total_order<K: Eq + Hash + Clone>(seqs: &[Vec<K>]) -> Result<(), OrderViolation<K>> {
    for a in 0..seqs.len() {
        for b in (a + 1)..seqs.len() {
            let pos_b: HashMap<&K, usize> =
                seqs[b].iter().enumerate().map(|(i, k)| (k, i)).collect();
            // Indices into seqs[b] of the common elements, in seqs[a]'s order;
            // they must be increasing.
            let mut last: Option<(usize, &K)> = None;
            for k in &seqs[a] {
                if let Some(&i) = pos_b.get(k) {
                    if let Some((last_i, last_k)) = last {
                        if i < last_i {
                            return Err(OrderViolation {
                                seq_a: a,
                                seq_b: b,
                                pair: (last_k.clone(), k.clone()),
                            });
                        }
                    }
                    last = Some((i, k));
                }
            }
        }
    }
    Ok(())
}

/// Checks **agreement**: every sequence flagged `correct` contains exactly
/// the same set of elements.
///
/// # Errors
///
/// Returns `(i, j, key)` where the key is in sequence `i` but not `j`.
pub fn check_agreement<K: Eq + Hash + Clone>(
    seqs: &[Vec<K>],
    correct: &[bool],
) -> Result<(), (usize, usize, K)> {
    let idx: Vec<usize> = (0..seqs.len()).filter(|&i| correct[i]).collect();
    for &i in &idx {
        for &j in &idx {
            if i == j {
                continue;
            }
            let set_j: std::collections::HashSet<&K> = seqs[j].iter().collect();
            for k in &seqs[i] {
                if !set_j.contains(k) {
                    return Err((i, j, k.clone()));
                }
            }
        }
    }
    Ok(())
}

/// Checks **integrity** (no duplication): no element appears twice in any
/// sequence.
///
/// # Errors
///
/// Returns `(sequence index, key)` of the first duplicate.
pub fn check_no_duplicates<K: Eq + Hash + Clone>(seqs: &[Vec<K>]) -> Result<(), (usize, K)> {
    for (i, seq) in seqs.iter().enumerate() {
        let mut seen = std::collections::HashSet::new();
        for k in seq {
            if !seen.insert(k) {
                return Err((i, k.clone()));
            }
        }
    }
    Ok(())
}

/// Checks **prefix consistency**: every pair of sequences is such that one is
/// a prefix of the other (the strongest form of total order + agreement at
/// every cut; holds for abcast delivery sequences of live runs).
///
/// # Errors
///
/// Returns the indices of the first offending pair.
pub fn check_prefix_consistency<K: Eq>(seqs: &[Vec<K>]) -> Result<(), (usize, usize)> {
    for a in 0..seqs.len() {
        for b in (a + 1)..seqs.len() {
            let n = seqs[a].len().min(seqs[b].len());
            if seqs[a][..n] != seqs[b][..n] {
                return Err((a, b));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn total_order_accepts_consistent_sequences() {
        let seqs = vec![vec![1, 2, 3], vec![1, 3], vec![2, 3]];
        assert!(check_total_order(&seqs).is_ok());
    }

    #[test]
    fn total_order_rejects_inversions() {
        let seqs = vec![vec![1, 2], vec![2, 1]];
        let v = check_total_order(&seqs).unwrap_err();
        assert_eq!((v.seq_a, v.seq_b), (0, 1));
    }

    #[test]
    fn agreement_ignores_faulty_sequences() {
        let seqs = vec![vec![1, 2], vec![1], vec![1, 2]];
        assert!(check_agreement(&seqs, &[true, false, true]).is_ok());
        assert!(check_agreement(&seqs, &[true, true, true]).is_err());
    }

    #[test]
    fn duplicates_are_detected() {
        assert!(check_no_duplicates(&[vec![1, 2, 3]]).is_ok());
        assert_eq!(check_no_duplicates(&[vec![1, 2, 1]]), Err((0, 1)));
    }

    #[test]
    fn prefix_consistency() {
        assert!(check_prefix_consistency(&[vec![1, 2, 3], vec![1, 2]]).is_ok());
        assert_eq!(
            check_prefix_consistency(&[vec![1, 2], vec![1, 3]]),
            Err((0, 1))
        );
    }

    #[test]
    fn trace_projection_per_proc() {
        let mut t: Trace<u32> = Trace::new();
        t.push(Time::from_millis(1), ProcessId::new(0), 10);
        t.push(Time::from_millis(2), ProcessId::new(1), 20);
        t.push(Time::from_millis(3), ProcessId::new(0), 30);
        let seqs = t.per_proc(2, |e| Some(*e));
        assert_eq!(seqs, vec![vec![10, 30], vec![20]]);
        assert_eq!(t.of_proc(ProcessId::new(0)).count(), 2);
        assert_eq!(t.len(), 3);
        assert_eq!(t.deliveries_of(ProcessId::new(0)), 2);
        assert_eq!(t.deliveries_of(ProcessId::new(2)), 0);
    }
}
