//! Application-delivery traces.
//!
//! Every event a component [`output`](gcs_kernel::Context::output)s is
//! recorded here with its process and virtual time. The stack-specific
//! observers read it typed; everything else reads it projected, through
//! [`GroupTransport::observe`](crate::GroupTransport::observe) — and so does
//! the one property checker, the [`InvariantChecker`](crate::InvariantChecker).

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
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_projection_per_proc() {
        let mut t: Trace<u32> = Trace::new();
        t.push(Time::from_millis(1), ProcessId::new(0), 10);
        t.push(Time::from_millis(2), ProcessId::new(1), 20);
        t.push(Time::from_millis(3), ProcessId::new(0), 30);
        assert_eq!(t.of_proc(ProcessId::new(0)).count(), 2);
        let at_p0: Vec<u32> = t.of_proc(ProcessId::new(0)).map(|e| e.event).collect();
        assert_eq!(at_p0, [10, 30]);
        assert_eq!(t.len(), 3);
        assert_eq!(t.deliveries_of(ProcessId::new(0)), 2);
        assert_eq!(t.deliveries_of(ProcessId::new(2)), 0);
    }
}
