//! Identifier newtypes shared by every protocol crate.

use std::fmt;

/// Identity of a process (a member, or prospective member, of a group).
///
/// Process identifiers are assigned by the hosting runtime (the simulator
/// assigns them densely from zero) and are totally ordered; several protocols
/// (ring formation, deterministic tie-breaking) rely on that order.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ProcessId(u32);

impl ProcessId {
    /// Creates a process id from its raw index.
    pub const fn new(raw: u32) -> Self {
        ProcessId(raw)
    }

    /// The raw index of this process id.
    pub const fn raw(self) -> u32 {
        self.0
    }

    /// The raw index as a `usize`, convenient for dense tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "p{}", self.0)
    }
}

impl fmt::Display for ProcessId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

/// Identity of a component within its process: the position it is
/// registered at, so routing to it is an index, not a lookup.
///
/// A stack declares the ids of its components as constants, dense from
/// zero in registration order, and
/// [`ProcessBuilder::with`](crate::ProcessBuilder::with) holds it to that
/// order. Every process of a group registers the same components in the same
/// order, so an id names the same component on every peer: a network send
/// goes to the sender's own id there.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ComponentId(u16);

impl ComponentId {
    /// The component registered `index`-th (from zero).
    pub const fn new(index: u16) -> Self {
        ComponentId(index)
    }

    /// The registration position, for indexing dense tables.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ComponentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "c{}", self.0)
    }
}

/// Handle to a pending timer, unique within one process for one run.
///
/// Timers are one-shot: after an [`Input::Fire`](crate::Input::Fire) step delivers the
/// expiry to the owning component, the id is dead. Cancelling a timer that
/// already fired is a no-op.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TimerId(u64);

impl TimerId {
    pub(crate) const fn new(raw: u64) -> Self {
        TimerId(raw)
    }

    /// The raw counter value of this timer id.
    pub const fn raw(self) -> u64 {
        self.0
    }
}

impl fmt::Debug for TimerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "timer#{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_ids_are_ordered_by_raw_value() {
        assert!(ProcessId::new(1) < ProcessId::new(2));
        assert_eq!(ProcessId::new(7).index(), 7);
        assert_eq!(format!("{}", ProcessId::new(3)), "p3");
        assert_eq!(ComponentId::new(4).index(), 4);
        assert_eq!(format!("{:?}", ComponentId::new(2)), "c2");
    }

    #[test]
    fn timer_ids_format() {
        assert_eq!(format!("{:?}", TimerId::new(9)), "timer#9");
    }
}
