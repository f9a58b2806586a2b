//! The event abstraction routed between components.

use std::fmt;

/// A typed event exchanged between protocol components.
///
/// Protocol suites define one closed enum implementing `Event` that covers
/// every interface of their architecture (for the paper's new architecture,
/// the variants correspond to the arrows of Fig 9: `abcast`, `adeliver`,
/// `rbcast`, `rdeliver`, `suspect`, `join`, `remove`, `new_view`, …).
///
/// The two methods exist for the benefit of the simulator's metrics: events
/// sent over the network are counted per [`kind`](Event::kind) and their
/// [`wire_size`](Event::wire_size) is accumulated, so experiments can report
/// message and byte counts per protocol.
pub trait Event: Clone + fmt::Debug + 'static {
    /// A short, stable label identifying the event family (for metrics).
    fn kind(&self) -> &'static str;

    /// Approximate serialized size in bytes when sent over the network.
    ///
    /// The default of 64 bytes stands in for a small protocol header; events
    /// carrying payloads should add the payload length.
    fn wire_size(&self) -> usize {
        64
    }

    /// Calls `each(kind, bytes)` for every protocol message this event
    /// carries over the network. The default reports the event itself:
    /// its [`kind`](Event::kind) and [`wire_size`](Event::wire_size). An
    /// event that bundles several messages into one packet reports each
    /// under its own kind, the bytes summing to the packet's `wire_size`:
    /// runtimes count the packet once in their totals and every message it
    /// carries under its kind.
    fn for_each_carried(&self, mut each: impl FnMut(&'static str, usize)) {
        each(self.kind(), self.wire_size());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[derive(Clone, Debug)]
    struct Unit;
    impl Event for Unit {
        fn kind(&self) -> &'static str {
            "unit"
        }
    }

    #[test]
    fn default_wire_size_is_header_sized() {
        assert_eq!(Unit.wire_size(), 64);
        assert_eq!(Unit.kind(), "unit");
        let mut carried = Vec::new();
        Unit.for_each_carried(|kind, bytes| carried.push((kind, bytes)));
        assert_eq!(carried, vec![("unit", 64)], "one message: the event itself");
    }
}
