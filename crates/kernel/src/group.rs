//! The plain vocabulary every protocol stack shares when it talks to an
//! application: the conflict class of a message, the primitive that
//! delivered it, and the group view. They live in the kernel because the
//! stacks do not see each other (`gcs-traditional` does not depend on
//! `gcs-core`) while the harness contract above them names all three.

use crate::ProcessId;

/// Conflict class of a message (the "message semantics" of generic
/// broadcast, paper §3.2.1).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct MessageClass(pub u16);

impl MessageClass {
    /// Reliable-broadcast class in the paper's §3.3 conflict relation:
    /// conflicts with [`ABCAST`](Self::ABCAST) but not with itself.
    pub const RBCAST: MessageClass = MessageClass(0);
    /// Atomic-broadcast class: conflicts with everything.
    pub const ABCAST: MessageClass = MessageClass(1);
    /// First class id free for applications.
    pub const USER_BASE: u16 = 8;
}

/// How a message reached the application (which primitive delivered it).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DeliveryKind {
    /// Delivered by atomic broadcast (`adeliver`).
    Atomic,
    /// Delivered by generic broadcast (`gdeliver`) on the conflict-free fast
    /// path.
    GenericFast,
    /// Delivered by generic broadcast at an epoch closure (conflict forced
    /// an atomic-broadcast escalation).
    GenericOrdered,
}

/// A group view: a totally ordered **list** of members (paper footnote 10 —
/// the head of the list is the primary in passive replication).
#[derive(Clone, Debug, PartialEq, Eq, Hash)]
pub struct View {
    /// Monotonically increasing view number.
    pub id: u64,
    /// The member list; order is agreed (head = primary).
    pub members: Vec<ProcessId>,
}

impl View {
    /// The initial view (id 0) over the given members.
    pub fn initial(members: Vec<ProcessId>) -> Self {
        View { id: 0, members }
    }

    /// Whether `p` is a member.
    pub fn contains(&self, p: ProcessId) -> bool {
        self.members.contains(&p)
    }

    /// The primary (head of the list), if the view is non-empty.
    pub fn primary(&self) -> Option<ProcessId> {
        self.members.first().copied()
    }

    /// Number of members.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when the view has no members.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// The successor view after adding `p` (appended at the tail).
    pub fn with_join(&self, p: ProcessId) -> View {
        let mut members = self.members.clone();
        if !members.contains(&p) {
            members.push(p);
        }
        View {
            id: self.id + 1,
            members,
        }
    }

    /// The successor view after removing `p`.
    pub fn with_remove(&self, p: ProcessId) -> View {
        View {
            id: self.id + 1,
            members: self.members.iter().copied().filter(|&m| m != p).collect(),
        }
    }

    /// The successor view that rotates `old_primary` to the tail
    /// (primary-change, paper Fig 8 footnote 10).
    pub fn with_rotation(&self, old_primary: ProcessId) -> View {
        let mut members: Vec<ProcessId> = self
            .members
            .iter()
            .copied()
            .filter(|&m| m != old_primary)
            .collect();
        if self.members.contains(&old_primary) {
            members.push(old_primary);
        }
        View {
            id: self.id + 1,
            members,
        }
    }
}
