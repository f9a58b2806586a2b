//! The zero-copy message plane: an arena of interned payloads addressed by
//! [`PayloadRef`] handles.
//!
//! A broadcast payload crosses every layer of the stack — batch assembly,
//! consensus proposal, decision fan-out, wire packet, simulated delivery —
//! and each boundary used to hand over an owned byte container. The arena
//! replaces all of that with one interned allocation per *logical* payload:
//! every layer moves an 8-byte `Copy` handle, and only the edges (workload
//! injection, trace observation) ever touch the bytes.
//!
//! * [`PayloadArena`] — an append-only slab of [`Bytes`] slots. A slot lives
//!   as long as its arena: nothing is reclaimed, so a handle never goes
//!   stale.
//! * [`PayloadRef`] — `Copy` handle `(slot, length)`. The length rides in
//!   the handle so wire-size accounting never needs the arena.
//! * [`SharedArena`] — the cheaply cloneable owner handed to a simulation
//!   harness and its observers (`Arc<Mutex<_>>`; the simulator itself is
//!   single-threaded, the lock is for the multi-threaded experiment sweeps
//!   where each sim owns its own arena).
//!
//! The arena also keeps a scratch pool of byte buffers
//! ([`PayloadArena::build`]) so in-flight envelope construction — e.g. a
//! workload stamping op tags into fresh payloads — reuses buffers instead of
//! allocating per message.

use std::sync::{Arc, Mutex};

use bytes::Bytes;

/// A `Copy` handle to a payload interned in a [`PayloadArena`].
///
/// Handles are meaningful only against the arena that issued them; a
/// handle from another arena is rejected when its slot is out of range or
/// holds a payload of another length.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct PayloadRef {
    slot: u32,
    len: u32,
}

impl PayloadRef {
    /// The canonical empty payload: resolves to zero bytes in every arena
    /// without occupying a slot.
    pub const EMPTY: PayloadRef = PayloadRef {
        slot: u32::MAX,
        len: 0,
    };

    /// Payload length in bytes (carried inline: size accounting along the
    /// message plane never dereferences the arena).
    #[inline]
    pub fn len(&self) -> usize {
        self.len as usize
    }

    /// True for zero-length payloads.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

impl std::fmt::Debug for PayloadRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if *self == PayloadRef::EMPTY {
            write!(f, "payload:empty")
        } else {
            write!(f, "payload:{}({}B)", self.slot, self.len)
        }
    }
}

/// An append-only slab of interned payloads and a scratch pool for envelope
/// construction.
#[derive(Debug, Default)]
pub struct PayloadArena {
    slots: Vec<Bytes>,
    scratch: Vec<Vec<u8>>,
}

impl PayloadArena {
    /// Creates an empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned payloads (every one stays live with the arena).
    pub fn live(&self) -> usize {
        self.slots.len()
    }

    /// Interns an owned payload, returning its handle. Zero-length payloads
    /// collapse to [`PayloadRef::EMPTY`] and occupy no slot.
    pub fn intern(&mut self, data: Bytes) -> PayloadRef {
        if data.is_empty() {
            return PayloadRef::EMPTY;
        }
        let len = u32::try_from(data.len()).expect("payload exceeds u32::MAX bytes");
        let slot = u32::try_from(self.slots.len()).expect("arena slot overflow");
        assert!(slot != u32::MAX, "arena slot overflow");
        self.slots.push(data);
        PayloadRef { slot, len }
    }

    /// Builds a payload through a pooled scratch buffer: `fill` writes into
    /// a reused `Vec<u8>`, the result is copied into one exact-size shared
    /// allocation and interned. Steady-state envelope construction touches
    /// the allocator exactly once (for the interned bytes themselves).
    pub fn build(&mut self, fill: impl FnOnce(&mut Vec<u8>)) -> PayloadRef {
        let mut buf = self.scratch.pop().unwrap_or_default();
        buf.clear();
        fill(&mut buf);
        let r = self.intern_slice(&buf);
        self.scratch.push(buf);
        r
    }

    /// Interns a copy of `data`.
    pub fn intern_slice(&mut self, data: &[u8]) -> PayloadRef {
        if data.is_empty() {
            return PayloadRef::EMPTY;
        }
        self.intern(Bytes::copy_from_slice(data))
    }

    /// Resolves a handle to its payload (an O(1) shared-pointer clone), or
    /// `None` if the handle is from another arena (its slot is out of range
    /// or holds a payload of another length).
    pub fn resolve(&self, r: PayloadRef) -> Option<Bytes> {
        if r == PayloadRef::EMPTY {
            return Some(Bytes::new());
        }
        let data = self.slots.get(r.slot as usize)?;
        (data.len() == r.len as usize).then(|| data.clone())
    }

    /// Like [`resolve`](Self::resolve), panicking on a foreign handle — for
    /// observers that own the arena and know the handle is its own.
    pub fn get(&self, r: PayloadRef) -> Bytes {
        self.resolve(r).unwrap_or_else(|| panic!("foreign {r:?}"))
    }
}

/// Cheaply cloneable shared ownership of a [`PayloadArena`].
///
/// One `SharedArena` per simulation: the harness interns at injection, the
/// protocol layers move handles, and trace observers resolve at the end.
#[derive(Clone, Debug, Default)]
pub struct SharedArena(Arc<Mutex<PayloadArena>>);

impl SharedArena {
    /// Creates a fresh empty arena.
    pub fn new() -> Self {
        Self::default()
    }

    /// Interns an owned payload. See [`PayloadArena::intern`].
    pub fn intern(&self, data: Bytes) -> PayloadRef {
        self.lock().intern(data)
    }

    /// Interns a copy of `data`. See [`PayloadArena::intern_slice`].
    pub fn intern_slice(&self, data: &[u8]) -> PayloadRef {
        self.lock().intern_slice(data)
    }

    /// Builds a payload through the scratch pool. See
    /// [`PayloadArena::build`].
    pub fn build(&self, fill: impl FnOnce(&mut Vec<u8>)) -> PayloadRef {
        self.lock().build(fill)
    }

    /// Resolves a handle; `None` when foreign. See [`PayloadArena::resolve`].
    pub fn resolve(&self, r: PayloadRef) -> Option<Bytes> {
        self.lock().resolve(r)
    }

    /// Resolves a handle, panicking when foreign. See [`PayloadArena::get`].
    pub fn get(&self, r: PayloadRef) -> Bytes {
        self.lock().get(r)
    }

    /// Number of interned payloads.
    pub fn live(&self) -> usize {
        self.lock().live()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, PayloadArena> {
        self.0.lock().expect("payload arena poisoned")
    }
}

const _: () = assert!(
    std::mem::size_of::<PayloadRef>() == 8,
    "PayloadRef must stay an 8-byte Copy handle"
);

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn intern_resolve_roundtrip() {
        let mut a = PayloadArena::new();
        let r = a.intern_slice(b"hello");
        assert_eq!(r.len(), 5);
        assert_eq!(a.get(r), b"hello"[..]);
        assert_eq!(a.live(), 1);
    }

    #[test]
    fn empty_payloads_share_the_sentinel() {
        let mut a = PayloadArena::new();
        let r = a.intern_slice(b"");
        assert_eq!(r, PayloadRef::EMPTY);
        assert!(r.is_empty());
        assert_eq!(a.live(), 0);
        assert_eq!(a.resolve(r).unwrap().len(), 0);
    }

    #[test]
    #[should_panic(expected = "foreign")]
    fn get_panics_on_foreign_handle() {
        let mut a = PayloadArena::new();
        let _ = a.intern_slice(b"x");
        let r = a.intern_slice(b"y");
        // `r` names slot 1, which a one-payload arena does not have.
        let mut other = PayloadArena::new();
        let _ = other.intern_slice(b"z");
        let _ = other.get(r);
    }

    #[test]
    fn build_reuses_scratch_buffers() {
        let mut a = PayloadArena::new();
        let r1 = a.build(|b| b.extend_from_slice(b"op-1"));
        let r2 = a.build(|b| b.extend_from_slice(b"op-2!"));
        assert_eq!(a.get(r1), b"op-1"[..]);
        assert_eq!(a.get(r2), b"op-2!"[..]);
        assert_eq!(r2.len(), 5);
        assert_eq!(a.scratch.len(), 1, "one pooled buffer serves all builds");
    }

    #[test]
    fn handles_are_copy_and_stable_across_clones() {
        let a = SharedArena::new();
        let r = a.intern_slice(b"shared");
        let b = a.clone();
        // A cloned SharedArena resolves handles issued by the original: the
        // "dedup by handle" property duplicated sim deliveries rely on.
        assert_eq!(b.get(r), b"shared"[..]);
        let copy = r;
        assert_eq!(copy, r);
    }

    #[test]
    fn resolving_against_a_different_arena_fails_cleanly() {
        let mut a = PayloadArena::new();
        let mut other = PayloadArena::new();
        let _ = a.intern_slice(b"aaaa");
        let r = a.intern_slice(b"bbbbbbbb");
        // `other` has no slot 1 at all.
        assert_eq!(other.resolve(r), None);
        // Same slot index but mismatched length is also rejected.
        let _ = other.intern_slice(b"xxxx");
        let _ = other.intern_slice(b"yy");
        assert_eq!(other.resolve(r), None);
    }
}
