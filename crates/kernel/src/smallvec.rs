//! A small-vector: inline storage for the first `N` elements, heap spill
//! beyond — used for the per-dispatch effect and op buffers so the common
//! case (a handful of effects per event) never touches the allocator.
//!
//! Implemented without `unsafe` (this crate forbids it): the inline region
//! is an array of `Option<T>`. The `Option` discriminants cost a few bytes
//! per slot, which is irrelevant next to the allocation they avoid.

use std::fmt;
use std::ops::Index;

/// A vector storing up to `N` elements inline and the rest on the heap.
pub struct SmallVec<T, const N: usize> {
    inline: [Option<T>; N],
    spill: Vec<T>,
    len: usize,
}

impl<T, const N: usize> SmallVec<T, N> {
    /// Creates an empty small-vector (no allocation).
    pub fn new() -> Self {
        SmallVec {
            inline: [const { None }; N],
            spill: Vec::new(),
            len: 0,
        }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no elements are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Appends an element.
    pub fn push(&mut self, value: T) {
        if self.len < N {
            self.inline[self.len] = Some(value);
        } else {
            self.spill.push(value);
        }
        self.len += 1;
    }

    /// Removes all elements, keeping the spill buffer's capacity.
    pub fn clear(&mut self) {
        for slot in &mut self.inline[..self.len.min(N)] {
            *slot = None;
        }
        self.spill.clear();
        self.len = 0;
    }

    /// The element at `index`, if in bounds.
    pub fn get(&self, index: usize) -> Option<&T> {
        if index >= self.len {
            None
        } else if index < N {
            self.inline[index].as_ref()
        } else {
            self.spill.get(index - N)
        }
    }

    /// Iterates over the elements by reference.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        self.inline[..self.len.min(N)]
            .iter()
            .map(|s| s.as_ref().expect("slot below len is filled"))
            .chain(self.spill.iter())
    }

    /// Iterates over the elements by mutable reference.
    pub fn iter_mut(&mut self) -> impl Iterator<Item = &mut T> {
        self.inline[..self.len.min(N)]
            .iter_mut()
            .map(|s| s.as_mut().expect("slot below len is filled"))
            .chain(self.spill.iter_mut())
    }

    /// Removes and yields every element, leaving the vector empty (spill
    /// capacity is retained for reuse). Elements not consumed before the
    /// iterator is dropped are dropped with it, like `Vec::drain`.
    pub fn drain(&mut self) -> Drain<'_, T, N> {
        let filled = self.len.min(N);
        self.len = 0;
        Drain {
            inline: self.inline[..filled].iter_mut(),
            spill: self.spill.drain(..),
        }
    }
}

/// Draining iterator over a [`SmallVec`] (see [`SmallVec::drain`]).
pub struct Drain<'a, T, const N: usize> {
    inline: std::slice::IterMut<'a, Option<T>>,
    spill: std::vec::Drain<'a, T>,
}

impl<T, const N: usize> Iterator for Drain<'_, T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        match self.inline.next() {
            Some(slot) => Some(slot.take().expect("slot below len is filled")),
            None => self.spill.next(),
        }
    }
}

impl<T, const N: usize> Drop for Drain<'_, T, N> {
    fn drop(&mut self) {
        // Release unconsumed inline elements (the spill `Drain` handles its
        // own remainder), so an early-dropped iterator leaks nothing.
        for slot in &mut self.inline {
            *slot = None;
        }
    }
}

impl<T, const N: usize> Default for SmallVec<T, N> {
    fn default() -> Self {
        Self::new()
    }
}

impl<T, const N: usize> Index<usize> for SmallVec<T, N> {
    type Output = T;
    fn index(&self, index: usize) -> &T {
        self.get(index)
            .unwrap_or_else(|| panic!("index {index} out of bounds (len {})", self.len))
    }
}

impl<T, const N: usize> IntoIterator for SmallVec<T, N> {
    type Item = T;
    type IntoIter = IntoIter<T, N>;
    fn into_iter(self) -> IntoIter<T, N> {
        IntoIter {
            filled: self.len.min(N),
            inline: self.inline,
            next: 0,
            spill: self.spill.into_iter(),
        }
    }
}

/// Owning iterator over a [`SmallVec`]: an index walk over the inline
/// slots, then the spill. Dropping it drops what it has not yielded.
pub struct IntoIter<T, const N: usize> {
    inline: [Option<T>; N],
    /// Inline slots in use; `next` is the first of them not yet yielded.
    filled: usize,
    next: usize,
    spill: std::vec::IntoIter<T>,
}

impl<T, const N: usize> Iterator for IntoIter<T, N> {
    type Item = T;
    fn next(&mut self) -> Option<T> {
        if self.next < self.filled {
            self.next += 1;
            self.inline[self.next - 1].take()
        } else {
            self.spill.next()
        }
    }
}

impl<T, const N: usize> FromIterator<T> for SmallVec<T, N> {
    fn from_iter<I: IntoIterator<Item = T>>(iter: I) -> Self {
        let mut v = Self::new();
        for x in iter {
            v.push(x);
        }
        v
    }
}

impl<T: Clone, const N: usize> Clone for SmallVec<T, N> {
    fn clone(&self) -> Self {
        self.iter().cloned().collect()
    }
}

impl<T: PartialEq, const N: usize> PartialEq for SmallVec<T, N> {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}
impl<T: Eq, const N: usize> Eq for SmallVec<T, N> {}

impl<T: PartialEq, const N: usize> PartialEq<Vec<T>> for SmallVec<T, N> {
    fn eq(&self, other: &Vec<T>) -> bool {
        self.len == other.len() && self.iter().zip(other.iter()).all(|(a, b)| a == b)
    }
}

impl<T: fmt::Debug, const N: usize> fmt::Debug for SmallVec<T, N> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(self.iter()).finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inline_then_spill() {
        let mut v: SmallVec<u32, 2> = SmallVec::new();
        assert!(v.is_empty());
        for i in 0..5 {
            v.push(i);
        }
        assert_eq!(v.len(), 5);
        assert_eq!(v.iter().copied().collect::<Vec<_>>(), vec![0, 1, 2, 3, 4]);
        assert_eq!(v[0], 0);
        assert_eq!(v[4], 4);
        assert_eq!(v.get(5), None);
        assert_eq!(v, vec![0, 1, 2, 3, 4]);
    }

    #[test]
    fn drain_and_reuse() {
        let mut v: SmallVec<String, 2> = SmallVec::new();
        v.push("a".into());
        v.push("b".into());
        v.push("c".into());
        let drained: Vec<String> = v.drain().collect();
        assert_eq!(drained, vec!["a", "b", "c"]);
        assert!(v.is_empty());
        v.push("d".into());
        assert_eq!(v.len(), 1);
        assert_eq!(v[0], "d");
    }

    #[test]
    fn partially_consumed_drain_drops_the_rest() {
        use std::rc::Rc;
        let probe = Rc::new(());
        let mut v: SmallVec<Rc<()>, 2> = SmallVec::new();
        for _ in 0..4 {
            v.push(Rc::clone(&probe));
        }
        assert_eq!(Rc::strong_count(&probe), 5);
        {
            let mut d = v.drain();
            let _first = d.next();
            // Iterator dropped here with three elements unconsumed.
        }
        assert_eq!(Rc::strong_count(&probe), 1, "all drained elements released");
        assert!(v.is_empty());
    }

    #[test]
    fn into_iter_owns_in_order_inline_and_spilled() {
        for len in 0..6u32 {
            let v: SmallVec<u32, 2> = (0..len).collect();
            let owned: Vec<u32> = v.into_iter().collect();
            assert_eq!(owned, (0..len).collect::<Vec<_>>(), "len {len}");
        }
        // A vector that was drained keeps nothing of its former contents.
        let mut v: SmallVec<u32, 2> = (0..5).collect();
        v.drain();
        v.push(9);
        assert_eq!(v.into_iter().collect::<Vec<_>>(), vec![9]);
    }

    #[test]
    fn partially_consumed_into_iter_drops_the_rest() {
        use std::rc::Rc;
        let probe = Rc::new(());
        // Dropped after 0, 1 (inline left), 2 (spill left), … elements.
        for taken in 0..=5 {
            let v: SmallVec<Rc<()>, 2> = (0..5).map(|_| Rc::clone(&probe)).collect();
            assert_eq!(Rc::strong_count(&probe), 6);
            let mut it = v.into_iter();
            let held: Vec<Rc<()>> = it.by_ref().take(taken).collect();
            assert_eq!(held.len(), taken);
            drop(it);
            assert_eq!(Rc::strong_count(&probe), 1 + taken, "taken {taken}");
        }
    }

    #[test]
    fn clear_resets() {
        let mut v: SmallVec<u32, 2> = SmallVec::new();
        v.push(1);
        v.push(2);
        v.push(3);
        v.clear();
        assert!(v.is_empty());
        assert_eq!(v.iter().count(), 0);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let v: SmallVec<u32, 2> = SmallVec::new();
        let _ = v[0];
    }
}
