//! Flat tables indexed by a small integer key — a raw set ID, or a register
//! pool slot.
//!
//! Set IDs are minted by [`allocate`], which reuses freed IDs
//! most-recently-freed-first. The reuse order is observable: the cross-engine
//! equivalence and interpreter-replay tests rely on every backend minting
//! identical IDs for identical operation sequences. One allocator serves the
//! one set store ([`crate::FunctionalEngine`], which the priced engines keep
//! their sets in) and the sharded engine's placement table.
//!
//! [`Recency`] is the exact `O(1)` LRU order the register file and the SMB
//! both rank their entries by.

use sisa_isa::SetId;

/// Allocates a slot: pops the most recently freed ID, or appends a fresh
/// empty slot and returns its index.
pub(crate) fn allocate<T>(slots: &mut Vec<Option<T>>, free_ids: &mut Vec<u32>) -> SetId {
    if let Some(raw) = free_ids.pop() {
        SetId(raw)
    } else {
        let id = SetId(slots.len() as u32);
        slots.push(None);
        id
    }
}

/// Releases a slot, making its ID the next one reused.
pub(crate) fn release<T>(slots: &mut [Option<T>], free_ids: &mut Vec<u32>, id: SetId) {
    slots[id.0 as usize] = None;
    free_ids.push(id.0);
}

/// The slot of `id` in a flat table indexed by raw set ID, which grows by
/// `empty` slots to reach it. A table's length is thus the largest ID it was
/// ever handed: only IDs that [`allocate`] minted may get here.
pub(crate) fn slot_mut<T: Clone>(table: &mut Vec<T>, id: SetId, empty: T) -> &mut T {
    let index = id.0 as usize;
    if index >= table.len() {
        table.resize(index + 1, empty);
    }
    &mut table[index]
}

/// The end of a [`Recency`] list.
const NIL: u32 = u32::MAX;

/// The `newer` link of a key off a [`Recency`] list.
const UNLISTED: u32 = u32::MAX - 1;

/// Keys ordered by last use, as a doubly linked list threaded through a
/// vector indexed by key: touching a key splices it to the newest end in
/// `O(1)`, and the oldest end is the least recently used key. Each owner
/// keeps its own policy on top — which key to claim, when to evict.
#[derive(Clone, Debug, Default)]
pub(crate) struct Recency {
    /// `links[key]` is `key`'s `(newer, older)` neighbours: [`NIL`] past
    /// either end, and `newer` is [`UNLISTED`] while `key` is off the list.
    links: Vec<(u32, u32)>,
    /// The most and least recently touched keys ([`NIL`] when empty).
    newest: u32,
    oldest: u32,
    len: usize,
}

impl Recency {
    pub(crate) fn new() -> Self {
        Self {
            newest: NIL,
            oldest: NIL,
            ..Self::default()
        }
    }

    /// Number of listed keys.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Makes `key` the most recently used, listing it if it was not;
    /// returns whether it was listed.
    pub(crate) fn touch(&mut self, key: u32) -> bool {
        if self.newest == key {
            return true;
        }
        let was_listed = self.remove(key);
        if key as usize >= self.links.len() {
            self.grow(key as usize);
        }
        self.links[key as usize] = (NIL, self.newest);
        match self.newest {
            NIL => self.oldest = key,
            head => self.links[head as usize].0 = key,
        }
        self.newest = key;
        self.len += 1;
        was_listed
    }

    /// Takes `key` off the list; returns whether it was listed.
    pub(crate) fn remove(&mut self, key: u32) -> bool {
        let Some(&(newer, older)) = self.links.get(key as usize) else {
            return false;
        };
        if newer == UNLISTED {
            return false;
        }
        self.links[key as usize].0 = UNLISTED;
        match newer {
            NIL => self.newest = older,
            newer => self.links[newer as usize].1 = older,
        }
        match older {
            NIL => self.oldest = newer,
            older => self.links[older as usize].0 = newer,
        }
        self.len -= 1;
        true
    }

    /// Takes the least recently used key off the list, if any.
    pub(crate) fn pop_oldest(&mut self) -> Option<u32> {
        let oldest = self.oldest;
        self.remove(oldest).then_some(oldest)
    }

    /// Extends the table to hold `index`; kept out of line, so `touch` stays
    /// small enough to inline into its callers' per-instruction paths.
    #[cold]
    fn grow(&mut self, index: usize) {
        self.links.resize(index + 1, (UNLISTED, NIL));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_are_reused_lifo() {
        let mut slots: Vec<Option<u32>> = Vec::new();
        let mut free = Vec::new();
        let a = allocate(&mut slots, &mut free);
        let b = allocate(&mut slots, &mut free);
        assert_eq!((a, b), (SetId(0), SetId(1)));
        release(&mut slots, &mut free, a);
        release(&mut slots, &mut free, b);
        // Most recently freed first.
        assert_eq!(allocate(&mut slots, &mut free), b);
        assert_eq!(allocate(&mut slots, &mut free), a);
        assert_eq!(allocate(&mut slots, &mut free), SetId(2));
        assert_eq!(slots.len(), 3);
    }

    #[test]
    fn recency_evicts_the_least_recently_touched_key() {
        let mut list = Recency::new();
        for key in [3, 1, 2] {
            assert!(!list.touch(key));
        }
        assert!(list.touch(3), "a listed key reports it");
        assert!(list.touch(3), "and so does the newest");
        assert!(list.remove(2));
        assert!(!list.remove(2));
        assert_eq!(list.len(), 2);
        assert_eq!(list.pop_oldest(), Some(1));
        assert_eq!(list.pop_oldest(), Some(3));
        assert_eq!(list.pop_oldest(), None);
    }
}
