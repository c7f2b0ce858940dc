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
//! [`Lru`] is the exact LRU order, kept as last-touch stamps, that the
//! register file and the SMB both rank their entries by.

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

/// Keys ordered by last use: exact LRU over small integer keys, kept as
/// last-touch stamps. Each owner keeps its own policy on top — which key to
/// claim, when to evict.
///
/// A touch is one stamp store. The least recently used key is found through
/// `by_age`, the listed keys sorted by stamp when it was last rebuilt: it is
/// popped oldest first, and an entry whose key's stamp has changed since (the
/// key was touched again, or taken off the list) is skipped. Every stamp
/// written after the rebuild is larger than every stamp it sorted, so the
/// first entry whose stamp is unchanged is the true least recently used key.
/// The list is rebuilt only once it runs out; each entry is popped once, and
/// a skipped one stands for a touch or a removal since, so the sort costs
/// amortised `O(log n)` per operation.
#[derive(Clone, Debug, Default)]
pub(crate) struct Lru {
    /// `entries[key]` is `key`'s last-touch stamp (0 while it is off the
    /// list) and its index in `listed`.
    entries: Vec<(u64, u32)>,
    /// The listed keys, in no particular order.
    listed: Vec<u32>,
    /// `(stamp, key)` of the keys listed at the last rebuild, newest first.
    by_age: Vec<(u64, u32)>,
    /// The last stamp handed out.
    clock: u64,
}

impl Lru {
    pub(crate) fn new() -> Self {
        Self::default()
    }

    /// Number of listed keys.
    pub(crate) fn len(&self) -> usize {
        self.listed.len()
    }

    /// Makes `key` the most recently used, listing it if it was not;
    /// returns whether it was listed.
    #[inline]
    pub(crate) fn touch(&mut self, key: u32) -> bool {
        if key as usize >= self.entries.len() {
            self.grow(key as usize);
        }
        self.clock += 1;
        let entry = &mut self.entries[key as usize];
        let was_listed = entry.0 != 0;
        entry.0 = self.clock;
        if !was_listed {
            entry.1 = self.listed.len() as u32;
            self.listed.push(key);
        }
        was_listed
    }

    /// Takes `key` off the list; returns whether it was listed.
    pub(crate) fn remove(&mut self, key: u32) -> bool {
        let Some(&(stamp, index)) = self.entries.get(key as usize) else {
            return false;
        };
        if stamp == 0 {
            return false;
        }
        self.entries[key as usize].0 = 0;
        self.listed.swap_remove(index as usize);
        if let Some(&moved) = self.listed.get(index as usize) {
            self.entries[moved as usize].1 = index;
        }
        true
    }

    /// Takes the least recently used key off the list, if any.
    pub(crate) fn pop_oldest(&mut self) -> Option<u32> {
        loop {
            let Some((stamp, key)) = self.by_age.pop() else {
                if self.listed.is_empty() {
                    return None;
                }
                self.rebuild();
                continue;
            };
            if self.entries[key as usize].0 == stamp {
                self.remove(key);
                return Some(key);
            }
        }
    }

    /// Sorts the listed keys by stamp into `by_age`, newest first.
    #[cold]
    fn rebuild(&mut self) {
        let entries = &self.entries;
        self.by_age.clear();
        self.by_age.extend(
            self.listed
                .iter()
                .map(|&key| (entries[key as usize].0, key)),
        );
        self.by_age.sort_unstable_by(|x, y| y.cmp(x));
    }

    /// Extends the table to hold `index`; kept out of line, so `touch` stays
    /// small enough to inline into its callers' per-instruction paths.
    #[cold]
    fn grow(&mut self, index: usize) {
        self.entries.resize(index + 1, (0, 0));
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
        let mut list = Lru::new();
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
