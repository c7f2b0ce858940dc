//! LIFO slot allocation shared by every engine's set-ID table.
//!
//! All engines store their sets (or, for the sharded engine, placements) in a
//! `Vec<Option<T>>` indexed by raw set ID and reuse freed IDs
//! most-recently-freed-first. The reuse order is observable: the cross-engine
//! equivalence and interpreter-replay tests rely on every backend allocating
//! identical IDs for identical operation sequences, so the allocator lives in
//! one place instead of being re-implemented per engine.

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
}
