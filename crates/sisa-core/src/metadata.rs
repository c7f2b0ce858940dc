//! Set metadata (SM) and the Set-Metadata Buffer (SMB).
//!
//! The paper's SCU "maintains set metadata (SM) using a dedicated in-memory SM
//! structure. SM contains mappings between logical set IDs and set addresses,
//! and the type of the representation as well as the cardinality of a given
//! set" (§3). Metadata lookups normally go through a small cache, the SMB;
//! when the entry is not cached, "there is a single additional memory access
//! for one set operation" (§8.4).
//!
//! The set store already holds everything an SM entry says — a stored set
//! knows its representation and its length — so the runtime keeps no second
//! copy: [`crate::SisaRuntime`] reads a [`SetMetadata`] off the stored set
//! when it prices an instruction, before the instruction changes it. Only
//! the SMB's contents are state of their own. [`SmbCache`] is exact LRU over
//! last-touch stamps, in a flat table indexed by raw set ID. Its length is
//! the largest ID ever looked up, which is why only IDs the slot allocator
//! minted may reach it — the runtime faults on a dangling operand in its set
//! store before it gets here.

use crate::slots::Lru;
use crate::SetId;
use sisa_sets::RepresentationKind;

/// One SM entry: everything the SCU needs to know about a set to pick an
/// instruction variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetMetadata {
    /// Physical representation of the set.
    pub kind: RepresentationKind,
    /// Current cardinality, which the stored set keeps up to date on every
    /// mutation (`O(1)` cardinality instructions, §6.2.3).
    pub cardinality: usize,
    /// Universe size for dense bitvectors (and the graph's `n` in general).
    pub universe: usize,
    /// Unused and always 0: no cost reads a set's address. The field stays
    /// only because callers outside this crate build entries by struct
    /// literal.
    pub address: u64,
}

/// The Set-Metadata Buffer: a small LRU cache of SM entries held by the SCU.
///
/// Only presence is modelled (the metadata itself is read off the stored
/// set); the SCU charges the hit latency or the SM-miss memory access
/// depending on the outcome reported here.
///
/// The replacement policy is exact LRU: every `lookup` and `prime` gives its
/// ID a stamp larger than every other, and a miss past capacity evicts the
/// resident ID with the smallest stamp (see `slots::Lru`).
#[derive(Clone, Debug)]
pub struct SmbCache {
    capacity: usize,
    resident: Lru,
}

impl SmbCache {
    /// Creates an SMB with room for `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            resident: Lru::new(),
        }
    }

    /// Performs a lookup for `id`; returns `true` on hit. Misses install the
    /// entry, evicting the least recently used one if the buffer is full.
    pub fn lookup(&mut self, id: SetId) -> bool {
        self.touch(id)
    }

    /// Installs `id` without counting a hit or a miss — used when the SCU has
    /// just written the entry itself (set creation), so the metadata is
    /// necessarily resident.
    pub fn prime(&mut self, id: SetId) {
        self.touch(id);
    }

    /// Drops a set from the buffer (set deletion).
    pub fn invalidate(&mut self, id: SetId) {
        self.resident.remove(id.raw());
    }

    /// Makes `id` the most recently used entry, installing it (and evicting
    /// the least recently used entry of a full buffer) if it was not
    /// resident. Returns whether it was.
    fn touch(&mut self, id: SetId) -> bool {
        let was_resident = self.resident.touch(id.raw());
        if self.resident.len() > self.capacity {
            self.resident.pop_oldest();
        }
        was_resident
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisa_isa::SetId;

    #[test]
    fn smb_caches_recent_ids() {
        let mut smb = SmbCache::new(2);
        let hits: Vec<bool> = [1, 2, 1, 3, 2, 1].map(|raw| smb.lookup(SetId(raw))).into();
        // 1 was touched after 2, so the third entry evicts 2; re-installing
        // 2 then evicts 1, the least recently used of {1, 3}.
        assert_eq!(hits, [false, false, true, false, false, false]);
        // Priming installs without a lookup: 3 evicts 2, then 4 evicts 1.
        smb.prime(SetId(3));
        smb.prime(SetId(4));
        assert!(smb.lookup(SetId(3)));
        assert!(!smb.lookup(SetId(2)));
    }

    #[test]
    fn smb_invalidation() {
        let mut smb = SmbCache::new(4);
        smb.lookup(SetId(1));
        smb.invalidate(SetId(1));
        assert!(!smb.lookup(SetId(1)));
    }
}
