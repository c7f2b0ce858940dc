//! Set metadata (SM) and the Set-Metadata Buffer (SMB).
//!
//! The paper's SCU "maintains set metadata (SM) using a dedicated in-memory SM
//! structure. SM contains mappings between logical set IDs and set addresses,
//! and the type of the representation as well as the cardinality of a given
//! set" (§3). Metadata lookups normally go through a small cache, the SMB;
//! when the entry is not cached, "there is a single additional memory access
//! for one set operation" (§8.4).
//!
//! Both structures sit on the priced path of every set instruction, and both
//! are keyed by set IDs, which the set store mints as dense indices. So both
//! are flat tables indexed by raw ID: `SetMetadataTable` is one vector of
//! entries, and [`SmbCache`] is an exact `O(1)` LRU over a `Recency` list.
//! Their length is the largest ID ever registered or looked up, which is why
//! only IDs the slot allocator minted may reach them — [`crate::SisaRuntime`]
//! faults on a dangling operand in its set store before it gets here.

use crate::slots::{slot_mut, Recency};
use crate::SetId;
use sisa_sets::RepresentationKind;

/// One SM entry: everything the SCU needs to know about a set to pick an
/// instruction variant.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetMetadata {
    /// Physical representation of the set.
    pub kind: RepresentationKind,
    /// Current cardinality (kept up to date on every mutation, giving `O(1)`
    /// cardinality instructions, §6.2.3).
    pub cardinality: usize,
    /// Universe size for dense bitvectors (and the graph's `n` in general).
    pub universe: usize,
    /// Synthetic physical base address of the set's storage.
    pub address: u64,
}

/// The in-memory SM structure: one metadata entry per set ID.
///
/// Set IDs are dense indices minted by the slot allocator of the runtime's
/// set store, so the table is a plain vector indexed by raw ID.
#[derive(Clone, Debug, Default)]
pub(crate) struct SetMetadataTable {
    entries: Vec<Option<SetMetadata>>,
    next_address: u64,
}

impl SetMetadataTable {
    /// Creates an empty table.
    #[must_use]
    pub fn new() -> Self {
        Self {
            entries: Vec::new(),
            next_address: 0x4000_0000,
        }
    }

    /// Registers a new set and assigns it a synthetic storage address.
    pub fn register(
        &mut self,
        id: SetId,
        kind: RepresentationKind,
        cardinality: usize,
        universe: usize,
    ) {
        let bits = match kind {
            RepresentationKind::DenseBitvector => universe,
            _ => cardinality * 32,
        };
        let address = self.next_address;
        self.next_address += (bits as u64 / 8).max(64) + 64;
        *slot_mut(&mut self.entries, id, None) = Some(SetMetadata {
            kind,
            cardinality,
            universe,
            address,
        });
    }

    /// Looks an entry up.
    #[must_use]
    pub fn get(&self, id: SetId) -> Option<&SetMetadata> {
        self.entries.get(id.raw() as usize)?.as_ref()
    }

    /// Updates the representation and cardinality of an existing entry.
    ///
    /// # Panics
    ///
    /// Panics if the set was never registered.
    pub(crate) fn update(&mut self, id: SetId, kind: RepresentationKind, cardinality: usize) {
        let entry = self
            .entries
            .get_mut(id.raw() as usize)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("set {id} has no metadata entry"));
        entry.kind = kind;
        entry.cardinality = cardinality;
    }

    /// Removes an entry (set deletion).
    pub fn remove(&mut self, id: SetId) {
        if let Some(entry) = self.entries.get_mut(id.raw() as usize) {
            *entry = None;
        }
    }
}

/// The Set-Metadata Buffer: a small LRU cache of SM entries held by the SCU.
///
/// Only presence is modelled (the actual metadata lives in
/// `SetMetadataTable`); the SCU charges the hit latency or the SM-miss
/// memory access depending on the outcome reported here.
///
/// The replacement policy is exact LRU in `O(1)` per access: the resident
/// IDs are the keys of a `Recency` list, so a hit is a splice to the front
/// and a miss past capacity evicts the list's tail. Every `lookup` and
/// `prime` moves its ID to the front, which is precisely "give it a stamp
/// larger than every other" — so the list order *is* the order of last-touch
/// stamps, and its tail is the minimum-stamp entry a timestamped LRU would
/// evict.
#[derive(Clone, Debug)]
pub struct SmbCache {
    capacity: usize,
    resident: Recency,
}

impl SmbCache {
    /// Creates an SMB with room for `capacity` entries.
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        Self {
            capacity: capacity.max(1),
            resident: Recency::new(),
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
    fn register_get_update_remove() {
        let mut table = SetMetadataTable::new();
        let id = SetId(7);
        table.register(id, RepresentationKind::SortedArray, 10, 1000);
        let entry = *table.get(id).unwrap();
        assert_eq!(entry.cardinality, 10);
        assert_eq!(entry.kind, RepresentationKind::SortedArray);
        table.update(id, RepresentationKind::DenseBitvector, 25);
        assert_eq!(table.get(id).unwrap().cardinality, 25);
        assert_eq!(
            table.get(id).unwrap().kind,
            RepresentationKind::DenseBitvector
        );
        table.remove(id);
        assert!(table.get(id).is_none());
    }

    #[test]
    fn addresses_are_distinct() {
        let mut table = SetMetadataTable::new();
        table.register(SetId(1), RepresentationKind::SortedArray, 100, 1000);
        table.register(SetId(2), RepresentationKind::DenseBitvector, 5, 1000);
        let a1 = table.get(SetId(1)).unwrap().address;
        let a2 = table.get(SetId(2)).unwrap().address;
        assert_ne!(a1, a2);
    }

    #[test]
    #[should_panic(expected = "no metadata entry")]
    fn updating_unknown_set_panics() {
        let mut table = SetMetadataTable::new();
        table.update(SetId(3), RepresentationKind::SortedArray, 1);
    }

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
