//! Dense bitvector (DB) set representation.
//!
//! A dense bitvector over a universe of `n` vertices occupies exactly `n` bits
//! (padded to 64-bit words); the `i`-th bit is set iff vertex `i` is a member.
//! In SISA these are the sets processed *in situ* by bulk bitwise DRAM
//! operations (SISA-PUM): intersection is a bulk AND, union a bulk OR, and
//! difference an AND with the negation (§8.1).

use crate::kernels;
use crate::Vertex;

/// A dense bitvector over a fixed vertex universe `0..universe`.
///
/// The cardinality is maintained incrementally so that `|A|` queries are
/// `O(1)`, mirroring the paper's decision to keep set sizes in metadata
/// (§6.2.3).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DenseBitVector {
    words: Vec<u64>,
    universe: usize,
    len: usize,
}

impl DenseBitVector {
    /// Creates an empty bitvector over `0..universe`.
    #[must_use]
    pub fn new(universe: usize) -> Self {
        Self {
            words: vec![0u64; universe.div_ceil(64)],
            universe,
            len: 0,
        }
    }

    /// Creates a bitvector over `0..universe` with every vertex present.
    #[must_use]
    pub fn full(universe: usize) -> Self {
        let mut db = Self::new(universe);
        for w in &mut db.words {
            *w = u64::MAX;
        }
        db.clear_padding();
        db.len = universe;
        db
    }

    /// Builds a bitvector from an iterator of members.
    ///
    /// # Panics
    ///
    /// Panics if any member is `>= universe`.
    #[must_use]
    pub fn from_members(universe: usize, members: impl IntoIterator<Item = Vertex>) -> Self {
        let mut db = Self::new(universe);
        for v in members {
            db.insert(v);
        }
        db
    }

    /// The universe size `n` (number of addressable vertices).
    #[must_use]
    pub fn universe(&self) -> usize {
        self.universe
    }

    /// Number of members (`O(1)`).
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the set has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Read-only access to the backing words.
    #[must_use]
    pub fn words(&self) -> &[u64] {
        &self.words
    }

    /// Membership test (`O(1)`, a single bit probe).
    ///
    /// Vertices outside the universe are reported as absent.
    #[must_use]
    pub fn contains(&self, v: Vertex) -> bool {
        let idx = v as usize;
        if idx >= self.universe {
            return false;
        }
        (self.words[idx / 64] >> (idx % 64)) & 1 == 1
    }

    /// Inserts `v` (`O(1)`, set a bit). Returns `true` if newly inserted.
    ///
    /// # Panics
    ///
    /// Panics if `v >= universe`.
    pub fn insert(&mut self, v: Vertex) -> bool {
        let idx = v as usize;
        assert!(
            idx < self.universe,
            "vertex {v} outside universe {}",
            self.universe
        );
        let mask = 1u64 << (idx % 64);
        let word = &mut self.words[idx / 64];
        if *word & mask == 0 {
            *word |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes `v` (`O(1)`, clear a bit). Returns `true` if it was present.
    pub fn remove(&mut self, v: Vertex) -> bool {
        let idx = v as usize;
        if idx >= self.universe {
            return false;
        }
        let mask = 1u64 << (idx % 64);
        let word = &mut self.words[idx / 64];
        if *word & mask != 0 {
            *word &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> BitIter<'_> {
        BitIter {
            words: &self.words,
            word_idx: 0,
            current: self.words.first().copied().unwrap_or(0),
        }
    }

    /// Converts to a sorted vector of members.
    #[must_use]
    pub fn to_sorted_vec(&self) -> Vec<Vertex> {
        self.iter().collect()
    }

    /// Bitwise AND (set intersection). Universes must match.
    #[must_use]
    pub fn and(&self, other: &Self) -> Self {
        self.combine(other, kernels::and_into)
    }

    /// Bitwise OR (set union). Universes must match.
    #[must_use]
    pub fn or(&self, other: &Self) -> Self {
        self.combine(other, kernels::or_into)
    }

    /// Bitwise AND-NOT (set difference `self \ other`). Universes must match.
    #[must_use]
    pub fn and_not(&self, other: &Self) -> Self {
        self.combine(other, kernels::and_not_into)
    }

    /// Cardinality of the intersection without materialising it.
    #[must_use]
    pub fn and_count(&self, other: &Self) -> usize {
        self.assert_same_universe(other);
        kernels::and_count(&self.words, &other.words) as usize
    }

    /// Runs a word-parallel kernel over both operands into a fresh bitvector.
    /// The kernel's fused popcount becomes the cardinality directly — there is
    /// no separate recount pass, and no padding fix-up is needed because every
    /// binary combine of padding-clean inputs stays padding-clean (the padding
    /// words of both operands are zero, and `0 op 0 = 0` for AND, OR and
    /// AND-NOT alike).
    fn combine(&self, other: &Self, kernel: impl Fn(&[u64], &[u64], &mut Vec<u64>) -> u64) -> Self {
        self.assert_same_universe(other);
        let mut words = Vec::new();
        let ones = kernel(&self.words, &other.words, &mut words);
        let out = Self {
            words,
            universe: self.universe,
            len: ones as usize,
        };
        out.debug_assert_padding_clear();
        out
    }

    fn assert_same_universe(&self, other: &Self) {
        assert_eq!(
            self.universe, other.universe,
            "dense bitvector universes differ ({} vs {})",
            self.universe, other.universe
        );
    }

    fn clear_padding(&mut self) {
        let rem = self.universe % 64;
        if rem != 0 {
            if let Some(last) = self.words.last_mut() {
                *last &= (1u64 << rem) - 1;
            }
        }
    }

    fn debug_assert_padding_clear(&self) {
        debug_assert!(
            self.universe.is_multiple_of(64)
                || self
                    .words
                    .last()
                    .is_none_or(|w| w & !((1u64 << (self.universe % 64)) - 1) == 0),
            "padding bits must stay clear"
        );
    }
}

/// Iterator over the set bits of a [`DenseBitVector`], in increasing order.
#[derive(Debug, Clone)]
pub struct BitIter<'a> {
    words: &'a [u64],
    word_idx: usize,
    current: u64,
}

impl Iterator for BitIter<'_> {
    type Item = Vertex;

    fn next(&mut self) -> Option<Vertex> {
        loop {
            if self.current != 0 {
                let bit = self.current.trailing_zeros();
                self.current &= self.current - 1;
                return Some((self.word_idx as u64 * 64 + u64::from(bit)) as Vertex);
            }
            self.word_idx += 1;
            if self.word_idx >= self.words.len() {
                return None;
            }
            self.current = self.words[self.word_idx];
        }
    }
}

impl<'a> IntoIterator for &'a DenseBitVector {
    type Item = Vertex;
    type IntoIter = BitIter<'a>;

    fn into_iter(self) -> Self::IntoIter {
        self.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_remove_contains() {
        let mut db = DenseBitVector::new(100);
        assert!(db.insert(5));
        assert!(!db.insert(5));
        assert!(db.insert(99));
        assert!(db.contains(5));
        assert!(db.contains(99));
        assert!(!db.contains(6));
        assert!(!db.contains(200));
        assert_eq!(db.len(), 2);
        assert!(db.remove(5));
        assert!(!db.remove(5));
        assert_eq!(db.len(), 1);
    }

    #[test]
    #[should_panic(expected = "outside universe")]
    fn insert_out_of_universe_panics() {
        let mut db = DenseBitVector::new(10);
        db.insert(10);
    }

    #[test]
    fn full_and_not() {
        // The complement within the universe is the full set AND-NOT the
        // members (§8.1: `A \ B = A ∩ B'`), padding bits left clear.
        let full = DenseBitVector::full(70);
        assert_eq!(full.len(), 70);
        let empty = full.and_not(&full);
        assert_eq!(empty.len(), 0);
        let members = DenseBitVector::from_members(70, [0u32, 69]);
        let compl = full.and_not(&members);
        assert_eq!(compl.len(), 68);
        assert_eq!(compl.iter().count(), 68);
        assert!(!compl.contains(0));
        assert!(!compl.contains(69));
        assert!(compl.contains(1));
    }

    #[test]
    fn bitwise_ops_match_set_semantics() {
        let a = DenseBitVector::from_members(200, [1u32, 3, 5, 100, 150]);
        let b = DenseBitVector::from_members(200, [3u32, 5, 7, 150, 199]);
        assert_eq!(a.and(&b).to_sorted_vec(), vec![3, 5, 150]);
        assert_eq!(a.or(&b).to_sorted_vec(), vec![1, 3, 5, 7, 100, 150, 199]);
        assert_eq!(a.and_not(&b).to_sorted_vec(), vec![1, 100]);
        assert_eq!(a.and_count(&b), 3);
    }

    #[test]
    fn iterator_yields_sorted_members() {
        let members = vec![0u32, 63, 64, 65, 127, 128, 199];
        let db = DenseBitVector::from_members(200, members.clone());
        assert_eq!(db.to_sorted_vec(), members);
        assert_eq!(db.iter().count(), members.len());
    }

    #[test]
    fn empty_universe_is_fine() {
        let db = DenseBitVector::new(0);
        assert_eq!(db.len(), 0);
        assert!(db.iter().next().is_none());
        assert!(!db.contains(0));
    }
}
