//! The sparse-array (SA) set representation.
//!
//! A sparse array stores only the members of a set, one vertex identifier per
//! machine word, in increasing order (§6.1). Every sparse variant of a SISA
//! instruction (merge, galloping, probing a bitvector) streams it in that
//! order.

use crate::Vertex;

/// A sorted, duplicate-free array of vertex identifiers.
///
/// This is the representation used for the vast majority of vertex
/// neighbourhoods: neighbourhoods are static and stored sorted, "following the
/// established practice in graph processing" (§6.1). Sorted order is an
/// invariant of the type: every constructor either sorts or checks.
#[derive(Clone, Debug, Default, PartialEq, Eq, Hash)]
pub struct SortedVertexArray {
    items: Vec<Vertex>,
}

impl SortedVertexArray {
    /// Creates an empty sorted array.
    #[must_use]
    pub fn new() -> Self {
        Self { items: Vec::new() }
    }

    /// Builds a sorted array from arbitrary (possibly unsorted, possibly
    /// duplicated) input, sorting and deduplicating it.
    #[must_use]
    pub fn from_unsorted(mut items: Vec<Vertex>) -> Self {
        items.sort_unstable();
        items.dedup();
        Self { items }
    }

    /// Builds a sorted array from input that is already sorted and
    /// duplicate-free.
    ///
    /// # Panics
    ///
    /// Panics in debug builds if the invariant does not hold; in release
    /// builds the invariant is trusted.
    #[must_use]
    pub(crate) fn from_sorted(items: Vec<Vertex>) -> Self {
        debug_assert!(
            items.windows(2).all(|w| w[0] < w[1]),
            "input to from_sorted must be strictly increasing"
        );
        Self { items }
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// The members' buffer, given up for reuse (its capacity is kept).
    #[must_use]
    pub fn into_vec(self) -> Vec<Vertex> {
        self.items
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The members as a sorted slice.
    #[must_use]
    pub fn as_slice(&self) -> &[Vertex] {
        &self.items
    }

    /// Membership test by binary search (`O(log |S|)`).
    #[must_use]
    pub fn contains(&self, v: Vertex) -> bool {
        self.items.binary_search(&v).is_ok()
    }

    /// Inserts `v`, keeping the array sorted. Returns `true` if `v` was newly
    /// inserted (`O(|S|)` worst case because of element shifting, matching the
    /// paper's cost discussion in §6.2.4).
    pub fn insert(&mut self, v: Vertex) -> bool {
        match self.items.binary_search(&v) {
            Ok(_) => false,
            Err(pos) => {
                self.items.insert(pos, v);
                true
            }
        }
    }

    /// Removes `v` if present. Returns `true` if it was removed.
    pub fn remove(&mut self, v: Vertex) -> bool {
        match self.items.binary_search(&v) {
            Ok(pos) => {
                self.items.remove(pos);
                true
            }
            Err(_) => false,
        }
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> impl Iterator<Item = Vertex> + '_ {
        self.items.iter().copied()
    }
}

impl FromIterator<Vertex> for SortedVertexArray {
    fn from_iter<T: IntoIterator<Item = Vertex>>(iter: T) -> Self {
        Self::from_unsorted(iter.into_iter().collect())
    }
}

impl From<Vec<Vertex>> for SortedVertexArray {
    fn from(v: Vec<Vertex>) -> Self {
        Self::from_unsorted(v)
    }
}

impl<'a> IntoIterator for &'a SortedVertexArray {
    type Item = Vertex;
    type IntoIter = std::iter::Copied<std::slice::Iter<'a, Vertex>>;

    fn into_iter(self) -> Self::IntoIter {
        self.items.iter().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sorted_from_unsorted_sorts_and_dedups() {
        let s = SortedVertexArray::from_unsorted(vec![7, 3, 3, 9, 1, 7]);
        assert_eq!(s.as_slice(), &[1, 3, 7, 9]);
        assert_eq!(s.len(), 4);
        assert!(!s.is_empty());
    }

    #[test]
    fn sorted_contains_and_rank() {
        let mut s = SortedVertexArray::from_unsorted(vec![2, 4, 6, 8]);
        assert!(s.contains(4));
        assert!(!s.contains(5));
        assert!(s.contains(2) && s.contains(8));
        assert!(!s.contains(0) && !s.contains(100));
        // A new member lands at its rank: after the members below it.
        assert!(s.insert(5));
        assert_eq!(s.as_slice(), &[2, 4, 5, 6, 8]);
    }

    #[test]
    fn sorted_insert_remove_keep_order() {
        let mut s = SortedVertexArray::from_unsorted(vec![10, 30]);
        assert!(s.insert(20));
        assert!(!s.insert(20));
        assert_eq!(s.as_slice(), &[10, 20, 30]);
        assert!(s.remove(10));
        assert!(!s.remove(10));
        assert_eq!(s.as_slice(), &[20, 30]);
    }

    #[test]
    fn sorted_from_iterator() {
        let s: SortedVertexArray = [9u32, 1, 5, 1].into_iter().collect();
        assert_eq!(s.as_slice(), &[1, 5, 9]);
        let back: Vec<u32> = (&s).into_iter().collect();
        assert_eq!(back, vec![1, 5, 9]);
    }
}
