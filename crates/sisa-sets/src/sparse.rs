//! Sparse-array (SA) set representations.
//!
//! A sparse array stores only the members of a set, one vertex identifier per
//! machine word. The paper distinguishes *sorted* sparse arrays (used for
//! static, sorted vertex neighbourhoods, §6.1) from *unsorted* sparse arrays
//! (occasionally used for small auxiliary sets). Both are provided here.

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

    /// Creates an empty sorted array with capacity for `cap` members.
    #[must_use]
    pub fn with_capacity(cap: usize) -> Self {
        Self {
            items: Vec::with_capacity(cap),
        }
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

    /// The smallest member, if any.
    #[must_use]
    pub fn min(&self) -> Option<Vertex> {
        self.items.first().copied()
    }

    /// The largest member, if any.
    #[must_use]
    pub fn max(&self) -> Option<Vertex> {
        self.items.last().copied()
    }

    /// Returns the rank of `v` (number of members strictly smaller than `v`).
    #[must_use]
    pub fn rank(&self, v: Vertex) -> usize {
        match self.items.binary_search(&v) {
            Ok(p) | Err(p) => p,
        }
    }

    /// Retains only the members for which the predicate holds.
    pub fn retain(&mut self, mut keep: impl FnMut(Vertex) -> bool) {
        self.items.retain(|&v| keep(v));
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.items.clear();
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

/// An unsorted, duplicate-free array of vertex identifiers.
///
/// The paper notes (§6.2.1) that auxiliary algorithmic sets are sometimes kept
/// unsorted; intersecting an unsorted SA with a sorted SA or a DB then probes
/// each element individually. Insertions are `O(1)` amortised (append) at the
/// price of `O(|S|)` membership tests.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct UnsortedVertexArray {
    items: Vec<Vertex>,
}

impl UnsortedVertexArray {
    /// Creates an empty unsorted array.
    #[must_use]
    pub fn new() -> Self {
        Self { items: Vec::new() }
    }

    /// Builds an unsorted array from arbitrary input, removing duplicates but
    /// preserving first-occurrence order.
    #[must_use]
    pub fn from_iterable(items: impl IntoIterator<Item = Vertex>) -> Self {
        let mut out = Self::new();
        for v in items {
            out.insert(v);
        }
        out
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the set is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// The members as a slice in insertion order.
    #[must_use]
    pub fn as_slice(&self) -> &[Vertex] {
        &self.items
    }

    /// Membership test by linear scan (`O(|S|)`).
    #[must_use]
    pub fn contains(&self, v: Vertex) -> bool {
        self.items.contains(&v)
    }

    /// Inserts `v` if not already present; returns whether it was inserted.
    pub fn insert(&mut self, v: Vertex) -> bool {
        if self.contains(v) {
            false
        } else {
            self.items.push(v);
            true
        }
    }

    /// Removes `v` if present (swap-remove, order not preserved). Returns
    /// whether it was removed.
    pub fn remove(&mut self, v: Vertex) -> bool {
        if let Some(pos) = self.items.iter().position(|&x| x == v) {
            self.items.swap_remove(pos);
            true
        } else {
            false
        }
    }

    /// Iterates over the members in insertion order.
    pub fn iter(&self) -> impl Iterator<Item = Vertex> + '_ {
        self.items.iter().copied()
    }

    /// Removes all members.
    pub fn clear(&mut self) {
        self.items.clear();
    }
}

impl FromIterator<Vertex> for UnsortedVertexArray {
    fn from_iter<T: IntoIterator<Item = Vertex>>(iter: T) -> Self {
        Self::from_iterable(iter)
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
        let s = SortedVertexArray::from_unsorted(vec![2, 4, 6, 8]);
        assert!(s.contains(4));
        assert!(!s.contains(5));
        assert_eq!(s.rank(2), 0);
        assert_eq!(s.rank(5), 2);
        assert_eq!(s.rank(100), 4);
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
    fn sorted_min_max() {
        let s = SortedVertexArray::from_unsorted(vec![5, 2, 9]);
        assert_eq!(s.min(), Some(2));
        assert_eq!(s.max(), Some(9));
        assert_eq!(SortedVertexArray::new().min(), None);
    }

    #[test]
    fn sorted_retain_and_clear() {
        let mut s = SortedVertexArray::from_unsorted(vec![1, 2, 3, 4, 5, 6]);
        s.retain(|v| v % 2 == 0);
        assert_eq!(s.as_slice(), &[2, 4, 6]);
        s.clear();
        assert!(s.is_empty());
    }

    #[test]
    fn sorted_from_iterator() {
        let s: SortedVertexArray = [9u32, 1, 5, 1].into_iter().collect();
        assert_eq!(s.as_slice(), &[1, 5, 9]);
        let back: Vec<u32> = (&s).into_iter().collect();
        assert_eq!(back, vec![1, 5, 9]);
    }

    #[test]
    fn unsorted_insert_preserves_order_and_dedups() {
        let mut u = UnsortedVertexArray::new();
        assert!(u.insert(5));
        assert!(u.insert(1));
        assert!(!u.insert(5));
        assert_eq!(u.as_slice(), &[5, 1]);
        assert_eq!(u.len(), 2);
    }

    #[test]
    fn unsorted_remove_is_swap_remove() {
        let mut u = UnsortedVertexArray::from_iterable([1, 2, 3, 4]);
        assert!(u.remove(2));
        assert!(!u.remove(2));
        assert_eq!(u.len(), 3);
        assert!(u.contains(1) && u.contains(3) && u.contains(4));
    }

    #[test]
    fn unsorted_from_iterator_dedups() {
        let u: UnsortedVertexArray = [3u32, 3, 1].into_iter().collect();
        assert_eq!(u.as_slice(), &[3, 1]);
    }
}
