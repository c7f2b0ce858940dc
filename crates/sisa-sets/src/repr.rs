//! The tagged union over set representations used by the SISA runtime.
//!
//! A SISA set is, physically, either a sorted sparse array or a dense
//! bitvector (§6.1). [`SetRepr`] is the value stored behind a set
//! identifier; operations on it dispatch to the appropriate variant in
//! [`crate::ops`], following the result-representation policy described on
//! each method.
//!
//! ## Host kernel dispatch
//!
//! Independently of the *simulated* variant selection done by the SISA
//! controller (which prices merge vs galloping in cycles), the host has to
//! actually execute each operation. `choose_host_kernel` implements the
//! size-ratio dispatch policy: heavily skewed sparse operands run the
//! galloping kernel, similar sizes run the merge kernel (block against block,
//! see [`crate::ops`]), and dense operands run the word-parallel bitmap
//! kernels from [`crate::kernels`]. A sparse operand is borrowed as the
//! strictly increasing slice the sparse kernels require. The merge kernels
//! are also the oracle the galloping kernels are tested against.

use crate::ops;
use crate::{DenseBitVector, SortedVertexArray, Vertex};
use std::cell::Cell;

/// Which physical representation a set currently uses.
///
/// This is exactly the "set representation" field kept in the paper's
/// Set-Metadata (SM) structure (§8.4).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum RepresentationKind {
    /// Sorted sparse array of vertex identifiers.
    SortedArray,
    /// Dense bitvector over the vertex universe.
    DenseBitvector,
}

/// The host-side execution strategy chosen for one binary set operation.
///
/// This is about *wall-clock* execution on the simulating host; the cycle
/// cost charged by the simulated SISA controller is decided separately (and
/// independently) by the SCU's variant selection in `sisa-core`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub(crate) enum HostKernel {
    /// Linear merge over two strictly increasing arrays, a block of each
    /// compared at a time.
    Merge,
    /// Galloping (exponential-probe) search of the larger sorted array.
    Gallop,
    /// Word-parallel bitwise kernel (or single-bit probe) over a bitvector.
    Bitmap,
}

/// Per-thread tally of which host kernel the dispatch policy selected.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct KernelSelectionCounts {
    /// Operations executed with the linear merge kernel.
    pub merge: u64,
    /// Operations executed with the galloping kernel.
    pub gallop: u64,
    /// Operations executed with a bitmap (word-parallel or probing) kernel.
    pub bitmap: u64,
}

/// Size skew at which galloping replaces merging for sparse×sparse ops.
///
/// Galloping costs `O(|small| · log(|large| / |small|))`; with the probe
/// overhead (each element pays the exponential scan *and* the bracketed
/// binary search) it reliably beats the `O(|small| + |large|)` merge once the
/// larger operand is ~16× the smaller one.
pub(crate) const GALLOP_RATIO: usize = 16;

/// Picks the host kernel for a sparse×sparse binary operation from the two
/// operand cardinalities, per the size-ratio dispatch policy.
#[must_use]
pub(crate) fn choose_host_kernel(len_a: usize, len_b: usize) -> HostKernel {
    let (small, large) = if len_a <= len_b {
        (len_a, len_b)
    } else {
        (len_b, len_a)
    };
    if small > 0 && large >= small.saturating_mul(GALLOP_RATIO) {
        HostKernel::Gallop
    } else {
        HostKernel::Merge
    }
}

thread_local! {
    static SELECTIONS: Cell<KernelSelectionCounts> = const {
        Cell::new(KernelSelectionCounts {
            merge: 0,
            gallop: 0,
            bitmap: 0,
        })
    };
}

/// This thread's cumulative kernel-selection tallies.
#[must_use]
pub fn kernel_selection_counts() -> KernelSelectionCounts {
    SELECTIONS.with(Cell::get)
}

/// Resets this thread's kernel-selection tallies.
pub fn reset_kernel_selection_counts() {
    SELECTIONS.with(|s| s.set(KernelSelectionCounts::default()));
}

fn record_selection(kernel: HostKernel) {
    SELECTIONS.with(|s| {
        let mut counts = s.get();
        match kernel {
            HostKernel::Merge => counts.merge += 1,
            HostKernel::Gallop => counts.gallop += 1,
            HostKernel::Bitmap => counts.bitmap += 1,
        }
        s.set(counts);
    });
}

/// Chooses (and tallies) the kernel for a sparse×sparse operation.
fn dispatch_sparse(len_a: usize, len_b: usize) -> HostKernel {
    let kernel = choose_host_kernel(len_a, len_b);
    record_selection(kernel);
    kernel
}

/// A set of vertices in one of the SISA physical representations.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SetRepr {
    /// Sorted sparse array.
    Sorted(SortedVertexArray),
    /// Dense bitvector.
    Dense(DenseBitVector),
}

impl SetRepr {
    /// An empty set stored as a sorted sparse array.
    #[must_use]
    pub fn empty_sorted() -> Self {
        Self::Sorted(SortedVertexArray::new())
    }

    /// An empty set stored as a dense bitvector over `0..universe`.
    #[must_use]
    pub fn empty_dense(universe: usize) -> Self {
        Self::Dense(DenseBitVector::new(universe))
    }

    /// Builds a sorted sparse-array set from arbitrary members.
    #[must_use]
    pub fn sorted_from(members: impl IntoIterator<Item = Vertex>) -> Self {
        Self::Sorted(members.into_iter().collect())
    }

    /// Builds a dense-bitvector set from members over `0..universe`.
    #[must_use]
    pub fn dense_from(universe: usize, members: impl IntoIterator<Item = Vertex>) -> Self {
        Self::Dense(DenseBitVector::from_members(universe, members))
    }

    /// The representation kind of this set.
    #[must_use]
    pub fn kind(&self) -> RepresentationKind {
        match self {
            Self::Sorted(_) => RepresentationKind::SortedArray,
            Self::Dense(_) => RepresentationKind::DenseBitvector,
        }
    }

    /// Number of members.
    #[must_use]
    pub fn len(&self) -> usize {
        match self {
            Self::Sorted(s) => s.len(),
            Self::Dense(d) => d.len(),
        }
    }

    /// Whether the set has no members.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Storage footprint in bits under the paper's cost model (§6.1).
    #[must_use]
    pub fn storage_bits(&self) -> usize {
        match self {
            Self::Sorted(s) => crate::sparse_array_bits(s.len()),
            Self::Dense(d) => crate::dense_bitvector_bits(d.universe()),
        }
    }

    /// Membership test; cost depends on the representation (§6.2.3).
    #[must_use]
    pub fn contains(&self, v: Vertex) -> bool {
        match self {
            Self::Sorted(s) => s.contains(v),
            Self::Dense(d) => d.contains(v),
        }
    }

    /// Inserts a single element (`A ∪ {x}`); returns whether it was new.
    ///
    /// # Panics
    ///
    /// Panics if the set is a dense bitvector and `v` is outside its universe.
    pub fn insert(&mut self, v: Vertex) -> bool {
        match self {
            Self::Sorted(s) => s.insert(v),
            Self::Dense(d) => d.insert(v),
        }
    }

    /// Removes a single element (`A \ {x}`); returns whether it was present.
    pub fn remove(&mut self, v: Vertex) -> bool {
        match self {
            Self::Sorted(s) => s.remove(v),
            Self::Dense(d) => d.remove(v),
        }
    }

    /// The members as a freshly allocated sorted vector.
    #[must_use]
    pub fn to_sorted_vec(&self) -> Vec<Vertex> {
        match self {
            Self::Sorted(s) => s.as_slice().to_vec(),
            Self::Dense(d) => d.to_sorted_vec(),
        }
    }

    /// Iterates over the members in increasing order.
    pub fn iter(&self) -> Box<dyn Iterator<Item = Vertex> + '_> {
        match self {
            Self::Sorted(s) => Box::new(s.iter()),
            Self::Dense(d) => Box::new(d.iter()),
        }
    }

    /// Set intersection `A ∩ B`.
    ///
    /// Result representation policy: DB ∩ DB stays dense (it is produced in
    /// situ); every other combination yields a sorted sparse array, because
    /// the result is no larger than the sparse operand.
    ///
    /// Host execution: sparse pairs dispatch merge vs galloping via
    /// `choose_host_kernel`, dense pairs run the word-parallel bitmap
    /// kernel.
    #[must_use]
    pub fn intersect(&self, other: &SetRepr) -> SetRepr {
        self.intersect_into(other, &mut Vec::new())
    }

    /// [`SetRepr::intersect`], a sparse result written into `buf`'s buffer
    /// and taking it over (`buf` is left empty; its old contents are
    /// discarded). A dense result leaves `buf` as it was.
    #[must_use]
    pub fn intersect_into(&self, other: &SetRepr, buf: &mut Vec<Vertex>) -> SetRepr {
        match (self, other) {
            (Self::Dense(a), Self::Dense(b)) => {
                record_selection(HostKernel::Bitmap);
                Self::Dense(ops::intersect_db_db(a, b))
            }
            (Self::Dense(d), Self::Sorted(s)) | (Self::Sorted(s), Self::Dense(d)) => {
                record_selection(HostKernel::Bitmap);
                // `s` is sorted, so the probe output already is.
                ops::probe_filter_into(s.as_slice(), d, 1, buf);
                Self::Sorted(SortedVertexArray::from_sorted(std::mem::take(buf)))
            }
            (Self::Sorted(a), Self::Sorted(b)) => {
                let (a, b) = (a.as_slice(), b.as_slice());
                match dispatch_sparse(a.len(), b.len()) {
                    HostKernel::Gallop => ops::intersect_galloping_into(a, b, buf),
                    _ => ops::intersect_merge_into(a, b, buf),
                }
                Self::Sorted(SortedVertexArray::from_sorted(std::mem::take(buf)))
            }
        }
    }

    /// Cardinality of `A ∩ B` without materialising the result.
    #[must_use]
    pub fn intersect_count(&self, other: &SetRepr) -> usize {
        match (self, other) {
            (Self::Dense(a), Self::Dense(b)) => {
                record_selection(HostKernel::Bitmap);
                ops::intersect_db_db_count(a, b)
            }
            (Self::Dense(d), Self::Sorted(s)) | (Self::Sorted(s), Self::Dense(d)) => {
                record_selection(HostKernel::Bitmap);
                ops::intersect_sa_db_count(s.as_slice(), d)
            }
            (Self::Sorted(a), Self::Sorted(b)) => {
                let (a, b) = (a.as_slice(), b.as_slice());
                match dispatch_sparse(a.len(), b.len()) {
                    HostKernel::Gallop => ops::intersect_galloping_count(a, b),
                    _ => ops::intersect_merge_count(a, b),
                }
            }
        }
    }

    /// Set union `A ∪ B`.
    ///
    /// Result representation policy: if either operand is dense the result is
    /// dense (it can only grow); otherwise it is a sorted sparse array. A
    /// sparse member outside the dense operand's universe widens the result's
    /// universe to hold it, so the union is what [`SetRepr::union_count`]
    /// counts.
    ///
    /// Unions always touch every element of both operands, so the sparse path
    /// always merges; there is no galloping variant to dispatch to.
    #[must_use]
    pub fn union(&self, other: &SetRepr) -> SetRepr {
        match (self, other) {
            (Self::Dense(a), Self::Dense(b)) => {
                record_selection(HostKernel::Bitmap);
                Self::Dense(ops::union_db_db(a, b))
            }
            (Self::Dense(d), Self::Sorted(s)) | (Self::Sorted(s), Self::Dense(d)) => {
                record_selection(HostKernel::Bitmap);
                let members = s.as_slice();
                match members.last() {
                    Some(&top) if top as usize >= d.universe() => Self::Dense(
                        DenseBitVector::from_members(top as usize + 1, d.iter().chain(s.iter())),
                    ),
                    _ => Self::Dense(ops::union_sa_db(members, d)),
                }
            }
            (Self::Sorted(a), Self::Sorted(b)) => {
                record_selection(HostKernel::Merge);
                Self::Sorted(SortedVertexArray::from_sorted(ops::union_merge_slices(
                    a.as_slice(),
                    b.as_slice(),
                )))
            }
        }
    }

    /// Cardinality of `A ∪ B` without materialising the result.
    #[must_use]
    pub fn union_count(&self, other: &SetRepr) -> usize {
        self.len() + other.len() - self.intersect_count(other)
    }

    /// Set difference `A \ B`.
    ///
    /// Result representation policy: the result keeps the representation of
    /// `A` (it is a subset of `A`).
    ///
    /// The sparse×sparse path gallops into `B` when it is at least
    /// `GALLOP_RATIO`× larger than `A` (every element of `A` is looked up
    /// in `B`, so only `B`'s size matters for the skew test).
    #[must_use]
    pub fn difference(&self, other: &SetRepr) -> SetRepr {
        self.difference_into(other, &mut Vec::new())
    }

    /// [`SetRepr::difference`], a sparse `A` probed against a dense `B`
    /// written into `buf`'s buffer and taking it over (`buf` is left empty;
    /// its old contents are discarded). Every other pair leaves `buf` as it
    /// was.
    #[must_use]
    pub fn difference_into(&self, other: &SetRepr, buf: &mut Vec<Vertex>) -> SetRepr {
        match (self, other) {
            (Self::Dense(a), Self::Dense(b)) => {
                record_selection(HostKernel::Bitmap);
                Self::Dense(ops::difference_db_db(a, b))
            }
            (Self::Dense(a), Self::Sorted(s)) => {
                record_selection(HostKernel::Bitmap);
                // Bit by bit: a member of `s` outside `a`'s universe is
                // simply absent from `a`.
                let mut out = a.clone();
                for v in s.iter() {
                    out.remove(v);
                }
                Self::Dense(out)
            }
            (Self::Sorted(s), Self::Dense(d)) => {
                record_selection(HostKernel::Bitmap);
                // `s` is sorted, so the probe output already is.
                ops::probe_filter_into(s.as_slice(), d, 0, buf);
                Self::Sorted(SortedVertexArray::from_sorted(std::mem::take(buf)))
            }
            (Self::Sorted(a), Self::Sorted(b)) => {
                let (a, b) = (a.as_slice(), b.as_slice());
                let kernel = if !a.is_empty() && b.len() >= a.len().saturating_mul(GALLOP_RATIO) {
                    HostKernel::Gallop
                } else {
                    HostKernel::Merge
                };
                record_selection(kernel);
                let out = match kernel {
                    HostKernel::Gallop => ops::difference_galloping_slices(a, b),
                    _ => ops::difference_merge_slices(a, b),
                };
                Self::Sorted(SortedVertexArray::from_sorted(out))
            }
        }
    }

    /// Cardinality of `A \ B` without materialising the result.
    #[must_use]
    pub fn difference_count(&self, other: &SetRepr) -> usize {
        self.len() - self.intersect_count(other)
    }
}

impl Default for SetRepr {
    fn default() -> Self {
        Self::empty_sorted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeSet;

    fn reprs(members: &[Vertex], universe: usize) -> Vec<SetRepr> {
        vec![
            SetRepr::sorted_from(members.iter().copied()),
            SetRepr::dense_from(universe, members.iter().copied()),
        ]
    }

    #[test]
    fn all_representation_pairs_agree_on_algebra() {
        let universe = 64;
        let a_members = [1u32, 5, 9, 20, 33, 60];
        let b_members = [5u32, 9, 10, 33, 61];
        let expect_inter = vec![5u32, 9, 33];
        let expect_union = vec![1u32, 5, 9, 10, 20, 33, 60, 61];
        let expect_diff = vec![1u32, 20, 60];
        for a in reprs(&a_members, universe) {
            for b in reprs(&b_members, universe) {
                assert_eq!(a.intersect(&b).to_sorted_vec(), expect_inter, "{a:?} {b:?}");
                assert_eq!(a.union(&b).to_sorted_vec(), expect_union);
                assert_eq!(a.difference(&b).to_sorted_vec(), expect_diff);
                assert_eq!(a.intersect_count(&b), 3);
                assert_eq!(a.union_count(&b), 8);
                assert_eq!(a.difference_count(&b), 3);
            }
        }
    }

    #[test]
    fn kind_and_storage() {
        let s = SetRepr::sorted_from([1u32, 2, 3]);
        let d = SetRepr::dense_from(128, [1u32, 2, 3]);
        assert_eq!(s.kind(), RepresentationKind::SortedArray);
        assert_eq!(d.kind(), RepresentationKind::DenseBitvector);
        assert_eq!(s.storage_bits(), 96);
        assert_eq!(d.storage_bits(), 128);
    }

    #[test]
    fn insert_remove_across_representations() {
        for mut r in reprs(&[2, 4], 32) {
            assert!(r.insert(6));
            assert!(!r.insert(6));
            assert!(r.contains(6));
            assert!(r.remove(2));
            assert!(!r.remove(2));
            assert_eq!(r.to_sorted_vec(), vec![4, 6]);
        }
    }

    #[test]
    fn conversions_round_trip() {
        let original = SetRepr::sorted_from([3u32, 7, 11]);
        let dense = SetRepr::dense_from(16, original.iter());
        assert_eq!(dense.kind(), RepresentationKind::DenseBitvector);
        let back = SetRepr::sorted_from(dense.iter());
        assert_eq!(back.kind(), RepresentationKind::SortedArray);
        assert_eq!(back, original);
    }

    #[test]
    fn dense_minus_sparse_stays_dense() {
        let a = SetRepr::dense_from(32, [1u32, 2, 3, 4]);
        let b = SetRepr::sorted_from([2u32, 4]);
        let d = a.difference(&b);
        assert_eq!(d.kind(), RepresentationKind::DenseBitvector);
        assert_eq!(d.to_sorted_vec(), vec![1, 3]);
    }

    #[test]
    fn dense_minus_sparse_ignores_members_outside_the_universe() {
        let a = SetRepr::dense_from(32, [1u32, 2]);
        let d = a.difference(&SetRepr::sorted_from([2u32, 40]));
        assert_eq!(d.kind(), RepresentationKind::DenseBitvector);
        assert_eq!(d.to_sorted_vec(), vec![1]);
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn dense_union_sparse_widens_to_a_member_outside_the_universe() {
        let dense = SetRepr::dense_from(8, [1u32, 3]);
        let sparse = SetRepr::sorted_from([3u32, 9]);
        let model: BTreeSet<Vertex> = [1, 3, 9].into();
        for (a, b) in [(&dense, &sparse), (&sparse, &dense)] {
            let u = a.union(b);
            assert_eq!(u.kind(), RepresentationKind::DenseBitvector);
            assert_eq!(u.to_sorted_vec(), model.iter().copied().collect::<Vec<_>>());
            assert_eq!(u.len(), model.len());
            assert_eq!(a.union_count(b), model.len());
            let SetRepr::Dense(d) = u else {
                panic!("a union with a dense operand is dense")
            };
            assert_eq!(d.universe(), 10);
        }
        // Members inside the universe keep it.
        let SetRepr::Dense(d) = dense.union(&SetRepr::sorted_from([0u32, 7])) else {
            panic!("a union with a dense operand is dense")
        };
        assert_eq!((d.universe(), d.len()), (8, 4));
    }

    #[test]
    fn default_is_empty_sorted() {
        let d = SetRepr::default();
        assert!(d.is_empty());
        assert_eq!(d.kind(), RepresentationKind::SortedArray);
    }

    #[test]
    fn host_kernel_choice_follows_the_size_ratio() {
        assert_eq!(choose_host_kernel(100, 100), HostKernel::Merge);
        assert_eq!(choose_host_kernel(100, 1599), HostKernel::Merge);
        assert_eq!(choose_host_kernel(100, 1600), HostKernel::Gallop);
        assert_eq!(choose_host_kernel(1600, 100), HostKernel::Gallop);
        assert_eq!(choose_host_kernel(0, 1_000_000), HostKernel::Merge);
        assert_eq!(choose_host_kernel(1, GALLOP_RATIO), HostKernel::Gallop);
    }

    #[test]
    fn dispatch_policy_tallies_selections() {
        reset_kernel_selection_counts();
        let small = SetRepr::sorted_from(0..4u32);
        let large = SetRepr::sorted_from((0..256u32).map(|v| v * 2));
        let even = SetRepr::sorted_from((0..256u32).map(|v| v * 2 + 1));
        let da = SetRepr::dense_from(64, [1u32, 2, 3]);
        let db = SetRepr::dense_from(64, [2u32, 3, 4]);
        assert_eq!(small.intersect(&large).to_sorted_vec(), vec![0, 2]);
        assert_eq!(large.intersect(&even).len(), 0);
        assert_eq!(da.intersect(&db).to_sorted_vec(), vec![2, 3]);
        let counts = kernel_selection_counts();
        assert_eq!(
            counts,
            KernelSelectionCounts {
                merge: 1,
                gallop: 1,
                bitmap: 1,
            }
        );
        reset_kernel_selection_counts();
        assert_eq!(kernel_selection_counts(), KernelSelectionCounts::default());
    }

    #[test]
    fn skewed_difference_gallops_and_agrees_with_merge() {
        reset_kernel_selection_counts();
        let a = SetRepr::sorted_from([5u32, 100, 2000, 3999]);
        let b = SetRepr::sorted_from((0..4000u32).filter(|v| v % 2 == 0));
        let diff = a.difference(&b);
        assert_eq!(diff.to_sorted_vec(), vec![5, 3999]);
        assert_eq!(kernel_selection_counts().gallop, 1);
    }
}
