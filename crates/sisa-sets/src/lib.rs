//! # sisa-sets
//!
//! Set representations and set algorithms underlying the SISA
//! (Set-centric Instruction Set Architecture) design from
//! *"SISA: Set-Centric Instruction Set Architecture for Graph Mining on
//! Processing-in-Memory Systems"* (Besta et al., MICRO 2021).
//!
//! The paper represents vertex sets in one of two ways (§6.1, Figure 4):
//!
//! * **Sparse arrays (SA)** — a sorted array of vertex identifiers
//!   ([`SortedVertexArray`]). An SA occupies `W · |S|` bits where `W` is the
//!   machine word size. Every sparse variant the SCU picks (merge, galloping,
//!   probing) assumes the array is sorted.
//! * **Dense bitvectors (DB)** — a length-`n` bitvector ([`DenseBitVector`])
//!   whose `i`-th bit indicates whether vertex `i` is a member.
//!
//! [`SetRepr`] is the tagged union over these two representations and is what
//! the SISA runtime stores behind a set identifier.
//!
//! The [`ops`] module implements every set-operation *variant* that Table 5 of
//! the paper turns into an instruction: merge and galloping intersection /
//! difference over sorted SAs, SA∩DB probing, DB∩DB bulk bitwise operations,
//! unions, and cardinality-only variants (which avoid materialising the
//! result); single-element insert/remove are methods of the representations.
//! On the host the merge variants compare a block of eight elements of each
//! operand at a time instead of one pair, without branching on the outcome;
//! they require strictly increasing inputs.
//!
//! The [`counting`] module provides instrumented twins of the hot operations
//! that additionally report the number of element comparisons / word touches
//! performed; the benchmark harness uses these to regenerate the empirical
//! side of the paper's Table 6 complexity analysis.
//!
//! [`kernels`] serves raw host-side speed rather than the paper's cost model:
//! it holds the word-parallel `u64` combines with fused popcounts that back
//! every dense-bitvector operation. [`repr`] additionally hosts the
//! size-ratio dispatch that picks merge vs galloping vs bitmap execution per
//! operation, and [`KernelSelectionCounts`] counts its picks.
//!
//! This crate is purely algorithmic: it knows nothing about timing, PIM or the
//! SISA controller. Those live in `sisa-pim` and `sisa-core`.
//!
//! ## Example
//!
//! ```
//! use sisa_sets::{SortedVertexArray, DenseBitVector, ops};
//!
//! let a = SortedVertexArray::from_unsorted(vec![5, 1, 9, 3]);
//! let b = SortedVertexArray::from_unsorted(vec![3, 9, 12]);
//! let inter = ops::intersect_merge_slices(a.as_slice(), b.as_slice());
//! assert_eq!(inter, [3, 9]);
//!
//! let db = DenseBitVector::from_members(16, [3u32, 9, 12]);
//! assert_eq!(ops::intersect_sa_db_count(a.as_slice(), &db), 2);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod counting;
pub mod dense;
pub mod kernels;
pub mod ops;
pub mod repr;
pub mod serde_impls;
pub mod sparse;

pub use dense::DenseBitVector;
pub use repr::{KernelSelectionCounts, RepresentationKind, SetRepr};
pub use sparse::SortedVertexArray;

/// A vertex identifier.
///
/// The paper models vertices as integers `1..=n`; we use zero-based `u32`
/// identifiers, matching the assumption that "the maximum vertex ID fits in
/// one word" (§2).
pub type Vertex = u32;

/// The machine word size in bits assumed when reasoning about storage costs.
///
/// The paper's storage formulas (§6.1) express a sparse array's footprint as
/// `W · |S|` bits; we fix `W = 32` because vertex identifiers are `u32`.
pub(crate) const WORD_BITS: usize = 32;

/// Storage size, in bits, of a sparse array holding `len` vertices.
#[must_use]
pub(crate) fn sparse_array_bits(len: usize) -> usize {
    len * WORD_BITS
}

/// Storage size, in bits, of a dense bitvector over a universe of `n` vertices.
///
/// Dense bitvectors always occupy `n` bits regardless of how many members they
/// have (rounded up to whole 64-bit words internally).
#[must_use]
pub fn dense_bitvector_bits(universe: usize) -> usize {
    universe.div_ceil(64) * 64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn storage_formulas_match_paper() {
        // §6.1: for |N(v)| = n/2 a DB takes n bits while an SA takes 16n bits
        // (with W = 32).
        let n = 1024usize;
        assert_eq!(sparse_array_bits(n / 2), 16 * n);
        assert_eq!(dense_bitvector_bits(n), n);
    }

    #[test]
    fn dense_bits_round_up_to_words() {
        assert_eq!(dense_bitvector_bits(1), 64);
        assert_eq!(dense_bitvector_bits(64), 64);
        assert_eq!(dense_bitvector_bits(65), 128);
        assert_eq!(dense_bitvector_bits(0), 0);
    }
}
