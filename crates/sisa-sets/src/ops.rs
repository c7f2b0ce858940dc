//! Set-operation variants corresponding to SISA instructions (Table 5).
//!
//! Every operation in this module is a concrete *variant* of an abstract set
//! operation, distinguished by the representations of its operands and by the
//! set algorithm used:
//!
//! | Paper opcode | Operation | Variant | Function |
//! |---|---|---|---|
//! | `0x0` | `A ∩ B` | SA ∩ SA, merge | [`intersect_merge_slices`] |
//! | `0x1` | `A ∩ B` | SA ∩ SA, galloping | [`intersect_galloping_slices`] |
//! | `0x2` | `A ∩ B` | SA ∩ SA, auto | (chosen by the SCU in `sisa-core`) |
//! | `0x3` | `A ∩ B` | SA ∩ DB, probing | [`intersect_sa_db`] |
//! | `0x4` | `A ∩ B` | DB ∩ DB, bulk bitwise AND | [`DenseBitVector::and`] |
//! | `0x5` | `A ∪ {x}` | DB, set bit | [`DenseBitVector::insert`] |
//! | `0x6` | `A \ {x}` | DB, clear bit | [`DenseBitVector::remove`] |
//!
//! Union and difference have the analogous merge / galloping / DB variants
//! (§6.2.2), and every operation has a *cardinality-only* twin that avoids
//! materialising the result set (§6.2.3), which SISA exposes as dedicated
//! instructions (e.g. `intersect_count`).
//!
//! ## How the merge variants run on the host
//!
//! A two-pointer merge branches three ways on every pair of elements, and on
//! two interleaved neighbourhoods that branch is a coin toss. The merge
//! intersection and difference instead take a block of `W` elements from
//! each side, compare all `W × W` pairs without branching on the outcome
//! (fixed-trip loops the compiler turns into vector compares), and then drop
//! the block whose last element is the smaller one — nothing later on the
//! other side can match into it — or both on a tie. What is left when a side
//! has no full block any more goes through a scalar loop that advances by
//! arithmetic on the comparison results instead of branching, and the merge
//! union, which has to place one element a step whichever side it comes
//! from, is that scalar loop throughout. Materialising kernels store every
//! candidate into a buffer of the largest possible size and move the write
//! position on only for the ones that belong to the result. The intersection
//! and probe kernels also come in `*_into` forms that write into a buffer
//! the caller hands in, so a set store can recycle the buffers of the sets
//! it deletes instead of allocating one per result.
//!
//! **Precondition:** both inputs of a merge kernel are *strictly increasing*
//! (sorted, no duplicates), which a [`SortedVertexArray`]'s slice and a CSR
//! adjacency row both are; `SetRepr` hands its sparse arrays to the kernels
//! as they are stored. A duplicate would be counted once per block it is
//! compared with; the kernels check the precondition in debug builds.
//!
//! [`SortedVertexArray`]: crate::SortedVertexArray

use crate::{DenseBitVector, Vertex};

/// Elements per block of the merge kernels.
const W: usize = 8;

/// The merge kernels' precondition: sorted, and no element twice.
fn strictly_increasing(s: &[Vertex]) -> bool {
    s.is_sorted_by(|x, y| x < y)
}

/// The blocks of `W` elements at `a[i..]` and `b[j..]`, while both sides
/// still have one.
#[inline(always)]
fn blocks<'s>(
    a: &'s [Vertex],
    i: usize,
    b: &'s [Vertex],
    j: usize,
) -> Option<(&'s [Vertex; W], &'s [Vertex; W])> {
    Some((a[i..].first_chunk()?, b[j..].first_chunk()?))
}

/// For each element of `y`, 1 if it also occurs in `x` and 0 if not. All
/// `W × W` pairs are compared and no branch depends on an outcome.
///
/// Kept out of line: its callers go on to store one lane at a time, and
/// inlined next to those scalar stores the compares are scalarised as well
/// (64 `cmp`/`sete` pairs instead of 16 vector compares, which doubles the
/// time of the whole kernel).
#[inline(never)]
fn block_hits(x: &[Vertex; W], y: &[Vertex; W]) -> [u32; W] {
    let mut hit = [0u32; W];
    for &xe in x {
        for (h, &ye) in hit.iter_mut().zip(y) {
            *h |= u32::from(xe == ye);
        }
    }
    hit
}

/// Moves `i` and `j` on by `step` after `x` and `y`, the heads of the two
/// sides (`step` 1) or the last elements of their blocks (`step` `W`), were
/// compared: nothing later on the other side can match the smaller one or
/// anything before it, so that side moves; on a tie both do.
#[inline(always)]
fn advance(i: &mut usize, j: &mut usize, step: usize, x: Vertex, y: Vertex) {
    *i += step * usize::from(x <= y);
    *j += step * usize::from(y <= x);
}

// ---------------------------------------------------------------------------
// Intersection
// ---------------------------------------------------------------------------

/// Merge-based intersection over raw slices, which must be strictly
/// increasing (see the [module docs](self)).
#[must_use]
pub fn intersect_merge_slices(a: &[Vertex], b: &[Vertex]) -> Vec<Vertex> {
    let mut out = Vec::new();
    intersect_merge_into(a, b, &mut out);
    out
}

/// [`intersect_merge_slices`] into `out`, whose contents are replaced and
/// whose buffer is reused.
pub(crate) fn intersect_merge_into(a: &[Vertex], b: &[Vertex], out: &mut Vec<Vertex>) {
    debug_assert!(strictly_increasing(a) && strictly_increasing(b));
    // One slot more than the result can have: a lane is stored before it is
    // known to be a hit.
    out.clear();
    out.resize(a.len().min(b.len()) + 1, 0);
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while let Some((x, y)) = blocks(a, i, b, j) {
        let hit = block_hits(x, y);
        for (&ye, &h) in y.iter().zip(&hit) {
            out[k] = ye;
            k += h as usize;
        }
        advance(&mut i, &mut j, W, x[W - 1], y[W - 1]);
    }
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out[k] = x;
        k += usize::from(x == y);
        advance(&mut i, &mut j, 1, x, y);
    }
    out.truncate(k);
}

/// Cardinality of the merge-based intersection without materialising it.
/// The slices must be strictly increasing (see the [module docs](self)).
#[must_use]
pub fn intersect_merge_count(a: &[Vertex], b: &[Vertex]) -> usize {
    debug_assert!(strictly_increasing(a) && strictly_increasing(b));
    let (mut i, mut j) = (0usize, 0usize);
    // The matches of each lane of `b`'s blocks, added up once at the end: a
    // total kept per step would be a sum across the lanes per step.
    let mut lanes = [0u32; W];
    while let Some((x, y)) = blocks(a, i, b, j) {
        for &xe in x {
            for (lane, &ye) in lanes.iter_mut().zip(y) {
                *lane += u32::from(xe == ye);
            }
        }
        advance(&mut i, &mut j, W, x[W - 1], y[W - 1]);
    }
    let mut count = lanes.iter().sum::<u32>() as usize;
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        count += usize::from(x == y);
        advance(&mut i, &mut j, 1, x, y);
    }
    count
}

/// Position of the first element of `hay[start..]` that is `>= needle`,
/// found by exponential probing from `start` followed by a binary search of
/// the bracketed window. Returns `(found, pos)` where `found` says whether
/// `hay[pos] == needle`.
///
/// Because the probe restarts from the previous match and the search window
/// shrinks to the bracket the probe established, a sequence of increasing
/// needles costs `O(log gap)` per needle (with cache locality in the bracket)
/// instead of the full-range `O(log |hay|)` a fresh `binary_search` pays —
/// the defining property of galloping that the previous implementation of
/// this variant lacked.
#[inline]
fn gallop_seek(hay: &[Vertex], start: usize, needle: Vertex) -> (bool, usize) {
    let n = hay.len();
    if start >= n {
        return (false, n);
    }
    match hay[start].cmp(&needle) {
        std::cmp::Ordering::Equal => return (true, start),
        std::cmp::Ordering::Greater => return (false, start),
        std::cmp::Ordering::Less => {}
    }
    // Exponential probe: double the step until we overshoot (or run out).
    let mut step = 1usize;
    let mut lo = start; // hay[lo] < needle holds throughout
    while start + step < n && hay[start + step] < needle {
        lo = start + step;
        step <<= 1;
    }
    let hi = (start + step).min(n); // needle <= hay[hi] (or hi == n)
                                    // Binary search of the bracketed window (lo, hi].
    let mut l = lo + 1;
    let mut h = hi;
    while l < h {
        let mid = l + (h - l) / 2;
        if hay[mid] < needle {
            l = mid + 1;
        } else {
            h = mid;
        }
    }
    (l < n && hay[l] == needle, l)
}

/// Galloping intersection over raw sorted slices: exponential probe from the
/// last match with a shrinking search window.
#[must_use]
pub fn intersect_galloping_slices(a: &[Vertex], b: &[Vertex]) -> Vec<Vertex> {
    let mut out = Vec::new();
    intersect_galloping_into(a, b, &mut out);
    out
}

/// [`intersect_galloping_slices`] into `out`, whose contents are replaced and
/// whose buffer is reused.
pub(crate) fn intersect_galloping_into(a: &[Vertex], b: &[Vertex], out: &mut Vec<Vertex>) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    out.clear();
    out.reserve(small.len());
    let mut cursor = 0usize;
    for &v in small {
        let (found, pos) = gallop_seek(large, cursor, v);
        if found {
            out.push(v);
            cursor = pos + 1;
        } else {
            cursor = pos;
        }
        if cursor >= large.len() {
            break;
        }
    }
}

/// Cardinality of the galloping intersection without materialising it.
#[must_use]
pub fn intersect_galloping_count(a: &[Vertex], b: &[Vertex]) -> usize {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut count = 0usize;
    let mut cursor = 0usize;
    for &v in small {
        let (found, pos) = gallop_seek(large, cursor, v);
        if found {
            count += 1;
            cursor = pos + 1;
        } else {
            cursor = pos;
        }
        if cursor >= large.len() {
            break;
        }
    }
    count
}

/// 1 if `v` is a member of the bitvector backed by `words`, else 0, with no
/// branch on the universe: a vertex past the last word reads an empty word,
/// and the padding bits of the last word are always clear.
#[inline(always)]
fn probe(words: &[u64], v: Vertex) -> usize {
    let idx = v as usize;
    let word = words.get(idx / 64).copied().unwrap_or(0);
    ((word >> (idx % 64)) & 1) as usize
}

/// The elements of `a` whose probe into `b` reads `keep` (1: members of `b`,
/// 0: the others), in `a`'s order, into `out`, whose contents are replaced
/// and whose buffer is reused.
pub(crate) fn probe_filter_into(
    a: &[Vertex],
    b: &DenseBitVector,
    keep: usize,
    out: &mut Vec<Vertex>,
) {
    let words = b.words();
    out.clear();
    out.resize(a.len(), 0);
    let mut k = 0usize;
    for &v in a {
        out[k] = v;
        k += usize::from(probe(words, v) == keep);
    }
    out.truncate(k);
}

/// Intersection of a sorted sparse array with a dense bitvector.
///
/// Iterates over the array and probes the bitvector, `O(|A|)` with `O(1)`
/// probes (instruction `0x3`). The output keeps `a`'s order, so it is
/// sorted too.
#[must_use]
pub fn intersect_sa_db(a: &[Vertex], b: &DenseBitVector) -> Vec<Vertex> {
    let mut out = Vec::new();
    probe_filter_into(a, b, 1, &mut out);
    out
}

/// Cardinality of the SA ∩ DB intersection.
#[must_use]
pub fn intersect_sa_db_count(a: &[Vertex], b: &DenseBitVector) -> usize {
    let words = b.words();
    a.iter().map(|&v| probe(words, v)).sum()
}

/// Intersection of two dense bitvectors via bulk bitwise AND (instruction
/// `0x4`, executed with SISA-PUM in hardware).
#[must_use]
pub(crate) fn intersect_db_db(a: &DenseBitVector, b: &DenseBitVector) -> DenseBitVector {
    a.and(b)
}

/// Cardinality of the DB ∩ DB intersection.
#[must_use]
pub(crate) fn intersect_db_db_count(a: &DenseBitVector, b: &DenseBitVector) -> usize {
    a.and_count(b)
}

// ---------------------------------------------------------------------------
// Union
// ---------------------------------------------------------------------------

/// Merge-based union over raw slices, which must be strictly increasing (see
/// the [module docs](self)).
#[must_use]
pub fn union_merge_slices(a: &[Vertex], b: &[Vertex]) -> Vec<Vertex> {
    debug_assert!(strictly_increasing(a) && strictly_increasing(b));
    let mut out = vec![0; a.len() + b.len()];
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out[k] = x.min(y);
        k += 1;
        advance(&mut i, &mut j, 1, x, y);
    }
    out.truncate(k);
    out.extend_from_slice(&a[i..]);
    out.extend_from_slice(&b[j..]);
    out
}

/// Union of a sparse array with a dense bitvector, producing a dense
/// bitvector (bits of `a`'s members are set into a copy of `b`).
#[must_use]
pub(crate) fn union_sa_db(a: &[Vertex], b: &DenseBitVector) -> DenseBitVector {
    let mut out = b.clone();
    for &v in a {
        out.insert(v);
    }
    out
}

/// Union of two dense bitvectors via bulk bitwise OR (SISA-PUM).
#[must_use]
pub(crate) fn union_db_db(a: &DenseBitVector, b: &DenseBitVector) -> DenseBitVector {
    a.or(b)
}

// ---------------------------------------------------------------------------
// Difference
// ---------------------------------------------------------------------------

/// Merge-based difference over raw slices, which must be strictly increasing
/// (see the [module docs](self)).
#[must_use]
pub fn difference_merge_slices(a: &[Vertex], b: &[Vertex]) -> Vec<Vertex> {
    debug_assert!(strictly_increasing(a) && strictly_increasing(b));
    let mut out = vec![0; a.len()];
    let (mut i, mut j, mut k) = (0usize, 0usize, 0usize);
    // Every element of `a` below `decided` has been kept or dropped, and
    // every element of `b` passed so far is below it too. (One more than a
    // vertex, hence the wider type.)
    let mut decided = 0u64;
    while let Some((x, y)) = blocks(a, i, b, j) {
        let hit = block_hits(y, x);
        // An element of `x` up to `y`'s last can only have its match in `y`
        // itself: everything before `y` is below `decided`, everything after
        // it above `y`'s last.
        let y_max = y[W - 1];
        for (&xe, &h) in x.iter().zip(&hit) {
            out[k] = xe;
            let settled_now = u64::from(xe) >= decided && xe <= y_max;
            k += usize::from(settled_now) & (h ^ 1) as usize;
        }
        decided = u64::from(x[W - 1].min(y_max)) + 1;
        advance(&mut i, &mut j, W, x[W - 1], y[W - 1]);
    }
    // At most W - 1 elements of a block that stayed while `b` moved on.
    while i < a.len() && u64::from(a[i]) < decided {
        i += 1;
    }
    while i < a.len() && j < b.len() {
        let (x, y) = (a[i], b[j]);
        out[k] = x;
        k += usize::from(x < y);
        advance(&mut i, &mut j, 1, x, y);
    }
    out.truncate(k);
    out.extend_from_slice(&a[i..]);
    out
}

/// Galloping difference `A \ B`: iterate over `A`, gallop through `B` with an
/// exponential probe from the last probe position.
///
/// Cost `O(|A| · log(|B| / |A|))`; preferred when `|A| ≪ |B|`.
#[must_use]
pub fn difference_galloping_slices(a: &[Vertex], b: &[Vertex]) -> Vec<Vertex> {
    let mut out = Vec::with_capacity(a.len());
    let mut cursor = 0usize;
    for (i, &v) in a.iter().enumerate() {
        if cursor >= b.len() {
            out.extend_from_slice(&a[i..]);
            break;
        }
        let (found, pos) = gallop_seek(b, cursor, v);
        if found {
            cursor = pos + 1;
        } else {
            cursor = pos;
            out.push(v);
        }
    }
    out
}

/// Difference of a sparse array and a dense bitvector: `A \ B` keeps the
/// members of `a` whose bit is *not* set in `b`.
#[must_use]
pub fn difference_sa_db(a: &[Vertex], b: &DenseBitVector) -> Vec<Vertex> {
    let mut out = Vec::new();
    probe_filter_into(a, b, 0, &mut out);
    out
}

/// Difference of two dense bitvectors, `A ∧ ¬B`, computed as bulk bitwise
/// operations exactly as SISA-PUM does (§8.1: `A \ B = A ∩ B'`).
#[must_use]
pub(crate) fn difference_db_db(a: &DenseBitVector, b: &DenseBitVector) -> DenseBitVector {
    a.and_not(b)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_galloping_intersections_agree() {
        let (a, b) = ([1, 4, 7, 9, 200, 300], [4, 9, 10, 300, 301]);
        let m = intersect_merge_slices(&a, &b);
        assert_eq!(m, intersect_galloping_slices(&a, &b));
        assert_eq!(m, [4, 9, 300]);
        assert_eq!(intersect_merge_count(&a, &b), 3);
        assert_eq!(intersect_galloping_count(&a, &b), 3);
    }

    #[test]
    fn intersections_with_empty_sets() {
        let a = [1, 2, 3];
        assert!(intersect_merge_slices(&a, &[]).is_empty());
        assert!(intersect_galloping_slices(&[], &a).is_empty());
        assert_eq!(intersect_merge_count(&[], &[]), 0);
    }

    #[test]
    fn sa_db_intersection_and_count() {
        let db = DenseBitVector::from_members(100, [2u32, 4, 6, 8]);
        let arr = [1u32, 2, 3, 4, 50];
        assert_eq!(intersect_sa_db(&arr, &db), vec![2, 4]);
        assert_eq!(intersect_sa_db_count(&arr, &db), 2);
    }

    #[test]
    fn db_db_intersection_matches_sparse() {
        let a_members = vec![1u32, 5, 64, 65, 99];
        let b_members = vec![5u32, 64, 98, 99];
        let a = DenseBitVector::from_members(128, a_members.clone());
        let b = DenseBitVector::from_members(128, b_members.clone());
        let expected = intersect_merge_slices(&a_members, &b_members);
        assert_eq!(intersect_db_db(&a, &b).to_sorted_vec(), expected);
        assert_eq!(intersect_db_db_count(&a, &b), expected.len());
    }

    #[test]
    fn union_variants_agree() {
        let (a, b) = ([1, 3, 5], [2, 3, 6]);
        assert_eq!(union_merge_slices(&a, &b), [1, 2, 3, 5, 6]);
        let da = DenseBitVector::from_members(10, a);
        let db = DenseBitVector::from_members(10, b);
        assert_eq!(union_db_db(&da, &db).to_sorted_vec(), vec![1, 2, 3, 5, 6]);
        assert_eq!(union_sa_db(&a, &db).to_sorted_vec(), vec![1, 2, 3, 5, 6]);
    }

    #[test]
    fn difference_variants_agree() {
        let (a, b) = ([1, 2, 3, 4, 5], [2, 4, 6]);
        assert_eq!(difference_merge_slices(&a, &b), [1, 3, 5]);
        assert_eq!(difference_galloping_slices(&a, &b), [1, 3, 5]);
        let da = DenseBitVector::from_members(10, a);
        let db = DenseBitVector::from_members(10, b);
        assert_eq!(difference_db_db(&da, &db).to_sorted_vec(), vec![1, 3, 5]);
        assert_eq!(difference_sa_db(&a, &db), vec![1, 3, 5]);
    }

    #[test]
    fn difference_with_superset_is_empty() {
        let (a, b) = ([1, 2, 3], [0, 1, 2, 3, 4]);
        assert!(difference_merge_slices(&a, &b).is_empty());
    }
}
