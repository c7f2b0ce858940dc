//! Differential tests pinning the host-side fast paths — the word-parallel
//! `u64` kernels, the block merge kernels, the true galloping sparse kernels,
//! the SA×DB probes and the size-ratio dispatch policy in `SetRepr` — against
//! naive scalar references.
//!
//! Inputs deliberately include the adversarial shapes that bit-, block- and
//! search-kernels historically get wrong: empty operands, disjoint and
//! identical sets, single-element sets, lengths on either side of a block
//! boundary, values at `u32::MAX`, and universes straddling a 64-bit word
//! boundary (63 / 64 / 65).

use proptest::prelude::*;
use sisa_sets::{kernels, ops, DenseBitVector, SetRepr, Vertex};
use std::collections::BTreeSet;

/// Scalar one-word-at-a-time reference for the word-parallel kernels.
fn scalar_combine(a: &[u64], b: &[u64], f: impl Fn(u64, u64) -> u64) -> (Vec<u64>, u64) {
    assert_eq!(a.len(), b.len());
    let mut out = Vec::with_capacity(a.len());
    let mut ones = 0u64;
    for (&x, &y) in a.iter().zip(b) {
        let w = f(x, y);
        ones += u64::from(w.count_ones());
        out.push(w);
    }
    (out, ones)
}

type WordOp = (
    &'static str,
    fn(u64, u64) -> u64,
    fn(&[u64], &[u64], &mut Vec<u64>) -> u64,
);

/// The three bulk operations SISA-PUM executes, each with its kernel.
fn word_ops() -> [WordOp; 3] {
    [
        ("and", |x, y| x & y, kernels::and_into),
        ("or", |x, y| x | y, kernels::or_into),
        ("and_not", |x, y| x & !y, kernels::and_not_into),
    ]
}

/// The seed's "galloping" intersection: a full-range `binary_search` per
/// element of the smaller operand, `O(m · log n)` with no locality. The scalar
/// reference the true galloping kernel is pinned against.
fn intersect_galloping_slices_reference(a: &[Vertex], b: &[Vertex]) -> Vec<Vertex> {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    small
        .iter()
        .copied()
        .filter(|v| large.binary_search(v).is_ok())
        .collect()
}

/// The seed's galloping difference (full-range `binary_search` per element).
fn difference_galloping_slices_reference(a: &[Vertex], b: &[Vertex]) -> Vec<Vertex> {
    a.iter()
        .copied()
        .filter(|v| b.binary_search(v).is_err())
        .collect()
}

/// Elements per block of the merge kernels (`ops::W`, which is private).
const W: usize = 8;

/// Every merge kernel and every SA×DB probe on `a` and `b`, against the
/// `BTreeSet` model. The bitvector holds the members of `b` below
/// `universe`; the rest are outside it and must read as absent.
fn check_merge_kernels_and_probes(a: &BTreeSet<Vertex>, b: &BTreeSet<Vertex>, universe: usize) {
    let av: Vec<Vertex> = a.iter().copied().collect();
    let bv: Vec<Vertex> = b.iter().copied().collect();
    let (inter, uni, diff) = (
        model_intersect(a, b),
        model_union(a, b),
        model_difference(a, b),
    );
    assert_eq!(
        ops::intersect_merge_slices(&av, &bv),
        inter,
        "{av:?} ∩ {bv:?}"
    );
    assert_eq!(
        ops::intersect_merge_count(&av, &bv),
        inter.len(),
        "|{av:?} ∩ {bv:?}|"
    );
    assert_eq!(ops::union_merge_slices(&av, &bv), uni, "{av:?} ∪ {bv:?}");
    assert_eq!(
        ops::difference_merge_slices(&av, &bv),
        diff,
        "{av:?} \\ {bv:?}"
    );

    let inside: BTreeSet<Vertex> = b
        .iter()
        .copied()
        .filter(|&v| (v as usize) < universe)
        .collect();
    let db = DenseBitVector::from_members(universe, inside.iter().copied());
    let probed = model_intersect(a, &inside);
    assert_eq!(
        ops::intersect_sa_db(&av, &db),
        probed,
        "{av:?} ∩ DB{inside:?}"
    );
    assert_eq!(ops::intersect_sa_db_count(&av, &db), probed.len());
    assert_eq!(
        ops::difference_sa_db(&av, &db),
        model_difference(a, &inside)
    );
}

fn model_intersect(a: &BTreeSet<Vertex>, b: &BTreeSet<Vertex>) -> Vec<Vertex> {
    a.intersection(b).copied().collect()
}

fn model_union(a: &BTreeSet<Vertex>, b: &BTreeSet<Vertex>) -> Vec<Vertex> {
    a.union(b).copied().collect()
}

fn model_difference(a: &BTreeSet<Vertex>, b: &BTreeSet<Vertex>) -> Vec<Vertex> {
    a.difference(b).copied().collect()
}

/// The same abstract set in each physical representation over `universe`.
fn all_reprs(members: &BTreeSet<Vertex>, universe: usize) -> [SetRepr; 2] {
    [
        SetRepr::sorted_from(members.iter().copied()),
        SetRepr::dense_from(universe, members.iter().copied()),
    ]
}

proptest! {
    #[test]
    fn word_parallel_kernels_match_the_scalar_reference(
        a in proptest::collection::vec(any::<u64>(), 0..40),
        b in proptest::collection::vec(any::<u64>(), 0..40),
    ) {
        // Unequal draws are truncated to a common length; the lengths swept
        // (0..40) cross every unroll boundary of the 4-word inner loop.
        let n = a.len().min(b.len());
        let (a, b) = (&a[..n], &b[..n]);
        for (name, f, into) in word_ops() {
            let (expected, expected_ones) = scalar_combine(a, b, f);
            let mut out = Vec::new();
            let ones = into(a, b, &mut out);
            prop_assert_eq!(&out, &expected, "{}_into words", name);
            prop_assert_eq!(ones, expected_ones, "{}_into ones", name);
        }
        let (_, and_ones) = scalar_combine(a, b, |x, y| x & y);
        prop_assert_eq!(kernels::and_count(a, b), and_ones, "and_count");
    }

    #[test]
    fn dense_ops_match_the_model_across_word_boundary_universes(
        members_a in proptest::collection::btree_set(0u32..130, 0..80),
        members_b in proptest::collection::btree_set(0u32..130, 0..80),
    ) {
        for universe in [1usize, 63, 64, 65, 127, 128, 130] {
            let a: BTreeSet<Vertex> =
                members_a.iter().copied().filter(|&v| (v as usize) < universe).collect();
            let b: BTreeSet<Vertex> =
                members_b.iter().copied().filter(|&v| (v as usize) < universe).collect();
            let da = DenseBitVector::from_members(universe, a.iter().copied());
            let db = DenseBitVector::from_members(universe, b.iter().copied());
            prop_assert_eq!(da.and(&db).to_sorted_vec(), model_intersect(&a, &b));
            prop_assert_eq!(da.or(&db).to_sorted_vec(), model_union(&a, &b));
            prop_assert_eq!(da.and_not(&db).to_sorted_vec(), model_difference(&a, &b));
            prop_assert_eq!(da.and_count(&db), model_intersect(&a, &b).len());
            // The fused counts must agree with a full recount.
            for result in [da.and(&db), da.or(&db), da.and_not(&db)] {
                prop_assert_eq!(result.len(), result.iter().count());
            }
        }
    }

    #[test]
    fn block_kernels_and_probes_match_the_model_at_every_block_boundary(
        // Lengths 0..=3W+2 on each side independently, from 40 values, so
        // matches and equal block maxima are the rule, not the exception.
        low_a in proptest::collection::btree_set(0u32..40, 0..3 * W + 3),
        low_b in proptest::collection::btree_set(0u32..40, 0..3 * W + 3),
        high_a in proptest::collection::btree_set(u32::MAX - 39..=u32::MAX, 0..3 * W + 3),
        high_b in proptest::collection::btree_set(u32::MAX - 39..=u32::MAX, 0..3 * W + 3),
    ) {
        check_merge_kernels_and_probes(&low_a, &low_b, 33);
        // The same shapes ending at `u32::MAX`: nothing may rely on a value
        // above every vertex. (All of it is outside the bitvector.)
        check_merge_kernels_and_probes(&high_a, &high_b, 65);
        // Low against high: disjoint operands a whole range apart.
        check_merge_kernels_and_probes(&low_a, &high_b, 40);
    }

    #[test]
    fn galloping_matches_merge_on_skewed_draws(
        small in proptest::collection::btree_set(0u32..4096, 0..8),
        large in proptest::collection::btree_set(0u32..4096, 0..1024),
    ) {
        let sv: Vec<Vertex> = small.iter().copied().collect();
        let lv: Vec<Vertex> = large.iter().copied().collect();
        for (a, b) in [(&sv, &lv), (&lv, &sv)] {
            let merged = ops::intersect_merge_slices(a, b);
            prop_assert_eq!(ops::intersect_galloping_slices(a, b), merged.clone());
            prop_assert_eq!(intersect_galloping_slices_reference(a, b), merged.clone());
            prop_assert_eq!(ops::intersect_galloping_count(a, b), merged.len());
            let diff = ops::difference_merge_slices(a, b);
            prop_assert_eq!(ops::difference_galloping_slices(a, b), diff.clone());
            prop_assert_eq!(difference_galloping_slices_reference(a, b), diff);
        }
        // The same skewed draws through `SetRepr`, sorted against sorted in
        // both orders: whichever kernel the dispatch picks must give the
        // model's answer.
        for (ma, mb) in [(&small, &large), (&large, &small)] {
            let (inter, uni, diff) =
                (model_intersect(ma, mb), model_union(ma, mb), model_difference(ma, mb));
            let ra = SetRepr::sorted_from(ma.iter().copied());
            let rb = SetRepr::sorted_from(mb.iter().copied());
            prop_assert_eq!(&ra.intersect(&rb).to_sorted_vec(), &inter);
            prop_assert_eq!(&ra.union(&rb).to_sorted_vec(), &uni);
            prop_assert_eq!(&ra.difference(&rb).to_sorted_vec(), &diff);
            prop_assert_eq!(ra.intersect_count(&rb), inter.len());
        }
    }

    #[test]
    fn dispatch_policy_is_semantically_invisible(
        members_a in proptest::collection::btree_set(0u32..512, 0..128),
        members_b in proptest::collection::btree_set(0u32..512, 0..128),
    ) {
        // Whatever host kernel the size-ratio dispatch picks for similar
        // sizes, in every pairing of representations, results must match the
        // abstract model.
        let universe = 512;
        let inter = model_intersect(&members_a, &members_b);
        let uni = model_union(&members_a, &members_b);
        let diff = model_difference(&members_a, &members_b);
        for ra in all_reprs(&members_a, universe) {
            for rb in all_reprs(&members_b, universe) {
                prop_assert_eq!(&ra.intersect(&rb).to_sorted_vec(), &inter);
                prop_assert_eq!(&ra.union(&rb).to_sorted_vec(), &uni);
                prop_assert_eq!(&ra.difference(&rb).to_sorted_vec(), &diff);
                prop_assert_eq!(ra.intersect_count(&rb), inter.len());
                prop_assert_eq!(ra.difference_count(&rb), diff.len());
            }
        }
    }
}

/// Deterministic adversarial shapes for the sparse kernels: empty operands,
/// identical sets, disjoint sets, single elements, and shared endpoints.
#[test]
fn galloping_handles_adversarial_shapes() {
    let shapes: [(&[Vertex], &[Vertex]); 10] = [
        (&[], &[]),
        (&[], &[1, 2, 3]),
        (&[7], &[]),
        (&[5], &[5]),
        (&[5], &[6]),
        (&[1, 2, 3], &[1, 2, 3]),
        (&[1, 3, 5], &[0, 2, 4]),
        (&[0], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
        (&[9], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
        (&[0, 9], &[0, 1, 2, 3, 4, 5, 6, 7, 8, 9]),
    ];
    for (a, b) in shapes {
        for (x, y) in [(a, b), (b, a)] {
            let merged = ops::intersect_merge_slices(x, y);
            assert_eq!(
                ops::intersect_galloping_slices(x, y),
                merged,
                "{x:?} ∩ {y:?}"
            );
            assert_eq!(ops::intersect_galloping_count(x, y), merged.len());
            let diff = ops::difference_merge_slices(x, y);
            assert_eq!(
                ops::difference_galloping_slices(x, y),
                diff,
                "{x:?} \\ {y:?}"
            );
        }
    }
}

/// Fixed shapes at the block boundaries of the merge kernels.
#[test]
fn block_kernels_handle_boundary_shapes() {
    fn set(members: impl IntoIterator<Item = Vertex>) -> BTreeSet<Vertex> {
        members.into_iter().collect()
    }
    let w = W as Vertex;
    let cases: Vec<(BTreeSet<Vertex>, BTreeSet<Vertex>)> = vec![
        // Identical inputs: one block, two blocks and a tail, ending at MAX.
        (set(0..w), set(0..w)),
        (set(0..2 * w + 3), set(0..2 * w + 3)),
        (
            set(u32::MAX - 2 * w..=u32::MAX),
            set(u32::MAX - 2 * w..=u32::MAX),
        ),
        // Disjoint and interleaved: evens against odds, three blocks each.
        (
            set((0..3 * w).map(|v| 2 * v)),
            set((0..3 * w).map(|v| 2 * v + 1)),
        ),
        // One side a strict prefix of the other, cut on and off a boundary.
        (set(0..w), set(0..3 * w)),
        (set(0..w + 3), set(0..3 * w + 1)),
        // A subset whose last match is the first lane of a block: the lanes
        // after it are still stored, one past the largest possible result.
        (set((0..w - 1).chain([w])), set(0..2 * w)),
        // A match that straddles two blocks: `a`'s second block starts with
        // the last element of `b`'s first, so the pair meets only after `a`
        // moved on and `b` stayed.
        (
            set((0..w).chain(100..100 + w)),
            set((50..50 + w - 1).chain(100..=100).chain(200..200 + w)),
        ),
        // Equal block maxima with nothing else in common: both sides move.
        (
            set((0..w - 1).chain([50]).chain(60..60 + w)),
            set((10..10 + w - 1).chain([50]).chain(60..60 + w)),
        ),
        // A block of `a` that stays while `b` moves past part of it, and `b`
        // then runs out of full blocks: the tail must not revisit what the
        // block loop already settled.
        (
            set((0..2 * w).map(|v| 3 * v)),
            set((0..w + 2).map(|v| 2 * v)),
        ),
    ];
    for (a, b) in &cases {
        check_merge_kernels_and_probes(a, b, 64);
        check_merge_kernels_and_probes(b, a, 64);
    }
}

/// The word-boundary shapes, driven end-to-end through `SetRepr` dispatch.
#[test]
fn dispatch_handles_word_boundary_and_degenerate_sets() {
    for universe in [63usize, 64, 65] {
        let last = (universe - 1) as Vertex;
        let cases: [(Vec<Vertex>, Vec<Vertex>); 5] = [
            (vec![], vec![]),
            (vec![last], vec![last]),
            (vec![0], vec![last]),
            ((0..universe as Vertex).collect(), vec![last]),
            (
                (0..universe as Vertex).step_by(2).collect(),
                (0..universe as Vertex).skip(1).step_by(2).collect(),
            ),
        ];
        for (ma, mb) in cases {
            let a: BTreeSet<Vertex> = ma.iter().copied().collect();
            let b: BTreeSet<Vertex> = mb.iter().copied().collect();
            for ra in all_reprs(&a, universe) {
                for rb in all_reprs(&b, universe) {
                    assert_eq!(
                        ra.intersect(&rb).to_sorted_vec(),
                        model_intersect(&a, &b),
                        "u={universe} {:?} ∩ {:?}",
                        ra.kind(),
                        rb.kind()
                    );
                    assert_eq!(ra.union(&rb).to_sorted_vec(), model_union(&a, &b));
                    assert_eq!(ra.difference(&rb).to_sorted_vec(), model_difference(&a, &b));
                    assert_eq!(ra.intersect_count(&rb), model_intersect(&a, &b).len());
                }
            }
        }
    }
}
