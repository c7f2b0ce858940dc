//! Property-based tests for set representations and set algebra.
//!
//! These check the invariants the SISA design depends on: every physical
//! representation and every algorithm variant must implement the *same*
//! abstract set algebra, because the SCU is free to pick any variant at run
//! time (§8.2).

use proptest::prelude::*;
use sisa_sets::{ops, DenseBitVector, RepresentationKind, SetRepr, SortedVertexArray, Vertex};
use std::collections::BTreeSet;

const UNIVERSE: usize = 512;

fn vertex_set() -> impl Strategy<Value = BTreeSet<Vertex>> {
    proptest::collection::btree_set(0u32..UNIVERSE as u32, 0..128)
}

/// The same abstract set in each of the two physical representations.
fn all_reprs(members: &BTreeSet<Vertex>) -> [SetRepr; 2] {
    [
        SetRepr::sorted_from(members.iter().copied()),
        SetRepr::dense_from(UNIVERSE, members.iter().copied()),
    ]
}

fn is_dense(set: &SetRepr) -> bool {
    set.kind() == RepresentationKind::DenseBitvector
}

/// Asserts that a sparse result is a *sorted* array with strictly ascending
/// members (the invariant every downstream merge-based instruction relies on).
fn assert_sorted_sparse(result: &SetRepr) {
    let SetRepr::Sorted(members) = result else {
        panic!("expected a sorted sparse array, got {result:?}");
    };
    assert!(
        members.as_slice().windows(2).all(|w| w[0] < w[1]),
        "sparse result must be strictly sorted: {:?}",
        members.as_slice()
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

proptest! {
    #[test]
    fn merge_and_galloping_intersection_match_model(a in vertex_set(), b in vertex_set()) {
        let av: Vec<Vertex> = a.iter().copied().collect();
        let bv: Vec<Vertex> = b.iter().copied().collect();
        let expected = model_intersect(&a, &b);
        prop_assert_eq!(ops::intersect_merge_slices(&av, &bv), expected.clone());
        prop_assert_eq!(ops::intersect_galloping_slices(&av, &bv), expected.clone());
        prop_assert_eq!(ops::intersect_merge_count(&av, &bv), expected.len());
        prop_assert_eq!(ops::intersect_galloping_count(&av, &bv), expected.len());
    }

    #[test]
    fn union_and_difference_match_model(a in vertex_set(), b in vertex_set()) {
        let av: Vec<Vertex> = a.iter().copied().collect();
        let bv: Vec<Vertex> = b.iter().copied().collect();
        prop_assert_eq!(ops::union_merge_slices(&av, &bv), model_union(&a, &b));
        prop_assert_eq!(ops::difference_merge_slices(&av, &bv), model_difference(&a, &b));
        prop_assert_eq!(ops::difference_galloping_slices(&av, &bv), model_difference(&a, &b));
    }

    #[test]
    fn dense_bitvector_ops_match_model(a in vertex_set(), b in vertex_set()) {
        let da = DenseBitVector::from_members(UNIVERSE, a.iter().copied());
        let db = DenseBitVector::from_members(UNIVERSE, b.iter().copied());
        prop_assert_eq!(da.and(&db).to_sorted_vec(), model_intersect(&a, &b));
        prop_assert_eq!(da.or(&db).to_sorted_vec(), model_union(&a, &b));
        prop_assert_eq!(da.and_not(&db).to_sorted_vec(), model_difference(&a, &b));
        prop_assert_eq!(da.and_count(&db), model_intersect(&a, &b).len());
        prop_assert_eq!(da.len(), a.len());
    }

    #[test]
    fn mixed_representation_algebra_matches_model(a in vertex_set(), b in vertex_set()) {
        let sparse_a = SetRepr::sorted_from(a.iter().copied());
        let dense_b = SetRepr::dense_from(UNIVERSE, b.iter().copied());
        prop_assert_eq!(sparse_a.intersect(&dense_b).to_sorted_vec(), model_intersect(&a, &b));
        prop_assert_eq!(sparse_a.union(&dense_b).to_sorted_vec(), model_union(&a, &b));
        prop_assert_eq!(sparse_a.difference(&dense_b).to_sorted_vec(), model_difference(&a, &b));
        prop_assert_eq!(dense_b.difference(&sparse_a).to_sorted_vec(), model_difference(&b, &a));
    }

    #[test]
    fn intersection_is_commutative_and_bounded(a in vertex_set(), b in vertex_set()) {
        let sa = SetRepr::sorted_from(a.iter().copied());
        let sb = SetRepr::sorted_from(b.iter().copied());
        let ab = sa.intersect(&sb);
        let ba = sb.intersect(&sa);
        prop_assert_eq!(ab.to_sorted_vec(), ba.to_sorted_vec());
        prop_assert!(ab.len() <= sa.len().min(sb.len()));
        prop_assert_eq!(sa.union(&sb).len(), sa.len() + sb.len() - ab.len());
    }

    #[test]
    fn difference_and_intersection_partition_the_set(a in vertex_set(), b in vertex_set()) {
        // |A| = |A ∩ B| + |A \ B| — the identity SISA uses to avoid
        // materialising intermediate sets for cardinality instructions.
        let sa = SetRepr::sorted_from(a.iter().copied());
        let sb = SetRepr::sorted_from(b.iter().copied());
        prop_assert_eq!(sa.len(), sa.intersect_count(&sb) + sa.difference_count(&sb));
    }

    #[test]
    fn insert_then_remove_is_identity(a in vertex_set(), v in 0u32..UNIVERSE as u32) {
        let mut sorted = SortedVertexArray::from_unsorted(a.iter().copied().collect());
        let mut dense = DenseBitVector::from_members(UNIVERSE, a.iter().copied());
        let originally_present = a.contains(&v);
        let inserted_sorted = sorted.insert(v);
        let inserted_dense = dense.insert(v);
        prop_assert_eq!(inserted_sorted, !originally_present);
        prop_assert_eq!(inserted_dense, !originally_present);
        if !originally_present {
            prop_assert!(sorted.remove(v));
            prop_assert!(dense.remove(v));
        }
        let expected: Vec<Vertex> = a.iter().copied().collect();
        prop_assert_eq!(sorted.as_slice(), expected.as_slice());
        prop_assert_eq!(dense.to_sorted_vec(), expected);
    }

    #[test]
    fn intersect_representation_policy(a in vertex_set(), b in vertex_set()) {
        // §6.1 result-representation policy: DB ∩ DB stays dense; any
        // combination involving a sparse operand yields a sorted array.
        let expected = model_intersect(&a, &b);
        for ra in all_reprs(&a) {
            for rb in all_reprs(&b) {
                let result = ra.intersect(&rb);
                if is_dense(&ra) && is_dense(&rb) {
                    prop_assert_eq!(result.kind(), RepresentationKind::DenseBitvector);
                } else {
                    assert_sorted_sparse(&result);
                }
                prop_assert_eq!(result.to_sorted_vec(), expected.clone());
            }
        }
    }

    #[test]
    fn union_representation_policy(a in vertex_set(), b in vertex_set()) {
        // Unions can only grow, so any dense operand makes the result dense;
        // sparse ∪ sparse stays a sorted array.
        let expected = model_union(&a, &b);
        for ra in all_reprs(&a) {
            for rb in all_reprs(&b) {
                let result = ra.union(&rb);
                if is_dense(&ra) || is_dense(&rb) {
                    prop_assert_eq!(result.kind(), RepresentationKind::DenseBitvector);
                } else {
                    assert_sorted_sparse(&result);
                }
                prop_assert_eq!(result.to_sorted_vec(), expected.clone());
            }
        }
    }

    #[test]
    fn difference_representation_policy(a in vertex_set(), b in vertex_set()) {
        // A \ B keeps A's representation (the result is a subset of A).
        let expected = model_difference(&a, &b);
        for ra in all_reprs(&a) {
            for rb in all_reprs(&b) {
                let result = ra.difference(&rb);
                if is_dense(&ra) {
                    prop_assert_eq!(result.kind(), RepresentationKind::DenseBitvector);
                } else {
                    assert_sorted_sparse(&result);
                }
                prop_assert_eq!(result.to_sorted_vec(), expected.clone());
            }
        }
    }

    #[test]
    fn counting_variants_agree_with_materialized_results(a in vertex_set(), b in vertex_set()) {
        // The cardinality-only instructions (§6.2) must agree with the
        // materialising ones for every representation pairing — the SCU is
        // free to pick either form at run time.
        for ra in all_reprs(&a) {
            for rb in all_reprs(&b) {
                prop_assert_eq!(ra.intersect_count(&rb), ra.intersect(&rb).len());
                prop_assert_eq!(ra.union_count(&rb), ra.union(&rb).len());
                prop_assert_eq!(ra.difference_count(&rb), ra.difference(&rb).len());
            }
        }
    }

    #[test]
    fn de_morgan_for_dense_sets(a in vertex_set(), b in vertex_set()) {
        // (A ∪ B)' == A' ∩ B' within the fixed universe, each complement
        // taken as SISA-PUM takes one: the full set AND-NOT the operand.
        let full = DenseBitVector::full(UNIVERSE);
        let not = |x: &DenseBitVector| full.and_not(x);
        let da = DenseBitVector::from_members(UNIVERSE, a.iter().copied());
        let db = DenseBitVector::from_members(UNIVERSE, b.iter().copied());
        let lhs = not(&da.or(&db));
        let rhs = not(&da).and(&not(&db));
        prop_assert_eq!(lhs.len(), rhs.len());
        prop_assert_eq!(lhs.to_sorted_vec(), rhs.to_sorted_vec());
    }
}
