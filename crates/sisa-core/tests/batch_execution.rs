//! Tests for the batch executor, `ShardedEngine::execute`:
//!
//! 1. for arbitrary set populations and batches it produces the same *values*
//!    as issuing the operations one at a time through the [`SetEngine`]
//!    trait, and leaves the same sets live;
//! 2. it and `host_count_batch` ask nothing of the inner engine beyond
//!    [`SetEngine`] — they run on one that is not `Send`.

mod common;

use common::{Calls, Counting};
use proptest::prelude::*;
use sisa_core::{
    BatchOp, Outcome, PartitionStrategy, SetEngine, ShardedEngine, SisaConfig, SisaRuntime,
};
use sisa_sets::Vertex;
use std::collections::BTreeSet;

const UNIVERSE: usize = 192;
const POOL: usize = 6;

fn vertex_set() -> impl Strategy<Value = BTreeSet<Vertex>> {
    proptest::collection::btree_set(0u32..UNIVERSE as u32, 0..48)
}

/// A batch operation encoded as one draw (the vendored proptest shim has no
/// `prop_oneof` or tuple strategies): the low bits pick the form, the rest
/// pick the operands.
fn batch_op() -> impl Strategy<Value = (u64, usize, usize)> {
    (0u64..1_000_000).prop_map(|raw| {
        (
            raw % 6,
            (raw / 6) as usize % POOL,
            (raw / 6 / POOL as u64) as usize % POOL,
        )
    })
}

fn decode(ops: &[(u64, usize, usize)], ids: &[sisa_core::SetId]) -> Vec<BatchOp> {
    ops.iter()
        .map(|&(kind, a, b)| {
            let (a, b) = (ids[a], ids[b]);
            match kind {
                0 => BatchOp::Intersect(a, b),
                1 => BatchOp::Union(a, b),
                2 => BatchOp::Difference(a, b),
                3 => BatchOp::IntersectCount(a, b),
                4 => BatchOp::UnionCount(a, b),
                _ => BatchOp::DifferenceCount(a, b),
            }
        })
        .collect()
}

/// Builds a sharded engine holding the pool sets (alternating sorted/dense
/// representations so both sparse and bitmap paths are exercised).
fn build(
    shards: usize,
    pool: &[BTreeSet<Vertex>],
) -> (ShardedEngine<SisaRuntime>, Vec<sisa_core::SetId>) {
    let mut engine = ShardedEngine::sisa(shards, PartitionStrategy::Modulo, SisaConfig::default());
    engine.set_universe(UNIVERSE);
    let ids = pool
        .iter()
        .enumerate()
        .map(|(i, members)| {
            if i % 2 == 0 {
                engine.create_sorted(members.iter().copied())
            } else {
                engine.create_dense(members.iter().copied())
            }
        })
        .collect();
    (engine, ids)
}

/// Reads every batch result back as comparable values.
fn observe(engine: &mut ShardedEngine<SisaRuntime>, results: &[Outcome]) -> Vec<Vec<Vertex>> {
    results
        .iter()
        .map(|r| match *r {
            Outcome::Set(id) => engine.members(id),
            Outcome::Count(n) => vec![n as Vertex],
        })
        .collect()
}

proptest! {
    /// (1): a batch agrees value-for-value with the one-at-a-time trait path.
    #[test]
    fn batches_agree_with_the_per_op_path(
        pool in proptest::collection::vec(vertex_set(), POOL..POOL + 1),
        ops in proptest::collection::vec(batch_op(), 1..16),
    ) {
        let (mut batched, ids) = build(3, &pool);
        let batch = decode(&ops, &ids);
        let results = batched.execute(&batch);
        let batched_observed = observe(&mut batched, &results);

        let (mut reference, ids) = build(3, &pool);
        let mut expected = Vec::new();
        for op in decode(&ops, &ids) {
            expected.push(match op {
                BatchOp::Intersect(a, b) => {
                    let id = reference.intersect(a, b);
                    reference.members(id)
                }
                BatchOp::Union(a, b) => {
                    let id = reference.union(a, b);
                    reference.members(id)
                }
                BatchOp::Difference(a, b) => {
                    let id = reference.difference(a, b);
                    reference.members(id)
                }
                BatchOp::IntersectCount(a, b) => {
                    vec![reference.intersect_count(a, b) as Vertex]
                }
                BatchOp::UnionCount(a, b) => vec![reference.union_count(a, b) as Vertex],
                BatchOp::DifferenceCount(a, b) => {
                    vec![reference.difference_count(a, b) as Vertex]
                }
            });
        }
        prop_assert_eq!(batched_observed, expected);
        prop_assert_eq!(batched.live_sets(), reference.live_sets());
    }
}

/// (2) Compile-level: [`Counting`] holds an `Rc`, so this builds only while
/// both batch paths are declared for `E: SetEngine` alone.
#[test]
fn batches_run_on_an_engine_that_is_not_send() {
    let calls = Calls::default();
    let shards = (0..2)
        .map(|_| Counting {
            inner: SisaRuntime::with_defaults(),
            calls: calls.clone(),
        })
        .collect();
    let link = sisa_pim::LinkModel::new(SisaConfig::default().platform.pnm);
    let mut engine = ShardedEngine::from_shards(shards, PartitionStrategy::Modulo, link);
    engine.set_universe(UNIVERSE);
    let a = engine.create_sorted([1, 2, 3]);
    let b = engine.create_dense([2, 3, 4]);
    assert_ne!(engine.shard_of(a), engine.shard_of(b), "cross-shard");
    let ops = [BatchOp::IntersectCount(a, b), BatchOp::Union(a, b)];
    assert_eq!(engine.host_count_batch(&ops[..1]), [2]);
    let results = engine.execute(&ops);
    assert_eq!(results[0].count(), 2);
    assert_eq!(engine.members(results[1].set()), [1, 2, 3, 4]);
}
