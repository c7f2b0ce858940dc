//! Property-based tests for the sharded multi-cube engine:
//!
//! 1. **Transparency** — a [`ShardedEngine`]`<SisaRuntime>` returns identical
//!    set contents, counts and query results to a flat [`SisaRuntime`] for
//!    every partition strategy and shard count, over arbitrary operation
//!    sequences.
//! 2. **1-shard equivalence** — with a single shard the wrapper reproduces the
//!    flat runtime's [`ExecStats`] cycle-for-cycle.
//! 3. **Conservation and freshness** — after *every* public call, across
//!    `execute` batches and `reset_stats`, the aggregate statistics equal the
//!    sum of the per-shard statistics plus the cross-shard link ledger: no
//!    cost is lost or double-counted, and none is left unsettled.

use proptest::prelude::*;
use sisa_core::{
    BatchOp, BatchResult, ExecStats, PartitionStrategy, SetEngine, ShardedEngine, SisaConfig,
    SisaRuntime,
};
use sisa_isa::SetId;
use sisa_sets::Vertex;
use std::collections::BTreeSet;

const UNIVERSE: usize = 192;

fn vertex_set() -> impl Strategy<Value = BTreeSet<Vertex>> {
    proptest::collection::btree_set(0u32..UNIVERSE as u32, 0..48)
}

/// One step of a random engine workload (single-draw decoding; the vendored
/// proptest shim has no `prop_oneof`).
#[derive(Clone, Debug)]
enum Step {
    Intersect,
    Union,
    Difference,
    IntersectCount,
    UnionCount,
    DifferenceCount,
    UnionAssign,
    DifferenceAssign,
    Insert(Vertex),
    Remove(Vertex),
    Contains(Vertex),
    Cardinality,
    Members,
    CloneAndDelete,
    CreateAndKeep(Vertex),
    HostOps(u64),
    /// A small batch: `execute` on a sharded engine, op by op on a flat one.
    Batch,
    ResetStats,
}

fn step() -> impl Strategy<Value = Step> {
    (0u64..1_000_000).prop_map(|raw| {
        let v = ((raw / 16) % UNIVERSE as u64) as Vertex;
        match raw % 18 {
            0 => Step::Intersect,
            1 => Step::Union,
            2 => Step::Difference,
            3 => Step::IntersectCount,
            4 => Step::UnionCount,
            5 => Step::DifferenceCount,
            6 => Step::UnionAssign,
            7 => Step::DifferenceAssign,
            8 => Step::Insert(v),
            9 => Step::Remove(v),
            10 => Step::Contains(v),
            11 => Step::Cardinality,
            12 => Step::Members,
            13 => Step::CloneAndDelete,
            14 => Step::CreateAndKeep(v),
            15 => Step::HostOps(raw % 23 + 1),
            16 => Step::Batch,
            _ => Step::ResetStats,
        }
    })
}

/// What differs between the engines `run_steps` drives.
trait Driven: SetEngine {
    /// Runs one [`Step::Batch`].
    fn batch(&mut self, ops: &[BatchOp]) -> Vec<BatchResult>;
    /// Called after every public call `run_steps` makes.
    fn check(&self) {}
}

impl Driven for SisaRuntime {
    fn batch(&mut self, ops: &[BatchOp]) -> Vec<BatchResult> {
        ops.iter()
            .map(|&op| match op {
                BatchOp::Intersect(a, b) => BatchResult::Set(self.intersect(a, b)),
                BatchOp::Union(a, b) => BatchResult::Set(self.union(a, b)),
                BatchOp::Difference(a, b) => BatchResult::Set(self.difference(a, b)),
                BatchOp::IntersectCount(a, b) => BatchResult::Count(self.intersect_count(a, b)),
                BatchOp::UnionCount(a, b) => BatchResult::Count(self.union_count(a, b)),
                BatchOp::DifferenceCount(a, b) => BatchResult::Count(self.difference_count(a, b)),
            })
            .collect()
    }
}

impl Driven for ShardedEngine<SisaRuntime> {
    fn batch(&mut self, ops: &[BatchOp]) -> Vec<BatchResult> {
        self.execute(ops)
    }

    /// Freshness: the aggregate is never behind its parts.
    fn check(&self) {
        assert_eq!(recompute_aggregate(self), *self.stats());
    }
}

/// The batch of one [`Step::Batch`]: every form once, the seeds either way
/// round (they sit on different shards under `Modulo`, so replicas are staged).
fn batch_ops(a: SetId, b: SetId) -> [BatchOp; 6] {
    [
        BatchOp::Intersect(a, b),
        BatchOp::UnionCount(b, a),
        BatchOp::Difference(b, a),
        BatchOp::IntersectCount(b, a),
        BatchOp::Union(a, b),
        BatchOp::DifferenceCount(a, b),
    ]
}

/// Runs the workload over one sorted and one dense seed set, collecting every
/// observable result and calling [`Driven::check`] after every engine call.
/// `CreateAndKeep` grows the live-set population so that placement decisions
/// keep happening mid-run.
fn run_steps<E: Driven>(
    engine: &mut E,
    a_members: &BTreeSet<Vertex>,
    b_members: &BTreeSet<Vertex>,
    steps: &[Step],
) -> Vec<Vec<Vertex>> {
    engine.set_universe(UNIVERSE);
    engine.check();
    let a = engine.create_sorted(a_members.iter().copied());
    engine.check();
    let b = engine.create_dense(b_members.iter().copied());
    engine.check();
    let mut observed = Vec::new();
    let scalar = |x: usize| vec![x as Vertex];
    // A materialised result is read, checked and dropped, checking again.
    let consume = |engine: &mut E, observed: &mut Vec<Vec<Vertex>>, c: SetId| {
        engine.check();
        observed.push(engine.members(c));
        engine.check();
        engine.delete(c);
    };
    for s in steps {
        match s {
            Step::Intersect => {
                let c = engine.intersect(a, b);
                consume(engine, &mut observed, c);
            }
            Step::Union => {
                let c = engine.union(a, b);
                consume(engine, &mut observed, c);
            }
            Step::Difference => {
                let c = engine.difference(b, a);
                consume(engine, &mut observed, c);
            }
            Step::IntersectCount => observed.push(scalar(engine.intersect_count(a, b))),
            Step::UnionCount => observed.push(scalar(engine.union_count(a, b))),
            Step::DifferenceCount => observed.push(scalar(engine.difference_count(a, b))),
            Step::UnionAssign => {
                engine.union_assign(a, b);
                engine.check();
                observed.push(engine.members(a));
            }
            Step::DifferenceAssign => {
                engine.difference_assign(a, b);
                engine.check();
                observed.push(engine.members(a));
            }
            Step::Insert(v) => observed.push(scalar(usize::from(engine.insert(a, *v)))),
            Step::Remove(v) => observed.push(scalar(usize::from(engine.remove(b, *v)))),
            Step::Contains(v) => observed.push(scalar(usize::from(engine.contains(a, *v)))),
            Step::Cardinality => {
                observed.push(scalar(engine.cardinality(a)));
                engine.check();
                observed.push(scalar(engine.cardinality(b)));
            }
            Step::Members => {
                observed.push(engine.members(a));
                engine.check();
                observed.push(engine.members(b));
            }
            Step::CloneAndDelete => {
                let c = engine.clone_set(b);
                consume(engine, &mut observed, c);
            }
            Step::CreateAndKeep(v) => {
                let c = engine.create_sorted([*v, v.wrapping_add(1) % UNIVERSE as u32]);
                engine.check();
                observed.push(engine.members(c));
            }
            Step::HostOps(n) => engine.host_ops(*n),
            Step::Batch => {
                for result in engine.batch(&batch_ops(a, b)) {
                    match result {
                        BatchResult::Set(c) => consume(engine, &mut observed, c),
                        BatchResult::Count(n) => observed.push(scalar(n)),
                    }
                }
            }
            Step::ResetStats => engine.reset_stats(),
        }
        engine.check();
    }
    observed
}

/// Recomputes the aggregate from per-shard statistics plus the link ledger.
fn recompute_aggregate(engine: &ShardedEngine<SisaRuntime>) -> ExecStats {
    let mut total = ExecStats::default();
    for shard in 0..engine.shard_count() {
        total.merge(engine.shard_stats(shard));
    }
    let traffic = engine.traffic();
    total.link_cycles += traffic.cycles;
    total.link_bytes += traffic.bytes;
    total.energy_nj += traffic.energy_nj;
    total
}

proptest! {
    /// (1) + (3): every strategy and shard count is a transparent, cost-
    /// conserving wrapper.
    #[test]
    fn sharded_engines_are_transparent_and_conserve_stats(
        a in vertex_set(),
        b in vertex_set(),
        steps in proptest::collection::vec(step(), 1..32),
    ) {
        let mut flat = SisaRuntime::new(SisaConfig::default());
        let reference = run_steps(&mut flat, &a, &b, &steps);
        for strategy in PartitionStrategy::ALL {
            for shards in [1usize, 2, 4] {
                let mut engine =
                    ShardedEngine::sisa(shards, strategy, SisaConfig::default());
                let observed = run_steps(&mut engine, &a, &b, &steps);
                prop_assert_eq!(&reference, &observed, "{:?} x{}", strategy, shards);
                prop_assert_eq!(engine.live_sets(), flat.live_sets());

                // Conservation (aggregate == Σ shards + link ledger, so the
                // sharded plumbing neither loses nor double-counts cost) was
                // asserted by `run_steps` after every call.
                if shards == 1 {
                    prop_assert_eq!(engine.traffic().cross_ops, 0);
                }
            }
        }
    }

    /// (2): with one shard the wrapper is invisible, cycle for cycle.
    #[test]
    fn one_shard_reproduces_the_flat_runtime_exactly(
        a in vertex_set(),
        b in vertex_set(),
        steps in proptest::collection::vec(step(), 1..32),
    ) {
        let mut flat = SisaRuntime::new(SisaConfig::default());
        let from_flat = run_steps(&mut flat, &a, &b, &steps);
        for strategy in PartitionStrategy::ALL {
            let mut one = ShardedEngine::sisa(1, strategy, SisaConfig::default());
            let from_sharded = run_steps(&mut one, &a, &b, &steps);
            prop_assert_eq!(&from_flat, &from_sharded, "{:?}", strategy);
            prop_assert_eq!(one.stats(), flat.stats(), "{:?}", strategy);
            prop_assert_eq!(one.stats().link_cycles, 0);
        }
    }
}
