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
//!    sum of the per-shard statistics plus the cross-shard link ledger, whole
//!    record for whole record: no cost is lost or double-counted, and no
//!    read returns a stale fold.
//!
//! One-line mutations of `sharded.rs` each test was seen to fail under:
//!
//! - no `settle` (so the cached fold survives) in `host_ops`, or in `delete`:
//!   both properties here;
//! - `reset_stats` not retaking the marks: both properties here (and the
//!   unit test `reset_stats_clears_shards_and_traffic`);
//! - the ledger's link cycles added twice in the fold:
//!   `sharded_engines_are_transparent_and_conserve_stats` (and four
//!   conservation unit tests in `sharded.rs`).

mod common;

use common::{binary, Batched, Step, A, B};
use proptest::prelude::*;
use sisa_core::scu::BinarySetOp::{Difference, Intersection, Union};
use sisa_core::Dest::{Count, InPlace, New};
use sisa_core::{ExecStats, PartitionStrategy, SetEngine, ShardedEngine, SisaConfig, SisaRuntime};
use sisa_sets::Vertex;
use std::collections::BTreeSet;

const UNIVERSE: usize = 192;

fn vertex_set() -> impl Strategy<Value = BTreeSet<Vertex>> {
    common::vertex_set(UNIVERSE, 48)
}

/// The step kinds this suite draws. `CreateAndKeep` grows the live-set
/// population so that placement decisions keep happening mid-run; `Batch` is
/// `execute` on a sharded engine and `SetOp::from(op)` + `apply`, operation
/// by operation, on the flat one.
const KINDS: &[Step] = &[
    binary(Intersection, A, B, New),
    binary(Union, A, B, New),
    binary(Difference, B, A, New),
    binary(Intersection, A, B, Count),
    binary(Union, A, B, Count),
    binary(Difference, A, B, Count),
    binary(Union, A, B, InPlace),
    binary(Difference, A, B, InPlace),
    Step::Insert(0),
    Step::Remove(0),
    Step::Contains(0),
    Step::Cardinality,
    Step::Members,
    Step::CloneAndDelete,
    Step::CreateAndKeep(0),
    Step::HostOps(0),
    Step::Batch,
    Step::ResetStats,
];

fn step() -> impl Strategy<Value = Step> {
    common::step(UNIVERSE, KINDS)
}

/// Runs the workload, collecting every observable result.
fn run_steps<E: Batched>(
    engine: &mut E,
    a_members: &BTreeSet<Vertex>,
    b_members: &BTreeSet<Vertex>,
    steps: &[Step],
) -> Vec<Vec<Vertex>> {
    common::run_steps(engine, UNIVERSE, a_members, b_members, steps)
}

/// [`run_steps`] on a sharded engine, asserting freshness after every engine
/// call it makes: the aggregate is never behind its parts.
fn run_steps_conserving(
    engine: &mut ShardedEngine<SisaRuntime>,
    a_members: &BTreeSet<Vertex>,
    b_members: &BTreeSet<Vertex>,
    steps: &[Step],
) -> Vec<Vec<Vertex>> {
    common::run_steps_checked(engine, UNIVERSE, a_members, b_members, steps, |engine| {
        assert_eq!(recompute_aggregate(engine), *engine.stats());
    })
}

/// Recomputes the aggregate from per-shard statistics plus the link ledger
/// (every engine here starts fresh, so its marks are zero).
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
    /// (1) + (3): every strategy and shard count is a transparent,
    /// cost-conserving wrapper.
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
                let observed = run_steps_conserving(&mut engine, &a, &b, &steps);
                prop_assert_eq!(&reference, &observed, "{:?} x{}", strategy, shards);
                prop_assert_eq!(engine.live_sets(), flat.live_sets());

                // Conservation (aggregate == Σ shards + link ledger, so the
                // sharded plumbing neither loses nor double-counts cost) was
                // asserted by `run_steps_conserving` after every call.
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
            let from_sharded = run_steps_conserving(&mut one, &a, &b, &steps);
            prop_assert_eq!(&from_flat, &from_sharded, "{:?}", strategy);
            prop_assert_eq!(one.stats(), flat.stats(), "{:?}", strategy);
            prop_assert_eq!(one.stats().link_cycles, 0);
        }
    }
}
