//! Regression tests for the public [`StatsScope`] attribution API: nested
//! scopes must recompose **exactly** — every `u64` counter and, for the
//! balanced partitions a query service produces, the `f64` energy total
//! bit-for-bit — to the engine's aggregate record.

use sisa_core::{
    BatchOp, ExecStats, PartitionStrategy, SetEngine, ShardedEngine, SisaConfig, SisaRuntime,
    StatsScope,
};

/// A deterministic slab of engine work, sized by `rounds`. Two calls with the
/// same `rounds` cost a comparable amount, which keeps sibling scopes within
/// the Sterbenz window where energy recomposition is exact.
fn workload<E: SetEngine>(rt: &mut E, rounds: u32, salt: u32) -> u64 {
    let mut acc = 0u64;
    for r in 0..rounds {
        let base = (r * 7 + salt) % 53;
        let a = rt.create_sorted([base, base + 2, base + 5, base + 9, base + 14]);
        let b = rt.create_sorted([base + 2, base + 3, base + 9, base + 21]);
        acc += rt.intersect_count(a, b) as u64;
        let c = rt.union(a, b);
        acc += rt.cardinality(c) as u64;
        acc += u64::from(rt.contains(c, base + 3));
        rt.host_ops(3);
        rt.delete(a);
        rt.delete(b);
        rt.delete(c);
    }
    acc
}

fn assert_bit_exact(sum: &ExecStats, aggregate: &ExecStats) {
    assert_eq!(
        sum.energy_nj.to_bits(),
        aggregate.energy_nj.to_bits(),
        "scope energy must recompose bit-exactly: {} vs {}",
        sum.energy_nj,
        aggregate.energy_nj
    );
    assert_eq!(sum, aggregate, "scope deltas must recompose exactly");
}

#[test]
fn nested_scopes_sum_exactly_to_flat_engine_aggregate() {
    let mut rt = SisaRuntime::new(SisaConfig::default());

    let outer = StatsScope::begin(rt.stats());
    let inner_a = StatsScope::begin(rt.stats());
    workload(&mut rt, 40, 1);
    let delta_a = inner_a.finish(rt.stats());
    let inner_b = StatsScope::begin(rt.stats());
    workload(&mut rt, 40, 2);
    let delta_b = inner_b.finish(rt.stats());
    let delta_outer = outer.finish(rt.stats());

    assert!(delta_a.total_cycles() > 0 && delta_b.total_cycles() > 0);
    let mut sum = delta_a;
    sum.merge(&delta_b);
    assert_bit_exact(&sum, &delta_outer);

    // The outermost scope covered the engine's whole life, so it must also
    // equal the aggregate record itself.
    assert_bit_exact(&delta_outer, rt.stats());
}

#[test]
fn split_carves_consecutive_exactly_telescoping_slices() {
    let mut rt = SisaRuntime::new(SisaConfig::default());
    let mut scope = StatsScope::begin(rt.stats());
    let mut sum = ExecStats::default();
    for salt in 0..4 {
        workload(&mut rt, 25, salt);
        sum.merge(&scope.split(rt.stats()));
    }
    assert_bit_exact(&sum, rt.stats());
}

#[test]
fn scopes_attribute_sharded_batch_execution_exactly() {
    let mut engine = ShardedEngine::sisa(4, PartitionStrategy::Modulo, SisaConfig::default());

    let outer = StatsScope::begin(engine.stats());

    let inner_a = StatsScope::begin(engine.stats());
    let a = engine.create_sorted([1, 5, 9, 13, 40, 77]);
    let b = engine.create_sorted([5, 9, 40, 81, 90]);
    let batch: Vec<BatchOp> = (0..32).map(|_| BatchOp::IntersectCount(a, b)).collect();
    let results = engine.execute(&batch);
    assert!(results.iter().all(|r| r.count() == 3));
    let delta_a = inner_a.finish(engine.stats());

    let inner_b = StatsScope::begin(engine.stats());
    let results = engine.execute(&batch);
    assert_eq!(results.len(), 32);
    let delta_b = inner_b.finish(engine.stats());

    let delta_outer = outer.finish(engine.stats());

    let mut sum = delta_a;
    sum.merge(&delta_b);
    assert_bit_exact(&sum, &delta_outer);
    assert_bit_exact(&delta_outer, engine.stats());
}

#[test]
fn u64_counters_telescope_under_unbalanced_partitions() {
    // Energy recomposition is only guaranteed bit-exact for balanced
    // siblings; the integer counters must telescope for *any* partition.
    let mut rt = SisaRuntime::new(SisaConfig::default());
    let mut scope = StatsScope::begin(rt.stats());
    let mut sum = ExecStats::default();
    for (rounds, salt) in [(1u32, 0u32), (90, 1), (3, 2), (55, 3)] {
        workload(&mut rt, rounds, salt);
        sum.merge(&scope.split(rt.stats()));
    }
    let agg = rt.stats();
    assert_eq!(sum.total_cycles(), agg.total_cycles());
    assert_eq!(sum.total_instructions(), agg.total_instructions());
    assert_eq!(sum.scu_cycles, agg.scu_cycles);
    assert_eq!(sum.pum_cycles, agg.pum_cycles);
    assert_eq!(sum.pnm_cycles, agg.pnm_cycles);
    assert_eq!(sum.host_cycles, agg.host_cycles);
    assert_eq!(sum.pum_ops, agg.pum_ops);
    assert_eq!(sum.pnm_ops, agg.pnm_ops);
    assert_eq!(sum.smb_hits, agg.smb_hits);
    assert_eq!(sum.smb_misses, agg.smb_misses);
    assert_eq!(sum.instructions, agg.instructions);
    let rel = (sum.energy_nj - agg.energy_nj).abs() / agg.energy_nj.max(1.0);
    assert!(
        rel < 1e-12,
        "energy drift {rel} exceeds 1 ulp-ish tolerance"
    );
}
