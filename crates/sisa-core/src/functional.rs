//! A plain software [`SetEngine`] with no cost model.
//!
//! [`FunctionalEngine`] executes every set operation directly on
//! [`SetRepr`] storage and charges nothing: its [`ExecStats`] stay zero and
//! task records are empty. It is the one set store: the slot table, LIFO ID
//! reuse, the universe, the dangling-ID fault and the [`SetOp`] semantics.
//! The priced engines ([`crate::SisaRuntime`], [`crate::HostEngine`]) keep
//! their sets in one and add only what they charge. On its own it serves
//! *correctness*, not measurement — as the oracle in differential property
//! tests (any priced backend must compute the same sets the functional
//! engine does) and as the fastest backend for fuzzing set-centric
//! algorithms, since it skips the SCU, the cache models and all instruction
//! materialisation.

use crate::engine::{Dest, Outcome, SetEngine, SetOp};
use crate::parallel::TaskRecord;
use crate::stats::ExecStats;
use crate::Vertex;
use sisa_isa::SetId;
use sisa_sets::SetRepr;

/// A cost-free software backend: real set algebra, zero simulated cycles.
#[derive(Clone, Debug, Default)]
pub struct FunctionalEngine {
    sets: Vec<Option<SetRepr>>,
    free_ids: Vec<u32>,
    universe: usize,
    stats: ExecStats,
}

impl FunctionalEngine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, id: SetId) -> &SetRepr {
        self.sets
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("set {id} does not exist"))
    }

    fn slot_mut(&mut self, id: SetId) -> &mut SetRepr {
        self.sets
            .get_mut(id.0 as usize)
            .and_then(Option::as_mut)
            .unwrap_or_else(|| panic!("set {id} does not exist"))
    }

    fn store(&mut self, repr: SetRepr) -> SetId {
        let id = crate::slots::allocate(&mut self.sets, &mut self.free_ids);
        self.sets[id.0 as usize] = Some(repr);
        id
    }
}

impl SetEngine for FunctionalEngine {
    fn backend_name(&self) -> &'static str {
        "functional"
    }

    fn set_universe(&mut self, n: usize) {
        self.universe = self.universe.max(n);
    }

    fn universe(&self) -> usize {
        self.universe
    }

    fn stats(&self) -> &ExecStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = ExecStats::default();
    }

    fn live_sets(&self) -> usize {
        self.sets.iter().filter(|s| s.is_some()).count()
    }

    fn create(&mut self, repr: SetRepr) -> SetId {
        self.store(repr)
    }

    fn clone_set(&mut self, id: SetId) -> SetId {
        let repr = self.slot(id).clone();
        self.store(repr)
    }

    fn delete(&mut self, id: SetId) {
        let _ = self.slot(id);
        crate::slots::release(&mut self.sets, &mut self.free_ids, id);
    }

    fn cardinality(&mut self, id: SetId) -> usize {
        self.slot(id).len()
    }

    fn contains(&mut self, id: SetId, v: Vertex) -> bool {
        self.slot(id).contains(v)
    }

    fn members(&mut self, id: SetId) -> Vec<Vertex> {
        self.slot(id).to_sorted_vec()
    }

    fn repr(&self, id: SetId) -> &SetRepr {
        self.slot(id)
    }

    fn insert(&mut self, id: SetId, v: Vertex) -> bool {
        self.slot_mut(id).insert(v)
    }

    fn remove(&mut self, id: SetId, v: Vertex) -> bool {
        self.slot_mut(id).remove(v)
    }

    crate::engine::named_binary_ops!();

    fn apply(&mut self, op: SetOp) -> Outcome {
        let (ra, rb) = (self.slot(op.a), self.slot(op.b));
        match op.dest {
            Dest::Count => Outcome::Count(op.op.count(ra, rb)),
            Dest::New => {
                let result = op.op.combine(ra, rb);
                Outcome::Set(self.store(result))
            }
            Dest::InPlace => {
                *self.slot_mut(op.a) = op.op.combine(ra, rb);
                Outcome::Set(op.a)
            }
        }
    }

    fn host_ops(&mut self, _n: u64) {}

    fn task_begin(&mut self) {}

    fn task_end(&mut self) -> TaskRecord {
        TaskRecord::default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_algebra_is_correct_and_free() {
        let mut e = FunctionalEngine::new();
        e.set_universe(64);
        let a = e.create_sorted([1, 2, 3, 10]);
        let b = e.create_dense([2, 10, 30]);
        let i = e.intersect(a, b);
        assert_eq!(e.members(i), vec![2, 10]);
        assert_eq!(e.union_count(a, b), 5);
        assert_eq!(e.difference_count(a, b), 2);
        e.union_assign(a, b);
        assert_eq!(e.cardinality(a), 5);
        assert!(e.contains(a, 30));
        e.host_ops(1_000_000);
        let record = e.task_end();
        assert_eq!(record, TaskRecord::default());
        assert_eq!(*e.stats(), ExecStats::default());
        assert_eq!(e.stats().total_cycles(), 0);
    }

    #[test]
    fn lifecycle_reuses_freed_ids_like_the_priced_engines() {
        let mut e = FunctionalEngine::new();
        let a = e.create_sorted([1]);
        let c = e.clone_set(a);
        assert_ne!(a, c);
        e.delete(c);
        let d = e.create_sorted([9]);
        assert_eq!(c, d);
        assert_eq!(e.live_sets(), 2);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn deleted_sets_fault() {
        let mut e = FunctionalEngine::new();
        let a = e.create_sorted([1]);
        e.delete(a);
        let _ = e.members(a);
    }
}
