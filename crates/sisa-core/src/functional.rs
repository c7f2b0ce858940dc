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
//!
//! Deleting a sorted array keeps its buffer in a small pool, and the next
//! materialised result the kernels write as a sparse array is written into
//! one from there: a mining loop that creates and deletes a set per step
//! reuses a handful of buffers instead of allocating one per result.

use crate::engine::{Dest, Outcome, SetEngine, SetOp};
use crate::parallel::TaskRecord;
use crate::stats::ExecStats;
use crate::Vertex;
use sisa_isa::SetId;
use sisa_sets::SetRepr;

/// How many buffers of deleted sorted arrays the store keeps for reuse.
const SPARE_BUFFERS: usize = 8;

/// A cost-free software backend: real set algebra, zero simulated cycles.
#[derive(Clone, Debug, Default)]
pub struct FunctionalEngine {
    sets: Vec<Option<SetRepr>>,
    free_ids: Vec<u32>,
    universe: usize,
    stats: ExecStats,
    /// Buffers of deleted or overwritten sorted arrays, for the next results.
    spare: Vec<Vec<Vertex>>,
}

impl FunctionalEngine {
    /// Creates an empty engine.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn slot(&self, id: SetId) -> &SetRepr {
        stored(&self.sets, id)
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

    /// Keeps the buffer of a sorted array that is going away, if the pool
    /// has room.
    fn recycle(&mut self, repr: SetRepr) {
        if let SetRepr::Sorted(sorted) = repr {
            let buffer = sorted.into_vec();
            if buffer.capacity() > 0 && self.spare.len() < SPARE_BUFFERS {
                self.spare.push(buffer);
            }
        }
    }

    /// `op`'s result over the stored operands, written into a pooled
    /// buffer when it is a sparse array.
    fn combine(&mut self, op: SetOp) -> SetRepr {
        let (ra, rb) = (stored(&self.sets, op.a), stored(&self.sets, op.b));
        let mut buffer = self.spare.pop().unwrap_or_default();
        let result = op.op.combine(ra, rb, &mut buffer);
        // A result that did not take the buffer hands it back.
        if buffer.capacity() > 0 {
            self.spare.push(buffer);
        }
        result
    }
}

/// The stored set `id`; faults if there is none.
fn stored(sets: &[Option<SetRepr>], id: SetId) -> &SetRepr {
    sets.get(id.0 as usize)
        .and_then(Option::as_ref)
        .unwrap_or_else(|| panic!("set {id} does not exist"))
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
        let repr = self.sets.get_mut(id.0 as usize).and_then(Option::take);
        let repr = repr.unwrap_or_else(|| panic!("set {id} does not exist"));
        crate::slots::release(&mut self.sets, &mut self.free_ids, id);
        self.recycle(repr);
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
        match op.dest {
            Dest::Count => Outcome::Count(op.op.count(self.slot(op.a), self.slot(op.b))),
            Dest::New => {
                let result = self.combine(op);
                Outcome::Set(self.store(result))
            }
            Dest::InPlace => {
                let result = self.combine(op);
                let old = std::mem::replace(self.slot_mut(op.a), result);
                self.recycle(old);
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

    /// The pointer to a stored sorted array's members.
    fn buffer_of(e: &FunctionalEngine, id: SetId) -> *const Vertex {
        match e.repr(id) {
            SetRepr::Sorted(s) => s.as_slice().as_ptr(),
            other => panic!("{id} is not a sorted array: {other:?}"),
        }
    }

    #[test]
    fn a_recycled_buffer_holds_only_the_new_result() {
        // Each kernel that writes a sparse result into a pooled buffer: merge
        // and galloping intersection, SA ∩ DB and SA \ DB probing, and the
        // in-place form. `b` is the multiples of 3 below 1 200; a long `a`
        // keeps the sparse pair below the galloping skew.
        let short: &[Vertex] = &[1, 5, 9, 20, 1_300];
        let long: Vec<Vertex> = short.iter().copied().chain(2_000..2_040).collect();
        type Op = fn(&mut FunctionalEngine, SetId, SetId) -> SetId;
        // (kernel, `a` is long, `b` is dense, operation)
        let ops: [(&str, bool, bool, Op); 5] = [
            ("merge", true, false, |e, a, b| e.intersect(a, b)),
            ("gallop", false, false, |e, a, b| e.intersect(b, a)),
            ("probe", false, true, |e, a, b| e.intersect(a, b)),
            ("probe difference", false, true, |e, a, b| {
                e.difference(a, b)
            }),
            ("in place", true, false, |e, a, b| {
                e.intersect_assign(a, b);
                a
            }),
        ];
        for (name, long_a, dense_b, op) in ops {
            let a_members = if long_a { &long[..] } else { short };
            let want: &[Vertex] = if name == "probe difference" {
                &[1, 5, 20, 1_300]
            } else {
                &[9]
            };
            let run = |e: &mut FunctionalEngine| {
                e.set_universe(20_000);
                let a = e.create_sorted(a_members.iter().copied());
                let multiples = (0..400).map(|v| v * 3);
                let b = if dense_b {
                    e.create_dense(multiples)
                } else {
                    e.create_sorted(multiples)
                };
                let c = op(e, a, b);
                (c, e.members(c), e.repr(c).clone())
            };
            let (_, fresh_members, fresh_repr) = run(&mut FunctionalEngine::new());

            // A large set's buffer, full of members the result must not show.
            let mut e = FunctionalEngine::new();
            let big = e.create_sorted(0..10_000);
            let stale = buffer_of(&e, big);
            e.delete(big);
            let before = sisa_sets::repr::kernel_selection_counts();
            let (c, members, repr) = run(&mut e);
            let after = sisa_sets::repr::kernel_selection_counts();
            let kernel = match name {
                "merge" | "in place" => after.merge - before.merge,
                "gallop" => after.gallop - before.gallop,
                _ => after.bitmap - before.bitmap,
            };
            assert_eq!(kernel, 1, "{name} runs its kernel");
            assert_eq!(members, want, "{name}");
            assert_eq!((members, repr), (fresh_members, fresh_repr), "{name}");
            assert_eq!(
                buffer_of(&e, c),
                stale,
                "{name}: the result reuses the buffer"
            );
        }
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
