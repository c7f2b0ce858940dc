//! The random engine workload the property suites share: one step type, one
//! single-draw generator over the kinds a suite lists, one runner — and
//! [`Counting`], the call-observing engine from outside the crate.
//!
//! A binary step is a [`SetOp`] draw whose operands name the two seed sets by
//! slot ([`A`], [`B`]); the runner rebinds them to the IDs the engine under
//! test assigned — as `Interpreter::replay` does with a trace's IDs — and
//! executes the step through [`SetEngine::apply`]. Each suite keeps its own
//! list of kinds (and so its own weights) and its own assertions.

// Every suite compiles this module and uses the part it draws.
#![allow(dead_code)]

use proptest::prelude::*;
use sisa_core::scu::BinarySetOp;
use sisa_core::{
    BatchOp, Dest, ExecStats, FunctionalEngine, HostEngine, Outcome, SetEngine, SetOp,
    ShardedEngine, SisaRuntime, TaskRecord,
};
use sisa_isa::SetId;
use sisa_sets::{SetRepr, Vertex};
use std::cell::Cell;
use std::collections::BTreeSet;
use std::rc::Rc;

/// The slot of the sorted seed set in a step's operands.
pub const A: SetId = SetId(0);
/// The slot of the dense seed set in a step's operands.
pub const B: SetId = SetId(1);

/// A random vertex set over `0..universe` with fewer than `max_len` members.
pub fn vertex_set(universe: usize, max_len: usize) -> impl Strategy<Value = BTreeSet<Vertex>> {
    proptest::collection::btree_set(0u32..universe as u32, 0..max_len)
}

/// One step of a random engine workload.
#[derive(Clone, Copy, Debug)]
pub enum Step {
    /// One binary instruction over the seed slots. A materialised result is
    /// read back and deleted, a count observed, and after an in-place form
    /// the overwritten set is read back.
    Binary(SetOp),
    /// Materialise `a ∪ b`, count it against `a`, delete it (the ID recycles).
    TempUnion,
    /// Materialise `a \ b`, insert into it, size it, delete it.
    TempDifference,
    /// Insert into the sorted seed.
    Insert(Vertex),
    /// Remove from the dense seed.
    Remove(Vertex),
    /// Probe the sorted seed.
    Contains(Vertex),
    /// Size both seeds.
    Cardinality,
    /// Read both seeds out.
    Members,
    /// Clone the dense seed, read the clone, delete it.
    CloneAndDelete,
    /// Create a two-element set and keep it, so the live population (and,
    /// on a sharded engine, the placement) keeps changing mid-run.
    CreateAndKeep(Vertex),
    /// Host scalar work.
    HostOps(u64),
    /// The six-operation batch of [`batch_ops`]: `execute` on a sharded
    /// engine, operation by operation elsewhere.
    Batch,
    /// A mid-run statistics reset.
    ResetStats,
}

/// A binary step over the seed slots.
pub const fn binary(op: BinarySetOp, a: SetId, b: SetId, dest: Dest) -> Step {
    Step::Binary(SetOp { op, a, b, dest })
}

/// Draws one step of the given kinds, uniformly over the list (a kind listed
/// twice is drawn twice as often). The kind and its payload both come from a
/// single draw — the vendored proptest shim has no `prop_oneof` — and the
/// payloads written in `kinds` are placeholders.
pub fn step(universe: usize, kinds: &'static [Step]) -> impl Strategy<Value = Step> {
    (0usize..1_000_000).prop_map(move |raw| {
        let v = ((raw / kinds.len()) % universe) as Vertex;
        match kinds[raw % kinds.len()] {
            Step::Insert(_) => Step::Insert(v),
            Step::Remove(_) => Step::Remove(v),
            Step::Contains(_) => Step::Contains(v),
            Step::CreateAndKeep(_) => Step::CreateAndKeep(v),
            Step::HostOps(_) => Step::HostOps((raw % 31 + 1) as u64),
            fixed => fixed,
        }
    })
}

/// How an engine runs a [`Step::Batch`]: through `apply`, one operation at a
/// time, unless it has a batch path of its own.
pub trait Batched: SetEngine {
    /// Runs the batch, one outcome per operation in batch order.
    fn batch(&mut self, ops: &[BatchOp]) -> Vec<Outcome> {
        ops.iter().map(|&op| self.apply(op.into())).collect()
    }
}

impl Batched for SisaRuntime {}
impl Batched for HostEngine {}
impl Batched for FunctionalEngine {}

impl Batched for ShardedEngine<SisaRuntime> {
    fn batch(&mut self, ops: &[BatchOp]) -> Vec<Outcome> {
        self.execute(ops)
    }
}

/// The batch of one [`Step::Batch`]: every batch-legal form once, the seeds
/// either way round (they sit on different shards under `Modulo`, so replicas
/// are staged).
pub fn batch_ops(a: SetId, b: SetId) -> [BatchOp; 6] {
    [
        BatchOp::Intersect(a, b),
        BatchOp::UnionCount(b, a),
        BatchOp::Difference(b, a),
        BatchOp::IntersectCount(b, a),
        BatchOp::Union(a, b),
        BatchOp::DifferenceCount(a, b),
    ]
}

/// Runs the workload over one sorted and one dense seed set (so the SCU sees
/// mixed representation pairings) and collects every observable result.
pub fn run_steps<E: Batched>(
    engine: &mut E,
    universe: usize,
    a_members: &BTreeSet<Vertex>,
    b_members: &BTreeSet<Vertex>,
    steps: &[Step],
) -> Vec<Vec<Vertex>> {
    run_steps_checked(engine, universe, a_members, b_members, steps, |_| {})
}

/// [`run_steps`], calling `check` after every engine call it makes — the
/// seeding calls and the reads inside a step included.
pub fn run_steps_checked<E: Batched>(
    engine: &mut E,
    universe: usize,
    a_members: &BTreeSet<Vertex>,
    b_members: &BTreeSet<Vertex>,
    steps: &[Step],
    check: impl Fn(&E),
) -> Vec<Vec<Vertex>> {
    engine.set_universe(universe);
    check(engine);
    let a = engine.create_sorted(a_members.iter().copied());
    check(engine);
    let b = engine.create_dense(b_members.iter().copied());
    check(engine);
    let seed = |slot: SetId| if slot == A { a } else { b };
    let mut observed = Vec::new();
    let scalar = |x: usize| vec![x as Vertex];
    // A materialised result is read, checked and dropped.
    let consume = |engine: &mut E, observed: &mut Vec<Vec<Vertex>>, c: SetId| {
        check(engine);
        observed.push(engine.members(c));
        check(engine);
        engine.delete(c);
    };
    for &s in steps {
        match s {
            Step::Binary(op) => {
                let op = SetOp {
                    a: seed(op.a),
                    b: seed(op.b),
                    ..op
                };
                let outcome = engine.apply(op);
                match op.dest {
                    Dest::New => consume(engine, &mut observed, outcome.set()),
                    Dest::Count => observed.push(scalar(outcome.count())),
                    Dest::InPlace => {
                        check(engine);
                        observed.push(engine.members(outcome.set()));
                    }
                }
            }
            Step::TempUnion => {
                let t = engine.union(a, b);
                check(engine);
                observed.push(scalar(engine.intersect_count(t, a)));
                check(engine);
                engine.delete(t);
            }
            Step::TempDifference => {
                let t = engine.difference(a, b);
                check(engine);
                engine.insert(t, 7);
                check(engine);
                observed.push(scalar(engine.cardinality(t)));
                check(engine);
                engine.delete(t);
            }
            Step::Insert(v) => observed.push(scalar(usize::from(engine.insert(a, v)))),
            Step::Remove(v) => observed.push(scalar(usize::from(engine.remove(b, v)))),
            Step::Contains(v) => observed.push(scalar(usize::from(engine.contains(a, v)))),
            Step::Cardinality => {
                observed.push(scalar(engine.cardinality(a)));
                check(engine);
                observed.push(scalar(engine.cardinality(b)));
            }
            Step::Members => {
                observed.push(engine.members(a));
                check(engine);
                observed.push(engine.members(b));
            }
            Step::CloneAndDelete => {
                let c = engine.clone_set(b);
                consume(engine, &mut observed, c);
            }
            Step::CreateAndKeep(v) => {
                let c = engine.create_sorted([v, v.wrapping_add(1) % universe as u32]);
                check(engine);
                observed.push(engine.members(c));
            }
            Step::HostOps(n) => engine.host_ops(n),
            Step::Batch => {
                for outcome in engine.batch(&batch_ops(a, b)) {
                    match outcome {
                        Outcome::Set(c) => consume(engine, &mut observed, c),
                        Outcome::Count(n) => observed.push(scalar(n)),
                    }
                }
            }
            Step::ResetStats => engine.reset_stats(),
        }
        check(engine);
    }
    observed
}

/// Named binary calls seen, in the order [`SetEngine`] declares the nine
/// methods. Shared, because the shards of a `ShardedEngine` are out of reach
/// once wrapped — and an `Rc`, so an engine holding one is not `Send`.
pub type Calls = Rc<[Cell<usize>; 9]>;

/// Forwards all 27 required methods to `inner`, counting the nine binary
/// ones, and does not override `apply`.
pub struct Counting<E> {
    pub inner: E,
    pub calls: Calls,
}

impl<E> Counting<E> {
    fn saw(&self, form: usize) {
        self.calls[form].set(self.calls[form].get() + 1);
    }
}

pub fn snapshot(calls: &Calls) -> [usize; 9] {
    std::array::from_fn(|i| calls[i].get())
}

impl<E: SetEngine> SetEngine for Counting<E> {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }
    fn set_universe(&mut self, n: usize) {
        self.inner.set_universe(n);
    }
    fn universe(&self) -> usize {
        self.inner.universe()
    }
    fn stats(&self) -> &ExecStats {
        self.inner.stats()
    }
    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }
    fn live_sets(&self) -> usize {
        self.inner.live_sets()
    }
    fn create(&mut self, repr: SetRepr) -> SetId {
        self.inner.create(repr)
    }
    fn clone_set(&mut self, id: SetId) -> SetId {
        self.inner.clone_set(id)
    }
    fn delete(&mut self, id: SetId) {
        self.inner.delete(id);
    }
    fn cardinality(&mut self, id: SetId) -> usize {
        self.inner.cardinality(id)
    }
    fn contains(&mut self, id: SetId, v: Vertex) -> bool {
        self.inner.contains(id, v)
    }
    fn members(&mut self, id: SetId) -> Vec<Vertex> {
        self.inner.members(id)
    }
    fn repr(&self, id: SetId) -> &SetRepr {
        self.inner.repr(id)
    }
    fn insert(&mut self, id: SetId, v: Vertex) -> bool {
        self.inner.insert(id, v)
    }
    fn remove(&mut self, id: SetId, v: Vertex) -> bool {
        self.inner.remove(id, v)
    }
    fn intersect(&mut self, a: SetId, b: SetId) -> SetId {
        self.saw(0);
        self.inner.intersect(a, b)
    }
    fn union(&mut self, a: SetId, b: SetId) -> SetId {
        self.saw(1);
        self.inner.union(a, b)
    }
    fn difference(&mut self, a: SetId, b: SetId) -> SetId {
        self.saw(2);
        self.inner.difference(a, b)
    }
    fn intersect_count(&mut self, a: SetId, b: SetId) -> usize {
        self.saw(3);
        self.inner.intersect_count(a, b)
    }
    fn union_count(&mut self, a: SetId, b: SetId) -> usize {
        self.saw(4);
        self.inner.union_count(a, b)
    }
    fn difference_count(&mut self, a: SetId, b: SetId) -> usize {
        self.saw(5);
        self.inner.difference_count(a, b)
    }
    fn intersect_assign(&mut self, a: SetId, b: SetId) {
        self.saw(6);
        self.inner.intersect_assign(a, b);
    }
    fn union_assign(&mut self, a: SetId, b: SetId) {
        self.saw(7);
        self.inner.union_assign(a, b);
    }
    fn difference_assign(&mut self, a: SetId, b: SetId) {
        self.saw(8);
        self.inner.difference_assign(a, b);
    }
    fn host_ops(&mut self, n: u64) {
        self.inner.host_ops(n);
    }
    fn absorb_lane_work(&mut self, cycles: u64, writes: &[SetId]) {
        self.inner.absorb_lane_work(cycles, writes);
    }
    fn task_begin(&mut self) {
        self.inner.task_begin();
    }
    fn task_end(&mut self) -> TaskRecord {
        self.inner.task_end()
    }
}
