//! The execution-backend abstraction set-centric algorithms are written
//! against.
//!
//! The paper's central claim is that SISA is an *ISA*: algorithms express
//! their heavy work as set instructions and the platform underneath is free to
//! execute them however it likes (§3, §6.3). [`SetEngine`] is that boundary in
//! code. Every set-centric algorithm in `sisa-algorithms` is generic over
//! `E: SetEngine`, so the same formulation runs on
//!
//! * [`crate::SisaRuntime`] — the simulated SISA platform (SCU dispatch onto
//!   the PUM/PNM cost models),
//! * [`crate::HostEngine`] — a software set-centric backend on the baseline
//!   out-of-order CPU model,
//! * [`crate::FunctionalEngine`] — plain software sets with no cost model
//!   (the correctness oracle / fuzzing backend), and
//! * [`crate::ShardedEngine`] — a multi-cube wrapper sharding the set
//!   universe across several inner engines and pricing cross-shard traffic,
//!
//! and the benchmark harness compares backends by swapping the engine rather
//! than by maintaining per-backend driver code.
//!
//! The trait surface mirrors the paper's instruction families: set lifecycle
//! (§6.3.4), `O(1)` metadata queries (§6.2.3), single-element updates (§6.2),
//! the binary operations (§6.2.1, Table 5), and the host-side accounting hooks
//! that keep loop control on the CPU ("Does SISA Execute All Set Operations?",
//! §5).
//!
//! # One currency for the binary instructions
//!
//! The binary instructions are one family: {∩, ∪, ∖} × {materialise, count},
//! the in-place form being the materialising one with `rd = rs1`. [`SetOp`]
//! is that family as a value, [`Outcome`] what one of them produces, and
//! [`SetEngine::apply`] executes one. Everything that carries operations
//! around — [`crate::ShardedEngine`]'s batch queues, [`crate::TraceOp`], the
//! [`crate::Interpreter`] — carries a `SetOp` and calls `apply`; the two
//! rules that depend on which member of the family it is live here and in
//! `scu.rs` and nowhere else: [`SetOp::opcode`] (`(op, dest)` → opcode) and
//! [`BinarySetOp::combine`] / [`BinarySetOp::count`] (`op` → kernel).
//!
//! The nine named methods (`intersect` … `difference_assign`) are what
//! algorithms call, and they are still *required*: an engine outside this
//! crate that writes them (the repository benchmark's call-observing wrapper
//! does) gets `apply` from the provided default, which dispatches to exactly
//! one of them, so such an engine sees one named call per operation however
//! the operation reached it. The engines in this crate go the other way
//! round: each overrides `apply` with its one implementation and takes the
//! nine from `named_binary_ops!`. They are not mutually defaulted trait
//! methods because an implementor overriding neither side would then recurse
//! at run time instead of failing to compile. Once no engine outside the
//! crate implements the nine by hand, the macro's bodies move into the trait
//! as provided defaults, `apply` becomes the required method, and the macro
//! goes.

use crate::parallel::TaskRecord;
use crate::scu::BinarySetOp;
use crate::stats::ExecStats;
use crate::Vertex;
use sisa_isa::{SetId, SisaOpcode};
use sisa_sets::{DenseBitVector, SetRepr};

/// Where a binary instruction's result goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Dest {
    /// Materialised as a new set.
    New,
    /// Only its cardinality is produced.
    Count,
    /// Written back over `A` (`rd = rs1`).
    InPlace,
}

/// One binary set instruction: `A op B` and where the result goes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SetOp {
    /// The abstract operation.
    pub op: BinarySetOp,
    /// Left operand (the one an in-place form overwrites).
    pub a: SetId,
    /// Right operand.
    pub b: SetId,
    /// Where the result goes.
    pub dest: Dest,
}

impl SetOp {
    /// The opcode the issue stage materialises for this instruction. The
    /// in-place form shares the materialising opcode: it differs only in its
    /// destination register.
    #[must_use]
    pub fn opcode(self) -> SisaOpcode {
        match (self.op, self.dest == Dest::Count) {
            (BinarySetOp::Intersection, false) => SisaOpcode::IntersectAuto,
            (BinarySetOp::Union, false) => SisaOpcode::UnionAuto,
            (BinarySetOp::Difference, false) => SisaOpcode::DifferenceAuto,
            (BinarySetOp::Intersection, true) => SisaOpcode::IntersectCountAuto,
            (BinarySetOp::Union, true) => SisaOpcode::UnionCountAuto,
            (BinarySetOp::Difference, true) => SisaOpcode::DifferenceCountAuto,
        }
    }
}

/// What one [`SetOp`] produced.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Outcome {
    /// The set the instruction wrote: the new set of [`Dest::New`], `A` of
    /// [`Dest::InPlace`].
    Set(SetId),
    /// The cardinality [`Dest::Count`] asked for.
    Count(usize),
}

impl Outcome {
    /// The ID of the set written.
    ///
    /// # Panics
    ///
    /// Panics if this outcome is a count.
    #[must_use]
    pub fn set(self) -> SetId {
        match self {
            Self::Set(id) => id,
            Self::Count(n) => panic!("expected a set result, got count {n}"),
        }
    }

    /// The cardinality of a counting result.
    ///
    /// # Panics
    ///
    /// Panics if this outcome is a set.
    #[must_use]
    pub fn count(self) -> usize {
        match self {
            Self::Count(n) => n,
            Self::Set(id) => panic!("expected a count result, got set {id}"),
        }
    }
}

/// The nine named binary methods of [`SetEngine`], each building its
/// [`SetOp`] and calling [`SetEngine::apply`]: for the engines of this crate,
/// which implement `apply` (see the module docs for why this is a macro and
/// not a set of provided trait methods).
macro_rules! named_binary_ops {
    (@op $op:ident, $dest:ident, $a:ident, $b:ident) => {
        $crate::engine::SetOp {
            op: $crate::scu::BinarySetOp::$op,
            a: $a,
            b: $b,
            dest: $crate::engine::Dest::$dest,
        }
    };
    () => {
        fn intersect(&mut self, a: sisa_isa::SetId, b: sisa_isa::SetId) -> sisa_isa::SetId {
            self.apply($crate::engine::named_binary_ops!(@op Intersection, New, a, b))
                .set()
        }

        fn union(&mut self, a: sisa_isa::SetId, b: sisa_isa::SetId) -> sisa_isa::SetId {
            self.apply($crate::engine::named_binary_ops!(@op Union, New, a, b))
                .set()
        }

        fn difference(&mut self, a: sisa_isa::SetId, b: sisa_isa::SetId) -> sisa_isa::SetId {
            self.apply($crate::engine::named_binary_ops!(@op Difference, New, a, b))
                .set()
        }

        fn intersect_count(&mut self, a: sisa_isa::SetId, b: sisa_isa::SetId) -> usize {
            self.apply($crate::engine::named_binary_ops!(@op Intersection, Count, a, b))
                .count()
        }

        fn union_count(&mut self, a: sisa_isa::SetId, b: sisa_isa::SetId) -> usize {
            self.apply($crate::engine::named_binary_ops!(@op Union, Count, a, b))
                .count()
        }

        fn difference_count(&mut self, a: sisa_isa::SetId, b: sisa_isa::SetId) -> usize {
            self.apply($crate::engine::named_binary_ops!(@op Difference, Count, a, b))
                .count()
        }

        fn intersect_assign(&mut self, a: sisa_isa::SetId, b: sisa_isa::SetId) {
            self.apply($crate::engine::named_binary_ops!(@op Intersection, InPlace, a, b));
        }

        fn union_assign(&mut self, a: sisa_isa::SetId, b: sisa_isa::SetId) {
            self.apply($crate::engine::named_binary_ops!(@op Union, InPlace, a, b));
        }

        fn difference_assign(&mut self, a: sisa_isa::SetId, b: sisa_isa::SetId) {
            self.apply($crate::engine::named_binary_ops!(@op Difference, InPlace, a, b));
        }
    };
}
pub(crate) use named_binary_ops;

/// A backend that executes SISA-style set operations.
///
/// Implementations must both **functionally execute** every operation on real
/// set data (so algorithms produce validated answers) and **charge simulated
/// cost** into their [`ExecStats`] / task records. Invalid set identifiers are
/// programming errors and panic, mirroring how a real SISA program would fault
/// on a dangling set ID.
pub trait SetEngine {
    /// A short label for the backend (used in reports and figures).
    fn backend_name(&self) -> &'static str;

    // -----------------------------------------------------------------------
    // Universe and statistics
    // -----------------------------------------------------------------------

    /// Grows the vertex universe to at least `n` (used when dense bitvectors
    /// are created).
    fn set_universe(&mut self, n: usize);

    /// The current vertex universe.
    fn universe(&self) -> usize;

    /// Execution statistics accumulated so far.
    fn stats(&self) -> &ExecStats;

    /// Clears the accumulated statistics (used after graph loading so that
    /// reported cycles cover only the algorithm itself, matching the paper's
    /// methodology of excluding graph construction).
    fn reset_stats(&mut self);

    /// Number of live sets.
    fn live_sets(&self) -> usize;

    // -----------------------------------------------------------------------
    // Set lifecycle
    // -----------------------------------------------------------------------

    /// Creates a set from an explicit representation, returning its ID.
    fn create(&mut self, repr: SetRepr) -> SetId;

    /// Clones a set into a fresh ID.
    fn clone_set(&mut self, id: SetId) -> SetId;

    /// Deletes a set, freeing its ID.
    fn delete(&mut self, id: SetId);

    // -----------------------------------------------------------------------
    // Queries
    // -----------------------------------------------------------------------

    /// The cardinality `|A|`.
    fn cardinality(&mut self, id: SetId) -> usize;

    /// Membership `x ∈ A`.
    fn contains(&mut self, id: SetId, v: Vertex) -> bool;

    /// The members of a set as a sorted vector, charging the cost of reading
    /// the set out of memory.
    fn members(&mut self, id: SetId) -> Vec<Vertex>;

    /// Read-only access to a set's physical representation (no cost; intended
    /// for result extraction and tests).
    fn repr(&self, id: SetId) -> &SetRepr;

    // -----------------------------------------------------------------------
    // Element updates
    // -----------------------------------------------------------------------

    /// Inserts a vertex: `A ∪= {x}`. Returns whether the set changed.
    fn insert(&mut self, id: SetId, v: Vertex) -> bool;

    /// Removes a vertex: `A \= {x}`. Returns whether the set changed.
    fn remove(&mut self, id: SetId, v: Vertex) -> bool;

    // -----------------------------------------------------------------------
    // Binary set operations
    // -----------------------------------------------------------------------

    /// `A ∩ B`, materialised as a new set.
    fn intersect(&mut self, a: SetId, b: SetId) -> SetId;

    /// `A ∪ B`, materialised as a new set.
    fn union(&mut self, a: SetId, b: SetId) -> SetId;

    /// `A \ B`, materialised as a new set.
    fn difference(&mut self, a: SetId, b: SetId) -> SetId;

    /// `|A ∩ B|` without materialising the intersection.
    fn intersect_count(&mut self, a: SetId, b: SetId) -> usize;

    /// `|A ∪ B|` without materialising the union.
    fn union_count(&mut self, a: SetId, b: SetId) -> usize;

    /// `|A \ B|` without materialising the difference.
    fn difference_count(&mut self, a: SetId, b: SetId) -> usize;

    /// In-place intersection `A ∩= B`.
    fn intersect_assign(&mut self, a: SetId, b: SetId);

    /// In-place union `A ∪= B`.
    fn union_assign(&mut self, a: SetId, b: SetId);

    /// In-place difference `A \= B`.
    fn difference_assign(&mut self, a: SetId, b: SetId);

    /// Executes one binary instruction given as a value: the same operation,
    /// cost and result as the named method of its `(op, dest)` pair. This is
    /// what carriers of operations (batches, traces, the interpreter) call.
    ///
    /// The provided body dispatches to that named method, so an engine that
    /// implements the nine observes exactly one named call per operation. The
    /// engines of this crate override it and derive the nine from it.
    fn apply(&mut self, op: SetOp) -> Outcome {
        let (kind, a, b, dest) = (op.op, op.a, op.b, op.dest);
        match (kind, dest) {
            (BinarySetOp::Intersection, Dest::New) => Outcome::Set(self.intersect(a, b)),
            (BinarySetOp::Union, Dest::New) => Outcome::Set(self.union(a, b)),
            (BinarySetOp::Difference, Dest::New) => Outcome::Set(self.difference(a, b)),
            (BinarySetOp::Intersection, Dest::Count) => Outcome::Count(self.intersect_count(a, b)),
            (BinarySetOp::Union, Dest::Count) => Outcome::Count(self.union_count(a, b)),
            (BinarySetOp::Difference, Dest::Count) => Outcome::Count(self.difference_count(a, b)),
            (BinarySetOp::Intersection, Dest::InPlace) => {
                self.intersect_assign(a, b);
                Outcome::Set(a)
            }
            (BinarySetOp::Union, Dest::InPlace) => {
                self.union_assign(a, b);
                Outcome::Set(a)
            }
            (BinarySetOp::Difference, Dest::InPlace) => {
                self.difference_assign(a, b);
                Outcome::Set(a)
            }
        }
    }

    // -----------------------------------------------------------------------
    // Host-side accounting and task boundaries
    // -----------------------------------------------------------------------

    /// Charges `n` host-side scalar operations (loop control, counters,
    /// comparisons done outside set operations).
    fn host_ops(&mut self, n: u64);

    /// Absorbs externally priced lane work — cycles a composite wrapper has
    /// already accounted for elsewhere (e.g. a [`crate::ShardedEngine`]
    /// cross-shard link transfer, billed to the aggregate's link counters) —
    /// into this engine's overlap timeline, so the wait occupies a virtual
    /// vault lane and can overlap with independent instructions instead of
    /// serialising the whole machine. `writes` names the local sets the work
    /// produces (e.g. the staged replica a link transfer delivers): hazard
    /// tracking then keeps consumers of those sets behind the absorbed work.
    /// Engines without an overlap model (the default) ignore it; no work
    /// counters are charged.
    fn absorb_lane_work(&mut self, cycles: u64, writes: &[SetId]) {
        let _ = (cycles, writes);
    }

    /// Marks the beginning of a parallel task; [`SetEngine::task_end`] returns
    /// the cost accumulated since this call.
    fn task_begin(&mut self);

    /// Ends the current task, returning its cost as a schedulable record.
    fn task_end(&mut self) -> TaskRecord;

    // -----------------------------------------------------------------------
    // Provided constructors (sugar over `create`)
    // -----------------------------------------------------------------------

    /// Creates an empty sorted sparse-array set.
    fn create_empty_sorted(&mut self) -> SetId
    where
        Self: Sized,
    {
        self.create(SetRepr::empty_sorted())
    }

    /// Creates an empty dense bitvector over the current universe.
    fn create_empty_dense(&mut self) -> SetId
    where
        Self: Sized,
    {
        let universe = self.universe();
        self.create(SetRepr::empty_dense(universe))
    }

    /// Creates a sorted sparse-array set from members.
    fn create_sorted(&mut self, members: impl IntoIterator<Item = Vertex>) -> SetId
    where
        Self: Sized,
    {
        self.create(SetRepr::sorted_from(members))
    }

    /// Creates a dense-bitvector set over the current universe from members.
    fn create_dense(&mut self, members: impl IntoIterator<Item = Vertex>) -> SetId
    where
        Self: Sized,
    {
        let universe = self.universe();
        self.create(SetRepr::dense_from(universe, members))
    }

    /// Creates a dense-bitvector set containing every vertex of the universe.
    fn create_full_dense(&mut self) -> SetId
    where
        Self: Sized,
    {
        let universe = self.universe();
        self.create(SetRepr::Dense(DenseBitVector::full(universe)))
    }
}
