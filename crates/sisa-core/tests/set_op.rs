//! `SetOp` is the one currency of the binary instructions, and `apply` and the
//! nine named methods are two spellings of the same call:
//!
//! 1. **Twins** — on every engine of this crate, a random `SetOp` stream run
//!    through `apply` on one instance and through the named methods on a twin
//!    gives equal outcomes, equal statistics (energy bits included), equal
//!    members of every live set, and on the runtime equal trace events.
//! 2. **One named call per operation** — an engine outside the crate that
//!    writes the nine named methods and takes the provided `apply` (the
//!    repository benchmark's call-observing wrapper is one) sees exactly one
//!    named call, the right one, for every operation: called directly, as the
//!    shards of a `ShardedEngine` per operation and through `execute`, and
//!    under `Interpreter::replay`.
//! 3. **The two tables** — `SetOp::opcode` reaches exactly the six binary
//!    opcodes, and the nine forms serialise to the trace wire format as it was
//!    before `TraceOp` carried a `SetOp`, byte for byte.
//!
//! Each test names the one-line mutation it was seen to fail under.

mod common;

use common::{snapshot, Calls, Counting};
use proptest::prelude::*;
use sisa_core::scu::BinarySetOp;
use sisa_core::{
    BatchOp, Dest, FunctionalEngine, HostEngine, Interpreter, Outcome, PartitionStrategy,
    SetEngine, SetOp, ShardedEngine, SisaConfig, SisaRuntime, TraceOp,
};
use sisa_isa::{SetId, SisaOpcode};
use sisa_sets::Vertex;
use std::collections::BTreeSet;

const UNIVERSE: usize = 128;
const OPS: [BinarySetOp; 3] = [
    BinarySetOp::Intersection,
    BinarySetOp::Union,
    BinarySetOp::Difference,
];
const DESTS: [Dest; 3] = [Dest::New, Dest::Count, Dest::InPlace];

/// The nine forms in the order the named methods are declared, and so the
/// index of a form in [`Calls`].
fn form_index(op: SetOp) -> usize {
    let kind = OPS.iter().position(|&k| k == op.op).expect("listed");
    let dest = DESTS.iter().position(|&d| d == op.dest).expect("listed");
    dest * 3 + kind
}

/// The test's own `(op, dest)` → named method table: what `apply` must equal.
fn named<E: SetEngine>(engine: &mut E, op: SetOp) -> Outcome {
    let SetOp { a, b, .. } = op;
    match form_index(op) {
        0 => Outcome::Set(engine.intersect(a, b)),
        1 => Outcome::Set(engine.union(a, b)),
        2 => Outcome::Set(engine.difference(a, b)),
        3 => Outcome::Count(engine.intersect_count(a, b)),
        4 => Outcome::Count(engine.union_count(a, b)),
        5 => Outcome::Count(engine.difference_count(a, b)),
        6 => {
            engine.intersect_assign(a, b);
            Outcome::Set(a)
        }
        7 => {
            engine.union_assign(a, b);
            Outcome::Set(a)
        }
        _ => {
            engine.difference_assign(a, b);
            Outcome::Set(a)
        }
    }
}

/// Seeds an engine with two sorted and two dense sets.
fn seed<E: SetEngine>(engine: &mut E, seeds: &[BTreeSet<Vertex>]) -> Vec<SetId> {
    engine.set_universe(UNIVERSE);
    seeds
        .iter()
        .enumerate()
        .map(|(i, members)| {
            if i % 2 == 0 {
                engine.create_sorted(members.iter().copied())
            } else {
                engine.create_dense(members.iter().copied())
            }
        })
        .collect()
}

/// Decodes one draw into an operation over the live pool.
fn decode(raw: usize, pool: &[SetId]) -> SetOp {
    SetOp {
        op: OPS[raw % 3],
        dest: DESTS[raw / 3 % 3],
        a: pool[raw / 9 % pool.len()],
        b: pool[raw / 9 / pool.len() % pool.len()],
    }
}

/// Runs the stream through `apply` on `left` and through the named methods
/// on `right`, comparing outcome by outcome, then statistics and every live
/// set. Materialised results join the pool, so later operations read them.
fn assert_twins<E: SetEngine>(
    left: &mut E,
    right: &mut E,
    seeds: &[BTreeSet<Vertex>],
    draws: &[usize],
) {
    let mut pool = seed(left, seeds);
    assert_eq!(seed(right, seeds), pool);
    for &raw in draws {
        let op = decode(raw, &pool);
        let outcome = left.apply(op);
        assert_eq!(outcome, named(right, op), "{op:?}");
        if op.dest == Dest::New {
            pool.push(outcome.set());
        }
    }
    assert_eq!(left.stats(), right.stats());
    assert_eq!(
        left.stats().energy_nj.to_bits(),
        right.stats().energy_nj.to_bits()
    );
    assert_eq!(left.live_sets(), pool.len());
    assert_eq!(right.live_sets(), pool.len());
    for &id in &pool {
        assert_eq!(left.members(id), right.members(id), "set {id}");
    }
}

fn seeds() -> impl Strategy<Value = Vec<BTreeSet<Vertex>>> {
    proptest::collection::vec(
        proptest::collection::btree_set(0u32..UNIVERSE as u32, 0..40),
        4..5,
    )
}

fn draws() -> impl Strategy<Value = Vec<usize>> {
    proptest::collection::vec(0usize..1_000_000, 1..32)
}

proptest! {
    /// (1) on the runtime, trace events included. Both twins share the
    /// engine's `apply`, so what this pins is the name → `SetOp` table of
    /// `named_binary_ops!`. Seen to fail (as the next two do) under: the
    /// macro's `union` built with `Intersection`; its `intersect_assign` with
    /// `Dest::New`; its `difference_count` with `Union`.
    #[test]
    fn apply_and_the_named_methods_are_twins_on_the_runtime(
        seeds in seeds(),
        draws in draws(),
    ) {
        let mut left = SisaRuntime::new(SisaConfig::with_set_size_tracking());
        let mut right = left.clone();
        left.enable_default_trace();
        right.enable_default_trace();
        assert_twins(&mut left, &mut right, &seeds, &draws);
        let (left, right) = (left.take_trace().unwrap(), right.take_trace().unwrap());
        prop_assert_eq!(left.events(), right.events());
    }

    /// (1) on the CPU model and the cost-free oracle.
    #[test]
    fn apply_and_the_named_methods_are_twins_on_the_software_engines(
        seeds in seeds(),
        draws in draws(),
    ) {
        let (mut left, mut right) = (HostEngine::with_defaults(), HostEngine::with_defaults());
        assert_twins(&mut left, &mut right, &seeds, &draws);
        let (mut left, mut right) = (FunctionalEngine::new(), FunctionalEngine::new());
        assert_twins(&mut left, &mut right, &seeds, &draws);
    }

    /// (1) on the sharded engine, one shard and four. Also seen to fail
    /// under: `ShardedEngine::apply` publishing an in-place result as a new
    /// global set.
    #[test]
    fn apply_and_the_named_methods_are_twins_on_sharded_engines(
        seeds in seeds(),
        draws in draws(),
    ) {
        for shards in [1usize, 4] {
            let make = || ShardedEngine::sisa(shards, PartitionStrategy::Modulo, SisaConfig::default());
            let (mut left, mut right) = (make(), make());
            assert_twins(&mut left, &mut right, &seeds, &draws);
            prop_assert_eq!(left.traffic(), right.traffic());
        }
    }
}

// ---------------------------------------------------------------------------
// (2) A foreign implementor (`common::Counting`): 27 forwarding methods, the
// provided `apply`
// ---------------------------------------------------------------------------

fn every_form(a: SetId, b: SetId) -> Vec<SetOp> {
    let forms = DESTS
        .iter()
        .flat_map(|&dest| OPS.map(|op| SetOp { op, a, b, dest }));
    forms.collect()
}

/// Seen to fail (as the replay test below does) under: the provided `apply`
/// calling `self.union` for `(Intersection, New)`; its `(Intersection, Count)`
/// arm also materialising and deleting the intersection; its `(Union, Count)`
/// arm answering without a call.
#[test]
fn the_provided_apply_reaches_exactly_one_named_method_per_operation() {
    // Directly.
    let calls = Calls::default();
    let mut engine = Counting {
        inner: SisaRuntime::with_defaults(),
        calls: calls.clone(),
    };
    engine.set_universe(UNIVERSE);
    let a = engine.create_sorted([1, 2, 3, 9]);
    let b = engine.create_dense([2, 3, 4]);
    for (done, op) in every_form(a, b).into_iter().enumerate() {
        let outcome = engine.apply(op);
        let mut expected = [0; 9];
        expected[..=done].fill(1);
        assert_eq!(snapshot(&calls), expected, "after {op:?}");
        assert_eq!(form_index(op), done);
        // The wrapper forwards, so the outcome is the inner engine's.
        match op.dest {
            Dest::Count => assert!(matches!(outcome, Outcome::Count(_))),
            Dest::New => assert_ne!(outcome.set(), a),
            Dest::InPlace => assert_eq!(outcome.set(), a),
        }
    }

    // As the shards of a sharded engine, per operation: whichever shard an
    // operation lands on sees one named call for it and nothing else.
    let calls = Calls::default();
    let shards = (0..3)
        .map(|_| Counting {
            inner: SisaRuntime::with_defaults(),
            calls: calls.clone(),
        })
        .collect();
    let link = sisa_pim::LinkModel::new(SisaConfig::default().platform.pnm);
    let mut sharded = ShardedEngine::from_shards(shards, PartitionStrategy::Modulo, link);
    sharded.set_universe(UNIVERSE);
    let a = sharded.create_sorted([1, 2, 3, 9]);
    let b = sharded.create_dense([2, 3, 4]);
    assert_ne!(sharded.shard_of(a), sharded.shard_of(b), "cross-shard");
    for op in every_form(a, b) {
        let _ = sharded.apply(op);
    }
    assert_eq!(snapshot(&calls), [1; 9]);
    // ... and through the named methods of the wrapper itself.
    let _ = sharded.union_count(a, b);
    sharded.difference_assign(a, b);
    assert_eq!(snapshot(&calls), [1, 1, 1, 1, 2, 1, 1, 1, 2]);

    // Through `execute`: one named call per batch operation.
    let before = snapshot(&calls);
    let batch = [
        BatchOp::Intersect(a, b),
        BatchOp::UnionCount(b, a),
        BatchOp::Difference(b, a),
        BatchOp::IntersectCount(b, a),
        BatchOp::Union(a, b),
        BatchOp::DifferenceCount(a, b),
        BatchOp::IntersectCount(a, a),
    ];
    let results = sharded.execute(&batch);
    assert_eq!(results.len(), batch.len());
    let mut expected = before;
    for form in [0, 4, 2, 3, 1, 5, 3] {
        expected[form] += 1;
    }
    assert_eq!(snapshot(&calls), expected);
}

/// Also seen to fail under: `Interpreter::replay` skipping the binary events
/// that name no new set.
#[test]
fn replay_reaches_exactly_one_named_method_per_traced_operation() {
    let mut original = SisaRuntime::with_defaults();
    original.enable_default_trace();
    original.set_universe(UNIVERSE);
    let a = original.create_sorted([1, 2, 3, 9]);
    let b = original.create_dense([2, 3, 4]);
    for op in every_form(a, b) {
        let _ = original.apply(op);
    }
    let _ = original.union(b, a);
    let trace = original.take_trace().unwrap();

    let calls = Calls::default();
    let mut target = Counting {
        inner: SisaRuntime::with_defaults(),
        calls: calls.clone(),
    };
    let report = Interpreter::replay(&trace, &mut target);
    assert!(report.complete);
    assert_eq!(snapshot(&calls), [1, 2, 1, 1, 1, 1, 1, 1, 1]);
    assert_eq!(target.stats(), original.stats());
}

// ---------------------------------------------------------------------------
// (3) The two tables
// ---------------------------------------------------------------------------

/// Checked against the ISA crate's own opcode → operation table. Seen to
/// fail under: the `Union` and `Difference` arms of `SetOp::opcode` swapped;
/// `Dest::InPlace` given the counting opcode; an arm answering
/// `IntersectMerge`.
#[test]
fn opcode_reaches_exactly_the_six_binary_opcodes() {
    use sisa_isa::SetOperation;
    let forms = every_form(SetId(0), SetId(1));
    for &op in &forms {
        // The in-place form is the materialising instruction with rd = rs1.
        let operation = match (op.op, op.dest == Dest::Count) {
            (BinarySetOp::Intersection, false) => SetOperation::Intersection,
            (BinarySetOp::Union, false) => SetOperation::Union,
            (BinarySetOp::Difference, false) => SetOperation::Difference,
            (BinarySetOp::Intersection, true) => SetOperation::IntersectionCount,
            (BinarySetOp::Union, true) => SetOperation::UnionCount,
            (BinarySetOp::Difference, true) => SetOperation::DifferenceCount,
        };
        assert_eq!(op.opcode().operation(), operation, "{op:?}");
        assert!(op.opcode().is_auto(), "{op:?}: the SCU picks the variant");
    }
    let mut reached: Vec<SisaOpcode> = forms.into_iter().map(SetOp::opcode).collect();
    reached.sort_unstable_by_key(|op| op.funct7());
    reached.dedup();
    let binary: Vec<SisaOpcode> = SisaOpcode::ALL
        .into_iter()
        .filter(|op| op.is_auto())
        .collect();
    assert_eq!(binary.len(), 6);
    assert_eq!(reached, binary, "`ALL` is in ascending `funct7` order");
}

/// The wire format of the nine forms, written out as it was when `TraceOp`
/// had three binary variants. Seen to fail under: `binary_tag` answering
/// `"binary"` for `Dest::InPlace`; the `dst` entry written for every form;
/// `kind` written after the operands.
#[test]
fn the_nine_forms_serialise_to_the_wire_format_byte_for_byte() {
    let wire = [
        r#"{"op":"binary","kind":"intersection","a":4,"b":7,"dst":9}"#,
        r#"{"op":"binary","kind":"union","a":4,"b":7,"dst":9}"#,
        r#"{"op":"binary","kind":"difference","a":4,"b":7,"dst":9}"#,
        r#"{"op":"binary_count","kind":"intersection","a":4,"b":7}"#,
        r#"{"op":"binary_count","kind":"union","a":4,"b":7}"#,
        r#"{"op":"binary_count","kind":"difference","a":4,"b":7}"#,
        r#"{"op":"binary_assign","kind":"intersection","a":4,"b":7}"#,
        r#"{"op":"binary_assign","kind":"union","a":4,"b":7}"#,
        r#"{"op":"binary_assign","kind":"difference","a":4,"b":7}"#,
    ];
    for (op, wire) in every_form(SetId(4), SetId(7)).into_iter().zip(wire) {
        let event = TraceOp::Binary {
            op,
            dst: (op.dest == Dest::New).then_some(SetId(9)),
        };
        assert_eq!(serde_json::to_string(&event).unwrap(), wire);
        let back: TraceOp = serde_json::from_str(wire).unwrap();
        assert_eq!(back, event);
    }
    // A materialising event must name the set it created.
    let nameless = r#"{"op":"binary","kind":"union","a":4,"b":7}"#;
    assert!(serde_json::from_str::<TraceOp>(nameless).is_err());
}
