//! Property-based tests for the `SetEngine` boundary:
//!
//! 1. **Trace replay fidelity** — replaying a captured trace through the
//!    [`Interpreter`] into a fresh [`SisaRuntime`] reproduces the original
//!    run's [`sisa_core::ExecStats`] exactly, for arbitrary operation
//!    sequences.
//! 2. **Backend agreement** — [`HostEngine`] and [`SisaRuntime`] compute the
//!    same set-algebra results across every representation pairing
//!    (sorted × sorted, sorted × dense, dense × dense).
//! 3. **Functional oracle** — the cost-free [`FunctionalEngine`] executes the
//!    same workloads and every priced backend must agree with it, while its
//!    statistics stay identically zero.
//! 4. **One store semantics** — over a random program of creates, clones,
//!    deletes, binary and element operations, the functional engine, the
//!    CPU engine, the SISA runtime and a 2-shard sharded engine mint the same
//!    IDs and observe the same results, and an operation on a dangling ID
//!    faults with "does not exist" before it changes `stats()` or
//!    `live_sets()`. A priced engine that reads its own tables before the
//!    store faults (say, `HostEngine::contains` reading its region table)
//!    fails here.

mod common;

use common::{binary, run_steps, Step, A, B};
use proptest::prelude::*;
use sisa_core::scu::BinarySetOp::{Difference, Intersection, Union};
use sisa_core::Dest::{Count, InPlace, New};
use sisa_core::{
    ExecStats, FunctionalEngine, HostEngine, Interpreter, Outcome, PartitionStrategy, SetEngine,
    SetOp, ShardedEngine, SisaConfig, SisaRuntime,
};
use sisa_isa::SetId;
use sisa_sets::Vertex;
use std::collections::BTreeSet;
use std::panic::{catch_unwind, AssertUnwindSafe};

const UNIVERSE: usize = 256;

fn vertex_set() -> impl Strategy<Value = BTreeSet<Vertex>> {
    common::vertex_set(UNIVERSE, 64)
}

/// The step kinds this suite draws. Every binary-operation family is covered
/// in all three forms — materialising, counting and in-place — so the
/// differential tests exercise the full Table 5 instruction surface, not just
/// the materialising paths.
const KINDS: &[Step] = &[
    binary(Intersection, A, B, New),
    binary(Union, A, B, New),
    binary(Difference, A, B, New),
    binary(Intersection, A, B, Count),
    binary(Union, A, B, Count),
    binary(Difference, A, B, Count),
    binary(Intersection, A, B, InPlace),
    binary(Union, A, B, InPlace),
    binary(Difference, A, B, InPlace),
    Step::Insert(0),
    Step::Remove(0),
    Step::Contains(0),
    Step::Cardinality,
    Step::Members,
    Step::CloneAndDelete,
    Step::HostOps(0),
];

fn step() -> impl Strategy<Value = Step> {
    common::step(UNIVERSE, KINDS)
}

/// One operation of a random store program. The `usize` fields are draws the
/// runner maps onto the IDs live at that point (`draw % live`); `Dangling`
/// names an ID that is not live instead — a deleted one if there is one, else
/// one never minted — in the operation its `u8` picks.
#[derive(Clone, Copy, Debug)]
enum StoreOp {
    Create(u64),
    Clone(usize),
    Delete(usize),
    Binary(SetOp, usize, usize),
    Insert(usize, Vertex),
    Remove(usize, Vertex),
    Contains(usize, Vertex),
    Cardinality(usize),
    Members(usize),
    Dangling(u8, usize),
}

/// Draws one [`StoreOp`] from a single `u64` (the vendored proptest shim has
/// no tuple strategies).
fn store_op() -> impl Strategy<Value = StoreOp> {
    (0u64..u64::MAX).prop_map(|raw| {
        let (x, y) = ((raw >> 8) as usize % 64, (raw >> 16) as usize % 64);
        let v = ((raw >> 24) % UNIVERSE as u64) as Vertex;
        match raw % 12 {
            0 | 1 => StoreOp::Create(raw >> 8),
            2 => StoreOp::Clone(x),
            3 => StoreOp::Delete(x),
            4 | 5 => {
                let op = [Intersection, Union, Difference][x % 3];
                let dest = [New, Count, InPlace][y % 3];
                let (a, b) = (SetId(0), SetId(0));
                StoreOp::Binary(SetOp { op, a, b, dest }, x / 3, y / 3)
            }
            6 => StoreOp::Insert(x, v),
            7 => StoreOp::Remove(x, v),
            8 => StoreOp::Contains(x, v),
            9 => StoreOp::Cardinality(x),
            10 => StoreOp::Members(x),
            _ => StoreOp::Dangling((raw >> 32) as u8 % 9, x),
        }
    })
}

/// Runs a store program and returns what it observed: every minted ID, count,
/// membership and read-out, in order. Checks each dangling operation faults
/// with "does not exist" and leaves `stats()` and `live_sets()` unchanged,
/// then carries on with the same engine.
fn run_store_program<E: SetEngine>(engine: &mut E, program: &[StoreOp]) -> Vec<Vec<u64>> {
    engine.set_universe(UNIVERSE);
    let (mut live, mut dead): (Vec<SetId>, Vec<SetId>) = (Vec::new(), Vec::new());
    let mut seen = Vec::new();
    let minted = |id: SetId, live: &mut Vec<SetId>, dead: &mut Vec<SetId>| {
        dead.retain(|&d| d != id);
        live.push(id);
        u64::from(id.raw())
    };
    for &op in program {
        if live.is_empty() && !matches!(op, StoreOp::Create(_) | StoreOp::Dangling(..)) {
            continue;
        }
        let pick = |draw: usize| live[draw % live.len()];
        match op {
            StoreOp::Create(seed) => {
                let members = (0..seed % 9).map(|i| ((seed >> 4) * (i + 1) % 256) as Vertex);
                let id = if seed & 1 == 0 {
                    engine.create_sorted(members)
                } else {
                    engine.create_dense(members)
                };
                seen.push(vec![minted(id, &mut live, &mut dead)]);
            }
            StoreOp::Clone(x) => {
                let id = engine.clone_set(pick(x));
                seen.push(vec![minted(id, &mut live, &mut dead)]);
            }
            StoreOp::Delete(x) => {
                let id = live.swap_remove(x % live.len());
                engine.delete(id);
                dead.push(id);
            }
            StoreOp::Binary(op, x, y) => {
                let op = SetOp {
                    a: pick(x),
                    b: pick(y),
                    ..op
                };
                match engine.apply(op) {
                    Outcome::Count(n) => seen.push(vec![n as u64]),
                    Outcome::Set(id) if op.dest == New => {
                        seen.push(vec![minted(id, &mut live, &mut dead)]);
                    }
                    Outcome::Set(id) => seen.push(members_of(engine, id)),
                }
            }
            StoreOp::Insert(x, v) => seen.push(vec![u64::from(engine.insert(pick(x), v))]),
            StoreOp::Remove(x, v) => seen.push(vec![u64::from(engine.remove(pick(x), v))]),
            StoreOp::Contains(x, v) => seen.push(vec![u64::from(engine.contains(pick(x), v))]),
            StoreOp::Cardinality(x) => seen.push(vec![engine.cardinality(pick(x)) as u64]),
            StoreOp::Members(x) => seen.push(members_of(engine, pick(x))),
            StoreOp::Dangling(kind, x) => {
                let id = dead.get(x % dead.len().max(1)).copied();
                let id = id.unwrap_or(SetId(1_000 + x as u32));
                let other = live.first().copied().unwrap_or(id);
                let (stats, sets) = (*engine.stats(), engine.live_sets());
                let fault = catch_unwind(AssertUnwindSafe(|| match kind {
                    0 => drop(engine.clone_set(id)),
                    1 => engine.delete(id),
                    2 => drop(engine.cardinality(id)),
                    3 => drop(engine.contains(id, 1)),
                    4 => drop(engine.members(id)),
                    5 => drop(engine.insert(id, 1)),
                    6 => drop(engine.remove(id, 1)),
                    7 => drop(engine.apply(SetOp {
                        op: Intersection,
                        a: id,
                        b: other,
                        dest: New,
                    })),
                    _ => drop(engine.apply(SetOp {
                        op: Union,
                        a: other,
                        b: id,
                        dest: InPlace,
                    })),
                }));
                let payload = fault.expect_err("an operation on a dangling ID faults");
                let message = payload.downcast_ref::<String>().map_or("", String::as_str);
                assert!(message.contains("does not exist"), "{op:?}: {message}");
                assert_eq!(engine.stats(), &stats, "{op:?} charged before it faulted");
                assert_eq!(engine.live_sets(), sets, "{op:?}");
            }
        }
    }
    seen
}

fn members_of<E: SetEngine>(engine: &mut E, id: SetId) -> Vec<u64> {
    engine.members(id).into_iter().map(u64::from).collect()
}

proptest! {
    /// (a) Replaying a captured trace reproduces `ExecStats` exactly.
    #[test]
    fn trace_replay_reproduces_exec_stats(
        a in vertex_set(),
        b in vertex_set(),
        steps in proptest::collection::vec(step(), 1..40),
    ) {
        let mut original = SisaRuntime::new(SisaConfig::default());
        original.enable_default_trace();
        let _ = run_steps(&mut original, UNIVERSE, &a, &b, &steps);
        let trace = original.take_trace().expect("trace attached");
        prop_assert!(trace.is_complete());

        let mut replayed = SisaRuntime::new(SisaConfig::default());
        let report = Interpreter::replay(&trace, &mut replayed);
        prop_assert!(report.complete);
        prop_assert_eq!(replayed.stats(), original.stats());
        prop_assert_eq!(replayed.live_sets(), original.live_sets());
    }

    /// (b) The CPU backend and the SISA runtime agree on every observable
    /// result across representation pairings.
    #[test]
    fn host_engine_and_sisa_runtime_agree(
        a in vertex_set(),
        b in vertex_set(),
        steps in proptest::collection::vec(step(), 1..40),
    ) {
        let mut sisa = SisaRuntime::new(SisaConfig::default());
        let mut host = HostEngine::with_defaults();
        let from_sisa = run_steps(&mut sisa, UNIVERSE, &a, &b, &steps);
        let from_host = run_steps(&mut host, UNIVERSE, &a, &b, &steps);
        prop_assert_eq!(from_sisa, from_host);
        prop_assert_eq!(sisa.live_sets(), host.live_sets());
    }

    /// (c) The functional engine is an oracle: the priced backends agree with
    /// its results on every workload, and running it costs nothing.
    #[test]
    fn functional_engine_is_an_oracle_for_priced_backends(
        a in vertex_set(),
        b in vertex_set(),
        steps in proptest::collection::vec(step(), 1..40),
    ) {
        let mut oracle = FunctionalEngine::new();
        let mut sisa = SisaRuntime::new(SisaConfig::default());
        let expected = run_steps(&mut oracle, UNIVERSE, &a, &b, &steps);
        let from_sisa = run_steps(&mut sisa, UNIVERSE, &a, &b, &steps);
        prop_assert_eq!(&expected, &from_sisa);
        prop_assert_eq!(oracle.live_sets(), sisa.live_sets());
        prop_assert_eq!(oracle.stats(), &ExecStats::default());
    }

    /// (d) A depth-1 issue queue *is* the flat serial runtime, cycle for
    /// cycle including energy: the makespan collapses onto the serial work
    /// total, no dependence stall is ever exposed, and every work counter —
    /// per-unit cycles, per-opcode counts, SMB traffic, the exact f64 energy
    /// sum — is identical at any queue depth (the queue prices time, not
    /// work). Deeper queues may only shorten the makespan, never grow it.
    #[test]
    fn depth_one_issue_queue_reproduces_serial_exec_stats(
        a in vertex_set(),
        b in vertex_set(),
        steps in proptest::collection::vec(step(), 1..40),
    ) {
        let mut serial = SisaRuntime::new(SisaConfig::default());
        let from_serial = run_steps(&mut serial, UNIVERSE, &a, &b, &steps);
        prop_assert_eq!(serial.config().issue_depth, 1);
        prop_assert_eq!(
            serial.stats().makespan_cycles,
            serial.stats().total_cycles(),
            "depth 1: the overlapped timeline degenerates to serial"
        );
        prop_assert_eq!(serial.stats().dep_stall_cycles, 0);

        for (depth, lanes) in [(1usize, 1usize), (8, 4), (32, 16)] {
            let mut deep = SisaRuntime::new(SisaConfig::with_pipeline(depth, lanes));
            let observed = run_steps(&mut deep, UNIVERSE, &a, &b, &steps);
            prop_assert_eq!(&from_serial, &observed, "depth {} x {} lanes", depth, lanes);

            // Work counters are conserved exactly — compare the full records
            // with the timing fields normalised away.
            let mut serial_work = *serial.stats();
            let mut deep_work = *deep.stats();
            prop_assert!(deep_work.makespan_cycles <= serial_work.makespan_cycles);
            serial_work.makespan_cycles = 0;
            deep_work.makespan_cycles = 0;
            serial_work.dep_stall_cycles = 0;
            deep_work.dep_stall_cycles = 0;
            serial_work.dep_stall_by_opcode.clear();
            deep_work.dep_stall_by_opcode.clear();
            prop_assert_eq!(&serial_work, &deep_work, "depth {} x {} lanes", depth, lanes);

            if depth == 1 {
                // Any 1-deep queue is serial regardless of lane count.
                prop_assert_eq!(deep.stats(), serial.stats());
            }
        }
    }

    /// (e) Every engine keeps one store semantics: the same IDs minted, the
    /// same results observed, every dangling ID faulting before any charge.
    #[test]
    fn every_engine_mints_the_same_ids_and_faults_before_charging(
        program in proptest::collection::vec(store_op(), 1..60),
    ) {
        let expected = run_store_program(&mut FunctionalEngine::new(), &program);
        let from_host = run_store_program(&mut HostEngine::with_defaults(), &program);
        prop_assert_eq!(&expected, &from_host, "cpu");
        let from_sisa = run_store_program(&mut SisaRuntime::with_defaults(), &program);
        prop_assert_eq!(&expected, &from_sisa, "sisa");
        let mut sharded = ShardedEngine::sisa(2, PartitionStrategy::Modulo, SisaConfig::default());
        let from_sharded = run_store_program(&mut sharded, &program);
        prop_assert_eq!(&expected, &from_sharded, "sharded");
    }
}
