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

mod common;

use common::{binary, run_steps, Step, A, B};
use proptest::prelude::*;
use sisa_core::scu::BinarySetOp::{Difference, Intersection, Union};
use sisa_core::Dest::{Count, InPlace, New};
use sisa_core::{
    ExecStats, FunctionalEngine, HostEngine, Interpreter, SetEngine, SisaConfig, SisaRuntime,
};
use sisa_sets::Vertex;
use std::collections::BTreeSet;

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
            let mut serial_work = serial.stats().clone();
            let mut deep_work = deep.stats().clone();
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
}
