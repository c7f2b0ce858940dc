//! Differential property tests for the set-ID renaming + out-of-order issue
//! layer, pinning the contract that scheduling changes *when* instructions
//! execute, never *what* they cost or compute:
//!
//! 1. **Agreement** — random programs run at (rename off, depth 1),
//!    (rename off, depth N) and (rename on, window M) must produce identical
//!    observable results, identical serial work counters (per-unit cycles,
//!    per-opcode counts, SMB traffic) and the bit-identical f64 energy sum.
//! 2. **Monotonicity** — the renamed makespan is non-increasing as the
//!    reorder window grows and as the physical-tag pool grows, and never
//!    exceeds the serial work total.
//! 3. **Stall accounting** — on every run, the renamed pipeline's
//!    `dep_stall_cycles` (true RAW) plus `false_dep_stalls_removed`
//!    reconstructs the rename-off run's dependence-stall report exactly,
//!    in total and per opcode.
//! 4. **Degeneration** — a reorder window without renaming is bit-identical
//!    to the in-order pipeline of the same depth, and rename-on at window 1
//!    still reproduces the serial work totals.

mod common;

use common::{binary, Step, A, B};
use proptest::prelude::*;
use sisa_core::scu::BinarySetOp::{Difference, Intersection, Union};
use sisa_core::Dest::{Count, InPlace, New};
use sisa_core::{ExecStats, SetEngine, SisaConfig, SisaRuntime};
use sisa_sets::Vertex;
use std::collections::BTreeSet;

const UNIVERSE: usize = 256;

fn vertex_set() -> impl Strategy<Value = BTreeSet<Vertex>> {
    common::vertex_set(UNIVERSE, 64)
}

/// The step kinds this suite draws, biased towards the temporary-recycling
/// patterns (materialise → read → delete → recreate) whose WAR/WAW hazards
/// the renaming layer exists to break: a materialising step reads its result
/// and deletes it, so the next one recycles the ID.
const KINDS: &[Step] = &[
    binary(Intersection, A, B, New),
    binary(Intersection, A, B, New),
    Step::TempUnion,
    Step::TempDifference,
    Step::CloneAndDelete,
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
    Step::HostOps(0),
];

fn step() -> impl Strategy<Value = Step> {
    common::step(UNIVERSE, KINDS)
}

/// Executes a workload over two seed sets (one sorted, one dense) on a fresh
/// runtime of the given configuration; returns the runtime and the observable
/// results. Statistics are reset after seeding so every configuration prices
/// the identical measured region.
fn run_steps(
    config: SisaConfig,
    a_members: &BTreeSet<Vertex>,
    b_members: &BTreeSet<Vertex>,
    steps: &[Step],
) -> (SisaRuntime, Vec<Vec<Vertex>>) {
    let mut rt = SisaRuntime::new(config);
    let program: Vec<Step> = [Step::ResetStats].iter().chain(steps).copied().collect();
    let observed = common::run_steps(&mut rt, UNIVERSE, a_members, b_members, &program);
    (rt, observed)
}

/// Strips the scheduling view (makespan, stall decomposition, bypasses) off
/// a statistics record, leaving only the serial work counters that every
/// configuration must conserve bit-for-bit.
fn work_only(stats: &ExecStats) -> ExecStats {
    let mut work = stats.clone();
    work.makespan_cycles = 0;
    work.dep_stall_cycles = 0;
    work.dep_stall_by_opcode.clear();
    work.false_dep_stalls_removed = 0;
    work.false_dep_removed_by_opcode.clear();
    work.bypassed_instructions = 0;
    work.bypass_by_opcode.clear();
    work
}

proptest! {
    /// (1) + (4) Serial, deep in-order and renamed runs agree on results,
    /// serial work counters and the exact f64 energy sum; a renamed run never
    /// schedules past the serial total.
    #[test]
    fn serial_deep_and_renamed_runs_agree_on_results_work_and_energy(
        a in vertex_set(),
        b in vertex_set(),
        steps in proptest::collection::vec(step(), 1..40),
    ) {
        let (serial, from_serial) = run_steps(SisaConfig::default(), &a, &b, &steps);
        let (deep, from_deep) = run_steps(SisaConfig::with_pipeline(8, 4), &a, &b, &steps);
        let (renamed, from_renamed) =
            run_steps(SisaConfig::with_rename_ooo(8, 4, 12, 48), &a, &b, &steps);

        prop_assert_eq!(&from_serial, &from_deep);
        prop_assert_eq!(&from_serial, &from_renamed);
        prop_assert_eq!(serial.live_sets(), renamed.live_sets());

        // Serial work counters — including the exact f64 energy sum — are
        // conserved by every scheduler.
        let reference = work_only(serial.stats());
        prop_assert_eq!(&work_only(deep.stats()), &reference);
        prop_assert_eq!(&work_only(renamed.stats()), &reference);
        prop_assert!(
            renamed.stats().energy_nj.to_bits() == serial.stats().energy_nj.to_bits(),
            "energy must be bit-identical, not approximately equal"
        );

        // The schedule can only shrink relative to serial work.
        prop_assert_eq!(serial.stats().makespan_cycles, serial.stats().total_cycles());
        prop_assert!(renamed.stats().makespan_cycles <= serial.stats().total_cycles());
        prop_assert!(renamed.stats().makespan_cycles <= deep.stats().makespan_cycles);
    }

    /// (2) The renamed makespan is monotone non-increasing in the reorder
    /// window and in the tag-pool size.
    #[test]
    fn renamed_makespan_is_monotone_in_window_and_tags(
        a in vertex_set(),
        b in vertex_set(),
        steps in proptest::collection::vec(step(), 1..30),
    ) {
        let mut last = u64::MAX;
        for window in [1usize, 2, 4, 8, 32] {
            let (rt, _) =
                run_steps(SisaConfig::with_rename_ooo(window, 4, window, 64), &a, &b, &steps);
            prop_assert!(
                rt.stats().makespan_cycles <= last,
                "makespan grew from {} to {} at window {}",
                last, rt.stats().makespan_cycles, window
            );
            last = rt.stats().makespan_cycles;
        }
        let mut last = u64::MAX;
        for tags in [1usize, 2, 8, 32, 128] {
            let (rt, _) =
                run_steps(SisaConfig::with_rename_ooo(8, 4, 8, tags), &a, &b, &steps);
            prop_assert!(
                rt.stats().makespan_cycles <= last,
                "makespan grew from {} to {} at {} tags",
                last, rt.stats().makespan_cycles, tags
            );
            last = rt.stats().makespan_cycles;
        }
    }

    /// (3) Stall-accounting invariant: true RAW + removed false dependences
    /// under rename-on reconstructs the rename-off dependence-stall report on
    /// the same program — exactly, in total and per opcode.
    #[test]
    fn stall_decomposition_reconstructs_the_rename_off_report(
        a in vertex_set(),
        b in vertex_set(),
        steps in proptest::collection::vec(step(), 1..40),
    ) {
        for (depth, lanes, window, tags) in
            [(1usize, 2usize, 4usize, 16usize), (4, 4, 4, 64), (8, 4, 16, 8)]
        {
            let (plain, _) = run_steps(SisaConfig::with_pipeline(depth, lanes), &a, &b, &steps);
            let (renamed, _) =
                run_steps(SisaConfig::with_rename_ooo(depth, lanes, window, tags), &a, &b, &steps);

            prop_assert_eq!(
                renamed.stats().dep_stall_cycles + renamed.stats().false_dep_stalls_removed,
                plain.stats().dep_stall_cycles,
                "total decomposition at depth {} window {} tags {}",
                depth, window, tags
            );
            let mut recombined = renamed.stats().dep_stall_by_opcode;
            for (op, n) in renamed.stats().false_dep_removed_by_opcode.iter() {
                recombined[op] += n;
            }
            prop_assert_eq!(
                &recombined,
                &plain.stats().dep_stall_by_opcode,
                "per-opcode decomposition at depth {} window {} tags {}",
                depth, window, tags
            );
        }
    }

    /// (4) A reorder window without renaming is the in-order pipeline of the
    /// same depth: the whole statistics record is equal, bypass counters
    /// included.
    #[test]
    fn reordering_without_renaming_is_the_in_order_pipeline(
        a in vertex_set(),
        b in vertex_set(),
        steps in proptest::collection::vec(step(), 1..30),
    ) {
        let (inorder, from_inorder) = run_steps(SisaConfig::with_pipeline(6, 4), &a, &b, &steps);
        let (windowed, from_windowed) =
            run_steps(SisaConfig::with_rename_ooo(1, 4, 6, 0), &a, &b, &steps);
        prop_assert_eq!(&from_inorder, &from_windowed);
        prop_assert_eq!(inorder.stats(), windowed.stats());
    }
}
