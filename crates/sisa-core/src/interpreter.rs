//! Replaying a captured trace against any [`SetEngine`].
//!
//! [`Interpreter::replay`] walks the events of a [`TraceSink`] and re-executes
//! each one on a target engine, translating the trace's set IDs to the IDs the
//! target engine allocates (a flat table indexed by trace ID). A binary event
//! carries its [`SetOp`] and replays as one [`SetEngine::apply`] call with the
//! operands rebound. Replaying a complete trace into a fresh
//! [`crate::SisaRuntime`] with the same configuration reproduces the original
//! run's [`crate::ExecStats`] cycle-for-cycle (the SCU's decisions depend only
//! on the set metadata, which the replayed operations rebuild identically);
//! replaying into a [`crate::HostEngine`] re-prices the same instruction
//! stream on the baseline CPU model instead.
//!
//! Replay routes through the same scoreboarded issue queue as live execution,
//! so a captured trace can also be *re-scheduled*: replaying into a runtime
//! configured with a deeper queue or more virtual lanes
//! ([`crate::SisaConfig::with_pipeline`]) conserves every work counter while
//! the overlapped makespan shrinks — the property `tests/pipeline_replay.rs`
//! pins on the checked-in triangle-count fixture.

use crate::engine::{SetEngine, SetOp};
use crate::slots::slot_mut;
use crate::trace::{TraceOp, TraceSink};
use sisa_isa::SetId;

/// Summary of one replay.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayReport {
    /// Number of trace events re-executed.
    pub events: usize,
    /// The subset of `events` that were SISA instructions.
    pub instructions: usize,
    /// Whether the trace covered the whole original run (a bounded sink may
    /// have dropped the tail; the replay is then a faithful prefix).
    pub complete: bool,
}

/// Replays captured traces against a [`SetEngine`].
#[derive(Clone, Copy, Debug, Default)]
pub struct Interpreter;

impl Interpreter {
    /// Re-executes every event of `trace` on `engine`.
    ///
    /// # Panics
    ///
    /// Panics if the trace references a set that was never created in it —
    /// which cannot happen for traces captured from the start of a
    /// [`crate::SisaRuntime`]'s life (a bounded sink only ever drops the
    /// *tail* of a run) — or if it assigns a set ID no smaller than its own
    /// event count, which such a trace never does either (IDs are minted
    /// densely from 0) and which keeps a malformed file from sizing the ID
    /// table.
    pub fn replay<E: SetEngine>(trace: &TraceSink, engine: &mut E) -> ReplayReport {
        // Trace ID → the ID this engine assigned, indexed by raw trace ID.
        let mut ids = IdMap {
            local: Vec::new(),
            limit: trace.events().len(),
        };
        let mut instructions = 0usize;
        for event in trace.events() {
            if event.instruction.is_some() {
                instructions += 1;
            }
            match &event.op {
                TraceOp::SetUniverse { n } => engine.set_universe(*n),
                TraceOp::ResetStats => engine.reset_stats(),
                TraceOp::Create { id, repr } => {
                    let local = engine.create(repr.clone());
                    ids.bind(*id, local);
                }
                TraceOp::Clone { src, dst } => {
                    let local = engine.clone_set(ids.resolve(*src));
                    ids.bind(*dst, local);
                }
                TraceOp::Delete { id } => {
                    engine.delete(ids.unbind(*id));
                }
                TraceOp::Cardinality { id } => {
                    let _ = engine.cardinality(ids.resolve(*id));
                }
                TraceOp::Membership { id, v } => {
                    let _ = engine.contains(ids.resolve(*id), *v);
                }
                TraceOp::Insert { id, v } => {
                    let _ = engine.insert(ids.resolve(*id), *v);
                }
                TraceOp::Remove { id, v } => {
                    let _ = engine.remove(ids.resolve(*id), *v);
                }
                TraceOp::Binary { op, dst } => {
                    let outcome = engine.apply(SetOp {
                        a: ids.resolve(op.a),
                        b: ids.resolve(op.b),
                        ..*op
                    });
                    if let Some(dst) = dst {
                        ids.bind(*dst, outcome.set());
                    }
                }
                TraceOp::Members { id } => {
                    let _ = engine.members(ids.resolve(*id));
                }
                TraceOp::HostOps { n } => engine.host_ops(*n),
            }
        }
        ReplayReport {
            events: trace.events().len(),
            instructions,
            complete: trace.is_complete(),
        }
    }
}

/// Trace ID → the ID the target engine assigned, a flat table indexed by raw
/// trace ID.
struct IdMap {
    local: Vec<Option<SetId>>,
    /// The trace's event count. A run mints IDs densely from 0, at most one
    /// an event, so a genuine trace never assigns an ID this large — and a
    /// malformed file cannot make the table grow past it.
    limit: usize,
}

impl IdMap {
    fn bind(&mut self, traced: SetId, local: SetId) {
        assert!(
            (traced.0 as usize) < self.limit,
            "trace assigns set {traced}, more sets than it has events"
        );
        *slot_mut(&mut self.local, traced, None) = Some(local);
    }

    fn resolve(&self, id: SetId) -> SetId {
        self.local
            .get(id.0 as usize)
            .copied()
            .flatten()
            .unwrap_or_else(|| panic!("trace references unknown set {id}"))
    }

    /// Resolves `id` for the last time: the trace deletes it.
    fn unbind(&mut self, id: SetId) -> SetId {
        let local = self.resolve(id);
        self.local[id.0 as usize] = None;
        local
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SisaConfig;
    use crate::functional::FunctionalEngine;
    use crate::runtime::SisaRuntime;

    /// A small but representative workload: lifecycle, element ops, all three
    /// binary families with counting and in-place variants, queries, reads.
    fn run_workload<E: SetEngine>(engine: &mut E) {
        engine.set_universe(128);
        let a = engine.create_sorted([1, 2, 3, 40, 90]);
        let b = engine.create_dense([2, 3, 4, 80]);
        engine.reset_stats();
        let c = engine.intersect(a, b);
        let _ = engine.union_count(a, b);
        let d = engine.difference(b, a);
        engine.union_assign(c, d);
        engine.insert(c, 100);
        engine.remove(c, 2);
        let _ = engine.cardinality(c);
        let _ = engine.contains(c, 100);
        let _ = engine.members(c);
        engine.host_ops(17);
        let e = engine.clone_set(c);
        engine.delete(d);
        engine.delete(e);
    }

    #[test]
    fn replay_reproduces_exec_stats_cycle_for_cycle() {
        let mut original = SisaRuntime::new(SisaConfig::default());
        original.enable_default_trace();
        run_workload(&mut original);
        let trace = original.take_trace().unwrap();

        let mut replayed = SisaRuntime::new(SisaConfig::default());
        let report = Interpreter::replay(&trace, &mut replayed);
        assert!(report.complete);
        assert!(report.instructions > 0);
        assert_eq!(report.events, trace.len());
        assert_eq!(replayed.stats(), original.stats());
        assert_eq!(replayed.live_sets(), original.live_sets());
    }

    #[test]
    fn replay_reproduces_functional_state() {
        let mut original = SisaRuntime::new(SisaConfig::default());
        original.enable_default_trace();
        original.set_universe(64);
        let a = original.create_sorted([5, 6, 7]);
        let b = original.create_dense([6, 7, 8]);
        let c = original.intersect(a, b);
        let trace = original.take_trace().unwrap();

        let mut replayed = SisaRuntime::new(SisaConfig::default());
        Interpreter::replay(&trace, &mut replayed);
        // A fresh runtime allocates the same IDs for the same event order.
        assert_eq!(replayed.members(c), original.members(c));
    }

    #[test]
    #[should_panic(expected = "trace references unknown set")]
    fn an_unknown_or_deleted_set_faults_the_replay() {
        let mut original = SisaRuntime::new(SisaConfig::default());
        original.enable_default_trace();
        let a = original.create_sorted([1, 2]);
        original.delete(a);
        let mut trace = original.take_trace().unwrap();
        // The captured run is fine; a use after the delete is not.
        trace.record(None, TraceOp::Members { id: a });
        Interpreter::replay(&trace, &mut FunctionalEngine::new());
    }

    #[test]
    #[should_panic(expected = "more sets than it has events")]
    fn a_set_id_beyond_the_event_count_faults_instead_of_sizing_the_table() {
        let mut trace = TraceSink::default();
        trace.record(
            None,
            TraceOp::Create {
                id: SetId(u32::MAX),
                repr: sisa_sets::SetRepr::empty_sorted(),
            },
        );
        Interpreter::replay(&trace, &mut FunctionalEngine::new());
    }

    #[test]
    fn truncated_traces_replay_as_a_prefix() {
        let mut original = SisaRuntime::new(SisaConfig::default());
        original.enable_trace(3); // SetUniverse + two creates
        original.set_universe(32);
        let a = original.create_sorted([1]);
        let b = original.create_sorted([2]);
        let _ = original.intersect(a, b); // dropped
        let trace = original.take_trace().unwrap();
        assert!(!trace.is_complete());

        let mut replayed = SisaRuntime::new(SisaConfig::default());
        let report = Interpreter::replay(&trace, &mut replayed);
        assert!(!report.complete);
        assert_eq!(replayed.live_sets(), 2);
    }
}
