//! The SISA runtime: the simulated SISA platform behind [`SetEngine`].
//!
//! [`SisaRuntime`] keeps its sets in a [`FunctionalEngine`], which computes
//! every operation, and owns what prices them: the SCU and the issue queue,
//! plus a register file while a trace is attached.
//! Every operation flows through two stages, which touch disjoint state (so
//! their order within one operation is not observable; the binary
//! instructions dispatch first, because the issue stage names the set the
//! operation wrote):
//!
//! 1. **Issue** — the operation is materialised as a genuine
//!    [`sisa_isa::SisaInstruction`], the dynamic instruction count is
//!    recorded, and (when a [`TraceSink`] is attached and has room) the
//!    instruction plus its semantic payload are captured so the run can be
//!    replayed by [`crate::Interpreter`]. The trace is the only reader of an
//!    instruction's registers, so operands are mapped onto RISC-V registers
//!    through the [`crate::issue::RegisterFile`] binding table only while a
//!    trace is attached; attaching one starts an empty file (as a replayable
//!    trace starts with the runtime), and an untraced instruction names `x0`
//!    throughout.
//! 2. **Dispatch** — the runtime reads each operand's set metadata (its
//!    representation, cardinality and universe) off the stored set before
//!    the operation changes it; the SCU charges the SM lookups through the
//!    SMB, chooses SISA-PUM or SISA-PNM and merge vs. galloping (§8.2–§8.3)
//!    and returns a costed [`DispatchOutcome`]; the runtime absorbs the outcome's
//!    cycles/energy into the per-unit work counters and **enqueues** the
//!    instruction's latency, operand reads and result writes into the
//!    scoreboarded [`IssueQueue`], which computes where it lands on the
//!    overlapped timeline ([`ExecStats::makespan_cycles`], with operand
//!    hazards attributed to [`ExecStats::dep_stall_cycles`]). The operation
//!    is functionally executed by the store on the real set data so
//!    algorithms produce validated answers. At issue depth 1 (the default)
//!    the queue is fully serial and the makespan equals the serial work total
//!    cycle-for-cycle.
//!
//! Invalid set identifiers are programming errors and panic, mirroring how a
//! real SISA program would fault on a dangling set ID. Every operation goes
//! to the store before it issues or dispatches anything — to read its
//! operands' SM entries, or to run — so the fault comes from there, before
//! any statistic, register binding, trace event or set changes.

use crate::config::SisaConfig;
use crate::engine::{Dest, Outcome, SetEngine, SetOp};
use crate::functional::FunctionalEngine;
use crate::issue::RegisterFile;
use crate::metadata::SetMetadata;
use crate::parallel::TaskRecord;
use crate::pipeline::{IssueQueue, LaneKind};
use crate::scu::{DispatchOutcome, ExecutionTarget, Scu};
use crate::stats::ExecStats;
use crate::telemetry::{InstructionEvent, SharedCollector};
use crate::trace::{TraceOp, TraceSink};
use crate::Vertex;
use sisa_isa::{Register, SetId, SisaInstruction, SisaOpcode};
use sisa_sets::{RepresentationKind, SetRepr};

/// The SISA runtime (thin software layer + SCU + set storage).
#[derive(Clone, Debug)]
pub struct SisaRuntime {
    config: SisaConfig,
    scu: Scu,
    store: FunctionalEngine,
    stats: ExecStats,
    /// Both operand sizes of every binary operation, in operation order,
    /// while `SisaConfig::track_set_sizes` is on (Figure 9b).
    set_sizes: Vec<u32>,
    host_ops_pending: f64,
    task_mark: u64,
    /// The set-ID register bindings, kept only while a trace is attached.
    regs: Option<RegisterFile>,
    trace: Option<TraceSink>,
    pipeline: IssueQueue,
    collector: Option<SharedCollector>,
    telemetry_group: u32,
}

impl SisaRuntime {
    /// Creates a runtime with the given configuration. The vertex universe
    /// defaults to 0 and is usually set by [`crate::SetGraph::load`] or
    /// [`SetEngine::set_universe`].
    #[must_use]
    pub fn new(config: SisaConfig) -> Self {
        Self {
            config,
            scu: Scu::new(config.platform, config.variant_selection),
            store: FunctionalEngine::new(),
            stats: ExecStats::default(),
            set_sizes: Vec::new(),
            host_ops_pending: 0.0,
            task_mark: 0,
            regs: None,
            trace: None,
            pipeline: IssueQueue::new(config.issue_depth, config.resolved_issue_lanes()),
            collector: None,
            telemetry_group: 0,
        }
    }

    /// Creates a runtime with the default configuration.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(SisaConfig::default())
    }

    /// The runtime configuration.
    #[must_use]
    pub fn config(&self) -> &SisaConfig {
        &self.config
    }

    /// The SCU (exposed for harnesses that want its cost models; the SMB hit
    /// ratio is [`ExecStats::smb_hit_ratio`]).
    #[must_use]
    pub fn scu(&self) -> &Scu {
        &self.scu
    }

    /// The scoreboarded issue queue pricing instruction overlap.
    #[must_use]
    pub fn pipeline(&self) -> &IssueQueue {
        &self.pipeline
    }

    /// Both operand sizes of every binary operation since the runtime was
    /// made or its statistics were reset, in operation order (the Figure 9b
    /// histograms). Empty unless [`SisaConfig::track_set_sizes`] is on.
    #[must_use]
    pub fn processed_set_sizes(&self) -> &[u32] {
        &self.set_sizes
    }

    // -----------------------------------------------------------------------
    // Tracing
    // -----------------------------------------------------------------------

    /// Attaches a bounded [`TraceSink`] capturing up to `capacity` events;
    /// subsequent operations are recorded until [`SisaRuntime::take_trace`].
    /// The trace's instructions name registers of a binding table that
    /// starts empty here: its first bound set lands in `x1`.
    pub fn enable_trace(&mut self, capacity: usize) {
        self.trace = Some(TraceSink::bounded(capacity));
        self.regs = Some(RegisterFile::new());
    }

    /// Attaches a trace sink with the default capacity (and an empty
    /// register file, as [`SisaRuntime::enable_trace`]).
    pub fn enable_default_trace(&mut self) {
        self.trace = Some(TraceSink::default());
        self.regs = Some(RegisterFile::new());
    }

    /// The attached trace, if any.
    #[must_use]
    pub fn trace(&self) -> Option<&TraceSink> {
        self.trace.as_ref()
    }

    /// Detaches and returns the trace, stopping further recording and
    /// dropping the register file only the trace reads.
    pub fn take_trace(&mut self) -> Option<TraceSink> {
        self.regs = None;
        self.trace.take()
    }

    // -----------------------------------------------------------------------
    // Telemetry
    // -----------------------------------------------------------------------

    /// Attaches a telemetry collector; every subsequent timed work item is
    /// reported as an [`InstructionEvent`] tagged with `group` (the track
    /// group — shard index for sharded engines, 0 for a flat runtime).
    ///
    /// Collectors are strictly observers: attaching one never changes
    /// results, work counters, makespan or energy (pinned by proptest).
    /// Statistics resets restart the pipeline clock but keep the collector
    /// attached, so events recorded after a reset start again at cycle 0.
    pub fn attach_collector(&mut self, collector: SharedCollector, group: u32) {
        self.collector = Some(collector);
        self.telemetry_group = group;
    }

    /// Detaches the telemetry collector, if any.
    pub fn detach_collector(&mut self) -> Option<SharedCollector> {
        self.collector.take()
    }

    /// The attached telemetry collector, if any.
    #[must_use]
    pub fn collector(&self) -> Option<&SharedCollector> {
        self.collector.as_ref()
    }

    // -----------------------------------------------------------------------
    // Issue stage
    // -----------------------------------------------------------------------

    /// Materialises an `opcode` instruction, its operands bound through the
    /// register file by `bind` while a trace is attached to read them. An
    /// untraced instruction names `x0` throughout: only its opcode is read.
    fn materialise(
        &mut self,
        opcode: SisaOpcode,
        bind: impl FnOnce(&mut RegisterFile) -> SisaInstruction,
    ) -> SisaInstruction {
        match &mut self.regs {
            Some(regs) => bind(regs),
            None => SisaInstruction::new(opcode, Register::ZERO, Register::ZERO, Register::ZERO),
        }
    }

    /// Records the materialised instruction in the dynamic-count statistics
    /// and the trace, completing the issue stage. The payload is taken by
    /// value: every payload but a created set's contents is a few words, and
    /// a closure building it would keep its captures in memory across the
    /// call on the untraced path of every instruction (`create` records its
    /// own, lazily).
    fn issued(&mut self, instruction: SisaInstruction, op: TraceOp) {
        self.stats.record_instruction(instruction.opcode);
        if let Some(sink) = &mut self.trace {
            sink.record(Some(instruction), op);
        }
    }

    /// Records a host-side event (no SISA instruction) in the trace.
    fn host_event(&mut self, op: TraceOp) {
        if let Some(sink) = &mut self.trace {
            sink.record(None, op);
        }
    }

    /// Charges host scalar operations without recording a trace event (used
    /// where the charge is a sub-step of an already-traced operation). The
    /// whole cycles charged are enqueued as serial work on the issue queue's
    /// host resource: host work overlaps vault work but never itself.
    fn charge_host_ops(&mut self, n: u64) {
        self.host_ops_pending += n as f64 * self.config.host_op_cost;
        // The pending fraction is never negative, so truncation is its floor.
        let whole = self.host_ops_pending as u64;
        if whole >= 1 {
            self.stats.host_cycles += whole;
            self.host_ops_pending -= whole as f64;
            self.timeline(None, LaneKind::Host, whole, &[], &[]);
        }
    }

    // -----------------------------------------------------------------------
    // Dispatch stage internals
    // -----------------------------------------------------------------------

    /// Enqueues one timed work item into the scoreboarded issue queue and
    /// folds the schedule it lands on into the statistics: the overlapped
    /// makespan and any operand-hazard stall (attributed to `opcode` when
    /// the item is a SISA instruction).
    fn timeline(
        &mut self,
        opcode: Option<SisaOpcode>,
        kind: LaneKind,
        cycles: u64,
        reads: &[SetId],
        writes: &[SetId],
    ) {
        let landed = self.pipeline.issue(kind, cycles, reads, writes);
        self.stats.makespan_cycles = self.pipeline.makespan_cycles();
        if landed.dep_stall > 0 {
            self.stats.dep_stall_cycles += landed.dep_stall;
            if let Some(op) = opcode {
                self.stats.dep_stall_by_opcode[op] += landed.dep_stall;
            }
        }
        if let Some(collector) = &self.collector {
            collector.instruction(&InstructionEvent {
                group: self.telemetry_group,
                opcode,
                kind,
                lane: landed.lane,
                start: landed.start,
                finish: landed.finish,
                cycles,
                dep_stall: landed.dep_stall,
                in_flight: self.pipeline.in_flight(),
            });
        }
    }

    /// The SM entry of the stored set `id` as it is now: its kind, length
    /// and universe. Faults if `id` is not stored.
    fn entry(&self, id: SetId) -> SetMetadata {
        let repr = self.store.repr(id);
        SetMetadata {
            kind: repr.kind(),
            cardinality: repr.len(),
            universe: self.universe_of(repr),
            address: 0,
        }
    }

    fn element_update(&mut self, id: SetId, v: Vertex, opcode: SisaOpcode, insert: bool) -> bool {
        // The update is priced on the set as it was before it.
        let meta = self.entry(id);
        let changed = if insert {
            self.store.insert(id, v)
        } else {
            self.store.remove(id, v)
        };
        let instr = self.materialise(opcode, |regs| regs.issue_element(opcode, id));
        self.issued(
            instr,
            if insert {
                TraceOp::Insert { id, v }
            } else {
                TraceOp::Remove { id, v }
            },
        );
        let outcome = self.scu.dispatch_element(id, &meta);
        self.apply_outcome(&outcome, None);
        // An element update reads and rewrites its set.
        self.timeline(
            Some(opcode),
            LaneKind::Vault,
            outcome.latency(),
            &[id],
            &[id],
        );
        changed
    }

    /// Dispatches a metadata-only SCU operation, absorbing its cost into the
    /// work counters and returning its latency for the caller's issue-queue
    /// entry.
    fn dispatch_metadata(&mut self, ids: &[SetId]) -> u64 {
        let outcome = self.scu.dispatch_metadata(ids);
        self.apply_outcome(&outcome, None);
        outcome.latency()
    }

    fn apply_outcome(
        &mut self,
        outcome: &DispatchOutcome,
        choice: Option<crate::scu::ExecutionChoice>,
    ) {
        self.stats.scu_cycles += outcome.scu_cycles;
        self.stats.smb_hits += outcome.smb_hits;
        self.stats.smb_misses += outcome.smb_misses;
        self.stats.energy_nj += outcome.energy_nj;
        match outcome.choice.target() {
            ExecutionTarget::Pum => self.stats.pum_cycles += outcome.exec_cycles,
            ExecutionTarget::Pnm => self.stats.pnm_cycles += outcome.exec_cycles,
        }
        if let Some(choice) = choice {
            match choice {
                crate::scu::ExecutionChoice::PumBulk(_) => self.stats.pum_ops += 1,
                crate::scu::ExecutionChoice::PnmMerge => {
                    self.stats.pnm_ops += 1;
                    self.stats.merge_selected += 1;
                }
                crate::scu::ExecutionChoice::PnmGalloping => {
                    self.stats.pnm_ops += 1;
                    self.stats.gallop_selected += 1;
                }
                _ => self.stats.pnm_ops += 1,
            }
        }
    }

    fn universe_of(&self, repr: &SetRepr) -> usize {
        match repr {
            SetRepr::Dense(d) => d.universe(),
            _ => self.store.universe(),
        }
    }
}

impl SetEngine for SisaRuntime {
    fn backend_name(&self) -> &'static str {
        "sisa"
    }

    fn set_universe(&mut self, n: usize) {
        self.store.set_universe(n);
        self.host_event(TraceOp::SetUniverse { n });
    }

    fn universe(&self) -> usize {
        self.store.universe()
    }

    fn stats(&self) -> &ExecStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = ExecStats::default();
        self.set_sizes.clear();
        self.host_ops_pending = 0.0;
        self.task_mark = 0;
        // The load/measure boundary restarts the overlap timeline too.
        self.pipeline.reset();
        self.host_event(TraceOp::ResetStats);
    }

    fn live_sets(&self) -> usize {
        self.store.live_sets()
    }

    // -----------------------------------------------------------------------
    // Set lifecycle
    // -----------------------------------------------------------------------

    fn create(&mut self, repr: SetRepr) -> SetId {
        let id = self.store.create(repr);
        let opcode = SisaOpcode::CreateSet;
        let instr = self.materialise(opcode, |regs| regs.issue_lifecycle(opcode, None, Some(id)));
        // The set contents are cloned into the trace only if it keeps them.
        self.stats.record_instruction(opcode);
        if let Some(sink) = &mut self.trace {
            let store = &self.store;
            sink.record_with(Some(instr), || TraceOp::Create {
                id,
                repr: store.repr(id).clone(),
            });
        }
        // The create instruction's own metadata lookup precedes the SMB prime:
        // the SCU only writes the SMB entry once the set exists.
        let latency = self.dispatch_metadata(&[id]);
        self.timeline(Some(opcode), LaneKind::Vault, latency, &[], &[id]);
        self.scu.prime(id);
        id
    }

    fn clone_set(&mut self, id: SetId) -> SetId {
        let new_id = self.store.clone_set(id);
        // Cloning physically copies the set's storage.
        let repr = self.store.repr(new_id);
        let cost = match repr.kind() {
            RepresentationKind::DenseBitvector => self
                .scu
                .pum_model()
                .bulk_op_cost(sisa_pim::pum::BulkOp::Or, self.universe_of(repr)),
            _ => self.scu.streaming_cost(repr.len(), 0),
        };
        let opcode = SisaOpcode::CloneSet;
        let instr = self.materialise(opcode, |regs| {
            regs.issue_lifecycle(opcode, Some(id), Some(new_id))
        });
        self.issued(
            instr,
            TraceOp::Clone {
                src: id,
                dst: new_id,
            },
        );
        let latency = self.dispatch_metadata(&[id, new_id]) + cost;
        self.scu.prime(new_id);
        self.stats.pnm_cycles += cost;
        // The physical copy reads the source and produces the clone.
        self.timeline(Some(opcode), LaneKind::Vault, latency, &[id], &[new_id]);
        new_id
    }

    fn delete(&mut self, id: SetId) {
        // The store faults on a double delete before the statistics or the
        // binding table change.
        self.store.delete(id);
        let opcode = SisaOpcode::DeleteSet;
        let instr = self.materialise(opcode, |regs| regs.issue_lifecycle(opcode, Some(id), None));
        self.issued(instr, TraceOp::Delete { id });
        let latency = self.dispatch_metadata(&[id]);
        // Deletion writes the set's slot: WAR/WAW hazards keep it behind
        // every in-flight use of the set, and a later create recycling the
        // ID stays behind the delete.
        self.timeline(Some(opcode), LaneKind::Vault, latency, &[], &[id]);
        self.scu.invalidate(id);
        if let Some(regs) = &mut self.regs {
            regs.release(id);
        }
    }

    // -----------------------------------------------------------------------
    // Queries
    // -----------------------------------------------------------------------

    fn cardinality(&mut self, id: SetId) -> usize {
        let len = self.store.cardinality(id);
        let opcode = SisaOpcode::Cardinality;
        let instr = self.materialise(opcode, |regs| regs.issue_lifecycle(opcode, Some(id), None));
        self.issued(instr, TraceOp::Cardinality { id });
        let latency = self.dispatch_metadata(&[id]);
        self.timeline(Some(opcode), LaneKind::Vault, latency, &[id], &[]);
        len
    }

    fn contains(&mut self, id: SetId, v: Vertex) -> bool {
        let meta = self.entry(id);
        let hit = self.store.contains(id, v);
        let opcode = SisaOpcode::Membership;
        let instr = self.materialise(opcode, |regs| regs.issue_element(opcode, id));
        self.issued(instr, TraceOp::Membership { id, v });
        let outcome = self.scu.dispatch_element(id, &meta);
        self.apply_outcome(&outcome, None);
        self.timeline(Some(opcode), LaneKind::Vault, outcome.latency(), &[id], &[]);
        hit
    }

    fn members(&mut self, id: SetId) -> Vec<Vertex> {
        let members = self.store.members(id);
        // Result extraction streams the set out of memory through the PNM
        // (dense bitvectors stream their whole bitmap, sparse arrays their
        // elements) and then hands each element to the host.
        let stream_elems = match self.store.repr(id) {
            SetRepr::Dense(d) => d.universe().div_ceil(32),
            _ => members.len(),
        };
        let stream_cost = self.scu.streaming_cost(stream_elems, 0);
        self.stats.pnm_cycles += stream_cost;
        // The read-out streams the set through a vault lane (a read hazard on
        // the set); the per-element host hand-off below lands on the host
        // resource via `charge_host_ops`.
        self.timeline(None, LaneKind::Vault, stream_cost, &[id], &[]);
        self.host_event(TraceOp::Members { id });
        // Charged without a separate trace event: replaying `Members` already
        // re-executes this per-element host iteration.
        self.charge_host_ops(members.len() as u64);
        members
    }

    fn repr(&self, id: SetId) -> &SetRepr {
        self.store.repr(id)
    }

    // -----------------------------------------------------------------------
    // Element updates
    // -----------------------------------------------------------------------

    fn insert(&mut self, id: SetId, v: Vertex) -> bool {
        self.element_update(id, v, SisaOpcode::InsertElement, true)
    }

    fn remove(&mut self, id: SetId, v: Vertex) -> bool {
        self.element_update(id, v, SisaOpcode::RemoveElement, false)
    }

    // -----------------------------------------------------------------------
    // Binary set operations
    // -----------------------------------------------------------------------

    crate::engine::named_binary_ops!();

    /// Every form takes the same steps in the same order: read the operands'
    /// SM entries off the store (so a dangling operand faults before anything
    /// changes, and an in-place form is priced on `A` before it), compute in
    /// the store, SCU dispatch, issue, timeline. The forms differ in the
    /// kernel that computes and in what is written — a new set, nothing, or
    /// `A` itself (`rd = rs1`).
    fn apply(&mut self, op: SetOp) -> Outcome {
        let (kind, a, b, dest) = (op.op, op.a, op.b, op.dest);
        let (ma, mb) = (self.entry(a), self.entry(b));
        let outcome = self.store.apply(op);
        let dispatched = self
            .scu
            .dispatch_binary(kind, dest == Dest::Count, a, &ma, b, &mb);
        if self.config.track_set_sizes {
            self.set_sizes.push(ma.cardinality as u32);
            self.set_sizes.push(mb.cardinality as u32);
        }
        self.apply_outcome(&dispatched, Some(dispatched.choice));
        let written = match outcome {
            Outcome::Count(_) => None,
            Outcome::Set(id) => {
                if dest == Dest::New {
                    self.scu.prime(id);
                }
                Some(id)
            }
        };
        let opcode = op.opcode();
        let instr = self.materialise(opcode, |regs| regs.issue_binary(opcode, a, b, written));
        self.issued(
            instr,
            TraceOp::Binary {
                op,
                dst: written.filter(|_| dest == Dest::New),
            },
        );
        self.timeline(
            Some(opcode),
            LaneKind::Vault,
            dispatched.latency(),
            &[a, b],
            written.as_slice(),
        );
        outcome
    }

    // -----------------------------------------------------------------------
    // Host-side accounting and task boundaries
    // -----------------------------------------------------------------------

    fn host_ops(&mut self, n: u64) {
        self.host_event(TraceOp::HostOps { n });
        self.charge_host_ops(n);
    }

    fn absorb_lane_work(&mut self, cycles: u64, writes: &[SetId]) {
        // Externally billed cycles (cross-shard link transfers) occupy a
        // vault lane on the overlap timeline but charge no work counters
        // here — the composite wrapper owns those. The write set keeps
        // consumers of whatever the work delivers behind it. It names local
        // sets, and the timeline's tables are indexed by ID: a foreign ID
        // faults in the store instead of sizing one.
        for &id in writes {
            let _ = self.store.repr(id);
        }
        if cycles > 0 {
            self.timeline(None, LaneKind::Vault, cycles, &[], writes);
        }
    }

    fn task_begin(&mut self) {
        self.task_mark = self.stats.total_cycles();
    }

    fn task_end(&mut self) -> TaskRecord {
        // SISA tasks carry no separate stall/DRAM component: the PIM cost
        // models already include memory time and PNM bandwidth scales with
        // the vault count (§8.4).
        TaskRecord::compute_only(self.stats.total_cycles() - self.task_mark)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runtime() -> SisaRuntime {
        let mut rt = SisaRuntime::with_defaults();
        rt.set_universe(256);
        rt
    }

    #[test]
    fn create_query_delete_lifecycle() {
        let mut rt = runtime();
        let a = rt.create_sorted([1, 5, 9]);
        assert_eq!(rt.cardinality(a), 3);
        assert!(rt.contains(a, 5));
        assert!(!rt.contains(a, 6));
        assert_eq!(rt.members(a), vec![1, 5, 9]);
        assert_eq!(rt.live_sets(), 1);
        rt.delete(a);
        assert_eq!(rt.live_sets(), 0);
        // The freed ID is reused.
        let b = rt.create_sorted([2]);
        assert_eq!(b, a);
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn using_a_deleted_set_panics() {
        let mut rt = runtime();
        let a = rt.create_sorted([1]);
        rt.delete(a);
        let _ = rt.repr(a);
    }

    #[test]
    fn double_delete_panics_without_corrupting_instruction_counts() {
        let mut rt = runtime();
        let a = rt.create_sorted([1, 2]);
        rt.delete(a);
        let counts_before = rt.stats().instructions;
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            rt.delete(a);
        }));
        assert!(outcome.is_err(), "double delete must fault");
        // The faulting delete must not have been counted as executed.
        assert_eq!(rt.stats().instructions, counts_before);
    }

    #[test]
    fn dangling_operands_fault_before_any_stats_or_binding_mutation() {
        let mut rt = runtime();
        // Registers are bound only while a trace is attached.
        rt.enable_default_trace();
        let live = rt.create_sorted([1, 2, 3]);
        let dead = rt.create_sorted([4, 5]);
        rt.delete(dead);

        let ops: [&mut dyn FnMut(&mut SisaRuntime); 4] = [
            &mut |p| {
                let _ = p.intersect_count(live, dead);
            },
            &mut |p| {
                let _ = p.union_count(dead, live);
            },
            &mut |p| p.difference_assign(live, dead),
            &mut |p| {
                let _ = p.cardinality(dead);
            },
        ];
        let bound = |p: &SisaRuntime| p.regs.as_ref().expect("traced").bound();
        assert_eq!(bound(&rt), 1, "the live set stays bound");
        for f in ops {
            let mut probe = rt.clone();
            let stats_before = *probe.stats();
            let bound_before = bound(&probe);
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(&mut probe)));
            assert!(outcome.is_err(), "dangling operand must fault");
            // The faulting operation must not have been counted or have bound
            // the dead ID into the register file.
            assert_eq!(probe.stats(), &stats_before);
            assert_eq!(bound(&probe), bound_before);
        }
    }

    // Registers belong to the trace. The tests below were seen to fail
    // under each of these mutations of this file:
    //
    // * binding while untraced: `new` starting with `regs:
    //   Some(RegisterFile::new())` and `take_trace` keeping the file
    //   (`an_untraced_runtime_holds_no_register_file`);
    // * not resetting the file on enable: `enable_trace` and
    //   `enable_default_trace` taking `regs.get_or_insert_with(..)`, which
    //   keeps an attached trace's bindings
    //   (`a_trace_attached_mid_run_starts_with_an_empty_register_file`).
    //
    // A trace recorded from creation names the registers it always did:
    // `tests/trace_fixture.rs` compares a fresh capture's events, registers
    // included, with the checked-in `tests/fixtures/triangle_count_trace.json`.

    /// A mixed program touching every instruction form.
    fn mixed_program(rt: &mut SisaRuntime) -> SetId {
        let a = rt.create_sorted([1, 2, 3, 8]);
        let b = rt.create_dense([2, 3, 4]);
        let c = rt.union(a, b);
        let d = rt.clone_set(c);
        rt.intersect_assign(d, a);
        let _ = rt.difference_count(c, d);
        rt.insert(c, 17);
        rt.remove(c, 2);
        let _ = rt.contains(a, 3);
        let _ = rt.cardinality(c);
        let _ = rt.members(b);
        rt.delete(d);
        c
    }

    /// The register naming the first set operand of every traced
    /// instruction that has one.
    fn first_operands(trace: &TraceSink) -> Vec<Register> {
        let program = trace.program();
        program
            .instructions()
            .iter()
            .filter(|i| i.opcode != SisaOpcode::CreateSet)
            .map(|i| i.rs1)
            .collect()
    }

    #[test]
    fn an_untraced_runtime_holds_no_register_file() {
        let mut rt = runtime();
        let _ = mixed_program(&mut rt);
        assert!(rt.regs.is_none(), "no trace, no register bindings");
        rt.enable_trace(0);
        assert_eq!(rt.regs.as_ref().map(RegisterFile::bound), Some(0));
        let _ = rt.take_trace();
        assert!(rt.regs.is_none(), "taking the trace drops its registers");
    }

    #[test]
    fn a_trace_attached_mid_run_starts_with_an_empty_register_file() {
        let x1 = Register::new(1);
        let mut rt = runtime();
        let c = mixed_program(&mut rt);
        // `c` is the third set created; an empty file binds it first, to x1.
        rt.enable_default_trace();
        let _ = rt.cardinality(c);
        assert_eq!(first_operands(rt.trace().unwrap()), [x1]);
        // Attaching a new trace over a live one empties the file again, so
        // a set other than `c` now takes x1.
        let a = rt.create_sorted([5, 6]);
        let _ = rt.intersect_count(c, a);
        rt.enable_default_trace();
        let _ = rt.cardinality(a);
        assert_eq!(first_operands(rt.trace().unwrap()), [x1]);
        assert_eq!(rt.regs.as_ref().map(RegisterFile::bound), Some(1));
    }

    #[test]
    fn take_trace_then_enable_trace_starts_the_register_file_empty() {
        let x1 = Register::new(1);
        let mut rt = runtime();
        rt.enable_default_trace();
        let c = mixed_program(&mut rt);
        let first = rt.take_trace().unwrap();
        // Three sets are live, so the traced program names more than x1.
        assert!(first_operands(&first).iter().any(|&r| r != x1));
        let e = rt.create_sorted([9]);
        rt.enable_trace(16);
        let _ = rt.intersect_count(e, c);
        let second = rt.take_trace().unwrap();
        let int = second.program().instructions()[0];
        assert_eq!((int.rs1, int.rs2), (x1, Register::new(2)));
    }

    #[test]
    fn set_algebra_is_correct_across_representations() {
        let mut rt = runtime();
        let sparse = rt.create_sorted([1, 2, 3, 10, 20]);
        let dense = rt.create_dense([2, 10, 30, 40]);
        let inter = rt.intersect(sparse, dense);
        assert_eq!(rt.members(inter), vec![2, 10]);
        let uni = rt.union(sparse, dense);
        assert_eq!(rt.members(uni), vec![1, 2, 3, 10, 20, 30, 40]);
        let diff = rt.difference(sparse, dense);
        assert_eq!(rt.members(diff), vec![1, 3, 20]);
        assert_eq!(rt.intersect_count(sparse, dense), 2);
        assert_eq!(rt.union_count(sparse, dense), 7);
        assert_eq!(rt.difference_count(sparse, dense), 3);
    }

    #[test]
    fn dense_minus_sparse_ignores_members_outside_the_dense_universe() {
        let mut rt = runtime();
        let dense = rt.create(SetRepr::dense_from(32, [1, 2]));
        let sparse = rt.create_sorted([2, 40]);
        let diff = rt.difference(dense, sparse);
        assert_eq!(rt.members(diff), vec![1]);
        rt.difference_assign(dense, sparse);
        assert_eq!(rt.members(dense), vec![1]);
        assert_eq!(rt.cardinality(dense), 1);
    }

    #[test]
    fn dense_union_sparse_holds_members_outside_the_dense_universe() {
        let mut rt = runtime();
        let dense = rt.create(SetRepr::dense_from(8, [1, 3]));
        let sparse = rt.create_sorted([3, 9]);
        for (a, b) in [(dense, sparse), (sparse, dense)] {
            let issued = rt.stats().total_instructions();
            let union = rt.union(a, b);
            assert_eq!(rt.stats().total_instructions(), issued + 1);
            assert_eq!(rt.members(union), vec![1, 3, 9]);
            assert_eq!(rt.union_count(a, b), 3);
        }
        rt.union_assign(dense, sparse);
        assert_eq!(rt.members(dense), vec![1, 3, 9]);
        assert_eq!(rt.cardinality(dense), 3);
    }

    #[test]
    fn in_place_operations_mutate_their_first_argument() {
        let mut rt = runtime();
        let a = rt.create_dense([1, 2, 3, 4]);
        let b = rt.create_dense([3, 4, 5]);
        rt.intersect_assign(a, b);
        assert_eq!(rt.members(a), vec![3, 4]);
        rt.union_assign(a, b);
        assert_eq!(rt.members(a), vec![3, 4, 5]);
        rt.difference_assign(a, b);
        assert!(rt.members(a).is_empty());
    }

    #[test]
    fn sm_entries_follow_the_stored_set() {
        let mut rt = runtime();
        let a = rt.create_sorted([1, 2, 3]);
        let b = rt.create_dense([3, 4]);
        let entry = |rt: &SisaRuntime, id| {
            let m = rt.entry(id);
            (m.kind, m.cardinality, m.universe, m.address)
        };
        assert_eq!(entry(&rt, a), (RepresentationKind::SortedArray, 3, 256, 0));
        assert_eq!(
            entry(&rt, b),
            (RepresentationKind::DenseBitvector, 2, 256, 0)
        );
        rt.insert(a, 9);
        assert_eq!(entry(&rt, a).1, 4);
        // A sorted array united with a bitvector becomes a bitvector.
        rt.union_assign(a, b);
        assert_eq!(
            entry(&rt, a),
            (RepresentationKind::DenseBitvector, 5, 256, 0)
        );
        let c = rt.clone_set(a);
        assert_eq!(entry(&rt, c), entry(&rt, a));
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn the_entry_of_a_deleted_set_faults() {
        let mut rt = runtime();
        let a = rt.create_sorted([1]);
        rt.delete(a);
        let _ = rt.entry(a);
    }

    // An operation is priced on its operands as they were before it. The
    // test below was seen to fail when `element_update` read the entry after
    // `store.insert` / `store.remove`, and when `apply` read the operands'
    // entries after `store.apply`.

    /// The PNM cycles `f` charges.
    fn pnm_charge(rt: &mut SisaRuntime, f: impl FnOnce(&mut SisaRuntime)) -> u64 {
        let before = rt.stats().pnm_cycles;
        f(rt);
        rt.stats().pnm_cycles - before
    }

    #[test]
    fn updates_are_priced_on_the_set_before_them() {
        let pnm = sisa_pim::PnmModel::new(SisaConfig::default().platform.pnm);
        let element = |len: usize| pnm.element_update_cost() + pnm.streaming_cost(len / 2, 0);
        let mut rt = SisaRuntime::with_defaults();
        rt.set_universe(4_096);
        // 1 001 members: half the length moves from 500 to 501 on an insert
        // and back on a remove, so a read after the update prices another
        // shift.
        let a = rt.create_sorted((0..1_001).map(|v| v * 2));
        assert_ne!(element(1_001), element(1_002));
        assert_eq!(
            pnm_charge(&mut rt, |rt| assert!(rt.insert(a, 1))),
            element(1_001)
        );
        assert_eq!(
            pnm_charge(&mut rt, |rt| assert!(rt.remove(a, 1))),
            element(1_002)
        );

        // `A ∩= B` shrinks `A` from 2 000 members to 10: priced at 2 000.
        let a = rt.create_sorted(0..2_000);
        let b = rt.create_sorted(0..10);
        let sparse =
            |x: usize, y: usize| pnm.streaming_cost(x, y).min(pnm.random_access_cost(x, y));
        assert_ne!(sparse(2_000, 10), sparse(10, 10));
        assert_eq!(
            pnm_charge(&mut rt, |rt| rt.intersect_assign(a, b)),
            sparse(2_000, 10)
        );
        assert_eq!(rt.cardinality(a), 10);
    }

    #[test]
    fn a_sparse_set_is_priced_in_the_current_universe() {
        // A sparse set's SM universe is the store's universe when it is
        // priced, not when it was created: grown after both operands exist,
        // it sizes the dense operand's bit probes in an SA ∩ DB.
        let pnm = sisa_pim::PnmModel::new(SisaConfig::default().platform.pnm);
        let mut rt = runtime();
        let sparse = rt.create_sorted([1, 2, 3]);
        let dense = rt.create_dense([2, 3]);
        rt.set_universe(1 << 20);
        assert_ne!(pnm.probe_cost(3, 1 << 20), pnm.probe_cost(3, 256));
        let charged = pnm_charge(&mut rt, |rt| {
            assert_eq!(rt.intersect_count(sparse, dense), 2)
        });
        assert_eq!(charged, pnm.probe_cost(3, 1 << 20));
    }

    #[test]
    fn insert_and_remove_update_metadata() {
        let mut rt = runtime();
        let a = rt.create_dense([1]);
        assert!(rt.insert(a, 7));
        assert!(!rt.insert(a, 7));
        assert_eq!(rt.cardinality(a), 2);
        assert!(rt.remove(a, 1));
        assert_eq!(rt.cardinality(a), 1);
    }

    #[test]
    fn clone_produces_an_independent_set() {
        let mut rt = runtime();
        let a = rt.create_sorted([1, 2]);
        let b = rt.clone_set(a);
        assert_ne!(a, b);
        rt.insert(b, 3);
        assert_eq!(rt.members(a), vec![1, 2]);
        assert_eq!(rt.members(b), vec![1, 2, 3]);
    }

    #[test]
    fn cycles_accumulate_and_split_by_unit() {
        let mut rt = runtime();
        let a = rt.create_dense((0..200).collect::<Vec<_>>());
        let b = rt.create_dense((100..256).collect::<Vec<_>>());
        let s = rt.create_sorted([1, 2, 3]);
        let _ = rt.intersect(a, b); // PUM
        let _ = rt.intersect(s, a); // PNM probe
        let stats = rt.stats();
        assert!(stats.pum_cycles > 0);
        assert!(stats.pnm_cycles > 0);
        assert!(stats.scu_cycles > 0);
        assert_eq!(stats.pum_ops, 1);
        assert_eq!(stats.pnm_ops, 1);
        assert!(stats.energy_nj > 0.0);
        assert!(stats.total_instructions() >= 5);
    }

    #[test]
    fn members_charges_pnm_streaming_for_result_extraction() {
        let mut rt = runtime();
        let sparse = rt.create_sorted((0..200).collect::<Vec<_>>());
        let dense = rt.create_dense((0..200).collect::<Vec<_>>());
        for id in [sparse, dense] {
            let before = *rt.stats();
            let out = rt.members(id);
            assert_eq!(out.len(), 200);
            let after = rt.stats();
            assert!(
                after.pnm_cycles > before.pnm_cycles,
                "reading a set out must charge PNM streaming cycles"
            );
            assert!(
                after.host_cycles > before.host_cycles,
                "per-element host iteration must still be charged"
            );
        }
    }

    #[test]
    fn task_boundaries_measure_deltas() {
        let mut rt = runtime();
        let a = rt.create_dense([1, 2, 3]);
        let b = rt.create_dense([2, 3, 4]);
        rt.task_begin();
        let _ = rt.intersect(a, b);
        let t1 = rt.task_end();
        assert!(t1.cycles > 0);
        assert_eq!(t1.stall_cycles, 0);
        rt.task_begin();
        let t2 = rt.task_end();
        assert_eq!(t2.cycles, 0);
    }

    #[test]
    fn set_size_tracking_records_operand_sizes() {
        let mut rt = SisaRuntime::new(SisaConfig::with_set_size_tracking());
        rt.set_universe(64);
        let a = rt.create_sorted([1, 2, 3]);
        let b = rt.create_sorted([2, 3]);
        let _ = rt.intersect_count(a, b);
        assert_eq!(rt.processed_set_sizes(), [3, 2]);
        rt.reset_stats();
        assert!(rt.processed_set_sizes().is_empty());
    }

    #[test]
    fn host_ops_accumulate_fractionally() {
        let mut rt = runtime();
        rt.host_ops(1); // 0.5 cycles -> pending
        assert_eq!(rt.stats().host_cycles, 0);
        rt.host_ops(1); // reaches 1.0
        assert_eq!(rt.stats().host_cycles, 1);
    }

    #[test]
    fn depth_one_makespan_equals_the_serial_work_total() {
        // The default configuration issues serially (depth 1): every charged
        // cycle lands end-to-end on the timeline, so the overlapped makespan
        // degenerates to the serial total and no dependence stall is exposed.
        let mut rt = runtime();
        let a = rt.create_dense((0..100).collect::<Vec<_>>());
        let b = rt.create_dense((50..150).collect::<Vec<_>>());
        let c = rt.intersect(a, b);
        let _ = rt.intersect_count(c, a);
        let _ = rt.members(a);
        rt.insert(c, 200);
        rt.host_ops(11);
        rt.delete(c);
        let stats = rt.stats();
        assert!(stats.total_cycles() > 0);
        assert_eq!(stats.makespan_cycles, stats.total_cycles());
        assert_eq!(stats.dep_stall_cycles, 0);
        assert!(stats.dep_stall_by_opcode.is_empty());
        assert!((stats.overlap_speedup() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deeper_queues_overlap_independent_instructions() {
        // Counting intersections over pairwise-disjoint operand sets carry no
        // hazards: with lanes and depth available they overlap, and the work
        // counters (incl. energy) stay exactly the serial totals.
        let run = |config: SisaConfig| {
            let mut rt = SisaRuntime::new(config);
            rt.set_universe(512);
            let sets: Vec<SetId> = (0..16u32)
                .map(|i| rt.create_sorted((i * 32..i * 32 + 30).collect::<Vec<_>>()))
                .collect();
            rt.reset_stats();
            for pair in sets.chunks(2) {
                let _ = rt.intersect_count(pair[0], pair[1]);
            }
            rt
        };
        let serial = run(SisaConfig::default());
        let deep = run(SisaConfig::with_pipeline(16, 8));
        assert_eq!(
            serial.stats().total_cycles(),
            deep.stats().total_cycles(),
            "work is conserved across issue depths"
        );
        assert_eq!(serial.stats().energy_nj, deep.stats().energy_nj);
        assert_eq!(serial.stats().instructions, deep.stats().instructions);
        assert!(
            deep.stats().makespan_cycles < serial.stats().makespan_cycles,
            "independent instructions must overlap: {} !< {}",
            deep.stats().makespan_cycles,
            serial.stats().makespan_cycles
        );
        assert!(deep.stats().overlap_speedup() > 1.0);
    }

    #[test]
    fn dependent_instructions_stall_with_the_wait_attributed_per_opcode() {
        let mut rt = SisaRuntime::new(SisaConfig::with_pipeline(16, 8));
        rt.set_universe(256);
        let a = rt.create_sorted((0..64).collect::<Vec<_>>());
        let b = rt.create_sorted((32..96).collect::<Vec<_>>());
        rt.reset_stats();
        let c = rt.intersect(a, b); // writes c
        let _ = rt.intersect_count(c, a); // RAW on c: must wait
        let stats = rt.stats();
        assert!(stats.dep_stall_cycles > 0, "the RAW hazard must stall");
        assert!(
            stats.dep_stall_by_opcode[&SisaOpcode::IntersectCountAuto] > 0,
            "the stall is attributed to the stalled instruction's opcode"
        );
        assert!(stats.makespan_cycles <= stats.total_cycles());
    }

    #[test]
    fn reset_stats_restarts_the_overlap_timeline() {
        let mut rt = SisaRuntime::new(SisaConfig::pipelined(8));
        rt.set_universe(128);
        let a = rt.create_sorted([1, 2, 3]);
        let b = rt.create_sorted([2, 3, 4]);
        let _ = rt.intersect_count(a, b);
        assert!(rt.stats().makespan_cycles > 0);
        rt.reset_stats();
        assert_eq!(rt.stats().makespan_cycles, 0);
        assert_eq!(rt.pipeline().issued(), 0);
        // Work after the boundary starts a fresh timeline at cycle 0.
        let _ = rt.intersect_count(a, b);
        assert!(rt.stats().makespan_cycles <= rt.stats().total_cycles());
    }

    #[test]
    fn absorbed_lane_work_occupies_the_timeline_but_charges_no_counters() {
        let mut rt = runtime();
        let before = *rt.stats();
        rt.absorb_lane_work(1_000, &[]);
        let after = rt.stats();
        assert_eq!(after.total_cycles(), before.total_cycles());
        assert_eq!(after.total_instructions(), before.total_instructions());
        assert_eq!(
            after.makespan_cycles,
            before.makespan_cycles + 1_000,
            "at depth 1 the absorbed wait serialises onto the timeline"
        );
    }

    #[test]
    fn absorbed_lane_work_faults_on_a_set_that_does_not_exist() {
        // At depth 1 the queue keeps no hazard state at all, so the hazard
        // check below has teeth only on a deeper queue.
        for config in [SisaConfig::default(), SisaConfig::pipelined(4)] {
            let mut rt = SisaRuntime::new(config);
            rt.set_universe(256);
            let stats_before = *rt.stats();
            let tracked_before = rt.pipeline().tracked_operands();
            let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                rt.absorb_lane_work(1, &[SetId(u32::MAX)]);
            }));
            let message = *outcome
                .expect_err("a foreign ID must fault")
                .downcast::<String>()
                .expect("the fault carries a formatted message");
            assert!(message.contains("does not exist"), "{message}");
            // Nothing reached the timeline: no makespan, no hazard entry, no
            // table grown to the foreign ID.
            assert_eq!(rt.stats(), &stats_before);
            assert_eq!(rt.pipeline().tracked_operands(), tracked_before);
        }
    }

    #[test]
    fn trace_captures_a_program_of_real_instructions() {
        let mut rt = runtime();
        rt.enable_default_trace();
        let a = rt.create_sorted([1, 2, 3]);
        let b = rt.create_dense([2, 3, 4]);
        let c = rt.intersect(a, b);
        let _ = rt.intersect_count(a, b);
        assert!(rt.contains(c, 2));
        rt.delete(c);
        let trace = rt.take_trace().expect("trace attached");
        assert!(trace.is_complete());
        let program = trace.program();
        let mix = program.mnemonic_histogram();
        assert_eq!(mix["sisa.new"], 2);
        assert_eq!(mix["sisa.int"], 1);
        assert_eq!(mix["sisa.intc"], 1);
        assert_eq!(mix["sisa.member"], 1);
        assert_eq!(mix["sisa.del"], 1);
        // The materialised instructions carry real register operands: the
        // intersect result register differs from its operand registers.
        let int = program
            .instructions()
            .iter()
            .find(|i| i.opcode == SisaOpcode::IntersectAuto)
            .unwrap();
        assert_ne!(int.rd, int.rs1);
        assert_ne!(int.rd, int.rs2);
        // The program round-trips through the RISC-V encoding.
        let words = program.encode();
        assert_eq!(
            sisa_isa::SisaProgram::decode(&words).unwrap().len(),
            program.len()
        );
    }

    #[test]
    fn a_full_trace_sink_changes_neither_results_nor_statistics() {
        // Once the sink is full the payloads are never built (a created set
        // is no longer cloned), and nothing else may differ from an untraced
        // run: same answers, same statistics, energy bits included.
        let run = |capacity: Option<usize>| {
            let mut rt = runtime();
            if let Some(capacity) = capacity {
                rt.enable_trace(capacity);
            }
            let a = rt.create_sorted([1, 2, 3, 8]);
            let b = rt.create_dense([2, 3, 4]);
            let c = rt.union(a, b);
            rt.difference_assign(a, b);
            let observed = (rt.members(c), rt.members(a), rt.intersect_count(c, b));
            rt.delete(c);
            (observed, *rt.stats(), rt.take_trace())
        };
        let (untraced, untraced_stats, _) = run(None);
        for capacity in [0usize, 1] {
            let (observed, stats, trace) = run(Some(capacity));
            assert_eq!(observed, untraced, "capacity {capacity}");
            assert_eq!(stats, untraced_stats, "capacity {capacity}");
            assert_eq!(
                stats.energy_nj.to_bits(),
                untraced_stats.energy_nj.to_bits()
            );
            let trace = trace.expect("trace attached");
            assert_eq!(trace.len(), capacity);
            // 2 creates, union, difference_assign, 2 members, intersect_count,
            // delete: eight events, all but `capacity` refused.
            assert_eq!(trace.dropped(), 8 - capacity as u64);
        }
    }

    #[test]
    fn instruction_counts_match_the_traced_program() {
        let mut rt = runtime();
        rt.enable_default_trace();
        let a = rt.create_sorted([1, 2, 3, 8]);
        let b = rt.create_dense([2, 3, 4]);
        let c = rt.union(a, b);
        rt.insert(c, 17);
        rt.remove(c, 2);
        let _ = rt.cardinality(c);
        rt.difference_assign(a, b);
        let trace = rt.take_trace().unwrap();
        let program_total: u64 = trace.program().opcode_histogram().values().sum::<usize>() as u64;
        assert_eq!(rt.stats().total_instructions(), program_total);
    }
}
