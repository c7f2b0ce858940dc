//! The scoreboarded issue queue: overlapping independent SISA instructions
//! across virtual vault lanes, in order or — with set-ID renaming — out of
//! order.
//!
//! The paper's performance story (§8.4 "Harnessing Parallelism") rests on
//! hundreds of vault cores executing set operations concurrently. A serial
//! cost model — issue, dispatch, retire, one instruction at a time — makes a
//! 16-cube/512-vault machine behave like a single in-order core. This module
//! adds the missing axis as an analytic event-timed pipeline:
//!
//! * an [`IssueQueue`] of bounded `depth` holds in-flight instructions; a new
//!   instruction cannot issue until the instruction `depth` positions ahead
//!   of it has retired (in program order), so depth 1 degenerates to today's
//!   fully serial execution;
//! * a [`crate::Scoreboard`] tracks RAW/WAW/WAR hazards on operand *sets*:
//!   instructions with disjoint live operand sets may overlap, dependent ones
//!   stall, and the stall is attributed to [`IssueOutcome::dep_stall`];
//! * work executes on interchangeable **virtual vault lanes** (a lane stands
//!   for a group of vaults; the count derives from the PNM cube/vault
//!   geometry via [`sisa_pim::PnmConfig::issue_lanes`]) plus a single serial
//!   **host** resource for the scalar loop-control work algorithms report.
//!
//! # The renamed out-of-order path
//!
//! Graph-mining kernels recycle set IDs aggressively (materialise a
//! temporary, recurse, delete it, create the next one in the recycled slot),
//! so a scoreboard keyed on *logical* IDs serialises on **false** WAR/WAW
//! hazards — the reason k-clique counting floors near 1.17x overlap while
//! triangle counting reaches 16x. [`IssueQueue::with_ooo`] arms the
//! register-renaming analogue:
//!
//! * every logical-set *write* allocates a fresh **physical tag** from the
//!   bounded [`crate::rename::RenameMap`] pool, so the hazard scoreboard
//!   tracks tags and only true RAW dependences remain; free-list pressure
//!   (no tag drained yet) delays the write as a *structural* stall;
//! * a bounded **reorder window** of `ooo_window` in-flight instructions lets
//!   ready instructions start while program-earlier ones are still stalled
//!   (counted as [`IssueOutcome::bypassed`]), with retirement kept in program
//!   order — a full window waits for the oldest in-flight retire;
//! * a **shadow in-order queue** (the exact rename-off pipeline at the
//!   configured `depth` × lanes) runs alongside and decomposes every
//!   dependence stall it exposes into its true-RAW component (reported as
//!   [`IssueOutcome::dep_stall`]) and the false WAR/WAW remainder renaming
//!   removed ([`IssueOutcome::false_dep_removed`]). The two therefore sum,
//!   per instruction and per opcode, to exactly the stall the rename-off run
//!   reports on the same program — the accounting invariant the differential
//!   tests pin.
//!
//! Both timelines are the same scheduling body, `Schedule` — window, lanes,
//! host, in-order retirement, scoreboard, makespan — under two hazard rules:
//! full RAW/WAW/WAR on logical IDs for the reference, RAW on physical tags
//! for the renamed one, which adds only what renaming owns (the tag table,
//! the tag-pressure wait, reclaim, the stall decomposition, the bypass
//! count). Without tags there is one timeline and none of that is paid for.
//!
//! The queue prices *time*, not *work*: per-unit cycle and energy counters in
//! [`crate::ExecStats`] stay the serial work totals regardless of depth (they
//! are conserved quantities, and every existing figure reports them), while
//! the queue computes [`IssueQueue::makespan_cycles`] — the completion time
//! of the overlapped schedule — and the dependence-stall cycles. Overlap
//! speedup is then simply `work / makespan`, and a depth-1 queue reproduces
//! the serial totals cycle-for-cycle: with one slot in flight every item
//! starts exactly when its predecessor finishes, so the makespan equals the
//! sum of all charged cycles and no dependence stall is ever exposed.
//!
//! # Depth 1: the window is a running sum
//!
//! A timeline whose window holds one item (the in-order queue at depth 1,
//! `SisaConfig::default()`; the renamed timeline at `ooo_window` 1) does
//! constant work per item. Its structural floor is the previous item's
//! retire, which is also its makespan: every item starts no earlier than
//! its predecessor's retire, so it finishes no earlier than any item before
//! it. Every operand time a scoreboard could hold is one of those finishes,
//! so readiness never exceeds the floor and hazard state cannot bind a
//! start: such a timeline neither reads nor records its scoreboard, and
//! `dep_stall` is 0 exactly as the full rule would have it. For the same
//! reason each vault item ends no earlier than every lane's busy time, so
//! the first least-busy lane is the least recently used one: while every
//! vault item since the last reset took cycles, that is lane `k mod lanes`
//! for the `k`-th, read off a rotation cursor. A zero-cycle vault item can
//! tie two lanes, which the first-minimum rule breaks by index, so from
//! the first one until [`IssueQueue::reset`] the lane scan decides again.

use crate::rename::RenameMap;
use crate::scoreboard::Scoreboard;
use sisa_isa::SetId;
use std::collections::{BTreeMap, VecDeque};

/// How often (in issued items) the queue prunes retired scoreboard entries.
const PRUNE_INTERVAL: u64 = 64;

/// The execution resource a timed work item occupies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LaneKind {
    /// A virtual vault lane (set instructions, PNM/PUM execution, link
    /// transfers absorbed from a sharded wrapper).
    Vault,
    /// The single serial host core (scalar loop-control work, result
    /// hand-off). Host items overlap vault work but never each other.
    Host,
}

/// What an item's `writes` operands mean to the renaming layer.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WriteIntent {
    /// The item produces a new value for each written set: renaming binds a
    /// fresh physical tag (creates, materialising/in-place binary ops,
    /// element updates, absorbed transfers).
    #[default]
    Produce,
    /// The item kills the written sets (`sisa.del`): renaming *reads* the
    /// dying version's tag — so the delete orders only behind the producer,
    /// never behind the version's readers — and schedules the tag's reclaim
    /// once its storage drains.
    Release,
}

/// Where one issued item landed on the virtual timeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IssueOutcome {
    /// Cycle at which the item started executing.
    pub start: u64,
    /// Cycle at which the item completes.
    pub finish: u64,
    /// Cycles the item stalled on operand hazards *beyond* what the issue
    /// window and lane availability already imposed. On the in-order path
    /// this is the full RAW/WAW/WAR cost; on the renamed path it is the
    /// true-RAW component of the in-order reference schedule (the part
    /// renaming cannot remove).
    pub dep_stall: u64,
    /// False WAR/WAW stall cycles of the in-order reference schedule that
    /// renaming removed for this item (always 0 when renaming is off).
    /// `dep_stall + false_dep_removed` equals the stall a rename-off run
    /// reports for the same instruction.
    pub false_dep_removed: u64,
    /// Whether the item started ahead of a program-earlier instruction still
    /// in the reorder window (an out-of-order bypass; always `false` on the
    /// in-order path).
    pub bypassed: bool,
    /// The vault lane the item executed on (`None` for host items).
    pub lane: Option<usize>,
    /// The physical tag renaming bound to the item's first written set
    /// (`None` when renaming is off, for read-only items, and for releases —
    /// a delete consumes a version, it does not produce one).
    pub phys_tag: Option<SetId>,
}

/// One event-timed timeline — the only scheduling body in this module. The
/// in-order queue is a `Schedule` under the full RAW/WAW/WAR rule on logical
/// set IDs; the renamed scheduler is a second `Schedule` under RAW on
/// physical tags, wrapped by [`Renamed`].
#[derive(Clone, Debug)]
struct Schedule {
    /// Window capacity: in-flight (issued, unretired) items.
    window: usize,
    /// Busy-until time per virtual vault lane.
    lanes: Vec<u64>,
    /// The lane the next vault item runs on while the window-1 rotation is
    /// exact (module docs); `None` leaves the pick to the lane scan.
    next_lane: Option<usize>,
    /// Busy-until time of the serial host resource.
    host_busy: u64,
    /// Retire times of the in-flight items, oldest first. Retirement is in
    /// program order, so the deque is non-decreasing.
    inflight: VecDeque<u64>,
    /// Hazard state, keyed by whatever IDs the caller places items under
    /// (never touched at window 1).
    board: Scoreboard,
    /// Completion time of the schedule.
    makespan: u64,
}

impl Schedule {
    fn new(window: usize, lanes: usize) -> Self {
        let window = window.max(1);
        Self {
            window,
            lanes: vec![0; lanes.max(1)],
            next_lane: Self::rotation(window),
            host_busy: 0,
            inflight: VecDeque::new(),
            board: Scoreboard::new(),
            makespan: 0,
        }
    }

    /// The lane cursor a fresh timeline starts with: lane 0 at window 1,
    /// none otherwise.
    fn rotation(window: usize) -> Option<usize> {
        (window == 1).then_some(0)
    }

    /// Whether the next item must wait for the oldest in-flight retire.
    fn window_full(&self) -> bool {
        self.inflight.len() >= self.window
    }

    /// The vault lane an item of `cycles` runs on: the first least-busy lane
    /// (the scan keeps the first minimum), which the window-1 cursor names
    /// without scanning until a zero-cycle item disarms it.
    fn pick_lane(&mut self, cycles: u64) -> usize {
        if let Some(lane) = self.next_lane {
            let next = if lane + 1 == self.lanes.len() {
                0
            } else {
                lane + 1
            };
            self.next_lane = (cycles > 0).then_some(next);
            return lane;
        }
        self.lanes
            .iter()
            .enumerate()
            .min_by_key(|&(_, &busy)| busy)
            .map(|(idx, _)| idx)
            .expect("at least one lane")
    }

    /// Places one item: it starts at the latest of its window slot, its
    /// resource, `not_before` and its operands' readiness — true RAW only
    /// when `RAW_ONLY`, the full RAW/WAW/WAR rule otherwise. Returns where it
    /// landed, and the cycles `not_before` alone held it back.
    #[inline]
    fn place<const RAW_ONLY: bool>(
        &mut self,
        kind: LaneKind,
        cycles: u64,
        reads: &[SetId],
        writes: &[SetId],
        not_before: u64,
    ) -> (IssueOutcome, u64) {
        // At window 1 the floor below is the makespan, which bounds every
        // time the scoreboard could hold (module docs): no hazard state.
        let hazards = self.window > 1;
        // Structural constraint: a full window frees its oldest slot at that
        // item's in-order retire time.
        let structural = if self.window_full() {
            self.inflight.pop_front().unwrap_or(0)
        } else {
            0
        };
        // Resource constraint: the earliest-free vault lane, or the host.
        let (resource, lane) = match kind {
            LaneKind::Vault => {
                let idx = self.pick_lane(cycles);
                (self.lanes[idx], Some(idx))
            }
            LaneKind::Host => (self.host_busy, None),
        };
        // Operand constraint.
        let ready = if !hazards {
            0
        } else if RAW_ONLY {
            self.board.raw_ready_at(reads)
        } else {
            self.board.ready_at(reads, writes)
        };

        let floor = structural.max(resource);
        let base = floor.max(not_before);
        let start = base.max(ready);
        let finish = start + cycles;

        match lane {
            Some(idx) => self.lanes[idx] = finish,
            None => self.host_busy = finish,
        }
        // In-order retirement: an item cannot retire before its predecessor.
        let retire = self.inflight.back().map_or(finish, |&r| r.max(finish));
        self.inflight.push_back(retire);
        if hazards {
            self.board.record(reads, writes, finish);
        }
        self.makespan = self.makespan.max(finish);
        let landed = IssueOutcome {
            start,
            finish,
            dep_stall: ready.saturating_sub(base),
            false_dep_removed: 0,
            bypassed: false,
            lane,
            phys_tag: None,
        };
        (landed, not_before.saturating_sub(floor.max(ready)))
    }

    /// Drops hazard state that can no longer bind a start time and returns
    /// the horizon it pruned to: every future vault item starts at or after
    /// the earliest-free lane, and with a full window at or after the oldest
    /// in-flight retire.
    fn prune(&mut self) -> u64 {
        let mut horizon = self.lanes.iter().copied().min().unwrap_or(0);
        if self.window_full() {
            horizon = horizon.max(self.inflight.front().copied().unwrap_or(0));
        }
        self.board.prune_completed(horizon);
        horizon
    }

    fn reset(&mut self) {
        self.lanes.fill(0);
        self.next_lane = Self::rotation(self.window);
        self.host_busy = 0;
        self.inflight.clear();
        self.board.clear();
        self.makespan = 0;
    }
}

/// What renaming adds around its own [`Schedule`]: the tag table, the
/// tag-pressure wait, version reclaim, the decomposition of the reference
/// timeline's stalls, and the bypass count.
#[derive(Clone, Debug)]
struct Renamed {
    /// The out-of-order timeline, its hazards keyed by physical tag.
    sched: Schedule,
    map: RenameMap,
    /// Start times of `sched`'s in-flight items, oldest first (a bypass is a
    /// start ahead of one of them).
    starts: VecDeque<u64>,
    /// Per logical ID, the finish time of its last producer *on the
    /// reference timeline* — the RAW component a renamed machine cannot
    /// remove.
    last_write: BTreeMap<u32, u64>,
    /// Items that started ahead of a program-earlier in-flight instruction.
    bypasses: u64,
    /// Cycles write allocations waited on tag free-list pressure.
    pressure_cycles: u64,
    /// Scratch operand buffers, reused across issues.
    reads_buf: Vec<SetId>,
    writes_buf: Vec<SetId>,
    reclaim_buf: Vec<SetId>,
}

impl Renamed {
    fn new(window: usize, lanes: usize, rename_tags: usize) -> Self {
        Self {
            sched: Schedule::new(window, lanes),
            map: RenameMap::new(rename_tags),
            starts: VecDeque::new(),
            last_write: BTreeMap::new(),
            bypasses: 0,
            pressure_cycles: 0,
            reads_buf: Vec::new(),
            writes_buf: Vec::new(),
            reclaim_buf: Vec::new(),
        }
    }

    /// Issues one item on the renamed timeline, given where the reference
    /// timeline (`shadow`) just put it.
    fn issue(
        &mut self,
        kind: LaneKind,
        cycles: u64,
        reads: &[SetId],
        writes: &[SetId],
        intent: WriteIntent,
        shadow: IssueOutcome,
    ) -> IssueOutcome {
        // Decompose the shadow's stall into the true-RAW component (the
        // producer dependence a renamed machine keeps) and the false WAR/WAW
        // remainder, *before* the shadow's finish times are published to the
        // last-producer map.
        let base = shadow.start - shadow.dep_stall;
        let produced_at = |id: &SetId| self.last_write.get(&id.raw()).copied().unwrap_or(0);
        let mut ready_true = reads.iter().map(produced_at).max().unwrap_or(0);
        if intent == WriteIntent::Release {
            // A renamed delete still consumes the dying version.
            ready_true = ready_true.max(writes.iter().map(produced_at).max().unwrap_or(0));
        }
        let true_stall = ready_true.saturating_sub(base);
        debug_assert!(true_stall <= shadow.dep_stall);
        for &w in writes {
            self.last_write.insert(w.raw(), shadow.finish);
        }

        // Operand translation to physical tags. Read tags resolve before
        // write tags bind, so an item that reads and rewrites the same set
        // (an element update, an in-place binary op) depends on the previous
        // version and produces the next one.
        self.reads_buf.clear();
        self.writes_buf.clear();
        self.reclaim_buf.clear();
        let mut tag_avail = 0u64;
        for &r in reads {
            self.reads_buf.push(self.map.read_tag(r));
        }
        match intent {
            WriteIntent::Produce => {
                for &w in writes {
                    let alloc = self.map.write_tag(w);
                    tag_avail = tag_avail.max(alloc.available_at);
                    if let Some(old) = alloc.superseded {
                        self.reclaim_buf.push(old);
                    }
                    self.writes_buf.push(alloc.tag);
                }
            }
            WriteIntent::Release => {
                for &w in writes {
                    // The delete consumes the dying version: RAW on its
                    // producer only, then the tag drains back to the pool.
                    let tag = self.map.read_tag(w);
                    self.map.release(w);
                    self.reads_buf.push(tag);
                    self.reclaim_buf.push(tag);
                }
            }
        }

        if self.sched.window_full() {
            self.starts.pop_front();
        }
        let (placed, held) =
            self.sched
                .place::<true>(kind, cycles, &self.reads_buf, &self.writes_buf, tag_avail);
        // Free-list pressure surfaces as a structural stall, not a
        // dependence stall.
        self.pressure_cycles += held;
        // Bypass: the item starts while a program-earlier instruction in the
        // window has not even started yet.
        let bypassed = self.starts.iter().any(|&s| s > placed.start);
        self.bypasses += u64::from(bypassed);
        self.starts.push_back(placed.start);
        // Superseded / deleted versions drain once their last recorded use
        // and the superseding item complete; then the tag returns to the pool
        // with a clean hazard slate.
        for &old in &self.reclaim_buf {
            let (w, r) = self.sched.board.times_of(old);
            self.sched.board.release(old);
            self.map.reclaim(old, w.max(r).max(placed.finish));
        }
        IssueOutcome {
            // The shadow decomposition: the two sum to the rename-off stall.
            dep_stall: true_stall,
            false_dep_removed: shadow.dep_stall - true_stall,
            bypassed,
            // A release binds no tag: it consumed one.
            phys_tag: self.writes_buf.first().copied(),
            ..placed
        }
    }

    fn reset(&mut self) {
        self.sched.reset();
        self.map.clear();
        self.starts.clear();
        self.last_write.clear();
        self.bypasses = 0;
        self.pressure_cycles = 0;
    }
}

/// A bounded, scoreboarded issue queue over virtual vault lanes.
///
/// The queue is *analytic*: it never simulates cycle-by-cycle, it computes
/// each item's start time as the maximum of its three constraints
/// (issue-window slot, operand readiness, resource availability) and
/// advances the affected timelines. All times are on a virtual clock that
/// starts at 0 and is reset by [`IssueQueue::reset`].
///
/// [`IssueQueue::new`] builds the in-order queue; [`IssueQueue::with_ooo`]
/// adds the renamed out-of-order scheduler on top, in which case the in-order
/// timeline keeps advancing as the *shadow reference schedule* that prices
/// what the same program costs without renaming (the stall-decomposition
/// baseline and [`IssueQueue::shadow_makespan_cycles`]).
#[derive(Clone, Debug)]
pub struct IssueQueue {
    /// The in-order timeline: the only one without renaming, the shadow
    /// reference with it.
    reference: Schedule,
    issued: u64,
    /// The renamed out-of-order scheduler, when armed.
    renamed: Option<Box<Renamed>>,
}

impl IssueQueue {
    /// Creates an in-order queue with `depth` in-flight slots over `lanes`
    /// vault lanes. Both are clamped to at least 1.
    #[must_use]
    pub fn new(depth: usize, lanes: usize) -> Self {
        Self {
            reference: Schedule::new(depth, lanes),
            issued: 0,
            renamed: None,
        }
    }

    /// Creates a queue whose items execute on the renamed out-of-order
    /// scheduler: a reorder window of `ooo_window` in-flight instructions
    /// (0 falls back to `depth`) over the same `lanes`, with set-ID renaming
    /// through a pool of `rename_tags` physical tags. The in-order timeline
    /// of `depth` × `lanes` keeps running as the shadow reference schedule.
    ///
    /// With `rename_tags == 0` there is nothing to rename, and a window that
    /// reorders under the full logical-ID hazard rules schedules exactly like
    /// an in-order window of its size: the call returns that plain queue,
    /// [`IssueQueue::new`] at `ooo_window` (or `depth`) × `lanes`.
    #[must_use]
    pub fn with_ooo(depth: usize, lanes: usize, ooo_window: usize, rename_tags: usize) -> Self {
        let window = if ooo_window == 0 { depth } else { ooo_window };
        if rename_tags == 0 {
            return Self::new(window, lanes);
        }
        let mut queue = Self::new(depth, lanes);
        queue.renamed = Some(Box::new(Renamed::new(window, lanes, rename_tags)));
        queue
    }

    /// The configured issue-window depth (the in-order window; the shadow
    /// reference window when the out-of-order scheduler is armed).
    #[must_use]
    pub fn depth(&self) -> usize {
        self.reference.window
    }

    /// The reorder-window capacity, when the out-of-order scheduler is armed.
    #[must_use]
    pub fn ooo_window(&self) -> Option<usize> {
        self.renamed.as_ref().map(|r| r.sched.window)
    }

    /// Whether set-ID renaming (and with it the out-of-order scheduler) is
    /// armed.
    #[must_use]
    pub fn renaming(&self) -> bool {
        self.renamed.is_some()
    }

    /// The number of virtual vault lanes.
    #[must_use]
    pub fn lane_count(&self) -> usize {
        self.reference.lanes.len()
    }

    /// Completion time of the overlapped schedule so far (the out-of-order
    /// schedule when armed, the in-order schedule otherwise).
    #[must_use]
    pub fn makespan_cycles(&self) -> u64 {
        self.renamed
            .as_ref()
            .map_or(self.reference.makespan, |r| r.sched.makespan)
    }

    /// Completion time of the shadow in-order reference schedule, when the
    /// out-of-order scheduler is armed: what the same program costs at
    /// `depth` × lanes without renaming.
    #[must_use]
    pub fn shadow_makespan_cycles(&self) -> Option<u64> {
        self.renamed.as_ref().map(|_| self.reference.makespan)
    }

    /// Number of items issued since the last reset.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Items that started ahead of a program-earlier in-flight instruction
    /// (0 on the in-order path).
    #[must_use]
    pub fn bypasses(&self) -> u64 {
        self.renamed.as_ref().map_or(0, |r| r.bypasses)
    }

    /// Cycles write allocations waited on renaming free-list pressure (the
    /// structural stall of an exhausted physical-tag pool).
    #[must_use]
    pub fn rename_pressure_cycles(&self) -> u64 {
        self.renamed.as_ref().map_or(0, |r| r.pressure_cycles)
    }

    /// Allocations that grew the tag pool past its configured capacity
    /// (more live set versions than physical slots).
    #[must_use]
    pub fn rename_spills(&self) -> u64 {
        self.renamed.as_ref().map_or(0, |r| r.map.spills())
    }

    /// Items currently occupying the active issue window (the reorder window
    /// when the out-of-order scheduler is armed, the in-order window
    /// otherwise) — the queue-depth sample telemetry collectors record.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        self.renamed
            .as_ref()
            .map_or(&self.reference, |r| &r.sched)
            .inflight
            .len()
    }

    /// Physical tags still allocatable from the renaming pool (`None` when
    /// renaming is off) — the free-tag-pool sample telemetry collectors
    /// record. Versions still draining towards a pending reclaim are not
    /// counted.
    #[must_use]
    pub fn free_tags(&self) -> Option<usize> {
        self.renamed.as_ref().map(|r| r.map.available())
    }

    /// Number of operand IDs (or physical tags) currently carrying hazard
    /// state, across the active and shadow scoreboards (capacity telemetry;
    /// pruning keeps this bounded by the in-flight footprint). A timeline
    /// whose window is 1 tracks nothing, so a depth-1 queue reads 0.
    #[must_use]
    pub fn tracked_operands(&self) -> usize {
        self.reference.board.tracked()
            + self.renamed.as_ref().map_or(0, |r| r.sched.board.tracked())
    }

    /// Issues one timed work item producing its written sets: `cycles` of
    /// execution on `kind`, reading `reads` and writing `writes`. Returns
    /// where it landed on the timeline.
    pub fn issue(
        &mut self,
        kind: LaneKind,
        cycles: u64,
        reads: &[SetId],
        writes: &[SetId],
    ) -> IssueOutcome {
        self.issue_op(kind, cycles, reads, writes, WriteIntent::Produce)
    }

    /// Issues one timed work item, with `intent` telling the renaming layer
    /// whether the written sets are produced or killed ([`WriteIntent`]).
    pub fn issue_op(
        &mut self,
        kind: LaneKind,
        cycles: u64,
        reads: &[SetId],
        writes: &[SetId],
        intent: WriteIntent,
    ) -> IssueOutcome {
        // Host items model the serial scalar resource and must not name
        // operand sets: the retire-horizon pruning proof covers vault items
        // only (a host item with hazards could start below the lane-derived
        // horizon and read pruned state). The runtime never issues one.
        assert!(
            kind != LaneKind::Host || (reads.is_empty() && writes.is_empty()),
            "host items must not carry operand sets"
        );
        let (shadow, _) = self
            .reference
            .place::<false>(kind, cycles, reads, writes, 0);
        let outcome = match self.renamed.as_mut() {
            Some(renamed) => renamed.issue(kind, cycles, reads, writes, intent, shadow),
            None => shadow,
        };
        self.issued += 1;
        if self.issued.is_multiple_of(PRUNE_INTERVAL) {
            self.prune();
        }
        outcome
    }

    /// Prunes retired hazard state from both timelines and the shadow
    /// last-producer map (against the reference timeline's horizon, whose
    /// finish times it holds).
    fn prune(&mut self) {
        let horizon = self.reference.prune();
        if let Some(renamed) = &mut self.renamed {
            renamed.last_write.retain(|_, &mut finish| finish > horizon);
            renamed.sched.prune();
        }
    }

    /// Restarts the virtual clock at 0 and forgets all in-flight state (the
    /// load/measure boundary: statistics resets re-zero the timeline too).
    pub fn reset(&mut self) {
        self.reference.reset();
        self.issued = 0;
        if let Some(renamed) = &mut self.renamed {
            renamed.reset();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ids(raw: &[u32]) -> Vec<SetId> {
        raw.iter().map(|&r| SetId(r)).collect()
    }

    #[test]
    fn depth_one_serialises_everything() {
        let mut q = IssueQueue::new(1, 8);
        let costs = [10u64, 7, 23, 5];
        let mut expected = 0;
        for (i, &c) in costs.iter().enumerate() {
            // Items touch disjoint sets — only the window can serialise them.
            let out = q.issue(LaneKind::Vault, c, &ids(&[i as u32]), &[]);
            assert_eq!(out.start, expected, "item {i} must wait for {expected}");
            assert_eq!(out.dep_stall, 0);
            expected += c;
        }
        assert_eq!(q.makespan_cycles(), costs.iter().sum::<u64>());
    }

    #[test]
    fn window_one_rotates_lanes_exactly_as_the_first_minimum_picks_them() {
        let lanes_of = |q: &mut IssueQueue, cycles: &[u64]| {
            cycles
                .iter()
                .map(|&c| q.issue(LaneKind::Vault, c, &[], &[]).lane.expect("vault"))
                .collect::<Vec<_>>()
        };
        // Three lanes at window 1. The zero-cycle fourth item ends at 15 on
        // lane 0, tying it with lane 2: the first minimum then takes lane 0
        // where the rotation would take lane 2.
        let mut q = IssueQueue::new(1, 3);
        assert_eq!(
            lanes_of(&mut q, &[5, 5, 5, 0, 5, 5, 5, 5]),
            [0, 1, 2, 0, 1, 0, 2, 1]
        );
        assert_eq!(q.tracked_operands(), 0, "window 1 keeps no hazard state");
        // A reset re-arms the rotation from lane 0.
        q.reset();
        assert_eq!(q.reference.next_lane, Some(0), "the rotation is re-armed");
        assert_eq!(lanes_of(&mut q, &[5, 5, 5, 5]), [0, 1, 2, 0]);
        q.reset();
        assert_eq!(lanes_of(&mut q, &[5]), [0]);
        // At window 2 lanes do not free in rotation order: the fourth item
        // takes lane 1 (free at 1), not lane 0 (busy until 10).
        let mut q = IssueQueue::new(2, 3);
        assert_eq!(lanes_of(&mut q, &[10, 1, 1, 1]), [0, 1, 2, 1]);
    }

    #[test]
    fn independent_items_overlap_across_lanes() {
        let mut q = IssueQueue::new(8, 4);
        for i in 0..4u32 {
            let out = q.issue(LaneKind::Vault, 100, &ids(&[i]), &[]);
            assert_eq!(out.start, 0, "lane {i} should start immediately");
        }
        assert_eq!(q.makespan_cycles(), 100);
        // A fifth item waits for the earliest lane to free up.
        let out = q.issue(LaneKind::Vault, 10, &ids(&[9]), &[]);
        assert_eq!(out.start, 100);
        assert_eq!(out.dep_stall, 0);
    }

    #[test]
    fn raw_dependences_stall_and_are_attributed() {
        let mut q = IssueQueue::new(8, 4);
        let w = q.issue(LaneKind::Vault, 50, &[], &ids(&[1]));
        assert_eq!(w.finish, 50);
        // Reader of set 1 must wait for the write even though lanes are free.
        let r = q.issue(LaneKind::Vault, 10, &ids(&[1]), &[]);
        assert_eq!(r.start, 50);
        assert_eq!(r.dep_stall, 50);
        // An unrelated item overlaps with both.
        let free = q.issue(LaneKind::Vault, 10, &ids(&[2]), &[]);
        assert_eq!(free.start, 0);
    }

    #[test]
    fn host_items_serialise_on_the_host_but_overlap_lane_work() {
        let mut q = IssueQueue::new(8, 4);
        let lane = q.issue(LaneKind::Vault, 100, &ids(&[1]), &[]);
        assert_eq!(lane.start, 0);
        let h1 = q.issue(LaneKind::Host, 30, &[], &[]);
        let h2 = q.issue(LaneKind::Host, 30, &[], &[]);
        assert_eq!(h1.start, 0, "host work overlaps vault work");
        assert_eq!(h2.start, 30, "host work never overlaps itself");
        assert!(h1.lane.is_none() && h2.lane.is_none());
    }

    #[test]
    #[should_panic(expected = "host items must not carry operand sets")]
    fn host_items_with_operands_are_rejected() {
        // The retire-horizon pruning proof covers vault items only; a host
        // item naming sets would be able to start below the lane-derived
        // horizon, so the queue rejects the combination outright.
        let mut q = IssueQueue::new(4, 2);
        q.issue(LaneKind::Host, 10, &ids(&[1]), &[]);
    }

    #[test]
    fn the_window_bounds_in_flight_items() {
        let mut q = IssueQueue::new(2, 16);
        // Three independent long items on 16 free lanes: the third must wait
        // for the first to retire (window depth 2).
        let a = q.issue(LaneKind::Vault, 100, &ids(&[1]), &[]);
        let b = q.issue(LaneKind::Vault, 100, &ids(&[2]), &[]);
        let c = q.issue(LaneKind::Vault, 100, &ids(&[3]), &[]);
        assert_eq!((a.start, b.start), (0, 0));
        assert_eq!(c.start, 100);
        assert_eq!(c.dep_stall, 0, "a structural wait is not a dep stall");
    }

    #[test]
    fn retirement_is_in_program_order() {
        let mut q = IssueQueue::new(2, 16);
        // A long item followed by a short one: the short item finishes first
        // but retires after its predecessor, so the window frees at 100, not
        // at 10.
        q.issue(LaneKind::Vault, 100, &ids(&[1]), &[]);
        q.issue(LaneKind::Vault, 10, &ids(&[2]), &[]);
        let third = q.issue(LaneKind::Vault, 1, &ids(&[3]), &[]);
        assert_eq!(third.start, 100);
    }

    #[test]
    fn reset_restarts_the_clock() {
        let mut q = IssueQueue::new(4, 2);
        q.issue(LaneKind::Vault, 500, &[], &ids(&[1]));
        q.issue(LaneKind::Host, 40, &[], &[]);
        assert!(q.makespan_cycles() > 0);
        q.reset();
        assert_eq!(q.makespan_cycles(), 0);
        assert_eq!(q.issued(), 0);
        let out = q.issue(LaneKind::Vault, 5, &ids(&[1]), &[]);
        assert_eq!(out.start, 0);
    }

    #[test]
    fn degenerate_configurations_are_clamped() {
        let q = IssueQueue::new(0, 0);
        assert_eq!(q.depth(), 1);
        assert_eq!(q.lane_count(), 1);
        // Without tags `with_ooo` is the plain queue, at the window if one
        // was asked for and at the depth otherwise.
        let oq = IssueQueue::with_ooo(0, 0, 0, 0);
        assert!(!oq.renaming());
        assert_eq!((oq.depth(), oq.ooo_window()), (1, None));
        assert_eq!(oq.shadow_makespan_cycles(), None);
        assert_eq!(IssueQueue::with_ooo(3, 2, 0, 0).depth(), 3);
        assert_eq!(IssueQueue::with_ooo(3, 2, 7, 0).depth(), 7);
        let rq = IssueQueue::with_ooo(3, 0, 0, 4);
        assert!(rq.renaming());
        assert_eq!(
            (rq.depth(), rq.ooo_window(), rq.lane_count()),
            (3, Some(3), 1),
            "window falls back to the depth"
        );
    }

    #[test]
    fn more_lanes_never_slow_a_schedule_down() {
        // A mixed dependent/independent workload, replayed at increasing lane
        // counts: the makespan must be non-increasing (the property the
        // pipeline_overlap figure's schema check rests on).
        let items: Vec<(u64, Vec<SetId>, Vec<SetId>)> = (0..40u32)
            .map(|i| {
                let cost = 5 + u64::from(i % 7) * 11;
                let reads = ids(&[i % 5, (i * 3) % 11]);
                let writes = if i % 3 == 0 {
                    ids(&[i % 4 + 20])
                } else {
                    vec![]
                };
                (cost, reads, writes)
            })
            .collect();
        let mut last = u64::MAX;
        for lanes in [1usize, 2, 4, 8, 16] {
            let mut q = IssueQueue::new(8, lanes);
            for (cost, reads, writes) in &items {
                q.issue(LaneKind::Vault, *cost, reads, writes);
            }
            assert!(
                q.makespan_cycles() <= last,
                "makespan grew from {last} to {} at {lanes} lanes",
                q.makespan_cycles()
            );
            last = q.makespan_cycles();
        }
    }

    // -----------------------------------------------------------------------
    // The renamed out-of-order path
    // -----------------------------------------------------------------------

    /// A delete/recreate chain over one recycled logical ID: the classic
    /// false-dependence pattern (materialise → read → delete → recreate).
    fn recycled_chain(q: &mut IssueQueue) {
        for _ in 0..8 {
            q.issue(LaneKind::Vault, 10, &[], &ids(&[1])); // create / produce
            q.issue(LaneKind::Vault, 100, &ids(&[1]), &[]); // long read
            q.issue_op(LaneKind::Vault, 5, &[], &ids(&[1]), WriteIntent::Release);
        }
    }

    #[test]
    fn renaming_removes_war_waw_hazards_on_recycled_ids() {
        let mut inorder = IssueQueue::new(8, 8);
        recycled_chain(&mut inorder);
        let mut renamed = IssueQueue::with_ooo(8, 8, 8, 64);
        recycled_chain(&mut renamed);
        assert!(renamed.renaming());
        // In order, every recreate WAR-waits for the previous long read; with
        // renaming the chains run on distinct tags and overlap across lanes.
        assert!(
            renamed.makespan_cycles() < inorder.makespan_cycles(),
            "renamed {} !< in-order {}",
            renamed.makespan_cycles(),
            inorder.makespan_cycles()
        );
        // The shadow reference reproduces the in-order schedule exactly.
        assert_eq!(
            renamed.shadow_makespan_cycles(),
            Some(inorder.makespan_cycles())
        );
        assert!(renamed.bypasses() > 0, "later chains bypass stalled ones");
    }

    #[test]
    fn stall_decomposition_sums_to_the_in_order_stall() {
        // For every item: dep_stall + false_dep_removed (renamed run) equals
        // the in-order run's dep_stall, exactly.
        let items: Vec<(u64, Vec<SetId>, Vec<SetId>, WriteIntent)> = (0..60u32)
            .map(|i| {
                let cost = 3 + u64::from(i % 9) * 7;
                let reads = ids(&[i % 4]);
                let writes = ids(&[(i + 1) % 4]);
                let intent = if i % 5 == 4 {
                    WriteIntent::Release
                } else {
                    WriteIntent::Produce
                };
                (cost, reads, writes, intent)
            })
            .collect();
        let mut inorder = IssueQueue::new(6, 3);
        let mut renamed = IssueQueue::with_ooo(6, 3, 12, 32);
        for (cost, reads, writes, intent) in &items {
            let a = inorder.issue_op(LaneKind::Vault, *cost, reads, writes, *intent);
            let b = renamed.issue_op(LaneKind::Vault, *cost, reads, writes, *intent);
            assert_eq!(
                b.dep_stall + b.false_dep_removed,
                a.dep_stall,
                "decomposition must sum to the in-order stall"
            );
        }
    }

    #[test]
    fn reordering_without_renaming_matches_the_in_order_queue() {
        // A window without tags is the in-order queue of that size: every
        // outcome field coincides, and no bypass or shadow is reported.
        let items: Vec<(u64, Vec<SetId>, Vec<SetId>)> = (0..50u32)
            .map(|i| (2 + u64::from(i % 6) * 9, ids(&[i % 7]), ids(&[(i * 5) % 9])))
            .collect();
        let mut inorder = IssueQueue::new(5, 4);
        let mut windowed = IssueQueue::with_ooo(1, 4, 5, 0);
        for (cost, reads, writes) in &items {
            let a = inorder.issue(LaneKind::Vault, *cost, reads, writes);
            let b = windowed.issue(LaneKind::Vault, *cost, reads, writes);
            assert_eq!(a, b);
        }
        assert_eq!(inorder.makespan_cycles(), windowed.makespan_cycles());
        assert_eq!(windowed.bypasses(), 0);
        assert_eq!(windowed.shadow_makespan_cycles(), None);
    }

    #[test]
    fn tag_pressure_is_a_structural_stall() {
        // Two tags, three live versions in flight: the third write waits for
        // the earliest reclaim without charging a dependence stall.
        let mut q = IssueQueue::with_ooo(8, 8, 8, 2);
        q.issue(LaneKind::Vault, 100, &[], &ids(&[0]));
        q.issue(LaneKind::Vault, 100, &[], &ids(&[1]));
        let third = q.issue(LaneKind::Vault, 10, &[], &ids(&[2]));
        assert_eq!(third.dep_stall, 0, "pool pressure is not a dependence");
        assert!(
            q.rename_pressure_cycles() == 0 && q.rename_spills() > 0,
            "no version has a pending reclaim yet: the pool spills"
        );
        // Now versions drain: a pool of two over one logical alternates, and
        // the third write waits for the first version's pending reclaim.
        let mut tight = IssueQueue::with_ooo(8, 8, 8, 2);
        tight.issue(LaneKind::Vault, 100, &[], &ids(&[0])); // tag A, drains at 100
        tight.issue(LaneKind::Vault, 100, &[], &ids(&[0])); // tag B supersedes A
        let third = tight.issue(LaneKind::Vault, 10, &[], &ids(&[0]));
        assert_eq!(third.start, 100, "waits for the first version to drain");
        assert_eq!(third.dep_stall, 0);
        assert_eq!(tight.rename_pressure_cycles(), 100);
        assert_eq!(tight.rename_spills(), 0);
    }

    #[test]
    fn window_growth_never_slows_the_renamed_schedule() {
        let items: Vec<(u64, Vec<SetId>, Vec<SetId>, WriteIntent)> = (0..80u32)
            .map(|i| {
                let cost = 4 + u64::from(i % 5) * 13;
                let reads = ids(&[i % 6, (i * 7) % 11]);
                let writes = ids(&[i % 3]);
                let intent = if i % 7 == 6 {
                    WriteIntent::Release
                } else {
                    WriteIntent::Produce
                };
                (cost, reads, writes, intent)
            })
            .collect();
        let mut last = u64::MAX;
        for window in [1usize, 2, 4, 8, 16, 64] {
            let mut q = IssueQueue::with_ooo(4, 4, window, 128);
            for (cost, reads, writes, intent) in &items {
                q.issue_op(LaneKind::Vault, *cost, reads, writes, *intent);
            }
            assert!(
                q.makespan_cycles() <= last,
                "makespan grew from {last} to {} at window {window}",
                q.makespan_cycles()
            );
            last = q.makespan_cycles();
        }
    }

    #[test]
    fn pruning_keeps_hazard_state_bounded_across_long_programs() {
        // Regression for the scoreboard-growth bug: a queue fed an unbounded
        // stream of distinct operand IDs used to retain hazard state for
        // every ID it ever saw.
        let mut q = IssueQueue::new(4, 2);
        for i in 0..10_000u32 {
            q.issue(LaneKind::Vault, 3, &ids(&[i]), &ids(&[i + 100_000]));
        }
        assert!(
            q.tracked_operands() <= 4 * PRUNE_INTERVAL as usize,
            "in-order hazard state must stay near the in-flight footprint, \
             got {}",
            q.tracked_operands()
        );
        let mut oq = IssueQueue::with_ooo(4, 2, 8, 64);
        for i in 0..10_000u32 {
            oq.issue(LaneKind::Vault, 3, &ids(&[i]), &ids(&[i + 100_000]));
        }
        assert!(
            oq.tracked_operands() <= 8 * PRUNE_INTERVAL as usize,
            "renamed hazard state must stay near the tag-pool footprint, \
             got {}",
            oq.tracked_operands()
        );
    }

    #[test]
    fn pruning_never_changes_the_schedule() {
        // The same dependent workload issued twice, once short enough that no
        // prune fires and once padded past the prune interval with
        // independent filler: the shared prefix must land identically.
        let build = |pad: usize| {
            let mut q = IssueQueue::new(8, 4);
            let mut outcomes = Vec::new();
            for i in 0..pad {
                q.issue(LaneKind::Vault, 1, &ids(&[1_000 + i as u32]), &[]);
            }
            for i in 0..30u32 {
                outcomes.push(q.issue(LaneKind::Vault, 7, &ids(&[i % 3]), &ids(&[(i + 1) % 3])));
            }
            outcomes
                .iter()
                .map(|o| (o.start - outcomes[0].start, o.dep_stall))
                .collect::<Vec<_>>()
        };
        assert_eq!(build(0), build(200), "pruning must be schedule-invariant");
    }

    #[test]
    fn telemetry_getters_expose_tags_and_occupancy() {
        let mut q = IssueQueue::new(4, 2);
        assert_eq!(q.in_flight(), 0);
        assert_eq!(q.free_tags(), None);
        let out = q.issue(LaneKind::Vault, 5, &[], &ids(&[1]));
        assert_eq!(out.phys_tag, None, "no renaming, no tag");
        assert_eq!(q.in_flight(), 1);

        let mut rq = IssueQueue::with_ooo(4, 2, 4, 8);
        assert_eq!(rq.free_tags(), Some(8));
        let w = rq.issue(LaneKind::Vault, 5, &[], &ids(&[1]));
        assert_eq!(w.phys_tag, Some(SetId(0)), "the bound tag is reported");
        assert_eq!(rq.free_tags(), Some(7));
        assert_eq!(rq.in_flight(), 1);
        let r = rq.issue(LaneKind::Vault, 5, &ids(&[1]), &[]);
        assert_eq!(r.phys_tag, None, "read-only items bind no tag");
        let d = rq.issue_op(LaneKind::Vault, 1, &[], &ids(&[1]), WriteIntent::Release);
        assert_eq!(d.phys_tag, None, "a release consumes, it does not produce");
    }

    #[test]
    fn reset_rearms_the_ooo_state() {
        let mut q = IssueQueue::with_ooo(4, 4, 8, 16);
        recycled_chain(&mut q);
        assert!(q.makespan_cycles() > 0);
        q.reset();
        assert_eq!(q.makespan_cycles(), 0);
        assert_eq!(q.bypasses(), 0);
        assert_eq!(q.rename_pressure_cycles(), 0);
        assert_eq!(q.shadow_makespan_cycles(), Some(0));
        let out = q.issue(LaneKind::Vault, 5, &ids(&[1]), &[]);
        assert_eq!(out.start, 0);
    }
}
