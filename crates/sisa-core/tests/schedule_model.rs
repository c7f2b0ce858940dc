//! The scheduling rule as the parent commit spelled it — twice — kept as the
//! oracle for the one `Schedule` body that replaced both copies.
//!
//! `ModelQueue` and `OooState` below are `pipeline.rs` as of the parent
//! (`IssueQueue::issue_in_order` and `OooState::issue` verbatim, with the
//! constructors, getters, `prune` and `reset` they need; only the type name,
//! `pub` and `#[must_use]` are changed). Two properties drive random programs
//! through model and [`IssueQueue`]:
//!
//! 1. **Same machine** — with the model built the way `with_ooo` now maps its
//!    knobs (no tags: the parent's plain queue at the window, else the depth),
//!    every [`IssueOutcome`] field and every getter agree after every item,
//!    except that a timeline whose window is 1 no longer tracks hazard state
//!    (`tracked_operands` counts the model's other timeline only).
//! 2. **The mapping loses nothing but bypass telemetry** — the parent's
//!    window-without-tags scheduler (the `rename: None` branches) agrees with
//!    today's queue on everything except `bypassed` / `bypasses` and the
//!    shadow makespan, which that configuration no longer reports.
//!
//! Property 1 was seen to fail under each of these one-line mutations of
//! `pipeline.rs` (docs/runs/PR22.md lists them with the equivalent mutants
//! that survive):
//!
//! * `Schedule::place`: `retire = finish` (retirement not in order); the lane
//!   pick scanning `.rev()` (the last of equally free lanes, not the first);
//!   the `not_before` hold measured against `floor` instead of
//!   `floor.max(ready)`; `base = floor` (`not_before` dropped);
//! * `Schedule::window_full`: `>` for `>=`;
//! * `Schedule::prune`: the full-window term of the horizon dropped;
//! * `IssueQueue::issue_op`: the reference placed under `RAW_ONLY`;
//! * `IssueQueue::prune`: `last_write` pruned at the renamed timeline's
//!   horizon instead of the reference's;
//! * `IssueQueue::with_ooo`: the tag-less queue built at `depth` instead of
//!   the window;
//! * `Renamed::issue`: a reclaim that ignores the superseding item's finish;
//!   `phys_tag` left as the schedule placed it (`None`);
//! * `Renamed::reset`: `starts` not cleared;
//! * `Schedule::pick_lane`: the window-1 rotation kept armed through a
//!   zero-cycle item (no fallback to the scan).

use proptest::prelude::*;
use sisa_core::{IssueOutcome, IssueQueue, LaneKind, RenameMap, Scoreboard, WriteIntent};
use sisa_isa::SetId;
use std::collections::{BTreeMap, VecDeque};

// ---------------------------------------------------------------------------
// The parent's pipeline.rs
// ---------------------------------------------------------------------------

/// How often (in issued items) the queue prunes retired scoreboard entries.
const PRUNE_INTERVAL: u64 = 64;

/// One instruction in flight in the reorder window.
#[derive(Clone, Copy, Debug)]
struct InFlight {
    start: u64,
    retire: u64,
}

/// State of the renamed out-of-order scheduler (absent on the in-order path).
#[derive(Clone, Debug)]
struct OooState {
    /// Reorder-window capacity: in-flight (issued, unretired) instructions.
    window: usize,
    /// Busy-until time per virtual vault lane of the out-of-order schedule.
    lanes: Vec<u64>,
    /// Busy-until time of the serial host resource.
    host_busy: u64,
    /// The in-flight instructions, oldest first.
    inflight: VecDeque<InFlight>,
    /// Retire time of the youngest in-flight instruction (retirement is in
    /// program order, so retire times are non-decreasing).
    last_retire: u64,
    /// Hazard state keyed by physical tag (renaming on) or logical set ID
    /// (renaming off).
    board: Scoreboard,
    /// The renaming table, when `rename_tags > 0`.
    rename: Option<RenameMap>,
    /// Shadow decomposition state: per logical ID, the finish time of its
    /// last producer *in the shadow in-order schedule* — the RAW component a
    /// renamed machine cannot remove.
    last_write: BTreeMap<u32, u64>,
    /// Completion time of the out-of-order schedule.
    makespan: u64,
    /// Items that started ahead of a program-earlier in-flight instruction.
    bypasses: u64,
    /// Cycles write allocations waited on tag free-list pressure.
    pressure_cycles: u64,
    /// Scratch operand buffers, reused across issues.
    reads_buf: Vec<SetId>,
    writes_buf: Vec<SetId>,
    reclaim_buf: Vec<SetId>,
}

impl OooState {
    fn new(window: usize, lanes: usize, rename_tags: usize) -> Self {
        Self {
            window: window.max(1),
            lanes: vec![0; lanes.max(1)],
            host_busy: 0,
            inflight: VecDeque::new(),
            last_retire: 0,
            board: Scoreboard::new(),
            rename: (rename_tags > 0).then(|| RenameMap::new(rename_tags)),
            last_write: BTreeMap::new(),
            makespan: 0,
            bypasses: 0,
            pressure_cycles: 0,
            reads_buf: Vec::new(),
            writes_buf: Vec::new(),
            reclaim_buf: Vec::new(),
        }
    }

    /// Issues one item on the out-of-order timeline. Returns
    /// `(start, finish, lane, bypassed, exposed_dep_stall)` — the exposed
    /// stall is only meaningful when renaming is off (with renaming on the
    /// caller reports the shadow decomposition instead).
    fn issue(
        &mut self,
        kind: LaneKind,
        cycles: u64,
        reads: &[SetId],
        writes: &[SetId],
        intent: WriteIntent,
    ) -> (u64, u64, Option<usize>, bool, u64) {
        // Operand translation: logical IDs, or physical tags under renaming.
        // Read tags resolve before write tags bind, so an item that reads and
        // rewrites the same set (an element update, an in-place binary op)
        // depends on the previous version and produces the next one.
        self.reads_buf.clear();
        self.writes_buf.clear();
        self.reclaim_buf.clear();
        let mut tag_avail = 0u64;
        let renaming = self.rename.is_some();
        if let Some(rm) = self.rename.as_mut() {
            for &r in reads {
                self.reads_buf.push(rm.read_tag(r));
            }
            match intent {
                WriteIntent::Produce => {
                    for &w in writes {
                        let alloc = rm.write_tag(w);
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
                        let tag = rm.read_tag(w);
                        rm.release(w);
                        self.reads_buf.push(tag);
                        self.reclaim_buf.push(tag);
                    }
                }
            }
        } else {
            self.reads_buf.extend_from_slice(reads);
            self.writes_buf.extend_from_slice(writes);
        }

        // Structural constraint: a full reorder window frees its oldest slot
        // at that instruction's in-order retire time.
        let structural = if self.inflight.len() >= self.window {
            self.inflight.pop_front().map_or(0, |f| f.retire)
        } else {
            0
        };
        // Resource constraint: the earliest-free vault lane, or the host.
        let (resource, lane) = match kind {
            LaneKind::Vault => {
                let (idx, &busy) = self
                    .lanes
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &busy)| (busy, i))
                    .expect("at least one lane");
                (busy, Some(idx))
            }
            LaneKind::Host => (self.host_busy, None),
        };
        // Operand constraint: true RAW on tags under renaming, the full
        // RAW/WAW/WAR rules on logical IDs otherwise.
        let ready = if renaming {
            self.board.raw_ready_at(&self.reads_buf)
        } else {
            self.board.ready_at(&self.reads_buf, &self.writes_buf)
        };

        let floor = structural.max(resource);
        // Free-list pressure surfaces as a structural stall, not a
        // dependence stall.
        self.pressure_cycles += tag_avail.saturating_sub(floor.max(ready));
        let base = floor.max(tag_avail);
        let start = base.max(ready);
        let exposed_dep = ready.saturating_sub(base);
        let finish = start + cycles;

        match lane {
            Some(idx) => self.lanes[idx] = finish,
            None => self.host_busy = finish,
        }
        // Bypass: the item starts while a program-earlier instruction in the
        // window has not even started yet.
        let bypassed = self.inflight.iter().any(|f| f.start > start);
        if bypassed {
            self.bypasses += 1;
        }
        // In-order retirement: an item cannot retire before its predecessor.
        let retire = self.last_retire.max(finish);
        self.inflight.push_back(InFlight { start, retire });
        self.last_retire = retire;

        self.board.record(&self.reads_buf, &self.writes_buf, finish);
        // Superseded / deleted versions drain once their last recorded use
        // and the superseding item complete; then the tag returns to the pool
        // with a clean hazard slate.
        if let Some(rm) = &mut self.rename {
            for &old in &self.reclaim_buf {
                let (w, r) = self.board.times_of(old);
                self.board.release(old);
                rm.reclaim(old, w.max(r).max(finish));
            }
        }
        self.makespan = self.makespan.max(finish);
        (start, finish, lane, bypassed, exposed_dep)
    }

    /// Drops hazard state that can no longer bind any future start time: on
    /// the out-of-order timeline every vault item starts at or after the
    /// earliest-free lane, and with a full window at or after the oldest
    /// in-flight retire.
    fn prune(&mut self) {
        let mut horizon = self.lanes.iter().copied().min().unwrap_or(0);
        if self.inflight.len() >= self.window {
            horizon = horizon.max(self.inflight.front().map_or(0, |f| f.retire));
        }
        self.board.prune_completed(horizon);
    }

    fn reset(&mut self) {
        for lane in &mut self.lanes {
            *lane = 0;
        }
        self.host_busy = 0;
        self.inflight.clear();
        self.last_retire = 0;
        self.board.clear();
        if let Some(rm) = &mut self.rename {
            rm.clear();
        }
        self.last_write.clear();
        self.makespan = 0;
        self.bypasses = 0;
        self.pressure_cycles = 0;
    }
}

#[derive(Clone, Debug)]
struct ModelQueue {
    depth: usize,
    /// Busy-until time per virtual vault lane.
    lanes: Vec<u64>,
    /// Busy-until time of the serial host resource.
    host_busy: u64,
    /// Retire times of the last `depth` issued items, in program order.
    /// Retirement is in order, so the deque is kept non-decreasing.
    window: VecDeque<u64>,
    scoreboard: Scoreboard,
    makespan: u64,
    issued: u64,
    /// The renamed out-of-order scheduler, when armed.
    ooo: Option<Box<OooState>>,
}

impl ModelQueue {
    /// Creates an in-order queue with `depth` in-flight slots over `lanes`
    /// vault lanes. Both are clamped to at least 1.
    fn new(depth: usize, lanes: usize) -> Self {
        Self {
            depth: depth.max(1),
            lanes: vec![0; lanes.max(1)],
            host_busy: 0,
            window: VecDeque::new(),
            scoreboard: Scoreboard::new(),
            makespan: 0,
            issued: 0,
            ooo: None,
        }
    }

    /// Creates a queue whose items execute on the renamed out-of-order
    /// scheduler: a reorder window of `ooo_window` in-flight instructions
    /// (0 falls back to `depth`) over the same `lanes`, with set-ID renaming
    /// through a pool of `rename_tags` physical tags (0 disables renaming —
    /// the window then reorders under the full logical-ID hazard rules).
    /// The in-order state of `depth` × `lanes` keeps running as the shadow
    /// reference schedule.
    fn with_ooo(depth: usize, lanes: usize, ooo_window: usize, rename_tags: usize) -> Self {
        let mut queue = Self::new(depth, lanes);
        let window = if ooo_window == 0 {
            queue.depth
        } else {
            ooo_window
        };
        queue.ooo = Some(Box::new(OooState::new(
            window,
            queue.lanes.len(),
            rename_tags,
        )));
        queue
    }

    /// The configured issue-window depth (the in-order window; the shadow
    /// reference window when the out-of-order scheduler is armed).
    fn depth(&self) -> usize {
        self.depth
    }

    /// The reorder-window capacity, when the out-of-order scheduler is armed.
    fn ooo_window(&self) -> Option<usize> {
        self.ooo.as_ref().map(|o| o.window)
    }

    /// Whether set-ID renaming is armed.
    fn renaming(&self) -> bool {
        self.ooo.as_ref().is_some_and(|o| o.rename.is_some())
    }

    /// The number of virtual vault lanes.
    fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Completion time of the overlapped schedule so far (the out-of-order
    /// schedule when armed, the in-order schedule otherwise).
    fn makespan_cycles(&self) -> u64 {
        self.ooo.as_ref().map_or(self.makespan, |o| o.makespan)
    }

    /// Completion time of the shadow in-order reference schedule, when the
    /// out-of-order scheduler is armed: what the same program costs at
    /// `depth` × lanes without renaming.
    fn shadow_makespan_cycles(&self) -> Option<u64> {
        self.ooo.as_ref().map(|_| self.makespan)
    }

    /// Number of items issued since the last reset.
    fn issued(&self) -> u64 {
        self.issued
    }

    /// Items that started ahead of a program-earlier in-flight instruction
    /// (0 on the in-order path).
    fn bypasses(&self) -> u64 {
        self.ooo.as_ref().map_or(0, |o| o.bypasses)
    }

    /// Cycles write allocations waited on renaming free-list pressure (the
    /// structural stall of an exhausted physical-tag pool).
    fn rename_pressure_cycles(&self) -> u64 {
        self.ooo.as_ref().map_or(0, |o| o.pressure_cycles)
    }

    /// Allocations that grew the tag pool past its configured capacity
    /// (more live set versions than physical slots).
    fn rename_spills(&self) -> u64 {
        self.ooo
            .as_ref()
            .and_then(|o| o.rename.as_ref())
            .map_or(0, RenameMap::spills)
    }

    /// Items currently occupying the active issue window (the reorder window
    /// when the out-of-order scheduler is armed, the in-order window
    /// otherwise) — the queue-depth sample telemetry collectors record.
    fn in_flight(&self) -> usize {
        self.ooo
            .as_ref()
            .map_or(self.window.len(), |o| o.inflight.len())
    }

    /// Physical tags still allocatable from the renaming pool (`None` when
    /// renaming is off) — the free-tag-pool sample telemetry collectors
    /// record. Versions still draining towards a pending reclaim are not
    /// counted.
    fn free_tags(&self) -> Option<usize> {
        self.ooo
            .as_ref()
            .and_then(|o| o.rename.as_ref())
            .map(RenameMap::available)
    }

    /// Number of operand IDs (or physical tags) currently carrying hazard
    /// state, across the active and shadow scoreboards (capacity telemetry;
    /// pruning keeps this bounded by the in-flight footprint).
    fn tracked_operands(&self) -> usize {
        self.scoreboard.tracked() + self.ooo.as_ref().map_or(0, |o| o.board.tracked())
    }

    /// Issues one timed work item, with `intent` telling the renaming layer
    /// whether the written sets are produced or killed ([`WriteIntent`]).
    fn issue_op(
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
        // The in-order schedule: the only schedule without the out-of-order
        // scheduler, the shadow reference schedule with it.
        let shadow = self.issue_in_order(kind, cycles, reads, writes);
        let outcome = if let Some(ooo) = self.ooo.as_mut() {
            // Decompose the shadow's stall into the true-RAW component (the
            // producer dependence a renamed machine keeps) and the false
            // WAR/WAW remainder, *before* the shadow's finish times are
            // published to the last-producer map.
            let renaming = ooo.rename.is_some();
            let (s_true, s_false) = if renaming {
                let base = shadow.start - shadow.dep_stall;
                let mut ready_true = 0u64;
                for &r in reads {
                    ready_true = ready_true.max(ooo.last_write.get(&r.raw()).copied().unwrap_or(0));
                }
                if intent == WriteIntent::Release {
                    // A renamed delete still consumes the dying version.
                    for &w in writes {
                        ready_true =
                            ready_true.max(ooo.last_write.get(&w.raw()).copied().unwrap_or(0));
                    }
                }
                let s_true = ready_true.saturating_sub(base);
                debug_assert!(s_true <= shadow.dep_stall);
                (s_true, shadow.dep_stall - s_true)
            } else {
                (0, 0)
            };
            if renaming {
                // The last-producer map only feeds the decomposition above.
                for &w in writes {
                    ooo.last_write.insert(w.raw(), shadow.finish);
                }
            }
            let (start, finish, lane, bypassed, exposed_dep) =
                ooo.issue(kind, cycles, reads, writes, intent);
            // The scratch write buffer still holds the physical tags the
            // issue just bound (it is cleared only on the next issue).
            let phys_tag = (renaming && intent == WriteIntent::Produce)
                .then(|| ooo.writes_buf.first().copied())
                .flatten();
            IssueOutcome {
                start,
                finish,
                // With renaming on, report the shadow decomposition (it sums
                // with `false_dep_removed` to the rename-off stall); without
                // renaming the reordered schedule's own exposed stall is the
                // full hazard cost.
                dep_stall: if renaming { s_true } else { exposed_dep },
                false_dep_removed: s_false,
                bypassed,
                lane,
                phys_tag,
            }
        } else {
            shadow
        };
        self.issued += 1;
        if self.issued.is_multiple_of(PRUNE_INTERVAL) {
            self.prune();
        }
        outcome
    }

    /// The in-order scheduling rule: issue-window slot, earliest-free lane,
    /// full RAW/WAW/WAR readiness on logical set IDs.
    fn issue_in_order(
        &mut self,
        kind: LaneKind,
        cycles: u64,
        reads: &[SetId],
        writes: &[SetId],
    ) -> IssueOutcome {
        // Structural constraint: with the window full, the oldest in-flight
        // item must retire (in program order) to free a slot.
        let structural = if self.window.len() >= self.depth {
            self.window.pop_front().unwrap_or(0)
        } else {
            0
        };
        // Resource constraint: the earliest-free vault lane, or the host.
        let (resource_free, lane) = match kind {
            LaneKind::Vault => {
                let (idx, &busy) = self
                    .lanes
                    .iter()
                    .enumerate()
                    .min_by_key(|&(i, &busy)| (busy, i))
                    .expect("at least one lane");
                (busy, Some(idx))
            }
            LaneKind::Host => (self.host_busy, None),
        };
        // Operand constraint: RAW/WAW/WAR hazards on the named sets.
        let ready = self.scoreboard.ready_at(reads, writes);

        let base = structural.max(resource_free);
        let start = base.max(ready);
        let dep_stall = ready.saturating_sub(base);
        let finish = start + cycles;

        match lane {
            Some(idx) => self.lanes[idx] = finish,
            None => self.host_busy = finish,
        }
        // In-order retirement: an item cannot retire before its predecessor.
        let retire = self.window.back().map_or(finish, |&r| r.max(finish));
        self.window.push_back(retire);
        self.scoreboard.record(reads, writes, finish);
        self.makespan = self.makespan.max(finish);
        IssueOutcome {
            start,
            finish,
            dep_stall,
            false_dep_removed: 0,
            bypassed: false,
            lane,
            phys_tag: None,
        }
    }

    /// Prunes retired hazard state from both scoreboards and the shadow
    /// last-producer map. Safe because every future vault item starts at or
    /// after the earliest-free lane (and the oldest in-flight retire once
    /// the window is full), so entries at or below that horizon can never
    /// again bind a start time.
    fn prune(&mut self) {
        let mut horizon = self.lanes.iter().copied().min().unwrap_or(0);
        if self.window.len() >= self.depth {
            horizon = horizon.max(self.window.front().copied().unwrap_or(0));
        }
        self.scoreboard.prune_completed(horizon);
        if let Some(ooo) = &mut self.ooo {
            ooo.last_write.retain(|_, &mut finish| finish > horizon);
            ooo.prune();
        }
    }

    /// Restarts the virtual clock at 0 and forgets all in-flight state (the
    /// load/measure boundary: statistics resets re-zero the timeline too).
    fn reset(&mut self) {
        for lane in &mut self.lanes {
            *lane = 0;
        }
        self.host_busy = 0;
        self.window.clear();
        self.scoreboard.clear();
        self.makespan = 0;
        self.issued = 0;
        if let Some(ooo) = &mut self.ooo {
            ooo.reset();
        }
    }
}

impl ModelQueue {
    /// `tracked_operands` without the timelines whose window is 1, which
    /// today's queue no longer gives hazard state.
    fn tracked_beyond_window_one(&self) -> usize {
        let reference = if self.depth > 1 {
            self.scoreboard.tracked()
        } else {
            0
        };
        let renamed = self
            .ooo
            .as_ref()
            .filter(|o| o.window > 1)
            .map_or(0, |o| o.board.tracked());
        reference + renamed
    }
}

// ---------------------------------------------------------------------------
// Random programs
// ---------------------------------------------------------------------------

/// One step of a random program, decoded from a single `u64` draw.
#[derive(Clone, Debug)]
enum Item {
    Issue(LaneKind, u64, Vec<SetId>, Vec<SetId>, WriteIntent),
    Reset,
}

/// Six logical IDs, so hazards and recycled IDs are the common case; host
/// items carry no operands (the queue rejects the combination).
fn decode(x: u64) -> Item {
    let field = |shift: u32, modulus: u64| (x >> shift) % modulus;
    if field(0, 211) == 0 {
        return Item::Reset;
    }
    let cycles = field(8, 40);
    if field(16, 8) == 0 {
        return Item::Issue(LaneKind::Host, cycles, vec![], vec![], WriteIntent::Produce);
    }
    let id = |shift: u32| SetId(field(shift, 6) as u32);
    let reads = (0..field(20, 3)).map(|i| id(24 + 4 * i as u32)).collect();
    let mut writes = Vec::new();
    for i in 0..field(36, 3) {
        let w = id(40 + 4 * i as u32);
        if !writes.contains(&w) {
            writes.push(w);
        }
    }
    let intent = if field(52, 4) == 0 {
        WriteIntent::Release
    } else {
        WriteIntent::Produce
    };
    Item::Issue(LaneKind::Vault, cycles, reads, writes, intent)
}

/// Programs run past `PRUNE_INTERVAL` several times over.
fn program() -> impl Strategy<Value = Vec<u64>> {
    collection::vec(any::<u64>(), 1..260)
}

/// Every getter the two queues share.
#[derive(Clone, Copy, Debug, PartialEq)]
struct Getters {
    makespan: u64,
    shadow_makespan: Option<u64>,
    bypasses: u64,
    rename_pressure: u64,
    rename_spills: u64,
    in_flight: usize,
    free_tags: Option<usize>,
    tracked_operands: usize,
    issued: u64,
}

/// Reads [`Getters`] off either queue type.
macro_rules! getters {
    ($q:expr) => {
        Getters {
            makespan: $q.makespan_cycles(),
            shadow_makespan: $q.shadow_makespan_cycles(),
            bypasses: $q.bypasses(),
            rename_pressure: $q.rename_pressure_cycles(),
            rename_spills: $q.rename_spills(),
            in_flight: $q.in_flight(),
            free_tags: $q.free_tags(),
            tracked_operands: $q.tracked_operands(),
            issued: $q.issued(),
        }
    };
}

/// Runs `program` through both queues, handing each step's pair of outcomes,
/// the model and the queue's getter tuple to `check`.
fn drive(
    mut model: ModelQueue,
    mut queue: IssueQueue,
    program: &[u64],
    check: impl Fn(usize, IssueOutcome, IssueOutcome, &ModelQueue, Getters),
) {
    for (i, &x) in program.iter().enumerate() {
        match decode(x) {
            Item::Reset => {
                model.reset();
                queue.reset();
            }
            Item::Issue(kind, cycles, reads, writes, intent) => {
                let expected = model.issue_op(kind, cycles, &reads, &writes, intent);
                let got = queue.issue_op(kind, cycles, &reads, &writes, intent);
                check(i, expected, got, &model, getters!(queue));
            }
        }
    }
}

proptest! {
    /// (1) The one `Schedule` reproduces both of the parent's copies.
    #[test]
    fn the_queue_matches_the_parent_model(
        depth in 0usize..10,
        lanes in 0usize..6,
        window in 0usize..13,
        tags in 0usize..11,
        program in program(),
    ) {
        let model = if tags == 0 {
            ModelQueue::new(if window == 0 { depth } else { window }, lanes)
        } else {
            ModelQueue::with_ooo(depth, lanes, window, tags)
        };
        let queue = IssueQueue::with_ooo(depth, lanes, window, tags);
        prop_assert_eq!(
            (model.depth(), model.lane_count(), model.ooo_window(), model.renaming()),
            (queue.depth(), queue.lane_count(), queue.ooo_window(), queue.renaming())
        );
        drive(model, queue, &program, |i, expected, got, model, queue| {
            prop_assert_eq!(expected, got, "item {}", i);
            // A timeline whose window is 1 starts every item at its
            // predecessor's retire, past every recorded operand time: it
            // keeps no hazard state now, and tracks nothing.
            let kept = Getters {
                tracked_operands: model.tracked_beyond_window_one(),
                ..getters!(model)
            };
            prop_assert_eq!(kept, queue, "getters after item {}", i);
        });
    }

    /// (2) What `with_ooo(.., 0)` used to arm differs from today's plain
    /// queue in bypass telemetry and the shadow makespan alone.
    #[test]
    fn a_window_without_tags_was_already_the_plain_queue(
        depth in 0usize..10,
        lanes in 0usize..6,
        window in 1usize..13,
        program in program(),
    ) {
        let model = ModelQueue::with_ooo(depth, lanes, window, 0);
        let queue = IssueQueue::with_ooo(depth, lanes, window, 0);
        drive(model, queue, &program, |i, expected, got, model, queue| {
            prop_assert_eq!(IssueOutcome { bypassed: false, ..expected }, got, "item {}", i);
            // The parent tracked hazards on both of its timelines here; one
            // timeline tracks them once (and not at all at window 1, as in
            // property 1).
            let kept = Getters {
                shadow_makespan: None,
                bypasses: 0,
                tracked_operands: queue.tracked_operands,
                ..getters!(model)
            };
            prop_assert_eq!(kept, queue, "getters after item {}", i);
        });
    }
}
