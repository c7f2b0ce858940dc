//! The scoreboarded issue queue: overlapping independent, in-order SISA
//! instructions across virtual vault lanes.
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
//! A queue whose window holds one item (depth 1, `SisaConfig::default()`)
//! does constant work per item. Its structural floor is the previous item's
//! retire, which is also its makespan: every item starts no earlier than
//! its predecessor's retire, so it finishes no earlier than any item before
//! it. Every lane's and the host's busy time and every operand time a
//! scoreboard could hold is one of those finishes, so neither a resource
//! nor readiness ever exceeds the floor: such a queue starts each item at
//! the makespan, keeps no in-flight deque (its one slot is occupied from
//! the first issue on, which is all [`IssueQueue::in_flight`] reports),
//! neither reads nor records its scoreboard nor prunes it, and `dep_stall`
//! is 0 exactly as the full rule would have it. For the same
//! reason each vault item ends no earlier than every lane's busy time, so
//! the first least-busy lane is the least recently used one: while every
//! vault item since the last reset took cycles, that is lane `k mod lanes`
//! for the `k`-th, read off a rotation cursor. A zero-cycle vault item can
//! tie two lanes, which the first-minimum rule breaks by index, so from
//! the first one until [`IssueQueue::reset`] the lane scan decides again.

use crate::scoreboard::Scoreboard;
use sisa_isa::SetId;
use std::collections::VecDeque;

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

/// Whether an item's `writes` operands are produced or killed.
///
/// The queue ignores the intent: an in-order queue orders a write under the
/// same RAW/WAW/WAR rule either way. The type stays only because
/// `benchmark/src/layers.rs` imports it and passes it to
/// [`IssueQueue::issue_op`] (ROADMAP item 1B).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum WriteIntent {
    /// The item produces a new value for each written set.
    #[default]
    Produce,
    /// The item kills the written sets (`sisa.del`).
    Release,
}

/// Where one issued item landed on the virtual timeline.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct IssueOutcome {
    /// Cycle at which the item started executing.
    pub start: u64,
    /// Cycle at which the item completes.
    pub finish: u64,
    /// Cycles the item stalled on RAW/WAW/WAR operand hazards *beyond* what
    /// the issue window and lane availability already imposed.
    pub dep_stall: u64,
    /// The vault lane the item executed on (`None` for host items).
    pub lane: Option<usize>,
}

/// A bounded, scoreboarded, in-order issue queue over virtual vault lanes.
///
/// The queue is *analytic*: it never simulates cycle-by-cycle, it computes
/// each item's start time as the maximum of its three constraints
/// (issue-window slot, operand readiness, resource availability) and
/// advances the affected timelines. All times are on a virtual clock that
/// starts at 0 and is reset by [`IssueQueue::reset`].
#[derive(Clone, Debug)]
pub struct IssueQueue {
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
    /// program order, so the deque is non-decreasing (never touched at
    /// window 1).
    inflight: VecDeque<u64>,
    /// Hazard state on logical set IDs (never touched at window 1).
    board: Scoreboard,
    /// Completion time of the schedule.
    makespan: u64,
    issued: u64,
}

impl IssueQueue {
    /// Creates an in-order queue with `depth` in-flight slots over `lanes`
    /// vault lanes. Both are clamped to at least 1.
    #[must_use]
    pub fn new(depth: usize, lanes: usize) -> Self {
        let window = depth.max(1);
        Self {
            window,
            lanes: vec![0; lanes.max(1)],
            next_lane: Self::rotation(window),
            host_busy: 0,
            inflight: VecDeque::new(),
            board: Scoreboard::new(),
            makespan: 0,
            issued: 0,
        }
    }

    /// The lane cursor a fresh timeline starts with: lane 0 at window 1,
    /// none otherwise.
    fn rotation(window: usize) -> Option<usize> {
        (window == 1).then_some(0)
    }

    /// The configured issue-window depth.
    #[must_use]
    pub fn depth(&self) -> usize {
        self.window
    }

    /// The number of virtual vault lanes.
    #[must_use]
    pub fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Completion time of the overlapped schedule so far.
    #[must_use]
    pub fn makespan_cycles(&self) -> u64 {
        self.makespan
    }

    /// Number of items issued since the last reset.
    #[must_use]
    pub fn issued(&self) -> u64 {
        self.issued
    }

    /// Items currently occupying the issue window — the queue-depth sample
    /// telemetry collectors record.
    #[must_use]
    pub fn in_flight(&self) -> usize {
        if self.window == 1 {
            usize::from(self.issued > 0)
        } else {
            self.inflight.len()
        }
    }

    /// Number of operand IDs currently carrying hazard state (capacity
    /// telemetry; pruning keeps this bounded by the in-flight footprint). A
    /// window of 1 tracks nothing, so a depth-1 queue reads 0.
    #[must_use]
    pub fn tracked_operands(&self) -> usize {
        self.board.tracked()
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

    /// Issues one timed work item producing its written sets: `cycles` of
    /// execution on `kind`, reading `reads` and writing `writes`. Returns
    /// where it landed on the timeline. Inlined into the runtime's
    /// per-instruction path, where the depth-1 branch folds away to a few
    /// stores.
    #[inline]
    pub fn issue(
        &mut self,
        kind: LaneKind,
        cycles: u64,
        reads: &[SetId],
        writes: &[SetId],
    ) -> IssueOutcome {
        // Host items model the serial scalar resource and must not name
        // operand sets: the retire-horizon pruning proof covers vault items
        // only (a host item with hazards could start below the lane-derived
        // horizon and read pruned state). The runtime never issues one.
        assert!(
            kind != LaneKind::Host || (reads.is_empty() && writes.is_empty()),
            "host items must not carry operand sets"
        );
        // Resource: the earliest-free vault lane, or the host.
        let lane = match kind {
            LaneKind::Vault => Some(self.pick_lane(cycles)),
            LaneKind::Host => None,
        };
        // At window 1 the floor is the makespan, which bounds every resource
        // and every time the scoreboard could hold (module docs): the item
        // starts there, with no window, hazard or pruning state to keep.
        let serial = self.window == 1;
        let (start, dep_stall) = if serial {
            (self.makespan, 0)
        } else {
            // Structural constraint: a full window frees its oldest slot at
            // that item's in-order retire time.
            let structural = if self.window_full() {
                self.inflight.pop_front().unwrap_or(0)
            } else {
                0
            };
            let resource = lane.map_or(self.host_busy, |idx| self.lanes[idx]);
            // Operand constraint.
            let ready = self.board.ready_at(reads, writes);
            let base = structural.max(resource);
            (base.max(ready), ready.saturating_sub(base))
        };
        let finish = start + cycles;

        match lane {
            Some(idx) => self.lanes[idx] = finish,
            None => self.host_busy = finish,
        }
        if !serial {
            // In-order retirement: an item cannot retire before its
            // predecessor.
            let retire = self.inflight.back().map_or(finish, |&r| r.max(finish));
            self.inflight.push_back(retire);
            self.board.record(reads, writes, finish);
        }
        self.makespan = self.makespan.max(finish);
        self.issued += 1;
        if !serial && self.issued.is_multiple_of(PRUNE_INTERVAL) {
            self.prune();
        }
        IssueOutcome {
            start,
            finish,
            dep_stall,
            lane,
        }
    }

    /// [`IssueQueue::issue`] with a [`WriteIntent`], which the queue ignores.
    pub fn issue_op(
        &mut self,
        kind: LaneKind,
        cycles: u64,
        reads: &[SetId],
        writes: &[SetId],
        _intent: WriteIntent,
    ) -> IssueOutcome {
        self.issue(kind, cycles, reads, writes)
    }

    /// Drops hazard state that can no longer bind a start time: every future
    /// vault item starts at or after the earliest-free lane, and with a full
    /// window at or after the oldest in-flight retire.
    fn prune(&mut self) {
        let mut horizon = self.lanes.iter().copied().min().unwrap_or(0);
        if self.window_full() {
            horizon = horizon.max(self.inflight.front().copied().unwrap_or(0));
        }
        self.board.prune_completed(horizon);
    }

    /// Restarts the virtual clock at 0 and forgets all in-flight state (the
    /// load/measure boundary: statistics resets re-zero the timeline too).
    pub fn reset(&mut self) {
        self.lanes.fill(0);
        self.next_lane = Self::rotation(self.window);
        self.host_busy = 0;
        self.inflight.clear();
        self.board.clear();
        self.makespan = 0;
        self.issued = 0;
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
        assert_eq!(q.next_lane, Some(0), "the rotation is re-armed");
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
            "hazard state must stay near the in-flight footprint, \
             got {}",
            q.tracked_operands()
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
    fn telemetry_getters_expose_occupancy() {
        let mut q = IssueQueue::new(4, 2);
        assert_eq!(q.in_flight(), 0);
        q.issue(LaneKind::Vault, 5, &[], &ids(&[1]));
        assert_eq!(q.in_flight(), 1);
        assert_eq!(q.tracked_operands(), 1);
    }
}
