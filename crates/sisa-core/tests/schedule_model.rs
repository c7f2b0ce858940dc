//! The in-order scheduling rule as the parent of the one-`Schedule` change
//! spelled it, kept as the oracle for today's [`IssueQueue`].
//!
//! `ModelQueue` below is that parent's `pipeline.rs` in-order queue
//! (`IssueQueue::issue_in_order` verbatim, with the constructor, getters,
//! `prune` and `reset` it needs; only the type name, `pub` and `#[must_use]`
//! are changed, and the fields of [`IssueOutcome`] that the queue no longer
//! has are dropped). One property drives random programs through model and
//! queue: every [`IssueOutcome`] field and every getter agree after every
//! item, except that a queue whose window is 1 no longer tracks hazard state
//! (`tracked_operands` reads 0). A second queue runs the same program with
//! every [`WriteIntent`] flipped and must land every item identically: the
//! queue ignores the intent.
//!
//! The property was seen to fail under each of these one-line mutations of
//! `pipeline.rs`:
//!
//! * `IssueQueue::issue`: `retire = finish` (retirement not in order);
//!   `ready` read with the `writes` dropped (the RAW rule alone);
//! * `IssueQueue::pick_lane`: the scan over `.rev()` lanes (the last of
//!   equally free lanes, not the first); the window-1 rotation kept armed
//!   through a zero-cycle item (no fallback to the scan);
//! * `IssueQueue::window_full`: `>` for `>=`;
//! * `IssueQueue::prune`: the full-window term of the horizon dropped;
//! * `IssueQueue::issue_op`: `Release` items issued with their writes as
//!   reads.
//!
//! The window-1 path, which starts every item at the makespan and keeps no
//! in-flight deque, was seen to fail under:
//!
//! * `IssueQueue::issue`: the serial start read off the picked lane's (or
//!   the host's) busy time instead of the makespan;
//! * `IssueQueue::in_flight`: reading 0 after an issue at window 1.

use proptest::prelude::*;
use sisa_core::{IssueOutcome, IssueQueue, LaneKind, Scoreboard, WriteIntent};
use sisa_isa::SetId;
use std::collections::VecDeque;

// ---------------------------------------------------------------------------
// The parent's pipeline.rs
// ---------------------------------------------------------------------------

/// How often (in issued items) the queue prunes retired scoreboard entries.
const PRUNE_INTERVAL: u64 = 64;

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
        }
    }

    /// The configured issue-window depth.
    fn depth(&self) -> usize {
        self.depth
    }

    /// The number of virtual vault lanes.
    fn lane_count(&self) -> usize {
        self.lanes.len()
    }

    /// Completion time of the overlapped schedule so far.
    fn makespan_cycles(&self) -> u64 {
        self.makespan
    }

    /// Number of items issued since the last reset.
    fn issued(&self) -> u64 {
        self.issued
    }

    /// Items currently occupying the issue window — the queue-depth sample
    /// telemetry collectors record.
    fn in_flight(&self) -> usize {
        self.window.len()
    }

    /// Number of operand IDs currently carrying hazard state (capacity
    /// telemetry; pruning keeps this bounded by the in-flight footprint).
    fn tracked_operands(&self) -> usize {
        self.scoreboard.tracked()
    }

    /// Issues one timed work item and prunes every `PRUNE_INTERVAL` items.
    fn issue(
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
        let outcome = self.issue_in_order(kind, cycles, reads, writes);
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
            lane,
        }
    }

    /// Prunes retired hazard state. Safe because every future vault item
    /// starts at or after the earliest-free lane (and the oldest in-flight
    /// retire once the window is full), so entries at or below that horizon
    /// can never again bind a start time.
    fn prune(&mut self) {
        let mut horizon = self.lanes.iter().copied().min().unwrap_or(0);
        if self.window.len() >= self.depth {
            horizon = horizon.max(self.window.front().copied().unwrap_or(0));
        }
        self.scoreboard.prune_completed(horizon);
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
    }
}

impl ModelQueue {
    /// `tracked_operands`, except at window 1, where today's queue keeps no
    /// hazard state.
    fn tracked_beyond_window_one(&self) -> usize {
        if self.depth > 1 {
            self.scoreboard.tracked()
        } else {
            0
        }
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
    in_flight: usize,
    tracked_operands: usize,
    issued: u64,
}

/// Reads [`Getters`] off either queue type.
macro_rules! getters {
    ($q:expr) => {
        Getters {
            makespan: $q.makespan_cycles(),
            in_flight: $q.in_flight(),
            tracked_operands: $q.tracked_operands(),
            issued: $q.issued(),
        }
    };
}

/// The other [`WriteIntent`].
fn flip(intent: WriteIntent) -> WriteIntent {
    match intent {
        WriteIntent::Produce => WriteIntent::Release,
        WriteIntent::Release => WriteIntent::Produce,
    }
}

proptest! {
    /// Today's queue reproduces the parent's in-order queue, whatever the
    /// intent of each write.
    #[test]
    fn the_queue_matches_the_parent_model(
        depth in 0usize..10,
        lanes in 0usize..6,
        program in program(),
    ) {
        let mut model = ModelQueue::new(depth, lanes);
        let mut queue = IssueQueue::new(depth, lanes);
        let mut flipped = IssueQueue::new(depth, lanes);
        prop_assert_eq!(
            (model.depth(), model.lane_count()),
            (queue.depth(), queue.lane_count())
        );
        for (i, &x) in program.iter().enumerate() {
            match decode(x) {
                Item::Reset => {
                    model.reset();
                    queue.reset();
                    flipped.reset();
                }
                Item::Issue(kind, cycles, reads, writes, intent) => {
                    let expected = model.issue(kind, cycles, &reads, &writes);
                    let got = queue.issue_op(kind, cycles, &reads, &writes, intent);
                    let other = flipped.issue_op(kind, cycles, &reads, &writes, flip(intent));
                    prop_assert_eq!(expected, got, "item {}", i);
                    prop_assert_eq!(got, other, "item {} with its intent flipped", i);
                    // A window of 1 starts every item at its predecessor's
                    // retire, past every recorded operand time: it keeps no
                    // hazard state now, and tracks nothing.
                    let kept = Getters {
                        tracked_operands: model.tracked_beyond_window_one(),
                        ..getters!(model)
                    };
                    prop_assert_eq!(kept, getters!(queue), "getters after item {}", i);
                    prop_assert_eq!(getters!(flipped), getters!(queue), "flipped getters after item {}", i);
                }
            }
        }
    }
}
