//! The set-ID scoreboard: hazard tracking for the issue queue.
//!
//! SISA instructions name *sets*, not registers, so the dependences that
//! decide whether two instructions may overlap are dependences on set IDs:
//!
//! * **RAW** — an instruction reading a set must wait for the last write to
//!   that set to complete;
//! * **WAW** — an instruction writing a set must wait for the previous write
//!   to complete (results must land in program order);
//! * **WAR** — an instruction writing a set must wait for every earlier
//!   reader to drain (the write would otherwise clobber an operand that is
//!   still streaming out of a vault).
//!
//! [`Scoreboard`] keeps, per set ID, the completion time of the last write
//! and the latest completion time over all reads, on the issue queue's
//! virtual clock. [`Scoreboard::ready_at`] folds the three hazard rules into
//! the earliest cycle an instruction's operands allow it to start, and
//! [`Scoreboard::record`] publishes an issued instruction's completion time.
//!
//! Set IDs are reused after deletion (the slot allocator is LIFO) and the
//! stale times are deliberately kept: a `sisa.new` that recycles the ID
//! *writes* it, so the WAW/WAR rules serialise the new set's creation behind
//! every use of its predecessor — exactly the conservative behaviour a real
//! SCU tracking physical set slots would exhibit.
//!
//! Only a queue with more than one item in flight consults the scoreboard.
//! At depth 1 — the default — an item's floor is its predecessor's retire,
//! which bounds every time a scoreboard could record, so the queue neither
//! reads nor writes one (see [`crate::pipeline`]).
//!
//! Entries whose recorded times can no longer influence any future schedule
//! are pruned by [`Scoreboard::prune_completed`], so [`Scoreboard::tracked`]
//! — the number of IDs carrying hazard state — stays bounded by the
//! *in-flight* operand footprint instead of growing with every set ID the
//! program ever touched.
//!
//! Set IDs are dense indices, so the hazard state lives in a flat table
//! indexed by raw ID and every `ready_at`/`record` is an index, not a
//! search. The table's *length* is therefore the largest ID ever
//! recorded — the same bound the runtime's set store already pays, and the
//! reason only IDs minted by the slot allocator may be recorded. A side list
//! of the tracked IDs lets pruning and clearing walk the in-flight footprint
//! only, never the whole table.

use crate::slots::slot_mut;
use sisa_isa::SetId;

/// Completion times recorded for one set ID.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
struct SetTimes {
    /// Cycle at which the last write to the set completes.
    write_done: u64,
    /// Latest cycle at which any read of the set completes.
    reads_done: u64,
}

/// Tracks RAW/WAW/WAR hazards on operand sets for the issue queue.
#[derive(Clone, Debug, Default)]
pub struct Scoreboard {
    /// `slots[raw]` is `Some` exactly when `raw` carries hazard state.
    slots: Vec<Option<SetTimes>>,
    /// The raw IDs with a `Some` slot, in no particular order.
    tracked: Vec<u32>,
}

impl Scoreboard {
    /// Creates an empty scoreboard.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    fn entry(&self, id: SetId) -> SetTimes {
        match self.slots.get(id.raw() as usize) {
            Some(Some(times)) => *times,
            _ => SetTimes::default(),
        }
    }

    /// The hazard state of `id`, which starts being tracked if it was not.
    fn entry_mut(&mut self, id: SetId) -> &mut SetTimes {
        let tracked = &mut self.tracked;
        slot_mut(&mut self.slots, id, None).get_or_insert_with(|| {
            tracked.push(id.raw());
            SetTimes::default()
        })
    }

    /// The earliest cycle at which an instruction reading `reads` and writing
    /// `writes` may start, honouring RAW, WAW and WAR hazards.
    #[must_use]
    pub fn ready_at(&self, reads: &[SetId], writes: &[SetId]) -> u64 {
        let mut ready = 0;
        for &r in reads {
            // RAW: the operand must have been produced.
            ready = ready.max(self.entry(r).write_done);
        }
        for &w in writes {
            let t = self.entry(w);
            // WAW: writes to a set complete in program order.
            // WAR: earlier readers drain before the set is overwritten.
            ready = ready.max(t.write_done).max(t.reads_done);
        }
        ready
    }

    /// Publishes an issued instruction's completion time against its operands.
    pub fn record(&mut self, reads: &[SetId], writes: &[SetId], finish: u64) {
        for &r in reads {
            let t = self.entry_mut(r);
            t.reads_done = t.reads_done.max(finish);
        }
        for &w in writes {
            let t = self.entry_mut(w);
            t.write_done = t.write_done.max(finish);
        }
    }

    /// Prunes every entry whose recorded times have fully retired: once the
    /// issue queue can prove that no future instruction will start before
    /// `horizon`, an entry with both times `<= horizon` can never again bind
    /// a `ready_at` result (the start-time max is dominated by the queue's
    /// structural/resource floor), so dropping it changes no schedule.
    /// Returns the number of entries dropped.
    pub fn prune_completed(&mut self, horizon: u64) -> usize {
        let before = self.tracked.len();
        let slots = &mut self.slots;
        self.tracked.retain(|&raw| {
            let entry = &mut slots[raw as usize];
            let times = entry.expect("tracked IDs have a slot");
            let keep = times.write_done > horizon || times.reads_done > horizon;
            if !keep {
                *entry = None;
            }
            keep
        });
        before - self.tracked.len()
    }

    /// Forgets every recorded time (the timeline restarts at cycle 0).
    pub fn clear(&mut self) {
        for raw in self.tracked.drain(..) {
            self.slots[raw as usize] = None;
        }
    }

    /// Number of set IDs with recorded hazard state (capacity telemetry).
    #[must_use]
    pub fn tracked(&self) -> usize {
        self.tracked.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn independent_sets_are_always_ready() {
        let mut sb = Scoreboard::new();
        sb.record(&[], &[SetId(0)], 100);
        assert_eq!(sb.ready_at(&[SetId(1)], &[SetId(2)]), 0);
    }

    #[test]
    fn raw_waits_for_the_producing_write() {
        let mut sb = Scoreboard::new();
        sb.record(&[], &[SetId(3)], 40);
        assert_eq!(sb.ready_at(&[SetId(3)], &[]), 40);
        // Reads do not gate later reads.
        sb.record(&[SetId(3)], &[], 90);
        assert_eq!(sb.ready_at(&[SetId(3)], &[]), 40);
    }

    #[test]
    fn waw_and_war_gate_writes() {
        let mut sb = Scoreboard::new();
        sb.record(&[], &[SetId(5)], 30); // write at 30
        sb.record(&[SetId(5)], &[], 70); // read drains at 70
                                         // A new write must wait for both the prior write and the reader.
        assert_eq!(sb.ready_at(&[], &[SetId(5)]), 70);
    }

    #[test]
    fn clear_restarts_the_timeline() {
        let mut sb = Scoreboard::new();
        sb.record(&[], &[SetId(9)], 500);
        assert!(sb.tracked() > 0);
        sb.clear();
        assert_eq!(sb.ready_at(&[SetId(9)], &[SetId(9)]), 0);
        assert_eq!(sb.tracked(), 0);
    }

    #[test]
    fn recycled_ids_serialise_behind_their_predecessor() {
        let mut sb = Scoreboard::new();
        sb.record(&[SetId(2)], &[], 80); // old set still being read until 80
        sb.record(&[], &[SetId(2)], 50); // delete completes at 50
                                         // Creating a new set in the recycled slot is a write: WAR against the
                                         // old reader keeps it ordered.
        assert_eq!(sb.ready_at(&[], &[SetId(2)]), 80);
    }

    #[test]
    fn pruning_drops_only_retired_entries() {
        let mut sb = Scoreboard::new();
        sb.record(&[], &[SetId(1)], 50);
        sb.record(&[SetId(2)], &[], 200);
        sb.record(&[], &[SetId(3)], 120);
        // Horizon 100: only set 1 (both times <= 100) is prunable.
        assert_eq!(sb.prune_completed(100), 1);
        assert_eq!(sb.tracked(), 2);
        // The surviving entries still constrain schedules.
        assert_eq!(sb.ready_at(&[], &[SetId(2)]), 200);
        assert_eq!(sb.ready_at(&[SetId(3)], &[]), 120);
        // And the pruned one no longer does (which is safe: the queue only
        // prunes once every future start is provably >= the horizon).
        assert_eq!(sb.ready_at(&[SetId(1)], &[SetId(1)]), 0);
    }

    #[test]
    fn pruning_a_long_id_stream_keeps_the_scoreboard_bounded() {
        // Regression for the unbounded-growth bug: a scoreboard fed an
        // ever-growing stream of distinct IDs used to retain one entry per ID
        // forever. Pruning at the retire horizon keeps it at the in-flight
        // footprint.
        let mut sb = Scoreboard::new();
        for i in 0..10_000u32 {
            let t = u64::from(i) * 10;
            sb.record(&[SetId(i)], &[SetId(i)], t + 10);
            if i % 64 == 0 {
                // Everything finishing at or before `t` has retired.
                sb.prune_completed(t);
            }
        }
        sb.prune_completed(u64::MAX);
        assert_eq!(sb.tracked(), 0);
    }
}
