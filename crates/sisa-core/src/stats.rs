//! Execution statistics collected by the SISA runtime.
//!
//! [`ExecStats`] is a record of counters and nothing else. Its four
//! per-opcode tables are [`OpcodeCounts`] — a `Copy` array with one slot per
//! opcode — so the whole record is `Copy`: a mark is the record itself,
//! copied, and every delta is one field-by-field subtraction,
//! `add_since(current, at)`. [`ExecStats::merge`] is that sum against a zero
//! record, [`StatsScope`] is its public face, and [`crate::ShardedEngine`],
//! which resets every shard it takes over, folds its shards' records with
//! `merge` only when its statistics are read. The one ordered log that is not a counter, Figure 9b's operand sizes, lives
//! on the [`crate::SisaRuntime`] that records it.

use sisa_isa::SisaOpcode;
use std::borrow::Borrow;
use std::ops::{Index, IndexMut};

/// `funct7` → position in [`SisaOpcode::ALL`] (which ascends, so its last
/// entry is the largest `funct7`). Indexing by position rather than by
/// `funct7` keeps an [`OpcodeCounts`] at 24 words instead of 64: every
/// mark copies four of them.
const SLOT_OF_FUNCT7: [u8; SisaOpcode::ALL[SisaOpcode::ALL.len() - 1] as usize + 1] = {
    let mut table = [0; SisaOpcode::ALL[SisaOpcode::ALL.len() - 1] as usize + 1];
    let mut slot = 0;
    while slot < SisaOpcode::ALL.len() {
        table[SisaOpcode::ALL[slot] as usize] = slot as u8;
        slot += 1;
    }
    table
};

/// One `u64` counter per [`SisaOpcode`], read and written as `counts[op]`.
///
/// It reads like the ordered map it replaced — an opcode whose counter is
/// zero is absent from [`OpcodeCounts::get`], [`OpcodeCounts::iter`] and
/// [`OpcodeCounts::is_empty`], and `counts[&op]` names a counter as well as
/// `counts[op]` — but is a fixed array, so a statistics record is copied and
/// compared without walking or allocating anything.
#[derive(Clone, Copy, Default, PartialEq, Eq)]
pub struct OpcodeCounts([u64; SisaOpcode::ALL.len()]);

impl OpcodeCounts {
    fn slot(op: SisaOpcode) -> usize {
        SLOT_OF_FUNCT7[op.funct7() as usize] as usize
    }

    /// The opcode's counter, or `None` while it is zero.
    #[must_use]
    pub fn get(&self, op: &SisaOpcode) -> Option<&u64> {
        Some(&self[op]).filter(|&&n| n != 0)
    }

    /// The non-zero counters, in ascending opcode (`funct7`) order.
    pub fn iter(&self) -> impl Iterator<Item = (SisaOpcode, u64)> + '_ {
        SisaOpcode::ALL
            .into_iter()
            .zip(self.0)
            .filter(|&(_, n)| n != 0)
    }

    /// The sum of all counters.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// Whether every counter is zero.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.0 == [0; SisaOpcode::ALL.len()]
    }

    /// Zeroes every counter.
    pub fn clear(&mut self) {
        *self = Self::default();
    }

    /// Adds `current - at`, slot by slot.
    fn add_since(&mut self, current: &Self, at: &Self) {
        for ((n, now), before) in self.0.iter_mut().zip(current.0).zip(at.0) {
            *n += now - before;
        }
    }
}

impl<O: Borrow<SisaOpcode>> Index<O> for OpcodeCounts {
    type Output = u64;

    fn index(&self, op: O) -> &u64 {
        &self.0[Self::slot(*op.borrow())]
    }
}

impl<O: Borrow<SisaOpcode>> IndexMut<O> for OpcodeCounts {
    fn index_mut(&mut self, op: O) -> &mut u64 {
        &mut self.0[Self::slot(*op.borrow())]
    }
}

impl std::fmt::Debug for OpcodeCounts {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_map().entries(self.iter()).finish()
    }
}

/// Statistics accumulated while executing SISA instructions.
///
/// Cycles are split by the unit that spends them — the SCU (decode, metadata
/// lookups), SISA-PUM (in-situ bulk bitwise), SISA-PNM (vault cores) and the
/// host (scalar loop-control work reported by algorithms) — so the harness can
/// attribute speedups to the right mechanism.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct ExecStats {
    /// Cycles spent in the SISA Controller Unit (fixed delays + SMB/SM).
    pub scu_cycles: u64,
    /// Cycles spent executing bulk bitwise operations in DRAM (SISA-PUM).
    pub pum_cycles: u64,
    /// Cycles spent on logic-layer vault cores (SISA-PNM).
    pub pnm_cycles: u64,
    /// Cycles of host-side scalar work reported by the algorithm.
    pub host_cycles: u64,
    /// Cycles spent moving operands over vault/cube links (cross-shard
    /// transfers in a sharded engine; always 0 for flat engines).
    pub link_cycles: u64,
    /// Bytes moved over vault/cube links by cross-shard transfers.
    pub link_bytes: u64,
    /// Cycles instructions stalled on operand hazards (RAW/WAW/WAR on set
    /// IDs) in the scoreboarded issue queue, beyond what the issue window and
    /// lane availability already imposed. Always 0 for engines that do not
    /// model overlap and for a depth-1 (serial) queue.
    pub dep_stall_cycles: u64,
    /// Completion time of the overlapped schedule on the issue queue's
    /// virtual clock. Equals [`ExecStats::total_cycles`] for a depth-1
    /// (serial) queue; at depth > 1 with several lanes it is at most the
    /// serial total, and `work / makespan` is the overlap speedup. 0 for
    /// engines that do not model overlap (see the README engines table).
    pub makespan_cycles: u64,
    /// Dependence-stall cycles attributed per opcode (the instruction that
    /// stalled), feeding the instruction-mix stall report.
    pub dep_stall_by_opcode: OpcodeCounts,
    /// Dynamic instruction counts per opcode.
    pub instructions: OpcodeCounts,
    /// Number of operations dispatched to SISA-PUM.
    pub pum_ops: u64,
    /// Number of operations dispatched to SISA-PNM.
    pub pnm_ops: u64,
    /// Number of sparse operations executed with the merge algorithm.
    pub merge_selected: u64,
    /// Number of sparse operations executed with the galloping algorithm.
    pub gallop_selected: u64,
    /// SMB hits.
    pub smb_hits: u64,
    /// SMB misses.
    pub smb_misses: u64,
    /// Estimated energy in nanojoules.
    pub energy_nj: f64,
}

impl ExecStats {
    /// Total simulated cycles across all units.
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.scu_cycles + self.pum_cycles + self.pnm_cycles + self.host_cycles + self.link_cycles
    }

    /// Total dynamic SISA instruction count.
    #[must_use]
    pub fn total_instructions(&self) -> u64 {
        self.instructions.total()
    }

    /// Records one executed instruction of the given opcode.
    pub fn record_instruction(&mut self, opcode: SisaOpcode) {
        self.instructions[opcode] += 1;
    }

    /// Fraction of PIM-dispatched operations that went to SISA-PUM.
    #[must_use]
    pub fn pum_fraction(&self) -> f64 {
        let total = self.pum_ops + self.pnm_ops;
        if total == 0 {
            0.0
        } else {
            self.pum_ops as f64 / total as f64
        }
    }

    /// Overlap speedup of the scoreboarded issue queue: serial work divided
    /// by the overlapped makespan. 1.0 when no makespan was modelled.
    #[must_use]
    pub fn overlap_speedup(&self) -> f64 {
        if self.makespan_cycles == 0 {
            1.0
        } else {
            self.total_cycles() as f64 / self.makespan_cycles as f64
        }
    }

    /// SMB hit ratio.
    #[must_use]
    pub fn smb_hit_ratio(&self) -> f64 {
        let total = self.smb_hits + self.smb_misses;
        if total == 0 {
            0.0
        } else {
            self.smb_hits as f64 / total as f64
        }
    }

    /// Merges another statistics record into this one. Work counters add;
    /// `makespan_cycles` takes the maximum (merged records model units that
    /// ran in parallel, e.g. the shards of a [`crate::ShardedEngine`]).
    pub fn merge(&mut self, other: &ExecStats) {
        self.add_since(other, &ExecStats::default());
    }

    /// Adds `current - at` into `self`: what the observed record accrued
    /// since `at` was copied off it. The only arithmetic over the fields;
    /// [`ExecStats::merge`] is this sum against a zero record. Counters only
    /// grow between a mark and a read (statistics resets are handled by
    /// re-marking), so the subtraction is well defined. `makespan_cycles` is
    /// not a delta: the observed record's current makespan is folded in with
    /// `max`, so composite engines track the slowest parallel unit.
    pub(crate) fn add_since(&mut self, current: &ExecStats, at: &ExecStats) {
        self.scu_cycles += current.scu_cycles - at.scu_cycles;
        self.pum_cycles += current.pum_cycles - at.pum_cycles;
        self.pnm_cycles += current.pnm_cycles - at.pnm_cycles;
        self.host_cycles += current.host_cycles - at.host_cycles;
        self.link_cycles += current.link_cycles - at.link_cycles;
        self.link_bytes += current.link_bytes - at.link_bytes;
        self.dep_stall_cycles += current.dep_stall_cycles - at.dep_stall_cycles;
        self.makespan_cycles = self.makespan_cycles.max(current.makespan_cycles);
        self.dep_stall_by_opcode
            .add_since(&current.dep_stall_by_opcode, &at.dep_stall_by_opcode);
        self.instructions
            .add_since(&current.instructions, &at.instructions);
        self.pum_ops += current.pum_ops - at.pum_ops;
        self.pnm_ops += current.pnm_ops - at.pnm_ops;
        self.merge_selected += current.merge_selected - at.merge_selected;
        self.gallop_selected += current.gallop_selected - at.gallop_selected;
        self.smb_hits += current.smb_hits - at.smb_hits;
        self.smb_misses += current.smb_misses - at.smb_misses;
        self.energy_nj += current.energy_nj - at.energy_nj;
    }
}

/// An attribution scope over a live statistics record: everything an engine
/// accrues between [`StatsScope::begin`] and [`StatsScope::finish`] is carved
/// out as a standalone [`ExecStats`] delta.
///
/// This is the public face of the crate-private `add_since`, packaged for
/// *per-query attribution*: a long-lived engine (e.g. one worker of a
/// service pool) opens a scope around each piece of work and bills the
/// resulting delta to whoever asked for it. The scope holds a copy of the
/// record it opened on; opening one allocates nothing.
///
/// ## Exactness guarantees
///
/// * Every `u64` counter (cycles, bytes, instruction counts, stalls, …)
///   telescopes **exactly**: for any partition of an execution into
///   consecutive scopes, the per-scope deltas sum to precisely the engine's
///   aggregate, because each delta is an integer subtraction of running
///   totals.
/// * `energy_nj` deltas are exact differences of the engine's running `f64`
///   energy total. Recomposing sibling scopes of comparable magnitude is
///   bit-exact (the subtraction is exact by the Sterbenz lemma whenever the
///   running total at most doubles across a scope); wildly unbalanced
///   partitions recompose to within 1 ulp per scope boundary.
/// * `makespan_cycles` is **not** a delta: the scope reports the engine's
///   overlapped-clock position at `finish`, as [`ExecStats::merge`] takes the
///   maximum.
///
/// ## Example
///
/// ```
/// use sisa_core::{SetEngine, SisaConfig, SisaRuntime, StatsScope};
///
/// let mut rt = SisaRuntime::new(SisaConfig::default());
/// let a = rt.create_sorted([1, 2, 3]);
/// let b = rt.create_sorted([2, 3, 4]);
///
/// let scope = StatsScope::begin(rt.stats());
/// rt.intersect_count(a, b);
/// let per_query = scope.finish(rt.stats());
/// assert!(per_query.total_cycles() > 0);
/// assert_eq!(per_query.total_instructions(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct StatsScope {
    at: ExecStats,
}

impl StatsScope {
    /// Opens a scope at the record's current counters.
    #[must_use]
    pub fn begin(stats: &ExecStats) -> Self {
        StatsScope { at: *stats }
    }

    /// Returns the delta accrued since the scope opened (or since the last
    /// `split`) and re-anchors the scope at the record's current counters —
    /// carving one execution into consecutive, exactly-telescoping slices.
    #[must_use]
    pub fn split(&mut self, stats: &ExecStats) -> ExecStats {
        let mut delta = ExecStats::default();
        delta.add_since(stats, &self.at);
        self.at = *stats;
        delta
    }

    /// Closes the scope, returning everything accrued since it opened (or
    /// since the last [`StatsScope::split`]).
    #[must_use]
    pub fn finish(self, stats: &ExecStats) -> ExecStats {
        let mut delta = ExecStats::default();
        delta.add_since(stats, &self.at);
        delta
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // A record of counters is plain data: marks, scopes and shard folds copy
    // it. This does not build if a field that is not `Copy` comes back.
    const _: () = {
        const fn assert_copy<T: Copy>() {}
        assert_copy::<ExecStats>();
    };

    #[test]
    fn totals_and_ratios() {
        let mut s = ExecStats {
            scu_cycles: 10,
            pum_cycles: 20,
            pnm_cycles: 30,
            host_cycles: 40,
            pum_ops: 1,
            pnm_ops: 3,
            smb_hits: 9,
            smb_misses: 1,
            ..ExecStats::default()
        };
        s.record_instruction(SisaOpcode::IntersectAuto);
        s.record_instruction(SisaOpcode::IntersectAuto);
        s.record_instruction(SisaOpcode::UnionAuto);
        assert_eq!(s.total_cycles(), 100);
        assert_eq!(s.total_instructions(), 3);
        assert!((s.pum_fraction() - 0.25).abs() < 1e-12);
        assert!((s.smb_hit_ratio() - 0.9).abs() < 1e-12);
    }

    #[test]
    fn every_opcode_indexes_its_position_in_all() {
        for (position, op) in SisaOpcode::ALL.into_iter().enumerate() {
            assert_eq!(OpcodeCounts::slot(op), position, "{op:?}");
        }
    }

    #[test]
    fn empty_stats_have_zero_ratios() {
        let s = ExecStats::default();
        assert_eq!(s.total_cycles(), 0);
        assert_eq!(s.pum_fraction(), 0.0);
        assert_eq!(s.smb_hit_ratio(), 0.0);
    }

    #[test]
    fn total_cycles_include_link_transfers() {
        let s = ExecStats {
            pnm_cycles: 5,
            link_cycles: 7,
            link_bytes: 64,
            ..ExecStats::default()
        };
        assert_eq!(s.total_cycles(), 12);
    }

    #[test]
    fn checkpoint_delta_matches_direct_merge() {
        let mut base = ExecStats::default();
        base.record_instruction(SisaOpcode::IntersectAuto);
        base.pnm_cycles = 10;
        base.energy_nj = 1.0;

        let at = base;
        // Simulate further execution on the same record.
        let mut grown = base;
        grown.record_instruction(SisaOpcode::IntersectAuto);
        grown.record_instruction(SisaOpcode::UnionAuto);
        grown.pnm_cycles += 3;
        grown.scu_cycles += 2;
        grown.link_cycles += 9;
        grown.link_bytes += 128;
        grown.dep_stall_cycles += 6;
        grown.dep_stall_by_opcode[SisaOpcode::UnionAuto] += 6;
        grown.makespan_cycles = 40;
        grown.energy_nj += 0.5;

        let mut agg = ExecStats::default();
        agg.add_since(&grown, &at);
        assert_eq!(agg.total_instructions(), 2);
        assert_eq!(agg.instructions[&SisaOpcode::UnionAuto], 1);
        assert_eq!(agg.pnm_cycles, 3);
        assert_eq!(agg.scu_cycles, 2);
        assert_eq!(agg.link_cycles, 9);
        assert_eq!(agg.link_bytes, 128);
        assert_eq!(agg.dep_stall_cycles, 6);
        assert_eq!(agg.dep_stall_by_opcode[&SisaOpcode::UnionAuto], 6);
        assert_eq!(
            agg.makespan_cycles, 40,
            "makespan folds in the observed record's current value"
        );
        assert!((agg.energy_nj - 0.5).abs() < 1e-12);
    }

    #[test]
    fn merge_is_add_since_a_zero_record() {
        let mut other = ExecStats {
            scu_cycles: 3,
            link_bytes: 64,
            makespan_cycles: 17,
            gallop_selected: 2,
            energy_nj: 0.1 + 0.2,
            ..ExecStats::default()
        };
        other.record_instruction(SisaOpcode::CloneSet);
        other.dep_stall_by_opcode[SisaOpcode::IntersectMerge] += 5;

        let mut base = other;
        base.pnm_cycles = 9;
        let mut merged = base;
        merged.merge(&other);
        let mut since = base;
        since.add_since(&other, &ExecStats::default());
        assert_eq!(merged, since);

        // Nothing is lost on the way: a fresh record that merges `other` is
        // `other`, energy bit for bit (`x - 0.0` is `x`).
        let mut fresh = ExecStats::default();
        fresh.merge(&other);
        assert_eq!(fresh, other);
        assert_eq!(fresh.energy_nj.to_bits(), other.energy_nj.to_bits());
    }

    #[test]
    fn makespan_merges_as_a_maximum_and_stalls_add() {
        let mut a = ExecStats {
            makespan_cycles: 100,
            dep_stall_cycles: 5,
            ..ExecStats::default()
        };
        let b = ExecStats {
            makespan_cycles: 70,
            dep_stall_cycles: 8,
            ..ExecStats::default()
        };
        a.merge(&b);
        assert_eq!(a.makespan_cycles, 100, "parallel units: slowest wins");
        assert_eq!(a.dep_stall_cycles, 13);
    }

    #[test]
    fn overlap_speedup_is_work_over_makespan() {
        let s = ExecStats {
            pnm_cycles: 300,
            makespan_cycles: 100,
            ..ExecStats::default()
        };
        assert!((s.overlap_speedup() - 3.0).abs() < 1e-12);
        assert_eq!(ExecStats::default().overlap_speedup(), 1.0);
    }

    #[test]
    fn merge_accumulates_everything() {
        let mut a = ExecStats::default();
        a.record_instruction(SisaOpcode::IntersectAuto);
        a.pnm_cycles = 5;
        let mut b = ExecStats::default();
        b.record_instruction(SisaOpcode::IntersectAuto);
        b.record_instruction(SisaOpcode::Membership);
        b.pum_cycles = 7;
        b.energy_nj = 2.0;
        a.merge(&b);
        assert_eq!(a.total_instructions(), 3);
        assert_eq!(a.instructions[&SisaOpcode::IntersectAuto], 2);
        assert_eq!(a.total_cycles(), 12);
        assert!((a.energy_nj - 2.0).abs() < 1e-12);
    }
}
