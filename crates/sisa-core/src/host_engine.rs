//! A software set-centric backend on the baseline CPU model.
//!
//! [`HostEngine`] implements [`SetEngine`] without any PIM hardware: its sets
//! live in a [`FunctionalEngine`], which computes every operation, and the
//! engine itself only charges the cost to a simulated out-of-order CPU
//! hardware thread ([`CpuThread`], §9.1) — each set has a `Region` at a
//! synthetic address, binary operations stream their operands through the
//! cache hierarchy, probes into dense bitvectors are dependent random
//! accesses, and merge loops pay the data-dependent-branch penalty software
//! sorted-set intersection is known for.
//!
//! This is what makes backend comparisons a one-line change: the figure
//! harnesses run the *same* generic set-centric algorithm with a
//! [`crate::SisaRuntime`] (PIM) and a `HostEngine` (CPU) and schedule the
//! resulting task records, instead of maintaining per-backend algorithm
//! drivers. Unlike the SISA runtime's task records, `HostEngine` records carry
//! real stall cycles and DRAM traffic, so [`crate::parallel::schedule_cpu`]
//! can model memory-bandwidth contention between threads (Figure 1).
//!
//! Every operation reads its operands from the store before it charges
//! anything, so a dangling ID faults there, with nothing charged, and an
//! in-place operation's inputs are priced from `A`'s old contents.

use crate::engine::{Dest, Outcome, SetEngine, SetOp};
use crate::functional::FunctionalEngine;
use crate::parallel::TaskRecord;
use crate::stats::ExecStats;
use crate::Vertex;
use sisa_isa::{SetId, SisaOpcode};
use sisa_pim::{AddressSpace, CpuConfig, CpuThread, Cycles};
use sisa_sets::{RepresentationKind, SetRepr};

/// The synthetic address region backing one set in the cache model.
#[derive(Clone, Copy, Debug, Default)]
struct Region {
    base: u64,
    alloc_bytes: u64,
}

/// A [`SetEngine`] executing set operations in software on the baseline CPU
/// cost model.
#[derive(Clone, Debug)]
pub struct HostEngine {
    store: FunctionalEngine,
    thread: CpuThread,
    space: AddressSpace,
    /// `regions[raw]` backs the live set `raw`; a freed ID keeps its stale
    /// region until the store mints it again.
    regions: Vec<Region>,
    stats: ExecStats,
    cycles_at_reset: Cycles,
}

impl HostEngine {
    /// Creates an engine on one CPU hardware thread; `threads_sharing_l3`
    /// determines its slice of the shared L3 (as in [`CpuThread::new`]).
    #[must_use]
    pub fn new(cfg: &CpuConfig, threads_sharing_l3: usize) -> Self {
        Self {
            store: FunctionalEngine::new(),
            thread: CpuThread::new(cfg, threads_sharing_l3),
            space: AddressSpace::new(),
            regions: Vec::new(),
            stats: ExecStats::default(),
            cycles_at_reset: 0,
        }
    }

    /// Creates an engine with the default CPU configuration and a private L3.
    #[must_use]
    pub fn with_defaults() -> Self {
        Self::new(&CpuConfig::default(), 1)
    }

    /// The underlying CPU thread model (exposed for harnesses).
    #[must_use]
    pub fn thread(&self) -> &CpuThread {
        &self.thread
    }

    /// Bytes the stored set `id` occupies in memory.
    fn bytes(&self, id: SetId) -> u64 {
        (self.store.repr(id).storage_bits() / 8) as u64
    }

    /// Gives the freshly stored set `id` a region and charges its write-out.
    fn write_new(&mut self, id: SetId) {
        let bytes = self.bytes(id);
        let region = Region {
            base: self.space.alloc(bytes.max(64)),
            alloc_bytes: bytes.max(64),
        };
        *crate::slots::slot_mut(&mut self.regions, id, Region::default()) = region;
        self.thread.stream(region.base, bytes);
        // The write-out advanced the thread's cycle counter; keep the
        // statistics current so per-op deltas attribute it to this operation.
        self.sync();
    }

    /// Charges the write-out of the rewritten set `id`, reallocating its
    /// region if the set outgrew it.
    fn rewrite(&mut self, id: SetId) {
        let bytes = self.bytes(id);
        let region = &mut self.regions[id.0 as usize];
        if bytes > region.alloc_bytes {
            region.base = self.space.alloc(bytes);
            region.alloc_bytes = bytes;
        }
        let base = region.base;
        self.thread.stream(base, bytes);
        self.sync();
    }

    /// Streams a whole set in from memory.
    fn stream_set(&mut self, id: SetId) {
        let bytes = self.bytes(id);
        self.thread.stream(self.regions[id.0 as usize].base, bytes);
    }

    /// The stored set `id` with its region: the store is read first, so a
    /// dangling ID faults there.
    fn stored(&self, id: SetId) -> (&SetRepr, u64) {
        (self.store.repr(id), self.regions[id.0 as usize].base)
    }

    /// Charges the software execution of one binary operation over `a` and
    /// `b` (operand reads + compute; the result's write-out is charged
    /// separately by `write_new`/`rewrite`).
    fn charge_binary_inputs(&mut self, a: SetId, b: SetId) {
        match (self.store.repr(a), self.store.repr(b)) {
            // Bitmap AND/OR/ANDNOT: stream both bitmaps, one scalar op per
            // machine word of the wider operand.
            (SetRepr::Dense(da), SetRepr::Dense(db)) => {
                let words = da.universe().max(db.universe()).div_ceil(64) as u64;
                self.stream_set(a);
                self.stream_set(b);
                self.thread.scalar_ops(words.max(1));
            }
            // Sparse against dense: stream the sparse side, one dependent bit
            // probe into the bitmap per element.
            (SetRepr::Dense(_), _) => self.charge_probe(b, a),
            (_, SetRepr::Dense(_)) => self.charge_probe(a, b),
            // Sparse merge: stream both arrays, pay the merge-loop scalar work.
            (ra, rb) => {
                let elements = (ra.len() + rb.len()) as u64;
                self.stream_set(a);
                self.stream_set(b);
                self.thread
                    .scalar_ops(CpuThread::MERGE_OPS_PER_ELEMENT * elements);
            }
        }
    }

    /// Streams the sparse set and probes the dense bitmap once per element
    /// (probe order does not matter for the cost model, so the members are
    /// walked in storage order without sorting).
    fn charge_probe(&mut self, sparse: SetId, dense: SetId) {
        self.stream_set(sparse);
        let dense_base = self.regions[dense.0 as usize].base;
        for v in self.store.repr(sparse).iter() {
            self.thread.random_access(dense_base + u64::from(v) / 8);
            self.thread.scalar_ops(CpuThread::PROBE_OPS_PER_STEP);
        }
    }

    /// Records the dynamic operation count and syncs the cycle statistics.
    fn count(&mut self, opcode: SisaOpcode) {
        self.stats.record_instruction(opcode);
        self.sync();
    }

    /// Mirrors the CPU thread's cycle counter into the statistics.
    fn sync(&mut self) {
        self.stats.host_cycles = self.thread.cycles() - self.cycles_at_reset;
    }
}

impl Default for HostEngine {
    fn default() -> Self {
        Self::with_defaults()
    }
}

impl SetEngine for HostEngine {
    fn backend_name(&self) -> &'static str {
        "cpu"
    }

    fn set_universe(&mut self, n: usize) {
        self.store.set_universe(n);
    }

    fn universe(&self) -> usize {
        self.store.universe()
    }

    fn stats(&self) -> &ExecStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = ExecStats::default();
        self.cycles_at_reset = self.thread.cycles();
    }

    fn live_sets(&self) -> usize {
        self.store.live_sets()
    }

    fn create(&mut self, repr: SetRepr) -> SetId {
        let id = self.store.create(repr);
        self.write_new(id);
        self.count(SisaOpcode::CreateSet);
        id
    }

    fn clone_set(&mut self, id: SetId) -> SetId {
        self.stream_set(id);
        let new_id = self.store.clone_set(id);
        self.write_new(new_id);
        self.count(SisaOpcode::CloneSet);
        new_id
    }

    fn delete(&mut self, id: SetId) {
        self.store.delete(id);
        self.thread.scalar_ops(1);
        self.count(SisaOpcode::DeleteSet);
    }

    fn cardinality(&mut self, id: SetId) -> usize {
        // Software sets keep their length in a header word.
        let (repr, base) = self.stored(id);
        let len = repr.len();
        self.thread.access(base);
        self.thread.scalar_ops(1);
        self.count(SisaOpcode::Cardinality);
        len
    }

    fn contains(&mut self, id: SetId, v: Vertex) -> bool {
        let (repr, base) = self.stored(id);
        let (kind, len) = (repr.kind(), repr.len());
        match kind {
            RepresentationKind::DenseBitvector => {
                self.thread.random_access(base + u64::from(v) / 8);
                self.thread.scalar_ops(CpuThread::PROBE_OPS_PER_STEP);
            }
            RepresentationKind::SortedArray => {
                // Binary search: one dependent access per level.
                let levels = (usize::BITS - len.leading_zeros()).max(1) as u64;
                for level in 0..levels {
                    self.thread.random_access(base + level * 64);
                    self.thread.scalar_ops(CpuThread::PROBE_OPS_PER_STEP);
                }
            }
        }
        let result = self.store.contains(id, v);
        self.count(SisaOpcode::Membership);
        result
    }

    fn members(&mut self, id: SetId) -> Vec<Vertex> {
        self.stream_set(id);
        let members = self.store.members(id);
        self.thread.scalar_ops(members.len() as u64);
        self.sync();
        members
    }

    fn repr(&self, id: SetId) -> &SetRepr {
        self.store.repr(id)
    }

    fn insert(&mut self, id: SetId, v: Vertex) -> bool {
        let (repr, base) = self.stored(id);
        let (kind, len) = (repr.kind(), repr.len() as u64);
        match kind {
            RepresentationKind::DenseBitvector => {
                self.thread.random_access(base + u64::from(v) / 8);
            }
            // Sorted insertion shifts half the array on average.
            RepresentationKind::SortedArray => self.thread.stream(base, (len * 4) / 2),
        }
        self.thread.scalar_ops(2);
        let changed = self.store.insert(id, v);
        self.count(SisaOpcode::InsertElement);
        changed
    }

    fn remove(&mut self, id: SetId, v: Vertex) -> bool {
        let (repr, base) = self.stored(id);
        let (kind, len) = (repr.kind(), repr.len() as u64);
        match kind {
            RepresentationKind::DenseBitvector => {
                self.thread.random_access(base + u64::from(v) / 8);
            }
            RepresentationKind::SortedArray => self.thread.stream(base, (len * 4) / 2),
        }
        self.thread.scalar_ops(2);
        let changed = self.store.remove(id, v);
        self.count(SisaOpcode::RemoveElement);
        changed
    }

    crate::engine::named_binary_ops!();

    fn apply(&mut self, op: SetOp) -> Outcome {
        self.charge_binary_inputs(op.a, op.b);
        let outcome = self.store.apply(op);
        self.count(op.opcode());
        // The result's write-out comes last.
        if let Outcome::Set(id) = outcome {
            if op.dest == Dest::New {
                self.write_new(id);
            } else {
                self.rewrite(id);
            }
        }
        outcome
    }

    fn host_ops(&mut self, n: u64) {
        self.thread.scalar_ops(n);
        self.sync();
    }

    fn task_begin(&mut self) {
        self.thread.task_begin();
    }

    fn task_end(&mut self) -> TaskRecord {
        let record = TaskRecord::from(self.thread.task_end());
        self.sync();
        record
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::SisaRuntime;

    fn engine() -> HostEngine {
        let mut e = HostEngine::with_defaults();
        e.set_universe(256);
        e
    }

    #[test]
    fn set_algebra_matches_the_sisa_runtime() {
        let mut host = engine();
        let mut sisa = SisaRuntime::with_defaults();
        sisa.set_universe(256);
        let ha = host.create_sorted([1, 2, 3, 10, 20]);
        let hb = host.create_dense([2, 10, 30, 40]);
        let sa = sisa.create_sorted([1, 2, 3, 10, 20]);
        let sb = sisa.create_dense([2, 10, 30, 40]);
        let hi = host.intersect(ha, hb);
        let si = sisa.intersect(sa, sb);
        assert_eq!(host.members(hi), sisa.members(si));
        assert_eq!(host.union_count(ha, hb), sisa.union_count(sa, sb));
        assert_eq!(host.difference_count(ha, hb), sisa.difference_count(sa, sb));
        host.union_assign(hi, hb);
        sisa.union_assign(si, sb);
        assert_eq!(host.members(hi), sisa.members(si));
        assert_eq!(host.contains(hi, 30), sisa.contains(si, 30));
        assert_eq!(host.cardinality(hi), sisa.cardinality(si));
    }

    #[test]
    fn operations_charge_cpu_cycles_with_memory_stalls() {
        // Working set (two 8 MiB sorted arrays) exceeds the modelled L3, so
        // the intersection's streams must reach DRAM even though creation
        // warmed the caches.
        let mut e = engine();
        let a = e.create_sorted((0..2_000_000).map(|i| i * 2).collect::<Vec<_>>());
        let b = e.create_sorted((0..2_000_000).map(|i| i * 3).collect::<Vec<_>>());
        e.task_begin();
        let _ = e.intersect_count(a, b);
        let record = e.task_end();
        assert!(record.cycles > 0);
        assert!(record.stall_cycles > 0, "large streams must expose stalls");
        assert!(record.dram_bytes > 0, "large streams must touch DRAM");
        assert!(e.stats().host_cycles > 0);
        assert_eq!(e.backend_name(), "cpu");
    }

    #[test]
    fn dense_ops_price_from_the_operand_universe() {
        // The engine-level universe is never set here (stays 0): the cost of
        // a bitmap op must still scale with the operands' own universes.
        let mut big = HostEngine::with_defaults();
        let a = big.create(SetRepr::dense_from(1 << 20, [1u32, 2, 3]));
        let b = big.create(SetRepr::dense_from(1 << 20, [2u32, 3, 4]));
        big.task_begin();
        let _ = big.intersect_count(a, b);
        let big_cost = big.task_end().cycles;

        let mut small = HostEngine::with_defaults();
        let c = small.create(SetRepr::dense_from(64, [1u32, 2]));
        let d = small.create(SetRepr::dense_from(64, [2u32]));
        small.task_begin();
        let _ = small.intersect_count(c, d);
        let small_cost = small.task_end().cycles;

        assert!(
            big_cost > small_cost * 10,
            "1M-bit bitmaps ({big_cost} cycles) must dwarf 64-bit ones ({small_cost})"
        );
    }

    #[test]
    fn stats_stay_in_sync_after_every_operation() {
        // Materialising and in-place binary ops charge a result write-out as
        // their last step; the statistics must include it immediately, not
        // after the next unrelated operation.
        let mut e = engine();
        let a = e.create_sorted([1, 2, 3, 4, 5]);
        let b = e.create_dense([2, 4, 6, 8]);
        let _ = e.intersect(a, b);
        assert_eq!(e.stats().host_cycles, e.thread().cycles());
        e.union_assign(a, b);
        assert_eq!(e.stats().host_cycles, e.thread().cycles());
        let _ = e.difference(b, a);
        assert_eq!(e.stats().host_cycles, e.thread().cycles());
    }

    #[test]
    fn reset_stats_rebases_the_cycle_counter() {
        let mut e = engine();
        let a = e.create_sorted([1, 2, 3]);
        assert!(e.stats().host_cycles > 0);
        e.reset_stats();
        assert_eq!(e.stats().host_cycles, 0);
        let _ = e.cardinality(a);
        assert!(e.stats().host_cycles > 0);
    }
}
