//! A software set-centric backend on the baseline CPU model.
//!
//! [`HostEngine`] implements [`SetEngine`] without any PIM hardware: every set
//! operation is functionally executed on the same [`SetRepr`] storage the SISA
//! runtime uses, but its cost is charged to a simulated out-of-order CPU
//! hardware thread ([`CpuThread`], §9.1) — sets live at synthetic addresses,
//! binary operations stream their operands through the cache hierarchy, probes
//! into dense bitvectors are dependent random accesses, and merge loops pay
//! the data-dependent-branch penalty software sorted-set intersection is known
//! for.
//!
//! This is what makes backend comparisons a one-line change: the figure
//! harnesses run the *same* generic set-centric algorithm with a
//! [`crate::SisaRuntime`] (PIM) and a `HostEngine` (CPU) and schedule the
//! resulting task records, instead of maintaining per-backend algorithm
//! drivers. Unlike the SISA runtime's task records, `HostEngine` records carry
//! real stall cycles and DRAM traffic, so [`crate::parallel::schedule_cpu`]
//! can model memory-bandwidth contention between threads (Figure 1).

use crate::engine::{Dest, Outcome, SetEngine, SetOp};
use crate::parallel::TaskRecord;
use crate::stats::ExecStats;
use crate::Vertex;
use sisa_isa::{SetId, SisaOpcode};
use sisa_pim::{AddressSpace, CpuConfig, CpuThread, Cycles};
use sisa_sets::{dense_bitvector_bits, RepresentationKind, SetRepr};

/// Scalar operations charged per element advanced in a merge loop (compare,
/// increment, and the amortised data-dependent branch).
const MERGE_OPS_PER_ELEMENT: u64 = 6;

/// Scalar operations charged per binary-search level or bit probe.
const PROBE_OPS_PER_STEP: u64 = 3;

/// One set stored by the engine: its representation plus the synthetic
/// address region backing it in the cache model.
#[derive(Clone, Debug)]
struct HostSet {
    repr: SetRepr,
    base: u64,
    alloc_bytes: u64,
}

/// A [`SetEngine`] executing set operations in software on the baseline CPU
/// cost model.
#[derive(Clone, Debug)]
pub struct HostEngine {
    thread: CpuThread,
    space: AddressSpace,
    sets: Vec<Option<HostSet>>,
    free_ids: Vec<u32>,
    universe: usize,
    stats: ExecStats,
    cycles_at_reset: Cycles,
}

impl HostEngine {
    /// Creates an engine on one CPU hardware thread; `threads_sharing_l3`
    /// determines its slice of the shared L3 (as in [`CpuThread::new`]).
    #[must_use]
    pub fn new(cfg: &CpuConfig, threads_sharing_l3: usize) -> Self {
        Self {
            thread: CpuThread::new(cfg, threads_sharing_l3),
            space: AddressSpace::new(),
            sets: Vec::new(),
            free_ids: Vec::new(),
            universe: 0,
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

    /// Bytes a representation occupies in memory.
    fn repr_bytes(repr: &SetRepr) -> u64 {
        match repr {
            SetRepr::Dense(d) => (dense_bitvector_bits(d.universe()) / 8) as u64,
            _ => repr.len() as u64 * 4,
        }
    }

    fn slot(&self, id: SetId) -> &HostSet {
        self.sets
            .get(id.0 as usize)
            .and_then(Option::as_ref)
            .unwrap_or_else(|| panic!("set {id} does not exist"))
    }

    fn allocate_id(&mut self) -> SetId {
        crate::slots::allocate(&mut self.sets, &mut self.free_ids)
    }

    /// Stores `repr` under a fresh ID, charging the write-out of its bytes.
    fn store_new(&mut self, repr: SetRepr) -> SetId {
        let bytes = Self::repr_bytes(&repr);
        let base = self.space.alloc(bytes.max(64));
        self.thread.stream(base, bytes);
        let id = self.allocate_id();
        self.sets[id.0 as usize] = Some(HostSet {
            repr,
            base,
            alloc_bytes: bytes.max(64),
        });
        // The write-out above advanced the thread's cycle counter; keep the
        // statistics current so per-op deltas attribute it to this operation.
        self.sync();
        id
    }

    /// Replaces the contents of `id`, reallocating if the set outgrew its
    /// region, and charges the write-out.
    fn store_replace(&mut self, id: SetId, repr: SetRepr) {
        let bytes = Self::repr_bytes(&repr);
        let slot = self.sets[id.0 as usize]
            .as_mut()
            .unwrap_or_else(|| panic!("set {id} does not exist"));
        if bytes > slot.alloc_bytes {
            slot.base = self.space.alloc(bytes);
            slot.alloc_bytes = bytes;
        }
        slot.repr = repr;
        let base = slot.base;
        self.thread.stream(base, bytes);
        self.sync();
    }

    /// Streams a whole set in from memory.
    fn stream_set(&mut self, id: SetId) {
        let (base, bytes) = {
            let s = self.slot(id);
            (s.base, Self::repr_bytes(&s.repr))
        };
        self.thread.stream(base, bytes);
    }

    /// Charges the software execution of one binary operation over `a` and
    /// `b` (operand reads + compute; result write-out is charged separately
    /// by `store_new`/`store_replace`).
    fn charge_binary_inputs(&mut self, a: SetId, b: SetId) {
        let (ka, kb) = (self.slot(a).repr.kind(), self.slot(b).repr.kind());
        let dense = RepresentationKind::DenseBitvector;
        match (ka, kb) {
            // Bitmap AND/OR/ANDNOT: stream both bitmaps, one scalar op per
            // machine word of the wider operand.
            (a_kind, b_kind) if a_kind == dense && b_kind == dense => {
                let bits = Self::dense_universe(&self.slot(a).repr)
                    .max(Self::dense_universe(&self.slot(b).repr));
                self.stream_set(a);
                self.stream_set(b);
                let words = bits.div_ceil(64) as u64;
                self.thread.scalar_ops(words.max(1));
            }
            // Sparse against dense: stream the sparse side, one dependent bit
            // probe into the bitmap per element.
            (a_kind, _) if a_kind == dense => self.charge_probe(b, a),
            (_, b_kind) if b_kind == dense => self.charge_probe(a, b),
            // Sparse merge: stream both arrays, pay the merge-loop scalar work.
            _ => {
                let (la, lb) = (self.slot(a).repr.len(), self.slot(b).repr.len());
                self.stream_set(a);
                self.stream_set(b);
                self.thread
                    .scalar_ops(MERGE_OPS_PER_ELEMENT * (la + lb) as u64);
            }
        }
    }

    /// The universe (in bits) of a dense representation.
    fn dense_universe(repr: &SetRepr) -> usize {
        match repr {
            SetRepr::Dense(d) => d.universe(),
            _ => 0,
        }
    }

    /// Streams the sparse set and probes the dense bitmap once per element
    /// (probe order does not matter for the cost model, so the members are
    /// walked in storage order without sorting).
    fn charge_probe(&mut self, sparse: SetId, dense: SetId) {
        self.stream_set(sparse);
        let dense_base = self.slot(dense).base;
        let probes: Vec<u64> = self
            .slot(sparse)
            .repr
            .iter()
            .map(|v| dense_base + u64::from(v) / 8)
            .collect();
        for addr in probes {
            self.thread.random_access(addr);
            self.thread.scalar_ops(PROBE_OPS_PER_STEP);
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
        self.universe = self.universe.max(n);
    }

    fn universe(&self) -> usize {
        self.universe
    }

    fn stats(&self) -> &ExecStats {
        &self.stats
    }

    fn reset_stats(&mut self) {
        self.stats = ExecStats::default();
        self.cycles_at_reset = self.thread.cycles();
    }

    fn live_sets(&self) -> usize {
        self.sets.iter().filter(|s| s.is_some()).count()
    }

    fn create(&mut self, repr: SetRepr) -> SetId {
        let id = self.store_new(repr);
        self.count(SisaOpcode::CreateSet);
        id
    }

    fn clone_set(&mut self, id: SetId) -> SetId {
        self.stream_set(id);
        let repr = self.slot(id).repr.clone();
        let new_id = self.store_new(repr);
        self.count(SisaOpcode::CloneSet);
        new_id
    }

    fn delete(&mut self, id: SetId) {
        // Validate before counting, matching the SISA runtime's fault
        // behaviour on dangling IDs.
        let _ = self.slot(id);
        self.thread.scalar_ops(1);
        crate::slots::release(&mut self.sets, &mut self.free_ids, id);
        self.count(SisaOpcode::DeleteSet);
    }

    fn cardinality(&mut self, id: SetId) -> usize {
        // Software sets keep their length in a header word.
        let base = self.slot(id).base;
        self.thread.access(base);
        self.thread.scalar_ops(1);
        let len = self.slot(id).repr.len();
        self.count(SisaOpcode::Cardinality);
        len
    }

    fn contains(&mut self, id: SetId, v: Vertex) -> bool {
        let (base, kind, len) = {
            let s = self.slot(id);
            (s.base, s.repr.kind(), s.repr.len())
        };
        match kind {
            RepresentationKind::DenseBitvector => {
                self.thread.random_access(base + u64::from(v) / 8);
                self.thread.scalar_ops(PROBE_OPS_PER_STEP);
            }
            RepresentationKind::SortedArray => {
                // Binary search: one dependent access per level.
                let levels = (usize::BITS - len.leading_zeros()).max(1) as u64;
                for level in 0..levels {
                    self.thread.random_access(base + level * 64);
                    self.thread.scalar_ops(PROBE_OPS_PER_STEP);
                }
            }
            RepresentationKind::UnsortedArray => {
                self.stream_set(id);
                self.thread.scalar_ops(len as u64);
            }
        }
        let result = self.slot(id).repr.contains(v);
        self.count(SisaOpcode::Membership);
        result
    }

    fn members(&mut self, id: SetId) -> Vec<Vertex> {
        self.stream_set(id);
        let members = self.slot(id).repr.to_sorted_vec();
        self.thread.scalar_ops(members.len() as u64);
        self.sync();
        members
    }

    fn repr(&self, id: SetId) -> &SetRepr {
        &self.slot(id).repr
    }

    fn insert(&mut self, id: SetId, v: Vertex) -> bool {
        let (base, kind, len) = {
            let s = self.slot(id);
            (s.base, s.repr.kind(), s.repr.len())
        };
        match kind {
            RepresentationKind::DenseBitvector => {
                self.thread.random_access(base + u64::from(v) / 8);
            }
            // Sorted insertion shifts half the array on average.
            RepresentationKind::SortedArray => self.thread.stream(base, (len as u64 * 4) / 2),
            RepresentationKind::UnsortedArray => self.thread.access(base + len as u64 * 4),
        }
        self.thread.scalar_ops(2);
        let slot = self.sets[id.0 as usize].as_mut().expect("validated above");
        let changed = slot.repr.insert(v);
        self.count(SisaOpcode::InsertElement);
        changed
    }

    fn remove(&mut self, id: SetId, v: Vertex) -> bool {
        let (base, kind, len) = {
            let s = self.slot(id);
            (s.base, s.repr.kind(), s.repr.len())
        };
        match kind {
            RepresentationKind::DenseBitvector => {
                self.thread.random_access(base + u64::from(v) / 8);
            }
            RepresentationKind::SortedArray => self.thread.stream(base, (len as u64 * 4) / 2),
            RepresentationKind::UnsortedArray => self.stream_set(id),
        }
        self.thread.scalar_ops(2);
        let slot = self.sets[id.0 as usize].as_mut().expect("validated above");
        let changed = slot.repr.remove(v);
        self.count(SisaOpcode::RemoveElement);
        changed
    }

    crate::engine::named_binary_ops!();

    fn apply(&mut self, op: SetOp) -> Outcome {
        let (kind, a, b, dest) = (op.op, op.a, op.b, op.dest);
        self.charge_binary_inputs(a, b);
        let (ra, rb) = (&self.slot(a).repr, &self.slot(b).repr);
        if dest == Dest::Count {
            let count = kind.count(ra, rb);
            self.count(op.opcode());
            return Outcome::Count(count);
        }
        let result = kind.combine(ra, rb);
        self.count(op.opcode());
        // The result's write-out is charged by the store.
        Outcome::Set(if dest == Dest::InPlace {
            self.store_replace(a, result);
            a
        } else {
            self.store_new(result)
        })
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

    #[test]
    fn lifecycle_and_id_reuse() {
        let mut e = engine();
        let a = e.create_sorted([1, 2]);
        assert_eq!(e.live_sets(), 1);
        e.delete(a);
        assert_eq!(e.live_sets(), 0);
        let b = e.create_sorted([9]);
        assert_eq!(a, b, "freed IDs are reused");
    }

    #[test]
    #[should_panic(expected = "does not exist")]
    fn dangling_ids_fault() {
        let mut e = engine();
        let a = e.create_sorted([1]);
        e.delete(a);
        let _ = e.members(a);
    }
}
