//! The baseline out-of-order CPU model.
//!
//! The paper's comparison targets — hand-tuned non-set and set-based software
//! algorithms — run "on a high-performance Out-of-Order manycore CPU" with a
//! three-level cache hierarchy (§9.1). [`CpuThread`] models one such hardware
//! thread: algorithms report their memory accesses (with synthetic addresses
//! derived from the CSR layout via [`AddressSpace`]) and scalar work, and the
//! model accumulates busy and stalled cycles using the cache simulator plus
//! DRAM latency. Bandwidth contention between threads is applied later by the
//! parallel scheduler in `sisa-core`, which knows how many threads run
//! concurrently.

use crate::cache::{Cache, CacheConfig};
use crate::config::CpuConfig;
use crate::stats::MemoryStats;
use crate::{ceil_cycles, Cycles};

/// The cost of one task (a unit of parallel work) executed on a CPU thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TaskCost {
    /// Total busy cycles (compute plus exposed memory latency).
    pub cycles: Cycles,
    /// The subset of `cycles` spent stalled on the memory hierarchy.
    pub stall_cycles: Cycles,
    /// Bytes transferred from DRAM (used for bandwidth contention).
    pub dram_bytes: u64,
    /// Number of DRAM accesses.
    pub dram_accesses: u64,
}

impl TaskCost {
    /// Adds another task's cost into this one.
    pub fn merge(&mut self, other: &TaskCost) {
        self.cycles += other.cycles;
        self.stall_cycles += other.stall_cycles;
        self.dram_bytes += other.dram_bytes;
        self.dram_accesses += other.dram_accesses;
    }

    /// The fraction of cycles spent stalled (0 if the task is empty).
    #[must_use]
    pub fn stall_fraction(&self) -> f64 {
        if self.cycles == 0 {
            0.0
        } else {
            self.stall_cycles as f64 / self.cycles as f64
        }
    }
}

/// A single simulated CPU hardware thread with a private L1/L2 and a slice of
/// the shared L3.
#[derive(Clone, Debug)]
pub struct CpuThread {
    cfg: CpuConfig,
    l1: Cache,
    l2: Cache,
    l3: Cache,
    stats: MemoryStats,
    cycles: Cycles,
    stall_cycles: Cycles,
    task_mark: (Cycles, Cycles, MemoryStats),
}

impl CpuThread {
    /// Scalar operations a software set kernel pays per element advanced in
    /// a merge loop: one compare, one increment and the amortised cost of the
    /// data-dependent branch sorted-set intersection is known for (≈1.5
    /// cycles per element at the modelled IPC).
    pub const MERGE_OPS_PER_ELEMENT: u64 = 6;

    /// Scalar operations a software set kernel pays per binary-search level
    /// or bit probe (a compare plus a hard-to-predict branch).
    pub const PROBE_OPS_PER_STEP: u64 = 3;

    /// Creates a thread. `threads_sharing_l3` determines the L3 slice this
    /// thread can use (the paper's 8 MiB L3 is shared among all cores).
    #[must_use]
    pub fn new(cfg: &CpuConfig, threads_sharing_l3: usize) -> Self {
        let l3_slice = (cfg.l3_bytes / threads_sharing_l3.max(1)).max(cfg.line_bytes * 8);
        Self {
            cfg: *cfg,
            l1: Cache::new(CacheConfig::new(cfg.l1_bytes, cfg.line_bytes, 8)),
            l2: Cache::new(CacheConfig::new(cfg.l2_bytes, cfg.line_bytes, 8)),
            l3: Cache::new(CacheConfig::new(l3_slice, cfg.line_bytes, 16)),
            stats: MemoryStats::default(),
            cycles: 0,
            stall_cycles: 0,
            task_mark: (0, 0, MemoryStats::default()),
        }
    }

    /// The configuration this thread was built with.
    #[must_use]
    pub fn config(&self) -> &CpuConfig {
        &self.cfg
    }

    /// Executes `n` scalar (non-memory) operations.
    pub fn scalar_ops(&mut self, n: u64) {
        self.stats.scalar_ops += n;
        self.cycles += ceil_cycles(n as f64 / self.cfg.ipc);
    }

    /// Performs one data access of at most one cache line at `addr`.
    pub fn access(&mut self, addr: u64) {
        let (busy, stall) = self.access_cost(addr);
        self.cycles += busy;
        self.stall_cycles += stall;
    }

    /// Streams `bytes` bytes sequentially starting at `base` (touching each
    /// cache line once), the access pattern of merge-based set algorithms and
    /// CSR neighbourhood scans.
    pub fn stream(&mut self, base: u64, bytes: u64) {
        if bytes == 0 {
            return;
        }
        let line = self.cfg.line_bytes as u64;
        let first = base / line;
        let last = (base + bytes - 1) / line;
        for l in first..=last {
            self.access(l * line);
        }
    }

    /// Performs a dependent random access (e.g. one binary-search probe or a
    /// hash lookup), which the out-of-order window cannot overlap as well as
    /// independent ones.
    pub fn random_access(&mut self, addr: u64) {
        self.access(addr);
    }

    fn access_cost(&mut self, addr: u64) -> (Cycles, Cycles) {
        let c = &self.cfg;
        if self.l1.access(addr) {
            self.stats.l1_hits += 1;
            return (1, 0);
        }
        self.stats.l1_misses += 1;
        let hide = 1.0 - c.mlp_hiding;
        if self.l2.access(addr) {
            self.stats.l2_hits += 1;
            let exposed = (c.l2_latency as f64 * hide).round() as Cycles;
            return (1 + exposed, exposed);
        }
        self.stats.l2_misses += 1;
        if self.l3.access(addr) {
            self.stats.l3_hits += 1;
            let exposed = (c.l3_latency as f64 * hide).round() as Cycles;
            return (1 + exposed, exposed);
        }
        self.stats.l3_misses += 1;
        self.stats.dram_bytes += c.line_bytes as u64;
        let exposed = (c.dram_latency as f64 * hide).round() as Cycles;
        (1 + exposed, exposed)
    }

    /// Total busy cycles accumulated so far.
    #[must_use]
    pub fn cycles(&self) -> Cycles {
        self.cycles
    }

    /// Total stalled cycles accumulated so far.
    #[must_use]
    pub fn stall_cycles(&self) -> Cycles {
        self.stall_cycles
    }

    /// Memory-hierarchy counters accumulated so far.
    #[must_use]
    pub fn stats(&self) -> &MemoryStats {
        &self.stats
    }

    /// Marks the beginning of a task; the next [`CpuThread::task_end`] returns
    /// the cost accumulated since this point.
    pub fn task_begin(&mut self) {
        self.task_mark = (self.cycles, self.stall_cycles, self.stats);
    }

    /// Ends the current task and returns its cost.
    pub fn task_end(&mut self) -> TaskCost {
        let (c0, s0, stats0) = self.task_mark;
        let delta = self.stats.delta_since(&stats0);
        TaskCost {
            cycles: self.cycles - c0,
            stall_cycles: self.stall_cycles - s0,
            dram_bytes: delta.dram_bytes,
            dram_accesses: delta.dram_accesses(),
        }
    }
}

/// A synthetic address-space allocator.
///
/// Baseline algorithms need realistic addresses so the cache model sees the
/// spatial locality of CSR arrays; this allocator hands out disjoint,
/// line-aligned regions for each logical array.
#[derive(Clone, Debug, Default)]
pub struct AddressSpace {
    next: u64,
}

impl AddressSpace {
    /// Creates an allocator starting at a non-zero base.
    #[must_use]
    pub fn new() -> Self {
        Self { next: 0x1_0000 }
    }

    /// Allocates a region of `bytes` bytes and returns its base address.
    pub fn alloc(&mut self, bytes: u64) -> u64 {
        let base = self.next;
        // Keep regions line-aligned and separated by a guard line so that
        // distinct arrays never share a cache line.
        let aligned = bytes.div_ceil(64) * 64 + 64;
        self.next += aligned;
        base
    }

    /// Allocates a region sized for `elements` items of `element_bytes` bytes.
    pub fn alloc_array(&mut self, elements: usize, element_bytes: usize) -> u64 {
        self.alloc((elements * element_bytes) as u64)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn thread() -> CpuThread {
        CpuThread::new(&CpuConfig::default(), 1)
    }

    #[test]
    fn scalar_ops_use_ipc() {
        let mut t = thread();
        t.scalar_ops(400);
        assert_eq!(t.cycles(), 100);
        assert_eq!(t.stall_cycles(), 0);
    }

    #[test]
    fn first_touch_misses_then_hits() {
        let mut t = thread();
        t.access(0x2000);
        let after_miss = t.cycles();
        assert!(after_miss > 10, "DRAM miss should cost tens of cycles");
        assert!(t.stall_cycles() > 0);
        let stall_before = t.stall_cycles();
        t.access(0x2000);
        assert_eq!(t.cycles(), after_miss + 1, "L1 hit costs one cycle");
        assert_eq!(t.stall_cycles(), stall_before);
    }

    #[test]
    fn stream_touches_each_line_once() {
        let mut t = thread();
        t.stream(0x8000, 256);
        assert_eq!(t.stats().l1_hits + t.stats().l1_misses, 4);
        t.stream(0x8000, 0);
        assert_eq!(t.stats().l1_hits + t.stats().l1_misses, 4);
        // Unaligned stream crossing a line boundary touches both lines.
        let mut t2 = thread();
        t2.stream(0x8000 + 60, 8);
        assert_eq!(t2.stats().l1_hits + t2.stats().l1_misses, 2);
    }

    #[test]
    fn task_deltas_are_isolated() {
        let mut t = thread();
        t.access(0x100);
        t.task_begin();
        t.scalar_ops(40);
        t.access(0x9000);
        t.access(0x9000);
        let cost = t.task_end();
        assert_eq!(cost.dram_accesses, 1);
        assert!(cost.cycles >= 10);
        assert!(cost.stall_cycles > 0);
        assert!(t.stats().dram_accesses() >= 2);
        assert!(cost.stall_fraction() > 0.0 && cost.stall_fraction() < 1.0);
    }

    #[test]
    fn working_set_larger_than_l1_spills_to_l2() {
        let mut t = thread();
        // 128 KiB working set streamed twice: second pass should hit in L2,
        // not in L1 (32 KiB).
        for _ in 0..2 {
            t.stream(0, 128 * 1024);
        }
        assert!(t.stats().l2_hits > 0);
        assert!(t.stats().l1_misses > t.stats().l2_misses);
    }

    #[test]
    fn l3_slice_shrinks_with_sharers() {
        let mut alone = CpuThread::new(&CpuConfig::default(), 1);
        let mut crowded = CpuThread::new(&CpuConfig::default(), 32);
        // A 1 MiB working set streamed twice outgrows L2 (256 KiB) and a
        // 32-way share of L3 (256 KiB), but fits a whole 8 MiB L3.
        for t in [&mut alone, &mut crowded] {
            for _ in 0..2 {
                t.stream(0, 1024 * 1024);
            }
        }
        assert!(alone.stats().l3_hits > 0);
        assert_eq!(crowded.stats().l3_hits, 0);
    }

    #[test]
    fn address_space_regions_do_not_overlap() {
        let mut a = AddressSpace::new();
        let r1 = a.alloc(100);
        let r2 = a.alloc_array(50, 4);
        let r3 = a.alloc(1);
        assert!(r1 + 100 <= r2);
        assert!(r2 + 200 <= r3);
        assert_eq!(r1 % 64, 0);
        assert_eq!(r2 % 64, 0);
    }

    #[test]
    fn task_cost_merge() {
        let mut a = TaskCost {
            cycles: 10,
            stall_cycles: 4,
            dram_bytes: 64,
            dram_accesses: 1,
        };
        a.merge(&a.clone());
        assert_eq!(a.cycles, 20);
        assert_eq!(a.dram_accesses, 2);
    }
}
