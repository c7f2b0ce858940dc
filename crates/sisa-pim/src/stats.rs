//! Counters shared by the hardware models.

/// Memory-hierarchy event counters for one simulated thread or unit.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct MemoryStats {
    /// L1 data-cache hits.
    pub l1_hits: u64,
    /// L1 data-cache misses.
    pub l1_misses: u64,
    /// L2 hits.
    pub l2_hits: u64,
    /// L2 misses.
    pub l2_misses: u64,
    /// L3 hits.
    pub l3_hits: u64,
    /// L3 misses (DRAM accesses).
    pub l3_misses: u64,
    /// Bytes transferred from DRAM.
    pub dram_bytes: u64,
    /// Scalar (non-memory) operations executed.
    pub scalar_ops: u64,
}

impl MemoryStats {
    /// Number of DRAM accesses (L3 misses).
    #[must_use]
    pub fn dram_accesses(&self) -> u64 {
        self.l3_misses
    }

    /// Adds another counter set into this one.
    pub fn merge(&mut self, other: &MemoryStats) {
        self.l1_hits += other.l1_hits;
        self.l1_misses += other.l1_misses;
        self.l2_hits += other.l2_hits;
        self.l2_misses += other.l2_misses;
        self.l3_hits += other.l3_hits;
        self.l3_misses += other.l3_misses;
        self.dram_bytes += other.dram_bytes;
        self.scalar_ops += other.scalar_ops;
    }

    /// The difference `self - earlier`, component-wise (used to compute
    /// per-task deltas from running totals).
    #[must_use]
    pub(crate) fn delta_since(&self, earlier: &MemoryStats) -> MemoryStats {
        MemoryStats {
            l1_hits: self.l1_hits - earlier.l1_hits,
            l1_misses: self.l1_misses - earlier.l1_misses,
            l2_hits: self.l2_hits - earlier.l2_hits,
            l2_misses: self.l2_misses - earlier.l2_misses,
            l3_hits: self.l3_hits - earlier.l3_hits,
            l3_misses: self.l3_misses - earlier.l3_misses,
            dram_bytes: self.dram_bytes - earlier.dram_bytes,
            scalar_ops: self.scalar_ops - earlier.scalar_ops,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn merge_and_ratios() {
        let mut a = MemoryStats {
            l1_hits: 90,
            l1_misses: 10,
            l2_hits: 6,
            l2_misses: 4,
            l3_hits: 1,
            l3_misses: 3,
            dram_bytes: 192,
            scalar_ops: 500,
        };
        let b = a;
        a.merge(&b);
        assert_eq!(a.l1_hits, 180);
        assert_eq!(a.dram_accesses(), 6);
    }

    #[test]
    fn delta_since_subtracts() {
        let earlier = MemoryStats {
            l1_hits: 10,
            ..MemoryStats::default()
        };
        let now = MemoryStats {
            l1_hits: 25,
            l1_misses: 5,
            ..MemoryStats::default()
        };
        let d = now.delta_since(&earlier);
        assert_eq!(d.l1_hits, 15);
        assert_eq!(d.l1_misses, 5);
    }
}
