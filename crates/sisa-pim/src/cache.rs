//! A set-associative LRU cache simulator.
//!
//! Used by the baseline-CPU model (`sisa-pim::cpu`) for its L1/L2/L3
//! hierarchy. The SISA Controller Unit's Set-Metadata Buffer does not use
//! it: the SMB is a fully associative LRU over set IDs, kept in
//! `sisa-core`'s `metadata` module.

/// Configuration of one cache level.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub(crate) struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Associativity (ways per set).
    pub ways: usize,
}

impl CacheConfig {
    /// A convenience constructor.
    #[must_use]
    pub fn new(capacity_bytes: usize, line_bytes: usize, ways: usize) -> Self {
        Self {
            capacity_bytes,
            line_bytes,
            ways,
        }
    }

    /// Number of sets implied by the configuration (at least 1).
    #[must_use]
    pub(crate) fn num_sets(&self) -> usize {
        (self.capacity_bytes / (self.line_bytes * self.ways)).max(1)
    }
}

/// A set-associative cache with LRU replacement.
///
/// Only tags are stored — the simulator does not model data contents, only
/// whether an access would have hit.
#[derive(Clone, Debug)]
pub(crate) struct Cache {
    config: CacheConfig,
    /// `tags[set * ways + way]`; `u64::MAX` marks an empty way.
    tags: Vec<u64>,
    /// Monotonic per-way timestamps for LRU.
    stamps: Vec<u64>,
    clock: u64,
}

impl Cache {
    /// Creates an empty cache.
    #[must_use]
    pub fn new(config: CacheConfig) -> Self {
        let slots = config.num_sets() * config.ways;
        Self {
            config,
            tags: vec![u64::MAX; slots],
            stamps: vec![0; slots],
            clock: 0,
        }
    }

    /// Performs an access to `addr`; returns `true` on hit. On miss the line
    /// is installed, evicting the LRU way of its set.
    pub fn access(&mut self, addr: u64) -> bool {
        self.clock += 1;
        let line = addr / self.config.line_bytes as u64;
        let num_sets = self.config.num_sets() as u64;
        let set = (line % num_sets) as usize;
        let base = set * self.config.ways;
        let ways = &mut self.tags[base..base + self.config.ways];

        if let Some(way) = ways.iter().position(|&t| t == line) {
            self.stamps[base + way] = self.clock;
            return true;
        }
        // Evict the LRU (or fill an empty way, which has stamp 0).
        let victim = (0..self.config.ways)
            .min_by_key(|&w| self.stamps[base + w])
            .expect("cache has at least one way");
        self.tags[base + victim] = line;
        self.stamps[base + victim] = self.clock;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Cache {
        // 4 sets × 2 ways × 64 B lines = 512 B.
        Cache::new(CacheConfig::new(512, 64, 2))
    }

    #[test]
    fn config_set_count() {
        assert_eq!(CacheConfig::new(512, 64, 2).num_sets(), 4);
        assert_eq!(CacheConfig::new(32 * 1024, 64, 8).num_sets(), 64);
        // Degenerate configuration still has one set.
        assert_eq!(CacheConfig::new(64, 64, 4).num_sets(), 1);
    }

    #[test]
    fn repeated_access_hits() {
        let mut c = tiny();
        assert!(!c.access(0x1000));
        assert!(c.access(0x1000));
        assert!(c.access(0x1004)); // same line
    }

    #[test]
    fn lru_eviction_within_a_set() {
        let mut c = tiny();
        // Three lines mapping to the same set (stride = sets * line = 256 B).
        let a = 0u64;
        let b = 256;
        let d = 512;
        assert!(!c.access(a));
        assert!(!c.access(b));
        // d evicts a, the LRU way. b and d stay; touching b, then d, leaves
        // b the LRU way.
        assert!(!c.access(d));
        assert!(c.access(b));
        assert!(c.access(d));
        // a was evicted: inserting it again evicts b, and d stays.
        assert!(!c.access(a));
        assert!(c.access(d));
        assert!(!c.access(b));
    }

    #[test]
    fn streaming_larger_than_capacity_misses() {
        let mut c = tiny();
        let hits = (0..64 * 1024u64)
            .step_by(64)
            .filter(|&addr| c.access(addr))
            .count();
        assert_eq!(hits, 0);
    }

    #[test]
    fn working_set_within_capacity_hits_after_warmup() {
        let mut c = Cache::new(CacheConfig::new(32 * 1024, 64, 8));
        // 16 KiB working set streamed twice: every line misses once, then hits.
        for pass in 0..2 {
            let hits = (0..16 * 1024u64)
                .step_by(64)
                .filter(|&addr| c.access(addr))
                .count();
            assert_eq!(hits, pass * 256);
        }
    }
}
