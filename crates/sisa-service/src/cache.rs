//! The generation-keyed query result cache.
//!
//! Keyed by `(per-name graph generation, QuerySpec)` — the spec already
//! carries the graph name, so the generation is the only extra ingredient,
//! and it is kept once per name: every resident entry of a name is of the
//! latest generation inserted for it, so entries are keyed by spec alone
//! and a lookup compares the name's latest generation first. Workers
//! insert under the generation of the registry lease they executed
//! against; a submission looks up under the name's *current* generation
//! ([`sisa_graph::GraphRegistry::generation_of`]). Because every evict,
//! reload and re-registration ticks the per-name generation (and the
//! counter also ticks while the name is non-resident), a stale entry's key
//! can never match a live lookup: invalidation is structural, not
//! best-effort, and dead keys are released at the next insert. The cache
//! remembers the latest generation it was handed per graph name: the first
//! insert under a newer generation of a name removes that name's older
//! entries (unreachable by then — not LRU displacements, so not counted as
//! evictions), and an insert under an older one is the stillborn entry of a
//! result computed while the registry moved on, and is dropped. A name that
//! ticks for ever therefore occupies what its current generation holds, not
//! the whole LRU.
//!
//! The cache is a bounded LRU on two axes — entry count
//! ([`ServiceConfig::cache_entries`]) and approximate resident bytes (a
//! service sizes it at 16 MiB) — and is shared between the clients and the
//! dispatcher (lookups) and every worker (inserts) behind one mutex; both
//! operations are O(log n) map work plus, on overflow or on a name's first
//! insert under a newer generation, one O(n) scan, all of it far below one
//! engine-executed query.
//!
//! [`ServiceConfig::cache_entries`]: crate::ServiceConfig::cache_entries

use crate::query::{QuerySpec, QueryStats};
use std::collections::BTreeMap;
use std::sync::Mutex;

/// A stored query result: everything needed to answer an identical query on
/// the same graph generation without touching an engine.
#[derive(Clone, Debug, PartialEq)]
pub struct CachedResult {
    /// The mined count.
    pub value: u64,
    /// Whether the original search was budget-truncated (budgets are part
    /// of the spec key, so a truncated result only ever answers the same
    /// budget).
    pub truncated: bool,
    /// The original execution's billing record (served back to hit
    /// responses, marked `cache_hit`, with the hit's own span timings).
    pub stats: QueryStats,
}

#[derive(Debug)]
struct CacheEntry {
    result: CachedResult,
    bytes: usize,
    last_used: u64,
}

#[derive(Debug, Default)]
struct CacheInner {
    entries: BTreeMap<QuerySpec, CacheEntry>,
    /// The newest generation inserted per graph name (one word per name, as
    /// the registry's own per-name counters): every resident entry of a name
    /// is of exactly this generation.
    latest: BTreeMap<String, u64>,
    bytes: usize,
    touch: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

/// Aggregate cache counters, sampled atomically.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheCounters {
    /// Lookups answered from the cache.
    pub hits: u64,
    /// Lookups that found nothing (or hit a dead generation).
    pub misses: u64,
    /// Entries displaced by the entry/byte bounds.
    pub evictions: u64,
    /// Entries currently resident.
    pub resident: u64,
    /// Approximate bytes currently resident.
    pub resident_bytes: u64,
}

/// The bounded, generation-keyed LRU result cache (see the module docs).
#[derive(Debug)]
pub struct ResultCache {
    max_entries: usize,
    max_bytes: usize,
    inner: Mutex<CacheInner>,
}

/// Approximate resident size of one entry: the map key + entry structs plus
/// the only heap payload, the spec's graph-name string (stored once, in the
/// key).
fn entry_bytes(spec: &QuerySpec) -> usize {
    std::mem::size_of::<QuerySpec>() + std::mem::size_of::<CacheEntry>() + spec.graph.len()
}

impl ResultCache {
    /// Creates a cache bounded to `max_entries` entries and (approximately)
    /// `max_bytes` resident bytes. `max_entries == 0` disables the cache
    /// entirely: every lookup misses and inserts are dropped.
    #[must_use]
    pub fn new(max_entries: usize, max_bytes: usize) -> Self {
        ResultCache {
            max_entries,
            max_bytes,
            inner: Mutex::new(CacheInner::default()),
        }
    }

    /// Whether the cache is configured away (`max_entries == 0`).
    #[must_use]
    pub(crate) fn is_disabled(&self) -> bool {
        self.max_entries == 0
    }

    /// Looks up `spec` under `generation`, touching LRU recency on a hit.
    pub fn get(&self, generation: u64, spec: &QuerySpec) -> Option<CachedResult> {
        self.lookup(generation, spec, true)
    }

    /// A second-chance lookup for a query whose first lookup already missed
    /// (and was counted): a hit is still counted (a duplicate that queued
    /// behind the execution that filled the entry really is served from the
    /// cache), but a repeat miss is *not* — otherwise every executed query
    /// would be billed two misses and the hit ratio would undercount.
    pub(crate) fn recheck(&self, generation: u64, spec: &QuerySpec) -> Option<CachedResult> {
        self.lookup(generation, spec, false)
    }

    fn lookup(&self, generation: u64, spec: &QuerySpec, count_miss: bool) -> Option<CachedResult> {
        if self.is_disabled() {
            return None;
        }
        let mut guard = self.inner.lock().expect("cache lock");
        let inner = &mut *guard;
        inner.touch += 1;
        let current = inner.latest.get(&spec.graph) == Some(&generation);
        match inner.entries.get_mut(spec) {
            Some(entry) if current => {
                entry.last_used = inner.touch;
                inner.hits += 1;
                Some(entry.result.clone())
            }
            _ => {
                if count_miss {
                    inner.misses += 1;
                }
                None
            }
        }
    }

    /// Stores a result under `(generation, spec)`, displacing
    /// least-recently-used entries if the entry or byte bound overflows.
    /// The first insert under a newer generation of the spec's graph first
    /// releases that graph's older entries (dead keys, not evictions); an
    /// insert under an older generation than the newest seen is dropped.
    /// Returns how many entries were evicted to make room.
    pub fn insert(&self, generation: u64, spec: &QuerySpec, result: CachedResult) -> u64 {
        if self.is_disabled() {
            return 0;
        }
        let bytes = entry_bytes(spec);
        if self.max_bytes > 0 && bytes > self.max_bytes {
            return 0;
        }
        let key = spec.clone();
        let mut inner = self.inner.lock().expect("cache lock");
        match inner.latest.get_mut(&spec.graph) {
            Some(latest) if generation < *latest => return 0,
            Some(latest) if generation > *latest => {
                *latest = generation;
                let mut released = 0;
                inner.entries.retain(|key, entry| {
                    let dead = key.graph == spec.graph;
                    if dead {
                        released += entry.bytes;
                    }
                    !dead
                });
                inner.bytes -= released;
            }
            Some(_) => {}
            None => {
                inner.latest.insert(spec.graph.clone(), generation);
            }
        }
        let stamp = inner.touch + 1;
        inner.touch = stamp;
        if let Some(old) = inner.entries.insert(
            key,
            CacheEntry {
                result,
                bytes,
                last_used: stamp,
            },
        ) {
            inner.bytes -= old.bytes;
        }
        inner.bytes += bytes;
        let mut evicted = 0;
        while inner.entries.len() > self.max_entries
            || (self.max_bytes > 0 && inner.bytes > self.max_bytes)
        {
            let victim = inner
                .entries
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(key, _)| key.clone())
                .expect("non-empty over-capacity cache");
            let entry = inner.entries.remove(&victim).expect("victim present");
            inner.bytes -= entry.bytes;
            inner.evictions += 1;
            evicted += 1;
        }
        evicted
    }

    /// An atomic sample of the cache's aggregate counters.
    #[must_use]
    pub fn counters(&self) -> CacheCounters {
        let inner = self.inner.lock().expect("cache lock");
        CacheCounters {
            hits: inner.hits,
            misses: inner.misses,
            evictions: inner.evictions,
            resident: inner.entries.len() as u64,
            resident_bytes: inner.bytes as u64,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryKind;

    fn result(value: u64) -> CachedResult {
        CachedResult {
            value,
            truncated: false,
            stats: QueryStats {
                simulated_cycles: 100 + value,
                ..QueryStats::default()
            },
        }
    }

    fn spec(graph: &str) -> QuerySpec {
        QuerySpec::new(graph, QueryKind::TriangleCount)
    }

    #[test]
    fn hits_require_both_the_spec_and_the_generation_to_match() {
        let cache = ResultCache::new(8, 1 << 20);
        cache.insert(3, &spec("g"), result(17));
        assert_eq!(cache.get(3, &spec("g")).unwrap().value, 17);
        assert!(cache.get(4, &spec("g")).is_none(), "newer generation");
        assert!(cache.get(2, &spec("g")).is_none(), "older generation");
        assert!(cache.get(3, &spec("h")).is_none(), "different graph");
        assert!(
            cache.get(3, &spec("g").with_budget(5)).is_none(),
            "budget is part of the key"
        );
        let counters = cache.counters();
        assert_eq!((counters.hits, counters.misses), (1, 4));
    }

    #[test]
    fn rechecks_count_hits_but_never_repeat_misses() {
        let cache = ResultCache::new(8, 1 << 20);
        assert!(cache.get(1, &spec("g")).is_none()); // intake miss: counted
        assert!(cache.recheck(1, &spec("g")).is_none()); // pop-time: not
        cache.insert(1, &spec("g"), result(9));
        assert_eq!(cache.recheck(1, &spec("g")).unwrap().value, 9);
        let counters = cache.counters();
        assert_eq!((counters.hits, counters.misses), (1, 1));
    }

    #[test]
    fn entry_bound_evicts_least_recently_used() {
        let cache = ResultCache::new(2, 1 << 20);
        cache.insert(1, &spec("a"), result(1));
        cache.insert(1, &spec("b"), result(2));
        // Touch `a` so `b` is the LRU victim.
        assert!(cache.get(1, &spec("a")).is_some());
        let evicted = cache.insert(1, &spec("c"), result(3));
        assert_eq!(evicted, 1);
        assert!(cache.get(1, &spec("a")).is_some(), "recently used survives");
        assert!(cache.get(1, &spec("b")).is_none(), "LRU victim");
        assert!(cache.get(1, &spec("c")).is_some());
        assert_eq!(cache.counters().evictions, 1);
        assert_eq!(cache.counters().resident, 2);
    }

    #[test]
    fn byte_bound_evicts_and_reinsertion_replaces_in_place() {
        let per_entry = entry_bytes(&spec("x"));
        let cache = ResultCache::new(64, 2 * per_entry);
        cache.insert(1, &spec("x"), result(1));
        cache.insert(1, &spec("y"), result(2));
        assert_eq!(cache.counters().resident_bytes, 2 * per_entry as u64);
        // Replacing an entry must not double-count its bytes or evict.
        assert_eq!(cache.insert(1, &spec("y"), result(20)), 0);
        assert_eq!(cache.counters().resident, 2);
        assert_eq!(cache.get(1, &spec("y")).unwrap().value, 20);
        // A third distinct entry overflows the byte bound.
        assert_eq!(cache.insert(1, &spec("z"), result(3)), 1);
        assert_eq!(cache.counters().resident, 2);
        assert!(
            cache.counters().resident_bytes <= 2 * per_entry as u64,
            "byte bound holds"
        );
    }

    /// Seen to fail under: the `retain` dropped (four resident, the dead
    /// pair still there); `inner.bytes -= released` dropped (the byte gauge
    /// keeps the dead pair); `!dead` for `dead` (the other name goes instead);
    /// the purge counted in `evictions`.
    #[test]
    fn a_newer_generation_releases_the_names_dead_entries() {
        let cache = ResultCache::new(8, 1 << 20);
        let budgeted = spec("g").with_budget(5);
        cache.insert(1, &spec("g"), result(1));
        cache.insert(1, &budgeted, result(2));
        cache.insert(1, &spec("h"), result(3));
        assert_eq!(cache.insert(2, &spec("g"), result(4)), 0, "not evictions");
        let counters = cache.counters();
        assert_eq!(counters.resident, 2, "g's generation 1 is released");
        assert_eq!(counters.evictions, 0);
        assert_eq!(
            counters.resident_bytes,
            (entry_bytes(&spec("g")) + entry_bytes(&spec("h"))) as u64
        );
        assert_eq!(cache.get(2, &spec("g")).unwrap().value, 4);
        assert_eq!(
            cache.get(1, &spec("h")).unwrap().value,
            3,
            "other names stay"
        );
        assert!(cache.get(1, &spec("g")).is_none());
        assert!(cache.get(1, &budgeted).is_none());
        // The same generation again is a plain insert beside the first.
        cache.insert(2, &budgeted, result(5));
        assert_eq!(cache.counters().resident, 3);
        assert_eq!(cache.get(2, &spec("g")).unwrap().value, 4);
    }

    /// Seen to fail under: the `generation < *latest` arm dropped (the
    /// stillborn entry is resident); `<` for `<=` there (the same-generation
    /// insert is dropped); the latest generation lowered by the older insert
    /// (the generation-5 entry is purged by the next insert under 5).
    #[test]
    fn an_insert_older_than_the_latest_seen_is_dropped() {
        let cache = ResultCache::new(8, 1 << 20);
        cache.insert(5, &spec("g"), result(1));
        assert_eq!(cache.insert(4, &spec("g"), result(2)), 0);
        assert_eq!(cache.counters().resident, 1, "stillborn, so never stored");
        assert!(cache.get(4, &spec("g")).is_none());
        cache.insert(5, &spec("g").with_budget(5), result(3));
        assert_eq!(cache.counters().resident, 2);
        assert_eq!(cache.get(5, &spec("g")).unwrap().value, 1);
        // Other names keep their own latest generation.
        cache.insert(4, &spec("h"), result(4));
        assert_eq!(cache.get(4, &spec("h")).unwrap().value, 4);
    }

    /// The serving pattern of a mutated graph: one name, a new generation
    /// every few inserts. Seen to fail under: the `retain` dropped (the bound
    /// fills with dead keys, `other` is the LRU victim, `evictions` counts).
    #[test]
    fn a_ticking_name_never_fills_the_lru() {
        let cache = ResultCache::new(4, 1 << 20);
        cache.insert(1, &spec("other"), result(7));
        for generation in 1..=100 {
            cache.insert(generation, &spec("g"), result(generation));
            cache.insert(generation, &spec("g").with_budget(5), result(generation));
        }
        let counters = cache.counters();
        assert_eq!(counters.evictions, 0, "nothing live was ever displaced");
        assert_eq!(counters.resident, 3);
        assert_eq!(cache.get(1, &spec("other")).unwrap().value, 7);
        assert_eq!(cache.get(100, &spec("g")).unwrap().value, 100);
    }

    #[test]
    fn zero_entries_disables_the_cache() {
        let cache = ResultCache::new(0, 1 << 20);
        assert!(cache.is_disabled());
        assert_eq!(cache.insert(1, &spec("g"), result(1)), 0);
        assert!(cache.get(1, &spec("g")).is_none());
        let counters = cache.counters();
        assert_eq!(counters.resident, 0);
        assert_eq!(counters.misses, 0, "disabled lookups are not misses");
    }
}
