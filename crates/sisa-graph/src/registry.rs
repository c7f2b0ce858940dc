//! A thread-safe registry of **named** graphs with load-once/share-many
//! semantics, per-name **generation counters** and an optional residency
//! capacity with LRU eviction.
//!
//! A long-lived process (e.g. the `sisa-service` query front-end) refers to
//! graphs by name. Materialising a stand-in from [`crate::datasets`] — or
//! re-reading one from disk — is expensive, so the registry guarantees that
//! each name is materialised **once**: the first [`GraphRegistry::acquire`]
//! generates (or finds a registered) graph and every later acquire of the
//! same name returns the *same* shared [`Arc`] handle at zero additional
//! cost. [`GraphRegistry::generations`] counts actual materialisations, so
//! callers can regression-test the dedup guarantee.
//!
//! ## Generations
//!
//! Every name additionally carries a monotone **per-name generation**
//! ([`GraphRegistry::generation_of`], also exposed on
//! [`GraphLease::generation`]). It ticks on every event that changes what
//! the name maps to — materialisation, re-registration, and eviction
//! (explicit or capacity-driven) — and *never* on a dedup acquire. Anything
//! keyed by `(name, generation)` (e.g. a query-result cache) is therefore
//! automatically invalidated when the graph behind the name changes: the old
//! generation can never be observed again. Because evictions tick the
//! counter too, a generation sampled while a name is *not* resident is never
//! a valid lease generation, so lookups between an evict and the reload
//! cannot alias either side.
//!
//! ## Capacity
//!
//! [`RegistryConfig::max_resident`] bounds how many graphs stay resident at
//! once; inserting beyond the bound evicts the least-recently-acquired
//! name (ticking its generation). Outstanding [`Arc`] leases stay valid —
//! eviction only drops the registry's own handle.

use crate::datasets;
use crate::delta::GraphDelta;
use crate::CsrGraph;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Limits and policies of a [`GraphRegistry`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct RegistryConfig {
    /// Maximum graphs resident at once; `0` (the default) means unbounded.
    /// When an insert (acquire-miss or register) exceeds the bound, the
    /// least-recently-used resident name is evicted and its generation
    /// ticks.
    pub max_resident: usize,
}

/// One acquisition of a named graph: the shared handle plus the per-name
/// generation it belongs to. Two leases of the same name compare equal on
/// `generation` iff nothing evicted or replaced the graph in between.
#[derive(Clone, Debug)]
pub struct GraphLease {
    /// The shared, immutable graph (an [`Arc`] ref-count keeps it alive).
    pub graph: Arc<CsrGraph>,
    /// The per-name generation this lease was cut from (see
    /// [`GraphRegistry::generation_of`]).
    pub generation: u64,
}

/// A named-graph cache shared by every worker of a process.
///
/// ```
/// use sisa_graph::registry::GraphRegistry;
///
/// let reg = GraphRegistry::new(42);
/// let first = reg.acquire("bn-mouse").expect("known dataset");
/// let second = reg.acquire("bn-mouse").expect("known dataset");
/// assert!(std::sync::Arc::ptr_eq(&first, &second), "shared handle");
/// assert_eq!(reg.generations(), 1, "materialised exactly once");
/// ```
#[derive(Debug)]
pub struct GraphRegistry {
    seed: u64,
    cfg: RegistryConfig,
    inner: Mutex<Inner>,
}

#[derive(Debug)]
struct Entry {
    graph: Arc<CsrGraph>,
    generation: u64,
    last_used: u64,
}

#[derive(Debug, Default)]
struct Inner {
    graphs: BTreeMap<String, Entry>,
    /// Monotone per-name counters; entries persist across evictions so a
    /// name's generation never repeats.
    name_generations: BTreeMap<String, u64>,
    generations: u64,
    evictions: u64,
    mutations: u64,
    touch: u64,
}

impl Inner {
    fn generation(&self, name: &str) -> u64 {
        self.name_generations.get(name).copied().unwrap_or(0)
    }

    fn tick(&mut self, name: &str) -> u64 {
        let counter = self.name_generations.entry(name.to_string()).or_insert(0);
        *counter += 1;
        *counter
    }

    fn touch(&mut self) -> u64 {
        self.touch += 1;
        self.touch
    }

    /// A lease of the resident `name`, touching its LRU recency.
    fn lease(&mut self, name: &str) -> Option<GraphLease> {
        let entry = self.graphs.get_mut(name)?;
        self.touch += 1;
        entry.last_used = self.touch;
        Some(GraphLease {
            graph: Arc::clone(&entry.graph),
            generation: entry.generation,
        })
    }

    /// The one way a graph becomes what `name` maps to: counts the
    /// materialisation, ticks the name's generation, replaces any previous
    /// entry and enforces the capacity bound.
    fn publish(&mut self, name: &str, graph: Arc<CsrGraph>, max_resident: usize) -> GraphLease {
        self.generations += 1;
        let generation = self.tick(name);
        let last_used = self.touch();
        self.graphs.insert(
            name.to_string(),
            Entry {
                graph: Arc::clone(&graph),
                generation,
                last_used,
            },
        );
        self.enforce_capacity(max_resident);
        GraphLease { graph, generation }
    }

    /// Evicts least-recently-used residents until the capacity bound holds.
    fn enforce_capacity(&mut self, max_resident: usize) {
        if max_resident == 0 {
            return;
        }
        while self.graphs.len() > max_resident {
            let victim = self
                .graphs
                .iter()
                .min_by_key(|(_, entry)| entry.last_used)
                .map(|(name, _)| name.clone())
                .expect("non-empty over-capacity registry");
            self.graphs.remove(&victim);
            self.tick(&victim);
            self.evictions += 1;
        }
    }
}

impl GraphRegistry {
    /// Creates an empty, unbounded registry. `seed` drives every dataset
    /// stand-in this registry materialises, so two registries with the same
    /// seed serve identical graphs.
    #[must_use]
    pub fn new(seed: u64) -> Self {
        GraphRegistry::with_config(seed, RegistryConfig::default())
    }

    /// Creates an empty registry with explicit limits.
    #[must_use]
    pub fn with_config(seed: u64, cfg: RegistryConfig) -> Self {
        GraphRegistry {
            seed,
            cfg,
            inner: Mutex::new(Inner::default()),
        }
    }

    /// The seed dataset stand-ins are generated from.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The configured limits.
    #[must_use]
    pub fn config(&self) -> &RegistryConfig {
        &self.cfg
    }

    /// Returns the shared handle for `name`, materialising it on first use.
    ///
    /// Resolution order: a graph previously [`GraphRegistry::register`]ed
    /// under `name`, else the dataset stand-in of that name
    /// ([`datasets::by_name`]). Returns `None` for unknown names.
    pub fn acquire(&self, name: &str) -> Option<Arc<CsrGraph>> {
        self.acquire_lease(name).map(|lease| lease.graph)
    }

    /// Like [`GraphRegistry::acquire`], but the lease also carries the
    /// per-name generation the handle was cut from — the key a
    /// generation-keyed cache must use for anything derived from the graph.
    ///
    /// A cold dataset name is generated with the registry lock released, so
    /// leases and generation reads of other names never wait for it; the
    /// stand-in is published only if the name is still absent (a racing
    /// acquire or register that got there first is shared instead).
    pub fn acquire_lease(&self, name: &str) -> Option<GraphLease> {
        if let Some(lease) = self.inner.lock().expect("registry lock").lease(name) {
            return Some(lease);
        }
        let graph = Arc::new(datasets::by_name(name)?.generate(self.seed));
        let mut inner = self.inner.lock().expect("registry lock");
        if let Some(lease) = inner.lease(name) {
            return Some(lease);
        }
        Some(inner.publish(name, graph, self.cfg.max_resident))
    }

    /// Registers a caller-supplied graph under `name`, replacing any previous
    /// entry (and ticking the name's generation), and returns its shared
    /// handle. Counts as one materialisation.
    pub fn register(&self, name: &str, graph: CsrGraph) -> Arc<CsrGraph> {
        let mut inner = self.inner.lock().expect("registry lock");
        inner
            .publish(name, Arc::new(graph), self.cfg.max_resident)
            .graph
    }

    /// Applies an edge-stream [`GraphDelta`] to `name` through the replace
    /// path: the current graph (resident, or materialised afresh from the
    /// dataset stand-in) is succeeded by `delta.apply_to(current)` under a
    /// **ticked** per-name generation, and the new lease is returned.
    ///
    /// Because mutation goes through the same generation discipline as
    /// register/evict, every consumer keyed by `(name, generation)` — the
    /// service's result cache, each worker's shard-resident load — is
    /// invalidated *structurally*: a pre-mutation key can never match a
    /// post-mutation lookup. Returns `None` (without ticking anything) when
    /// `name` is neither registered nor a known dataset.
    ///
    /// The registry lock is held only to read `(graph, generation)` and,
    /// later, to publish: the successor (and a cold name's stand-in) is built
    /// with the lock released, so a mutation never makes another name's
    /// [`GraphRegistry::generation_of`] or [`GraphRegistry::acquire_lease`]
    /// wait for `O(m)` work. Publishing compares the name's generation with
    /// the one read; if anything replaced, evicted or mutated the name in
    /// between, the successor is dropped and rebuilt from the newer graph, so
    /// concurrent mutations of one name all take effect, in publish order.
    pub fn mutate(&self, name: &str, delta: &GraphDelta) -> Option<GraphLease> {
        loop {
            let (resident, seen) = {
                let inner = self.inner.lock().expect("registry lock");
                (
                    inner.graphs.get(name).map(|entry| Arc::clone(&entry.graph)),
                    inner.generation(name),
                )
            };
            let next = Arc::new(match resident {
                Some(current) => delta.apply_to(&current),
                None => delta.apply_to(&datasets::by_name(name)?.generate(self.seed)),
            });
            let mut inner = self.inner.lock().expect("registry lock");
            if inner.generation(name) != seen {
                continue;
            }
            inner.mutations += 1;
            return Some(inner.publish(name, next, self.cfg.max_resident));
        }
    }

    /// How many deltas were applied through [`GraphRegistry::mutate`] over
    /// the registry's lifetime.
    #[must_use]
    pub fn mutations(&self) -> u64 {
        self.inner.lock().expect("registry lock").mutations
    }

    /// Drops the registry's handle for `name`, ticking the name's
    /// generation. Outstanding [`Arc`] clones stay valid (the graph is freed
    /// when the last lease drops); a later [`GraphRegistry::acquire`]
    /// materialises the name afresh under a newer generation. Returns
    /// whether an entry existed.
    pub fn evict(&self, name: &str) -> bool {
        let mut inner = self.inner.lock().expect("registry lock");
        let existed = inner.graphs.remove(name).is_some();
        if existed {
            inner.tick(name);
            inner.evictions += 1;
        }
        existed
    }

    /// The current per-name generation of `name` (`0` if the registry has
    /// never materialised or evicted it). Monotone: every materialisation,
    /// re-registration and eviction of the name ticks it, and a dedup
    /// acquire never does. While `name` is *not* resident the counter sits
    /// on a value no lease was ever cut from, so `(name, generation)` keys
    /// sampled then can never collide with cached state from either side of
    /// the gap.
    #[must_use]
    pub fn generation_of(&self, name: &str) -> u64 {
        self.inner.lock().expect("registry lock").generation(name)
    }

    /// How many graphs were actually materialised (generated or registered)
    /// over the registry's lifetime — the dedup regression counter.
    #[must_use]
    pub fn generations(&self) -> u64 {
        self.inner.lock().expect("registry lock").generations
    }

    /// How many residents were evicted (explicitly or by the capacity
    /// bound) over the registry's lifetime.
    #[must_use]
    pub fn evictions(&self) -> u64 {
        self.inner.lock().expect("registry lock").evictions
    }

    /// Whether `name` is currently resident.
    #[must_use]
    pub fn contains(&self, name: &str) -> bool {
        self.inner
            .lock()
            .expect("registry lock")
            .graphs
            .contains_key(name)
    }

    /// The currently resident names, sorted.
    #[must_use]
    pub fn resident(&self) -> Vec<String> {
        self.inner
            .lock()
            .expect("registry lock")
            .graphs
            .keys()
            .cloned()
            .collect()
    }

    /// Number of resident graphs.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inner.lock().expect("registry lock").graphs.len()
    }

    /// Whether the registry holds no graphs.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn acquiring_the_same_name_twice_returns_the_shared_handle() {
        let reg = GraphRegistry::new(7);
        let a = reg.acquire("bn-mouse").expect("known dataset");
        let b = reg.acquire("bn-mouse").expect("known dataset");
        assert!(
            Arc::ptr_eq(&a, &b),
            "second acquire must share, not rebuild"
        );
        assert_eq!(reg.generations(), 1, "one materialisation, not two");
        assert_eq!(reg.len(), 1);
    }

    #[test]
    fn distinct_names_materialise_independently() {
        let reg = GraphRegistry::new(7);
        let a = reg.acquire("bn-mouse").expect("known dataset");
        let b = reg.acquire("bio-SC-GT").expect("known dataset");
        assert!(!Arc::ptr_eq(&a, &b));
        assert_eq!(reg.generations(), 2);
        assert_eq!(reg.resident(), vec!["bio-SC-GT", "bn-mouse"]);
    }

    #[test]
    fn unknown_names_are_rejected_without_a_generation() {
        let reg = GraphRegistry::new(7);
        assert!(reg.acquire("no-such-graph").is_none());
        assert_eq!(reg.generations(), 0);
        assert_eq!(reg.generation_of("no-such-graph"), 0);
        assert!(reg.is_empty());
    }

    #[test]
    fn registered_graphs_shadow_datasets_and_share() {
        let reg = GraphRegistry::new(7);
        let custom = generators::erdos_renyi(40, 0.2, 3);
        let a = reg.register("bn-mouse", custom);
        let b = reg.acquire("bn-mouse").expect("registered");
        assert!(
            Arc::ptr_eq(&a, &b),
            "acquire must return the registered graph"
        );
        assert_eq!(a.num_vertices(), 40, "not the dataset stand-in");
        assert_eq!(reg.generations(), 1);
    }

    #[test]
    fn eviction_releases_the_name_and_a_reacquire_regenerates() {
        let reg = GraphRegistry::new(7);
        let a = reg.acquire("bn-mouse").expect("known dataset");
        assert!(reg.evict("bn-mouse"));
        assert!(!reg.evict("bn-mouse"), "already evicted");
        assert!(!reg.contains("bn-mouse"));
        let b = reg.acquire("bn-mouse").expect("known dataset");
        assert!(!Arc::ptr_eq(&a, &b), "fresh materialisation after eviction");
        assert_eq!(reg.generations(), 2);
        // Determinism: the regenerated graph is identical content-wise.
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn same_seed_registries_serve_identical_graphs() {
        let a = GraphRegistry::new(11).acquire("bn-flyMedulla").unwrap();
        let b = GraphRegistry::new(11).acquire("bn-flyMedulla").unwrap();
        assert_eq!(a.num_vertices(), b.num_vertices());
        assert_eq!(a.num_edges(), b.num_edges());
    }

    #[test]
    fn dedup_acquires_share_one_generation_and_never_tick_it() {
        let reg = GraphRegistry::new(7);
        let first = reg.acquire_lease("bn-mouse").expect("known dataset");
        assert_eq!(first.generation, 1, "first materialisation is gen 1");
        let second = reg.acquire_lease("bn-mouse").expect("known dataset");
        assert_eq!(second.generation, first.generation, "dedup: same gen");
        assert!(Arc::ptr_eq(&first.graph, &second.graph));
        assert_eq!(reg.generation_of("bn-mouse"), first.generation);
        assert_eq!(reg.generations(), 1);
    }

    #[test]
    fn evict_and_reload_tick_the_per_name_generation() {
        let reg = GraphRegistry::new(7);
        let before = reg.acquire_lease("bn-mouse").expect("known dataset");
        assert!(reg.evict("bn-mouse"));
        // Between eviction and reload the counter sits on a value no lease
        // was cut from: lookups in the gap can never alias either side.
        let gap = reg.generation_of("bn-mouse");
        assert!(gap > before.generation, "eviction ticks the generation");
        let after = reg.acquire_lease("bn-mouse").expect("known dataset");
        assert!(after.generation > gap, "reload ticks it again");
        assert_ne!(after.generation, before.generation);
    }

    #[test]
    fn re_registration_ticks_the_generation() {
        let reg = GraphRegistry::new(7);
        let first = reg.acquire_lease("bn-mouse").expect("known dataset");
        reg.register("bn-mouse", generators::erdos_renyi(12, 0.5, 1));
        let second = reg.acquire_lease("bn-mouse").expect("registered");
        assert!(second.generation > first.generation);
        assert_eq!(second.graph.num_vertices(), 12);
    }

    #[test]
    fn capacity_evicts_the_least_recently_used_and_ticks_its_generation() {
        let reg = GraphRegistry::with_config(7, RegistryConfig { max_resident: 2 });
        reg.register("a", generators::erdos_renyi(8, 0.5, 1));
        reg.register("b", generators::erdos_renyi(9, 0.5, 2));
        let gen_a = reg.generation_of("a");
        // Touch `a` so `b` becomes the least recently used.
        reg.acquire("a").expect("resident");
        reg.register("c", generators::erdos_renyi(10, 0.5, 3));
        assert_eq!(reg.len(), 2, "capacity bound holds");
        assert!(reg.contains("a") && reg.contains("c"));
        assert!(!reg.contains("b"), "LRU victim was b");
        assert!(reg.generation_of("b") > 1, "capacity eviction ticks gen");
        assert_eq!(reg.generation_of("a"), gen_a, "survivors keep their gen");
        assert_eq!(reg.evictions(), 1);
    }

    #[test]
    fn capacity_eviction_leaves_outstanding_leases_valid() {
        let reg = GraphRegistry::with_config(7, RegistryConfig { max_resident: 1 });
        let lease = reg
            .register("keep", generators::erdos_renyi(16, 0.4, 5))
            .clone();
        reg.register("next", generators::erdos_renyi(8, 0.4, 6));
        assert!(!reg.contains("keep"), "evicted by capacity");
        assert_eq!(lease.num_vertices(), 16, "the lease still works");
    }

    #[test]
    fn mutation_replaces_the_graph_and_ticks_the_generation() {
        let reg = GraphRegistry::new(7);
        reg.register("g", CsrGraph::from_edges(4, &[(0, 1), (1, 2)]));
        let before = reg.acquire_lease("g").expect("registered");
        let delta = GraphDelta::new().insert(2, 3).delete(0, 1);
        let after = reg.mutate("g", &delta).expect("mutable");
        assert!(
            after.generation > before.generation,
            "mutation ticks the per-name generation"
        );
        assert!(after.graph.has_edge(2, 3));
        assert!(!after.graph.has_edge(0, 1));
        assert!(before.graph.has_edge(0, 1), "old leases stay immutable");
        assert_eq!(reg.mutations(), 1);
        // The resident entry now serves the mutated graph.
        let lease = reg.acquire_lease("g").expect("resident");
        assert!(Arc::ptr_eq(&lease.graph, &after.graph));
        assert_eq!(lease.generation, after.generation);
    }

    #[test]
    fn mutating_a_non_resident_dataset_materialises_it_first() {
        let reg = GraphRegistry::new(7);
        let baseline = GraphRegistry::new(7).acquire("bn-mouse").unwrap();
        let delta = GraphDelta::new().insert(0, 1).insert(0, 2);
        let lease = reg.mutate("bn-mouse", &delta).expect("known dataset");
        assert!(lease.graph.has_edge(0, 1));
        assert!(lease.graph.has_edge(0, 2));
        let added = [!baseline.has_edge(0, 1), !baseline.has_edge(0, 2)]
            .iter()
            .filter(|&&b| b)
            .count();
        assert_eq!(lease.graph.num_edges(), baseline.num_edges() + added);
        assert!(reg.mutate("no-such-graph", &delta).is_none());
        assert_eq!(
            reg.generation_of("no-such-graph"),
            0,
            "failed mutate is free"
        );
    }

    /// Delta `k` of the contention test: vertices `4k..4k + 4` are its own,
    /// it deletes the one edge the base graph has there and inserts two, so
    /// every published generation has exactly one edge more than the last.
    fn disjoint_delta(k: u32) -> GraphDelta {
        let v = 4 * k;
        GraphDelta::new()
            .delete(v, v + 1)
            .insert(v + 1, v + 2)
            .insert(v + 2, v + 3)
    }

    /// Seen to fail under: publishing without the compare (the
    /// `generation(name) != seen` check dropped: a lost update, the final
    /// graph is short of edges); retrying without re-reading the graph (the
    /// successor built once, before the loop, and published at whatever
    /// generation comes: same loss, and a lease's edge count disagrees with
    /// its generation).
    #[test]
    fn concurrent_mutations_of_one_name_all_take_effect() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::Barrier;
        const THREADS: u32 = 4;
        const ROUNDS: u32 = 200;
        let total = THREADS * ROUNDS;
        let base_edges: Vec<_> = (0..total).map(|k| (4 * k, 4 * k + 1)).collect();
        let base = CsrGraph::from_edges(4 * total as usize, &base_edges);
        let reg = GraphRegistry::new(7);
        reg.register("g", base.clone());
        let first = reg.generation_of("g");
        // Generation `first + j` is the base with `j` deltas applied.
        let edges_at = |generation: u64| base.num_edges() as u64 + (generation - first);

        // Every round releases the four writers together, so their
        // read-build-publish windows overlap; results are checked after the
        // scope, because a writer that panicked would strand the others on
        // the barrier.
        let barrier = Barrier::new(THREADS as usize);
        let done = AtomicBool::new(false);
        let leases: Vec<(u32, Option<GraphLease>)> = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut newest = first;
                while !done.load(Ordering::SeqCst) {
                    let generation = reg.generation_of("g");
                    assert!(generation >= newest, "generation went backwards");
                    let lease = reg.acquire_lease("g").expect("resident");
                    assert!(lease.generation >= generation, "lease older than seen");
                    assert_eq!(lease.graph.num_edges() as u64, edges_at(lease.generation));
                    newest = lease.generation;
                }
            });
            let writers: Vec<_> = (0..THREADS)
                .map(|t| {
                    let (reg, barrier) = (&reg, &barrier);
                    scope.spawn(move || {
                        (0..ROUNDS)
                            .map(|i| {
                                let k = t * ROUNDS + i;
                                barrier.wait();
                                (k, reg.mutate("g", &disjoint_delta(k)))
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            let leases = writers
                .into_iter()
                .flat_map(|writer| writer.join().expect("writer"))
                .collect();
            done.store(true, Ordering::SeqCst);
            reader.join().expect("reader");
            leases
        });

        assert_eq!(reg.mutations(), u64::from(total));
        let mut generations = std::collections::BTreeSet::new();
        for (k, lease) in &leases {
            let lease = lease.as_ref().expect("a registered name is mutable");
            let v = 4 * k;
            assert!(!lease.graph.has_edge(v, v + 1), "delta {k}: own delete");
            assert!(lease.graph.has_edge(v + 1, v + 2), "delta {k}: own insert");
            assert!(lease.graph.has_edge(v + 2, v + 3), "delta {k}: own insert");
            assert_eq!(lease.graph.num_edges() as u64, edges_at(lease.generation));
            assert!(generations.insert(lease.generation), "generation reused");
        }
        let expected = (0..total).fold(base, |g, k| disjoint_delta(k).apply_to(&g));
        let last = reg.acquire_lease("g").expect("resident");
        assert_eq!(*last.graph, expected, "disjoint deltas: order-free");
        assert_eq!(last.generation, first + u64::from(total));
    }

    /// A registered name that is evicted has nothing to fall back on, so a
    /// `mutate` that loses the race must come back empty-handed rather than
    /// resurrect the graph it read. Nothing can be hooked between `mutate`'s
    /// read and its publish, so the eviction is aimed there by weight: an
    /// evictor that never stops, and every other round a delta slow enough to
    /// build that the eviction lands inside the build.
    ///
    /// Seen to fail under: publishing without the compare (the successor of
    /// the evicted graph is published, under a generation past the
    /// eviction's); retrying without re-reading the graph (the same, one
    /// attempt later).
    #[test]
    fn a_mutation_racing_an_eviction_never_publishes_a_stale_graph() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const ROUNDS: usize = 200;
        let base = generators::erdos_renyi(400, 0.05, 9);
        let quick = GraphDelta::new().insert(0, 399).delete(0, 1);
        let mut slow = GraphDelta::new();
        slow.inserts = generators::erdos_renyi(400, 0.1, 10).edges().collect();
        let reg = GraphRegistry::new(7);
        let done = AtomicBool::new(false);
        // Per round: the generation registered, the lease's (if any), and the
        // name's once the eviction has happened.
        let outcomes: Vec<(u64, Option<u64>, u64)> = std::thread::scope(|scope| {
            scope.spawn(|| {
                while !done.load(Ordering::SeqCst) {
                    reg.evict("h");
                }
            });
            let outcomes = (0..ROUNDS)
                .map(|round| {
                    let registered = reg.generation_of("h") + 1;
                    reg.register("h", base.clone());
                    let lease = reg.mutate("h", if round % 2 == 0 { &slow } else { &quick });
                    while reg.contains("h") {
                        std::thread::yield_now();
                    }
                    (
                        registered,
                        lease.map(|lease| lease.generation),
                        reg.generation_of("h"),
                    )
                })
                .collect();
            done.store(true, Ordering::SeqCst);
            outcomes
        });
        let mut published = 0;
        for (registered, lease, after) in outcomes {
            match lease {
                // Published first, evicted second.
                Some(generation) => {
                    published += 1;
                    assert_eq!(generation, registered + 1);
                    assert_eq!(after, registered + 2);
                }
                // Evicted before the read, or between the read and the publish.
                None => assert_eq!(after, registered + 1, "a failed mutate is free"),
            }
        }
        assert_eq!(reg.mutations(), published);
    }

    /// Nothing can be hooked inside `generate`, so the reader counts only the
    /// leases of the *other* name that began and ended while the writer was
    /// inside its cold `acquire_lease` with the stand-in not yet published:
    /// generated under the lock, that is what fits between the writer's flag
    /// and its lock; with the lock released it is whatever the reader's
    /// share of the generate buys, on one CPU or two.
    ///
    /// Seen to fail under: `generate` called with the guard of the first
    /// look-up still alive (0–47 such leases in 16 rounds over ten runs,
    /// against some 850 000).
    #[test]
    fn a_lease_of_another_name_is_not_blocked_behind_a_generate() {
        use std::sync::atomic::{AtomicBool, Ordering};
        const ROUNDS: u64 = 16;
        const COLD: &str = "soc-fbMsg";
        let reg = GraphRegistry::new(7);
        reg.register("small", generators::erdos_renyi(8, 0.5, 1));
        let generating = AtomicBool::new(false);
        let done = AtomicBool::new(false);
        let overlapped = std::thread::scope(|scope| {
            let reader = scope.spawn(|| {
                let mut overlapped = 0u64;
                while !done.load(Ordering::SeqCst) {
                    let before = generating.load(Ordering::SeqCst);
                    reg.acquire_lease("small").expect("resident");
                    // Still generating and not yet published: the lease did
                    // not slip in behind the writer's unlock.
                    if before && generating.load(Ordering::SeqCst) && !reg.contains(COLD) {
                        overlapped += 1;
                    }
                }
                overlapped
            });
            for round in 0..ROUNDS {
                generating.store(true, Ordering::SeqCst);
                let lease = reg.acquire_lease(COLD).expect("known dataset");
                generating.store(false, Ordering::SeqCst);
                assert_eq!(lease.generation, 2 * round + 1, "published once a round");
                assert!(reg.evict(COLD));
            }
            done.store(true, Ordering::SeqCst);
            reader.join().expect("reader")
        });
        assert_eq!(reg.generations(), 1 + ROUNDS);
        assert!(
            overlapped >= 10 * ROUNDS,
            "{overlapped} leases of another name overlapped {ROUNDS} generates"
        );
    }

    /// Two cold acquires of one name may both generate; only one publishes
    /// and the other shares it, so the name still materialises once.
    #[test]
    fn racing_cold_acquires_publish_once_and_share_the_handle() {
        let reg = GraphRegistry::new(7);
        let barrier = std::sync::Barrier::new(4);
        let leases: Vec<GraphLease> = std::thread::scope(|scope| {
            let racers: Vec<_> = (0..4)
                .map(|_| {
                    scope.spawn(|| {
                        barrier.wait();
                        reg.acquire_lease("bn-mouse").expect("known dataset")
                    })
                })
                .collect();
            racers
                .into_iter()
                .map(|racer| racer.join().expect("racer"))
                .collect()
        });
        assert_eq!(reg.generations(), 1, "published exactly once");
        for lease in &leases {
            assert_eq!(lease.generation, 1);
            assert!(Arc::ptr_eq(&lease.graph, &leases[0].graph), "shared handle");
        }
    }

    #[test]
    fn unbounded_registries_never_capacity_evict() {
        let reg = GraphRegistry::new(7);
        for i in 0..6 {
            reg.register(&format!("g{i}"), generators::erdos_renyi(6, 0.5, i));
        }
        assert_eq!(reg.len(), 6);
        assert_eq!(reg.evictions(), 0);
    }
}
