//! The lifecycle of one name's two resident states — the static loads and
//! the incremental stream state of its affinity worker — against a model.
//!
//! Random sequences of `mutate` (some naming vertices beyond the miner's
//! capacity), maintained / budgeted / star reads, `evict_graph`,
//! `register_graph` and a registry replace behind the service's back run
//! one request at a time. The model holds an edge set, the name's
//! generation and *which generation each resident state was cut from*, and
//! from those alone predicts:
//!
//! * every answer — a fresh recount on a cost-free [`FunctionalEngine`] over
//!   the graph as it stood, budgeted ones to their budget — and whether it is
//!   a cache hit;
//! * `sisa_stream_loads_total`: the first mutate, the first after an evict
//!   or a replace, and any mutate the miner's capacity does not fit;
//! * `graph_loads`: a static-path read whose load is not at the current
//!   generation — and **not** the stream state going with it, unless the
//!   stream's own generation is stale too;
//! * `sisa_stream_serves_total`, worker evictions, failures and completions.
//!
//! After every sequence the conservation identities hold exactly and no
//! admission slot or per-tenant gauge is left.

use proptest::prelude::*;
use sisa_algorithms::setcentric::{
    k_clique_count, orient_by_degeneracy, star_pattern, subgraph_isomorphism_count, triangle_count,
};
use sisa_algorithms::SearchLimits;
use sisa_core::{ExecStats, FunctionalEngine, SetGraph, SetGraphConfig};
use sisa_graph::{generators, CsrGraph, GraphDelta};
use sisa_service::{QueryKind, QuerySpec, ServiceConfig, SisaService};
use std::collections::{BTreeMap, BTreeSet};

const NAME: &str = "g";
const TENANTS: [&str; 3] = ["ada", "bo", "cy"];

fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The oracle: `spec` on a cost-free engine over `g`.
fn expected(spec: &QuerySpec, g: &CsrGraph) -> (u64, bool) {
    let mut engine = FunctionalEngine::new();
    let cfg = SetGraphConfig::default();
    let limits = spec
        .budget
        .map_or_else(SearchLimits::unlimited, SearchLimits::patterns);
    let run = match spec.kind {
        QueryKind::TriangleCount => {
            let (oriented, _) = orient_by_degeneracy(&mut engine, g, &cfg);
            triangle_count(&mut engine, &oriented, &limits)
        }
        QueryKind::KCliqueCount { k } => {
            let (oriented, _) = orient_by_degeneracy(&mut engine, g, &cfg);
            k_clique_count(&mut engine, &oriented, k, &limits)
        }
        QueryKind::StarCount { k } => {
            let plain = SetGraph::load(&mut engine, g, &cfg);
            subgraph_isomorphism_count(&mut engine, &plain, &star_pattern(k), &limits)
        }
        QueryKind::Mutate(_) => unreachable!("mutations are modelled, not recounted"),
    };
    (run.result, run.truncated)
}

/// What the service is predicted to have counted so far.
#[derive(Debug, Default, PartialEq, Eq)]
struct Counts {
    stream_loads: u64,
    stream_serves: u64,
    graph_loads: u64,
    evictions: u64,
    mutations: u64,
    cache_hits: u64,
    completed: u64,
    failed: u64,
}

/// The model: the graph behind the name, the registry's generation of it,
/// and the generation each of the worker's two resident states was cut from.
struct Model {
    vertices: usize,
    edges: BTreeSet<(u32, u32)>,
    registered: bool,
    generation: u64,
    /// The static loads' generation, if resident.
    statics: Option<u64>,
    /// The stream state's generation and vertex capacity, if resident.
    stream: Option<(u64, usize)>,
    /// Results cached under the current generation (empty with the cache
    /// off: nothing is ever stored).
    cached: BTreeMap<QuerySpec, (u64, bool)>,
    cache_on: bool,
    counts: Counts,
}

impl Model {
    fn graph(&self) -> CsrGraph {
        let edges: Vec<_> = self.edges.iter().copied().collect();
        CsrGraph::from_edges(self.vertices, &edges)
    }

    /// Any event that changes what the name maps to.
    fn tick(&mut self) {
        self.generation += 1;
        self.cached.clear();
    }

    fn replace(&mut self, g: &CsrGraph) {
        self.vertices = g.num_vertices();
        self.edges = g.edges().map(|(u, v)| (u.min(v), u.max(v))).collect();
        self.registered = true;
        self.tick();
    }

    /// `WorkerMsg::Evict`: both states go, whichever are resident.
    fn worker_evict(&mut self) {
        self.stream = None;
        if self.statics.take().is_some() {
            self.counts.evictions += 1;
        }
    }

    /// A mutation's predicted value, `None` when it must fail.
    fn mutate(&mut self, delta: &GraphDelta) -> Option<u64> {
        if !self.registered {
            self.counts.failed += 1;
            return None;
        }
        let named = delta.max_vertex().map_or(0, |v| v as usize + 1);
        let current = self.stream.is_some_and(|(generation, capacity)| {
            generation == self.generation && named <= capacity
        });
        if !current {
            self.counts.stream_loads += 1;
            self.stream = Some((self.generation, self.vertices.max(named)));
        }
        let mut applied = 0;
        for edge in delta.normalized_deletes() {
            applied += u64::from(self.edges.remove(&edge));
        }
        for edge in delta.normalized_inserts() {
            applied += u64::from(self.edges.insert(edge));
        }
        self.vertices = self.vertices.max(named);
        self.tick();
        self.stream.as_mut().expect("made current above").0 = self.generation;
        self.counts.mutations += 1;
        self.counts.completed += 1;
        Some(applied)
    }

    /// A read's predicted `(value, truncated, cache_hit)`, `None` when it
    /// must fail.
    fn read(&mut self, spec: &QuerySpec) -> Option<(u64, bool, bool)> {
        if !self.registered {
            self.counts.failed += 1;
            return None;
        }
        self.counts.completed += 1;
        if let Some(&(value, truncated)) = self.cached.get(spec) {
            self.counts.cache_hits += 1;
            return Some((value, truncated, true));
        }
        let maintained = spec.budget.is_none()
            && matches!(
                spec.kind,
                QueryKind::TriangleCount | QueryKind::KCliqueCount { k: 4 }
            );
        if maintained && self.stream.is_some_and(|(g, _)| g == self.generation) {
            self.counts.stream_serves += 1;
        } else if self.statics != Some(self.generation) {
            // The static loads are reloaded; the stream state goes with them
            // only if its *own* generation is stale.
            if self.statics.is_some() {
                self.counts.evictions += 1;
            }
            if self.stream.is_some_and(|(g, _)| g != self.generation) {
                self.stream = None;
            }
            self.statics = Some(self.generation);
            self.counts.graph_loads += 1;
        }
        let (value, truncated) = expected(spec, &self.graph());
        if self.cache_on {
            self.cached.insert(spec.clone(), (value, truncated));
        }
        Some((value, truncated, false))
    }
}

fn draw_graph(rng: &mut u64) -> CsrGraph {
    let n = 8 + (splitmix(rng) % 5) as usize;
    generators::erdos_renyi(n, 0.4, splitmix(rng))
}

/// A few inserts and deletes over the present vertex range; one delta in
/// five also names a vertex up to three past it (beyond any capacity the
/// miner was loaded with for this range).
fn draw_delta(vertices: usize, rng: &mut u64) -> GraphDelta {
    let n = vertices.max(2) as u64;
    let mut delta = GraphDelta::new();
    for _ in 0..1 + splitmix(rng) % 3 {
        delta = delta.insert((splitmix(rng) % n) as u32, (splitmix(rng) % n) as u32);
    }
    for _ in 0..splitmix(rng) % 3 {
        delta = delta.delete((splitmix(rng) % n) as u32, (splitmix(rng) % n) as u32);
    }
    if splitmix(rng).is_multiple_of(5) {
        let beyond = (n + splitmix(rng) % 3) as u32;
        delta = delta.insert((splitmix(rng) % n) as u32, beyond);
    }
    delta
}

fn draw_read(rng: &mut u64) -> QuerySpec {
    let kind = match splitmix(rng) % 5 {
        0 | 1 => QueryKind::TriangleCount,
        2 | 3 => QueryKind::KCliqueCount { k: 4 },
        _ => QueryKind::StarCount { k: 2 },
    };
    let spec = QuerySpec::new(NAME, kind);
    // Stars always take the static path; cliques do when budgeted.
    match splitmix(rng) % 5 {
        0 => spec.with_budget(1),
        1 => spec.with_budget(3 + splitmix(rng) % 6),
        _ => spec,
    }
}

fn assert_conserved(whole: &ExecStats, parts: &ExecStats) {
    assert_eq!(whole.scu_cycles, parts.scu_cycles, "scu_cycles");
    assert_eq!(whole.pum_cycles, parts.pum_cycles, "pum_cycles");
    assert_eq!(whole.pnm_cycles, parts.pnm_cycles, "pnm_cycles");
    assert_eq!(whole.host_cycles, parts.host_cycles, "host_cycles");
    assert_eq!(whole.link_cycles, parts.link_cycles, "link_cycles");
    assert_eq!(whole.link_bytes, parts.link_bytes, "link_bytes");
    assert_eq!(whole.instructions, parts.instructions, "instruction mix");
    let energy_err = (whole.energy_nj - parts.energy_nj).abs();
    assert!(
        energy_err <= 1e-9 * whole.energy_nj.abs().max(1.0),
        "energy drifted: {} vs {}",
        whole.energy_nj,
        parts.energy_nj
    );
}

/// What the service has counted: the same record the model keeps.
fn observed(service: &SisaService) -> Counts {
    let report = service.report();
    let counters = service.metrics_snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    Counts {
        stream_loads: counter("sisa_stream_loads_total"),
        stream_serves: counter("sisa_stream_serves_total"),
        graph_loads: report.graph_loads,
        evictions: report.evictions,
        mutations: report.mutations,
        cache_hits: report.cache_hits,
        completed: report.completed,
        failed: report.failed,
    }
}

fn run_lifecycle(seed: u64, steps: usize, workers: usize, cache_on: bool) {
    let service = SisaService::start(ServiceConfig {
        workers,
        shards: 2,
        cache_entries: if cache_on { 64 } else { 0 },
        ..ServiceConfig::default()
    });
    let mut rng = seed;
    let first = draw_graph(&mut rng);
    let mut model = Model {
        vertices: 0,
        edges: BTreeSet::new(),
        registered: false,
        generation: 0,
        statics: None,
        stream: None,
        cached: BTreeMap::new(),
        cache_on,
        counts: Counts::default(),
    };
    model.replace(&first);
    service.register_graph(NAME, first);

    for step in 0..steps {
        let tenant = TENANTS[(splitmix(&mut rng) % 3) as usize];
        match splitmix(&mut rng) % 20 {
            0..=6 => {
                let delta = draw_delta(model.vertices, &mut rng);
                let want = model.mutate(&delta);
                let got = service
                    .submit(
                        tenant,
                        QuerySpec::new(NAME, QueryKind::Mutate(delta.clone())),
                    )
                    .expect("admitted")
                    .wait();
                match want {
                    Some(applied) => {
                        let got = got.unwrap_or_else(|e| panic!("step {step}: {delta:?}: {e}"));
                        assert_eq!(got.value, applied, "step {step}: applied by {delta:?}");
                    }
                    None => assert!(got.expect_err("evicted").contains("unknown graph")),
                }
            }
            7..=16 => {
                let spec = draw_read(&mut rng);
                let want = model.read(&spec);
                let got = service
                    .submit(tenant, spec.clone())
                    .expect("admitted")
                    .wait();
                match want {
                    Some((value, truncated, cache_hit)) => {
                        let got = got.unwrap_or_else(|e| panic!("step {step}: {spec:?}: {e}"));
                        assert_eq!(
                            (got.value, got.truncated, got.stats.cache_hit),
                            (value, truncated, cache_hit),
                            "step {step}: {spec:?} on {:?}",
                            model.edges
                        );
                    }
                    None => assert!(got.expect_err("evicted").contains("unknown graph")),
                }
            }
            17 => {
                let existed = service.evict_graph(NAME);
                assert_eq!(existed, model.registered, "step {step}: evict_graph");
                if model.registered {
                    model.registered = false;
                    model.tick();
                }
                model.worker_evict();
            }
            18 => {
                let g = draw_graph(&mut rng);
                model.worker_evict();
                model.replace(&g);
                service.register_graph(NAME, g);
            }
            _ => {
                // Behind the service's back: no worker is told.
                let g = draw_graph(&mut rng);
                model.replace(&g);
                service.registry().register(NAME, g);
            }
        }
        assert_eq!(
            service.registry().generation_of(NAME),
            model.generation,
            "step {step}: generation"
        );
        // Loads and serves are counted before the answer is sent.
        let seen = observed(&service);
        assert_eq!(
            (seen.stream_loads, seen.graph_loads, seen.stream_serves),
            (
                model.counts.stream_loads,
                model.counts.graph_loads,
                model.counts.stream_serves
            ),
            "step {step}: (stream loads, graph loads, stream serves)"
        );
    }

    // The barrier: every worker has finished everything queued, evictions
    // and slot releases included.
    let engines = service.engine_stats();
    assert_eq!(observed(&service), model.counts);
    if model.registered {
        let lease = service.registry().acquire_lease(NAME).expect("resident");
        assert_eq!(*lease.graph, model.graph(), "the registry's graph");
    }

    let mut folded = ExecStats::default();
    for usage in service.tenant_usage().values() {
        folded.merge(&usage.stats);
    }
    let pool = service.pool_stats();
    assert_eq!(folded, pool, "tenant fold == pool, bit-exact");
    assert_eq!(folded.energy_nj.to_bits(), pool.energy_nj.to_bits());
    let mut attributed = pool;
    attributed.merge(&service.registry_stats());
    assert_conserved(&engines, &attributed);

    assert_eq!(service.report().in_flight, 0, "no admission slot is left");
    let gauges = service.metrics_snapshot().gauges;
    assert!(
        !gauges.keys().any(|k| k.contains("tenant=")),
        "per-tenant gauges left behind: {gauges:?}"
    );
    service.close();
}

#[test]
fn resident_states_follow_the_model_on_fixed_seeds() {
    // Every worker count and cache mode on seeds that never change.
    for seed in [1, 0xfeed, 0xc0ffee] {
        for workers in 1..=2 {
            for cache_on in [false, true] {
                run_lifecycle(seed, 40, workers, cache_on);
            }
        }
    }
}

proptest! {
    #[test]
    fn resident_states_follow_the_model_on_random_sequences(
        seed in 0u64..1_000_000_000,
        steps in 8usize..48,
        workers in 1usize..3,
        cache_on in any::<bool>(),
    ) {
        run_lifecycle(seed, steps, workers, cache_on);
    }
}
