//! End-to-end contracts of the generation-keyed result cache and the
//! weighted-fair-queueing dispatcher:
//!
//! 1. **Zero-cost hits** — a repeated identical query is answered from the
//!    cache with *zero* additional engine cycles (engine aggregates frozen
//!    between hits), marked `cache_hit`, with the conservation identity
//!    still exact and the hit accounted in its own ledger column.
//!    A disabled cache counts no lookups, and the metrics snapshot, which
//!    reads the cache's counters, reports none either.
//! 2. **Generation invalidation** — evicting or replacing a graph kills its
//!    cache entries: the next identical query re-executes against the new
//!    graph.
//! 3. **Registry capacity** — `RegistryConfig::max_resident` LRU-evicts
//!    resident graphs through the service config, bumping generations so
//!    cached results die with the graph, while queries keep answering
//!    correctly (reload on demand).
//! 4. **No starvation** — a tenant keeping 10× the load of another queued
//!    from its own thread never starves it: every light query completes,
//!    with no cache hit and no coalescing. That the delay is one weighted
//!    round of heavy work and no more is counted without threads, in
//!    `service::tests`.

use sisa_graph::generators;
use sisa_service::{QueryKind, QuerySpec, RegistryConfig, ServiceConfig, SisaService};
use std::collections::{BTreeMap, VecDeque};

fn test_graph() -> sisa_graph::CsrGraph {
    generators::erdos_renyi(48, 0.18, 7)
}

#[test]
fn repeated_queries_hit_the_cache_with_zero_engine_cycles() {
    let service = SisaService::start(ServiceConfig::smoke());
    service.register_graph("g", test_graph());
    let spec = QuerySpec::new("g", QueryKind::KCliqueCount { k: 3 });

    let first = service
        .submit("t", spec.clone())
        .expect("admitted")
        .wait()
        .expect("completes");
    assert!(!first.stats.cache_hit, "first execution is a miss");
    assert!(first.stats.simulated_cycles > 0);

    // Engine aggregates are frozen across the hits: the barrier read before
    // and after must be identical, integer counters and bit-exact energy.
    let engines_before = service.engine_stats();
    for _ in 0..3 {
        let hit = service
            .submit("t", spec.clone())
            .expect("admitted")
            .wait()
            .expect("completes");
        assert!(
            hit.stats.cache_hit,
            "identical repeat is served by the cache"
        );
        assert!(!hit.stats.coalesced);
        assert_eq!(hit.value, first.value);
        assert_eq!(hit.truncated, first.truncated);
        // The hit reports the original execution's cost (informational)...
        assert_eq!(hit.stats.simulated_cycles, first.stats.simulated_cycles);
        // ...but spent no worker time itself.
        assert_eq!(hit.stats.execute_ns, 0);
        assert!(hit.stats.span_ns >= hit.stats.queue_ns);
    }
    let engines_after = service.engine_stats();
    assert_eq!(
        engines_before, engines_after,
        "hits billed zero engine cycles"
    );
    assert_eq!(
        engines_before.energy_nj.to_bits(),
        engines_after.energy_nj.to_bits()
    );

    // Ledger: hits are completions in their own column, with zero stats.
    let report = service.report();
    assert_eq!(report.completed, 4);
    assert_eq!(report.cache_hits, 3);
    assert_eq!(report.coalesced, 0);
    let usage = service.tenant_usage();
    assert_eq!(usage["t"].queries, 4);
    assert_eq!(usage["t"].cache_hits, 3);

    // Conservation identity stays exact with hits in play.
    let mut attributed = service.pool_stats();
    attributed.merge(&service.registry_stats());
    let engines = service.engine_stats();
    assert_eq!(engines.scu_cycles, attributed.scu_cycles);
    assert_eq!(engines.host_cycles, attributed.host_cycles);
    assert_eq!(engines.instructions, attributed.instructions);

    // Telemetry surface: counters, and the hit-ratio gauge in permille.
    let snapshot = service.metrics_snapshot();
    assert_eq!(snapshot.counters["sisa_cache_hits_total"], 3);
    assert_eq!(snapshot.counters["sisa_cache_misses_total"], 1);
    assert_eq!(snapshot.gauges["sisa_cache_hit_ratio_permille"], 750);
    assert_eq!(snapshot.counters["sisa_queries_completed_total"], 4);
    let counters = service.cache_counters();
    assert_eq!((counters.hits, counters.misses), (3, 1));
    assert_eq!(counters.resident, 1);
    service.close();
}

/// Seen to fail when the dispatcher counted a miss per query into the
/// metrics registry while the disabled cache itself counted nothing.
#[test]
fn a_disabled_cache_reports_no_lookups_in_the_metrics_snapshot() {
    let mut cfg = ServiceConfig::smoke();
    cfg.cache_entries = 0;
    let service = SisaService::start(cfg);
    service.register_graph("g", test_graph());
    for _ in 0..5 {
        let outcome = service
            .submit("t", QuerySpec::new("g", QueryKind::TriangleCount))
            .expect("admitted")
            .wait()
            .expect("completes");
        assert!(!outcome.stats.cache_hit);
    }
    let counters = service.cache_counters();
    assert_eq!(
        (counters.hits, counters.misses, counters.evictions),
        (0, 0, 0)
    );
    let snapshot = service.metrics_snapshot();
    for name in [
        "sisa_cache_hits_total",
        "sisa_cache_misses_total",
        "sisa_cache_evictions_total",
    ] {
        assert!(
            !snapshot.counters.contains_key(name),
            "{name}: {snapshot:?}"
        );
    }
    assert!(!snapshot
        .gauges
        .contains_key("sisa_cache_hit_ratio_permille"));
    assert_eq!(snapshot.counters["sisa_queries_completed_total"], 5);
    service.close();
}

#[test]
fn evicting_or_replacing_a_graph_invalidates_its_cached_results() {
    let service = SisaService::start(ServiceConfig::smoke());
    service.register_graph("g", test_graph());
    let spec = QuerySpec::new("g", QueryKind::TriangleCount);

    let first = service
        .submit("t", spec.clone())
        .expect("admitted")
        .wait()
        .expect("completes");
    let warmed = service
        .submit("t", spec.clone())
        .expect("admitted")
        .wait()
        .expect("completes");
    assert!(warmed.stats.cache_hit);

    // Replace the graph under the same name: a bigger ER graph with a
    // different triangle count. The stale entry must be unreachable.
    service.register_graph("g", generators::erdos_renyi(64, 0.25, 99));
    let after = service
        .submit("t", spec.clone())
        .expect("admitted")
        .wait()
        .expect("completes");
    assert!(
        !after.stats.cache_hit,
        "generation moved: forced re-execution"
    );
    assert_ne!(after.value, first.value, "the new graph answers");

    // And the new generation caches independently.
    let rehit = service
        .submit("t", spec.clone())
        .expect("admitted")
        .wait()
        .expect("completes");
    assert!(rehit.stats.cache_hit);
    assert_eq!(rehit.value, after.value);

    // Plain eviction (no re-registration) also kills the entry: the name
    // becomes unknown, so the query now fails rather than serving staleness.
    service.evict_graph("g");
    let err = service
        .submit("t", spec)
        .expect("admission does not inspect the registry")
        .wait()
        .expect_err("evicted custom graph is gone");
    assert!(err.contains("unknown graph"), "{err}");
    service.close();
}

#[test]
fn registry_capacity_evicts_lru_and_queries_reload_on_demand() {
    let mut cfg = ServiceConfig::smoke();
    cfg.workers = 1; // one worker: all three graphs share one engine
    cfg.registry = RegistryConfig { max_resident: 2 };
    let service = SisaService::start(cfg);
    let graphs = [
        ("a", generators::erdos_renyi(24, 0.3, 1)),
        ("b", generators::erdos_renyi(24, 0.3, 2)),
        ("c", generators::erdos_renyi(24, 0.3, 3)),
    ];
    let mut values = Vec::new();
    for (name, graph) in &graphs {
        service.register_graph(name, graph.clone());
    }
    // Registering c (capacity 2) LRU-evicted a from the registry.
    assert!(!service.registry().contains("a"));
    assert!(service.registry().contains("b") && service.registry().contains("c"));
    assert_eq!(service.registry().evictions(), 1);

    let query = |name: &str| {
        service
            .submit("t", QuerySpec::new(name, QueryKind::TriangleCount))
            .expect("admitted")
            .wait()
    };
    // Queries on the evicted name fail (custom graphs cannot re-materialise);
    // resident names answer and cache normally.
    let err = query("a").expect_err("a was capacity-evicted");
    assert!(err.contains("unknown graph"), "{err}");
    for (name, _) in &graphs[1..] {
        values.push(query(name).expect("resident graph answers").value);
    }
    // Repeats hit the cache under the survivors' generations.
    for ((name, _), value) in graphs[1..].iter().zip(&values) {
        let hit = query(name).expect("still resident");
        assert!(hit.stats.cache_hit);
        assert_eq!(hit.value, *value);
    }
    // The capacity eviction bumped a's generation, so nothing keyed to the
    // old generation can ever be served again.
    assert!(service.registry().generation_of("a") > 1);
    service.close();
}

/// The heavy tenant's weight: its executions per deficit round-robin round.
const HEAVY_WEIGHT: u64 = 3;

#[test]
fn a_10x_heavy_tenant_on_another_thread_never_starves_a_light_one() {
    // One worker, so both tenants compete for the same serial executor.
    // Every submission carries a unique (huge, never-truncating) budget:
    // the specs stay distinct, so neither coalescing nor the result cache
    // can mask scheduling behaviour — every query really executes.
    //
    // How long a light query waits, in heavy executions, is counted by
    // `service::tests::a_10x_heavy_tenant_delays_a_light_query_by_at_most_one_weighted_round`,
    // which plays the worker and both clients on one thread: counted here,
    // the heavy executions that finish while the light client thread wakes
    // up would enter the count.
    let light_queries = 40u64;
    let heavy_factor = 10usize;
    let graph = generators::erdos_renyi(56, 0.22, 11);
    let spec = |i: u64| {
        QuerySpec::new("wfq", QueryKind::KCliqueCount { k: 3 }).with_budget(1_000_000_000 + i)
    };
    let mut cfg = ServiceConfig::smoke();
    cfg.workers = 1;
    cfg.admission.queue_capacity = 1024;
    cfg.admission.per_tenant_inflight = 512;
    cfg.tenant_weights = BTreeMap::from([("heavy".to_string(), HEAVY_WEIGHT)]);
    let service = SisaService::start(cfg);
    service.register_graph("wfq", graph);
    let heavy_done = |service: &SisaService| {
        service
            .tenant_usage()
            .get("heavy")
            .map_or(0, |usage| usage.queries)
    };

    // A heavy tenant keeps `heavy_factor` queries in flight (a closed loop)
    // while the light tenant submits one query at a time.
    std::thread::scope(|scope| {
        let heavy = {
            let client = service.client();
            scope.spawn(move || {
                let total = light_queries as usize * heavy_factor;
                let mut outstanding = VecDeque::new();
                for i in 0..total as u64 {
                    loop {
                        match client.submit("heavy", spec(10_000 + i)) {
                            Ok(handle) => {
                                outstanding.push_back(handle);
                                break;
                            }
                            // Saturation cannot happen at these limits, but
                            // stay robust: drain one and retry.
                            Err(_) => {
                                if let Some(handle) = outstanding.pop_front() {
                                    let _ = handle.wait();
                                }
                            }
                        }
                    }
                    if outstanding.len() >= heavy_factor {
                        let _ = outstanding.pop_front().expect("non-empty").wait();
                    }
                }
                for handle in outstanding {
                    let _ = handle.wait();
                }
            })
        };
        // Submit against a backlogged worker: wait for a full heavy round.
        while heavy_done(&service) < HEAVY_WEIGHT {
            std::thread::yield_now();
        }
        for i in 0..light_queries {
            service
                .submit("light", spec(2_000 + i))
                .expect("admitted")
                .wait()
                .expect("completes");
        }
        heavy.join().expect("heavy client");
    });
    let report = service.report();
    assert_eq!(report.cache_hits, 0, "unique budgets defeat the cache");
    assert_eq!(report.coalesced, 0, "and coalescing");
    assert_eq!(service.tenant_usage()["light"].queries, light_queries);
    service.close();
}
