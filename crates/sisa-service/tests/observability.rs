//! End-to-end observability contracts of the service:
//!
//! 1. **Panic attribution** — a kernel panic (reachable by constructing a
//!    `QuerySpec` directly, bypassing wire validation) fails the query,
//!    keeps the worker and its resident graphs alive, releases the
//!    admission slot, and folds the partial stats into the tenant ledger so
//!    the pool + registry ≡ engines conservation identity still holds.
//! 2. **Observer-only telemetry** — running the same query sequence with a
//!    lane-timeline collector attached produces identical values and
//!    bit-identical `ExecStats` (exact f64 energy) at 1–3 workers.
//! 3. **Metrics ≡ owners** — the snapshot's query, mutation and graph
//!    counters are read off the tenant ledger, its admission series off the
//!    admission controller and its cache series off the result cache, so
//!    after any mix they agree exactly with the service report and the cache
//!    counters; the latency histogram counts one span per completion, and
//!    the report's request columns are the fold of the tenant ledger.

use sisa_core::{ChromeTraceCollector, ExecStats, SharedCollector};
use sisa_graph::{generators, GraphDelta};
use sisa_service::{
    AdmissionConfig, QueryKind, QuerySpec, ServiceConfig, SisaService, TenantUsage,
};
use std::sync::{Arc, Mutex};

fn test_graph() -> sisa_graph::CsrGraph {
    generators::erdos_renyi(48, 0.18, 7)
}

/// Asserts that every *summable* counter of `parts`' fold equals `whole`
/// (makespan folds via `max`, not `+`, so it is excluded; energy is f64 and
/// checked to a tight relative tolerance).
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

#[test]
fn kernel_panics_fail_the_query_but_spare_the_worker_and_the_ledger() {
    let service = SisaService::start(ServiceConfig::smoke());
    service.register_graph("g", test_graph());
    let tc = QuerySpec::new("g", QueryKind::TriangleCount);

    let before = service
        .submit("t", tc.clone())
        .expect("admitted")
        .wait()
        .expect("completes");

    // `k_clique_count` asserts k >= 2. The wire protocol validates this, but
    // a directly-constructed spec bypasses it — the worker must contain the
    // panic instead of dying with its resident graphs.
    let err = service
        .submit("t", QuerySpec::new("g", QueryKind::KCliqueCount { k: 1 }))
        .expect("admission does not inspect k")
        .wait()
        .expect_err("the kernel panics");
    assert!(err.contains("query panicked"), "{err}");
    assert!(err.contains("k-cliques need k >= 2"), "{err}");

    // The worker survived: the same graph answers again, without reloading.
    let after = service
        .submit("t", tc)
        .expect("admitted")
        .wait()
        .expect("worker is still alive");
    assert_eq!(before.value, after.value);
    let report = service.report();
    assert_eq!(report.failed, 1);
    assert_eq!(report.completed, 2);
    assert_eq!(report.in_flight, 0, "the panicked slot was released");
    assert_eq!(report.graph_loads, 1, "resident graphs survived the panic");
    assert_eq!(service.tenant_usage()["t"].failed, 1);

    // Conservation: everything the engines spent — including whatever the
    // panicked execution touched — is attributed to exactly one ledger.
    let mut attributed = service.pool_stats();
    attributed.merge(&service.registry_stats());
    assert_conserved(&service.engine_stats(), &attributed);

    let snapshot = service.metrics_snapshot();
    assert_eq!(snapshot.counters["sisa_queries_panicked_total"], 1);
    assert_eq!(snapshot.counters["sisa_queries_failed_total"], 1);

    // Round the mix out — a failed query, a mutation, and two identical
    // queries queued behind a slower one, which coalesce when popped (or the
    // second hits the cache) — then read the report as a fold of the ledger.
    let ghost = QuerySpec::new("no-such-graph", QueryKind::TriangleCount);
    let failed = service.submit("u", ghost).expect("admitted").wait();
    assert!(failed.is_err());
    let delta = GraphDelta::new().insert(0, 1);
    let mutate = QuerySpec::new("g", QueryKind::Mutate(delta));
    let mutated = service.submit("u", mutate).expect("admitted").wait();
    mutated.expect("applies");
    let slow = QuerySpec::new("g", QueryKind::KCliqueCount { k: 4 });
    let twin = QuerySpec::new("g", QueryKind::StarCount { k: 2 });
    let handles = [("u", slow), ("u", twin.clone()), ("v", twin)]
        .map(|(tenant, spec)| service.submit(tenant, spec).expect("admitted"));
    for handle in handles {
        handle.wait().expect("completes");
    }
    let report = service.report();
    let usage = service.tenant_usage();
    let fold = |column: fn(&TenantUsage) -> u64| usage.values().map(column).sum::<u64>();
    assert_eq!(report.completed, fold(|u| u.queries + u.mutations));
    assert_eq!(report.mutations, fold(|u| u.mutations));
    assert_eq!(report.coalesced, fold(|u| u.coalesced));
    assert_eq!(report.cache_hits, fold(|u| u.cache_hits));
    assert_eq!(report.failed, fold(|u| u.failed));
    assert_eq!(
        (report.completed, report.mutations, report.failed),
        (6, 1, 2)
    );
    // The repeated triangle count hit, and the twins shared one run.
    assert_eq!(report.coalesced + report.cache_hits, 2);
    service.close();
}

/// What one `run_sequence` pass observed: the query values, the pool /
/// registry / engine stat aggregates, and the trace when a collector was
/// attached.
struct SequenceRun {
    values: Vec<u64>,
    pool: ExecStats,
    registry: ExecStats,
    engines: ExecStats,
    trace: Option<Arc<Mutex<ChromeTraceCollector>>>,
}

/// Runs a fixed sequential query mix, with or without a lane collector.
fn run_sequence(workers: usize, with_collector: bool) -> SequenceRun {
    let mut cfg = ServiceConfig::smoke();
    cfg.workers = workers;
    let trace = with_collector.then(|| Arc::new(Mutex::new(ChromeTraceCollector::new())));
    if let Some(trace) = &trace {
        cfg.collector = Some(SharedCollector::from_arc(trace.clone()));
    }
    let service = SisaService::start(cfg);
    service.register_graph("a", test_graph());
    service.register_graph("b", generators::erdos_renyi(40, 0.2, 11));
    let mix = [
        QuerySpec::new("a", QueryKind::TriangleCount),
        QuerySpec::new("a", QueryKind::KCliqueCount { k: 3 }),
        QuerySpec::new("b", QueryKind::StarCount { k: 2 }),
        QuerySpec::new("b", QueryKind::TriangleCount).with_budget(10),
        QuerySpec::new("a", QueryKind::TriangleCount),
    ];
    // Sequential submission: deterministic execution order per worker.
    let values = mix
        .into_iter()
        .map(|spec| {
            service
                .submit("t", spec)
                .expect("admitted")
                .wait()
                .expect("completes")
                .value
        })
        .collect();
    let pool = service.pool_stats();
    let registry = service.registry_stats();
    let engines = service.engine_stats();
    service.close();
    SequenceRun {
        values,
        pool,
        registry,
        engines,
        trace,
    }
}

#[test]
fn attaching_a_collector_is_invisible_to_results_and_stats_at_any_pool_size() {
    for workers in 1..=3 {
        let base = run_sequence(workers, false);
        let traced = run_sequence(workers, true);
        assert_eq!(
            base.values, traced.values,
            "{workers} workers: same answers"
        );
        assert_eq!(
            base.pool, traced.pool,
            "{workers} workers: pool stats bit-exact"
        );
        assert_eq!(
            base.pool.energy_nj.to_bits(),
            traced.pool.energy_nj.to_bits(),
            "energy is bit-exact, not merely close"
        );
        assert_eq!(
            base.registry, traced.registry,
            "{workers} workers: registry"
        );
        assert_eq!(base.engines, traced.engines, "{workers} workers: engines");

        // And the collector really observed the pool working.
        let trace = traced.trace.expect("collector run");
        let trace = trace.lock().unwrap();
        assert!(
            !trace.instruction_events().is_empty(),
            "the pool's lane timeline was recorded"
        );
        let render = trace.render();
        assert!(render.contains("\"traceEvents\""), "Perfetto-loadable JSON");
    }
}

#[test]
fn metrics_counters_agree_with_the_service_ledger() {
    let service = SisaService::start(ServiceConfig::smoke());
    service.register_graph("g", test_graph());
    for _ in 0..3 {
        service
            .submit("t", QuerySpec::new("g", QueryKind::TriangleCount))
            .expect("admitted")
            .wait()
            .expect("completes");
    }
    let report = service.report();
    let snapshot = service.metrics_snapshot();
    assert_eq!(
        snapshot.counters["sisa_queries_completed_total"],
        report.completed
    );
    assert_eq!(snapshot.counters["sisa_queries_submitted_total"], 3);
    assert_eq!(
        snapshot.counters["sisa_graph_loads_total"],
        report.graph_loads
    );
    let latency = &snapshot.histograms["sisa_query_latency_ns"];
    assert_eq!(latency.count, report.completed, "one span per completion");
    assert!(latency.p50 > 0 && latency.p99 >= latency.p50);
    assert_eq!(snapshot.gauges["sisa_admission_in_flight"], 0);
    let text = snapshot.to_prometheus();
    assert!(text.contains("sisa_queries_completed_total 3"), "{text}");
    assert!(text.contains("sisa_query_latency_ns_bucket"), "{text}");
    service.close();
}

/// Every series with an owner equals that owner after a run that hits,
/// misses, coalesces (when the twins meet in the queue), rejects, fails,
/// mutates and evicts, and is present exactly when it is non-zero.
#[test]
fn every_derived_series_equals_its_owner_after_a_mixed_run() {
    let mut cfg = ServiceConfig::smoke();
    cfg.workers = 1;
    cfg.cache_entries = 1;
    cfg.admission = AdmissionConfig {
        queue_capacity: 4,
        per_tenant_inflight: 4,
        retry_after_ms: 5,
    };
    let service = SisaService::start(cfg);
    service.register_graph("g", test_graph());
    service.register_graph("h", generators::erdos_renyi(40, 0.2, 11));
    let run =
        |tenant: &str, spec: QuerySpec| service.submit(tenant, spec).expect("admitted").wait();

    let tc = QuerySpec::new("g", QueryKind::TriangleCount);
    run("t", tc.clone()).expect("a miss");
    assert!(run("t", tc).expect("a hit").stats.cache_hit);
    // The only cache slot goes to this result, evicting the triangle count.
    run("t", QuerySpec::new("g", QueryKind::KCliqueCount { k: 3 })).expect("a miss");
    run("u", QuerySpec::new("nope", QueryKind::TriangleCount)).expect_err("unknown graph");
    let delta = GraphDelta::new().insert(0, 1);
    run("u", QuerySpec::new("g", QueryKind::Mutate(delta))).expect("applies");
    run("u", QuerySpec::new("h", QueryKind::StarCount { k: 2 })).expect("loads h");
    assert!(service.evict_graph("h"));

    // A burst beyond the queue capacity: some are rejected, and the twins
    // of a slow query may coalesce.
    let slow = QuerySpec::new("g", QueryKind::KCliqueCount { k: 4 });
    let twin = QuerySpec::new("g", QueryKind::StarCount { k: 2 });
    let mut handles = Vec::new();
    let mut rejected = 0;
    for i in 0..64 {
        let spec = if i == 0 { slow.clone() } else { twin.clone() };
        match service.submit(&format!("b{}", i % 3), spec) {
            Ok(handle) => handles.push(handle),
            Err(_) => rejected += 1,
        }
    }
    assert!(rejected > 0, "a 64-query burst overflows capacity 4");
    for handle in handles {
        handle.wait().expect("accepted queries complete");
    }
    // Barrier: every worker has processed the eviction queued above.
    let _ = service.engine_stats();

    let report = service.report();
    let cache = service.cache_counters();
    let snapshot = service.metrics_snapshot();
    assert_eq!(
        (report.mutations, report.graph_loads, report.evictions),
        (1, 3, 2)
    );
    assert!(report.failed >= 1 && report.cache_hits >= 1);
    assert!(cache.misses >= 2 && cache.evictions >= 1);
    for (name, owner) in [
        ("sisa_queries_completed_total", report.completed),
        ("sisa_queries_coalesced_total", report.coalesced),
        ("sisa_queries_failed_total", report.failed),
        ("sisa_mutations_total", report.mutations),
        ("sisa_graph_loads_total", report.graph_loads),
        ("sisa_graph_evictions_total", report.evictions),
        ("sisa_admission_rejected_total", report.rejected),
        ("sisa_cache_hits_total", cache.hits),
        ("sisa_cache_misses_total", cache.misses),
        ("sisa_cache_evictions_total", cache.evictions),
    ] {
        assert_eq!(
            snapshot.counters.get(name).copied(),
            (owner > 0).then_some(owner),
            "{name}"
        );
    }
    assert_eq!(report.rejected, rejected);
    let ratio = cache.hits * 1000 / (cache.hits + cache.misses);
    assert_eq!(
        snapshot.gauges["sisa_cache_hit_ratio_permille"],
        ratio as i64
    );
    assert_eq!(snapshot.gauges["sisa_admission_in_flight"], 0);
    assert!(
        !snapshot.gauges.keys().any(|name| name.contains("tenant=")),
        "{snapshot:?}"
    );
    let latency = &snapshot.histograms["sisa_query_latency_ns"];
    assert_eq!(latency.count, report.completed, "one span per completion");
    service.close();
}
