//! Deterministic end-to-end tests of the multi-tenant service:
//! load-once/share-many registry semantics, explicit backpressure, clean
//! failure paths, exact stats attribution, and the TCP transport.

use sisa_core::ExecStats;
use sisa_graph::{generators, GraphBuilder};
use sisa_service::tcp::MAX_LINE_BYTES;
use sisa_service::{
    AdmissionConfig, Frame, QueryEvent, QueryKind, QuerySpec, Request, ServiceConfig, SisaService,
    TcpServer,
};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

/// A small deterministic graph with a healthy triangle population.
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
    assert_eq!(whole.dep_stall_cycles, parts.dep_stall_cycles, "dep_stalls");
    assert_eq!(whole.pum_ops, parts.pum_ops, "pum_ops");
    assert_eq!(whole.pnm_ops, parts.pnm_ops, "pnm_ops");
    assert_eq!(whole.merge_selected, parts.merge_selected, "merge_selected");
    assert_eq!(whole.gallop_selected, parts.gallop_selected, "gallop");
    assert_eq!(whole.smb_hits, parts.smb_hits, "smb_hits");
    assert_eq!(whole.smb_misses, parts.smb_misses, "smb_misses");
    assert_eq!(whole.instructions, parts.instructions, "instruction mix");
    let energy_err = (whole.energy_nj - parts.energy_nj).abs();
    assert!(
        energy_err <= 1e-9 * whole.energy_nj.abs().max(1.0),
        "energy drifted: {} vs {}",
        whole.energy_nj,
        parts.energy_nj
    );
}

/// The two exact-attribution identities of a drained service.
fn assert_exact_attribution(service: &SisaService) {
    // Identity 1: the tenant records fold bit-exactly (energy included) to
    // the pool aggregate — it is defined as that fold.
    let usage = service.tenant_usage();
    let mut folded = ExecStats::default();
    for tenant in usage.values() {
        folded.merge(&tenant.stats);
    }
    let pool = service.pool_stats();
    assert_eq!(folded, pool, "tenant fold == pool aggregate, bit-exact");
    assert_eq!(
        folded.energy_nj.to_bits(),
        pool.energy_nj.to_bits(),
        "energy is bit-exact, not merely close"
    );

    // Identity 2: pool + registry overhead telescopes to the raw engine
    // counters — every engine cycle accrued inside exactly one StatsScope.
    let mut attributed = pool;
    attributed.merge(&service.registry_stats());
    assert_conserved(&service.engine_stats(), &attributed);
}

#[test]
fn second_query_on_a_registered_graph_charges_zero_load_cycles() {
    let service = SisaService::start(ServiceConfig::smoke());
    service.register_graph("shared", test_graph());

    let first = service
        .submit("alice", QuerySpec::new("shared", QueryKind::TriangleCount))
        .expect("admitted")
        .wait()
        .expect("completes");
    let loads_after_first = service.report().graph_loads;
    let registry_after_first = service.registry_stats();
    assert_eq!(loads_after_first, 1, "first query loads the graph once");
    assert!(registry_after_first.total_cycles() > 0, "loads are billed");

    let second = service
        .submit("bob", QuerySpec::new("shared", QueryKind::TriangleCount))
        .expect("admitted")
        .wait()
        .expect("completes");

    assert_eq!(first.value, second.value, "shared graph, same answer");
    assert_eq!(service.report().graph_loads, 1, "no reload");
    assert_eq!(
        service.registry_stats(),
        registry_after_first,
        "second query charged zero additional load cycles (bit-exact)"
    );
    assert_eq!(service.registry().generations(), 1, "one materialisation");
    service.close();
}

#[test]
fn eviction_releases_residency_and_reload_is_billed_again() {
    let service = SisaService::start(ServiceConfig::smoke());
    service.register_graph("g", test_graph());
    let spec = QuerySpec::new("g", QueryKind::KCliqueCount { k: 3 });

    let before = service.submit("t", spec.clone()).unwrap().wait().unwrap();
    assert!(service.evict_graph("g"), "graph was registered");
    // The registry no longer holds the name, so the next query must fail...
    let err = service
        .submit("t", spec.clone())
        .unwrap()
        .wait()
        .unwrap_err();
    assert!(err.contains("unknown graph"), "{err}");
    // ...until it is registered again, which re-loads (and re-bills).
    service.register_graph("g", test_graph());
    let after = service.submit("t", spec).unwrap().wait().unwrap();
    assert_eq!(before.value, after.value, "same graph, same count");
    let report = service.report();
    assert_eq!(report.graph_loads, 2, "evict + requery reloads");
    assert!(report.evictions >= 1, "eviction was processed");
    assert_eq!(report.failed, 1);
    service.close();
}

#[test]
fn per_tenant_stats_sum_exactly_to_pool_and_telescope_to_engines() {
    let service = SisaService::start(ServiceConfig::smoke());
    service.register_graph("a", test_graph());
    service.register_graph("b", generators::erdos_renyi(40, 0.2, 11));

    let mix = [
        ("alice", QuerySpec::new("a", QueryKind::TriangleCount)),
        ("bob", QuerySpec::new("a", QueryKind::KCliqueCount { k: 3 })),
        ("carol", QuerySpec::new("b", QueryKind::TriangleCount)),
        ("alice", QuerySpec::new("b", QueryKind::StarCount { k: 2 })),
        (
            "bob",
            QuerySpec::new("a", QueryKind::TriangleCount).with_budget(10),
        ),
    ];
    let handles: Vec<_> = mix
        .iter()
        .map(|(tenant, spec)| service.submit(tenant, spec.clone()).expect("admitted"))
        .collect();
    for handle in handles {
        handle.wait().expect("completes");
    }

    assert_exact_attribution(&service);
    service.close();
}

#[test]
fn overload_rejects_with_retry_hints_and_every_accepted_query_completes() {
    let mut cfg = ServiceConfig::smoke();
    cfg.workers = 1;
    cfg.admission = AdmissionConfig {
        queue_capacity: 4,
        per_tenant_inflight: 2,
        retry_after_ms: 5,
    };
    let service = SisaService::start(cfg);
    service.register_graph("g", test_graph());

    let mut handles = Vec::new();
    let mut rejected = 0u64;
    for i in 0..40 {
        let tenant = format!("tenant-{}", i % 8);
        // Distinct budgets: no query is a cache hit or coalesces with another,
        // so each holds its admission slot until the worker answers it.
        let spec = QuerySpec::new("g", QueryKind::TriangleCount).with_budget(1 + i);
        match service.submit(&tenant, spec) {
            Ok(handle) => handles.push(handle),
            Err(rejection) => {
                assert!(rejection.retry_after_ms >= 5, "{rejection:?}");
                rejected += 1;
            }
        }
    }
    assert!(rejected > 0, "a 40-query burst must overflow capacity 4");
    let accepted = handles.len() as u64;
    for handle in handles {
        handle.wait().expect("accepted queries complete");
    }
    let report = service.report();
    assert_eq!(report.completed, accepted, "no accepted query was dropped");
    assert_eq!(report.rejected, rejected);
    assert_eq!(report.in_flight, 0, "all admission slots released");
    assert_eq!(accepted + rejected, 40);

    // The queue drained, so admission accepts again: backpressure is
    // load-shedding, not a latched failure state.
    service
        .submit("tenant-0", QuerySpec::new("g", QueryKind::TriangleCount))
        .expect("service recovered")
        .wait()
        .expect("completes");
    service.close();
}

#[test]
fn unknown_graphs_fail_cleanly_and_release_their_slots() {
    let service = SisaService::start(ServiceConfig::smoke());
    let err = service
        .submit(
            "t",
            QuerySpec::new("no-such-graph", QueryKind::TriangleCount),
        )
        .expect("admission does not resolve names")
        .wait()
        .unwrap_err();
    assert!(err.contains("unknown graph"), "{err}");
    let report = service.report();
    assert_eq!(report.failed, 1);
    assert_eq!(report.in_flight, 0, "failure released the slot");
    assert_eq!(service.tenant_usage()["t"].failed, 1);
    service.close();
}

#[test]
fn batched_triangle_count_streams_progress_and_matches_terminal_value() {
    let mut cfg = ServiceConfig::smoke();
    cfg.progress_window_ops = 16; // small windows => several progress events
    let service = SisaService::start(cfg);
    service.register_graph("g", test_graph());
    let handle = service
        .submit("t", QuerySpec::new("g", QueryKind::TriangleCount))
        .unwrap();
    let mut progress_events = 0u32;
    let mut last_partial = 0u64;
    let outcome = loop {
        match handle.next_event().expect("stream stays open") {
            QueryEvent::Progress {
                done_ops,
                total_ops,
                partial,
            } => {
                assert!(done_ops <= total_ops);
                assert!(partial >= last_partial, "partial count is monotone");
                last_partial = partial;
                progress_events += 1;
            }
            QueryEvent::Done(outcome) => break outcome,
            QueryEvent::Failed(error) => panic!("query failed: {error}"),
        }
    };
    assert!(progress_events > 1, "windowed execution streams progress");
    assert_eq!(outcome.value, last_partial, "final partial == result");
    service.close();
}

#[test]
fn tcp_transport_round_trips_queries_rejections_and_malformed_lines() {
    let service = SisaService::start(ServiceConfig::smoke());
    service.register_graph("g", test_graph());
    // Oracle over the in-process path.
    let expected = service
        .submit("oracle", QuerySpec::new("g", QueryKind::TriangleCount))
        .unwrap()
        .wait()
        .unwrap()
        .value;

    let server = TcpServer::serve(service.client(), "127.0.0.1:0").expect("bind");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut lines = BufReader::new(stream).lines();
    let mut ask = |line: &[u8]| -> Frame {
        writer.write_all(line).expect("write");
        writer.write_all(b"\n").expect("write");
        loop {
            let line = lines.next().expect("frame").expect("read");
            let frame: Frame = serde_json::from_str(&line).expect("frame json");
            if frame.is_terminal() {
                return frame;
            }
            assert_eq!(frame.frame, "progress");
        }
    };

    let spec = QuerySpec::new("g", QueryKind::TriangleCount);
    let tc = |id| serde_json::to_string(&Request::from_spec(id, "net", &spec)).unwrap();
    let result = ask(tc(7).as_bytes());
    assert_eq!(result.frame, "result");
    assert_eq!(result.id, 7);
    assert_eq!(result.value, Some(expected));
    assert_eq!(result.coalesced, Some(false));
    assert!(result.simulated_cycles.unwrap() > 0);

    let bad = ask(b"this is not json");
    assert_eq!(bad.frame, "error");
    assert_eq!(bad.id, 0, "unparseable lines get correlation id 0");

    let bad_spec = ask(br#"{"id": 8, "tenant": "net", "graph": "g", "query": "kclique"}"#);
    assert_eq!(bad_spec.frame, "error");
    assert_eq!(bad_spec.id, 8);

    let unknown = ask(br#"{"id": 9, "tenant": "net", "graph": "missing", "query": "tc"}"#);
    assert_eq!(unknown.frame, "error");
    assert!(unknown.error.unwrap().contains("unknown graph"));

    // A line that is not UTF-8 is one more malformed line: an error frame,
    // and the connection keeps serving.
    let not_utf8 = ask(b"{\"id\": 10, \"tenant\": \"n\xffet\"}");
    assert_eq!(not_utf8.frame, "error");
    assert_eq!(not_utf8.id, 0);
    assert!(not_utf8.error.unwrap().contains("UTF-8"));
    let after = ask(tc(11).as_bytes());
    assert_eq!((after.frame.as_str(), after.id), ("result", 11));
    assert_eq!(after.value, Some(expected));

    // A line over the cap (MAX_LINE_BYTES of it before the `\n`) gets an
    // error frame, and then the connection closes.
    let too_long = ask(&vec![b' '; MAX_LINE_BYTES]);
    assert_eq!(too_long.frame, "error");
    assert!(too_long.error.unwrap().contains("longer than"));
    assert!(
        !matches!(lines.next(), Some(Ok(_))),
        "no frame follows the over-long line"
    );

    drop(writer);
    drop(lines);
    server.stop();
    service.close();
}

#[test]
fn concurrent_tcp_connections_each_match_the_in_process_oracle() {
    const CLIENTS: usize = 8;
    const QUERIES_PER_CLIENT: usize = 6;
    let service = SisaService::start(ServiceConfig::smoke());
    service.register_graph("g", test_graph());
    let mix = [
        QueryKind::TriangleCount,
        QueryKind::KCliqueCount { k: 3 },
        QueryKind::StarCount { k: 2 },
    ];
    let expected: Vec<u64> = mix
        .iter()
        .map(|kind| {
            service
                .submit("oracle", QuerySpec::new("g", kind.clone()))
                .expect("admitted")
                .wait()
                .expect("completes")
                .value
        })
        .collect();

    let server = TcpServer::serve(service.client(), "127.0.0.1:0").expect("bind");
    let addr = server.addr();
    std::thread::scope(|scope| {
        let (mix, expected) = (&mix, &expected);
        for c in 0..CLIENTS {
            scope.spawn(move || {
                let stream = TcpStream::connect(addr).expect("connect");
                let mut writer = stream.try_clone().expect("clone");
                let mut lines = BufReader::new(stream).lines();
                for q in 0..QUERIES_PER_CLIENT {
                    let kind = (c + q) % mix.len();
                    let id = (c * QUERIES_PER_CLIENT + q) as u64;
                    let spec = QuerySpec::new("g", mix[kind].clone());
                    let request = Request::from_spec(id, &format!("tcp-{c}"), &spec);
                    let mut line = serde_json::to_string(&request).expect("request json");
                    line.push('\n');
                    writer.write_all(line.as_bytes()).expect("write");
                    let terminal = loop {
                        let line = lines.next().expect("frame").expect("read");
                        let frame: Frame = serde_json::from_str(&line).expect("frame json");
                        assert_eq!(frame.id, id, "a connection only sees its own frames");
                        if frame.is_terminal() {
                            break frame;
                        }
                    };
                    assert_eq!(terminal.frame, "result", "{terminal:?}");
                    assert_eq!(terminal.value, Some(expected[kind]));
                }
            });
        }
    });

    let report = service.report();
    assert_eq!(report.graph_loads, 1, "every connection shared one load");
    assert_eq!(
        report.completed,
        (CLIENTS * QUERIES_PER_CLIENT + mix.len()) as u64
    );
    assert_exact_attribution(&service);
    server.stop();
    service.close();
}

#[test]
fn registered_graphs_shadow_datasets_and_custom_names_are_isolated() {
    let service = SisaService::start(ServiceConfig::smoke());
    // Two different graphs under two names: answers must not bleed.
    let mut path = GraphBuilder::new(4);
    for (u, v) in [(0, 1), (1, 2), (2, 3)] {
        path.add_edge(u, v);
    }
    let mut clique = GraphBuilder::new(4);
    for u in 0..4u32 {
        for v in (u + 1)..4 {
            clique.add_edge(u, v);
        }
    }
    service.register_graph("path", path.build());
    service.register_graph("clique", clique.build());
    let tc = |name: &str| {
        service
            .submit("t", QuerySpec::new(name, QueryKind::TriangleCount))
            .unwrap()
            .wait()
            .unwrap()
            .value
    };
    assert_eq!(tc("path"), 0);
    assert_eq!(tc("clique"), 4, "K4 has 4 triangles");
    service.close();
}

#[test]
fn close_fails_every_queued_query_and_refuses_a_client_kept_past_it() {
    let mut cfg = ServiceConfig::smoke();
    cfg.workers = 1;
    let service = SisaService::start(cfg);
    // One worker and one tenant: the queue is FIFO behind a slow first
    // query, so `close` finds the later ones still queued.
    service.register_graph("g", generators::erdos_renyi(160, 0.3, 5));
    let client = service.client();
    let slow = QuerySpec::new("g", QueryKind::KCliqueCount { k: 5 });
    let handles: Vec<_> = std::iter::once(slow)
        .chain((0..8).map(|i| QuerySpec::new("g", QueryKind::TriangleCount).with_budget(10 + i)))
        .map(|spec| client.submit("t", spec).expect("admitted"))
        .collect();
    service.close();

    let outcomes: Vec<_> = handles.into_iter().map(|h| h.wait()).collect();
    let ran = outcomes
        .iter()
        .take_while(|outcome| outcome.is_ok())
        .count();
    assert!(ran < outcomes.len(), "the last query was still queued");
    for outcome in &outcomes[ran..] {
        assert_eq!(outcome.as_ref().unwrap_err(), "service shut down");
    }
    let in_flight = |client: &sisa_service::ServiceClient| {
        client.metrics_snapshot().gauges["sisa_admission_in_flight"]
    };
    assert_eq!(in_flight(&client), 0, "every queued slot is released");
    // Each query failed at shutdown is a failure on the ledger, so every
    // admitted query is either completed or failed.
    let counters = client.metrics_snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    let shut_down = (outcomes.len() - ran) as u64;
    assert_eq!(counter("sisa_queries_failed_total"), shut_down);
    assert_eq!(
        counter("sisa_queries_submitted_total"),
        counter("sisa_queries_completed_total") + counter("sisa_queries_failed_total")
    );
    let rejected = counter("sisa_admission_rejected_total");

    let unseen = QuerySpec::new("g", QueryKind::KCliqueCount { k: 4 });
    let Err(refused) = client.submit("t", unseen) else {
        panic!("a client kept past close is refused");
    };
    assert_eq!(refused.reason, "service is shutting down");
    assert_eq!(in_flight(&client), 0, "the refused query's slot too");
    // The refusal is a rejection, not a submission left unaccounted for.
    let counters = client.metrics_snapshot().counters;
    let counter = |name: &str| counters.get(name).copied().unwrap_or(0);
    assert_eq!(
        counter("sisa_queries_submitted_total"),
        counter("sisa_queries_completed_total") + counter("sisa_queries_failed_total")
    );
    assert_eq!(counter("sisa_admission_rejected_total"), rejected + 1);
}
