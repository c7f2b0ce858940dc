//! Regression tests for the pipelined TCP transport: several queries issued
//! back-to-back on ONE connection execute concurrently, every frame echoes
//! its request `id`, per-id frame sequences stay well-formed (progress* then
//! exactly one terminal), and `metrics` requests are answered inline while
//! queries are still draining.

use sisa_graph::generators;
use sisa_service::{Frame, QueryKind, QuerySpec, Request, ServiceConfig, SisaService, TcpServer};
use std::collections::BTreeMap;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

fn test_graph() -> sisa_graph::CsrGraph {
    generators::erdos_renyi(48, 0.18, 7)
}

/// Reads frames until every id in `want` has received its terminal frame;
/// returns the frames grouped by id, in arrival order.
fn collect_terminals(
    lines: &mut std::io::Lines<BufReader<TcpStream>>,
    want: &[u64],
) -> BTreeMap<u64, Vec<Frame>> {
    let mut by_id: BTreeMap<u64, Vec<Frame>> = BTreeMap::new();
    let mut pending: Vec<u64> = want.to_vec();
    while !pending.is_empty() {
        let line = lines.next().expect("stream stays open").expect("read");
        let frame: Frame = serde_json::from_str(&line).expect("frame json");
        assert!(
            want.contains(&frame.id),
            "frame for unexpected id {}: {frame:?}",
            frame.id
        );
        if frame.is_terminal() {
            pending.retain(|&id| id != frame.id);
        }
        by_id.entry(frame.id).or_default().push(frame);
    }
    by_id
}

#[test]
fn interleaved_queries_on_one_connection_keep_ids_and_sequences_straight() {
    let mut cfg = ServiceConfig::smoke();
    cfg.progress_window_ops = 16; // long tc => many interleavable progress frames
    cfg.cache_entries = 0; // cache off: the in-process oracles below would
                           // otherwise turn the wire queries into hits, and
                           // this test is about *execution* frame sequences
    let service = SisaService::start(cfg);
    service.register_graph("g", test_graph());
    service.register_graph("h", generators::erdos_renyi(40, 0.2, 11));

    // In-process oracles for every query the wire will carry.
    let oracle = |spec: QuerySpec| {
        service
            .submit("oracle", spec)
            .expect("admitted")
            .wait()
            .expect("completes")
            .value
    };
    let tc_g = oracle(QuerySpec::new("g", QueryKind::TriangleCount));
    let kc_g = oracle(QuerySpec::new("g", QueryKind::KCliqueCount { k: 3 }));
    let star_h = oracle(QuerySpec::new("h", QueryKind::StarCount { k: 2 }));

    let server = TcpServer::serve(service.client(), "127.0.0.1:0").expect("bind");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut lines = BufReader::new(stream).lines();

    // First wave: three queries plus a metrics probe, written back-to-back
    // without reading a single response — the transport must pipeline them.
    let send = |writer: &mut TcpStream, line: &str| {
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
    };
    let req = |id, tenant: &str, spec: &QuerySpec| {
        serde_json::to_string(&Request::from_spec(id, tenant, spec)).unwrap()
    };
    send(
        &mut writer,
        &req(1, "net", &QuerySpec::new("g", QueryKind::TriangleCount)),
    );
    send(
        &mut writer,
        &req(
            2,
            "net",
            &QuerySpec::new("g", QueryKind::KCliqueCount { k: 3 }),
        ),
    );
    send(
        &mut writer,
        &req(
            3,
            "net",
            &QuerySpec::new("h", QueryKind::StarCount { k: 2 }),
        ),
    );
    send(&mut writer, r#"{"id": 4, "query": "metrics"}"#);

    let by_id = collect_terminals(&mut lines, &[1, 2, 3, 4]);

    // Per-id sequences: zero or more progress frames, then one terminal,
    // nothing after it.
    for (id, frames) in &by_id {
        let (last, body) = frames.split_last().expect("at least the terminal");
        assert!(last.is_terminal(), "id {id} ends in a terminal frame");
        for frame in body {
            assert_eq!(frame.frame, "progress", "id {id}: only progress precedes");
        }
    }
    let terminal = |id: u64| by_id[&id].last().unwrap().clone();
    let r1 = terminal(1);
    assert_eq!(r1.frame, "result");
    assert_eq!(r1.value, Some(tc_g));
    assert!(
        by_id[&1].len() > 1,
        "windowed tc streams progress frames on the wire"
    );
    assert!(r1.span_ns.unwrap() >= r1.execute_ns.unwrap());
    let r2 = terminal(2);
    assert_eq!(r2.frame, "result");
    assert_eq!(r2.value, Some(kc_g));
    let r3 = terminal(3);
    assert_eq!(r3.frame, "result");
    assert_eq!(r3.value, Some(star_h));

    // The metrics probe was answered inline with a snapshot frame.
    let m = terminal(4);
    assert_eq!(m.frame, "metrics");
    let snapshot = m.metrics.expect("snapshot payload");
    assert!(
        snapshot.counters["sisa_queries_submitted_total"] >= 3,
        "{snapshot:?}"
    );
    assert!(m.metrics_text.unwrap().contains("# TYPE"));

    // Second wave on the same connection: it stays fully usable, including
    // an interleaved malformed line (answered with correlation id 0).
    send(
        &mut writer,
        &req(5, "net", &QuerySpec::new("g", QueryKind::TriangleCount)),
    );
    send(&mut writer, "this is not json");
    let by_id = collect_terminals(&mut lines, &[5, 0]);
    assert_eq!(by_id[&5].last().unwrap().value, Some(tc_g));
    assert_eq!(by_id[&0].last().unwrap().frame, "error");

    drop(writer);
    drop(lines);
    server.stop();
    service.close();
}

/// A line nested 9 000 arrays deep used to overflow the connection thread's
/// stack and abort the service, and a `star` query with `k` = 10⁸ or 2³²
/// sized a pattern of gigabytes on a worker. Each now gets an `error` frame,
/// and the same connection then gets a `metrics` answer.
#[test]
fn hostile_lines_get_error_frames_and_the_service_answers_metrics_after() {
    let service = SisaService::start(ServiceConfig::smoke());
    service.register_graph("g", test_graph());
    let server = TcpServer::serve(service.client(), "127.0.0.1:0").expect("bind");
    let stream = TcpStream::connect(server.addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut lines = BufReader::new(stream).lines();

    let star = |id: u64, k: u64| {
        format!(r#"{{"id": {id}, "tenant": "t", "graph": "g", "query": "star", "k": {k}}}"#)
    };
    for line in [
        "[".repeat(9_000),
        star(7, 100_000_000),
        star(8, 1 << 32),
        r#"{"id": 9, "query": "metrics"}"#.to_string(),
    ] {
        writer.write_all(line.as_bytes()).expect("write");
        writer.write_all(b"\n").expect("write");
    }
    let mut frame = || -> Frame {
        let line = lines.next().expect("stream stays open").expect("read");
        serde_json::from_str(&line).expect("frame json")
    };
    for id in [0, 7, 8] {
        let error = frame();
        assert_eq!((error.id, error.frame.as_str()), (id, "error"), "{error:?}");
    }
    let metrics = frame();
    assert_eq!((metrics.id, metrics.frame.as_str()), (9, "metrics"));
    let snapshot = metrics.metrics.expect("snapshot payload");
    assert_eq!(snapshot.gauges["sisa_admission_in_flight"], 0);

    drop(writer);
    server.stop();
    service.close();
}
