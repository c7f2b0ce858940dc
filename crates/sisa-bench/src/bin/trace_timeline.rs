//! Lane-timeline capture: Perfetto-loadable Chrome traces of tc and kcc-4
//! on soc-fbMsg, plus a sharded run with link-transfer tracks.
//!
//! The telemetry layer's headline contract is *makespan fidelity*: the
//! Chrome trace's recorded event span (the maximum retire cycle over every
//! instruction event) equals `ExecStats::makespan_cycles` exactly, so the
//! rendered timeline is not an illustration of the schedule — it *is* the
//! schedule. This harness asserts that identity on a real dataset for both
//! workloads on an in-order flat runtime of depth 8, and again on a
//! 2-shard engine where it additionally checks that every priced link
//! crossing appears on the timeline (traced transfer bytes ≡
//! `ExecStats::link_bytes`).
//!
//! Emits `results/trace_timeline.json` (schema in
//! [`sisa_bench::TraceTimeline`]) next to the `.trace.json` files that
//! <https://ui.perfetto.dev> loads unmodified. Flags: `--check` re-validates
//! existing artifacts without re-capturing; `--full` raises the search
//! budget to paper size.

use serde::Content;
use sisa_algorithms::{setcentric, SearchLimits};
use sisa_bench::{
    emit, format_table, full_mode, results_dir, TimelineLinks, TimelineSpan, TraceTimeline,
    TRACE_TIMELINE_SCHEMA_VERSION,
};
use sisa_core::telemetry::{ChromeTraceCollector, Collector, SharedCollector};
use sisa_core::{
    PartitionStrategy, SetEngine, SetGraphConfig, ShardedEngine, SisaConfig, SisaRuntime,
};
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::{Arc, Mutex};

const GRAPH: &str = "soc-fbMsg";
const LANES: usize = 16;
/// Issue-queue depth: deep enough that independent instructions overlap
/// across lanes and the timeline shows more than one track busy at once.
const DEPTH: usize = 8;
const SHARDS: usize = 2;

/// Captures one workload on a fresh pipelined flat runtime, recording into
/// `trace` under track group `group`, and asserts the makespan identity.
fn capture_flat(
    trace: &Arc<Mutex<ChromeTraceCollector>>,
    group: u32,
    workload: &str,
    g: &sisa_graph::CsrGraph,
    limits: &SearchLimits,
) -> TimelineSpan {
    let mut rt = SisaRuntime::new(SisaConfig::with_pipeline(DEPTH, LANES));
    let (oriented, _) = setcentric::orient_by_degeneracy(&mut rt, g, &SetGraphConfig::default());
    // The load/measure boundary restarts the pipeline clock at 0; attaching
    // here means the trace covers exactly the cycles the stats measure.
    rt.reset_stats();
    let sink: Arc<Mutex<dyn Collector + Send>> = Arc::clone(trace) as _;
    rt.attach_collector(SharedCollector::from_arc(sink), group);
    let result = match workload {
        "tc" => setcentric::triangle_count(&mut rt, &oriented, limits).result,
        "kcc-4" => setcentric::k_clique_count(&mut rt, &oriented, 4, limits).result,
        other => unreachable!("unknown workload {other}"),
    };
    let stats = rt.stats();
    let guard = trace.lock().expect("trace lock");
    let recorded = guard.recorded_makespan_for(group);
    assert_eq!(
        recorded, stats.makespan_cycles,
        "{workload}: the trace's event span must reproduce the makespan exactly"
    );
    let events: Vec<_> = guard
        .instruction_events()
        .iter()
        .filter(|e| e.group == group)
        .collect();
    let lanes_observed = events
        .iter()
        .filter_map(|e| e.lane)
        .collect::<BTreeSet<_>>()
        .len();
    TimelineSpan {
        workload: workload.to_string(),
        result,
        makespan_cycles: stats.makespan_cycles,
        recorded_makespan: recorded,
        instruction_events: events.len(),
        lanes_observed,
    }
}

/// Captures tc on a 2-shard engine so the timeline carries link tracks, and
/// asserts both the makespan identity and transfer-bytes conservation.
fn capture_sharded(
    trace: &Arc<Mutex<ChromeTraceCollector>>,
    g: &sisa_graph::CsrGraph,
    limits: &SearchLimits,
) -> TimelineLinks {
    let config = SisaConfig::with_pipeline(DEPTH, LANES);
    let mut engine = ShardedEngine::sisa(SHARDS, PartitionStrategy::Modulo, config);
    let (oriented, _) =
        setcentric::orient_by_degeneracy(&mut engine, g, &SetGraphConfig::default());
    engine.reset_stats();
    let sink: Arc<Mutex<dyn Collector + Send>> = Arc::clone(trace) as _;
    engine.attach_collector(SharedCollector::from_arc(sink), 0);
    let result = setcentric::triangle_count(&mut engine, &oriented, limits).result;
    let stats = engine.stats();
    let guard = trace.lock().expect("trace lock");
    let recorded = guard.recorded_makespan();
    assert_eq!(
        recorded, stats.makespan_cycles,
        "sharded: the event span over every shard track must equal the \
         aggregate makespan (which merges per-shard makespans as a max)"
    );
    let transfer_bytes: u64 = guard.transfer_events().iter().map(|e| e.bytes).sum();
    assert_eq!(
        transfer_bytes, stats.link_bytes,
        "every priced link crossing must appear on the timeline"
    );
    TimelineLinks {
        shards: SHARDS,
        workload: "tc".to_string(),
        result,
        makespan_cycles: stats.makespan_cycles,
        recorded_makespan: recorded,
        transfer_events: guard.transfer_events().len(),
        transfer_bytes,
        link_bytes: stats.link_bytes,
    }
}

/// Re-validates existing artifacts: the summary document against its schema
/// and every referenced Chrome trace as well-formed trace-event JSON.
fn check(dir: &Path) {
    let path = dir.join("trace_timeline.json");
    let text = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {}: {e}", path.display()));
    let doc: TraceTimeline = serde_json::from_str(&text)
        .unwrap_or_else(|e| panic!("{} does not parse: {e:?}", path.display()));
    doc.validate()
        .unwrap_or_else(|e| panic!("{} violates the schema: {e}", path.display()));
    for file in &doc.trace_files {
        let trace_path = dir.join(file);
        let text = std::fs::read_to_string(&trace_path)
            .unwrap_or_else(|e| panic!("cannot read {}: {e}", trace_path.display()));
        let value: Content = serde_json::from_str(&text)
            .unwrap_or_else(|e| panic!("{} is not JSON: {e:?}", trace_path.display()));
        match value.get("traceEvents") {
            Some(Content::Seq(events)) if !events.is_empty() => {}
            _ => panic!(
                "{} has no non-empty traceEvents array",
                trace_path.display()
            ),
        }
    }
    println!(
        "{} is a valid schema-v{} document ({} spans, {} link transfers, {} trace files).",
        path.display(),
        doc.schema_version,
        doc.spans.len(),
        doc.links.transfer_events,
        doc.trace_files.len()
    );
}

fn main() {
    let dir = results_dir();
    if std::env::args().any(|a| a == "--check") {
        check(&dir);
        return;
    }

    let full = full_mode();
    let limits = SearchLimits::patterns(if full { 200_000 } else { 20_000 });
    let g = sisa_graph::datasets::by_name(GRAPH)
        .expect("registered stand-in")
        .generate(1);

    // Flat runtime: both workloads share one trace, on separate track groups.
    let flat_trace = Arc::new(Mutex::new(ChromeTraceCollector::new()));
    let spans: Vec<TimelineSpan> = ["tc", "kcc-4"]
        .iter()
        .enumerate()
        .map(|(group, workload)| capture_flat(&flat_trace, group as u32, workload, &g, &limits))
        .collect();

    // Sharded engine: link tracks plus the cross-engine result check.
    let link_trace = Arc::new(Mutex::new(ChromeTraceCollector::new()));
    let links = capture_sharded(&link_trace, &g, &limits);

    let mut rows = Vec::new();
    for span in &spans {
        rows.push(vec![
            span.workload.clone(),
            "flat".to_string(),
            span.result.to_string(),
            format!("{:.3}", span.makespan_cycles as f64 / 1e6),
            format!("{:.3}", span.recorded_makespan as f64 / 1e6),
            span.instruction_events.to_string(),
            span.lanes_observed.to_string(),
        ]);
    }
    rows.push(vec![
        links.workload.clone(),
        format!("{} shards", links.shards),
        links.result.to_string(),
        format!("{:.3}", links.makespan_cycles as f64 / 1e6),
        format!("{:.3}", links.recorded_makespan as f64 / 1e6),
        format!("{} transfers", links.transfer_events),
        format!("{} B linked", links.link_bytes),
    ]);
    let table = format_table(
        &[
            "workload",
            "engine",
            "result",
            "makespan [Mcyc]",
            "event span [Mcyc]",
            "events",
            "lanes/links",
        ],
        &rows,
    );
    emit(
        "trace_timeline",
        &format!(
            "Lane timelines on {GRAPH} (in order, {LANES} lanes, depth {DEPTH}).\n\
             Every row's recorded event span equals its measured makespan exactly, so\n\
             the exported Chrome traces are cycle-accurate renderings of the schedule;\n\
             the sharded rendering adds one track per shard link carrying every priced\n\
             transfer. Load the .trace.json files at https://ui.perfetto.dev.\n\n{table}"
        ),
    );

    let trace_files = vec![
        "trace_timeline_flat.trace.json".to_string(),
        "trace_timeline_links.trace.json".to_string(),
    ];
    let doc = TraceTimeline {
        schema_version: TRACE_TIMELINE_SCHEMA_VERSION,
        graph: GRAPH.to_string(),
        lanes: LANES,
        window: DEPTH,
        spans,
        links,
        trace_files: trace_files.clone(),
    };
    doc.validate()
        .expect("the emitted document is schema-valid");

    if std::fs::create_dir_all(&dir).is_ok() {
        let renders = [
            flat_trace.lock().expect("trace lock").render(),
            link_trace.lock().expect("trace lock").render(),
        ];
        for (file, render) in trace_files.iter().zip(&renders) {
            std::fs::write(dir.join(file), render)
                .unwrap_or_else(|e| panic!("cannot write {file}: {e}"));
        }
        let json = serde_json::to_string_pretty(&doc).expect("timeline document serializes");
        std::fs::write(dir.join("trace_timeline.json"), json)
            .unwrap_or_else(|e| panic!("cannot write trace_timeline.json: {e}"));
        println!(
            "Timelines recorded in {} (+ {}).",
            dir.join("trace_timeline.json").display(),
            trace_files.join(", ")
        );
    }
}
