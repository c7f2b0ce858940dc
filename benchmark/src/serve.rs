//! The two serving workloads: `SisaService` behind its TCP front-end on
//! loopback, in this process, driven by the two-thread load generator. This
//! is the tenant waiting for a query.

use crate::host;
use crate::layers::per_item;
use crate::loadgen::{Connection, FrameKind, Pace, Phase, Reply, GENERATOR_THREADS};
use crate::metrics::Values;
use crate::mine::set_simulated;
use crate::schedule::{
    self, hot_ops, request_line, stream_schedule, EdgeSet, Op, OpClass, Rng, StreamSchedule,
    OPS_PER_MUTATION, TENANTS,
};
use crate::spans::{Span, SpanLog};
use crate::stats::{self, median, percentile};
use crate::{Outcome, RunArgs, Tally};
use sisa_algorithms::setcentric::{
    k_clique_count, orient_by_degeneracy, triangle_count, StreamingMiner,
};
use sisa_algorithms::SearchLimits;
use sisa_core::{
    ExecStats, FunctionalEngine, PartitionStrategy, SetGraph, SetGraphConfig, ShardedEngine,
    SisaConfig,
};
use sisa_graph::{datasets, CsrGraph, GraphDelta, GraphRegistry, Vertex};
use sisa_service::{
    Admission, AdmissionConfig, CachedResult, Frame, QueryKind, QueryOutcome, QuerySpec,
    QueryStats, Request, ResultCache, ServiceConfig, SisaService, TcpServer, WfqScheduler,
};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::atomic::AtomicU32;
use std::time::{Duration, Instant};

/// Fresh set-ups per run; `setup_s` is the fastest.
const SETUPS: usize = 10;
/// Open-loop rate of `serve-hot`, queries per second.
const HOT_RATE: f64 = 2000.0;
/// Requests in flight in the closed loop of the traced `serve-hot` run
/// (`diag.peak_qps`).
const HOT_OUTSTANDING: usize = 8;
/// Hot queries per second of window a closed loop is expected to stay under
/// (22 000 on the reference box, one at a time or with eight in flight). The
/// traced closed loop is given a schedule this long; on a faster machine it
/// ends when its schedule does.
const HOT_CLOSED_CAP: f64 = 40_000.0;
/// Hot queries scheduled at a time for the one-at-a-time phase.
const HOT_BATCH: usize = 20_000;
/// Stream requests per second of window the schedule is built for: more
/// than get through one at a time on the reference box (60 a second).
const STREAM_CAP: f64 = 400.0;
/// The budget of the one stream read the worker cannot serve from its
/// maintained counters.
const STREAM_BUDGET: u64 = 20_000;
/// Completions of the traced closed loop are counted per slice this long;
/// the median slice is reported.
const SLICE: Duration = Duration::from_millis(250);

fn graph(name: &str, seed: u64) -> CsrGraph {
    datasets::by_name(name)
        .expect("a dataset of the registry")
        .generate(seed)
}

/// The twelve specs of `serve-hot`: distinct by kind, `k` and budget, each
/// executing in well under 200 ms.
fn hot_specs() -> Vec<QuerySpec> {
    let kc = |k| QueryKind::KCliqueCount { k };
    vec![
        QuerySpec::new("soc-fbMsg", QueryKind::TriangleCount),
        QuerySpec::new("soc-fbMsg", QueryKind::TriangleCount).with_budget(5_000),
        QuerySpec::new("soc-fbMsg", kc(3)),
        QuerySpec::new("soc-fbMsg", kc(4)).with_budget(2_000),
        QuerySpec::new("soc-fbMsg", kc(4)).with_budget(20_000),
        QuerySpec::new("soc-fbMsg", kc(5)).with_budget(5_000),
        QuerySpec::new("econ-beacxc", QueryKind::TriangleCount),
        QuerySpec::new("econ-beacxc", QueryKind::TriangleCount).with_budget(5_000),
        QuerySpec::new("econ-beacxc", kc(4)).with_budget(2_000),
        QuerySpec::new("econ-beacxc", kc(4)).with_budget(20_000),
        QuerySpec::new("econ-beacxc", kc(5)).with_budget(5_000),
        QuerySpec::new("econ-beacxc", kc(5)).with_budget(50_000),
    ]
}

/// The maintained reads of `serve-stream`, and its budgeted read.
fn stream_specs() -> (Vec<QuerySpec>, QuerySpec) {
    let name = "soc-fbMsg";
    (
        vec![
            QuerySpec::new(name, QueryKind::TriangleCount),
            QuerySpec::new(name, QueryKind::KCliqueCount { k: 3 }),
            QuerySpec::new(name, QueryKind::KCliqueCount { k: 4 }),
        ],
        QuerySpec::new(name, QueryKind::KCliqueCount { k: 4 }).with_budget(STREAM_BUDGET),
    )
}

/// The oracle: `spec` on a cost-free `FunctionalEngine` over `g`.
fn expected(spec: &QuerySpec, g: &CsrGraph) -> (u64, bool) {
    let mut engine = FunctionalEngine::new();
    let (oriented, _) = orient_by_degeneracy(&mut engine, g, &SetGraphConfig::default());
    expected_on(&mut engine, &oriented, spec)
}

fn expected_on(
    engine: &mut FunctionalEngine,
    oriented: &SetGraph,
    spec: &QuerySpec,
) -> (u64, bool) {
    let limits = spec
        .budget
        .map_or_else(SearchLimits::unlimited, SearchLimits::patterns);
    let run = match spec.kind {
        QueryKind::TriangleCount => triangle_count(engine, oriented, &limits),
        QueryKind::KCliqueCount { k } => k_clique_count(engine, oriented, k, &limits),
        _ => unreachable!("the serving workloads read only tc and kclique"),
    };
    (run.result, run.truncated)
}

/// A running service with one client connection.
struct Live {
    service: SisaService,
    server: TcpServer,
    conn: Connection,
}

impl Live {
    /// Closes the connection, stops the front-end and joins the service's
    /// threads.
    fn close(self) {
        drop(self.conn);
        self.server.stop();
        self.service.close();
    }
}

/// One fresh set-up: start, register, serve, connect, execute every spec
/// once. Returns the live service, the set-up's seconds, and each first
/// execution's (reply, milliseconds).
fn set_up(
    graphs: &[(&str, CsrGraph)],
    specs: &[QuerySpec],
    base: Instant,
) -> (Live, f64, Vec<(Reply, f64)>) {
    let started = Instant::now();
    let service = SisaService::start(ServiceConfig::default());
    for (name, g) in graphs {
        service.register_graph(name, g.clone());
    }
    let server = TcpServer::serve(service.client(), "127.0.0.1:0").expect("a loopback port");
    let mut conn = Connection::open(server.addr()).expect("the front-end accepts");
    let firsts = specs
        .iter()
        .enumerate()
        .map(|(i, spec)| {
            let line = request_line((1 << 50) + i as u64, TENANTS[0], spec);
            let (reply, took) = conn.call(&line, base);
            (reply, took.as_secs_f64() * 1e3)
        })
        .collect();
    (
        Live {
            service,
            server,
            conn,
        },
        started.elapsed().as_secs_f64(),
        firsts,
    )
}

/// The fresh set-ups of one run: what they are set up from, and what each
/// one measured. A run spreads them over its whole length — before, between
/// and after its phases — so that one slow stretch of the machine cannot
/// hold all of them.
struct SetUps<'a> {
    graphs: &'a [(&'a str, CsrGraph)],
    specs: &'a [QuerySpec],
    want: &'a [(u64, bool)],
    base: Instant,
    /// Seconds of each set-up.
    seconds: Vec<f64>,
    /// Milliseconds of each spec's first execution, one row per set-up.
    first_ms: Vec<Vec<f64>>,
    /// The engines' statistics after each set-up's first executions.
    engine_stats: Vec<ExecStats>,
}

impl<'a> SetUps<'a> {
    fn new(
        graphs: &'a [(&'a str, CsrGraph)],
        specs: &'a [QuerySpec],
        want: &'a [(u64, bool)],
        base: Instant,
    ) -> Self {
        SetUps {
            graphs,
            specs,
            want,
            base,
            seconds: Vec::new(),
            first_ms: Vec::new(),
            engine_stats: Vec::new(),
        }
    }

    /// One fresh set-up, every first execution checked against the oracle.
    fn fresh(&mut self, tally: &mut Tally) -> Live {
        let (live, seconds, firsts) = set_up(self.graphs, self.specs, self.base);
        self.seconds.push(seconds);
        for ((reply, _), (spec, want)) in firsts.iter().zip(self.specs.iter().zip(self.want)) {
            tally.note(
                reply.kind == FrameKind::Result && (reply.value, reply.truncated) == *want,
                || format!("first execution of {spec:?}: {reply:?}, expected {want:?}"),
            );
        }
        self.first_ms
            .push(firsts.iter().map(|(_, ms)| *ms).collect());
        self.engine_stats.push(live.service.engine_stats());
        live
    }

    /// `n` fresh set-ups, each closed again.
    fn fresh_and_close(&mut self, n: usize, tally: &mut Tally) {
        for _ in 0..n {
            self.fresh(tally).close();
        }
    }

    /// `cold_ms` of `serve-hot`: the first execution (a cache miss) of a
    /// spec, averaged over the specs; each spec's is the fastest among the
    /// set-ups.
    fn first_execution_ms(&self) -> f64 {
        let per_spec = (0..self.specs.len()).map(|spec| {
            let across: Vec<f64> = self.first_ms.iter().map(|row| row[spec]).collect();
            stats::fastest(&across)
        });
        per_spec.sum::<f64>() / self.specs.len() as f64
    }
}

/// Refuses a machine with fewer hardware threads than the generator has
/// threads. Asked before the process is pinned.
pub fn refuse_small_machines() -> Result<(), String> {
    let nproc = host::nproc();
    if nproc < GENERATOR_THREADS {
        return Err(format!(
            "the load generator needs {GENERATOR_THREADS} threads and one connection; this machine offers {nproc}"
        ));
    }
    Ok(())
}

/// Latencies (ms, from due time) of the replies of `phase` whose op passes
/// `pick`.
fn latencies(phase: &Phase, ops: &[Op], pick: impl Fn(&OpClass) -> bool) -> Vec<f64> {
    (0..phase.sent.len())
        .filter(|&i| pick(&ops[i].class) && phase.replies[i].kind == FrameKind::Result)
        .map(|i| phase.latency_ms(i))
        .collect()
}

fn is_read(class: &OpClass) -> bool {
    matches!(class, OpClass::Read { .. })
}

// ---------------------------------------------------------------------------
// serve-hot
// ---------------------------------------------------------------------------

/// Checks every reply of a hot phase against the oracle.
fn check_hot(phase: &Phase, ops: &[Op], want: &[(u64, bool)], tally: &mut Tally) -> u64 {
    let mut hits = 0;
    for (i, reply) in phase.replies.iter().enumerate() {
        let OpClass::Read { spec } = ops[i].class else {
            continue;
        };
        hits += u64::from(reply.cache_hit);
        tally.note(
            reply.kind == FrameKind::Result && (reply.value, reply.truncated) == want[spec],
            || format!("hot query {i}: {reply:?}, expected {:?}", want[spec]),
        );
    }
    hits
}

/// `serve-hot`: every timed query is a cache hit.
pub fn run_hot(args: &RunArgs) -> Outcome {
    let calib_before = host::calibration_spin_ms();
    let base = Instant::now();
    let mut tally = Tally::default();
    let graphs = [
        ("soc-fbMsg", graph("soc-fbMsg", args.seed)),
        ("econ-beacxc", graph("econ-beacxc", args.seed)),
    ];
    let specs = hot_specs();
    let want: Vec<(u64, bool)> = {
        // One oriented load per graph serves all of its specs.
        let mut by_graph: BTreeMap<&str, (FunctionalEngine, SetGraph)> = BTreeMap::new();
        for (name, g) in &graphs {
            let mut engine = FunctionalEngine::new();
            let (oriented, _) = orient_by_degeneracy(&mut engine, g, &SetGraphConfig::default());
            by_graph.insert(name, (engine, oriented));
        }
        specs
            .iter()
            .map(|spec| {
                let (engine, oriented) =
                    by_graph.get_mut(spec.graph.as_str()).expect("a hot graph");
                expected_on(engine, oriented, spec)
            })
            .collect()
    };
    let mut setups = SetUps::new(&graphs, &specs, &want, base);
    setups.fresh_and_close(1, &mut tally);
    let mut live = setups.fresh(&mut tally);
    let acked = AtomicU32::new(0);
    let mut rng = Rng::new(args.seed, 1);
    let mut values = Values::default();
    let mut notes = Vec::new();

    if !args.trace {
        // Phase A: open loop. Phase B: one request at a time.
        let half = args.seconds / 2.0;
        let open_ops = hot_ops(&mut rng, &specs, 0, (HOT_RATE * half) as usize);
        let open = live.conn.run_phase(
            &open_ops,
            0,
            Pace::Open { rate: HOT_RATE },
            base,
            false,
            &acked,
        );
        setups.fresh_and_close(SETUPS / 3, &mut tally);
        // One at a time, a batch of the schedule after another: the whole
        // window's request lines at once would be most of the process's
        // memory, and `peak_rss_mb` is meant to read the service's.
        let closed_started = Instant::now();
        let closed_for = Duration::from_secs_f64(half);
        let mut hits = check_hot(&open, &open_ops, &want, &mut tally);
        let mut next_id = open_ops.len() as u64;
        // Room for more than get through (untouched room is not resident):
        // growing by doubling would add a run-dependent 4 MiB to the peak.
        let mut closed_ms = Vec::with_capacity((HOT_CLOSED_CAP * half) as usize);
        while let Some(left) = closed_for
            .checked_sub(closed_started.elapsed())
            .filter(|left| !left.is_zero())
        {
            let ops = hot_ops(&mut rng, &specs, next_id, HOT_BATCH);
            let batch = live.conn.run_phase(
                &ops,
                next_id,
                Pace::Sequential { run_for: left },
                base,
                false,
                &acked,
            );
            hits += check_hot(&batch, &ops, &want, &mut tally);
            closed_ms.extend(latencies(&batch, &ops, is_read));
            next_id += ops.len() as u64;
            if batch.sent.len() < ops.len() {
                // The time ran out, or the connection is gone.
                break;
            }
        }
        setups.fresh_and_close(SETUPS - 2 - SETUPS / 3, &mut tally);
        let open_ms = latencies(&open, &open_ops, is_read);
        // The open loop runs in lock step with the transport's timers (see
        // README.md), which no interference moves: its median repeats. The
        // round trip is fixed work: its fastest twentieth.
        let round_trip_ms = stats::fastest_twentieth(&closed_ms);
        values.set("setup_s", stats::fastest(&setups.seconds));
        values.set("primary_ms", median(&open_ms));
        values.set("secondary_ms", round_trip_ms);
        values.set("cold_ms", setups.first_execution_ms());
        // Queries per second of one caller, at that round trip.
        values.set("throughput", 1e3 / round_trip_ms);
        let mut lag = open.lag_us();
        stats::sort(&mut lag);
        notes.push(format!(
            "open loop {HOT_RATE} qps: sent {}, writer lag p95 {:.1} us; one at a time: completed {}; cache hits {hits}",
            open.sent.len(),
            percentile(&lag, 0.95),
            closed_ms.len()
        ));
        notes.push(format!(
            "open-loop latency, ms: {}",
            stats::summary(&open_ms)
        ));
        notes.push(format!("round trip, ms: {}", stats::summary(&closed_ms)));
    } else {
        trace_serving(
            &mut live,
            &specs,
            |rng, first, seconds| hot_ops(rng, &specs, first, (HOT_RATE * seconds) as usize),
            |_| Pace::Open { rate: HOT_RATE },
            args,
            base,
            &mut rng,
            &mut values,
            &mut notes,
            &mut |phase, ops, tally| {
                check_hot(phase, ops, &want, tally);
            },
            &mut tally,
        );
        // What the pipelining tenant gets through: a closed loop with
        // several requests in flight. On two hardware threads shared with
        // the service it settles into a different rhythm from run to run
        // (14 to 20 thousand a second), so it carries no bound.
        let first = 1 << 40;
        let window = args.seconds * 0.1;
        let ops = hot_ops(&mut rng, &specs, first, (HOT_CLOSED_CAP * window) as usize);
        let closed = live.conn.run_phase(
            &ops,
            first,
            Pace::Closed {
                outstanding: HOT_OUTSTANDING,
                run_for: Duration::from_secs_f64(window),
            },
            base,
            false,
            &acked,
        );
        check_hot(&closed, &ops, &want, &mut tally);
        values.set("diag.peak_qps", median(&closed.slice_rates(SLICE)));
        service_layers(&specs, &mut values);
        exact_engine_stats(&setups.engine_stats, &mut values, &mut tally);
    }
    service_counts(&live.service, &mut values);
    values.set("peak_rss_mb", host::peak_rss_mib());
    values.set(
        "loadgen.calib_drift",
        host::calibration_spin_ms() / calib_before - 1.0,
    );
    notes.push(format!(
        "set-ups {}, first executions {}",
        setups.seconds.len(),
        setups.first_ms.len() * specs.len()
    ));
    live.close();
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        notes,
    }
}

// ---------------------------------------------------------------------------
// serve-stream
// ---------------------------------------------------------------------------

/// The benchmark's own count of triangles and 4-cliques of the streamed
/// graph, kept edge by edge: inserting or deleting `(u, v)` changes the
/// triangle count by the common neighbours of `u` and `v`, and the 4-clique
/// count by the edges among them.
struct CliqueOracle {
    adj: Vec<Vec<Vertex>>,
    triangles: u64,
    four_cliques: u64,
}

impl CliqueOracle {
    fn new(g: &CsrGraph) -> Self {
        let adj = g.vertices().map(|v| g.neighbors(v).to_vec()).collect();
        let mut engine = FunctionalEngine::new();
        let (oriented, _) = orient_by_degeneracy(&mut engine, g, &SetGraphConfig::default());
        let mut count = |kind| expected_on(&mut engine, &oriented, &QuerySpec::new("", kind)).0;
        let triangles = count(QueryKind::TriangleCount);
        let four_cliques = count(QueryKind::KCliqueCount { k: 4 });
        CliqueOracle {
            adj,
            triangles,
            four_cliques,
        }
    }

    fn has(&self, u: Vertex, v: Vertex) -> bool {
        self.adj[u as usize].binary_search(&v).is_ok()
    }

    /// (triangles, 4-cliques) through edge `(u, v)`, present or not.
    fn through(&self, u: Vertex, v: Vertex) -> (u64, u64) {
        let common: Vec<Vertex> = self.adj[u as usize]
            .iter()
            .copied()
            .filter(|&w| self.has(v, w))
            .collect();
        let mut edges = 0;
        for (i, &a) in common.iter().enumerate() {
            edges += common[i + 1..].iter().filter(|&&b| self.has(a, b)).count() as u64;
        }
        (common.len() as u64, edges)
    }

    fn set_edge(&mut self, u: Vertex, v: Vertex, present: bool) {
        for (a, b) in [(u, v), (v, u)] {
            let list = &mut self.adj[a as usize];
            match (list.binary_search(&b), present) {
                (Err(at), true) => list.insert(at, b),
                (Ok(at), false) => {
                    list.remove(at);
                }
                _ => {}
            }
        }
    }

    fn apply(&mut self, delta: &GraphDelta) {
        for &(u, v) in &delta.deletes {
            if self.has(u, v) {
                self.set_edge(u, v, false);
                let (t, k) = self.through(u, v);
                self.triangles -= t;
                self.four_cliques -= k;
            }
        }
        for &(u, v) in &delta.inserts {
            if u != v && !self.has(u, v) {
                let (t, k) = self.through(u, v);
                self.triangles += t;
                self.four_cliques += k;
                self.set_edge(u, v, true);
            }
        }
    }
}

/// The counts the stream oracle expects after every mutation prefix:
/// `counts[k]` is `(triangles, 4-cliques)` after `k` mutations.
fn stream_truth(g: &CsrGraph, deltas: &[GraphDelta]) -> Vec<(u64, u64)> {
    let mut oracle = CliqueOracle::new(g);
    let mut counts = vec![(oracle.triangles, oracle.four_cliques)];
    for delta in deltas {
        oracle.apply(delta);
        counts.push((oracle.triangles, oracle.four_cliques));
    }
    counts
}

/// Everything a stream check needs besides the replies.
struct StreamOracle<'a> {
    g: &'a CsrGraph,
    schedule: &'a StreamSchedule,
    counts: &'a [(u64, u64)],
    budgeted: &'a QuerySpec,
}

impl StreamOracle<'_> {
    /// Checks the replies of a phase whose first request is schedule entry
    /// `first_op`.
    fn check(&self, phase: &Phase, ops: &[Op], first_op: usize, tally: &mut Tally) {
        // When each mutation of the phase left, to bound what a read can
        // have seen.
        let mutation_sent: Vec<u64> = (0..phase.sent.len())
            .filter(|&i| matches!(ops[i].class, OpClass::Mutate { .. }))
            .map(|i| phase.sent[i].sent_ns)
            .collect();
        let before_phase = first_op.div_ceil(OPS_PER_MUTATION);
        // Budgeted answers depend on the search order, so they are
        // recomputed on the graph as it stood; walk the reference forward.
        let mut reference = EdgeSet::of(self.g);
        let mut applied = 0usize;
        for (i, reply) in phase.replies.iter().enumerate() {
            let at = first_op + i;
            // Mutations scheduled before this request.
            let before = at.div_ceil(OPS_PER_MUTATION);
            let ok = reply.kind == FrameKind::Result
                && match ops[i].class {
                    OpClass::Mutate { .. } => reply.value == schedule::INTENTS_PER_MUTATION as u64,
                    OpClass::Read { spec } => {
                        // The service orders a tenant's own requests, not
                        // one tenant's read against another's mutation: a
                        // read may see any state from the mutations already
                        // acknowledged when it left to those sent before
                        // its answer came back.
                        let low = (phase.sent[i].acked_mutations as usize).min(before);
                        let high = before_phase
                            + mutation_sent.partition_point(|&sent| sent < reply.recv_ns);
                        (low..=high.max(before)).any(|k| {
                            let (t, k4) = self.counts[k];
                            reply.value == if spec == 2 { k4 } else { t }
                        })
                    }
                    OpClass::BudgetedRead => {
                        // Sent by the mutating tenant, so it runs after the
                        // mutations before it and ahead of those after it.
                        while applied < before {
                            reference.apply(&self.schedule.deltas[applied]);
                            applied += 1;
                        }
                        (reply.value, reply.truncated)
                            == expected(self.budgeted, &reference.to_csr())
                    }
                };
            tally.note(ok, || {
                format!("stream request {at} ({:?}): {reply:?}", ops[i].class)
            });
        }
    }

    /// After the last request: the service's graph against the reference,
    /// and a from-scratch recount of the reference against both the
    /// edge-by-edge oracle and the service's answer.
    fn check_final(
        &self,
        live: &mut Live,
        ops_sent: usize,
        reads: &[QuerySpec],
        base: Instant,
        tally: &mut Tally,
    ) {
        let mutations = ops_sent.div_ceil(OPS_PER_MUTATION);
        let mut reference = EdgeSet::of(self.g);
        for delta in &self.schedule.deltas[..mutations] {
            reference.apply(delta);
        }
        let final_csr = reference.to_csr();
        let served = live.service.registry().acquire(&self.budgeted.graph);
        tally.note(
            served.is_some_and(|s| s.edges().eq(final_csr.edges())),
            || "the service's graph differs from the reference after the last mutation".to_string(),
        );
        let (t, k4) = self.counts[mutations];
        for (spec, oracle) in [(&reads[0], t), (&reads[2], k4)] {
            let (recount, _) = expected(spec, &final_csr);
            let (reply, _) = live
                .conn
                .call(&request_line(1 << 51, TENANTS[1], spec), base);
            tally.note(recount == oracle && reply.value == recount, || {
                format!("final {spec:?}: recount {recount}, oracle {oracle}, service {reply:?}")
            });
        }
    }
}

/// `serve-stream`: writes beside reads.
pub fn run_stream(args: &RunArgs) -> Outcome {
    let calib_before = host::calibration_spin_ms();
    let base = Instant::now();
    let mut tally = Tally::default();
    let name = "soc-fbMsg";
    let g = graph(name, args.seed);
    let graphs = [(name, g.clone())];
    let (reads, budgeted) = stream_specs();
    let mut specs = reads.clone();
    specs.push(budgeted.clone());
    let want: Vec<(u64, bool)> = specs.iter().map(|s| expected(s, &g)).collect();
    let mut setups = SetUps::new(&graphs, &specs, &want, base);
    let before = if args.trace { 1 } else { SETUPS / 2 - 1 };
    setups.fresh_and_close(before, &mut tally);
    let mut live = setups.fresh(&mut tally);
    let acked = AtomicU32::new(0);
    let mut rng = Rng::new(args.seed, 2);
    let mut values = Values::default();
    let mut notes = Vec::new();
    let scheduled = |seconds: f64| (STREAM_CAP * seconds) as usize;

    if !args.trace {
        let schedule = stream_schedule(&mut rng, &g, &reads, &budgeted, scheduled(args.seconds));
        let counts = stream_truth(&g, &schedule.deltas);
        let oracle = StreamOracle {
            g: &g,
            schedule: &schedule,
            counts: &counts,
            budgeted: &budgeted,
        };
        let open = live.conn.run_phase(
            &schedule.ops,
            0,
            Pace::Sequential {
                run_for: Duration::from_secs_f64(args.seconds),
            },
            base,
            false,
            &acked,
        );
        setups.fresh_and_close(SETUPS - SETUPS / 2, &mut tally);
        oracle.check(&open, &schedule.ops, 0, &mut tally);
        oracle.check_final(&mut live, open.sent.len(), &reads, base, &mut tally);

        let steady = |c: &OpClass| matches!(c, OpClass::Mutate { rebuild: false, .. });
        let rebuild = |c: &OpClass| matches!(c, OpClass::Mutate { rebuild: true, .. });
        let (steady_ms, rebuild_ms) = (
            latencies(&open, &schedule.ops, steady),
            latencies(&open, &schedule.ops, rebuild),
        );
        let read_ms = latencies(&open, &schedule.ops, is_read);
        values.set("setup_s", stats::fastest(&setups.seconds));
        values.set("primary_ms", stats::fastest_twentieth(&read_ms));
        values.set("secondary_ms", stats::fastest_twentieth(&steady_ms));
        values.set("cold_ms", stats::fastest(&rebuild_ms));
        // Requests per second over one turn of the schedule's shape (four
        // mutations, one of them rebuilding, one budgeted read, eleven
        // maintained reads): the turn's length over the fastest turn.
        let turn = OPS_PER_MUTATION * schedule::BUDGETED_EVERY;
        let turn_s: Vec<f64> = (0..open.sent.len() / turn)
            .map(|t| {
                let (first, last) = (t * turn, (t + 1) * turn - 1);
                open.replies[last]
                    .recv_ns
                    .saturating_sub(open.sent[first].sent_ns) as f64
                    / 1e9
            })
            .collect();
        values.set("throughput", turn as f64 / stats::fastest(&turn_s));
        let mut all_mutations = [steady_ms.clone(), rebuild_ms.clone()].concat();
        stats::sort(&mut all_mutations);
        notes.push(format!(
            "one at a time: sent {} in {} turns; mutate p90 {:.3} ms with {} beyond",
            open.sent.len(),
            turn_s.len(),
            percentile(&all_mutations, 0.90),
            stats::samples_beyond(all_mutations.len(), 0.90),
        ));
        notes.push(format!(
            "maintained reads, ms: {}",
            stats::summary(&read_ms)
        ));
        notes.push(format!(
            "steady mutations, ms: {}",
            stats::summary(&steady_ms)
        ));
        notes.push(format!(
            "rebuilding mutations, ms: {}",
            stats::summary(&rebuild_ms)
        ));
    } else {
        let schedule = stream_schedule(
            &mut rng,
            &g,
            &reads,
            &budgeted,
            scheduled(args.seconds * 0.6),
        );
        let counts = stream_truth(&g, &schedule.deltas);
        let oracle = StreamOracle {
            g: &g,
            schedule: &schedule,
            counts: &counts,
            budgeted: &budgeted,
        };
        let mut cursor = 0usize;
        let mut mutate_ms = Vec::new();
        trace_serving(
            &mut live,
            &reads,
            // Each phase goes on where the one before stopped.
            |_, first, _| schedule.ops[first as usize..].to_vec(),
            |seconds| Pace::Sequential {
                run_for: Duration::from_secs_f64(seconds),
            },
            args,
            base,
            &mut rng,
            &mut values,
            &mut notes,
            &mut |phase, ops, tally| {
                oracle.check(phase, ops, cursor, tally);
                cursor += phase.sent.len();
                mutate_ms.extend(latencies(phase, ops, |c| {
                    matches!(c, OpClass::Mutate { .. })
                }));
            },
            &mut tally,
        );
        oracle.check_final(&mut live, cursor, &reads, base, &mut tally);
        if !mutate_ms.is_empty() {
            stats::sort(&mut mutate_ms);
            values.set("diag.mutate_p90_ms", percentile(&mutate_ms, 0.90));
        }
        service_layers(&specs, &mut values);
        stream_layers(&g, &schedule.deltas, args.seed, &mut values);
        exact_engine_stats(&setups.engine_stats, &mut values, &mut tally);
    }
    service_counts(&live.service, &mut values);
    values.set("peak_rss_mb", host::peak_rss_mib());
    values.set(
        "loadgen.calib_drift",
        host::calibration_spin_ms() / calib_before - 1.0,
    );
    notes.push(format!(
        "set-ups {}, first executions {} (median {:.2} ms), stream budget {STREAM_BUDGET}",
        setups.seconds.len(),
        setups.first_ms.len() * specs.len(),
        median(&setups.first_ms.concat())
    ));
    live.close();
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        notes,
    }
}

// ---------------------------------------------------------------------------
// The traced run and the per-layer lines
// ---------------------------------------------------------------------------

/// The phases of a traced serving run, the same for both workloads: an
/// untraced open loop, the same loop with spans, then the read specs one at
/// a time over TCP and in process.
#[allow(clippy::too_many_arguments)]
fn trace_serving(
    live: &mut Live,
    read_specs: &[QuerySpec],
    mut make_ops: impl FnMut(&mut Rng, u64, f64) -> Vec<Op>,
    pace: impl Fn(f64) -> Pace,
    args: &RunArgs,
    base: Instant,
    rng: &mut Rng,
    values: &mut Values,
    notes: &mut Vec<String>,
    check: &mut dyn FnMut(&Phase, &[Op], &mut Tally),
    tally: &mut Tally,
) {
    let acked = AtomicU32::new(0);
    let per_phase = args.seconds * 0.3;

    let plain_ops = make_ops(rng, 0, per_phase);
    let plain = live
        .conn
        .run_phase(&plain_ops, 0, pace(per_phase), base, false, &acked);
    check(&plain, &plain_ops, tally);
    let traced_first = plain.sent.len() as u64;
    let traced_ops = make_ops(rng, traced_first, per_phase);
    let traced = live.conn.run_phase(
        &traced_ops,
        traced_first,
        pace(per_phase),
        base,
        true,
        &acked,
    );
    check(&traced, &traced_ops, tally);

    let mut plain_ms = latencies(&plain, &plain_ops, is_read);
    let traced_ms = latencies(&traced, &traced_ops, is_read);
    let plain_p50 = median(&plain_ms);
    stats::sort(&mut plain_ms);
    if !plain_ms.is_empty() {
        values.set("diag.query_p95_ms", percentile(&plain_ms, 0.95));
        values.set("diag.query_p99_ms", percentile(&plain_ms, 0.99));
    }
    values.set("trace.overhead_share", median(&traced_ms) / plain_p50 - 1.0);
    let mut lag = plain.lag_us();
    stats::sort(&mut lag);
    values.set("loadgen.lag_p95_us", percentile(&lag, 0.95));
    values.set(
        "loadgen.sent",
        (plain.sent.len() + traced.sent.len()) as f64,
    );

    // Spans: write -> terminal frame, with the frame's own span fields as
    // children. The frame reports lengths, not positions: the server's span
    // is placed so that it ends when the frame arrived.
    let mut log = SpanLog::with_capacity(200_000);
    let (mut queue_us, mut execute_us, mut span_us) = (Vec::new(), Vec::new(), Vec::new());
    for (i, (sent, reply)) in traced.sent.iter().zip(&traced.replies).enumerate() {
        if reply.kind != FrameKind::Result {
            continue;
        }
        let id = traced_first + i as u64;
        let root = log.push(Span {
            name: "sisa-service.tcp.query",
            trace_id: id,
            parent: None,
            start_ns: sent.sent_ns,
            end_ns: reply.recv_ns,
        });
        let server_start = reply
            .recv_ns
            .saturating_sub(reply.span_ns)
            .max(sent.sent_ns);
        let server = log.push(Span {
            name: "sisa-service.service.span",
            trace_id: id,
            parent: root,
            start_ns: server_start,
            end_ns: reply.recv_ns,
        });
        let picked = server_start + reply.queue_ns;
        log.push(Span {
            name: "sisa-service.worker.queue",
            trace_id: id,
            parent: server,
            start_ns: server_start,
            end_ns: picked,
        });
        log.push(Span {
            name: "sisa-service.worker.execute",
            trace_id: id,
            parent: server,
            start_ns: picked,
            end_ns: picked + reply.execute_ns,
        });
        queue_us.push(reply.queue_ns as f64 / 1e3);
        execute_us.push(reply.execute_ns as f64 / 1e3);
        span_us.push(reply.span_ns as f64 / 1e3);
    }
    values.set("sisa-service.worker.queue_p50_us", median(&queue_us));
    values.set("sisa-service.worker.execute_p50_us", median(&execute_us));
    values.set("sisa-service.worker.span_p50_us", median(&span_us));
    let trace_path = args.out_dir.join(format!("trace-{}.json", args.workload));
    if let Err(e) = log.write_json(&trace_path, &args.workload, args.seed) {
        eprintln!("could not write {}: {e}", trace_path.display());
    }

    // One request at a time, over TCP and in process, on the read specs:
    // the difference of the medians is what the transport costs.
    let window = Duration::from_secs_f64(args.seconds * 0.1);
    let mut tcp_us = Vec::new();
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed() < window {
        let spec = &read_specs[i % read_specs.len()];
        let line = request_line((1 << 52) + i as u64, TENANTS[i % TENANTS.len()], spec);
        let (reply, took) = live.conn.call(&line, base);
        tally.note(reply.kind == FrameKind::Result, || {
            format!("tcp call {i}: {reply:?}")
        });
        tcp_us.push(took.as_secs_f64() * 1e6);
        i += 1;
    }
    let client = live.service.client();
    let mut inproc_us = Vec::new();
    let started = Instant::now();
    let mut i = 0usize;
    while started.elapsed() < window {
        let spec = read_specs[i % read_specs.len()].clone();
        let call = Instant::now();
        let outcome = client
            .submit(TENANTS[i % TENANTS.len()], spec)
            .map_err(|r| r.to_string())
            .and_then(sisa_service::QueryHandle::wait);
        inproc_us.push(call.elapsed().as_secs_f64() * 1e6);
        tally.note(outcome.is_ok(), || {
            format!("in-process call {i}: {outcome:?}")
        });
        i += 1;
    }
    values.set("sisa-service.service.inproc_p50_us", median(&inproc_us));
    values.set(
        "sisa-service.tcp.overhead_p50_us",
        median(&tcp_us) - median(&inproc_us),
    );
    notes.push(format!(
        "untraced {} requests (read p50 {plain_p50:.4} ms), traced {}, spans {} (dropped {}), trace file {}; one at a time: tcp {} calls, in-process {}",
        plain.sent.len(),
        traced.sent.len(),
        log.spans().len(),
        log.dropped(),
        trace_path.display(),
        tcp_us.len(),
        inproc_us.len()
    ));
}

/// Nanoseconds per call of `f` in the fastest of a few passes of `n` calls.
fn ns_per_call(n: usize, mut f: impl FnMut(usize)) -> f64 {
    per_item(|| {
        let started = Instant::now();
        for i in 0..n {
            f(i);
        }
        (started.elapsed().as_nanos() as u64, n as u64)
    })
}

/// The service's modules, each driven alone through its public functions.
fn service_layers(specs: &[QuerySpec], values: &mut Values) {
    let lines: Vec<String> = (0..512)
        .map(|i| {
            request_line(
                i as u64,
                TENANTS[i % TENANTS.len()],
                &specs[i % specs.len()],
            )
        })
        .collect();
    values.set(
        "sisa-service.protocol.parse_ns",
        ns_per_call(lines.len(), |i| {
            black_box(Request::parse(lines[i].trim_end()).expect("a generated line parses"));
        }),
    );
    let outcome = QueryOutcome {
        value: 45_731,
        truncated: false,
        stats: QueryStats {
            simulated_cycles: 1_260_712,
            instructions: 11_330,
            energy_nj: 5120.4,
            wall_ns: 1_893_411,
            cache_hit: true,
            ..QueryStats::default()
        }
        .with_spans(52_000, 0, 61_000),
    };
    values.set(
        "sisa-service.protocol.frame_ns",
        ns_per_call(2_000, |i| {
            black_box(
                serde_json::to_string(&Frame::result(i as u64, &outcome))
                    .expect("a frame serialises"),
            );
        }),
    );
    let admission = Admission::new(AdmissionConfig::default());
    values.set(
        "sisa-service.admission.admit_ns",
        ns_per_call(20_000, |i| {
            let tenant = TENANTS[i % TENANTS.len()];
            if admission.try_admit(tenant).is_ok() {
                admission.complete(tenant);
            }
        }),
    );
    let mut wfq: WfqScheduler<u64> = WfqScheduler::new(BTreeMap::new());
    values.set(
        "sisa-service.wfq.cycle_ns",
        ns_per_call(20_000, |i| {
            wfq.enqueue(TENANTS[i % TENANTS.len()], i as u64);
            if i % TENANTS.len() == TENANTS.len() - 1 {
                while let Some(item) = wfq.pop() {
                    black_box(item);
                }
            }
        }),
    );
    let cache = ResultCache::new(1024, 16 << 20);
    let cached = CachedResult {
        value: outcome.value,
        truncated: false,
        stats: outcome.stats.clone(),
    };
    for spec in specs {
        cache.insert(1, spec, cached.clone());
    }
    values.set(
        "sisa-service.cache.hit_ns",
        ns_per_call(20_000, |i| {
            black_box(cache.get(1, &specs[i % specs.len()]));
        }),
    );
    values.set(
        "sisa-service.cache.miss_ns",
        ns_per_call(20_000, |i| {
            black_box(cache.get(2, &specs[i % specs.len()]));
        }),
    );
    values.set(
        "sisa-service.cache.insert_ns",
        ns_per_call(20_000, |i| {
            // 512 live keys: inserts replace, the cache never evicts.
            let generation = 3 + (i / specs.len() % (512 / specs.len())) as u64;
            black_box(cache.insert(generation, &specs[i % specs.len()], cached.clone()));
        }),
    );
}

/// The layers only a stream enters: the registry's mutate and lease, and
/// the incremental miner on a worker-shaped engine.
fn stream_layers(g: &CsrGraph, deltas: &[GraphDelta], seed: u64, values: &mut Values) {
    let name = "soc-fbMsg";
    let registry = GraphRegistry::new(seed);
    registry.register(name, g.clone());
    let sample = &deltas[..deltas.len().min(40)];
    let mutate_us: Vec<f64> = sample
        .iter()
        .map(|delta| {
            let started = Instant::now();
            black_box(registry.mutate(name, delta));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    values.set("sisa-graph.registry_mutate_us", median(&mutate_us));
    values.set(
        "sisa-graph.registry_lease_ns",
        ns_per_call(20_000, |_| {
            black_box(registry.acquire_lease(name));
        }),
    );

    let mut engine = ShardedEngine::sisa(4, PartitionStrategy::Modulo, SisaConfig::default());
    let mut load_ms = Vec::new();
    let mut miner = None;
    for _ in 0..3 {
        if let Some(old) = miner.take() {
            StreamingMiner::unload(old, &mut engine);
        }
        let started = Instant::now();
        miner = Some(StreamingMiner::load(&mut engine, g, &[3, 4]));
        load_ms.push(started.elapsed().as_secs_f64() * 1e3);
    }
    let mut miner = miner.expect("the miner loaded");
    let apply_us: Vec<f64> = sample
        .iter()
        .map(|delta| {
            let started = Instant::now();
            black_box(miner.apply(&mut engine, delta));
            started.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    values.set("sisa-algorithms.miner_load_ms", median(&load_ms));
    values.set("sisa-algorithms.miner_apply_us", median(&apply_us));
}

/// The simulated lines of a serving workload: the engines' statistics after
/// a set-up's first executions, equal across two fresh set-ups.
fn exact_engine_stats(stats: &[ExecStats], values: &mut Values, tally: &mut Tally) {
    let (Some(a), Some(b)) = (stats.first(), stats.get(1)) else {
        return;
    };
    tally.note(
        a == b && a.energy_nj.to_bits() == b.energy_nj.to_bits(),
        || "engine statistics of two fresh set-ups differ".to_string(),
    );
    set_simulated(values, a);
}

/// Counts the service keeps about itself.
fn service_counts(service: &SisaService, values: &mut Values) {
    let report = service.report();
    let cache = service.cache_counters();
    let metrics = service.metrics_snapshot();
    let counter = |name: &str| metrics.counters.get(name).copied().unwrap_or(0) as f64;
    let lookups = cache.hits + cache.misses;
    if lookups > 0 {
        values.set(
            "sisa-service.cache.hit_ratio",
            cache.hits as f64 / lookups as f64,
        );
    }
    values.set("sisa-service.admission.rejected", report.rejected as f64);
    values.set("sisa-service.service.coalesced", report.coalesced as f64);
    values.set("sisa-service.worker.graph_loads", report.graph_loads as f64);
    values.set(
        "sisa-service.worker.stream_loads",
        counter("sisa_stream_loads_total"),
    );
    values.set(
        "sisa-service.worker.stream_serves",
        counter("sisa_stream_serves_total"),
    );
}
