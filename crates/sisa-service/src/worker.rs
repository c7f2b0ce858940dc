//! The worker pool: each worker owns one [`ShardedEngine`] and a map of
//! shard-resident graphs, and serially executes the job groups the
//! dispatcher routes to it. A worker that finishes a group calls
//! [`Dispatcher::finished`](crate::service::Dispatcher::finished), which
//! hands it its next one.
//!
//! Workers are plain `std::thread`s fed by an `mpsc` channel — the workspace
//! is offline/vendored-shims only, so there is no async runtime. Every group,
//! whatever its kind, goes through [`Worker::run_group`]: it makes current
//! what the group reads (a mined read's static loads, a mutation's
//! incremental miner) billed to the service's registry ledger, runs the
//! group's own work once inside one [`StatsScope`] — a mined kernel, the
//! read of a maintained stream counter, or a mutation's incremental apply —
//! publishes the answer (the result cache for a read, the registry for a
//! mutation), and settles every entry. Because every engine cycle is
//! accrued inside exactly one scope, the per-tenant ledgers plus the
//! registry ledger telescope exactly (integer counters) to the raw engine
//! aggregates.

use crate::cache::CachedResult;
use crate::query::{QueryEvent, QueryKind, QueryOutcome, QuerySpec, QueryStats};
use crate::service::{ns, Job, JobGroup, Shared};
use sisa_algorithms::setcentric::{
    k_clique_count, orient_by_degeneracy, star_pattern, subgraph_isomorphism_count, triangle_count,
    StreamingMiner,
};
use sisa_algorithms::SearchLimits;
use sisa_core::{
    BatchOp, ExecStats, SetEngine, SetGraph, SetGraphConfig, ShardedEngine, SisaRuntime,
    StatsScope, Vertex,
};
use sisa_graph::GraphDelta;
use std::collections::BTreeMap;
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::time::Instant;

/// Clique sizes every worker maintains incrementally for graphs that
/// receive streaming mutations: after a `mutate`, unbudgeted triangle
/// counts (`k = 3`) and 4-clique counts are served from the maintained
/// counters instead of re-mining.
const STREAM_KS: [usize; 2] = [3, 4];

/// Control messages a worker accepts, processed strictly in order.
pub(crate) enum WorkerMsg {
    /// Execute one coalesced group of identical queries.
    Run(JobGroup),
    /// Drop the shard-resident sets of the named graph (the lease-release
    /// half of the registry's load-once/share-many contract).
    Evict(String),
    /// Reply with a clone of the engine's aggregate statistics. Serves as a
    /// barrier: the reply is sent only after all previously queued groups
    /// finished.
    Report(Sender<ExecStats>),
    /// Exit the worker loop.
    Shutdown,
}

/// A graph resident in one worker's engine: the degeneracy-oriented load
/// (clique kernels) and the plain load (subgraph checks) that a mined read
/// runs on. Each [`SetGraph`] keeps its own copy of the CSR, so no registry
/// lease is held while resident.
struct ResidentGraph {
    /// The per-name generation the loads were cut from: the key under which
    /// results computed against them enter the result cache, and the
    /// staleness check against the registry's current generation.
    generation: u64,
    oriented: SetGraph,
    plain: SetGraph,
}

/// The incrementally-maintained dynamic graph of a name that has received
/// streaming mutations on this worker: a [`StreamingMiner`] plus the
/// registry generation its state corresponds to. While `generation` matches
/// the registry's current per-name generation, the maintained counts are
/// exact answers for unbudgeted triangle / tracked k-clique queries, and
/// the next `mutate` applies to the miner as it is. The state is judged by
/// this generation alone: the static loads of the same name going stale
/// (every `mutate` leaves them one tick behind) says nothing about it.
struct StreamState {
    generation: u64,
    miner: StreamingMiner,
}

pub(crate) struct Worker {
    pub(crate) engine: ShardedEngine<SisaRuntime>,
    pub(crate) shared: Arc<Shared>,
    pub(crate) progress_window_ops: usize,
    /// This worker's pool index, named to `Dispatcher::finished`.
    index: usize,
    graphs: BTreeMap<String, ResidentGraph>,
    streams: BTreeMap<String, StreamState>,
}

impl Worker {
    pub(crate) fn new(
        engine: ShardedEngine<SisaRuntime>,
        shared: Arc<Shared>,
        progress_window_ops: usize,
        index: usize,
    ) -> Self {
        Worker {
            engine,
            shared,
            progress_window_ops: progress_window_ops.max(1),
            index,
            graphs: BTreeMap::new(),
            streams: BTreeMap::new(),
        }
    }

    /// The worker thread's main loop.
    pub(crate) fn run(mut self, rx: &Receiver<WorkerMsg>) {
        while let Ok(msg) = rx.recv() {
            match msg {
                WorkerMsg::Run(group) => {
                    self.run_group(group);
                    // Flow control: at most one group is outstanding per
                    // worker, so service order stays in the WFQ backlogs.
                    let shared = &*self.shared;
                    let mut dispatcher = shared.dispatcher.lock().expect("dispatcher lock");
                    dispatcher.finished(shared, self.index);
                }
                WorkerMsg::Evict(name) => self.evict(&name),
                WorkerMsg::Report(reply) => {
                    let _ = reply.send(*self.engine.stats());
                }
                WorkerMsg::Shutdown => break,
            }
        }
    }

    /// Runs `work` on the engine and bills what it cost to the registry
    /// ledger (no tenant asked for it), returning `work`'s value.
    fn bill_registry<R>(&mut self, work: impl FnOnce(&mut ShardedEngine<SisaRuntime>) -> R) -> R {
        let scope = StatsScope::begin(self.engine.stats());
        let out = work(&mut self.engine);
        let delta = scope.finish(self.engine.stats());
        self.shared
            .ledger
            .lock()
            .expect("ledger lock")
            .registry_stats
            .merge(&delta);
        out
    }

    /// Loads `name` into shard-resident sets if it is not already resident
    /// *at the registry's current generation*, returning the generation of
    /// the loads. Staleness is a property of
    /// each resident state against the registry, never of its sibling:
    /// static loads cut from an older generation (a `mutate` ticked the
    /// name, or the registry evicted or replaced it behind this worker's
    /// back) are deleted and reloaded fresh, so a worker can never serve a
    /// stale graph — and the stream state goes with them only if *its own*
    /// generation is not the current one either. After a `mutate` it is
    /// exactly the current one, so the read that reloads the static loads
    /// leaves the miner for the next `mutate` and the maintained reads in
    /// between. Deletion and load are billed to the registry ledger (not to
    /// any tenant), which is what makes the second query on a graph charge
    /// zero additional load cycles.
    fn ensure_resident(&mut self, name: &str) -> Result<u64, String> {
        let current = self.shared.registry.generation_of(name);
        if self.graphs.get(name).map(|g| g.generation) == Some(current) {
            return Ok(current);
        }
        let stream = self.streams.get(name).map(|s| s.generation);
        if stream.is_some_and(|generation| generation != current) {
            self.drop_stream_state(name);
        }
        self.drop_static_loads(name);
        let lease = self
            .shared
            .registry
            .acquire_lease(name)
            .ok_or_else(|| format!("unknown graph {name:?}"))?;
        let cfg = SetGraphConfig::default();
        let (oriented, plain) = self.bill_registry(|engine| {
            let (oriented, _ordering) = orient_by_degeneracy(engine, &lease.graph, &cfg);
            (oriented, SetGraph::load(engine, &lease.graph, &cfg))
        });
        self.shared.ledger.lock().expect("ledger lock").graph_loads += 1;
        self.graphs.insert(
            name.to_string(),
            ResidentGraph {
                generation: lease.generation,
                oriented,
                plain,
            },
        );
        Ok(lease.generation)
    }

    /// Makes `name`'s stream state current for applying `change`, returning
    /// the generation it reads. A first mutation — or one arriving after the
    /// registry moved the name, or naming vertices beyond the miner's
    /// capacity — rebuilds from the pre-mutation CSR, billed to the registry
    /// ledger like any graph load. Steady-state mutations skip this
    /// entirely; that asymmetry is the entire point of the incremental path.
    fn ensure_stream(&mut self, name: &str, change: &GraphDelta) -> Result<u64, String> {
        let pre = self
            .shared
            .registry
            .acquire_lease(name)
            .ok_or_else(|| format!("unknown graph {name:?}"))?;
        let current = self
            .streams
            .get(name)
            .is_some_and(|s| s.generation == pre.generation && s.miner.fits(change));
        if !current {
            let old = self.streams.remove(name);
            let capacity = pre
                .graph
                .num_vertices()
                .max(change.max_vertex().map_or(0, |v| v as usize + 1));
            let miner = self.bill_registry(|engine| {
                if let Some(old) = old {
                    old.miner.unload(engine);
                }
                StreamingMiner::load_with_capacity(engine, &pre.graph, &STREAM_KS, capacity)
            });
            self.shared.ledger.lock().expect("ledger lock").stream_loads += 1;
            self.streams.insert(
                name.to_string(),
                StreamState {
                    generation: pre.generation,
                    miner,
                },
            );
        }
        Ok(pre.generation)
    }

    /// Deletes every shard-resident set of `name` — the static loads and the
    /// streaming state, whichever are resident: what a registry eviction or
    /// re-registration asks for, since neither state can describe the name
    /// afterwards. The deletion cost is billed to the registry ledger.
    fn evict(&mut self, name: &str) {
        self.drop_stream_state(name);
        self.drop_static_loads(name);
    }

    /// Deletes and forgets `name`'s static loads, billing the set deletions
    /// to the registry ledger and counting one eviction.
    fn drop_static_loads(&mut self, name: &str) {
        let Some(resident) = self.graphs.remove(name) else {
            return;
        };
        self.bill_registry(|engine| {
            for graph in [&resident.oriented, &resident.plain] {
                for v in 0..graph.num_vertices() as Vertex {
                    engine.delete(graph.neighborhood(v));
                }
            }
        });
        self.shared.ledger.lock().expect("ledger lock").evictions += 1;
    }

    /// Executes, measures, publishes and settles one group of any kind: a
    /// mined read, a read a maintained stream counter answers, or a
    /// mutation. The group's work runs once; the first entry is billed for
    /// it, and every other entry receives the shared value with a zero-cost
    /// `coalesced` record (mutations are never coalesced).
    pub(crate) fn run_group(&mut self, group: JobGroup) {
        let spec = &group.spec;
        let name = &spec.graph;

        // (1) Make current what the group reads, billed to the registry.
        let streamed = self.stream_count_for(spec);
        let ready = match &spec.kind {
            QueryKind::Mutate(change) => self.ensure_stream(name, change),
            _ if streamed.is_some() => Ok(self.streams[name].generation),
            _ => self.ensure_resident(name),
        };
        let generation = match ready {
            Ok(generation) => generation,
            Err(error) => {
                self.shared.fail_jobs(&group.entries, None, &error);
                return;
            }
        };

        // (2) Run the group's own work once, billed to the first entry.
        let limits = match spec.budget {
            Some(n) => SearchLimits::patterns(n),
            None => SearchLimits::unlimited(),
        };
        let window = self.progress_window_ops;
        let scope = StatsScope::begin(self.engine.stats());
        let started = Instant::now();
        let engine = &mut self.engine;
        let resident = self.graphs.get(name);
        let stream = self.streams.get_mut(name);
        let entries = &group.entries;
        // Kernels may assert on parameters a direct (non-wire) QuerySpec can
        // carry; a panic must not take the worker thread (and its resident
        // graphs) down, and the partial work must still be billed.
        let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            if let Some(value) = streamed {
                engine.host_ops(1);
                return (value, false);
            }
            let run = match &spec.kind {
                QueryKind::Mutate(change) => {
                    let miner = &mut stream.expect("stream state").miner;
                    return (miner.apply(engine, change).applied as u64, false);
                }
                QueryKind::TriangleCount if spec.budget.is_none() => {
                    let oriented = &resident.expect("resident").oriented;
                    return (
                        batched_triangle_count(engine, oriented, window, entries),
                        false,
                    );
                }
                QueryKind::TriangleCount => {
                    triangle_count(engine, &resident.expect("resident").oriented, &limits)
                }
                QueryKind::KCliqueCount { k } => {
                    k_clique_count(engine, &resident.expect("resident").oriented, *k, &limits)
                }
                QueryKind::StarCount { k } => {
                    let plain = &resident.expect("resident").plain;
                    subgraph_isomorphism_count(engine, plain, &star_pattern(*k), &limits)
                }
            };
            (run.result, run.truncated)
        }));
        let wall_ns = ns(started.elapsed());
        let delta = scope.finish(self.engine.stats());
        let (value, truncated) = match outcome {
            Ok(answer) => answer,
            Err(payload) => {
                let what = if spec.kind.is_mutation() {
                    // The miner may be mid-update and inconsistent: drop it
                    // (the next mutation rebuilds), billed to the registry.
                    self.drop_stream_state(name);
                    "mutation"
                } else {
                    "query"
                };
                let error = format!("{what} panicked: {}", panic_message(payload.as_ref()));
                self.shared
                    .fail_jobs(&group.entries, Some((&delta, wall_ns)), &error);
                return;
            }
        };

        // (3) Publish: a mutation through the registry's replace path (the
        // generation tick is what structurally invalidates every cached
        // result for the name), a read into the result cache under the
        // generation its answer was computed against — if the registry has
        // since moved the name on, the entry is stillborn, so a stale hit is
        // structurally impossible.
        if let QueryKind::Mutate(change) = &spec.kind {
            let Some(lease) = self.shared.registry.mutate(name, change) else {
                // The name was evicted between the lease and the publish (a
                // racing evict_graph): the applied set work was real, so it
                // folds into the registry ledger, and the request fails.
                self.drop_stream_state(name);
                let mut ledger = self.shared.ledger.lock().expect("ledger lock");
                ledger.registry_stats.merge(&delta);
                drop(ledger);
                let error = format!("graph {name:?} was evicted mid-mutation");
                self.shared.fail_jobs(&group.entries, None, &error);
                return;
            };
            let state = self.streams.get_mut(name).expect("stream state");
            state.generation = lease.generation;
            debug_assert_eq!(
                lease.graph.num_edges(),
                state.miner.num_edges(),
                "incremental state and registry successor disagree"
            );
        } else {
            if streamed.is_some() {
                self.shared
                    .ledger
                    .lock()
                    .expect("ledger lock")
                    .stream_serves += 1;
            }
            let stats = QueryStats::from_delta(&delta, wall_ns);
            let result = CachedResult {
                value,
                truncated,
                stats,
            };
            self.shared.cache.insert(generation, spec, result);
        }

        // (4) Settle every entry.
        self.settle_group(&group, value, truncated, &delta, wall_ns, started);
    }

    /// Bills and answers every entry of an executed group: the first entry
    /// absorbs the execution delta (as a query or, for a mutation, in the
    /// tenant's `mutations` column), every other entry receives the shared
    /// value as a zero-cost coalesced response, and each terminal event
    /// releases its admission slot (the in-flight count covers queued *and*
    /// executing requests, so the slot frees only after the event).
    fn settle_group(
        &self,
        group: &JobGroup,
        value: u64,
        truncated: bool,
        delta: &ExecStats,
        wall_ns: u64,
        started: Instant,
    ) {
        let shared = &self.shared;
        let mutation = group.spec.kind.is_mutation();
        let mut ledger = shared.ledger.lock().expect("ledger lock");
        for (i, job) in group.entries.iter().enumerate() {
            let queue_ns = ns(started.saturating_duration_since(job.submitted));
            let span_ns = ns(job.submitted.elapsed());
            let stats = if i == 0 {
                if mutation {
                    ledger.record_mutation(&job.tenant, delta, wall_ns);
                } else {
                    ledger.record_query(&job.tenant, delta, wall_ns);
                }
                QueryStats::from_delta(delta, wall_ns)
            } else {
                ledger.record_coalesced(&job.tenant);
                QueryStats::coalesced()
            }
            .with_spans(queue_ns, wall_ns, span_ns);
            ledger.observe_spans(queue_ns, span_ns);
            let _ = job.events.send(QueryEvent::Done(QueryOutcome {
                value,
                truncated,
                stats,
            }));
            shared.admission.complete(&job.tenant);
        }
    }

    /// The maintained stream counter answering `spec`, if any: unbudgeted
    /// triangle counts (`k = 3`) and tracked k-clique counts over a graph
    /// whose stream state matches the registry's *current* generation. A
    /// stale stream (the registry moved the name since the last mutation)
    /// never answers.
    fn stream_count_for(&self, spec: &QuerySpec) -> Option<u64> {
        if spec.budget.is_some() {
            return None;
        }
        let k = match spec.kind {
            QueryKind::TriangleCount => 3,
            QueryKind::KCliqueCount { k } => k,
            _ => return None,
        };
        let state = self.streams.get(&spec.graph)?;
        if state.generation != self.shared.registry.generation_of(&spec.graph) {
            return None;
        }
        state.miner.count(k)
    }

    /// Unloads and forgets `name`'s stream state, billing the set deletions
    /// to the registry ledger.
    fn drop_stream_state(&mut self, name: &str) {
        let Some(state) = self.streams.remove(name) else {
            return;
        };
        self.bill_registry(|engine| state.miner.unload(engine));
    }
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> &str {
    payload
        .downcast_ref::<&'static str>()
        .copied()
        .or_else(|| payload.downcast_ref::<String>().map(String::as_str))
        .unwrap_or("non-string panic payload")
}

/// Unbudgeted triangle counting through the [`ShardedEngine::execute`]
/// batch path: one `IntersectCount` per oriented edge, flushed in windows,
/// with a streamed progress frame per window.
///
/// Produces exactly the same count as the serial
/// [`sisa_algorithms::setcentric::triangle_count`] kernel (both sum
/// `|N⁺(v) ∩ N⁺(w)|` over every oriented edge `(v, w)`), and the same
/// per-edge `host_ops(2)` loop-control pricing.
fn batched_triangle_count(
    engine: &mut ShardedEngine<SisaRuntime>,
    oriented: &SetGraph,
    window: usize,
    entries: &[Job],
) -> u64 {
    let total_ops: u64 = oriented
        .vertices()
        .map(|v| oriented.neighbors(v).len() as u64)
        .sum();
    let mut ops: Vec<BatchOp> = Vec::with_capacity(window.min(total_ops as usize + 1));
    let mut done: u64 = 0;
    let mut partial: u64 = 0;
    let flush = |engine: &mut ShardedEngine<SisaRuntime>,
                 ops: &mut Vec<BatchOp>,
                 done: &mut u64,
                 partial: &mut u64| {
        if ops.is_empty() {
            return;
        }
        let results = engine.execute(ops);
        *done += ops.len() as u64;
        *partial += results.into_iter().map(|r| r.count() as u64).sum::<u64>();
        ops.clear();
        for job in entries {
            let _ = job.events.send(QueryEvent::Progress {
                done_ops: *done,
                total_ops,
                partial: *partial,
            });
        }
    };
    for v in oriented.vertices() {
        let nv = oriented.neighborhood(v);
        for &w in oriented.neighbors(v) {
            engine.host_ops(2);
            ops.push(BatchOp::IntersectCount(nv, oriented.neighborhood(w)));
            if ops.len() >= window {
                flush(engine, &mut ops, &mut done, &mut partial);
            }
        }
    }
    flush(engine, &mut ops, &mut done, &mut partial);
    partial
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QuerySpec;
    use crate::service::ServiceConfig;
    use sisa_core::{PartitionStrategy, SisaConfig};
    use std::sync::mpsc::channel;

    fn worker() -> Worker {
        let shared = Shared::new(&ServiceConfig::smoke(), Vec::new());
        Worker::new(
            ShardedEngine::sisa(2, PartitionStrategy::Modulo, SisaConfig::default()),
            Arc::new(shared),
            64,
            0,
        )
    }

    #[test]
    fn panic_attribution_folds_partial_work_and_releases_admission() {
        let mut w = worker();
        w.engine.set_universe(16);
        // Real partial engine work, carved out exactly like run_group's scope
        // around a kernel that panics midway would carve it.
        let scope = StatsScope::begin(w.engine.stats());
        let s = w.engine.create_sorted([1, 2, 3]);
        w.engine.host_ops(10);
        w.engine.delete(s);
        let delta = scope.finish(w.engine.stats());
        assert!(delta.total_cycles() > 0, "the partial delta is non-trivial");

        let spec = QuerySpec::new("g", QueryKind::KCliqueCount { k: 0 });
        let (jobs, answers): (Vec<_>, Vec<_>) = ["t", "u"]
            .into_iter()
            .map(|tenant| {
                w.shared.admission.try_admit(tenant).unwrap();
                let (events, rx) = channel();
                let job = Job {
                    tenant: tenant.to_string(),
                    spec: spec.clone(),
                    events,
                    submitted: Instant::now(),
                };
                (job, rx)
            })
            .unzip();
        w.shared
            .fail_jobs(&jobs, Some((&delta, 5)), "query panicked: boom");

        for rx in &answers {
            assert_eq!(
                rx.recv().unwrap(),
                QueryEvent::Failed("query panicked: boom".to_string())
            );
        }
        assert_eq!(w.shared.admission.in_flight(), 0, "the slots are released");
        let ledger = w.shared.ledger.lock().unwrap();
        let usage = &ledger.tenants["t"];
        assert_eq!(usage.failed, 1);
        assert_eq!(usage.queries, 0);
        // The fold is exact (bit-exact energy included): nothing the engine
        // spent is dropped, preserving pool + registry ≡ engines.
        assert_eq!(usage.stats, delta);
        assert_eq!(usage.stats.energy_nj.to_bits(), delta.energy_nj.to_bits());
        // The second job of the group counts a plain failure.
        let coalesced = &ledger.tenants["u"];
        assert_eq!((coalesced.failed, coalesced.wall_ns), (1, 0));
        assert_eq!(coalesced.stats, ExecStats::default());
        drop(ledger);
        let counters = w.shared.metrics_snapshot().counters;
        assert_eq!(counters["sisa_queries_panicked_total"], 1);
    }

    /// Runs `kind` on "g" for tenant "t" through `run_group`, returning the
    /// terminal event.
    fn run(w: &mut Worker, kind: QueryKind, budget: Option<u64>) -> QueryEvent {
        w.shared.admission.try_admit("t").unwrap();
        let (events, rx) = channel();
        let mut spec = QuerySpec::new("g", kind);
        spec.budget = budget;
        w.run_group(JobGroup {
            spec: spec.clone(),
            entries: vec![Job {
                tenant: "t".to_string(),
                spec,
                events,
                submitted: Instant::now(),
            }],
        });
        rx.try_iter().last().expect("a terminal event")
    }

    fn mutation(u: Vertex, v: Vertex) -> QueryKind {
        QueryKind::Mutate(sisa_graph::GraphDelta::new().insert(u, v))
    }

    #[test]
    fn evict_returns_the_engine_to_its_baseline_whichever_state_was_resident() {
        let mut w = worker();
        let g = sisa_graph::generators::erdos_renyi(10, 0.4, 3);
        let baseline = w.engine.live_sets();
        for (mutates, reads) in [(true, false), (false, true), (true, true)] {
            w.shared.registry.register("g", g.clone());
            if mutates {
                assert!(matches!(
                    run(&mut w, mutation(0, 9), None),
                    QueryEvent::Done(_)
                ));
            }
            if reads {
                let read = run(&mut w, QueryKind::KCliqueCount { k: 4 }, Some(2));
                assert!(matches!(read, QueryEvent::Done(_)));
            }
            assert_eq!(w.streams.contains_key("g"), mutates);
            assert_eq!(w.graphs.contains_key("g"), reads);
            assert!(w.engine.live_sets() > baseline);
            w.evict("g");
            assert!(w.streams.is_empty() && w.graphs.is_empty());
            assert_eq!(w.engine.live_sets(), baseline, "{mutates} {reads}");
        }
        assert_eq!(w.shared.admission.in_flight(), 0);
    }

    /// Seen to fail under: `self.evict(name)` restored in `ensure_resident`
    /// (the current stream state is gone after the first reload); the
    /// stream's own-generation check dropped (the stale miner's sets stay
    /// live beside the replaced graph's loads).
    #[test]
    fn a_stale_static_load_takes_the_stream_state_along_only_if_that_is_stale_too() {
        let mut w = worker();
        w.shared
            .registry
            .register("g", sisa_graph::generators::erdos_renyi(10, 0.4, 3));
        run(&mut w, mutation(0, 9), None);
        run(&mut w, QueryKind::KCliqueCount { k: 4 }, Some(2));
        run(&mut w, mutation(1, 8), None);
        let current = w.shared.registry.generation_of("g");
        assert_eq!(w.streams["g"].generation, current);
        assert_eq!(w.graphs["g"].generation, current - 1, "one tick behind");

        // Stale statics beside a current stream: only the statics reload.
        w.ensure_resident("g").unwrap();
        assert_eq!(w.graphs["g"].generation, current);
        assert_eq!(w.streams["g"].generation, current, "the miner stays");
        let counters = w.shared.metrics_snapshot().counters;
        assert_eq!(counters["sisa_stream_loads_total"], 1);
        assert_eq!(counters["sisa_graph_loads_total"], 2);

        // Replaced behind the worker's back: both are stale, both go.
        let replacement = sisa_graph::generators::complete(5);
        w.shared.registry.register("g", replacement.clone());
        w.ensure_resident("g").unwrap();
        assert_eq!(w.graphs["g"].generation, current + 1);
        assert!(w.streams.is_empty(), "a stale miner is unloaded");
        let mut fresh = worker();
        fresh.shared.registry.register("g", replacement);
        fresh.ensure_resident("g").unwrap();
        assert_eq!(w.engine.live_sets(), fresh.engine.live_sets());
    }

    #[test]
    fn panic_messages_unwrap_static_and_owned_payloads() {
        let boxed: Box<dyn std::any::Any + Send> = Box::new("static message");
        assert_eq!(panic_message(boxed.as_ref()), "static message");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(format!("owned {}", 7));
        assert_eq!(panic_message(boxed.as_ref()), "owned 7");
        let boxed: Box<dyn std::any::Any + Send> = Box::new(42u32);
        assert_eq!(panic_message(boxed.as_ref()), "non-string panic payload");
    }
}
