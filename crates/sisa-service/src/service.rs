//! The service itself: configuration, the dispatcher/batcher, the tenant
//! ledger and the in-process client API. The dispatcher is a struct behind
//! a lock, not a thread: a client answers a cache hit on its own thread and
//! queues a miss, and a worker that finishes a group takes its next one.

use crate::admission::{Admission, AdmissionConfig};
use crate::cache::{CacheCounters, CachedResult, ResultCache};
use crate::metrics::{Histogram, MetricsSnapshot};
use crate::query::{QueryEvent, QueryOutcome, QuerySpec, QueryStats, Rejection};
use crate::wfq::WfqScheduler;
use crate::worker::{Worker, WorkerMsg};
use sisa_core::{ExecStats, PartitionStrategy, ShardedEngine, SharedCollector, SisaConfig};
use sisa_graph::{CsrGraph, GraphRegistry, RegistryConfig};
use std::collections::BTreeMap;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Seed for every dataset stand-in a service materialises.
const DATASET_SEED: u64 = 42;

/// Approximate byte bound of the result cache, its second LRU axis beside
/// [`ServiceConfig::cache_entries`].
const CACHE_BYTES: usize = 16 << 20;

/// Everything that shapes a [`SisaService`] instance.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Worker threads, each owning one [`ShardedEngine`]. Queries are routed
    /// to workers by graph affinity, so a graph's shard-resident sets are
    /// loaded on exactly one worker.
    pub workers: usize,
    /// Shards (simulated memory cubes) per worker engine. Every worker
    /// engine partitions its sets with [`PartitionStrategy::Modulo`] on the
    /// default [`SisaConfig`] platform, and loads graphs with the default
    /// [`sisa_core::SetGraphConfig`].
    pub shards: usize,
    /// Admission-control limits (bounded queues, per-tenant quotas).
    pub admission: AdmissionConfig,
    /// Graph-registry limits (residency capacity with LRU eviction).
    pub registry: RegistryConfig,
    /// Maximum entries of the generation-keyed query result cache; `0`
    /// disables caching entirely.
    pub cache_entries: usize,
    /// Weighted-fair-queueing weights per tenant; absent tenants weigh 1.
    /// With equal weights every backlogged tenant gets an equal share of
    /// each worker's throughput regardless of offered load.
    pub tenant_weights: BTreeMap<String, u64>,
    /// Batch operations per `execute` window of a batched (unbudgeted)
    /// triangle count; one streamed progress frame is emitted per window.
    pub progress_window_ops: usize,
    /// An optional telemetry sink shared by every worker engine. Worker `i`
    /// records its shards under trace groups `i * shards ..`, so one
    /// collector receives the whole pool's lane timeline. Observer-only:
    /// attaching a collector never changes results or [`ExecStats`].
    pub collector: Option<SharedCollector>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            workers: 2,
            shards: 4,
            admission: AdmissionConfig::default(),
            registry: RegistryConfig::default(),
            cache_entries: 1024,
            tenant_weights: BTreeMap::new(),
            progress_window_ops: 2048,
            collector: None,
        }
    }
}

impl ServiceConfig {
    /// A small deterministic configuration for tests and CI smoke runs.
    #[must_use]
    pub fn smoke() -> Self {
        ServiceConfig {
            workers: 2,
            shards: 2,
            ..ServiceConfig::default()
        }
    }
}

/// One accepted query travelling from a client to a worker.
pub(crate) struct Job {
    pub(crate) tenant: String,
    pub(crate) spec: QuerySpec,
    pub(crate) events: Sender<QueryEvent>,
    /// When admission accepted the query — the origin of its span timeline.
    pub(crate) submitted: Instant,
}

/// A coalesced batch of identical queries: executed once, fanned out to
/// every entry.
pub(crate) struct JobGroup {
    pub(crate) spec: QuerySpec,
    pub(crate) entries: Vec<Job>,
}

/// Per-tenant accounting, maintained by the workers under the service
/// ledger lock.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct TenantUsage {
    /// Queries executed (billed) for this tenant.
    pub queries: u64,
    /// Streaming mutations applied (billed) for this tenant. Counted apart
    /// from `queries`: a mutation changes the graph rather than answering a
    /// question about it.
    pub mutations: u64,
    /// Responses served from a coalesced execution at zero cost.
    pub coalesced: u64,
    /// Responses served from the result cache at zero engine cost. Like
    /// coalesced responses these also count in `queries` (the tenant got an
    /// answer) while merging nothing into `stats` — which is what keeps the
    /// pool + registry ≡ engines conservation identity exact.
    pub cache_hits: u64,
    /// Queries that failed (e.g. unknown graph).
    pub failed: u64,
    /// Total host wall-clock nanoseconds of billed executions.
    pub wall_ns: u64,
    /// Exact simulated-work attribution, carved per query with
    /// [`sisa_core::StatsScope`].
    pub stats: ExecStats,
}

/// The service-wide ledger: per-tenant usage plus the registry overheads
/// (graph loads, evictions) that are deliberately billed to no tenant. No
/// row is ever removed, so the service totals are folds of the rows, taken
/// when [`SisaService::report`] reads them. It also keeps the worker events
/// no row bills (panics, stream loads and serves) and the span histogram of
/// every answered query.
#[derive(Debug, Default)]
pub(crate) struct LedgerInner {
    pub(crate) tenants: BTreeMap<String, TenantUsage>,
    pub(crate) registry_stats: ExecStats,
    pub(crate) graph_loads: u64,
    pub(crate) evictions: u64,
    panicked: u64,
    pub(crate) stream_loads: u64,
    pub(crate) stream_serves: u64,
    queue_ns: Histogram,
    latency_ns: Histogram,
}

impl LedgerInner {
    fn tenant(&mut self, tenant: &str) -> &mut TenantUsage {
        // A known tenant's row is found without allocating its key.
        if !self.tenants.contains_key(tenant) {
            self.tenants
                .insert(tenant.to_string(), TenantUsage::default());
        }
        self.tenants.get_mut(tenant).expect("row inserted")
    }

    /// Records one answered query's admission-to-pickup and
    /// admission-to-answer spans.
    pub(crate) fn observe_spans(&mut self, queue_ns: u64, span_ns: u64) {
        self.queue_ns.observe(queue_ns);
        self.latency_ns.observe(span_ns);
    }

    pub(crate) fn record_query(&mut self, tenant: &str, delta: &ExecStats, wall_ns: u64) {
        let usage = self.tenant(tenant);
        usage.queries += 1;
        usage.wall_ns += wall_ns;
        usage.stats.merge(delta);
    }

    pub(crate) fn record_coalesced(&mut self, tenant: &str) {
        let usage = self.tenant(tenant);
        usage.queries += 1;
        usage.coalesced += 1;
    }

    /// Accounts a response served from the result cache: the tenant got an
    /// answer (`queries`) in a dedicated `cache_hits` column,
    /// with **zero** execution stats merged — no engine cycle was spent, so
    /// nothing may enter the conservation identity.
    pub(crate) fn record_cache_hit(&mut self, tenant: &str) {
        let usage = self.tenant(tenant);
        usage.queries += 1;
        usage.cache_hits += 1;
    }

    /// Accounts an applied streaming mutation: billed to the mutating
    /// tenant exactly like a query's execution delta (so conservation stays
    /// exact), but counted in its own `mutations` column — the tenant
    /// changed the graph, it did not get a mining answer.
    pub(crate) fn record_mutation(&mut self, tenant: &str, delta: &ExecStats, wall_ns: u64) {
        let usage = self.tenant(tenant);
        usage.mutations += 1;
        usage.wall_ns += wall_ns;
        usage.stats.merge(delta);
    }

    pub(crate) fn record_failed(&mut self, tenant: &str) {
        self.tenant(tenant).failed += 1;
    }

    /// Bills the partial work of a *panicked* execution to its tenant. The
    /// engine cycles were really spent, so dropping the delta would break the
    /// pool + registry ≡ engines conservation identity; instead the partial
    /// stats fold into the tenant's ledger exactly like a completed query's,
    /// while the query itself counts as failed (not completed).
    pub(crate) fn record_panicked(&mut self, tenant: &str, delta: &ExecStats, wall_ns: u64) {
        self.panicked += 1;
        let usage = self.tenant(tenant);
        usage.failed += 1;
        usage.wall_ns += wall_ns;
        usage.stats.merge(delta);
    }

    /// The ledger's columns of a [`ServiceReport`]: the request counts
    /// summed over the tenant rows, and the registry's load and eviction
    /// counts.
    fn report(&self) -> ServiceReport {
        let mut report = ServiceReport {
            graph_loads: self.graph_loads,
            evictions: self.evictions,
            ..ServiceReport::default()
        };
        for usage in self.tenants.values() {
            report.completed += usage.queries + usage.mutations;
            report.mutations += usage.mutations;
            report.coalesced += usage.coalesced;
            report.cache_hits += usage.cache_hits;
            report.failed += usage.failed;
        }
        report
    }

    /// Writes the ledger's series into `snapshot`: the request and registry
    /// counters of [`LedgerInner::report`], the panic and stream counters
    /// and the span histograms.
    fn export(&self, snapshot: &mut MetricsSnapshot) {
        let report = self.report();
        for (name, value) in [
            ("sisa_queries_completed_total", report.completed),
            ("sisa_queries_coalesced_total", report.coalesced),
            ("sisa_queries_failed_total", report.failed),
            ("sisa_queries_panicked_total", self.panicked),
            ("sisa_mutations_total", report.mutations),
            ("sisa_graph_loads_total", report.graph_loads),
            ("sisa_graph_evictions_total", report.evictions),
            ("sisa_stream_loads_total", self.stream_loads),
            ("sisa_stream_serves_total", self.stream_serves),
        ] {
            snapshot.count(name, value);
        }
        self.queue_ns.export(snapshot, "sisa_query_queue_ns");
        self.latency_ns.export(snapshot, "sisa_query_latency_ns");
    }
}

/// The state every service thread shares: the client handles and the
/// workers each hold one `Arc` of it. Each fact has one owner here, and
/// [`Shared::metrics_snapshot`] reads every series off its owner.
///
/// Lock order: `dispatcher` → `registry` / `cache` → `ledger` →
/// `admission`. A worker calls [`Dispatcher::finished`] only after
/// settling a group has released the ledger, so no path takes the
/// dispatcher lock while it holds the ledger lock.
pub(crate) struct Shared {
    pub(crate) dispatcher: Mutex<Dispatcher>,
    pub(crate) registry: GraphRegistry,
    pub(crate) admission: Admission,
    pub(crate) ledger: Mutex<LedgerInner>,
    pub(crate) cache: ResultCache,
}

impl Shared {
    /// The state of a service configured by `cfg` whose worker `i` reads
    /// the receiver of `worker_txs[i]`.
    pub(crate) fn new(cfg: &ServiceConfig, worker_txs: Vec<Sender<WorkerMsg>>) -> Self {
        Shared {
            dispatcher: Mutex::new(Dispatcher::new(worker_txs, &cfg.tenant_weights)),
            registry: GraphRegistry::with_config(DATASET_SEED, cfg.registry.clone()),
            admission: Admission::new(cfg.admission.clone()),
            ledger: Mutex::new(LedgerInner::default()),
            cache: ResultCache::new(cfg.cache_entries, CACHE_BYTES),
        }
    }

    /// Serves a cache hit: the stored value and the original execution's
    /// stats, marked `cache_hit`, with this response's own real timings and
    /// zero engine cycles billed (ledger `cache_hits` column).
    fn serve_hit(&self, job: Job, hit: &CachedResult) {
        let queue_ns = ns(job.submitted.elapsed());
        let mut ledger = self.ledger.lock().expect("ledger lock");
        ledger.record_cache_hit(&job.tenant);
        let span_ns = ns(job.submitted.elapsed());
        ledger.observe_spans(queue_ns, span_ns);
        drop(ledger);
        let stats = QueryStats::from_cached(&hit.stats).with_spans(queue_ns, 0, span_ns);
        // Release the slot *before* the terminal event: a hit was never
        // queued or executing, and a client observing its completion must
        // already see the slot free.
        self.admission.complete(&job.tenant);
        let _ = job.events.send(QueryEvent::Done(QueryOutcome {
            value: hit.value,
            truncated: hit.truncated,
            stats,
        }));
    }

    /// Fails every job of `jobs` with `error`, releasing each admission
    /// slot. When their execution panicked, `panicked` holds its partial
    /// delta and wall time: the first job's tenant absorbs them (the cycles
    /// were really spent — discarding them would break the pool + registry
    /// ≡ engines conservation identity); every other job counts one plain
    /// failure.
    pub(crate) fn fail_jobs(&self, jobs: &[Job], panicked: Option<(&ExecStats, u64)>, error: &str) {
        let mut ledger = self.ledger.lock().expect("ledger lock");
        for (i, job) in jobs.iter().enumerate() {
            match panicked {
                Some((delta, wall_ns)) if i == 0 => {
                    ledger.record_panicked(&job.tenant, delta, wall_ns);
                }
                _ => ledger.record_failed(&job.tenant),
            }
            let _ = job.events.send(QueryEvent::Failed(error.to_string()));
            self.admission.complete(&job.tenant);
        }
    }

    fn report(&self) -> ServiceReport {
        let report = self.ledger.lock().expect("ledger lock").report();
        ServiceReport {
            rejected: self.admission.rejected(),
            in_flight: self.admission.in_flight(),
            ..report
        }
    }

    /// Every series, read off its owner: the ledger, the dispatcher, the
    /// admission controller and the cache. A counter appears once it is
    /// non-zero, a histogram once it has an observation and the hit-ratio
    /// gauge once the cache has counted a lookup. The locks are taken one
    /// at a time: workers touch `admission` while they hold the ledger lock.
    pub(crate) fn metrics_snapshot(&self) -> MetricsSnapshot {
        let mut snapshot = MetricsSnapshot::default();
        self.ledger
            .lock()
            .expect("ledger lock")
            .export(&mut snapshot);
        self.dispatcher
            .lock()
            .expect("dispatcher lock")
            .export(&mut snapshot);
        self.admission.export(&mut snapshot);
        let cache = self.cache.counters();
        snapshot.count("sisa_cache_hits_total", cache.hits);
        snapshot.count("sisa_cache_misses_total", cache.misses);
        snapshot.count("sisa_cache_evictions_total", cache.evictions);
        if let Some(permille) = (cache.hits * 1000).checked_div(cache.hits + cache.misses) {
            let name = "sisa_cache_hit_ratio_permille".to_string();
            snapshot.gauges.insert(name, permille as i64);
        }
        snapshot
    }
}

/// A snapshot of the service's aggregate counters.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct ServiceReport {
    /// Requests completed (executed + coalesced + cache hits + mutations).
    pub completed: u64,
    /// Streaming mutations applied.
    pub mutations: u64,
    /// Responses served by coalescing.
    pub coalesced: u64,
    /// Responses served from the result cache at zero engine cost.
    pub cache_hits: u64,
    /// Failed queries.
    pub failed: u64,
    /// Admission rejections (backpressure).
    pub rejected: u64,
    /// Queries currently in flight.
    pub in_flight: usize,
    /// Graph loads performed across all workers.
    pub graph_loads: u64,
    /// Graph evictions performed across all workers.
    pub evictions: u64,
}

/// A handle to one accepted query: a stream of [`QueryEvent`]s ending in
/// `Done` or `Failed`.
pub struct QueryHandle {
    rx: Receiver<QueryEvent>,
}

impl QueryHandle {
    /// Blocks for the next event; `None` once the stream is exhausted (or
    /// the service dropped the query during shutdown).
    pub fn next_event(&self) -> Option<QueryEvent> {
        self.rx.recv().ok()
    }

    /// Drains the stream to completion, discarding progress frames.
    ///
    /// # Errors
    ///
    /// Returns the failure message for failed queries, or a shutdown notice
    /// when the service dropped the query.
    pub fn wait(self) -> Result<QueryOutcome, String> {
        loop {
            match self.rx.recv() {
                Ok(QueryEvent::Progress { .. }) => {}
                Ok(QueryEvent::Done(outcome)) => return Ok(outcome),
                Ok(QueryEvent::Failed(error)) => return Err(error),
                Err(_) => return Err("service shut down before the query completed".to_string()),
            }
        }
    }
}

/// A cheap, cloneable submission handle — give one to every client thread
/// (and to the TCP transport).
#[derive(Clone)]
pub struct ServiceClient {
    shared: Arc<Shared>,
}

impl ServiceClient {
    /// Submits a query for `tenant`, subject to admission control. A query
    /// the current graph generation holds in the result cache is answered
    /// here, on the caller's thread (a hit never occupies more of its
    /// admission slot than a map lookup); anything else is queued for its
    /// affinity worker. After [`SisaService::close`] only a cache hit is
    /// still answered: a hit needs no worker.
    ///
    /// # Errors
    ///
    /// Returns the [`Rejection`] (with a retry hint) when the service is
    /// saturated, the tenant's quota is exhausted, or the service is
    /// shutting down.
    pub fn submit(&self, tenant: &str, spec: QuerySpec) -> Result<QueryHandle, Rejection> {
        let shared = &*self.shared;
        let admission = &shared.admission;
        admission.try_admit(tenant)?;
        let (events, rx) = channel();
        let job = Job {
            tenant: tenant.to_string(),
            spec,
            events,
            submitted: Instant::now(),
        };
        if !job.spec.kind.is_mutation() {
            let generation = shared.registry.generation_of(&job.spec.graph);
            if let Some(hit) = shared.cache.get(generation, &job.spec) {
                shared.serve_hit(job, &hit);
                return Ok(QueryHandle { rx });
            }
        }
        let queued = shared
            .dispatcher
            .lock()
            .expect("dispatcher lock")
            .enqueue(shared, job);
        if !queued {
            admission.refuse(tenant);
            return Err(Rejection {
                retry_after_ms: admission.config().retry_after_ms.max(1),
                reason: "service is shutting down".to_string(),
            });
        }
        Ok(QueryHandle { rx })
    }

    /// A snapshot of the service's metrics — what the TCP transport
    /// returns for a `metrics` request (see [`SisaService::metrics_snapshot`]).
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics_snapshot()
    }
}

struct WorkerHandle {
    tx: Sender<WorkerMsg>,
    join: Option<JoinHandle<()>>,
}

/// The multi-tenant graph-mining service: a graph registry, an admission
/// controller, a coalescing dispatcher and a pool of sharded-engine
/// workers.
///
/// See the crate docs for a quickstart.
pub struct SisaService {
    cfg: ServiceConfig,
    shared: Arc<Shared>,
    workers: Vec<WorkerHandle>,
}

impl SisaService {
    /// Starts the worker pool: one thread per worker, none besides.
    ///
    /// # Panics
    ///
    /// Panics when `cfg.workers` or `cfg.shards` is zero.
    #[must_use]
    pub fn start(cfg: ServiceConfig) -> Self {
        assert!(cfg.workers > 0, "a service needs at least one worker");
        assert!(cfg.shards > 0, "worker engines need at least one shard");
        let (worker_txs, worker_rxs): (Vec<_>, Vec<_>) =
            (0..cfg.workers).map(|_| channel::<WorkerMsg>()).unzip();
        let shared = Arc::new(Shared::new(&cfg, worker_txs.clone()));

        let mut workers = Vec::with_capacity(cfg.workers);
        for (i, (tx, rx)) in worker_txs.into_iter().zip(worker_rxs).enumerate() {
            let shared = Arc::clone(&shared);
            let collector = cfg.collector.clone();
            let shards = cfg.shards;
            let window = cfg.progress_window_ops;
            let join = std::thread::Builder::new()
                .name(format!("sisa-service-worker-{i}"))
                .spawn(move || {
                    let mut engine = ShardedEngine::sisa(
                        shards,
                        PartitionStrategy::Modulo,
                        SisaConfig::default(),
                    );
                    if let Some(collector) = collector {
                        // Worker i's shards land on trace groups i*shards ..,
                        // so the pool shares one collector without clashes.
                        engine.attach_collector(collector, (i * shards) as u32);
                    }
                    Worker::new(engine, shared, window, i).run(&rx);
                })
                .expect("spawn worker thread");
            workers.push(WorkerHandle {
                tx,
                join: Some(join),
            });
        }

        SisaService {
            cfg,
            shared,
            workers,
        }
    }

    /// A cloneable submission handle for client threads and transports.
    #[must_use]
    pub fn client(&self) -> ServiceClient {
        ServiceClient {
            shared: Arc::clone(&self.shared),
        }
    }

    /// Submits a query for `tenant` (convenience over [`SisaService::client`]).
    ///
    /// # Errors
    ///
    /// Returns the [`Rejection`] when admission control refuses the query.
    pub fn submit(&self, tenant: &str, spec: QuerySpec) -> Result<QueryHandle, Rejection> {
        self.client().submit(tenant, spec)
    }

    /// The shared named-graph registry.
    #[must_use]
    pub fn registry(&self) -> &GraphRegistry {
        &self.shared.registry
    }

    /// Registers a caller-supplied graph under `name` (evicting any resident
    /// load of a previous graph of that name first), making it queryable.
    pub fn register_graph(&self, name: &str, graph: CsrGraph) {
        for worker in &self.workers {
            let _ = worker.tx.send(WorkerMsg::Evict(name.to_string()));
        }
        let _ = self.shared.registry.register(name, graph);
    }

    /// Evicts `name` everywhere: drops the registry handle and the
    /// shard-resident sets on every worker. In-flight queries already past
    /// admission finish normally (eviction is processed in queue order
    /// behind them). Returns whether the registry held the name.
    pub fn evict_graph(&self, name: &str) -> bool {
        let existed = self.shared.registry.evict(name);
        for worker in &self.workers {
            let _ = worker.tx.send(WorkerMsg::Evict(name.to_string()));
        }
        existed
    }

    /// Per-tenant usage, exactly attributing the pool's simulated work.
    #[must_use]
    pub fn tenant_usage(&self) -> BTreeMap<String, TenantUsage> {
        self.shared
            .ledger
            .lock()
            .expect("ledger lock")
            .tenants
            .clone()
    }

    /// The pool aggregate: the fold of every tenant's attributed stats, in
    /// tenant order. By construction the per-tenant records sum exactly
    /// (bit-exact energy included) to this aggregate; together with
    /// [`SisaService::registry_stats`] it telescopes integer-exactly to the
    /// raw engine counters ([`SisaService::engine_stats`]).
    #[must_use]
    pub fn pool_stats(&self) -> ExecStats {
        let ledger = self.shared.ledger.lock().expect("ledger lock");
        let mut total = ExecStats::default();
        for usage in ledger.tenants.values() {
            total.merge(&usage.stats);
        }
        total
    }

    /// Registry overheads (graph loads and evictions) billed to no tenant.
    #[must_use]
    pub fn registry_stats(&self) -> ExecStats {
        self.shared
            .ledger
            .lock()
            .expect("ledger lock")
            .registry_stats
    }

    /// The raw aggregate statistics of every worker engine, folded in worker
    /// order. Acts as a barrier: each worker replies only after finishing
    /// all previously queued work.
    #[must_use]
    pub fn engine_stats(&self) -> ExecStats {
        let mut total = ExecStats::default();
        for stats in self.worker_engine_stats() {
            total.merge(&stats);
        }
        total
    }

    /// Per-worker engine aggregates, in worker order (see
    /// [`SisaService::engine_stats`]).
    #[must_use]
    pub(crate) fn worker_engine_stats(&self) -> Vec<ExecStats> {
        let mut replies = Vec::with_capacity(self.workers.len());
        for worker in &self.workers {
            let (tx, rx) = channel();
            if worker.tx.send(WorkerMsg::Report(tx)).is_ok() {
                if let Ok(stats) = rx.recv() {
                    replies.push(stats);
                }
            }
        }
        replies
    }

    /// The service's metrics: counters, gauges and latency histograms, each
    /// read off the record that owns it. The query, mutation, graph, panic
    /// and stream counters and the latency histograms come off the tenant
    /// ledger; the submission counter and the `sisa_admission_*` series off
    /// the admission controller; the `sisa_cache_*` series off the result
    /// cache; the group counter and the WFQ depth gauges off the dispatcher.
    #[must_use]
    pub fn metrics_snapshot(&self) -> MetricsSnapshot {
        self.shared.metrics_snapshot()
    }

    /// Aggregate service counters: the request columns are summed over the
    /// tenant ledger's rows.
    #[must_use]
    pub fn report(&self) -> ServiceReport {
        self.shared.report()
    }

    /// The configuration the service was started with.
    #[must_use]
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// An atomic sample of the result cache's counters (hits, misses,
    /// evictions, residency).
    #[must_use]
    pub fn cache_counters(&self) -> CacheCounters {
        self.shared.cache.counters()
    }

    /// Stops accepting queries, drains the pipeline and joins every thread.
    /// Queries still queued when `close` is called receive `Failed` events;
    /// a client kept past `close` is refused.
    pub fn close(mut self) {
        self.shutdown();
    }

    fn shutdown(&mut self) {
        let shared = &self.shared;
        // Fail everything still queued: the queues are bounded and nothing
        // may linger.
        let leftovers = shared.dispatcher.lock().expect("dispatcher lock").close();
        shared.fail_jobs(&leftovers, None, "service shut down");
        for worker in &self.workers {
            let _ = worker.tx.send(WorkerMsg::Shutdown);
        }
        for worker in &mut self.workers {
            if let Some(join) = worker.join.take() {
                let _ = join.join();
            }
        }
    }
}

impl Drop for SisaService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// Routes a graph name to its affinity worker (FNV-1a over the name), so
/// each graph is loaded into shard-resident sets on exactly one worker.
pub(crate) fn worker_for(graph: &str, workers: usize) -> usize {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in graph.bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % workers as u64) as usize
}

/// Saturating nanoseconds of a host duration.
pub(crate) fn ns(duration: Duration) -> u64 {
    u64::try_from(duration.as_nanos()).unwrap_or(u64::MAX)
}

/// Maximum identical queries one worker dispatch coalesces into a single
/// execution (the group-size cap of the coalescing drain).
const COALESCE_WINDOW: usize = 16;

/// The dispatcher: per-worker WFQ backlogs and flow-controlled assignment
/// (at most one group outstanding per worker, so service order is decided
/// here — by weighted deficit round-robin — rather than in unbounded worker
/// channels). It is a struct behind [`Shared::dispatcher`], not a thread:
/// clients call [`Dispatcher::enqueue`] and workers call
/// [`Dispatcher::finished`], each on its own thread.
pub(crate) struct Dispatcher {
    worker_txs: Vec<Sender<WorkerMsg>>,
    /// One WFQ backlog per worker: affinity routing happens at enqueue, so
    /// fairness is enforced where it matters — on each worker's serial
    /// execution capacity.
    schedulers: Vec<WfqScheduler<Job>>,
    busy: Vec<bool>,
    /// Groups handed to workers over the dispatcher's lifetime.
    groups: u64,
    /// Set by [`Dispatcher::close`]: every later `enqueue` is refused.
    closed: bool,
}

impl Dispatcher {
    pub(crate) fn new(worker_txs: Vec<Sender<WorkerMsg>>, weights: &BTreeMap<String, u64>) -> Self {
        let workers = worker_txs.len();
        Dispatcher {
            worker_txs,
            schedulers: (0..workers)
                .map(|_| WfqScheduler::new(weights.clone()))
                .collect(),
            busy: vec![false; workers],
            groups: 0,
            closed: false,
        }
    }

    /// Queues an admitted job that missed the cache under its tenant on its
    /// affinity worker, and hands that worker a group if it is idle.
    /// Mutations always come here — they are what *invalidates* the cache —
    /// so they stay ordered behind earlier queries on the same graph (same
    /// affinity worker, same WFQ backlog). Returns `false`, dropping the
    /// job, after [`Dispatcher::close`].
    #[must_use]
    pub(crate) fn enqueue(&mut self, shared: &Shared, job: Job) -> bool {
        if self.closed {
            return false;
        }
        let worker = worker_for(&job.spec.graph, self.schedulers.len());
        let tenant = job.tenant.clone();
        self.schedulers[worker].enqueue(&tenant, job);
        self.assign(shared, worker);
        true
    }

    /// Worker `worker` settled its outstanding group: it takes its next one.
    pub(crate) fn finished(&mut self, shared: &Shared, worker: usize) {
        self.busy[worker] = false;
        self.assign(shared, worker);
    }

    /// Refuses every later `enqueue` and returns every job still queued.
    pub(crate) fn close(&mut self) -> Vec<Job> {
        self.closed = true;
        let mut leftovers = Vec::new();
        for scheduler in &mut self.schedulers {
            leftovers.extend(scheduler.drain_all().into_iter().map(|(_, job)| job));
        }
        leftovers
    }

    /// Hands `worker`, if idle, its next WDRR-ordered group. A job whose
    /// result landed in the cache while it was queued (an identical query
    /// executed ahead of it) is served as a hit here instead of re-executing.
    fn assign(&mut self, shared: &Shared, worker: usize) {
        while !self.busy[worker] {
            let Some((_, job)) = self.schedulers[worker].pop() else {
                return;
            };
            let mutation = job.spec.kind.is_mutation();
            if !mutation {
                let generation = shared.registry.generation_of(&job.spec.graph);
                if let Some(hit) = shared.cache.recheck(generation, &job.spec) {
                    shared.serve_hit(job, &hit);
                    continue;
                }
            }
            let spec = job.spec.clone();
            let mut entries = vec![job];
            // Mutations are never coalesced: every mutate request is an
            // intent to change the graph and executes by itself, in
            // queue order.
            if !mutation {
                let siblings =
                    self.schedulers[worker].drain_matching(COALESCE_WINDOW - 1, |j| j.spec == spec);
                entries.extend(siblings.into_iter().map(|(_, sibling)| sibling));
            }
            self.groups += 1;
            let group = JobGroup { spec, entries };
            if self.worker_txs[worker].send(WorkerMsg::Run(group)).is_err() {
                return;
            }
            self.busy[worker] = true;
        }
    }

    /// Writes the dispatcher's series into `snapshot`: the group counter
    /// once it is non-zero, and each backlogged tenant's WFQ depth summed
    /// over the workers. The schedulers prune a drained tenant, so a gauge
    /// exists only while its backlog is non-zero.
    fn export(&self, snapshot: &mut MetricsSnapshot) {
        snapshot.count("sisa_dispatch_groups_total", self.groups);
        for scheduler in &self.schedulers {
            for tenant in scheduler.backlogged() {
                let name = format!("sisa_wfq_queue_depth{{tenant=\"{tenant}\"}}");
                *snapshot.gauges.entry(name).or_default() += scheduler.depth(&tenant) as i64;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryKind;
    use std::sync::mpsc::channel;

    fn job(tenant: &str, spec: QuerySpec) -> Job {
        let (events, _rx) = channel();
        // The receiver is dropped: these jobs only exercise scheduling.
        Job {
            tenant: tenant.to_string(),
            spec,
            events,
            submitted: Instant::now(),
        }
    }

    #[test]
    fn wfq_coalescing_drains_identical_specs_but_not_budget_variants() {
        let tc = QuerySpec::new("g", QueryKind::TriangleCount);
        let budgeted = tc.clone().with_budget(5);
        let mut scheduler: WfqScheduler<Job> = WfqScheduler::new(BTreeMap::new());
        scheduler.enqueue("a", job("a", tc.clone()));
        scheduler.enqueue("b", job("b", budgeted.clone()));
        scheduler.enqueue("c", job("c", tc.clone()));
        let (_, first) = scheduler.pop().expect("something queued");
        let spec = first.spec.clone();
        let siblings = scheduler.drain_matching(15, |j| j.spec == spec);
        assert_eq!(siblings.len(), 1, "only the identical spec coalesces");
        assert_ne!(siblings[0].1.spec, budgeted);
        assert_eq!(scheduler.len(), 1, "the budget variant stays queued");
    }

    /// A service state with one worker whose receiver the test reads, and
    /// no threads: groups leave only when a test calls `enqueue` or
    /// `finished`.
    fn one_worker(weights: &[(&str, u64)]) -> (Shared, Receiver<WorkerMsg>) {
        let cfg = ServiceConfig {
            workers: 1,
            tenant_weights: weights.iter().map(|&(t, w)| (t.to_string(), w)).collect(),
            ..ServiceConfig::smoke()
        };
        let (tx, rx) = channel();
        (Shared::new(&cfg, vec![tx]), rx)
    }

    fn enqueue(shared: &Shared, job: Job) {
        let queued = shared.dispatcher.lock().unwrap().enqueue(shared, job);
        assert!(queued, "the dispatcher is open");
    }

    fn finished(shared: &Shared) {
        shared.dispatcher.lock().unwrap().finished(shared, 0);
    }

    /// The groups sent to the worker since the last call.
    fn sent(rx: &Receiver<WorkerMsg>) -> Vec<JobGroup> {
        rx.try_iter()
            .map(|msg| match msg {
                WorkerMsg::Run(group) => group,
                _ => panic!("the dispatcher sends only groups"),
            })
            .collect()
    }

    /// Distinct budgets keep the specs apart, so nothing coalesces.
    fn distinct(i: u64) -> QuerySpec {
        QuerySpec::new("g", QueryKind::TriangleCount).with_budget(1_000 + i)
    }

    #[test]
    fn a_heavy_backlog_is_handed_out_in_weighted_round_robin_order() {
        let (shared, rx) = one_worker(&[("heavy", 3)]);
        for i in 0..20 {
            enqueue(&shared, job("heavy", distinct(i)));
        }
        for i in 0..2 {
            enqueue(&shared, job("light", distinct(100 + i)));
        }
        let mut order = String::new();
        let mut record = |groups: Vec<JobGroup>| {
            assert_eq!(groups.len(), 1, "one group outstanding at a time");
            order.push_str(&groups[0].entries[0].tenant[..1]);
        };
        // The first heavy job found the worker idle; the rest queued.
        record(sent(&rx));
        for _ in 0..21 {
            finished(&shared);
            record(sent(&rx));
        }
        // Each round serves the shorter backlog first, one job for weight 1
        // and three for weight 3.
        let expected = format!("h{}{}{}", "lhhh", "lhhh", "h".repeat(13));
        assert_eq!(order, expected);
        finished(&shared);
        assert!(sent(&rx).is_empty(), "the backlog is empty");
    }

    /// The heavy tenant's weight: its executions per deficit round-robin round.
    const HEAVY_WEIGHT: u64 = 3;

    /// A heavy tenant keeps 10 queries queued (a closed loop) while a light
    /// tenant submits one at a time. The test thread plays the dispatcher's
    /// worker — it runs each group it is sent through a real
    /// [`Worker::run_group`] and then hands the worker its next one — and
    /// both clients, which resubmit once the worker has taken that next
    /// group. For each light query it counts the heavy executions the ledger
    /// records between its submission and its answer. No thread runs, so
    /// no client wake-up enters the count.
    ///
    /// Deficit round-robin bounds the count: a light query that arrives
    /// mid-round waits for the rest of that round — the execution running
    /// when it arrived included — so for at most `HEAVY_WEIGHT` heavy
    /// executions, and it is served first in the next round (shortest queue
    /// first). In steady state it sees exactly `HEAVY_WEIGHT`: the heavy
    /// round starts as the light client resubmits. A FIFO queue puts it
    /// behind the whole heavy backlog.
    ///
    /// Mutations this test fails under:
    /// - FIFO: `Dispatcher::enqueue` queues every job under one tenant key,
    ///   so the WDRR queues degenerate to arrival order.
    /// - Weight-blind: `WfqScheduler::weight` returns 1, so the heavy tenant
    ///   gets one execution per round.
    #[test]
    fn a_10x_heavy_tenant_delays_a_light_query_by_at_most_one_weighted_round() {
        const LIGHT_QUERIES: usize = 40;
        const HEAVY_IN_FLIGHT: usize = 10;
        let (shared, rx) = one_worker(&[("heavy", HEAVY_WEIGHT)]);
        let shared = Arc::new(shared);
        let graph = sisa_graph::generators::erdos_renyi(24, 0.3, 11);
        shared.registry.register("g", graph);
        let engine = ShardedEngine::sisa(2, PartitionStrategy::Modulo, SisaConfig::default());
        let mut worker = Worker::new(engine, Arc::clone(&shared), 64, 0);
        let heavy_done = || {
            let ledger = shared.ledger.lock().unwrap();
            ledger.tenants.get("heavy").map_or(0, |usage| usage.queries)
        };
        // Every submission has its own budget, so neither coalescing nor
        // the result cache can mask scheduling: every query executes.
        let mut budgets = 0..;
        let mut submit = |tenant: &str| {
            let spec = distinct(budgets.next().expect("unbounded"));
            enqueue(&shared, job(tenant, spec));
        };
        for _ in 0..HEAVY_IN_FLIGHT {
            submit("heavy");
        }
        let mut light_since = None;
        let mut counts = Vec::new();
        while counts.len() < LIGHT_QUERIES {
            // Measure against a backlogged worker: a full heavy round first.
            if light_since.is_none() && heavy_done() >= HEAVY_WEIGHT {
                light_since = Some(heavy_done());
                submit("light");
            }
            let mut groups = sent(&rx);
            assert_eq!(groups.len(), 1, "one group outstanding at a time");
            let group = groups.pop().expect("one group");
            let tenant = group.entries[0].tenant.clone();
            worker.run_group(group);
            finished(&shared);
            if tenant == "light" {
                let since = light_since.expect("a light query was submitted");
                counts.push(heavy_done() - since);
                light_since = Some(heavy_done());
            }
            submit(&tenant);
        }
        let report = shared.report();
        assert_eq!((report.cache_hits, report.coalesced), (0, 0));

        counts.sort_unstable();
        let (median, max) = (counts[counts.len() / 2], counts[counts.len() - 1]);
        assert!(
            max <= HEAVY_WEIGHT,
            "a light query waited for up to {max} heavy executions; \
             one weight-{HEAVY_WEIGHT} round allows {HEAVY_WEIGHT}: {counts:?}"
        );
        assert_eq!(
            median, HEAVY_WEIGHT,
            "the heavy tenant got {median} executions per round (median), not its \
             weight {HEAVY_WEIGHT}: {counts:?}"
        );
    }

    #[test]
    fn identical_specs_leave_as_one_window_while_a_budget_variant_stays_queued() {
        let (shared, rx) = one_worker(&[]);
        let tc = QuerySpec::new("g", QueryKind::TriangleCount);
        let budgeted = tc.clone().with_budget(5);
        enqueue(&shared, job("a", distinct(0)));
        for i in 0..21 {
            let spec = if i == 10 { &budgeted } else { &tc };
            enqueue(&shared, job(["a", "b"][i % 2], spec.clone()));
        }
        assert_eq!(
            sent(&rx).len(),
            1,
            "only the first job found the worker idle"
        );
        let mut groups = Vec::new();
        for _ in 0..3 {
            finished(&shared);
            groups.extend(sent(&rx));
        }
        let shape: Vec<(bool, usize)> = groups
            .iter()
            .map(|g| (g.spec == tc, g.entries.len()))
            .collect();
        assert_eq!(shape, [(true, COALESCE_WINDOW), (false, 1), (true, 4)]);
        assert!(groups
            .iter()
            .all(|g| g.entries.iter().all(|job| job.spec == g.spec)));
        let counters = shared.metrics_snapshot().counters;
        assert_eq!(counters["sisa_dispatch_groups_total"], 4);
    }

    /// Seen to fail with the gauge loop dropped from `Dispatcher::export`.
    #[test]
    fn the_wfq_depth_gauge_reads_the_backlog_and_goes_when_it_drains() {
        let (shared, rx) = one_worker(&[]);
        let depth = |shared: &Shared| {
            let gauges = shared.metrics_snapshot().gauges;
            gauges.get("sisa_wfq_queue_depth{tenant=\"t\"}").copied()
        };
        enqueue(&shared, job("a", distinct(0)));
        let tc = QuerySpec::new("g", QueryKind::TriangleCount);
        enqueue(&shared, job("t", tc.clone()));
        enqueue(&shared, job("t", tc));
        assert_eq!(sent(&rx).len(), 1, "two jobs queue behind a busy worker");
        assert_eq!(depth(&shared), Some(2));
        let gauges = shared.metrics_snapshot().gauges;
        assert!(!gauges.contains_key("sisa_wfq_queue_depth{tenant=\"a\"}"));

        finished(&shared);
        assert_eq!(
            sent(&rx)[0].entries.len(),
            2,
            "the twins leave as one group"
        );
        assert_eq!(depth(&shared), None, "a drained backlog has no gauge");
    }

    #[test]
    fn a_queued_twin_of_a_cached_result_is_answered_by_the_recheck() {
        let (shared, rx) = one_worker(&[]);
        let spec = QuerySpec::new("g", QueryKind::TriangleCount);
        enqueue(&shared, job("a", distinct(0)));
        shared.admission.try_admit("t").unwrap();
        let (events, answers) = channel();
        let twin = Job {
            tenant: "t".to_string(),
            spec: spec.clone(),
            events,
            submitted: Instant::now(),
        };
        enqueue(&shared, twin);
        assert_eq!(sent(&rx).len(), 1, "the twin queues behind the worker");
        let generation = shared.registry.generation_of("g");
        let stats = QueryStats::from_delta(&ExecStats::default(), 1);
        let result = CachedResult {
            value: 7,
            truncated: false,
            stats,
        };
        shared.cache.insert(generation, &spec, result);

        finished(&shared);
        assert!(sent(&rx).is_empty(), "the twin never reaches the worker");
        let Ok(QueryEvent::Done(outcome)) = answers.try_recv() else {
            panic!("the twin is answered");
        };
        assert_eq!(outcome.value, 7);
        assert!(outcome.stats.cache_hit);
        assert_eq!(shared.admission.in_flight(), 0, "its slot is released");
        assert_eq!(shared.ledger.lock().unwrap().tenants["t"].cache_hits, 1);
        let cache = shared.cache.counters();
        assert_eq!((cache.hits, cache.misses), (1, 0));
    }

    #[test]
    fn enqueue_after_close_refuses_the_job() {
        let (shared, rx) = one_worker(&[]);
        enqueue(&shared, job("a", distinct(0)));
        enqueue(&shared, job("a", distinct(1)));
        let leftovers = shared.dispatcher.lock().unwrap().close();
        assert_eq!(leftovers.len(), 1, "close hands back the queued job");
        let mut dispatcher = shared.dispatcher.lock().unwrap();
        assert!(!dispatcher.enqueue(&shared, job("b", distinct(2))));
        drop(dispatcher);
        finished(&shared);
        assert_eq!(sent(&rx).len(), 1, "only the group sent before close");
    }

    #[test]
    fn cache_hits_are_completions_with_zero_attributed_stats() {
        let mut ledger = LedgerInner::default();
        ledger.record_cache_hit("t");
        ledger.record_cache_hit("t");
        let usage = &ledger.tenants["t"];
        assert_eq!(usage.queries, 2, "the tenant got answers");
        assert_eq!(usage.cache_hits, 2);
        assert_eq!(usage.coalesced, 0);
        assert_eq!(
            usage.stats,
            ExecStats::default(),
            "zero engine cycles billed: conservation stays exact"
        );
    }

    #[test]
    fn panicked_deltas_fold_into_the_tenant_ledger() {
        let mut ledger = LedgerInner::default();
        let delta = ExecStats {
            energy_nj: 2.5,
            host_cycles: 7,
            ..ExecStats::default()
        };
        ledger.record_panicked("t", &delta, 900);
        let usage = &ledger.tenants["t"];
        assert_eq!(usage.failed, 1);
        assert_eq!(usage.queries, 0, "a panicked query is not a completion");
        assert_eq!(usage.wall_ns, 900);
        assert_eq!(usage.stats.host_cycles, 7);
        assert_eq!(usage.stats.energy_nj.to_bits(), 2.5f64.to_bits());
    }

    #[test]
    fn graph_affinity_is_stable_and_in_range() {
        for workers in 1..5 {
            let w = worker_for("soc-fbMsg", workers);
            assert!(w < workers);
            assert_eq!(w, worker_for("soc-fbMsg", workers), "deterministic");
        }
    }
}
