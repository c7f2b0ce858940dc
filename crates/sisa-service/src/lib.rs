//! # sisa-service
//!
//! A long-lived, multi-tenant **graph-mining query service** over pooled
//! sharded SISA engines — the framework layer that multiplexes many
//! concurrent mining workloads onto the simulated PIM platform (the
//! "graph-mining-as-a-service" item of the roadmap).
//!
//! The service is built from six pieces:
//!
//! * **Graph registry** ([`sisa_graph::registry::GraphRegistry`]) —
//!   load-once/share-many: named graphs are materialised once, loaded into
//!   shard-resident sets on exactly one affinity worker, leased immutably to
//!   queries (an [`std::sync::Arc`] ref-count) and evictable on demand.
//!   Every lease carries a per-name **generation** that ticks on each
//!   materialise, evict and replace, and [`RegistryConfig::max_resident`]
//!   bounds residency with LRU eviction.
//! * **Admission controller + batcher** ([`Admission`], the dispatcher) —
//!   bounded in-flight queues and per-tenant quotas answer overload with
//!   explicit [`Rejection`]`{ retry_after_ms }` responses (the hint scales
//!   with actual queue occupancy) instead of unbounded growth, and a
//!   coalescing window executes identical concurrent queries once. The
//!   dispatcher is a struct behind one lock, not a thread: a client queues
//!   its query on its own thread, and a worker that finishes a group takes
//!   its next one.
//! * **Result cache** ([`ResultCache`]) — a bounded LRU keyed by
//!   *(graph generation, query spec)* consulted at submission, on the
//!   client's thread: a hit answers immediately with the stored value, bills
//!   zero engine cycles (the conservation identity stays exact; hits land
//!   in their own ledger column) and is invalidated structurally by the
//!   registry's generation ticks; a name's dead generations are released
//!   at its next insert, so a graph that ticks for ever holds only what
//!   its current generation does. Sized by
//!   [`ServiceConfig::cache_entries`] / [`ServiceConfig::cache_bytes`].
//! * **Streaming mutations** — the `mutate` request family
//!   ([`QueryKind::Mutate`]) applies batched edge inserts and deletes
//!   ([`GraphDelta`]) through the registry's replace path, ticking the
//!   per-name generation so every cached result for the graph dies
//!   structurally. The affinity worker maintains triangle / k-clique counts
//!   **incrementally** ([`ServiceConfig::stream_ks`]): per changed edge it
//!   intersects the endpoints' adjacency sets on the set engine — priced on
//!   the PIM cost model and billed to the mutating tenant — instead of
//!   recomputing from scratch, and serves subsequent unbudgeted counts
//!   straight from the maintained counters. The worker judges each
//!   resident state of a name — its static loads and its incremental
//!   miner — by that state's *own* generation against the registry's: a
//!   read that finds the static loads one `mutate` behind reloads those
//!   and leaves the miner, which that `mutate` brought to exactly the
//!   current generation, for the next one. Mutations are never coalesced
//!   and never answered from the cache, and worker affinity orders them
//!   against queries on the same graph.
//! * **Weighted-fair scheduler** ([`WfqScheduler`]) — per-tenant FIFOs
//!   drained by weighted deficit round-robin
//!   ([`ServiceConfig::tenant_weights`], absent = weight 1), so a flooding
//!   tenant can delay but not starve the others.
//! * **Worker pool** — `std::thread` workers (no async runtime; the
//!   workspace is offline/vendored-shims only), each owning one
//!   [`sisa_core::ShardedEngine`]. Every query's exact simulated-cycle /
//!   energy / wall-clock cost is carved out with a
//!   [`sisa_core::StatsScope`] and billed to its tenant; graph loads and
//!   evictions are billed to the registry ledger. Integer counters telescope
//!   exactly: per-tenant totals + registry overhead = raw engine aggregates.
//! * **Transport** — the in-process [`ServiceClient`] plus a line-delimited
//!   JSON protocol over `std::net::TcpListener` ([`TcpServer`]) with
//!   streamed progress frames for long batched queries. Connections are
//!   pipelined: queries submitted on one connection execute concurrently,
//!   with every frame correlated by the request `id`.
//! * **Observability** — a metrics snapshot
//!   ([`SisaService::metrics_snapshot`]) that reads each series off its
//!   one owner and keeps no copy: query, mutation, graph, panic and stream
//!   counters and the latency histograms off the tenant ledger; the
//!   submission counter, in-flight gauges and rejections off the admission
//!   controller; hit/miss/eviction counters and the hit-ratio gauge off the
//!   result cache; the group counter and per-tenant WFQ depth gauges off
//!   the dispatcher and its schedulers. The snapshot ([`MetricsSnapshot`],
//!   defined in [`metrics`]) is exposed over TCP by the
//!   `{"id": N, "query": "metrics"}` request. An optional
//!   [`sisa_core::SharedCollector`] in [`ServiceConfig`] records every
//!   worker engine's lane timeline, and terminal result frames carry
//!   per-query span summaries (`queue_ns`, `execute_ns`, `span_ns`). All of
//!   it is observer-only: enabling telemetry never changes results or
//!   [`sisa_core::ExecStats`].
//!
//! ## Quickstart (in-process)
//!
//! ```
//! use sisa_service::{QueryKind, QuerySpec, ServiceConfig, SisaService};
//!
//! let service = SisaService::start(ServiceConfig::smoke());
//! // Tiny custom graph (any dataset name from `sisa_graph::datasets` works
//! // out of the box): a triangle plus a pendant vertex.
//! let mut b = sisa_graph::GraphBuilder::new(4);
//! for (u, v) in [(0, 1), (1, 2), (0, 2), (2, 3)] {
//!     b.add_edge(u, v);
//! }
//! service.register_graph("demo", b.build());
//!
//! let handle = service
//!     .submit("alice", QuerySpec::new("demo", QueryKind::TriangleCount))
//!     .expect("admitted");
//! let outcome = handle.wait().expect("completes");
//! assert_eq!(outcome.value, 1);
//! assert!(outcome.stats.simulated_cycles > 0);
//!
//! // Stream an update: one effective edge change, the cached triangle
//! // count dies with the generation tick, and the new count is maintained
//! // incrementally rather than recomputed.
//! let mutation = service
//!     .submit(
//!         "alice",
//!         QuerySpec::new(
//!             "demo",
//!             QueryKind::Mutate(sisa_service::GraphDelta::new().insert(1, 3)),
//!         ),
//!     )
//!     .expect("admitted");
//! assert_eq!(mutation.wait().expect("applies").value, 1);
//! let after = service
//!     .submit("alice", QuerySpec::new("demo", QueryKind::TriangleCount))
//!     .expect("admitted")
//!     .wait()
//!     .expect("completes");
//! assert_eq!(after.value, 2);
//!
//! let usage = service.tenant_usage();
//! assert_eq!(usage["alice"].queries, 2);
//! assert_eq!(usage["alice"].mutations, 1);
//! service.close();
//! ```
//!
//! ## Quickstart (TCP)
//!
//! ```no_run
//! use sisa_service::{ServiceConfig, SisaService, TcpServer};
//!
//! let service = SisaService::start(ServiceConfig::default());
//! let server = TcpServer::serve(service.client(), "127.0.0.1:7463").unwrap();
//! println!("serving on {}", server.addr());
//! // Clients: one JSON request per line, e.g.
//! //   {"id":1,"tenant":"alice","graph":"bn-mouse","query":"tc"}
//! // Responses stream back as JSON frames ending in result|rejected|error.
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod admission;
pub mod cache;
pub mod metrics;
pub mod protocol;
pub mod query;
pub mod service;
pub mod tcp;
pub mod wfq;
mod worker;

pub use admission::{Admission, AdmissionConfig};
pub use cache::{CacheCounters, CachedResult, ResultCache};
pub use metrics::MetricsSnapshot;
pub use protocol::{Frame, Request};
pub use query::{QueryEvent, QueryKind, QueryOutcome, QuerySpec, QueryStats, Rejection};
pub use service::{
    QueryHandle, ServiceClient, ServiceConfig, ServiceReport, SisaService, TenantUsage,
};
pub use tcp::TcpServer;
pub use wfq::WfqScheduler;

// The telemetry sink service embedders attach through `ServiceConfig`.
pub use sisa_core::SharedCollector;

// Registry types surfaced through `ServiceConfig`.
pub use sisa_graph::{GraphDelta, GraphLease, RegistryConfig};
