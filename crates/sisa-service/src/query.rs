//! Query model of the service: what tenants ask for, what they get back,
//! and the per-query accounting carved out of the engine pool.

use sisa_core::ExecStats;
use sisa_graph::GraphDelta;

/// A mining query the service knows how to execute.
///
/// Every kind maps onto one of the set-centric kernels from
/// `sisa-algorithms`, run against the shard-resident [`sisa_core::SetGraph`]
/// the worker pool keeps per named graph.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum QueryKind {
    /// Triangle count on the degeneracy-oriented graph. Unbudgeted triangle
    /// counts execute through the batched `ShardedEngine::execute` path and
    /// stream progress frames.
    TriangleCount,
    /// k-clique count on the degeneracy-oriented graph (`k >= 2`).
    KCliqueCount {
        /// Clique size.
        k: usize,
    },
    /// Embedding count of the k-star pattern (one hub, `k` leaves) via the
    /// subgraph-isomorphism kernel — the service's "subgraph check".
    StarCount {
        /// Number of leaves of the star pattern (`k >= 1`).
        k: usize,
    },
    /// A streaming mutation: apply the delta (deletes, then inserts) to the
    /// named graph through the registry's replace path, ticking its
    /// generation, and maintain the worker's incremental clique counts.
    /// Never answered from the cache and never coalesced; the outcome value
    /// is the number of edge intents that actually changed the graph.
    Mutate(GraphDelta),
}

impl QueryKind {
    /// The wire name used by the line-delimited JSON protocol.
    #[must_use]
    pub(crate) fn wire_name(&self) -> &'static str {
        match self {
            QueryKind::TriangleCount => "tc",
            QueryKind::KCliqueCount { .. } => "kclique",
            QueryKind::StarCount { .. } => "star",
            QueryKind::Mutate(_) => "mutate",
        }
    }

    /// The kind's size parameter, if it has one.
    #[must_use]
    pub fn k(&self) -> Option<usize> {
        match self {
            QueryKind::TriangleCount | QueryKind::Mutate(_) => None,
            QueryKind::KCliqueCount { k } | QueryKind::StarCount { k } => Some(*k),
        }
    }

    /// Whether this kind mutates its graph. Mutations bypass the result
    /// cache (they *invalidate* it), are never coalesced, and are ordered
    /// against queries on the same graph by worker affinity.
    #[must_use]
    pub(crate) fn is_mutation(&self) -> bool {
        matches!(self, QueryKind::Mutate(_))
    }

    /// Parses a wire-level (`query`, `k`) pair, validating parameter bounds:
    /// `2 <= k <= 16` for `kclique` and `1 <= k <= 64` for `star`.
    ///
    /// The upper bounds keep one request line from sizing a worker's memory.
    /// A star query builds its `k + 1`-vertex pattern before anything
    /// compares `k` with the graph: `k` = 10⁸ asks for 2.4 GB, and at
    /// `k` = 2³² the pattern's edge list truncates to nothing while its
    /// adjacency is still sized for 2³² + 1 vertices. A k-clique search
    /// recurses `k` levels deep and holds one candidate set per level. Both
    /// bounds are far above the sizes the benchmark sends (k = 3 to 5).
    ///
    /// # Errors
    ///
    /// Returns a protocol-level message for unknown query names, missing or
    /// out-of-range `k`.
    pub(crate) fn from_wire(query: &str, k: Option<u64>) -> Result<Self, String> {
        let bounded = |name: &str, range: std::ops::RangeInclusive<u64>| {
            let k = k.ok_or_else(|| format!("{name} requires field `k`"))?;
            if !range.contains(&k) {
                let (lo, hi) = range.into_inner();
                return Err(format!("{name} requires {lo} <= k <= {hi}, got {k}"));
            }
            Ok(k as usize)
        };
        match query {
            "tc" => Ok(QueryKind::TriangleCount),
            "kclique" => Ok(QueryKind::KCliqueCount {
                k: bounded("kclique", 2..=16)?,
            }),
            "star" => Ok(QueryKind::StarCount {
                k: bounded("star", 1..=64)?,
            }),
            "mutate" => Err(
                "mutate carries edge lists, not a (query, k) pair; build it from the \
                 request's `inserts`/`deletes` fields"
                    .to_string(),
            ),
            other => Err(format!(
                "unknown query kind {other:?} (tc|kclique|star|mutate)"
            )),
        }
    }
}

impl std::fmt::Display for QueryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self.k() {
            Some(k) => write!(f, "{}{k}", self.wire_name()),
            None => f.write_str(self.wire_name()),
        }
    }
}

/// A fully-specified query: a kind over a named graph, optionally truncated
/// by a pattern budget (the paper's simulation-time cutoff).
///
/// Two specs that compare equal are *coalescible*: the batcher executes them
/// once and fans the result out to every requester.
#[derive(Clone, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct QuerySpec {
    /// The registered graph name (see `sisa_graph::registry`).
    pub graph: String,
    /// What to mine.
    pub kind: QueryKind,
    /// Optional pattern budget (`SearchLimits::patterns`); `None` is
    /// unlimited.
    pub budget: Option<u64>,
}

impl QuerySpec {
    /// An unbudgeted query of `kind` over `graph`.
    #[must_use]
    pub fn new(graph: impl Into<String>, kind: QueryKind) -> Self {
        QuerySpec {
            graph: graph.into(),
            kind,
            budget: None,
        }
    }

    /// Caps the query at `n` found patterns.
    #[must_use]
    pub fn with_budget(mut self, n: u64) -> Self {
        self.budget = Some(n);
        self
    }
}

/// Per-query resource accounting, carved out of the executing worker's
/// engine with a [`sisa_core::StatsScope`].
#[derive(Clone, Debug, Default, PartialEq)]
pub struct QueryStats {
    /// Simulated cycles this query added across all platform units.
    pub simulated_cycles: u64,
    /// Dynamic SISA instructions this query issued.
    pub instructions: u64,
    /// Simulated energy this query added, in nanojoules.
    pub energy_nj: f64,
    /// Host wall-clock time of the execution, in nanoseconds.
    pub wall_ns: u64,
    /// Span: admission to worker pickup (queueing + dispatch), nanoseconds.
    pub queue_ns: u64,
    /// Span: kernel execution on the worker, nanoseconds.
    pub execute_ns: u64,
    /// Span: admission to terminal response, nanoseconds.
    pub span_ns: u64,
    /// Whether this response was coalesced onto an identical in-flight
    /// query: the value is shared and the execution cost was billed to the
    /// query that actually ran, so the cost counters above are zero (the
    /// span durations are still this response's own real timings).
    pub coalesced: bool,
    /// Whether this response was served from the generation-keyed result
    /// cache. The cost counters above then describe what the *original*
    /// execution cost (informational); the hit itself billed **zero**
    /// engine cycles to anyone — it is accounted in the ledger's
    /// `cache_hits` column instead. `execute_ns` is zero; `queue_ns` and
    /// `span_ns` are this response's own real (dispatcher-side) timings.
    pub cache_hit: bool,
}

impl QueryStats {
    /// Builds the billing record from a scope delta and a wall-clock sample.
    #[must_use]
    pub(crate) fn from_delta(delta: &ExecStats, wall_ns: u64) -> Self {
        QueryStats {
            simulated_cycles: delta.total_cycles(),
            instructions: delta.total_instructions(),
            energy_nj: delta.energy_nj,
            wall_ns,
            coalesced: false,
            ..QueryStats::default()
        }
    }

    /// The zero-cost record attached to a coalesced response.
    #[must_use]
    pub fn coalesced() -> Self {
        QueryStats {
            coalesced: true,
            ..QueryStats::default()
        }
    }

    /// The record attached to a cache-hit response: the original execution's
    /// cost counters, marked `cache_hit` (the hit itself bills nothing —
    /// span fields are reset and should be re-attached with
    /// [`QueryStats::with_spans`] using the hit's own timings).
    #[must_use]
    pub(crate) fn from_cached(original: &QueryStats) -> Self {
        QueryStats {
            simulated_cycles: original.simulated_cycles,
            instructions: original.instructions,
            energy_nj: original.energy_nj,
            wall_ns: original.wall_ns,
            cache_hit: true,
            ..QueryStats::default()
        }
    }

    /// Attaches the per-query span durations (admit→pickup, kernel
    /// execution, admit→response).
    #[must_use]
    pub fn with_spans(mut self, queue_ns: u64, execute_ns: u64, span_ns: u64) -> Self {
        self.queue_ns = queue_ns;
        self.execute_ns = execute_ns;
        self.span_ns = span_ns;
        self
    }
}

/// A completed query.
#[derive(Clone, Debug, PartialEq)]
pub struct QueryOutcome {
    /// The mined count.
    pub value: u64,
    /// Whether the pattern budget stopped the search early.
    pub truncated: bool,
    /// What the query cost, attributed to its tenant.
    pub stats: QueryStats,
}

/// An admission-control refusal: the service is saturated (or shutting
/// down) and the client should retry after the hinted delay. This is the
/// *backpressure* path — queues are bounded, so overload produces explicit
/// rejections instead of unbounded memory growth.
#[derive(Clone, Debug, PartialEq)]
pub struct Rejection {
    /// Suggested client back-off before resubmitting, in milliseconds.
    pub retry_after_ms: u64,
    /// Which limit was hit.
    pub reason: String,
}

impl std::fmt::Display for Rejection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} (retry after {} ms)",
            self.reason, self.retry_after_ms
        )
    }
}

/// One streamed event of an accepted query, in delivery order: zero or more
/// `Progress` frames, then exactly one `Done` or `Failed`.
#[derive(Clone, Debug, PartialEq)]
pub enum QueryEvent {
    /// A long batched query finished another window of batch operations.
    Progress {
        /// Batch operations completed so far.
        done_ops: u64,
        /// Total batch operations the query decomposed into.
        total_ops: u64,
        /// The running partial result.
        partial: u64,
    },
    /// The query completed.
    Done(QueryOutcome),
    /// The query could not be executed (e.g. unknown graph name).
    Failed(String),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wire_parsing_validates_bounds() {
        assert_eq!(
            QueryKind::from_wire("tc", None).unwrap(),
            QueryKind::TriangleCount
        );
        assert_eq!(
            QueryKind::from_wire("kclique", Some(4)).unwrap(),
            QueryKind::KCliqueCount { k: 4 }
        );
        assert_eq!(
            QueryKind::from_wire("star", Some(2)).unwrap(),
            QueryKind::StarCount { k: 2 }
        );
        assert!(QueryKind::from_wire("kclique", Some(1)).is_err());
        assert!(QueryKind::from_wire("kclique", None).is_err());
        assert!(QueryKind::from_wire("star", Some(0)).is_err());
        assert!(QueryKind::from_wire("kclique", Some(16)).is_ok());
        assert!(QueryKind::from_wire("kclique", Some(17)).is_err());
        assert!(QueryKind::from_wire("star", Some(64)).is_ok());
        assert!(QueryKind::from_wire("star", Some(65)).is_err());
        assert!(QueryKind::from_wire("rank", None).is_err());
    }

    #[test]
    fn specs_coalesce_by_equality() {
        let a = QuerySpec::new("g", QueryKind::KCliqueCount { k: 3 });
        let b = QuerySpec::new("g", QueryKind::KCliqueCount { k: 3 });
        assert_eq!(a, b);
        assert_ne!(a, b.clone().with_budget(10));
        assert_ne!(a, QuerySpec::new("h", QueryKind::KCliqueCount { k: 3 }));
    }

    #[test]
    fn display_names_are_compact() {
        assert_eq!(QueryKind::TriangleCount.to_string(), "tc");
        assert_eq!(QueryKind::KCliqueCount { k: 5 }.to_string(), "kclique5");
        assert_eq!(QueryKind::StarCount { k: 3 }.to_string(), "star3");
        assert_eq!(QueryKind::Mutate(GraphDelta::new()).to_string(), "mutate");
    }

    #[test]
    fn mutations_are_flagged_and_not_wire_parseable_from_k_alone() {
        let kind = QueryKind::Mutate(GraphDelta::new().insert(0, 1));
        assert!(kind.is_mutation());
        assert_eq!(kind.k(), None);
        assert!(!QueryKind::TriangleCount.is_mutation());
        assert!(QueryKind::from_wire("mutate", None)
            .unwrap_err()
            .contains("inserts"));
    }
}
