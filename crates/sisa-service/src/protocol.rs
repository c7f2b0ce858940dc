//! The line-delimited JSON wire protocol.
//!
//! One request per line; the server answers each request with zero or more
//! `progress` frames followed by exactly one terminal frame (`result`,
//! `rejected` or `error`), each on its own line. Frames carry the request's
//! `id` so clients can correlate.
//!
//! Request example (field order free; `k`, `budget` optional):
//!
//! ```json
//! {"id": 1, "tenant": "alice", "graph": "bn-mouse", "query": "kclique", "k": 4}
//! ```
//!
//! Frame examples:
//!
//! ```json
//! {"id": 1, "frame": "progress", "done_ops": 2048, "total_ops": 90800, "partial": 1034, ...}
//! {"id": 1, "frame": "result", "value": 412116, "truncated": false, "simulated_cycles": 73
//!     1188, "instructions": 90800, "energy_nj": 5120.4, "wall_ns": 1893411, "coalesced": false, ...}
//! {"id": 2, "frame": "rejected", "retry_after_ms": 40, "error": "service saturated: ...", ...}
//! ```

use crate::metrics::MetricsSnapshot;
use crate::query::{QueryKind, QueryOutcome, QuerySpec, Rejection};
use serde::{Content, Deserialize, Serialize};
use sisa_graph::{GraphDelta, Vertex};

/// A parsed request line.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct Request {
    /// Client-chosen correlation id, echoed on every frame.
    pub id: u64,
    /// The tenant the query is billed to.
    pub tenant: String,
    /// The registered graph name.
    pub graph: String,
    /// The query kind: `tc`, `kclique` or `star`.
    pub query: String,
    /// Size parameter for `kclique` / `star`.
    pub k: Option<u64>,
    /// Optional pattern budget.
    pub budget: Option<u64>,
    /// Edges to insert, as `[u, v]` pairs (`mutate` only; applied after
    /// `deletes`).
    pub inserts: Option<Vec<(u64, u64)>>,
    /// Edges to delete, as `[u, v]` pairs (`mutate` only; applied first).
    pub deletes: Option<Vec<(u64, u64)>>,
}

impl Request {
    /// Builds a request for `spec`.
    #[must_use]
    pub fn from_spec(id: u64, tenant: &str, spec: &QuerySpec) -> Self {
        let (inserts, deletes) = match &spec.kind {
            QueryKind::Mutate(delta) => (
                Some(wire_edges(&delta.inserts)),
                Some(wire_edges(&delta.deletes)),
            ),
            _ => (None, None),
        };
        Request {
            id,
            tenant: tenant.to_string(),
            graph: spec.graph.clone(),
            query: spec.kind.wire_name().to_string(),
            k: spec.kind.k().map(|k| k as u64),
            budget: spec.budget,
            inserts,
            deletes,
        }
    }

    /// Validates the request into an executable [`QuerySpec`].
    ///
    /// # Errors
    ///
    /// Returns a protocol-level message for unknown kinds or bad parameters
    /// (for `mutate`: absent/empty edge lists, or vertex ids beyond the
    /// 32-bit vertex range).
    pub fn spec(&self) -> Result<QuerySpec, String> {
        if self.query == "mutate" {
            let delta = GraphDelta {
                inserts: parse_edges("inserts", self.inserts.as_deref())?,
                deletes: parse_edges("deletes", self.deletes.as_deref())?,
            };
            if delta.is_empty() {
                return Err("mutate requires a non-empty `inserts` or `deletes`".to_string());
            }
            return Ok(QuerySpec {
                graph: self.graph.clone(),
                kind: QueryKind::Mutate(delta),
                budget: None,
            });
        }
        let kind = QueryKind::from_wire(&self.query, self.k)?;
        Ok(QuerySpec {
            graph: self.graph.clone(),
            kind,
            budget: self.budget,
        })
    }

    /// Parses one request line with the derived codec: `k`, `budget`,
    /// `inserts` and `deletes` may be absent (they read as `None`). The
    /// introspection request `{"id": N, "query": "metrics"}` needs no
    /// `tenant` or `graph` (absent ones read as `""`) — it is answered by
    /// the transport itself with a `metrics` frame and never reaches
    /// admission control.
    ///
    /// # Errors
    ///
    /// Returns a message describing the malformed line.
    pub fn parse(line: &str) -> Result<Self, String> {
        let mut value: Content = serde_json::from_str(line).map_err(|e| format!("{e:?}"))?;
        let metrics = matches!(value.get("query"), Some(Content::Str(q)) if q == "metrics");
        if let (true, Content::Map(fields)) = (metrics, &mut value) {
            for key in ["tenant", "graph"] {
                if !fields.iter().any(|(k, _)| k == key) {
                    fields.push((key.to_string(), Content::Str(String::new())));
                }
            }
        }
        Request::from_content(&value).map_err(|e| e.to_string())
    }
}

/// Renders vertex-typed edges as wire (`u64`) pairs.
fn wire_edges(edges: &[(Vertex, Vertex)]) -> Vec<(u64, u64)> {
    edges
        .iter()
        .map(|&(u, v)| (u64::from(u), u64::from(v)))
        .collect()
}

/// Validates wire edge pairs into vertex-typed edges.
fn parse_edges(key: &str, edges: Option<&[(u64, u64)]>) -> Result<Vec<(Vertex, Vertex)>, String> {
    let mut out = Vec::with_capacity(edges.map_or(0, <[_]>::len));
    for &(u, v) in edges.unwrap_or_default() {
        let narrow = |n: u64| {
            Vertex::try_from(n).map_err(|_| format!("`{key}` vertex id {n} exceeds vertex range"))
        };
        out.push((narrow(u)?, narrow(v)?));
    }
    Ok(out)
}

/// One response line. `frame` selects which optional fields are populated:
/// `progress` (`done_ops`, `total_ops`, `partial`), `result` (`value`,
/// `truncated`, the stats fields and the per-query span summary),
/// `metrics` (`metrics`, `metrics_text`), `rejected` (`retry_after_ms`,
/// `error`) or `error` (`error`).
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct Frame {
    /// The request's correlation id (0 when the line was unparseable).
    pub id: u64,
    /// `progress`, `result`, `rejected` or `error`.
    pub frame: String,
    /// Batch operations completed so far (progress).
    pub done_ops: Option<u64>,
    /// Total batch operations of the query (progress).
    pub total_ops: Option<u64>,
    /// Running partial result (progress).
    pub partial: Option<u64>,
    /// The mined count (result).
    pub value: Option<u64>,
    /// Whether the pattern budget truncated the search (result).
    pub truncated: Option<bool>,
    /// Simulated cycles billed to the tenant (result).
    pub simulated_cycles: Option<u64>,
    /// SISA instructions billed to the tenant (result).
    pub instructions: Option<u64>,
    /// Simulated energy billed to the tenant, nanojoules (result).
    pub energy_nj: Option<f64>,
    /// Host wall-clock of the execution, nanoseconds (result).
    pub wall_ns: Option<u64>,
    /// Span: admission to worker pickup, nanoseconds (result).
    pub queue_ns: Option<u64>,
    /// Span: kernel execution on the worker, nanoseconds (result).
    pub execute_ns: Option<u64>,
    /// Span: admission to this terminal response, nanoseconds (result).
    pub span_ns: Option<u64>,
    /// Whether the response was coalesced onto an identical query (result).
    pub coalesced: Option<bool>,
    /// Whether the response was served from the generation-keyed result
    /// cache at zero engine cost (result).
    pub cache_hit: Option<bool>,
    /// Client back-off hint, milliseconds (rejected).
    pub retry_after_ms: Option<u64>,
    /// Failure or rejection detail (rejected, error).
    pub error: Option<String>,
    /// The service's metrics snapshot (metrics).
    pub metrics: Option<MetricsSnapshot>,
    /// The same snapshot rendered in Prometheus text exposition format
    /// (metrics).
    pub metrics_text: Option<String>,
}

impl Frame {
    fn base(id: u64, frame: &str) -> Self {
        Frame {
            id,
            frame: frame.to_string(),
            ..Frame::default()
        }
    }

    /// A streaming progress frame.
    #[must_use]
    pub fn progress(id: u64, done_ops: u64, total_ops: u64, partial: u64) -> Self {
        Frame {
            done_ops: Some(done_ops),
            total_ops: Some(total_ops),
            partial: Some(partial),
            ..Frame::base(id, "progress")
        }
    }

    /// The terminal frame of a completed query.
    #[must_use]
    pub fn result(id: u64, outcome: &QueryOutcome) -> Self {
        Frame {
            value: Some(outcome.value),
            truncated: Some(outcome.truncated),
            simulated_cycles: Some(outcome.stats.simulated_cycles),
            instructions: Some(outcome.stats.instructions),
            energy_nj: Some(outcome.stats.energy_nj),
            wall_ns: Some(outcome.stats.wall_ns),
            queue_ns: Some(outcome.stats.queue_ns),
            execute_ns: Some(outcome.stats.execute_ns),
            span_ns: Some(outcome.stats.span_ns),
            coalesced: Some(outcome.stats.coalesced),
            cache_hit: Some(outcome.stats.cache_hit),
            ..Frame::base(id, "result")
        }
    }

    /// The reply to a `metrics` introspection request: the registry snapshot
    /// both as structured JSON and in Prometheus text exposition format.
    #[must_use]
    pub fn metrics(id: u64, snapshot: &MetricsSnapshot) -> Self {
        Frame {
            metrics_text: Some(snapshot.to_prometheus()),
            metrics: Some(snapshot.clone()),
            ..Frame::base(id, "metrics")
        }
    }

    /// The terminal frame of a backpressure rejection.
    #[must_use]
    pub fn rejected(id: u64, rejection: &Rejection) -> Self {
        Frame {
            retry_after_ms: Some(rejection.retry_after_ms),
            error: Some(rejection.reason.clone()),
            ..Frame::base(id, "rejected")
        }
    }

    /// The terminal frame of a failed or malformed request.
    #[must_use]
    pub fn error(id: u64, message: &str) -> Self {
        Frame {
            error: Some(message.to_string()),
            ..Frame::base(id, "error")
        }
    }

    /// Whether this frame terminates its request.
    #[must_use]
    pub fn is_terminal(&self) -> bool {
        self.frame != "progress"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::QueryStats;

    #[test]
    fn lenient_request_parsing_accepts_missing_optionals() {
        let req = Request::parse(r#"{"id": 3, "tenant": "t", "graph": "g", "query": "tc"}"#)
            .expect("parses");
        assert_eq!(req.k, None);
        assert_eq!(req.budget, None);
        assert_eq!(req.spec().unwrap().kind, QueryKind::TriangleCount);
    }

    #[test]
    fn requests_round_trip_through_the_derived_codec() {
        let spec = QuerySpec::new("bn-mouse", QueryKind::KCliqueCount { k: 4 }).with_budget(100);
        let req = Request::from_spec(9, "alice", &spec);
        let json = serde_json::to_string(&req).unwrap();
        let back = Request::parse(&json).unwrap();
        assert_eq!(back, req);
        assert_eq!(back.spec().unwrap(), spec);
    }

    #[test]
    fn malformed_lines_are_reported_not_panicked() {
        assert!(Request::parse("not json").is_err());
        assert!(Request::parse(r#"{"id": 1}"#).is_err());
        let untenanted = r#"{"id": 1, "graph": "g", "query": "tc"}"#;
        assert!(Request::parse(untenanted)
            .unwrap_err()
            .contains("missing field `tenant`"));
        assert!(Request::parse(
            r#"{"id": 1, "tenant": "t", "graph": "g", "query": "tc", "k": -4}"#
        )
        .is_err());
        // A `k` that would size the worker's pattern or search by itself:
        // 10^8 star leaves, and 2^32, which truncates as a vertex id.
        for k in [100_000_000u64, 1 << 32] {
            let line =
                format!(r#"{{"id": 1, "tenant": "t", "graph": "g", "query": "star", "k": {k}}}"#);
            let spec = Request::parse(&line).and_then(|req| req.spec());
            assert!(spec.unwrap_err().contains("k <= 64"), "k = {k}");
        }
    }

    /// A line of 9 000 `[` used to overflow the parsing thread's stack and
    /// abort the process, so the parse runs in a child copy of this test
    /// binary and the parent checks that the child passed.
    #[test]
    fn nesting_past_the_limit_is_an_error_not_a_stack_overflow() {
        const CHILD: &str = "SISA_PROTOCOL_NESTING_CHILD";
        if std::env::var_os(CHILD).is_some() {
            assert!(Request::parse(&"[".repeat(9_000)).is_err());
            return;
        }
        let name = "protocol::tests::nesting_past_the_limit_is_an_error_not_a_stack_overflow";
        let child = std::process::Command::new(std::env::current_exe().expect("test binary"))
            .args([name, "--exact", "--test-threads=1"])
            .env(CHILD, "1")
            .output()
            .expect("re-run the test binary");
        let stdout = String::from_utf8_lossy(&child.stdout);
        assert!(child.status.success(), "child: {}\n{stdout}", child.status);
        assert!(
            stdout.contains("1 passed"),
            "the child ran the parse: {stdout}"
        );
    }

    #[test]
    fn frames_round_trip_and_flag_terminality() {
        let outcome = QueryOutcome {
            value: 17,
            truncated: false,
            stats: QueryStats {
                simulated_cycles: 100,
                instructions: 4,
                energy_nj: 2.5,
                wall_ns: 900,
                queue_ns: 120,
                execute_ns: 900,
                span_ns: 1500,
                coalesced: false,
                cache_hit: false,
            },
        };
        let frame = Frame::result(5, &outcome);
        let json = serde_json::to_string(&frame).unwrap();
        let back: Frame = serde_json::from_str(&json).unwrap();
        assert_eq!(back, frame);
        assert!(back.is_terminal());
        assert_eq!(back.queue_ns, Some(120));
        assert_eq!(back.execute_ns, Some(900));
        assert_eq!(back.span_ns, Some(1500));
        assert!(!Frame::progress(5, 10, 100, 3).is_terminal());
        assert!(Frame::rejected(
            5,
            &Rejection {
                retry_after_ms: 7,
                reason: "full".into()
            }
        )
        .is_terminal());
        assert!(Frame::error(0, "bad line").is_terminal());
    }

    #[test]
    fn mutate_requests_carry_edge_lists_and_round_trip() {
        let req = Request::parse(
            r#"{"id": 4, "tenant": "t", "graph": "g", "query": "mutate",
                "inserts": [[0, 1], [2, 3]], "deletes": [[5, 6]]}"#,
        )
        .expect("parses");
        let spec = req.spec().expect("valid mutate");
        let QueryKind::Mutate(delta) = &spec.kind else {
            panic!("expected a mutation, got {:?}", spec.kind);
        };
        assert_eq!(delta.inserts, vec![(0, 1), (2, 3)]);
        assert_eq!(delta.deletes, vec![(5, 6)]);
        assert_eq!(spec.budget, None);

        // from_spec ↔ parse round-trips through the JSON codec.
        let rebuilt = Request::from_spec(4, "t", &spec);
        let json = serde_json::to_string(&rebuilt).unwrap();
        let back = Request::parse(&json).unwrap();
        assert_eq!(back.spec().unwrap(), spec);
    }

    #[test]
    fn malformed_mutations_are_rejected_with_messages() {
        // Empty delta.
        let req =
            Request::parse(r#"{"id": 1, "tenant": "t", "graph": "g", "query": "mutate"}"#).unwrap();
        assert!(req.spec().unwrap_err().contains("non-empty"));
        // Vertex id beyond the 32-bit range.
        let req = Request::parse(
            r#"{"id": 1, "tenant": "t", "graph": "g", "query": "mutate",
                "inserts": [[0, 5000000000]]}"#,
        )
        .unwrap();
        assert!(req.spec().unwrap_err().contains("vertex range"));
        // Non-pair entries fail at parse time.
        assert!(Request::parse(
            r#"{"id": 1, "tenant": "t", "graph": "g", "query": "mutate", "inserts": [[1]]}"#
        )
        .is_err());
        assert!(Request::parse(
            r#"{"id": 1, "tenant": "t", "graph": "g", "query": "mutate", "inserts": 3}"#
        )
        .is_err());
        assert!(Request::parse(
            r#"{"id": 1, "tenant": "t", "graph": "g", "query": "mutate", "inserts": [[1, -2]]}"#
        )
        .is_err());
    }

    #[test]
    fn metrics_requests_need_no_tenant_or_graph() {
        let req = Request::parse(r#"{"id": 8, "query": "metrics"}"#).expect("parses");
        assert_eq!(req.id, 8);
        assert_eq!(req.query, "metrics");
        assert_eq!(req.tenant, "");
        assert_eq!(req.graph, "");
        // Non-introspection queries still require both fields.
        assert!(Request::parse(r#"{"id": 8, "query": "tc"}"#).is_err());
    }

    #[test]
    fn metrics_frames_round_trip_snapshot_and_text() {
        let mut snapshot = MetricsSnapshot::default();
        snapshot
            .counters
            .insert("sisa_queries_completed_total".to_string(), 104);
        snapshot
            .gauges
            .insert("sisa_admission_in_flight".to_string(), 3);
        let frame = Frame::metrics(11, &snapshot);
        assert!(frame.is_terminal());
        let json = serde_json::to_string(&frame).unwrap();
        let back: Frame = serde_json::from_str(&json).unwrap();
        assert_eq!(back, frame);
        let snap = back.metrics.expect("snapshot travels");
        assert_eq!(snap.counters["sisa_queries_completed_total"], 104);
        let text = back.metrics_text.expect("prometheus text travels");
        assert!(text.contains("sisa_queries_completed_total 104"), "{text}");
        assert!(
            text.contains("# TYPE sisa_admission_in_flight gauge"),
            "{text}"
        );
    }
}
