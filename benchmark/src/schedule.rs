//! Seeded request schedules: the only thing the workload seed feeds besides
//! the graph generators. One seed gives one byte-identical schedule.

use sisa_graph::{CsrGraph, GraphDelta, Vertex};
use sisa_service::{QueryKind, QuerySpec, Request};
use std::collections::BTreeSet;

/// SplitMix64: small, fast and fully determined by its seed.
#[derive(Clone, Debug)]
pub struct Rng(u64);

impl Rng {
    /// A generator for `seed` on stream `stream` (so that one workload seed
    /// feeds several independent schedules).
    #[must_use]
    pub fn new(seed: u64, stream: u64) -> Self {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// The next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// A value in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The wire line (with trailing newline) of one request.
#[must_use]
pub fn request_line(id: u64, tenant: &str, spec: &QuerySpec) -> String {
    let mut line =
        serde_json::to_string(&Request::from_spec(id, tenant, spec)).expect("a request serialises");
    line.push('\n');
    line
}

/// One scheduled request of a serving workload.
#[derive(Clone, Debug, PartialEq)]
pub struct Op {
    /// The request line as sent.
    pub line: String,
    /// What the request is, for the oracle and for classing its latency.
    pub class: OpClass,
}

/// What a scheduled request does.
#[derive(Clone, Debug, PartialEq)]
pub enum OpClass {
    /// A read; `spec` indexes the workload's spec table.
    Read {
        /// Index into the spec table.
        spec: usize,
    },
    /// A read of a budgeted (never maintained) spec on the stream workload.
    BudgetedRead,
    /// The `n`-th mutation (0-based) of the stream schedule.
    Mutate {
        /// Index into the delta list.
        n: usize,
        /// Whether the worker has no current stream state and this mutation
        /// rebuilds it: the very first mutation, and every mutation whose
        /// predecessor was followed by a budgeted read (which reloads the
        /// graph and drops the stream state).
        rebuild: bool,
    },
}

/// The tenants of the serving workloads.
pub const TENANTS: [&str; 8] = ["t0", "t1", "t2", "t3", "t4", "t5", "t6", "t7"];

/// `n` cache-hit reads for `serve-hot`: a seeded choice among `specs`,
/// tenants round-robin, ids from `first_id`.
#[must_use]
pub fn hot_ops(rng: &mut Rng, specs: &[QuerySpec], first_id: u64, n: usize) -> Vec<Op> {
    (0..n)
        .map(|i| {
            let spec = rng.below(specs.len());
            let id = first_id + i as u64;
            Op {
                line: request_line(id, TENANTS[i % TENANTS.len()], &specs[spec]),
                class: OpClass::Read { spec },
            }
        })
        .collect()
}

/// The reference copy of the streamed graph: what the service's graph must
/// equal after each mutation, kept by the benchmark alone.
#[derive(Clone, Debug)]
pub struct EdgeSet {
    n: usize,
    edges: BTreeSet<(Vertex, Vertex)>,
}

impl EdgeSet {
    /// The edges of `g`.
    #[must_use]
    pub fn of(g: &CsrGraph) -> Self {
        EdgeSet {
            n: g.num_vertices(),
            edges: g.edges().map(|(u, v)| (u.min(v), u.max(v))).collect(),
        }
    }

    /// Applies `delta` (deletes first, like the service), returning how many
    /// intents changed the graph.
    pub fn apply(&mut self, delta: &GraphDelta) -> usize {
        let mut applied = 0;
        for &(u, v) in &delta.deletes {
            applied += usize::from(self.edges.remove(&(u.min(v), u.max(v))));
        }
        for &(u, v) in &delta.inserts {
            applied += usize::from(u != v && self.edges.insert((u.min(v), u.max(v))));
        }
        applied
    }

    /// The graph as a CSR.
    #[must_use]
    pub fn to_csr(&self) -> CsrGraph {
        let edges: Vec<(Vertex, Vertex)> = self.edges.iter().copied().collect();
        CsrGraph::from_edges(self.n, &edges)
    }

    fn random_live_edge(&self, rng: &mut Rng) -> (Vertex, Vertex) {
        // An ordered-set walk from a random key: cheap, and deterministic.
        let probe = (rng.below(self.n) as Vertex, rng.below(self.n) as Vertex);
        *self
            .edges
            .range(probe..)
            .next()
            .or_else(|| self.edges.iter().next())
            .expect("the streamed graph keeps edges")
    }

    fn random_absent_edge(&self, rng: &mut Rng) -> (Vertex, Vertex) {
        loop {
            let (u, v) = (rng.below(self.n) as Vertex, rng.below(self.n) as Vertex);
            if u != v && !self.edges.contains(&(u.min(v), u.max(v))) {
                return (u.min(v), u.max(v));
            }
        }
    }
}

/// Shape of the stream schedule. Of every `ops_per_mutation` consecutive
/// requests the first is a `mutate`; exactly one mutation in
/// `budgeted_every` is followed at once by a budgeted read.
pub const OPS_PER_MUTATION: usize = 4;
/// See [`OPS_PER_MUTATION`].
pub const BUDGETED_EVERY: usize = 4;
/// Edge intents per mutation: half deletes of live edges, half inserts of
/// absent ones, so every intent applies and the edge count holds.
pub const INTENTS_PER_MUTATION: usize = 4;

/// The stream schedule: the requests, and the deltas the mutations carry.
#[derive(Clone, Debug)]
pub struct StreamSchedule {
    /// The requests in send order.
    pub ops: Vec<Op>,
    /// The delta of mutation `n`.
    pub deltas: Vec<GraphDelta>,
}

/// Builds `n_ops` stream requests over `graph`. `reads` are the maintained
/// (unbudgeted) specs, `budgeted` the one spec the worker must re-mine.
/// Mutations and budgeted reads share the first tenant, so the service keeps
/// them in order; the other reads go round the remaining tenants.
#[must_use]
pub fn stream_schedule(
    rng: &mut Rng,
    graph: &CsrGraph,
    reads: &[QuerySpec],
    budgeted: &QuerySpec,
    n_ops: usize,
) -> StreamSchedule {
    let mut reference = EdgeSet::of(graph);
    let name = budgeted.graph.clone();
    let mut ops = Vec::with_capacity(n_ops);
    let mut deltas = Vec::new();
    let mut budgeted_next = false;
    let mut rebuild_next = true;
    let mut reader = 0usize;
    for i in 0..n_ops {
        let id = i as u64;
        if i % OPS_PER_MUTATION == 0 {
            let n = deltas.len();
            let mut delta = GraphDelta::new();
            for _ in 0..INTENTS_PER_MUTATION / 2 {
                let (u, v) = reference.random_live_edge(rng);
                delta = delta.delete(u, v);
                reference.apply(&GraphDelta::new().delete(u, v));
            }
            for _ in 0..INTENTS_PER_MUTATION / 2 {
                let (u, v) = reference.random_absent_edge(rng);
                delta = delta.insert(u, v);
                reference.apply(&GraphDelta::new().insert(u, v));
            }
            let spec = QuerySpec::new(name.clone(), QueryKind::Mutate(delta.clone()));
            ops.push(Op {
                line: request_line(id, TENANTS[0], &spec),
                class: OpClass::Mutate {
                    n,
                    rebuild: rebuild_next,
                },
            });
            deltas.push(delta);
            budgeted_next = n % BUDGETED_EVERY == 1;
            rebuild_next = budgeted_next;
        } else if budgeted_next {
            budgeted_next = false;
            ops.push(Op {
                line: request_line(id, TENANTS[0], budgeted),
                class: OpClass::BudgetedRead,
            });
        } else {
            // The maintained reads take turns, so that no kind repeats
            // between two mutations: each is the first of its kind on the
            // new generation, a cache miss the worker answers, and the mix
            // of reads is the same on every seed.
            let spec = reader % reads.len();
            reader = reader % (TENANTS.len() - 1) + 1;
            ops.push(Op {
                line: request_line(id, TENANTS[reader], &reads[spec]),
                class: OpClass::Read { spec },
            });
        }
    }
    StreamSchedule { ops, deltas }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisa_graph::datasets;

    fn bytes(ops: &[Op]) -> Vec<u8> {
        ops.iter().flat_map(|op| op.line.bytes()).collect()
    }

    fn hot_specs() -> Vec<QuerySpec> {
        vec![
            QuerySpec::new("a", QueryKind::TriangleCount),
            QuerySpec::new("a", QueryKind::KCliqueCount { k: 4 }).with_budget(100),
            QuerySpec::new("b", QueryKind::KCliqueCount { k: 5 }).with_budget(7),
        ]
    }

    #[test]
    fn one_seed_one_hot_schedule() {
        let specs = hot_specs();
        let a = hot_ops(&mut Rng::new(7, 1), &specs, 0, 500);
        let b = hot_ops(&mut Rng::new(7, 1), &specs, 0, 500);
        let c = hot_ops(&mut Rng::new(8, 1), &specs, 0, 500);
        assert_eq!(bytes(&a), bytes(&b));
        assert_ne!(bytes(&a), bytes(&c));
        // Tenants go round-robin and ids count up.
        assert!(a[9].line.contains("\"tenant\":\"t1\""), "{}", a[9].line);
        assert!(a[9].line.contains("\"id\":9"), "{}", a[9].line);
    }

    fn stream(seed: u64) -> StreamSchedule {
        let g = datasets::by_name("soc-fbMsg").unwrap().generate(seed);
        let reads = vec![
            QuerySpec::new("g", QueryKind::TriangleCount),
            QuerySpec::new("g", QueryKind::KCliqueCount { k: 4 }),
        ];
        let budgeted = QuerySpec::new("g", QueryKind::KCliqueCount { k: 4 }).with_budget(50);
        stream_schedule(&mut Rng::new(seed, 2), &g, &reads, &budgeted, 400)
    }

    #[test]
    fn one_seed_one_stream_schedule() {
        let (a, b, c) = (stream(3), stream(3), stream(4));
        assert_eq!(bytes(&a.ops), bytes(&b.ops));
        assert_eq!(a.deltas, b.deltas);
        assert_ne!(bytes(&a.ops), bytes(&c.ops));
    }

    #[test]
    fn stream_schedule_has_the_stated_shape() {
        let s = stream(5);
        let g = datasets::by_name("soc-fbMsg").unwrap().generate(5);
        let mut reference = EdgeSet::of(&g);
        assert_eq!(s.deltas.len(), 400 / OPS_PER_MUTATION);
        let mut budgeted = 0;
        for (i, op) in s.ops.iter().enumerate() {
            match &op.class {
                OpClass::Mutate { n, rebuild } => {
                    assert_eq!(i % OPS_PER_MUTATION, 0);
                    // Every intent applies: deletes hit live edges, inserts
                    // absent ones.
                    assert_eq!(reference.apply(&s.deltas[*n]), INTENTS_PER_MUTATION);
                    // The first mutation rebuilds, and so does each one whose
                    // predecessor was followed by a budgeted read.
                    assert_eq!(*rebuild, *n == 0 || (*n - 1) % BUDGETED_EVERY == 1);
                }
                OpClass::BudgetedRead => {
                    budgeted += 1;
                    assert_eq!(i % OPS_PER_MUTATION, 1, "right after its mutation");
                    assert!(op.line.contains("\"tenant\":\"t0\""));
                }
                OpClass::Read { .. } => assert!(!op.line.contains("\"tenant\":\"t0\"")),
            }
        }
        assert_eq!(budgeted, s.deltas.len() / BUDGETED_EVERY);
        assert_eq!(reference.to_csr().num_edges(), g.num_edges());
    }
}
