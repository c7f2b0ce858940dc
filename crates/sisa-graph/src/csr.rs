//! Compressed-sparse-row graph storage.
//!
//! The CSR layout is the baseline storage format in the paper's evaluation
//! ("Standard codes often use some form of CSR", Table 4): an `offsets` array
//! of length `n + 1` and a `targets` array holding all neighbourhoods
//! back-to-back, each sorted by vertex identifier.

use crate::Vertex;

/// An immutable graph in compressed-sparse-row form.
///
/// The graph may be *undirected* (every edge `{u, v}` is stored in both
/// neighbourhoods) or *directed* (arcs are stored only at their source, as
/// produced, e.g., by [`CsrGraph::oriented_by`]). Neighbourhoods are always
/// sorted, which the set-centric algorithms rely on for merge intersections.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct CsrGraph {
    offsets: Vec<usize>,
    targets: Vec<Vertex>,
    /// Number of undirected edges (or arcs, for a directed graph).
    edge_count: usize,
    directed: bool,
    vertex_labels: Option<Vec<u32>>,
}

impl CsrGraph {
    /// Builds an undirected graph with `n` vertices from an edge list.
    ///
    /// Self-loops are dropped and duplicate edges are deduplicated. Vertex
    /// identifiers must be `< n`.
    #[must_use]
    pub fn from_edges(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        let mut builder = GraphBuilder::new(n);
        for &(u, v) in edges {
            builder.add_edge(u, v);
        }
        builder.build()
    }

    /// Builds a graph from per-vertex adjacency lists.
    ///
    /// Lists are sorted and deduplicated. When `directed` is false the caller
    /// must have included each edge in both endpoint lists.
    #[must_use]
    pub fn from_adjacency(
        mut adj: Vec<Vec<Vertex>>,
        directed: bool,
        vertex_labels: Option<Vec<u32>>,
    ) -> Self {
        let mut offsets = Vec::with_capacity(adj.len() + 1);
        offsets.push(0usize);
        let mut targets = Vec::new();
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
            targets.extend_from_slice(list);
            offsets.push(targets.len());
        }
        Self::from_sorted_parts(offsets, targets, directed, vertex_labels)
    }

    /// Wraps finished CSR arrays: `offsets` has one entry per vertex plus the
    /// closing `targets.len()`, and every row of `targets` is already sorted
    /// and duplicate-free. For callers in this crate that build rows in
    /// order and have nothing left to sort.
    pub(crate) fn from_sorted_parts(
        offsets: Vec<usize>,
        targets: Vec<Vertex>,
        directed: bool,
        vertex_labels: Option<Vec<u32>>,
    ) -> Self {
        assert_eq!(offsets.last(), Some(&targets.len()), "offsets must close");
        debug_assert!(
            offsets
                .windows(2)
                .all(|row| targets[row[0]..row[1]].windows(2).all(|w| w[0] < w[1])),
            "rows must be sorted and duplicate-free"
        );
        let edge_count = if directed {
            targets.len()
        } else {
            targets.len() / 2
        };
        if let Some(labels) = &vertex_labels {
            assert_eq!(
                labels.len(),
                offsets.len() - 1,
                "one label per vertex required"
            );
        }
        Self {
            offsets,
            targets,
            edge_count,
            directed,
            vertex_labels,
        }
    }

    /// The raw CSR arrays `(offsets, targets)`, for splicing whole runs of
    /// rows into a successor graph.
    pub(crate) fn parts(&self) -> (&[usize], &[Vertex]) {
        (&self.offsets, &self.targets)
    }

    /// Number of vertices `n`.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.offsets.len() - 1
    }

    /// Number of undirected edges `m` (or arcs for a directed graph).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.edge_count
    }

    /// Whether the graph is directed.
    #[must_use]
    pub(crate) fn is_directed(&self) -> bool {
        self.directed
    }

    /// The (out-)degree of vertex `v`.
    #[must_use]
    pub fn degree(&self, v: Vertex) -> usize {
        let v = v as usize;
        self.offsets[v + 1] - self.offsets[v]
    }

    /// The sorted (out-)neighbourhood of vertex `v`.
    #[must_use]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        let v = v as usize;
        &self.targets[self.offsets[v]..self.offsets[v + 1]]
    }

    /// Whether the edge (or arc) `u → v` exists; `O(log d(u))`.
    #[must_use]
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.neighbors(u).binary_search(&v).is_ok()
    }

    /// The maximum (out-)degree `d`.
    #[must_use]
    pub fn max_degree(&self) -> usize {
        (0..self.num_vertices())
            .map(|v| self.degree(v as Vertex))
            .max()
            .unwrap_or(0)
    }

    /// All vertex identifiers `0..n`.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        0..self.num_vertices() as Vertex
    }

    /// Iterates over every stored (directed) arc `(u, v)`.
    ///
    /// For an undirected graph every edge appears twice, once per direction.
    pub fn arcs(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.vertices()
            .flat_map(move |u| self.neighbors(u).iter().map(move |&v| (u, v)))
    }

    /// Iterates over every undirected edge `(u, v)` with `u < v`.
    ///
    /// For a directed graph this simply filters arcs with `u < v`.
    pub fn edges(&self) -> impl Iterator<Item = (Vertex, Vertex)> + '_ {
        self.arcs().filter(|&(u, v)| u < v)
    }

    /// The degree sequence, indexed by vertex.
    #[must_use]
    pub(crate) fn degree_sequence(&self) -> Vec<usize> {
        (0..self.num_vertices())
            .map(|v| self.degree(v as Vertex))
            .collect()
    }

    /// The vertex label of `v`, if the graph is labelled.
    #[must_use]
    pub fn vertex_label(&self, v: Vertex) -> Option<u32> {
        self.vertex_labels.as_ref().map(|l| l[v as usize])
    }

    /// All vertex labels, if present.
    #[must_use]
    pub(crate) fn vertex_labels(&self) -> Option<&[u32]> {
        self.vertex_labels.as_deref()
    }

    /// Returns a copy of the graph carrying the given vertex labels.
    ///
    /// # Panics
    ///
    /// Panics unless exactly one label per vertex is supplied.
    #[must_use]
    pub fn with_vertex_labels(mut self, labels: Vec<u32>) -> Self {
        assert_eq!(labels.len(), self.num_vertices());
        self.vertex_labels = Some(labels);
        self
    }

    /// Orients an undirected graph into a DAG: the arc `u → v` is kept iff
    /// `rank[u] < rank[v]`.
    ///
    /// With `rank` being a degeneracy ordering this is exactly the
    /// degeneracy-ordered orientation used by the k-clique and Bron–Kerbosch
    /// algorithms (§5.1.3, §7.1): it makes the graph acyclic and bounds the
    /// out-degree by the degeneracy `c`.
    ///
    /// # Panics
    ///
    /// Panics if `rank` does not provide one rank per vertex.
    #[must_use]
    pub fn oriented_by(&self, rank: &[usize]) -> CsrGraph {
        assert_eq!(rank.len(), self.num_vertices());
        // One pass: a row keeps a sorted subsequence of a sorted row.
        let mut offsets = Vec::with_capacity(self.offsets.len());
        offsets.push(0);
        let mut targets = Vec::with_capacity(self.targets.len() / 2);
        for u in self.vertices() {
            let rank_u = rank[u as usize];
            targets.extend(
                self.neighbors(u)
                    .iter()
                    .filter(|&&v| rank_u < rank[v as usize]),
            );
            offsets.push(targets.len());
        }
        CsrGraph::from_sorted_parts(offsets, targets, true, self.vertex_labels.clone())
    }

    /// Estimated in-memory footprint of the CSR arrays, in bytes.
    ///
    /// Used by the hybrid set-graph to enforce the paper's "at most 10% extra
    /// storage on top of CSR" budget (§6.1, §9.1).
    #[must_use]
    pub fn csr_bytes(&self) -> usize {
        self.offsets.len() * std::mem::size_of::<usize>()
            + self.targets.len() * std::mem::size_of::<Vertex>()
    }

    /// The total number of stored arcs (`Σ_v d(v)`).
    #[must_use]
    pub fn total_stored_arcs(&self) -> usize {
        self.targets.len()
    }
}

/// Incremental builder for undirected [`CsrGraph`]s.
///
/// Collects edges, drops self-loops, deduplicates, and produces a CSR graph
/// with sorted neighbourhoods.
#[derive(Clone, Debug)]
pub struct GraphBuilder {
    n: usize,
    adj: Vec<Vec<Vertex>>,
}

impl GraphBuilder {
    /// Creates a builder for a graph with `n` vertices and no edges.
    #[must_use]
    pub fn new(n: usize) -> Self {
        Self {
            n,
            adj: vec![Vec::new(); n],
        }
    }

    /// Adds the undirected edge `{u, v}`. Self-loops are silently ignored.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: Vertex, v: Vertex) -> &mut Self {
        assert!(
            (u as usize) < self.n && (v as usize) < self.n,
            "edge ({u}, {v}) outside vertex range 0..{}",
            self.n
        );
        if u != v {
            self.adj[u as usize].push(v);
            self.adj[v as usize].push(u);
        }
        self
    }

    /// Adds every edge from the iterator.
    pub fn add_edges(&mut self, edges: impl IntoIterator<Item = (Vertex, Vertex)>) -> &mut Self {
        for (u, v) in edges {
            self.add_edge(u, v);
        }
        self
    }

    /// Number of vertices the builder was created with.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.n
    }

    /// Finalises the builder into an undirected [`CsrGraph`].
    #[must_use]
    pub fn build(self) -> CsrGraph {
        CsrGraph::from_adjacency(self.adj, false, None)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators::{self, RmatConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// `CsrGraph::oriented_by` as it stood: one `Vec` per row, then
    /// `from_adjacency` re-sorts and re-concatenates them.
    fn oriented_by_rows(g: &CsrGraph, rank: &[usize]) -> CsrGraph {
        let mut adj: Vec<Vec<Vertex>> = vec![Vec::new(); g.num_vertices()];
        for u in g.vertices() {
            for &v in g.neighbors(u) {
                if rank[u as usize] < rank[v as usize] {
                    adj[u as usize].push(v);
                }
            }
        }
        CsrGraph::from_adjacency(adj, true, g.vertex_labels.clone())
    }

    fn triangle_plus_tail() -> CsrGraph {
        // 0-1, 1-2, 0-2 triangle, plus 2-3 tail.
        CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)])
    }

    #[test]
    fn basic_accessors() {
        let g = triangle_plus_tail();
        assert_eq!(g.num_vertices(), 4);
        assert_eq!(g.num_edges(), 4);
        assert!(!g.is_directed());
        assert_eq!(g.degree(2), 3);
        assert_eq!(g.neighbors(2), &[0, 1, 3]);
        assert_eq!(g.max_degree(), 3);
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(0, 3));
    }

    #[test]
    fn duplicate_edges_and_self_loops_are_dropped() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 0), (0, 1), (2, 2)]);
        assert_eq!(g.num_edges(), 1);
        assert_eq!(g.degree(2), 0);
        assert_eq!(g.neighbors(0), &[1]);
    }

    #[test]
    fn edges_iterator_lists_each_edge_once() {
        let g = triangle_plus_tail();
        let edges: Vec<_> = g.edges().collect();
        assert_eq!(edges, vec![(0, 1), (0, 2), (1, 2), (2, 3)]);
        assert_eq!(g.arcs().count(), 8);
    }

    #[test]
    fn orientation_by_rank_is_acyclic_and_halves_arcs() {
        let g = triangle_plus_tail();
        let rank = vec![0usize, 1, 2, 3];
        let d = g.oriented_by(&rank);
        assert!(d.is_directed());
        assert_eq!(d.num_edges(), 4);
        assert_eq!(d.neighbors(0), &[1, 2]);
        assert_eq!(d.neighbors(3), &[] as &[Vertex]);
        // No arc goes from higher rank to lower rank.
        for (u, v) in d.arcs() {
            assert!(rank[u as usize] < rank[v as usize]);
        }
    }

    #[test]
    fn labels_are_carried() {
        let g = triangle_plus_tail().with_vertex_labels(vec![7, 8, 9, 9]);
        assert_eq!(g.vertex_label(0), Some(7));
        assert_eq!(g.vertex_label(3), Some(9));
        let oriented = g.oriented_by(&[0, 1, 2, 3]);
        assert_eq!(oriented.vertex_label(1), Some(8));
    }

    #[test]
    fn builder_collects_edges() {
        let mut b = GraphBuilder::new(5);
        b.add_edges([(0, 1), (1, 2), (3, 4)]);
        b.add_edge(0, 4);
        assert_eq!(b.num_vertices(), 5);
        let g = b.build();
        assert_eq!(g.num_edges(), 4);
        assert_eq!(g.neighbors(0), &[1, 4]);
    }

    #[test]
    fn csr_bytes_accounts_offsets_and_targets() {
        let g = triangle_plus_tail();
        let expected = 5 * std::mem::size_of::<usize>() + 8 * std::mem::size_of::<Vertex>();
        assert_eq!(g.csr_bytes(), expected);
        assert_eq!(g.total_stored_arcs(), 8);
    }

    #[test]
    fn oriented_by_matches_the_row_rebuild_bit_for_bit() {
        let mut graphs = vec![
            CsrGraph::from_edges(0, &[]),
            CsrGraph::from_edges(1, &[]),
            triangle_plus_tail(),
            triangle_plus_tail().with_vertex_labels(vec![7, 8, 9, 9]),
            generators::complete(9),
            generators::erdos_renyi(64, 0.2, 3),
            generators::erdos_renyi(501, 0.9, 1),
            generators::kronecker(
                &RmatConfig {
                    scale: 9,
                    edge_factor: 8,
                    a: 0.9,
                    b: 0.05,
                    c: 0.04,
                },
                2,
            ),
            generators::barabasi_albert(300, 4, 11)
                .with_vertex_labels((0..300).map(|v| v % 3).collect()),
        ];
        // A directed input: orienting an oriented graph again.
        let oriented = graphs[5].oriented_by(&(0..64).rev().collect::<Vec<_>>());
        graphs.push(oriented);
        let mut rng = StdRng::seed_from_u64(45);
        for g in &graphs {
            let n = g.num_vertices();
            let mut shuffled: Vec<usize> = (0..n).collect();
            for i in (1..n).rev() {
                shuffled.swap(i, rng.random_range(0..=i));
            }
            let ranks = [
                crate::degeneracy_order(g).rank,
                (0..n).collect(),
                (0..n).rev().collect(),
                shuffled,
                // Ties keep neither direction of an edge.
                (0..n).map(|v| v / 3).collect(),
            ];
            for rank in &ranks {
                let got = g.oriented_by(rank);
                assert_eq!(got, oriented_by_rows(g, rank), "n {n}, rank {rank:?}");
                assert_eq!(got.vertex_labels(), g.vertex_labels());
            }
        }
    }

    #[test]
    fn empty_graph() {
        let g = CsrGraph::from_edges(0, &[]);
        assert_eq!(g.num_vertices(), 0);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.max_degree(), 0);
    }
}
