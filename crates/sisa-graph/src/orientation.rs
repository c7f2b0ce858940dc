//! Degeneracy orderings and degeneracy-ordered orientation.
//!
//! Several of the paper's set-centric formulations (k-clique listing,
//! Bron–Kerbosch with degeneracy, k-clique-stars) rely on ordering the
//! vertices by *degeneracy* and orienting edges from earlier to later vertices
//! (§5.1.3, §5.1.5, §7.1). [`degeneracy_order`] is the exact peeling
//! algorithm (repeatedly remove a minimum-degree vertex), which also yields
//! the graph's degeneracy `c`. The paper's Algorithm 6, the set-centric
//! `O(log n)`-round approximation with ratio `2 + ε`, runs on SISA
//! instructions in `sisa-algorithms`.

use crate::{CsrGraph, Vertex};

/// The result of computing a degeneracy ordering.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DegeneracyOrdering {
    /// `order[i]` is the i-th vertex in the ordering (peeled i-th).
    pub order: Vec<Vertex>,
    /// `rank[v]` is the position of vertex `v` in `order`.
    pub rank: Vec<usize>,
    /// The degeneracy `c`: the maximum, over peeling steps, of the degree of
    /// the peeled vertex within the remaining graph. Every graph has a vertex
    /// of degree ≤ `c` in every subgraph.
    pub degeneracy: usize,
}

impl DegeneracyOrdering {
    /// Orients `g` along this ordering: arc `u → v` kept iff
    /// `rank[u] < rank[v]`. Out-degrees are then bounded by the degeneracy
    /// (for the exact ordering).
    #[must_use]
    pub fn orient(&self, g: &CsrGraph) -> CsrGraph {
        g.oriented_by(&self.rank)
    }
}

/// Computes the exact degeneracy ordering by iterative minimum-degree peeling
/// (bucket queue, `O(n + m)` time).
#[must_use]
pub fn degeneracy_order(g: &CsrGraph) -> DegeneracyOrdering {
    let n = g.num_vertices();
    let mut degree: Vec<usize> = g.degree_sequence();
    let max_deg = degree.iter().copied().max().unwrap_or(0);

    // Bucket queue: buckets[d] holds vertices of current degree d.
    let mut buckets: Vec<Vec<Vertex>> = vec![Vec::new(); max_deg + 1];
    for v in 0..n {
        buckets[degree[v]].push(v as Vertex);
    }
    let mut removed = vec![false; n];
    let mut order = Vec::with_capacity(n);
    let mut rank = vec![0usize; n];
    let mut degeneracy = 0usize;
    let mut cursor = 0usize;

    for step in 0..n {
        // Find the minimum-degree alive vertex. Buckets may contain stale
        // entries (a vertex whose degree has since decreased keeps its old
        // entry); those are discarded on pop because a fresh entry was pushed
        // into the lower bucket at decrement time, and the cursor is lowered
        // whenever that happens, so no valid entry is ever skipped.
        let v = loop {
            while buckets[cursor].is_empty() {
                cursor += 1;
                debug_assert!(
                    cursor <= max_deg,
                    "ran out of buckets with vertices remaining"
                );
            }
            let candidate = buckets[cursor]
                .pop()
                .expect("cursor points at a non-empty bucket");
            if !removed[candidate as usize] && degree[candidate as usize] == cursor {
                break candidate;
            }
        };
        removed[v as usize] = true;
        degeneracy = degeneracy.max(degree[v as usize]);
        rank[v as usize] = step;
        order.push(v);
        for &w in g.neighbors(v) {
            let w = w as usize;
            if !removed[w] {
                degree[w] -= 1;
                buckets[degree[w]].push(w as Vertex);
                if degree[w] < cursor {
                    cursor = degree[w];
                }
            }
        }
    }

    DegeneracyOrdering {
        order,
        rank,
        degeneracy,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    fn star(n: usize) -> CsrGraph {
        let edges: Vec<(Vertex, Vertex)> = (1..n as Vertex).map(|v| (0, v)).collect();
        CsrGraph::from_edges(n, &edges)
    }

    fn complete(n: usize) -> CsrGraph {
        let mut edges = Vec::new();
        for u in 0..n as Vertex {
            for v in (u + 1)..n as Vertex {
                edges.push((u, v));
            }
        }
        CsrGraph::from_edges(n, &edges)
    }

    #[test]
    fn star_graph_has_degeneracy_one() {
        let g = star(50);
        let ord = degeneracy_order(&g);
        assert_eq!(ord.degeneracy, 1);
        // The hub is peeled among the last vertices: once only one leaf
        // remains, hub and leaf both have degree 1 and ties are arbitrary.
        assert!(ord.order[48..].contains(&0));
        assert_eq!(ord.order.len(), 50);
    }

    #[test]
    fn complete_graph_has_degeneracy_n_minus_one() {
        let g = complete(8);
        let ord = degeneracy_order(&g);
        assert_eq!(ord.degeneracy, 7);
        // The orientation bounds out-degree by the degeneracy.
        let oriented = ord.orient(&g);
        assert!(oriented.max_degree() <= 7);
        assert_eq!(oriented.num_edges(), g.num_edges());
    }

    #[test]
    fn rank_is_a_permutation_consistent_with_order() {
        let g = generators::erdos_renyi(200, 0.05, 7);
        let ord = degeneracy_order(&g);
        let mut seen = [false; 200];
        for &v in &ord.order {
            assert!(!seen[v as usize]);
            seen[v as usize] = true;
        }
        for (i, &v) in ord.order.iter().enumerate() {
            assert_eq!(ord.rank[v as usize], i);
        }
    }

    #[test]
    fn oriented_out_degree_bounded_by_degeneracy() {
        let g = generators::barabasi_albert(300, 4, 11);
        let ord = degeneracy_order(&g);
        let oriented = ord.orient(&g);
        assert!(oriented.max_degree() <= ord.degeneracy);
        assert_eq!(oriented.num_edges(), g.num_edges());
    }

    #[test]
    fn empty_and_singleton_graphs() {
        let empty = CsrGraph::from_edges(0, &[]);
        assert_eq!(degeneracy_order(&empty).degeneracy, 0);
        let single = CsrGraph::from_edges(1, &[]);
        let ord = degeneracy_order(&single);
        assert_eq!(ord.order, vec![0]);
        assert_eq!(ord.degeneracy, 0);
    }
}
