//! Classic deterministic topologies (paths, cycles, stars, cliques).
//!
//! These serve two purposes: they are test fixtures with exactly known
//! properties (triangle counts, degeneracy, clique structure), and they are
//! the extreme points the paper's analysis reasons about (e.g. "a star graph
//! has maximum degree n−1 but degeneracy 1", §7.1).

use crate::{CsrGraph, Vertex};

/// A simple path `0 - 1 - ... - (n-1)`.
#[must_use]
pub fn path(n: usize) -> CsrGraph {
    let edges: Vec<(Vertex, Vertex)> = (1..n as Vertex).map(|v| (v - 1, v)).collect();
    CsrGraph::from_edges(n, &edges)
}

/// A cycle on `n ≥ 3` vertices (for `n < 3` it degenerates to a path).
#[must_use]
pub fn cycle(n: usize) -> CsrGraph {
    let mut edges: Vec<(Vertex, Vertex)> = (1..n as Vertex).map(|v| (v - 1, v)).collect();
    if n >= 3 {
        edges.push((n as Vertex - 1, 0));
    }
    CsrGraph::from_edges(n, &edges)
}

/// A star: vertex 0 connected to every other vertex.
#[must_use]
pub fn star(n: usize) -> CsrGraph {
    let edges: Vec<(Vertex, Vertex)> = (1..n as Vertex).map(|v| (0, v)).collect();
    CsrGraph::from_edges(n, &edges)
}

/// The complete graph `K_n`.
#[must_use]
pub fn complete(n: usize) -> CsrGraph {
    let mut edges = Vec::with_capacity(n * (n.saturating_sub(1)) / 2);
    for u in 0..n as Vertex {
        for v in (u + 1)..n as Vertex {
            edges.push((u, v));
        }
    }
    CsrGraph::from_edges(n, &edges)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::orientation::degeneracy_order;
    use crate::properties::triangle_count;

    #[test]
    fn path_and_cycle_edge_counts() {
        assert_eq!(path(10).num_edges(), 9);
        assert_eq!(cycle(10).num_edges(), 10);
        assert_eq!(cycle(2).num_edges(), 1);
        assert_eq!(triangle_count(&cycle(3)), 1);
        assert_eq!(triangle_count(&cycle(5)), 0);
    }

    #[test]
    fn star_has_degeneracy_one_and_max_degree_n_minus_one() {
        let g = star(30);
        assert_eq!(g.max_degree(), 29);
        assert_eq!(degeneracy_order(&g).degeneracy, 1);
        assert_eq!(triangle_count(&g), 0);
    }

    #[test]
    fn complete_graph_counts() {
        let g = complete(7);
        assert_eq!(g.num_edges(), 21);
        assert_eq!(triangle_count(&g), 35);
        assert_eq!(degeneracy_order(&g).degeneracy, 6);
    }
}
