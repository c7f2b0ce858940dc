//! Vertex and edge labelling for labelled graph mining.
//!
//! The paper uses subgraph isomorphism (§5.1.6) to demonstrate that SISA
//! supports labelled graphs: vertex labels are kept "as a sparse array ...
//! indexed by vertex IDs" (§6.3.1) and edge labels are matched inside the VF2
//! feasibility check. The evaluation assigns each vertex "a label selected at
//! random out of 3 ones" (Figure 6, `si-4s-L`).

use crate::{CsrGraph, Vertex};
use std::collections::HashMap;

/// Edge labels stored as a map keyed by the *canonical* endpoint pair
/// `(min(u, v), max(u, v))`.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct EdgeLabels {
    labels: HashMap<(Vertex, Vertex), u32>,
}

impl EdgeLabels {
    /// Creates an empty edge-label table.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the label of the undirected edge `{u, v}`.
    pub fn set(&mut self, u: Vertex, v: Vertex, label: u32) {
        self.labels.insert(Self::key(u, v), label);
    }

    /// Returns the label of the undirected edge `{u, v}`, if present.
    #[must_use]
    pub fn get(&self, u: Vertex, v: Vertex) -> Option<u32> {
        self.labels.get(&Self::key(u, v)).copied()
    }

    /// Number of labelled edges.
    #[must_use]
    pub fn len(&self) -> usize {
        self.labels.len()
    }

    /// Whether no edge is labelled.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.labels.is_empty()
    }

    fn key(u: Vertex, v: Vertex) -> (Vertex, Vertex) {
        if u <= v {
            (u, v)
        } else {
            (v, u)
        }
    }
}

/// A graph bundled with its vertex labels and (optional) edge labels, the
/// input type of labelled subgraph isomorphism.
#[derive(Clone, Debug)]
pub struct LabeledGraph {
    /// The underlying structure (which itself carries the vertex labels).
    pub graph: CsrGraph,
    /// Edge labels; empty means "all edges share one implicit label".
    pub edge_labels: EdgeLabels,
}

impl LabeledGraph {
    /// Wraps a vertex-labelled graph with no edge labels.
    #[must_use]
    pub fn new(graph: CsrGraph) -> Self {
        Self {
            graph,
            edge_labels: EdgeLabels::new(),
        }
    }

    /// Wraps a graph and assigns every vertex a label drawn uniformly from
    /// `0..num_labels` with a deterministic seed — exactly the labelled-SI
    /// setup of the paper's evaluation.
    #[must_use]
    pub fn with_random_vertex_labels(graph: CsrGraph, num_labels: u32, seed: u64) -> Self {
        let n = graph.num_vertices();
        let labels: Vec<u32> = (0..n)
            .map(|v| (splitmix64(seed.wrapping_add(v as u64)) % u64::from(num_labels)) as u32)
            .collect();
        Self::new(graph.with_vertex_labels(labels))
    }

    /// The label of vertex `v` (0 when the graph is unlabelled).
    #[must_use]
    pub fn vertex_label(&self, v: Vertex) -> u32 {
        self.graph.vertex_label(v).unwrap_or(0)
    }
}

/// SplitMix64: a tiny, high-quality mixing function used for deterministic
/// label assignment without pulling a full RNG into this module.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edge_labels_are_symmetric() {
        let mut el = EdgeLabels::new();
        el.set(3, 1, 42);
        assert_eq!(el.get(1, 3), Some(42));
        assert_eq!(el.get(3, 1), Some(42));
        assert_eq!(el.get(0, 1), None);
        assert_eq!(el.len(), 1);
        assert!(!el.is_empty());
    }

    #[test]
    fn random_vertex_labels_are_deterministic_and_in_range() {
        let g = CsrGraph::from_edges(100, &[(0, 1), (1, 2)]);
        let a = LabeledGraph::with_random_vertex_labels(g.clone(), 3, 7);
        let b = LabeledGraph::with_random_vertex_labels(g, 3, 7);
        for v in 0..100u32 {
            assert!(a.vertex_label(v) < 3);
            assert_eq!(a.vertex_label(v), b.vertex_label(v));
        }
        // With 100 vertices and 3 labels, all labels should occur.
        let mut seen = [false; 3];
        for v in 0..100u32 {
            seen[a.vertex_label(v) as usize] = true;
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn unlabelled_defaults_to_zero() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let lg = LabeledGraph::new(g);
        assert_eq!(lg.vertex_label(2), 0);
    }
}
