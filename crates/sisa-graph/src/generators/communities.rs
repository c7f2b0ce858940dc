//! Planted-clique community graphs.
//!
//! The graph-mining datasets in the paper's Table 7 — gene-association,
//! brain and economic networks — are characterised by *very dense clusters*
//! and heavy-tailed degree distributions ("the human genome graph has many
//! vertices connected to more than 30% of all other vertices", §9.2). The
//! planted-clique generator reproduces that structure: it overlays a
//! configurable number of (possibly overlapping) cliques on a sparse random
//! background, so that clique-mining workloads have real work to do and the
//! hybrid DB/SA set layout is exercised on both dense and sparse
//! neighbourhoods.

use crate::{CsrGraph, GraphBuilder, Vertex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration of the planted-clique community generator.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct PlantedCliqueConfig {
    /// Number of vertices in the graph.
    pub num_vertices: usize,
    /// Number of cliques to plant.
    pub num_cliques: usize,
    /// Minimum planted-clique size.
    pub min_clique_size: usize,
    /// Maximum planted-clique size (inclusive).
    pub max_clique_size: usize,
    /// Number of uniformly random background edges added on top.
    pub background_edges: usize,
    /// Fraction of each clique's members drawn from previously used vertices,
    /// creating overlapping communities (0.0 = disjoint cliques).
    pub overlap: f64,
}

impl Default for PlantedCliqueConfig {
    fn default() -> Self {
        Self {
            num_vertices: 1000,
            num_cliques: 20,
            min_clique_size: 4,
            max_clique_size: 10,
            background_edges: 2000,
            overlap: 0.15,
        }
    }
}

/// Generates a planted-clique community graph.
///
/// Returns the graph together with the list of planted cliques (each a sorted
/// vertex list), which tests use as ground truth: every planted clique must be
/// contained in some maximal clique reported by the mining algorithms.
#[must_use]
pub fn planted_cliques(cfg: &PlantedCliqueConfig, seed: u64) -> (CsrGraph, Vec<Vec<Vertex>>) {
    assert!(
        cfg.min_clique_size >= 2,
        "cliques need at least two vertices"
    );
    assert!(
        cfg.max_clique_size >= cfg.min_clique_size,
        "max clique size must be at least min clique size"
    );
    assert!(
        cfg.max_clique_size <= cfg.num_vertices,
        "cliques cannot exceed the vertex count"
    );
    let mut rng = StdRng::seed_from_u64(seed);
    let n = cfg.num_vertices;
    let mut builder = GraphBuilder::new(n);
    let mut used: Vec<Vertex> = Vec::new();
    let mut cliques: Vec<Vec<Vertex>> = Vec::with_capacity(cfg.num_cliques);

    for _ in 0..cfg.num_cliques {
        let size = rng.random_range(cfg.min_clique_size..=cfg.max_clique_size);
        let mut members: Vec<Vertex> = Vec::with_capacity(size);
        let mut guard = 0usize;
        while members.len() < size && guard < 100 * size {
            guard += 1;
            let reuse = !used.is_empty() && rng.random_bool(cfg.overlap.clamp(0.0, 1.0));
            let v = if reuse {
                used[rng.random_range(0..used.len())]
            } else {
                rng.random_range(0..n as Vertex)
            };
            if !members.contains(&v) {
                members.push(v);
            }
        }
        members.sort_unstable();
        for (i, &u) in members.iter().enumerate() {
            for &v in &members[i + 1..] {
                builder.add_edge(u, v);
            }
        }
        used.extend_from_slice(&members);
        cliques.push(members);
    }

    let mut added = 0usize;
    let mut guard = 0usize;
    while added < cfg.background_edges && guard < 50 * cfg.background_edges.max(1) {
        guard += 1;
        let u = rng.random_range(0..n as Vertex);
        let v = rng.random_range(0..n as Vertex);
        if u != v {
            builder.add_edge(u, v);
            added += 1;
        }
    }

    (builder.build(), cliques)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeStats;
    use crate::properties;

    #[test]
    fn default_config_produces_dense_clusters() {
        let (g, cliques) = planted_cliques(&PlantedCliqueConfig::default(), 123);
        assert_eq!(g.num_vertices(), 1000);
        assert_eq!(cliques.len(), 20);
        // Each planted clique is present.
        for c in &cliques {
            assert!(properties::is_clique(&g, c));
        }
        // The global clustering coefficient, 3 · triangles / wedges, is far
        // above that of a comparable Erdős–Rényi graph (which would be
        // ≈ average degree / n ≈ 0.006).
        let wedges: u64 = g
            .vertices()
            .map(|v| {
                let d = g.degree(v) as u64;
                d * d.saturating_sub(1) / 2
            })
            .sum();
        assert!(3.0 * properties::triangle_count(&g) as f64 / wedges as f64 > 0.02);
    }

    #[test]
    fn overlap_creates_hub_vertices() {
        let cfg = PlantedCliqueConfig {
            num_vertices: 200,
            num_cliques: 40,
            min_clique_size: 6,
            max_clique_size: 14,
            background_edges: 100,
            overlap: 0.6,
        };
        let (g, _) = planted_cliques(&cfg, 5);
        let stats = DegreeStats::compute(&g);
        assert!(
            stats.is_heavy_tailed(),
            "max fraction {}",
            stats.max_degree_fraction
        );
    }

    #[test]
    #[should_panic(expected = "at least two")]
    fn rejects_degenerate_clique_size() {
        let cfg = PlantedCliqueConfig {
            min_clique_size: 1,
            ..PlantedCliqueConfig::default()
        };
        let _ = planted_cliques(&cfg, 0);
    }

    #[test]
    fn zero_background_edges_is_allowed() {
        let cfg = PlantedCliqueConfig {
            num_vertices: 50,
            num_cliques: 3,
            min_clique_size: 3,
            max_clique_size: 5,
            background_edges: 0,
            overlap: 0.0,
        };
        let (g, cliques) = planted_cliques(&cfg, 9);
        let planted_edges: usize = cliques.iter().map(|c| c.len() * (c.len() - 1) / 2).sum();
        // Dedup can only reduce the count.
        assert!(g.num_edges() <= planted_edges);
        assert!(g.num_edges() >= cliques.iter().map(|c| c.len() - 1).sum());
    }
}
