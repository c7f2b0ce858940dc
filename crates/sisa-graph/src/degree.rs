//! Degree-distribution statistics.
//!
//! Figure 7a of the paper contrasts the degree distributions of graphs
//! commonly used in graph *mining* (very heavy tails, vertices connected to a
//! large fraction of the graph) with graphs used in general graph processing
//! (much lighter tails). This module computes the statistics that the
//! `fig7a_degrees` harness prints: the degree frequencies, tail-heaviness
//! summaries and the fraction of the universe covered by the largest
//! neighbourhood.

use crate::CsrGraph;

/// Summary statistics of a graph's degree distribution.
#[derive(Clone, Debug, PartialEq)]
pub struct DegreeStats {
    /// Number of vertices.
    pub num_vertices: usize,
    /// Number of (undirected) edges.
    pub num_edges: usize,
    /// Maximum degree.
    pub max_degree: usize,
    /// Mean degree.
    pub mean_degree: f64,
    /// Median degree.
    pub median_degree: usize,
    /// 99th-percentile degree.
    pub p99_degree: usize,
    /// Maximum degree as a fraction of `n` (the paper highlights graphs where
    /// single vertices connect to >30% of the graph).
    pub max_degree_fraction: f64,
    /// Fraction of vertices whose degree exceeds 10% of `n`.
    pub heavy_vertex_fraction: f64,
    /// Skewness proxy: max degree divided by mean degree.
    pub skew: f64,
}

impl DegreeStats {
    /// Computes the statistics for `g`.
    #[must_use]
    pub fn compute(g: &CsrGraph) -> Self {
        let n = g.num_vertices();
        let mut degrees = g.degree_sequence();
        degrees.sort_unstable();
        let max_degree = degrees.last().copied().unwrap_or(0);
        let mean = if n == 0 {
            0.0
        } else {
            degrees.iter().sum::<usize>() as f64 / n as f64
        };
        let median = if n == 0 { 0 } else { degrees[n / 2] };
        let p99 = if n == 0 {
            0
        } else {
            degrees[((n as f64 * 0.99) as usize).min(n - 1)]
        };
        let heavy = if n == 0 {
            0.0
        } else {
            degrees
                .iter()
                .filter(|&&d| d as f64 >= 0.1 * n as f64)
                .count() as f64
                / n as f64
        };
        Self {
            num_vertices: n,
            num_edges: g.num_edges(),
            max_degree,
            mean_degree: mean,
            median_degree: median,
            p99_degree: p99,
            max_degree_fraction: if n == 0 {
                0.0
            } else {
                max_degree as f64 / n as f64
            },
            heavy_vertex_fraction: heavy,
            skew: if mean > 0.0 {
                max_degree as f64 / mean
            } else {
                0.0
            },
        }
    }

    /// A coarse classification matching the paper's Figure 7a narrative: does
    /// the distribution have a "very heavy tail" (single vertices adjacent to
    /// a large fraction of the graph) or a light tail?
    #[must_use]
    pub fn is_heavy_tailed(&self) -> bool {
        self.max_degree_fraction >= 0.10
    }
}

/// Frequency of every distinct degree value, as `(degree, count)` pairs sorted
/// by degree — the exact data behind the paper's Figure 7a scatter plots.
#[must_use]
pub fn degree_frequency(g: &CsrGraph) -> Vec<(usize, usize)> {
    let mut counts: std::collections::BTreeMap<usize, usize> = std::collections::BTreeMap::new();
    for v in g.vertices() {
        *counts.entry(g.degree(v)).or_insert(0) += 1;
    }
    counts.into_iter().collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;
    use crate::CsrGraph;

    #[test]
    fn stats_of_a_star_are_heavy_tailed() {
        let edges: Vec<(u32, u32)> = (1..100u32).map(|v| (0, v)).collect();
        let g = CsrGraph::from_edges(100, &edges);
        let stats = DegreeStats::compute(&g);
        assert_eq!(stats.max_degree, 99);
        assert_eq!(stats.median_degree, 1);
        assert!(stats.is_heavy_tailed());
        assert!(stats.skew > 10.0);
        assert!((stats.max_degree_fraction - 0.99).abs() < 1e-9);
    }

    #[test]
    fn stats_of_a_ring_are_light_tailed() {
        let g = generators::cycle(1000);
        let stats = DegreeStats::compute(&g);
        assert_eq!(stats.max_degree, 2);
        assert_eq!(stats.median_degree, 2);
        assert!(!stats.is_heavy_tailed());
        assert!((stats.mean_degree - 2.0).abs() < 1e-9);
    }

    #[test]
    fn degree_frequency_sums_to_n() {
        let g = generators::erdos_renyi(300, 0.02, 1);
        let freq = degree_frequency(&g);
        let total: usize = freq.iter().map(|&(_, c)| c).sum();
        assert_eq!(total, 300);
        // Sorted by degree.
        assert!(freq.windows(2).all(|w| w[0].0 < w[1].0));
    }

    #[test]
    fn empty_graph_stats() {
        let g = CsrGraph::from_edges(0, &[]);
        let stats = DegreeStats::compute(&g);
        assert_eq!(stats.max_degree, 0);
        assert_eq!(stats.mean_degree, 0.0);
        assert!(!stats.is_heavy_tailed());
    }
}
