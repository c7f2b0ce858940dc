//! Set-centric graph learning: vertex similarity, link prediction (with the
//! accuracy-testing scheme) and Jarvis–Patrick clustering (paper §5.2).

use crate::limits::SearchLimits;
use crate::{MiningRun, Vertex};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use sisa_core::{SetEngine, SetGraph, SetGraphConfig};
use sisa_graph::{CsrGraph, GraphBuilder};

/// The vertex-similarity measures of Algorithm 9.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SimilarityMeasure {
    /// `|A ∩ B| / |A ∪ B|`.
    Jaccard,
    /// `|A ∩ B| / min(|A|, |B|)`.
    Overlap,
    /// `|A ∩ B|`.
    CommonNeighbors,
    /// `|A ∪ B|`.
    TotalNeighbors,
    /// `Σ_{w ∈ A ∩ B} 1 / log |N(w)|`.
    AdamicAdar,
    /// `Σ_{w ∈ A ∩ B} 1 / |N(w)|`.
    ResourceAllocation,
    /// `|A| · |B|`.
    PreferentialAttachment,
}

impl SimilarityMeasure {
    /// All measures, in the order the paper lists them.
    pub const ALL: [SimilarityMeasure; 7] = [
        Self::Jaccard,
        Self::Overlap,
        Self::CommonNeighbors,
        Self::TotalNeighbors,
        Self::AdamicAdar,
        Self::ResourceAllocation,
        Self::PreferentialAttachment,
    ];
}

/// Computes the similarity of the neighbourhoods of `u` and `v` using SISA
/// set operations (Algorithm 9).
pub fn pairwise_similarity<E: SetEngine>(
    rt: &mut E,
    g: &SetGraph,
    u: Vertex,
    v: Vertex,
    measure: SimilarityMeasure,
) -> f64 {
    let nu = g.neighborhood(u);
    let nv = g.neighborhood(v);
    match measure {
        SimilarityMeasure::Jaccard => {
            let inter = rt.intersect_count(nu, nv) as f64;
            let union = rt.union_count(nu, nv) as f64;
            if union == 0.0 {
                0.0
            } else {
                inter / union
            }
        }
        SimilarityMeasure::Overlap => {
            let inter = rt.intersect_count(nu, nv) as f64;
            let min = rt.cardinality(nu).min(rt.cardinality(nv)) as f64;
            if min == 0.0 {
                0.0
            } else {
                inter / min
            }
        }
        SimilarityMeasure::CommonNeighbors => rt.intersect_count(nu, nv) as f64,
        SimilarityMeasure::TotalNeighbors => rt.union_count(nu, nv) as f64,
        SimilarityMeasure::AdamicAdar | SimilarityMeasure::ResourceAllocation => {
            let common = rt.intersect(nu, nv);
            let members = rt.members(common);
            rt.delete(common);
            members
                .into_iter()
                .map(|w| {
                    let d = g.degree(w) as f64;
                    match measure {
                        SimilarityMeasure::AdamicAdar => {
                            if d > 1.0 {
                                1.0 / d.ln()
                            } else {
                                0.0
                            }
                        }
                        _ => {
                            if d > 0.0 {
                                1.0 / d
                            } else {
                                0.0
                            }
                        }
                    }
                })
                .sum()
        }
        SimilarityMeasure::PreferentialAttachment => {
            (rt.cardinality(nu) * rt.cardinality(nv)) as f64
        }
    }
}

/// Jarvis–Patrick clustering (Algorithm 11): an edge `{u, v}` joins the
/// clustering `C` when the similarity of `N(u)` and `N(v)` exceeds `tau`.
///
/// Returns the selected edges.
pub fn jarvis_patrick_clustering<E: SetEngine>(
    rt: &mut E,
    g: &SetGraph,
    measure: SimilarityMeasure,
    tau: f64,
    limits: &SearchLimits,
) -> MiningRun<Vec<(Vertex, Vertex)>> {
    let mut budget = limits.budget();
    let mut tasks = Vec::new();
    let mut clusters = Vec::new();
    'outer: for u in 0..g.num_vertices() as Vertex {
        rt.task_begin();
        for &v in g.neighbors(u) {
            if v <= u {
                continue;
            }
            rt.host_ops(2);
            let s = pairwise_similarity(rt, g, u, v, measure);
            if s > tau {
                clusters.push((u, v));
                if !budget.found(1) {
                    tasks.push(rt.task_end());
                    break 'outer;
                }
            }
        }
        tasks.push(rt.task_end());
    }
    MiningRun::new(clusters, tasks, budget.exhausted())
}

/// The outcome of the link-prediction accuracy test (Algorithm 10).
#[derive(Clone, Debug, PartialEq)]
pub struct LinkPredictionOutcome {
    /// Number of removed edges that appear among the top predictions
    /// (`eff = |E_predict ∩ E_rndm|`).
    pub correctly_predicted: usize,
    /// Number of edges that were removed (`|E_rndm|`).
    pub removed_edges: usize,
    /// Number of predictions made (`|E_predict|`).
    pub predictions: usize,
}

impl LinkPredictionOutcome {
    /// `eff / |E_rndm|`: the fraction of removed edges recovered.
    #[must_use]
    pub fn recall(&self) -> f64 {
        if self.removed_edges == 0 {
            0.0
        } else {
            self.correctly_predicted as f64 / self.removed_edges as f64
        }
    }
}

/// Tests the accuracy of a link-prediction similarity measure
/// (Algorithm 10): remove a random fraction of the edges, score candidate
/// vertex pairs on the sparsified graph, take the top-`|E_rndm|` pairs and
/// count how many removed edges they recover.
///
/// Candidate pairs are restricted to vertices at distance two in the
/// sparsified graph (non-adjacent pairs with at least one common neighbour);
/// pairs without common neighbours score zero under every neighbourhood-based
/// measure, so this restriction does not change the outcome while keeping the
/// candidate set near-linear.
pub fn link_prediction_accuracy<E: SetEngine>(
    rt: &mut E,
    g: &CsrGraph,
    cfg: &SetGraphConfig,
    measure: SimilarityMeasure,
    remove_fraction: f64,
    seed: u64,
) -> MiningRun<LinkPredictionOutcome> {
    assert!((0.0..1.0).contains(&remove_fraction));
    let mut rng = StdRng::seed_from_u64(seed);
    let edges: Vec<(Vertex, Vertex)> = g.edges().collect();
    let mut removed: Vec<(Vertex, Vertex)> = Vec::new();
    let mut kept: Vec<(Vertex, Vertex)> = Vec::new();
    for &e in &edges {
        if rng.random::<f64>() < remove_fraction {
            removed.push(e);
        } else {
            kept.push(e);
        }
    }
    let mut builder = GraphBuilder::new(g.num_vertices());
    builder.add_edges(kept.iter().copied());
    let sparse = builder.build();
    let sparse_sets = SetGraph::load(rt, &sparse, cfg);

    let removed_set: std::collections::HashSet<(Vertex, Vertex)> =
        removed.iter().copied().collect();

    // Candidate pairs: distance-two non-adjacent pairs.
    let mut candidates: Vec<(Vertex, Vertex)> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for u in 0..sparse.num_vertices() as Vertex {
        for &w in sparse.neighbors(u) {
            for &v in sparse.neighbors(w) {
                if v > u && !sparse.has_edge(u, v) && seen.insert((u, v)) {
                    candidates.push((u, v));
                }
            }
        }
    }

    let mut tasks = Vec::new();
    let mut scored: Vec<((Vertex, Vertex), f64)> = Vec::with_capacity(candidates.len());
    for chunk in candidates.chunks(256.max(candidates.len() / 64).max(1)) {
        rt.task_begin();
        for &(u, v) in chunk {
            rt.host_ops(2);
            let s = pairwise_similarity(rt, &sparse_sets, u, v, measure);
            scored.push(((u, v), s));
        }
        tasks.push(rt.task_end());
    }

    // E_predict: the |E_rndm| highest-scoring candidates.
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    let predictions = removed.len().min(scored.len());
    let correctly_predicted = scored[..predictions]
        .iter()
        .filter(|(pair, _)| removed_set.contains(pair))
        .count();

    MiningRun::new(
        LinkPredictionOutcome {
            correctly_predicted,
            removed_edges: removed.len(),
            predictions,
        },
        tasks,
        false,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisa_core::{SisaConfig, SisaRuntime};
    use sisa_graph::generators;

    fn setup(g: &CsrGraph) -> (SisaRuntime, SetGraph) {
        let mut rt = SisaRuntime::new(SisaConfig::default());
        let sg = SetGraph::load(&mut rt, g, &SetGraphConfig::default());
        (rt, sg)
    }

    #[test]
    fn similarity_measures_on_a_known_graph() {
        // N(0) = {1,2,3}, N(4) = {2,3,5}: intersection {2,3}, union {1,2,3,5}.
        let g = CsrGraph::from_edges(6, &[(0, 1), (0, 2), (0, 3), (4, 2), (4, 3), (4, 5)]);
        let (mut rt, sg) = setup(&g);
        let jac = pairwise_similarity(&mut rt, &sg, 0, 4, SimilarityMeasure::Jaccard);
        assert!((jac - 0.5).abs() < 1e-9);
        let ovr = pairwise_similarity(&mut rt, &sg, 0, 4, SimilarityMeasure::Overlap);
        assert!((ovr - 2.0 / 3.0).abs() < 1e-9);
        let cn = pairwise_similarity(&mut rt, &sg, 0, 4, SimilarityMeasure::CommonNeighbors);
        assert_eq!(cn, 2.0);
        let tot = pairwise_similarity(&mut rt, &sg, 0, 4, SimilarityMeasure::TotalNeighbors);
        assert_eq!(tot, 4.0);
        let pa = pairwise_similarity(
            &mut rt,
            &sg,
            0,
            4,
            SimilarityMeasure::PreferentialAttachment,
        );
        assert_eq!(pa, 9.0);
        // Common neighbours 2 and 3 both have degree 2: AA = 2/ln 2, RA = 1.
        let aa = pairwise_similarity(&mut rt, &sg, 0, 4, SimilarityMeasure::AdamicAdar);
        assert!((aa - 2.0 / (2.0f64).ln()).abs() < 1e-9);
        let ra = pairwise_similarity(&mut rt, &sg, 0, 4, SimilarityMeasure::ResourceAllocation);
        assert!((ra - 1.0).abs() < 1e-9);
    }

    #[test]
    fn similarity_of_disconnected_vertices_is_zero() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (2, 3)]);
        let (mut rt, sg) = setup(&g);
        for m in SimilarityMeasure::ALL {
            if m == SimilarityMeasure::PreferentialAttachment
                || m == SimilarityMeasure::TotalNeighbors
            {
                continue;
            }
            assert_eq!(pairwise_similarity(&mut rt, &sg, 0, 2, m), 0.0, "{m:?}");
        }
    }

    #[test]
    fn jarvis_patrick_keeps_intra_clique_edges() {
        // A 5-clique loosely connected to a 5-path.
        let mut edges = Vec::new();
        for u in 0..5u32 {
            for v in (u + 1)..5 {
                edges.push((u, v));
            }
        }
        edges.extend([(4, 5), (5, 6), (6, 7), (7, 8)]);
        let g = CsrGraph::from_edges(9, &edges);
        let (mut rt, sg) = setup(&g);
        let run = jarvis_patrick_clustering(
            &mut rt,
            &sg,
            SimilarityMeasure::CommonNeighbors,
            1.5,
            &SearchLimits::unlimited(),
        );
        // Every clique edge has 3 common neighbours (> 1.5); path edges have 0.
        assert_eq!(run.result.len(), 10);
        assert!(run.result.iter().all(|&(u, v)| u < 5 && v < 5));
        assert!(!run.truncated);
        assert_eq!(run.tasks.len(), 9);
    }

    #[test]
    fn clustering_respects_the_pattern_budget() {
        let g = generators::complete(20);
        let (mut rt, sg) = setup(&g);
        let limited = jarvis_patrick_clustering(
            &mut rt,
            &sg,
            SimilarityMeasure::CommonNeighbors,
            0.5,
            &SearchLimits::patterns(10),
        );
        assert!(limited.truncated);
        assert!(limited.result.len() <= 10);
    }

    #[test]
    fn link_prediction_recovers_edges_of_a_dense_community_graph() {
        let (g, _) = generators::planted_cliques(
            &generators::PlantedCliqueConfig {
                num_vertices: 120,
                num_cliques: 8,
                min_clique_size: 8,
                max_clique_size: 12,
                background_edges: 50,
                overlap: 0.1,
            },
            5,
        );
        let mut rt = SisaRuntime::new(SisaConfig::default());
        let run = link_prediction_accuracy(
            &mut rt,
            &g,
            &SetGraphConfig::default(),
            SimilarityMeasure::Jaccard,
            0.1,
            42,
        );
        let outcome = &run.result;
        assert!(outcome.removed_edges > 0);
        assert_eq!(
            outcome.predictions.min(outcome.removed_edges),
            outcome.predictions
        );
        // Dense overlapping cliques make removed edges highly predictable:
        // expect far better recall than random guessing.
        assert!(
            outcome.recall() > 0.2,
            "recall {} with {}/{} recovered",
            outcome.recall(),
            outcome.correctly_predicted,
            outcome.removed_edges
        );
        assert!(!run.tasks.is_empty());
    }
}
