//! Set-centric subgraph isomorphism (paper §5.1.6).
//!
//! The matcher follows the VF2 recipe the paper uses: pattern vertices are
//! matched one at a time; the candidate set for the next pattern vertex is the
//! *intersection of the target neighbourhoods* of its already-matched pattern
//! neighbours, minus the already-used target vertices — both SISA set
//! operations — and label compatibility is verified per candidate
//! (`verify_labels`).

use crate::limits::{PatternBudget, SearchLimits};
use crate::{MiningRun, Vertex};
use sisa_core::{SetEngine, SetGraph};

/// A small pattern graph (the graph `G₂` being searched for).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PatternGraph {
    adj: Vec<Vec<Vertex>>,
    labels: Option<Vec<u32>>,
}

impl PatternGraph {
    /// Creates a pattern with `n` vertices and the given undirected edges.
    #[must_use]
    pub fn new(n: usize, edges: &[(Vertex, Vertex)]) -> Self {
        let mut adj = vec![Vec::new(); n];
        for &(u, v) in edges {
            if u != v {
                adj[u as usize].push(v);
                adj[v as usize].push(u);
            }
        }
        for list in &mut adj {
            list.sort_unstable();
            list.dedup();
        }
        Self { adj, labels: None }
    }

    /// Attaches vertex labels (one per pattern vertex).
    #[must_use]
    pub fn with_labels(mut self, labels: Vec<u32>) -> Self {
        assert_eq!(labels.len(), self.adj.len());
        self.labels = Some(labels);
        self
    }

    /// Number of pattern vertices.
    #[must_use]
    pub fn size(&self) -> usize {
        self.adj.len()
    }

    /// Number of pattern edges.
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.adj.iter().map(Vec::len).sum::<usize>() / 2
    }

    /// Neighbourhood of pattern vertex `v`.
    #[must_use]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        &self.adj[v as usize]
    }

    /// The label of pattern vertex `v` (`None` when unlabelled).
    #[must_use]
    pub fn label(&self, v: Vertex) -> Option<u32> {
        self.labels.as_ref().map(|l| l[v as usize])
    }

    /// A matching order in which every vertex (after the first) has at least
    /// one earlier neighbour; falls back to index order for disconnected
    /// patterns.
    #[must_use]
    pub(crate) fn matching_order(&self) -> Vec<Vertex> {
        let n = self.size();
        if n == 0 {
            return Vec::new();
        }
        // Start from the highest-degree vertex (cheapest pruning).
        let start = (0..n as Vertex)
            .max_by_key(|&v| self.adj[v as usize].len())
            .unwrap_or(0);
        let mut order = vec![start];
        let mut in_order = vec![false; n];
        in_order[start as usize] = true;
        while order.len() < n {
            // Prefer a vertex adjacent to the already-ordered prefix.
            let next = (0..n as Vertex)
                .filter(|&v| !in_order[v as usize])
                .max_by_key(|&v| {
                    self.adj[v as usize]
                        .iter()
                        .filter(|&&u| in_order[u as usize])
                        .count()
                })
                .expect("unordered vertex exists");
            in_order[next as usize] = true;
            order.push(next);
        }
        order
    }
}

/// The `k`-star pattern: a hub (vertex 0) connected to `k` leaves — the
/// `si-ks` workload of the paper's evaluation.
#[must_use]
pub fn star_pattern(k: usize) -> PatternGraph {
    let edges: Vec<(Vertex, Vertex)> = (1..=k as Vertex).map(|v| (0, v)).collect();
    PatternGraph::new(k + 1, &edges)
}

/// Counts embeddings (injective, adjacency- and label-preserving mappings) of
/// `pattern` into the target graph `g`.
///
/// Each outer candidate for the first pattern vertex is a separate task.
pub fn subgraph_isomorphism_count<E: SetEngine>(
    rt: &mut E,
    g: &SetGraph,
    pattern: &PatternGraph,
    limits: &SearchLimits,
) -> MiningRun<u64> {
    if pattern.size() == 0 {
        return MiningRun::new(0, Vec::new(), false);
    }
    let order = pattern.matching_order();
    let mut budget = limits.budget();
    let mut tasks = Vec::new();
    let mut count = 0u64;

    for root in 0..g.num_vertices() as Vertex {
        if budget.exhausted() {
            break;
        }
        if !labels_match(g, root, pattern, order[0]) {
            continue;
        }
        rt.task_begin();
        // The set of already-used target vertices has at most |pattern|
        // entries; following the paper's guidance that trivial bookkeeping
        // structures need not become SISA sets (§5, "Does SISA Execute All
        // Set Operations?"), it stays host-side.
        let mut used: Vec<Vertex> = vec![root];
        let mut mapping: Vec<Option<Vertex>> = vec![None; pattern.size()];
        mapping[order[0] as usize] = Some(root);
        count += extend(
            rt,
            g,
            pattern,
            &order,
            1,
            &mut mapping,
            &mut used,
            &mut budget,
        );
        tasks.push(rt.task_end());
    }
    MiningRun::new(count, tasks, budget.exhausted())
}

fn labels_match(g: &SetGraph, target: Vertex, pattern: &PatternGraph, pv: Vertex) -> bool {
    match pattern.label(pv) {
        None => true,
        Some(l) => g.csr().vertex_label(target) == Some(l),
    }
}

#[allow(clippy::too_many_arguments)]
fn extend<E: SetEngine>(
    rt: &mut E,
    g: &SetGraph,
    pattern: &PatternGraph,
    order: &[Vertex],
    depth: usize,
    mapping: &mut Vec<Option<Vertex>>,
    used: &mut Vec<Vertex>,
    budget: &mut PatternBudget,
) -> u64 {
    if depth == order.len() {
        budget.found(1);
        return 1;
    }
    if budget.exhausted() {
        return 0;
    }
    let pv = order[depth];
    // Candidate set: intersection of the target neighbourhoods of the
    // already-matched pattern neighbours of pv (checkCore, expressed with
    // SISA intersections when more than one neighbourhood is involved).
    let matched_neighbors: Vec<Vertex> = pattern
        .neighbors(pv)
        .iter()
        .copied()
        .filter_map(|q| mapping[q as usize])
        .collect();
    let candidates: Vec<Vertex> = match matched_neighbors.len() {
        // Disconnected pattern component: every target vertex is a candidate
        // (used ones are filtered below).
        0 => (0..g.num_vertices() as Vertex).collect(),
        // Exactly one matched neighbour: its neighbourhood *is* the candidate
        // set — no SISA operation is needed beyond reading it out.
        1 => rt.members(g.neighborhood(matched_neighbors[0])),
        _ => {
            rt.host_ops(matched_neighbors.len() as u64);
            let cand = rt.intersect(
                g.neighborhood(matched_neighbors[0]),
                g.neighborhood(matched_neighbors[1]),
            );
            for &t in &matched_neighbors[2..] {
                rt.intersect_assign(cand, g.neighborhood(t));
            }
            let members = rt.members(cand);
            rt.delete(cand);
            members
        }
    };

    let mut total = 0u64;
    for c in candidates {
        if budget.exhausted() {
            break;
        }
        rt.host_ops(1);
        if used.contains(&c) || !labels_match(g, c, pattern, pv) {
            continue;
        }
        mapping[pv as usize] = Some(c);
        used.push(c);
        total += extend(rt, g, pattern, order, depth + 1, mapping, used, budget);
        used.pop();
        mapping[pv as usize] = None;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisa_core::{SetGraphConfig, SisaConfig, SisaRuntime};
    use sisa_graph::{generators, CsrGraph, LabeledGraph};

    fn setup(g: &CsrGraph) -> (SisaRuntime, SetGraph) {
        let mut rt = SisaRuntime::new(SisaConfig::default());
        let sg = SetGraph::load(&mut rt, g, &SetGraphConfig::default());
        (rt, sg)
    }

    fn falling_factorial(d: u64, k: u64) -> u64 {
        (0..k).map(|i| d.saturating_sub(i)).product()
    }

    #[test]
    fn star_embeddings_match_the_closed_form() {
        let g = generators::erdos_renyi(40, 0.15, 8);
        let (mut rt, sg) = setup(&g);
        for k in 2..=4usize {
            let expected: u64 = (0..40u32)
                .map(|v| falling_factorial(g.degree(v) as u64, k as u64))
                .sum();
            let run = subgraph_isomorphism_count(
                &mut rt,
                &sg,
                &star_pattern(k),
                &SearchLimits::unlimited(),
            );
            assert_eq!(run.result, expected, "k = {k}");
        }
    }

    #[test]
    fn triangle_pattern_counts_six_embeddings_per_triangle() {
        let g = generators::complete(5);
        let (mut rt, sg) = setup(&g);
        let triangle = PatternGraph::new(3, &[(0, 1), (1, 2), (0, 2)]);
        let run = subgraph_isomorphism_count(&mut rt, &sg, &triangle, &SearchLimits::unlimited());
        // C(5,3) = 10 triangles, 3! = 6 embeddings each.
        assert_eq!(run.result, 60);
    }

    #[test]
    fn labels_restrict_the_matches() {
        // A triangle where vertices carry labels 0, 1, 2 plus a labelled tail.
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (0, 2), (2, 3)])
            .with_vertex_labels(vec![0, 1, 2, 1]);
        let (mut rt, sg) = setup(&g);
        let labelled_edge = PatternGraph::new(2, &[(0, 1)]).with_labels(vec![2, 1]);
        let run =
            subgraph_isomorphism_count(&mut rt, &sg, &labelled_edge, &SearchLimits::unlimited());
        // Edges (2,1) and (2,3) match pattern (label2 - label1): 2 embeddings.
        assert_eq!(run.result, 2);
        let unlabelled_edge = PatternGraph::new(2, &[(0, 1)]);
        let run =
            subgraph_isomorphism_count(&mut rt, &sg, &unlabelled_edge, &SearchLimits::unlimited());
        assert_eq!(run.result, 2 * g.num_edges() as u64);
    }

    #[test]
    fn labelled_search_is_cheaper_than_unlabelled() {
        // The effect reported in §9.2 "Labels": label constraints prune
        // recursion early, reducing total work.
        let base = generators::erdos_renyi(60, 0.12, 4);
        let labeled = LabeledGraph::with_random_vertex_labels(base.clone(), 3, 9).graph;
        let (mut rt_u, sg_u) = setup(&base);
        let (mut rt_l, sg_l) = setup(&labeled);
        let unl = subgraph_isomorphism_count(
            &mut rt_u,
            &sg_u,
            &star_pattern(4),
            &SearchLimits::unlimited(),
        );
        let lab_pattern = star_pattern(4).with_labels(vec![0, 1, 1, 2, 0]);
        let lab =
            subgraph_isomorphism_count(&mut rt_l, &sg_l, &lab_pattern, &SearchLimits::unlimited());
        assert!(lab.result < unl.result);
        assert!(lab.total_cycles() < unl.total_cycles());
    }

    #[test]
    fn budget_truncates_matching() {
        let g = generators::complete(10);
        let (mut rt, sg) = setup(&g);
        let run =
            subgraph_isomorphism_count(&mut rt, &sg, &star_pattern(3), &SearchLimits::patterns(50));
        assert!(run.truncated);
        assert!(run.result <= 60);
    }

    #[test]
    fn matching_order_starts_at_the_hub_and_stays_connected() {
        let p = star_pattern(4);
        let order = p.matching_order();
        assert_eq!(order[0], 0);
        assert_eq!(order.len(), 5);
        assert_eq!(p.size(), 5);
        assert_eq!(p.num_edges(), 4);
    }
}
