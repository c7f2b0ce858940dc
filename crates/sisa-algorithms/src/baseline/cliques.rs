//! Software baselines for clique mining: triangle counting (GAP-style node
//! iterator), k-clique listing (Danisch et al.'s edge-parallel scheme) and
//! k-clique-star counting, in both `_non-set` and `_set-based` flavours.

use super::engine::CpuEngine;
use super::BaselineMode;
use crate::limits::{PatternBudget, SearchLimits};
use crate::{MiningRun, Vertex};
use sisa_graph::CsrGraph;
use sisa_pim::CpuConfig;
use std::collections::HashSet;

/// Triangle counting over a degeneracy-oriented CSR graph.
pub fn triangle_count_baseline(
    oriented: &CsrGraph,
    mode: BaselineMode,
    cfg: &CpuConfig,
    threads: usize,
    limits: &SearchLimits,
) -> MiningRun<u64> {
    let mut engine = CpuEngine::new(oriented, cfg, threads);
    let mut budget = limits.budget();
    let mut tasks = Vec::with_capacity(oriented.num_vertices());
    let mut tc = 0u64;
    'outer: for v in 0..oriented.num_vertices() as Vertex {
        engine.task_begin();
        let nbrs: Vec<Vertex> = engine.stream_neighbors(v).to_vec();
        for &w in &nbrs {
            engine.scalar(2);
            let found = match mode {
                BaselineMode::SetBased => engine.merge_intersect_count(v, w),
                BaselineMode::NonSet => engine.probe_intersect_count(v, w),
            } as u64;
            tc += found;
            if found > 0 && !budget.found(found) {
                tasks.push(engine.task_end());
                break 'outer;
            }
        }
        tasks.push(engine.task_end());
    }
    MiningRun::new(tc, tasks, budget.exhausted())
}

/// Recursion-invariant state for one k-clique enumeration.
struct CliqueSearch<'a> {
    mode: BaselineMode,
    k: usize,
    budget: &'a mut PatternBudget,
    collect: Option<&'a mut Vec<Vec<Vertex>>>,
}

impl CliqueSearch<'_> {
    fn extend(
        &mut self,
        engine: &mut CpuEngine<'_>,
        candidates: &[Vertex],
        depth: usize,
        prefix: &mut Vec<Vertex>,
    ) -> u64 {
        if depth == self.k {
            let found = candidates.len() as u64;
            if let Some(out) = self.collect.as_deref_mut() {
                for &v in candidates {
                    let mut clique = prefix.clone();
                    clique.push(v);
                    clique.sort_unstable();
                    out.push(clique);
                }
            }
            if found > 0 {
                self.budget.found(found);
            }
            return found;
        }
        let mut total = 0u64;
        for &v in candidates {
            if self.budget.exhausted() {
                break;
            }
            engine.scalar(2);
            let next = match self.mode {
                BaselineMode::SetBased => engine.merge_intersect_with(candidates, v),
                BaselineMode::NonSet => engine.probe_filter(candidates, v),
            };
            if next.is_empty() {
                continue;
            }
            prefix.push(v);
            total += self.extend(engine, &next, depth + 1, prefix);
            prefix.pop();
        }
        total
    }
}

/// k-clique counting over a degeneracy-oriented CSR graph.
pub fn k_clique_count_baseline(
    oriented: &CsrGraph,
    k: usize,
    mode: BaselineMode,
    cfg: &CpuConfig,
    threads: usize,
    limits: &SearchLimits,
) -> MiningRun<u64> {
    assert!(k >= 2);
    let mut engine = CpuEngine::new(oriented, cfg, threads);
    let mut budget = limits.budget();
    let mut tasks = Vec::with_capacity(oriented.num_vertices());
    let mut total = 0u64;
    let mut search = CliqueSearch {
        mode,
        k,
        budget: &mut budget,
        collect: None,
    };
    for u in 0..oriented.num_vertices() as Vertex {
        if search.budget.exhausted() {
            break;
        }
        engine.task_begin();
        let c2: Vec<Vertex> = engine.stream_neighbors(u).to_vec();
        let mut prefix = vec![u];
        total += search.extend(&mut engine, &c2, 2, &mut prefix);
        tasks.push(engine.task_end());
    }
    MiningRun::new(total, tasks, budget.exhausted())
}

/// k-clique-star counting (the paper's Algorithm 5 strategy): list
/// (k+1)-cliques, then count the distinct k-cliques they contain.
pub fn k_clique_star_count_baseline(
    oriented: &CsrGraph,
    k: usize,
    mode: BaselineMode,
    cfg: &CpuConfig,
    threads: usize,
    limits: &SearchLimits,
) -> MiningRun<u64> {
    let mut engine = CpuEngine::new(oriented, cfg, threads);
    let mut budget = limits.budget();
    let mut tasks = Vec::new();
    let mut cliques: Vec<Vec<Vertex>> = Vec::new();
    let mut search = CliqueSearch {
        mode,
        k: k + 1,
        budget: &mut budget,
        collect: Some(&mut cliques),
    };
    for u in 0..oriented.num_vertices() as Vertex {
        if search.budget.exhausted() {
            break;
        }
        engine.task_begin();
        let c2: Vec<Vertex> = engine.stream_neighbors(u).to_vec();
        let mut prefix = vec![u];
        let _ = search.extend(&mut engine, &c2, 2, &mut prefix);
        tasks.push(engine.task_end());
    }
    // Attribute every (k+1)-clique to the k-cliques it contains.
    engine.task_begin();
    let mut cores: HashSet<Vec<Vertex>> = HashSet::new();
    for clique in &cliques {
        engine.scalar((clique.len() * clique.len()) as u64);
        engine.stream_scratch(clique.len());
        for i in 0..clique.len() {
            let mut key = clique.clone();
            key.remove(i);
            cores.insert(key);
        }
    }
    tasks.push(engine.task_end());
    MiningRun::new(cores.len() as u64, tasks, budget.exhausted())
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisa_graph::orientation::degeneracy_order;
    use sisa_graph::{generators, properties};

    fn oriented(g: &CsrGraph) -> CsrGraph {
        degeneracy_order(g).orient(g)
    }

    #[test]
    fn both_modes_match_the_reference_triangle_count() {
        let g = generators::erdos_renyi(150, 0.06, 4);
        let o = oriented(&g);
        let expected = properties::triangle_count(&g);
        for mode in [BaselineMode::NonSet, BaselineMode::SetBased] {
            let run = triangle_count_baseline(
                &o,
                mode,
                &CpuConfig::default(),
                1,
                &SearchLimits::unlimited(),
            );
            assert_eq!(run.result, expected, "{mode:?}");
            assert!(!run.truncated);
        }
    }

    #[test]
    fn both_modes_match_brute_force_k_cliques() {
        let g = generators::planted_cliques(
            &generators::PlantedCliqueConfig {
                num_vertices: 50,
                num_cliques: 5,
                min_clique_size: 4,
                max_clique_size: 6,
                background_edges: 40,
                overlap: 0.2,
            },
            6,
        )
        .0;
        let o = oriented(&g);
        for k in 3..=5 {
            let expected = properties::brute_force_k_clique_count(&g, k);
            for mode in [BaselineMode::NonSet, BaselineMode::SetBased] {
                let run = k_clique_count_baseline(
                    &o,
                    k,
                    mode,
                    &CpuConfig::default(),
                    1,
                    &SearchLimits::unlimited(),
                );
                assert_eq!(run.result, expected, "k={k} {mode:?}");
            }
        }
    }

    #[test]
    fn set_based_is_cheaper_than_non_set_on_dense_graphs() {
        let g = generators::near_complete(120, 0.6, 9);
        let o = oriented(&g);
        let non_set = k_clique_count_baseline(
            &o,
            4,
            BaselineMode::NonSet,
            &CpuConfig::default(),
            1,
            &SearchLimits::patterns(20_000),
        );
        let set_based = k_clique_count_baseline(
            &o,
            4,
            BaselineMode::SetBased,
            &CpuConfig::default(),
            1,
            &SearchLimits::patterns(20_000),
        );
        assert_eq!(non_set.result, set_based.result);
        assert!(set_based.total_cycles() < non_set.total_cycles());
    }

    #[test]
    fn clique_star_counting_runs_and_truncates() {
        let g = generators::near_complete(40, 0.5, 2);
        let o = oriented(&g);
        let run = k_clique_star_count_baseline(
            &o,
            3,
            BaselineMode::SetBased,
            &CpuConfig::default(),
            1,
            &SearchLimits::patterns(500),
        );
        assert!(run.result > 0);
    }
}
