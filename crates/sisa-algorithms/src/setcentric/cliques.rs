//! Set-centric clique mining: triangle counting, k-clique counting/listing,
//! 4-clique counting and k-clique-star listing (paper §5.1.1–§5.1.4).
//!
//! All clique algorithms operate on a graph oriented by a degeneracy ordering
//! (edges point from earlier to later vertices), which makes the search space
//! acyclic and bounds out-degrees by the degeneracy `c` (§7.1). Use
//! [`orient_by_degeneracy`] to prepare that oriented [`SetGraph`].

use crate::limits::SearchLimits;
use crate::{MiningRun, Vertex};
use sisa_core::{SetEngine, SetGraph, SetGraphConfig};
use sisa_graph::orientation::degeneracy_order;
use sisa_graph::CsrGraph;
use std::collections::HashMap;

/// Orients `g` by its (exact) degeneracy ordering and loads the result as a
/// SISA [`SetGraph`]. This is the preprocessing step shared by all clique
/// algorithms ("Edge goes from v to u iff η(v) < η(u)", Algorithm 3).
#[must_use]
pub fn orient_by_degeneracy<E: SetEngine>(
    rt: &mut E,
    g: &CsrGraph,
    cfg: &SetGraphConfig,
) -> (SetGraph, sisa_graph::orientation::DegeneracyOrdering) {
    let ordering = degeneracy_order(g);
    let oriented = ordering.orient(g);
    (SetGraph::load(rt, &oriented, cfg), ordering)
}

/// Set-centric triangle counting (Algorithm 1, node-iterator form on the
/// oriented graph): `tc = Σ_v Σ_{w ∈ N⁺(v)} |N⁺(v) ∩ N⁺(w)|`.
///
/// `oriented` must be a degeneracy-oriented [`SetGraph`]; each triangle is
/// then counted exactly once and no final division is needed.
pub fn triangle_count<E: SetEngine>(
    rt: &mut E,
    oriented: &SetGraph,
    limits: &SearchLimits,
) -> MiningRun<u64> {
    let mut budget = limits.budget();
    let mut tasks = Vec::with_capacity(oriented.num_vertices());
    let mut tc: u64 = 0;
    'outer: for v in 0..oriented.num_vertices() as Vertex {
        rt.task_begin();
        let nv = oriented.neighborhood(v);
        for &w in oriented.neighbors(v) {
            rt.host_ops(2);
            let found = rt.intersect_count(nv, oriented.neighborhood(w)) as u64;
            tc += found;
            if found > 0 && !budget.found(found) {
                tasks.push(rt.task_end());
                break 'outer;
            }
        }
        tasks.push(rt.task_end());
    }
    MiningRun::new(tc, tasks, budget.exhausted())
}

/// Set-centric k-clique counting (Algorithm 3, Danisch et al. reformulated
/// with explicit set operations).
pub fn k_clique_count<E: SetEngine>(
    rt: &mut E,
    oriented: &SetGraph,
    k: usize,
    limits: &SearchLimits,
) -> MiningRun<u64> {
    assert!(k >= 2, "k-cliques need k >= 2");
    let mut budget = limits.budget();
    let mut tasks = Vec::with_capacity(oriented.num_vertices());
    let mut total: u64 = 0;
    for u in 0..oriented.num_vertices() as Vertex {
        if budget.exhausted() {
            break;
        }
        rt.task_begin();
        // C2 = N⁺(u); count (k-2) further extensions.
        let c2 = oriented.neighborhood(u);
        total += count_extensions(rt, oriented, c2, 2, k, &mut budget, None);
        tasks.push(rt.task_end());
    }
    MiningRun::new(total, tasks, budget.exhausted())
}

/// Recursive helper shared by counting and listing: extends the candidate set
/// `ci` (all vertices completing the current (i)-clique) until level `k`.
fn count_extensions<E: SetEngine>(
    rt: &mut E,
    oriented: &SetGraph,
    ci: sisa_core::SetId,
    i: usize,
    k: usize,
    budget: &mut crate::limits::PatternBudget,
    mut listing: Option<(&mut Vec<Vec<Vertex>>, &mut Vec<Vertex>)>,
) -> u64 {
    if i == k {
        let found = rt.cardinality(ci) as u64;
        if let Some((out, prefix)) = listing.as_mut() {
            for v in rt.members(ci) {
                let mut clique = prefix.clone();
                clique.push(v);
                out.push(clique);
            }
        }
        if found > 0 {
            budget.found(found);
        }
        return found;
    }
    let mut count = 0;
    let members = rt.members(ci);
    for v in members {
        if budget.exhausted() {
            break;
        }
        rt.host_ops(2);
        let next = rt.intersect(ci, oriented.neighborhood(v));
        if rt.cardinality(next) > 0 {
            match listing.as_mut() {
                Some((out, prefix)) => {
                    prefix.push(v);
                    count +=
                        count_extensions(rt, oriented, next, i + 1, k, budget, Some((out, prefix)));
                    prefix.pop();
                }
                None => {
                    count += count_extensions(rt, oriented, next, i + 1, k, budget, None);
                }
            }
        }
        rt.delete(next);
    }
    count
}

/// Lists k-cliques explicitly (each clique misses its first two vertices in
/// the recursion prefix, so the full clique is reconstructed per leaf). Used
/// by the k-clique-star algorithms and by tests.
pub(crate) fn k_clique_list<E: SetEngine>(
    rt: &mut E,
    oriented: &SetGraph,
    k: usize,
    limits: &SearchLimits,
) -> MiningRun<Vec<Vec<Vertex>>> {
    assert!(k >= 2, "k-cliques need k >= 2");
    let mut budget = limits.budget();
    let mut tasks = Vec::new();
    let mut cliques: Vec<Vec<Vertex>> = Vec::new();
    for u in 0..oriented.num_vertices() as Vertex {
        if budget.exhausted() {
            break;
        }
        rt.task_begin();
        let mut prefix = vec![u];
        let c2 = oriented.neighborhood(u);
        if k == 2 {
            for v in rt.members(c2) {
                cliques.push(vec![u, v]);
            }
            budget.found(oriented.degree(u) as u64);
        } else {
            let _ = count_extensions(
                rt,
                oriented,
                c2,
                2,
                k,
                &mut budget,
                Some((&mut cliques, &mut prefix)),
            );
        }
        tasks.push(rt.task_end());
    }
    for c in &mut cliques {
        c.sort_unstable();
    }
    MiningRun::new(cliques, tasks, budget.exhausted())
}

/// Specialised 4-clique counting (Table 4's set-centric snippet): two explicit
/// loops plus two intersections, no recursion.
pub fn four_clique_count<E: SetEngine>(
    rt: &mut E,
    oriented: &SetGraph,
    limits: &SearchLimits,
) -> MiningRun<u64> {
    let mut budget = limits.budget();
    let mut tasks = Vec::with_capacity(oriented.num_vertices());
    let mut cnt: u64 = 0;
    'outer: for v1 in 0..oriented.num_vertices() as Vertex {
        rt.task_begin();
        for &v2 in oriented.neighbors(v1) {
            rt.host_ops(2);
            let s1 = rt.intersect(oriented.neighborhood(v1), oriented.neighborhood(v2));
            for v3 in rt.members(s1) {
                let found = rt.intersect_count(s1, oriented.neighborhood(v3)) as u64;
                cnt += found;
                if found > 0 && !budget.found(found) {
                    rt.delete(s1);
                    tasks.push(rt.task_end());
                    break 'outer;
                }
            }
            rt.delete(s1);
        }
        tasks.push(rt.task_end());
    }
    MiningRun::new(cnt, tasks, budget.exhausted())
}

/// k-clique-star listing, the paper's own variant (Algorithm 5): mine
/// (k+1)-cliques and attribute each to the k-cliques it contains via set
/// union on a map keyed by the k-clique.
///
/// Returns the number of distinct k-cliques that act as the core of at least
/// one k-clique-star (i.e. the number of maximal k-clique-stars).
pub fn k_clique_star_count<E: SetEngine>(
    rt: &mut E,
    oriented: &SetGraph,
    k: usize,
    limits: &SearchLimits,
) -> MiningRun<u64> {
    let cliques = k_clique_list(rt, oriented, k + 1, limits);
    let truncated = cliques.truncated;
    let mut tasks = cliques.tasks;
    let mut stars: HashMap<Vec<Vertex>, sisa_core::SetId> = HashMap::new();
    for clique in &cliques.result {
        rt.task_begin();
        for (i, _) in clique.iter().enumerate() {
            rt.host_ops(2);
            // Key: the k-clique obtained by dropping vertex i.
            let mut key = clique.clone();
            key.remove(i);
            let members = rt.create_sorted(clique.iter().copied());
            match stars.get(&key) {
                Some(&existing) => {
                    rt.union_assign(existing, members);
                    rt.delete(members);
                }
                None => {
                    stars.insert(key, members);
                }
            }
        }
        tasks.push(rt.task_end());
    }
    let count = stars.len() as u64;
    for (_, id) in stars {
        rt.delete(id);
    }
    MiningRun::new(count, tasks, truncated)
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisa_core::{SisaConfig, SisaRuntime};
    use sisa_graph::{generators, properties};

    fn setup(g: &CsrGraph) -> (SisaRuntime, SetGraph, SetGraph) {
        let mut rt = SisaRuntime::new(SisaConfig::default());
        let cfg = SetGraphConfig::default();
        let undirected = SetGraph::load(&mut rt, g, &cfg);
        let (oriented, _) = orient_by_degeneracy(&mut rt, g, &cfg);
        (rt, undirected, oriented)
    }

    #[test]
    fn triangle_count_matches_reference_on_random_graphs() {
        for seed in [1u64, 2, 3] {
            let g = generators::erdos_renyi(120, 0.08, seed);
            let expected = properties::triangle_count(&g);
            let (mut rt, _und, oriented) = setup(&g);
            let run = triangle_count(&mut rt, &oriented, &SearchLimits::unlimited());
            assert_eq!(run.result, expected, "seed {seed}");
            assert!(!run.truncated);
            assert_eq!(run.tasks.len(), 120);
            assert!(run.total_cycles() > 0);
        }
    }

    #[test]
    fn k_clique_counts_match_brute_force() {
        let g = generators::planted_cliques(
            &generators::PlantedCliqueConfig {
                num_vertices: 60,
                num_cliques: 6,
                min_clique_size: 4,
                max_clique_size: 6,
                background_edges: 60,
                overlap: 0.2,
            },
            3,
        )
        .0;
        let (mut rt, _und, oriented) = setup(&g);
        for k in 3..=5 {
            let expected = properties::brute_force_k_clique_count(&g, k);
            let run = k_clique_count(&mut rt, &oriented, k, &SearchLimits::unlimited());
            assert_eq!(run.result, expected, "k = {k}");
        }
    }

    #[test]
    fn four_clique_specialisation_matches_generic() {
        let g = generators::erdos_renyi(70, 0.15, 9);
        let (mut rt, _und, oriented) = setup(&g);
        let generic = k_clique_count(&mut rt, &oriented, 4, &SearchLimits::unlimited());
        let special = four_clique_count(&mut rt, &oriented, &SearchLimits::unlimited());
        assert_eq!(generic.result, special.result);
        assert_eq!(
            special.result,
            properties::brute_force_k_clique_count(&g, 4)
        );
    }

    #[test]
    fn clique_listing_returns_real_cliques() {
        let g = generators::planted_cliques(
            &generators::PlantedCliqueConfig {
                num_vertices: 40,
                num_cliques: 4,
                min_clique_size: 4,
                max_clique_size: 5,
                background_edges: 30,
                overlap: 0.0,
            },
            7,
        )
        .0;
        let (mut rt, _und, oriented) = setup(&g);
        let run = k_clique_list(&mut rt, &oriented, 4, &SearchLimits::unlimited());
        assert_eq!(
            run.result.len() as u64,
            properties::brute_force_k_clique_count(&g, 4)
        );
        for clique in &run.result {
            assert_eq!(clique.len(), 4);
            assert!(properties::is_clique(&g, clique));
        }
        // No duplicate cliques.
        let mut sorted = run.result.clone();
        sorted.sort();
        sorted.dedup();
        assert_eq!(sorted.len(), run.result.len());
    }

    #[test]
    fn pattern_budget_truncates_the_search() {
        let g = generators::complete(20);
        let (mut rt, _und, oriented) = setup(&g);
        let full = k_clique_count(&mut rt, &oriented, 4, &SearchLimits::unlimited());
        assert_eq!(full.result, 4845); // C(20,4)
        let limited = k_clique_count(&mut rt, &oriented, 4, &SearchLimits::patterns(100));
        assert!(limited.truncated);
        assert!(limited.result < full.result);
        assert!(limited.total_cycles() < full.total_cycles());
    }

    #[test]
    fn clique_stars_on_a_known_graph() {
        // A 3-clique {0,1,2} with two extra vertices 3 and 4 attached to all
        // of it forms 3-clique-stars; vertex 5 hangs off vertex 0 only.
        let g = CsrGraph::from_edges(
            6,
            &[
                (0, 1),
                (0, 2),
                (1, 2),
                (3, 0),
                (3, 1),
                (3, 2),
                (4, 0),
                (4, 1),
                (4, 2),
                (0, 5),
            ],
        );
        let (mut rt, _, oriented) = setup(&g);
        let ours = k_clique_star_count(&mut rt, &oriented, 3, &SearchLimits::unlimited());
        // Algorithm 5 counts distinct 3-cliques contained in 4-cliques.
        assert!(ours.result >= 1);
        assert!(!ours.truncated);
    }

    #[test]
    fn sisa_stats_show_pim_activity() {
        let g = generators::near_complete(80, 0.5, 2);
        let mut rt = SisaRuntime::new(SisaConfig::default());
        let cfg = SetGraphConfig {
            db_fraction: 0.5,
            storage_budget_frac: 2.0,
        };
        let (oriented, _) = orient_by_degeneracy(&mut rt, &g, &cfg);
        rt.reset_stats();
        let _ = triangle_count(&mut rt, &oriented, &SearchLimits::unlimited());
        let stats = rt.stats();
        assert!(stats.pnm_ops + stats.pum_ops > 0);
        assert!(stats.total_cycles() > 0);
        assert!(stats.total_instructions() > 0);
    }
}
