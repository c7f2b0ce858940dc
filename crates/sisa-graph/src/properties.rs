//! Reference implementations of simple graph properties.
//!
//! These are *oracles*: deliberately simple, obviously-correct implementations
//! used by tests and by the dataset registry to validate both the generators
//! and the (much faster, much more elaborate) mining algorithms in
//! `sisa-algorithms`. They are not tuned and are not part of the evaluated
//! system.

use crate::{CsrGraph, Vertex};

/// Counts the triangles of an undirected graph by checking, for every edge
/// `(u, v)` with `u < v`, the common neighbours `w > v`.
#[must_use]
pub fn triangle_count(g: &CsrGraph) -> u64 {
    let mut count = 0u64;
    for (u, v) in g.edges() {
        let nu = g.neighbors(u);
        let nv = g.neighbors(v);
        let (mut i, mut j) = (0usize, 0usize);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    if nu[i] > v {
                        count += 1;
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
    }
    count
}

/// Connected components by breadth-first search; returns the component id of
/// every vertex (ids are arbitrary but contiguous from 0).
#[must_use]
pub fn connected_components(g: &CsrGraph) -> Vec<usize> {
    let n = g.num_vertices();
    let mut comp = vec![usize::MAX; n];
    let mut next_comp = 0usize;
    let mut queue = std::collections::VecDeque::new();
    for start in 0..n {
        if comp[start] != usize::MAX {
            continue;
        }
        comp[start] = next_comp;
        queue.push_back(start as Vertex);
        while let Some(u) = queue.pop_front() {
            for &w in g.neighbors(u) {
                if comp[w as usize] == usize::MAX {
                    comp[w as usize] = next_comp;
                    queue.push_back(w);
                }
            }
        }
        next_comp += 1;
    }
    comp
}

/// Whether `vertices` forms a clique in `g` (every pair adjacent).
#[must_use]
pub fn is_clique(g: &CsrGraph, vertices: &[Vertex]) -> bool {
    for (i, &u) in vertices.iter().enumerate() {
        for &v in &vertices[i + 1..] {
            if !g.has_edge(u, v) && !g.has_edge(v, u) {
                return false;
            }
        }
    }
    true
}

/// Whether `vertices` is a *maximal* clique of the undirected graph `g`: it is
/// a clique and no other vertex is adjacent to all of its members.
#[must_use]
pub(crate) fn is_maximal_clique(g: &CsrGraph, vertices: &[Vertex]) -> bool {
    if vertices.is_empty() || !is_clique(g, vertices) {
        return false;
    }
    let member: std::collections::HashSet<Vertex> = vertices.iter().copied().collect();
    for w in g.vertices() {
        if member.contains(&w) {
            continue;
        }
        if vertices.iter().all(|&u| g.has_edge(w, u)) {
            return false;
        }
    }
    true
}

/// Counts the k-cliques of an undirected graph by brute-force extension.
///
/// Exponential; intended for small graphs in tests only.
#[must_use]
pub fn brute_force_k_clique_count(g: &CsrGraph, k: usize) -> u64 {
    if k == 0 {
        return 1;
    }
    if k == 1 {
        return g.num_vertices() as u64;
    }
    let mut count = 0u64;
    let mut current: Vec<Vertex> = Vec::with_capacity(k);
    fn extend(g: &CsrGraph, k: usize, start: Vertex, current: &mut Vec<Vertex>, count: &mut u64) {
        if current.len() == k {
            *count += 1;
            return;
        }
        for v in start..g.num_vertices() as Vertex {
            if current.iter().all(|&u| g.has_edge(u, v)) {
                current.push(v);
                extend(g, k, v + 1, current, count);
                current.pop();
            }
        }
    }
    extend(g, k, 0, &mut current, &mut count);
    count
}

/// Enumerates all maximal cliques by brute force (checks every subset
/// extension); for tiny test graphs only. Each clique is returned sorted.
#[must_use]
pub fn brute_force_maximal_cliques(g: &CsrGraph) -> Vec<Vec<Vertex>> {
    let n = g.num_vertices();
    assert!(
        n <= 24,
        "brute-force maximal cliques is for tiny graphs only"
    );
    let mut cliques: Vec<Vec<Vertex>> = Vec::new();
    for mask in 1u32..(1u32 << n) {
        let members: Vec<Vertex> = (0..n as Vertex).filter(|&v| mask >> v & 1 == 1).collect();
        if is_maximal_clique(g, &members) {
            cliques.push(members);
        }
    }
    cliques.sort();
    cliques
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn triangles_of_complete_graph() {
        let g = generators::complete(6);
        // C(6,3) = 20 triangles.
        assert_eq!(triangle_count(&g), 20);
        assert_eq!(brute_force_k_clique_count(&g, 3), 20);
        assert_eq!(brute_force_k_clique_count(&g, 4), 15);
        assert_eq!(brute_force_k_clique_count(&g, 6), 1);
    }

    #[test]
    fn triangles_of_triangle_free_graph() {
        let g = generators::cycle(10);
        assert_eq!(triangle_count(&g), 0);
    }

    #[test]
    fn components_of_disjoint_pieces() {
        let g = CsrGraph::from_edges(6, &[(0, 1), (1, 2), (3, 4)]);
        let comp = connected_components(&g);
        assert_eq!(comp[0], comp[1]);
        assert_eq!(comp[1], comp[2]);
        assert_eq!(comp[3], comp[4]);
        assert_ne!(comp[0], comp[3]);
        assert_ne!(comp[5], comp[0]);
        // Three components, ids contiguous from 0.
        assert_eq!(comp.iter().max(), Some(&2));
    }

    #[test]
    fn clique_predicates() {
        let g = CsrGraph::from_edges(5, &[(0, 1), (0, 2), (1, 2), (2, 3), (3, 4)]);
        assert!(is_clique(&g, &[0, 1, 2]));
        assert!(!is_clique(&g, &[0, 1, 3]));
        assert!(is_maximal_clique(&g, &[0, 1, 2]));
        assert!(!is_maximal_clique(&g, &[0, 1])); // extendable by 2
        assert!(is_maximal_clique(&g, &[3, 4]));
        assert!(!is_maximal_clique(&g, &[]));
    }

    #[test]
    fn brute_force_maximal_cliques_on_small_graph() {
        // Two triangles sharing vertex 2, plus an isolated edge.
        let g = CsrGraph::from_edges(7, &[(0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4), (5, 6)]);
        let cliques = brute_force_maximal_cliques(&g);
        assert_eq!(cliques, vec![vec![0, 1, 2], vec![2, 3, 4], vec![5, 6]]);
    }
}
