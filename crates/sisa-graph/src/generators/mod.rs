//! Deterministic synthetic graph generators.
//!
//! The paper's evaluation uses Network Repository datasets plus Kronecker
//! graphs for the scalability study (§9.2). Since the original datasets are
//! not redistributable here, the [`crate::datasets`] registry composes these
//! generators into *stand-ins* with matching size and structural character.
//!
//! Every generator is deterministic given its seed: one seed gives one graph,
//! in every run and every process, and the figures, the benchmark's answers
//! and the service's cached results rely on it. `tests/dataset_digests.rs`
//! pins the CSR arrays of every stand-in at seed 1. A generator therefore
//! never iterates a hash container (the crate warns on
//! `clippy::iter_over_hash_type`), and a faster one must draw the same random
//! numbers in the same order through the same `f64` expressions.
//!
//! The cost is what a graph builds: `erdos_renyi` is O(n + m), and
//! `kronecker` takes one draw per level, O(m · scale), with no walk over the
//! vertex range per edge.

mod classic;
mod communities;
mod random;

pub use classic::{complete, cycle, path, star};
pub use communities::{planted_cliques, PlantedCliqueConfig};
pub use random::{barabasi_albert, erdos_renyi, kronecker, near_complete, RmatConfig};
pub(crate) use random::{erdos_renyi_with_edges, watts_strogatz};

#[cfg(test)]
mod tests {
    use super::*;
    use crate::properties;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(erdos_renyi(100, 0.05, 42), erdos_renyi(100, 0.05, 42));
        assert_eq!(barabasi_albert(100, 3, 9), barabasi_albert(100, 3, 9));
        let rmat = RmatConfig::default_scale(8);
        assert_eq!(kronecker(&rmat, 5), kronecker(&rmat, 5));
        assert_eq!(
            planted_cliques(&PlantedCliqueConfig::default(), 3),
            planted_cliques(&PlantedCliqueConfig::default(), 3)
        );
        assert_eq!(
            erdos_renyi_with_edges(200, 1000, 7),
            erdos_renyi_with_edges(200, 1000, 7)
        );
        assert_eq!(
            watts_strogatz(200, 6, 0.1, 7),
            watts_strogatz(200, 6, 0.1, 7)
        );
    }

    #[test]
    fn different_seeds_differ() {
        let a = erdos_renyi(200, 0.05, 1);
        let b = erdos_renyi(200, 0.05, 2);
        // Extremely unlikely to coincide exactly in structure.
        let same_everywhere = a.vertices().all(|v| a.neighbors(v) == b.neighbors(v));
        assert!(!same_everywhere);
    }

    #[test]
    fn planted_cliques_contain_their_cliques() {
        let cfg = PlantedCliqueConfig {
            num_vertices: 300,
            num_cliques: 10,
            min_clique_size: 5,
            max_clique_size: 12,
            background_edges: 400,
            overlap: 0.2,
        };
        let (g, cliques) = planted_cliques(&cfg, 77);
        assert_eq!(g.num_vertices(), 300);
        assert_eq!(cliques.len(), 10);
        for clique in &cliques {
            assert!(properties::is_clique(&g, clique), "planted clique missing");
            assert!(clique.len() >= 5 && clique.len() <= 12);
        }
        // Planted cliques create many triangles.
        assert!(properties::triangle_count(&g) > 50);
    }
}
