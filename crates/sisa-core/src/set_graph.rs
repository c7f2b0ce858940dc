//! The hybrid SISA graph representation (§6.1, Figure 4).
//!
//! A [`SetGraph`] registers every vertex neighbourhood as a SISA set: the
//! largest neighbourhoods become dense bitvectors (processed in situ by
//! SISA-PUM) and the rest stay sparse arrays (processed by SISA-PNM), subject
//! to the user's bias parameter and storage budget. This mirrors the paper's
//! "predefined graph structure, where small and large neighborhoods are
//! automatically created (when a SISA program starts) as sparse arrays and
//! dense bitvectors, respectively".

use crate::config::SetGraphConfig;
use crate::engine::SetEngine;
use crate::{SetId, Vertex};
use sisa_graph::CsrGraph;
use sisa_sets::SetRepr;

/// A graph whose neighbourhoods are SISA sets.
#[derive(Clone, Debug)]
pub struct SetGraph {
    csr: CsrGraph,
    neighborhoods: Vec<SetId>,
    dense: Vec<bool>,
}

impl SetGraph {
    /// Loads `g` into any [`SetEngine`], creating one set per neighbourhood.
    ///
    /// Neighbourhoods are ranked by degree; the largest `cfg.db_fraction`
    /// fraction are stored as dense bitvectors as long as the cumulative
    /// *additional* storage (DB bits minus the SA bits they replace) stays
    /// within `cfg.storage_budget_frac` of the CSR size. Everything else is a
    /// sorted sparse array.
    #[must_use]
    pub fn load<E: SetEngine>(rt: &mut E, g: &CsrGraph, cfg: &SetGraphConfig) -> Self {
        let n = g.num_vertices();
        rt.set_universe(n);

        // Rank vertices by degree (descending) to pick DB candidates.
        let mut by_degree: Vec<Vertex> = (0..n as Vertex).collect();
        by_degree.sort_by_key(|&v| std::cmp::Reverse(g.degree(v)));

        let budget_bits = if cfg.storage_budget_frac.is_infinite() {
            usize::MAX
        } else {
            ((g.csr_bytes() * 8) as f64 * cfg.storage_budget_frac) as usize
        };
        let target_db_count = ((n as f64) * cfg.db_fraction.clamp(0.0, 1.0)).round() as usize;

        let mut dense = vec![false; n];
        let mut extra_bits: usize = 0;
        for &v in by_degree.iter().take(target_db_count) {
            let sa_bits = g.degree(v) * 32;
            let db_bits = sisa_sets::dense_bitvector_bits(n);
            let extra = db_bits.saturating_sub(sa_bits);
            if budget_bits != usize::MAX && extra_bits + extra > budget_bits {
                // The budget is exhausted: remaining (smaller) neighbourhoods
                // stay sparse (§6.1 "above a certain number of DBs, SISA
                // starts to use SAs only").
                break;
            }
            extra_bits += extra;
            dense[v as usize] = true;
        }

        let neighborhoods: Vec<SetId> = (0..n as Vertex)
            .map(|v| {
                let nbrs = g.neighbors(v).iter().copied();
                let repr = if dense[v as usize] {
                    SetRepr::dense_from(n, nbrs)
                } else {
                    SetRepr::sorted_from(nbrs)
                };
                rt.create(repr)
            })
            .collect();

        Self {
            csr: g.clone(),
            neighborhoods,
            dense,
        }
    }

    /// Number of vertices.
    #[must_use]
    pub fn num_vertices(&self) -> usize {
        self.csr.num_vertices()
    }

    /// Number of edges (arcs for a directed graph).
    #[must_use]
    pub fn num_edges(&self) -> usize {
        self.csr.num_edges()
    }

    /// The degree of `v`.
    #[must_use]
    pub fn degree(&self, v: Vertex) -> usize {
        self.csr.degree(v)
    }

    /// The SISA set holding `N(v)`.
    #[must_use]
    pub fn neighborhood(&self, v: Vertex) -> SetId {
        self.neighborhoods[v as usize]
    }

    /// The neighbourhood of `v` as a plain sorted slice (host-side view used
    /// for loop control; the heavy lifting stays in SISA set operations).
    #[must_use]
    pub fn neighbors(&self, v: Vertex) -> &[Vertex] {
        self.csr.neighbors(v)
    }

    /// Whether the edge `u → v` (or `{u, v}`) exists.
    #[must_use]
    pub fn has_edge(&self, u: Vertex, v: Vertex) -> bool {
        self.csr.has_edge(u, v)
    }

    /// Whether `N(v)` is stored as a dense bitvector.
    #[must_use]
    pub fn is_dense(&self, v: Vertex) -> bool {
        self.dense[v as usize]
    }

    /// Fraction of neighbourhoods stored as dense bitvectors.
    #[must_use]
    pub fn db_fraction(&self) -> f64 {
        if self.dense.is_empty() {
            return 0.0;
        }
        self.dense.iter().filter(|&&d| d).count() as f64 / self.dense.len() as f64
    }

    /// The underlying CSR graph.
    #[must_use]
    pub fn csr(&self) -> &CsrGraph {
        &self.csr
    }

    /// All vertex identifiers.
    pub fn vertices(&self) -> impl Iterator<Item = Vertex> + '_ {
        self.csr.vertices()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::SisaConfig;
    use crate::runtime::SisaRuntime;
    use sisa_graph::generators;

    fn load(g: &CsrGraph, cfg: &SetGraphConfig) -> (SisaRuntime, SetGraph) {
        let mut rt = SisaRuntime::new(SisaConfig::default());
        let sg = SetGraph::load(&mut rt, g, cfg);
        (rt, sg)
    }

    #[test]
    fn neighborhood_sets_hold_the_adjacency() {
        let g = generators::complete(10);
        let (mut rt, sg) = load(&g, &SetGraphConfig::default());
        assert_eq!(sg.num_vertices(), 10);
        assert_eq!(sg.num_edges(), 45);
        for v in 0..10u32 {
            let members = rt.members(sg.neighborhood(v));
            let expected: Vec<Vertex> = (0..10u32).filter(|&u| u != v).collect();
            assert_eq!(members, expected);
            assert_eq!(sg.neighbors(v), expected.as_slice());
        }
        assert!(sg.has_edge(0, 9));
    }

    #[test]
    fn db_fraction_targets_largest_neighbourhoods() {
        // A star: the hub has degree n-1, leaves have degree 1.
        let g = generators::star(100);
        let cfg = SetGraphConfig {
            db_fraction: 0.05,
            storage_budget_frac: 1.0,
        };
        let (_, sg) = load(&g, &cfg);
        assert!(sg.is_dense(0), "the hub must be stored densely");
        assert!((sg.db_fraction() - 0.05).abs() < 0.011);
    }

    #[test]
    fn zero_fraction_keeps_everything_sparse() {
        let g = generators::erdos_renyi(200, 0.1, 3);
        let sparse_only = SetGraphConfig {
            db_fraction: 0.0,
            ..SetGraphConfig::default()
        };
        let (_, sg) = load(&g, &sparse_only);
        assert_eq!(sg.db_fraction(), 0.0);
    }

    #[test]
    fn dense_only_stores_every_neighbourhood_densely() {
        let g = generators::erdos_renyi(100, 0.1, 3);
        let dense_only = SetGraphConfig {
            db_fraction: 1.0,
            storage_budget_frac: f64::INFINITY,
        };
        let (_, sg) = load(&g, &dense_only);
        assert!((sg.db_fraction() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn storage_budget_caps_db_count() {
        // A sparse graph: each DB costs ≈ n bits while saving few SA bits, so
        // a tight budget should stop DB conversion early.
        let g = generators::erdos_renyi(2000, 0.002, 9);
        let generous = SetGraphConfig {
            db_fraction: 0.5,
            storage_budget_frac: 10.0,
        };
        let tight = SetGraphConfig {
            db_fraction: 0.5,
            storage_budget_frac: 0.05,
        };
        let (_, sg_generous) = load(&g, &generous);
        let (_, sg_tight) = load(&g, &tight);
        assert!(sg_tight.db_fraction() < sg_generous.db_fraction());
        // Σ (DB bits − SA bits) over the dense neighbourhoods stays within
        // the budget.
        let db_bits = sisa_sets::dense_bitvector_bits(g.num_vertices());
        let extra_bits: usize = sg_tight
            .vertices()
            .filter(|&v| sg_tight.is_dense(v))
            .map(|v| db_bits.saturating_sub(g.degree(v) * 32))
            .sum();
        let budget_bits = (g.csr_bytes() * 8) as f64 * 0.05;
        assert!(extra_bits > 0);
        assert!((extra_bits as f64) <= budget_bits);
    }

    #[test]
    fn intersecting_two_dense_neighbourhoods_uses_pum() {
        let g = generators::complete(64);
        let dense_only = SetGraphConfig {
            db_fraction: 1.0,
            storage_budget_frac: f64::INFINITY,
        };
        let (mut rt, sg) = load(&g, &dense_only);
        rt.reset_stats();
        let _ = rt.intersect_count(sg.neighborhood(0), sg.neighborhood(1));
        assert_eq!(rt.stats().pum_ops, 1);
        assert_eq!(rt.stats().pnm_ops, 0);
    }
}
