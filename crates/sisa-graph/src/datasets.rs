//! Synthetic stand-ins for the paper's input datasets (Table 7).
//!
//! The paper evaluates on Network Repository graphs [Rossi & Ahmed 2016] from
//! eight domains. Those datasets cannot be downloaded in this environment, so
//! every entry here is a *stand-in*: a deterministic synthetic graph whose
//! vertex count, edge count and structural character (degree-tail heaviness,
//! presence of dense clusters) approximate the original. The registry records
//! the original sizes so the benchmark harness can report how faithful each
//! stand-in is, and the large graphs are scaled down (with the scale factor
//! recorded) to keep cycle-model simulations tractable — the paper itself
//! resorts to pattern-count cutoffs for the same reason (§9.1, "Tackling Long
//! Simulation Runtimes").

use crate::generators::{self, PlantedCliqueConfig, RmatConfig};
use crate::CsrGraph;

/// The domain a dataset belongs to (the prefix used in the paper's plots).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GraphClass {
    /// Gene functional association / regulatory networks (`bio-`).
    Biological,
    /// Brain connectomes (`bn-`).
    Brain,
    /// Animal / human interaction networks (`int-`, `intD-`).
    Interaction,
    /// Economic input–output networks (`econ-`).
    Economic,
    /// Social networks (`soc-`).
    Social,
    /// Scientific-computing meshes (`sc-`).
    SciComp,
    /// DIMACS clique-benchmark graphs (`dimacs-`).
    DiscreteMath,
    /// Wiktionary edit networks (`edit-`).
    Wiki,
}

impl GraphClass {
    /// The prefix the paper uses for this class.
    #[must_use]
    pub fn prefix(self) -> &'static str {
        match self {
            Self::Biological => "bio",
            Self::Brain => "bn",
            Self::Interaction => "int",
            Self::Economic => "econ",
            Self::Social => "soc",
            Self::SciComp => "sc",
            Self::DiscreteMath => "dimacs",
            Self::Wiki => "edit",
        }
    }
}

/// How a stand-in is synthesised.
#[derive(Clone, Debug, PartialEq)]
enum Recipe {
    /// Overlapping planted cliques over a sparse background: heavy tails and
    /// dense clusters (bio / brain / econ character).
    Community(PlantedCliqueConfig),
    /// Near-complete dense graph (small animal-interaction and DIMACS graphs).
    NearComplete { n: usize, density: f64 },
    /// R-MAT / Kronecker (social and web-like graphs).
    Rmat(RmatConfig),
    /// Barabási–Albert preferential attachment (moderately skewed networks).
    BarabasiAlbert { n: usize, m_attach: usize },
    /// Fixed-edge-count Erdős–Rényi (very sparse contact networks).
    SparseRandom { n: usize, m: usize },
    /// Watts–Strogatz lattice (scientific-computing meshes: light tails).
    SmallWorld { n: usize, k: usize, beta: f64 },
}

/// A named dataset stand-in.
#[derive(Clone, Debug, PartialEq)]
pub struct DatasetSpec {
    /// The dataset name as it appears in the paper's figures.
    pub name: &'static str,
    /// The dataset's domain.
    pub class: GraphClass,
    /// Vertex count of the original dataset (from Table 7).
    pub paper_vertices: usize,
    /// Edge count of the original dataset (from Table 7).
    pub paper_edges: usize,
    /// Linear scale factor applied to the stand-in (1.0 = same order of size
    /// as the original; < 1.0 for the large graphs of Figure 8).
    pub scale: f64,
    recipe: Recipe,
}

impl DatasetSpec {
    /// Generates the stand-in graph deterministically from `seed`.
    #[must_use]
    pub fn generate(&self, seed: u64) -> CsrGraph {
        match &self.recipe {
            Recipe::Community(cfg) => generators::planted_cliques(cfg, seed).0,
            Recipe::NearComplete { n, density } => generators::near_complete(*n, *density, seed),
            Recipe::Rmat(cfg) => generators::kronecker(cfg, seed),
            Recipe::BarabasiAlbert { n, m_attach } => {
                generators::barabasi_albert(*n, *m_attach, seed)
            }
            Recipe::SparseRandom { n, m } => generators::erdos_renyi_with_edges(*n, *m, seed),
            Recipe::SmallWorld { n, k, beta } => generators::watts_strogatz(*n, *k, *beta, seed),
        }
    }
}

/// Builds a community recipe that approximately matches `n` vertices and `m`
/// edges with dense clusters whose size reaches `max_clique_frac * n`.
fn community(n: usize, m: usize, max_clique_frac: f64, overlap: f64) -> Recipe {
    let max_clique = ((n as f64 * max_clique_frac) as usize).clamp(6, n);
    let min_clique = (max_clique / 4).clamp(4, max_clique);
    let avg = (min_clique + max_clique) as f64 / 2.0;
    let edges_per_clique = avg * (avg - 1.0) / 2.0;
    // Aim for roughly 70% of the edges to come from planted cliques.
    let num_cliques = ((0.7 * m as f64) / edges_per_clique).ceil().max(3.0) as usize;
    let background = (m as f64 * 0.3) as usize;
    Recipe::Community(PlantedCliqueConfig {
        num_vertices: n,
        num_cliques,
        min_clique_size: min_clique,
        max_clique_size: max_clique,
        background_edges: background,
        overlap,
    })
}

/// The 20 small graphs of Figure 6, in the order the paper plots them.
#[must_use]
pub fn small_suite() -> Vec<DatasetSpec> {
    use GraphClass::*;
    vec![
        DatasetSpec {
            name: "bio-SC-GT",
            class: Biological,
            paper_vertices: 1700,
            paper_edges: 34_000,
            scale: 1.0,
            recipe: community(1700, 34_000, 0.05, 0.3),
        },
        DatasetSpec {
            name: "bn-flyMedulla",
            class: Brain,
            paper_vertices: 1800,
            paper_edges: 8_900,
            scale: 1.0,
            recipe: Recipe::BarabasiAlbert {
                n: 1800,
                m_attach: 5,
            },
        },
        DatasetSpec {
            name: "bn-mouse",
            class: Brain,
            paper_vertices: 1100,
            paper_edges: 90_800,
            scale: 1.0,
            recipe: community(1100, 90_800, 0.20, 0.4),
        },
        DatasetSpec {
            name: "int-antCol3-d1",
            class: Interaction,
            paper_vertices: 161,
            paper_edges: 11_100,
            scale: 1.0,
            recipe: Recipe::NearComplete {
                n: 161,
                density: 0.86,
            },
        },
        DatasetSpec {
            name: "int-antCol5-d1",
            class: Interaction,
            paper_vertices: 153,
            paper_edges: 9_000,
            scale: 1.0,
            recipe: Recipe::NearComplete {
                n: 153,
                density: 0.77,
            },
        },
        DatasetSpec {
            name: "int-antCol6-d2",
            class: Interaction,
            paper_vertices: 165,
            paper_edges: 10_200,
            scale: 1.0,
            recipe: Recipe::NearComplete {
                n: 165,
                density: 0.75,
            },
        },
        DatasetSpec {
            name: "bio-CE-PG",
            class: Biological,
            paper_vertices: 1800,
            paper_edges: 48_000,
            scale: 1.0,
            recipe: community(1800, 48_000, 0.06, 0.3),
        },
        DatasetSpec {
            name: "bio-DM-CX",
            class: Biological,
            paper_vertices: 4000,
            paper_edges: 77_000,
            scale: 1.0,
            recipe: community(4000, 77_000, 0.04, 0.3),
        },
        DatasetSpec {
            name: "bio-DR-CX",
            class: Biological,
            paper_vertices: 3200,
            paper_edges: 85_000,
            scale: 1.0,
            recipe: community(3200, 85_000, 0.04, 0.3),
        },
        DatasetSpec {
            name: "bio-HS-LC",
            class: Biological,
            paper_vertices: 4200,
            paper_edges: 39_000,
            scale: 1.0,
            recipe: community(4200, 39_000, 0.06, 0.35),
        },
        DatasetSpec {
            name: "bio-SC-HT",
            class: Biological,
            paper_vertices: 2000,
            paper_edges: 63_000,
            scale: 1.0,
            recipe: community(2000, 63_000, 0.05, 0.3),
        },
        DatasetSpec {
            name: "bio-WormNetB3",
            class: Biological,
            paper_vertices: 2400,
            paper_edges: 79_000,
            scale: 1.0,
            recipe: community(2400, 79_000, 0.05, 0.3),
        },
        DatasetSpec {
            name: "dimacs-c500-9",
            class: DiscreteMath,
            paper_vertices: 501,
            paper_edges: 112_000,
            scale: 1.0,
            recipe: Recipe::NearComplete {
                n: 501,
                density: 0.9,
            },
        },
        DatasetSpec {
            name: "econ-beacxc",
            class: Economic,
            paper_vertices: 498,
            paper_edges: 42_000,
            scale: 1.0,
            recipe: community(498, 42_000, 0.15, 0.35),
        },
        DatasetSpec {
            name: "econ-beaflw",
            class: Economic,
            paper_vertices: 508,
            paper_edges: 44_900,
            scale: 1.0,
            recipe: community(508, 44_900, 0.15, 0.35),
        },
        DatasetSpec {
            name: "econ-mbeacxc",
            class: Economic,
            paper_vertices: 493,
            paper_edges: 41_600,
            scale: 1.0,
            recipe: community(493, 41_600, 0.15, 0.35),
        },
        DatasetSpec {
            name: "econ-orani678",
            class: Economic,
            paper_vertices: 2500,
            paper_edges: 86_800,
            scale: 1.0,
            recipe: community(2500, 86_800, 0.08, 0.3),
        },
        DatasetSpec {
            name: "int-HosWardProx",
            class: Interaction,
            paper_vertices: 1800,
            paper_edges: 1400,
            scale: 1.0,
            recipe: Recipe::SparseRandom { n: 1800, m: 1400 },
        },
        DatasetSpec {
            name: "intD-antCol4",
            class: Interaction,
            paper_vertices: 134,
            paper_edges: 5000,
            scale: 1.0,
            recipe: Recipe::NearComplete {
                n: 134,
                density: 0.56,
            },
        },
        DatasetSpec {
            name: "soc-fbMsg",
            class: Social,
            paper_vertices: 1900,
            paper_edges: 13_800,
            scale: 1.0,
            recipe: Recipe::Rmat(RmatConfig {
                scale: 11,
                edge_factor: 7,
                a: 0.57,
                b: 0.19,
                c: 0.19,
            }),
        },
    ]
}

/// The six large graphs of Figure 8, scaled down to keep the cycle-model
/// simulation tractable. `scale` records the linear reduction in vertex count.
#[must_use]
pub fn large_suite() -> Vec<DatasetSpec> {
    use GraphClass::*;
    vec![
        DatasetSpec {
            name: "bio-humanGene",
            class: Biological,
            paper_vertices: 14_000,
            paper_edges: 9_000_000,
            scale: 0.11,
            recipe: community(1500, 110_000, 0.35, 0.5),
        },
        DatasetSpec {
            name: "bio-mouseGene",
            class: Biological,
            paper_vertices: 45_000,
            paper_edges: 14_500_000,
            scale: 0.045,
            recipe: community(2000, 130_000, 0.20, 0.45),
        },
        DatasetSpec {
            name: "edit-enwiktionary",
            class: Wiki,
            paper_vertices: 2_100_000,
            paper_edges: 5_500_000,
            scale: 0.004,
            recipe: Recipe::Rmat(RmatConfig {
                scale: 13,
                edge_factor: 3,
                a: 0.57,
                b: 0.19,
                c: 0.19,
            }),
        },
        DatasetSpec {
            name: "int-dating",
            class: Interaction,
            paper_vertices: 169_000,
            paper_edges: 17_300_000,
            scale: 0.024,
            recipe: Recipe::Rmat(RmatConfig {
                scale: 12,
                edge_factor: 20,
                a: 0.55,
                b: 0.2,
                c: 0.2,
            }),
        },
        DatasetSpec {
            name: "sc-pwtk",
            class: SciComp,
            paper_vertices: 217_900,
            paper_edges: 5_600_000,
            scale: 0.028,
            recipe: Recipe::SmallWorld {
                n: 6000,
                k: 24,
                beta: 0.05,
            },
        },
        DatasetSpec {
            name: "soc-orkut",
            class: Social,
            paper_vertices: 3_100_000,
            paper_edges: 117_000_000,
            scale: 0.0026,
            recipe: Recipe::Rmat(RmatConfig {
                scale: 13,
                edge_factor: 15,
                a: 0.40,
                b: 0.25,
                c: 0.25,
            }),
        },
    ]
}

/// Every registered stand-in (small suite followed by large suite).
#[must_use]
pub fn all() -> Vec<DatasetSpec> {
    let mut v = small_suite();
    v.extend(large_suite());
    v
}

/// Looks a stand-in up by its paper name.
#[must_use]
pub fn by_name(name: &str) -> Option<DatasetSpec> {
    all().into_iter().find(|d| d.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::degree::DegreeStats;

    #[test]
    fn suites_have_the_papers_datasets() {
        assert_eq!(small_suite().len(), 20);
        assert_eq!(large_suite().len(), 6);
        assert_eq!(all().len(), 26);
        assert!(by_name("bio-humanGene").is_some());
        assert!(by_name("dimacs-c500-9").is_some());
        assert!(by_name("no-such-graph").is_none());
    }

    #[test]
    fn names_are_unique() {
        let mut names: Vec<_> = all().iter().map(|d| d.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), 26);
    }

    #[test]
    fn small_standins_match_paper_sizes_in_order_of_magnitude() {
        for spec in small_suite() {
            let g = spec.generate(1);
            let n_ratio = g.num_vertices() as f64 / spec.paper_vertices as f64;
            assert!(
                (0.4..=2.5).contains(&n_ratio),
                "{}: vertex count off ({} vs {})",
                spec.name,
                g.num_vertices(),
                spec.paper_vertices
            );
            let m_ratio = g.num_edges() as f64 / spec.paper_edges as f64;
            assert!(
                (0.25..=4.0).contains(&m_ratio),
                "{}: edge count off ({} vs {})",
                spec.name,
                g.num_edges(),
                spec.paper_edges
            );
            assert_eq!(
                spec.scale, 1.0,
                "{}: a small stand-in is not scaled",
                spec.name
            );
        }
    }

    #[test]
    fn human_gene_standin_is_much_heavier_tailed_than_orkut_standin() {
        // The contrast Figure 7a illustrates.
        let gene = by_name("bio-humanGene").unwrap().generate(2);
        let orkut = by_name("soc-orkut").unwrap().generate(2);
        let gene_stats = DegreeStats::compute(&gene);
        let orkut_stats = DegreeStats::compute(&orkut);
        assert!(
            gene_stats.max_degree_fraction > 0.25,
            "{}",
            gene_stats.max_degree_fraction
        );
        assert!(
            orkut_stats.max_degree_fraction < 0.12,
            "{}",
            orkut_stats.max_degree_fraction
        );
        assert!(by_name("bio-humanGene").unwrap().scale < 1.0);
    }

    #[test]
    fn class_prefixes() {
        assert_eq!(GraphClass::Biological.prefix(), "bio");
        assert_eq!(GraphClass::DiscreteMath.prefix(), "dimacs");
        for spec in small_suite() {
            assert!(spec.name.starts_with(spec.class.prefix()) || spec.name.starts_with("intD"));
        }
    }
}
