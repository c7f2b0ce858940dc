//! Hand-tuned software baselines executed on the CPU cost model.
//!
//! The paper compares SISA against two classes of software baselines (§9.1):
//!
//! * **`_non-set`** — tuned CSR algorithms that do not restructure their work
//!   as set operations: connectivity is tested with per-element binary
//!   searches / adjacency probes inside nested loops.
//! * **`_set-based`** — the same algorithms restructured around software set
//!   operations (merge intersections over sorted neighbourhoods), i.e. the
//!   set-centric formulations *without* PIM acceleration.
//!
//! Both run on the out-of-order CPU model from `sisa-pim` (with optional
//! bandwidth scaling, matching the paper's fairness setup) and emit one
//! [`sisa_core::TaskRecord`] per outer-loop work item.

pub mod bron_kerbosch;
pub mod cliques;
pub mod engine;
pub mod learning;
pub mod subgraph_iso;

pub use bron_kerbosch::maximal_cliques_baseline;
pub use cliques::{k_clique_count_baseline, k_clique_star_count_baseline, triangle_count_baseline};
pub use learning::jarvis_patrick_baseline;
pub use subgraph_iso::star_isomorphism_baseline;

/// Which baseline scheme to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BaselineMode {
    /// Tuned CSR algorithm without explicit set algebra (`_non-set`).
    NonSet,
    /// Software set-centric algorithm (`_set-based`).
    SetBased,
}

impl BaselineMode {
    /// The suffix the paper uses in its plots.
    #[must_use]
    pub fn suffix(self) -> &'static str {
        match self {
            Self::NonSet => "non-set",
            Self::SetBased => "set-based",
        }
    }
}
