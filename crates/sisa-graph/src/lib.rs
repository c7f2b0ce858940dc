//! # sisa-graph
//!
//! Graph data structures, generators and dataset stand-ins for the SISA
//! reproduction (Besta et al., MICRO 2021).
//!
//! The crate provides:
//!
//! * [`CsrGraph`] — a compressed-sparse-row graph with sorted neighbourhoods,
//!   the baseline storage format both the paper's hand-tuned algorithms and
//!   SISA's hybrid set-graph are built on.
//! * [`GraphBuilder`] — incremental edge-list construction with deduplication.
//! * [`GraphDelta`] — batched edge insertions/deletions, applied through the
//!   registry's generation-ticking replace path (streaming graph updates).
//! * [`orientation`] — the exact degeneracy ordering (§5.1.5) and
//!   degeneracy-ordered orientation, the optimisation used by the k-clique
//!   and Bron–Kerbosch formulations.
//! * [`generators`] — deterministic synthetic graph generators (Erdős–Rényi,
//!   Barabási–Albert, Kronecker/R-MAT, Watts–Strogatz, planted-clique
//!   community graphs and classic topologies).
//! * [`datasets`] — the registry of synthetic stand-ins for the Network
//!   Repository datasets in the paper's Table 7 (the real datasets cannot be
//!   downloaded in this environment; see DESIGN.md §2).
//! * [`degree`] — degree-distribution statistics used to regenerate
//!   Figure 7a.
//! * [`properties`] — reference implementations of simple graph properties
//!   (triangle count, cliques, connected components) used by
//!   tests to validate both the generators and the mining algorithms.
//! * [`labels`] — vertex/edge labelling for labelled subgraph isomorphism.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod csr;
pub mod datasets;
pub mod degree;
pub mod delta;
pub mod generators;
pub mod labels;
pub mod orientation;
pub mod properties;
pub mod registry;

pub use csr::{CsrGraph, GraphBuilder};
pub use delta::GraphDelta;
pub use labels::{EdgeLabels, LabeledGraph};
pub use orientation::{degeneracy_order, DegeneracyOrdering};
pub use registry::{GraphLease, GraphRegistry, RegistryConfig};

/// A vertex identifier (re-exported from `sisa-sets`).
pub type Vertex = sisa_sets::Vertex;
