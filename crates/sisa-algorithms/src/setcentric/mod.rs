//! Set-centric formulations of graph-mining algorithms (§5 of the paper).
//!
//! Every algorithm here is written against the SISA runtime: the heavy work is
//! expressed as SISA set operations (intersection, union, difference, their
//! counting twins, membership and element updates) on [`sisa_core::SetGraph`]
//! neighbourhoods and auxiliary sets, while loop control stays on the host and
//! is charged as scalar work. Outer-loop iterations marked "[in par]" in the
//! paper's listings become separate task records, so the harness can schedule
//! them across virtual threads.

pub mod bron_kerbosch;
pub mod cliques;
pub mod incremental;
pub mod learning;
pub mod subgraph_iso;
pub mod traversal;

pub use bron_kerbosch::maximal_cliques;
pub use cliques::{
    four_clique_count, k_clique_count, k_clique_star_count, orient_by_degeneracy, triangle_count,
};
pub use incremental::{ApplyReport, StreamingMiner};
pub use learning::{
    jarvis_patrick_clustering, link_prediction_accuracy, pairwise_similarity, SimilarityMeasure,
};
pub use subgraph_iso::{star_pattern, subgraph_isomorphism_count, PatternGraph};
pub use traversal::{approximate_degeneracy, bfs, BfsMode};
