//! Batched edge-stream mutations of an undirected graph.
//!
//! A [`GraphDelta`] is the unit of change of the streaming/dynamic-graph
//! path: a batch of edge deletions followed by a batch of edge insertions,
//! applied atomically to an immutable [`CsrGraph`] to produce its successor.
//! Deltas are *sets of intents*, not logs: self-loops are dropped, endpoint
//! order is irrelevant (`{u, v}` ≡ `{v, u}`), deleting an absent edge or
//! inserting a present one is a no-op, and within one delta deletes apply
//! **before** inserts — so a delta that deletes and re-inserts the same edge
//! leaves it present.
//!
//! The registry applies deltas through its replace path
//! ([`crate::GraphRegistry::mutate`]), ticking the per-name generation so
//! anything keyed by `(name, generation)` — result caches, shard-resident
//! loads — is invalidated structurally rather than by best-effort signals.

use crate::{CsrGraph, Vertex};

/// A batch of edge deletions and insertions against an undirected graph.
///
/// See the module docs for the exact semantics (deletes before inserts,
/// unordered endpoints, no-op filtering).
#[derive(Clone, Debug, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GraphDelta {
    /// Edges to insert (applied after `deletes`).
    pub inserts: Vec<(Vertex, Vertex)>,
    /// Edges to delete (applied first).
    pub deletes: Vec<(Vertex, Vertex)>,
}

impl GraphDelta {
    /// An empty delta.
    #[must_use]
    pub fn new() -> Self {
        GraphDelta::default()
    }

    /// Adds an edge insertion (builder form).
    #[must_use]
    pub fn insert(mut self, u: Vertex, v: Vertex) -> Self {
        self.inserts.push((u, v));
        self
    }

    /// Adds an edge deletion (builder form).
    #[must_use]
    pub fn delete(mut self, u: Vertex, v: Vertex) -> Self {
        self.deletes.push((u, v));
        self
    }

    /// Whether the delta carries no intents at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Total intents (inserts + deletes), before no-op filtering.
    #[must_use]
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// The largest vertex id named by any intent, if any.
    #[must_use]
    pub fn max_vertex(&self) -> Option<Vertex> {
        self.deletes
            .iter()
            .chain(self.inserts.iter())
            .map(|&(u, v)| u.max(v))
            .max()
    }

    /// The deletions in application order, as normalised `(min, max)` pairs
    /// with self-loops dropped and duplicates removed.
    #[must_use]
    pub fn normalized_deletes(&self) -> Vec<(Vertex, Vertex)> {
        normalize(&self.deletes)
    }

    /// The insertions in application order, as normalised `(min, max)` pairs
    /// with self-loops dropped and duplicates removed.
    #[must_use]
    pub fn normalized_inserts(&self) -> Vec<(Vertex, Vertex)> {
        normalize(&self.inserts)
    }

    /// Applies the delta to `g`, returning the successor graph: deletes
    /// first, then inserts, each filtered to effective changes. The vertex
    /// set grows to cover any endpoint an intent names beyond `g`'s range
    /// (isolated vertices are representable in CSR form). Vertex labels carry
    /// over; a vertex the delta adds takes label `0`.
    ///
    /// The successor is spliced out of `g`'s CSR arrays rather than rebuilt:
    /// only the rows an effective intent touches (at most `2 · len()`) are
    /// merged, every run of rows between them is one block copy with shifted
    /// offsets, and nothing is allocated per vertex. A steady mutation costs
    /// two array copies plus `O(|Δ| log |Δ|)` of work on what it changes.
    #[must_use]
    pub fn apply_to(&self, g: &CsrGraph) -> CsrGraph {
        debug_assert!(!g.is_directed(), "deltas apply to undirected graphs");
        let (old_offsets, old_targets) = g.parts();
        let old_n = g.num_vertices();
        let n = old_n.max(self.max_vertex().map_or(0, |v| v as usize + 1));
        // Normalised pairs are `(min, max)`: one range check covers both ends.
        let present = |&(u, v): &(Vertex, Vertex)| (v as usize) < old_n && g.has_edge(u, v);

        // Deletes apply first, so a deleted edge that is inserted again is
        // simply still there: the pair cancels and touches neither row.
        let mut inserts = self.normalized_inserts();
        inserts.sort_unstable();
        let deletes = self.normalized_deletes();
        let deleted = deletes
            .iter()
            .filter(|edge| present(edge) && inserts.binary_search(edge).is_err());
        let inserted = inserts.iter().filter(|edge| !present(edge));
        // `(row, neighbour, is_insert)` for both directions of every
        // effective intent, in the order the rows are written.
        let mut edits: Vec<(Vertex, Vertex, bool)> = deleted
            .map(|&edge| (edge, false))
            .chain(inserted.map(|&edge| (edge, true)))
            .flat_map(|((u, v), insert)| [(u, v, insert), (v, u, insert)])
            .collect();
        edits.sort_unstable();

        let mut offsets = Vec::with_capacity(n + 1);
        offsets.push(0);
        let mut targets = Vec::with_capacity(old_targets.len() + edits.len());
        // Writes the rows from the first unwritten one up to `end` untouched:
        // those `g` has as one copied run, its offsets shifted by how far the
        // successor has drifted from `g`; those beyond `g`'s range empty.
        let copy_rows = |offsets: &mut Vec<usize>, targets: &mut Vec<Vertex>, end: usize| {
            let first = offsets.len() - 1;
            let run_end = end.min(old_n);
            if first < run_end {
                let (base, start) = (old_offsets[first], targets.len());
                targets.extend_from_slice(&old_targets[base..old_offsets[run_end]]);
                offsets.extend(
                    old_offsets[first + 1..=run_end]
                        .iter()
                        .map(|&offset| start + (offset - base)),
                );
            }
            offsets.resize(end + 1, targets.len());
        };
        for row_edits in edits.chunk_by(|a, b| a.0 == b.0) {
            let row = row_edits[0].0 as usize;
            copy_rows(&mut offsets, &mut targets, row);
            let mut rest: &[Vertex] = if row < old_n {
                g.neighbors(row as Vertex)
            } else {
                &[]
            };
            for &(_, neighbour, insert) in row_edits {
                let (below, from) = rest.split_at(rest.partition_point(|&w| w < neighbour));
                targets.extend_from_slice(below);
                rest = if insert {
                    targets.push(neighbour);
                    from
                } else {
                    from.strip_prefix(&[neighbour])
                        .expect("an undirected graph stores a present edge in both rows")
                };
            }
            targets.extend_from_slice(rest);
            offsets.push(targets.len());
        }
        copy_rows(&mut offsets, &mut targets, n);

        let labels = g.vertex_labels().map(|old| {
            let mut labels = old.to_vec();
            labels.resize(n, 0);
            labels
        });
        CsrGraph::from_sorted_parts(offsets, targets, false, labels)
    }
}

/// Normalises an intent list: `(min, max)` endpoint order, self-loops
/// dropped, duplicates removed with first-occurrence order preserved.
fn normalize(edges: &[(Vertex, Vertex)]) -> Vec<(Vertex, Vertex)> {
    let mut seen = std::collections::BTreeSet::new();
    let mut out = Vec::with_capacity(edges.len());
    for &(u, v) in edges {
        if u == v {
            continue;
        }
        let edge = (u.min(v), u.max(v));
        if seen.insert(edge) {
            out.push(edge);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generators;

    #[test]
    fn normalisation_drops_self_loops_and_duplicates() {
        let delta = GraphDelta::new()
            .insert(3, 1)
            .insert(1, 3)
            .insert(2, 2)
            .insert(0, 4);
        assert_eq!(delta.normalized_inserts(), vec![(1, 3), (0, 4)]);
        assert_eq!(delta.len(), 4, "len counts raw intents");
        assert_eq!(delta.max_vertex(), Some(4));
        assert!(GraphDelta::new().is_empty());
    }

    #[test]
    fn apply_inserts_and_deletes_edges() {
        let g = CsrGraph::from_edges(4, &[(0, 1), (1, 2), (2, 3)]);
        let next = GraphDelta::new().delete(1, 2).insert(0, 3).apply_to(&g);
        assert_eq!(next.num_edges(), 3);
        assert!(!next.has_edge(1, 2));
        assert!(next.has_edge(0, 3));
        assert!(next.has_edge(0, 1), "untouched edges survive");
    }

    #[test]
    fn deletes_apply_before_inserts_so_reinsertion_wins() {
        let g = CsrGraph::from_edges(3, &[(0, 1)]);
        let next = GraphDelta::new().delete(0, 1).insert(0, 1).apply_to(&g);
        assert!(next.has_edge(0, 1), "delete-then-reinsert leaves the edge");
        assert_eq!(next.num_edges(), 1);
    }

    #[test]
    fn no_op_intents_leave_the_graph_unchanged() {
        let g = generators::erdos_renyi(20, 0.2, 7);
        let next = GraphDelta::new()
            .delete(0, 19) // harmless whether or not the edge exists
            .insert(5, 5) // self-loop: dropped
            .apply_to(&g);
        assert_eq!(next.num_vertices(), g.num_vertices());
        let baseline = if g.has_edge(0, 19) {
            g.num_edges() - 1
        } else {
            g.num_edges()
        };
        assert_eq!(next.num_edges(), baseline);
    }

    #[test]
    fn inserting_beyond_the_vertex_range_grows_the_graph() {
        let g = CsrGraph::from_edges(2, &[(0, 1)]);
        let next = GraphDelta::new().insert(1, 5).apply_to(&g);
        assert_eq!(next.num_vertices(), 6);
        assert!(next.has_edge(1, 5));
        assert_eq!(next.degree(4), 0, "intermediate vertices are isolated");
    }

    /// Seen to fail with `from_sorted_parts(.., None)`, what the rebuild
    /// passed: the successor came back unlabelled.
    #[test]
    fn vertex_labels_survive_a_mutation() {
        let g = CsrGraph::from_edges(3, &[(0, 1), (1, 2)]).with_vertex_labels(vec![7, 8, 9]);
        let deleted = GraphDelta::new().delete(0, 1).apply_to(&g);
        assert_eq!(deleted.vertex_labels(), Some(&[7, 8, 9][..]));
        let inserted = GraphDelta::new().insert(0, 2).apply_to(&g);
        assert_eq!(inserted.vertex_labels(), Some(&[7, 8, 9][..]));
        let grown = GraphDelta::new().insert(2, 4).apply_to(&g);
        assert_eq!(
            grown.vertex_labels(),
            Some(&[7, 8, 9, 0, 0][..]),
            "vertices the delta adds take label 0"
        );
        let plain = GraphDelta::new()
            .insert(0, 2)
            .apply_to(&CsrGraph::from_edges(3, &[]));
        assert_eq!(plain.vertex_labels(), None, "unlabelled stays unlabelled");
    }

    #[test]
    fn roundtrip_delta_restores_the_original_edge_set() {
        let g = generators::erdos_renyi(30, 0.15, 11);
        let removed: Vec<(Vertex, Vertex)> = g.edges().take(5).collect();
        let mut forward = GraphDelta::new();
        forward.deletes = removed.clone();
        let mut backward = GraphDelta::new();
        backward.inserts = removed;
        let shrunk = forward.apply_to(&g);
        assert_eq!(shrunk.num_edges(), g.num_edges() - 5);
        let restored = backward.apply_to(&shrunk);
        assert_eq!(restored.num_edges(), g.num_edges());
        for (u, v) in g.edges() {
            assert!(restored.has_edge(u, v));
        }
    }
}
