//! Differential property tests for [`GraphDelta::apply_to`].
//!
//! `apply_to` used to rebuild the successor from scratch: copy every
//! neighbourhood into its own `Vec`, edit those, and let
//! `CsrGraph::from_adjacency` re-sort and re-concatenate all `n` rows. It now
//! splices the successor out of the predecessor's CSR arrays, touching only
//! the rows a delta changes. That is a host-speed change: the successor must
//! be `==` the rebuild's on every input. The old body is kept here, verbatim,
//! as [`model`] (the service's `stream_mutations` suite uses `apply_to` itself
//! as its oracle, so the model has to live where `apply_to` cannot reach it).
//!
//! Inputs cover the shapes a splice gets wrong: the empty graph, one vertex,
//! isolated vertices, a full row, and deltas with duplicates, self-loops,
//! reversed endpoints, deletes of absent edges, inserts of present ones,
//! delete-then-re-insert, and endpoints past the vertex range in inserts and
//! in deletes. Each test names the one-line mutation of `delta.rs` it was seen
//! to fail under.
//!
//! The splice decides the delete-then-re-insert cancel per *edge*, before the
//! two directions of an intent exist, so "the cancel removing one direction
//! only" has no line of its own here: its two halves are the cancel skipped
//! (test 2) and an intent emitting one direction (test 3).

use proptest::prelude::*;
use sisa_graph::{CsrGraph, GraphDelta, Vertex};

/// `GraphDelta::apply_to` as it stood before the splice, `self` spelled
/// `delta`.
fn model(delta: &GraphDelta, g: &CsrGraph) -> CsrGraph {
    let n = g
        .num_vertices()
        .max(delta.max_vertex().map_or(0, |v| v as usize + 1));
    let mut adj: Vec<Vec<Vertex>> = (0..n)
        .map(|v| {
            if v < g.num_vertices() {
                g.neighbors(v as Vertex).to_vec()
            } else {
                Vec::new()
            }
        })
        .collect();
    for (u, v) in delta.normalized_deletes() {
        adj[u as usize].retain(|&w| w != v);
        adj[v as usize].retain(|&w| w != u);
    }
    for (u, v) in delta.normalized_inserts() {
        if !adj[u as usize].contains(&v) {
            adj[u as usize].push(v);
            adj[v as usize].push(u);
        }
    }
    CsrGraph::from_adjacency(adj, false, None)
}

/// An undirected graph on `n` vertices from edge codes: few codes leave
/// isolated vertices, many codes on a small `n` fill whole rows.
fn graph(n: usize, codes: &[u32]) -> CsrGraph {
    let edges: Vec<(Vertex, Vertex)> = match n as u32 {
        0 => Vec::new(),
        n => codes.iter().map(|&c| (c / 64 % n, c % 64 % n)).collect(),
    };
    CsrGraph::from_edges(n, &edges)
}

/// One intent from a code. Half of the codes name an edge `g` has, as stored
/// or reversed (a present edge to delete or to insert again; drawn twice, a
/// duplicate); the other half any pair below `span`, which gives self-loops,
/// absent edges and — with `span` past `g`'s range — new vertices.
fn intent(code: u32, g: &CsrGraph, span: u32) -> (Vertex, Vertex) {
    let (kind, rest) = (code % 4, code / 4);
    if kind < 2 && g.num_edges() > 0 {
        let (u, v) = g
            .edges()
            .nth(rest as usize % g.num_edges())
            .expect("index below the edge count");
        return if kind == 0 { (u, v) } else { (v, u) };
    }
    (rest / 64 % span, rest % 64 % span)
}

/// A delta over `g`: intents drawn by [`intent`], and the first `reinserted`
/// deletes inserted again with their endpoints swapped.
fn draw_delta(
    g: &CsrGraph,
    span: u32,
    deletes: &[u32],
    inserts: &[u32],
    reinserted: usize,
) -> GraphDelta {
    let mut delta = GraphDelta::new();
    if span == 0 {
        return delta;
    }
    delta.deletes = deletes.iter().map(|&c| intent(c, g, span)).collect();
    delta.inserts = inserts.iter().map(|&c| intent(c, g, span)).collect();
    let again: Vec<_> = delta.deletes.iter().take(reinserted).copied().collect();
    delta.inserts.extend(again.into_iter().map(|(u, v)| (v, u)));
    delta
}

proptest! {
    /// 1. The splice is the rebuild, on everything at once; and with labels on
    /// `g` the structure is still the rebuild's while the labels carry over,
    /// new vertices taking `0`.
    ///
    /// Seen to fail under: a copied run's offsets not shifted
    /// (`start + (offset - base)` → `offset`); `edits.sort_unstable()` dropped
    /// (rows written out of order); the range check dropped from `present`
    /// (`has_edge` indexes past `g`); `labels.resize(n, 0)` dropped.
    #[test]
    fn the_splice_equals_the_rebuild(
        n in 0usize..=40,
        edges in collection::vec(0u32..4096, 0..160),
        deletes in collection::vec(0u32..16384, 0..10),
        inserts in collection::vec(0u32..16384, 0..10),
        reinserted in 0usize..4,
        past in 0u32..7,
    ) {
        let g = graph(n, &edges);
        let delta = draw_delta(&g, n as u32 + past, &deletes, &inserts, reinserted);
        let expected = model(&delta, &g);
        prop_assert_eq!(delta.apply_to(&g), expected.clone(), "{:?} on {:?}", delta, g);

        let labels: Vec<u32> = (0..n as u32).map(|v| v % 3 + 1).collect();
        let mut grown = labels.clone();
        grown.resize(expected.num_vertices(), 0);
        prop_assert_eq!(
            delta.apply_to(&g.with_vertex_labels(labels)),
            expected.with_vertex_labels(grown)
        );
    }

    /// 2. Deletes apply before inserts: an edge `g` has, deleted and inserted
    /// again in one delta (endpoints swapped, beside unrelated intents), is
    /// still there in both rows.
    ///
    /// Seen to fail under: the cancel skipped, i.e. inserts applied before
    /// deletes (`&& inserts.binary_search(edge).is_err()` dropped, so the
    /// re-inserted delete still deletes); `inserts.sort_unstable()` dropped
    /// (the cancel looks a pair up in an unsorted list and misses it).
    #[test]
    fn a_delete_that_is_reinserted_cancels(
        n in 2usize..=40,
        edges in collection::vec(0u32..4096, 1..160),
        deletes in collection::vec(0u32..16384, 1..10),
        inserts in collection::vec(0u32..16384, 0..10),
    ) {
        let g = graph(n, &edges);
        let delta = draw_delta(&g, n as u32, &deletes, &inserts, deletes.len());
        let next = delta.apply_to(&g);
        for &(u, v) in &delta.deletes {
            if g.has_edge(u, v) {
                prop_assert!(next.has_edge(u, v) && next.has_edge(v, u), "({}, {}) lost", u, v);
            }
        }
        prop_assert_eq!(next, model(&delta, &g));
    }

    /// 3. Every effective intent lands in both endpoint rows: the successor is
    /// symmetric, and the inverse delta (what `next` gained, deleted; what it
    /// lost, inserted) restores `g`'s edge set — and `g` itself when the delta
    /// named no new vertex, since a delta cannot shrink the vertex set.
    ///
    /// Seen to fail under: an intent emitting one direction only
    /// (`[(u, v, insert), (v, u, insert)]` → `[(u, v, insert)]`).
    #[test]
    fn the_inverse_delta_restores_the_graph(
        n in 0usize..=40,
        edges in collection::vec(0u32..4096, 0..160),
        deletes in collection::vec(0u32..16384, 0..10),
        inserts in collection::vec(0u32..16384, 0..10),
        past in 0u32..3,
    ) {
        let g = graph(n, &edges);
        let delta = draw_delta(&g, n as u32 + past, &deletes, &inserts, 1);
        let next = delta.apply_to(&g);
        for (u, v) in next.arcs() {
            prop_assert!(next.has_edge(v, u), "({}, {}) stored one way", u, v);
        }
        let known = |h: &CsrGraph, (u, v): (Vertex, Vertex)| {
            (v as usize) < h.num_vertices() && h.has_edge(u, v)
        };
        let mut inverse = GraphDelta::new();
        inverse.deletes = next.edges().filter(|&e| !known(&g, e)).collect();
        inverse.inserts = g.edges().filter(|&e| !known(&next, e)).collect();
        let restored = inverse.apply_to(&next);
        prop_assert_eq!(restored.num_vertices(), next.num_vertices());
        prop_assert!(restored.edges().eq(g.edges()), "{:?} then {:?} on {:?}", delta, inverse, g);
        if next.num_vertices() == g.num_vertices() {
            prop_assert_eq!(restored, g);
        }
    }

    /// 4. An endpoint past the vertex range grows the vertex set whether it is
    /// inserted, deleted or a self-loop, and every row it adds — touched or
    /// not — gets its offset.
    ///
    /// Seen to fail under: grown rows emitting no offset
    /// (`offsets.resize(end + 1, targets.len())` dropped); the vertex range
    /// taken from the inserts alone (`max_vertex()` → the inserts' maximum).
    #[test]
    fn endpoints_past_the_range_grow_the_vertex_set(
        n in 0usize..=12,
        edges in collection::vec(0u32..4096, 0..40),
        far in 0u32..9,
        near in 0u32..13,
        how in 0u32..3,
    ) {
        let g = graph(n, &edges);
        let (far, near) = (n as u32 + far, near % (n as u32 + 1));
        let delta = match how {
            0 => GraphDelta::new().insert(far, near),
            1 => GraphDelta::new().delete(near, far),
            _ => GraphDelta::new().insert(far, far),
        };
        let next = delta.apply_to(&g);
        prop_assert_eq!(next.num_vertices(), far as usize + 1);
        prop_assert_eq!(next.has_edge(far, near), how == 0 && far != near);
        prop_assert_eq!(next, model(&delta, &g));
    }

    /// 5. Rows the delta does not touch survive wherever they sit: before the
    /// first touched row, between two, and after the last — including when
    /// the last row of the graph is itself the touched one and nothing
    /// follows it.
    ///
    /// Seen to fail under: the tail copy dropped (the closing
    /// `copy_rows(.., n)` removed); a row's untouched suffix dropped
    /// (`targets.extend_from_slice(rest)` removed).
    #[test]
    fn untouched_rows_survive_around_the_touched_ones(
        n in 3usize..=40,
        edges in collection::vec(0u32..4096, 0..160),
        row in 0u32..40,
        last in 0u32..2,
    ) {
        let g = graph(n, &edges);
        let (u, v) = if last == 1 {
            (n as u32 - 1, row % (n as u32 - 1))
        } else {
            (row % (n as u32 - 2), row % (n as u32 - 2) + 1)
        };
        let delta = if g.has_edge(u, v) {
            GraphDelta::new().delete(u, v)
        } else {
            GraphDelta::new().insert(u, v)
        };
        let next = delta.apply_to(&g);
        for w in g.vertices().filter(|&w| w != u && w != v) {
            prop_assert_eq!(next.neighbors(w), g.neighbors(w), "row {}", w);
        }
        prop_assert_eq!(next, model(&delta, &g));
    }
}
