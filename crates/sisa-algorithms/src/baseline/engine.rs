//! The CPU execution engine shared by all software baselines.
//!
//! `CpuEngine` wraps a simulated CPU hardware thread (`sisa-pim`) together
//! with a synthetic address map of the CSR arrays, so baseline algorithms can
//! both *compute real results* (reading the actual CSR) and *charge realistic
//! cycles* (every read touches the cache hierarchy at the address the CSR
//! layout implies).

use crate::Vertex;
use sisa_core::TaskRecord;
use sisa_graph::CsrGraph;
use sisa_pim::{AddressSpace, CpuConfig, CpuThread};

/// A baseline CPU execution engine bound to one CSR graph.
#[derive(Clone, Debug)]
pub(crate) struct CpuEngine<'g> {
    graph: &'g CsrGraph,
    thread: CpuThread,
    offsets_base: u64,
    targets_base: u64,
    scratch_base: u64,
    /// Per-vertex start offsets into the targets array (mirrors CSR offsets).
    starts: Vec<u64>,
}

impl<'g> CpuEngine<'g> {
    /// Creates an engine for `graph` with the given CPU configuration; the
    /// cache hierarchy assumes `threads` cores share the L3.
    #[must_use]
    pub fn new(graph: &'g CsrGraph, cfg: &CpuConfig, threads: usize) -> Self {
        let mut space = AddressSpace::new();
        let n = graph.num_vertices();
        let offsets_base = space.alloc_array(n + 1, 8);
        let targets_base = space.alloc_array(graph.total_stored_arcs(), 4);
        let scratch_base = space.alloc(16 * 1024 * 1024);
        let mut starts = Vec::with_capacity(n);
        let mut acc = 0u64;
        for v in 0..n as Vertex {
            starts.push(acc);
            acc += graph.degree(v) as u64;
        }
        Self {
            graph,
            thread: CpuThread::new(cfg, threads),
            offsets_base,
            targets_base,
            scratch_base,
            starts,
        }
    }

    /// The graph this engine reads.
    #[must_use]
    pub fn graph(&self) -> &CsrGraph {
        self.graph
    }

    /// Marks the start of a parallel work item.
    pub fn task_begin(&mut self) {
        self.thread.task_begin();
    }

    /// Ends the current work item, returning its cost.
    pub fn task_end(&mut self) -> TaskRecord {
        TaskRecord::from(self.thread.task_end())
    }

    /// Charges `n` scalar operations.
    pub fn scalar(&mut self, n: u64) {
        self.thread.scalar_ops(n);
    }

    /// Reads the offsets entry of `v` (one 8-byte access).
    pub(crate) fn read_offset(&mut self, v: Vertex) {
        self.thread.access(self.offsets_base + u64::from(v) * 8);
    }

    /// Streams the neighbourhood of `v` and returns it (charging a sequential
    /// scan of `degree(v)` 4-byte target entries).
    pub(crate) fn stream_neighbors(&mut self, v: Vertex) -> &'g [Vertex] {
        self.read_offset(v);
        let deg = self.graph.degree(v) as u64;
        let base = self.targets_base + self.starts[v as usize] * 4;
        self.thread.stream(base, deg * 4);
        self.graph.neighbors(v)
    }

    /// Checks whether the edge `u → v` exists via binary search over `N(u)`
    /// (the `_non-set` adjacency-check idiom), charging `log₂ d(u)` dependent
    /// random accesses.
    pub(crate) fn binary_search_edge(&mut self, u: Vertex, v: Vertex) -> bool {
        self.read_offset(u);
        let deg = self.graph.degree(u);
        let base = self.targets_base + self.starts[u as usize] * 4;
        let mut lo = 0usize;
        let mut hi = deg;
        let nbrs = self.graph.neighbors(u);
        let mut found = false;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            self.thread.random_access(base + mid as u64 * 4);
            self.scalar(CpuThread::PROBE_OPS_PER_STEP);
            match nbrs[mid].cmp(&v) {
                std::cmp::Ordering::Equal => {
                    found = true;
                    break;
                }
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        found
    }

    /// Counts `|N(u) ∩ N(v)|` with a merge over both sorted neighbourhoods
    /// (the `_set-based` idiom): both neighbourhoods are streamed and one
    /// compare is charged per merge step.
    pub(crate) fn merge_intersect_count(&mut self, u: Vertex, v: Vertex) -> usize {
        let nu = self.stream_neighbors(u);
        let nv = self.stream_neighbors(v);
        let (mut i, mut j, mut count) = (0usize, 0usize, 0usize);
        while i < nu.len() && j < nv.len() {
            match nu[i].cmp(&nv[j]) {
                std::cmp::Ordering::Less => i += 1,
                std::cmp::Ordering::Greater => j += 1,
                std::cmp::Ordering::Equal => {
                    count += 1;
                    i += 1;
                    j += 1;
                }
            }
        }
        self.scalar(CpuThread::MERGE_OPS_PER_ELEMENT * (i + j) as u64);
        count
    }

    /// Materialises `N(u) ∩ N(v)` with a merge (set-based idiom), charging the
    /// streams, the compares and the write-out of the result to scratch.
    pub(crate) fn merge_intersect(&mut self, u: Vertex, v: Vertex) -> Vec<Vertex> {
        let nu = self.stream_neighbors(u);
        let nv = self.stream_neighbors(v);
        let out = sisa_sets::ops::intersect_merge_slices(nu, nv);
        self.scalar(CpuThread::MERGE_OPS_PER_ELEMENT * (nu.len() + nv.len()) as u64);
        self.write_scratch(out.len());
        out
    }

    /// Intersects a sorted candidate list with `N(v)` by merging (set-based).
    pub(crate) fn merge_intersect_with(&mut self, candidates: &[Vertex], v: Vertex) -> Vec<Vertex> {
        self.stream_scratch(candidates.len());
        let nv = self.stream_neighbors(v);
        let out = sisa_sets::ops::intersect_merge_slices(candidates, nv);
        self.scalar(CpuThread::MERGE_OPS_PER_ELEMENT * (candidates.len() + nv.len()) as u64);
        self.write_scratch(out.len());
        out
    }

    /// Counts `|N(u) ∩ N(v)|` by iterating the smaller neighbourhood and
    /// binary-searching the larger (the `_non-set` probing idiom).
    pub(crate) fn probe_intersect_count(&mut self, u: Vertex, v: Vertex) -> usize {
        let (small, large) = if self.graph.degree(u) <= self.graph.degree(v) {
            (u, v)
        } else {
            (v, u)
        };
        let members: Vec<Vertex> = self.stream_neighbors(small).to_vec();
        let mut count = 0usize;
        for w in members {
            if self.binary_search_edge(large, w) {
                count += 1;
            }
        }
        count
    }

    /// Filters a candidate list against `N(v)` with per-element binary probes
    /// (non-set idiom).
    pub(crate) fn probe_filter(&mut self, candidates: &[Vertex], v: Vertex) -> Vec<Vertex> {
        self.stream_scratch(candidates.len());
        let mut out = Vec::with_capacity(candidates.len());
        for &c in candidates {
            if self.binary_search_edge(v, c) {
                out.push(c);
            }
        }
        self.write_scratch(out.len());
        out
    }

    /// Charges a sequential read of `elements` 4-byte scratch entries
    /// (intermediate candidate lists and frontiers live in scratch space).
    pub(crate) fn stream_scratch(&mut self, elements: usize) {
        self.thread.stream(self.scratch_base, elements as u64 * 4);
    }

    /// Charges a sequential write of `elements` 4-byte scratch entries.
    pub(crate) fn write_scratch(&mut self, elements: usize) {
        self.thread
            .stream(self.scratch_base + 8 * 1024 * 1024, elements as u64 * 4);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisa_graph::generators;

    fn engine(g: &CsrGraph) -> CpuEngine<'_> {
        CpuEngine::new(g, &CpuConfig::default(), 1)
    }

    #[test]
    fn merge_and_probe_intersections_agree_with_reference() {
        let g = generators::erdos_renyi(100, 0.1, 3);
        let mut e = engine(&g);
        for (u, v) in [(0u32, 1u32), (5, 9), (20, 40)] {
            let expected = sisa_sets::ops::intersect_merge_count(g.neighbors(u), g.neighbors(v));
            assert_eq!(e.merge_intersect_count(u, v), expected);
            assert_eq!(e.probe_intersect_count(u, v), expected);
            assert_eq!(e.merge_intersect(u, v).len(), expected);
        }
    }

    #[test]
    fn binary_search_edge_matches_has_edge() {
        let g = generators::erdos_renyi(80, 0.08, 7);
        let mut e = engine(&g);
        for u in 0..80u32 {
            for v in [0u32, 17, 42, 79] {
                assert_eq!(e.binary_search_edge(u, v), g.has_edge(u, v));
            }
        }
    }

    #[test]
    fn streaming_charges_grow_with_degree() {
        let g = generators::star(1000);
        let mut e = engine(&g);
        e.task_begin();
        let _ = e.stream_neighbors(0); // hub: 999 neighbours
        let hub_cost = e.task_end();
        e.task_begin();
        let _ = e.stream_neighbors(1); // leaf: 1 neighbour
        let leaf_cost = e.task_end();
        assert!(hub_cost.cycles > leaf_cost.cycles * 5);
    }

    #[test]
    fn probing_costs_more_than_merging_for_similar_sized_neighbourhoods() {
        // Random probes defeat the cache/prefetch-friendliness of merging;
        // this is the architectural reason the set-based baselines win on
        // intersection-heavy kernels.
        let g = generators::near_complete(400, 0.5, 1);
        let mut e = engine(&g);
        e.task_begin();
        let _ = e.merge_intersect_count(0, 1);
        let merge_cost = e.task_end();
        e.task_begin();
        let _ = e.probe_intersect_count(0, 1);
        let probe_cost = e.task_end();
        assert!(probe_cost.cycles > merge_cost.cycles);
    }

    #[test]
    fn filter_helpers_match_reference() {
        let g = generators::erdos_renyi(60, 0.2, 11);
        let mut e = engine(&g);
        let candidates: Vec<Vertex> = (0..30u32).collect();
        let merged = e.merge_intersect_with(&candidates, 40);
        let probed = e.probe_filter(&candidates, 40);
        let expected: Vec<Vertex> = candidates
            .iter()
            .copied()
            .filter(|&c| g.has_edge(40, c))
            .collect();
        assert_eq!(merged, expected);
        assert_eq!(probed, expected);
    }

    #[test]
    fn task_records_capture_dram_traffic() {
        let g = generators::erdos_renyi(3000, 0.02, 5);
        let mut e = engine(&g);
        e.task_begin();
        for v in 0..200u32 {
            let _ = e.stream_neighbors(v);
        }
        let cost = e.task_end();
        assert!(cost.dram_bytes > 0);
        assert!(cost.cycles > cost.stall_cycles);
    }
}
