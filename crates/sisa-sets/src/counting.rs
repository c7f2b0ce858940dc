//! Instrumented set operations that report work performed.
//!
//! The SISA paper's theoretical analysis (§7, Table 6) distinguishes the cost
//! of merge-based and galloping set algorithms. To reproduce that table
//! empirically, the benchmark harness needs operation *counts*, not wall-clock
//! time. This module provides twins of the hot set operations that return an
//! [`OpCost`] alongside the result: the number of element comparisons, the
//! number of elements read from the inputs, and the number of 64-bit words
//! touched (relevant for dense bitvectors).

use crate::Vertex;

/// Work performed by a single instrumented set operation.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct OpCost {
    /// Element-to-element comparisons (merge steps or binary-search probes).
    pub comparisons: u64,
    /// Elements read from the sparse-array inputs.
    pub elements_read: u64,
    /// 64-bit words touched in dense-bitvector inputs/outputs.
    pub words_touched: u64,
}

impl OpCost {
    /// Combines two costs, summing every component.
    #[must_use]
    pub fn merge(self, other: OpCost) -> OpCost {
        OpCost {
            comparisons: self.comparisons + other.comparisons,
            elements_read: self.elements_read + other.elements_read,
            words_touched: self.words_touched + other.words_touched,
        }
    }

    /// Adds another cost in place.
    pub fn add(&mut self, other: OpCost) {
        *self = self.merge(other);
    }

    /// Total abstract work units (comparisons + words touched), the quantity
    /// plotted by the Table 6 harness.
    #[must_use]
    pub fn work(&self) -> u64 {
        self.comparisons + self.words_touched
    }
}

/// Merge intersection with instrumentation.
#[must_use]
pub fn intersect_merge_counted(a: &[Vertex], b: &[Vertex]) -> (Vec<Vertex>, OpCost) {
    let mut out = Vec::with_capacity(a.len().min(b.len()));
    let mut cost = OpCost::default();
    let (mut i, mut j) = (0usize, 0usize);
    while i < a.len() && j < b.len() {
        cost.comparisons += 1;
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                out.push(a[i]);
                i += 1;
                j += 1;
            }
        }
    }
    cost.elements_read = (i + j) as u64;
    (out, cost)
}

/// Galloping intersection with instrumentation: exponential probe from the
/// last match plus a binary search of the bracketed window, mirroring
/// [`crate::ops::intersect_galloping_slices`]. Every element comparison —
/// probe or window-search step — is counted.
#[must_use]
pub fn intersect_galloping_counted(a: &[Vertex], b: &[Vertex]) -> (Vec<Vertex>, OpCost) {
    let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let mut out = Vec::with_capacity(small.len());
    let mut cost = OpCost {
        elements_read: small.len() as u64,
        ..OpCost::default()
    };
    let mut cursor = 0usize;
    for &v in small {
        let (found, pos, probes) = gallop_seek_counted(large, cursor, v);
        cost.comparisons += probes;
        if found {
            out.push(v);
            cursor = pos + 1;
        } else {
            cursor = pos;
        }
        if cursor >= large.len() {
            break;
        }
    }
    (out, cost)
}

/// Instrumented twin of `ops::gallop_seek`: first position in `hay[start..]`
/// whose element is `>= needle`, with every comparison counted.
fn gallop_seek_counted(hay: &[Vertex], start: usize, needle: Vertex) -> (bool, usize, u64) {
    let n = hay.len();
    if start >= n {
        return (false, n, 0);
    }
    let mut probes = 1u64;
    match hay[start].cmp(&needle) {
        std::cmp::Ordering::Equal => return (true, start, probes),
        std::cmp::Ordering::Greater => return (false, start, probes),
        std::cmp::Ordering::Less => {}
    }
    let mut step = 1usize;
    let mut lo = start;
    loop {
        let probe = start + step;
        if probe >= n {
            break;
        }
        probes += 1;
        if hay[probe] >= needle {
            break;
        }
        lo = probe;
        step <<= 1;
    }
    let hi = (start + step).min(n);
    let mut l = lo + 1;
    let mut h = hi;
    while l < h {
        let mid = l + (h - l) / 2;
        probes += 1;
        if hay[mid] < needle {
            l = mid + 1;
        } else {
            h = mid;
        }
    }
    (l < n && hay[l] == needle, l, probes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops;

    /// The seed's "galloping" intersection with instrumentation: a full-range
    /// binary search per element, `O(m · log n)`. Kept so the galloping
    /// regression tests can quantify what the exponential probe saves.
    fn intersect_galloping_reference_counted(a: &[Vertex], b: &[Vertex]) -> (Vec<Vertex>, OpCost) {
        let (small, large) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        let mut out = Vec::with_capacity(small.len());
        let mut cost = OpCost {
            elements_read: small.len() as u64,
            ..OpCost::default()
        };
        for &v in small {
            let (found, probes) = binary_search_counted(large, v);
            cost.comparisons += probes;
            if found {
                out.push(v);
            }
        }
        (out, cost)
    }

    fn binary_search_counted(haystack: &[Vertex], needle: Vertex) -> (bool, u64) {
        let mut lo = 0usize;
        let mut hi = haystack.len();
        let mut probes = 0u64;
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            probes += 1;
            match haystack[mid].cmp(&needle) {
                std::cmp::Ordering::Equal => return (true, probes),
                std::cmp::Ordering::Less => lo = mid + 1,
                std::cmp::Ordering::Greater => hi = mid,
            }
        }
        (false, probes)
    }

    #[test]
    fn counted_results_match_uncounted() {
        let a: Vec<Vertex> = (0..200).step_by(3).collect();
        let b: Vec<Vertex> = (0..200).step_by(5).collect();
        let (m, _) = intersect_merge_counted(&a, &b);
        let (g, _) = intersect_galloping_counted(&a, &b);
        let expected = ops::intersect_merge_slices(&a, &b);
        assert_eq!(m, expected);
        assert_eq!(g, expected);
    }

    #[test]
    fn merge_cost_is_linear_and_galloping_logarithmic() {
        // A tiny set whose members are spread across a huge set: merge must
        // stream through (almost) all of the large set, while galloping pays
        // at most 2·log₂(gap) + 2 comparisons per element — the exponential
        // probe plus the binary search of the window it bracketed (Table 5
        // rationale). Here gap = 512, so ≤ 20 comparisons per element.
        let small: Vec<Vertex> = (0..4096).step_by(512).collect();
        let large: Vec<Vertex> = (0..4096).collect();
        let (_, merge_cost) = intersect_merge_counted(&small, &large);
        let (_, gallop_cost) = intersect_galloping_counted(&small, &large);
        assert!(gallop_cost.comparisons <= 8 * 20);
        assert!(merge_cost.comparisons >= 3072);
        assert!(gallop_cost.comparisons < merge_cost.comparisons);
    }

    #[test]
    fn galloping_beats_merge_and_the_seed_reference_on_64_to_1_skew() {
        // The regression the true galloping kernel was built for: on a 1:64
        // size skew the exponential probe from the last match pays
        // O(log(gap)) per element, beating both the linear merge and the
        // seed's full-range binary search per element.
        // The +17 offset keeps the needles off the binary-search lattice
        // (odd values are only found at the deepest probe level), so the
        // reference cost reflects its true `log n` per element.
        let large: Vec<Vertex> = (0..65536).collect();
        let small: Vec<Vertex> = (0..65536 - 64).step_by(64).map(|v| v + 17).collect();
        assert_eq!(small.len() * 64, large.len() - 64);
        let (merge_out, merge_cost) = intersect_merge_counted(&small, &large);
        let (gallop_out, gallop_cost) = intersect_galloping_counted(&small, &large);
        let (reference_out, reference_cost) = intersect_galloping_reference_counted(&small, &large);
        assert_eq!(gallop_out, merge_out);
        assert_eq!(gallop_out, reference_out);
        assert!(
            gallop_cost.comparisons * 4 < merge_cost.comparisons,
            "galloping ({}) must beat merge ({}) by a wide margin on 1:64 skew",
            gallop_cost.comparisons,
            merge_cost.comparisons
        );
        assert!(
            gallop_cost.comparisons < reference_cost.comparisons,
            "the exponential probe ({}) must beat the seed's per-element \
             binary search ({})",
            gallop_cost.comparisons,
            reference_cost.comparisons
        );
    }

    #[test]
    fn merge_beats_per_element_search_for_similar_sizes() {
        // Table 6 rationale for the dispatch threshold: at similar sizes the
        // linear merge beats looking every element up in the other operand,
        // which is why `repr::choose_host_kernel` only gallops on heavy size
        // skew. (The cursor-local galloping kernel itself degrades gracefully
        // here — it stays within 2× of merge rather than blowing up — but
        // merge remains the cheaper similar-size kernel.)
        let a: Vec<Vertex> = (0..1000).step_by(2).collect();
        let b: Vec<Vertex> = (0..1000).step_by(3).collect();
        let (_, merge_cost) = intersect_merge_counted(&a, &b);
        let (_, reference_cost) = intersect_galloping_reference_counted(&a, &b);
        let (_, gallop_cost) = intersect_galloping_counted(&a, &b);
        assert!(merge_cost.comparisons < reference_cost.comparisons);
        assert!(gallop_cost.comparisons <= 2 * merge_cost.comparisons);
    }

    #[test]
    fn op_cost_merge_and_work() {
        let a = OpCost {
            comparisons: 3,
            elements_read: 5,
            words_touched: 7,
        };
        let b = OpCost {
            comparisons: 1,
            elements_read: 1,
            words_touched: 1,
        };
        let c = a.merge(b);
        assert_eq!(c.comparisons, 4);
        assert_eq!(c.elements_read, 6);
        assert_eq!(c.words_touched, 8);
        assert_eq!(c.work(), 12);
    }
}
