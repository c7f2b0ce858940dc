//! # sisa-algorithms
//!
//! Graph-mining algorithms for the SISA reproduction, in three families:
//!
//! * [`setcentric`] — the paper's set-centric formulations (§5), written
//!   against the SISA runtime (`sisa-core`): triangle counting, k-clique
//!   listing, 4-clique counting, k-clique-star listing (Algorithm 5),
//!   Bron–Kerbosch maximal clique listing with pivoting and degeneracy,
//!   approximate degeneracy ordering, subgraph isomorphism (VF2, labelled),
//!   vertex similarity, link prediction (and its accuracy test),
//!   Jarvis–Patrick clustering and set-centric BFS.
//! * [`baseline`] — the hand-tuned comparison targets of §9.1: `_non-set`
//!   CSR algorithms and `_set-based` software set-centric algorithms, both
//!   executed on the baseline CPU cost model from `sisa-pim`.
//! * [`paradigms`] — the paradigm-level baselines of §9.2: Peregrine-style
//!   neighbourhood expansion and RStream-style relational joins.
//!
//! Every algorithm returns a [`MiningRun`]: the (real, validated) result plus
//! one [`TaskRecord`] per parallel work item, ready to be scheduled onto
//! virtual threads by `sisa_core::parallel`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod baseline;
pub mod limits;
pub mod paradigms;
pub mod setcentric;

pub use limits::{PatternBudget, SearchLimits};
use sisa_core::TaskRecord;

/// A vertex identifier (re-exported).
pub type Vertex = sisa_sets::Vertex;

/// The outcome of running one mining algorithm.
#[derive(Clone, Debug, PartialEq)]
pub struct MiningRun<T> {
    /// The algorithm's result (count, listing, scores, ...).
    pub result: T,
    /// One task record per parallel work item, in issue order.
    pub tasks: Vec<TaskRecord>,
    /// Whether the run stopped early because the pattern budget was exhausted
    /// (the paper's simulation-time cutoff, §9.1).
    pub truncated: bool,
}

impl<T> MiningRun<T> {
    /// Creates a run record.
    #[must_use]
    pub fn new(result: T, tasks: Vec<TaskRecord>, truncated: bool) -> Self {
        Self {
            result,
            tasks,
            truncated,
        }
    }

    /// Total cycles across all tasks (the serial runtime).
    #[must_use]
    pub fn total_cycles(&self) -> u64 {
        self.tasks.iter().map(|t| t.cycles).sum()
    }

    /// Maps the result, keeping the task records.
    #[must_use]
    pub fn map<U>(self, f: impl FnOnce(T) -> U) -> MiningRun<U> {
        MiningRun {
            result: f(self.result),
            tasks: self.tasks,
            truncated: self.truncated,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mining_run_helpers() {
        let run = MiningRun::new(
            7u64,
            vec![TaskRecord::compute_only(10), TaskRecord::compute_only(5)],
            false,
        );
        assert_eq!(run.total_cycles(), 15);
        let mapped = run.map(|x| x * 2);
        assert_eq!(mapped.result, 14);
        assert_eq!(mapped.tasks.len(), 2);
        assert!(!mapped.truncated);
    }
}
