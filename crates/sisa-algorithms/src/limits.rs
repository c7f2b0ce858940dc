//! Search limits (pattern-count cutoffs).
//!
//! Graph mining problems are combinatorial: listing all maximal cliques of a
//! dense graph can take longer than any simulation budget. The paper handles
//! this by pre-specifying "a number of graph patterns to be found" per run
//! (§9.1, "Tackling Long Simulation Runtimes"), analogous to limiting the
//! iteration count of PageRank in earlier PIM work. [`SearchLimits`] carries
//! that cutoff and [`PatternBudget`] is the running counter algorithms consult.

/// Limits applied to a mining run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SearchLimits {
    /// Stop after this many patterns (cliques, matches, ...) have been found.
    /// `None` means exhaustive search.
    pub max_patterns: Option<u64>,
}

impl SearchLimits {
    /// No limits: run to completion.
    #[must_use]
    pub fn unlimited() -> Self {
        Self { max_patterns: None }
    }

    /// Stop after `n` patterns.
    #[must_use]
    pub fn patterns(n: u64) -> Self {
        Self {
            max_patterns: Some(n),
        }
    }

    /// Starts a budget counter for these limits.
    #[must_use]
    pub fn budget(&self) -> PatternBudget {
        PatternBudget {
            remaining: self.max_patterns,
            exhausted: false,
        }
    }
}

impl Default for SearchLimits {
    fn default() -> Self {
        Self::unlimited()
    }
}

/// A running pattern counter derived from [`SearchLimits`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatternBudget {
    remaining: Option<u64>,
    exhausted: bool,
}

impl PatternBudget {
    /// Records `n` found patterns; returns `false` once the budget is
    /// exhausted (callers should then unwind).
    pub fn found(&mut self, n: u64) -> bool {
        if let Some(rem) = &mut self.remaining {
            if *rem <= n {
                *rem = 0;
                self.exhausted = true;
                return false;
            }
            *rem -= n;
        }
        true
    }

    /// Whether the budget has been exhausted.
    #[must_use]
    pub(crate) fn exhausted(&self) -> bool {
        self.exhausted
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unlimited_never_exhausts() {
        let mut b = SearchLimits::unlimited().budget();
        for _ in 0..1000 {
            assert!(b.found(1_000_000));
        }
        assert!(!b.exhausted());
    }

    #[test]
    fn limited_budget_exhausts() {
        let mut b = SearchLimits::patterns(10).budget();
        assert!(b.found(4));
        assert!(b.found(5));
        assert!(!b.found(3)); // would cross the limit
        assert!(b.exhausted());
    }

    #[test]
    fn exact_hit_counts_as_exhausted() {
        let mut b = SearchLimits::patterns(5).budget();
        assert!(!b.found(5));
        assert!(b.exhausted());
    }

    #[test]
    fn default_is_unlimited() {
        assert_eq!(SearchLimits::default(), SearchLimits::unlimited());
    }
}
