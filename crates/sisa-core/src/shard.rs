//! Partitioning the set-ID universe across shards.
//!
//! A [`crate::ShardedEngine`] owns several inner engines (one per vault group
//! / HMC cube) and must decide, for every freshly created set, which shard
//! stores it. That placement decision is the first-order knob of multi-cube
//! graph mining: it determines how often a binary operation finds both
//! operands local and how much traffic crosses vault/cube links (cf.
//! Tesseract's graph partitioning and PIMMiner's architecture-aware
//! locality optimisations). [`PartitionStrategy`] collects the policies the
//! `multi_cube` experiment sweeps.

/// Policy deciding which shard stores a newly created set.
///
/// Set IDs double as vertex IDs for graph neighbourhoods
/// ([`crate::SetGraph::load`] creates one set per vertex, in vertex order), so
/// ID-based placement is effectively vertex partitioning for the graph and
/// falls back to generic placement for algorithm temporaries.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum PartitionStrategy {
    /// Round-robin by set ID (`id mod shards`): scatters neighbouring
    /// vertices, giving near-perfect storage balance but no locality.
    Modulo,
    /// Contiguous ID ranges: IDs `[k·U/N, (k+1)·U/N)` of an expected universe
    /// of `U` sets map to shard `k`. Preserves vertex locality for
    /// community-ordered graphs; IDs beyond the expected universe (algorithm
    /// temporaries) land on the last shard.
    Range,
    /// Greedy balance by created cardinality: each new set goes to the shard
    /// with the least total elements created so far. Degree-aware for graph
    /// loads, where a set's cardinality is its vertex's degree.
    DegreeBalanced,
}

impl PartitionStrategy {
    /// All strategies, in sweep order.
    pub const ALL: [PartitionStrategy; 3] = [
        PartitionStrategy::Modulo,
        PartitionStrategy::Range,
        PartitionStrategy::DegreeBalanced,
    ];

    /// A short label for figures and reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Self::Modulo => "modulo",
            Self::Range => "range",
            Self::DegreeBalanced => "degree-balanced",
        }
    }

    /// Chooses the shard for a new set.
    ///
    /// * `raw_id` — the global set ID being placed.
    /// * `expected_sets` — the expected size of the set-ID universe (the
    ///   vertex universe; 0 when unknown).
    /// * `created_load` — per-shard cumulative created cardinality (the
    ///   degree-aware signal), updated by the caller after each placement.
    #[must_use]
    pub(crate) fn shard_for(
        self,
        raw_id: u32,
        expected_sets: usize,
        created_load: &[u64],
    ) -> usize {
        let shards = created_load.len().max(1);
        match self {
            Self::Modulo => raw_id as usize % shards,
            Self::Range => {
                let expected = expected_sets.max(1);
                ((raw_id as usize).min(expected - 1) * shards / expected).min(shards - 1)
            }
            Self::DegreeBalanced => created_load
                .iter()
                .enumerate()
                .min_by_key(|&(i, &load)| (load, i))
                .map_or(0, |(i, _)| i),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_are_distinct() {
        let labels: std::collections::BTreeSet<_> =
            PartitionStrategy::ALL.iter().map(|s| s.label()).collect();
        assert_eq!(labels.len(), PartitionStrategy::ALL.len());
    }

    #[test]
    fn modulo_scatters_round_robin() {
        let loads = [0u64; 4];
        let shards: Vec<usize> = (0..8)
            .map(|id| PartitionStrategy::Modulo.shard_for(id, 100, &loads))
            .collect();
        assert_eq!(shards, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn range_keeps_contiguous_blocks_together() {
        let loads = [0u64; 4];
        let place = |id| PartitionStrategy::Range.shard_for(id, 100, &loads);
        assert_eq!(place(0), 0);
        assert_eq!(place(24), 0);
        assert_eq!(place(25), 1);
        assert_eq!(place(99), 3);
        // Temporaries beyond the expected universe land on the last shard.
        assert_eq!(place(1234), 3);
    }

    #[test]
    fn degree_balanced_picks_the_lightest_shard() {
        let loads = [10u64, 3, 7];
        assert_eq!(
            PartitionStrategy::DegreeBalanced.shard_for(0, 100, &loads),
            1
        );
        // Ties break towards the lowest shard index.
        let tied = [4u64, 4, 4];
        assert_eq!(
            PartitionStrategy::DegreeBalanced.shard_for(7, 100, &tied),
            0
        );
    }

    #[test]
    fn single_shard_always_places_locally() {
        let loads = [42u64];
        for strategy in PartitionStrategy::ALL {
            for id in [0u32, 1, 17, 10_000] {
                assert_eq!(strategy.shard_for(id, 0, &loads), 0, "{strategy:?}");
            }
        }
    }
}
