//! SISA-PNM: near-memory processing on logic-layer vault cores.
//!
//! Sparse-array set operations are executed by simple in-order cores in the
//! logic layer of 3D-stacked DRAM (Tesseract/HMC-style) or by DRAM-die cores
//! (UPMEM-style). The paper models their runtime with two closed forms (§8.3):
//!
//! * **Streaming** (merge-based operations):
//!   `l_M + W · max(|A|, |B|) / min(b_M, b_L)`
//!   — both inputs are streamed in parallel, bottlenecked by the smaller of
//!   the vault bandwidth and the inter-vault link bandwidth.
//! * **Random accesses** (galloping, probing):
//!   `l_M · min(|A|, |B|) · log(max(|A|, |B|))`
//!   — each element of the smaller set triggers a binary search over the
//!   larger one.
//!
//! The SCU evaluates both models and picks the cheaper variant (§8.2); this
//! module provides the models plus costs for the remaining PNM-executed
//! operations (bit-probe intersections against a DB, single-element updates,
//! metadata accesses).

use crate::config::PnmConfig;
use crate::{ceil_cycles, Cycles};

/// The near-memory cost model.
#[derive(Clone, Copy, Debug)]
pub struct PnmModel {
    cfg: PnmConfig,
}

impl PnmModel {
    /// Creates the model from a configuration.
    #[must_use]
    pub fn new(cfg: PnmConfig) -> Self {
        Self { cfg }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &PnmConfig {
        &self.cfg
    }

    /// Streaming (merge) cost for sorted sparse arrays with `a_len` and
    /// `b_len` elements: `l_M + W · max / min(b_M, b_L)` plus one compare per
    /// element pair on the in-order core.
    #[must_use]
    pub fn streaming_cost(&self, a_len: usize, b_len: usize) -> Cycles {
        let max = a_len.max(b_len) as f64;
        let bytes = max * self.cfg.word_bytes as f64;
        let transfer = bytes / self.cfg.effective_stream_bandwidth();
        // The in-order core advances both streams together; the longer stream
        // bounds the compare work, which overlaps with the transfers.
        let compute = max / self.cfg.core_ipc;
        self.cfg.dram_latency + ceil_cycles(transfer.max(compute))
    }

    /// Random-access (galloping) cost: the smaller set's elements each binary
    /// search the larger set. The paper's conservative model charges a memory
    /// access per probe: `l_M · min · log₂(max)` — but probes into a set small
    /// enough to stay resident in the vault core's 32 KiB L1 are cheap, which
    /// we reflect with a resident-fraction discount (otherwise galloping would
    /// never win and instruction `0x1` would be dead).
    #[must_use]
    pub fn random_access_cost(&self, a_len: usize, b_len: usize) -> Cycles {
        let small = a_len.min(b_len) as u64;
        let large = a_len.max(b_len);
        if small == 0 || large == 0 {
            return self.cfg.dram_latency;
        }
        self.cfg.dram_latency + small * self.galloping_search_cost(large)
    }

    /// One element's binary search of a sorted set of `large > 0` elements in
    /// [`PnmModel::random_access_cost`]: `log₂(large)` dependent probes
    /// (at least one), each at the probe latency of the set's footprint.
    #[must_use]
    pub fn galloping_search_cost(&self, large: usize) -> Cycles {
        let probes = (64 - (large as u64).leading_zeros() as u64).max(1);
        probes * self.probe_latency(large * self.cfg.word_bytes)
    }

    /// Probing cost for an SA ∩ DB style operation: stream the sparse array
    /// and perform one bit probe per element into the dense bitvector.
    #[must_use]
    pub fn probe_cost(&self, sparse_len: usize, db_bits: usize) -> Cycles {
        self.probe_stream_cost(sparse_len) + sparse_len as u64 * self.bit_probe_cost(db_bits)
    }

    /// The part of [`PnmModel::probe_cost`] that depends on the sparse
    /// array alone: the access latency plus streaming its `sparse_len`
    /// elements in.
    #[must_use]
    pub fn probe_stream_cost(&self, sparse_len: usize) -> Cycles {
        let stream_bytes = (sparse_len * self.cfg.word_bytes) as f64;
        let transfer = ceil_cycles(stream_bytes / self.cfg.effective_stream_bandwidth());
        self.cfg.dram_latency + transfer
    }

    /// One bit probe into a dense bitvector of `db_bits` bits, as
    /// [`PnmModel::probe_cost`] charges it per sparse element.
    #[must_use]
    pub fn bit_probe_cost(&self, db_bits: usize) -> Cycles {
        self.probe_latency(db_bits / 8)
    }

    /// Single-element update (`A ∪ {x}` / `A \ {x}` on a sparse array, or a
    /// bit update routed to PNM): one near-memory DRAM access.
    #[must_use]
    pub fn element_update_cost(&self) -> Cycles {
        self.cfg.dram_latency
    }

    /// Average latency of one dependent probe into a structure of
    /// `structure_bytes` bytes: probes into structures that fit in the vault
    /// core's 32 KiB L1 cost a couple of cycles; larger structures pay a
    /// proportionally growing share of the near-memory DRAM latency.
    #[must_use]
    pub(crate) fn probe_latency(&self, structure_bytes: usize) -> Cycles {
        const VAULT_L1_BYTES: usize = 32 * 1024;
        if structure_bytes <= VAULT_L1_BYTES {
            return 2;
        }
        let miss_fraction = 1.0 - VAULT_L1_BYTES as f64 / structure_bytes as f64;
        2 + (miss_fraction * self.cfg.dram_latency as f64 * 0.5).round() as Cycles
    }
}

impl Default for PnmModel {
    fn default() -> Self {
        Self::new(PnmConfig::default())
    }
}

/// Cost model for moving set data between vaults and cubes.
///
/// A flat runtime executes every operation "where the data already is"; a
/// sharded multi-cube runtime (one engine per vault group / cube) must move
/// one operand whenever a binary operation's inputs live on different shards.
/// Tesseract-style PIM prices that movement as hop latency plus a
/// bandwidth-limited transfer: `hops · l_H + ⌈bytes / b⌉`, where `b` is the
/// intra-cube crossbar share for neighbouring shards and the external SerDes
/// bandwidth once the transfer crosses a cube boundary.
#[derive(Clone, Copy, Debug)]
pub struct LinkModel {
    cfg: PnmConfig,
}

impl LinkModel {
    /// Creates the model from a PNM configuration.
    #[must_use]
    pub fn new(cfg: PnmConfig) -> Self {
        Self { cfg }
    }

    /// The configuration in use.
    #[must_use]
    pub fn config(&self) -> &PnmConfig {
        &self.cfg
    }

    /// Width of the (near-)square cube mesh used for hop counting: the
    /// smallest `w` with `w² ≥ cubes` (4 for the default 16 cubes, 3 for 9).
    #[must_use]
    pub(crate) fn mesh_width(&self) -> usize {
        let cubes = self.cfg.cubes.max(1);
        (1..=cubes).find(|w| w * w >= cubes).unwrap_or(1)
    }

    /// Resolves the route between two shards when `num_shards` shards are
    /// spread over the configured cubes.
    ///
    /// Shards are laid out contiguously over the cubes; two shards mapped to
    /// the same cube are one vault-to-vault crossbar hop apart, otherwise the
    /// hop count is the Manhattan distance between their cubes on a
    /// `LinkModel::mesh_width`-wide mesh and the route crosses the external
    /// SerDes links. The same shard is zero hops from itself.
    #[must_use]
    pub fn route(&self, shard_a: usize, shard_b: usize, num_shards: usize) -> LinkRoute {
        if shard_a == shard_b {
            return LinkRoute {
                hops: 0,
                inter_cube: false,
            };
        }
        let cubes = self.cfg.cubes.max(1);
        let n = num_shards.max(1);
        let cube_of = |shard: usize| (shard.min(n - 1) * cubes) / n;
        let (ca, cb) = (cube_of(shard_a), cube_of(shard_b));
        if ca == cb {
            // Intra-cube: one crossbar hop between vault groups.
            return LinkRoute {
                hops: 1,
                inter_cube: false,
            };
        }
        let width = self.mesh_width();
        let coord = |c: usize| (c % width, c / width);
        let ((xa, ya), (xb, yb)) = (coord(ca), coord(cb));
        LinkRoute {
            hops: xa.abs_diff(xb) + ya.abs_diff(yb),
            inter_cube: true,
        }
    }

    /// Cycles to move `bytes` bytes over `route` (zero when the data does not
    /// move). Inter-cube routes see the external SerDes bandwidth even at one
    /// hop; intra-cube routes use the crossbar share.
    #[must_use]
    pub fn transfer_cost(&self, bytes: usize, route: LinkRoute) -> Cycles {
        if route.hops == 0 || bytes == 0 {
            return 0;
        }
        let bandwidth = if route.inter_cube {
            self.cfg.inter_cube_bandwidth_bytes_per_cycle
        } else {
            self.cfg.link_bandwidth_bytes_per_cycle
        };
        let transfer = ceil_cycles(bytes as f64 / bandwidth);
        self.cfg.link_hop_latency * route.hops as u64 + transfer
    }
}

/// A resolved shard-to-shard route: how many link hops the data traverses and
/// whether any of them are external cube-to-cube SerDes links (which carry
/// less per-transfer bandwidth than the intra-cube crossbar).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct LinkRoute {
    /// Number of link hops (0 = same shard).
    pub hops: usize,
    /// Whether the route crosses a cube boundary.
    pub inter_cube: bool,
}

impl Default for LinkModel {
    fn default() -> Self {
        Self::new(PnmConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streaming_scales_with_the_larger_input() {
        let m = PnmModel::default();
        let small_small = m.streaming_cost(100, 100);
        let small_large = m.streaming_cost(100, 10_000);
        let large_large = m.streaming_cost(10_000, 10_000);
        assert!(small_small < small_large);
        // max() dominates, so (100, 10k) and (10k, 10k) are close.
        let diff = large_large.abs_diff(small_large);
        assert!(diff * 10 < large_large);
    }

    #[test]
    fn galloping_beats_merge_for_very_skewed_sizes() {
        let m = PnmModel::default();
        // |A| = 4 against |B| = 1M: galloping should win.
        assert!(m.random_access_cost(4, 1_000_000) < m.streaming_cost(4, 1_000_000));
        // Similar sizes: merge should win.
        assert!(m.streaming_cost(50_000, 60_000) < m.random_access_cost(50_000, 60_000));
    }

    #[test]
    fn probe_cost_grows_with_both_inputs() {
        let m = PnmModel::default();
        assert!(m.probe_cost(10, 1 << 10) < m.probe_cost(1000, 1 << 10));
        assert!(m.probe_cost(1000, 1 << 10) <= m.probe_cost(1000, 1 << 24));
    }

    #[test]
    fn probe_latency_is_small_for_resident_structures() {
        let m = PnmModel::default();
        assert_eq!(m.probe_latency(1024), 2);
        assert!(m.probe_latency(16 * 1024 * 1024) > 10);
    }

    #[test]
    fn empty_inputs_cost_only_latency() {
        let m = PnmModel::default();
        let l = m.config().dram_latency;
        assert_eq!(m.random_access_cost(0, 100), l);
        assert_eq!(m.element_update_cost(), l);
    }

    #[test]
    fn link_routes_reflect_the_shard_layout() {
        let l = LinkModel::default();
        // Same shard: no movement.
        assert_eq!(l.route(3, 3, 8).hops, 0);
        // 32 shards over 16 cubes: shards 0 and 1 share cube 0 (one
        // vault-to-vault hop); shards 0 and 2 are on adjacent cubes.
        let same_cube = l.route(0, 1, 32);
        assert_eq!(same_cube.hops, 1);
        assert!(!same_cube.inter_cube);
        let adjacent_cubes = l.route(0, 2, 32);
        assert_eq!(adjacent_cubes.hops, 1);
        assert!(adjacent_cubes.inter_cube, "cube 0 → cube 1 is external");
        // 16 shards, one per cube: opposite mesh corners are 6 hops apart.
        assert_eq!(l.route(0, 15, 16).hops, 6);
        // Routes are symmetric.
        for n in [2usize, 4, 16, 32] {
            for a in 0..n.min(8) {
                for b in 0..n.min(8) {
                    assert_eq!(l.route(a, b, n), l.route(b, a, n));
                }
            }
        }
    }

    #[test]
    fn link_transfers_price_latency_and_bandwidth() {
        let l = LinkModel::default();
        let local = LinkRoute {
            hops: 0,
            inter_cube: false,
        };
        let crossbar = LinkRoute {
            hops: 1,
            inter_cube: false,
        };
        let far = LinkRoute {
            hops: 4,
            inter_cube: true,
        };
        assert_eq!(l.transfer_cost(4096, local), 0);
        assert_eq!(l.transfer_cost(0, far), 0);
        let near_cost = l.transfer_cost(4096, crossbar);
        assert!(near_cost > 0);
        // More hops cost more latency and cross-cube transfers see the lower
        // external bandwidth.
        assert!(l.transfer_cost(4096, far) > near_cost);
        // Bandwidth term dominates for large payloads.
        assert!(l.transfer_cost(1 << 20, crossbar) > l.transfer_cost(1 << 10, crossbar) * 100);
    }

    #[test]
    fn one_hop_inter_cube_transfers_pay_the_serdes_bandwidth() {
        // A single mesh hop between adjacent cubes must not be billed at the
        // intra-cube crossbar rate: same hop count, slower external links.
        let l = LinkModel::default();
        let crossbar = LinkRoute {
            hops: 1,
            inter_cube: false,
        };
        let serdes = LinkRoute {
            hops: 1,
            inter_cube: true,
        };
        assert!(l.transfer_cost(4096, serdes) > l.transfer_cost(4096, crossbar));
    }

    #[test]
    fn mesh_width_follows_the_configured_cube_count() {
        let nine = LinkModel::new(PnmConfig {
            cubes: 9,
            ..PnmConfig::default()
        });
        assert_eq!(nine.mesh_width(), 3);
        assert_eq!(LinkModel::default().mesh_width(), 4);
        // 9 cubes, one shard per cube: opposite corners of the 3×3 mesh.
        let corner = nine.route(0, 8, 9);
        assert_eq!(corner.hops, 4);
        assert!(corner.inter_cube);
    }

    #[test]
    fn two_shards_on_default_geometry_cross_cubes() {
        let l = LinkModel::default();
        // 2 shards over 16 cubes: shard 0 → cube 0, shard 1 → cube 8.
        let route = l.route(0, 1, 2);
        assert!(route.inter_cube, "two half-machine shards are remote");
        assert!(route.hops >= 2);
    }
}
