//! Per-operation energy accounting.
//!
//! The paper motivates in-situ processing partly through energy efficiency
//! (Ambit's bulk bitwise operations avoid moving data over the memory
//! channel). This module provides a simple event-based energy model so the
//! benchmark harness can report energy alongside cycles. Constants are in
//! nanojoules per event and follow the published characterisations of DDR
//! activation energy and HMC SerDes transfer energy; their absolute values
//! matter less than their ratios (a DRAM channel transfer, which the tests
//! price for comparison, costs roughly an order of magnitude more per byte
//! than an in-DRAM row operation).

use serde::{Deserialize, Serialize};

/// Event-based energy model (all values in nanojoules).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct EnergyModel {
    /// Energy of one DRAM row activation (used by PUM bulk operations).
    pub dram_row_activation_nj: f64,
    /// Energy per byte moved through a TSV/vault link (PNM traffic).
    pub tsv_transfer_nj_per_byte: f64,
    /// Energy per byte per hop moved over vault/cube interconnect links
    /// (cross-shard operand transfers; pricier than a TSV, cheaper than the
    /// off-chip channel).
    pub link_transfer_nj_per_byte_hop: f64,
    /// Energy of one scalar core operation.
    pub scalar_op_nj: f64,
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self {
            dram_row_activation_nj: 25.0,
            tsv_transfer_nj_per_byte: 0.06,
            link_transfer_nj_per_byte_hop: 0.12,
            scalar_op_nj: 0.02,
        }
    }
}

impl EnergyModel {
    /// Energy of a PUM bulk operation given its row-activation count.
    #[must_use]
    pub fn pum_energy(&self, row_activations: u64) -> f64 {
        row_activations as f64 * self.dram_row_activation_nj
    }

    /// Energy of a PNM operation that moves `bytes` bytes through TSVs and
    /// executes `ops` scalar operations on the vault core.
    #[must_use]
    pub fn pnm_energy(&self, bytes: u64, ops: u64) -> f64 {
        bytes as f64 * self.tsv_transfer_nj_per_byte + ops as f64 * self.scalar_op_nj
    }

    /// Energy of moving `bytes` bytes over `hops` vault/cube link hops (a
    /// cross-shard operand transfer).
    #[must_use]
    pub fn link_energy(&self, bytes: u64, hops: u64) -> f64 {
        bytes as f64 * hops as f64 * self.link_transfer_nj_per_byte_hop
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Energy per byte moved over the off-chip memory channel, the cost
    /// in-memory processing avoids.
    const CHANNEL_NJ_PER_BYTE: f64 = 0.30;

    /// Energy of moving `bytes` over the off-chip channel, as the CPU
    /// baseline would.
    fn channel(bytes: u64) -> f64 {
        bytes as f64 * CHANNEL_NJ_PER_BYTE
    }

    #[test]
    fn pum_is_cheaper_than_moving_the_rows_over_the_channel() {
        let e = EnergyModel::default();
        // One 8 KiB row AND: 4 activations vs moving 2×8 KiB over the channel.
        let pum = e.pum_energy(4);
        let channel = channel(2 * 8192);
        assert!(pum < channel, "pum {pum} vs channel {channel}");
    }

    #[test]
    fn tsv_transfers_are_cheaper_than_channel_transfers() {
        let e = EnergyModel::default();
        assert!(e.pnm_energy(1024, 0) < channel(1024));
    }

    #[test]
    fn link_energy_sits_between_tsv_and_channel() {
        let e = EnergyModel::default();
        let one_hop = e.link_energy(1024, 1);
        assert!(one_hop > e.pnm_energy(1024, 0));
        assert!(one_hop < channel(1024));
        // Energy grows with the hop count and is zero for local data.
        assert!(e.link_energy(1024, 3) > one_hop);
        assert_eq!(e.link_energy(1024, 0), 0.0);
    }

    #[test]
    fn energy_is_additive_in_events() {
        let e = EnergyModel::default();
        assert!((e.pnm_energy(0, 100) - 2.0).abs() < 1e-9);
        assert_eq!(e.pum_energy(0), 0.0);
    }
}
