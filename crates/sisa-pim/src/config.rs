//! Architectural parameters of the simulated platforms.
//!
//! Defaults follow the paper's evaluation setup (§9.1):
//!
//! * **SISA-PNM** matches Tesseract: 16 HMC cubes × 32 vaults, one simple
//!   in-order core per vault with 32 KiB L1, 16 GB/s of memory bandwidth per
//!   vault, scalable with the number of vaults used.
//! * **SISA-PUM** matches Ambit: bulk bitwise AND/OR/NOT on 8 KiB DRAM rows,
//!   operands copied to designated rows with RowClone.
//! * **Baseline CPU**: an out-of-order multicore with 32 KiB L1, 256 KiB L2,
//!   a shared 8 MiB L3 and (for fairness in the main comparison) memory
//!   bandwidth that scales with the core count to match SISA-PNM.
//!
//! All latencies are expressed in cycles of a 2 GHz clock.

use serde::{Deserialize, Serialize};

/// Clock frequency used to convert between nanoseconds and cycles.
pub(crate) const CLOCK_GHZ: f64 = 2.0;

/// Converts nanoseconds into clock cycles.
#[must_use]
pub(crate) fn ns_to_cycles(ns: f64) -> u64 {
    (ns * CLOCK_GHZ).round() as u64
}

/// Configuration of the baseline out-of-order CPU platform.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct CpuConfig {
    /// Sustainable scalar instructions per cycle per core.
    pub ipc: f64,
    /// L1 data cache size in bytes (per core). An L1 hit costs the one cycle
    /// every access is charged; only misses add a level's latency.
    pub l1_bytes: usize,
    /// L2 cache size in bytes (per core).
    pub l2_bytes: usize,
    /// L3 cache size in bytes (shared across all cores).
    pub l3_bytes: usize,
    /// Cache line size in bytes.
    pub line_bytes: usize,
    /// L2 hit latency in cycles.
    pub l2_latency: u64,
    /// L3 hit latency in cycles.
    pub l3_latency: u64,
    /// DRAM access latency in cycles (`l_M`).
    pub dram_latency: u64,
    /// Peak DRAM bandwidth in bytes per cycle for the whole socket when
    /// `bandwidth_scaling` is off.
    pub dram_bandwidth_bytes_per_cycle: f64,
    /// Per-core DRAM bandwidth in bytes/cycle when `bandwidth_scaling` is on
    /// (the paper matches this to one PNM vault: 16 GB/s).
    pub scaled_bandwidth_per_core: f64,
    /// Whether memory bandwidth scales with the number of cores (the paper's
    /// "fair comparison" configuration). Figure 1 uses `false` (a stock
    /// multicore), the Figure 6/8 baselines use `true`.
    pub bandwidth_scaling: bool,
    /// Fraction of a DRAM miss latency the out-of-order window can hide
    /// (0.0 = fully exposed, 1.0 = fully hidden).
    pub mlp_hiding: f64,
}

impl Default for CpuConfig {
    fn default() -> Self {
        Self {
            ipc: 4.0,
            l1_bytes: 32 * 1024,
            l2_bytes: 256 * 1024,
            l3_bytes: 8 * 1024 * 1024,
            line_bytes: 64,
            l2_latency: 12,
            l3_latency: 38,
            dram_latency: ns_to_cycles(60.0),
            // 25.6 GB/s per channel, 4 channels ≈ 100 GB/s ≈ 51 B/cycle @ 2 GHz.
            dram_bandwidth_bytes_per_cycle: 51.2,
            // 16 GB/s per vault ≈ 8 B/cycle @ 2 GHz.
            scaled_bandwidth_per_core: 8.0,
            bandwidth_scaling: true,
            mlp_hiding: 0.4,
        }
    }
}

impl CpuConfig {
    /// The Figure 1 configuration: a stock multicore whose total memory
    /// bandwidth does *not* grow with the thread count, which is what makes
    /// stalled-cycle ratios climb as threads are added.
    #[must_use]
    pub fn stock_multicore() -> Self {
        Self {
            bandwidth_scaling: false,
            ..Self::default()
        }
    }

    /// Effective DRAM bandwidth (bytes/cycle) available to `threads` active
    /// threads in total.
    #[must_use]
    pub fn total_bandwidth(&self, threads: usize) -> f64 {
        if self.bandwidth_scaling {
            self.scaled_bandwidth_per_core * threads.max(1) as f64
        } else {
            self.dram_bandwidth_bytes_per_cycle
        }
    }
}

/// Configuration of the SISA-PNM platform (logic-layer cores in 3D-stacked
/// DRAM, as in Tesseract / HMC).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PnmConfig {
    /// Number of HMC cubes.
    pub cubes: usize,
    /// Vaults per cube (each hosts one in-order core).
    pub vaults_per_cube: usize,
    /// Per-vault memory bandwidth in bytes per cycle (`b_M`): 16 GB/s.
    pub vault_bandwidth_bytes_per_cycle: f64,
    /// Inter-vault / interconnect bandwidth in bytes per cycle (`b_L`).
    pub link_bandwidth_bytes_per_cycle: f64,
    /// DRAM access latency from a vault core, in cycles (`l_M`). Lower than
    /// the host CPU's because the access does not traverse the off-chip link.
    pub dram_latency: u64,
    /// Scalar throughput of the simple in-order vault core (ops per cycle).
    pub core_ipc: f64,
    /// Word size in bytes for sparse-array elements (`W` = 32 bits).
    pub word_bytes: usize,
    /// Latency of traversing one vault/cube link hop, in cycles (SerDes
    /// serialisation plus switching; used by the inter-vault transfer model).
    pub link_hop_latency: u64,
    /// Per-transfer bandwidth of the external cube-to-cube SerDes links in
    /// bytes per cycle (`b_C`); lower than the intra-cube share because
    /// inter-cube traffic is multiplexed over a handful of external links.
    pub inter_cube_bandwidth_bytes_per_cycle: f64,
    /// Number of vaults ganged behind one virtual issue lane of the
    /// scoreboarded issue queue. One SISA set operation occupies a whole lane
    /// (its data is striped across the lane's vaults), so the usable
    /// instruction-level parallelism is `total_vaults / vaults_per_lane`
    /// rather than one instruction per vault — the occupancy limit real PIM
    /// studies observe. The default gangs one cube's worth of vaults per
    /// lane.
    pub vaults_per_lane: usize,
}

impl Default for PnmConfig {
    fn default() -> Self {
        Self {
            cubes: 16,
            vaults_per_cube: 32,
            // 16 GB/s ≈ 8 B/cycle @ 2 GHz.
            vault_bandwidth_bytes_per_cycle: 8.0,
            // SerDes links between vaults/cubes: model 120 GB/s shared ≈ 60 B/c,
            // but per-operation we conservatively use the per-vault share.
            link_bandwidth_bytes_per_cycle: 6.0,
            // Vault cores sit next to their DRAM partition: row accesses skip
            // the off-chip link and most of the queueing a host access sees.
            dram_latency: ns_to_cycles(30.0),
            core_ipc: 1.0,
            word_bytes: 4,
            // A vault-to-vault or cube-to-cube hop costs a few nanoseconds of
            // SerDes serialisation and switching.
            link_hop_latency: ns_to_cycles(4.0),
            // External HMC links offer less per-transfer bandwidth than the
            // intra-cube crossbar share modelled by `link_bandwidth`.
            inter_cube_bandwidth_bytes_per_cycle: 4.0,
            // One lane per cube: a set operation stripes across the cube's 32
            // vaults, so 16 cubes sustain 16 concurrent set operations.
            vaults_per_lane: 32,
        }
    }
}

impl PnmConfig {
    /// Total number of vault cores (the maximum useful parallelism).
    #[must_use]
    pub(crate) fn total_vaults(&self) -> usize {
        self.cubes * self.vaults_per_cube
    }

    /// The effective streaming bandwidth `min(b_M, b_L)` used by the §8.3
    /// streaming model.
    #[must_use]
    pub(crate) fn effective_stream_bandwidth(&self) -> f64 {
        self.vault_bandwidth_bytes_per_cycle
            .min(self.link_bandwidth_bytes_per_cycle)
    }

    /// Number of virtual issue lanes the cube/vault geometry sustains:
    /// `total_vaults / vaults_per_lane`, at least 1. This is the lane count
    /// the scoreboarded issue queue derives when the runtime configuration
    /// does not override it.
    #[must_use]
    pub fn issue_lanes(&self) -> usize {
        (self.total_vaults() / self.vaults_per_lane.max(1)).max(1)
    }
}

/// Configuration of the SISA-PUM platform (Ambit-style in-DRAM bulk bitwise
/// processing).
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PumConfig {
    /// DRAM row size in bits (`R`); the paper uses 8 KiB rows.
    pub row_bits: usize,
    /// Number of rows that can be processed in parallel (`q`): subarrays ×
    /// banks that can operate concurrently.
    pub parallel_rows: usize,
    /// DRAM access latency to initiate an operation, in cycles (`l_M`).
    pub dram_latency: u64,
    /// Latency of one in-situ bulk bitwise step (a triple-row activation plus
    /// the RowClone copies), in cycles (`l_I`).
    pub insitu_op_latency: u64,
}

impl Default for PumConfig {
    fn default() -> Self {
        Self {
            row_bits: 8 * 1024 * 8,
            // 16 banks/vault × 32 vaults/cube with one designated-subarray
            // group active per bank: model 512 concurrently usable rows.
            parallel_rows: 512,
            dram_latency: ns_to_cycles(30.0),
            // AAP (activate-activate-precharge) sequences in Ambit take on the
            // order of ~100 ns per triple-row operation including RowClone.
            insitu_op_latency: ns_to_cycles(100.0),
        }
    }
}

/// The full SISA hardware platform: PNM + PUM plus the SCU parameters.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct PimPlatform {
    /// Near-memory (logic layer) configuration.
    pub pnm: PnmConfig,
    /// In-situ (bulk bitwise) configuration.
    pub pum: PumConfig,
    /// Fixed SCU decode/dispatch delay per SISA instruction, in cycles.
    pub scu_delay: u64,
    /// SCU metadata-cache (SMB) hit latency in cycles.
    pub smb_hit_latency: u64,
    /// SMB capacity in metadata entries (32 KiB / ~16 B per entry by default).
    pub smb_entries: usize,
    /// Whether the SMB is enabled at all (the §9.2 "SCU cache" sensitivity
    /// study disables it).
    pub smb_enabled: bool,
    /// Latency of fetching a missing SM entry from memory, in cycles.
    pub sm_miss_latency: u64,
}

impl Default for PimPlatform {
    fn default() -> Self {
        Self {
            pnm: PnmConfig::default(),
            pum: PumConfig::default(),
            scu_delay: 4,
            smb_hit_latency: 2,
            smb_entries: 2048,
            smb_enabled: true,
            sm_miss_latency: ns_to_cycles(40.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_conversion() {
        assert_eq!(ns_to_cycles(60.0), 120);
        assert_eq!(ns_to_cycles(0.0), 0);
    }

    #[test]
    fn default_cpu_matches_paper_setup() {
        let cfg = CpuConfig::default();
        assert_eq!(cfg.l1_bytes, 32 * 1024);
        assert_eq!(cfg.l2_bytes, 256 * 1024);
        assert_eq!(cfg.l3_bytes, 8 * 1024 * 1024);
        assert!(cfg.bandwidth_scaling);
    }

    #[test]
    fn bandwidth_scaling_behaviour() {
        let scaled = CpuConfig::default();
        assert!(scaled.total_bandwidth(32) > scaled.total_bandwidth(1) * 16.0);
        let stock = CpuConfig::stock_multicore();
        assert_eq!(stock.total_bandwidth(1), stock.total_bandwidth(32));
    }

    #[test]
    fn default_pnm_matches_tesseract_geometry() {
        let cfg = PnmConfig::default();
        assert_eq!(cfg.cubes, 16);
        assert_eq!(cfg.vaults_per_cube, 32);
        assert_eq!(cfg.total_vaults(), 512);
        assert!(cfg.effective_stream_bandwidth() <= cfg.vault_bandwidth_bytes_per_cycle);
        assert!(cfg.link_hop_latency > 0);
        assert!(
            cfg.inter_cube_bandwidth_bytes_per_cycle <= cfg.link_bandwidth_bytes_per_cycle,
            "external SerDes links must not be faster than the intra-cube share"
        );
        // One lane per cube by default; degenerate occupancy still yields a
        // usable lane.
        assert_eq!(cfg.issue_lanes(), cfg.cubes);
        let starved = PnmConfig {
            vaults_per_lane: 10_000,
            ..cfg
        };
        assert_eq!(starved.issue_lanes(), 1);
        let zero = PnmConfig {
            vaults_per_lane: 0,
            ..cfg
        };
        assert_eq!(zero.issue_lanes(), cfg.total_vaults());
    }

    #[test]
    fn default_pum_matches_ambit_row_size() {
        let cfg = PumConfig::default();
        assert_eq!(cfg.row_bits, 65_536);
        assert!(cfg.parallel_rows >= 1);
    }

    #[test]
    fn platform_config_round_trips_through_json() {
        // The derived Serialize/Deserialize impls (including nested structs)
        // must reproduce the exact platform; bench outputs rely on this for
        // machine-readable provenance.
        let platform = PimPlatform::default();
        let json = serde_json::to_string_pretty(&platform).unwrap();
        let back: PimPlatform = serde_json::from_str(&json).unwrap();
        assert_eq!(back, platform);

        let cpu = CpuConfig::stock_multicore();
        let back: CpuConfig = serde_json::from_str(&serde_json::to_string(&cpu).unwrap()).unwrap();
        assert_eq!(back, cpu);
    }

    #[test]
    fn platform_default_enables_smb() {
        let p = PimPlatform::default();
        assert!(p.smb_enabled);
        assert!(p.smb_entries > 0);
        assert!(p.scu_delay > 0);
    }
}
