//! Runtime configuration: platform parameters, variant-selection policy and
//! hybrid set-graph layout knobs.

use sisa_pim::PimPlatform;

/// How the SCU chooses between the merge and galloping variants of a sparse
/// set operation.
///
/// The paper's default is the performance-model comparison (§8.3); the size
/// -ratio policy corresponds to the "galloping threshold" swept in the
/// sensitivity analysis of Figure 7b, and the two fixed policies are the
/// ablation extremes.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum VariantSelection {
    /// Evaluate both §8.3 models and pick the cheaper variant (paper default).
    PerformanceModel,
    /// Use galloping whenever `max(|A|,|B|) / min(|A|,|B|)` is at least the
    /// given threshold (e.g. 5, 100, 10000 in Figure 7b).
    SizeRatio(f64),
    /// Always use the merge variant.
    AlwaysMerge,
    /// Always use the galloping variant.
    AlwaysGalloping,
}

/// Configuration of the hybrid SISA set-graph layout (§6.1).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SetGraphConfig {
    /// Fraction of neighbourhoods (the largest ones) stored as dense
    /// bitvectors. The paper's evaluation sets this bias parameter `t` to 0.4
    /// ("40% of neighbourhoods are stored as DBs", §9.1) and sweeps it from 0
    /// (PNM only) to 1 (PUM only) in Figure 7b.
    pub db_fraction: f64,
    /// Maximum additional storage allowed on top of the CSR/SA-only layout,
    /// as a fraction of the CSR size (paper default: 10%).
    pub storage_budget_frac: f64,
}

impl Default for SetGraphConfig {
    fn default() -> Self {
        Self {
            db_fraction: 0.4,
            storage_budget_frac: 0.10,
        }
    }
}

/// Top-level configuration of the SISA runtime.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SisaConfig {
    /// The simulated PIM platform (PNM + PUM + SCU parameters).
    pub platform: PimPlatform,
    /// How merge vs. galloping is selected for sparse operations.
    pub variant_selection: VariantSelection,
    /// Cycles charged per host-side scalar operation reported by algorithms
    /// (loop control, counters); the paper leaves this work on the host /
    /// vault cores.
    pub host_op_cost: f64,
    /// Whether to record the sizes of every pair of sets processed, read
    /// through [`crate::SisaRuntime::processed_set_sizes`] (the Figure 9b
    /// set-size histograms). Off by default to save memory.
    pub track_set_sizes: bool,
    /// Depth of the scoreboarded issue queue: how many SISA instructions may
    /// be in flight at once. Depth 1 (the default) is fully serial execution
    /// — every instruction waits for its predecessor to retire, reproducing
    /// the classic sequential cost model cycle-for-cycle. Larger depths let
    /// instructions with disjoint operand sets overlap across the virtual
    /// vault lanes; dependent instructions stall (RAW/WAW/WAR on set IDs)
    /// and the stall lands in [`crate::ExecStats::dep_stall_cycles`].
    pub issue_depth: usize,
    /// Number of virtual vault lanes the issue queue dispatches onto. 0 (the
    /// default) derives the count from the PNM cube/vault geometry via
    /// [`sisa_pim::PnmConfig::issue_lanes`]; any other value overrides it
    /// (used by the `pipeline_overlap` lane sweep).
    pub issue_lanes: usize,
}

impl Default for SisaConfig {
    fn default() -> Self {
        Self {
            platform: PimPlatform::default(),
            variant_selection: VariantSelection::PerformanceModel,
            host_op_cost: 0.5,
            track_set_sizes: false,
            issue_depth: 1,
            issue_lanes: 0,
        }
    }
}

impl SisaConfig {
    /// The default configuration with set-size tracking enabled.
    #[must_use]
    pub fn with_set_size_tracking() -> Self {
        Self {
            track_set_sizes: true,
            ..Self::default()
        }
    }

    /// A configuration whose SCU metadata cache (SMB) is disabled — the §9.2
    /// "SCU cache" sensitivity experiment.
    #[must_use]
    pub fn without_smb() -> Self {
        let mut cfg = Self::default();
        cfg.platform.smb_enabled = false;
        cfg
    }

    /// The default configuration with a pipelined issue queue of the given
    /// depth (lane count derived from the PNM cube/vault geometry).
    #[must_use]
    pub fn pipelined(issue_depth: usize) -> Self {
        Self {
            issue_depth,
            ..Self::default()
        }
    }

    /// The default configuration with an explicit issue-queue depth and lane
    /// count (the `pipeline_overlap` sweep's knobs).
    #[must_use]
    pub fn with_pipeline(issue_depth: usize, issue_lanes: usize) -> Self {
        Self {
            issue_depth,
            issue_lanes,
            ..Self::default()
        }
    }

    /// The lane count the issue queue actually runs with: the explicit
    /// override if set, otherwise derived from the PNM geometry.
    #[must_use]
    pub fn resolved_issue_lanes(&self) -> usize {
        if self.issue_lanes == 0 {
            self.platform.pnm.issue_lanes()
        } else {
            self.issue_lanes
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper_settings() {
        let sg = SetGraphConfig::default();
        assert!((sg.db_fraction - 0.4).abs() < 1e-12);
        assert!((sg.storage_budget_frac - 0.10).abs() < 1e-12);
        let cfg = SisaConfig::default();
        assert_eq!(cfg.variant_selection, VariantSelection::PerformanceModel);
        assert!(cfg.platform.smb_enabled);
    }

    #[test]
    fn smb_can_be_disabled() {
        assert!(!SisaConfig::without_smb().platform.smb_enabled);
        assert!(SisaConfig::with_set_size_tracking().track_set_sizes);
    }

    #[test]
    fn pipeline_defaults_are_serial_with_derived_lanes() {
        let cfg = SisaConfig::default();
        assert_eq!(cfg.issue_depth, 1, "serial issue by default");
        assert_eq!(cfg.issue_lanes, 0, "lane count derived from the platform");
        assert_eq!(cfg.resolved_issue_lanes(), cfg.platform.pnm.issue_lanes());
        let deep = SisaConfig::pipelined(16);
        assert_eq!(deep.issue_depth, 16);
        assert_eq!(deep.resolved_issue_lanes(), deep.platform.pnm.issue_lanes());
        let explicit = SisaConfig::with_pipeline(8, 4);
        assert_eq!(explicit.issue_depth, 8);
        assert_eq!(explicit.resolved_issue_lanes(), 4);
    }
}
