//! Figure 7b + §9.2 sensitivity studies: DB-fraction sweep, galloping-threshold
//! sweep and the SCU-cache (SMB) on/off ablation.

use sisa_algorithms::SearchLimits;
use sisa_bench::{emit, format_table, full_mode, run_cell, Problem, Scheme, Workload};
use sisa_core::{SetGraphConfig, SisaConfig, VariantSelection};
use sisa_graph::datasets;

fn main() {
    let full = full_mode();
    let limits = SearchLimits::patterns(if full { 100_000 } else { 10_000 });
    let g = datasets::by_name("bio-mouseGene")
        .expect("registered stand-in")
        .generate(2);
    // kcc-4 on 32 SISA threads under one runtime and set-graph configuration.
    let cycles = |sisa: SisaConfig, set_graph: SetGraphConfig| {
        let w = Workload {
            sisa,
            set_graph,
            ..Workload::new(g.clone(), 32, limits)
        };
        run_cell(Problem::Kcc(4), Scheme::Sisa, &w).cycles
    };

    // Sweep the fraction of neighbourhoods kept as dense bitvectors.
    let mut rows = Vec::new();
    for t in [0.0, 0.1, 0.25, 0.4, 0.6, 0.8, 1.0] {
        let sg_cfg = SetGraphConfig {
            db_fraction: t,
            storage_budget_frac: f64::INFINITY,
        };
        let mcyc = cycles(SisaConfig::default(), sg_cfg) as f64 / 1e6;
        rows.push(vec![format!("{t:.2}"), format!("{mcyc:.3}")]);
    }
    let db_table = format_table(&["DB fraction t", "kcc-4 runtime [Mcyc]"], &rows);

    // Sweep the galloping threshold (merge-vs-galloping switch).
    let mut rows = Vec::new();
    for (label, sel) in [
        ("perf-model", VariantSelection::PerformanceModel),
        ("t_5", VariantSelection::SizeRatio(5.0)),
        ("t_100", VariantSelection::SizeRatio(100.0)),
        ("t_10000", VariantSelection::SizeRatio(10_000.0)),
        ("always-merge", VariantSelection::AlwaysMerge),
        ("always-gallop", VariantSelection::AlwaysGalloping),
    ] {
        let sisa = SisaConfig {
            variant_selection: sel,
            ..SisaConfig::default()
        };
        let mcyc = cycles(sisa, SetGraphConfig::default()) as f64 / 1e6;
        rows.push(vec![label.to_string(), format!("{mcyc:.3}")]);
    }
    let gallop_table = format_table(&["galloping threshold", "kcc-4 runtime [Mcyc]"], &rows);

    // SCU metadata cache on/off.
    let with_smb = cycles(SisaConfig::default(), SetGraphConfig::default());
    let without_smb = cycles(SisaConfig::without_smb(), SetGraphConfig::default());
    let smb_table = format_table(
        &["SMB", "kcc-4 runtime [Mcyc]"],
        &[
            vec!["enabled".into(), format!("{:.3}", with_smb as f64 / 1e6)],
            vec![
                "disabled".into(),
                format!("{:.3}", without_smb as f64 / 1e6),
            ],
        ],
    );

    emit(
        "fig7b_sensitivity",
        &format!(
            "Figure 7b + SCU-cache sensitivity (kcc-4 on the bio-mouseGene stand-in, 32 threads).\n\
             Expected shape: both extremes of the DB fraction (PNM-only and PUM-only) are slower\n\
             than the hybrid; disabling the SMB slows execution.\n\n\
             -- DB fraction sweep --\n{db_table}\n\
             -- merge/galloping selection --\n{gallop_table}\n\
             -- SCU metadata cache --\n{smb_table}"
        ),
    );
}
