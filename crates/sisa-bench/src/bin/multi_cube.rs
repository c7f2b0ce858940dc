//! Multi-cube scaling study: shard count × partition strategy on a sharded
//! SISA platform, with cross-shard link traffic priced by the PNM link model.
//!
//! The sweep runs triangle counting and 4-clique counting on a
//! `ShardedEngine<SisaRuntime>` (one inner runtime per vault group / cube) and
//! reports, per cell, the multi-cube makespan, shard imbalance and the
//! inter-vault/inter-cube transfer volume each placement strategy induces.
//! Expected shape: modulo placement balances load but maximises cross-shard
//! traffic, range placement keeps neighbourhood blocks local at the cost of
//! imbalance (algorithm temporaries pile onto the last shard), and
//! degree-balanced placement sits between the two.

use sisa_algorithms::SearchLimits;
use sisa_bench::{emit, emit_json, format_table, full_mode, multi_cube_sweep, MultiCubeCell};

fn main() {
    let full = full_mode();
    let limits = SearchLimits::patterns(if full { 200_000 } else { 20_000 });
    let shard_counts = [1usize, 2, 4, 8, 16];

    let g = sisa_graph::datasets::by_name("soc-fbMsg")
        .expect("registered stand-in")
        .generate(1);
    let cells = multi_cube_sweep("soc-fbMsg", &g, &shard_counts, &limits);

    let mut rows = Vec::new();
    for cell in &cells {
        let one_shard = cells
            .iter()
            .find(|c| c.workload == cell.workload && c.strategy == cell.strategy && c.shards == 1)
            .expect("the sweep includes a 1-shard baseline");
        let speedup = one_shard.makespan_cycles as f64 / cell.makespan_cycles.max(1) as f64;
        rows.push(vec![
            cell.workload.clone(),
            cell.strategy.clone(),
            cell.shards.to_string(),
            format!("{:.3}", cell.makespan_cycles as f64 / 1e6),
            format!("{:.2}x", speedup),
            format!("{:.3}", cell.imbalance),
            cell.cross_shard_ops.to_string(),
            format!("{:.1}", cell.cross_shard_bytes as f64 / 1024.0),
            format!("{:.3}", cell.link_cycles as f64 / 1e6),
        ]);
    }
    let table = format_table(
        &[
            "workload",
            "strategy",
            "shards",
            "makespan [Mcyc]",
            "speedup",
            "imbalance",
            "xfer ops",
            "xfer [KiB]",
            "link [Mcyc]",
        ],
        &rows,
    );

    emit(
        "multi_cube",
        &format!(
            "Multi-cube scaling on soc-fbMsg (sharded SISA, one engine per vault group/cube).\n\
             Cross-shard binary operations move the smaller operand over the vault/cube links\n\
             (priced by the PNM link model); placement decides how often that happens.\n\n{table}"
        ),
    );

    // Machine-readable mirror for downstream analysis.
    emit_json("multi_cube", &cells);

    // All cells of a workload must agree on the mined result (workloads are
    // taken from the sweep output so new ones cannot be skipped silently).
    let workloads: std::collections::BTreeSet<&str> =
        cells.iter().map(|c| c.workload.as_str()).collect();
    for workload in workloads {
        let results: Vec<u64> = cells
            .iter()
            .filter(|c| c.workload == workload)
            .map(|c: &MultiCubeCell| c.result)
            .collect();
        assert!(
            results.windows(2).all(|w| w[0] == w[1]),
            "{workload}: sharded runs disagree: {results:?}"
        );
    }
}
