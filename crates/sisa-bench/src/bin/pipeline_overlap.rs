//! Pipeline-overlap study: issue-queue depth × virtual-lane count on a flat
//! SISA runtime with the scoreboarded issue queue.
//!
//! The sweep runs triangle counting and 4-clique counting at every (depth,
//! lanes) point and reports, per cell, the serial work total, the overlapped
//! makespan, the overlap speedup `work / makespan`, and the cycles lost to
//! operand hazards (RAW/WAW/WAR on set IDs). Expected shape: depth 1 is the
//! serial cost model (makespan = work, no stalls); at a fixed depth the
//! makespan is monotone non-increasing in the lane count; clique kernels
//! expose fewer hazards than their dependence-heavy instruction mix suggests
//! because counting intersections over distinct vertex pairs are mutually
//! independent.

use sisa_algorithms::SearchLimits;
use sisa_bench::{
    emit, emit_json, format_table, full_mode, pipeline_overlap_sweep, PipelineOverlapCell,
};

fn main() {
    let full = full_mode();
    let limits = SearchLimits::patterns(if full { 200_000 } else { 20_000 });
    let depths = [1usize, 4, 16, 64];
    let lane_counts = [1usize, 2, 4, 8, 16];

    let g = sisa_graph::datasets::by_name("soc-fbMsg")
        .expect("registered stand-in")
        .generate(1);
    let cells = pipeline_overlap_sweep("soc-fbMsg", &g, &depths, &lane_counts, &limits);

    let mut rows = Vec::new();
    for cell in &cells {
        let stall_pct = 100.0 * cell.dep_stall_cycles as f64 / cell.work_cycles.max(1) as f64;
        rows.push(vec![
            cell.workload.clone(),
            cell.depth.to_string(),
            cell.lanes.to_string(),
            format!("{:.3}", cell.work_cycles as f64 / 1e6),
            format!("{:.3}", cell.makespan_cycles as f64 / 1e6),
            format!("{:.2}x", cell.overlap_speedup),
            format!("{:.3}", cell.dep_stall_cycles as f64 / 1e6),
            format!("{stall_pct:.1}%"),
        ]);
    }
    let table = format_table(
        &[
            "workload",
            "depth",
            "lanes",
            "work [Mcyc]",
            "makespan [Mcyc]",
            "speedup",
            "dep-stall [Mcyc]",
            "stall/work",
        ],
        &rows,
    );

    emit(
        "pipeline_overlap",
        &format!(
            "Pipeline overlap on soc-fbMsg (scoreboarded issue queue, flat SISA runtime).\n\
             Independent instructions (disjoint operand sets) dispatch to distinct virtual\n\
             vault lanes and overlap; dependent instructions stall on the set-ID scoreboard.\n\
             Depth 1 reproduces the serial cost model exactly.\n\n{table}"
        ),
    );

    // Machine-readable mirror for downstream analysis.
    emit_json("pipeline_overlap", &cells);

    // Scheduling must never change answers, and depth 1 must be serial.
    let workloads: std::collections::BTreeSet<&str> =
        cells.iter().map(|c| c.workload.as_str()).collect();
    for workload in workloads {
        let of_workload: Vec<&PipelineOverlapCell> =
            cells.iter().filter(|c| c.workload == workload).collect();
        assert!(
            of_workload.windows(2).all(|w| w[0].result == w[1].result),
            "{workload}: pipelined runs disagree on the result"
        );
        assert!(
            of_workload
                .windows(2)
                .all(|w| w[0].work_cycles == w[1].work_cycles),
            "{workload}: the issue queue must conserve work"
        );
        for cell in of_workload.iter().filter(|c| c.depth == 1) {
            assert_eq!(
                cell.makespan_cycles, cell.work_cycles,
                "{workload}: depth 1 must be the serial cost model"
            );
        }
    }
    // The headline claim: with a deep queue and real lane parallelism the
    // overlapped makespan beats the serial work total on triangle counting.
    assert!(
        cells.iter().any(|c| c.workload == "tc"
            && c.depth >= 8
            && c.lanes >= 4
            && c.makespan_cycles < c.work_cycles),
        "triangle counting must overlap at depth >= 8 with >= 4 lanes"
    );
}
