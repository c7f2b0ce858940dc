//! Smoke test for the `run_all` pipeline shape: every (problem, scheme) cell
//! the figure binaries measure must run end-to-end on a tiny generated graph.
//! This gives CI coverage of the figure path without invoking the release-built
//! figure binaries.

use sisa::algorithms::SearchLimits;
use sisa::graph::generators;
use sisa_bench::{
    capture_instruction_mix, multi_cube_sweep, pipeline_overlap_sweep, run_auxiliary_formulations,
    run_cell, InstructionMix, MultiCubeCell, PipelineOverlapCell, PlatformSummary, Problem, Scheme,
    Workload,
};

#[test]
fn every_figure6_cell_runs_on_a_tiny_graph() {
    let g = generators::erdos_renyi(80, 0.08, 3);
    let w = Workload::new(g, 4, SearchLimits::patterns(2_000));
    for problem in Problem::figure6_panels() {
        let mut results = Vec::new();
        for scheme in Scheme::ALL {
            let m = run_cell(problem, scheme, &w);
            assert!(
                m.cycles > 0,
                "{}/{} took zero cycles",
                problem.label(),
                scheme.label()
            );
            assert!(
                m.report.makespan_cycles == m.cycles,
                "{}/{} report disagrees with cycles",
                problem.label(),
                scheme.label()
            );
            results.push((scheme, m.result, m.truncated));
        }
        // All schemes compute the same answer unless the pattern budget cut
        // one of them short.
        if results.iter().all(|&(_, _, truncated)| !truncated) {
            let reference = results[0].1;
            for &(scheme, result, _) in &results[1..] {
                assert_eq!(
                    result,
                    reference,
                    "{}/{} disagrees with {}",
                    problem.label(),
                    scheme.label(),
                    results[0].0.label()
                );
            }
        }
    }
}

#[test]
fn emit_mirrors_results_to_the_results_dir() {
    // run_all's figure binaries publish through sisa_bench::emit, which
    // resolves SISA_RESULTS_DIR and delegates to emit_to; drive the write
    // path against a scratch directory (no process-global env mutation —
    // sibling tests run concurrently).
    let dir = std::env::temp_dir().join(format!("sisa-smoke-{}", std::process::id()));
    sisa_bench::emit_to(&dir, "smoke", "graph result\ntiny 42\n");
    let written = std::fs::read_to_string(dir.join("smoke.txt")).expect("emit writes a mirror");
    assert!(written.contains("tiny 42"));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn platform_summary_round_trips_through_json() {
    // run_all records its platform provenance as results/platform.json; the
    // summary must survive a serialize → parse round trip.
    let summary = PlatformSummary::default();
    let json = serde_json::to_string_pretty(&summary).expect("platform summary serializes");
    assert!(json.contains("\"cpu\""), "json should name the cpu section");
    let back: PlatformSummary = serde_json::from_str(&json).expect("platform.json parses back");
    assert_eq!(back, summary);
}

#[test]
fn instruction_mix_comes_from_a_real_traced_program() {
    // run_all publishes results/instruction_mix.json from the SisaProgram a
    // traced run captures; the mix must be non-empty, name real SISA
    // mnemonics, and survive a JSON round trip.
    let g = generators::erdos_renyi(100, 0.08, 7);
    let mix = capture_instruction_mix("tiny", &g);
    assert!(mix.trace_complete, "the bounded trace must not overflow");
    assert!(mix.total_instructions > 0);
    assert_eq!(
        mix.mix.values().sum::<u64>(),
        mix.total_instructions,
        "per-opcode counts must add up to the program length"
    );
    assert!(
        mix.mix.contains_key("sisa.new"),
        "graph loading creates sets"
    );
    assert!(
        mix.mix.contains_key("sisa.intc"),
        "triangle counting issues counting intersections"
    );
    // The mix run executes on a pipelined issue queue, so the stall report
    // alongside the dynamic counts is non-trivial and consistent.
    assert!(mix.issue_depth > 1, "the mix run must be pipelined");
    assert!(mix.issue_lanes >= 1);
    assert!(
        mix.makespan_cycles > 0 && mix.makespan_cycles <= mix.serial_cycles,
        "overlap can only shorten the schedule: {} vs {}",
        mix.makespan_cycles,
        mix.serial_cycles
    );
    // Per-opcode stalls are the instruction-attributed subset of the total:
    // host-side events (e.g. `members` read-outs) can stall too but carry no
    // opcode.
    let attributed: u64 = mix.dep_stalls.values().sum();
    assert!(
        attributed > 0 && attributed <= mix.dep_stall_cycles,
        "attributed stalls ({attributed}) must be a non-trivial subset of the total ({})",
        mix.dep_stall_cycles
    );
    for mnemonic in mix.dep_stalls.keys() {
        assert!(
            mix.mix.contains_key(mnemonic),
            "stalling mnemonic {mnemonic} must appear in the dynamic mix"
        );
    }
    // The notes report the host-kernel selections the mix tallies.
    let selections = format!(
        "{} merge, {} galloping, {} bitmap selections",
        mix.host_kernels["merge"], mix.host_kernels["gallop"], mix.host_kernels["bitmap"]
    );
    assert!(
        mix.notes.contains(&selections),
        "notes must report the kernel selections ({selections}): {}",
        mix.notes
    );
    let json = serde_json::to_string_pretty(&mix).expect("instruction mix serializes");
    let back: InstructionMix = serde_json::from_str(&json).expect("mix parses back");
    assert_eq!(back, mix);
}

#[test]
fn pipeline_overlap_sweep_runs_and_its_json_parses() {
    // run_all's pipeline_overlap binary publishes results/pipeline_overlap.json
    // from this sweep; drive it on a tiny graph and check the figure's schema
    // claims hold.
    let g = generators::erdos_renyi(70, 0.1, 9);
    let depths = [1usize, 8, 32];
    let lane_counts = [1usize, 2, 4, 8];
    let cells = pipeline_overlap_sweep(
        "tiny",
        &g,
        &depths,
        &lane_counts,
        &SearchLimits::patterns(5_000),
    );
    let workloads: std::collections::BTreeSet<&str> =
        cells.iter().map(|c| c.workload.as_str()).collect();
    assert!(workloads.len() >= 2, "tc and kcc-4 at minimum");
    assert_eq!(
        cells.len(),
        workloads.len() * depths.len() * lane_counts.len()
    );

    for workload in &workloads {
        let of_workload: Vec<&PipelineOverlapCell> =
            cells.iter().filter(|c| &c.workload == workload).collect();
        // Scheduling never changes answers, and the queue prices time, not
        // work: results and work totals agree across every cell.
        assert!(
            of_workload.windows(2).all(|w| w[0].result == w[1].result),
            "{workload}: pipelined runs disagree on the result"
        );
        assert!(
            of_workload
                .windows(2)
                .all(|w| w[0].work_cycles == w[1].work_cycles),
            "{workload}: work must be conserved across depth x lanes"
        );
        for cell in &of_workload {
            // Depth 1 is the serial cost model.
            if cell.depth == 1 {
                assert_eq!(cell.makespan_cycles, cell.work_cycles, "{workload}");
                assert_eq!(cell.dep_stall_cycles, 0, "{workload}");
                assert!((cell.overlap_speedup - 1.0).abs() < 1e-12);
            }
            // The makespan never beats the critical path to zero nor exceeds
            // the serial total.
            assert!(cell.makespan_cycles > 0 && cell.makespan_cycles <= cell.work_cycles);
            assert!(cell.overlap_speedup >= 1.0);
        }
        // At a fixed depth the makespan is monotone non-increasing in the
        // lane count (more lanes never slow the schedule down).
        for &depth in &depths {
            let mut last = u64::MAX;
            for &lanes in &lane_counts {
                let cell = of_workload
                    .iter()
                    .find(|c| c.depth == depth && c.lanes == lanes)
                    .expect("cell present");
                assert!(
                    cell.makespan_cycles <= last,
                    "{workload}: makespan grew from {last} to {} at depth {depth} x {lanes} lanes",
                    cell.makespan_cycles
                );
                last = cell.makespan_cycles;
            }
        }
    }
    // The acceptance claim: triangle counting overlaps strictly at depth >= 8
    // with >= 4 lanes.
    assert!(
        cells.iter().any(|c| c.workload == "tc"
            && c.depth >= 8
            && c.lanes >= 4
            && c.makespan_cycles < c.work_cycles),
        "triangle counting must overlap at depth >= 8 with >= 4 lanes"
    );

    // The JSON the binary writes parses back into the same cells.
    let json = serde_json::to_string_pretty(&cells).expect("cells serialize");
    let back: Vec<PipelineOverlapCell> =
        serde_json::from_str(&json).expect("pipeline_overlap.json parses");
    assert_eq!(back, cells);
}

#[test]
fn multi_cube_sweep_runs_and_its_json_parses() {
    // run_all's multi_cube binary publishes results/multi_cube.json from this
    // sweep; drive it on a tiny graph and check the figure's claims hold.
    let g = generators::erdos_renyi(70, 0.1, 9);
    let cells = multi_cube_sweep("tiny", &g, &[1, 2, 4], &SearchLimits::patterns(5_000));
    // The workload list comes from the sweep output itself, so cells of a
    // newly added workload cannot be skipped silently by a stale local list.
    let workloads: std::collections::BTreeSet<&str> =
        cells.iter().map(|c| c.workload.as_str()).collect();
    let strategies = sisa::core::PartitionStrategy::ALL.len();
    assert!(workloads.len() >= 2, "tc and kcc-4 at minimum");
    assert_eq!(cells.len(), workloads.len() * strategies * 3);

    for workload in workloads {
        let of_workload: Vec<&MultiCubeCell> =
            cells.iter().filter(|c| c.workload == workload).collect();
        // Every cell of a workload mines the same answer.
        assert!(
            of_workload.windows(2).all(|w| w[0].result == w[1].result),
            "{workload}: sharded runs disagree"
        );
        // One shard: no cross-shard traffic, perfect balance.
        for cell in of_workload.iter().filter(|c| c.shards == 1) {
            assert_eq!(cell.cross_shard_ops, 0, "{workload}/{}", cell.strategy);
            assert_eq!(cell.cross_shard_bytes, 0);
            assert_eq!(cell.link_cycles, 0);
            assert!((cell.imbalance - 1.0).abs() < 1e-9);
        }
        // Multi-shard runs move operands over the links.
        assert!(of_workload
            .iter()
            .filter(|c| c.shards > 1)
            .all(|c| c.cross_shard_ops > 0 && c.link_cycles > 0));
        // The figure's point: traffic and imbalance vary by strategy.
        let traffic_at_4: std::collections::BTreeSet<u64> = of_workload
            .iter()
            .filter(|c| c.shards == 4)
            .map(|c| c.cross_shard_bytes)
            .collect();
        assert!(
            traffic_at_4.len() > 1,
            "{workload}: all strategies induced identical cross-shard traffic"
        );
    }

    // The JSON the binary writes parses back into the same cells.
    let json = serde_json::to_string_pretty(&cells).expect("cells serialize");
    let back: Vec<MultiCubeCell> = serde_json::from_str(&json).expect("multi_cube.json parses");
    assert_eq!(back, cells);
}

#[test]
fn auxiliary_formulations_cover_the_run_all_tail() {
    let g = generators::erdos_renyi(120, 0.05, 5);
    let (rounds, reached) = run_auxiliary_formulations(&g);
    assert!(
        rounds > 0,
        "approximate degeneracy must run at least a round"
    );
    assert!(
        reached > 0 && reached <= g.num_vertices(),
        "BFS reach out of range: {reached}"
    );
}
