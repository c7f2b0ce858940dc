//! # sisa-bench
//!
//! The experiment harness that regenerates every table and figure of the SISA
//! paper's evaluation (§9). Each figure/table has its own binary under
//! `src/bin/`; this library holds the shared machinery: problem/scheme
//! dispatch, graph preparation, virtual-thread scheduling and result
//! formatting.
//!
//! The default workload sizes are scaled so that the full `run_all` binary
//! finishes in minutes on a laptop; pass `--full` to any binary to use the
//! paper-sized pattern budgets (slower, same trends). Results are printed to
//! stdout and mirrored under `results/`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use serde::{Deserialize, Serialize};
use sisa_algorithms::baseline::{
    jarvis_patrick_baseline, k_clique_count_baseline, k_clique_star_count_baseline,
    maximal_cliques_baseline, star_isomorphism_baseline, triangle_count_baseline, BaselineMode,
};
use sisa_algorithms::setcentric::{
    self, jarvis_patrick_clustering, k_clique_count, k_clique_star_count, maximal_cliques,
    star_pattern, subgraph_isomorphism_count, triangle_count, SimilarityMeasure,
};
use sisa_algorithms::{MiningRun, SearchLimits};
use sisa_core::{
    parallel, PartitionStrategy, RunReport, SetEngine, SetGraph, SetGraphConfig, ShardedEngine,
    SisaConfig, SisaRuntime,
};
use sisa_graph::orientation::degeneracy_order;
use sisa_graph::{CsrGraph, LabeledGraph};
use sisa_pim::{CpuConfig, EnergyModel, PimPlatform};
use std::borrow::Cow;
use std::fmt::Write as _;
use std::path::PathBuf;

/// The execution scheme being measured (one bar group of Figure 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Scheme {
    /// Hand-tuned CSR baseline without set algebra (`_non-set`).
    NonSet,
    /// Software set-centric baseline (`_set-based`).
    SetBased,
    /// SISA with PIM acceleration (`_sisa`).
    Sisa,
}

impl Scheme {
    /// All schemes, in the paper's plotting order.
    pub const ALL: [Scheme; 3] = [Scheme::NonSet, Scheme::SetBased, Scheme::Sisa];

    /// The label used in the paper's legends.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Scheme::NonSet => "non-set",
            Scheme::SetBased => "set-based",
            Scheme::Sisa => "sisa",
        }
    }
}

/// The graph-mining problem being measured (the panel of Figure 6).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Problem {
    /// Triangle counting (`tc`).
    Tc,
    /// k-clique counting (`kcc-k`).
    Kcc(usize),
    /// k-clique-star counting (`ksc-k`).
    Ksc(usize),
    /// Maximal clique listing (`mc`).
    Mc,
    /// Jarvis–Patrick clustering with the Jaccard coefficient (`cl-jac`).
    ClJac,
    /// Subgraph isomorphism, 4-star pattern (`si-4s`).
    Si4s,
    /// Labelled subgraph isomorphism, 4-star pattern (`si-4s-L`).
    Si4sL,
}

impl Problem {
    /// The full Figure 6 panel list.
    #[must_use]
    pub fn figure6_panels() -> Vec<Problem> {
        vec![
            Problem::ClJac,
            Problem::Kcc(4),
            Problem::Kcc(5),
            Problem::Kcc(6),
            Problem::Ksc(4),
            Problem::Ksc(5),
            Problem::Ksc(6),
            Problem::Mc,
            Problem::Si4s,
            Problem::Tc,
            Problem::Si4sL,
        ]
    }

    /// The label used in the paper's panel titles.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Problem::Tc => "tc".into(),
            Problem::Kcc(k) => format!("kcc-{k}"),
            Problem::Ksc(k) => format!("ksc-{k}"),
            Problem::Mc => "mc".into(),
            Problem::ClJac => "cl-jac".into(),
            Problem::Si4s => "si-4s".into(),
            Problem::Si4sL => "si-4s-L".into(),
        }
    }
}

/// Everything needed to measure one (problem, scheme, graph) cell.
#[derive(Clone, Debug)]
pub struct Workload {
    /// The input graph (undirected).
    pub graph: CsrGraph,
    /// Number of virtual threads to schedule onto.
    pub threads: usize,
    /// Pattern budget (the paper's simulation cutoff).
    pub limits: SearchLimits,
    /// Hybrid set-graph layout used by the SISA scheme.
    pub set_graph: SetGraphConfig,
    /// SISA runtime configuration.
    pub sisa: SisaConfig,
}

impl Workload {
    /// A workload over `graph` with the paper's default platform parameters.
    #[must_use]
    pub fn new(graph: CsrGraph, threads: usize, limits: SearchLimits) -> Self {
        Self {
            graph,
            threads,
            limits,
            set_graph: SetGraphConfig::default(),
            sisa: SisaConfig::default(),
        }
    }
}

/// The measured outcome of one cell.
#[derive(Clone, Debug)]
pub struct Measurement {
    /// End-to-end simulated runtime in cycles (makespan over threads).
    pub cycles: u64,
    /// Scheduling/stall report.
    pub report: RunReport,
    /// The algorithm's numeric result (count / size of the output), used to
    /// cross-check that all schemes agree.
    pub result: u64,
    /// Whether the pattern budget truncated the run.
    pub truncated: bool,
}

/// Runs one (problem, scheme) cell on a workload and returns its measurement.
///
/// Clique problems read the degeneracy-oriented graph, `si-4s-L` a copy with
/// random vertex labels, and every other problem the graph as given; `mc`
/// also reads the degeneracy ordering. Only those problems compute it. The
/// SISA scheme schedules its tasks on PIM threads, the baselines on the
/// paper's CPU model.
#[must_use]
pub fn run_cell(problem: Problem, scheme: Scheme, w: &Workload) -> Measurement {
    let ordering = || degeneracy_order(&w.graph);
    let g: Cow<'_, CsrGraph> = match problem {
        Problem::Tc | Problem::Kcc(_) | Problem::Ksc(_) => Cow::Owned(ordering().orient(&w.graph)),
        Problem::Si4sL => {
            Cow::Owned(LabeledGraph::with_random_vertex_labels(w.graph.clone(), 3, 0xC0FFEE).graph)
        }
        Problem::Mc | Problem::ClJac | Problem::Si4s => Cow::Borrowed(&w.graph),
    };
    let pattern = match problem {
        Problem::Si4sL => star_pattern(4).with_labels(vec![0, 1, 2, 1, 0]),
        _ => star_pattern(4),
    };
    let (cpu, threads, limits) = (CpuConfig::default(), w.threads, &w.limits);
    let run: MiningRun<u64> = match scheme {
        Scheme::Sisa => {
            let mut rt = SisaRuntime::new(w.sisa);
            let sg = SetGraph::load(&mut rt, &g, &w.set_graph);
            rt.reset_stats();
            let rt = &mut rt;
            match problem {
                Problem::Tc => triangle_count(rt, &sg, limits),
                Problem::Kcc(k) => k_clique_count(rt, &sg, k, limits),
                Problem::Ksc(k) => k_clique_star_count(rt, &sg, k, limits),
                Problem::Mc => {
                    maximal_cliques(rt, &sg, &ordering(), limits, false).map(|r| r.count)
                }
                Problem::ClJac => {
                    jarvis_patrick_clustering(rt, &sg, SimilarityMeasure::Jaccard, 0.2, limits)
                        .map(|pairs| pairs.len() as u64)
                }
                Problem::Si4s | Problem::Si4sL => {
                    subgraph_isomorphism_count(rt, &sg, &pattern, limits)
                }
            }
        }
        Scheme::NonSet | Scheme::SetBased => {
            let mode = if scheme == Scheme::NonSet {
                BaselineMode::NonSet
            } else {
                BaselineMode::SetBased
            };
            match problem {
                Problem::Tc => triangle_count_baseline(&g, mode, &cpu, threads, limits),
                Problem::Kcc(k) => k_clique_count_baseline(&g, k, mode, &cpu, threads, limits),
                Problem::Ksc(k) => k_clique_star_count_baseline(&g, k, mode, &cpu, threads, limits),
                Problem::Mc => {
                    maximal_cliques_baseline(&g, &ordering(), mode, &cpu, threads, limits, false)
                        .map(|r| r.count)
                }
                Problem::ClJac => jarvis_patrick_baseline(
                    &g,
                    SimilarityMeasure::Jaccard,
                    0.2,
                    mode,
                    &cpu,
                    threads,
                    limits,
                )
                .map(|pairs| pairs.len() as u64),
                Problem::Si4s | Problem::Si4sL => {
                    star_isomorphism_baseline(&g, &pattern, mode, &cpu, threads, limits)
                }
            }
        }
    };
    let report = match scheme {
        Scheme::Sisa => parallel::schedule(&run.tasks, threads),
        Scheme::NonSet | Scheme::SetBased => parallel::schedule_cpu(&run.tasks, threads, &cpu),
    };
    Measurement {
        cycles: report.makespan_cycles,
        report,
        result: run.result,
        truncated: run.truncated,
    }
}

/// Runs an approximate-degeneracy + BFS warm-up exercising the remaining
/// set-centric formulations; used by `run_all` to cover the full algorithm
/// inventory without a dedicated figure.
pub fn run_auxiliary_formulations(g: &CsrGraph) -> (usize, usize) {
    let mut rt = SisaRuntime::new(SisaConfig::default());
    let sg = SetGraph::load(&mut rt, g, &SetGraphConfig::default());
    let deg = setcentric::approximate_degeneracy(&mut rt, &sg, 0.5, &SearchLimits::unlimited());
    let bfs = setcentric::bfs(&mut rt, &sg, 0, setcentric::BfsMode::DirectionOptimizing);
    (
        deg.result.rounds,
        bfs.result.iter().filter(|p| p.is_some()).count(),
    )
}

/// The per-opcode dynamic instruction mix of a traced run, extracted from the
/// captured [`sisa_isa::SisaProgram`] (emitted as `results/instruction_mix.json`
/// by `run_all`). The run executes on a pipelined issue queue, so alongside
/// the dynamic counts the mix reports where the schedule's dependence stalls
/// land — the data the instruction-mix-driven optimisation work needs to pick
/// which opcode's cost model or scheduling to refine next.
#[derive(Clone, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct InstructionMix {
    /// The traced workloads.
    pub workload: String,
    /// The input graph's registered name.
    pub graph: String,
    /// Total dynamic SISA instruction count of the captured program.
    pub total_instructions: u64,
    /// Whether the bounded trace captured the whole run.
    pub trace_complete: bool,
    /// Issue-queue depth the run executed with.
    pub issue_depth: usize,
    /// Virtual vault lane count the run executed with.
    pub issue_lanes: usize,
    /// Serial work total of the run, in cycles.
    pub serial_cycles: u64,
    /// Completion time of the overlapped schedule, in cycles.
    pub makespan_cycles: u64,
    /// Total cycles instructions stalled on operand hazards (RAW/WAW/WAR on
    /// set IDs).
    pub dep_stall_cycles: u64,
    /// Dynamic count per assembly mnemonic.
    pub mix: std::collections::BTreeMap<String, u64>,
    /// Dependence-stall cycles per assembly mnemonic (the instruction that
    /// stalled). Mnemonics that never stalled are omitted.
    pub dep_stalls: std::collections::BTreeMap<String, u64>,
    /// Host kernels the size-ratio dispatch policy selected while executing
    /// the binary set-op opcodes of this trace (`merge` / `gallop` /
    /// `bitmap` tallies from [`sisa_sets::repr::kernel_selection_counts`]).
    pub host_kernels: std::collections::BTreeMap<String, u64>,
    /// Analysis notes: what the stall report implies and how the host
    /// kernels were selected across the trace.
    pub notes: String,
}

/// The issue-queue depth `capture_instruction_mix` runs with: deep enough
/// that independent instructions genuinely overlap and the per-opcode stall
/// report is non-trivial (a depth-1 run never exposes a hazard).
pub(crate) const INSTRUCTION_MIX_ISSUE_DEPTH: usize = 16;

/// Traces a triangle-count + BFS run on `g` through the SISA runtime (on a
/// pipelined issue queue, so hazards surface) and summarises the captured
/// program's per-opcode instruction mix plus where the schedule's dependence
/// stalls landed.
#[must_use]
pub fn capture_instruction_mix(name: &str, g: &CsrGraph) -> InstructionMix {
    let config = SisaConfig::pipelined(INSTRUCTION_MIX_ISSUE_DEPTH);
    let mut rt = SisaRuntime::new(config);
    rt.enable_default_trace();
    sisa_sets::repr::reset_kernel_selection_counts();
    let (oriented, _) = setcentric::orient_by_degeneracy(&mut rt, g, &SetGraphConfig::default());
    let _ = setcentric::triangle_count(&mut rt, &oriented, &SearchLimits::patterns(50_000));
    let sg = SetGraph::load(&mut rt, g, &SetGraphConfig::default());
    let _ = setcentric::bfs(&mut rt, &sg, 0, setcentric::BfsMode::DirectionOptimizing);
    let selections = sisa_sets::repr::kernel_selection_counts();
    let trace = rt.take_trace().expect("trace was enabled");
    let program = trace.program();
    let stats = rt.stats();
    let notes = format!(
        "dep_stalls indicts sisa.del/sisa.int: materialise->recurse->delete chains \
         serialise on WAR/WAW hazards over recycled set IDs. Host kernel dispatch \
         across this trace's binary set-op opcodes (sisa.int/sisa.uni/sisa.dif and \
         their counting forms): {} merge, {} galloping, {} bitmap selections \
         (size-ratio policy, sisa_sets::repr).",
        selections.merge, selections.gallop, selections.bitmap
    );
    InstructionMix {
        workload: "tc+bfs".into(),
        graph: name.into(),
        total_instructions: program.len() as u64,
        trace_complete: trace.is_complete(),
        issue_depth: config.issue_depth,
        issue_lanes: config.resolved_issue_lanes(),
        serial_cycles: stats.total_cycles(),
        makespan_cycles: stats.makespan_cycles,
        dep_stall_cycles: stats.dep_stall_cycles,
        mix: program
            .mnemonic_histogram()
            .into_iter()
            .map(|(mnemonic, count)| (mnemonic.to_string(), count as u64))
            .collect(),
        dep_stalls: stats
            .dep_stall_by_opcode
            .iter()
            .map(|(opcode, cycles)| (opcode.mnemonic().to_string(), cycles))
            .collect(),
        host_kernels: [
            ("merge".to_string(), selections.merge),
            ("gallop".to_string(), selections.gallop),
            ("bitmap".to_string(), selections.bitmap),
        ]
        .into_iter()
        .collect(),
        notes,
    }
}

// ---------------------------------------------------------------------------
// Pipeline overlap sweep (the `pipeline_overlap` figure)
// ---------------------------------------------------------------------------

/// One measured cell of the pipeline-overlap sweep: a workload executed on a
/// [`SisaRuntime`] whose scoreboarded issue queue runs at a given depth and
/// virtual-lane count (emitted as `results/pipeline_overlap.json` by the
/// `pipeline_overlap` binary).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct PipelineOverlapCell {
    /// The workload label (`tc`, `kcc-4`).
    pub workload: String,
    /// The input graph's registered name.
    pub graph: String,
    /// Issue-queue depth (1 = the serial cost model).
    pub depth: usize,
    /// Number of virtual vault lanes.
    pub lanes: usize,
    /// The algorithm's numeric result (must agree across all cells of a
    /// workload — scheduling never changes answers).
    pub result: u64,
    /// Serial work total in cycles; identical across all cells of a workload
    /// (the issue queue prices time, not work).
    pub work_cycles: u64,
    /// Completion time of the overlapped schedule.
    pub makespan_cycles: u64,
    /// Cycles instructions stalled on operand hazards.
    pub dep_stall_cycles: u64,
    /// `work_cycles / makespan_cycles` — the overlap speedup.
    pub overlap_speedup: f64,
}

/// The workloads the pipeline-overlap sweep measures.
const PIPELINE_OVERLAP_WORKLOADS: [Problem; 2] = [Problem::Tc, Problem::Kcc(4)];

/// Runs the pipeline-overlap sweep on one graph: every workload × issue-queue
/// depth × lane count on a flat [`SisaRuntime`]. Graph loading is excluded
/// from the measured cycles (statistics — and the overlap timeline — are
/// reset after the load, matching the flat harnesses).
#[must_use]
pub fn pipeline_overlap_sweep(
    name: &str,
    g: &CsrGraph,
    depths: &[usize],
    lane_counts: &[usize],
    limits: &SearchLimits,
) -> Vec<PipelineOverlapCell> {
    let mut cells = Vec::new();
    for problem in PIPELINE_OVERLAP_WORKLOADS {
        for &depth in depths {
            // A 1-deep queue is provably serial regardless of lane count
            // (pinned by the engine property tests), so the depth-1 row is
            // measured once and replicated across lane counts.
            let mut depth_one: Option<PipelineOverlapCell> = None;
            for &lanes in lane_counts {
                if depth == 1 {
                    if let Some(template) = &depth_one {
                        cells.push(PipelineOverlapCell {
                            lanes,
                            ..template.clone()
                        });
                        continue;
                    }
                }
                let mut rt = SisaRuntime::new(SisaConfig::with_pipeline(depth, lanes));
                let (oriented, _) =
                    setcentric::orient_by_degeneracy(&mut rt, g, &SetGraphConfig::default());
                rt.reset_stats();
                let result = match problem {
                    Problem::Tc => setcentric::triangle_count(&mut rt, &oriented, limits).result,
                    Problem::Kcc(k) => {
                        setcentric::k_clique_count(&mut rt, &oriented, k, limits).result
                    }
                    _ => unreachable!("pipeline-overlap sweep covers tc and kcc only"),
                };
                let stats = rt.stats();
                let cell = PipelineOverlapCell {
                    workload: problem.label(),
                    graph: name.to_string(),
                    depth,
                    lanes,
                    result,
                    work_cycles: stats.total_cycles(),
                    makespan_cycles: stats.makespan_cycles,
                    dep_stall_cycles: stats.dep_stall_cycles,
                    overlap_speedup: stats.overlap_speedup(),
                };
                if depth == 1 {
                    depth_one = Some(cell.clone());
                }
                cells.push(cell);
            }
        }
    }
    cells
}

// ---------------------------------------------------------------------------
// Lane-timeline capture (the `trace_timeline` figure)
// ---------------------------------------------------------------------------

/// Schema version of `results/trace_timeline.json`; bump when a field is
/// added, removed or re-interpreted so downstream tooling can dispatch.
pub const TRACE_TIMELINE_SCHEMA_VERSION: u32 = 2;

/// One captured workload of the `trace_timeline` figure: a kernel run on a
/// flat [`SisaRuntime`] with a
/// [`sisa_core::telemetry::ChromeTraceCollector`] attached at the
/// load/measure boundary, so the recorded lane timeline covers exactly the
/// measured kernel.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimelineSpan {
    /// The workload label (`tc`, `kcc-4`).
    pub workload: String,
    /// The pattern count the traced run produced (tracing never changes
    /// answers).
    pub result: u64,
    /// `ExecStats::makespan_cycles` of the traced run.
    pub makespan_cycles: u64,
    /// The maximum retire cycle over every recorded instruction event —
    /// must equal `makespan_cycles` exactly (the figure's headline claim).
    pub recorded_makespan: u64,
    /// Instruction events recorded on this workload's track group.
    pub instruction_events: usize,
    /// Distinct vault lanes that appear among the recorded events.
    pub lanes_observed: usize,
}

/// The sharded capture of the `trace_timeline` figure: the same collector
/// attached to a [`ShardedEngine`], whose timeline adds one track per
/// `(src, dst)` shard link carrying every priced transfer.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TimelineLinks {
    /// Shard count of the traced engine.
    pub shards: usize,
    /// The traced workload's label.
    pub workload: String,
    /// The pattern count the sharded traced run produced.
    pub result: u64,
    /// Aggregate `ExecStats::makespan_cycles` (per-shard makespans merged as
    /// a max).
    pub makespan_cycles: u64,
    /// Maximum retire cycle over every shard's recorded events — must equal
    /// `makespan_cycles` exactly.
    pub recorded_makespan: u64,
    /// Link-transfer events recorded.
    pub transfer_events: usize,
    /// Total bytes across the recorded transfer events.
    pub transfer_bytes: u64,
    /// `ExecStats::link_bytes` of the traced run — must equal
    /// `transfer_bytes` (every priced crossing is on the timeline).
    pub link_bytes: u64,
}

/// The `results/trace_timeline.json` document the `trace_timeline` binary
/// emits next to its Perfetto-loadable `.trace.json` files.
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct TraceTimeline {
    /// [`TRACE_TIMELINE_SCHEMA_VERSION`] at emission time.
    pub schema_version: u32,
    /// The input graph's registered name.
    pub graph: String,
    /// Number of virtual vault lanes of every traced engine.
    pub lanes: usize,
    /// Issue-queue depth of the traced flat runtime.
    pub window: usize,
    /// Flat-runtime captures, one per workload.
    pub spans: Vec<TimelineSpan>,
    /// The sharded capture with link tracks.
    pub links: TimelineLinks,
    /// Chrome trace-event files written next to this document, relative to
    /// the results directory.
    pub trace_files: Vec<String>,
}

impl TraceTimeline {
    /// Checks the document's internal invariants (the schema validation CI
    /// runs on the emitted artifact). The makespan-fidelity identity —
    /// recorded event span ≡ `makespan_cycles` — is re-checked here, not
    /// only at capture time.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated invariant.
    pub fn validate(&self) -> Result<(), String> {
        if self.schema_version != TRACE_TIMELINE_SCHEMA_VERSION {
            return Err(format!(
                "schema_version {} != supported {TRACE_TIMELINE_SCHEMA_VERSION}",
                self.schema_version
            ));
        }
        if self.lanes == 0 || self.window == 0 {
            return Err("traced configuration is degenerate".into());
        }
        if self.spans.is_empty() {
            return Err("no workload spans were captured".into());
        }
        for span in &self.spans {
            if span.makespan_cycles == 0 || span.instruction_events == 0 {
                return Err(format!("{}: empty capture", span.workload));
            }
            if span.recorded_makespan != span.makespan_cycles {
                return Err(format!(
                    "{}: recorded span {} != makespan {}",
                    span.workload, span.recorded_makespan, span.makespan_cycles
                ));
            }
            if span.lanes_observed == 0 || span.lanes_observed > self.lanes {
                return Err(format!(
                    "{}: {} lanes observed with {} configured",
                    span.workload, span.lanes_observed, self.lanes
                ));
            }
        }
        let links = &self.links;
        if links.shards < 2 {
            return Err("the link capture needs at least 2 shards".into());
        }
        if links.recorded_makespan != links.makespan_cycles {
            return Err(format!(
                "sharded: recorded span {} != makespan {}",
                links.recorded_makespan, links.makespan_cycles
            ));
        }
        if links.transfer_bytes != links.link_bytes {
            return Err(format!(
                "sharded: {} traced transfer bytes != {} priced link bytes",
                links.transfer_bytes, links.link_bytes
            ));
        }
        if links.transfer_events == 0 {
            return Err("sharded: no link transfers were recorded".into());
        }
        if let Some(span) = self.spans.iter().find(|s| s.workload == links.workload) {
            if span.result != links.result {
                return Err(format!(
                    "{}: flat result {} != sharded result {}",
                    links.workload, span.result, links.result
                ));
            }
        }
        if self.trace_files.is_empty() {
            return Err("no Chrome trace files were recorded".into());
        }
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Multi-cube sharding sweep (the `multi_cube` figure)
// ---------------------------------------------------------------------------

/// One measured cell of the multi-cube sweep: a workload executed on a
/// [`ShardedEngine`] with a given shard count and partition strategy
/// (emitted as `results/multi_cube.json` by the `multi_cube` binary).
#[derive(Clone, Debug, PartialEq, Serialize, Deserialize)]
pub struct MultiCubeCell {
    /// The workload label (`tc`, `kcc-4`).
    pub workload: String,
    /// The input graph's registered name.
    pub graph: String,
    /// The partition strategy label.
    pub strategy: String,
    /// Number of shards (vault groups / cubes).
    pub shards: usize,
    /// The algorithm's numeric result (must agree across all cells of a
    /// workload).
    pub result: u64,
    /// Total simulated cycles across all shards, links included (the serial
    /// view).
    pub total_cycles: u64,
    /// The busiest shard's cycles (the multi-cube makespan).
    pub makespan_cycles: u64,
    /// Shard load imbalance (1.0 = perfectly balanced).
    pub imbalance: f64,
    /// Binary operations whose operands lived on different shards.
    pub cross_shard_ops: u64,
    /// Bytes moved over vault/cube links.
    pub cross_shard_bytes: u64,
    /// Cycles spent on link transfers.
    pub link_cycles: u64,
}

/// The workloads the multi-cube sweep measures.
const MULTI_CUBE_WORKLOADS: [Problem; 2] = [Problem::Tc, Problem::Kcc(4)];

/// Runs the multi-cube sweep on one graph: every workload × partition
/// strategy × shard count, on a [`ShardedEngine`]`<`[`SisaRuntime`]`>`.
/// Graph loading is excluded from the measured cycles (statistics are reset
/// after the load, matching the flat harnesses).
#[must_use]
pub fn multi_cube_sweep(
    name: &str,
    g: &CsrGraph,
    shard_counts: &[usize],
    limits: &SearchLimits,
) -> Vec<MultiCubeCell> {
    let mut cells = Vec::new();
    for problem in MULTI_CUBE_WORKLOADS {
        for strategy in PartitionStrategy::ALL {
            for &shards in shard_counts {
                let mut engine = ShardedEngine::sisa(shards, strategy, SisaConfig::default());
                let (oriented, _) =
                    setcentric::orient_by_degeneracy(&mut engine, g, &SetGraphConfig::default());
                engine.reset_stats();
                let result = match problem {
                    Problem::Tc => {
                        setcentric::triangle_count(&mut engine, &oriented, limits).result
                    }
                    Problem::Kcc(k) => {
                        setcentric::k_clique_count(&mut engine, &oriented, k, limits).result
                    }
                    _ => unreachable!("multi-cube sweep covers tc and kcc only"),
                };
                let schedule = engine.schedule();
                let traffic = engine.traffic();
                cells.push(MultiCubeCell {
                    workload: problem.label(),
                    graph: name.to_string(),
                    strategy: strategy.label().to_string(),
                    shards,
                    result,
                    total_cycles: engine.stats().total_cycles(),
                    makespan_cycles: schedule.makespan_cycles,
                    imbalance: schedule.imbalance(),
                    cross_shard_ops: traffic.cross_ops,
                    cross_shard_bytes: traffic.bytes,
                    link_cycles: traffic.cycles,
                });
            }
        }
    }
    cells
}

// ---------------------------------------------------------------------------
// Summaries and output helpers
// ---------------------------------------------------------------------------

/// The paper's two speedup summaries (§9.1 "Performance Measures"):
/// the geometric mean of per-point speedups ("avg-of-speedups") and the ratio
/// of average runtimes ("speedup-of-avgs").
#[must_use]
pub fn speedup_summaries(baseline_cycles: &[u64], sisa_cycles: &[u64]) -> (f64, f64) {
    assert_eq!(baseline_cycles.len(), sisa_cycles.len());
    if baseline_cycles.is_empty() {
        return (1.0, 1.0);
    }
    let mut log_sum = 0.0;
    for (&b, &s) in baseline_cycles.iter().zip(sisa_cycles) {
        log_sum += (b.max(1) as f64 / s.max(1) as f64).ln();
    }
    let avg_of_speedups = (log_sum / baseline_cycles.len() as f64).exp();
    let speedup_of_avgs =
        baseline_cycles.iter().sum::<u64>() as f64 / sisa_cycles.iter().sum::<u64>().max(1) as f64;
    (avg_of_speedups, speedup_of_avgs)
}

/// Formats a simple aligned table.
#[must_use]
pub fn format_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    let mut out = String::new();
    let fmt_row = |cells: &[String], widths: &[usize]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<width$}", c, width = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|s| (*s).to_string()).collect();
    let _ = writeln!(out, "{}", fmt_row(&header_cells, &widths));
    let _ = writeln!(
        out,
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for row in rows {
        let _ = writeln!(out, "{}", fmt_row(row, &widths));
    }
    out
}

/// Machine-readable record of the platform parameters a run used, emitted as
/// `results/platform.json` by `run_all` so figures carry their provenance.
#[derive(Clone, Copy, Debug, Default, PartialEq, Serialize, Deserialize)]
pub struct PlatformSummary {
    /// Baseline out-of-order CPU model.
    pub cpu: CpuConfig,
    /// The SISA hardware platform (PNM + PUM + SCU parameters).
    pub pim: PimPlatform,
    /// Event-based energy model.
    pub energy: EnergyModel,
}

/// Prints `content` and also writes it to `results/<name>.txt` (best effort).
pub fn emit(name: &str, content: &str) {
    emit_to(&results_dir(), name, content);
}

/// Prints `content` and mirrors it to `<dir>/<name>.txt` (best effort).
pub fn emit_to(dir: &std::path::Path, name: &str, content: &str) {
    println!("{content}");
    if std::fs::create_dir_all(dir).is_ok() {
        let _ = std::fs::write(dir.join(format!("{name}.txt")), content);
    }
}

/// Writes `value` as pretty-printed JSON to `results/<name>.json` (best
/// effort) and prints where it went.
pub fn emit_json<T: Serialize>(name: &str, value: &T) {
    let dir = results_dir();
    let path = dir.join(format!("{name}.json"));
    let json = serde_json::to_string_pretty(value).expect("results serialize");
    if std::fs::create_dir_all(&dir).is_ok() && std::fs::write(&path, json).is_ok() {
        println!("Recorded {}", path.display());
    }
}

/// The directory experiment outputs are mirrored to.
#[must_use]
pub fn results_dir() -> PathBuf {
    std::env::var("SISA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| PathBuf::from("results"))
}

/// Whether `--full` was passed (paper-sized budgets instead of quick ones).
#[must_use]
pub fn full_mode() -> bool {
    std::env::args().any(|a| a == "--full")
}

/// The default pattern budget for a problem, scaled down unless `--full`.
#[must_use]
pub fn default_limits(problem: Problem, full: bool) -> SearchLimits {
    let quick = match problem {
        Problem::Tc => 200_000,
        Problem::Kcc(_) | Problem::Ksc(_) => 20_000,
        Problem::Mc => 2_000,
        Problem::ClJac => 50_000,
        Problem::Si4s | Problem::Si4sL => 50_000,
    };
    SearchLimits::patterns(if full { quick * 10 } else { quick })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisa_graph::generators;

    #[test]
    fn all_schemes_agree_on_the_result_and_sisa_beats_the_tuned_baseline() {
        // A Figure-6-scale stand-in (dense clusters, ≈75k edges): at this
        // size the baselines' working sets spill out of the upper cache
        // levels, which is the regime the paper evaluates.
        let g = sisa_graph::datasets::by_name("bn-mouse")
            .expect("registered stand-in")
            .generate(1);
        let mut w = Workload::new(g, 32, SearchLimits::patterns(10_000));
        w.limits = SearchLimits::patterns(10_000);
        for problem in [Problem::Tc, Problem::Kcc(4)] {
            let non_set = run_cell(problem, Scheme::NonSet, &w);
            let set_based = run_cell(problem, Scheme::SetBased, &w);
            let sisa = run_cell(problem, Scheme::Sisa, &w);
            assert_eq!(non_set.result, set_based.result, "{problem:?}");
            assert_eq!(non_set.result, sisa.result, "{problem:?}");
            assert!(
                sisa.cycles < non_set.cycles,
                "{problem:?}: sisa {} vs non-set {}",
                sisa.cycles,
                non_set.cycles
            );
            assert!(set_based.cycles < non_set.cycles, "{problem:?}");
        }
        // On the intersection-heavy kernels SISA also beats the set-based
        // software baseline (Figure 6's headline).
        let tc_set_based = run_cell(Problem::Tc, Scheme::SetBased, &w);
        let tc_sisa = run_cell(Problem::Tc, Scheme::Sisa, &w);
        assert!(tc_sisa.cycles * 2 < tc_set_based.cycles);
    }

    #[test]
    fn speedup_summaries_behave() {
        let (geo, ratio) = speedup_summaries(&[100, 400], &[50, 100]);
        assert!((geo - (2.0f64 * 4.0).sqrt()).abs() < 1e-9);
        assert!((ratio - 500.0 / 150.0).abs() < 1e-9);
        assert_eq!(speedup_summaries(&[], &[]), (1.0, 1.0));
    }

    #[test]
    fn table_formatting_is_aligned() {
        let t = format_table(
            &["graph", "cycles"],
            &[
                vec!["a".into(), "10".into()],
                vec!["bbbb".into(), "2".into()],
            ],
        );
        assert!(t.contains("graph"));
        assert_eq!(t.lines().count(), 4);
    }

    #[test]
    fn problem_labels() {
        assert_eq!(Problem::Kcc(5).label(), "kcc-5");
        assert_eq!(Problem::Si4sL.label(), "si-4s-L");
        assert_eq!(Scheme::Sisa.label(), "sisa");
        assert_eq!(Problem::figure6_panels().len(), 11);
    }

    #[test]
    fn instruction_mix_records_host_kernel_selections() {
        let g = generators::erdos_renyi(120, 0.08, 3);
        let mix = capture_instruction_mix("er-120", &g);
        let total: u64 = mix.host_kernels.values().sum();
        assert!(total > 0, "a tc+bfs trace dispatches host kernels");
        assert!(mix.notes.contains("Host kernel dispatch"));
        for key in ["merge", "gallop", "bitmap"] {
            assert!(mix.host_kernels.contains_key(key), "{key} tally present");
        }
    }

    #[test]
    fn auxiliary_formulations_run() {
        let g = generators::erdos_renyi(100, 0.05, 1);
        let (rounds, reached) = run_auxiliary_formulations(&g);
        assert!(rounds > 0);
        assert!(reached > 1);
    }
}
