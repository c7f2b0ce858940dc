//! The two mining workloads: one caller, a closed loop of jobs on a priced
//! `SisaRuntime`. This is the researcher waiting for a simulation.

use crate::host;
use crate::layers;
use crate::metrics::Values;
use crate::probe::{EngineTime, Probe};
use crate::spans::{Span, SpanLog};
use crate::stats::{self, fastest, percentile};
use crate::{Outcome, RunArgs, Tally};
use sisa_algorithms::setcentric::{k_clique_count, maximal_cliques, triangle_count};
use sisa_algorithms::SearchLimits;
use sisa_core::{
    BatchOp, ChromeTraceCollector, ExecStats, FunctionalEngine, Interpreter, NoopCollector,
    PartitionStrategy, SetEngine, SetGraph, SetGraphConfig, ShardedEngine, SharedCollector,
    SisaConfig, SisaRuntime, StatsScope,
};
use sisa_graph::orientation::{degeneracy_order, DegeneracyOrdering};
use sisa_graph::{datasets, CsrGraph};
use sisa_sets::repr::{kernel_selection_counts, reset_kernel_selection_counts};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// What one mining workload runs: a whole-graph `triangle_count`, then the
/// budgeted searches. The metrics are floors over the jobs of a window, and
/// the shorter a job, the more of them run with the machine undisturbed from
/// start to end; but a budget cuts a search off at a place that depends on
/// which vertices the seed puts first, and a job that is mostly budgeted
/// search differs by a tenth from seed to seed. So the budgets were sized
/// once on the reference box to keep the budgeted part the smaller one: a
/// sparse job is 15 ms, a dense one 70 ms.
pub struct MineSpec {
    /// Workload name.
    pub name: &'static str,
    /// Dataset stand-in.
    pub dataset: &'static str,
    /// Pattern budget of `k_clique_count(k = 4)`.
    pub kclique_budget: u64,
    /// Pattern budget of `maximal_cliques`, if the job runs it.
    pub maximal_budget: Option<u64>,
    /// The estimate of a job's undisturbed time from the jobs of a window
    /// (`stats::fastest` says which suits which length of job).
    pub floor: fn(&[f64]) -> f64,
}

/// Many tiny sets: simulator bookkeeping dominates the job.
pub const SPARSE: MineSpec = MineSpec {
    name: "mine-sparse",
    dataset: "soc-fbMsg",
    kclique_budget: 30_000,
    maximal_budget: Some(1_000),
    floor: stats::fastest_twentieth,
};

/// Near-complete graph, long neighbourhoods: the kernels are half the job.
pub const DENSE: MineSpec = MineSpec {
    name: "mine-dense",
    dataset: "dimacs-c500-9",
    kclique_budget: 100_000,
    maximal_budget: None,
    floor: fastest,
};

/// Fresh set-ups per run; `setup_s` and `cold_ms` are their floors.
const SETUPS: usize = 40;

/// The algorithm calls of a job, as span names.
const STAGES: [&str; 3] = [
    "sisa-algorithms.triangle_count",
    "sisa-algorithms.k_clique_count",
    "sisa-algorithms.maximal_cliques",
];

/// A graph loaded into an engine's sets.
struct Loaded {
    oriented: SetGraph,
    undirected: Option<SetGraph>,
    ordering: DegeneracyOrdering,
}

/// Host time of the parts of one load.
#[derive(Clone, Copy, Default)]
struct LoadTimes {
    orient_ms: f64,
    load_ms: f64,
}

/// Orients `g` by degeneracy and loads it (the steps of
/// `orient_by_degeneracy`, taken one at a time so each can be timed), plus
/// the undirected load `maximal_cliques` needs.
fn load<E: SetEngine>(engine: &mut E, g: &CsrGraph, spec: &MineSpec) -> (Loaded, LoadTimes) {
    let cfg = SetGraphConfig::default();
    let started = Instant::now();
    let ordering = degeneracy_order(g);
    let oriented_csr = ordering.orient(g);
    let orient_ms = ms_since(started);
    let started = Instant::now();
    let oriented = SetGraph::load(engine, &oriented_csr, &cfg);
    let undirected = spec.maximal_budget.map(|_| SetGraph::load(engine, g, &cfg));
    let load_ms = ms_since(started);
    (
        Loaded {
            oriented,
            undirected,
            ordering,
        },
        LoadTimes { orient_ms, load_ms },
    )
}

/// Runs stage `stage` of a job; `None` when the workload's job has no such
/// stage.
fn run_stage<E: SetEngine>(
    engine: &mut E,
    l: &Loaded,
    spec: &MineSpec,
    stage: usize,
) -> Option<u64> {
    match stage {
        0 => Some(triangle_count(engine, &l.oriented, &SearchLimits::unlimited()).result),
        1 => Some(
            k_clique_count(
                engine,
                &l.oriented,
                4,
                &SearchLimits::patterns(spec.kclique_budget),
            )
            .result,
        ),
        _ => {
            let (budget, g) = (spec.maximal_budget?, l.undirected.as_ref()?);
            let run = maximal_cliques(
                engine,
                g,
                &l.ordering,
                &SearchLimits::patterns(budget),
                false,
            );
            Some(run.result.count)
        }
    }
}

/// The answers of one job, stage by stage (0 for an absent stage).
type Answers = [u64; 3];

/// One job: every stage in order. Returns the answers and each stage's wall
/// time in nanoseconds.
fn run_job<E: SetEngine>(engine: &mut E, l: &Loaded, spec: &MineSpec) -> (Answers, [u64; 3]) {
    let mut answers = [0; 3];
    let mut ns = [0; 3];
    for stage in 0..3 {
        let started = Instant::now();
        if let Some(answer) = run_stage(engine, l, spec, stage) {
            answers[stage] = answer;
            ns[stage] = started.elapsed().as_nanos() as u64;
        }
    }
    (answers, ns)
}

fn ms_since(started: Instant) -> f64 {
    started.elapsed().as_secs_f64() * 1e3
}

/// Host time of one fresh set-up and of its parts.
#[derive(Clone, Copy)]
struct SetupSample {
    total_s: f64,
    generate_ms: f64,
    times: LoadTimes,
    cold_job_ms: f64,
}

/// A runtime with the graph loaded and one job behind it.
struct Ready {
    rt: SisaRuntime,
    loaded: Loaded,
}

/// One fresh set-up: generate, orient, load, one warm-up job.
fn set_up(spec: &MineSpec, seed: u64) -> (SetupSample, Ready, Answers) {
    let started = Instant::now();
    let g = generate(spec, seed);
    let generate_ms = ms_since(started);
    let mut rt = SisaRuntime::new(SisaConfig::default());
    let (loaded, times) = load(&mut rt, &g, spec);
    let job = Instant::now();
    let (answers, _) = run_job(&mut rt, &loaded, spec);
    let sample = SetupSample {
        total_s: started.elapsed().as_secs_f64(),
        generate_ms,
        times,
        cold_job_ms: ms_since(job),
    };
    (sample, Ready { rt, loaded }, answers)
}

fn generate(spec: &MineSpec, seed: u64) -> CsrGraph {
    datasets::by_name(spec.dataset)
        .expect("a dataset of the registry")
        .generate(seed)
}

/// Checks the answers of one job against the oracle's.
fn check(tally: &mut Tally, got: &Answers, want: &Answers) {
    tally.note(got == want, || {
        format!("wrong answer: got {got:?}, expected {want:?}")
    });
}

/// The oracle: the job on a cost-free `FunctionalEngine`.
fn expected(spec: &MineSpec, g: &CsrGraph) -> Answers {
    let mut engine = FunctionalEngine::new();
    let (loaded, _) = load(&mut engine, g, spec);
    run_job(&mut engine, &loaded, spec).0
}

/// `n` fresh set-ups, each checked against the oracle. Returns the last one
/// warm, its simulated statistics reset, and every sample.
fn set_ups(
    spec: &MineSpec,
    seed: u64,
    n: usize,
    want: &Answers,
    tally: &mut Tally,
) -> (Ready, Vec<SetupSample>) {
    let mut samples = Vec::with_capacity(n);
    let mut kept = None;
    for _ in 0..n {
        let (sample, ready, answers) = set_up(spec, seed);
        check(tally, &answers, want);
        samples.push(sample);
        kept = Some(ready);
    }
    let mut kept = kept.expect("at least one set-up");
    kept.rt.reset_stats();
    (kept, samples)
}

/// Runs `spec` as the contract asks: end-to-end metrics with tracing off,
/// per-layer metrics with tracing on.
pub fn run(spec: &MineSpec, args: &RunArgs) -> Outcome {
    if args.trace {
        run_traced(spec, args)
    } else {
        run_untraced(spec, args)
    }
}

fn run_untraced(spec: &MineSpec, args: &RunArgs) -> Outcome {
    let mut tally = Tally::default();
    let want = expected(spec, &generate(spec, args.seed));
    let (mut kept, mut setups) = set_ups(spec, args.seed, 1, &want, &mut tally);

    // The timed window: jobs back to back, one caller. The other fresh
    // set-ups are spread evenly through it (their time is not window time),
    // so that one slow stretch of the machine cannot hold all of them.
    let window = Duration::from_secs_f64(args.seconds);
    let every = window / SETUPS as u32;
    let instr_before = kept.rt.stats().total_instructions();
    let mut job_ms = Vec::new();
    let mut stage_ms: [Vec<f64>; 3] = Default::default();
    let mut measured = Duration::ZERO;
    while measured < window {
        if measured >= every * setups.len() as u32 {
            let (sample, _, answers) = set_up(spec, args.seed);
            check(&mut tally, &answers, &want);
            setups.push(sample);
        }
        let started = Instant::now();
        let (answers, ns) = run_job(&mut kept.rt, &kept.loaded, spec);
        measured += started.elapsed();
        check(&mut tally, &answers, &want);
        job_ms.push(ns.iter().sum::<u64>() as f64 / 1e6);
        for (stage, ns) in stage_ms.iter_mut().zip(ns) {
            stage.push(ns as f64 / 1e6);
        }
    }
    let jobs = job_ms.len();
    let instr_per_job = (kept.rt.stats().total_instructions() - instr_before) / jobs.max(1) as u64;
    let job_floor = (spec.floor)(&job_ms);
    let stage_floor = stage_ms.each_ref().map(|ms| (spec.floor)(ms));

    let mut values = Values::default();
    values.set("setup_s", fastest(&field(&setups, |s| s.total_s)));
    values.set("primary_ms", job_floor);
    values.set("secondary_ms", stage_floor[0]);
    values.set("cold_ms", fastest(&field(&setups, |s| s.cold_job_ms)));
    // Simulated instructions per host second, at the undisturbed job.
    values.set("throughput", instr_per_job as f64 / (job_floor / 1e3));
    values.set("peak_rss_mb", host::peak_rss_mib());
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        notes: vec![
            format!(
                "jobs {jobs}, set-ups {}, instructions per job {instr_per_job}",
                setups.len()
            ),
            format!(
                "budgets: kclique {}, maximal {:?}; floor of each call, ms: {stage_floor:?}",
                spec.kclique_budget, spec.maximal_budget
            ),
            format!("job, ms: {}", stats::summary(&job_ms)),
        ],
    }
}

fn field(setups: &[SetupSample], f: impl Fn(&SetupSample) -> f64) -> Vec<f64> {
    setups.iter().map(f).collect()
}

/// Runs jobs on `engine` for `window`, returning each job's milliseconds.
fn jobs_for<E: SetEngine>(
    engine: &mut E,
    l: &Loaded,
    spec: &MineSpec,
    want: &Answers,
    tally: &mut Tally,
    window: Duration,
) -> Vec<f64> {
    let mut job_ms = Vec::new();
    let started = Instant::now();
    while started.elapsed() < window || job_ms.len() < 3 {
        let (answers, ns) = run_job(engine, l, spec);
        check(tally, &answers, want);
        job_ms.push(ns.iter().sum::<u64>() as f64 / 1e6);
    }
    job_ms
}

/// Spans kept per traced run: every job and algorithm call, and the engine
/// calls of the first job up to this many.
const SPAN_CAP: usize = 60_000;

fn run_traced(spec: &MineSpec, args: &RunArgs) -> Outcome {
    let calib_before = host::calibration_spin_ms();
    let mut tally = Tally::default();
    let cfg = SisaConfig::default();
    let g = generate(spec, args.seed);
    let want = expected(spec, &g);
    let part = |share: f64| Duration::from_secs_f64(args.seconds * share);
    let mut values = Values::default();

    // Set-up parts, from a few fresh set-ups.
    let (mut kept, setups) = set_ups(spec, args.seed, 5, &want, &mut tally);
    values.set(
        "sisa-graph.generate_ms",
        fastest(&field(&setups, |s| s.generate_ms)),
    );
    values.set(
        "sisa-graph.orient_ms",
        fastest(&field(&setups, |s| s.times.orient_ms)),
    );
    values.set(
        "sisa-core.setgraph_load_ms",
        fastest(&field(&setups, |s| s.times.load_ms)),
    );

    // Exact simulated figures: the StatsScope delta of the first job after
    // the warm-up job and `reset_stats`, equal on a second runtime set up
    // the same way. (Two jobs of one runtime are not like for like: host
    // scalar work is charged at half a cycle, so the carry alternates, and
    // the energy sum starts from a different float.)
    let (_, mut twin, _) = set_up(spec, args.seed);
    twin.rt.reset_stats();
    let mut deltas: Vec<ExecStats> = Vec::new();
    for ready in [&mut kept, &mut twin] {
        let scope = StatsScope::begin(ready.rt.stats());
        let (answers, _) = run_job(&mut ready.rt, &ready.loaded, spec);
        check(&mut tally, &answers, &want);
        deltas.push(scope.finish(ready.rt.stats()));
    }
    drop(twin);
    tally.note(
        deltas[0] == deltas[1] && deltas[0].energy_nj.to_bits() == deltas[1].energy_nj.to_bits(),
        || "simulated statistics of two like jobs differ".to_string(),
    );
    let sim = &deltas[0];
    let instr = sim.total_instructions();
    set_simulated(&mut values, sim);

    // Untraced baseline on the priced runtime.
    let base_ms = jobs_for(
        &mut kept.rt,
        &kept.loaded,
        spec,
        &want,
        &mut tally,
        part(0.2),
    );
    let base_job_ms = fastest(&base_ms);
    let mut sorted = base_ms.clone();
    stats::sort(&mut sorted);
    values.set("diag.job_p95_ms", percentile(&sorted, 0.95));
    values.set(
        "sisa-core.runtime_ns_per_instr",
        base_job_ms * 1e6 / instr as f64,
    );

    // Kernel selections of one job (exact).
    reset_kernel_selection_counts();
    let (answers, _) = run_job(&mut kept.rt, &kept.loaded, spec);
    check(&mut tally, &answers, &want);
    let picks = kernel_selection_counts();
    values.set("sisa-sets.select_merge", picks.merge as f64);
    values.set("sisa-sets.select_gallop", picks.gallop as f64);
    values.set("sisa-sets.select_bitmap", picks.bitmap as f64);

    // Collector overhead: the same jobs with each collector attached.
    for (name, collector) in [
        (
            "sisa-core.collector_noop_share",
            SharedCollector::new(NoopCollector),
        ),
        (
            "sisa-core.collector_chrome_share",
            SharedCollector::new(ChromeTraceCollector::new()),
        ),
    ] {
        kept.rt.attach_collector(collector, 0);
        let ms = jobs_for(
            &mut kept.rt,
            &kept.loaded,
            spec,
            &want,
            &mut tally,
            part(0.04),
        );
        // Dropping the detached collector frees the events it recorded.
        drop(kept.rt.detach_collector());
        values.set(name, fastest(&ms) / base_job_ms - 1.0);
    }

    // The traced phase: the same runtime behind a span-recording probe.
    let Ready { rt, loaded } = kept;
    let mut probe = Probe::new(rt);
    probe.time_calls();
    let base = Instant::now();
    probe.attach_spans(SpanLog::with_capacity(SPAN_CAP), base);
    let mut traced_ms = Vec::new();
    let mut control_ns_per_call = Vec::new();
    let mut calls_per_job = 0;
    let window = part(0.2);
    let started = Instant::now();
    let mut job_id = 0u64;
    while started.elapsed() < window || job_id < 3 {
        let (answers, job_ns, engine) = traced_job(&mut probe, &loaded, spec, base, job_id);
        check(&mut tally, &answers, &want);
        traced_ms.push(job_ns as f64 / 1e6);
        control_ns_per_call.push(job_ns.saturating_sub(engine.ns) as f64 / engine.calls as f64);
        calls_per_job = engine.calls;
        job_id += 1;
    }
    let log = probe.take_spans().expect("spans were attached");
    let self_ns: Vec<(&str, u64)> = log
        .self_time_by_name()
        .into_iter()
        .filter(|(name, _)| !name.starts_with("sisa-core."))
        .collect();
    let traced_job_ms = fastest(&traced_ms);
    // What the probe itself adds outside the timed part of a call is not
    // the algorithm's time.
    let control =
        (fastest(&control_ns_per_call) - Probe::<FunctionalEngine>::untimed_overhead_ns()).max(0.0);
    values.set("trace.overhead_share", traced_job_ms / base_job_ms - 1.0);
    values.set("sisa-algorithms.control_ns_per_call", control);
    values.set("sisa-algorithms.engine_calls_per_job", calls_per_job as f64);
    let trace_path = args.out_dir.join(format!("trace-{}.json", spec.name));
    if let Err(e) = log.write_json(&trace_path, spec.name, args.seed) {
        eprintln!("could not write {}: {e}", trace_path.display());
    }

    // Capture one job's operand stream, then replay it per component.
    probe.start_capture();
    let (answers, _) = run_job(&mut probe, &loaded, spec);
    check(&mut tally, &answers, &want);
    let capture = probe.take_capture();
    drop(probe);
    let binary_per_job = capture.binary_ops as f64;
    let replayed = layers::Replayed::of(&capture, &cfg);

    // Substitution: the same job on other engines.
    let mut functional = FunctionalEngine::new();
    let (f_loaded, _) = load(&mut functional, &g, spec);
    let f_ms = jobs_for(
        &mut functional,
        &f_loaded,
        spec,
        &want,
        &mut tally,
        part(0.08),
    );
    let functional_ns = fastest(&f_ms) * 1e6 / instr as f64;
    values.set("sisa-core.functional_ns_per_op", functional_ns);
    values.set(
        "sisa-core.pricing_ns_per_instr",
        base_job_ms * 1e6 / instr as f64 - functional_ns,
    );
    drop(functional);

    let mut sharded = ShardedEngine::sisa(4, PartitionStrategy::Modulo, cfg);
    let (s_loaded, _) = load(&mut sharded, &g, spec);
    let s_ms = jobs_for(&mut sharded, &s_loaded, spec, &want, &mut tally, part(0.08));
    values.set(
        "sisa-core.sharded_ns_per_instr",
        fastest(&s_ms) * 1e6 / instr as f64,
    );

    // The batch path against the unpriced host layer, on the same BatchOps
    // (the triangle count's one intersect-count per oriented edge).
    let ops: Vec<BatchOp> = s_loaded
        .oriented
        .vertices()
        .flat_map(|v| {
            let nv = s_loaded.oriented.neighborhood(v);
            s_loaded
                .oriented
                .neighbors(v)
                .iter()
                .map(move |&w| (nv, w))
                .collect::<Vec<_>>()
        })
        .map(|(nv, w)| BatchOp::IntersectCount(nv, s_loaded.oriented.neighborhood(w)))
        .collect();
    let mut execute_ns = Vec::new();
    let mut host_batch_ns = Vec::new();
    for _ in 0..5 {
        let started = Instant::now();
        let priced: u64 = sharded
            .execute(&ops)
            .into_iter()
            .map(|r| r.count() as u64)
            .sum();
        execute_ns.push(started.elapsed().as_nanos() as f64 / ops.len() as f64);
        let started = Instant::now();
        let raw: u64 = sharded
            .host_count_batch(&ops)
            .into_iter()
            .map(|c| c as u64)
            .sum();
        host_batch_ns.push(started.elapsed().as_nanos() as f64 / ops.len() as f64);
        for (path, got) in [("execute", priced), ("host_count_batch", raw)] {
            tally.note(got == want[0], || {
                format!("{path} counted {got}, expected {}", want[0])
            });
        }
    }
    values.set("sisa-core.execute_ns_per_op", fastest(&execute_ns));
    values.set("sisa-core.host_batch_ns_per_op", fastest(&host_batch_ns));
    drop(sharded);

    // The job's program through the ISA codec, and through the interpreter.
    let mut recorder = SisaRuntime::new(cfg);
    recorder.enable_trace(4_000_000);
    let (r_loaded, _) = load(&mut recorder, &g, spec);
    let (answers, _) = run_job(&mut recorder, &r_loaded, spec);
    check(&mut tally, &answers, &want);
    let sink = recorder.take_trace().expect("tracing was enabled");
    drop(recorder);
    let (encode_ns, decode_ns) = layers::isa(&sink.program());
    values.set("sisa-isa.encode_ns_per_instr", encode_ns);
    values.set("sisa-isa.decode_ns_per_instr", decode_ns);
    let mut replay_ns = Vec::new();
    for _ in 0..3 {
        let mut target = SisaRuntime::new(cfg);
        let started = Instant::now();
        let report = Interpreter::replay(&sink, &mut target);
        replay_ns.push(started.elapsed().as_nanos() as f64 / report.instructions.max(1) as f64);
        black_box(target.stats().makespan_cycles);
    }
    values.set("sisa-core.replay_ns_per_instr", fastest(&replay_ns));

    // StatsScope: open and close one around nothing.
    let scoped = SisaRuntime::new(cfg);
    let rounds = 20_000;
    let started = Instant::now();
    for _ in 0..rounds {
        let scope = StatsScope::begin(scoped.stats());
        black_box(scope.finish(scoped.stats()));
    }
    values.set(
        "sisa-core.stats_scope_ns",
        started.elapsed().as_nanos() as f64 / f64::from(rounds),
    );

    let job_ns = base_job_ms * 1e6;
    values.set("sisa-sets.kernel_ns_per_op", replayed.kernel);
    values.set(
        "sisa-sets.kernel_share",
        replayed.kernel * binary_per_job / job_ns,
    );
    // Operand elements per second through the kernels (computed from the
    // operand sizes, not measured memory traffic).
    values.set(
        "sisa-sets.melem_per_s",
        replayed.elements_per_op / replayed.kernel * 1e3,
    );
    values.set("sisa-pim.price_ns_per_call", replayed.price);
    values.set("sisa-core.issue_ns_per_instr", replayed.issue);
    values.set("sisa-core.scu_ns_per_instr", replayed.scu);
    values.set("sisa-core.pipeline_ns_per_instr", replayed.pipeline);
    values.set("sisa-core.scoreboard_ns_per_instr", replayed.scoreboard);

    // Where the job's time went: algorithm self time, kernels, and the three
    // replayed stages of an instruction. What is left is the runtime's glue
    // between them (metadata table, set slots, statistics).
    let attributed = control * calls_per_job as f64
        + replayed.kernel * binary_per_job
        + (replayed.issue + replayed.scu) * layers::instruction_count(&capture) as f64
        + replayed.pipeline * capture.calls.len() as f64;
    values.set("budget.unattributed_share", (job_ns - attributed) / job_ns);

    let calib_after = host::calibration_spin_ms();
    values.set("loadgen.calib_drift", calib_after / calib_before - 1.0);
    Outcome {
        attempted: tally.attempted,
        failed: tally.failed,
        values,
        notes: vec![
            format!(
                "untraced jobs {}, traced jobs {}, spans {} (dropped {}), trace file {}",
                base_ms.len(),
                traced_ms.len(),
                log.spans().len(),
                log.dropped(),
                trace_path.display()
            ),
            format!(
                "per job: {instr} instructions, {calls_per_job} engine calls, {binary_per_job} binary operations"
            ),
            format!(
                "diag.job_p95_ms has {} samples beyond it",
                stats::samples_beyond(base_ms.len(), 0.95)
            ),
            format!(
                "self time over the recorded spans, ns (engine-call spans cover job 0 up to {} spans): {:?}",
                crate::probe::CALL_SPAN_LIMIT,
                self_ns
            ),
        ],
    }
}

/// One job behind the probe, with a span per job and per algorithm call; on
/// the first job also one per engine call. Returns the answers, the job's
/// wall nanoseconds and its engine time.
fn traced_job(
    probe: &mut Probe<SisaRuntime>,
    l: &Loaded,
    spec: &MineSpec,
    base: Instant,
    job_id: u64,
) -> (Answers, u64, EngineTime) {
    let now = |base: Instant| base.elapsed().as_nanos() as u64;
    let mut answers = [0; 3];
    let mut engine = EngineTime::default();
    let job_start = now(base);
    let job_span = probe.spans_mut().and_then(|log| {
        log.push(Span {
            name: "job",
            trace_id: job_id,
            parent: None,
            start_ns: job_start,
            end_ns: job_start,
        })
    });
    probe.take_time();
    for (stage, name) in STAGES.iter().enumerate() {
        let start_ns = now(base);
        let span = probe.spans_mut().and_then(|log| {
            log.push(Span {
                name,
                trace_id: job_id,
                parent: job_span,
                start_ns,
                end_ns: start_ns,
            })
        });
        if job_id == 0 {
            probe.record_calls_under(span.map(|s| (s, job_id)));
        }
        let answer = run_stage(probe, l, spec, stage);
        probe.record_calls_under(None);
        let end_ns = now(base);
        let time = probe.take_time();
        engine.calls += time.calls;
        engine.ns += time.ns;
        if let (Some(span), Some(log)) = (span, probe.spans_mut()) {
            log.close(span, end_ns);
        }
        answers[stage] = answer.unwrap_or(0);
    }
    let job_end = now(base);
    if let (Some(span), Some(log)) = (job_span, probe.spans_mut()) {
        log.close(span, job_end);
    }
    (answers, job_end - job_start, engine)
}

/// The simulated lines of one job's statistics delta.
pub(crate) fn set_simulated(values: &mut Values, sim: &ExecStats) {
    let instr = sim.total_instructions();
    values.set("sisa-pim.makespan_cycles", sim.makespan_cycles as f64);
    values.set("sisa-pim.instructions", instr as f64);
    values.set("sisa-pim.scu_cycles", sim.scu_cycles as f64);
    values.set("sisa-pim.pum_cycles", sim.pum_cycles as f64);
    values.set("sisa-pim.pnm_cycles", sim.pnm_cycles as f64);
    values.set("sisa-pim.host_cycles", sim.host_cycles as f64);
    values.set("sisa-pim.link_cycles", sim.link_cycles as f64);
    values.set("sisa-pim.dep_stall_cycles", sim.dep_stall_cycles as f64);
    values.set("sisa-pim.pum_ops", sim.pum_ops as f64);
    values.set("sisa-pim.pnm_ops", sim.pnm_ops as f64);
    values.set("sisa-pim.smb_hit_ratio", sim.smb_hit_ratio());
    values.set("sisa-pim.energy_nj", sim.energy_nj);
    if sim.makespan_cycles > 0 {
        values.set("sisa-pim.ipc", instr as f64 / sim.makespan_cycles as f64);
    }
}
