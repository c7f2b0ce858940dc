//! Property-based tests pinning telemetry's observer-only contract:
//!
//! 1. **Invariance** — a run with no collector, with [`NoopCollector`] and
//!    with [`ChromeTraceCollector`] attached produces identical observable
//!    results and bit-identical [`ExecStats`] (exact `f64` energy included),
//!    on the flat runtime and on a sharded engine, at depth 1 and at two
//!    pipelined depth × lane geometries.
//! 2. **Makespan fidelity** — the Chrome trace's recorded event span (the
//!    maximum retire cycle over every instruction event) equals
//!    `ExecStats::makespan_cycles` exactly, per engine, which is the claim
//!    the `trace_timeline` figure asserts on a real dataset.

mod common;

use common::{binary, run_steps, Step, A, B};
use proptest::prelude::*;
use sisa_core::scu::BinarySetOp::{Difference, Intersection, Union};
use sisa_core::telemetry::{ChromeTraceCollector, NoopCollector, SharedCollector};
use sisa_core::Dest::{Count, InPlace, New};
use sisa_core::{ExecStats, PartitionStrategy, SetEngine, ShardedEngine, SisaConfig, SisaRuntime};
use sisa_sets::Vertex;
use std::collections::BTreeSet;
use std::sync::{Arc, Mutex};

const UNIVERSE: usize = 128;

fn vertex_set() -> impl Strategy<Value = BTreeSet<Vertex>> {
    common::vertex_set(UNIVERSE, 32)
}

/// The step kinds this suite draws.
const KINDS: &[Step] = &[
    binary(Intersection, A, B, New),
    binary(Union, A, B, New),
    binary(Difference, B, A, New),
    binary(Intersection, A, B, Count),
    binary(Union, A, B, InPlace),
    Step::Insert(0),
    Step::Remove(0),
    Step::CloneAndDelete,
    Step::CreateAndKeep(0),
    Step::HostOps(0),
];

fn step() -> impl Strategy<Value = Step> {
    common::step(UNIVERSE, KINDS)
}

/// Which sink (if any) a run attaches.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Sink {
    None,
    Noop,
    Chrome,
}

/// Runs the workload on a flat runtime with the given sink; returns the
/// observations, the final stats and (for the Chrome sink) the recorded
/// event span.
fn run_flat(
    config: SisaConfig,
    sink: Sink,
    a: &BTreeSet<Vertex>,
    b: &BTreeSet<Vertex>,
    steps: &[Step],
) -> (Vec<Vec<Vertex>>, ExecStats, Option<u64>) {
    let mut engine = SisaRuntime::new(config);
    let trace = attach(sink, |collector| engine.attach_collector(collector, 0));
    let observed = run_steps(&mut engine, UNIVERSE, a, b, steps);
    let span = trace.map(|t| t.lock().unwrap().recorded_makespan());
    (observed, *engine.stats(), span)
}

/// Runs the workload on a 2-shard engine with the given sink.
fn run_sharded(
    config: SisaConfig,
    sink: Sink,
    a: &BTreeSet<Vertex>,
    b: &BTreeSet<Vertex>,
    steps: &[Step],
) -> (Vec<Vec<Vertex>>, ExecStats, Option<u64>) {
    let mut engine = ShardedEngine::sisa(2, PartitionStrategy::Modulo, config);
    let trace = attach(sink, |collector| engine.attach_collector(collector, 0));
    let observed = run_steps(&mut engine, UNIVERSE, a, b, steps);
    let span = trace.map(|t| t.lock().unwrap().recorded_makespan());
    (observed, *engine.stats(), span)
}

fn attach(
    sink: Sink,
    hook: impl FnOnce(SharedCollector),
) -> Option<Arc<Mutex<ChromeTraceCollector>>> {
    match sink {
        Sink::None => None,
        Sink::Noop => {
            hook(SharedCollector::new(NoopCollector));
            None
        }
        Sink::Chrome => {
            let trace = Arc::new(Mutex::new(ChromeTraceCollector::new()));
            hook(SharedCollector::from_arc(trace.clone()));
            Some(trace)
        }
    }
}

fn configs() -> [SisaConfig; 3] {
    [
        SisaConfig::default(),
        SisaConfig::pipelined(8),
        SisaConfig::with_pipeline(16, 4),
    ]
}

proptest! {
    /// (1) + (2) on the flat runtime: collectors never perturb results or
    /// stats, and the Chrome trace's event span is exactly the makespan.
    #[test]
    fn collectors_are_invisible_on_the_flat_runtime(
        a in vertex_set(),
        b in vertex_set(),
        steps in proptest::collection::vec(step(), 1..24),
    ) {
        for config in configs() {
            let (base_obs, base_stats, _) = run_flat(config, Sink::None, &a, &b, &steps);
            for sink in [Sink::Noop, Sink::Chrome] {
                let (obs, stats, span) = run_flat(config, sink, &a, &b, &steps);
                prop_assert_eq!(&base_obs, &obs, "{:?}", sink);
                prop_assert_eq!(&base_stats, &stats, "{:?}", sink);
                prop_assert_eq!(
                    base_stats.energy_nj.to_bits(),
                    stats.energy_nj.to_bits(),
                    "energy must be bit-exact under {:?}", sink
                );
                if let Some(span) = span {
                    prop_assert_eq!(span, stats.makespan_cycles, "event span == makespan");
                }
            }
        }
    }

    /// (1) + (2) on a sharded engine: the conservation identities and the
    /// batch path stay bit-exact with a collector attached, and the
    /// recorded event span over every shard track equals the aggregate
    /// makespan (which merges per-shard makespans as a max).
    #[test]
    fn collectors_are_invisible_on_sharded_engines(
        a in vertex_set(),
        b in vertex_set(),
        steps in proptest::collection::vec(step(), 1..16),
    ) {
        for config in configs() {
            let (base_obs, base_stats, _) = run_sharded(config, Sink::None, &a, &b, &steps);
            for sink in [Sink::Noop, Sink::Chrome] {
                let (obs, stats, span) = run_sharded(config, sink, &a, &b, &steps);
                prop_assert_eq!(&base_obs, &obs, "{:?}", sink);
                prop_assert_eq!(&base_stats, &stats, "{:?}", sink);
                prop_assert_eq!(
                    base_stats.energy_nj.to_bits(),
                    stats.energy_nj.to_bits(),
                    "energy must be bit-exact under {:?}", sink
                );
                if let Some(span) = span {
                    prop_assert_eq!(span, stats.makespan_cycles, "event span == makespan");
                }
            }
        }
    }
}
