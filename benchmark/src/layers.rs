//! Host time of single simulator components, measured by replay: the operand
//! stream a job produced (captured by [`crate::probe::Probe`]) is pushed
//! through each public component on its own, in a loop of the benchmark's
//! making. Nothing here is a timer inside the program.
//!
//! Every function returns nanoseconds per processed item, of the fastest of
//! a few passes (`stats::fastest` says why).

use crate::probe::{Call, Capture, Form, OperandPair};
use crate::stats::fastest;
use sisa_core::scu::BinarySetOp;
use sisa_core::{
    IssueQueue, LaneKind, RegisterFile, Scoreboard, Scu, SetId, SisaConfig, WriteIntent,
};
use sisa_isa::{SisaOpcode, SisaProgram};
use sisa_pim::{PnmModel, PumModel};
use sisa_sets::RepresentationKind;
use std::hint::black_box;
use std::time::Instant;

/// Passes per replay; the fastest pass is reported.
const PASSES: usize = 7;

/// Nanoseconds per item in the fastest of `PASSES` runs of `pass`, which
/// returns (nanoseconds, items).
pub fn per_item(mut pass: impl FnMut() -> (u64, u64)) -> f64 {
    let samples: Vec<f64> = (0..PASSES)
        .map(|_| {
            let (ns, items) = pass();
            ns as f64 / items.max(1) as f64
        })
        .collect();
    fastest(&samples)
}

fn elapsed_ns(started: Instant) -> u64 {
    started.elapsed().as_nanos() as u64
}

/// The opcode the runtime issues for a binary operation.
fn binary_opcode(op: BinarySetOp, form: Form) -> SisaOpcode {
    match (op, form == Form::Count) {
        (BinarySetOp::Intersection, false) => SisaOpcode::IntersectAuto,
        (BinarySetOp::Union, false) => SisaOpcode::UnionAuto,
        (BinarySetOp::Difference, false) => SisaOpcode::DifferenceAuto,
        (BinarySetOp::Intersection, true) => SisaOpcode::IntersectCountAuto,
        (BinarySetOp::Union, true) => SisaOpcode::UnionCountAuto,
        (BinarySetOp::Difference, true) => SisaOpcode::DifferenceCountAuto,
    }
}

/// `sisa-sets`: the captured operand pairs through the `SetRepr` kernels.
/// Returns (ns per operation, operand elements per operation).
#[must_use]
pub fn kernels(pairs: &[OperandPair]) -> (f64, f64) {
    let elements: usize = pairs.iter().map(|p| p.a.len() + p.b.len()).sum();
    let ns = per_item(|| {
        let started = Instant::now();
        for p in pairs {
            match (p.op, p.count_only) {
                (BinarySetOp::Intersection, true) => {
                    black_box(p.a.intersect_count(&p.b));
                }
                (BinarySetOp::Union, true) => {
                    black_box(p.a.union_count(&p.b));
                }
                (BinarySetOp::Difference, true) => {
                    black_box(p.a.difference_count(&p.b));
                }
                (BinarySetOp::Intersection, false) => {
                    black_box(p.a.intersect(&p.b));
                }
                (BinarySetOp::Union, false) => {
                    black_box(p.a.union(&p.b));
                }
                (BinarySetOp::Difference, false) => {
                    black_box(p.a.difference(&p.b));
                }
            }
        }
        (elapsed_ns(started), pairs.len() as u64)
    });
    (ns, elements as f64 / pairs.len().max(1) as f64)
}

/// `sisa-isa`: encode and decode of the job's program, ns per instruction.
#[must_use]
pub fn isa(program: &SisaProgram) -> (f64, f64) {
    let n = program.len() as u64;
    let encode = per_item(|| {
        let started = Instant::now();
        black_box(program.encode());
        (elapsed_ns(started), n)
    });
    let words = program.encode();
    let decode = per_item(|| {
        let started = Instant::now();
        black_box(SisaProgram::decode(&words).expect("an encoded program decodes"));
        (elapsed_ns(started), n)
    });
    (encode, decode)
}

/// `sisa-pim`: the PUM/PNM cost functions the SCU consults, on the operand
/// sizes of every captured binary operation; ns per operation priced.
#[must_use]
pub fn price(calls: &[Call], cfg: &SisaConfig) -> f64 {
    let pnm = PnmModel::new(cfg.platform.pnm);
    let pum = PumModel::new(cfg.platform.pum);
    per_item(|| {
        let mut priced = 0u64;
        let started = Instant::now();
        for call in calls {
            let Call::Binary {
                op, form, ma, mb, ..
            } = call
            else {
                continue;
            };
            priced += 1;
            let bits = ma.universe.max(mb.universe);
            let dense = |k| k == RepresentationKind::DenseBitvector;
            let cycles = match (dense(ma.kind), dense(mb.kind)) {
                (true, true) => {
                    let bulk = op.bulk_op();
                    if *form == Form::Count {
                        pum.bulk_op_count_cost(bulk, bits) + pum.row_activations(bulk, bits)
                    } else {
                        pum.bulk_op_cost(bulk, bits) + pum.row_activations(bulk, bits)
                    }
                }
                (true, false) => pnm.probe_cost(mb.cardinality, bits),
                (false, true) => pnm.probe_cost(ma.cardinality, bits),
                // The performance-model selection prices both variants.
                (false, false) => pnm
                    .streaming_cost(ma.cardinality, mb.cardinality)
                    .min(pnm.random_access_cost(ma.cardinality, mb.cardinality)),
            };
            black_box(cycles);
        }
        (elapsed_ns(started), priced)
    })
}

/// `sisa-core::issue`: `RegisterFile::issue_*` for every instruction.
#[must_use]
pub fn issue(calls: &[Call]) -> f64 {
    per_item(|| {
        let mut regs = RegisterFile::new();
        let mut issued = 0u64;
        let started = Instant::now();
        for call in calls {
            if !call.is_instruction() {
                continue;
            }
            issued += 1;
            match call {
                Call::Binary {
                    op,
                    form,
                    a,
                    b,
                    dst,
                    ..
                } => {
                    black_box(regs.issue_binary(binary_opcode(*op, *form), *a, *b, *dst));
                }
                Call::Element { opcode, id, .. } => {
                    black_box(regs.issue_element(*opcode, *id));
                }
                Call::Create { id } => {
                    black_box(regs.issue_lifecycle(SisaOpcode::CreateSet, None, Some(*id)));
                }
                Call::Clone { src, dst } => {
                    black_box(regs.issue_lifecycle(SisaOpcode::CloneSet, Some(*src), Some(*dst)));
                }
                Call::Delete { id } => {
                    black_box(regs.issue_lifecycle(SisaOpcode::DeleteSet, Some(*id), None));
                    regs.release(*id);
                }
                Call::Cardinality { id } => {
                    black_box(regs.issue_lifecycle(SisaOpcode::Cardinality, Some(*id), None));
                }
                Call::Members { .. } | Call::HostOps(_) => {}
            }
        }
        (elapsed_ns(started), issued)
    })
}

/// `sisa-core::scu`: `Scu::dispatch_*` for every instruction. Also returns
/// the latency each instruction was priced at, for the pipeline replay.
#[must_use]
pub fn scu(calls: &[Call], cfg: &SisaConfig) -> (f64, Vec<u64>) {
    let mut latencies = Vec::new();
    let ns = per_item(|| {
        let mut scu = Scu::new(cfg.platform, cfg.variant_selection);
        latencies.clear();
        let mut dispatched = 0u64;
        let started = Instant::now();
        for call in calls {
            let latency = match call {
                Call::Binary {
                    op,
                    form,
                    a,
                    b,
                    ma,
                    mb,
                    ..
                } => scu
                    .dispatch_binary(*op, *form == Form::Count, *a, ma, *b, mb)
                    .latency(),
                Call::Element { id, meta, .. } => scu.dispatch_element(*id, meta).latency(),
                Call::Create { id } => {
                    let latency = scu.dispatch_metadata(&[*id]).latency();
                    scu.prime(*id);
                    latency
                }
                Call::Clone { src, dst } => {
                    let latency = scu.dispatch_metadata(&[*src, *dst]).latency();
                    scu.prime(*dst);
                    latency
                }
                Call::Delete { id } => {
                    let latency = scu.dispatch_metadata(&[*id]).latency();
                    scu.invalidate(*id);
                    latency
                }
                Call::Cardinality { id } => scu.dispatch_metadata(&[*id]).latency(),
                Call::Members { .. } | Call::HostOps(_) => {
                    latencies.push(0);
                    continue;
                }
            };
            dispatched += 1;
            latencies.push(latency);
        }
        (elapsed_ns(started), dispatched)
    });
    (ns, latencies)
}

/// What an instruction reads and writes, as the runtime tells its timeline.
fn hazards(call: &Call) -> (Vec<SetId>, Vec<SetId>, WriteIntent) {
    match call {
        Call::Binary { a, b, dst, .. } => (
            vec![*a, *b],
            dst.iter().copied().collect(),
            WriteIntent::Produce,
        ),
        Call::Element { opcode, id, .. } => {
            let writes = if *opcode == SisaOpcode::Membership {
                vec![]
            } else {
                vec![*id]
            };
            (vec![*id], writes, WriteIntent::Produce)
        }
        Call::Create { id } => (vec![], vec![*id], WriteIntent::Produce),
        Call::Clone { src, dst } => (vec![*src], vec![*dst], WriteIntent::Produce),
        Call::Delete { id } => (vec![], vec![*id], WriteIntent::Release),
        Call::Cardinality { id } | Call::Members { id, .. } => {
            (vec![*id], vec![], WriteIntent::Produce)
        }
        Call::HostOps(_) => (vec![], vec![], WriteIntent::Produce),
    }
}

/// The captured calls as timeline items: lane, cycles, reads, writes.
type TimelineItem = (LaneKind, u64, Vec<SetId>, Vec<SetId>, WriteIntent);

fn timeline_items(calls: &[Call], latencies: &[u64], cfg: &SisaConfig) -> Vec<TimelineItem> {
    let mut pending = 0.0f64;
    let mut items = Vec::with_capacity(calls.len());
    for (call, &latency) in calls.iter().zip(latencies) {
        let (reads, writes, intent) = hazards(call);
        match call {
            Call::HostOps(n) => {
                pending += *n as f64 * cfg.host_op_cost;
                let whole = pending.floor();
                if whole >= 1.0 {
                    pending -= whole;
                    items.push((LaneKind::Host, whole as u64, reads, writes, intent));
                }
            }
            // The read-out streams through a vault lane; its size stands in
            // for the streaming cost.
            Call::Members { len, .. } => {
                items.push((LaneKind::Vault, *len as u64, reads, writes, intent));
            }
            _ => items.push((LaneKind::Vault, latency, reads, writes, intent)),
        }
    }
    items
}

/// `sisa-core::pipeline`: `IssueQueue::issue_op` for every timeline item
/// (which includes its scoreboard), and `sisa-core::scoreboard` alone:
/// `ready_at` + `record` per item. Returns (pipeline ns, scoreboard ns) per
/// item.
#[must_use]
pub fn pipeline(calls: &[Call], latencies: &[u64], cfg: &SisaConfig) -> (f64, f64) {
    let items = timeline_items(calls, latencies, cfg);
    let n = items.len() as u64;
    let pipeline = per_item(|| {
        let mut queue = IssueQueue::new(cfg.issue_depth, cfg.resolved_issue_lanes());
        let started = Instant::now();
        for (kind, cycles, reads, writes, intent) in &items {
            black_box(queue.issue_op(*kind, *cycles, reads, writes, *intent));
        }
        black_box(queue.makespan_cycles());
        (elapsed_ns(started), n)
    });
    let scoreboard = per_item(|| {
        let mut board = Scoreboard::new();
        let started = Instant::now();
        for (i, (_, cycles, reads, writes, _)) in items.iter().enumerate() {
            let ready = board.ready_at(reads, writes);
            board.record(reads, writes, ready + cycles);
            // The queue prunes retired entries at this interval; without it
            // the board would grow as it never does in use.
            if i % 64 == 63 {
                board.prune_completed(ready);
            }
        }
        black_box(board.tracked());
        (elapsed_ns(started), n)
    });
    (pipeline, scoreboard)
}

/// Every replayed line of one capture, nanoseconds per item.
#[derive(Clone, Copy, Debug)]
pub struct Replayed {
    /// `SetRepr` kernels, per binary operation.
    pub kernel: f64,
    /// Operand elements per binary operation (a size, not a time).
    pub elements_per_op: f64,
    /// PUM/PNM cost functions, per binary operation.
    pub price: f64,
    /// `RegisterFile::issue_*`, per instruction.
    pub issue: f64,
    /// `Scu::dispatch_*`, per instruction.
    pub scu: f64,
    /// `IssueQueue::issue_op`, per timeline item.
    pub pipeline: f64,
    /// `Scoreboard::ready_at` + `record`, per timeline item.
    pub scoreboard: f64,
}

impl Replayed {
    /// Replays `capture` through every component.
    #[must_use]
    pub fn of(capture: &Capture, cfg: &SisaConfig) -> Self {
        let (kernel, elements_per_op) = kernels(&capture.pairs);
        let (scu, latencies) = scu(&capture.calls, cfg);
        let (pipeline, scoreboard) = pipeline(&capture.calls, &latencies, cfg);
        Replayed {
            kernel,
            elements_per_op,
            price: price(&capture.calls, cfg),
            issue: issue(&capture.calls),
            scu,
            pipeline,
            scoreboard,
        }
    }
}

/// Instructions among the captured calls.
#[must_use]
pub fn instruction_count(capture: &Capture) -> u64 {
    capture.calls.iter().filter(|c| c.is_instruction()).count() as u64
}
