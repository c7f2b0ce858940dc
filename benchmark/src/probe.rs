//! A `SetEngine` wrapper the benchmark puts between an algorithm and an
//! engine. It observes the calls from outside: it can time each one (so a
//! job splits into algorithm self time and engine time), record spans, and
//! capture the operand stream for replay through single components. The
//! wrapped engine is untouched.

use crate::spans::{Span, SpanLog};
use sisa_core::scu::BinarySetOp;
use sisa_core::{ExecStats, SetEngine, SetMetadata, TaskRecord, Vertex};
use sisa_isa::{SetId, SisaOpcode};
use sisa_sets::SetRepr;
use std::time::Instant;

/// Which of the three forms of a binary operation a call used.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Form {
    /// `dst = A op B`.
    New,
    /// `|A op B|`.
    Count,
    /// `A op= B`.
    Assign,
}

/// One captured engine call, with what the simulator's components need to
/// process it again on their own.
#[derive(Clone, Debug)]
pub enum Call {
    /// A binary set operation.
    Binary {
        /// The operation.
        op: BinarySetOp,
        /// Its form.
        form: Form,
        /// Left operand.
        a: SetId,
        /// Right operand.
        b: SetId,
        /// The set written, if any.
        dst: Option<SetId>,
        /// Metadata of the left operand when the call was made.
        ma: SetMetadata,
        /// Metadata of the right operand when the call was made.
        mb: SetMetadata,
    },
    /// A single-element instruction (`insert`, `remove`, `contains`).
    Element {
        /// The opcode issued.
        opcode: SisaOpcode,
        /// The set.
        id: SetId,
        /// Its metadata when the call was made.
        meta: SetMetadata,
    },
    /// `sisa.new`.
    Create {
        /// The id assigned.
        id: SetId,
    },
    /// `sisa.clone`.
    Clone {
        /// Source.
        src: SetId,
        /// The id assigned.
        dst: SetId,
    },
    /// `sisa.del`.
    Delete {
        /// The set deleted.
        id: SetId,
    },
    /// `sisa.card`.
    Cardinality {
        /// The set.
        id: SetId,
    },
    /// A read-out of the members to the host (no instruction).
    Members {
        /// The set.
        id: SetId,
        /// How many members were handed over.
        len: usize,
    },
    /// Host scalar work (no instruction).
    HostOps(u64),
}

impl Call {
    /// Whether the call issues a SISA instruction.
    #[must_use]
    pub fn is_instruction(&self) -> bool {
        !matches!(self, Call::Members { .. } | Call::HostOps(_))
    }
}

/// The operands of one captured binary operation, for kernel replay.
#[derive(Clone, Debug)]
pub struct OperandPair {
    /// The operation.
    pub op: BinarySetOp,
    /// Whether only the size of the result was asked for.
    pub count_only: bool,
    /// Left operand as it was.
    pub a: SetRepr,
    /// Right operand as it was.
    pub b: SetRepr,
}

/// What a capturing probe collected.
#[derive(Clone, Debug, Default)]
pub struct Capture {
    /// Every engine call, in order.
    pub calls: Vec<Call>,
    /// Operand pairs of binary operations; every `pair_stride`-th one, so a
    /// long job does not hold every operand.
    pub pairs: Vec<OperandPair>,
    /// Binary operations seen (captured or not).
    pub binary_ops: u64,
}

/// Per-call spans stop once the log holds this many spans, leaving room for
/// the per-job spans of the rest of the run.
pub const CALL_SPAN_LIMIT: usize = 40_000;

/// Keep one operand pair in this many.
const PAIR_STRIDE: u64 = 4;

/// Wall time and call count of the engine calls of one job.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct EngineTime {
    /// Calls made.
    pub calls: u64,
    /// Sum of the calls' wall time.
    pub ns: u64,
}

/// The wrapper. With nothing switched on it only forwards.
pub struct Probe<E: SetEngine> {
    inner: E,
    timing: bool,
    time: EngineTime,
    capture: Option<Capture>,
    /// The span log of a traced run, and the instant its times count from.
    spans: Option<(SpanLog, Instant)>,
    /// While set, every call records a span under this (parent, job id).
    call_parent: Option<(usize, u64)>,
}

impl<E: SetEngine> Probe<E> {
    /// Wraps `inner`; forwards only, until something is switched on.
    pub fn new(inner: E) -> Self {
        Probe {
            inner,
            timing: false,
            time: EngineTime::default(),
            capture: None,
            spans: None,
            call_parent: None,
        }
    }

    /// Starts timing every call.
    ///
    /// A timed call costs the caller more than the time it records: part of
    /// the two clock reads and the bookkeeping fall outside the recorded
    /// interval. [`Probe::untimed_overhead_ns`] measures that part.
    pub fn time_calls(&mut self) {
        self.timing = true;
    }

    /// Returns and clears the time accumulated since the last call.
    pub fn take_time(&mut self) -> EngineTime {
        std::mem::take(&mut self.time)
    }

    /// Starts capturing calls and operands.
    pub fn start_capture(&mut self) {
        self.capture = Some(Capture::default());
    }

    /// Stops capturing and hands over what was collected.
    pub fn take_capture(&mut self) -> Capture {
        self.capture.take().unwrap_or_default()
    }

    /// Gives the probe the span log of a traced run; span times count from
    /// `base`.
    pub fn attach_spans(&mut self, log: SpanLog, base: Instant) {
        self.spans = Some((log, base));
    }

    /// The attached span log, for the caller's own spans around whole
    /// algorithm calls.
    pub fn spans_mut(&mut self) -> Option<&mut SpanLog> {
        self.spans.as_mut().map(|(log, _)| log)
    }

    /// Detaches and returns the span log.
    pub fn take_spans(&mut self) -> Option<SpanLog> {
        self.call_parent = None;
        self.spans.take().map(|(log, _)| log)
    }

    /// While `Some((parent, job))`, every timed call also records a span
    /// under `parent`. Per-call spans are many, so a run switches them on
    /// for one job only.
    pub fn record_calls_under(&mut self, parent: Option<(usize, u64)>) {
        self.call_parent = parent;
    }

    fn metadata(&self, id: SetId) -> SetMetadata {
        let repr = self.inner.repr(id);
        let universe = match repr {
            SetRepr::Dense(d) => d.universe(),
            _ => self.inner.universe(),
        };
        SetMetadata {
            kind: repr.kind(),
            cardinality: repr.len(),
            universe,
            // The synthetic storage address plays no part in any cost.
            address: 0,
        }
    }

    fn note(&mut self, call: impl FnOnce(&Self) -> Call) {
        if self.capture.is_none() {
            return;
        }
        let call = call(self);
        if let Some(capture) = &mut self.capture {
            capture.calls.push(call);
        }
    }

    fn note_binary(&mut self, op: BinarySetOp, form: Form, a: SetId, b: SetId) {
        let Some(seen) = self.capture.as_ref().map(|c| c.binary_ops) else {
            return;
        };
        let (ma, mb) = (self.metadata(a), self.metadata(b));
        let pair = seen.is_multiple_of(PAIR_STRIDE).then(|| OperandPair {
            op,
            count_only: form == Form::Count,
            a: self.inner.repr(a).clone(),
            b: self.inner.repr(b).clone(),
        });
        let capture = self.capture.as_mut().expect("capturing");
        capture.binary_ops += 1;
        capture.pairs.extend(pair);
        capture.calls.push(Call::Binary {
            op,
            form,
            a,
            b,
            dst: (form == Form::Assign).then_some(a),
            ma,
            mb,
        });
    }

    /// Fills in the id a materialising operation or a create assigned.
    fn note_dst(&mut self, id: SetId) {
        if let Some(capture) = &mut self.capture {
            match capture.calls.last_mut() {
                Some(Call::Binary { dst, .. }) => *dst = Some(id),
                Some(Call::Create { id: slot } | Call::Clone { dst: slot, .. }) => *slot = id,
                _ => {}
            }
        }
    }

    fn call<R>(&mut self, name: &'static str, f: impl FnOnce(&mut E) -> R) -> R {
        if !self.timing {
            return f(&mut self.inner);
        }
        let started = Instant::now();
        let out = f(&mut self.inner);
        let ns = started.elapsed().as_nanos() as u64;
        self.time.calls += 1;
        self.time.ns += ns;
        if let (Some((parent, trace_id)), Some((log, base))) = (self.call_parent, &mut self.spans) {
            if log.spans().len() >= CALL_SPAN_LIMIT {
                return out;
            }
            let start_ns = started.duration_since(*base).as_nanos() as u64;
            log.push(Span {
                name,
                trace_id,
                parent: Some(parent),
                start_ns,
                end_ns: start_ns + ns,
            });
        }
        out
    }

    fn element(&mut self, opcode: SisaOpcode, id: SetId) {
        self.note(|p| Call::Element {
            opcode,
            id,
            meta: p.metadata(id),
        });
    }
}

impl Probe<sisa_core::FunctionalEngine> {
    /// Nanoseconds a timed call costs its caller beyond what the probe
    /// records for it, measured on an engine call that does nothing.
    #[must_use]
    pub fn untimed_overhead_ns() -> f64 {
        let mut probe = Probe::new(sisa_core::FunctionalEngine::new());
        probe.time_calls();
        let calls = 200_000u32;
        let started = Instant::now();
        for _ in 0..calls {
            probe.host_ops(0);
        }
        let wall = started.elapsed().as_nanos() as f64;
        (wall - probe.take_time().ns as f64).max(0.0) / f64::from(calls)
    }
}

impl<E: SetEngine> SetEngine for Probe<E> {
    fn backend_name(&self) -> &'static str {
        self.inner.backend_name()
    }

    fn set_universe(&mut self, n: usize) {
        self.inner.set_universe(n);
    }

    fn universe(&self) -> usize {
        self.inner.universe()
    }

    fn stats(&self) -> &ExecStats {
        self.inner.stats()
    }

    fn reset_stats(&mut self) {
        self.inner.reset_stats();
    }

    fn live_sets(&self) -> usize {
        self.inner.live_sets()
    }

    fn create(&mut self, repr: SetRepr) -> SetId {
        self.note(|_| Call::Create { id: SetId(0) });
        let id = self.call("sisa-core.create", |e| e.create(repr));
        self.note_dst(id);
        id
    }

    fn clone_set(&mut self, id: SetId) -> SetId {
        self.note(|_| Call::Clone {
            src: id,
            dst: SetId(0),
        });
        let new = self.call("sisa-core.clone_set", |e| e.clone_set(id));
        self.note_dst(new);
        new
    }

    fn delete(&mut self, id: SetId) {
        self.note(|_| Call::Delete { id });
        self.call("sisa-core.delete", |e| e.delete(id));
    }

    fn cardinality(&mut self, id: SetId) -> usize {
        self.note(|_| Call::Cardinality { id });
        self.call("sisa-core.cardinality", |e| e.cardinality(id))
    }

    fn contains(&mut self, id: SetId, v: Vertex) -> bool {
        self.element(SisaOpcode::Membership, id);
        self.call("sisa-core.contains", |e| e.contains(id, v))
    }

    fn members(&mut self, id: SetId) -> Vec<Vertex> {
        let members = self.call("sisa-core.members", |e| e.members(id));
        let len = members.len();
        self.note(|_| Call::Members { id, len });
        members
    }

    fn repr(&self, id: SetId) -> &SetRepr {
        self.inner.repr(id)
    }

    fn insert(&mut self, id: SetId, v: Vertex) -> bool {
        self.element(SisaOpcode::InsertElement, id);
        self.call("sisa-core.insert", |e| e.insert(id, v))
    }

    fn remove(&mut self, id: SetId, v: Vertex) -> bool {
        self.element(SisaOpcode::RemoveElement, id);
        self.call("sisa-core.remove", |e| e.remove(id, v))
    }

    fn intersect(&mut self, a: SetId, b: SetId) -> SetId {
        self.note_binary(BinarySetOp::Intersection, Form::New, a, b);
        let id = self.call("sisa-core.intersect", |e| e.intersect(a, b));
        self.note_dst(id);
        id
    }

    fn union(&mut self, a: SetId, b: SetId) -> SetId {
        self.note_binary(BinarySetOp::Union, Form::New, a, b);
        let id = self.call("sisa-core.union", |e| e.union(a, b));
        self.note_dst(id);
        id
    }

    fn difference(&mut self, a: SetId, b: SetId) -> SetId {
        self.note_binary(BinarySetOp::Difference, Form::New, a, b);
        let id = self.call("sisa-core.difference", |e| e.difference(a, b));
        self.note_dst(id);
        id
    }

    fn intersect_count(&mut self, a: SetId, b: SetId) -> usize {
        self.note_binary(BinarySetOp::Intersection, Form::Count, a, b);
        self.call("sisa-core.intersect_count", |e| e.intersect_count(a, b))
    }

    fn union_count(&mut self, a: SetId, b: SetId) -> usize {
        self.note_binary(BinarySetOp::Union, Form::Count, a, b);
        self.call("sisa-core.union_count", |e| e.union_count(a, b))
    }

    fn difference_count(&mut self, a: SetId, b: SetId) -> usize {
        self.note_binary(BinarySetOp::Difference, Form::Count, a, b);
        self.call("sisa-core.difference_count", |e| e.difference_count(a, b))
    }

    fn intersect_assign(&mut self, a: SetId, b: SetId) {
        self.note_binary(BinarySetOp::Intersection, Form::Assign, a, b);
        self.call("sisa-core.intersect_assign", |e| e.intersect_assign(a, b));
    }

    fn union_assign(&mut self, a: SetId, b: SetId) {
        self.note_binary(BinarySetOp::Union, Form::Assign, a, b);
        self.call("sisa-core.union_assign", |e| e.union_assign(a, b));
    }

    fn difference_assign(&mut self, a: SetId, b: SetId) {
        self.note_binary(BinarySetOp::Difference, Form::Assign, a, b);
        self.call("sisa-core.difference_assign", |e| e.difference_assign(a, b));
    }

    fn host_ops(&mut self, n: u64) {
        self.note(|_| Call::HostOps(n));
        self.call("sisa-core.host_ops", |e| e.host_ops(n));
    }

    fn absorb_lane_work(&mut self, cycles: u64, writes: &[SetId]) {
        self.call("sisa-core.absorb_lane_work", |e| {
            e.absorb_lane_work(cycles, writes);
        });
    }

    fn task_begin(&mut self) {
        self.call("sisa-core.task_begin", SetEngine::task_begin);
    }

    fn task_end(&mut self) -> TaskRecord {
        self.call("sisa-core.task_end", SetEngine::task_end)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sisa_core::FunctionalEngine;

    #[test]
    fn a_probe_forwards_and_captures_ids() {
        let mut p = Probe::new(FunctionalEngine::new());
        p.set_universe(16);
        p.start_capture();
        p.time_calls();
        let a = p.create_sorted([1, 2, 3]);
        let b = p.create_sorted([2, 3, 4]);
        let c = p.intersect(a, b);
        assert_eq!(p.intersect_count(a, b), 2);
        assert_eq!(p.members(c), vec![2, 3]);
        p.delete(c);
        let time = p.take_time();
        assert_eq!(time.calls, 6);
        let capture = p.take_capture();
        assert_eq!(capture.calls.len(), 6);
        assert_eq!(capture.binary_ops, 2);
        assert!(matches!(capture.calls[0], Call::Create { id } if id == a));
        match &capture.calls[2] {
            Call::Binary {
                form, dst, ma, mb, ..
            } => {
                assert_eq!(*form, Form::New);
                assert_eq!(*dst, Some(c));
                assert_eq!((ma.cardinality, mb.cardinality), (3, 3));
            }
            other => panic!("expected a binary call, got {other:?}"),
        }
        assert_eq!(capture.pairs.len(), 1, "every fourth pair is kept");
        assert_eq!(capture.pairs[0].a.len(), 3);
    }
}
